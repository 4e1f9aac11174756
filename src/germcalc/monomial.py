"""Multi-indices, their total order, and staircases of initial exponents.

The order on N^n compares total degree first and breaks ties by the last
exponent, then the one before it, and so on down to the first.  It is a
total order compatible with addition, and any nonempty subset of N^n has a
least element for it, which is what makes truncated division terminate.

A staircase is a subset of N^n stable under adding arbitrary multi-indices;
it is stored by its finitely many minimal points (vertices).

The series kernel keys a monomial by one int (Bachmann and Schoenemann,
ISSAC 1998): the degree, then a_n, ..., a_1, in FIELD_BITS-wide fields
whose top bits are guards kept clear.  Integer order is the monomial
order, a product is one addition, and a divides m exactly when m - a sets
no guard bit (the lowest field that borrows sets its own).
"""

from __future__ import annotations

from functools import cache, total_ordering
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DimensionError, LimitError, _Frozen

FIELD_BITS = 16
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1  # the largest value below a guard bit
_FIELD_MASK = (1 << FIELD_BITS) - 1


def check_width(name: str, degree: int) -> None:
    """Refuse a degree that a packed key cannot hold."""
    if degree > MAX_DEGREE:
        raise LimitError(f"{name} {degree} exceeds the limit of {MAX_DEGREE} "
                         f"set by {FIELD_BITS}-bit exponent fields")


def pack(exponents: Sequence[int]) -> int:
    """The packed key of an exponent vector of naturals."""
    key = sum(exponents)
    check_width("degree", key)
    for e in reversed(exponents):
        key = key << FIELD_BITS | e
    return key


def unpack(key: int, dimension: int) -> tuple[int, ...]:
    """The exponent vector of a packed key."""
    return tuple(key >> (FIELD_BITS * i) & _FIELD_MASK for i in range(dimension))


@cache
def guard_bits(dimension: int) -> int:
    """The guard bits of the exponent fields (see the module docstring)."""
    return sum(1 << (FIELD_BITS * i + FIELD_BITS - 1) for i in range(dimension))


@total_ordering
class MultiIndex(_Frozen):
    """An exponent vector in N^n, ordered degree-first then right-to-left.

    sort_key is (|a|, a_n, ..., a_1); lexicographic comparison of these
    keys realizes the order."""

    __slots__ = ("exponents", "sort_key")

    def __init__(self, exponents: Iterable[int]):
        exp = tuple(exponents)
        for e in exp:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"multi-index entries must be naturals, got {exp!r}")
        object.__setattr__(self, "exponents", exp)
        object.__setattr__(self, "sort_key", (sum(exp),) + exp[::-1])

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return self.sort_key[0]

    def __len__(self):
        return len(self.exponents)

    def __getitem__(self, i: int) -> int:
        return self.exponents[i]

    def __iter__(self):
        return iter(self.exponents)

    def _check_dim(self, other: "MultiIndex"):
        if len(self.exponents) != len(other.exponents):
            raise DimensionError(
                f"multi-index dimensions differ: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        self._check_dim(other)
        return MultiIndex(a + b for a, b in zip(self.exponents, other.exponents))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        """Componentwise difference; only defined when other divides self."""
        self._check_dim(other)
        diff = tuple(a - b for a, b in zip(self.exponents, other.exponents))
        if any(d < 0 for d in diff):
            raise ValueError(f"{other} does not divide {self}")
        return MultiIndex(diff)

    def dominates(self, other: "MultiIndex") -> bool:
        """True iff self >= other componentwise (self lies in other + N^n)."""
        self._check_dim(other)
        return all(a >= b for a, b in zip(self.exponents, other.exponents))

    # Rich comparisons implement the monomial order, not the product order;
    # total_ordering derives the other three from this one and __eq__.
    def __lt__(self, other):
        self._check_dim(other)
        return self.sort_key < other.sort_key

    def __eq__(self, other):
        if isinstance(other, MultiIndex):
            return self.exponents == other.exponents
        return NotImplemented

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"MultiIndex({self.exponents!r})"

    def __str__(self):
        return "(" + ",".join(str(e) for e in self.exponents) + ")"


def compare(a: MultiIndex, b: MultiIndex) -> int:
    """-1, 0 or 1 according to the monomial order."""
    a._check_dim(b)
    return (a.sort_key > b.sort_key) - (a.sort_key < b.sort_key)


def _as_multi_index(point) -> MultiIndex:
    return point if isinstance(point, MultiIndex) else MultiIndex(point)


class Staircase(_Frozen):
    """A subset of N^n stable under addition of N^n, stored by its vertices.

    Construction normalizes: dominated input points are discarded, so two
    staircases describing the same region always compare equal.  The empty
    vertex set describes the empty region (the staircase of the zero ideal).
    """

    __slots__ = ("dimension", "vertices")

    def __init__(self, dimension: int, points: Iterable = ()):
        if dimension < 1:
            raise ValueError("staircase dimension must be at least 1")
        pts = {_as_multi_index(p) for p in points}
        for p in pts:
            if p.dimension != dimension:
                raise DimensionError(
                    f"point {p} does not live in dimension {dimension}"
                )
        minimal = frozenset(
            p for p in pts if not any(q != p and p.dominates(q) for q in pts)
        )
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "vertices", minimal)

    def sorted_vertices(self) -> list[MultiIndex]:
        return sorted(self.vertices, key=lambda v: v.sort_key)

    def contains(self, point) -> bool:
        p = _as_multi_index(point)
        if p.dimension != self.dimension:
            raise DimensionError(
                f"point {p} does not live in dimension {self.dimension}"
            )
        return any(p.dominates(v) for v in self.vertices)

    def __eq__(self, other):
        if isinstance(other, Staircase):
            return self.dimension == other.dimension and self.vertices == other.vertices
        return NotImplemented

    def __hash__(self):
        return hash((self.dimension, self.vertices))

    def __repr__(self):
        return f"Staircase({self.dimension}, {self.sorted_vertices()!r})"

    def __str__(self):
        return "[" + ",".join(str(v) for v in self.sorted_vertices()) + "]"


def vertex_extraction(points: Iterable, dimension: Optional[int] = None) -> Staircase:
    """Minimal vertex set generating the same region as the given points.

    The dimension must be supplied when the point list can be empty.
    """
    pts = [_as_multi_index(p) for p in points]
    if dimension is None:
        if not pts:
            raise ValueError("dimension required for an empty point set")
        dimension = pts[0].dimension
    return Staircase(dimension, pts)


def chain_stabilization(chain: Sequence[Staircase]) -> Optional[int]:
    """First index from which an increasing chain of staircases is constant.

    Raises ValueError if the chain is not increasing (each region must
    contain the previous one).  Returns None when the final two entries
    still differ, i.e. no stabilization is visible within the prefix.
    """
    chain = list(chain)
    if not chain:
        raise ValueError("empty staircase chain")
    for earlier, later in zip(chain, chain[1:]):
        if not all(later.contains(v) for v in earlier.vertices):
            raise ValueError("staircase chain is not increasing")
    last = chain[-1]
    index = len(chain) - 1
    while index > 0 and chain[index - 1] == last:
        index -= 1
    if index == len(chain) - 1 and len(chain) > 1:
        return None
    return index


def monomials_up_to(dimension: int, degree: int) -> Iterator[MultiIndex]:
    """All multi-indices of total degree <= degree, in increasing order."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")

    def gen(remaining_vars: int, budget: int):
        if remaining_vars == 1:
            for e in range(budget + 1):
                yield (e,)
            return
        for e in range(budget + 1):
            for rest in gen(remaining_vars - 1, budget - e):
                yield (e,) + rest

    out = [MultiIndex(t) for t in gen(dimension, degree)]
    out.sort(key=lambda m: m.sort_key)
    return iter(out)

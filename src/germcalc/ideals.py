"""Ideal presentations, jet ideals, and diagrams of initial exponents.

The degree-d jet of an ideal I = (g_1..g_p) is its image in the finite
algebra of series modulo m^(d+1).  JetSpace finds a standard basis of it
by Buchberger's loop, each S-pair reduced by truncated division.  The
loop ends: every nonzero remainder adds an initial exponent of degree
<= d outside the staircase so far, and there are finitely many, since
every term above degree d is zero (the highest-corner argument of Greuel
& Pfister).  The reduced standard basis, x^v - NF(x^v) for each vertex v
of the diagram, depends only on the jet ideal; the diagram within degree
d is the set of initial exponents of the jet ideal's nonzero elements.

Membership in a principal ideal needs no jet space.  One generator g is
already a standard basis: the monomial order adds initial exponents, so
the initial exponent of any nonzero u*g mod m^k is init(u) + init(g),
which lies in the staircase of g.  The remainder of truncated division by
g has no term in that staircase, so it is zero exactly when f lies in
(g) + m^k.  jet_membership decides one-generator ideals that way and
every other ideal against its jet space.

Every division here takes the remainder alone from division._divide and
builds no quotient and no Staircase.  S-pairs, corners and normal forms
wrap its whole remainder table; membership reads only its first term,
on ints over Q for a principal ideal and on Fraction against a jet
space (see division for why).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .division import _divide
from .errors import DimensionError, PrecisionError, _Frozen
from .monomial import MultiIndex, Staircase, monomials_up_to
from .series import FormalSeries


def _remainder(f: FormalSeries, divisors: list, degree: int) -> FormalSeries:
    """The remainder of f on division by the divisors at the degree."""
    return FormalSeries._from_table(f.dimension, degree, _divide(f, divisors, degree, whole=True))


class JetSpace(_Frozen):
    """The ideal the spanning series generate modulo m^(degree+1), kept as
    its reduced standard basis.

    Buchberger's criterion asks of each S-pair a representation sum q_k g_k
    whose products all start above the lcm of its initial exponents.  Its
    exchange argument climbs through the finitely many monomials of degree
    <= d, so it holds here without Mora's normal form.  Two kinds of pair
    have such a representation unreduced.  If the lcm has degree above d,
    every term of the S-polynomial does too, so it is zero.  If the initial
    exponents a, b are coprime, with g = c x^a + g' and h = e x^b + h', the
    S-polynomial e x^b g - c x^a h equals g' h - h' g, and both products
    start strictly above x^(a+b).

    The vector-space basis of the jet, one row x^m - NF(x^m) for each m of
    degree <= d in the diagram, is built on first read and kept.
    """

    __slots__ = ("_n", "_degree", "_corners", "_pivots", "_rows")

    def __init__(self, dimension: int, degree: int, spanning: Iterable[FormalSeries] = ()):
        if degree < 0:
            raise ValueError("jet degree must be a natural number")
        gens = []
        for s in spanning:
            if s.dimension != dimension:
                raise DimensionError("jet candidate has wrong dimension")
            if s.truncation < degree:
                raise PrecisionError(
                    f"jet candidate truncated at {s.truncation}, need degree {degree}"
                )
            s = s.truncate(degree)
            if not s.is_zero:
                gens.append(s)
        pairs = [(i, j) for j in range(len(gens)) for i in range(j)]
        while pairs:
            g, h = (gens[i] for i in pairs.pop())
            a, b = g.initial_exponent(), h.initial_exponent()
            lcm = MultiIndex(max(x, y) for x, y in zip(a, b))
            # the lcm has degree |a| + |b| exactly when a and b are coprime
            if lcm.degree > degree or lcm.degree == a.degree + b.degree:
                continue
            spoly = (FormalSeries.monomial(dimension, degree, lcm - a, h.coefficient(b)) * g
                     - FormalSeries.monomial(dimension, degree, lcm - b, g.coefficient(a)) * h)
            r = _remainder(spoly, gens, degree)
            if not r.is_zero:
                pairs += [(i, len(gens)) for i in range(len(gens))]
                gens.append(r)
        corners = {}
        for v in Staircase(dimension, (g.initial_exponent() for g in gens)).sorted_vertices():
            x_v = FormalSeries.monomial(dimension, degree, v)
            corners[v] = x_v - _remainder(x_v, gens, degree)
        object.__setattr__(self, "_n", dimension)
        object.__setattr__(self, "_degree", degree)
        object.__setattr__(self, "_corners", corners)
        object.__setattr__(self, "_pivots", None)
        object.__setattr__(self, "_rows", None)

    @property
    def dimension(self) -> int:
        return self._n

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def rank(self) -> int:
        return len(self.pivot_exponents)

    @property
    def pivot_exponents(self) -> list[MultiIndex]:
        if self._pivots is None:
            inside = self.staircase().contains
            pivots = [m for m in monomials_up_to(self._n, self._degree) if inside(m)]
            object.__setattr__(self, "_pivots", pivots)
        return list(self._pivots)

    @property
    def basis(self) -> list[FormalSeries]:
        if self._rows is None:
            xs = [FormalSeries.monomial(self._n, self._degree, m) for m in self.pivot_exponents]
            object.__setattr__(self, "_rows", [x - self.reduce(x) for x in xs])
        return list(self._rows)

    def _jet(self, f: FormalSeries) -> FormalSeries:
        if f.dimension != self._n:
            raise DimensionError("cannot reduce a series of wrong dimension")
        r = f.truncate(self._degree) if f.truncation > self._degree else f
        if r.truncation < self._degree:
            raise PrecisionError(
                f"series truncated at {r.truncation}, need degree {self._degree}"
            )
        return r

    def reduce(self, f: FormalSeries) -> FormalSeries:
        """Normal form of (the degree-jet of) f: its remainder on division
        by the reduced standard basis, with no term in the diagram."""
        r = self._jet(f)
        if not self._corners:
            return r
        return _remainder(r, list(self._corners.values()), self._degree)

    def contains(self, f: FormalSeries) -> bool:
        """Whether the normal form is zero, read off its first term."""
        r, corners = self._jet(f), list(self._corners.values())
        return not _divide(r, corners, self._degree, ints=False) if corners else r.is_zero

    def staircase(self) -> Staircase:
        return Staircase(self._n, self._corners)

    def __eq__(self, other):
        if isinstance(other, JetSpace):
            return (
                self._n == other._n
                and self._degree == other._degree
                and self._corners == other._corners
            )
        return NotImplemented

    def __repr__(self):
        return f"JetSpace(n={self._n}, d={self._degree}, rank={self.rank})"


class IdealPresentation(_Frozen):
    """An ideal of the formal power series ring given by finitely many
    generators.  Zero generators are dropped; no generators means the zero
    ideal.  Jet spaces are cached per degree."""

    __slots__ = ("_n", "_gens", "_cache")

    def __init__(self, dimension: int, generators: Sequence[FormalSeries] = ()):
        gens = tuple(g for g in generators if not g.is_zero)
        for g in gens:
            if g.dimension != dimension:
                raise DimensionError("generator dimension differs from ideal dimension")
        object.__setattr__(self, "_n", dimension)
        object.__setattr__(self, "_gens", gens)
        object.__setattr__(self, "_cache", {})

    @property
    def dimension(self) -> int:
        return self._n

    @property
    def generators(self) -> tuple[FormalSeries, ...]:
        return self._gens

    @property
    def generator_truncation(self) -> Optional[int]:
        """Common knowledge horizon of the generators; None for the zero
        ideal (which is known exactly at every degree)."""
        if not self._gens:
            return None
        return min(g.truncation for g in self._gens)

    def _check_degree(self, degree: int):
        bound = self.generator_truncation
        if bound is not None and degree > bound:
            raise PrecisionError(
                f"jet degree {degree} exceeds generator truncation {bound}"
            )

    def jet_space(self, degree: int) -> JetSpace:
        cached = self._cache.get(degree)
        if cached is None:
            self._check_degree(degree)
            cached = self._cache[degree] = JetSpace(self._n, degree, self._gens)
        return cached

    def diagram(self, degree: int) -> Staircase:
        return self.jet_space(degree).staircase()

    def __repr__(self):
        return f"IdealPresentation(n={self._n}, generators={len(self._gens)})"


def jet_membership(f: FormalSeries, ideal: IdealPresentation, k: int) -> bool:
    """Whether f lies in I + m^k, decided on jets of degree k - 1.

    An ideal with one generator g is decided by truncated division: f is
    in (g) + m^k exactly when the remainder of the degree-(k-1) jet of f
    on division by g is zero, since a nonzero r = u*g mod m^k has its
    initial exponent in the staircase of g, which the remainder avoids.
    The zero ideal and ideals with several generators, which are no
    standard basis in general, are decided against their jet space.
    """
    if k < 1:
        raise ValueError("membership order k must be at least 1")
    if f.dimension != ideal.dimension:
        raise DimensionError("series dimension differs from ideal dimension")
    if f.truncation < k - 1:
        raise PrecisionError(
            f"series truncated at {f.truncation}, need degree {k - 1}"
        )
    jet = f.truncate(k - 1)
    if len(ideal.generators) == 1:
        ideal._check_degree(k - 1)
        return not _divide(jet, ideal.generators, k - 1)
    return ideal.jet_space(k - 1).contains(jet)


@dataclass(frozen=True)
class HorizonReport:
    """Verdicts over orders k = 1..bound: per_order lists each order the
    scan evaluated with its verdict, and first_failure is the least
    failing order, or None."""

    bound: int
    per_order: tuple[tuple[int, bool], ...]
    first_failure: Optional[int]

    def __bool__(self):
        return self.first_failure is None


def membership_up_to(f: FormalSeries, ideal: IdealPresentation, bound: int) -> HorizonReport:
    """Scan f in I + m^k for k = 1..bound; memberships are decreasing in k,
    so the scan stops at the first failing order."""
    if bound < 1:
        raise ValueError("scan bound must be at least 1")
    per_order = []
    for k in range(1, bound + 1):
        member = jet_membership(f, ideal, k)
        per_order.append((k, member))
        if not member:
            return HorizonReport(bound, tuple(per_order), k)
    return HorizonReport(bound, tuple(per_order), None)

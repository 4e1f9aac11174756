"""Truncated formal power series and formal maps.

A FormalSeries carries its ambient variable count, an explicit truncation
degree K, and a sparse term table keyed by packed monomials (see
monomial.pack); it represents a residue class modulo terms of degree > K.
Every binary operation propagates the minimum of the operand truncations,
and nothing in this module invents a default K.  The constructor takes
tuple or MultiIndex keys, and the MultiIndex view of the table (terms,
sorted_terms) is built on first read and kept, since a series is
immutable.  The truncation is at most monomial.MAX_DEGREE.

Products run on term lists of (packed key, coefficient) pairs sorted by
key, so by degree.  Their one loop, _mul_terms, adds two keys to multiply
two monomials, and a bisection on the right operand bounds each left
term's pairs, so no pair past the truncation is visited.  Over Q the loop
sees only ints: each operand is cleared to integer numerators over the
lcm of its denominators, and each result coefficient is reduced once.
Over Q(i) coefficients pass through as they are, over 1.  Every
composition g o Phi runs through one table of monomial images
(_Images): each Phi^a is one product, formed once and kept, and g o Phi
is the sum of c_a * Phi^a over g's terms, additions only.

A FormalMap, like a VectorField (see dynamics), is n series in n
variables with zero constant term, cut to their common truncation; the
two share one base class.  Composition is exact through the carried
truncation; the inverse solves X o Phi = id one degree at a time (see
FormalMap.inverse).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import comb, lcm
from typing import Optional, Sequence

from .errors import DimensionError, InversionError, PrecisionError, _Frozen
from .monomial import _FIELD_MASK, FIELD_BITS, MultiIndex, check_width, pack, unpack
from .scalars import GaussianRational, _square_and_multiply, coerce_scalar

Scalar = Fraction | GaussianRational


def _bound(dimension: int, truncation: int) -> int:
    """The least packed key past degree truncation: a key, or a sum of two
    keys, has degree <= truncation exactly when it lies below this."""
    return truncation + 1 << FIELD_BITS * dimension


def _scaled_terms(table: dict) -> tuple[list, int]:
    """The terms of a term table as (packed key, numerator) pairs sorted by
    key, and their common denominator: int numerators over the lcm of the
    denominators over Q, the coefficients as they are over 1 over Q(i)."""
    items = sorted(table.items())
    try:
        ratios = [c.as_integer_ratio() for _, c in items]
    except AttributeError:  # a GaussianRational has no integer ratio
        return items, 1
    den = lcm(*[q for _, q in ratios])
    return [(k, p * (den // q)) for (k, _), (p, q) in zip(items, ratios)], den


def _mul_terms(left, right, bound: int, table=None) -> dict:
    """The product of two term lists of (packed key, coefficient) pairs,
    right sorted by key, through the degree that bound ends (see _bound),
    added into table (a new dict when None) and returned.  Sums that
    cancel stay in the table as zeros."""
    if table is None:
        table = {}
    get = table.get
    for ka, ca in left:
        # the right terms kb with ka + kb below bound
        for kb, cb in right[: bisect_left(right, (bound - ka,))]:
            key = ka + kb
            table[key] = get(key, 0) + ca * cb
    return table


def _nonzero_terms(table: dict) -> list[tuple[int, Scalar]]:
    """A product table as a term list, cancelled terms dropped; only the
    right operand of _mul_terms needs sorting."""
    return [(k, c) for k, c in table.items() if c]


_ONE = [(0, 1)]
_ZERO = Fraction(0)


class _Images(dict):
    """Phi^a, for series Phi_1..Phi_n in a common dimension m cut at a
    truncation, by packed a in n variables: a term list of integer
    numerators in m variables and its denominator; Phi^0 is 1, so a
    constant term pulls back too.  A missing image is formed on first
    read, as one _mul_terms product of the nearest image below it by a
    component."""

    __slots__ = ("bound", "comps", "steps")

    def __init__(self, components: Sequence["FormalSeries"], truncation: int):
        n = len(components)
        self.bound = _bound(components[0].dimension, truncation)
        self.comps = [_scaled_terms(c.truncate(truncation)._table) for c in components]
        self.steps = [1 << FIELD_BITS * n | 1 << FIELD_BITS * j for j in range(n)]  # x_j
        super().__init__([(0, (_ONE, 1)), *zip(self.steps, self.comps)])

    def __missing__(self, key):
        chain = []
        while key not in self:  # down by the first variable of key
            j = next(j for j in range(len(self.steps)) if key >> FIELD_BITS * j & _FIELD_MASK)
            chain.append((key, j))
            key -= self.steps[j]
        for key, j in reversed(chain):
            (terms, den), (right, d) = self[key - self.steps[j]], self.comps[j]
            self[key] = _nonzero_terms(_mul_terms(terms, right, self.bound)), den * d
        return self[key]

    def pull(self, table: dict, acc: dict, den: int) -> int:
        """Add g o Phi, the sum of c_a * Phi^a over g's term table, into acc,
        numerators over den, by additions; return acc's new denominator."""
        parts = [(self[key], c.as_integer_ratio() if type(c) is Fraction else (c, 1))
                 for key, c in table.items()]
        common = lcm(den, *(q * d for (_, d), (_, q) in parts))
        for k in acc if common != den else ():
            acc[k] *= common // den
        for (terms, d), (num, q) in parts:
            scale = num * (common // (q * d))
            for k, v in terms:
                acc[k] = acc.get(k, 0) + scale * v
        return common

    def composed(self, table: dict, den: int = 1) -> dict[int, Scalar]:
        """g o Phi as a series term table, for g the term table of
        numerators over den."""
        acc: dict = {}
        return _reduced(acc, self.pull(table, acc, 1) * den)


def _reduced(table: dict, den: int) -> dict[int, Scalar]:
    """A table of numerators over den as a series term table, zero
    coefficients dropped; an int numerator becomes a Fraction."""
    if den == 1:
        return {k: Fraction(c) if type(c) is int else c for k, c in table.items() if c}
    return {k: Fraction(c, den) if type(c) is int else c / den for k, c in table.items() if c}


class FormalSeries(_Frozen):
    """A formal power series known exactly up to its truncation degree."""

    __slots__ = ("dimension", "truncation", "_table", "_view")

    def __init__(self, dimension: int, truncation: int, terms=None):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if truncation < 0:
            raise ValueError("truncation degree must be a natural number")
        check_width("truncation", truncation)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "_view", None)
        table: dict[int, Scalar] = {}
        for key, value in terms.items() if hasattr(terms, "items") else terms or ():
            k = self._packed_key(key)
            if k is not None:
                c = coerce_scalar(value)
                table[k] = table[k] + c if k in table else c
        object.__setattr__(self, "_table", {k: c for k, c in table.items() if c})

    def _packed_key(self, key) -> Optional[int]:
        """The packed key of a tuple or MultiIndex exponent of this
        dimension, None past the truncation.  A plain tuple of naturals packs
        directly; any other key, and every error, goes through MultiIndex."""
        if (type(key) is tuple and len(key) == self.dimension
                and all(type(e) is int and e >= 0 for e in key)):
            return pack(key) if sum(key) <= self.truncation else None
        mi = key if isinstance(key, MultiIndex) else MultiIndex(key)
        if mi.dimension != self.dimension:
            raise DimensionError(f"exponent {mi} does not live in dimension {self.dimension}")
        return pack(mi.exponents) if mi.degree <= self.truncation else None

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_table(cls, dimension: int, truncation: int, table: dict) -> "FormalSeries":
        """A series over a ready table, taken without a copy or the constructor's
        checks: packed keys of this dimension and degree <= truncation, nonzero values."""
        out = object.__new__(cls)
        object.__setattr__(out, "dimension", dimension)
        object.__setattr__(out, "truncation", truncation)
        object.__setattr__(out, "_table", table)
        object.__setattr__(out, "_view", None)
        return out

    @classmethod
    def zero(cls, dimension: int, truncation: int) -> "FormalSeries":
        return cls(dimension, truncation)

    @classmethod
    def constant(cls, dimension: int, truncation: int, value) -> "FormalSeries":
        return cls(dimension, truncation, {(0,) * dimension: value})

    @classmethod
    def variable(cls, dimension: int, truncation: int, index: int) -> "FormalSeries":
        if not 0 <= index < dimension:
            raise ValueError(f"variable index {index} out of range")
        exp = tuple(1 if j == index else 0 for j in range(dimension))
        return cls(dimension, truncation, {exp: 1})

    @classmethod
    def monomial(cls, dimension: int, truncation: int, exponents, coefficient=1) -> "FormalSeries":
        return cls(dimension, truncation, {tuple(exponents): coefficient})

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> dict[MultiIndex, Scalar]:
        """The term table keyed by MultiIndex, in increasing monomial order;
        treat as read-only."""
        if self._view is None:
            n = self.dimension
            view = {MultiIndex(unpack(k, n)): c for k, c in sorted(self._table.items())}
            object.__setattr__(self, "_view", view)
        return self._view

    @property
    def is_zero(self) -> bool:
        return not self._table

    def coefficient(self, key) -> Scalar:
        return self._table.get(self._packed_key(key), _ZERO)

    def constant_term(self) -> Scalar:
        return self._table.get(0, _ZERO)

    def sorted_terms(self) -> list[tuple[MultiIndex, Scalar]]:
        return list(self.terms.items())

    def initial_exponent(self) -> Optional[MultiIndex]:
        """Exponent of the order-smallest term, None for the zero series."""
        if not self._table:
            return None
        return MultiIndex(unpack(min(self._table), self.dimension))

    def order(self) -> Optional[int]:
        """Degree of the lowest term, None for the zero series."""
        if not self._table:
            return None
        return min(self._table) >> FIELD_BITS * self.dimension

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other: "FormalSeries"):
        if self.dimension != other.dimension:
            raise DimensionError(
                f"series dimensions differ: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other):
        if not isinstance(other, FormalSeries):
            other = self._promote(other)
            if other is None:
                return NotImplemented
        self._check_compatible(other)
        trunc = min(self.truncation, other.truncation)
        table = dict(self.truncate(trunc)._table)
        for k, c in other.truncate(trunc)._table.items():
            s = table.get(k, 0) + c
            if s:
                table[k] = s
            elif k in table:
                del table[k]
        return FormalSeries._from_table(self.dimension, trunc, table)

    def _promote(self, value) -> Optional["FormalSeries"]:
        try:
            c = coerce_scalar(value)
        except TypeError:
            return None
        return FormalSeries.constant(self.dimension, self.truncation, c)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return FormalSeries._from_table(
            self.dimension, self.truncation, {k: -c for k, c in self._table.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, FormalSeries):
            other = self._promote(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        promoted = self._promote(other)
        if promoted is None:
            return NotImplemented
        return promoted + (-self)

    def __mul__(self, other):
        if isinstance(other, FormalSeries):
            self._check_compatible(other)
            trunc = min(self.truncation, other.truncation)
            (left, da), (right, db) = _scaled_terms(self._table), _scaled_terms(other._table)
            table = _mul_terms(left, right, _bound(self.dimension, trunc))
            return FormalSeries._from_table(self.dimension, trunc, _reduced(table, da * db))
        try:
            c = coerce_scalar(other)
        except TypeError:
            return NotImplemented
        if not c:
            return FormalSeries(self.dimension, self.truncation)
        return FormalSeries._from_table(
            self.dimension, self.truncation, {k: v * c for k, v in self._table.items()}
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent):
        """A natural power by square-and-multiply; 1 for exponent 0."""
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        one = FormalSeries.constant(self.dimension, self.truncation, 1)
        return _square_and_multiply(self, exponent, FormalSeries.__mul__, one)

    def truncate(self, degree: int) -> "FormalSeries":
        """Discard terms of degree > degree; degree may not exceed the
        carried truncation (that would claim precision we do not have)."""
        if degree < 0:
            raise ValueError("truncation degree must be a natural number")
        if degree > self.truncation:
            raise PrecisionError(
                f"cannot truncate at {degree}: series only known up to {self.truncation}"
            )
        if degree == self.truncation:
            return self
        bound = _bound(self.dimension, degree)
        return FormalSeries._from_table(
            self.dimension, degree, {k: c for k, c in self._table.items() if k < bound}
        )

    def derivative(self, index: int) -> "FormalSeries":
        """Partial derivative; the result is exact one degree lower."""
        if not 0 <= index < self.dimension:
            raise ValueError(f"variable index {index} out of range")
        if self.truncation == 0:
            raise PrecisionError("cannot differentiate a series truncated at 0")
        # x_index^-1 lowers that field and the degree field by one each
        low = FIELD_BITS * index
        step = (1 << low) + (1 << FIELD_BITS * self.dimension)
        table: dict[int, Scalar] = {}
        for k, c in self._table.items():
            e = k >> low & _FIELD_MASK
            if e:
                table[k - step] = c * e
        return FormalSeries._from_table(self.dimension, self.truncation - 1, table)

    def substitute(self, components: Sequence["FormalSeries"]) -> "FormalSeries":
        """Substitute one series per variable; components must have zero
        constant term and live in a common dimension, which may differ
        from this series'.  The result is the sum of the terms' images
        through one _Images table."""
        if len(components) != self.dimension:
            raise DimensionError(
                f"need {self.dimension} substitution components, got {len(components)}"
            )
        m = components[0].dimension
        trunc = min([self.truncation] + [c.truncation for c in components])
        for comp in components:
            if comp.dimension != m:
                raise DimensionError("substitution components have mixed dimensions")
            if comp.constant_term():
                raise ValueError("substitution components must vanish at 0")
        table = _Images(components, trunc).composed(self.truncate(trunc)._table)
        return FormalSeries._from_table(m, trunc, table)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FormalSeries):
            return (
                self.dimension == other.dimension
                and self.truncation == other.truncation
                and self._table == other._table
            )
        return NotImplemented

    def __repr__(self):
        items = ", ".join(f"{m}: {c}" for m, c in self.sorted_terms())
        return f"FormalSeries(n={self.dimension}, K={self.truncation}, {{{items}}})"


def compose(f: FormalSeries, phi: "FormalMap") -> FormalSeries:
    """f after phi; exact through min(truncations)."""
    if phi.dimension != f.dimension:
        raise DimensionError(
            f"cannot compose a {f.dimension}-variable series with a map on "
            f"{phi.dimension} variables"
        )
    return f.substitute(phi.components)


class _ComponentTuple(_Frozen):
    """n series in n variables, none with a constant term, cut to their
    common truncation: a formal map or a vector field, named by ``_kind``
    in errors.  Equal only to the same class with equal components."""

    __slots__ = ("components", "truncation")

    def __init__(self, components: Sequence[FormalSeries]):
        comps = tuple(components)
        if not comps:
            raise ValueError(f"a {self._kind} needs at least one component")
        n = len(comps)
        for c in comps:
            if c.dimension != n:
                noun = self._kind.split()[-1]
                raise DimensionError(
                    f"{noun} on {n} variables has a component in dimension {c.dimension}"
                )
            if c.constant_term():
                raise ValueError(f"{self._kind} components must vanish at 0")
        trunc = min(c.truncation for c in comps)
        object.__setattr__(self, "components", tuple(c.truncate(trunc) for c in comps))
        object.__setattr__(self, "truncation", trunc)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def truncate(self, degree: int):
        return type(self)([c.truncate(degree) for c in self.components])

    def compose(self, other: "FormalMap"):
        """self after the map other, in the class of self: every component
        a sum of images from one _Images table of other."""
        if other.dimension != self.dimension:
            raise DimensionError("cannot compose maps of different dimensions")
        trunc = min(self.truncation, other.truncation)
        images = _Images(other.components, trunc)
        return type(self)([FormalSeries._from_table(
            self.dimension, trunc, images.composed(c.truncate(trunc)._table))
            for c in self.components])

    def __eq__(self, other):
        if isinstance(other, _ComponentTuple):
            return type(other) is type(self) and self.components == other.components
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({list(self.components)!r})"


class FormalMap(_ComponentTuple):
    """A formal self-map germ fixing the origin, one series per coordinate."""

    __slots__ = ()
    _kind = "formal map"

    @classmethod
    def identity(cls, dimension: int, truncation: int) -> "FormalMap":
        return cls(
            [FormalSeries.variable(dimension, truncation, i) for i in range(dimension)]
        )

    def linear_matrix(self) -> list[list[Scalar]]:
        n = self.dimension
        units = [tuple(1 if t == j else 0 for t in range(n)) for j in range(n)]
        return [[comp.coefficient(e) for e in units] for comp in self.components]

    @property
    def is_invertible(self) -> bool:
        return _invert_matrix(self.linear_matrix()) is not None

    def linear_inverse(self) -> list[list[Scalar]]:
        """Inverse of the linear part; refuses a singular or unknown one."""
        if self.truncation < 1:
            raise PrecisionError("the linear part of a map truncated at 0 is unknown")
        inv = _invert_matrix(self.linear_matrix())
        if inv is None:
            raise InversionError("formal map has singular linear part")
        return inv

    def inverse(self) -> "FormalMap":
        """Compositional inverse through the carried truncation.

        Solves X o self = id one degree at a time (Brent and Kung, J. ACM
        1978).  X_1 is L^-1, the inverse linear forms.  Since every X_d is
        homogeneous of degree d, the degree-d part of X_d o self is X_d o L,
        so for d >= 2 X_d is -[X_<d o self]_d o L^-1.  A running table per
        component holds X_<d o self on integer numerators over one
        denominator, and X_(d-1) o self adds into it through one _Images
        table of self^a.  Each degree-d error, numerators over that
        denominator, is composed with L^-1 through a second _Images table,
        of (L^-1)^a.  Both tables are shared by the n components and by
        every degree.
        """
        n, K = self.dimension, self.truncation
        units = [tuple(1 if t == j else 0 for t in range(n)) for j in range(n)]
        linear = [FormalSeries(n, K, zip(units, row)) for row in self.linear_inverse()]
        images, linear_images = _Images(self.components, K), _Images(linear, K)
        x = [dict(c._table) for c in linear]  # X through the last degree solved
        last, moved, dens = x, [{} for _ in range(n)], [1] * n  # X_(d-1); X_<d o self over dens
        for degree in range(2, K + 1):
            dens = [images.pull(new, table, den) for new, table, den in zip(last, moved, dens)]
            error = [{k: -v for k, v in t.items() if v and k >> FIELD_BITS * n == degree}
                     for t in moved]
            last = [linear_images.composed(e, den) for e, den in zip(error, dens)]
            for table, new in zip(x, last):
                table.update(new)  # X_d holds the terms of degree d
        return FormalMap([FormalSeries._from_table(n, K, t) for t in x])


def _invert_matrix(rows: list[list[Scalar]]) -> Optional[list[list[Scalar]]]:
    """Exact Gauss-Jordan inverse over Q or Q(i); None if singular."""
    n = len(rows)
    work = [list(r) for r in rows]
    result = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            return None
        work[col], work[pivot_row] = work[pivot_row], work[col]
        result[col], result[pivot_row] = result[pivot_row], result[col]
        pivot = work[col][col]
        work[col] = [v / pivot for v in work[col]]
        result[col] = [v / pivot for v in result[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor:
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
                result[r] = [a - factor * b for a, b in zip(result[r], result[col])]
    return result


def realify(f: FormalSeries) -> tuple[FormalSeries, FormalSeries]:
    """Split a series over Q(i) in z_1..z_n into real and imaginary parts
    over Q in the 2n real variables x_1, y_1, ..., x_n, y_n, where
    z_j = x_j + i*y_j.  In closed form, c * z^e is the sum over a <= e of
    c * i^|a| * prod_j C(e_j, a_j) * x_j^(e_j - a_j) * y_j^a_j, and for
    c = p + q*i, c * i^s is p + q*i, -q + p*i, -p - q*i or q - p*i at
    s = 0, 1, 2, 3 mod 4.  Exact: every term keeps its degree."""
    n, m = f.dimension, 2 * f.dimension
    items = [(k, (c.real, c.imag) if type(c) is GaussianRational else (c, _ZERO))
             for k, c in f._table.items()]
    den = lcm(*(x.denominator for _, pq in items for x in pq))
    re, im = {}, {}
    for key, (p, q) in items:
        # (packed key, binomial product, power of i) of each image monomial
        terms = [(key >> FIELD_BITS * n << FIELD_BITS * m, 1, 0)]
        for j, e in enumerate(unpack(key, n)):
            x = FIELD_BITS * 2 * j  # y_j's field is the next one
            terms = [(k + ((e - a) << x | a << x + FIELD_BITS), c * comb(e, a), s + a)
                     for k, c, s in terms for a in range(e + 1)]
        p, q = p.numerator * (den // p.denominator), q.numerator * (den // q.denominator)
        parts = (p, -q, -p, q)
        for k, b, s in terms:
            re[k] = re.get(k, 0) + b * parts[s % 4]
            im[k] = im.get(k, 0) + b * parts[(s + 3) % 4]
    return tuple(FormalSeries._from_table(m, f.truncation, _reduced(t, den)) for t in (re, im))


def realify_map(phi: FormalMap) -> FormalMap:
    """Realify each component; coordinates interleave as x_1, y_1, ..."""
    return FormalMap([part for c in phi.components for part in realify(c)])

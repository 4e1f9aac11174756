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
Over Q(i) coefficients pass through as they are, over 1.  Substitution
keeps the powers of each component as term lists, power e over the e-th
power of the component's denominator, and sums the images of all terms
into one table over the lcm of their denominators.

A FormalMap, like a VectorField (see dynamics), is n series in n
variables with zero constant term, cut to their common truncation; the
two share one base class.  Composition is exact through the carried
truncation; the inverse is solved one degree at a time, each step at the
truncation of its own degree (see FormalMap.inverse).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm, prod
from typing import Optional, Sequence

from .errors import DimensionError, InversionError, PrecisionError, _Frozen
from .monomial import _FIELD_MASK, FIELD_BITS, MultiIndex, check_width, pack, unpack
from .scalars import GaussianRational, as_gaussian, coerce_scalar

Scalar = Fraction | GaussianRational


def _bound(dimension: int, truncation: int) -> int:
    """The least packed key past degree truncation: a key, or a sum of two
    keys, has degree <= truncation exactly when it lies below this."""
    return truncation + 1 << FIELD_BITS * dimension


def _scaled_terms(series: "FormalSeries") -> tuple[list, int]:
    """The terms of a series as (packed key, numerator) pairs sorted by key,
    and their common denominator: int numerators over the lcm of the
    denominators over Q, the coefficients as they are over 1 over Q(i)."""
    items = sorted(series._table.items())
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
    """A product table as a term list sorted by key, cancelled terms
    dropped."""
    return sorted((k, c) for k, c in table.items() if c)


_ONE = [(0, 1)]
_ZERO = Fraction(0)


def _powers(components: Sequence["FormalSeries"], truncation: int) -> tuple:
    """The truncation, the denominator D_j of each component at it, and the
    powers of each component as term lists, power e over D_j^e, grown on
    demand by substitute from [1, component]."""
    scaled = [_scaled_terms(c.truncate(truncation)) for c in components]
    return truncation, [den for _, den in scaled], [[_ONE, terms] for terms, _ in scaled]


def _reduced(table: dict, den: int) -> dict[int, Scalar]:
    """A table of numerators over den as a series term table, zero
    coefficients dropped; an int numerator becomes a Fraction."""
    if den == 1:
        return {k: Fraction(c) if type(c) is int else c for k, c in table.items() if c}
    return {k: Fraction(c, den) if type(c) is int else c / den for k, c in table.items() if c}


class FormalSeries(_Frozen):
    """A formal power series known exactly up to its truncation degree."""

    __slots__ = ("_n", "_trunc", "_table", "_view")

    def __init__(self, dimension: int, truncation: int, terms=None):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if truncation < 0:
            raise ValueError("truncation degree must be a natural number")
        check_width("truncation", truncation)
        object.__setattr__(self, "_n", dimension)
        object.__setattr__(self, "_trunc", truncation)
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
        if (type(key) is tuple and len(key) == self._n
                and all(type(e) is int and e >= 0 for e in key)):
            return pack(key) if sum(key) <= self._trunc else None
        mi = key if isinstance(key, MultiIndex) else MultiIndex(key)
        if mi.dimension != self._n:
            raise DimensionError(f"exponent {mi} does not live in dimension {self._n}")
        return pack(mi.exponents) if mi.degree <= self._trunc else None

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_table(cls, dimension: int, truncation: int, table: dict) -> "FormalSeries":
        """A series over a ready table, taken without a copy or the constructor's
        checks: packed keys of this dimension and degree <= truncation, nonzero values."""
        out = object.__new__(cls)
        object.__setattr__(out, "_n", dimension)
        object.__setattr__(out, "_trunc", truncation)
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
    def dimension(self) -> int:
        return self._n

    @property
    def truncation(self) -> int:
        return self._trunc

    @property
    def terms(self) -> dict[MultiIndex, Scalar]:
        """The term table keyed by MultiIndex, in increasing monomial order;
        treat as read-only."""
        if self._view is None:
            view = {MultiIndex(unpack(k, self._n)): c for k, c in sorted(self._table.items())}
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
        return MultiIndex(unpack(min(self._table), self._n))

    def order(self) -> Optional[int]:
        """Degree of the lowest term, None for the zero series."""
        if not self._table:
            return None
        return min(self._table) >> FIELD_BITS * self._n

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other: "FormalSeries"):
        if self._n != other._n:
            raise DimensionError(
                f"series dimensions differ: {self._n} vs {other._n}"
            )

    def __add__(self, other):
        if not isinstance(other, FormalSeries):
            other = self._promote(other)
            if other is None:
                return NotImplemented
        self._check_compatible(other)
        trunc = min(self._trunc, other._trunc)
        table = dict(self.truncate(trunc)._table)
        for k, c in other.truncate(trunc)._table.items():
            s = table.get(k, 0) + c
            if s:
                table[k] = s
            elif k in table:
                del table[k]
        return FormalSeries._from_table(self._n, trunc, table)

    def _promote(self, value) -> Optional["FormalSeries"]:
        try:
            c = coerce_scalar(value)
        except TypeError:
            return None
        return FormalSeries.constant(self._n, self._trunc, c)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return FormalSeries._from_table(
            self._n, self._trunc, {k: -c for k, c in self._table.items()}
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
            trunc = min(self._trunc, other._trunc)
            (left, da), (right, db) = _scaled_terms(self), _scaled_terms(other)
            table = _mul_terms(left, right, _bound(self._n, trunc))
            return FormalSeries._from_table(self._n, trunc, _reduced(table, da * db))
        try:
            c = coerce_scalar(other)
        except TypeError:
            return NotImplemented
        if not c:
            return FormalSeries(self._n, self._trunc)
        return FormalSeries._from_table(
            self._n, self._trunc, {k: v * c for k, v in self._table.items()}
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent):
        """A natural power by square-and-multiply; 1 for exponent 0."""
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result, base = None, self
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return FormalSeries.constant(self._n, self._trunc, 1) if result is None else result

    def truncate(self, degree: int) -> "FormalSeries":
        """Discard terms of degree > degree; degree may not exceed the
        carried truncation (that would claim precision we do not have)."""
        if degree < 0:
            raise ValueError("truncation degree must be a natural number")
        if degree > self._trunc:
            raise PrecisionError(
                f"cannot truncate at {degree}: series only known up to {self._trunc}"
            )
        if degree == self._trunc:
            return self
        bound = _bound(self._n, degree)
        return FormalSeries._from_table(
            self._n, degree, {k: c for k, c in self._table.items() if k < bound}
        )

    def homogeneous_part(self, degree: int) -> "FormalSeries":
        shift = FIELD_BITS * self._n
        table = {k: c for k, c in self._table.items() if k >> shift == degree}
        return FormalSeries._from_table(self._n, self._trunc, table)

    def derivative(self, index: int) -> "FormalSeries":
        """Partial derivative; the result is exact one degree lower."""
        if not 0 <= index < self._n:
            raise ValueError(f"variable index {index} out of range")
        if self._trunc == 0:
            raise PrecisionError("cannot differentiate a series truncated at 0")
        # x_index^-1 lowers that field and the degree field by one each
        low = FIELD_BITS * index
        step = (1 << low) + (1 << FIELD_BITS * self._n)
        table: dict[int, Scalar] = {}
        for k, c in self._table.items():
            e = k >> low & _FIELD_MASK
            if e:
                table[k - step] = c * e
        return FormalSeries._from_table(self._n, self._trunc - 1, table)

    def substitute(self, components: Sequence["FormalSeries"], powers=None) -> "FormalSeries":
        """Substitute one series per variable; components must have zero
        constant term and live in a common dimension.  powers, from
        _powers, shares the powers of the components between the
        substitutions of a composition."""
        if len(components) != self._n:
            raise DimensionError(
                f"need {self._n} substitution components, got {len(components)}"
            )
        if not components:
            raise ValueError("no components")
        m = components[0].dimension
        trunc = min([self._trunc] + [c.truncation for c in components])
        for comp in components:
            if comp.dimension != m:
                raise DimensionError("substitution components have mixed dimensions")
            if comp.constant_term():
                raise ValueError("substitution components must vanish at 0")
        if powers is None or powers[0] != trunc:
            powers = _powers(components, trunc)
        _, dens, cache = powers
        bound = _bound(m, trunc)
        # the image of c * x^e is a numerator over den(c) * prod_j D_j^e_j
        images = []
        for key, c in self.truncate(trunc)._table.items():
            num, den = c.as_integer_ratio() if type(c) is Fraction else (c, 1)
            exponents = unpack(key, self._n)
            images.append((exponents, num, den * prod(d**e for d, e in zip(dens, exponents))))
        common = lcm(*(den for _, _, den in images))
        acc: dict[int, Scalar] = {}
        for exponents, num, den in images:
            factors = []
            for j, e in enumerate(exponents):
                if e:
                    power = cache[j]
                    while len(power) <= e:
                        power.append(_nonzero_terms(_mul_terms(power[-1], power[1], bound)))
                    factors.append(power[e])
            # the scaled numerator times the powers its exponent names; the
            # last product is added straight into acc
            term = [(0, num * (common // den))]
            for factor in factors[:-1]:
                term = _nonzero_terms(_mul_terms(term, factor, bound))
            _mul_terms(term, factors[-1] if factors else _ONE, bound, acc)
        return FormalSeries._from_table(m, trunc, _reduced(acc, common))

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FormalSeries):
            return (
                self._n == other._n
                and self._trunc == other._trunc
                and self._table == other._table
            )
        return NotImplemented

    def __repr__(self):
        items = ", ".join(f"{m}: {c}" for m, c in self.sorted_terms())
        return f"FormalSeries(n={self._n}, K={self._trunc}, {{{items}}})"


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

    __slots__ = ("_comps", "_trunc")

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
        object.__setattr__(self, "_comps", tuple(c.truncate(trunc) for c in comps))
        object.__setattr__(self, "_trunc", trunc)

    @property
    def dimension(self) -> int:
        return len(self._comps)

    @property
    def truncation(self) -> int:
        return self._trunc

    @property
    def components(self) -> tuple[FormalSeries, ...]:
        return self._comps

    def truncate(self, degree: int):
        return type(self)([c.truncate(degree) for c in self._comps])

    def compose(self, other: "FormalMap"):
        """self after the map other, in the class of self."""
        if other.dimension != self.dimension:
            raise DimensionError("cannot compose maps of different dimensions")
        comps = other.components
        powers = _powers(comps, min(self._trunc, other.truncation))
        return type(self)([c.substitute(comps, powers) for c in self._comps])

    def __eq__(self, other):
        if isinstance(other, _ComponentTuple):
            return type(other) is type(self) and self._comps == other._comps
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({list(self._comps)!r})"


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
        return [[comp.coefficient(e) for e in units] for comp in self._comps]

    @property
    def is_invertible(self) -> bool:
        return _invert_matrix(self.linear_matrix()) is not None

    def linear_inverse(self) -> list[list[Scalar]]:
        """Inverse of the linear part; refuses a singular or unknown one."""
        if self._trunc < 1:
            raise PrecisionError("the linear part of a map truncated at 0 is unknown")
        inv = _invert_matrix(self.linear_matrix())
        if inv is None:
            raise InversionError("formal map has singular linear part")
        return inv

    def inverse(self) -> "FormalMap":
        """Compositional inverse through the carried truncation.

        Solved degree by degree: the linear part is inverted exactly, then
        for d = 2..K the partial inverse psi, exact through degree d - 1,
        is corrected by the degree-d part of self after psi, taken through
        the inverse linear part.  That part depends only on the terms of
        self and psi of degree <= d: psi has no constant term, so a term of
        higher degree in either one only reaches degrees above d.  Step d
        therefore composes self and psi truncated at d, and only the last
        step works at K.
        """
        n = self.dimension
        inv_linear = self.linear_inverse()
        units = [tuple(1 if t == j else 0 for t in range(n)) for j in range(n)]
        psi = [FormalSeries(n, 1, zip(units, row)) for row in inv_linear]
        for degree in range(2, self._trunc + 1):
            # psi is exact through degree - 1; its degree-d part is next
            psi = [FormalSeries._from_table(n, degree, p._table) for p in psi]
            powers = _powers(psi, degree)
            error = [
                c.truncate(degree).substitute(psi, powers).homogeneous_part(degree)
                for c in self._comps
            ]
            for i, row in enumerate(inv_linear):
                for coeff, e in zip(row, error):
                    if coeff and not e.is_zero:
                        psi[i] = psi[i] - coeff * e
        return FormalMap(psi)


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
    over Q in the 2n real variables x_1, y_1, ..., x_n, y_n, substituting
    z_j = x_j + i*y_j.  Exact: the substitution is linear, so no degree is
    lost to truncation."""
    n = f.dimension
    m = 2 * n
    trunc = f.truncation
    i_unit = GaussianRational(0, 1)
    components = []
    for j in range(n):
        x, y = (FormalSeries.variable(m, trunc, t) for t in (2 * j, 2 * j + 1))
        components.append(x + i_unit * y)
    expanded = f.substitute(components)
    parts = [(k, as_gaussian(c)) for k, c in expanded._table.items()]
    return (
        FormalSeries._from_table(m, trunc, {k: g.real for k, g in parts if g.real}),
        FormalSeries._from_table(m, trunc, {k: g.imag for k, g in parts if g.imag}),
    )


def realify_map(phi: FormalMap) -> FormalMap:
    """Realify each component; coordinates interleave as x_1, y_1, ..."""
    return FormalMap([part for c in phi.components for part in realify(c)])

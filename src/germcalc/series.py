"""Truncated formal power series and formal maps.

A FormalSeries carries its ambient variable count, an explicit truncation
degree K, and a sparse term table keyed by MultiIndex; it represents a
residue class modulo terms of degree > K.  Every binary operation
propagates the minimum of the operand truncations, and nothing in this
module invents a default K.

Products run on plain term lists of (exponent tuple, degree, coefficient)
triples.  Their one loop, _mul_terms, adds exponents as tuples and skips
every pair of terms whose degrees sum past the truncation; a MultiIndex
key is built once per term of a result, not once per pair.  Over Q the
loop sees only ints: each operand is cleared to integer numerators over
the lcm of its denominators, and each result coefficient is reduced once.
Over Q(i) coefficients pass through as they are, over 1.  A series
product is that loop and one keyed table.  Substitution keeps the powers
of each component as term lists, power e over the e-th power of the
component's denominator, and sums the images of all terms into one
table over the lcm of their denominators.

A FormalMap, like a VectorField (see dynamics), is n series in n
variables with zero constant term, cut to their common truncation; the
two share one base class.  Composition is exact through the carried
truncation; the inverse is solved one degree at a time, each step at the
truncation of its own degree (see FormalMap.inverse).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Optional, Sequence

from .errors import DimensionError, InversionError, PrecisionError
from .monomial import MultiIndex
from .scalars import GaussianRational, as_gaussian, coerce_scalar

Scalar = Fraction | GaussianRational


def _term_list(series: "FormalSeries") -> list[tuple[tuple[int, ...], int, Scalar]]:
    """The terms of a series as (exponent tuple, degree, coefficient)."""
    return [(m.exponents, m.degree, c) for m, c in series.terms.items()]


def _scaled_terms(series: "FormalSeries") -> tuple[list, int]:
    """The terms of a series as (exponent tuple, degree, numerator) and
    their common denominator: int numerators over the lcm of the
    denominators over Q, the coefficients as they are over 1 over Q(i)."""
    try:
        ratios = [c.as_integer_ratio() for c in series.terms.values()]
    except AttributeError:  # a GaussianRational has no integer ratio
        return _term_list(series), 1
    den = lcm(*[q for _, q in ratios])
    return [
        (m.exponents, m.degree, p * (den // q)) for m, (p, q) in zip(series.terms, ratios)
    ], den


def _mul_terms(left, right, truncation: int, table=None) -> dict:
    """The product of two term lists of (exponent tuple, degree,
    coefficient) through degree truncation, added into table (a new dict
    when None) and returned.  Sums that cancel stay in the table as zeros."""
    if table is None:
        table = {}
    get = table.get
    for ea, da, ca in left:
        room = truncation - da
        if room < 0:
            continue
        for eb, db, cb in right:
            if db <= room:
                key = tuple(map(add, ea, eb))
                table[key] = get(key, 0) + ca * cb
    return table


def _nonzero_terms(table: dict) -> list[tuple[tuple[int, ...], int, Scalar]]:
    """A product table as a term list, cancelled terms dropped."""
    return [(e, sum(e), c) for e, c in table.items() if c]


def _over(num, den: int) -> Scalar:
    """num / den as a series coefficient, a Fraction for an int num."""
    if type(num) is int:
        return Fraction(num, den)
    return num / den if den != 1 else num


def _keyed(table: dict, den: int = 1) -> dict[MultiIndex, Scalar]:
    """A table of numerators over den keyed by exponent tuples as a series
    term table, zero coefficients dropped."""
    return {MultiIndex(e): _over(c, den) for e, c in table.items() if c}


def _as_exponent(dimension: int, key) -> MultiIndex:
    mi = key if isinstance(key, MultiIndex) else MultiIndex(key)
    if mi.dimension != dimension:
        raise DimensionError(
            f"exponent {mi} does not live in dimension {dimension}"
        )
    return mi


class FormalSeries:
    """A formal power series known exactly up to its truncation degree."""

    __slots__ = ("_n", "_trunc", "_terms")

    def __init__(self, dimension: int, truncation: int, terms=None):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if truncation < 0:
            raise ValueError("truncation degree must be a natural number")
        table: dict[MultiIndex, Scalar] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for key, value in items:
                mi = _as_exponent(dimension, key)
                if mi.degree > truncation:
                    continue
                c = coerce_scalar(value)
                if mi in table:
                    c = table[mi] + c
                if c:
                    table[mi] = c
                elif mi in table:
                    del table[mi]
        object.__setattr__(self, "_n", dimension)
        object.__setattr__(self, "_trunc", truncation)
        object.__setattr__(self, "_terms", table)

    def __setattr__(self, name, value):
        raise AttributeError("FormalSeries is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_table(cls, dimension: int, truncation: int, table: dict) -> "FormalSeries":
        """A series over a ready term table, taken over without a copy:
        every key a MultiIndex of this dimension and degree <= truncation,
        every coefficient nonzero."""
        out = cls(dimension, truncation)
        object.__setattr__(out, "_terms", table)
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
        """The sparse term table; treat as read-only."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, key) -> Scalar:
        mi = _as_exponent(self._n, key)
        return self._terms.get(mi, Fraction(0))

    def constant_term(self) -> Scalar:
        return self._terms.get(MultiIndex((0,) * self._n), Fraction(0))

    def sorted_terms(self) -> list[tuple[MultiIndex, Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key)

    def initial_exponent(self) -> Optional[MultiIndex]:
        """Exponent of the order-smallest term, None for the zero series."""
        if not self._terms:
            return None
        return min(self._terms, key=lambda m: m.sort_key)

    def order(self) -> Optional[int]:
        """Degree of the lowest term, None for the zero series."""
        if not self._terms:
            return None
        return min(m.degree for m in self._terms)

    def vanishes_to_order(self, k: int) -> bool:
        """True iff every stored term has degree >= k.

        Decides membership in m^k provided k - 1 <= truncation.
        """
        if k - 1 > self._trunc:
            raise PrecisionError(
                f"cannot test vanishing to order {k} at truncation {self._trunc}"
            )
        return all(m.degree >= k for m in self._terms)

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
        table = {m: c for m, c in self._terms.items() if m.degree <= trunc}
        for m, c in other._terms.items():
            if m.degree > trunc:
                continue
            s = table.get(m, 0) + c
            if s:
                table[m] = s
            elif m in table:
                del table[m]
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
            self._n, self._trunc, {m: -c for m, c in self._terms.items()}
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
            table = _mul_terms(left, right, trunc)
            return FormalSeries._from_table(self._n, trunc, _keyed(table, da * db))
        try:
            c = coerce_scalar(other)
        except TypeError:
            return NotImplemented
        if not c:
            return FormalSeries(self._n, self._trunc)
        return FormalSeries._from_table(
            self._n, self._trunc, {m: v * c for m, v in self._terms.items()}
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def truncate(self, degree: int) -> "FormalSeries":
        """Discard terms of degree > degree; degree may not exceed the
        carried truncation (that would claim precision we do not have)."""
        if degree > self._trunc:
            raise PrecisionError(
                f"cannot truncate at {degree}: series only known up to {self._trunc}"
            )
        if degree == self._trunc:
            return self
        return FormalSeries._from_table(
            self._n, degree, {m: c for m, c in self._terms.items() if m.degree <= degree}
        )

    def homogeneous_part(self, degree: int) -> "FormalSeries":
        table = {m: c for m, c in self._terms.items() if m.degree == degree}
        return FormalSeries._from_table(self._n, self._trunc, table)

    def derivative(self, index: int) -> "FormalSeries":
        """Partial derivative; the result is exact one degree lower."""
        if not 0 <= index < self._n:
            raise ValueError(f"variable index {index} out of range")
        if self._trunc == 0:
            raise PrecisionError("cannot differentiate a series truncated at 0")
        table: dict[MultiIndex, Scalar] = {}
        for m, c in self._terms.items():
            e = m[index]
            if e == 0:
                continue
            exp = list(m.exponents)
            exp[index] = e - 1
            table[MultiIndex(exp)] = c * e
        return FormalSeries._from_table(self._n, self._trunc - 1, table)

    def evaluate(self, point: Sequence) -> Scalar:
        """Exact evaluation of the stored polynomial representative."""
        if len(point) != self._n:
            raise DimensionError("evaluation point has wrong length")
        values = [coerce_scalar(p) for p in point]
        total: Scalar = Fraction(0)
        for m, c in self._terms.items():
            term = c
            for v, e in zip(values, m.exponents):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def substitute(self, components: Sequence["FormalSeries"]) -> "FormalSeries":
        """Substitute one series per variable; components must have zero
        constant term and live in a common dimension."""
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
        origin = (0,) * m
        one = [(origin, 0, 1)]
        scaled = [_scaled_terms(c.truncate(trunc)) for c in components]
        powers = [[one, terms] for terms, _ in scaled]
        # the image of c * x^e is a numerator over den(c) * prod_j D_j^e_j
        images = []
        for mi, c in self.sorted_terms():
            if mi.degree <= trunc:
                num, den = c.as_integer_ratio() if type(c) is Fraction else (c, 1)
                for (_, comp_den), e in zip(scaled, mi.exponents):
                    den *= comp_den**e
                images.append((mi.exponents, num, den))
        common = lcm(*(den for _, _, den in images))
        acc: dict[tuple[int, ...], Scalar] = {}
        for exponents, num, den in images:
            factors = []
            for j, e in enumerate(exponents):
                if e:
                    cache = powers[j]
                    while len(cache) <= e:
                        cache.append(_nonzero_terms(_mul_terms(cache[-1], cache[1], trunc)))
                    factors.append(cache[e])
            # the scaled numerator times the powers its exponent names; the
            # last product is added straight into acc
            term = [(origin, 0, num * (common // den))]
            for factor in factors[:-1]:
                term = _nonzero_terms(_mul_terms(term, factor, trunc))
            _mul_terms(term, factors[-1] if factors else one, trunc, acc)
        return FormalSeries._from_table(m, trunc, _keyed(acc, common))

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FormalSeries):
            return (
                self._n == other._n
                and self._trunc == other._trunc
                and self._terms == other._terms
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


class _ComponentTuple:
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

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

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
        return type(self)([c.substitute(other.components) for c in self._comps])

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
            psi = [FormalSeries._from_table(n, degree, p.terms) for p in psi]
            error = [
                c.truncate(degree).substitute(psi).homogeneous_part(degree)
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
    real_terms: dict[MultiIndex, Fraction] = {}
    imag_terms: dict[MultiIndex, Fraction] = {}
    for mi, c in expanded.terms.items():
        g = as_gaussian(c)
        if g.real:
            real_terms[mi] = g.real
        if g.imag:
            imag_terms[mi] = g.imag
    return (
        FormalSeries._from_table(m, trunc, real_terms),
        FormalSeries._from_table(m, trunc, imag_terms),
    )


def realify_map(phi: FormalMap) -> FormalMap:
    """Realify each component; coordinates interleave as x_1, y_1, ..."""
    return FormalMap([part for c in phi.components for part in realify(c)])

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

Many presentations need no jet space.  JetSpace reduces an S-pair only
when the two initial exponents share a variable and their lcm has degree
<= d.  Below the least such lcm degree over all pairs of generators, no
pair is reduced, so the generators' jets are already a standard basis:
every nonzero member of I + m^(d+1) has its initial exponent in the
staircase of theirs, which the remainder of truncated division avoids.
There jet_membership divides by the generators, and diagram and
_jet_dimension read their initial exponents.  One generator is always
such a basis, and so is the realified pair (Re g, Im g) of a curve
g = w - a z - z^(m+1), whose initial exponents are an x- and a
y-variable.  At and above that degree, a presentation is decided against
its jet space.

Every division here takes the remainder alone from division._divide and
builds no quotient and no Staircase.  S-pairs, corners and normal forms
wrap its whole remainder table; membership reads only its first term,
on ints over Q against the generators and on Fraction against a jet
space (see division for why).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf
from typing import Iterable, Optional, Sequence

from .division import _divide
from .errors import DimensionError, PrecisionError, _Frozen
from .monomial import FIELD_BITS, MultiIndex, Staircase, monomials_up_to, unpack
from .series import FormalSeries


# Inclusion-exclusion over more sets than this is not worth a dimension:
# k pairwise coprime initial exponents of degree 1 make 2^k of them.
_DIMENSION_SETS = 64


def _remainder(f: FormalSeries, divisors: list, degree: int) -> FormalSeries:
    """The remainder of f on division by the divisors at the degree."""
    return FormalSeries._from_table(f.dimension, degree, _divide(f, divisors, degree, whole=True))


def _pair_lcm(a: Sequence[int], b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The lcm of two initial exponents, or None when they are coprime.

    This is the one rule that spares an S-pair its reduction, at degree d
    when the lcm is None or of degree above d (see JetSpace); it also fixes
    IdealPresentation's bound on the degrees that need no jet space."""
    lcm = tuple(map(max, a, b))
    # the lcm has degree |a| + |b| exactly when a and b are coprime
    return None if sum(lcm) == sum(a) + sum(b) else lcm


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

    __slots__ = ("dimension", "degree", "_corners", "_pivots", "_rows")

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
            lcm = _pair_lcm(a, b)
            if lcm is None or sum(lcm) > degree:
                continue
            lcm = MultiIndex(lcm)
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
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_corners", corners)
        object.__setattr__(self, "_pivots", None)
        object.__setattr__(self, "_rows", None)

    @property
    def rank(self) -> int:
        return len(self.pivot_exponents)

    @property
    def pivot_exponents(self) -> list[MultiIndex]:
        if self._pivots is None:
            inside = self.staircase().contains
            monomials = monomials_up_to(self.dimension, self.degree)
            pivots = [m for m in monomials if inside(m)]
            object.__setattr__(self, "_pivots", pivots)
        return list(self._pivots)

    @property
    def basis(self) -> list[FormalSeries]:
        if self._rows is None:
            xs = [FormalSeries.monomial(self.dimension, self.degree, m)
                  for m in self.pivot_exponents]
            object.__setattr__(self, "_rows", [x - self.reduce(x) for x in xs])
        return list(self._rows)

    def _jet(self, f: FormalSeries) -> FormalSeries:
        if f.dimension != self.dimension:
            raise DimensionError("cannot reduce a series of wrong dimension")
        r = f.truncate(self.degree) if f.truncation > self.degree else f
        if r.truncation < self.degree:
            raise PrecisionError(
                f"series truncated at {r.truncation}, need degree {self.degree}"
            )
        return r

    def reduce(self, f: FormalSeries) -> FormalSeries:
        """Normal form of (the degree-jet of) f: its remainder on division
        by the reduced standard basis, with no term in the diagram."""
        r = self._jet(f)
        if not self._corners:
            return r
        return _remainder(r, list(self._corners.values()), self.degree)

    def contains(self, f: FormalSeries) -> bool:
        """Whether the normal form is zero, read off its first term."""
        r, corners = self._jet(f), list(self._corners.values())
        return not _divide(r, corners, self.degree, ints=False) if corners else r.is_zero

    def staircase(self) -> Staircase:
        return Staircase(self.dimension, self._corners)

    def __eq__(self, other):
        if isinstance(other, JetSpace):
            return (
                self.dimension == other.dimension
                and self.degree == other.degree
                and self._corners == other._corners
            )
        return NotImplemented

    def __repr__(self):
        return f"JetSpace(n={self.dimension}, d={self.degree}, rank={self.rank})"


class IdealPresentation(_Frozen):
    """An ideal of the formal power series ring given by finitely many
    generators.  Zero generators are dropped, but their truncation still
    bounds what the presentation knows; no generators means the zero
    ideal.  Jet spaces are cached per degree.

    generator_truncation is the common knowledge horizon of the presented
    generators, zero ones included; None when none were given (the zero
    ideal is then known exactly at every degree).  Below _standard_below,
    the least lcm degree of two initial exponents that share a variable,
    the generators are a standard basis (see the module docstring)."""

    __slots__ = ("dimension", "generators", "generator_truncation", "_standard_below", "_cache")

    def __init__(self, dimension: int, generators: Sequence[FormalSeries] = ()):
        generators = tuple(generators)
        gens = tuple(g for g in generators if not g.is_zero)
        for g in gens:
            if g.dimension != dimension:
                raise DimensionError("generator dimension differs from ideal dimension")
        below = inf
        if len(gens) > 1:
            inits = [unpack(min(g._table), dimension) for g in gens]
            lcms = (_pair_lcm(a, b) for j, b in enumerate(inits) for a in inits[:j])
            below = min((sum(lcm) for lcm in lcms if lcm is not None), default=inf)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "generator_truncation",
                           min((g.truncation for g in generators), default=None))
        object.__setattr__(self, "_standard_below", below)
        object.__setattr__(self, "_cache", {})

    def _check_degree(self, degree: int):
        if degree < 0:
            raise ValueError("jet degree must be a natural number")
        bound = self.generator_truncation
        if bound is not None and degree > bound:
            raise PrecisionError(
                f"jet degree {degree} exceeds generator truncation {bound}"
            )

    def jet_space(self, degree: int) -> JetSpace:
        cached = self._cache.get(degree)
        if cached is None:
            self._check_degree(degree)
            cached = self._cache[degree] = JetSpace(self.dimension, degree, self.generators)
        return cached

    def diagram(self, degree: int) -> Staircase:
        if degree < self._standard_below:
            self._check_degree(degree)
            inits = (g.initial_exponent() for g in self.generators)
            return Staircase(self.dimension, (a for a in inits if a.degree <= degree))
        return self.jet_space(degree).staircase()

    def __eq__(self, other):
        if isinstance(other, IdealPresentation):
            return (
                self.dimension == other.dimension
                and self.generators == other.generators
                and self.generator_truncation == other.generator_truncation
            )
        return NotImplemented

    def __repr__(self):
        return f"IdealPresentation(n={self.dimension}, generators={list(self.generators)!r})"


def jet_membership(f: FormalSeries, ideal: IdealPresentation, k: int) -> bool:
    """Whether f lies in I + m^k, decided on jets of degree k - 1: by a
    zero remainder on division by the generators while they are a standard
    basis of I + m^k (the zero ideal holds only zero), else against the
    jet space."""
    if k < 1:
        raise ValueError("membership order k must be at least 1")
    if f.dimension != ideal.dimension:
        raise DimensionError("series dimension differs from ideal dimension")
    if f.truncation < k - 1:
        raise PrecisionError(
            f"series truncated at {f.truncation}, need degree {k - 1}"
        )
    jet = f.truncate(k - 1)
    if k - 1 < ideal._standard_below:
        ideal._check_degree(k - 1)
        return not _divide(jet, ideal.generators, k - 1) if ideal.generators else jet.is_zero
    return ideal.jet_space(k - 1).contains(jet)


def _jet_dimension(ideal: IdealPresentation, k: int) -> Optional[int]:
    """dim (I + m^k)/m^k, or None when the generators are no standard
    basis of I + m^k or the count takes more than _DIMENSION_SETS sets.
    It counts the monomials of degree < k that some initial exponent
    divides, by inclusion-exclusion: all of a set divide the
    C(n + k - 1 - e, n) such monomials that their lcm, of degree e,
    divides.  Here two exponents that share a variable have an lcm of
    degree >= k, so a set counts only when its degrees sum below k, and
    that sum is then e."""
    d, n = k - 1, ideal.dimension
    if d >= ideal._standard_below:
        return None
    total, sets = 0, [(0, -1)]  # (degree of the lcm, -sign) per set so far
    for g in ideal.generators:
        a = min(g._table) >> FIELD_BITS * n
        for degree, sign in sets[:]:
            if degree + a <= d:
                total -= sign * comb(n + d - degree - a, n)
                sets.append((degree + a, -sign))
        if len(sets) > _DIMENSION_SETS:
            return None
    return total


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

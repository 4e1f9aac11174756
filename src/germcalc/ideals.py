"""Ideal presentations, jet ideals, and diagrams of initial exponents.

The degree-d jet of an ideal I = (g_1..g_p) is the linear span of the
truncations of m * g_i over all monomials m of degree <= d.  We keep that
span as a reduced row echelon basis with respect to the monomial order:
each basis element is monic at its order-smallest exponent, those pivot
exponents are pairwise distinct, and every basis element has coefficient 0
at every other pivot.  The basis is therefore canonical for the span, and
the pivot set within degree d is exactly the ideal's diagram of initial
exponents there.

Membership in a principal ideal needs no jet space.  One generator g is
already a standard basis: the monomial order adds initial exponents, so
the initial exponent of any nonzero u*g mod m^k is init(u) + init(g),
which lies in the staircase of g.  The remainder of truncated division by
g has no term in that staircase, so it is zero exactly when f lies in
(g) + m^k.  jet_membership decides one-generator ideals that way and
every other ideal against its jet space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .division import formal_division
from .errors import DimensionError, PrecisionError
from .monomial import MultiIndex, Staircase, monomials_up_to, vertex_extraction
from .series import FormalSeries


class JetSpace:
    """A finite-dimensional space of polynomial jets in reduced row
    echelon form with respect to the monomial order."""

    __slots__ = ("_n", "_degree", "_pivots")

    def __init__(self, dimension: int, degree: int, spanning: Iterable[FormalSeries] = ()):
        if degree < 0:
            raise ValueError("jet degree must be a natural number")
        pivots: dict[MultiIndex, FormalSeries] = {}
        object.__setattr__(self, "_n", dimension)
        object.__setattr__(self, "_degree", degree)
        object.__setattr__(self, "_pivots", pivots)
        for s in spanning:
            self._insert(s)

    def __setattr__(self, name, value):
        raise AttributeError("JetSpace is immutable from outside")

    def _insert(self, s: FormalSeries):
        if s.dimension != self._n:
            raise DimensionError("jet candidate has wrong dimension")
        s = s.truncate(min(self._degree, s.truncation)) if s.truncation > self._degree else s
        if s.truncation < self._degree:
            raise PrecisionError(
                f"jet candidate truncated at {s.truncation}, need degree {self._degree}"
            )
        pivots = self._pivots
        while not s.is_zero:
            lead = s.initial_exponent()
            row = pivots.get(lead)
            if row is None:
                break
            s = s - s.coefficient(lead) * row
        if s.is_zero:
            return
        lead = s.initial_exponent()
        # Clear the tail too: every pivot beyond the lead must vanish so the
        # stored basis stays fully interreduced (and therefore canonical,
        # which is what makes __eq__ a genuine span comparison).
        for p in sorted(pivots, key=lambda m: m.sort_key):
            c = s.coefficient(p)
            if c:
                s = s - c * pivots[p]
        s = (Fraction(1) / s.coefficient(lead)) * s
        for other_lead, row in list(pivots.items()):
            c = row.coefficient(lead)
            if c:
                pivots[other_lead] = row - c * s
        pivots[lead] = s

    @property
    def dimension(self) -> int:
        return self._n

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_exponents(self) -> list[MultiIndex]:
        return sorted(self._pivots, key=lambda m: m.sort_key)

    @property
    def basis(self) -> list[FormalSeries]:
        return [self._pivots[m] for m in self.pivot_exponents]

    def reduce(self, f: FormalSeries) -> FormalSeries:
        """Normal form of (the degree-jet of) f against the basis.

        Since the basis is fully reduced, one pass over the pivots in
        increasing order eliminates every pivot coefficient for good.
        """
        if f.dimension != self._n:
            raise DimensionError("cannot reduce a series of wrong dimension")
        r = f.truncate(self._degree) if f.truncation > self._degree else f
        if r.truncation < self._degree:
            raise PrecisionError(
                f"series truncated at {r.truncation}, need degree {self._degree}"
            )
        for lead in self.pivot_exponents:
            c = r.coefficient(lead)
            if c:
                r = r - c * self._pivots[lead]
        return r

    def contains(self, f: FormalSeries) -> bool:
        return self.reduce(f).is_zero

    def contains_space(self, other: "JetSpace") -> bool:
        if other.degree != self._degree or other.dimension != self._n:
            raise DimensionError("jet spaces live at different degrees or dimensions")
        return all(self.contains(b) for b in other.basis)

    def staircase(self) -> Staircase:
        return vertex_extraction(self.pivot_exponents, dimension=self._n)

    def __eq__(self, other):
        if isinstance(other, JetSpace):
            return (
                self._n == other._n
                and self._degree == other._degree
                and self._pivots == other._pivots
            )
        return NotImplemented

    def __repr__(self):
        return f"JetSpace(n={self._n}, d={self._degree}, rank={self.rank})"


class IdealPresentation:
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

    def __setattr__(self, name, value):
        raise AttributeError("IdealPresentation is immutable")

    @property
    def dimension(self) -> int:
        return self._n

    @property
    def generators(self) -> tuple[FormalSeries, ...]:
        return self._gens

    @property
    def is_zero_ideal(self) -> bool:
        return not self._gens

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
        if cached is not None:
            return cached
        self._check_degree(degree)
        candidates = []
        for g in self._gens:
            items = list(g.terms.items())
            for m in monomials_up_to(self._n, degree):
                table = {}
                for beta, c in items:
                    target = beta + m
                    if target.degree <= degree:
                        table[target] = c
                if table:
                    candidates.append(FormalSeries._from_table(self._n, degree, table))
        space = JetSpace(self._n, degree, candidates)
        self._cache[degree] = space
        return space

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
        return formal_division(jet, ideal.generators, k - 1).remainder.is_zero
    return ideal.jet_space(k - 1).contains(jet)


@dataclass(frozen=True)
class HorizonReport:
    """Verdicts over orders k = 1..bound: per_order lists each order the
    scan evaluated with its verdict, and first_failure is the least
    failing order, or None."""

    bound: int
    per_order: tuple[tuple[int, bool], ...]
    first_failure: Optional[int]

    @property
    def holds_up_to_bound(self) -> bool:
        return self.first_failure is None

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

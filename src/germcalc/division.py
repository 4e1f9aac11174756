"""Truncated division of formal power series.

Given divisors g_1..g_p with initial exponents a_1..a_p, every series f
splits as f = sum q_j g_j + r where no term of r lies in the staircase
generated by the a_j, and the identity holds modulo m^(K+1) for the
working truncation K.  The loop always cancels the order-smallest term of
the working series that lies in the staircase, using the smallest-index
divisor whose translate covers it; each cancellation only creates strictly
larger terms, so the process sweeps the finitely many monomials of degree
at most K once.  So the first term that lands in the remainder stays
there, and a membership test stops at it, building no quotient.

A membership test runs on ints over Q: the dividend's jet and each
divisor are cleared to integer numerators over the lcm of their
denominators, and when a term's coefficient c is no multiple of the lead
coefficient L, the whole work table is scaled by |L| / gcd(c, L), the
fraction-free pseudo-reduction of Bareiss (Math. Comp. 1968).  A divisor
and any nonzero multiple of it leave the same remainder, and the first
remainder term c is exact as c over the dividend's denominator times the
running scale.  Over Q(i) the coefficients pass through as they are.
Whole remainders, with or without quotients, stay on Fraction, and so
does a first-term division asked to (ints=False, as JetSpace.contains
asks): on ints they sped the ideal-queries benchmark up so far that its
per-op bookkeeping pushed the run's peak memory past that metric's 10%
bound (ROADMAP item 6).

reduce_mod_ideal computes the canonical normal form against the degree-K
jet of an ideal: the staircase used is the ideal's diagram of initial
exponents up to degree K, not the raw generator exponents, so the result
is a well-defined representative of f modulo (I + m^(K+1)).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Sequence

from .errors import DimensionError, PrecisionError
from .monomial import Staircase, guard_bits
from .series import FormalSeries, _bound, _scaled_terms

if TYPE_CHECKING:
    # An annotation only: ideals imports this module for its division.
    from .ideals import IdealPresentation


@dataclass(frozen=True)
class DivisionResult:
    quotients: tuple[FormalSeries, ...]
    remainder: FormalSeries
    staircase: Staircase


def _divide(
    f: FormalSeries, divisors: Sequence[FormalSeries], truncation: int,
    quotients=None, whole: bool = False, ints: bool = True,
) -> dict[int, object]:
    """The remainder table of f on division by the divisors: the whole
    remainder when quotients, one table per divisor to fill, are given or
    whole is set, else only its first term, or no term when the remainder
    is zero, found on ints over Q unless ints is False."""
    if not divisors:
        raise ValueError("at least one divisor is required")
    n = f.dimension
    for j, g in enumerate(divisors):
        if g.dimension != n:
            raise DimensionError("divisor dimension differs from dividend")
        if g.is_zero:
            # its initial term, if any, lies beyond the truncation
            raise PrecisionError(f"divisor {j} has no term through degree {g.truncation}")
    if truncation > f.truncation or any(truncation > g.truncation for g in divisors):
        raise PrecisionError(
            f"working truncation {truncation} exceeds an input truncation"
        )

    # The loop runs on packed keys (see monomial.pack): the heap orders
    # them as the monomial order does, a corner a divides m when m - a
    # sets no guard bit, and a term of a divisor times x^s is at degree
    # <= truncation when its key plus s lies below bound.
    guards, bound = guard_bits(n), _bound(n, truncation)
    jet = f.truncate(truncation)
    whole = whole or quotients is not None
    integer = ints and not whole and all(
        type(c) is Fraction for s in (jet, *divisors) for c in s._table.values()
    )
    if integer:
        items, den = _scaled_terms(jet)
        divisor_terms = [_scaled_terms(g)[0] for g in divisors]
    else:
        items, den = jet._table.items(), 1
        divisor_terms = [sorted(g._table.items()) for g in divisors]
    alphas = [terms[0][0] for terms in divisor_terms]
    leads = [terms[0][1] for terms in divisor_terms]
    work = dict(items)
    scale = 1  # on ints, work holds numerators over den * scale
    remainder: dict[int, object] = {}

    heap = list(work)
    heapq.heapify(heap)

    while heap:
        m = heapq.heappop(heap)
        c = work.get(m)
        if not c:
            work.pop(m, None)
            continue
        for chosen, a in enumerate(alphas):
            if not (m - a) & guards:
                break
        else:
            remainder[m] = Fraction(c, den * scale) if integer else c
            if not whole:
                return remainder
            del work[m]
            continue
        # m is cancelled once, so x^shift enters the quotient once
        shift = m - a
        lead = leads[chosen]
        if integer and c % lead:
            s = abs(lead) // gcd(c, lead)
            for key in work:
                work[key] *= s
            scale *= s
            c *= s
        qc = c // lead if integer else c / lead
        if quotients is not None:
            quotients[chosen][shift] = qc
        terms = divisor_terms[chosen]
        for beta, gcoeff in terms[: bisect_left(terms, (bound - shift,))]:
            target = beta + shift
            updated = work.get(target, 0) - qc * gcoeff
            if updated:
                work[target] = updated
                if target != m:
                    heapq.heappush(heap, target)
            elif target in work:
                del work[target]
    return remainder


def formal_division(
    f: FormalSeries, divisors: Sequence[FormalSeries], truncation: int
) -> DivisionResult:
    quotients: list[dict[int, object]] = [{} for _ in divisors]
    remainder = _divide(f, divisors, truncation, quotients)
    staircase = Staircase(f.dimension, (g.initial_exponent() for g in divisors))
    *qs, r = (FormalSeries._from_table(f.dimension, truncation, t)
              for t in quotients + [remainder])
    return DivisionResult(quotients=tuple(qs), remainder=r, staircase=staircase)


def reduce_mod_ideal(
    f: FormalSeries, ideal: IdealPresentation, truncation: int
) -> FormalSeries:
    """Canonical normal form of f against the ideal's degree-K jet.

    The result has no term inside the ideal's diagram of initial exponents
    up to degree K, and f - result lies in the jet span (hence in
    I + m^(K+1) for the presented ideal I).
    """
    if f.dimension != ideal.dimension:
        raise DimensionError("series dimension differs from ideal dimension")
    if truncation > f.truncation:
        raise PrecisionError(
            f"working truncation {truncation} exceeds the series truncation"
        )
    space = ideal.jet_space(truncation)
    return space.reduce(f.truncate(truncation))

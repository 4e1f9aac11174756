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

reduce_mod_ideal computes the canonical normal form against the degree-K
jet of an ideal: the staircase used is the ideal's diagram of initial
exponents up to degree K, not the raw generator exponents, so the result
is a well-defined representative of f modulo (I + m^(K+1)).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import DimensionError, PrecisionError
from .monomial import Staircase, guard_bits
from .series import FormalSeries, _bound

if TYPE_CHECKING:
    # An annotation only: ideals imports this module for its division.
    from .ideals import IdealPresentation


@dataclass(frozen=True)
class DivisionResult:
    quotients: tuple[FormalSeries, ...]
    remainder: FormalSeries
    staircase: Staircase


def _divide(
    f: FormalSeries, divisors: Sequence[FormalSeries], truncation: int, quotients=None
) -> dict[int, object]:
    """The remainder table of f on division by the divisors, filling
    quotients, one table per divisor, when given; without quotients, only
    the remainder's first term, or no term when the remainder is zero."""
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
    alphas = [min(g._table) for g in divisors]
    leads = [g._table[a] for g, a in zip(divisors, alphas)]
    divisor_terms = [sorted(g.truncate(truncation)._table.items()) for g in divisors]
    work = dict(f.truncate(truncation)._table)
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
            remainder[m] = c
            if quotients is None:
                return remainder
            del work[m]
            continue
        # m is cancelled once, so x^shift enters the quotient once
        shift = m - a
        qc = c / leads[chosen]
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

"""Truncated division of formal power series.

Given divisors g_1..g_p with initial exponents a_1..a_p, every series f
splits as f = sum q_j g_j + r where no term of r lies in the staircase
generated by the a_j, and the identity holds modulo m^(K+1) for the
working truncation K.  The loop always cancels the order-smallest term of
the working series that lies in the staircase, using the smallest-index
divisor whose translate covers it; each cancellation only creates strictly
larger terms, so the process sweeps the finitely many monomials of degree
at most K once.

reduce_mod_ideal computes the canonical normal form against the degree-K
jet of an ideal: the staircase used is the ideal's diagram of initial
exponents up to degree K, not the raw generator exponents, so the result
is a well-defined representative of f modulo (I + m^(K+1)).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import DimensionError, PrecisionError
from .monomial import Staircase
from .series import FormalSeries, _keyed, _term_list

if TYPE_CHECKING:
    # An annotation only: ideals imports this module for its division.
    from .ideals import IdealPresentation


@dataclass(frozen=True)
class DivisionResult:
    quotients: tuple[FormalSeries, ...]
    remainder: FormalSeries
    staircase: Staircase


def formal_division(
    f: FormalSeries, divisors: Sequence[FormalSeries], truncation: int
) -> DivisionResult:
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

    alphas = [g.initial_exponent() for g in divisors]
    leads = [g.coefficient(a) for g, a in zip(divisors, alphas)]
    staircase = Staircase(n, alphas)

    # The loop runs on the plain term lists of the series module, keyed for
    # the heap by (degree, reversed exponents) as MultiIndex.sort_key is;
    # MultiIndex keys are built only for the returned series.
    corners = [(a.exponents, a.degree) for a in alphas]
    divisor_terms = [_term_list(g.truncate(truncation)) for g in divisors]
    work: dict[tuple[int, ...], object] = {
        m.exponents: c for m, c in f.truncate(truncation).terms.items()
    }
    remainder: dict[tuple[int, ...], object] = {}
    quotients: list[dict[tuple[int, ...], object]] = [{} for _ in divisors]

    heap = [((sum(m),) + m[::-1], m) for m in work]
    heapq.heapify(heap)

    while heap:
        key, m = heapq.heappop(heap)
        c = work.get(m)
        if not c:
            work.pop(m, None)
            continue
        for chosen, (a, a_degree) in enumerate(corners):
            if all(x >= y for x, y in zip(m, a)):
                break
        else:
            remainder[m] = c
            del work[m]
            continue
        shift = tuple(x - y for x, y in zip(m, a))
        shift_degree = key[0] - a_degree
        qc = c / leads[chosen]
        q = quotients[chosen]
        prev = q.get(shift, 0) + qc
        if prev:
            q[shift] = prev
        elif shift in q:
            del q[shift]
        for beta, beta_degree, gcoeff in divisor_terms[chosen]:
            degree = beta_degree + shift_degree
            if degree > truncation:
                continue
            target = tuple(x + y for x, y in zip(beta, shift))
            updated = work.get(target, 0) - qc * gcoeff
            if updated:
                work[target] = updated
                if target != m:
                    heapq.heappush(heap, ((degree,) + target[::-1], target))
            elif target in work:
                del work[target]

    def series(table):
        return FormalSeries._from_table(n, truncation, _keyed(table))

    return DivisionResult(
        quotients=tuple(series(q) for q in quotients),
        remainder=series(remainder),
        staircase=staircase,
    )


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

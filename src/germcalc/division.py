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
from typing import Sequence

from .errors import DimensionError, PrecisionError
from .ideals import IdealPresentation
from .monomial import MultiIndex, Staircase
from .series import FormalSeries


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
    for g in divisors:
        if g.dimension != n:
            raise DimensionError("divisor dimension differs from dividend")
        if g.is_zero:
            raise ValueError("zero divisor")
    if truncation > f.truncation or any(truncation > g.truncation for g in divisors):
        raise PrecisionError(
            f"working truncation {truncation} exceeds an input truncation"
        )

    alphas = [g.initial_exponent() for g in divisors]
    leads = [g.coefficient(a) for g, a in zip(divisors, alphas)]
    divisor_terms = [list(g.truncate(truncation).terms.items()) for g in divisors]
    staircase = Staircase(n, alphas)

    work: dict[MultiIndex, object] = dict(f.truncate(truncation).terms)
    remainder: dict[MultiIndex, object] = {}
    quotients: list[dict[MultiIndex, object]] = [{} for _ in divisors]

    heap: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for m in work:
        heapq.heappush(heap, (m.sort_key, m.exponents))

    while heap:
        _, exps = heapq.heappop(heap)
        m = MultiIndex(exps)
        c = work.get(m)
        if not c:
            work.pop(m, None)
            continue
        chosen = None
        for j, a in enumerate(alphas):
            if m.dominates(a):
                chosen = j
                break
        if chosen is None:
            remainder[m] = c
            del work[m]
            continue
        shift = m - alphas[chosen]
        qc = c / leads[chosen]
        q = quotients[chosen]
        prev = q.get(shift, 0) + qc
        if prev:
            q[shift] = prev
        elif shift in q:
            del q[shift]
        for beta, gcoeff in divisor_terms[chosen]:
            target = beta + shift
            if target.degree > truncation:
                continue
            updated = work.get(target, 0) - qc * gcoeff
            if updated:
                work[target] = updated
                if target != m:
                    heapq.heappush(heap, (target.sort_key, target.exponents))
            elif target in work:
                del work[target]

    return DivisionResult(
        quotients=tuple(FormalSeries._from_table(n, truncation, q) for q in quotients),
        remainder=FormalSeries._from_table(n, truncation, remainder),
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

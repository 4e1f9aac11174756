"""Truncated polynomial arithmetic that shares no code with germcalc.

A polynomial is a dict from exponent tuples to Fraction coefficients and
every operation takes the truncation degree explicitly.  The benchmark
uses these helpers to build expected answers and to replay the
program's certificates with multiplication and addition only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def order_key(exp) -> tuple:
    """The local degree order germcalc documents: total degree first,
    then the exponents read from the last variable to the first."""
    return (sum(exp),) + tuple(reversed(exp))


def monomials(n: int, top: int) -> list[tuple]:
    """Every exponent tuple of total degree <= top, in order_key order."""
    out = [e for e in itertools.product(range(top + 1), repeat=n) if sum(e) <= top]
    out.sort(key=order_key)
    return out


def unit(n: int, j: int) -> tuple:
    return tuple(1 if t == j else 0 for t in range(n))


def truncate(p: dict, top: int) -> dict:
    return {e: c for e, c in p.items() if sum(e) <= top}


def add(a: dict, b: dict, scale=1) -> dict:
    """a + scale * b."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + scale * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def mul(a: dict, b: dict, top: int) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        da = sum(ea)
        if da > top:
            continue
        for eb, cb in b.items():
            if da + sum(eb) > top:
                continue
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def compose(f: dict, comps: list, dim: int, top: int) -> dict:
    """f(comps[0], ..., comps[-1]) through degree top, where the components
    live in dim variables and vanish at the origin."""
    one = {(0,) * dim: Fraction(1)}
    powers = [[one] for _ in comps]
    out: dict = {}
    for e, c in f.items():
        if sum(e) > top:
            continue
        term = one
        for j, k in enumerate(e):
            if not k:
                continue
            cache = powers[j]
            while len(cache) <= k:
                cache.append(mul(cache[-1], comps[j], top))
            term = mul(term, cache[k], top)
        out = add(out, term, c)
    return out


def compose_map(outer: list, inner: list, top: int) -> list:
    """outer after inner, componentwise, for self-maps of len(inner)
    variables."""
    return [compose(f, inner, len(inner), top) for f in outer]


def derivative(p: dict, j: int) -> dict:
    out = {}
    for e, c in p.items():
        if e[j]:
            d = list(e)
            d[j] -= 1
            out[tuple(d)] = c * e[j]
    return out


def initial_exponent(p: dict):
    return min(p, key=order_key) if p else None


def minimal_points(points) -> list[tuple]:
    """The exponents not dominated componentwise by another point."""
    pts = sorted(set(points), key=order_key)
    out: list[tuple] = []
    for p in pts:
        if not any(all(x >= y for x, y in zip(p, q)) for q in out):
            out.append(p)
    return sorted(out)


def in_staircase(e, vertices) -> bool:
    return any(all(x >= y for x, y in zip(e, v)) for v in vertices)


class Elimination:
    """Echelon form of the degree-d jet span of an ideal.

    Built by plain Gaussian elimination over the rows m * g for every
    generator g and every monomial m of degree <= d, columns in the local
    degree order.  Each stored row is monic at its smallest column, so
    one pass over the columns in increasing order brings any vector to
    the unique representative that vanishes on every pivot column.
    """

    def __init__(self, n: int, generators: list, d: int):
        self.n = n
        self.d = d
        self.rows: dict[tuple, dict] = {}
        for g in generators:
            for m in monomials(n, d):
                row = {}
                for e, c in g.items():
                    t = tuple(x + y for x, y in zip(e, m))
                    if sum(t) <= d:
                        row[t] = c
                self._insert(row)

    def _insert(self, row: dict) -> None:
        while row:
            lead = min(row, key=order_key)
            pivot = self.rows.get(lead)
            if pivot is None:
                inv = 1 / Fraction(row[lead])
                self.rows[lead] = {e: c * inv for e, c in row.items()}
                return
            row = add(row, pivot, -row[lead])

    def normal_form(self, f: dict) -> dict:
        r = truncate(f, self.d)
        for lead in sorted(self.rows, key=order_key):
            c = r.get(lead)
            if c:
                r = add(r, self.rows[lead], -c)
        return r

    def contains(self, f: dict) -> bool:
        return not self.normal_form(f)

    def diagram(self) -> list[tuple]:
        return minimal_points(self.rows)

"""Shared builders for randomized tests.

Everything here is deterministic given a `random.Random` instance; tests
construct their own seeded generators so failures reproduce exactly.
"""

import itertools
import random
from fractions import Fraction

import pytest

from germcalc import (
    EquivalenceReport,
    FormalMap,
    FormalSeries,
    I,
    IdealPresentation,
    JetSpace,
    Staircase,
    as_gaussian,
    compose,
    monomials_up_to,
)
from germcalc import expressions
from germcalc.equivalence import IndexVerdict, MatchVerdict


def exponent_tuples(dimension, degree):
    """All exponent tuples of total degree <= degree."""
    out = []
    for combo in itertools.product(range(degree + 1), repeat=dimension):
        if sum(combo) <= degree:
            out.append(combo)
    return out


def random_scalar(rng, scale=6, allow_zero=True):
    num = rng.randint(-scale, scale)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-scale, scale)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def random_series(rng, dimension, truncation, density=0.4, scale=6, min_order=0):
    """A sparse random series; roughly `density` of the exponents are hit."""
    terms = {}
    for exp in exponent_tuples(dimension, truncation):
        if sum(exp) < min_order:
            continue
        if rng.random() < density:
            terms[exp] = random_scalar(rng, scale)
    return FormalSeries(dimension, truncation, terms)


def random_nonzero_series(rng, dimension, truncation, **kw):
    f = random_series(rng, dimension, truncation, **kw)
    while f.is_zero:
        f = random_series(rng, dimension, truncation, **kw)
    return f


def random_ideal(rng, dimension, truncation, max_generators=3):
    count = rng.randint(1, max_generators)
    gens = [
        random_nonzero_series(rng, dimension, truncation, min_order=1)
        for _ in range(count)
    ]
    return IdealPresentation(dimension, gens)


def random_invertible_map(rng, dimension, truncation, higher_density=0.3):
    """Random formal map with invertible linear part and sparse tail."""
    while True:
        comps = []
        for i in range(dimension):
            terms = {}
            for j in range(dimension):
                exp = tuple(1 if t == j else 0 for t in range(dimension))
                terms[exp] = Fraction(rng.randint(-2, 2))
            comps.append(FormalSeries(dimension, truncation, terms))
        candidate = FormalMap(comps)
        if candidate.is_invertible:
            break
    tails = []
    for comp in candidate.components:
        tail = random_series(
            rng, dimension, truncation, density=higher_density, scale=3, min_order=2
        )
        tails.append(comp + tail)
    return FormalMap(tails)


def random_tangent_to_identity_map(rng, dimension, truncation, density=0.3):
    """Identity plus random higher-order terms; always invertible."""
    comps = []
    for i in range(dimension):
        base = FormalSeries.variable(dimension, truncation, i)
        tail = random_series(
            rng, dimension, truncation, density=density, scale=3, min_order=2
        )
        comps.append(base + tail)
    return FormalMap(comps)


def make_rng(seed):
    return random.Random(seed)


def dense_membership_oracle(f, ideal, k):
    """Decide f in I + m^k by dense Gaussian elimination.

    Independent of the library's jet spaces: flattens everything onto a
    fixed column order (plain tuple sort) and eliminates greedily.  The
    degree-(k-1) part of any combination sum(h_i g_i) is spanned by the
    monomial multiples m * g_i with |m| <= k - 1, so membership in
    I + m^k is a finite linear question over those rows.
    """
    n = f.dimension
    cols = sorted(exponent_tuples(n, k - 1))
    col_index = {exp: i for i, exp in enumerate(cols)}

    def vector(series):
        vec = [Fraction(0)] * len(cols)
        for mono, coeff in series.terms.items():
            exp = tuple(mono.exponents)
            if sum(exp) <= k - 1:
                vec[col_index[exp]] = vec[col_index[exp]] + coeff
        return vec

    rows = []
    for g in ideal.generators:
        for mult in exponent_tuples(n, k - 1):
            vec = [Fraction(0)] * len(cols)
            for mono, coeff in g.terms.items():
                exp = tuple(a + b for a, b in zip(mono.exponents, mult))
                if sum(exp) <= k - 1:
                    vec[col_index[exp]] = vec[col_index[exp]] + coeff
            if any(vec):
                rows.append(vec)

    target = vector(f)
    pivots = {}
    for row in rows:
        for col in range(len(cols)):
            if not row[col]:
                continue
            if col in pivots:
                lead = pivots[col]
                factor = row[col] / lead[col]
                for j in range(col, len(cols)):
                    row[j] = row[j] - factor * lead[j]
            else:
                pivots[col] = row
                break
    for col in range(len(cols)):
        if target[col] and col in pivots:
            lead = pivots[col]
            factor = target[col] / lead[col]
            for j in range(col, len(cols)):
                target[j] = target[j] - factor * lead[j]
    return not any(target)


class EliminationJetSpace:
    """The degree-d jet of an ideal by Macaulay elimination: the rows are
    the truncations of m * g over every generator g and every monomial m of
    degree <= d, kept in reduced row echelon form over the monomial order.
    Shares nothing with the library's standard bases beyond the series
    arithmetic; its pivots are the diagram within degree d."""

    def __init__(self, ideal, degree):
        self.dimension, self.degree = ideal.dimension, degree
        self.pivots = {}
        for g in ideal.generators:
            for m in monomials_up_to(ideal.dimension, degree):
                shifted = {b + m: c for b, c in g.terms.items() if (b + m).degree <= degree}
                if shifted:
                    self._insert(FormalSeries(ideal.dimension, degree, shifted))

    def _insert(self, s):
        pivots = self.pivots
        while not s.is_zero and s.initial_exponent() in pivots:
            lead = s.initial_exponent()
            s = s - s.coefficient(lead) * pivots[lead]
        if s.is_zero:
            return
        lead = s.initial_exponent()
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
    def pivot_exponents(self):
        return sorted(self.pivots, key=lambda m: m.sort_key)

    @property
    def basis(self):
        return [self.pivots[m] for m in self.pivot_exponents]

    def reduce(self, f):
        r = f.truncate(self.degree)
        for lead in self.pivot_exponents:
            c = r.coefficient(lead)
            if c:
                r = r - c * self.pivots[lead]
        return r

    def staircase(self):
        return Staircase(self.dimension, self.pivots)


def product_oracle(a, b):
    """a * b by one pass over every pair of terms, a MultiIndex sum per
    pair: the series product before the tuple kernel, kept as a reference."""
    trunc = min(a.truncation, b.truncation)
    table = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma.degree + mb.degree > trunc:
                continue
            key = ma + mb
            s = table.get(key, 0) + ca * cb
            if s:
                table[key] = s
            elif key in table:
                del table[key]
    return FormalSeries(a.dimension, trunc, table)


def substitute_oracle(f, components):
    """f with one series substituted per variable, built from cached powers
    and whole-series sums through product_oracle, at the common truncation."""
    m = components[0].dimension
    trunc = min([f.truncation] + [c.truncation for c in components])
    one = FormalSeries.constant(m, trunc, 1)
    comps = [c.truncate(trunc) for c in components]
    powers = [[one] for _ in comps]
    acc = FormalSeries.zero(m, trunc)
    for mi, c in f.sorted_terms():
        if mi.degree > trunc:
            continue
        term = one
        for j, e in enumerate(mi.exponents):
            cache = powers[j]
            while len(cache) <= e:
                cache.append(product_oracle(cache[-1], comps[j]))
            term = product_oracle(term, cache[e])
        acc = acc + c * term
    return acc


def realify_oracle(f):
    """realify by substitution: z_j = x_j + i*y_j through
    FormalSeries.substitute, on GaussianRational products, each
    coefficient then split into its real and imaginary parts."""
    n, trunc = f.dimension, f.truncation
    m = 2 * n
    components = [
        FormalSeries.variable(m, trunc, 2 * j) + I * FormalSeries.variable(m, trunc, 2 * j + 1)
        for j in range(n)
    ]
    parts = [(mi, as_gaussian(c)) for mi, c in f.substitute(components).terms.items()]
    return (
        FormalSeries(m, trunc, {mi: g.real for mi, g in parts}),
        FormalSeries(m, trunc, {mi: g.imag for mi, g in parts}),
    )


class SeriesArithmeticParser(expressions._Parser):
    """The expression parser on FormalSeries arithmetic: each sum, product
    and power runs the series operators on whole series, and every
    coefficient of a sum is checked against the bit bound, not only those
    the sum changed.  Grammar, limits and messages are the parser's own."""

    def _series(self, value):
        if type(value) is dict:
            return FormalSeries._from_table(len(self.names), self.truncation, dict(value))
        return value

    @staticmethod
    def _value(result):
        return dict(result._table) if isinstance(result, FormalSeries) else result

    def _add(self, a, b, tok):
        a, b = self._series(a), self._series(b)
        return self._bounded(self._value(a - b if tok.text == "-" else a + b), tok)

    def _mul(self, a, b):
        return self._value(self._series(a) * self._series(b))

    def _power(self, base, exponent):
        return self._value(self._series(base) ** exponent)


def parse_series_oracle(text, names, truncation):
    """expressions.parse_series with SeriesArithmeticParser as its parser."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expressions, "_Parser", SeriesArithmeticParser)
        return expressions.parse_series(text, names, truncation)


def guard_parser_products(monkeypatch):
    """Fail, instead of running, any product the parser starts with more
    than a million term pairs: a broken term budget shows as a failure,
    not as a job that runs for seconds."""
    mul_terms = expressions._mul_terms

    def guarded(left, right, *rest):
        assert len(left) * len(right) <= 10**6, "a product past the term budget ran"
        return mul_terms(left, right, *rest)

    monkeypatch.setattr(expressions, "_mul_terms", guarded)


def _degree_part(f, degree):
    """The terms of f of total degree degree, at f's truncation."""
    terms = {m: c for m, c in f.terms.items() if m.degree == degree}
    return FormalSeries(f.dimension, f.truncation, terms)


def inverse_oracle(phi):
    """The compositional inverse solved degree by degree, each step
    composing at the full truncation and subtracting the identity."""
    n, trunc = phi.dimension, phi.truncation
    inv_linear = phi.linear_inverse()
    units = [tuple(1 if t == j else 0 for t in range(n)) for j in range(n)]
    psi = [
        FormalSeries(n, trunc, {u: c for u, c in zip(units, row) if c})
        for row in inv_linear
    ]
    identity = FormalMap.identity(n, trunc)
    for degree in range(2, trunc + 1):
        error = [
            _degree_part(substitute_oracle(c, psi) - x, degree)
            for c, x in zip(phi.components, identity.components)
        ]
        for i in range(n):
            for j in range(n):
                if inv_linear[i][j]:
                    psi[i] = psi[i] - inv_linear[i][j] * error[j]
    return FormalMap(psi)


def inverse_pair_oracle(phi, phi_inv, left, right, k):
    """(ok, failure) of the order-k equivalence of two ideals, read off the
    definition through phi_inv = phi.inverse(): every right generator
    composed with phi must lie in left + m^k ("pullback", position), then
    every left generator composed with phi_inv must lie in right + m^k
    ("inverse", position), each decided by dense_membership_oracle."""
    for pos, g in enumerate(right.generators):
        if not dense_membership_oracle(compose(g, phi), left, k):
            return False, ("pullback", pos)
    for pos, g in enumerate(left.generators):
        if not dense_membership_oracle(compose(g, phi_inv), right, k):
            return False, ("inverse", pos)
    return True, None


def jet_coset_oracle(lam, left, right):
    """The jet-coset report read off reduced standard bases, for
    k = lam.truncation: a pair matches when the degree-k jet space of the
    right ideal's generators composed with lam equals the left ideal's.
    Family mode pairs members by position and gives no witness.  Set mode
    tries every index in order, first a partner for each left member, then
    for each right member, and counts the indices tried."""
    k = lam.truncation
    pulled = [
        JetSpace(ideal.dimension, k, [compose(g, lam) for g in ideal.generators])
        for ideal in right.ideals
    ]

    def hit(i, j):
        return pulled[j] == left.ideals[i].jet_space(k)

    if left.mode == "family":
        per_index = tuple(IndexVerdict(label, hit(i, i)) for i, label in enumerate(left.labels))
        return EquivalenceReport(all(v.ok for v in per_index), k, "family", per_index=per_index)

    def search(label, pool, matches):
        for j in range(len(pool)):
            if matches(j):
                return MatchVerdict(label, pool.labels[j], j + 1)
        return MatchVerdict(label, None, len(pool))

    left_matching = tuple(
        search(label, right, lambda j, i=i: hit(i, j)) for i, label in enumerate(left.labels)
    )
    right_matching = tuple(
        search(label, left, lambda i, j=j: hit(i, j)) for j, label in enumerate(right.labels)
    )
    return EquivalenceReport(
        all(m.partner is not None for m in left_matching + right_matching), k, "set",
        left_matching=left_matching, right_matching=right_matching,
    )


def transport_oracle(transported, target, k):
    """(ok, discrepancy_order) of a map or field against the transport of
    its partner, computed beforehand with conjugate or pushforward_field:
    the lowest degree present in the difference, ok when none is below k."""
    orders = [
        (b - a).order() for a, b in zip(transported.components, target.components)
    ]
    worst = min((o for o in orders if o is not None), default=None)
    return worst is None or worst >= k, worst


# -- the curve construction, level by level --------------------------------


def shift_values_oracle(levels):
    """c_1..c_levels by the construction's rule: c_1 = 1, and c_(m+1) is
    the endpoint of S_m = 2^m Z + c_m around zero larger in absolute
    value, the positive one on ties."""
    values = [1]
    for m in range(1, levels):
        modulus = 1 << m
        b = values[-1] % modulus or modulus
        a = b - modulus
        values.append(a if abs(a) > b else b)
    return values


def membership_horizon_oracle(t, values):
    """Least level m with t outside S_m, testing each level in turn; None
    when t lies in every level of values."""
    for m, c in enumerate(values, 1):
        if (t - c) % (1 << m):
            return m
    return None


def pool_windows_oracle(shift, order, m_max, n_max, values):
    """The curve driver's pool windows by the quadratic loop over every
    source level and each level its curves can match: level m itself while
    z^(m+1) is visible modulo m^order, every level >= order - 1 once not."""
    windows = {tag: dict.fromkeys(range(1, m_max + 1), n_max) for tag in ("phi", "psi")}
    for m in range(1, m_max + 1):
        if m + 1 <= order - 1:
            levels = range(m, m + 1)
        else:
            levels = range(max(1, order - 1), m_max + 1)
        for level in levels:
            # a phi source maps forward onto psi, a psi source back onto phi
            for target, offset in (
                ("psi", shift - values[level - 1]),
                ("phi", values[m - 1] - shift),
            ):
                bound = -(-((1 << m) * n_max + abs(offset)) // (1 << level))
                windows[target][level] = max(windows[target][level], bound)
    return windows

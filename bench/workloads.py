"""The four seeded workloads.

Each builder takes a seeded ``random.Random`` and returns rounds of
cases.  A case is one call into germcalc's public API (an op).  Building
the rounds generates plain inputs and never touches germcalc; a case's
``make`` presents them to germcalc during set-up and returns the op.  Ops
call through the package's attributes at call time, so the traced run
sees them.

Expected answers never come from germcalc: they are fixed by construction
or computed by ``poly`` after the timed loop, when ``check`` runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

import poly


@dataclass
class Case:
    name: str
    # make(germcalc, workdir) presents the generated inputs to germcalc
    # (set-up) and returns the zero-argument op.
    make: Callable[[Any, str], Callable[[], Any]]
    # check(case, result) returns None when the answer is right, otherwise
    # a one-line reason.  It reads case.expected, so a test can plant a
    # wrong expectation.
    check: Callable[["Case", Any], Optional[str]]
    expected: Any = None
    data: dict = field(default_factory=dict)
    # the generated inputs, kept so that runs can be compared
    inputs: Any = None
    call: Optional[Callable[[], Any]] = None


# -- shared input helpers ---------------------------------------------------

COEFFS = (-3, -2, -1, 1, 2, 3)

# Inputs are drawn with a fixed shape (degrees and term counts) and seeded
# monomials and coefficients, so the cost of a workload barely depends on
# the seed while its inputs do.


def shaped_poly(rng, n, lo, hi, density=0.0):
    """At every degree lo..hi, max(1, round(density * #monomials)) distinct
    monomials of that degree with coefficients drawn from COEFFS."""
    p = {}
    for d in range(lo, hi + 1):
        layer = [e for e in poly.monomials(n, d) if sum(e) == d]
        for e in rng.sample(layer, max(1, round(density * len(layer)))):
            p[e] = Fraction(rng.choice(COEFFS))
    return p


def fixed_poly(rng, n, degrees, offset):
    """One monomial per degree, picked by position (degree + offset) in the
    monomial order, with a coefficient drawn from COEFFS: the support is
    fixed by the arguments, the coefficients by the seed."""
    p = {}
    for d in degrees:
        layer = [e for e in poly.monomials(n, d) if sum(e) == d]
        p[layer[(d + offset) % len(layer)]] = Fraction(rng.choice(COEFFS))
    return p


def identity(n):
    return [{poly.unit(n, j): Fraction(1)} for j in range(n)]


def elementary_chain(rng, n, top, steps):
    """A seeded invertible map and its exact inverse, both through `top`.

    Step s adds c times a fixed monomial of degree 1, 2, 3, 2, 3, ... in
    the other variables to coordinate s mod n (in one variable, it
    scales), with c drawn by the seed; each step's inverse is explicit, so
    the inverse needs no series inversion.
    """
    phi, psi = identity(n), identity(n)
    for s in range(steps):
        fwd, inv = identity(n), identity(n)
        i = s % n
        if n == 1:
            a = Fraction(rng.choice((2, -2, 3, -3)))
            fwd[0], inv[0] = {(1,): a}, {(1,): 1 / a}
        else:
            e = [0] * n
            others = [j for j in range(n) if j != i]
            for t in range(1 if s == 0 else 2 + (s - 1) % 2):
                e[others[(s + t) % len(others)]] += 1
            p = {tuple(e): Fraction(rng.choice((-2, -1, 1, 2)))}
            fwd[i] = poly.add(fwd[i], p)
            inv[i] = poly.add(inv[i], p, -1)
        phi = poly.compose_map(phi, fwd, top)
        psi = poly.compose_map(inv, psi, top)
    return phi, psi


def rand_map(rng, n, top):
    """A full linear part plus one fixed monomial of degree 2 and one of
    degree 3 per component, all with seeded coefficients."""
    comps = []
    for i in range(n):
        p = {poly.unit(n, j): Fraction(rng.choice((-2, -1, 1, 2))) for j in range(n)}
        comps.append(poly.add(p, fixed_poly(rng, n, range(2, min(3, top) + 1), i)))
    return comps


def as_dict(s) -> dict:
    return {m.exponents: c for m, c in s.terms.items()}


def map_dicts(m) -> list:
    return [as_dict(c) for c in m.components]


def fmt_poly(p: dict, names) -> str:
    """Text germcalc's parser reads, written without germcalc."""
    if not p:
        return "0"
    out = []
    for e in sorted(p, key=poly.order_key):
        c = p[e]
        mono = "*".join(
            v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k
        )
        mag = abs(c)
        num = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        text = mono if (mono and mag == 1) else (f"{num}*{mono}" if mono else num)
        if not out:
            out.append(("-" if c < 0 else "") + text)
        else:
            out.append(("- " if c < 0 else "+ ") + text)
    return " ".join(out)


def fmt_map(comps, names) -> str:
    return "(" + ", ".join(fmt_poly(c, names) for c in comps) + ")"


def signed_permutation(rng, n):
    """A seeded change of coordinates y_i = s_i x_perm[i], every s_i = +-1."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [rng.choice((1, -1)) for _ in range(n)], perm


def transform(comps, signs, perm):
    """A map m as T o m o T^-1, or a vector field as T_* of it, for the
    signed permutation T of `signed_permutation`.  Coefficients only change
    sign and exponents only change places, so every op on the result does
    the same arithmetic as on the original."""
    out = []
    for i in range(len(perm)):
        p = {}
        for e, c in comps[perm[i]].items():
            e = tuple(e[j] for j in perm)
            odd = sum(k for s, k in zip(signs, e) if s < 0) % 2
            p[e] = -c * signs[i] if odd else c * signs[i]
        out.append(p)
    return out


def pushforward(phi, psi, xi, n, top):
    """(DPhi . xi) o Psi through top - 1, Psi being Phi's inverse."""
    out = []
    for i in range(n):
        acc: dict = {}
        for j in range(n):
            acc = poly.add(acc, poly.mul(poly.derivative(phi[i], j), xi[j], top - 1))
        out.append(poly.compose(acc, [poly.truncate(c, top - 1) for c in psi], n, top - 1))
    return out


def perturb(comps, rng, n, d):
    """Add one degree-d monomial to a random component; d None leaves
    the map as it is."""
    comps = [dict(c) for c in comps]
    if d is None:
        return comps
    e = [0] * n
    for _ in range(d):
        e[rng.randrange(n)] += 1
    j = rng.randrange(n)
    comps[j] = poly.add(comps[j], {tuple(e): Fraction(rng.choice((1, 2)))})
    return comps


# -- curves-setmatch --------------------------------------------------------

def shift_values(levels: int) -> list[int]:
    """c_1..c_levels of the nested progressions, restated from the paper."""
    values = [1]
    for m in range(1, levels):
        b = values[-1] % (1 << m) or (1 << m)
        a = b - (1 << m)
        values.append(a if abs(a) > b else b)
    return values


def expected_curve_verdict(k, m_max, order) -> bool:
    """The documented outcome: the level-k shear certifies order k + 1,
    and order k + 2 only when no level exceeds k or k is 1."""
    return order <= k + 1 or m_max <= k or k == 1


def check_curves(case, report) -> Optional[str]:
    k, m_max = case.data["k"], case.data["m_max"]
    if report.ok != case.expected:
        return f"ok={report.ok}, expected {case.expected}"
    unmatched = [m for m in report.left + report.right if m.partner is None]
    if bool(unmatched) == report.ok:
        return "ok disagrees with the unmatched list"
    if unmatched and report.cross_checked == 0:
        return "unmatched curves were not cross-checked"
    c = shift_values(max(m_max, k))
    shear = c[k - 1]

    def tangent(tag, level, index):
        return (1 << level) * index + (c[level - 1] if tag == "psi" else 0)

    for m in report.left + report.right:
        if m.partner is None:
            continue
        step = shear if m.tag == "phi" else -shear
        if tangent(m.tag, m.level, m.index) + step != tangent(*m.partner):
            return f"{m.tag}({m.level},{m.index}) paired with {m.partner} off the shear"
    return None


# The three n_max values of each shallow level k.  The pair-check count
# grows with k and with n_max, so shallow levels take more indices per
# side and every call costs a similar order of magnitude.
CURVE_N_MAX = {1: (5, 8, 11), 2: (3, 5, 7), 3: (2, 3, 4), 4: (1, 2, 3), 5: (1, 1, 2)}
# Levels 6..8 are the costliest calls (up to a second each): one call per
# level, at n_max = 1 and order k + 1.
CURVE_DEEP = (6, 7, 8)


def build_curves(rng, tiny=False):
    """One round.  For every k = 1..5 and order k+1, k+2 there is one
    verify call with each m_max in k..k+2, which takes the level's three
    n_max values from the largest down; levels 1..4 have a second such
    call each, with that order rotated by one.  The two pairings' costs
    interleave, so that no wide gap between call costs sits at the
    median; level 5, whose calls cost two to four times the median, has
    one pairing, so that a pass stays short.  For k = 6..8 there
    is one call, the seed drawing m_max in k..k+2, which changes its cost
    by a third at most.  A seeded pairing at the shallow levels would
    move the round's median by a quarter from seed to seed, so the seed
    leaves them alone and the round costs about the same whatever the
    seed."""
    def case(k, m_max, n_max, order):
        return Case(
            name=f"verify k={k} m_max={m_max} n_max={n_max} order={order}",
            make=lambda gc, workdir: lambda: gc.verify_finite_order_equivalence(
                k, m_max, n_max, order=order),
            check=check_curves,
            expected=expected_curve_verdict(k, m_max, order),
            data={"k": k, "m_max": m_max},
            inputs=(k, m_max, n_max, order),
        )

    if tiny:
        return [[case(k, k, 1, order) for k in (1, 3) for order in (k + 1, k + 2)]]
    cases = []
    for k, n_maxes in CURVE_N_MAX.items():
        for order in (k + 1, k + 2):
            down = sorted(n_maxes, reverse=True)
            for pairing in (down, down[1:] + down[:1])[: 1 if k == 5 else 2]:
                cases += [case(k, m_max, n_max, order)
                          for m_max, n_max in zip(range(k, k + 3), pairing)]
    cases += [case(k, rng.randint(k, k + 2), 1, k + 1) for k in CURVE_DEEP]
    return [cases]


# -- dynamics-transport -----------------------------------------------------

# (variables, truncation K, elementary steps in the conjugating map)
DYNAMICS_SPECS = ((1, 8, 3), (2, 6, 4), (2, 6, 4), (2, 7, 4), (2, 8, 4), (3, 6, 3))
DYNAMICS_TINY = ((1, 5, 2), (2, 4, 2))
DYNAMICS_ROUNDS = 3


def check_map(case, result) -> Optional[str]:
    if map_dicts(result) != case.expected:
        return "transported map differs from the independent composition"
    return None


def check_dynamics_verdict(case, report) -> Optional[str]:
    ok, d = case.expected
    got = report.per_index[0].discrepancy_order
    if report.ok != ok or got != d:
        return f"ok={report.ok} discrepancy={got}, expected ok={ok} discrepancy={d}"
    return None


def present_map(gc, n, top, comps):
    return gc.FormalMap([gc.FormalSeries(n, top, c) for c in comps])


def present_field(gc, n, top, comps):
    return gc.VectorField([gc.FormalSeries(n, top, c) for c in comps])


def dynamics_cases(rng, n, top, steps, where):
    """Four ops on one map pair: both transports, compared with the
    independent composition, and both order-k checks against a copy
    perturbed at degree d (or not at all), ok exactly when d >= k.

    The pair is a base problem fixed by `where` (round, position), the same
    for every seed, written in coordinates that the seed draws: a signed
    permutation of the variables.  The seed so changes the signs and
    places of the inputs' terms, but not the cost of any op, which for
    seeded coefficients varies up to twofold through cancellations.  The
    orders k and the choice of d cycle with the position too."""
    base = random.Random(f"dynamics:{where}")
    slot = sum(where)
    phi, psi = elementary_chain(base, n, top, steps)
    f = rand_map(base, n, top)
    xi = [fixed_poly(base, n, (1, 2, 3), i + 1) for i in range(n)]
    k = 2 + slot % (top - 1)
    d = (k - 1, k, None)[slot % 3]
    kf = 2 + (slot + 1) % (top - 2)
    df = (kf - 1, kf, None)[(slot + 1) % 3]
    zero = [{} for _ in range(n)]
    g_delta, eta_delta = perturb(zero, base, n, d), perturb(zero, base, n, df)
    signs, perm = signed_permutation(rng, n)
    phi, psi, f, xi, g_delta, eta_delta = (
        transform(m, signs, perm) for m in (phi, psi, f, xi, g_delta, eta_delta))
    g = poly.compose_map(poly.compose_map(phi, f, top), psi, top)
    eta = pushforward(phi, psi, xi, n, top)
    g_near = [poly.add(a, b) for a, b in zip(g, g_delta)]
    eta_near = [poly.add(a, b) for a, b in zip(eta, eta_delta)]
    tag = f"n={n} K={top}"
    inputs = (phi, f, g_near, xi, eta_near)

    def conj(gc, workdir):
        F, Phi = present_map(gc, n, top, f), present_map(gc, n, top, phi)
        return lambda: gc.conjugate(F, Phi)

    def conj_check(gc, workdir):
        Phi, F, G = (present_map(gc, n, top, m) for m in (phi, f, g_near))
        return lambda: gc.is_order_k_conjugacy(Phi, [F], [G], k)

    def push(gc, workdir):
        Xi, Phi = present_field(gc, n, top, xi), present_map(gc, n, top, phi)
        return lambda: gc.pushforward_field(Xi, Phi)

    def push_check(gc, workdir):
        Phi, Xi = present_map(gc, n, top, phi), present_field(gc, n, top, xi)
        Eta = present_field(gc, n, top - 1, eta_near)
        return lambda: gc.is_order_k_field_equivalence(Phi, [Xi], [Eta], kf)

    return [
        Case(f"conjugate {tag}", conj, check_map, g, inputs=inputs),
        Case(f"is_order_k_conjugacy {tag} k={k} d={d}", conj_check,
             check_dynamics_verdict, (d is None or d >= k, d), inputs=inputs),
        Case(f"pushforward_field {tag}", push, check_map, eta, inputs=inputs),
        Case(f"is_order_k_field_equivalence {tag} k={kf} d={df}", push_check,
             check_dynamics_verdict, (df is None or df >= kf, df), inputs=inputs),
    ]


def build_dynamics(rng, tiny=False):
    specs = DYNAMICS_TINY if tiny else DYNAMICS_SPECS
    return [
        [c for i, spec in enumerate(specs) for c in dynamics_cases(rng, *spec, (r, i))]
        for r in range(1 if tiny else DYNAMICS_ROUNDS)
    ]


# -- ideal-queries ----------------------------------------------------------

# (variables, query degree D, generators) of the ideals in one round
IDEAL_SPECS = ((2, 8, 1), (2, 8, 2), (2, 8, 3), (3, 5, 1), (3, 5, 2), (3, 5, 3))
IDEAL_TINY = ((2, 3, 2), (3, 2, 1))
IDEAL_ROUNDS = 4
IDEAL_DENSITY = 0.3


class LazyElimination:
    """An elimination oracle built on first use, during checking, and
    shared by every query against the same ideal and degree."""

    def __init__(self, n, gens, d):
        self.args = (n, gens, d)
        self._done: Optional[poly.Elimination] = None

    def get(self) -> poly.Elimination:
        if self._done is None:
            self._done = poly.Elimination(*self.args)
        return self._done


def resolve_expected(case):
    """Expected answers left as None are computed by the oracle once."""
    if case.expected is None:
        case.expected = case.data["answer"]()
    return case.expected


def check_membership(case, result) -> Optional[str]:
    want = resolve_expected(case)
    if result is not want:
        return f"membership {result}, elimination oracle says {want}"
    return None


def check_reduce(case, result) -> Optional[str]:
    if as_dict(result) != resolve_expected(case):
        return "normal form differs from the elimination oracle's"
    return None


def check_division(case, result) -> Optional[str]:
    """Replay f = sum q_i g_i + r through degree D with products and sums
    only, and check that r avoids the divisors' staircase."""
    f, gens, top = case.data["f"], case.data["gens"], case.data["top"]
    total = as_dict(result.remainder)
    for q, g in zip(result.quotients, gens):
        total = poly.add(total, poly.mul(as_dict(q), g, top))
    if total != poly.truncate(f, top):
        return "quotients and remainder do not replay to the dividend"
    vertices = poly.minimal_points(poly.initial_exponent(g) for g in gens)
    if any(poly.in_staircase(e, vertices) for e in as_dict(result.remainder)):
        return "remainder has a term inside the staircase"
    return None


def ideal_queries(rng, n, top, gens):
    """Series to query: members of I + m^(top+1) built as sum h_i g_i, and
    the same with two low-degree terms added (member or not; the oracle
    decides)."""
    out = []
    for q in range(5):
        f: dict = {}
        for g in gens:
            f = poly.add(f, poly.mul(shaped_poly(rng, n, 0, top - 1, IDEAL_DENSITY), g, top))
        if q % 2:
            f = poly.add(f, shaped_poly(rng, n, 1, 2))
        out.append(f)
    return out


def ideal_cases(rng, n, top, count):
    """One seeded ideal of `count` generators, the i-th of order i + 1, and
    its queries: membership at orders top+1 and top-2, normal forms, and
    divisions by the generators."""
    gens = [shaped_poly(rng, n, i + 1, top, IDEAL_DENSITY) for i in range(count)]
    low = max(1, top - 2)
    oracles = {d: LazyElimination(n, gens, d) for d in (top, low - 1)}
    tag = f"n={n} D={top} gens={len(gens)}"
    shared: dict = {}

    def ideal(gc):
        # One presented ideal per set-up, shared by its queries.  Its jet
        # spaces at both query degrees are built here, so the timed
        # queries run against cached jet spaces.
        if shared.get("gc") is not gc:
            I = gc.IdealPresentation(n, [gc.FormalSeries(n, top, g) for g in gens])
            I.jet_space(top)
            I.jet_space(low - 1)
            shared.update(gc=gc, ideal=I)
        return shared["ideal"]

    cases = []
    for i, f in enumerate(ideal_queries(rng, n, top, gens)):
        for order in (top + 1, low):
            cases.append(Case(
                f"jet_membership {tag} q{i} k={order}",
                lambda gc, workdir, f=f, k=order:
                    (lambda F=gc.FormalSeries(n, top, f), I=ideal(gc): gc.jet_membership(F, I, k)),
                check_membership,
                data={"answer": lambda f=f, o=oracles[order - 1]: o.get().contains(f)},
                inputs=(gens, f, order),
            ))
        if i < 3:
            cases.append(Case(
                f"reduce_mod_ideal {tag} q{i}",
                lambda gc, workdir, f=f:
                    (lambda F=gc.FormalSeries(n, top, f), I=ideal(gc): gc.reduce_mod_ideal(F, I, top)),
                check_reduce,
                data={"answer": lambda f=f, o=oracles[top]: o.get().normal_form(f)},
                inputs=(gens, f, top),
            ))
        else:
            cases.append(Case(
                f"formal_division {tag} q{i}",
                lambda gc, workdir, f=f:
                    (lambda F=gc.FormalSeries(n, top, f),
                     G=[gc.FormalSeries(n, top, g) for g in gens]: gc.formal_division(F, G, top)),
                check_division,
                data={"f": f, "gens": gens, "top": top},
                inputs=(gens, f, top),
            ))
    return cases


def build_ideals(rng, tiny=False):
    return [
        [c for spec in (IDEAL_TINY if tiny else IDEAL_SPECS) for c in ideal_cases(rng, *spec)]
        for _ in range(1 if tiny else IDEAL_ROUNDS)
    ]


# -- cli-manifests ----------------------------------------------------------

def run_cli(gc, argv):
    """germcalc.cli.main in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gc.cli.main(argv)
    return code, out.getvalue()


def manifest_text(header: dict, left, right=()) -> str:
    lines = [f"{k}: {v}" for k, v in header.items()]
    for section, entries in (("left", left), ("right", right)):
        if entries:
            lines += ["", f"[{section}]"] + [f"{label}: {text}" for label, text in entries]
    return "\n".join(lines) + "\n"


def cli_op(argv, manifest=None):
    """Case.make for one CLI call: set-up writes the manifest, if any, into
    the work directory; the op runs the command on it."""
    def make(gc, workdir):
        args = list(argv) + ["--format", "json"]
        if manifest is not None:
            name, text = manifest
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            args += ["--manifest", path]
        return lambda: run_cli(gc, args)
    return make


def check_cli(case, result) -> Optional[str]:
    """Exit code, JSON validity and the expected report fields.  Fields
    given as callables are computed by the oracle once; a missing exit
    code follows the verdict."""
    want = case.expected = {
        key: value() if callable(value) else value
        for key, value in case.expected.items()
    }
    want.setdefault("code", 0 if want.get("ok", True) else 1)
    code, text = result
    if code != want["code"]:
        return f"exit code {code}, expected {want['code']}"
    try:
        report = json.loads(text)
    except ValueError:
        return "stdout is not valid JSON"
    if report.get("command") != case.data["command"]:
        return f"report command {report.get('command')!r}"
    for key, value in want.items():
        got = report.get(key)
        if isinstance(value, list) and isinstance(got, list):
            got, value = sorted(got), sorted(value)
        if key != "code" and got != value:
            return f"{key}={got!r}, expected {value!r}"
    return None


def equivalence_expected(n, left, right, phi, psi, order):
    """Family-mode verdict by elimination: each right generator pulled back
    through phi lies in its left ideal + m^k, and each left generator
    pulled back through phi's inverse in its right ideal + m^k."""
    top = order - 1
    for lgens, rgens in zip(left, right):
        for src, dst, through in ((rgens, lgens, phi), (lgens, rgens, psi)):
            oracle = poly.Elimination(n, dst, top)
            for g in src:
                if not oracle.contains(poly.compose(g, through, n, top)):
                    return False
    return True


def cli_cases(rng, tag, tiny):
    """One round of commands, each on its own seeded manifest."""
    cases = []

    def add(name, argv, command, expected, manifest=None):
        if manifest is not None:
            manifest = (f"{tag}-{manifest[0]}.man", manifest[1])
        cases.append(Case(name, cli_op(argv, manifest), check_cli, expected,
                          {"command": command}, inputs=(argv, manifest)))

    # diagram at every degree of one ideal, then reduce and divide
    for n, top in (((2, 3),) if tiny else ((2, 6), (3, 4))):
        names = ("z", "w", "u")[:n]
        gens = [shaped_poly(rng, n, i + 1, top, 0.2) for i in range(2)]
        f = poly.add(poly.mul(shaped_poly(rng, n, 0, 2), gens[0], top),
                     shaped_poly(rng, n, 1, top))
        manifest = (f"ideal-n{n}", manifest_text(
            {"vars": ", ".join(names), "trunc": top, "kind": "ideals",
             "series": fmt_poly(f, names)},
            [(f"g{i}", fmt_poly(g, names)) for i, g in enumerate(gens)],
        ))
        for d in range(1, top + 1):
            add(f"cli diagram n={n} degree={d}", ["diagram", "--degree", str(d)], "diagram",
                {"code": 0, "vertices": lambda n=n, g=gens, d=d:
                 [list(v) for v in poly.Elimination(n, g, d).diagram()]}, manifest)
        add(f"cli reduce n={n}", ["reduce"], "reduce",
            {"code": 0, "member": lambda n=n, g=gens, f=f, t=top:
             poly.Elimination(n, g, t).contains(f)}, manifest)
        add(f"cli divide n={n}", ["divide"], "divide",
            {"code": 0, "staircase": lambda g=gens:
             [list(v) for v in poly.minimal_points(poly.initial_exponent(x) for x in g)]},
            manifest)

    # family equivalence on ideals pushed forward through an invertible map;
    # the second variant perturbs one pushed-forward generator
    n, top = 2, (4 if tiny else 6)
    names = ("z", "w")
    for variant in range(1 if tiny else 2):
        phi, psi = elementary_chain(rng, n, top, 3)
        order = rng.randint(2, top)
        left = [[shaped_poly(rng, n, 1, 3)] for _ in range(2)]
        right = [[poly.compose(g, psi, n, top) for g in gens] for gens in left]
        if variant:
            j = rng.randrange(len(right))
            right[j] = [poly.add(right[j][0], shaped_poly(rng, n, order - 1, order - 1))]
        manifest = (f"family-{variant}", manifest_text(
            {"vars": "z, w", "trunc": top, "kind": "ideals", "mode": "family",
             "order": order, "map": fmt_map(phi, names)},
            [(f"c{i}", "; ".join(fmt_poly(g, names) for g in gens)) for i, gens in enumerate(left)],
            [(f"c{i}", "; ".join(fmt_poly(g, names) for g in gens)) for i, gens in enumerate(right)],
        ))
        add(f"cli check-equivalence family v{variant} k={order}",
            ["check-equivalence", "--mode", "family"], "check-equivalence",
            {"ok": lambda l=left, r=right, p=phi, q=psi, o=order:
             equivalence_expected(n, l, r, p, q, o)}, manifest)

    # conjugacy: an exact round trip, and one perturbed at degree d
    for variant in range(1 if tiny else 2):
        phi, psi = elementary_chain(rng, n, top, 3)
        f = rand_map(rng, n, top)
        g = poly.compose_map(poly.compose_map(phi, f, top), psi, top)
        order = rng.randint(2, top)
        d = None if variant == 0 else rng.choice((order - 1, order))
        manifest = (f"conj-{variant}", manifest_text(
            {"vars": "z, w", "trunc": top, "kind": "maps", "order": order,
             "map": fmt_map(phi, names)},
            [("f", fmt_map(f, names))], [("f", fmt_map(perturb(g, rng, n, d), names))],
        ))
        ok = d is None or d >= order
        add(f"cli check-conjugacy v{variant} k={order} d={d}", ["check-conjugacy"],
            "check-conjugacy", {"ok": ok}, manifest)

    # small realified curve-set runs: dimension 4, two generators per curve
    for k, m_max in (((1, 1),) if tiny else ((1, 2), (2, 2), (2, 3))):
        add(f"cli counterexample verify --realified k={k} m_max={m_max}",
            ["counterexample", "verify", "--k", str(k), "--m-max", str(m_max),
             "--n-max", "1", "--realified"],
            "counterexample verify", {"ok": expected_curve_verdict(k, m_max, k + 2)})
    return cases


CLI_ROUNDS = 4


def build_cli(rng, tiny=False):
    return [cli_cases(rng, f"r{r}", tiny) for r in range(1 if tiny else CLI_ROUNDS)]


WORKLOADS = {
    "curves-setmatch": build_curves,
    "dynamics-transport": build_dynamics,
    "ideal-queries": build_ideals,
    "cli-manifests": build_cli,
}

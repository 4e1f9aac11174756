"""End-to-end acceptance battery.

Each criterion prints a single ``ACCEPTANCE n: PASS/FAIL`` line before any
assertion fires, so the full scoreboard is visible in the output even when a
late criterion is red.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from germcalc import (
    FormalMap,
    FormalSeries,
    GermFamily,
    IdealPresentation,
    VectorField,
    build_shift_sequence,
    chain_stabilization,
    compose,
    conjugate,
    formal_division,
    is_order_k_conjugacy,
    is_order_k_equivalence,
    is_order_k_field_equivalence,
    jet_coset_membership,
    jet_membership,
    membership_up_to,
    monomials_up_to,
    pushforward_field,
    reduce_mod_ideal,
    verify_finite_order_equivalence,
    verify_tangent_obstruction,
    vertex_extraction,
)
from germcalc.cli import main

from conftest import (
    dense_membership_oracle,
    random_ideal,
    random_invertible_map,
    random_nonzero_series,
    random_series,
)
from test_cli import CORPUS_RUNS


def _verdict(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _perturbed(series, dimension, position, degree, amount=1):
    exponents = [0] * dimension
    exponents[position] = degree
    bump = FormalSeries(dimension, series.truncation, {tuple(exponents): amount})
    return series + bump


def test_criterion_1_division_identity():
    """f == sum(q_i g_i) + r exactly mod m^9, r supported off the staircase."""
    rng = random.Random(101)
    start = time.perf_counter()
    failures = 0
    for _ in range(500):
        n = rng.randint(1, 3)
        divisors = [random_nonzero_series(rng, n, 8) for _ in range(rng.randint(1, 3))]
        f = random_series(rng, n, 8)
        result = formal_division(f, divisors, 8)
        delta = f - result.remainder
        for q, g in zip(result.quotients, divisors):
            delta = delta - q * g
        if not delta.is_zero:
            failures += 1
        if any(result.staircase.contains(m) for m, _ in result.remainder.sorted_terms()):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"500 division identities exact mod m^9, remainders clear of the staircase"
        f" ({elapsed:.1f}s)",
    )
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_2_reduction_agrees_with_membership():
    """reduce_mod_ideal coincidence iff jet membership iff a dense rank oracle."""
    rng = random.Random(102)
    disagreements = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        ideal = random_ideal(rng, n, 6)
        f = random_series(rng, n, 6)
        if rng.random() < 0.5:
            g = f
            for gen in ideal.generators:
                g = g + random_series(rng, n, 6) * gen
        else:
            g = random_series(rng, n, 6)
        same_form = reduce_mod_ideal(f, ideal, 6) == reduce_mod_ideal(g, ideal, 6)
        member = jet_membership(f - g, ideal, 7)
        oracle = dense_membership_oracle(f - g, ideal, 7)
        if not (same_form == member == oracle):
            disagreements += 1
    ok = disagreements == 0
    _verdict(
        2,
        ok,
        "200 pairs: normal-form agreement, jet membership, and Gaussian"
        " elimination all coincide",
    )
    assert disagreements == 0


def test_criterion_3_diagrams_and_vertices():
    """Diagram chains grow, stay upward closed, and stabilize; vertex
    extraction is idempotent and matches a brute-force dominance scan."""
    rng = random.Random(103)
    chain_failures = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        ideal = random_ideal(rng, n, 8)
        chain = [ideal.diagram(d) for d in range(9)]
        for d in range(8):
            for m in monomials_up_to(n, d):
                if chain[d].contains(m) and not chain[d + 1].contains(m):
                    chain_failures += 1
        for d, staircase in enumerate(chain):
            for m in monomials_up_to(n, d):
                if not staircase.contains(m):
                    continue
                for j in range(n):
                    up = tuple(m)[:j] + (m[j] + 1,) + tuple(m)[j + 1 :]
                    if sum(up) <= d and not staircase.contains(up):
                        chain_failures += 1
        if chain_stabilization(chain) is None:
            chain_failures += 1

    def brute_minimal(points):
        return {
            p
            for p in points
            if not any(
                q != p and all(qc <= pc for qc, pc in zip(q, p)) for q in points
            )
        }

    rng = random.Random(104)
    vertex_failures = 0
    for _ in range(1000):
        n = rng.randint(1, 4)
        points = {
            tuple(rng.randint(0, 6) for _ in range(n))
            for _ in range(rng.randint(1, 12))
        }
        staircase = vertex_extraction(points, n)
        found = {tuple(v) for v in staircase.vertices}
        if found != brute_minimal(points):
            vertex_failures += 1
        again = vertex_extraction(staircase.vertices, n)
        if {tuple(v) for v in again.vertices} != found:
            vertex_failures += 1

    ok = chain_failures == 0 and vertex_failures == 0
    _verdict(
        3,
        ok,
        "100 diagram chains monotone, closed, and stabilizing; 1000 vertex"
        " extractions minimal and idempotent",
    )
    assert chain_failures == 0
    assert vertex_failures == 0


def test_criterion_4_shift_sequence_window():
    """Frozen leading shifts plus interval, nesting, and growth invariants
    checked exactly over the window |l| <= 2^15."""
    start = time.perf_counter()
    seq = build_shift_sequence(13)
    failures = 0
    if seq.values[:4] != (1, 1, -3, 5):
        failures += 1
    window = 1 << 15
    for m in range(1, 14):
        step = 1 << m
        b = seq.min_positive(m)
        a = seq.max_negative(m)
        if b - a != step:
            failures += 1
        members = list(range(b, window + 1, step))
        members += list(range(b - step, -window - 1, -step))
        for l in members:
            if not seq.contains(l, m):
                failures += 1
            if m > 1 and not seq.contains(l, m - 1):
                failures += 1
        closest = min(abs(x) for x in members)
        if closest != min(b, -a):
            failures += 1
        if m >= 3 and closest < 1 << (m - 2):
            failures += 1
    for k in range(1, 13):
        if not (1 << (k - 1) <= abs(seq.c(k + 1)) < 1 << k):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 1.0
    _verdict(
        4,
        ok,
        f"shift sequence invariants exact over |l| <= 2^15 ({elapsed:.2f}s)",
    )
    assert failures == 0
    assert elapsed < 1.0


def test_criterion_5_counterexample_at_every_order():
    """The set-mode checker should certify every order 3..10 at full scale
    (m_max=10, n_max=32): order k+2 for k = 1..8, through the shear by
    c_(k+1).  Modulo m^(k+2) a level-m curve with m > k is fixed by its
    tangent alone, and matching those needs the shear constant
    congruent to c_(k+1) mod 2^(k+1); c_k is not for k >= 2 (see
    germcalc.curves and the pinned gap in tests/test_curves.py)."""
    start = time.perf_counter()
    outcomes = []
    for k in range(1, 9):
        report = verify_finite_order_equivalence(k, 10, 32, k + 3, shift_level=k + 1)
        outcomes.append((k, report.ok, report.order, len(report.unmatched)))
    elapsed = time.perf_counter() - start
    ok = all(passed for _, passed, _, _ in outcomes) and elapsed < 300.0
    summary = ", ".join(
        f"k={k}:{'ok' if passed else f'{unmatched} unmatched'}"
        for k, passed, _, unmatched in outcomes
    )
    _verdict(
        5, ok, f"order k+2 by shear c_(k+1) at full scale [{summary}] ({elapsed:.1f}s)"
    )
    for k, passed, order, _ in outcomes:
        assert order == k + 2
    assert elapsed < 300.0
    assert all(passed for _, passed, _, _ in outcomes)


def test_criterion_5_realified_counterexample_at_every_order():
    """Criterion 5 in the paper's real setting: each curve is presented by
    the real and imaginary parts of its equation in x1, y1, x2, y2, and the
    shear is realified too.  On holomorphic input the realified verdicts are
    the complex ones (see germcalc.curves), so each report must equal the
    complex run's at every k = 1..8."""
    start = time.perf_counter()
    mismatched = []
    for k in range(1, 9):
        args = (k, 10, 32, k + 3)
        real = verify_finite_order_equivalence(*args, shift_level=k + 1, realified=True)
        if real != verify_finite_order_equivalence(*args, shift_level=k + 1):
            mismatched.append(k)
    elapsed = time.perf_counter() - start
    ok = not mismatched and elapsed < 300.0
    _verdict(
        5, ok, f"realified reports equal the complex ones for k = 1..8, "
        f"mismatched at {mismatched} ({elapsed:.1f}s)"
    )
    assert mismatched == []
    assert elapsed < 300.0


def test_criterion_6_obstruction_window():
    """Every tangent shift |t| <= 1000 leaves the nested sets by depth 13,
    and zero never enters them."""
    start = time.perf_counter()
    report = verify_tangent_obstruction(13)
    elapsed = time.perf_counter() - start
    ok = (
        report.ok
        and report.window == 1000
        and report.zero_excluded
        and report.all_horizons_finite
        and report.max_horizon <= 13
        and elapsed < 1.0
    )
    _verdict(
        6,
        ok,
        f"horizons over |t| <= {report.window} peak at {report.max_horizon},"
        f" zero excluded through depth 13 ({elapsed:.2f}s)",
    )
    assert report.ok
    assert report.window == 1000
    assert report.zero_excluded
    assert report.all_horizons_finite
    assert report.max_horizon <= 13
    assert elapsed < 1.0


def test_criterion_7_dynamics_round_trips_and_flips():
    """Conjugation and pushforward invert cleanly, reproduce the worked
    examples exactly, and verdicts flip at the constructed degree."""
    K = 6
    z_shift = FormalMap([FormalSeries(1, K, {(1,): 1, (2,): 1})])
    doubling = FormalMap([FormalSeries(1, K, {(1,): 2})])
    conj_expected = FormalMap([FormalSeries(1, K, {(1,): 1, (2,): Fraction(1, 2)})])
    examples_ok = conjugate(z_shift, doubling) == conj_expected
    field = VectorField([FormalSeries(1, K, {(2,): 1})])
    field_expected = VectorField([FormalSeries(1, K - 1, {(2,): Fraction(1, 2)})])
    examples_ok = examples_ok and pushforward_field(field, doubling) == field_expected

    rng = random.Random(107)
    round_trip_failures = 0
    for _ in range(100):
        n = rng.randint(1, 2)
        phi = random_invertible_map(rng, n, K)
        f = FormalMap([random_series(rng, n, K, min_order=1) for _ in range(n)])
        back = conjugate(conjugate(f, phi), phi.inverse())
        if back != f.truncate(back.truncation):
            round_trip_failures += 1
    for _ in range(100):
        n = rng.randint(1, 2)
        phi = random_invertible_map(rng, n, K)
        xi = VectorField([random_series(rng, n, K, min_order=1) for _ in range(n)])
        back = pushforward_field(pushforward_field(xi, phi), phi.inverse())
        if back != xi.truncate(back.truncation):
            round_trip_failures += 1

    rng = random.Random(108)
    flip_failures = 0
    for _ in range(50):
        n = rng.randint(1, 2)
        k = rng.randint(1, 5)
        d = rng.randint(1, 5)
        phi = random_invertible_map(rng, n, K)
        f = FormalMap([random_series(rng, n, K, min_order=1) for _ in range(n)])
        g = conjugate(f, phi)
        pos = rng.randrange(n)
        components = list(g.components)
        components[pos] = _perturbed(components[pos], n, pos, d)
        if is_order_k_conjugacy(phi, [f], [FormalMap(components)], k).ok != (d >= k):
            flip_failures += 1
    for _ in range(50):
        n = rng.randint(1, 2)
        k = rng.randint(1, 4)
        d = rng.randint(1, 4)
        phi = random_invertible_map(rng, n, K)
        xi = VectorField([random_series(rng, n, K, min_order=1) for _ in range(n)])
        eta = pushforward_field(xi, phi)
        pos = rng.randrange(n)
        components = list(eta.components)
        components[pos] = _perturbed(components[pos], n, pos, d)
        verdict = is_order_k_field_equivalence(phi, [xi], [VectorField(components)], k)
        if verdict.ok != (d >= k):
            flip_failures += 1

    ok = examples_ok and round_trip_failures == 0 and flip_failures == 0
    _verdict(
        7,
        ok,
        "200 round trips recover inputs, worked examples exact, 100 verdicts"
        " flip at the perturbation degree",
    )
    assert examples_ok
    assert round_trip_failures == 0
    assert flip_failures == 0


def test_criterion_8_verdicts_ignore_deep_perturbations():
    """Adding degree > k terms to the map never moves an order-(k+1)
    equivalence or conjugacy verdict."""
    K = 6
    rng = random.Random(109)
    moved = 0
    true_verdicts = 0
    for _ in range(100):
        n = rng.randint(1, 2)
        k = rng.randint(1, 3)
        phi = random_invertible_map(rng, n, K)
        count = rng.randint(1, 2)
        left_items = [(f"g{j}", random_ideal(rng, n, K)) for j in range(count)]
        if rng.random() < 0.5:
            phi_inv = phi.inverse()
            right_items = [
                (
                    label,
                    IdealPresentation(
                        n, [compose(g, phi_inv) for g in ideal.generators]
                    ),
                )
                for label, ideal in left_items
            ]
        else:
            right_items = [(label, random_ideal(rng, n, K)) for label, _ in left_items]
        left = GermFamily.of("family", left_items)
        right = GermFamily.of("family", right_items)
        d = rng.randint(k + 1, K)
        pos = rng.randrange(n)
        components = list(phi.components)
        components[pos] = _perturbed(components[pos], n, pos, d, rng.randint(1, 3))
        phi_deep = FormalMap(components)
        before = is_order_k_equivalence(phi, left, right, k + 1).ok
        after = is_order_k_equivalence(phi_deep, left, right, k + 1).ok
        if before != after:
            moved += 1
        if before:
            true_verdicts += 1
        f = FormalMap([random_series(rng, n, K, min_order=1) for _ in range(n)])
        if rng.random() < 0.5:
            g = conjugate(f, phi)
        else:
            g = FormalMap([random_series(rng, n, K, min_order=1) for _ in range(n)])
        if is_order_k_conjugacy(phi, [f], [g], k + 1).ok != is_order_k_conjugacy(
            phi_deep, [f], [g], k + 1
        ).ok:
            moved += 1
    ok = moved == 0 and 0 < true_verdicts < 100
    _verdict(
        8,
        ok,
        f"100 trials: deep perturbations moved {moved} verdicts"
        f" ({true_verdicts} positive cases exercised)",
    )
    assert moved == 0
    assert 0 < true_verdicts < 100


def test_criterion_9_exact_coset_triples():
    """Pushed-forward ideals pass jet-coset membership at every order and a
    full membership scan, with zero failures."""
    K = 8
    rng = random.Random(110)
    failures = 0
    for _ in range(50):
        phi = random_invertible_map(rng, 2, K)
        ideal = random_ideal(rng, 2, K)
        phi_inv = phi.inverse()
        pushed = IdealPresentation(
            2, [compose(g, phi_inv) for g in ideal.generators]
        )
        left = GermFamily.of("family", [("I", ideal)])
        right = GermFamily.of("family", [("I", pushed)])
        for k in range(1, K + 1):
            if not jet_coset_membership(phi.truncate(k), left, right).ok:
                failures += 1
        for g in pushed.generators:
            if membership_up_to(compose(g, phi), ideal, K).first_failure is not None:
                failures += 1
    ok = failures == 0
    _verdict(
        9,
        ok,
        "50 pushed-forward triples: coset membership at orders 1..8 and full"
        " scans all clean",
    )
    assert failures == 0


def test_criterion_10_cli_corpus_byte_stability():
    """Every subcommand runs against the golden corpus with the contracted
    exit codes, and repeated runs are byte-identical in both formats."""

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    wrong_codes = 0
    unstable = 0
    invalid_json = 0
    commands = set()
    for argv, expected in CORPUS_RUNS:
        commands.add(" ".join(argv[:2]) if argv[0] == "counterexample" else argv[0])
        first = run(argv)
        if first[0] != expected:
            wrong_codes += 1
        if run(argv) != first:
            unstable += 1
        json_argv = argv + ("--format", "json")
        json_first = run(json_argv)
        if json_first[0] != expected:
            wrong_codes += 1
        if run(json_argv) != json_first:
            unstable += 1
        if expected in (0, 1):
            try:
                json.loads(json_first[1])
            except ValueError:
                invalid_json += 1

    manifests = {
        Path(argv[argv.index("--manifest") + 1]).name
        for argv, _ in CORPUS_RUNS
        if "--manifest" in argv
    }
    expected_commands = {
        "divide",
        "diagram",
        "jet",
        "reduce",
        "check-equivalence",
        "check-conjugacy",
        "check-field-equivalence",
        "counterexample sequence",
        "counterexample verify",
        "counterexample horizon",
    }
    ok = (
        wrong_codes == 0
        and unstable == 0
        and invalid_json == 0
        and len(manifests) >= 20
        and expected_commands <= commands
    )
    _verdict(
        10,
        ok,
        f"{len(CORPUS_RUNS)} corpus runs over {len(manifests)} manifests stable in"
        " both formats with contracted exit codes",
    )
    assert wrong_codes == 0
    assert unstable == 0
    assert invalid_json == 0
    assert len(manifests) >= 20
    assert expected_commands <= commands

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from germcalc import (
    DimensionError,
    FormalMap,
    FormalSeries,
    GaussianRational,
    GermFamily,
    I,
    IdealPresentation,
    InversionError,
    JetSpace,
    PrecisionError,
    build_shift_sequence,
    compose,
    curve,
    curve_ideal,
    equivalence_horizon,
    is_order_k_equivalence,
    jet_coset_membership,
    jet_membership,
    membership_up_to,
    pullback,
    shift_map,
)
from germcalc import equivalence
from conftest import (
    exponent_tuples,
    inverse_pair_oracle,
    jet_coset_oracle,
    random_ideal,
    random_invertible_map,
    random_nonzero_series,
    random_series,
)

K = 6


def zw(trunc=K):
    return (
        FormalSeries.variable(2, trunc, 0),
        FormalSeries.variable(2, trunc, 1),
    )


def family(*gens, mode="family", labels=None):
    labels = labels or [f"g{i}" for i in range(len(gens))]
    return GermFamily.of(
        mode, [(lbl, IdealPresentation(2, [g])) for lbl, g in zip(labels, gens)]
    )


def pushforward_family(fam, phi):
    phi_inv = phi.inverse()
    items = [
        (lbl, IdealPresentation(fam.dimension, [compose(g, phi_inv) for g in ideal.generators]))
        for lbl, ideal in zip(fam.labels, fam.ideals)
    ]
    return GermFamily.of(fam.mode, items)


# -- pullback ---------------------------------------------------------------


def test_pullback_by_identity():
    z, w = zw()
    I = IdealPresentation(2, [w - z])
    assert pullback(I, FormalMap.identity(2, K)).generators == I.generators


def test_pullback_under_shear():
    z, w = zw()
    g = w - 6 * z - z * z  # n = 3
    shear = FormalMap([z, w + z])
    out = pullback(IdealPresentation(2, [g]), shear)
    assert out.generators[0] == w - 5 * z - z * z


def test_pullback_roundtrip_preserves_jet_ideals():
    rng = random.Random(41)
    for _ in range(8):
        I = random_ideal(rng, 2, K)
        phi = random_invertible_map(rng, 2, K)
        back = pullback(pullback(I, phi), phi.inverse())
        for d in (2, 4):
            assert back.jet_space(d) == I.jet_space(d)


def test_pullback_dimension_mismatch():
    z, w = zw()
    I = IdealPresentation(2, [w - z])
    with pytest.raises(DimensionError):
        pullback(I, FormalMap.identity(3, K))


# -- family mode ------------------------------------------------------------


def test_identical_families_under_identity():
    z, w = zw()
    fam = family(w - z, w - z * z)
    ident = FormalMap.identity(2, K)
    for k in (1, 3, 6):
        assert is_order_k_equivalence(ident, fam, fam, k).ok


def test_linear_mismatch_fails_at_order_two():
    z, w = zw()
    left = family(w - z)
    right = family(w + z)
    ident = FormalMap.identity(2, K)
    assert is_order_k_equivalence(ident, left, right, 1).ok
    report = is_order_k_equivalence(ident, left, right, 2)
    assert not report.ok
    verdict = report.per_index[0]
    assert verdict.failure == ("pullback", 0)


def test_exact_conjugated_pair():
    z, w = zw()
    g = w - 4 * z - z * z  # n = 2
    shear = FormalMap([z, w + z])
    left = family(g)
    right = pushforward_family(left, shear)
    for k in range(1, K + 1):
        assert is_order_k_equivalence(shear, left, right, k).ok


def test_family_mode_requires_matching_labels():
    z, w = zw()
    left = family(w - z, labels=["a"])
    right = family(w - z, labels=["b"])
    ident = FormalMap.identity(2, K)
    with pytest.raises(ValueError):
        is_order_k_equivalence(ident, left, right, 2)


def test_mode_mismatch_rejected():
    z, w = zw()
    left = family(w - z)
    right = family(w - z, mode="set")
    with pytest.raises(ValueError):
        is_order_k_equivalence(FormalMap.identity(2, K), left, right, 2)


def test_insufficient_truncation_rejected():
    z, w = zw(3)
    left = family(w - z)
    with pytest.raises(PrecisionError):
        is_order_k_equivalence(FormalMap.identity(2, 3), left, left, 5)


def test_order_must_be_positive():
    z, w = zw()
    left = family(w - z)
    with pytest.raises(ValueError):
        is_order_k_equivalence(FormalMap.identity(2, K), left, left, 0)


# -- set mode ---------------------------------------------------------------


def test_set_mode_finds_the_crossed_matching():
    # pulling back through the shear lowers a slope by one, so the
    # matching has to cross: a <-> d and b <-> c
    z, w = zw(5)
    shear = FormalMap([z, w + z])
    left = GermFamily.of(
        "set",
        [
            ("a", IdealPresentation(2, [w - z])),
            ("b", IdealPresentation(2, [w - 3 * z])),
        ],
    )
    right = GermFamily.of(
        "set",
        [
            ("c", IdealPresentation(2, [w - 4 * z])),
            ("d", IdealPresentation(2, [w - 2 * z])),
        ],
    )
    report = is_order_k_equivalence(shear, left, right, 4)
    assert report.ok
    matching = {m.label: m.partner for m in report.left_matching}
    assert matching == {"a": "d", "b": "c"}
    back = {m.label: m.partner for m in report.right_matching}
    assert back == {"c": "b", "d": "a"}


def test_set_mode_curve_families_shift_by_one_level():
    # the level-2 shift carries each curve onto its equal-index partner
    seq = build_shift_sequence(6)
    pairs = [(m, n) for m in (1, 2) for n in range(-4, 5)]
    left = GermFamily.of(
        "set",
        [(f"p{m},{n}", curve_ideal(curve("phi", m, n, K, seq))) for m, n in pairs],
    )
    right = GermFamily.of(
        "set",
        [(f"q{m},{n}", curve_ideal(curve("psi", m, n, K, seq))) for m, n in pairs],
    )
    phi = shift_map(seq.c(2), K)
    report = is_order_k_equivalence(phi, left, right, 5)
    assert report.ok
    matching = {m.label: m.partner for m in report.left_matching}
    for m, n in pairs:
        assert matching[f"p{m},{n}"] == f"q{m},{n}"


def test_set_mode_failure_lists_unmatched_members():
    z, w = zw(5)
    left = GermFamily.of("set", [("a", IdealPresentation(2, [w - z]))])
    right = GermFamily.of("set", [("b", IdealPresentation(2, [w + z]))])
    report = is_order_k_equivalence(FormalMap.identity(2, 5), left, right, 3)
    assert not report.ok
    assert report.left_matching[0].partner is None


def test_pools_must_extend_families_as_prefixes():
    z, w = zw(5)
    left = GermFamily.of("set", [("a", IdealPresentation(2, [w - z]))])
    right = GermFamily.of("set", [("b", IdealPresentation(2, [w - z]))])
    bad_pool = GermFamily.of(
        "set",
        [
            ("x", IdealPresentation(2, [w])),
            ("a", IdealPresentation(2, [w - z])),
        ],
    )
    with pytest.raises(ValueError):
        is_order_k_equivalence(
            FormalMap.identity(2, 5), left, right, 2, left_pool=bad_pool
        )


def test_pool_members_beyond_the_family_can_absorb_matches():
    # a (slope 1) needs a slope-2 partner and b (slope 3) a slope-2
    # partner on the other side; neither family carries one, both pools do
    z, w = zw(5)
    shear = FormalMap([z, w + z])
    left = GermFamily.of("set", [("a", IdealPresentation(2, [w - z]))])
    right = GermFamily.of("set", [("b", IdealPresentation(2, [w - 3 * z]))])
    right_pool = GermFamily.of(
        "set",
        [
            ("b", IdealPresentation(2, [w - 3 * z])),
            ("extra", IdealPresentation(2, [w - 2 * z])),
        ],
    )
    left_pool = GermFamily.of(
        "set",
        [
            ("a", IdealPresentation(2, [w - z])),
            ("more", IdealPresentation(2, [w - 2 * z])),
        ],
    )
    report = is_order_k_equivalence(
        shear, left, right, 4, left_pool=left_pool, right_pool=right_pool
    )
    assert report.ok
    assert report.left_matching[0].partner == "extra"
    assert report.right_matching[0].partner == "more"


# -- properties -------------------------------------------------------------


def test_symmetry_under_inversion():
    rng = random.Random(43)
    for _ in range(10):
        left = GermFamily.of("family", [("a", random_ideal(rng, 2, K, 2))])
        right = GermFamily.of("family", [("a", random_ideal(rng, 2, K, 2))])
        phi = random_invertible_map(rng, 2, K)
        k = rng.randint(1, 4)
        forward = is_order_k_equivalence(phi, left, right, k).ok
        backward = is_order_k_equivalence(phi.inverse(), right, left, k).ok
        assert forward == backward


def test_composition_of_equivalences():
    rng = random.Random(44)
    for _ in range(8):
        left = GermFamily.of("family", [("a", random_ideal(rng, 2, K, 2))])
        phi = random_invertible_map(rng, 2, K)
        psi = random_invertible_map(rng, 2, K)
        middle = pushforward_family(left, phi)
        target = pushforward_family(middle, psi)
        k = rng.randint(1, 5)
        assert is_order_k_equivalence(phi, left, middle, k).ok
        assert is_order_k_equivalence(psi, middle, target, k).ok
        assert is_order_k_equivalence(psi.compose(phi), left, target, k).ok


def test_verdict_depends_only_on_the_map_jet():
    rng = random.Random(45)
    for _ in range(12):
        left = GermFamily.of("family", [("a", random_ideal(rng, 2, K, 2))])
        right = GermFamily.of("family", [("a", random_ideal(rng, 2, K, 2))])
        phi = random_invertible_map(rng, 2, K)
        k = rng.randint(1, 4)
        # bump one component above degree k; the order-(k+1) verdict may not move
        bump = FormalSeries.monomial(2, K, (k + 1, 0), Fraction(rng.randint(1, 3)))
        comps = list(phi.components)
        comps[rng.randrange(2)] += bump
        disturbed = FormalMap(comps)
        base = is_order_k_equivalence(phi, left, right, k + 1).ok
        moved = is_order_k_equivalence(disturbed, left, right, k + 1).ok
        assert base == moved


# -- jet cosets -------------------------------------------------------------


def test_jet_coset_identity():
    z, w = zw()
    fam = family(w - z)
    ident = FormalMap.identity(2, K)
    assert jet_coset_membership(ident.truncate(2), fam, fam).ok


def _shifted_curves():
    """(lam, left, right): the shear's 2-jet and two families of ten curve
    ideals, one generator each."""
    seq = build_shift_sequence(4)
    pairs = [(m, n) for m in (1, 2) for n in range(-2, 3)]
    left, right = (
        GermFamily.of(
            "family",
            [(f"({m},{n})", curve_ideal(curve(tag, m, n, K, seq))) for m, n in pairs],
        )
        for tag in ("phi", "psi")
    )
    return shift_map(seq.c(2), K).truncate(2), left, right


def test_jet_coset_for_shifted_curves():
    assert jet_coset_membership(*_shifted_curves()).ok


def test_jet_coset_set_mode_reports_candidates_tried():
    z, w = zw()
    left = family(w - z, w + z, mode="set", labels=["a", "b"])
    right = family(w + z, w - z, mode="set", labels=["c", "d"])
    report = jet_coset_membership(FormalMap.identity(2, K).truncate(1), left, right)
    assert report.ok
    assert [(m.partner, m.tried) for m in report.left_matching] == [("d", 2), ("c", 1)]
    assert [(m.partner, m.tried) for m in report.right_matching] == [("b", 2), ("a", 1)]


def test_jet_coset_detects_scaling():
    z, w = zw()
    fam = family(w - z)
    lam = FormalMap([z, 2 * w]).truncate(1)
    assert not jet_coset_membership(lam, fam, fam).ok


def test_jet_coset_chain_implies_membership_scan():
    rng = random.Random(46)
    for _ in range(6):
        left = GermFamily.of("family", [("a", random_ideal(rng, 2, K, 2))])
        phi = random_invertible_map(rng, 2, K)
        right = pushforward_family(left, phi)
        for k in range(1, 5):
            assert jet_coset_membership(phi.truncate(k), left, right).ok
        for g in right.ideals[0].generators:
            assert membership_up_to(compose(g, phi), left.ideals[0], 5)


JC_K = 4


def _jet_coset_ideal(rng, n, field):
    """One or two generators over Q, or over Q(i) with an imaginary part."""
    ideal = random_ideal(rng, n, JC_K, max_generators=2)
    if field == "Q":
        return ideal
    return IdealPresentation(n, [
        g + I * random_series(rng, n, JC_K, density=0.3, min_order=1) for g in ideal.generators
    ])


def _jet_coset_case(n, field, mode, k):
    """(lam, left, right): three left members, the right ones pushed forward
    through phi (so lam = phi.truncate(k) matches them), one of them then
    disturbed at a degree <= k in about half of the cases."""
    rng = random.Random(f"jet-coset {n} {field} {mode} {k}")
    phi = random_invertible_map(rng, n, JC_K)
    if field == "Q(i)":
        phi = FormalMap([
            c + I * random_series(rng, n, JC_K, density=0.2, scale=3, min_order=2)
            for c in phi.components
        ])
    phi_inv = phi.inverse()
    members = [_jet_coset_ideal(rng, n, field) for _ in range(3)]
    pushed = [
        [compose(g, phi_inv) for g in ideal.generators] for ideal in members
    ]
    if rng.random() < 0.5:
        gens = pushed[rng.randrange(3)]
        d = rng.randint(1, k)
        exponent = rng.choice([e for e in exponent_tuples(n, d) if sum(e) == d])
        gens[0] = gens[0] + FormalSeries.monomial(n, JC_K, exponent, rng.randint(1, 3))
    left = GermFamily.of(mode, zip(["a0", "a1", "a2"], members))
    right_labels = ["a0", "a1", "a2"] if mode == "family" else ["b0", "b1", "b2"]
    order = [0, 1, 2] if mode == "family" else rng.sample(range(3), 3)
    right = GermFamily.of(
        mode, [(right_labels[i], IdealPresentation(n, pushed[i])) for i in order]
    )
    return phi.truncate(k), left, right


def test_jet_coset_matches_the_reduced_basis_oracle():
    """The jet-coset check against the comparison of reduced standard
    bases: family and set mode, n = 1..3, Q and Q(i), k = 1..JC_K - 1,
    and a singular lam.  Where the order-(k+1) check is defined, the
    report is that check's, witnesses included, with order k."""
    reports, pairs = [], []
    for n, field, mode, k in itertools.product(
        (1, 2, 3), ("Q", "Q(i)"), ("family", "set"), range(1, JC_K)
    ):
        lam, left, right = _jet_coset_case(n, field, mode, k)
        report = jet_coset_membership(lam, left, right)
        expected = jet_coset_oracle(lam, left, right)
        assert report.order == lam.truncation == k
        assert report.ok == expected.ok, (n, field, mode, k)
        assert [(v.label, v.ok) for v in report.per_index] == [
            (v.label, v.ok) for v in expected.per_index
        ]
        assert report.left_matching == expected.left_matching
        assert report.right_matching == expected.right_matching
        full = is_order_k_equivalence(lam, left, right, k + 1)
        assert [v.failure for v in report.per_index] == [v.failure for v in full.per_index]
        assert report == replace(full, order=k)
        reports.append(report.ok)
        pairs += [v.ok for v in report.per_index]
        pairs += [m.partner is not None for m in report.left_matching + report.right_matching]
    assert reports.count(True) >= 8 and reports.count(False) >= 8
    assert pairs.count(True) >= 100 and pairs.count(False) >= 10

    # a singular lam, which is_order_k_equivalence refuses
    z, w = zw()
    lam = FormalMap([z, z]).truncate(2)
    left = GermFamily.of(
        "family", [("zero", IdealPresentation(2, [])), ("line", IdealPresentation(2, [w - z]))]
    )
    right = family(w - z, w - z, labels=["zero", "line"])
    report, expected = jet_coset_membership(lam, left, right), jet_coset_oracle(lam, left, right)
    assert report.order == 2 and not report.ok and not expected.ok
    assert [(v.label, v.ok) for v in report.per_index] == [("zero", True), ("line", False)]
    assert [(v.label, v.ok) for v in expected.per_index] == [("zero", True), ("line", False)]
    assert report.per_index[1].failure == ("inverse", 0)
    with pytest.raises(InversionError):
        is_order_k_equivalence(lam, left, right, 3)


def test_jet_coset_of_principal_ideals_builds_no_jet_space(monkeypatch):
    lam, left, right = _shifted_curves()
    assert all(pullback(ideal, lam).generators for ideal in right.ideals)
    built = []
    original = JetSpace.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(JetSpace, "__init__", counting)
    assert jet_coset_membership(lam, left, right).ok
    z, w = zw()
    assert not jet_coset_membership(FormalMap([z, 2 * w]).truncate(1), family(w - z), family(w - z)).ok
    assert built == []


# -- horizon ----------------------------------------------------------------


def test_horizon_of_identical_families():
    z, w = zw()
    fam = family(w - z)
    report = equivalence_horizon(fam, fam, FormalMap.identity(2, K), 4)
    assert report
    assert report.first_failure is None
    assert report.per_order == ((1, True), (2, True), (3, True), (4, True))


def test_horizon_zero_against_unit():
    zero = GermFamily.of("family", [("a", IdealPresentation(2, []))])
    unit = GermFamily.of(
        "family", [("a", IdealPresentation(2, [FormalSeries.constant(2, K, 1)]))]
    )
    report = equivalence_horizon(zero, unit, FormalMap.identity(2, K), 3)
    assert report.first_failure == 1


def test_horizon_localizes_the_breaking_order():
    z, w = zw()
    left = family(w - z)
    right = family(w - z - z * z * z)  # differs from degree 3 on
    report = equivalence_horizon(left, right, FormalMap.identity(2, K), 5)
    assert report.first_failure == 4
    assert dict(report.per_order)[3] is True


# -- guards -----------------------------------------------------------------

SINGULAR = "formal map has singular linear part"


def singular_map(trunc=K):
    z, w = zw(trunc)
    return FormalMap([z, z + w * w])


def test_singular_map_is_refused_by_equivalence_checks():
    z, w = zw()
    fam = family(w - z)
    with pytest.raises(InversionError, match=SINGULAR):
        is_order_k_equivalence(singular_map(), fam, fam, 2)
    sets = fam.with_mode("set")
    with pytest.raises(InversionError, match=SINGULAR):
        is_order_k_equivalence(singular_map(), sets, sets, 2)


def test_map_truncated_at_0_is_refused_by_equivalence_checks():
    z, w = zw()
    fam = family(w - z)
    phi = FormalMap(list(zw(0)))
    for sets in (fam, fam.with_mode("set")):
        with pytest.raises(PrecisionError, match="^the linear part of a map truncated at 0"):
            is_order_k_equivalence(phi, sets, sets, 1)


def test_singular_map_refusal_comes_after_shape_and_mode_checks():
    z, w = zw()
    fam = family(w - z)
    with pytest.raises(DimensionError):
        flat = FormalMap([FormalSeries.variable(3, K, 0)] * 3)
        is_order_k_equivalence(flat, fam, fam, 2)
    with pytest.raises(PrecisionError):
        is_order_k_equivalence(singular_map(), fam, fam, K + 1)
    with pytest.raises(PrecisionError, match="needs the map known to degree 3"):
        is_order_k_equivalence(singular_map(2), fam, fam, 4)
    with pytest.raises(ValueError, match="disagree about the comparison mode"):
        is_order_k_equivalence(singular_map(), fam, fam.with_mode("set"), 2)
    with pytest.raises(ValueError, match="at least 1"):
        is_order_k_equivalence(singular_map(), fam, fam, 0)
    # the pool prefix check runs after the refusal
    sets = fam.with_mode("set")
    bad_pool = family(w + z, labels=["x"], mode="set")
    with pytest.raises(InversionError, match=SINGULAR):
        is_order_k_equivalence(singular_map(), sets, sets, 2, left_pool=bad_pool)


def test_pullback_witness_indexes_right_generators_past_a_vanishing_one():
    # z^4 composed with a map known to degree 2 is zero, so the pulled
    # ideal drops it; the failing generator w still sits at position 1
    z, w = zw()
    left = GermFamily.of("family", [("a", IdealPresentation(2, [z]))])
    right = GermFamily.of("family", [("a", IdealPresentation(2, [z * z * z * z, w]))])
    phi = FormalMap.identity(2, 2)
    report = is_order_k_equivalence(phi, left, right, 3)
    assert not report.ok
    assert report.per_index[0].failure == ("pullback", 1)


# -- verdicts against the inverse oracle -------------------------------------

IMAG = GaussianRational(0, 1)


def _over(rng, field, n, trunc, **kw):
    f = random_series(rng, n, trunc, **kw)
    if field == "Q(i)":
        f = f + IMAG * random_series(rng, n, trunc, **kw)
    return f


def _oracle_map(rng, field, n, trunc):
    phi = random_invertible_map(rng, n, trunc, higher_density=0.2)
    if field == "Q(i)":
        phi = FormalMap(
            [c + IMAG * random_series(rng, n, trunc, density=0.2, scale=2, min_order=2)
             for c in phi.components]
        )
    return phi


def _oracle_ideal(rng, field, n, trunc, count):
    gens = [_over(rng, field, n, trunc, min_order=1, density=0.4) for _ in range(count)]
    while all(g.is_zero for g in gens):
        gens = [random_nonzero_series(rng, n, trunc, min_order=1)]
    return IdealPresentation(n, gens)


def _partner_ideal(rng, field, ideal, phi_inv, trunc):
    """The ideal pushed forward through phi, perturbed from a random degree
    on (trunc + 1: not at all), so verdicts flip at a random order."""
    j = rng.randint(1, trunc + 1)
    gens = [compose(g, phi_inv) for g in ideal.generators]
    if j <= trunc:
        gens = [g + _over(rng, field, ideal.dimension, trunc, min_order=j, density=0.3)
                for g in gens]
    return IdealPresentation(ideal.dimension, gens)


def _oracle_search(table, members, pool_labels, flip):
    """Partner and candidate count per member, scanning the pool in order."""
    out = []
    for i in range(members):
        for tried, label in enumerate(pool_labels, 1):
            if table[(tried - 1, i) if flip else (i, tried - 1)][0]:
                out.append((label, tried))
                break
        else:
            out.append((None, len(pool_labels)))
    return out


def test_pair_verdicts_match_the_inverse_oracle():
    rng = random.Random(61)
    combos = list(itertools.product((1, 2, 3), ("Q", "Q(i)"), (1, 2)))
    verdicts = []
    for n, field, count in combos * 2:
        trunc = 4 if n == 1 else 3
        phi = _oracle_map(rng, field, n, trunc)
        phi_inv = phi.inverse()
        lefts = [_oracle_ideal(rng, field, n, trunc, count) for _ in range(3)]
        rights = [_partner_ideal(rng, field, I, phi_inv, trunc) for I in lefts]
        rng.shuffle(rights)
        for k in range(1, trunc + 1):
            table = {
                (i, j): inverse_pair_oracle(phi, phi_inv, a, b, k)
                for (i, a), (j, b) in itertools.product(enumerate(lefts), enumerate(rights))
            }
            # family mode: each (ok, failure) as the oracle gives it
            left = GermFamily.of("family", zip("abc", lefts))
            right = GermFamily.of("family", zip("abc", rights))
            report = is_order_k_equivalence(phi, left, right, k)
            expected = [table[(i, i)] for i in range(3)]
            assert [(v.ok, v.failure) for v in report.per_index] == expected
            assert report.ok == all(ok for ok, _ in expected)
            verdicts.extend(ok for ok, _ in expected)
            # set mode: every partner and candidate count as the oracle gives it
            left = GermFamily.of("set", zip("abc", lefts))
            right = GermFamily.of("set", zip("xyz", rights))
            report = is_order_k_equivalence(phi, left, right, k)
            forward = _oracle_search(table, 3, "xyz", False)
            backward = _oracle_search(table, 3, "abc", True)
            assert [(m.partner, m.tried) for m in report.left_matching] == forward
            assert [(m.partner, m.tried) for m in report.right_matching] == backward
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 60


def _first_false(verdicts):
    return verdicts.index(False) + 1 if False in verdicts else None


def test_horizons_match_each_order_and_never_rise_again():
    # I + m^(k+1) lies in I + m^k, so verdicts fall with k in both modes
    rng = random.Random(71)
    scans, member_scans = [], []
    for n, field, mode in itertools.product((1, 2, 3), ("Q", "Q(i)"), ("family", "set")):
        trunc = 4 if n == 1 else 3
        for _ in range(3):
            phi = _oracle_map(rng, field, n, trunc)
            phi_inv = phi.inverse()
            lefts = [_oracle_ideal(rng, field, n, trunc, rng.randint(1, 2)) for _ in range(2)]
            rights = [_partner_ideal(rng, field, I, phi_inv, trunc) for I in lefts]
            left = GermFamily.of(mode, zip("ab", lefts))
            right = GermFamily.of(mode, zip("ab", rights))
            scan = equivalence_horizon(left, right, phi, trunc)
            verdicts = [is_order_k_equivalence(phi, left, right, k).ok for k in range(1, trunc + 1)]
            assert scan.per_order == tuple(enumerate(verdicts, 1))
            assert verdicts == sorted(verdicts, reverse=True)
            assert scan.first_failure == _first_false(verdicts)
            scans.append(scan.first_failure)

            # a member of the left ideal, perturbed from a random degree on
            ideal = lefts[0]
            f = FormalSeries.zero(n, trunc)
            for g in ideal.generators:
                f = f + _over(rng, field, n, trunc, density=0.5) * g
            j = rng.randint(0, trunc + 1)
            if j <= trunc:
                f = f + _over(rng, field, n, trunc, min_order=j, density=0.5)
            members = [jet_membership(f, ideal, k) for k in range(1, trunc + 2)]
            up_to = membership_up_to(f, ideal, trunc + 1)
            first = _first_false(members)
            assert members == sorted(members, reverse=True)
            assert up_to.first_failure == first
            assert up_to.per_order == tuple(enumerate(members, 1))[:first]
            member_scans.append(first)
    # runs that hold throughout, and failures at two orders or more
    for firsts in (scans, member_scans):
        assert None in firsts and len(set(firsts) - {None}) >= 2


# -- one table of Phi's powers per working truncation --------------------------


def _pulled_by_compose(ideal, phi, powers):
    gens = tuple(compose(g, phi) for g in ideal.generators)
    return gens, IdealPresentation(ideal.dimension, gens)


def test_pullbacks_share_one_power_table_per_working_truncation(monkeypatch):
    rng = random.Random(67)
    phi = random_invertible_map(rng, 2, 5)
    phi_inv = phi.inverse()
    # generator truncations 3..6 against a map known to degree 5
    lefts, rights = [], []
    for truncs in ((3, 6), (4,), (5, 6), (6, 4)):
        gens = [random_nonzero_series(rng, 2, t, min_order=1, density=0.5) for t in truncs]
        lefts.append(IdealPresentation(2, gens))
        j = rng.randint(2, 4)
        rights.append(IdealPresentation(2, [
            compose(g, phi_inv) + random_series(rng, 2, g.truncation, min_order=j, density=0.3)
            for g in gens
        ]))
    shared: dict = {}
    for ideal in rights:
        gens, _ = equivalence._pulled(ideal, phi, shared)
        assert gens == tuple(compose(g, phi) for g in ideal.generators)
    assert sorted(shared) == [3, 4, 5]

    built = []
    original = equivalence._powers

    def counting(components, truncation):
        built.append(truncation)
        return original(components, truncation)

    monkeypatch.setattr(equivalence, "_powers", counting)
    families = [
        (GermFamily.of("family", zip("abcd", lefts)), GermFamily.of("family", zip("abcd", rights))),
        (GermFamily.of("set", zip("abcd", lefts)), GermFamily.of("set", zip("wxyz", rights[::-1]))),
    ]
    reports = []
    for k in (1, 2, 3):
        for left, right in families:
            del built[:]
            reports.append(is_order_k_equivalence(phi, left, right, k))
            # each working truncation's table is built at most once per match
            assert sorted(built) == sorted(set(built)) and set(built) <= {3, 4, 5}
    assert any(r.ok for r in reports) and not all(r.ok for r in reports)
    assert any(v.failure for r in reports for v in r.per_index)

    monkeypatch.setattr(equivalence, "_pulled", _pulled_by_compose)
    expected = [
        is_order_k_equivalence(phi, left, right, k)
        for k in (1, 2, 3) for left, right in families
    ]
    assert reports == expected

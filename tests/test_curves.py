import random
from fractions import Fraction

import pytest

import germcalc.curves
import germcalc.equivalence
import germcalc.ideals
from germcalc import (
    FormalMap,
    FormalSeries,
    LimitError,
    MultiIndex,
    PrecisionError,
    ShiftSequence,
    build_shift_sequence,
    curve,
    curve_ideal,
    membership_horizon,
    shift_map,
    tangent_coefficient,
    verify_finite_order_equivalence,
    verify_tangent_obstruction,
)
from germcalc.curves import MAX_POOL, _pool_windows
from germcalc.monomial import MAX_DEGREE

from conftest import membership_horizon_oracle, pool_windows_oracle, shift_values_oracle

# the doubling construction is deterministic, so the whole sequence can be
# pinned; each entry is the larger-in-absolute-value endpoint of the gap
# around zero left by the previous progression
FROZEN = (1, 1, -3, 5, -11, 21, -43, 85, -171, 341, -683, 1365, -2731)


def series(terms, trunc=6):
    return FormalSeries(2, trunc, terms)


# -- shift sequence ---------------------------------------------------------


def test_first_thirteen_shift_values():
    assert build_shift_sequence(13).values == FROZEN


def test_sequence_accessors():
    seq = build_shift_sequence(5)
    assert seq.levels == 5
    assert seq.c(1) == 1 and seq.c(3) == -3
    with pytest.raises(ValueError):
        seq.c(0)
    with pytest.raises(ValueError):
        seq.c(6)


def test_sequences_compare_by_levels():
    assert build_shift_sequence(5) == ShiftSequence(5) != ShiftSequence(6)
    assert ShiftSequence(5) != 5
    assert len({ShiftSequence(5), ShiftSequence(5), ShiftSequence(6)}) == 2


def test_sequence_needs_a_level():
    with pytest.raises(ValueError):
        build_shift_sequence(0)
    with pytest.raises(ValueError):
        ShiftSequence(0)


def test_endpoint_recurrence():
    seq = build_shift_sequence(13)
    for m in range(1, seq.levels):
        a, b = seq.max_negative(m), seq.min_positive(m)
        assert b - a == 1 << m
        assert a < 0 < b
        # the next value is the endpoint of larger absolute value, with
        # ties broken toward the positive one
        expected = a if abs(a) > b else b
        assert seq.c(m + 1) == expected


def test_progressions_are_nested():
    seq = build_shift_sequence(13)
    for m in range(1, seq.levels):
        assert (seq.c(m + 1) - seq.c(m)) % (1 << m) == 0
    for t in range(-64, 65):
        for m in range(1, seq.levels):
            if seq.contains(t, m + 1):
                assert seq.contains(t, m)


def test_small_elements_grow_geometrically():
    seq = build_shift_sequence(13)
    for m in range(3, seq.levels + 1):
        closest = min(seq.min_positive(m), -seq.max_negative(m))
        assert closest >= 1 << (m - 2)


def test_contains_matches_direct_arithmetic():
    seq = build_shift_sequence(6)
    for m in range(1, 7):
        for t in range(-40, 41):
            assert seq.contains(t, m) == ((t - seq.c(m)) % (1 << m) == 0)


def test_membership_horizon_values():
    seq = build_shift_sequence(13)
    assert membership_horizon(0, seq) == 1
    assert membership_horizon(1, seq) == 3
    assert membership_horizon(-3, seq) == 4
    # every level contains its own value up to that level
    for m in range(1, 14):
        h = membership_horizon(seq.c(m), seq)
        assert h is None or h > m


def test_membership_horizon_can_reach_nobody():
    # with only one computed level, every odd integer has no horizon yet
    seq = build_shift_sequence(1)
    assert membership_horizon(3, seq) is None
    assert membership_horizon(2, seq) == 1


def test_closed_form_matches_the_level_by_level_construction():
    levels = 2000
    values = shift_values_oracle(levels)
    seq = build_shift_sequence(levels)
    assert seq.values == tuple(values)
    rng = random.Random(16)
    for m, c in enumerate(values, 1):
        modulus = 1 << m
        b = c % modulus or modulus
        assert (seq.min_positive(m), seq.max_negative(m)) == (b, b - modulus)
        near = [c + j * modulus + d for j in (-1, 0, 1) for d in (0, 1, modulus >> 1)]
        for t in near + [rng.randint(-(1 << 40), 1 << 40) for _ in range(4)]:
            assert seq.contains(t, m) == ((t - c) % modulus == 0), (t, m)


def test_horizons_match_the_level_by_level_scan():
    levels = 60
    values = shift_values_oracle(levels)
    seq = build_shift_sequence(levels)
    deep = shift_values_oracle(70)
    rng = random.Random(16)
    ts = list(range(-2000, 2001)) + [rng.randint(-300_000, 300_000) for _ in range(3000)]
    for m in (50, 59, 61, 70):
        c = deep[m - 1]
        ts += [c, c - 1, c + 1, c + (1 << 59), c - (1 << 60)]
    for t in ts:
        assert membership_horizon(t, seq) == membership_horizon_oracle(t, values), t


def test_obstruction_report_matches_the_level_by_level_scan():
    for m_max in range(1, 17):
        values = shift_values_oracle(m_max)
        horizons = [membership_horizon_oracle(t, values) for t in range(-1000, 1001)]
        finite = [h for h in horizons if h is not None]
        report = verify_tangent_obstruction(m_max)
        assert report.zero_excluded and report.window == 1000
        assert report.all_horizons_finite == (len(finite) == len(horizons))
        assert report.max_horizon == max(finite, default=None)
        assert report.ok == report.all_horizons_finite


# -- curve specs ------------------------------------------------------------


def test_tangent_coefficients():
    seq = build_shift_sequence(4)
    assert tangent_coefficient("phi", 1, 3, seq) == 6
    assert tangent_coefficient("psi", 1, 3, seq) == 7
    assert tangent_coefficient("phi", 3, -2, seq) == -16
    assert tangent_coefficient("psi", 3, -2, seq) == -19
    with pytest.raises(ValueError):
        tangent_coefficient("chi", 1, 0, seq)


def test_curve_series_forms():
    seq = build_shift_sequence(4)
    assert curve("phi", 1, 3, 6, seq) == series(
        {(0, 1): 1, (1, 0): -6, (2, 0): -1}
    )
    assert curve("psi", 1, 3, 6, seq) == series(
        {(0, 1): 1, (1, 0): -7, (2, 0): -1}
    )
    assert curve("phi", 3, 0, 6, seq) == series({(0, 1): 1, (4, 0): -1})


def test_power_term_drops_beyond_truncation():
    seq = build_shift_sequence(6)
    g = curve("phi", 5, 0, 4, seq)
    assert g == series({(0, 1): 1}, trunc=4)
    # ...which is exactly why deep levels look identical at low order
    other = curve("phi", 6, 0, 4, seq)
    assert g == other


def test_curve_validation():
    seq = build_shift_sequence(3)
    with pytest.raises(ValueError, match="curve level must be at least 1"):
        curve("phi", 0, 1, 6, seq)
    with pytest.raises(ValueError, match="curve tag must be 'phi' or 'psi'"):
        curve("chi", 1, 1, 6, seq)
    with pytest.raises(ValueError, match="truncation degree must be a natural number"):
        curve("phi", 1, 1, -1, seq)
    with pytest.raises(LimitError, match=f"truncation {MAX_DEGREE + 1} exceeds"):
        curve("psi", 1, 1, MAX_DEGREE + 1, seq)
    assert curve("psi", 1, 1, MAX_DEGREE, seq).truncation == MAX_DEGREE


@pytest.mark.parametrize("tag", ["phi", "psi"])
def test_curve_table_matches_the_constructor(tag):
    # the packed table equals the constructor's series, below, at and
    # above the power term's degree m + 1
    seq = build_shift_sequence(9)
    for m in range(1, 10):
        for n in range(-3, 4):
            a = tangent_coefficient(tag, m, n, seq)
            for trunc in sorted({0, 1, m, m + 1, m + 2, 12}):
                built = curve(tag, m, n, trunc, seq)
                expected = FormalSeries(2, trunc, {(0, 1): 1, (1, 0): -a, (m + 1, 0): -1})
                assert built == expected, (m, n, trunc)
                assert built.terms == expected.terms
                assert all(type(c) is Fraction for c in built._table.values())
    # index 0 puts no z term on a phi curve
    assert curve("phi", 2, 0, 6, seq).terms == {
        MultiIndex((0, 1)): 1, MultiIndex((3, 0)): -1
    }


def test_curve_ideal_shapes():
    seq = build_shift_sequence(2)
    g = curve("phi", 1, 1, 6, seq)
    plain = curve_ideal(g)
    assert plain.dimension == 2 and plain.generators == (g,)
    real = curve_ideal(g, realified=True)
    assert real.dimension == 4 and len(real.generators) == 2


def test_shift_map_form():
    z = FormalSeries.variable(2, 5, 0)
    w = FormalSeries.variable(2, 5, 1)
    phi = shift_map(-3, 5)
    assert phi.components == (z, w - 3 * z)
    assert shift_map(2, 5, realified=True).dimension == 4


# -- set matching at finite order -------------------------------------------


def test_level_two_shear_matches_to_order_three():
    report = verify_finite_order_equivalence(2, 3, 4, order=3)
    assert report.ok
    assert report.shift_value == 1
    assert report.order == 3
    assert all(m.classification == "matched" for m in report.left + report.right)
    assert not report.unmatched


def test_level_two_shear_breaks_at_order_four():
    report = verify_finite_order_equivalence(2, 3, 4, order=4)
    assert not report.ok
    assert report.unmatched
    # matched/unmatched classifications agree with the partner field
    for m in report.left + report.right:
        assert (m.partner is None) == (m.classification == "unmatched")


def test_level_two_shear_default_claim_fails_at_scale():
    # the claimed order k + 2 = 4 does not survive curves of level > k
    report = verify_finite_order_equivalence(2, 4, 8)
    assert report.order == 4
    assert not report.ok
    assert len(report.unmatched) == 68


@pytest.mark.parametrize("k", range(1, 9))
def test_level_k_shear_misses_exactly_the_deeper_curves_at_order_k_plus_2(k):
    # the default claim, pinned as a known gap: modulo m^(k+2) a curve of
    # level > k is fixed by its tangent alone, and its partner needs the
    # shear constant congruent to c_(k+1) mod 2^(k+1); c_(k+1) - c_k is
    # +-2^k for k >= 2, while the tie rule makes c_1 = c_2
    report = verify_finite_order_equivalence(k, k + 2, 4)
    assert report.order == k + 2 and report.shift_level == k
    unmatched = {(m.tag, m.level, m.index) for m in report.unmatched}
    if k == 1:
        expected = set()
    else:
        expected = {
            (tag, level, n)
            for tag in ("phi", "psi")
            for level in (k + 1, k + 2)
            for n in range(-4, 5)
        }
    assert unmatched == expected
    assert report.ok == (k == 1)


def test_shallow_windows_are_matched_at_every_order():
    # with no curve level above k the shear is exact, not just order-k close
    report = verify_finite_order_equivalence(2, 2, 4, order=6, truncation=7)
    assert report.ok
    for m in report.left:
        assert m.partner == ("psi", m.level, m.index)


def test_level_four_shear_at_orders_five_and_six():
    assert verify_finite_order_equivalence(4, 4, 8, order=5).ok
    # order six still passes here because no level-5 curves are present...
    assert verify_finite_order_equivalence(4, 4, 8, order=6, truncation=7).ok
    # ...and fails as soon as they are
    report = verify_finite_order_equivalence(4, 5, 8, order=6, truncation=7)
    assert not report.ok
    assert len(report.unmatched) == 34


def test_level_one_shear_does_not_stretch_one_order_further():
    assert verify_finite_order_equivalence(1, 4, 8).ok
    assert not verify_finite_order_equivalence(1, 4, 8, order=4).ok


def test_realified_matching_agrees():
    # on holomorphic input the realified verdicts are the complex ones (see
    # the module docstring), unmatched sets and cross-checks included
    unmatched = {}
    for k in range(1, 4):
        for shift_level in (k, k + 1):
            for order in (k + 1, k + 2):
                args = (k, k + 1, 2)
                kwargs = {"order": order, "shift_level": shift_level}
                plain = verify_finite_order_equivalence(*args, **kwargs)
                real = verify_finite_order_equivalence(*args, **kwargs, realified=True)
                assert real == plain, (k, shift_level, order)
                if not plain.ok:
                    unmatched[k, shift_level, order] = len(plain.unmatched)
    # the level-k shear at order k + 2 for k >= 2, the known gap
    assert unmatched == {(2, 2, 4): 10, (3, 3, 5): 10}


def test_realified_matching_builds_no_jet_space(monkeypatch):
    # Re g and Im g start in an x- and a y-variable, so their initial
    # exponents are coprime and the pair is a standard basis as it stands
    def refuse(*args, **kwargs):
        raise AssertionError("a jet space was built")

    args = [(1, 2, 1), (2, 2, 1), (2, 3, 1), (3, 4, 2)]
    plain = [verify_finite_order_equivalence(*a) for a in args]
    monkeypatch.setattr(germcalc.ideals, "JetSpace", refuse)
    real = [verify_finite_order_equivalence(*a, realified=True) for a in args]
    assert real == plain
    assert [r.ok for r in real] == [True, True, False, False]


def test_report_carries_the_window_bookkeeping():
    report = verify_finite_order_equivalence(2, 3, 4, order=3)
    assert report.m_max == 3 and report.n_max == 4
    assert [m for m, _ in report.pool_windows] == [1, 2, 3]
    assert all(bound >= 4 for _, bound in report.pool_windows)
    assert report.truncation == 5
    assert bool(report) == report.ok


@pytest.mark.parametrize(
    "args, kwargs, expected",
    [
        ((2, 4, 8), {}, (False, 18, 68, ((1, 8), (2, 8), (3, 17), (4, 9)))),
        (
            (4, 5, 8),
            {"order": 6, "truncation": 7},
            (False, 18, 34, ((1, 10), (2, 9), (3, 9), (4, 8), (5, 9))),
        ),
        ((2, 3, 1), {"realified": True}, (False, 18, 6, ((1, 1), (2, 1), (3, 2)))),
    ],
)
def test_driver_verdict_cross_checks_and_windows_are_pinned(args, kwargs, expected):
    # failing runs exercise the cross-check, which samples pool positions
    # {0, len // 2, len - 1}; these figures fix the pool order as well
    report = verify_finite_order_equivalence(*args, **kwargs)
    got = (report.ok, report.cross_checked, len(report.unmatched), report.pool_windows)
    assert got == expected


def test_cross_check_sample_count_is_pinned(monkeypatch):
    # ten unmatched curves per side re-checked instead of three
    monkeypatch.setattr(germcalc.curves, "_CROSS_CHECK_SAMPLES", 10)
    report = verify_finite_order_equivalence(3, 4, 3)
    got = (report.ok, report.cross_checked, len(report.unmatched), report.pool_windows)
    assert got == (False, 42, 14, ((1, 5), (2, 4), (3, 3), (4, 4)))


def test_cross_check_reuses_the_matchers_refusal_and_one_image_table(monkeypatch):
    # Phi's linear part is inverted once, by the matcher, and its table of
    # monomial images is built once by the matcher and once for the whole
    # cross-check
    counts = {"inverse": 0, "images": 0}
    linear_inverse, images = FormalMap.linear_inverse, germcalc.equivalence._Images

    def counting_inverse(self):
        counts["inverse"] += 1
        return linear_inverse(self)

    def counting_images(*args):
        counts["images"] += 1
        return images(*args)

    monkeypatch.setattr(FormalMap, "linear_inverse", counting_inverse)
    monkeypatch.setattr(germcalc.equivalence, "_Images", counting_images)
    monkeypatch.setattr(germcalc.curves, "_CROSS_CHECK_SAMPLES", 10)
    report = verify_finite_order_equivalence(3, 4, 3)
    assert report.cross_checked == 42
    assert counts == {"inverse": 1, "images": 2}


def test_one_verify_is_one_call_through_the_public_set_check(monkeypatch):
    # bench/tracing.py reads the equivalence.* metrics of curve runs from
    # this one name; a verify that bypassed it would zero them silently
    calls = []
    check = germcalc.curves.is_order_k_equivalence

    def counting(*args, **kwargs):
        calls.append(kwargs["nominal"])
        return check(*args, **kwargs)

    monkeypatch.setattr(germcalc.curves, "is_order_k_equivalence", counting)
    verify_finite_order_equivalence(3, 4, 3)
    assert calls == [4 * 7]


def _pool_size(k, m_max, n_max, order, shift_level):
    seq = build_shift_sequence(max(m_max, shift_level))
    windows = _pool_windows(seq.c(shift_level), order, m_max, n_max, seq)
    return sum(2 * bound + 1 for tag in windows.values() for bound in tag.values())


def test_pool_windows_match_the_quadratic_loop_and_its_lower_bounds():
    # a seeded grid: m_max <= 40, order 1..45, n_max 0..40, shift level 1..80
    rng = random.Random(16)
    values = shift_values_oracle(80)
    seq = build_shift_sequence(80)
    for _ in range(500):
        m_max, order = rng.randint(1, 40), rng.randint(1, 45)
        n_max, level = rng.choice((0, 1, rng.randint(0, 40))), rng.randint(1, 80)
        shift = values[level - 1]
        windows = _pool_windows(shift, order, m_max, n_max, seq)
        assert windows == pool_windows_oracle(shift, order, m_max, n_max, values)
        # the bounds the driver refuses on before this exact pass
        positions = sum(2 * b + 1 for tag in windows.values() for b in tag.values())
        lows = [m_max - max(1, order - 1) - 1, level - 3]
        lows += [n_max.bit_length() + 1] if n_max else []
        for low in lows:
            assert low < 0 or positions > 1 << low, (m_max, order, n_max, level)


def test_pool_estimate_admits_every_full_scale_run():
    # m_max 10 and n_max 32 at k = 1..8, under both shears, at every order
    # 2..k + 3, the full scale of criterion 5 and the CLI's defaults
    sizes = {(k, order, level): _pool_size(k, 10, 32, order, level)
             for k in range(1, 9) for order in range(2, k + 4) for level in (k, k + 1)}
    assert sizes[1, 2, 1] == 131_668
    assert max(sizes.values()) == 132_332 <= MAX_POOL


def test_oversized_pool_is_refused_before_any_curve(monkeypatch):
    # about 7.1e13 curves: refused from the window arithmetic alone
    assert _pool_size(1, 40, 32, 3, 1) == 70_735_248_053_782

    def no_curve(*args):
        raise AssertionError("a curve was built")

    monkeypatch.setattr("germcalc.curves.curve", no_curve)
    with pytest.raises(LimitError, match="need 70,735,248,053,782 curves, over the limit"):
        verify_finite_order_equivalence(1, 40, 32)


@pytest.mark.parametrize(
    "n_max, need",
    [
        (1 << 61, "9,223,372,036,854,775,810"),  # 2^63 + 2, the last count printed
        (1 << 62, "at least 2^64"),
        (10**5000, "at least 2^16,611"),  # a count past the int-to-str limit
    ],
    ids=["2^61", "2^62", "10^5000"],
)
def test_pool_counts_past_64_bits_are_reported_by_size(monkeypatch, n_max, need):
    monkeypatch.setattr("germcalc.curves.curve", None)
    with pytest.raises(LimitError) as err:
        verify_finite_order_equivalence(1, 1, n_max)
    assert str(err.value) == f"the curve pools need {need} curves, over the limit of 1,048,576"


def test_verify_argument_validation():
    with pytest.raises(ValueError):
        verify_finite_order_equivalence(0, 2, 4)
    with pytest.raises(ValueError):
        verify_finite_order_equivalence(3, 2, 4)  # m_max below k
    with pytest.raises(PrecisionError):
        verify_finite_order_equivalence(2, 3, 4, truncation=3)


def test_bad_inputs_are_refused_before_any_curve(monkeypatch):
    def no_work(*args):
        raise AssertionError("the construction was started")

    monkeypatch.setattr(germcalc.curves, "build_shift_sequence", no_work)
    monkeypatch.setattr(germcalc.curves, "curve", no_work)
    for k in range(1, 4):
        for m_max in range(k, k + 3):
            for n_max in (-1, -2, -5):
                with pytest.raises(ValueError, match="^n_max must be at least 0$"):
                    verify_finite_order_equivalence(k, m_max, n_max)
    for kwargs, error, message in [
        ({"order": 0}, ValueError, "^equivalence order must be at least 1$"),
        ({"order": -3}, ValueError, "^equivalence order must be at least 1$"),
        ({"shift_level": 0}, ValueError, "^shift_level must be at least 1$"),
        ({"shift_level": -1}, ValueError, "^shift_level must be at least 1$"),
        ({"truncation": MAX_DEGREE + 1}, LimitError, f"^truncation {MAX_DEGREE + 1} exceeds"),
    ]:
        with pytest.raises(error, match=message):
            verify_finite_order_equivalence(2, 4, 8, **kwargs)
    monkeypatch.undo()
    report = verify_finite_order_equivalence(2, 3, 0)
    assert [m.index for m in report.left + report.right] == [0] * 6


# -- the obstruction --------------------------------------------------------


def test_obstruction_at_full_depth():
    report = verify_tangent_obstruction(13)
    assert report.ok
    assert report.window == 1000
    assert report.zero_excluded
    assert report.all_horizons_finite
    assert report.max_horizon == 12


def test_obstruction_depth_is_sharp():
    # eleven levels cannot clear the window: some integers need the 12th
    report = verify_tangent_obstruction(11)
    assert not report.ok
    assert report.zero_excluded
    assert not report.all_horizons_finite
    assert verify_tangent_obstruction(12).ok


def test_obstruction_shallow_depth_fails_honestly():
    report = verify_tangent_obstruction(3)
    assert not report.ok
    assert not report.all_horizons_finite

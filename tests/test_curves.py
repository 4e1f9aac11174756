from fractions import Fraction

import pytest

import germcalc.curves
import germcalc.equivalence
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
    curve_specs,
    membership_horizon,
    shift_map,
    tangent_coefficient,
    verify_finite_order_equivalence,
    verify_tangent_obstruction,
)
from germcalc.curves import MAX_POOL, _pool_windows
from germcalc.monomial import MAX_DEGREE

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


def test_sequence_needs_a_level():
    with pytest.raises(ValueError):
        build_shift_sequence(0)
    with pytest.raises(ValueError):
        ShiftSequence([])


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
    assert curve("phi", 1, 3, 6, seq).series == series(
        {(0, 1): 1, (1, 0): -6, (2, 0): -1}
    )
    assert curve("psi", 1, 3, 6, seq).series == series(
        {(0, 1): 1, (1, 0): -7, (2, 0): -1}
    )
    assert curve("phi", 3, 0, 6, seq).series == series({(0, 1): 1, (4, 0): -1})


def test_power_term_drops_beyond_truncation():
    seq = build_shift_sequence(6)
    spec = curve("phi", 5, 0, 4, seq)
    assert spec.series == series({(0, 1): 1}, trunc=4)
    # ...which is exactly why deep levels look identical at low order
    other = curve("phi", 6, 0, 4, seq)
    assert spec.series == other.series


def test_curve_validation_and_label():
    seq = build_shift_sequence(3)
    with pytest.raises(ValueError, match="curve level must be at least 1"):
        curve("phi", 0, 1, 6, seq)
    with pytest.raises(ValueError, match="curve tag must be 'phi' or 'psi'"):
        curve("chi", 1, 1, 6, seq)
    with pytest.raises(ValueError, match="truncation degree must be a natural number"):
        curve("phi", 1, 1, -1, seq)
    with pytest.raises(LimitError, match=f"truncation {MAX_DEGREE + 1} exceeds"):
        curve("psi", 1, 1, MAX_DEGREE + 1, seq)
    assert curve("psi", 1, 1, MAX_DEGREE, seq).series.truncation == MAX_DEGREE
    spec = curve("psi", 2, -1, 6, seq)
    assert spec.label == "psi(2,-1)"
    assert (spec.tag, spec.level, spec.index) == ("psi", 2, -1)


@pytest.mark.parametrize("tag", ["phi", "psi"])
def test_curve_table_matches_the_constructor(tag):
    # the packed table equals the constructor's series, below, at and
    # above the power term's degree m + 1
    seq = build_shift_sequence(9)
    for m in range(1, 10):
        for n in range(-3, 4):
            a = tangent_coefficient(tag, m, n, seq)
            for trunc in sorted({0, 1, m, m + 1, m + 2, 12}):
                built = curve(tag, m, n, trunc, seq).series
                expected = FormalSeries(2, trunc, {(0, 1): 1, (1, 0): -a, (m + 1, 0): -1})
                assert built == expected, (m, n, trunc)
                assert built.terms == expected.terms
                assert all(type(c) is Fraction for c in built._table.values())
    # index 0 puts no z term on a phi curve
    assert curve("phi", 2, 0, 6, seq).series.terms == {
        MultiIndex((0, 1)): 1, MultiIndex((3, 0)): -1
    }


def test_curve_specs_window():
    seq = build_shift_sequence(3)
    specs = curve_specs("phi", 3, 2, 6, seq)
    assert len(specs) == 3 * 5
    assert {(s.level, s.index) for s in specs} == {
        (m, n) for m in (1, 2, 3) for n in (-2, -1, 0, 1, 2)
    }


def test_curve_ideal_shapes():
    seq = build_shift_sequence(2)
    spec = curve("phi", 1, 1, 6, seq)
    plain = curve_ideal(spec)
    assert plain.dimension == 2 and len(plain.generators) == 1
    real = curve_ideal(spec, realified=True)
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
    plain = verify_finite_order_equivalence(1, 2, 3)
    real = verify_finite_order_equivalence(1, 2, 3, realified=True)
    assert plain.ok and real.ok
    assert [m.partner for m in plain.left] == [m.partner for m in real.left]


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


def test_cross_check_reuses_the_matchers_refusal_and_one_table_of_powers(monkeypatch):
    # Phi's linear part is inverted once, by the matcher, and its powers
    # are built once by the matcher and once for the whole cross-check
    counts = {"inverse": 0, "powers": 0}
    linear_inverse, powers = FormalMap.linear_inverse, germcalc.equivalence._powers

    def counting_inverse(self):
        counts["inverse"] += 1
        return linear_inverse(self)

    def counting_powers(*args):
        counts["powers"] += 1
        return powers(*args)

    monkeypatch.setattr(FormalMap, "linear_inverse", counting_inverse)
    monkeypatch.setattr(germcalc.equivalence, "_powers", counting_powers)
    monkeypatch.setattr(germcalc.curves, "_CROSS_CHECK_SAMPLES", 10)
    report = verify_finite_order_equivalence(3, 4, 3)
    assert report.cross_checked == 42
    assert counts == {"inverse": 1, "powers": 2}


def _pool_size(k, m_max, n_max, order, shift_level):
    seq = build_shift_sequence(max(m_max, shift_level))
    windows = _pool_windows(seq.c(shift_level), order, m_max, n_max, seq)
    return sum(2 * bound + 1 for tag in windows.values() for bound in tag.values())


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


def test_verify_argument_validation():
    with pytest.raises(ValueError):
        verify_finite_order_equivalence(0, 2, 4)
    with pytest.raises(ValueError):
        verify_finite_order_equivalence(3, 2, 4)  # m_max below k
    with pytest.raises(PrecisionError):
        verify_finite_order_equivalence(2, 3, 4, truncation=3)


def test_negative_n_max_is_refused_before_any_curve(monkeypatch):
    def no_work(*args):
        raise AssertionError("the construction was started")

    monkeypatch.setattr(germcalc.curves, "build_shift_sequence", no_work)
    monkeypatch.setattr(germcalc.curves, "curve", no_work)
    for k in range(1, 4):
        for m_max in range(k, k + 3):
            for n_max in (-1, -2, -5):
                with pytest.raises(ValueError, match="^n_max must be at least 0$"):
                    verify_finite_order_equivalence(k, m_max, n_max)
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

import random
from fractions import Fraction

import pytest

from germcalc import (
    FormalSeries,
    IdealPresentation,
    MultiIndex,
    PrecisionError,
    Staircase,
    formal_division,
    jet_membership,
    reduce_mod_ideal,
)
from conftest import (
    dense_membership_oracle,
    random_ideal,
    random_nonzero_series,
    random_series,
)


def t_vars(trunc):
    return (
        FormalSeries.variable(2, trunc, 0),
        FormalSeries.variable(2, trunc, 1),
    )


def check_division_invariants(f, divisors, truncation, result):
    recombined = result.remainder
    for q, g in zip(result.quotients, divisors):
        recombined = recombined + q * g
    difference = f - recombined
    assert difference.truncate(truncation).is_zero
    for mono, _ in result.remainder.terms.items():
        assert not result.staircase.contains(mono)


# -- worked instances -------------------------------------------------------


def test_divide_variable_by_variable_minus_square():
    t1, t2 = t_vars(6)
    g = t1 - t2 * t2
    res = formal_division(t1, [g], 6)
    assert res.quotients[0] == FormalSeries.constant(2, 6, 1)
    assert res.remainder == t2 * t2
    assert res.staircase == Staircase(2, [(1, 0)])
    check_division_invariants(t1, [g], 6, res)


def test_divide_irreducible_dividend():
    t1, t2 = t_vars(6)
    f = t2 * t2 * t2
    res = formal_division(f, [t1], 6)
    assert res.quotients[0].is_zero
    assert res.remainder == f


def test_divide_generator_by_itself():
    t1, t2 = t_vars(6)
    g = t1 - t2 * t2
    res = formal_division(g, [g], 6)
    assert res.remainder.is_zero
    check_division_invariants(g, [g], 6, res)


def test_divisor_list_order_fixes_tie_breaking():
    t1, t2 = t_vars(5)
    f = t1 * t2
    # both divisors cover (1,1); the first one must win
    res = formal_division(f, [t1, t2], 5)
    assert res.quotients[0] == t2
    assert res.quotients[1].is_zero


def test_zero_divisor_rejected():
    t1, _ = t_vars(4)
    with pytest.raises(ValueError):
        formal_division(t1, [FormalSeries.zero(2, 4)], 4)
    with pytest.raises(ValueError):
        formal_division(t1, [], 4)


def test_divisor_vanishing_through_its_truncation_is_a_precision_error():
    t1, t2 = t_vars(4)
    with pytest.raises(PrecisionError) as err:
        formal_division(t1, [t2, FormalSeries.zero(2, 4)], 4)
    assert str(err.value) == "divisor 1 has no term through degree 4"
    # z at truncation 0 is the zero class: its initial term lies beyond 0
    with pytest.raises(PrecisionError, match="divisor 0 .* degree 0$"):
        formal_division(t1.truncate(0), [t1.truncate(0)], 0)
    with pytest.raises(ValueError) as empty:
        formal_division(t1, [], 4)
    assert not isinstance(empty.value, PrecisionError)


def test_truncation_beyond_inputs_rejected():
    t1, t2 = t_vars(4)
    with pytest.raises(PrecisionError):
        formal_division(t1, [t2], 5)
    with pytest.raises(ValueError, match="natural number"):
        formal_division(t1, [t2], -1)


def test_division_identity_randomized():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 3)
        trunc = 6
        f = random_series(rng, n, trunc)
        count = rng.randint(1, 3)
        divisors = [
            random_nonzero_series(rng, n, trunc, min_order=rng.randint(0, 2))
            for _ in range(count)
        ]
        res = formal_division(f, divisors, trunc)
        check_division_invariants(f, divisors, trunc, res)


def test_division_is_deterministic():
    rng = random.Random(55)
    f = random_series(rng, 2, 6)
    divisors = [random_nonzero_series(rng, 2, 6) for _ in range(2)]
    first = formal_division(f, divisors, 6)
    second = formal_division(f, divisors, 6)
    assert first.quotients == second.quotients
    assert first.remainder == second.remainder
    assert first.staircase == second.staircase


# -- normal forms -----------------------------------------------------------


def test_reduce_kills_generator_multiples():
    t1, t2 = t_vars(5)
    I = IdealPresentation(2, [t1])
    assert reduce_mod_ideal(t1 + t2 * t2 * t2, I, 5) == t2 * t2 * t2


def test_reduce_member_to_zero():
    t1, t2 = t_vars(6)
    I = IdealPresentation(2, [t1 - t2 * t2])
    f = t2 * (t1 - t2 * t2)
    assert reduce_mod_ideal(f, I, 6).is_zero
    assert jet_membership(f, I, 7)


def test_reduce_is_idempotent():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(1, 3)
        f = random_series(rng, n, 6)
        I = random_ideal(rng, n, 6)
        once = reduce_mod_ideal(f, I, 6)
        assert reduce_mod_ideal(once, I, 6) == once


def test_reduced_support_avoids_the_diagram():
    rng = random.Random(78)
    for _ in range(20):
        n = rng.randint(1, 3)
        f = random_series(rng, n, 6)
        I = random_ideal(rng, n, 6)
        r = reduce_mod_ideal(f, I, 6)
        region = I.diagram(6)
        for mono, _ in r.terms.items():
            assert not region.contains(mono)


def test_reduce_difference_lies_in_the_jet_span():
    rng = random.Random(79)
    for _ in range(15):
        n = rng.randint(1, 2)
        f = random_series(rng, n, 5)
        I = random_ideal(rng, n, 5, max_generators=2)
        r = reduce_mod_ideal(f, I, 5)
        assert dense_membership_oracle(f - r, I, 6)


def test_normal_forms_agree_iff_membership():
    # equal normal forms characterize membership of the difference, with
    # the dense row-reduction oracle as referee
    rng = random.Random(80)
    disagreements = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        trunc = 6
        I = random_ideal(rng, n, trunc)
        f = random_series(rng, n, trunc)
        if rng.random() < 0.5:
            # force a member-difference pair part of the time
            h = random_series(rng, n, trunc, density=0.3)
            g = f + h * I.generators[0]
        else:
            g = random_series(rng, n, trunc)
        same = reduce_mod_ideal(f, I, trunc) == reduce_mod_ideal(g, I, trunc)
        member = jet_membership(f - g, I, trunc + 1)
        oracle = dense_membership_oracle(f - g, I, trunc + 1)
        if member != oracle or same != member:
            disagreements += 1
    assert disagreements == 0

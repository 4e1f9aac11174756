import random
from fractions import Fraction

import pytest

import germcalc.division
from germcalc import (
    FormalSeries,
    GaussianRational,
    IdealPresentation,
    MultiIndex,
    PrecisionError,
    Staircase,
    formal_division,
    jet_membership,
    reduce_mod_ideal,
)
from germcalc.division import _divide
from germcalc.monomial import pack
from conftest import (
    dense_membership_oracle,
    exponent_tuples,
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


# -- remainder-only division on ints ------------------------------------------


def _count_scalings(monkeypatch):
    """Count the scaling steps of the integer loop: each one takes a gcd."""
    calls = []
    original = germcalc.division.gcd

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(germcalc.division, "gcd", counting)
    return calls


def _lead_series(rng, n, trunc, lead):
    """A divisor with the given lead coefficient on a random linear or
    quadratic initial term, and a random tail above it."""
    tail = random_series(rng, n, trunc, min_order=3, density=0.5, scale=9)
    exponent = [0] * n
    exponent[rng.randrange(n)] += rng.randint(1, 2)
    return FormalSeries.monomial(n, trunc, exponent, lead) + tail


def _wide(rng, bits):
    """A rational with numerator and denominator of about the given bits."""
    sign = rng.choice((-1, 1))
    return Fraction(sign * rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1)


LEADS = (3, -5, Fraction(7, 4), Fraction(-9, 2), -1, 6)


@pytest.mark.parametrize("field", ["Q", "Q(i)"])
def test_integer_remainder_matches_the_full_division(field, monkeypatch):
    """The remainder-only loop, on ints over Q, gives the full division's
    first remainder term, key and exact value, as the same loop on
    Fraction does, and with whole=True its whole remainder."""
    rng = random.Random(83 if field == "Q" else 84)
    unit = GaussianRational(1, 1) if field == "Q(i)" else 1
    scalings = _count_scalings(monkeypatch)
    several, members = 0, 0
    for case in range(60):
        n = rng.randint(1, 3)
        trunc = 4 if n == 3 else 6
        divisors = [_lead_series(rng, n, trunc, rng.choice(LEADS) * unit)
                    for _ in range(rng.randint(1, 3))]
        f = random_nonzero_series(rng, n, trunc, density=0.6, scale=11) * unit
        if case % 3 == 0:
            # a member plus a tail, so that the loop runs long before a remainder term
            for g in divisors:
                f = f + random_series(rng, n, trunc, density=0.4) * g
            f = f.truncate(trunc - 1)
        k = f.truncation
        before = len(scalings)
        first = _divide(f, divisors, k)
        full = formal_division(f, divisors, k).remainder
        assert first == dict(sorted(full._table.items())[:1])
        assert _divide(f, divisors, k, ints=False) == first
        assert _divide(f, divisors, k, whole=True) == full._table
        members += not first
        if field == "Q":
            assert all(type(c) is Fraction for c in first.values())
            several += len(scalings) - before >= 2
        else:
            assert len(scalings) == before  # Q(i) keeps its arithmetic
    assert members >= 5 and 60 - members >= 10
    if field == "Q":
        assert several >= 10


def test_integer_remainder_near_the_coefficient_cap():
    # numerators and denominators of about 8,000 bits, near the parser's
    # 8,192-bit cap
    rng = random.Random(85)
    for n in (1, 2, 2):
        x = (1,) + (0,) * (n - 1)
        divisors = [
            FormalSeries(n, 3, {e: _wide(rng, 8000) for e in exponent_tuples(n, 3)
                                if e == x or sum(e) >= 2 and rng.random() < 0.6})
            for _ in range(n)
        ]
        f = FormalSeries(n, 3, {e: _wide(rng, 7900) for e in exponent_tuples(n, 3)})
        full = formal_division(f, divisors, 3).remainder
        assert _divide(f, divisors, 3) == dict(sorted(full._table.items())[:1])
        assert _divide(f, divisors, 3, whole=True) == full._table


def test_integer_remainder_scales_once_per_missing_factor(monkeypatch):
    # 3x + y^2 divides nothing of x^3 over the ints: each of the three
    # cancellations scales the work table by 3, and the remainder y^6/27
    # comes back exact
    x, y = t_vars(6)
    scalings = _count_scalings(monkeypatch)
    assert _divide(x * x * x, [3 * x + y * y], 6) == {
        pack((0, 6)): Fraction(-1, 27)
    }
    assert len(scalings) == 3
    assert formal_division(x * x * x, [3 * x + y * y], 6).remainder == FormalSeries(
        2, 6, {(0, 6): Fraction(-1, 27)}
    )

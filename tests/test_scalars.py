from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from germcalc import GaussianRational, I, as_gaussian, coerce_scalar

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert a + b == GaussianRational(4, 1)
    assert a - b == GaussianRational(-2, 3)
    assert a * b == GaussianRational(5, 5)  # (1+2i)(3-i) = 3 - i + 6i + 2
    assert -a == GaussianRational(-1, -2)


def test_i_squares_to_minus_one():
    assert I * I == -1
    assert I**2 == GaussianRational(-1)
    assert I**4 == 1


def test_division():
    a = GaussianRational(5, 5)
    b = GaussianRational(3, -1)
    assert a / b == GaussianRational(1, 2)
    assert (a / b) * b == a
    one = GaussianRational(1)
    assert one / I == -I


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_conjugate_and_norm():
    a = GaussianRational(Fraction(3, 2), Fraction(-1, 2))
    assert a.conjugate() == GaussianRational(Fraction(3, 2), Fraction(1, 2))
    assert a.norm() == Fraction(9, 4) + Fraction(1, 4)
    assert (a * a.conjugate()).real == a.norm()


def test_mixed_fraction_arithmetic():
    a = GaussianRational(1, 1)
    assert a + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 1)
    assert Fraction(1, 2) + a == GaussianRational(Fraction(3, 2), 1)
    assert 2 * a == GaussianRational(2, 2)
    assert a / 2 == GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert 1 - a == GaussianRational(0, -1)
    assert 2 / GaussianRational(1, 1) == GaussianRational(1, -1)


def test_equality_with_reals():
    assert GaussianRational(3) == 3
    assert GaussianRational(3) == Fraction(3)
    assert GaussianRational(3, 1) != 3
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_is_real_flag():
    assert GaussianRational(7).imag == 0
    assert GaussianRational(0, 1).imag != 0


def test_bool():
    assert not GaussianRational(0)
    assert GaussianRational(0, 1)
    assert GaussianRational(1, 0)


def test_str_forms():
    assert str(GaussianRational(Fraction(1, 2))) == "1/2"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(GaussianRational(0, Fraction(3, 2))) == "3/2*i"
    assert str(GaussianRational(1, 1)) == "1 + i"
    assert str(GaussianRational(1, -2)) == "1 - 2*i"


def test_coerce_scalar():
    assert coerce_scalar(3) == Fraction(3)
    assert isinstance(coerce_scalar(3), Fraction)
    assert coerce_scalar(Fraction(1, 2)) == Fraction(1, 2)
    g = GaussianRational(1, 1)
    assert coerce_scalar(g) is g
    with pytest.raises(TypeError):
        coerce_scalar(0.5)
    with pytest.raises(TypeError):
        coerce_scalar("1")


def test_as_gaussian():
    assert as_gaussian(2) == GaussianRational(2)
    assert as_gaussian(Fraction(1, 3)) == GaussianRational(Fraction(1, 3))
    with pytest.raises(TypeError):
        as_gaussian(1.5)


@given(gaussians, gaussians, gaussians)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_field_inverse(a):
    if a:
        assert a / a == 1
        assert (1 / a) * a == 1


@given(gaussians, gaussians)
def test_norm_is_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germcalc import (
    DimensionError,
    FormalMap,
    FormalSeries,
    GaussianRational,
    I,
    IdealPresentation,
    InversionError,
    JetSpace,
    LimitError,
    MultiIndex,
    PrecisionError,
    ShiftSequence,
    Staircase,
    VectorField,
    compose,
    conjugate,
    formal_division,
    jet_membership,
    pushforward_field,
    realify,
    realify_map,
)
from germcalc import series as series_module
from germcalc.errors import _Frozen
from germcalc.monomial import MAX_DEGREE
from conftest import (
    exponent_tuples,
    inverse_oracle,
    product_oracle,
    random_invertible_map,
    random_nonzero_series,
    random_scalar,
    random_series,
    realify_oracle,
    substitute_oracle,
)


def s2(terms, trunc=4):
    return FormalSeries(2, trunc, terms)


@st.composite
def small_series(draw, dimension=2, truncation=3):
    terms = {}
    for exp in exponent_tuples(dimension, truncation):
        coeff = draw(st.integers(-4, 4))
        if coeff:
            terms[exp] = Fraction(coeff)
    return FormalSeries(dimension, truncation, terms)


# -- construction -----------------------------------------------------------


def test_zero_and_constant():
    z = FormalSeries.zero(2, 3)
    assert z.is_zero
    c = FormalSeries.constant(2, 3, Fraction(1, 2))
    assert c.constant_term() == Fraction(1, 2)
    assert (c - c).is_zero


def test_variable_and_monomial():
    t1 = FormalSeries.variable(3, 4, 0)
    assert t1.coefficient((1, 0, 0)) == 1
    m = FormalSeries.monomial(2, 4, (1, 2), Fraction(-3))
    assert m.coefficient((1, 2)) == -3
    with pytest.raises(ValueError):
        FormalSeries.variable(2, 4, 5)


def test_terms_above_truncation_are_dropped():
    f = FormalSeries(1, 2, {(3,): 1, (1,): 1})
    assert f.coefficient((3,)) == 0
    assert f.coefficient((1,)) == 1


def test_zero_coefficients_are_not_stored():
    f = s2({(1, 0): 0, (0, 1): 1})
    assert len(f.terms) == 1


def test_immutability():
    f = s2({(1, 0): 1})
    with pytest.raises(AttributeError):
        f.truncation = 9


def test_terms_are_one_multi_index_view_in_monomial_order():
    f = s2({(0, 1): 2, (2, 0): 3, MultiIndex((1, 0)): 1})
    view = f.terms
    assert all(type(m) is MultiIndex for m in view)
    assert view == {MultiIndex((1, 0)): 1, MultiIndex((0, 1)): 2, MultiIndex((2, 0)): 3}
    assert list(view) == [MultiIndex((1, 0)), MultiIndex((0, 1)), MultiIndex((2, 0))]
    assert f.terms is view
    assert f.sorted_terms() == list(view.items())
    assert f.initial_exponent() == MultiIndex((1, 0))


def test_coefficient_takes_tuple_or_multi_index_keys():
    f = s2({(1, 2): 5})
    assert f.coefficient((1, 2)) == f.coefficient(MultiIndex((1, 2))) == 5
    assert f.coefficient((2, 1)) == f.coefficient((9, 9)) == 0
    for key in [(1, 2, 0), (1,), MultiIndex((1, 2, 0))]:
        with pytest.raises(DimensionError):
            f.coefficient(key)
    with pytest.raises(ValueError):
        f.coefficient((1, -1))


def _outcome(make):
    """make()'s term table, or the type and text of what it raised."""
    try:
        return make()._table
    except Exception as err:
        return type(err), str(err)


def test_tuple_keys_build_what_multi_index_keys_build():
    # plain tuples of naturals pack directly; everything else, and every
    # error, goes through MultiIndex
    cases = [
        [((-1, 2), 1)],                   # a negative entry
        [((True, 0), 1), ((0, 1), 2)],    # a bool entry
        [((1.0, 0), 1)],                  # a float entry
        [((1, 2, 3), 1)],                 # wrong lengths
        [((1,), 1)],
        [((3, 3), 1), ((1, 0), 4)],       # past the truncation: dropped
        [((1, 0), 2), ((1, 0), -2), ((0, 2), Fraction(1, 3))],  # summing to zero
    ]
    for terms in cases:
        want = _outcome(lambda: s2([(MultiIndex(k), c) for k, c in terms], trunc=5))
        assert _outcome(lambda: s2(terms, trunc=5)) == want, terms
        mixed = [(MultiIndex(k) if i % 2 else k, c) for i, (k, c) in enumerate(terms)]
        assert _outcome(lambda: s2(mixed, trunc=5)) == want, terms
    assert _outcome(lambda: s2([((1, 0), 2), ((1, 0), -2)])) == {}
    assert _outcome(lambda: s2([((3, 3), 1)], trunc=5)) == {}


def test_truncation_past_the_packed_width_is_refused():
    # through the constructor's check only: no series of that size is built
    top = FormalSeries.monomial(2, MAX_DEGREE, (MAX_DEGREE - 1, 0))
    z, w = (FormalSeries.variable(2, MAX_DEGREE, i) for i in range(2))
    assert (top * w).coefficient((MAX_DEGREE - 1, 1)) == 1
    assert (top * w * z).is_zero
    assert top.derivative(0).coefficient((MAX_DEGREE - 2, 0)) == MAX_DEGREE - 1
    with pytest.raises(LimitError, match=f"limit of {MAX_DEGREE}"):
        FormalSeries(1, MAX_DEGREE + 1)


# -- arithmetic -------------------------------------------------------------


def test_product_example():
    t1 = FormalSeries.variable(2, 4, 0)
    t2 = FormalSeries.variable(2, 4, 1)
    f = t1 * (t1 - t2 * t2)
    assert f == s2({(2, 0): 1, (1, 2): -1})


def test_scalar_operations():
    f = s2({(1, 0): 1})
    assert 2 * f == s2({(1, 0): 2})
    assert f * Fraction(1, 2) == s2({(1, 0): Fraction(1, 2)})
    assert f + 1 == s2({(0, 0): 1, (1, 0): 1})
    assert 1 - f == s2({(0, 0): 1, (1, 0): -1})
    assert (f * I).coefficient((1, 0)) == GaussianRational(0, 1)


def test_mixed_truncation_takes_the_minimum():
    f = FormalSeries(2, 5, {(1, 0): 1})
    g = FormalSeries(2, 3, {(0, 1): 1})
    assert (f + g).truncation == 3
    assert (f * g).truncation == 3


def test_dimension_mismatch():
    f = FormalSeries(2, 3, {(1, 0): 1})
    g = FormalSeries(3, 3, {(1, 0, 0): 1})
    with pytest.raises(DimensionError):
        f + g


@given(small_series(), small_series(), small_series())
@settings(max_examples=60, deadline=None)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


@given(small_series())
def test_additive_inverse(f):
    assert (f + (-f)).is_zero
    assert f - f == FormalSeries.zero(2, 3)


@pytest.mark.parametrize("field", ["Q", "Q(i)"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_power_is_the_repeated_product(n, field):
    rng = random.Random(100 * n + len(field))
    trunc = 5 if n < 3 else 4
    for _ in range(4):
        f = random_series(rng, n, trunc, density=0.5, scale=3)
        if field == "Q(i)":
            f = f + I * random_series(rng, n, trunc, density=0.3, scale=3)
        product = FormalSeries.constant(n, trunc, 1)
        for e in range(trunc + 1):
            assert f**e == product
            product = product * f
    z = FormalSeries.variable(n, trunc, 0)
    for bad in (-1, Fraction(2), 2.0, "2"):
        assert z.__pow__(bad) is NotImplemented
    with pytest.raises(TypeError):
        z ** -1


# -- inspection -------------------------------------------------------------


def test_initial_exponent_examples():
    t1 = FormalSeries.variable(2, 4, 0)
    t2 = FormalSeries.variable(2, 4, 1)
    assert (t1 - t2 * t2).initial_exponent() == MultiIndex((1, 0))
    assert (t2 * t2 + t1 * t2).initial_exponent() == MultiIndex((1, 1))
    assert FormalSeries.zero(2, 4).initial_exponent() is None


def test_order_and_vanishing():
    f = s2({(1, 1): 1, (0, 3): 2})
    assert f.order() == 2
    # membership in m^k is membership in the zero ideal + m^k
    zero_ideal = IdealPresentation(2, [])
    assert jet_membership(f, zero_ideal, 2)
    assert not jet_membership(f, zero_ideal, 3)
    z = FormalSeries.zero(2, 4)
    assert jet_membership(z, zero_ideal, 5)
    with pytest.raises(PrecisionError):
        jet_membership(z, zero_ideal, 10)  # beyond what truncation 4 can certify


def test_sorted_terms_follow_the_monomial_order():
    f = s2({(0, 2): 1, (1, 0): 2, (0, 0): 3, (1, 1): 4})
    exps = [m for m, _ in f.sorted_terms()]
    assert exps == [
        MultiIndex((0, 0)),
        MultiIndex((1, 0)),
        MultiIndex((1, 1)),
        MultiIndex((0, 2)),
    ]


def test_truncate():
    f = s2({(1, 0): 1, (2, 0): 2, (0, 3): 3})
    j2 = f.truncate(2)
    assert j2 == FormalSeries(2, 2, {(1, 0): 1, (2, 0): 2})
    with pytest.raises(PrecisionError):
        f.truncate(9)
    with pytest.raises(ValueError, match="truncation degree must be a natural number"):
        f.truncate(-1)


def test_derivative():
    t1 = FormalSeries.variable(2, 4, 0)
    t2 = FormalSeries.variable(2, 4, 1)
    f = t1 * t1 * t2
    df = f.derivative(0)
    assert df == FormalSeries(2, 3, {(1, 1): 2})
    assert f.derivative(1).coefficient((2, 0)) == 1


# -- composition ------------------------------------------------------------


def test_compose_linear_shift():
    K = 4
    z = FormalSeries.variable(2, K, 0)
    w = FormalSeries.variable(2, K, 1)
    g = w - 2 * z - z * z  # n = 1
    shear = FormalMap([z, w + z])
    assert compose(g, shear) == w - z - z * z


def test_compose_with_identity():
    rng = random.Random(3)
    f = random_nonzero_series(rng, 2, 4)
    assert compose(f, FormalMap.identity(2, 4)) == f


def test_compose_requires_vanishing_components():
    with pytest.raises(ValueError):
        FormalMap([FormalSeries.constant(1, 3, 1)])


def test_jet_functoriality():
    # j^k(f o phi) only depends on the k-jets of f and phi
    rng = random.Random(5)
    for _ in range(10):
        f = random_series(rng, 2, 5)
        phi = random_invertible_map(rng, 2, 5)
        k = rng.randint(1, 4)
        full = compose(f, phi).truncate(k)
        jets = compose(f.truncate(k), phi.truncate(k))
        assert full == jets.truncate(k)


# -- formal maps ------------------------------------------------------------


def test_map_constructor_checks():
    comps = [FormalSeries.variable(2, 3, 0)]
    with pytest.raises(DimensionError):
        FormalMap(comps)  # one component for two variables


def test_linear_matrix():
    z = FormalSeries.variable(2, 3, 0)
    w = FormalSeries.variable(2, 3, 1)
    phi = FormalMap([z + 2 * w, 3 * w])
    assert phi.linear_matrix() == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]]
    assert phi.is_invertible
    assert not FormalMap([z + w, z + w]).is_invertible


def test_inverse_of_quadratic():
    z1 = FormalSeries.variable(1, 4, 0)
    phi = FormalMap([2 * z1 + z1 * z1])
    inv = phi.inverse()
    assert inv.components[0] == FormalSeries(
        1,
        4,
        {
            (1,): Fraction(1, 2),
            (2,): Fraction(-1, 8),
            (3,): Fraction(1, 16),
            (4,): Fraction(-5, 128),
        },
    )
    assert phi.compose(inv) == FormalMap.identity(1, 4)
    assert inv.compose(phi) == FormalMap.identity(1, 4)


def test_inverse_requires_invertible_linear_part():
    z1 = FormalSeries.variable(1, 3, 0)
    with pytest.raises(InversionError):
        FormalMap([z1 * z1]).inverse()


def test_map_inverse_roundtrip_random():
    rng = random.Random(17)
    for _ in range(15):
        phi = random_invertible_map(rng, 2, 4)
        assert phi.compose(phi.inverse()) == FormalMap.identity(2, 4)
        assert phi.inverse().compose(phi) == FormalMap.identity(2, 4)


def test_map_compose_is_associative():
    rng = random.Random(23)
    for _ in range(8):
        a = random_invertible_map(rng, 2, 4)
        b = random_invertible_map(rng, 2, 4)
        c = random_invertible_map(rng, 2, 4)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_map_truncate():
    z1 = FormalSeries.variable(1, 5, 0)
    phi = FormalMap([z1 + z1 * z1 * z1])
    j2 = phi.truncate(2)
    assert j2.truncation == 2
    assert j2.components[0] == z1.truncate(2)
    with pytest.raises(ValueError, match="natural number"):
        phi.truncate(-1)


# -- the product kernel against the per-pair oracles -------------------------

FIELDS = ("Q", "Q(i)")


def in_field(rng, field, f):
    """f itself over Q; over Q(i), every coefficient given a random
    imaginary part (possibly zero)."""
    if field == "Q":
        return f
    return FormalSeries(
        f.dimension,
        f.truncation,
        {m: GaussianRational(c, random_scalar(rng, 3)) for m, c in f.terms.items()},
    )


def substitution_components(rng, field, count, dimension, truncation):
    """Random components vanishing at 0, with zero series and single terms
    mixed in."""
    comps = []
    for _ in range(count):
        shape = rng.choice(("zero", "single", "dense", "sparse"))
        trunc = truncation + rng.randint(0, 2)
        if shape == "zero":
            comps.append(FormalSeries.zero(dimension, trunc))
            continue
        if shape == "single":
            exp = rng.choice([e for e in exponent_tuples(dimension, 2) if sum(e)])
            coeff = random_scalar(rng, allow_zero=False)
            comp = FormalSeries.monomial(dimension, trunc, exp, coeff)
        else:
            density = 0.7 if shape == "dense" else 0.2
            comp = random_series(rng, dimension, trunc, density, min_order=1)
        comps.append(in_field(rng, field, comp))
    return comps


def assert_same_series(got, want):
    assert (got.dimension, got.truncation) == (want.dimension, want.truncation)
    assert got.terms == want.terms


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_kernel_matches_the_pair_oracle(n, field):
    rng = random.Random(f"product:{n}:{field}")
    for _ in range(12):
        a = in_field(rng, field, random_series(rng, n, rng.randint(0, 5), rng.random()))
        b = in_field(rng, field, random_series(rng, n, rng.randint(0, 5), rng.random()))
        assert_same_series(a * b, product_oracle(a, b))
        assert_same_series(b * a, product_oracle(a, b))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_products_that_cancel_to_zero(n, field):
    c = GaussianRational(0, 1) if field == "Q(i)" else Fraction(1)
    x = FormalSeries.variable(n, 3, 0)
    y = FormalSeries.variable(n, 3, n - 1)
    cases = [
        (x * x * (x + y), x * (x + c * y)),  # every term above the truncation
        (x + c * y, FormalSeries.zero(n, 2)),  # a zero operand
    ]
    if n > 1:
        cases.append((x + c * y, x - c * y))  # the x*y terms cancel
    for a, b in cases:
        assert_same_series(a * b, product_oracle(a, b))
    assert (cases[0][0] * cases[0][1]).is_zero
    if n > 1:
        assert len(((x + c * y) * (x - c * y)).terms) == 2
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_substitution_matches_the_power_oracle(n, field):
    rng = random.Random(f"substitute:{n}:{field}")
    for _ in range(10):
        m = rng.randint(1, 3)
        f = in_field(rng, field, random_series(rng, n, rng.randint(0, 5), rng.random()))
        comps = substitution_components(rng, field, n, m, rng.randint(0, 5))
        assert_same_series(f.substitute(comps), substitute_oracle(f, comps))


def test_substitution_that_cancels_to_zero():
    x = FormalSeries.variable(2, 4, 0)
    y = FormalSeries.variable(2, 4, 1)
    t = FormalSeries.variable(1, 4, 0)
    zero = FormalSeries.zero(1, 4)
    f = x * x - y * y + 2 * x * y * y
    for comps in ([t, t], [zero, zero], [t, zero], [zero, 3 * t]):
        assert_same_series(f.substitute(comps), substitute_oracle(f, comps))
    assert f.substitute([t, -t]) == FormalSeries(1, 4, {(3,): 2})
    assert (x - y).substitute([t, t]).is_zero


@pytest.mark.parametrize("field", FIELDS)
def test_substitution_in_four_variables_matches_the_oracle(field):
    # four variables, as a realified pair of complex ones
    rng = random.Random(f"substitute-4:{field}")
    for _ in range(10):
        f = in_field(rng, field, random_series(rng, 4, rng.randint(0, 5), rng.random()))
        comps = substitution_components(rng, field, 4, rng.randint(1, 4), rng.randint(0, 5))
        assert_same_series(f.substitute(comps), substitute_oracle(f, comps))


@pytest.mark.parametrize("c", [Fraction(3), GaussianRational(1, 2)])
def test_substitution_whose_images_cancel_or_vanish(c):
    x = [FormalSeries.variable(4, 5, j) for j in range(4)]
    t, zero = FormalSeries.variable(1, 5, 0), FormalSeries.zero(1, 5)
    # with x_1 -> t + t^2 and x_2 -> t, the images of x_1*x_2 and x_1^2*x_2
    # sum to c*(t^2 + t^3) - c*(t^3 + 2t^4 + t^5), which has no t^3 term
    f = c * x[0] * x[1] - c * x[0] * x[0] * x[1] + x[2] * x[3]
    comps = [t + t * t, t, t, zero]
    got = f.substitute(comps)
    assert_same_series(got, substitute_oracle(f, comps))
    assert got == FormalSeries(1, 5, {(2,): c, (4,): -2 * c, (5,): -c})
    # a zero first component sends every image with a power of x_1 to zero
    g = x[0] * x[1] + c * x[0] * x[0] * x[2] + x[3]
    assert_same_series(g.substitute([zero, t, t, t]), substitute_oracle(g, [zero, t, t, t]))
    assert g.substitute([zero, t, t, t]) == t


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n, m", [(1, 3), (4, 1), (2, 4)])
def test_substitution_across_dimensions_matches_the_oracle(n, m, field):
    # an outer series in n variables over components in m: its images live
    # in m variables, and so does their truncation
    rng = random.Random(f"substitute-across:{n}:{m}:{field}")
    for outer in (3, 5, 7):  # below, at and above the components' truncation
        f = random_series(rng, n, outer, 0.5, min_order=1) + random_scalar(rng, allow_zero=False)
        f = in_field(rng, field, f)
        comps = [in_field(rng, field, random_nonzero_series(rng, m, 5, density=0.5, min_order=1))
                 for _ in range(n)]
        got = f.substitute(comps)
        assert (got.dimension, got.truncation) == (m, min(outer, 5))
        assert f.constant_term() and got.constant_term() == f.constant_term()
        assert_same_series(got, substitute_oracle(f, comps))


# -- the truncated inverse ----------------------------------------------------


def maps_to_invert(field):
    rng = random.Random(f"inverse:{field}")
    for n, K, density in (
        (1, 1, 0.5), (1, 4, 0.5), (1, 6, 0.5), (2, 2, 0.3),
        (2, 5, 0.3), (2, 6, 0.3), (3, 3, 0.3), (3, 6, 0.08),
    ):
        while True:
            phi = random_invertible_map(rng, n, K, higher_density=density)
            phi = FormalMap([in_field(rng, field, c) for c in phi.components])
            if phi.is_invertible:
                yield phi
                break
    # every step before degree 3 has a zero error
    for n in (1, 2, 3):
        x = [FormalSeries.variable(n, 6, j) for j in range(n)]
        c = GaussianRational(2, 1) if field == "Q(i)" else Fraction(2)
        yield FormalMap([c * x[0] + x[-1] * x[-1] * x[-1]] + x[1:])


@pytest.mark.parametrize("field", FIELDS)
def test_inverse_round_trips_and_matches_the_oracle(field):
    for phi in maps_to_invert(field):
        n, K = phi.dimension, phi.truncation
        inv = phi.inverse()
        assert phi.compose(inv) == FormalMap.identity(n, K)
        assert inv.compose(phi) == FormalMap.identity(n, K)
        assert inv == inverse_oracle(phi)
        assert inv.truncation == K


@pytest.mark.parametrize("n, K, density", [(1, 1, 0.3), (1, 6, 0.3), (2, 8, 0.3), (3, 5, 0.3),
                                            (2, 6, 1.0), (3, 5, 1.0)])
def test_inverse_forms_each_monomial_image_once(n, K, density, monkeypatch):
    phi = random_invertible_map(random.Random(41 + n), n, K, higher_density=density)
    components = [series_module._scaled_terms(c._table)[0] for c in phi.components]
    units = [tuple(1 if t == j else 0 for t in range(n)) for j in range(n)]
    linear = [series_module._scaled_terms(FormalSeries(n, K, zip(units, row))._table)[0]
              for row in phi.linear_inverse()]
    by_phi, by_linear, mul_terms = [], [], series_module._mul_terms

    def counting(left, right, *rest):
        if right in components:
            by_phi.append(len(left))
        if right in linear:
            by_linear.append(len(left))
        return mul_terms(left, right, *rest)

    monkeypatch.setattr(series_module, "_mul_terms", counting)
    inv = phi.inverse()
    monkeypatch.undo()
    assert inv == inverse_oracle(phi)
    # at most one product by a component of Phi per monomial of degree
    # 2..K-1, and one by a component of L^-1 per monomial of degree 2..K,
    # each image shared by the n components of the inverse and every degree
    monomials = [e for e in exponent_tuples(n, K) if sum(e) >= 2]
    assert len(by_phi) <= len([e for e in monomials if sum(e) < K])
    assert len(by_linear) <= len(monomials)
    if density == 1.0:
        assert by_phi and by_linear


def test_a_map_truncated_at_0_has_no_known_linear_part():
    for phi in (FormalMap([FormalSeries(1, 0)]), FormalMap.identity(2, 0)):
        assert not phi.is_invertible
        for call in (phi.linear_inverse, phi.inverse):
            with pytest.raises(PrecisionError, match="truncated at 0 is unknown"):
                call()
        with pytest.raises(PrecisionError, match="truncated at 0 is unknown"):
            conjugate(phi, phi)
        with pytest.raises(PrecisionError, match="truncated at 0 is unknown"):
            pushforward_field(VectorField(phi.components), phi)


# -- integer numerators over one common denominator ---------------------------


def over_q(*pairs, n=2, trunc=5):
    return FormalSeries(n, trunc, {e: Fraction(c) for e, c in pairs})


def denominator_cases():
    """(f, components) by name: denominators pairwise coprime, cancelling
    to integers, past 64 bits, or Q and Q(i) mixed between f and the
    components."""
    big = Fraction(1, 3**50)
    coprime = over_q(((1, 0), "1/6"), ((0, 2), "1/10"), ((1, 1), "1/15"), ((2, 1), "7/6"))
    coprime_comps = [
        over_q(((1, 0), "1/10"), ((0, 1), "1/15"), ((2, 0), "1/6")),
        over_q(((0, 1), "1/6"), ((1, 1), "1/10"), ((0, 3), "1/15")),
    ]
    # f's integer coefficients clear every denominator of the components:
    # 4(z/2 + w/2)^2 = (z + w)^2, and so on
    halves = [over_q(((1, 0), "1/2"), ((0, 1), "1/2")), over_q(((1, 0), "1/3"), ((0, 1), "2/3"))]
    integral = over_q(((2, 0), "4"), ((0, 2), "9"), ((1, 1), "-6"), ((1, 0), "2"))
    wide = over_q(((1, 0), big), ((1, 1), 3 * big), ((0, 3), big * big))
    wide_comps = [over_q(((1, 0), 3**50), ((0, 2), big)), over_q(((0, 1), big), ((1, 1), 5))]
    gaussian = [c + GaussianRational(0, Fraction(1, 6)) * c * c for c in coprime_comps]
    gaussian_f = FormalSeries(2, 5, {e: GaussianRational(c, 1) for e, c in coprime.terms.items()})
    return {
        "coprime": (coprime, coprime_comps),
        "cancelling": (integral, halves),
        "wide": (wide, wide_comps),
        "gaussian-components": (coprime, gaussian),
        "gaussian-series": (gaussian_f, coprime_comps),
    }


@pytest.mark.parametrize("case", list(denominator_cases()))
def test_common_denominators_match_the_oracles(case):
    f, comps = denominator_cases()[case]
    assert_same_series(f.substitute(comps), substitute_oracle(f, comps))
    for a in [f] + comps:
        for b in comps:
            assert_same_series(a * b, product_oracle(a, b))
    x, y = (FormalSeries.variable(2, 5, j) for j in range(2))
    phi = FormalMap([x + comps[0], y + comps[1]])
    assert phi.is_invertible
    assert phi.inverse() == inverse_oracle(phi)


def test_denominators_that_cancel_give_integer_fractions():
    halves = FormalSeries(1, 4, {(1,): Fraction(1, 2), (2,): Fraction(1, 2)})
    square = (2 * halves) * (2 * halves)
    assert square == FormalSeries(1, 4, {(2,): 1, (3,): 2, (4,): 1})
    assert all(c.denominator == 1 for c in square.terms.values())
    f = FormalSeries(1, 4, {(1,): 6, (2,): 36})
    t = FormalSeries(1, 4, {(1,): Fraction(1, 6)})
    assert f.substitute([t]) == FormalSeries(1, 4, {(1,): 1, (2,): 1})


def every_result(field):
    """Products, substitutions, compositions, inverses and transports of
    random inputs over the given field."""
    rng = random.Random(f"types:{field}")
    for n in (1, 2, 3):
        while True:
            phi = random_invertible_map(rng, n, 4)
            phi = FormalMap([in_field(rng, field, c) for c in phi.components])
            if phi.is_invertible:
                break
        f = FormalMap([in_field(rng, field, random_series(rng, n, 4, min_order=1))
                       for _ in range(n)])
        a, b = f.components[0], phi.components[-1]
        yield a * b
        yield a.substitute(phi.components)
        yield from phi.compose(f).components
        yield from phi.inverse().components
        yield from conjugate(f, phi).components
        yield from pushforward_field(VectorField(f.components), phi).components


def test_coefficients_over_q_are_fractions():
    for result in every_result("Q"):
        assert all(type(c) is Fraction for c in result.terms.values())


def test_coefficients_over_q_i_are_fractions_or_gaussian():
    seen = set()
    for result in every_result("Q(i)"):
        seen |= {type(c) for c in result.terms.values()}
    assert seen <= {Fraction, GaussianRational} and GaussianRational in seen


def test_the_product_loop_sees_only_ints_over_q(monkeypatch):
    seen = []
    original = series_module._mul_terms

    def recording(left, right, bound, table=None):
        seen.extend(type(c) for terms in (left, right) for _, c in terms)
        return original(left, right, bound, table)

    monkeypatch.setattr(series_module, "_mul_terms", recording)
    for _ in every_result("Q"):
        pass
    assert seen and set(seen) == {int}


# -- realification ----------------------------------------------------------


def test_realify_linear():
    K = 4
    z = FormalSeries.variable(2, K, 0)
    w = FormalSeries.variable(2, K, 1)
    re, im = realify(w - z)
    # variables in the real chart are (x1, y1, x2, y2)
    assert re == FormalSeries(4, K, {(0, 0, 1, 0): 1, (1, 0, 0, 0): -1})
    assert im == FormalSeries(4, K, {(0, 0, 0, 1): 1, (0, 1, 0, 0): -1})


def test_realify_square():
    K = 4
    z = FormalSeries.variable(2, K, 0)
    re, im = realify(z * z)
    assert re == FormalSeries(4, K, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1})
    assert im == FormalSeries(4, K, {(1, 1, 0, 0): 2})


def test_realify_imaginary_unit():
    K = 3
    f = FormalSeries(1, K, {(1,): GaussianRational(0, 1)})
    re, im = realify(f)
    assert re == FormalSeries(2, K, {(0, 1): -1})
    assert im == FormalSeries(2, K, {(1, 0): 1})


def test_realify_is_additive_and_multiplicative():
    rng = random.Random(29)
    for _ in range(6):
        f = random_series(rng, 1, 3)
        g = random_series(rng, 1, 3)
        fr, fi = realify(f)
        gr, gi = realify(g)
        sr, si = realify(f + g)
        assert sr == fr + gr and si == fi + gi
        pr, pi = realify(f * g)
        assert pr == fr * gr - fi * gi
        assert pi == fr * gi + fi * gr


def test_realify_matches_the_substitution_oracle():
    # the closed form against z_j = x_j + i*y_j substituted term by term,
    # coefficients over Q, over Q(i), and mixed in one series
    rng = random.Random(37)
    for case in range(300):
        n, K = rng.choice((1, 2, 3)), rng.randint(0, 6 if case % 3 else 3)
        f = random_series(rng, n, K, density=0.5)
        if case % 4:
            f = f + I * random_series(rng, n, K, density=0.3)
        got, want = realify(f), realify_oracle(f)
        assert got == want, (n, K, f)
        for part in got:
            assert part.dimension == 2 * n and part.truncation == K
            assert {type(c) for c in part._table.values()} <= {Fraction}


def test_realify_map_respects_composition():
    rng = random.Random(31)
    for _ in range(5):
        f = random_series(rng, 2, 3, min_order=1)
        phi = random_invertible_map(rng, 2, 3)
        lhs = realify(compose(f, phi))
        rr = realify_map(phi)
        rhs = (compose(realify(f)[0], rr), compose(realify(f)[1], rr))
        assert lhs[0] == rhs[0] and lhs[1] == rhs[1]


def test_series_results_skip_the_constructor(monkeypatch):
    rng = random.Random(131)
    a = random_nonzero_series(rng, 2, 5, density=0.6)
    b = random_nonzero_series(rng, 2, 5, density=0.6)
    g = random_nonzero_series(rng, 2, 5, density=0.5, min_order=1)
    built = []
    original = FormalSeries.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FormalSeries, "__init__", counting)
    product, cut, division = a * b, a.truncate(3), formal_division(a, [g], 5)
    assert built == []
    monkeypatch.undo()
    assert product == product_oracle(a, b)
    assert cut == FormalSeries(2, 3, {m: c for m, c in a.terms.items() if m.degree <= 3})
    (q,), r = division.quotients, division.remainder
    assert q * g + r == a
    for s in (product, cut, q, r):
        rebuilt = FormalSeries(s.dimension, s.truncation, s.terms)
        assert s == rebuilt and s.terms == rebuilt.terms and repr(s) == repr(rebuilt)


_X = FormalSeries.variable(2, 3, 0)
_Y = FormalSeries.variable(2, 3, 1)


def _frozen_types():
    """Every subclass of errors._Frozen, at any depth."""
    found, todo = [], [_Frozen]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found += subclasses
        todo += subclasses
    return found


def _slots(obj):
    """The slot names of obj's class and of its bases."""
    return [name for cls in type(obj).__mro__ for name in vars(cls).get("__slots__", ())]


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


_FROZEN_SAMPLES = [
    MultiIndex((1, 0)),
    Staircase(2, [(1, 0)]),
    _X,
    FormalMap([_X, _Y]),
    VectorField([_X, _Y]),
    JetSpace(2, 2, [_X]),
    IdealPresentation(2, [_X]),
    ShiftSequence(2),
    GaussianRational(1, 2),
]
_PROBES = [_X, _Y, _X * _Y, _X + _Y * _Y, _Y**3]


def test_the_samples_cover_every_frozen_type():
    for cls in _frozen_types():
        assert any(isinstance(obj, cls) for obj in _FROZEN_SAMPLES), cls.__name__


@pytest.mark.parametrize("obj", _FROZEN_SAMPLES, ids=lambda obj: type(obj).__name__)
def test_frozen_types_refuse_changes_and_copy_to_equal_values(obj):
    message = f"{type(obj).__name__} is immutable"
    slots = _slots(obj)
    assert slots
    for slot in slots + ["extra"]:
        before = getattr(obj, slot, None)
        for change in (lambda: setattr(obj, slot, None), lambda: delattr(obj, slot)):
            with pytest.raises(AttributeError) as err:
                change()
            assert str(err.value) == message
        assert getattr(obj, slot, None) is before
    copies = [copy.copy(obj), copy.deepcopy(obj), _pickled(obj)]
    for copied in copies:
        assert type(copied) is type(obj) and copied == obj
        assert all(getattr(copied, slot) == getattr(obj, slot) for slot in slots)
    if isinstance(obj, IdealPresentation):
        for copied in copies:
            assert copied.jet_space(2) == obj.jet_space(2)
            for f in _PROBES:
                for k in range(1, 5):
                    assert jet_membership(f, copied, k) == jet_membership(f, obj, k)

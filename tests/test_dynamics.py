import itertools
import random
from fractions import Fraction

import pytest

from germcalc import (
    DimensionError,
    FormalMap,
    FormalSeries,
    GaussianRational,
    InversionError,
    PrecisionError,
    VectorField,
    conjugate,
    is_order_k_conjugacy,
    is_order_k_field_equivalence,
    pushforward_field,
)
from conftest import (
    inverse_oracle,
    transport_oracle,
    random_invertible_map,
    random_series,
    random_tangent_to_identity_map,
)

K = 6


def z1(trunc=K):
    return FormalSeries.variable(1, trunc, 0)


def line_field(a, b, trunc=K):
    """The linear field (a11 x + a12 y, a21 x + a22 y) from matrix rows."""
    x = FormalSeries.variable(2, trunc, 0)
    y = FormalSeries.variable(2, trunc, 1)
    return VectorField([a[0] * x + a[1] * y, b[0] * x + b[1] * y])


def mat_mul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2)]
        for i in range(2)
    ]


def mat_inv2(a):
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    assert det != 0
    return [
        [Fraction(a[1][1], 1) / det, Fraction(-a[0][1], 1) / det],
        [Fraction(-a[1][0], 1) / det, Fraction(a[0][0], 1) / det],
    ]


# -- vector field container -------------------------------------------------


def test_field_requires_vanishing_components():
    with pytest.raises(ValueError):
        VectorField([z1() + 1])


def test_field_dimension_check():
    x = FormalSeries.variable(2, K, 0)
    with pytest.raises(DimensionError):
        VectorField([x])  # one component for a two-variable series


def test_field_needs_components():
    with pytest.raises(ValueError):
        VectorField([])


# -- maps and fields share one component-tuple shell ------------------------


def xy_components(trunc=K):
    x = FormalSeries.variable(2, trunc, 0)
    y = FormalSeries.variable(2, trunc, 1)
    return [x + y * y, y - x * y]


def test_a_map_never_equals_a_field():
    comps = xy_components()
    phi, xi = FormalMap(comps), VectorField(comps)
    assert phi.components == xi.components
    assert phi != xi
    assert xi != phi
    assert not phi == xi
    assert not xi == phi
    assert phi == FormalMap(comps)
    assert xi == VectorField(comps)


@pytest.mark.parametrize("cls", [FormalMap, VectorField])
def test_truncate_and_compose_keep_the_receivers_class(cls):
    obj = cls(xy_components())
    shear = FormalMap(xy_components())
    assert type(obj.truncate(3)) is cls
    assert type(obj.compose(shear)) is cls
    assert obj.compose(shear).components == tuple(
        c.substitute(shear.components) for c in obj.components
    )


@pytest.mark.parametrize(
    "cls,kind,noun",
    [(FormalMap, "formal map", "map"), (VectorField, "vector field", "field")],
)
def test_component_errors_keep_their_texts(cls, kind, noun):
    with pytest.raises(ValueError) as empty:
        cls([])
    assert str(empty.value) == f"a {kind} needs at least one component"
    x = FormalSeries.variable(2, K, 0)
    with pytest.raises(DimensionError) as wrong:
        cls([x])
    assert str(wrong.value) == (
        f"{noun} on 1 variables has a component in dimension 2"
    )
    with pytest.raises(ValueError) as constant:
        cls([z1() + 1])
    assert str(constant.value) == f"{kind} components must vanish at 0"


@pytest.mark.parametrize("cls", [FormalMap, VectorField])
def test_assignment_names_the_class(cls):
    obj = cls(xy_components())
    with pytest.raises(AttributeError) as err:
        obj._comps = ()
    assert str(err.value) == f"{cls.__name__} is immutable"
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj.components == tuple(xy_components())


def test_field_takes_minimum_truncation():
    x = FormalSeries.variable(2, 7, 0)
    y = FormalSeries.variable(2, 4, 1)
    xi = VectorField([x, y])
    assert xi.truncation == 4
    assert xi.components[0].truncation == 4


def test_field_truncate_and_equality():
    z = z1()
    xi = VectorField([z * z])
    assert xi.truncate(3) == VectorField([(z * z).truncate(3)])
    assert xi != VectorField([z * z + z * z * z])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transports_solve_phi_once_and_checks_never(n, monkeypatch):
    rng = random.Random(150 + n)
    phi = random_invertible_map(rng, n, 4)
    fs = [random_tangent_to_identity_map(rng, n, 4) for _ in range(2)]
    xis = [VectorField(random_tangent_to_identity_map(rng, n, 4).components) for _ in range(2)]
    calls = []
    linear_inverse, inverse = FormalMap.linear_inverse, FormalMap.inverse

    def counting(name, method):
        def wrapped(self):
            calls.append(name)
            return method(self)
        return wrapped

    monkeypatch.setattr(FormalMap, "linear_inverse", counting("linear", linear_inverse))
    monkeypatch.setattr(FormalMap, "inverse", counting("inverse", inverse))
    gs = [conjugate(f, phi) for f in fs]
    etas = [pushforward_field(xi, phi) for xi in xis]
    # one inverse per transport, which solves the linear part once
    assert calls == ["inverse", "linear"] * (len(fs) + len(xis))
    del calls[:]
    assert is_order_k_conjugacy(phi, fs, gs, 4).ok
    assert is_order_k_field_equivalence(phi, xis, etas, 3).ok
    # the checks refuse a singular Phi once per pair and never invert it
    assert calls == ["linear"] * (len(fs) + len(xis))


# -- conjugation ------------------------------------------------------------


def test_conjugate_by_doubling():
    z = z1()
    f = FormalMap([z + z * z])
    phi = FormalMap([2 * z])
    assert conjugate(f, phi) == FormalMap([z + Fraction(1, 2) * z * z])


def test_conjugate_does_not_need_invertible_f():
    z = z1()
    f = FormalMap([z * z])
    phi = FormalMap([2 * z])
    assert conjugate(f, phi) == FormalMap([Fraction(1, 2) * z * z])


def test_conjugate_swap_by_anisotropic_scaling():
    zz = FormalSeries.variable(2, K, 0)
    ww = FormalSeries.variable(2, K, 1)
    f = FormalMap([ww, zz])
    phi = FormalMap([zz, 2 * ww])
    assert conjugate(f, phi) == FormalMap([Fraction(1, 2) * ww, 2 * zz])


def test_conjugate_by_identity():
    rng = random.Random(47)
    ident = FormalMap.identity(2, K)
    for _ in range(5):
        f = random_tangent_to_identity_map(rng, 2, K)
        assert conjugate(f, ident) == f


def test_conjugacy_verdict_for_exact_pair():
    z = z1()
    f = FormalMap([z + z * z])
    g = FormalMap([z + Fraction(1, 2) * z * z])
    phi = FormalMap([2 * z])
    for k in range(1, K + 1):
        assert is_order_k_conjugacy(phi, [f], [g], k).ok


def test_conjugacy_verdict_localizes_discrepancy():
    z = z1()
    f = FormalMap([z + z * z])
    g = FormalMap([z + Fraction(1, 2) * z * z + z * z * z * z * z])
    phi = FormalMap([2 * z])
    report = is_order_k_conjugacy(phi, [f], [g], 5)
    assert report.ok
    assert report.per_index[0].discrepancy_order == 5
    assert not is_order_k_conjugacy(phi, [f], [g], 6).ok


def test_identity_and_doubling_are_not_conjugate():
    z = z1()
    f = FormalMap([z])
    g = FormalMap([2 * z])
    rng = random.Random(48)
    for _ in range(10):
        phi = random_invertible_map(rng, 1, K)
        assert is_order_k_conjugacy(phi, [f], [g], 1).ok
        report = is_order_k_conjugacy(phi, [f], [g], 2)
        assert not report.ok
        assert report.per_index[0].discrepancy_order == 1


def test_conjugacy_round_trip():
    rng = random.Random(49)
    for _ in range(12):
        n = rng.choice((1, 2))
        f = random_tangent_to_identity_map(rng, n, K)
        phi = random_invertible_map(rng, n, K)
        g = conjugate(f, phi)
        assert conjugate(g, phi.inverse()) == f


def test_conjugation_is_a_group_action():
    rng = random.Random(50)
    for _ in range(8):
        n = rng.choice((1, 2))
        f = random_tangent_to_identity_map(rng, n, K)
        phi = random_invertible_map(rng, n, K)
        psi = random_invertible_map(rng, n, K)
        assert conjugate(f, psi.compose(phi)) == conjugate(
            conjugate(f, phi), psi
        )


def test_conjugacy_report_is_per_label():
    z = z1()
    f = FormalMap([z + z * z])
    good = FormalMap([z + Fraction(1, 2) * z * z])
    bad = FormalMap([z])
    phi = FormalMap([2 * z])
    report = is_order_k_conjugacy(phi, [f, f], [good, bad], 3, labels=["a", "b"])
    assert not report.ok
    assert report.per_index[0].ok and report.per_index[0].label == "a"
    assert not report.per_index[1].ok


def test_conjugacy_argument_validation():
    z = z1()
    f = FormalMap([z])
    phi = FormalMap([2 * z])
    with pytest.raises(ValueError):
        is_order_k_conjugacy(phi, [f], [f], 0)
    with pytest.raises(ValueError):
        is_order_k_conjugacy(phi, [f, f], [f], 2)
    with pytest.raises(ValueError):
        is_order_k_conjugacy(phi, [f], [f], 2, labels=["a", "b"])


def test_conjugacy_needs_enough_precision():
    z = z1(3)
    f = FormalMap([z + z * z])
    phi = FormalMap([2 * z])
    with pytest.raises(PrecisionError):
        is_order_k_conjugacy(phi, [f], [f], 5)


def test_conjugacy_flip_under_low_degree_perturbation():
    rng = random.Random(51)
    for _ in range(20):
        n = rng.choice((1, 2))
        f = random_tangent_to_identity_map(rng, n, K)
        phi = random_invertible_map(rng, n, K)
        g = conjugate(f, phi)
        k = rng.randint(2, K)
        d = rng.randint(1, K)
        exps = [0] * n
        exps[rng.randrange(n)] = d
        comps = list(g.components)
        slot = rng.randrange(n)
        comps[slot] = comps[slot] + FormalSeries.monomial(n, K, tuple(exps), 1)
        disturbed = FormalMap(comps)
        verdict = is_order_k_conjugacy(phi, [f], [disturbed], k).ok
        assert verdict == (d >= k)


# -- pushforward ------------------------------------------------------------


def test_pushforward_of_quadratic_field():
    z = z1()
    xi = VectorField([z * z])
    phi = FormalMap([2 * z])
    out = pushforward_field(xi, phi)
    assert out.truncation == K - 1
    assert out == VectorField([(Fraction(1, 2) * z * z).truncate(K - 1)])


def test_pushforward_of_linear_field_is_matrix_conjugation():
    a = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]]
    p = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    xi = line_field(*a)
    zz = FormalSeries.variable(2, K, 0)
    ww = FormalSeries.variable(2, K, 1)
    phi = FormalMap(
        [p[0][0] * zz + p[0][1] * ww, p[1][0] * zz + p[1][1] * ww]
    )
    expected_matrix = mat_mul(mat_mul(p, a), mat_inv2(p))
    out = pushforward_field(xi, phi)
    assert out == line_field(*expected_matrix, trunc=K - 1)


def test_pushforward_along_identity():
    rng = random.Random(52)
    ident = FormalMap.identity(2, K)
    for _ in range(5):
        comps = [random_series(rng, 2, K, min_order=1) for _ in range(2)]
        xi = VectorField(comps)
        assert pushforward_field(xi, ident) == xi.truncate(K - 1)


def test_pushforward_round_trip():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.choice((1, 2))
        comps = [random_series(rng, n, K, min_order=1) for _ in range(n)]
        xi = VectorField(comps)
        phi = random_invertible_map(rng, n, K)
        eta = pushforward_field(xi, phi)
        back = pushforward_field(eta, phi.inverse())
        assert back == xi.truncate(back.truncation)


def test_pushforward_functoriality():
    rng = random.Random(54)
    for _ in range(8):
        n = rng.choice((1, 2))
        comps = [random_series(rng, n, K, min_order=1) for _ in range(n)]
        xi = VectorField(comps)
        phi = random_invertible_map(rng, n, K)
        psi = random_invertible_map(rng, n, K)
        direct = pushforward_field(xi, psi.compose(phi))
        staged = pushforward_field(pushforward_field(xi, phi), psi)
        bound = min(direct.truncation, staged.truncation)
        assert direct.truncate(bound) == staged.truncate(bound)


def test_field_equivalence_verdict_for_exact_pair():
    z = z1()
    xi = VectorField([z * z])
    eta = VectorField([Fraction(1, 2) * z * z])
    phi = FormalMap([2 * z])
    for k in range(1, K):
        assert is_order_k_field_equivalence(phi, [xi], [eta], k).ok


def test_field_equivalence_detects_scaling():
    z = z1()
    xi = VectorField([z * z])
    phi = FormalMap([2 * z])
    report = is_order_k_field_equivalence(phi, [xi], [xi], 3)
    assert not report.ok
    assert report.per_index[0].discrepancy_order == 2


def test_field_equivalence_flip_under_low_degree_perturbation():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.choice((1, 2))
        comps = [random_series(rng, n, K, min_order=1) for _ in range(n)]
        xi = VectorField(comps)
        phi = random_invertible_map(rng, n, K)
        eta = pushforward_field(xi, phi)
        k = rng.randint(2, K - 1)
        d = rng.randint(1, K - 1)
        exps = [0] * n
        exps[rng.randrange(n)] = d
        comps = list(eta.components)
        slot = rng.randrange(n)
        comps[slot] = comps[slot] + FormalSeries.monomial(
            n, eta.truncation, tuple(exps), 1
        )
        disturbed = VectorField(comps)
        verdict = is_order_k_field_equivalence(phi, [xi], [disturbed], k).ok
        assert verdict == (d >= k)


def test_field_equivalence_respects_order_k_agreement():
    rng = random.Random(56)
    for _ in range(10):
        n = rng.choice((1, 2))
        k = rng.randint(2, 4)
        comps = [random_series(rng, n, K, min_order=1) for _ in range(n)]
        xi = VectorField(comps)
        bumped = [
            c + random_series(rng, n, K, min_order=k) for c in xi.components
        ]
        phi = random_invertible_map(rng, n, K)
        eta = pushforward_field(VectorField(bumped), phi)
        assert is_order_k_field_equivalence(phi, [xi], [eta], k).ok


def test_field_equivalence_needs_enough_precision():
    z = z1(3)
    xi = VectorField([z * z])
    phi = FormalMap([2 * z1()])
    assert not is_order_k_field_equivalence(phi, [xi], [xi], 4).ok
    with pytest.raises(PrecisionError):
        is_order_k_field_equivalence(phi, [xi], [xi], 5)


def test_pushforward_dimension_check():
    xi = VectorField([z1() * z1()])
    with pytest.raises(DimensionError):
        pushforward_field(xi, FormalMap.identity(2, K))


# -- guards -----------------------------------------------------------------

SINGULAR = "formal map has singular linear part"


def plane(trunc=K):
    return FormalSeries.variable(2, trunc, 0), FormalSeries.variable(2, trunc, 1)


def test_singular_map_is_refused_by_dynamics_checks():
    x, y = plane()
    flat = FormalMap([x, x + y * y])
    f = FormalMap([x + y * y, y])
    xi = VectorField([x * y, y])
    with pytest.raises(InversionError, match=SINGULAR):
        is_order_k_conjugacy(flat, [f], [f], 2)
    with pytest.raises(InversionError, match=SINGULAR):
        is_order_k_field_equivalence(flat, [xi], [xi], 2)
    # empty families transport nothing, so nothing is refused
    assert is_order_k_conjugacy(flat, [], [], 2).ok
    assert is_order_k_field_equivalence(flat, [], [], 2).ok


def test_singular_map_refusal_order_in_dynamics_checks():
    x, y = plane()
    flat = FormalMap([x, x + y * y])
    f, xi = FormalMap([x + y * y, y]), VectorField([x * y, y])
    z = z1()
    # argument checks and the left object's dimension come first
    with pytest.raises(ValueError, match="order must be at least 1"):
        is_order_k_conjugacy(flat, [f], [f], 0)
    with pytest.raises(ValueError, match="families differ in length"):
        is_order_k_field_equivalence(flat, [xi], [], 2)
    with pytest.raises(DimensionError, match="^map dimensions differ$"):
        is_order_k_conjugacy(flat, [FormalMap([z])], [f], 2)
    with pytest.raises(DimensionError, match="^field and map dimensions differ$"):
        is_order_k_field_equivalence(flat, [VectorField([z])], [xi], 2)
    # the right object's dimension and the precision come after
    with pytest.raises(InversionError, match=SINGULAR):
        is_order_k_conjugacy(flat, [f], [FormalMap([z])], 2)
    with pytest.raises(InversionError, match=SINGULAR):
        is_order_k_conjugacy(flat, [f], [f], K + 2)
    with pytest.raises(InversionError, match=SINGULAR):
        is_order_k_field_equivalence(flat, [xi], [VectorField([z])], 2)


def test_map_truncated_at_0_is_refused_by_dynamics_checks():
    x, y = plane(0)
    phi = FormalMap([x, y])
    f, xi = FormalMap([x, y]), VectorField([x, y])
    with pytest.raises(PrecisionError, match="^the linear part of a map truncated at 0"):
        is_order_k_conjugacy(phi, [f], [f], 1)
    with pytest.raises(PrecisionError, match="^the linear part of a map truncated at 0"):
        is_order_k_field_equivalence(phi, [xi], [xi], 1)


def test_dynamics_dimension_error_texts():
    x, y = plane()
    phi = FormalMap([x + y, y])
    f, xi = FormalMap([x + y * y, y]), VectorField([x * y, y])
    z = z1()
    with pytest.raises(DimensionError, match="^map dimensions differ$"):
        is_order_k_conjugacy(phi, [FormalMap([z])], [f], 2)
    with pytest.raises(DimensionError, match="^field and map dimensions differ$"):
        is_order_k_field_equivalence(phi, [VectorField([z])], [xi], 2)
    with pytest.raises(DimensionError, match="^series dimensions differ: 1 vs 2$"):
        is_order_k_conjugacy(phi, [f], [FormalMap([z])], 2)
    with pytest.raises(DimensionError, match="^series dimensions differ: 1 vs 2$"):
        is_order_k_field_equivalence(phi, [xi], [VectorField([z])], 2)


def test_transports_refuse_the_wrong_kind():
    x, y = plane()
    phi = FormalMap([x + y, y])
    f, xi = FormalMap([x + y * y, y]), VectorField([x * y, y])
    as_field = VectorField(phi.components)
    cases = [
        (lambda: conjugate(xi, phi), "^F must be a formal map, got VectorField$"),
        (lambda: conjugate(f, as_field), "^Phi must be a formal map, got VectorField$"),
        (lambda: pushforward_field(f, phi), "^xi must be a vector field, got FormalMap$"),
        (lambda: pushforward_field(xi, as_field), "^Phi must be a formal map, got VectorField$"),
        (lambda: is_order_k_conjugacy(phi, [xi], [f], 2), "^F must be a formal map"),
        (lambda: is_order_k_conjugacy(phi, [f], [xi], 2),
         "^right object 0 must be a formal map, got VectorField$"),
        (lambda: is_order_k_conjugacy(as_field, [f], [f], 2), "^Phi must be a formal map"),
        (lambda: is_order_k_field_equivalence(phi, [f], [xi], 2), "^xi must be a vector field"),
        (lambda: is_order_k_field_equivalence(phi, [xi], [f], 2, labels=["a"]),
         "^right object a must be a vector field, got FormalMap$"),
        (lambda: is_order_k_field_equivalence(as_field, [xi], [xi], 2),
         "^Phi must be a formal map"),
    ]
    for call, message in cases:
        with pytest.raises(TypeError, match=message):
            call()
    # the right kinds still go through
    assert conjugate(f, phi).dimension == 2
    assert pushforward_field(xi, phi).dimension == 2


# -- verdicts against the transport oracle -----------------------------------

IMAG = GaussianRational(0, 1)


def _over(rng, field, n, trunc, **kw):
    f = random_series(rng, n, trunc, **kw)
    if field == "Q(i)":
        f = f + IMAG * random_series(rng, n, trunc, **kw)
    return f


def test_dynamics_verdicts_match_the_transport_oracle():
    rng = random.Random(71)
    combos = list(itertools.product((1, 2, 3), ("Q", "Q(i)")))
    verdicts = []
    for n, field in combos * 3:
        trunc = 4 if n < 3 else 3
        phi = random_invertible_map(rng, n, trunc, higher_density=0.2)
        if field == "Q(i)":
            phi = FormalMap(
                [c + IMAG * random_series(rng, n, trunc, density=0.2, scale=2, min_order=2)
                 for c in phi.components]
            )
        comps = [_over(rng, field, n, trunc, min_order=1, density=0.3) for _ in range(n)]
        f, xi = FormalMap(comps), VectorField(comps)
        # the transported object, perturbed from a random degree on
        j = rng.randint(1, trunc)
        for transport, check, obj, kind in (
            (conjugate, is_order_k_conjugacy, f, FormalMap),
            (pushforward_field, is_order_k_field_equivalence, xi, VectorField),
        ):
            moved = transport(obj, phi)
            bumps = [_over(rng, field, n, moved.truncation, min_order=j) for _ in range(n)]
            target = kind([c + b for c, b in zip(moved.components, bumps)])
            for k in range(1, moved.truncation + 2):
                verdict = check(phi, [obj], [target], k).per_index[0]
                expected = transport_oracle(moved, target, k)
                assert (verdict.ok, verdict.discrepancy_order) == expected
                verdicts.append(expected[0])
    assert verdicts.count(True) >= 60 and verdicts.count(False) >= 30


def _pushforward_by_definition(xi, phi, phi_inv):
    """(DPhi . xi) o Phi^-1, each component of DPhi . xi summed term by
    term and composed with phi_inv."""
    comps = []
    for row in phi.components:
        total = sum((row.derivative(j) * c for j, c in enumerate(xi.components)),
                    FormalSeries(phi.dimension, min(phi.truncation - 1, xi.truncation)))
        comps.append(total)
    return VectorField(comps).compose(phi_inv)


def test_transports_match_the_composition_in_the_other_order():
    """Seeded: over Q, with non-integer coefficients, and over Q(i), for
    n = 1..3, with F and Phi truncated at different degrees, the inverse
    equals the oracle, conjugate equals (Phi o F) o Phi^-1, and
    pushforward_field equals (DPhi . xi) o Phi^-1."""
    rng = random.Random(173)
    for n, field, (k_phi, k_f) in itertools.product((1, 2, 3), ("Q", "Q(i)"), ((4, 3), (3, 5))):
        phi = random_invertible_map(rng, n, k_phi, higher_density=0.4)
        scale = Fraction(2, 3) if field == "Q" else 1 + IMAG / 2
        phi = FormalMap([scale * c for c in phi.components[:1]] + [
            c + _over(rng, field, n, k_phi, min_order=2, density=0.2)
            for c in phi.components[1:]])
        comps = [_over(rng, field, n, k_f, min_order=1, density=0.4) for _ in range(n)]
        f, xi = FormalMap(comps), VectorField(comps)
        inv = inverse_oracle(phi)
        assert phi.inverse() == inv
        assert conjugate(f, phi) == phi.compose(f).compose(inv)
        assert conjugate(f, phi).truncation == min(k_phi, k_f)
        assert pushforward_field(xi, phi) == _pushforward_by_definition(xi, phi, inv)

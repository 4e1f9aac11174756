import itertools
import random
import sys
from fractions import Fraction

import pytest

import germcalc.division
import germcalc.ideals
from germcalc import (
    I as IMAG,
    DimensionError,
    FormalSeries,
    HorizonReport,
    IdealPresentation,
    JetSpace,
    MultiIndex,
    PrecisionError,
    Staircase,
    chain_stabilization,
    formal_division,
    jet_membership,
    membership_up_to,
    monomials_up_to,
    reduce_mod_ideal,
)
from conftest import (
    EliminationJetSpace,
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


def parabola_ideal(trunc=6):
    t1, t2 = t_vars(trunc)
    return IdealPresentation(2, [t1 - t2 * t2])


# -- presentations ----------------------------------------------------------


def test_presentation_basics():
    I = parabola_ideal()
    assert I.dimension == 2
    assert I.generators
    assert I.generator_truncation == 6
    Z = IdealPresentation(2, [])
    assert not Z.generators
    assert Z.generator_truncation is None


def test_presentation_dimension_mismatch():
    with pytest.raises(DimensionError):
        IdealPresentation(2, [FormalSeries.variable(3, 4, 0)])


def test_zero_generators_are_dropped():
    t1, _ = t_vars(4)
    I = IdealPresentation(2, [FormalSeries.zero(2, 4), t1])
    assert len(I.generators) == 1


def test_zero_generators_keep_their_truncation():
    # a zero generator known only to degree 2 bounds what the ideal knows
    t1, _ = t_vars(6)
    zero = IdealPresentation(2, [FormalSeries.zero(2, 2)])
    assert not zero.generators and zero.generator_truncation == 2
    assert IdealPresentation(2, [t1, FormalSeries.zero(2, 2)]).generator_truncation == 2
    assert zero.diagram(2).sorted_vertices() == []
    for ideal in (zero, IdealPresentation(2, [t1 * t1, FormalSeries.zero(2, 2)])):
        with pytest.raises(PrecisionError) as err:
            ideal.diagram(5)
        assert str(err.value) == "jet degree 5 exceeds generator truncation 2"
        with pytest.raises(PrecisionError):
            jet_membership(t1, ideal, 6)


# -- jet spaces -------------------------------------------------------------


def test_jet_basis_of_parabola():
    I = parabola_ideal()
    js = I.jet_space(2)
    assert js.rank == 3
    assert [tuple(m.exponents) for m in js.pivot_exponents] == [
        (1, 0),
        (2, 0),
        (1, 1),
    ]
    t1, t2 = t_vars(6)
    assert not js.contains(t2 * t2)
    assert js.contains(t1 - t2 * t2)


def test_jet_basis_is_monic_and_interreduced():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(1, 3)
        I = random_ideal(rng, n, 5)
        js = I.jet_space(4)
        pivots = js.pivot_exponents
        assert pivots == sorted(pivots, key=lambda m: m.sort_key)
        for i, b in enumerate(js.basis):
            assert b.coefficient(pivots[i]) == 1
            for j, other in enumerate(pivots):
                if j != i:
                    assert b.coefficient(other) == 0


def test_jet_space_of_zero_and_unit_ideals():
    Z = IdealPresentation(2, [])
    assert Z.jet_space(3).rank == 0
    U = IdealPresentation(2, [FormalSeries.constant(2, 4, 1)])
    js = U.jet_space(2)
    # the unit ideal's 2-jets are every polynomial of degree <= 2
    assert js.rank == 6


def test_jet_space_equality_and_containment():
    I = parabola_ideal()
    a = I.jet_space(3)
    b = I.jet_space(3)
    assert a == b
    c = I.jet_space(2)
    assert a != c


def test_jet_space_representation_is_canonical():
    # the same span reached through different insertion orders must compare
    # equal, otherwise equality would depend on presentation history
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(1, 3)
        gens = [random_series(rng, n, 5, density=0.5) for _ in range(3)]
        spans = [g for g in gens if not g.is_zero]
        if not spans:
            continue
        forward = JetSpace(n, 4, spans)
        backward = JetSpace(n, 4, list(reversed(spans)))
        mixed = JetSpace(n, 4, [spans[-1]] + spans[:-1])
        assert forward == backward == mixed


def test_jet_ideal_needs_precision():
    I = parabola_ideal(4)
    with pytest.raises(PrecisionError):
        I.jet_space(5)


def test_truncation_coherence():
    # j^k I is recovered from the basis of j^l I for l >= k
    rng = random.Random(14)
    for _ in range(8):
        n = rng.randint(1, 2)
        I = random_ideal(rng, n, 6)
        k, l = 3, 5
        finer = I.jet_space(l)
        rebuilt = JetSpace(n, k, [b.truncate(k) for b in finer.basis])
        assert rebuilt == I.jet_space(k)


def test_jet_space_against_dense_oracle():
    rng = random.Random(15)
    for _ in range(15):
        n = rng.randint(1, 3)
        I = random_ideal(rng, n, 6)
        d = rng.randint(1, 5)
        js = I.jet_space(d)
        for _ in range(5):
            f = random_series(rng, n, 6)
            assert js.contains(f.truncate(d)) == dense_membership_oracle(f.truncate(d), I, d + 1)


def _jet_case(rng, kind, field, n, count, trunc):
    """An ideal of `count` generators over the field.  For "unit" the first
    has a nonzero constant term; for "high-order" all start at one order
    from 2 to trunc, so every jet degree below it sees the zero ideal."""
    low = rng.randint(2, trunc) if kind == "high-order" else 1
    gens = [_series_over(rng, field, n, trunc, min_order=low, density=0.3) for _ in range(count)]
    if kind == "unit":
        gens[0] = gens[0] + rng.choice([1, -2, Fraction(1, 3)])
    return IdealPresentation(n, gens)


def test_jet_space_matches_macaulay_elimination():
    trunc = 5
    kinds = ("generic", "unit", "high-order")
    combos = list(itertools.product(kinds, ("Q", "Q(i)"), (1, 2, 3), (1, 2, 3)))
    rng = random.Random(31)
    shapes = []
    for kind, field, n, count in combos * 2:
        ideal = _jet_case(rng, kind, field, n, count, trunc)
        for d in range(trunc + 1):
            js, oracle = ideal.jet_space(d), EliminationJetSpace(ideal, d)
            case = (kind, field, n, count, d)
            assert js.pivot_exponents == oracle.pivot_exponents, case
            assert js.rank == len(oracle.pivots), case
            assert js.basis == oracle.basis, case
            assert js.staircase().vertices == oracle.staircase().vertices, case
            for _ in range(3):
                f = _series_over(rng, field, n, trunc)
                assert js.reduce(f) == oracle.reduce(f), case
            full = len(list(monomials_up_to(n, d)))
            shapes.append("zero" if not js.rank else "full" if js.rank == full else "proper")
    assert len(shapes) == 648
    assert shapes.count("zero") >= 120 and shapes.count("full") >= 160
    assert shapes.count("proper") >= 200


def test_jet_space_basis_is_kept():
    # the rows are built once and handed out again, not rebuilt per read
    js = parabola_ideal().jet_space(4)
    first, second = js.basis, js.basis
    assert len(first) == js.rank and all(a is b for a, b in zip(first, second))


# -- diagrams ---------------------------------------------------------------


def test_diagram_of_parabola_is_principal():
    I = parabola_ideal()
    assert I.diagram(4) == Staircase(2, [(1, 0)])


def test_diagram_of_single_variable():
    t1, _ = t_vars(5)
    I = IdealPresentation(2, [t1])
    for d in range(1, 6):
        assert I.diagram(d) == Staircase(2, [(1, 0)])


def test_diagram_of_unit_ideal():
    U = IdealPresentation(2, [FormalSeries.constant(2, 4, 1)])
    assert U.diagram(3) == Staircase(2, [(0, 0)])


def test_diagram_of_zero_ideal_is_empty():
    Z = IdealPresentation(2, [])
    assert not Z.diagram(3).vertices


def test_diagram_chain_of_parabola_is_constant():
    I = parabola_ideal()
    chain = [I.diagram(d) for d in range(1, 7)]
    assert all(st == Staircase(2, [(1, 0)]) for st in chain)
    assert chain_stabilization(chain) == 0


def test_diagram_chain_with_late_vertex():
    # the S-polynomial t2^5 = t2^2(t1^2 + t2^3) - t1(t1 t2^2) only becomes
    # visible at degree five
    t1, t2 = t_vars(8)
    I = IdealPresentation(2, [t1 * t1 + t2 * t2 * t2, t1 * t2 * t2])
    chain = [I.diagram(d) for d in range(1, 9)]
    assert not chain[0].vertices
    assert chain[1] == Staircase(2, [(2, 0)])
    assert chain[2] == Staircase(2, [(2, 0), (1, 2)])
    assert chain[3] == Staircase(2, [(2, 0), (1, 2)])
    assert chain[4] == Staircase(2, [(2, 0), (1, 2), (0, 5)])
    assert chain[7] == Staircase(2, [(2, 0), (1, 2), (0, 5)])
    assert chain_stabilization(chain) == 4


def test_diagrams_are_increasing_and_stable_regions():
    rng = random.Random(16)
    for _ in range(12):
        n = rng.randint(1, 3)
        I = random_ideal(rng, n, 6)
        previous = None
        for d in range(1, 7):
            st = I.diagram(d)
            if previous is not None:
                for v in previous.vertices:
                    assert st.contains(v)
            previous = st


# -- membership -------------------------------------------------------------


def test_jet_membership_of_square_term():
    I = parabola_ideal()
    _, t2 = t_vars(6)
    assert jet_membership(t2 * t2, I, 2)
    assert not jet_membership(t2 * t2, I, 3)


def test_jet_membership_of_explicit_multiple():
    I = parabola_ideal()
    t1, t2 = t_vars(6)
    f = t2 * (t1 - t2 * t2)
    for k in range(1, 7):
        assert jet_membership(f, I, k)


def test_membership_scan_finds_first_failure():
    I = parabola_ideal()
    t1, _ = t_vars(6)
    scan = membership_up_to(t1, I, 6)
    assert isinstance(scan, HorizonReport)
    assert not scan
    assert scan.first_failure == 3
    assert scan.bound == 6
    # membership is monotone in k, so the scan stops at the first failure
    assert scan.per_order == ((1, True), (2, True), (3, False))


def test_membership_scan_of_members():
    I = parabola_ideal()
    t1, t2 = t_vars(6)
    scan = membership_up_to(t2 * (t1 - t2 * t2), I, 6)
    assert scan
    assert scan.first_failure is None
    assert scan.per_order == tuple((k, True) for k in range(1, 7))
    assert membership_up_to(FormalSeries.zero(2, 6), I, 6)


def test_constructed_members_always_pass():
    rng = random.Random(18)
    for _ in range(15):
        n = rng.randint(1, 3)
        I = random_ideal(rng, n, 6)
        combo = FormalSeries.zero(n, 6)
        for g in I.generators:
            combo = combo + random_series(rng, n, 6, density=0.3) * g
        assert membership_up_to(combo, I, 6)


def test_membership_against_dense_oracle():
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(1, 3)
        I = random_ideal(rng, n, 6)
        f = random_series(rng, n, 6)
        k = rng.randint(1, 6)
        assert jet_membership(f, I, k) == dense_membership_oracle(f, I, k)


# -- principal ideals by division -------------------------------------------


def _series_over(rng, field, n, trunc, **kw):
    f = random_series(rng, n, trunc, **kw)
    if field == "Q(i)":
        f = f + IMAG * random_series(rng, n, trunc, **kw)
    return f


def _principal_case(rng, kind, field, n, trunc=5):
    """(f, generator, k) for one seeded one-generator membership case."""
    k = rng.randint(1, trunc)
    g = _series_over(rng, field, n, trunc, min_order=1, density=0.3)
    if kind == "unit":
        g = g + rng.choice([1, -2, Fraction(1, 3)])
    elif kind == "high-order":
        # every term of g lies beyond the jet degree k - 1
        g = _series_over(rng, field, n, trunc, min_order=k, density=0.3)
    while g.is_zero:
        g = g + random_nonzero_series(rng, n, trunc, min_order=1)
    if kind == "zero-f":
        f = FormalSeries.zero(n, trunc)
    elif kind == "member":
        j = rng.randint(1, trunc)
        h = _series_over(rng, field, n, trunc, density=0.3)
        f = h * g + _series_over(rng, field, n, trunc, min_order=j, density=0.3)
    elif kind == "high-order":
        f = _series_over(rng, field, n, trunc, min_order=rng.choice([0, k]))
    else:
        f = _series_over(rng, field, n, trunc)
    return f, g, k


def test_principal_membership_by_division_matches_oracles():
    kinds = ("generic", "unit", "high-order", "zero-f", "member")
    combos = list(itertools.product(kinds, ("Q", "Q(i)"), (1, 2, 3)))
    rng = random.Random(23)
    verdicts = []
    for kind, field, n in combos * 8:
        f, g, k = _principal_case(rng, kind, field, n)
        ideal = IdealPresentation(n, [g])
        member = jet_membership(f, ideal, k)
        assert member == dense_membership_oracle(f, ideal, k), (kind, field, n, k)
        # the jet space stays the reference path
        assert member == ideal.jet_space(k - 1).contains(f.truncate(k - 1))
        verdicts.append(member)
    assert len(verdicts) == 240
    assert verdicts.count(True) >= 60 and verdicts.count(False) >= 60


def test_principal_membership_builds_no_jet_space(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a jet space was built")

    monkeypatch.setattr(germcalc.ideals, "JetSpace", refuse)
    t1, t2 = t_vars(6)
    principal = parabola_ideal()
    assert jet_membership(t2 * (t1 - t2 * t2), principal, 6)
    assert not jet_membership(t1, principal, 3)
    # coprime initial exponents: (t1, t2^2) is a standard basis as it stands
    assert not jet_membership(t2, IdealPresentation(2, [t1, t2 * t2]), 3)
    # t1 and t1 + t2^2 share t1, so their S-pair at degree 2 needs reducing
    with pytest.raises(AssertionError, match="jet space was built"):
        jet_membership(t1, IdealPresentation(2, [t1, t1 + t2 * t2]), 3)


# -- presentations that are already standard bases -------------------------


def _led_by(rng, field, n, trunc, exponent):
    """A series whose initial exponent is the given one; later terms of
    its degree keep S-polynomials at the lcm degree from vanishing."""
    lead = MultiIndex(exponent)
    tail = _series_over(rng, field, n, trunc, min_order=lead.degree, density=0.3)
    terms = {m: c for m, c in tail.terms.items() if m > lead}
    terms[lead] = rng.choice([1, -2, Fraction(1, 3)])
    return FormalSeries(n, trunc, terms)


def _standard_case(rng, kind, field, n, count, trunc):
    """A presentation of `count` generators over the field.  Their initial
    exponents are pairwise coprime ("coprime": each variable goes to at
    most one generator, so one with none is a unit) or all divisible by
    the first variable ("shared"); or the first generator is a unit
    ("unit"), one starts at an order from 2 to trunc ("high-order"), or a
    zero generator is presented among them ("zero"), the rest random."""
    if kind == "coprime":
        owner = [rng.randrange(count + 1) for _ in range(n)]
        return IdealPresentation(n, [
            _led_by(rng, field, n, trunc,
                    [rng.randint(1, 2) if owner[v] == j else 0 for v in range(n)])
            for j in range(count)])
    if kind == "shared":
        return IdealPresentation(n, [
            _led_by(rng, field, n, trunc, [rng.randint(1, 2)] + [rng.randint(0, 1)
                                                                  for _ in range(n - 1)])
            for _ in range(count)])
    gens = [random_nonzero_series(rng, n, trunc, min_order=1, density=0.3)
            for _ in range(count)]
    if kind == "unit":
        gens[0] = gens[0] + rng.choice([1, -2, Fraction(1, 3)])
    elif kind == "high-order":
        gens[0] = random_nonzero_series(rng, n, trunc, min_order=rng.randint(2, trunc))
    else:
        gens.insert(rng.randint(0, count), FormalSeries.zero(n, trunc))
    return IdealPresentation(n, gens)


def test_standard_presentations_match_the_jet_space_and_elimination():
    kinds = ("coprime", "shared", "unit", "high-order", "zero")
    combos = list(itertools.product(kinds, ("Q", "Q(i)"), (1, 2, 3), (1, 2, 3)))
    rng = random.Random(43)
    below, verdicts = [], []
    for kind, field, n, count in combos:
        trunc = 3 if n == 3 else 4
        ideal = _standard_case(rng, kind, field, n, count, trunc)
        if kind == "zero":
            assert len(ideal.generators) == count
        for d in range(trunc + 1):
            case = (kind, field, n, count, d)
            below.append(d < ideal._standard_below)
            probes = [_series_over(rng, field, n, trunc, density=0.3)]
            for g in ideal.generators:
                probes.append(probes[-1] + _series_over(rng, field, n, trunc, density=0.3) * g)
            # asked before the jet space is cached, then against it and elimination
            diagram = ideal.diagram(d)
            members = [jet_membership(f, ideal, d + 1) for f in probes]
            js, oracle = ideal.jet_space(d), EliminationJetSpace(ideal, d)
            assert diagram == js.staircase() == oracle.staircase(), case
            for f, member in zip(probes, members):
                assert member == js.contains(f) == oracle.reduce(f).is_zero, case
            verdicts += members
    assert below.count(True) >= 250 and below.count(False) >= 60
    assert verdicts.count(True) >= 500 and verdicts.count(False) >= 400


def test_coprime_initial_exponents_build_no_jet_space(monkeypatch):
    t1, t2 = t_vars(6)
    standard = IdealPresentation(2, [t1 + t2 * t2, t2 * t2 * t2])
    # (1,0) and (1,1) share t1: at degree 2 and above the jet space decides
    shared = IdealPresentation(2, [t1 + t2 * t2, t1 * t2])
    assert standard._standard_below == float("inf") and shared._standard_below == 2
    assert IdealPresentation(2, [t1])._standard_below == float("inf")
    assert IdealPresentation(2, [])._standard_below == float("inf")
    def refuse(*args, **kwargs):
        raise AssertionError("a jet space was built")

    monkeypatch.setattr(germcalc.ideals, "JetSpace", refuse)
    assert standard.diagram(6) == Staircase(2, [(1, 0), (0, 3)])
    assert jet_membership(t2 * t2 * t2 * t1, standard, 7)
    assert not jet_membership(t2 * t2, standard, 3)
    assert shared.diagram(1) == Staircase(2, [(1, 0)])
    assert jet_membership(t1 * t1, shared, 2)
    with pytest.raises(AssertionError, match="jet space was built"):
        shared.diagram(2)


def test_the_shortcut_keeps_the_jet_space_errors():
    t1, t2 = t_vars(2)
    x1 = FormalSeries.variable(2, 4, 0)
    standard = IdealPresentation(2, [t1 * t1, t2])  # coprime: no jet space at any degree
    shared = IdealPresentation(2, [t1, t1 + t2 * t2])  # a jet space from degree 1 on
    for ideal in (standard, shared):
        for ask in (lambda: ideal.diagram(-1), lambda: ideal.jet_space(-1)):
            with pytest.raises(ValueError, match="^jet degree must be a natural number$"):
                ask()
        for ask in (lambda: ideal.diagram(3), lambda: jet_membership(x1, ideal, 4)):
            with pytest.raises(PrecisionError,
                               match="^jet degree 3 exceeds generator truncation 2$"):
                ask()
        with pytest.raises(DimensionError):
            jet_membership(FormalSeries.variable(3, 2, 0), ideal, 2)
    with pytest.raises(DimensionError):
        IdealPresentation(2, [t1, FormalSeries.variable(3, 2, 2)])


def test_presentations_compare_by_generators():
    t1, t2 = t_vars(4)
    I = IdealPresentation(2, [t1, t2 * t2])
    assert I == IdealPresentation(2, [t1, FormalSeries.zero(2, 4), t2 * t2])
    assert I != IdealPresentation(2, [t2 * t2, t1])
    assert I != IdealPresentation(2, [t1, t2 * t2.truncate(3)])
    assert I != IdealPresentation(2, [t1, t2 * t2, FormalSeries.zero(2, 3)])
    assert IdealPresentation(2, []) != IdealPresentation(2, [FormalSeries.zero(2, 2)])
    assert IdealPresentation(2, []) != IdealPresentation(3, [])
    assert I != I.generators
    x, y = FormalSeries.variable(2, 3, 0), FormalSeries.variable(2, 3, 1)
    assert repr(IdealPresentation(2, [x])) != repr(IdealPresentation(2, [y]))
    assert repr(x) in repr(IdealPresentation(2, [x]))
    with pytest.raises(TypeError):
        hash(I)


def test_principal_membership_keeps_the_precision_error():
    principal = parabola_ideal(4)
    _, t2 = t_vars(8)
    with pytest.raises(PrecisionError) as err:
        jet_membership(t2 * t2, principal, 6)
    assert str(err.value) == "jet degree 5 exceeds generator truncation 4"


# -- membership stops at the first remainder term ------------------------------


def _membership_case(rng, field, n, count, trunc, combined):
    """(ideal, f, k): f a combination of the generators plus a tail from a
    random order on when combined, else a random series."""
    gens = [_series_over(rng, field, n, trunc, min_order=rng.randint(1, 2), density=0.4)
            for _ in range(count)]
    gens = [g if not g.is_zero else random_nonzero_series(rng, n, trunc, min_order=1)
            for g in gens]
    k = rng.randint(2, trunc + 1)
    if not combined:
        return IdealPresentation(n, gens), _series_over(rng, field, n, trunc), k
    f = _series_over(rng, field, n, trunc, min_order=rng.randint(1, trunc + 1), density=0.3)
    for g in gens:
        f = f + _series_over(rng, field, n, trunc, density=0.3) * g
    return IdealPresentation(n, gens), f, k


def test_remainder_only_membership_matches_division_and_oracle():
    combos = list(itertools.product((1, 2, 3), ("Q", "Q(i)"), (1, 2, 3)))
    rng = random.Random(71)
    verdicts = []
    for i, (n, field, count) in enumerate(combos * 6):
        trunc = 3 if n == 3 else 4
        ideal, f, k = _membership_case(rng, field, n, count, trunc, i % 2 == 0)
        d = k - 1
        jet = f.truncate(d)
        # on any divisors, the early exit returns the full remainder's first term
        full = formal_division(jet, ideal.generators, d).remainder
        first = germcalc.division._divide(jet, ideal.generators, d)
        assert first == dict(sorted(full._table.items())[:1])
        # on the reduced standard basis, every verdict is membership itself
        space = ideal.jet_space(d)
        member = dense_membership_oracle(f, ideal, k)
        assert jet_membership(f, ideal, k) == member, (n, field, count, k)
        assert space.contains(f) == space.reduce(f).is_zero == member
        if space.basis:
            assert formal_division(jet, space.basis, d).remainder.is_zero == member
            assert (not germcalc.division._divide(jet, space.basis, d)) == member
        verdicts.append(member)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


def _count_division_builds(monkeypatch):
    """Record Staircase.__init__ and FormalSeries._from_table calls made
    from division.py."""
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_code.co_filename == germcalc.division.__file__:
                calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Staircase, "__init__", counting("Staircase", Staircase.__init__))
    monkeypatch.setattr(FormalSeries, "_from_table",
                        staticmethod(counting("_from_table", FormalSeries._from_table)))
    return calls


def test_membership_builds_no_quotient_and_no_staircase(monkeypatch):
    t1, t2 = t_vars(6)
    principal = parabola_ideal()
    pair = IdealPresentation(2, [t1 * t1 - t2 * t2 * t2, t1 * t2])
    space = pair.jet_space(5)  # built before counting: the build divides
    calls = _count_division_builds(monkeypatch)
    assert jet_membership(t2 * (t1 - t2 * t2), principal, 6)
    assert not jet_membership(t1, principal, 3)
    assert jet_membership(t1 * t1 * t2, pair, 6)
    assert not jet_membership(t2 * t2, pair, 6)
    assert space.contains(t1 * t2 * t2)
    assert not space.contains(t1 + t2 * t2)
    assert calls == []
    # the guard sees what a full division builds
    formal_division(t1, principal.generators, 5)
    assert sorted(set(calls)) == ["Staircase", "_from_table"]


def test_jet_space_divides_without_quotients(monkeypatch):
    # S-pairs, corners, normal forms and basis rows take the remainder
    # table alone: no quotient series and no Staircase from division.py
    t1, t2 = t_vars(6)
    pair = IdealPresentation(2, [t1 * t1 - t2 * t2 * t2, t1 * t2])
    f = t1 * t1 * t1 + Fraction(1, 3) * t1 * t2 + Fraction(2, 5) * t2 * t2
    calls = _count_division_builds(monkeypatch)
    space = pair.jet_space(5)  # the initial exponents share t1: one S-pair
    reduced = space.reduce(f)
    rows = space.basis
    normal = reduce_mod_ideal(f, pair, 5)
    assert calls == []
    corners = list(space._corners.values())
    assert reduced == normal == formal_division(f.truncate(5), corners, 5).remainder
    assert reduced == FormalSeries(2, 5, {(0, 2): Fraction(2, 5)})
    assert [x - formal_division(x, corners, 5).remainder for x in
            (FormalSeries.monomial(2, 5, m) for m in space.pivot_exponents)] == rows


# -- jet dimensions read off the generators -----------------------------------


def test_jet_dimension_matches_the_jet_space_rank():
    # below the presentation's threshold the dimension of (I + m^k)/m^k is
    # counted from the initial exponents alone; above it there is none
    rng = random.Random(83)
    counted = multi = unread = 0
    for _ in range(300):
        n, trunc = rng.randint(1, 3), rng.randint(1, 5)
        gens = []
        for _ in range(rng.randint(0, 4)):
            # a chosen leading monomial (units included) over a random tail,
            # so that initial exponents often share no variable
            lead = tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
            if rng.random() < 0.1 or sum(lead) > trunc:
                gens.append(FormalSeries.zero(n, trunc))
                continue
            coeff = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            if rng.random() < 0.5:
                coeff = coeff * IMAG + rng.randint(-2, 2)
            tail = random_series(rng, n, trunc, min_order=sum(lead) + 1, density=0.3)
            gens.append(FormalSeries.monomial(n, trunc, lead, coeff) + tail)
        ideal = IdealPresentation(n, gens)
        for k in range(1, trunc + 2):
            dim = germcalc.ideals._jet_dimension(ideal, k)
            if dim is None:
                unread += 1
                continue
            assert dim == JetSpace(n, k - 1, ideal.generators).rank, (gens, k)
            counted += 1
            multi += len(ideal.generators) > 1
    assert counted > 600 and multi > 250 and unread > 50
    # many coprime exponents would make 2^generators sets: none is read
    xs = [FormalSeries.variable(30, 5, i) for i in range(30)]
    assert germcalc.ideals._jet_dimension(IdealPresentation(30, xs[:5]), 6) == 182_126
    assert germcalc.ideals._jet_dimension(IdealPresentation(30, xs), 6) is None

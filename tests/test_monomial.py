import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from germcalc import (
    DimensionError,
    LimitError,
    MultiIndex,
    Staircase,
    chain_stabilization,
    compare,
    monomials_up_to,
    vertex_extraction,
)
from germcalc.monomial import FIELD_BITS, MAX_DEGREE, guard_bits, pack, unpack

# -- oracles ----------------------------------------------------------------
#
# Written independently of the library: the order reads the extended tuple
# (a_1, ..., a_n, |a|) from its rightmost entry leftwards, ascending.


def oracle_compare(a, b):
    ea = tuple(a) + (sum(a),)
    eb = tuple(b) + (sum(b),)
    for x, y in zip(reversed(ea), reversed(eb)):
        if x != y:
            return -1 if x < y else 1
    return 0


def oracle_dominates(a, b):
    return all(x >= y for x, y in zip(a, b))


def oracle_region_member(points, a):
    return any(oracle_dominates(a, p) for p in points)


exponents2 = st.tuples(st.integers(0, 6), st.integers(0, 6))
exponents3 = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))


# -- the order --------------------------------------------------------------


def test_degree_decides_first():
    assert compare(MultiIndex((1, 0)), MultiIndex((0, 2))) == -1
    assert compare(MultiIndex((0, 2)), MultiIndex((1, 0))) == 1


def test_rightmost_entry_breaks_degree_ties():
    assert compare(MultiIndex((1, 0)), MultiIndex((0, 1))) == -1
    # ties at |a| = 3 and a_3 = 0 fall through to a_2: 1 < 2
    assert compare(MultiIndex((2, 1, 0)), MultiIndex((1, 2, 0))) == -1
    assert compare(MultiIndex((1, 2, 0)), MultiIndex((2, 1, 0))) == 1


def test_compare_equal():
    assert compare(MultiIndex((2, 1)), MultiIndex((2, 1))) == 0


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionError):
        compare(MultiIndex((1, 0)), MultiIndex((1, 0, 0)))


def test_compare_exhaustive_against_oracle():
    universe = [p for p in itertools.product(range(4), repeat=3)]
    for a, b in itertools.product(universe, repeat=2):
        assert compare(MultiIndex(a), MultiIndex(b)) == oracle_compare(a, b)


@given(exponents3, exponents3, exponents3)
def test_total_order_laws(a, b, c):
    ma, mb, mc = MultiIndex(a), MultiIndex(b), MultiIndex(c)
    assert compare(ma, mb) == -compare(mb, ma)
    assert (compare(ma, mb) == 0) == (a == b)
    if compare(ma, mb) <= 0 and compare(mb, mc) <= 0:
        assert compare(ma, mc) <= 0


@given(exponents3, exponents3, exponents3)
def test_order_respects_translation(a, b, c):
    ma, mb, mc = MultiIndex(a), MultiIndex(b), MultiIndex(c)
    assert compare(ma + mc, mb + mc) == compare(ma, mb)


@given(exponents2, exponents2)
def test_lower_degree_comes_first(a, b):
    if sum(a) < sum(b):
        assert compare(MultiIndex(a), MultiIndex(b)) == -1


def test_rich_comparisons_match_compare():
    a, b = MultiIndex((1, 1)), MultiIndex((0, 2))
    assert a < b and a <= b and b > a and b >= a
    assert not (a > b)


# -- multi-index arithmetic -------------------------------------------------


def test_add_sub_roundtrip():
    a = MultiIndex((3, 1, 0))
    b = MultiIndex((1, 1, 0))
    assert a + b == MultiIndex((4, 2, 0))
    assert a - b == MultiIndex((2, 0, 0))
    assert (a + b) - b == a


def test_sub_requires_divisibility():
    with pytest.raises(ValueError):
        MultiIndex((1, 0)) - MultiIndex((0, 1))


def test_negative_entries_rejected():
    with pytest.raises(ValueError):
        MultiIndex((1, -1))


def test_degree_and_accessors():
    a = MultiIndex((2, 0, 3))
    assert a.degree == 5
    assert a.dimension == 3
    assert a[2] == 3
    assert list(a) == [2, 0, 3]
    assert str(a) == "(2,0,3)"


def test_dominates():
    assert MultiIndex((3, 2)).dominates(MultiIndex((1, 0)))
    assert not MultiIndex((0, 5)).dominates(MultiIndex((1, 0)))


# -- staircases -------------------------------------------------------------


def test_staircase_contains_examples():
    s = Staircase(2, [(1, 0)])
    assert s.contains((3, 2))
    assert not s.contains((0, 5))
    t = Staircase(2, [(2, 0), (1, 1), (0, 3)])
    assert t.contains((1, 2))
    assert not t.contains((1, 0))


def test_vertex_extraction_drops_dominated_points():
    s = vertex_extraction([(2, 0), (1, 1), (3, 0)])
    assert s.vertices == {MultiIndex((2, 0)), MultiIndex((1, 1))}


def test_vertex_extraction_empty():
    s = vertex_extraction([], dimension=2)
    assert not s.vertices
    assert not s.contains((0, 0))
    with pytest.raises(ValueError):
        vertex_extraction([])


def test_vertex_extraction_idempotent_and_order_free():
    pts = [(2, 0), (1, 1), (3, 0), (0, 4), (1, 3)]
    s = vertex_extraction(pts)
    assert vertex_extraction(s.vertices) == s
    assert vertex_extraction(list(reversed(pts))) == s


def test_vertex_extraction_against_dominance_oracle():
    rng = random.Random(7)
    for _ in range(50):
        pts = [
            tuple(rng.randint(0, 5) for _ in range(3))
            for _ in range(rng.randint(1, 12))
        ]
        s = vertex_extraction(pts)
        # every input point is reachable from the vertices
        for p in pts:
            assert s.contains(p)
        # minimality: vertices never dominate each other
        for v, w in itertools.permutations(s.vertices, 2):
            assert not v.dominates(w)
        # membership agrees with the brute-force region test
        for _ in range(20):
            probe = tuple(rng.randint(0, 6) for _ in range(3))
            assert s.contains(probe) == oracle_region_member(pts, probe)


def test_staircase_equality_is_canonical():
    assert Staircase(2, [(1, 0)]) == vertex_extraction([(1, 0), (2, 0)])
    assert not Staircase(2, [(1, 0)]) == Staircase(2, [(0, 1)])
    s = Staircase(2, [(2, 1)])
    assert s == s
    assert Staircase(2, [(1, 0), (3, 0)]) == Staircase(2, [(1, 0)])


def test_staircase_str():
    assert str(Staircase(2, [(1, 0), (0, 2)])) == "[(1,0),(0,2)]"


def test_staircase_dimension_mismatch():
    with pytest.raises(DimensionError):
        Staircase(2, [(1, 0)]).contains((1, 0, 0))


# -- chain stabilization ----------------------------------------------------


def test_constant_chain_stabilizes_at_zero():
    s = Staircase(2, [(1, 0)])
    assert chain_stabilization([s, s, s]) == 0


def test_stabilization_index_of_growing_chain():
    chain = [
        Staircase(2, [(2, 0)]),
        Staircase(2, [(2, 0), (1, 1)]),
        Staircase(2, [(2, 0), (1, 1)]),
        Staircase(2, [(2, 0), (1, 1)]),
    ]
    assert chain_stabilization(chain) == 1


def test_strictly_growing_prefix_reports_no_stabilization():
    chain = [
        Staircase(2, [(3, 0)]),
        Staircase(2, [(2, 0)]),
        Staircase(2, [(1, 0)]),
    ]
    assert chain_stabilization(chain) is None


def test_non_increasing_chain_rejected():
    chain = [Staircase(2, [(1, 0)]), Staircase(2, [(0, 1)])]
    with pytest.raises(ValueError):
        chain_stabilization(chain)
    with pytest.raises(ValueError):
        chain_stabilization([])


# -- monomial enumeration ---------------------------------------------------


def test_monomials_up_to_count_and_order():
    out = list(monomials_up_to(3, 4))
    # binomial(4 + 3, 3) multi-indices of degree <= 4 in three variables
    assert len(out) == 35
    assert all(m.degree <= 4 for m in out)
    assert len(set(out)) == len(out)
    for earlier, later in zip(out, out[1:]):
        assert compare(earlier, later) == -1


# -- packed keys ------------------------------------------------------------
#
# Exponent vectors in n = 1..4 variables whose degree fits a packed key,
# drawn up to and including MAX_DEGREE in one entry or in their sum.


@st.composite
def packable(draw, n, degree=None):
    """An exponent vector of n entries and the given (or a drawn) degree."""
    total = draw(st.integers(0, MAX_DEGREE)) if degree is None else degree
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


@st.composite
def packable_pair(draw):
    n = draw(st.integers(1, 4))
    return draw(packable(n)), draw(packable(n))


@st.composite
def split_pair(draw):
    """Two vectors whose sum still fits, the sum at MAX_DEGREE included."""
    n = draw(st.integers(1, 4))
    whole = draw(packable(n))
    part = tuple(draw(st.integers(0, e)) for e in whole)
    return part, tuple(e - p for e, p in zip(whole, part))


def test_max_degree_is_the_largest_value_below_a_guard_bit():
    assert MAX_DEGREE == 2 ** (FIELD_BITS - 1) - 1
    for n in range(1, 5):
        for i in range(n):
            top = tuple(MAX_DEGREE if j == i else 0 for j in range(n))
            assert unpack(pack(top), n) == top


def test_a_degree_past_the_limit_is_refused():
    for exps in [(MAX_DEGREE + 1,), (MAX_DEGREE, 1), (1, 0, 0, MAX_DEGREE)]:
        with pytest.raises(LimitError, match=str(MAX_DEGREE)):
            pack(exps)


@given(st.integers(1, 4).flatmap(packable))
def test_pack_unpack_round_trip(exps):
    key = pack(exps)
    assert unpack(key, len(exps)) == exps
    assert key >> FIELD_BITS * len(exps) == sum(exps)


@given(packable_pair())
def test_integer_order_is_the_monomial_order(pair):
    a, b = pair
    ka, kb = pack(a), pack(b)
    assert (ka < kb) == (MultiIndex(a).sort_key < MultiIndex(b).sort_key)
    assert (ka == kb) == (a == b)
    assert (ka < kb) == (oracle_compare(a, b) == -1)


def test_integer_order_exhaustive_in_small_degrees():
    for n in range(1, 5):
        exps = [m.exponents for m in monomials_up_to(n, 4)]
        assert sorted(exps, key=pack) == exps


@given(split_pair())
def test_packed_sum_is_the_multi_index_sum(pair):
    a, b = pair
    assert pack(a) + pack(b) == pack((MultiIndex(a) + MultiIndex(b)).exponents)


def _guard_dominates(a, b):
    return not (pack(a) - pack(b)) & guard_bits(len(a))


@given(packable_pair())
def test_guard_bits_decide_divisibility(pair):
    a, b = pair
    assert _guard_dominates(a, b) == MultiIndex(a).dominates(MultiIndex(b))
    assert _guard_dominates(b, a) == MultiIndex(b).dominates(MultiIndex(a))


@given(split_pair())
def test_guard_bits_decide_divisibility_of_sums(pair):
    a, b = pair
    whole = tuple(x + y for x, y in zip(a, b))
    assert _guard_dominates(whole, a) and _guard_dominates(whole, b)
    assert _guard_dominates(a, whole) == (not any(b))


def test_guard_bits_at_the_field_limits():
    for n in range(1, 5):
        for i in range(n):
            top = tuple(MAX_DEGREE if j == i else 0 for j in range(n))
            for j in range(n):
                unit = tuple(int(t == j) for t in range(n))
                assert _guard_dominates(top, unit) == (i == j)
                assert not _guard_dominates(unit, top)

import random
from fractions import Fraction

import pytest

from germcalc import FormalMap, FormalSeries, GaussianRational, I, LimitError, ParseError
from germcalc import expressions
from germcalc.expressions import (
    _MAX_POWER_BITS,
    _power_bits,
    default_variables,
    format_components,
    format_map,
    format_scalar,
    format_series,
    infer_variables,
    parse_components,
    parse_map,
    parse_series,
    real_variables,
)
from conftest import parse_series_oracle, random_invertible_map, random_series

ZW = ["z", "w"]


def s(terms, trunc=4, n=2):
    return FormalSeries(n, trunc, terms)


# -- parsing ----------------------------------------------------------------


def test_parse_polynomial():
    assert parse_series("z + w^2", ZW, 4) == s({(1, 0): 1, (0, 2): 1})
    assert parse_series("w - 2*z - z^2", ZW, 4) == s(
        {(0, 1): 1, (1, 0): -2, (2, 0): -1}
    )


def test_parse_coefficient_forms():
    assert parse_series("3/4*z", ZW, 4) == s({(1, 0): Fraction(3, 4)})
    assert parse_series("-z/2", ZW, 4) == s({(1, 0): Fraction(-1, 2)})
    assert parse_series("i*z", ZW, 4) == s({(1, 0): GaussianRational(0, 1)})
    assert parse_series("(1 - i)*w", ZW, 4) == s({(0, 1): GaussianRational(1, -1)})
    assert parse_series("5", ZW, 4) == FormalSeries.constant(2, 4, 5)
    assert parse_series("i^2", ZW, 4) == FormalSeries.constant(2, 4, -1)


def test_parse_precedence_and_grouping():
    assert parse_series("2*z^3", ["z"], 4) == FormalSeries(1, 4, {(3,): 2})
    assert parse_series("-z^2", ["z"], 4) == FormalSeries(1, 4, {(2,): -1})
    assert parse_series("(z + w)^2", ZW, 4) == s(
        {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    )
    assert parse_series("z - (w - z)", ZW, 4) == s({(1, 0): 2, (0, 1): -1})


def test_multiplication_is_explicit():
    with pytest.raises(ParseError) as err:
        parse_series("2z", ["z"], 4)
    assert err.value.position == 2


def test_division_only_by_nonzero_constants():
    with pytest.raises(ParseError):
        parse_series("w/z", ZW, 4)
    with pytest.raises(ParseError):
        parse_series("z/0", ZW, 4)
    with pytest.raises(ParseError):
        parse_series("z/(w - w)", ZW, 4)
    # a parenthesized constant expression is a constant
    assert parse_series("z/(1+1)", ZW, 4) == s({(1, 0): Fraction(1, 2)})


def test_exponent_against_truncation():
    with pytest.raises(ParseError) as err:
        parse_series("z^5", ZW, 3)
    assert "truncation 3" in str(err.value)
    # scalar powers are untouched by the cap
    assert parse_series("2^5", ZW, 3) == FormalSeries.constant(2, 3, 32)


def test_exponent_must_be_a_literal():
    with pytest.raises(ParseError):
        parse_series("z^w", ZW, 4)
    with pytest.raises(ParseError):
        parse_series("z^(2)", ZW, 4)


def test_unknown_variable_reports_position():
    with pytest.raises(ParseError) as err:
        parse_series("z + q", ZW, 4)
    assert err.value.position == 5
    assert "unknown variable 'q'" in str(err.value)


def test_stray_character_reports_position():
    with pytest.raises(ParseError) as err:
        parse_series("z + $w", ZW, 4)
    assert err.value.position == 5


def test_numbers_are_ascii_digits_only():
    expected = FormalSeries(1, 12, {(1,): 123456789, (10,): 1})
    assert parse_series("0123456789*z + z^10", ["z"], 12) == expected
    for text, column in (("²*z", 1), ("z^²", 3), ("3²", 2)):
        with pytest.raises(ParseError, match="unexpected character '²'") as err:
            parse_series(text, ["z"], 4)
        assert err.value.position == column


def test_reserved_and_duplicate_names():
    with pytest.raises(ValueError):
        parse_series("z", ["i", "z"], 4)
    with pytest.raises(ValueError):
        parse_series("z", ["z", "z"], 4)


def test_empty_and_dangling_input():
    with pytest.raises(ParseError):
        parse_series("", ZW, 4)
    with pytest.raises(ParseError):
        parse_series("z +", ZW, 4)
    with pytest.raises(ParseError):
        parse_series("(z", ZW, 4)


@pytest.mark.parametrize(
    "text",
    ["(" * 3000 + "z" + ")" * 3000, "-" * 3000 + "z"],
    ids=["parentheses", "sign-chain"],
)
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested deeper"):
        parse_series(text, ["z"], 3)


def test_moderate_nesting_still_parses():
    z = FormalSeries.variable(1, 3, 0)
    assert parse_series("(" * 50 + "z" + ")" * 50, ["z"], 3) == z
    assert parse_series("-" * 50 + "z", ["z"], 3) == z
    nested = "(" + "(" * 50 + "z" + ")" * 50 + ", w)"
    assert parse_map(nested, ZW, 3) == FormalMap.identity(2, 3)


def test_scalar_power_estimate():
    assert _power_bits(Fraction(2), 20000) == 40000
    assert _power_bits(Fraction(-5, 3), 10) == 30
    assert _power_bits(GaussianRational(1, 4), 7) == 21
    # powers of 0 and +-1 never grow
    for base in (Fraction(0), Fraction(1), Fraction(-1), GaussianRational(-1)):
        assert _power_bits(base, 999999999) == 0
    # refused by the estimate alone; the power itself is never computed
    assert _power_bits(Fraction(2), 999999999) > _MAX_POWER_BITS
    assert _power_bits(GaussianRational(0, 1), 999999999) > _MAX_POWER_BITS


def test_oversized_scalar_power_is_a_parse_error():
    with pytest.raises(ParseError, match="scalar power of about 40000 bits") as err:
        parse_series("2^20000*z + w", ZW, 4)
    assert err.value.position == 3
    big = parse_series("2^4000*z + (-1)^99999 + 0^99", ZW, 4)
    assert big == s({(1, 0): Fraction(2) ** 4000, (0, 0): -1})


def test_parse_map_and_components():
    shear = parse_map("(z, w + z)", ZW, 4)
    assert isinstance(shear, FormalMap)
    z = FormalSeries.variable(2, 4, 0)
    w = FormalSeries.variable(2, 4, 1)
    assert shear.components == (z, w + z)
    comps = parse_components("(1, z^2)", ZW, 4)
    assert comps == [FormalSeries.constant(2, 4, 1), z * z]


def test_map_shape_errors():
    with pytest.raises(ParseError):
        parse_map("z", ZW, 4)  # not a tuple
    with pytest.raises(ParseError):
        parse_map("(z)", ZW, 4)  # one component for two variables
    with pytest.raises(ParseError):
        parse_map("(z, w) + z", ZW, 4)
    with pytest.raises(ParseError) as err:
        parse_series("((z, w))", ZW, 4)
    assert "top level" in str(err.value)


# -- printing ---------------------------------------------------------------


def test_format_scalar_forms():
    assert format_scalar(Fraction(7)) == "7"
    assert format_scalar(Fraction(-3, 4)) == "-3/4"
    assert format_scalar(GaussianRational(0, 1)) == "i"
    assert format_scalar(GaussianRational(0, -1)) == "-i"
    assert format_scalar(GaussianRational(0, Fraction(5, 2))) == "5/2*i"
    assert format_scalar(GaussianRational(1, -1)) == "(1 - i)"
    assert format_scalar(GaussianRational(2, 3)) == "(2 + 3*i)"


def test_format_series_ordering_and_signs():
    assert format_series(s({(1, 0): 1, (0, 2): -1})) == "z - w^2"
    assert format_series(s({(1, 0): -1, (0, 2): 1})) == "-z + w^2"
    assert format_series(s({(0, 0): 2, (1, 0): Fraction(3, 2)})) == "2 + 3/2*z"
    assert format_series(s({(1, 1): GaussianRational(0, -1)})) == "-i*z*w"
    assert format_series(s({})) == "0"
    assert format_series(s({(2, 1): 1})) == "z^2*w"


def test_format_uses_given_names():
    f = FormalSeries(3, 4, {(1, 0, 0): 1, (0, 0, 2): 4})
    assert format_series(f) == "t1 + 4*t3^2"
    assert format_series(f, ["a", "b", "c"]) == "a + 4*c^2"
    with pytest.raises(ValueError):
        format_series(f, ["a", "b"])


def test_format_map():
    z = FormalSeries.variable(2, 4, 0)
    w = FormalSeries.variable(2, 4, 1)
    assert format_map(FormalMap([z, w + z])) == "(z, z + w)"
    assert format_components([z * z, w]) == "(z^2, w)"


def test_round_trip_random_series():
    rng = random.Random(57)
    for _ in range(40):
        n = rng.choice((1, 2, 3))
        f = random_series(rng, n, 4)
        names = default_variables(n)
        assert parse_series(format_series(f, names), names, 4) == f


def test_round_trip_gaussian_series():
    rng = random.Random(58)
    for _ in range(20):
        base = random_series(rng, 2, 4)
        spice = random_series(rng, 2, 4)
        f = base + GaussianRational(0, 1) * spice
        assert parse_series(format_series(f, ZW), ZW, 4) == f


def test_round_trip_random_maps():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.choice((1, 2))
        phi = random_invertible_map(rng, n, 4)
        names = default_variables(n)
        assert parse_map(format_map(phi, names), names, 4) == phi


# -- conventions ------------------------------------------------------------


def test_default_variable_names():
    assert default_variables(1) == ["z"]
    assert default_variables(2) == ["z", "w"]
    assert default_variables(4) == ["t1", "t2", "t3", "t4"]
    assert real_variables(2) == ["x1", "y1", "x2", "y2"]


def test_infer_variables():
    assert infer_variables(["z^2 - z"]) == ["z"]
    assert infer_variables(["w - z", "z"]) == ["z", "w"]
    assert infer_variables(["t1 + t3"]) == ["t1", "t2", "t3"]
    assert infer_variables(["x1*y2"]) == ["x1", "y1", "x2", "y2"]
    assert infer_variables(["1 + i"]) == ["z"]
    assert infer_variables([]) == ["z"]


def test_infer_variables_rejects_mixtures():
    with pytest.raises(ParseError):
        infer_variables(["z + t1"])
    with pytest.raises(ParseError):
        infer_variables(["a + b"])
    with pytest.raises(ParseError):
        infer_variables(["t0"])
    # a digit that int() does not read is no index
    with pytest.raises(ParseError, match="cannot infer a variable set from t²"):
        infer_variables(["t²"])


def test_inferred_variable_sets_are_bounded():
    # the largest inferred sets still infer
    assert len(infer_variables(["t100"])) == 100
    assert infer_variables(["x50*y50"])[-2:] == ["x50", "y50"]
    with pytest.raises(ParseError, match="variable t101 asks for more than 100 inferred"):
        infer_variables(["t1 + t101"])
    with pytest.raises(ParseError, match="variable x51 asks for more than 100 inferred"):
        infer_variables(["x51"])
    with pytest.raises(ParseError, match="variable y51 asks for more than 100 inferred"):
        infer_variables(["x1 - y51"])
    with pytest.raises(ParseError, match="pass the names with --vars"):
        infer_variables(["t" + "1" * 4300])


def test_inferred_index_digits_are_checked_before_conversion():
    for letter in "txy":
        name = letter + "1" * 4301
        with pytest.raises(ParseError) as err:
            infer_variables([name])
        assert str(err.value) == (
            f"variable {letter}11111111111... has an index of 4301 digits, "
            "over the limit of 4300; pass the names with --vars"
        )


def test_oversized_integer_literal_is_a_parse_error():
    with pytest.raises(ParseError, match="literal of 5000 digits") as err:
        parse_series("1" * 5000 + "*z", ["z"], 3)
    assert err.value.position == 1
    with pytest.raises(ParseError, match="literal of 4301 digits") as err:
        parse_series("z^" + "1" * 4301, ["z"], 3)
    assert err.value.position == 3
    # a literal at the limit converts; its size is then up to the bit bound
    assert parse_series("1" * 4300, ["z"], 3).constant_term() == int("1" * 4300)


@pytest.mark.parametrize(
    "text,bits,position",
    [
        ("2^4000*2^4000*2^4000*2^4000*z", 12001, 14),
        ("2^4000*z*2^4000*2^4000", 12001, 16),
        ("1/3^2000 + 1/5^2000 + 1/7^1000", 10622, 21),
        ("z/2^4000/2^4000/2^4000", 12001, 16),
        ("(2^4000*z)^3", 12001, 12),
        ("2^4095*2^4095*z + 2^4095*2^4095*z + 2^4095*2^4095*z + 2^4095*2^4095*z",
         8193, 53),
        ("2^4095*2^4095*z + w + w + 2^4095*2^4095*z + 2^4095*2^4095*z"
         " + 2^4095*2^4095*z", 8193, 61),
    ],
    ids=["scalar-product", "series-product", "sum", "quotient", "series-power",
         "sum-crossing", "sum-crossing-past-other-keys"],
)
def test_oversized_coefficient_is_a_parse_error(text, bits, position):
    with pytest.raises(ParseError, match=f"coefficient of {bits} bits") as err:
        parse_series(text, ZW, 4)
    assert err.value.position == position


def test_coefficients_within_the_bound_still_parse():
    z = FormalSeries.variable(1, 4, 0)
    big = Fraction(2) ** 8000
    assert parse_series("2^4000*2^4000*z", ["z"], 4) == big * z
    assert parse_series("z/2^4000/2^4000", ["z"], 4) == z * (1 / big)


# -- term tables against series arithmetic ----------------------------------


def _random_tree(rng, n, K, depth):
    """A random expression tree over Q and Q(i) in n variables whose powers
    of series stay within truncation K."""
    kinds = ("leaf", "sum", "sum", "product", "product", "power", "minus", "divide")
    kind = rng.choice(kinds if depth else ("leaf",))
    if kind == "leaf":
        return rng.choice((("var", rng.randrange(n)),) * 3 + (("int", rng.randint(0, 9)), ("i",)))
    if kind in ("sum", "product"):
        children = [_random_tree(rng, n, K, depth - 1) for _ in range(rng.randint(2, 3))]
        signs = [rng.choice("+-") for _ in children]
        return (kind, children, signs)
    if kind == "power":
        base = ("sum", [_random_tree(rng, n, K, depth - 1) for _ in range(2)], "++")
        return ("power", base, rng.randint(0, min(K, 3)))
    if kind == "minus":
        return ("minus", _random_tree(rng, n, K, depth - 1))
    constant = rng.choice((("int", rng.randint(1, 9)), ("i",),
                           ("sum", [("int", rng.randint(1, 5)),
                                    ("product", [("int", rng.randint(1, 5)), ("i",)], "++")],
                            "+-")))
    return ("divide", _random_tree(rng, n, K, depth - 1), constant)


def _tree_text(node, names):
    """The text of a tree, parenthesized so that it parses to the same tree."""
    kind = node[0]
    if kind == "var":
        return names[node[1]]
    if kind == "int":
        return str(node[1])
    if kind == "i":
        return "i"
    if kind == "sum":
        parts = [_tree_text(c, names) for c in node[1]]
        body = parts[0] + "".join(f" {sign} {part}" for sign, part in zip(node[2][1:], parts[1:]))
        return f"({body})"
    if kind == "product":
        return "*".join(_grouped(c, names) for c in node[1])
    if kind == "power":
        return f"{_grouped(node[1], names)}^{node[2]}"
    if kind == "minus":
        return f"-{_grouped(node[1], names)}"
    return f"{_grouped(node[1], names)}/{_grouped(node[2], names)}"


def _grouped(node, names):
    text = _tree_text(node, names)
    return text if node[0] in ("var", "int", "i", "sum") else f"({text})"


def _evaluate(node, n, K):
    """A tree evaluated with the FormalSeries operators, one operation for
    each the parser performs."""
    kind = node[0]
    if kind == "var":
        return FormalSeries.variable(n, K, node[1])
    if kind == "int":
        return Fraction(node[1])
    if kind == "i":
        return I
    values = [_evaluate(c, n, K) for c in node[1]] if kind in ("sum", "product") else None
    if kind == "sum":
        value = values[0]
        for sign, v in zip(node[2][1:], values[1:]):
            value = value + v if sign == "+" else value - v
        return value
    if kind == "product":
        value = values[0]
        for v in values[1:]:
            value = value * v
        return value
    if kind == "power":
        return _evaluate(node[1], n, K) ** node[2]
    if kind == "minus":
        return -_evaluate(node[1], n, K)
    return _evaluate(node[1], n, K) * (Fraction(1) / _evaluate(node[2], n, K))


def _types(f):
    return {k: type(c) for k, c in f._table.items()}


def test_parsed_trees_equal_series_arithmetic():
    rng = random.Random(61)
    for case in range(300):
        n, K = rng.choice((1, 2, 3)), rng.randint(0, 6)
        names = default_variables(n)
        tree = _random_tree(rng, n, K, rng.randint(2, 4))
        text = _tree_text(tree, names)
        want = _evaluate(tree, n, K)
        if not isinstance(want, FormalSeries):
            want = FormalSeries.constant(n, K, want)
        got = parse_series(text, names, K)
        assert got == want, (case, text)
        assert _types(got) == _types(want), (case, text)


def _hostile(rng):
    """A text that the parser refuses, or that takes it near a limit."""
    big = "2^4095*2^4095*z"
    pieces = [big, "w", "z^2", "-" + big, "1" * rng.choice((5, 2500, 4300)), "i*" + big,
              "(z + w)^3", "z/2^4000", "2^20000", "(" + big + ")", "1/3^2000"]
    text = pieces[0] if rng.random() < 0.5 else rng.choice(pieces)
    for _ in range(rng.randint(1, 6)):
        text += f" {rng.choice('+-*')} {rng.choice(pieces)}"
    if rng.random() < 0.3:
        junk = rng.choice(("$", "^", "(", ")", ",", "/0", "/z", "^9", "q", "+", "*", "/(w - w)"))
        at = rng.randint(0, len(text))
        text = text[:at] + junk + text[at:]
    return text


def _outcome(parse, text):
    try:
        f = parse(text, ZW, 4)
    except (ParseError, LimitError) as err:
        return type(err), str(err), err.position if isinstance(err, ParseError) else None
    return f, _types(f)


def test_hostile_texts_fail_as_under_series_arithmetic():
    rng = random.Random(67)
    refusals = bits = 0
    for _ in range(400):
        text = _hostile(rng)
        got = _outcome(parse_series, text)
        assert got == _outcome(parse_series_oracle, text), text
        refusals += got[0] is ParseError
        bits += got[0] is ParseError and got[1].startswith("coefficient of")
    # both kinds of refusal are well represented
    assert refusals >= 200 and bits >= 100


@pytest.mark.parametrize("count", [10, 200, 2000])
def test_a_sum_checks_each_term_once(monkeypatch, count):
    rng = random.Random(count)
    K = 62  # 2,016 monomials in two variables
    monomials = [(a, d - a) for d in range(K + 1) for a in range(d + 1)]
    f = FormalSeries(2, K, {m: Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 9))
                            for m in rng.sample(monomials, count)})
    text = format_series(f, ZW)
    calls = []
    bits = expressions._bits
    monkeypatch.setattr(expressions, "_bits", lambda value: calls.append(1) or bits(value))
    assert parse_series(text, ZW, K) == f
    assert len(calls) <= len(expressions._tokenize(text))


# -- integer literals: field coefficients once parsed -----------------------


def _field_types(series):
    return {type(c) for f in series for c in f._table.values()}


def _as_series(value, n, K):
    return value if isinstance(value, FormalSeries) else FormalSeries.constant(n, K, value)


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Q(i)"])
def test_integer_literals_parse_to_field_coefficients(gaussian):
    # every value is built from int literals; the parser keeps them ints until
    # it hands a series out, and the series arithmetic works on Fractions
    rng = random.Random(71 + gaussian)
    tuples = gaussians = 0
    for case in range(240):
        n, K = (case % 3) + 1, rng.randint(1, 5)
        names = default_variables(n)
        trees = []
        while len(trees) < n:
            tree = _random_tree(rng, n, K, rng.randint(1, 3))
            if gaussian or "i" not in _tree_text(tree, names):
                trees.append(tree)
        texts = [_tree_text(tree, names) for tree in trees]
        want = [_as_series(_evaluate(tree, n, K), n, K) for tree in trees]
        if not gaussian:
            assert _field_types(want) <= {Fraction}
        wrapped = f"({texts[0]})" if case % 4 == 0 else texts[0]
        got = parse_series(f"-({wrapped})" if case % 5 == 0 else wrapped, names, K)
        assert got == (-want[0] if case % 5 == 0 else want[0]), (case, texts[0])
        assert _field_types([got]) <= {Fraction, GaussianRational}, (case, texts[0])
        gaussians += GaussianRational in _field_types([got])
        if rng.random() < 0.5:
            continue
        tuples += 1
        tuple_text = "(" + ", ".join(texts) + ")"
        components = parse_components(tuple_text, names, K)
        assert components == want, (case, tuple_text)
        # a variable factor makes every component vanish at the origin
        map_text = "(" + ", ".join(f"{name}*({t})" for name, t in zip(names, texts)) + ")"
        phi = parse_map(map_text, names, K)
        variables = [FormalSeries.variable(n, K, j) for j in range(n)]
        assert phi == FormalMap([x * f for x, f in zip(variables, want)]), (case, map_text)
        parsed = [*components, *phi.components]
        assert _field_types(parsed) <= {Fraction, GaussianRational}, (case, tuple_text)
    assert tuples >= 80 and (gaussians >= 40 if gaussian else not gaussians)

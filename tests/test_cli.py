import argparse
import importlib.metadata
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from packaging.version import Version

from germcalc import cli, curves
from germcalc.cli import _MAX_PRINTED_LEVELS, _check_printed_levels, main
from germcalc.curves import build_shift_sequence
from germcalc.errors import (
    CrossCheckError,
    DimensionError,
    GermcalcError,
    InversionError,
    LimitError,
    ParseError,
    PrecisionError,
)
from germcalc.expressions import _MAX_LITERAL_DIGITS

DATA = Path(__file__).parent / "data" / "manifests"

# manifest-driven scenarios and their contracted exit codes:
# 0 true/done, 1 false verdict, 2 usage or parse trouble, 3 precision
CORPUS = [
    (("check-equivalence",), "curves-shear.man", 1),
    (("check-equivalence",), "curves-shear-order1.man", 0),
    (("check-equivalence",), "conjugated-family.man", 0),
    (("check-equivalence",), "crossed-set.man", 0),
    (("check-equivalence",), "set-unmatched.man", 1),
    (("check-equivalence",), "horizon-cubic.man", 0),
    (("check-equivalence", "--horizon", "5"), "horizon-cubic.man", 1),
    (("check-equivalence",), "gaussian-line.man", 0),
    (("check-equivalence",), "parse-error.man", 2),
    (("check-equivalence",), "bad-syntax.man", 2),
    (("check-equivalence",), "precision-low.man", 3),
    (("check-equivalence",), "dim-mismatch-map.man", 2),
    (("check-equivalence",), "curves-json.json", 1),
    (("check-equivalence",), "set-json.json", 0),
    (("check-equivalence",), "empty-right.man", 2),
    (("check-equivalence",), "realified-shear.man", 0),
    (("check-conjugacy",), "conj-true.man", 0),
    (("check-conjugacy",), "conj-false.man", 1),
    (("check-conjugacy",), "conj-order1.man", 0),
    (("check-field-equivalence",), "field-true.man", 0),
    (("check-field-equivalence",), "field-false.man", 1),
    (("divide",), "divide-parabola.man", 0),
    (("reduce",), "three-vars.man", 0),
    (("diagram", "--degree", "4"), "three-vars.man", 0),
    (("jet", "--order", "3"), "jet-sample.man", 0),
    (("jet", "--order", "9"), "jet-sample.man", 3),
]

# every run of acceptance criterion 10: the manifest corpus, then the
# counterexample commands and a seeded report
CORPUS_RUNS = [
    ((command, "--manifest", str(DATA / name), *rest), expected)
    for (command, *rest), name, expected in CORPUS
] + [
    (("counterexample", "sequence", "--levels", "5"), 0),
    (("counterexample", "verify", "--k", "1", "--m-max", "2", "--n-max", "2"), 0),
    (("counterexample", "horizon", "--t-range=-5:5"), 0),
    (
        ("check-equivalence", "--manifest", str(DATA / "crossed-set.man"), "--seed", "7"),
        0,
    ),
]

# one run per leaf subcommand, each ending in a report
SUBCOMMAND_RUNS = {
    "divide": ("divide", "--manifest", str(DATA / "divide-parabola.man")),
    "diagram": ("diagram", "--manifest", str(DATA / "three-vars.man")),
    "jet": ("jet", "--order", "3", "--manifest", str(DATA / "jet-sample.man")),
    "reduce": ("reduce", "--manifest", str(DATA / "three-vars.man")),
    "check-equivalence": ("check-equivalence", "--manifest", str(DATA / "curves-shear.man")),
    "check-conjugacy": ("check-conjugacy", "--manifest", str(DATA / "conj-true.man")),
    "check-field-equivalence": (
        "check-field-equivalence",
        "--manifest",
        str(DATA / "field-false.man"),
    ),
    "counterexample sequence": ("counterexample", "sequence", "--levels", "3"),
    "counterexample verify": ("counterexample", "verify", "--k", "1", "--m-max", "1"),
    "counterexample horizon": ("counterexample", "horizon", "--t-range", "0:3"),
}


def leaf_paths(parser, prefix=""):
    """The subcommand paths of a parser's leaves, 'divide' through
    'counterexample horizon'."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return [
                path
                for name, sub in action.choices.items()
                for path in leaf_paths(sub, f"{prefix} {name}".lstrip())
            ]
    return [prefix]


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, _ = invoke(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_corpus_has_twenty_plus_manifests():
    assert len(list(DATA.iterdir())) >= 20


@pytest.mark.parametrize("argv,name,expected", CORPUS)
def test_exit_codes_across_the_corpus(capsys, argv, name, expected):
    command, *extra = argv
    code, out, err = invoke(
        capsys, command, "--manifest", str(DATA / name), *extra
    )
    assert code == expected
    if expected in (2, 3):
        assert err.startswith("error:")
        assert not out
    else:
        assert out


# -- report contents --------------------------------------------------------


def test_divide_report(capsys):
    code, report = invoke_json(
        capsys, "divide", "--manifest", str(DATA / "divide-parabola.man")
    )
    assert code == 0
    assert report["quotients"] == ["w + z^2"]
    assert report["remainder"] == "z^4"
    assert report["staircase"] == [[0, 1]]
    assert report["trunc"] == 6


def test_reduce_report(capsys):
    code, report = invoke_json(
        capsys, "reduce", "--manifest", str(DATA / "three-vars.man")
    )
    assert code == 0
    assert report["member"] is True
    assert report["normal_form"] == "0"


def test_diagram_report(capsys):
    code, report = invoke_json(
        capsys,
        "diagram",
        "--manifest",
        str(DATA / "three-vars.man"),
        "--degree",
        "4",
    )
    assert code == 0
    assert report["vertices"] == [[0, 1, 0], [0, 0, 1]]
    assert report["degree"] == 4


def test_jet_report(capsys):
    code, report = invoke_json(
        capsys, "jet", "--manifest", str(DATA / "jet-sample.man"), "--order", "3"
    )
    assert code == 0
    assert report["series"] == "z + z^2 + z^3"


def test_divide_from_flags_with_inferred_variables(capsys):
    code, report = invoke_json(
        capsys, "divide", "-f", "w^2", "-g", "w - z^2", "--trunc", "6"
    )
    assert code == 0
    assert report["vars"] == ["z", "w"]
    assert report["quotients"] == ["w + z^2"]
    assert report["remainder"] == "z^4"


def test_family_verdict_layout(capsys):
    code, report = invoke_json(
        capsys, "check-equivalence", "--manifest", str(DATA / "curves-shear.man")
    )
    assert code == 1
    assert report["ok"] is False
    assert report["mode"] == "family"
    assert report["per_index"] == [
        {"label": "curve", "ok": False, "failure": "pullback generator 0"}
    ]


def test_set_verdict_layout(capsys):
    code, report = invoke_json(
        capsys, "check-equivalence", "--manifest", str(DATA / "crossed-set.man")
    )
    assert code == 0
    left = {m["label"]: m["partner"] for m in report["left_matching"]}
    assert left == {"a": "d", "b": "c"}


def test_horizon_scan_layout(capsys):
    code, report = invoke_json(
        capsys,
        "check-equivalence",
        "--manifest",
        str(DATA / "horizon-cubic.man"),
        "--horizon",
        "5",
    )
    assert code == 1
    assert report["first_failure"] == 4
    assert report["per_order"] == [[1, True], [2, True], [3, True], [4, False], [5, False]]


def test_order_override_flips_verdict(capsys):
    manifest = str(DATA / "curves-shear.man")
    code, _, _ = invoke(
        capsys, "check-equivalence", "--manifest", manifest, "--order", "1"
    )
    assert code == 0


def test_conjugacy_report_layout(capsys):
    code, report = invoke_json(
        capsys, "check-conjugacy", "--manifest", str(DATA / "conj-false.man")
    )
    assert code == 1
    assert report["per_index"] == [
        {"label": "f/g", "ok": False, "discrepancy_order": 1}
    ]


def test_counterexample_sequence(capsys):
    code, report = invoke_json(
        capsys, "counterexample", "sequence", "--levels", "5"
    )
    assert code == 0
    assert report["c"] == [1, 1, -3, 5, -11]
    assert report["b"] == [1, 1, 5, 5, 21]
    assert report["a"] == [-1, -3, -3, -11, -11]


def test_counterexample_verify_small_window(capsys):
    code, report = invoke_json(
        capsys,
        "counterexample",
        "verify",
        "--k",
        "1",
        "--m-max",
        "2",
        "--n-max",
        "2",
    )
    assert code == 0
    assert report["ok"] is True
    assert report["order"] == 3
    assert report["shift_value"] == 1
    assert all(m["class"] == "matched" for m in report["left_matching"])


def test_counterexample_horizon_range(capsys):
    code, report = invoke_json(
        capsys, "counterexample", "horizon", "--t-range=-5:5"
    )
    assert code == 0
    assert report["max_horizon"] == 5
    assert [5, 5] in report["horizons"]
    assert report["t_range"] == [-5, 5]


def test_counterexample_horizon_range_errors(capsys):
    code, _, err = invoke(capsys, "counterexample", "horizon", "--t-range=5:1")
    assert code == 2 and "out of order" in err
    code, _, err = invoke(capsys, "counterexample", "horizon", "--t-range=a:b")
    assert code == 2


def _refuse_horizon_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the horizon job was started")

    monkeypatch.setattr(cli, "build_shift_sequence", no_work)
    monkeypatch.setattr(cli, "membership_horizon", no_work)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--t-range=0:1048576",), "--t-range spans more than 1,048,576 integers"),
        (("--t-range=-1000000000:1000000000",), "--t-range spans more than 1,048,576 integers"),
        (("--t-range=-5:5", "--levels", "14285"), "--levels 14285 is over the limit of 14,284"),
        (("--t-range=-5:5", "--levels", "50000"), "--levels 50000 is over the limit of 14,284"),
    ],
)
def test_counterexample_horizon_budget_exits_2_before_any_work(capsys, monkeypatch, argv, message):
    _refuse_horizon_work(monkeypatch)
    code, out, err = invoke(capsys, "counterexample", "horizon", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv", [("--t-range=0:1048575",), ("--t-range=-5:5", "--levels", "14284")]
)
def test_counterexample_horizon_budget_admits_its_bounds(monkeypatch, argv):
    # the guards pass the largest range and level; the patched job
    # stops the run before it does any work
    _refuse_horizon_work(monkeypatch)
    with pytest.raises(AssertionError, match="horizon job was started"):
        main(["counterexample", "horizon", *argv])


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--n-max", "-1"), "n_max must be at least 0"),
        (("--order", "0"), "equivalence order must be at least 1"),
        (("--shift-level", "0"), "shift_level must be at least 1"),
        (
            ("--trunc", "40000"),
            "truncation 40000 exceeds the limit of 32767 set by 16-bit exponent fields",
        ),
    ],
)
def test_counterexample_verify_refuses_bad_input(capsys, monkeypatch, argv, message):
    def no_curve(*args):
        raise AssertionError("a curve was built")

    monkeypatch.setattr(curves, "curve", no_curve)
    code, out, err = invoke(
        capsys, "counterexample", "verify", "--k", "3", "--m-max", "4", *argv
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


# -- output discipline ------------------------------------------------------


def test_json_and_text_verdicts_agree(capsys):
    manifest = str(DATA / "curves-shear.man")
    code_j, report = invoke_json(capsys, "check-equivalence", "--manifest", manifest)
    code_t, text, _ = invoke(capsys, "check-equivalence", "--manifest", manifest)
    assert code_j == code_t == 1
    assert report["ok"] is False
    assert "ok: false" in text.splitlines()


def test_runs_are_byte_stable(capsys):
    manifest = str(DATA / "crossed-set.man")
    argv = (
        "check-equivalence",
        "--manifest",
        manifest,
        "--format",
        "json",
        "--seed",
        "7",
    )
    first = invoke(capsys, *argv)
    second = invoke(capsys, *argv)
    assert first == second
    assert json.loads(first[1])["seed"] == 7

    argv = ("counterexample", "sequence", "--levels", "13", "--seed", "3")
    assert invoke(capsys, *argv) == invoke(capsys, *argv)


def test_seed_is_recorded_in_text_reports(capsys):
    code, out, _ = invoke(
        capsys, "counterexample", "sequence", "--levels", "2", "--seed", "11"
    )
    assert code == 0
    assert "seed: 11" in out.splitlines()


def test_the_handler_table_holds_every_leaf_subcommand():
    paths = leaf_paths(cli.build_parser())
    assert len(paths) == len(set(paths)) == 10
    assert set(cli._HANDLERS) == set(paths) == set(SUBCOMMAND_RUNS)


@pytest.mark.parametrize("path", SUBCOMMAND_RUNS)
def test_each_report_names_its_subcommand_path(capsys, path):
    code, report = invoke_json(capsys, *SUBCOMMAND_RUNS[path])
    assert code in (0, 1)
    assert report["command"] == path
    code, out, err = invoke(capsys, *SUBCOMMAND_RUNS[path])
    assert code in (0, 1) and not err
    assert f"command: {path}" in out.splitlines()


# -- usage errors -----------------------------------------------------------


def test_unknown_command_is_a_usage_error(capsys):
    assert invoke(capsys, "frobnicate")[0] == 2


def test_missing_required_flags(capsys):
    assert invoke(capsys, "jet", "-f", "z")[0] == 2  # no --order
    assert invoke(capsys, "check-equivalence")[0] == 2  # no --manifest
    code, _, err = invoke(capsys, "divide", "--vars", "z")
    assert code == 2 and "no input series" in err


def test_manifest_without_a_map(capsys, tmp_path):
    bare = tmp_path / "bare.man"
    bare.write_text("vars: z, w\norder: 1\n[left]\na: w\n[right]\na: w\n")
    code, out, err = invoke(capsys, "check-equivalence", "--manifest", str(bare))
    assert code == 2 and not out
    assert err == "error: no map: pass --map or a manifest 'map' key\n"
    assert invoke(capsys, "check-equivalence", "--manifest", str(bare), "--map", "(z, w)")[0] == 0


@pytest.mark.parametrize(
    "error, expected",
    [
        (ParseError, 2),
        (LimitError, 2),
        (DimensionError, 2),
        (InversionError, 2),
        (GermcalcError, 2),
        (ValueError, 2),
        (PrecisionError, 3),
        (CrossCheckError, 4),
    ],
)
def test_each_error_class_exits_with_its_code(capsys, monkeypatch, error, expected):
    def fail(args):
        raise error("planted failure")

    monkeypatch.setitem(cli._HANDLERS, "counterexample sequence", fail)
    for fmt in ("text", "json"):
        assert invoke(capsys, "counterexample", "sequence", "--format", fmt) == (
            expected,
            "",
            "error: planted failure\n",
        )


def _without_a_side(text, shape):
    """A manifest with the same header and one or both sides missing or empty."""
    header, _, sections = text.partition("[left]")
    left, _, right = sections.partition("[right]")
    return header + {
        "no sections": "",
        "empty sections": "[left]\n[right]\n",
        "left only": "[left]" + left,
        "right only": "[right]" + right,
        "empty left": "[left]\n[right]" + right,
        "empty right": "[left]" + left + "[right]\n",
    }[shape]


@pytest.mark.parametrize(
    "shape, missing",
    [
        ("no sections", "left"),
        ("empty sections", "left"),
        ("left only", "right"),
        ("right only", "left"),
        ("empty left", "left"),
        ("empty right", "right"),
    ],
)
@pytest.mark.parametrize(
    "command, name",
    [("check-conjugacy", "conj-true.man"), ("check-field-equivalence", "field-true.man")],
)
def test_dynamics_manifests_refuse_a_missing_or_empty_side(
    capsys, tmp_path, command, name, shape, missing
):
    # before, a maps or fields manifest with no entries on either side
    # printed ok: true over zero pairs and exited 0
    manifest = tmp_path / name
    manifest.write_text(_without_a_side((DATA / name).read_text(), shape))
    for fmt in ("text", "json"):
        assert invoke(capsys, command, "--manifest", str(manifest), "--format", fmt) == (
            2,
            "",
            f"error: manifest has no [{missing}] section\n",
        )


def test_bad_flag_values(capsys):
    assert invoke(capsys, "jet", "-f", "z", "--order", "two")[0] == 2
    code, _, err = invoke(
        capsys, "jet", "-f", "z", "--vars", "z", "--trunc", "3", "--order", "-1"
    )
    assert code == 2 and "natural number" in err
    code, _, err = invoke(
        capsys, "divide", "-f", "z", "-g", "z", "--trunc", "-1"
    )
    assert code == 2 and "nonnegative" in err
    code, _, err = invoke(capsys, "divide", "--vars", "z,,w", "-f", "z", "-g", "z")
    assert code == 2 and "--vars" in err


def test_missing_manifest_file(capsys):
    code, _, err = invoke(
        capsys, "check-equivalence", "--manifest", str(DATA / "absent.man")
    )
    assert code == 2 and "cannot read manifest" in err


def test_failed_cross_check_exits_4(capsys, monkeypatch):
    # a proposal that suggests nothing leaves every curve unmatched, and the
    # cross-check then finds partners among the pruned candidates
    monkeypatch.setattr("germcalc.curves._propose_partners", lambda *args: [])
    code, out, err = invoke(
        capsys, "counterexample", "verify", "--k", "1", "--m-max", "1", "--n-max", "0"
    )
    assert code == 4
    assert not out
    assert err.startswith("error: candidate proposal missed a genuine partner")


def test_oversized_curve_pool_exits_2_before_any_curve(capsys, monkeypatch):
    def no_curve(*args):
        raise AssertionError("a curve was built")

    monkeypatch.setattr("germcalc.curves.curve", no_curve)
    code, out, err = invoke(capsys, "counterexample", "verify", "--k", "1", "--m-max", "40")
    assert code == 2
    assert not out
    assert err == (
        "error: the curve pools need 70,735,248,053,782 curves, "
        "over the limit of 1,048,576\n"
    )


@pytest.mark.parametrize(
    "argv, need",
    [
        (("--m-max", "1000"), "at least 2^997"),
        (("--m-max", "1000000"), "at least 2^999,997"),
        (("--m-max", "1", "--n-max", "0", "--shift-level", "20000"), "at least 2^19,997"),
    ],
)
def test_huge_curve_pools_exit_2_at_once(capsys, monkeypatch, argv, need):
    # refused on the size estimate alone, never printing a count past
    # Python's int-to-str limit
    def no_curve(*args):
        raise AssertionError("a curve was built")

    monkeypatch.setattr("germcalc.curves.curve", no_curve)
    start = time.perf_counter()
    code, out, err = invoke(capsys, "counterexample", "verify", "--k", "1", *argv)
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert err == f"error: the curve pools need {need} curves, over the limit of 1,048,576\n"
    assert elapsed < 0.1


def test_singular_conjugating_map_exits_2(capsys, tmp_path):
    manifest = tmp_path / "conj-singular.man"
    manifest.write_text(
        (DATA / "conj-true.man").read_text().replace("map: (2*z)", "map: (z^2)")
    )
    code, out, err = invoke(capsys, "check-conjugacy", "--manifest", str(manifest))
    assert code == 2
    assert not out
    assert err == "error: formal map has singular linear part\n"


@pytest.mark.parametrize(
    "series_args",
    # a sign chain would read as an option, so it goes in as -f=...
    [["-f", "(" * 3000 + "z" + ")" * 3000], ["-f=" + "-" * 3000 + "z"]],
    ids=["parentheses", "sign-chain"],
)
def test_deep_nesting_exits_2(capsys, series_args):
    code, out, err = invoke(capsys, "divide", *series_args, "-g", "z", "--vars", "z")
    assert code == 2
    assert not out
    assert err.startswith("error: expression nested deeper than")


def test_oversized_scalar_power_exits_2(capsys):
    code, out, err = invoke(
        capsys, "divide", "-f", "2^20000*z + w", "-g", "w", "--vars", "z,w"
    )
    assert code == 2
    assert not out
    assert err.startswith("error: scalar power of about 40000 bits exceeds the limit")


@pytest.mark.parametrize(
    "series_text,message",
    [
        ("1" * 5000 + "*z", "error: integer literal of 5000 digits exceeds the limit"),
        ("z^" + "1" * 5000, "error: integer literal of 5000 digits exceeds the limit"),
        ("2^4000*2^4000*2^4000*2^4000*z", "error: coefficient of 12001 bits exceeds the limit"),
    ],
    ids=["literal", "exponent", "product"],
)
def test_oversized_numbers_exit_2(capsys, series_text, message):
    code, out, err = invoke(capsys, "jet", "-f", series_text, "--order", "2", "--vars", "z")
    assert code == 2
    assert not out
    assert err.startswith(message)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sequence_levels_past_the_printer_exit_2(capsys, fmt):
    code, out, err = invoke(
        capsys, "counterexample", "sequence", "--levels", "14285", "--format", fmt
    )
    assert code == 2
    assert not out
    assert err == (
        "error: --levels 14285 prints values past 4,300 digits; "
        "the largest level that prints is 14284\n"
    )


def test_a_truncation_past_the_packed_width_exits_2(capsys):
    code, out, err = invoke(
        capsys, "jet", "-f", "z", "--order", "2", "--vars", "z", "--trunc", "100000"
    )
    assert code == 2
    assert not out
    assert err == (
        "error: truncation 100000 exceeds the limit of 32767 "
        "set by 16-bit exponent fields\n"
    )


def test_the_last_level_that_prints_is_the_bound():
    # through the check and the values themselves, never by printing them
    assert _MAX_PRINTED_LEVELS == 14284
    _check_printed_levels(_MAX_PRINTED_LEVELS)
    with pytest.raises(ParseError):
        _check_printed_levels(_MAX_PRINTED_LEVELS + 1)
    seq = build_shift_sequence(_MAX_PRINTED_LEVELS + 1)

    def widest(m):
        return max(abs(seq.c(m)), seq.min_positive(m), -seq.max_negative(m))

    limit = 10**_MAX_LITERAL_DIGITS
    assert all(widest(m) < limit for m in range(1, _MAX_PRINTED_LEVELS + 1))
    assert widest(_MAX_PRINTED_LEVELS + 1) >= limit


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "divisor,trunc,message",
    [
        ("z", "0", "divisor 0 has no term through degree 0"),
        ("0", "4", "divisor 0 has no term through degree 4"),
        ("z^2; 0", "3", "divisor 1 has no term through degree 3"),
    ],
    ids=["z-at-0", "literal-0", "second-divisor"],
)
def test_divisor_vanishing_through_the_truncation_exits_3(
    capsys, divisor, trunc, message, fmt
):
    argv = ["divide", "-f", "z", "--vars", "z", "--trunc", trunc, "--format", fmt]
    for g in divisor.split("; "):
        argv += ["-g", g]
    code, out, err = invoke(capsys, *argv)
    assert code == 3
    assert not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oversized_computed_coefficients_exit_2(capsys, fmt):
    # every input passes the parser guards; the quotient's coefficients grow
    # like 2^(4000 j) and pass Python's limit on int-to-str conversion
    code, out, err = invoke(
        capsys, "divide", "-f", "z", "-g", "z/2^4000 + z^2", "--vars", "z",
        "--trunc", "10", "--format", fmt,
    )
    assert code == 2
    assert not out
    assert err == (
        "error: coefficient of 16001 bits exceeds the limit of 4,300 digits "
        "for printing\n"
    )


@pytest.mark.parametrize("generator", ["0", "z^2", "z - z"])
def test_a_zero_generator_keeps_its_truncation(capsys, generator):
    code, out, err = invoke(capsys, "diagram", "-g", generator, "--trunc", "2", "--degree", "5")
    assert code == 3
    assert not out
    assert err == "error: jet degree 5 exceeds generator truncation 2\n"


def test_a_standard_presentation_keeps_the_diagram_exit_codes(capsys):
    # (z^2, w) is a standard basis as presented, so no jet space decides it
    base = ("diagram", "-g", "z^2", "-g", "w", "--trunc", "2")
    code, out, err = invoke(capsys, *base, "--degree", "5")
    assert (code, out, err) == (3, "", "error: jet degree 5 exceeds generator truncation 2\n")
    code, out, err = invoke(capsys, *base, "--degree", "-1")
    assert (code, out, err) == (2, "", "error: jet degree must be a natural number\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "command,name",
    [
        ("check-conjugacy", "conj-order1.man"),
        ("check-equivalence", "curves-shear-order1.man"),
    ],
)
def test_map_truncated_at_0_exits_3(capsys, command, name, fmt):
    code, out, err = invoke(
        capsys, command, "--manifest", str(DATA / name), "--trunc", "0", "--format", fmt
    )
    assert code == 3
    assert not out
    # the curves parse to zero at truncation 0, and a zero generator still
    # bounds its ideal's knowledge, so the ideals are refused before the map
    assert err == {
        "check-conjugacy": "error: the linear part of a map truncated at 0 is unknown\n",
        "check-equivalence": "error: order-1 check needs generator truncations >= 1, have 0\n",
    }[command]


@pytest.mark.parametrize(
    "series_text,column",
    [("²*z", 1), ("z^²", 3), ("z + ٣", 5)],
    ids=["superscript-literal", "superscript-exponent", "arabic-indic"],
)
def test_non_ascii_digits_exit_2_at_their_column(capsys, series_text, column):
    code, out, err = invoke(capsys, "jet", "-f", series_text, "--order", "2", "--vars", "z")
    assert code == 2
    assert not out
    digit = series_text[column - 1]
    assert err == f"error: unexpected character {digit!r} (at position {column})\n"


@pytest.mark.parametrize(
    "series_text,message",
    [
        ("t101", "error: variable t101 asks for more than 100 inferred variables"),
        ("x51*y1", "error: variable x51 asks for more than 100 inferred variables"),
        ("t" + "2" * 4301, "error: variable t22222222222... has an index of 4301 digits"),
    ],
    ids=["dimension", "real-dimension", "index-digits"],
)
def test_unbounded_inferred_variables_exit_2(capsys, series_text, message):
    code, out, err = invoke(capsys, "jet", "-f", series_text, "--order", "2")
    assert code == 2
    assert not out
    assert err.startswith(message) and "pass the names with --vars" in err
    # with its names passed, the same series is accepted
    if len(series_text) < 10:
        names = series_text.replace("*", ",")
        assert invoke(capsys, "jet", "-f", series_text, "--order", "2", "--vars", names)[0] == 0


@pytest.mark.parametrize(
    "series_text,message",
    [
        # z^2 takes (2^4096)^2: a product of two int-only tables
        ("(2^4096*z + w)*(2^4096*z + w)", "coefficient of 8193 bits exceeds the limit "
         "of 8192 bits (at position 15)"),
        # z^3 takes (2^2731)^3: a power of a multi-term int table
        ("(2^2731*z + w)^3", "coefficient of 8194 bits exceeds the limit "
         "of 8192 bits (at position 16)"),
    ],
    ids=["table-product", "table-power"],
)
def test_oversized_integer_coefficients_exit_2(capsys, series_text, message):
    code, out, err = invoke(
        capsys, "divide", "-f", series_text, "-g", "w", "--vars", "z,w", "--trunc", "3"
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "series_line,message",
    [
        ("series: t1*t3 - t2^2 +", "unexpected 'end of input' (at position 15)"),
        ("series: t1*t3 - t2^7", "exponent 7 exceeds truncation 6 (at position 12)"),
    ],
    ids=["malformed", "over-truncation"],
)
def test_diagram_does_not_parse_the_manifest_series(capsys, tmp_path, series_line, message):
    lines = (DATA / "three-vars.man").read_text().splitlines()
    with_line, without = tmp_path / "with.man", tmp_path / "without.man"
    with_line.write_text("\n".join(series_line if ln.startswith("series:") else ln for ln in lines))
    without.write_text("\n".join(ln for ln in lines if not ln.startswith("series:")))
    for fmt in ("text", "json"):
        want = invoke(capsys, "diagram", "--manifest", str(without), "--format", fmt)
        assert want[0] == 0
        assert invoke(capsys, "diagram", "--manifest", str(with_line), "--format", fmt) == want
    # the commands that read the series still refuse it
    for command in ("divide", "reduce"):
        code, out, err = invoke(capsys, command, "--manifest", str(with_line))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_jet_does_not_parse_the_manifest_generators(capsys, tmp_path):
    manifest = tmp_path / "jet-left.man"
    manifest.write_text((DATA / "jet-sample.man").read_text() + "\n[left]\nbad: z + * z\n")
    argv = ("--order", "3", "--format", "json")
    want = invoke(capsys, "jet", "--manifest", str(DATA / "jet-sample.man"), *argv)
    assert want[0] == 0
    assert invoke(capsys, "jet", "--manifest", str(manifest), *argv) == want
    for command in ("divide", "reduce"):
        code, out, err = invoke(capsys, command, "--manifest", str(manifest))
        assert (code, out, err) == (2, "", "error: unexpected '*' (at position 5)\n")


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["counterexample", "sequence", "--levels", "5", "--format", "json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "germcalc.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        cwd=root,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def _setuptools_lacks_bdist_wheel() -> bool:
    """True when setuptools cannot build a wheel: the wheel package does not
    import and setuptools predates 70.1, the first release that ships the
    bdist_wheel command itself."""
    if importlib.util.find_spec("wheel") is not None:
        return False
    try:
        version = importlib.metadata.version("setuptools")
    except importlib.metadata.PackageNotFoundError:
        return False
    return Version(version) < Version("70.1")


@pytest.mark.skipif(
    _setuptools_lacks_bdist_wheel(),
    reason="invalid command 'bdist_wheel': needs the wheel package or setuptools >= 70.1",
)
def test_installed_entry_point_runs(tmp_path):
    # install this checkout, not whatever germcalc happens to be on PATH
    pytest.importorskip("pip")
    root = Path(__file__).resolve().parent.parent
    project = tmp_path / "project"
    project.mkdir()
    shutil.copy2(root / "pyproject.toml", project)
    shutil.copytree(
        root / "src", project / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    venv = tmp_path / "venv"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run(
        [sys.executable, "-m", "venv", "--system-site-packages", "--without-pip", str(venv)],
        check=True,
    )
    bindir = venv / "bin"
    install = subprocess.run(
        [
            str(bindir / "python"), "-m", "pip", "install", "--disable-pip-version-check",
            "--no-build-isolation", "--no-index", "--no-deps", str(project),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert install.returncode == 0, install.stdout + install.stderr
    exe = shutil.which("germcalc", path=str(bindir))
    assert exe, "console script should be installed with the package"
    proc = subprocess.run(
        [exe, "counterexample", "sequence", "--levels", "5", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["c"] == [1, 1, -3, 5, -11]

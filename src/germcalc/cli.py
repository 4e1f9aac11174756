"""Command line front end.

Exit codes: 0 for a true verdict or a completed computation, 1 for a
false verdict, 2 for usage/parse problems, 3 when the requested order
exceeds what the carried truncation can certify, 4 when an internal
cross-check contradicts a verdict (``counterexample verify`` re-checks
the candidates its partner proposal pruned).  Reports print to
stdout as text or JSON (--format); both are deterministic for fixed
inputs, so byte-wise comparison of runs is meaningful.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .curves import (
    _curve_label,
    build_shift_sequence,
    membership_horizon,
    verify_finite_order_equivalence,
)
from .division import formal_division, reduce_mod_ideal
from .dynamics import is_order_k_conjugacy, is_order_k_field_equivalence
from .equivalence import equivalence_horizon, is_order_k_equivalence
from .errors import CrossCheckError, GermcalcError, ParseError, PrecisionError
from .expressions import _MAX_LITERAL_DIGITS, format_series, infer_variables
from .expressions import parse_map, parse_series
from .ideals import IdealPresentation
from .manifest import Manifest, load_manifest

DEFAULT_TRUNC = 10


# -- report rendering -------------------------------------------------------


def _scalar_text(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "-"
    return str(value)


def _render_text(report: dict) -> str:
    lines = []
    for key in sorted(report):
        value = report[key]
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{key}:")
            for item in value:
                inner = " ".join(
                    f"{k}={_scalar_text(item[k])}" for k in sorted(item)
                )
                lines.append(f"  - {inner}")
        elif isinstance(value, (list, dict)):
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{key}: {_scalar_text(value)}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(_render_text(report))


# -- shared input plumbing --------------------------------------------------


def _explicit_vars(args) -> Optional[list[str]]:
    if getattr(args, "vars", None) is None:
        return None
    names = [name.strip() for name in args.vars.split(",")]
    if any(not name for name in names):
        raise ParseError("empty variable name in --vars")
    return names


def _resolve_trunc(args, manifest: Optional[Manifest]) -> int:
    if getattr(args, "trunc", None) is not None:
        trunc = args.trunc
    elif manifest is not None and manifest.truncation is not None:
        trunc = manifest.truncation
    else:
        trunc = DEFAULT_TRUNC
    if trunc < 0:
        raise ParseError("truncation must be nonnegative")
    return trunc


def _series_task_inputs(args):
    """Common intake for divide/diagram/jet/reduce.  The parser gives a
    command -f and -g only if it reads them, and only those are parsed.
    Each input comes from its flag, else from the manifest, else there is
    none; the variables from --vars, else the manifest, else inference."""
    manifest = load_manifest(args.manifest) if args.manifest else None
    trunc = _resolve_trunc(args, manifest)
    names = _explicit_vars(args)
    f_text = getattr(args, "series", None) or (manifest.series_text if manifest else None)
    left = [text for _, payload in manifest.left for text in payload] if manifest else []
    gen_texts = getattr(args, "generators", None) or left
    if names is None and manifest:
        names = list(manifest.variables)
    elif names is None:
        names = infer_variables(([f_text] if f_text else []) + gen_texts)
    reads_series, reads_ideal = hasattr(args, "series"), hasattr(args, "generators")
    if reads_series and not f_text:
        raise ParseError("no input series: pass -f or a manifest 'series' key")
    if reads_ideal and not gen_texts:
        raise ParseError("no generators: pass -g or a manifest [left] section")
    f = parse_series(f_text, names, trunc) if reads_series else None
    gens = [parse_series(text, names, trunc) for text in gen_texts] if reads_ideal else []
    return names, trunc, f, gens


def _staircase_json(staircase) -> list[list[int]]:
    return [list(v.exponents) for v in staircase.sorted_vertices()]


# -- subcommand handlers ----------------------------------------------------


def _cmd_divide(args) -> dict:
    names, trunc, f, gens = _series_task_inputs(args)
    result = formal_division(f, gens, trunc)
    return {
        "trunc": trunc,
        "vars": names,
        "dividend": format_series(f, names),
        "divisors": [format_series(g, names) for g in gens],
        "quotients": [format_series(q, names) for q in result.quotients],
        "remainder": format_series(result.remainder, names),
        "staircase": _staircase_json(result.staircase),
    }


def _cmd_diagram(args) -> dict:
    names, trunc, _, gens = _series_task_inputs(args)
    degree = args.degree if args.degree is not None else trunc
    ideal = IdealPresentation(len(names), gens)
    return {
        "trunc": trunc,
        "vars": names,
        "degree": degree,
        "vertices": _staircase_json(ideal.diagram(degree)),
    }


def _cmd_jet(args) -> dict:
    names, trunc, f, _ = _series_task_inputs(args)
    jet = f.truncate(args.order)
    return {
        "trunc": trunc,
        "vars": names,
        "order": args.order,
        "series": format_series(jet, names),
    }


def _cmd_reduce(args) -> dict:
    names, trunc, f, gens = _series_task_inputs(args)
    ideal = IdealPresentation(len(names), gens)
    normal_form = reduce_mod_ideal(f, ideal, trunc)
    return {
        "trunc": trunc,
        "vars": names,
        "normal_form": format_series(normal_form, names),
        "member": normal_form.is_zero,
    }


def _failure_text(failure) -> Optional[str]:
    if failure is None:
        return None
    direction, index = failure
    return f"{direction} generator {index}"


def _resolve_order(args, manifest: Manifest) -> int:
    order = args.order if args.order is not None else manifest.order
    if order is None:
        raise ParseError("no order: pass --order or a manifest 'order' key")
    return order


def _check_intake(args, order_first: bool):
    """Common intake for the check-* commands: the manifest, the working
    truncation and the map, with the order resolved ahead of the map when
    order_first is set (check-equivalence resolves it later, if at all)."""
    manifest = load_manifest(args.manifest)
    trunc = _resolve_trunc(args, manifest)
    order = _resolve_order(args, manifest) if order_first else None
    map_text = args.map or manifest.map_text
    if map_text is None:
        raise ParseError("no map: pass --map or a manifest 'map' key")
    phi = parse_map(map_text, manifest.variables, trunc)
    return manifest, trunc, order, phi


def _cmd_check_equivalence(args) -> dict:
    manifest, trunc, _, phi = _check_intake(args, order_first=False)
    mode = args.mode or manifest.mode
    left = manifest.resolve_family("left", trunc)
    right = manifest.resolve_family("right", trunc)
    if mode != manifest.mode:
        left = left.with_mode(mode)
        right = right.with_mode(mode)

    if args.horizon is not None:
        scan = equivalence_horizon(left, right, phi, args.horizon)
        return {
            "trunc": trunc,
            "mode": mode,
            "ok": scan.first_failure is None,
            "bound": scan.bound,
            "per_order": [[k, ok] for k, ok in scan.per_order],
            "first_failure": scan.first_failure,
        }

    order = _resolve_order(args, manifest)
    verdict = is_order_k_equivalence(phi, left, right, order)
    report = {
        "trunc": trunc,
        "mode": mode,
        "ok": verdict.ok,
        "order": order,
    }
    if mode == "family":
        report["per_index"] = [
            {
                "label": v.label,
                "ok": v.ok,
                "failure": _failure_text(v.failure),
            }
            for v in verdict.per_index
        ]
    else:
        for side, matches in (
            ("left_matching", verdict.left_matching),
            ("right_matching", verdict.right_matching),
        ):
            report[side] = [
                {"label": m.label, "partner": m.partner, "tried": m.tried}
                for m in matches
            ]
    return report


def _paired_labels(left_labels, right_labels):
    """Dynamics families pair by position; the report labels each pair."""
    if len(left_labels) != len(right_labels):
        raise ParseError("left and right sections differ in length")
    return [
        l if l == r else f"{l}/{r}" for l, r in zip(left_labels, right_labels)
    ]


def _cmd_check_dynamics(args) -> dict:
    """check-conjugacy (maps) and check-field-equivalence (vector fields)."""
    manifest, trunc, order, phi = _check_intake(args, order_first=True)
    if args.command == "check-conjugacy":
        resolve, check = manifest.resolve_maps, is_order_k_conjugacy
    else:
        resolve, check = manifest.resolve_fields, is_order_k_field_equivalence
    left_labels, lefts = resolve("left", trunc)
    right_labels, rights = resolve("right", trunc)
    labels = _paired_labels(left_labels, right_labels)
    verdict = check(phi, lefts, rights, order, labels=labels)
    return {
        "trunc": trunc,
        "ok": verdict.ok,
        "order": verdict.order,
        "per_index": [
            {
                "label": v.label,
                "ok": v.ok,
                "discrepancy_order": v.discrepancy_order,
            }
            for v in verdict.per_index
        ],
    }


# the values at level m lie strictly between -2^m and 2^m
_MAX_PRINTED_LEVELS = (10**_MAX_LITERAL_DIGITS).bit_length() - 1


def _check_printed_levels(levels: int) -> None:
    if levels > _MAX_PRINTED_LEVELS:
        raise ParseError(
            f"--levels {levels} prints values past {_MAX_LITERAL_DIGITS:,} digits; "
            f"the largest level that prints is {_MAX_PRINTED_LEVELS}"
        )


def _cmd_counterexample_sequence(args) -> dict:
    _check_printed_levels(args.levels)
    seq = build_shift_sequence(args.levels)
    return {
        "levels": args.levels,
        "c": list(seq.values),
        "b": [seq.min_positive(m) for m in range(1, args.levels + 1)],
        "a": [seq.max_negative(m) for m in range(1, args.levels + 1)],
    }


def _cmd_counterexample_verify(args) -> dict:
    result = verify_finite_order_equivalence(
        args.k,
        args.m_max,
        args.n_max,
        args.trunc,
        order=args.order,
        shift_level=args.shift_level,
        realified=args.realified,
    )

    def table(matches) -> list[dict]:
        return [
            {
                "curve": _curve_label(m.tag, m.level, m.index),
                "partner": _curve_label(*m.partner) if m.partner else None,
                "class": m.classification,
            }
            for m in matches
        ]

    return {
        "ok": result.ok,
        "order": result.order,
        "shift_level": result.shift_level,
        "shift_value": result.shift_value,
        "m_max": result.m_max,
        "n_max": result.n_max,
        "pool_windows": [list(pair) for pair in result.pool_windows],
        "trunc": result.truncation,
        "cross_checked": result.cross_checked,
        "left_matching": table(result.left),
        "right_matching": table(result.right),
    }


# a horizon report lists every integer of its range; --levels takes the bound
# of `counterexample sequence`; both are checked before any work
_MAX_T_RANGE = 1 << 20


def _cmd_counterexample_horizon(args) -> dict:
    try:
        lo_text, _, hi_text = args.t_range.partition(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ParseError("--t-range takes LO:HI with integer bounds") from None
    if lo > hi:
        raise ParseError("--t-range bounds are out of order")
    if hi - lo >= _MAX_T_RANGE:
        raise ParseError(f"--t-range spans more than {_MAX_T_RANGE:,} integers")
    if args.levels > _MAX_PRINTED_LEVELS:
        raise ParseError(
            f"--levels {args.levels} is over the limit of {_MAX_PRINTED_LEVELS:,}"
        )
    seq = build_shift_sequence(args.levels)
    horizons = [(t, membership_horizon(t, seq)) for t in range(lo, hi + 1)]
    finite = [h for _, h in horizons if h is not None]
    return {
        "levels": args.levels,
        "t_range": [lo, hi],
        "ok": len(finite) == len(horizons),
        "max_horizon": max(finite, default=None),
        "horizons": horizons,
    }


# -- argument parsing -------------------------------------------------------


def _common(p, trunc_help="working truncation degree (default 10)"):
    """The flags every leaf takes, and --trunc unless trunc_help is None."""
    if trunc_help is not None:
        p.add_argument("--trunc", type=int, help=trunc_help)
    p.add_argument("--format", choices=("text", "json"), default="text", help="report format")
    p.add_argument("--seed", type=int, help="recorded in the report")


def _series_args(p, series=True, generators=True):
    _common(p)
    p.add_argument("--vars", help="comma-separated variable names")
    p.add_argument("--manifest", help="manifest file")
    if series:
        p.add_argument("-f", dest="series", help="input series")
    if generators:
        p.add_argument(
            "-g", dest="generators", action="append", help="ideal generator (repeatable)"
        )


def _diagram_args(p):
    _series_args(p, series=False)
    p.add_argument("--degree", type=int, help="diagram degree (default: trunc)")


def _jet_args(p):
    _series_args(p, generators=False)
    p.add_argument("--order", type=int, required=True, help="jet order")


def _check_args(p):
    _common(p)
    p.add_argument("--manifest", required=True, help="manifest file")
    p.add_argument("--map", help="map expression override")
    p.add_argument("--order", type=int, help="comparison order k")


def _equivalence_args(p):
    _check_args(p)
    p.add_argument("--mode", choices=("family", "set"))
    p.add_argument("--horizon", type=int, help="scan orders 1..K instead of a single order")


def _sequence_args(p):
    _common(p, trunc_help=None)
    p.add_argument("--levels", type=int, default=13, help="levels to compute")


def _verify_args(p):
    _common(p, trunc_help="working truncation degree (default k+3)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--n-max", type=int, default=32)
    p.add_argument("--order", type=int, help="claimed order (default k+2)")
    p.add_argument("--shift-level", type=int, help="use the level-m shift value (default k)")
    p.add_argument("--realified", action="store_true", help="run over real coordinates x+iy")


def _horizon_args(p):
    _common(p, trunc_help=None)
    p.add_argument("--t-range", required=True, help="LO:HI inclusive")
    p.add_argument("--levels", type=int, default=13, help="levels to compute")


# Every leaf subcommand by its path: help line, handler and the function that
# adds its arguments to a parser, in the order the help lists them.
_COMMANDS = {
    "divide": ("divide a series by a divisor tuple", _cmd_divide, _series_args),
    "diagram": ("staircase of initial exponents of an ideal", _cmd_diagram, _diagram_args),
    "jet": ("truncate a series to a jet", _cmd_jet, _jet_args),
    "reduce": ("normal form of a series modulo an ideal", _cmd_reduce, _series_args),
    "check-equivalence": ("order-k equivalence of two ideal families",
                          _cmd_check_equivalence, _equivalence_args),
    "check-conjugacy": ("order-k conjugacy of self-map families",
                        _cmd_check_dynamics, _check_args),
    "check-field-equivalence": ("order-k pushforward equivalence of vector fields",
                                _cmd_check_dynamics, _check_args),
    "counterexample sequence": ("shift sequence table",
                                _cmd_counterexample_sequence, _sequence_args),
    "counterexample verify": ("finite-order matching of the two curve sets",
                              _cmd_counterexample_verify, _verify_args),
    "counterexample horizon": ("exclusion levels over an integer range",
                               _cmd_counterexample_horizon, _horizon_args),
}


# The least value of each integer flag a leaf takes, or the flag it may not fall
# below, checked before the handler runs so that the refusal names the flag.
_LEAST = {
    "divide": {"trunc": 0},
    "diagram": {"degree": 0, "trunc": 0},
    "jet": {"order": 0, "trunc": 0},
    "reduce": {"trunc": 0},
    "check-equivalence": {"order": 1, "horizon": 1, "trunc": 0},
    "check-conjugacy": {"order": 1, "trunc": 0},
    "check-field-equivalence": {"order": 1, "trunc": 0},
    "counterexample sequence": {"levels": 1},
    "counterexample verify": {"k": 1, "m_max": "k", "order": 1, "shift_level": 1,
                              "n_max": 0, "trunc": 0},
    "counterexample horizon": {"levels": 1},
}


def _check_least(command: str, args) -> None:
    for dest, least in _LEAST.get(command, {}).items():
        value = getattr(args, dest)
        if type(least) is str:  # the value of another flag
            least, need = getattr(args, least), f"at least --{least.replace('_', '-')}"
        else:
            need = "a natural number" if least == 0 else f"at least {least}"
        if value is not None and value < least:
            raise ParseError(f"--{dest.replace('_', '-')} must be {need}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germcalc",
        description="Exact computations with germs of formal power series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cx_sub = None
    for path, (help_text, _, add_arguments) in _COMMANDS.items():
        group, _, name = path.rpartition(" ")
        if group and cx_sub is None:
            cx = sub.add_parser(group, help="the two-curve-set construction")
            cx_sub = cx.add_subparsers(dest="subcommand", required=True)
        add_arguments((cx_sub if group else sub).add_parser(name, help=help_text))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What build_parser().parse_args(argv) gives, building only the parser
    of the leaf subcommand that argv names.  Anything else (no leaf named,
    help at the top or group level, arguments the leaf does not know) goes
    to the full parser, so every help, usage and error text is its own."""
    head = argv[: 2 if argv[:1] == ["counterexample"] else 1]
    path = " ".join(head)
    if path in _COMMANDS and path.count(" ") == len(head) - 1:
        leaf = argparse.ArgumentParser(prog=f"germcalc {path}")
        _COMMANDS[path][2](leaf)
        args, rest = leaf.parse_known_args(argv[len(head) :])
        if not rest:
            args.command = head[0]
            if len(head) == 2:
                args.subcommand = head[1]
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    command = args.command
    if hasattr(args, "subcommand"):
        command = f"{command} {args.subcommand}"
    try:
        _check_least(command, args)
        report = _COMMANDS[command][1](args)
    except (GermcalcError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, PrecisionError):
            return 3
        return 4 if isinstance(exc, CrossCheckError) else 2
    report["command"] = command
    if args.seed is not None:
        report["seed"] = args.seed
    _emit(report, args.format)
    return 1 if report.get("ok") is False else 0


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()

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


def _cmd_divide(args) -> tuple[int, dict]:
    names, trunc, f, gens = _series_task_inputs(args)
    result = formal_division(f, gens, trunc)
    report = {
        "trunc": trunc,
        "vars": names,
        "dividend": format_series(f, names),
        "divisors": [format_series(g, names) for g in gens],
        "quotients": [format_series(q, names) for q in result.quotients],
        "remainder": format_series(result.remainder, names),
        "staircase": _staircase_json(result.staircase),
    }
    return 0, report


def _cmd_diagram(args) -> tuple[int, dict]:
    names, trunc, _, gens = _series_task_inputs(args)
    degree = args.degree if args.degree is not None else trunc
    ideal = IdealPresentation(len(names), gens)
    report = {
        "trunc": trunc,
        "vars": names,
        "degree": degree,
        "vertices": _staircase_json(ideal.diagram(degree)),
    }
    return 0, report


def _cmd_jet(args) -> tuple[int, dict]:
    names, trunc, f, _ = _series_task_inputs(args)
    jet = f.truncate(args.order)
    report = {
        "trunc": trunc,
        "vars": names,
        "order": args.order,
        "series": format_series(jet, names),
    }
    return 0, report


def _cmd_reduce(args) -> tuple[int, dict]:
    names, trunc, f, gens = _series_task_inputs(args)
    ideal = IdealPresentation(len(names), gens)
    normal_form = reduce_mod_ideal(f, ideal, trunc)
    report = {
        "trunc": trunc,
        "vars": names,
        "normal_form": format_series(normal_form, names),
        "member": normal_form.is_zero,
    }
    return 0, report


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


def _cmd_check_equivalence(args) -> tuple[int, dict]:
    manifest, trunc, _, phi = _check_intake(args, order_first=False)
    mode = args.mode or manifest.mode
    left = manifest.resolve_family("left", trunc)
    right = manifest.resolve_family("right", trunc)
    if mode != manifest.mode:
        left = left.with_mode(mode)
        right = right.with_mode(mode)

    if args.horizon is not None:
        scan = equivalence_horizon(left, right, phi, args.horizon)
        report = {
            "trunc": trunc,
            "mode": mode,
            "ok": scan.first_failure is None,
            "bound": scan.bound,
            "per_order": [[k, ok] for k, ok in scan.per_order],
            "first_failure": scan.first_failure,
        }
        return (0 if scan.first_failure is None else 1), report

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
    return (0 if verdict.ok else 1), report


def _paired_labels(left_labels, right_labels):
    """Dynamics families pair by position; the report labels each pair."""
    if len(left_labels) != len(right_labels):
        raise ParseError("left and right sections differ in length")
    return [
        l if l == r else f"{l}/{r}" for l, r in zip(left_labels, right_labels)
    ]


def _cmd_check_dynamics(args) -> tuple[int, dict]:
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
    report = {
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
    return (0 if verdict.ok else 1), report


# the values at level m lie strictly between -2^m and 2^m
_MAX_PRINTED_LEVELS = (10**_MAX_LITERAL_DIGITS).bit_length() - 1


def _check_printed_levels(levels: int) -> None:
    if levels > _MAX_PRINTED_LEVELS:
        raise ParseError(
            f"--levels {levels} prints values past {_MAX_LITERAL_DIGITS:,} digits; "
            f"the largest level that prints is {_MAX_PRINTED_LEVELS}"
        )


def _cmd_counterexample_sequence(args) -> tuple[int, dict]:
    _check_printed_levels(args.levels)
    seq = build_shift_sequence(args.levels)
    report = {
        "levels": args.levels,
        "c": list(seq.values),
        "b": [seq.min_positive(m) for m in range(1, args.levels + 1)],
        "a": [seq.max_negative(m) for m in range(1, args.levels + 1)],
    }
    return 0, report


def _cmd_counterexample_verify(args) -> tuple[int, dict]:
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

    report = {
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
    return (0 if result.ok else 1), report


# a horizon report lists every integer of its range; --levels takes the bound
# of `counterexample sequence`; both are checked before any work
_MAX_T_RANGE = 1 << 20


def _cmd_counterexample_horizon(args) -> tuple[int, dict]:
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
    all_finite = len(finite) == len(horizons)
    report = {
        "levels": args.levels,
        "t_range": [lo, hi],
        "ok": all_finite,
        "max_horizon": max(finite, default=None),
        "horizons": horizons,
    }
    return (0 if all_finite else 1), report


# -- argument parsing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germcalc",
        description="Exact computations with germs of formal power series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trunc_help="working truncation degree (default 10)"):
        p.add_argument("--trunc", type=int, default=None, help=trunc_help)
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="report format",
        )
        p.add_argument("--seed", type=int, default=None, help="recorded in the report")

    def series_task(name, help_text, need_series, need_ideal):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--vars", default=None, help="comma-separated variable names")
        p.add_argument("--manifest", default=None, help="manifest file")
        if need_series:
            p.add_argument("-f", dest="series", default=None, help="input series")
        if need_ideal:
            p.add_argument(
                "-g",
                dest="generators",
                action="append",
                default=None,
                help="ideal generator (repeatable)",
            )
        return p

    series_task("divide", "divide a series by a divisor tuple", True, True)
    p = series_task("diagram", "staircase of initial exponents of an ideal", False, True)
    p.add_argument("--degree", type=int, default=None, help="diagram degree (default: trunc)")
    p = series_task("jet", "truncate a series to a jet", True, False)
    p.add_argument("--order", type=int, required=True, help="jet order")
    series_task("reduce", "normal form of a series modulo an ideal", True, True)

    def check_task(name, help_text):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--manifest", required=True, help="manifest file")
        p.add_argument("--map", default=None, help="map expression override")
        p.add_argument("--order", type=int, default=None, help="comparison order k")
        return p

    p = check_task("check-equivalence", "order-k equivalence of two ideal families")
    p.add_argument("--mode", choices=("family", "set"), default=None)
    p.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="scan orders 1..K instead of a single order",
    )
    check_task("check-conjugacy", "order-k conjugacy of self-map families")
    check_task(
        "check-field-equivalence", "order-k pushforward equivalence of vector fields"
    )

    cx = sub.add_parser("counterexample", help="the two-curve-set construction")
    cx_sub = cx.add_subparsers(dest="subcommand", required=True)

    p = cx_sub.add_parser("sequence", help="shift sequence table")
    common(p)
    p.add_argument("--levels", type=int, default=13, help="levels to compute")

    p = cx_sub.add_parser("verify", help="finite-order matching of the two curve sets")
    common(p, trunc_help="working truncation degree (default k+3)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m-max", type=int, default=10, dest="m_max")
    p.add_argument("--n-max", type=int, default=32, dest="n_max")
    p.add_argument("--order", type=int, default=None, help="claimed order (default k+2)")
    p.add_argument(
        "--shift-level",
        type=int,
        default=None,
        dest="shift_level",
        help="use the level-m shift value (default k)",
    )
    p.add_argument(
        "--realified",
        action="store_true",
        help="run over real coordinates x+iy",
    )

    p = cx_sub.add_parser("horizon", help="exclusion levels over an integer range")
    common(p)
    p.add_argument("--t-range", required=True, dest="t_range", help="LO:HI inclusive")
    p.add_argument("--levels", type=int, default=13, help="levels to compute")

    return parser


_HANDLERS = {
    "divide": _cmd_divide,
    "diagram": _cmd_diagram,
    "jet": _cmd_jet,
    "reduce": _cmd_reduce,
    "check-equivalence": _cmd_check_equivalence,
    "check-conjugacy": _cmd_check_dynamics,
    "check-field-equivalence": _cmd_check_dynamics,
    "counterexample sequence": _cmd_counterexample_sequence,
    "counterexample verify": _cmd_counterexample_verify,
    "counterexample horizon": _cmd_counterexample_horizon,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = args.command
    if hasattr(args, "subcommand"):
        command = f"{command} {args.subcommand}"
    try:
        code, report = _HANDLERS[command](args)
    except (GermcalcError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, PrecisionError):
            return 3
        return 4 if isinstance(exc, CrossCheckError) else 2
    report["command"] = command
    if args.seed is not None:
        report["seed"] = args.seed
    _emit(report, args.format)
    return code


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()

"""Spans around germcalc's public layer boundaries, recorded from outside.

``Tracer.install`` replaces class attributes and every module-level binding
of the traced public functions with wrappers; ``Tracer.uninstall`` puts the
originals back and verifies that nothing wrapped is left.  Each call
through a wrapper records a span: name, start, end, parent span and op id.
A span's self time is its duration minus the time its direct children
cover.  Counts (calls, term pairs, builds, ...) are taken at the same
boundaries.  Nothing here is imported by germcalc.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

MARK = "__bench_span__"


# -- hooks run around a wrapped call, outside the span's timed interval ----

def _mul_pairs(tr, args, kwargs):
    a, b = args[0], args[1]
    left = len(a.terms)
    tr.counts["series.mul.term_pairs"] += left * len(b.terms) if hasattr(b, "terms") else left


def _map_key(phi):
    return tuple(frozenset(c.terms.items()) for c in phi.components) + (phi.truncation,)


def _inverse_repeat(tr, args, kwargs):
    key = (tr.op_id, _map_key(args[0]))
    if key in tr.inverted:
        tr.counts["series.inverse.repeats"] += 1
    tr.inverted.add(key)


def _jetspace_rows(tr, args, kwargs):
    # Materialise the candidate rows so they can be counted; JetSpace
    # iterates them once either way.
    args = list(args)
    if len(args) > 3:
        args[3] = list(args[3])
        rows = len(args[3])
    else:
        kwargs["spanning"] = list(kwargs.get("spanning", ()))
        rows = len(kwargs["spanning"])
    tr.counts["ideals.jetspace.builds"] += 1
    tr.counts["ideals.jetspace.rows_in"] += rows
    return tuple(args), kwargs


def _jetspace_built(tr, args, kwargs, result):
    tr.counts["ideals.jetspace.rank_out"] += args[0].rank
    tr.keep.append(args[0])


def _jet_space_entry(tr, args, kwargs):
    tr.pending.append(tr.counts["ideals.jetspace.builds"])


def _jet_space_exit(tr, args, kwargs, result):
    if tr.counts["ideals.jetspace.builds"] == tr.pending.pop():
        tr.counts["ideals.jet_space.hits"] += 1


def _equivalence_report(tr, args, kwargs, report):
    searches = report.left_matching + report.right_matching
    tr.counts["equivalence.candidates_tried"] += sum(m.tried for m in searches)
    tr.counts["equivalence.searches"] += len(searches) + len(report.per_index)
    tr.counts["equivalence.matched"] += sum(m.partner is not None for m in searches)
    tr.counts["equivalence.matched"] += sum(v.ok for v in report.per_index)


def _curves_report(tr, args, kwargs, report):
    tr.counts["curves.cross_checked"] += report.cross_checked


def _keep_result(tr, args, kwargs, result):
    tr.keep.append(result)


# (span name, module, attribute path, hook before, hook after).  A path
# with a dot names a class attribute; otherwise a module-level function,
# rebound wherever a germcalc module imported it.
TARGETS = (
    ("series.mul", "germcalc.series", "FormalSeries.__mul__", _mul_pairs, None),
    ("series.add", "germcalc.series", "FormalSeries.__add__", None, None),
    ("series.add", "germcalc.series", "FormalSeries.__sub__", None, None),
    ("series.substitute", "germcalc.series", "FormalSeries.substitute", None, None),
    ("series.inverse", "germcalc.series", "FormalMap.inverse", _inverse_repeat, _keep_result),
    ("ideals.jet_space", "germcalc.ideals", "IdealPresentation.jet_space",
     _jet_space_entry, _jet_space_exit),
    ("ideals.jetspace", "germcalc.ideals", "JetSpace.__init__", _jetspace_rows, _jetspace_built),
    ("ideals.membership", "germcalc.ideals", "jet_membership", None, None),
    ("ideals.reduce", "germcalc.ideals", "JetSpace.reduce", None, None),
    ("division.divide", "germcalc.division", "formal_division", None, None),
    ("division.reduce_mod_ideal", "germcalc.division", "reduce_mod_ideal", None, None),
    ("equivalence.check", "germcalc.equivalence", "is_order_k_equivalence",
     None, _equivalence_report),
    ("dynamics.transport", "germcalc.dynamics", "conjugate", None, None),
    ("dynamics.transport", "germcalc.dynamics", "pushforward_field", None, None),
    ("dynamics.check", "germcalc.dynamics", "is_order_k_conjugacy", None, None),
    ("dynamics.check", "germcalc.dynamics", "is_order_k_field_equivalence", None, None),
    ("curves.verify", "germcalc.curves", "verify_finite_order_equivalence",
     None, _curves_report),
    ("expressions.parse", "germcalc.expressions", "parse_series", None, None),
    ("expressions.parse", "germcalc.expressions", "parse_map", None, None),
    ("expressions.parse", "germcalc.expressions", "parse_components", None, None),
    ("expressions.format", "germcalc.expressions", "format_series", None, None),
    ("expressions.format", "germcalc.expressions", "format_map", None, None),
    ("manifest.load", "germcalc.manifest", "load_manifest", None, None),
    ("cli.main", "germcalc.cli", "main", None, None),
)


def _wrap(tr, nid, fn, before, after):
    @functools.wraps(fn)
    def span(*args, **kwargs):
        if before is not None:
            changed = before(tr, args, kwargs)
            if changed is not None:
                args, kwargs = changed
        idx = len(tr.name)
        tr.name.append(nid)
        tr.parent.append(tr.stack[-1] if tr.stack else -1)
        tr.op.append(tr.op_id)
        tr.stack.append(idx)
        tr.end.append(0.0)
        tr.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.end[idx] = perf_counter()
            tr.stack.pop()
        if after is not None:
            after(tr, args, kwargs, result)
        return result

    setattr(span, MARK, True)
    return span


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.inverted: set = set()
        self.pending: list[int] = []
        self.keep: list = []
        self._saved: list[tuple] = []

    # -- installation ----------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        mods = {k: m for k, m in sys.modules.items()
                if k == "germcalc" or k.startswith("germcalc.")}
        for name, modname, path, before, after in targets:
            if name not in self.names:
                self.names.append(name)
            nid = self.names.index(name)
            mod = mods.get(modname)
            if mod is None:
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or attr not in cls.__dict__:
                    continue
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, _wrap(self, nid, original, before, after))
                continue
            fn = getattr(mod, path, None)
            if fn is None:
                continue
            wrapper = _wrap(self, nid, fn, before, after)
            for other in mods.values():
                for attr, value in list(vars(other).items()):
                    if value is fn:
                        self._saved.append((other, attr, fn))
                        setattr(other, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        left = leftover_wrappers()
        if left:
            raise RuntimeError(f"wrappers survived uninstall: {left}")

    # -- summary ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total duration and self time."""
        count = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * count
        for idx in range(count):
            p = self.parent[idx]
            if p >= 0:
                child[p] += dur[idx]
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for idx in range(count):
            row = out[self.names[self.name[idx]]]
            row["calls"] += 1
            row["total_s"] += dur[idx]
            row["self_s"] += dur[idx] - child[idx]
        return out


def leftover_wrappers() -> list[str]:
    """Every attribute of a loaded germcalc module or class that is still
    a benchmark wrapper."""
    found = []
    for key, mod in list(sys.modules.items()):
        if not (key == "germcalc" or key.startswith("germcalc.")):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{key}.{attr}")
            if isinstance(value, type) and value.__module__ == key:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, MARK, False):
                        found.append(f"{key}.{attr}.{cattr}")
    return found


def coefficient_bits(objects) -> int:
    """Largest numerator or denominator bit length among the coefficients
    reachable from the given results (series, maps, fields, jet spaces,
    division results, reports and containers of them)."""
    best = 0
    seen: set = set()
    stack = list(objects)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Fraction):
            best = max(best, obj.numerator.bit_length(), obj.denominator.bit_length())
        elif hasattr(obj, "real") and hasattr(obj, "imag") and not isinstance(obj, (int, float)):
            stack += [obj.real, obj.imag]
        elif hasattr(obj, "terms") and isinstance(getattr(obj, "terms"), dict):
            stack += list(obj.terms.values())
        elif hasattr(obj, "components"):
            stack += list(obj.components)
        elif hasattr(obj, "basis"):
            stack += list(obj.basis)
        elif hasattr(obj, "quotients"):
            stack += list(obj.quotients) + [obj.remainder]
        elif isinstance(obj, (list, tuple)):
            stack += list(obj)
    return best

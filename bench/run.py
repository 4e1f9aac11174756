"""Seeded closed-loop benchmark of germcalc.

Run from the repository root:

    python3 bench/run.py --workload curves-setmatch --seed 1 --seconds 25 --trace 0

One process, one thread, one op in flight.  An op is one call into
germcalc's public API.  A run sets up the workload several times (import
of germcalc plus presenting the seeded inputs to it), spread over the
run, and keeps the median; it runs passes over the workload's cases until
--seconds have passed, each case once per pass.  Between ops it times a
fixed reference computation, and every time it reports is scaled to the
reference's full speed, so that a machine slowed by other tenants does
not move the figures (see Reference).  Every answer is checked after the
timed loop, against expectations that do not come from germcalc.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced runs of the first round and reports per-layer metrics.  The last stdout line
is one JSON object: correct, attempted, failed, metrics.  The line
before it is the run's fingerprint.  `--workload all` runs every
workload and prints one table.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc as pygc
import importlib
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import poly  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
SECONDS = 25
TAIL_BEYOND = 10
# The reference computation's time at full speed on the machine that
# bench/README.md describes, how often the timed loop runs it, and how
# far before and after a timed span its readings count for that span.
REFERENCE_S = 0.0065
REFERENCE_EVERY_S = 0.2
REFERENCE_NEAR_S = 0.6

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics of one pass: (name, unit, span or count, field).
PER_LAYER = (
    ("series.mul.calls", "count", "series.mul", "calls"),
    ("series.mul.term_pairs", "count", "count", "series.mul.term_pairs"),
    ("series.mul.self_s", "s", "series.mul", "self_s"),
    ("series.add.self_s", "s", "series.add", "self_s"),
    ("series.substitute.calls", "count", "series.substitute", "calls"),
    ("series.substitute.self_s", "s", "series.substitute", "self_s"),
    ("series.inverse.calls", "count", "series.inverse", "calls"),
    ("series.inverse.self_s", "s", "series.inverse", "self_s"),
    ("series.inverse.total_s", "s", "series.inverse", "total_s"),
    ("series.inverse.repeat_ratio", "ratio", "ratio",
     ("series.inverse.repeats", "series.inverse.calls")),
    ("ideals.jet_space.calls", "count", "ideals.jet_space", "calls"),
    ("ideals.jetspace.builds", "count", "count", "ideals.jetspace.builds"),
    ("ideals.jet_space.hit_ratio", "ratio", "ratio",
     ("ideals.jet_space.hits", "ideals.jet_space.calls")),
    ("ideals.jetspace.build_s", "s", "ideals.jetspace", "total_s"),
    ("ideals.jetspace.useful_ratio", "ratio", "ratio",
     ("ideals.jetspace.rank_out", "ideals.jetspace.rows_in")),
    ("ideals.membership.self_s", "s", "ideals.membership", "self_s"),
    ("ideals.reduce.self_s", "s", "ideals.reduce", "self_s"),
    ("division.divide.calls", "count", "division.divide", "calls"),
    ("division.divide.self_s", "s", "division.divide", "self_s"),
    ("division.reduce_mod_ideal.self_s", "s", "division.reduce_mod_ideal", "self_s"),
    ("equivalence.check.self_s", "s", "equivalence.check", "self_s"),
    ("equivalence.candidates_tried", "count", "count", "equivalence.candidates_tried"),
    ("equivalence.match_ratio", "ratio", "ratio",
     ("equivalence.matched", "equivalence.searches")),
    ("dynamics.transport.self_s", "s", "dynamics.transport", "self_s"),
    ("dynamics.check.self_s", "s", "dynamics.check", "self_s"),
    ("curves.verify.self_s", "s", "curves.verify", "self_s"),
    ("curves.cross_checked", "count", "count", "curves.cross_checked"),
    ("expressions.parse.self_s", "s", "expressions.parse", "self_s"),
    ("expressions.format.self_s", "s", "expressions.format", "self_s"),
    ("manifest.load.self_s", "s", "manifest.load", "self_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("scalars.coeff_bits_max", "bits", "bits", None),
    ("trace.overhead_ratio", "ratio", "overhead", None),
)


class Unavailable(Exception):
    """germcalc cannot be imported from this checkout's src/."""


def import_germcalc():
    """A fresh import of germcalc from ./src, replacing any loaded copy."""
    if not (SRC / "germcalc" / "__init__.py").is_file():
        raise Unavailable(f"no germcalc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "germcalc" or k.startswith("germcalc.")]:
        del sys.modules[key]
    pkg = importlib.import_module("germcalc")
    importlib.import_module("germcalc.cli")
    if Path(pkg.__file__).resolve().parent != (SRC / "germcalc").resolve():
        raise Unavailable(f"germcalc imported from {pkg.__file__}, not from {SRC}")
    return pkg


def setup_once(cases, workdir, keep=True):
    """Import germcalc afresh and present every case's inputs to it, in an
    emptied `workdir`; returns the time taken.  With keep, the cases' ops
    become the ones made here; otherwise they are dropped."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    t0 = perf_counter()
    pkg = import_germcalc()
    calls = [case.make(pkg, str(workdir)) for case in cases]
    elapsed = perf_counter() - t0
    if keep:
        for case, call in zip(cases, calls):
            case.call = call
    return elapsed


class Reference:
    """The machine's speed during a run, read from a fixed computation.

    A shared machine can run the same code up to twice as slowly, in
    spells from a fraction of a second to minutes, while other tenants
    load it.  The timed loop runs a fixed composition of series in the
    benchmark's own arithmetic (Fraction and dict work, like germcalc's)
    every REFERENCE_EVERY_S seconds, between ops.  A span timed from t0
    to t1, multiplied by scale(t0, t1), is what it would have taken at
    the reference's full speed; the scale comes from the mean of the
    readings within REFERENCE_NEAR_S of the span."""

    def __init__(self):
        rng = random.Random("reference")
        self.phi, self.psi = workloads.elementary_chain(rng, 2, 5, 4)
        self.f = workloads.rand_map(rng, 2, 5)
        self.at: list[float] = []  # when each reading ended
        self.times: list[float] = []  # how long each reading took
        self.read_at = float("-inf")

    def read(self):
        t0 = perf_counter()
        poly.compose_map(poly.compose_map(self.phi, self.f, 5), self.psi, 5)
        self.read_at = perf_counter()
        self.at.append(self.read_at)
        self.times.append(self.read_at - t0)

    def due(self):
        """Read, if the last reading is older than REFERENCE_EVERY_S."""
        if perf_counter() - self.read_at >= REFERENCE_EVERY_S:
            self.read()

    def scale(self, t0, t1) -> float:
        lo = bisect.bisect_left(self.at, t0 - REFERENCE_NEAR_S)
        hi = bisect.bisect_right(self.at, t1 + REFERENCE_NEAR_S)
        if lo == hi:  # no reading near: the nearest one
            before, after = max(lo - 1, 0), min(lo, len(self.at) - 1)
            lo = before if t0 - self.at[before] < self.at[after] - t1 else after
            hi = lo + 1
        return REFERENCE_S / statistics.fmean(self.times[lo:hi])


class Runner:
    """Runs ops one at a time and keeps every op's latency, by case, and
    what checking needs: the first answer of each case, and any later
    answer that differs.  With a Reference, it reads the machine's speed
    between ops when a reading is due, and per_case() scales each op to
    the reference speed."""

    def __init__(self, reference=None):
        self.reference = reference
        self.latencies: list[float] = []
        self.times: dict = {}  # id(case) -> (start, latency) of its ops
        self.first: dict = {}  # id(case) -> [case, result, ops that agreed]
        self.odd: list = []  # (case, result) differing from the first answer
        self.errors: list = []  # (case name, error)

    def run(self, batch, tracer=None):
        for case in batch:
            if tracer is not None:
                tracer.op_id = len(self.latencies)
            call = case.call
            result = error = None
            if self.reference is not None:
                self.reference.due()
            t0 = perf_counter()
            try:
                result = call()
            except Exception as exc:  # an op that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            self.latencies.append(elapsed)
            self.times.setdefault(id(case), []).append((t0, elapsed))
            if error is not None:
                self.errors.append((case.name, error))
                continue
            seen = self.first.get(id(case))
            if seen is None:
                self.first[id(case)] = [case, result, 1]
            elif result == seen[1]:
                seen[2] += 1
            else:
                self.odd.append((case, result))

    def per_case(self, scaled=True):
        """Each case's mean latency over its ops, scaled to the reference
        speed if there is a Reference and `scaled`."""
        def scale(t0, elapsed):
            if scaled and self.reference is not None:
                return self.reference.scale(t0, t0 + elapsed)
            return 1.0
        return [statistics.fmean(t * scale(t0, t) for t0, t in ops)
                for ops in self.times.values()]

    def failures(self):
        """(case name, reason) for every op whose answer is wrong or that
        raised, one entry per op."""
        out = list(self.errors)
        for case, result, ops in self.first.values():
            reason = case.check(case, result)
            if reason is not None:
                out += [(case.name, reason)] * ops
        for case, result in self.odd:
            out.append((case.name, case.check(case, result) or "answer changed between runs"))
        return out


def tail(latencies):
    """(value, percentile) of the cases' latencies at the highest
    percentile with TAIL_BEYOND cases beyond it.  It depends on the number
    of cases only, not on how many passes fit in a run.  With fewer than
    2 * TAIL_BEYOND cases that percentile would sit below the median, so
    the median is returned with percentile None."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), None
    rank = n - TAIL_BEYOND  # 1-based
    return ordered[rank - 1], 100.0 * rank / n


def measure(workload, seed, seconds, trace=False, tiny=False, workdir=None):
    """One benchmark run.  Returns a dict with the contract's fields plus
    details for people (tail percentile, failures, per-layer values).

    Untraced, rounds run in turn until --seconds have passed, and the run
    stops only after a whole pass over all rounds, so that every case runs
    equally often.  The set-up is repeated SETUP_REPEATS times, once before
    the loop and the others spread over it between rounds, outside the
    loop's clock; only the first one's ops are run.  A case's latency is
    the mean over its ops, each scaled to the reference speed, and the
    set-ups are scaled alike; "wall" keeps the figures as measured.
    Traced, the first round runs untraced and traced alternately for
    --seconds, after one set-up."""
    rounds = workloads.WORKLOADS[workload](random.Random(f"{workload}:{seed}"), tiny)
    shuffle = random.Random(f"order:{workload}:{seed}").shuffle
    for batch in rounds:
        shuffle(batch)
    cases = [c for batch in rounds for c in batch]
    own_workdir = workdir is None
    if own_workdir:
        workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir = Path(workdir)
    reference = Reference()
    runner = Runner(None if trace else reference)
    walls = {"plain": [], "traced": []}
    layer_rounds: list = []
    bit_sources: list = []
    setups = 1 if trace else SETUP_REPEATS
    try:
        def timed_setup(where, keep):
            """(start, time taken) of a set-up, with the machine's speed
            read just before and after it."""
            reference.read()
            t0 = perf_counter()
            elapsed = setup_once(cases, workdir / where, keep)
            reference.read()
            return t0, elapsed

        setup_times = [timed_setup("ops", True)]
        pygc.collect()
        start = perf_counter()
        paused = 0.0  # time spent on the spread set-ups

        def spare_setup():
            nonlocal paused
            t0 = perf_counter()
            setup_times.append(timed_setup("spare", False))
            pygc.collect()
            paused += perf_counter() - t0

        for turn in itertools.count():
            batch = rounds[0] if trace else rounds[turn % len(rounds)]
            t0 = perf_counter()
            runner.run(batch)
            walls["plain"].append(perf_counter() - t0)
            if trace:
                tracer = tracing.Tracer()
                tracer.install()
                t0 = perf_counter()
                try:
                    runner.run(batch, tracer)
                finally:
                    walls["traced"].append(perf_counter() - t0)
                    tracer.uninstall()
                layer_rounds.append((tracer.summary(), tracer.counts))
                if turn == 0:
                    bit_sources = tracer.keep + [r for _, r, _ in runner.first.values()]
            elapsed = perf_counter() - start - paused
            if len(setup_times) < setups and elapsed >= seconds * len(setup_times) / setups:
                spare_setup()
            whole_pass = trace or (turn + 1) % len(rounds) == 0
            if whole_pass and elapsed >= seconds:
                break
        while len(setup_times) < setups:
            spare_setup()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if own_workdir:
            with contextlib.suppress(OSError):
                workdir.parent.rmdir()  # only if no other run is using it
    failures = runner.failures()
    per_case, wall = runner.per_case(), runner.per_case(scaled=False)
    tail_s, tail_pct = tail(per_case)
    out = {
        "workload": workload,
        "seed": seed,
        "attempted": len(runner.latencies),
        "failed": len(failures),
        "failures": failures,
        "cases": len(cases),
        "rounds": len(walls["plain"]),
        "tail_percentile": tail_pct,
        "end_to_end": {
            "ops_per_s": len(per_case) / sum(per_case),
            "op_p50_ms": statistics.median(per_case) * 1000.0,
            "op_tail_ms": tail_s * 1000.0,
            "setup_s": statistics.median(
                t * reference.scale(t0, t0 + t) for t0, t in setup_times),
            "peak_rss_mb": peak_rss_mb,
        },
        # as measured, before scaling to the reference speed
        "wall": {
            "ops_per_s": len(wall) / sum(wall),
            "op_p50_ms": statistics.median(wall) * 1000.0,
            "op_tail_ms": tail(wall)[0] * 1000.0,
            "setup_s": statistics.median(t for _, t in setup_times),
        },
        "slowdown": statistics.fmean(reference.times) / REFERENCE_S,
    }
    if trace:
        out["per_layer"] = per_layer(layer_rounds, bit_sources, walls)
    return out


def per_layer(layer_rounds, bit_sources, walls):
    """Per traced run of the first round: counts from the first (every
    traced run repeats the same ops), times as the mean over them."""
    first_summary, counts = layer_rounds[0]
    counts = dict(counts)
    for span, row in first_summary.items():
        counts[f"{span}.calls"] = row["calls"]
    values = {}
    for name, _, source, key in PER_LAYER:
        if source == "count":
            values[name] = counts.get(key, 0)
        elif source == "ratio":
            num, den = (counts.get(k, 0) for k in key)
            values[name] = num / den if den else 0.0
        elif source == "bits":
            values[name] = tracing.coefficient_bits(bit_sources)
        elif source == "overhead":
            values[name] = sum(walls["traced"]) / sum(walls["plain"])
        elif key == "calls":
            values[name] = first_summary.get(source, {}).get("calls", 0)
        else:
            values[name] = statistics.fmean(
                s.get(source, {}).get(key, 0.0) for s, _ in layer_rounds
            )
    return values


# -- reporting ----------------------------------------------------------------


def git_sha():
    """HEAD's commit read from .git without running git; None outside a
    repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def fingerprint(seed, results):
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "ops": {r["workload"]: r["attempted"] for r in results},
        "rounds": {r["workload"]: r["rounds"] for r in results},
    }


def contract_line(result, trace):
    if trace:
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        values = result["per_layer"]
    else:
        units = dict(END_TO_END)
        values = result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def describe(result, trace, out=sys.stderr):
    w = result["workload"]
    rate = result["failed"] / result["attempted"]
    print(f"[{w}] seed={result['seed']} cases={result['cases']} rounds={result['rounds']} "
          f"ops={result['attempted']} failed={result['failed']} error_rate={rate:.4f}", file=out)
    for name, reason in result["failures"][:20]:
        print(f"  FAILED {name}: {reason}", file=out)
    if trace:
        for name, unit, _, _ in PER_LAYER:
            print(f"  {name:<34} {result['per_layer'][name]:14.6f} {unit}", file=out)
        return
    e2e, wall = result["end_to_end"], result["wall"]
    print(f"  machine ran {result['slowdown']:.3f} times as long as at the reference speed",
          file=out)
    for name, unit in END_TO_END:
        note = f"  (as measured {wall[name]:.4f})" if name in wall else ""
        if name == "op_tail_ms":
            pct = result["tail_percentile"]
            note += (f"  (p{pct:.1f} of {result['cases']} cases)" if pct is not None
                     else f"  (only {result['cases']} cases: this is the median)")
        print(f"  {name:<14} {e2e[name]:12.4f} {unit}{note}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [measure(w, args.seed, args.seconds, bool(args.trace))
                   for w in names]
    except Unavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in results:
        describe(r, args.trace)
    print("fingerprint " + json.dumps(fingerprint(args.seed, results), sort_keys=True))
    if args.workload == "all":
        table = {r["workload"]: dict(contract_line(r, args.trace),
                                     error_rate=r["failed"] / r["attempted"],
                                     tail_percentile=r["tail_percentile"])
                 for r in results}
        print(json.dumps(table, sort_keys=True))
    else:
        print(json.dumps(contract_line(results[0], args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

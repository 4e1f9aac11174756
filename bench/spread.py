"""Run the benchmark once per seed and summarise each metric.

    python3 bench/spread.py --workload ideal-queries --seeds 1-10 [--trace 1] [--out FILE]
    python3 bench/spread.py --workload dynamics-transport --against ../parent

Runs are sequential, one process at a time, from the repository root.
For every metric it prints the values, their median and the quartile
spread (third quartile minus first, over the median, as
statistics.quantiles(values, n=4) gives them).  With --against DIR, a
second checkout, every seed runs in both checkouts in turn, the one that
goes first swapping from seed to seed, so that both sets see the same
machine; the ratio of the two medians is printed too.  --out writes the
same as JSON, together with each run's fingerprint; bench/baseline.json
was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def run_once(cmd, cwd, label):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{label} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--against", default=None, help="a second checkout to alternate with")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(spec["run_seconds"])
    sides = {"here": ROOT}
    if args.against:
        sides["against"] = Path(args.against).resolve()

    report: dict = {side: {} for side in sides}
    for workload in args.workload:
        metrics: dict = {side: {} for side in sides}
        runs: dict = {side: [] for side in sides}
        for i, seed in enumerate(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", seconds, "--trace", args.trace]
            for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
                label = f"{workload} seed {seed} ({side})"
                result, fingerprint = run_once(cmd, sides[side], label)
                print(f"{label} attempted={result['attempted']} failed={result['failed']}",
                      flush=True)
                runs[side].append({"seed": seed, "attempted": result["attempted"],
                                   "failed": result["failed"], "fingerprint": fingerprint})
                for name, m in result["metrics"].items():
                    metrics[side].setdefault(name, {"unit": m["unit"], "values": []})[
                        "values"].append(m["value"])
        for side in sides:
            summary = {name: dict(summarise(m["values"]), unit=m["unit"])
                       for name, m in metrics[side].items()}
            report[side][workload] = {"runs": runs[side], "metrics": summary}
        for name, s in report["here"][workload]["metrics"].items():
            line = f"  {name:<34} median={s['median']:<14.6g} spread={fmt(s['spread'])}"
            if args.against:
                t = report["against"][workload]["metrics"][name]
                ratio = t["median"] / s["median"] if s["median"] else None
                line += (f"  | against: median={t['median']:<14.6g} spread={fmt(t['spread'])}"
                         f" ratio={fmt(ratio)}")
            print(line)
    if args.out:
        out = report if args.against else report["here"]
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def fmt(x):
    return "-" if x is None else f"{x:.3f}"


if __name__ == "__main__":
    main()

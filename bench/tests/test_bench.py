"""Tests of the benchmark itself, at tiny scale.

    python -m pytest bench/tests -q
"""

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = ("count", "bits")


@pytest.fixture(autouse=True)
def keep_loaded_germcalc():
    """The benchmark re-imports germcalc; put back the modules other tests
    imported so they keep working with their own classes."""
    saved = {k: m for k, m in sys.modules.items()
             if k == "germcalc" or k.startswith("germcalc.")}
    yield
    for key in [k for k in sys.modules if k == "germcalc" or k.startswith("germcalc.")]:
        del sys.modules[key]
    sys.modules.update(saved)


def tiny_cases(workload, seed, tmp_path):
    rounds = workloads.WORKLOADS[workload](random.Random(seed), tiny=True)
    cases = [c for batch in rounds for c in batch]
    bench_run.setup_once(cases, tmp_path / "work")
    return cases


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_each_workload_runs_tiny(workload, tmp_path):
    result = bench_run.measure(workload, 3, 0, tiny=True, workdir=tmp_path / "w")
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["failures"]
    line = bench_run.contract_line(result, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k for k, _ in bench_run.END_TO_END} == set(line["metrics"])
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    # curves inputs are plain parameters, cheap to draw at full scale
    tiny = workload != "curves-setmatch"

    def inputs(seed):
        rounds = workloads.WORKLOADS[workload](random.Random(seed), tiny=tiny)
        return [(c.name, repr(c.inputs)) for b in rounds for c in b]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_same_seed_same_counts(tmp_path):
    def counts():
        result = bench_run.measure("cli-manifests", 4, 0, trace=True, tiny=True,
                                   workdir=tmp_path / "w")
        return {name: result["per_layer"][name]
                for name, unit, _, _ in bench_run.PER_LAYER if unit in COUNT_UNITS}

    first = counts()
    assert first["series.mul.calls"] > 0 and first["ideals.jetspace.builds"] > 0
    assert counts() == first


def test_dynamics_builds_no_jet_space(tmp_path):
    result = bench_run.measure("dynamics-transport", 2, 0, trace=True, tiny=True,
                               workdir=tmp_path / "w")
    assert result["per_layer"]["ideals.jetspace.builds"] == 0
    assert result["per_layer"]["series.inverse.calls"] > 0


def flip_membership(case):
    case.expected = not workloads.resolve_expected(case)


def shift_normal_form(case):
    want = dict(workloads.resolve_expected(case))
    gens = case.inputs[0]
    one = (0,) * len(next(iter(gens[0])))
    want[one] = want.get(one, 0) + 1
    case.expected = want


def change_dividend_term(case):
    f = dict(case.data["f"])
    key = next(iter(f))
    f[key] += 1
    case.data["f"] = f


@pytest.mark.parametrize("workload, kind, plant", [
    ("curves-setmatch", workloads.check_curves,
     lambda case: setattr(case, "expected", not case.expected)),
    ("dynamics-transport", workloads.check_map, lambda case: setattr(case, "expected", [{}])),
    ("dynamics-transport", workloads.check_dynamics_verdict,
     lambda case: setattr(case, "expected", (not case.expected[0],) + tuple(case.expected[1:]))),
    ("ideal-queries", workloads.check_membership, flip_membership),
    ("ideal-queries", workloads.check_reduce, shift_normal_form),
    ("ideal-queries", workloads.check_division, change_dividend_term),
    ("cli-manifests", workloads.check_cli, lambda case: case.expected.update(code=7)),
])
def test_planted_wrong_answer_counts_as_error(workload, kind, plant, tmp_path):
    """One wrong expectation per kind of answer check: that op, and only
    that op, is counted as failed."""
    cases = tiny_cases(workload, 1, tmp_path)
    target = next(c for c in cases if c.check is kind)
    plant(target)
    runner = bench_run.Runner()
    runner.run(cases)
    failures = runner.failures()
    assert [name for name, _ in failures] == [target.name]


def constant_cases(count):
    return [workloads.Case(f"case {i}", make=None, check=lambda case, result: None,
                           call=lambda i=i: i) for i in range(count)]


def test_tail_percentile_does_not_move_with_passes():
    cases = constant_cases(48)
    one, two = bench_run.Runner(), bench_run.Runner()
    one.run(cases)
    two.run(cases)
    two.run(cases[::-1])
    assert len(one.per_case()) == len(two.per_case()) == 48
    assert bench_run.tail(one.per_case())[1] == bench_run.tail(two.per_case())[1] == \
        pytest.approx(100.0 * 38 / 48)
    rng = random.Random(0)
    latencies = [rng.random() for _ in range(48)]
    assert bench_run.tail(latencies)[0] == sorted(latencies)[37]
    assert bench_run.tail(latencies[:12]) == (statistics.median(latencies[:12]), None)


def test_reference_is_read_between_ops_and_scales_nearby_spans():
    reference = bench_run.Reference()
    runner = bench_run.Runner(reference)
    runner.run(constant_cases(3))
    assert len(reference.times) == 1 and reference.times[0] > 0
    full = bench_run.REFERENCE_S
    reference.at, reference.times = [10.0, 10.5, 30.0], [2 * full, 4 * full, 8 * full]
    assert reference.scale(10.2, 10.3) == pytest.approx(1 / 3)
    assert reference.scale(20.0, 20.1) == pytest.approx(1 / 4)
    assert reference.scale(29.0, 29.5) == pytest.approx(1 / 8)


def test_no_wrapper_survives_a_traced_run(tmp_path):
    pkg = bench_run.import_germcalc()
    mods = [m for k, m in sys.modules.items() if k == "germcalc" or k.startswith("germcalc.")]

    def snapshot():
        out = {}
        for mod in mods:
            for attr, value in vars(mod).items():
                out[(mod.__name__, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(mod.__name__, attr, cattr)] = cvalue
        return out

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.leftover_wrappers(), "install wrapped nothing"
        cases = [c for b in workloads.build_cli(random.Random(2), tiny=True) for c in b]
        (tmp_path / "w").mkdir()
        for case in cases:
            case.call = case.make(pkg, str(tmp_path / "w"))
        bench_run.Runner().run(cases, tracer)
    finally:
        tracer.uninstall()
    after = snapshot()
    assert tracing.leftover_wrappers() == []
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.summary()["cli.main"]["calls"] == len(cases)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits nonzero
    and prints no result line."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curves-setmatch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in bench_run.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)

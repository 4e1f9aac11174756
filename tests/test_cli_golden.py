"""Byte-for-byte replay of every CLI run of acceptance criterion 10.

``data/golden/cli_corpus.json`` records, for each run in text and in JSON
format, the exit code, stdout and stderr.  Manifest paths are stored
relative to the repository root, so the file does not depend on where the
checkout lives.  Criterion 10 only checks that repeated runs agree; this
test pins the output itself.

Regenerate the file only when a change of output is intended:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import functools
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from germcalc.cli import main
from test_cli import CORPUS_RUNS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden" / "cli_corpus.json"


def _portable(argv) -> list[str]:
    """argv with the manifest path made relative to the repository root."""
    out = list(argv)
    if "--manifest" in out:
        at = out.index("--manifest") + 1
        out[at] = Path(out[at]).resolve().relative_to(ROOT).as_posix()
    return out


def _local(argv) -> list[str]:
    out = list(argv)
    if "--manifest" in out:
        at = out.index("--manifest") + 1
        out[at] = str(ROOT / out[at])
    return out


def golden_argvs() -> list[list[str]]:
    return [
        _portable(argv) + extra
        for argv, _ in CORPUS_RUNS
        for extra in ([], ["--format", "json"])
    ]


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(_local(argv))
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


@functools.cache
def recorded() -> dict[str, dict]:
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {" ".join(entry["argv"]): entry for entry in entries}


def test_golden_covers_every_criterion_10_run():
    assert list(recorded()) == [" ".join(argv) for argv in golden_argvs()]


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_cli_output_matches_golden(argv):
    assert run(argv) == recorded()[" ".join(argv)]


if __name__ == "__main__":
    runs = [run(argv) for argv in golden_argvs()]
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {GOLDEN.relative_to(ROOT)}")

"""The README's documented entry points run as written: its Python API
example with the verdicts its comments state, and each ``germcalc``
command line of its shell blocks through the CLI.  Its subcommand table
lists exactly the parser's subcommands."""

import re
import shlex
from pathlib import Path

import pytest

from germcalc.cli import build_parser, main
from test_cli import leaf_paths

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


COMMANDS = [
    shlex.split(line)[1:]
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("germcalc ")
]


def test_python_api_example_runs_and_its_verdicts_hold():
    (block,) = _blocks("python")
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    verdicts = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        stated = re.match(r"\s*(True|False)\b", comment)
        if stated:
            verdicts.append((code.strip(), stated.group(1) == "True"))
    assert [v for _, v in verdicts] == [True, True, False]
    for expression, expected in verdicts:
        assert eval(expression, namespace) is expected


def test_readme_documents_cli_lines():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_cli_line_exits_with_a_verdict(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(argv) in (0, 1)
    assert capsys.readouterr().out


def test_readme_subcommand_table_lists_each_leaf_subcommand():
    section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([^`]+)` \|", section, re.M)
    assert sorted(listed) == sorted(leaf_paths(build_parser()))

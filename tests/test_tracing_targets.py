"""The benchmark's tracer finds every layer boundary it names.

bench/tracing.py wraps each TARGETS entry by name and skips one it cannot
find without a word, so a method that moves to a base class would read 0
in every metric of its span.  The file is read as text here, not imported,
and nothing under bench/ is written.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    """(span name, module, attribute path) of each TARGETS entry."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [
                tuple(ast.literal_eval(part) for part in entry.elts[:3])
                for entry in node.value.elts
            ]
    raise AssertionError("bench/tracing.py defines no TARGETS")


TARGETS = _targets()


def test_targets_are_read():
    assert len(TARGETS) >= 20
    assert ("series.inverse", "germcalc.series", "FormalMap.inverse") in TARGETS


@pytest.mark.parametrize(
    "name,module,path", TARGETS, ids=[f"{n}:{p}" for n, _, p in TARGETS]
)
def test_each_target_resolves_where_the_tracer_looks(name, module, path):
    mod = importlib.import_module(module)
    if "." in path:
        # a class attribute is wrapped only in the class's own __dict__
        cls_name, attr = path.split(".")
        cls = getattr(mod, cls_name)
        assert attr in vars(cls), f"{path} is not defined on {cls_name} itself"
        assert callable(vars(cls)[attr])
    else:
        assert callable(getattr(mod, path, None)), f"{module} has no {path}"

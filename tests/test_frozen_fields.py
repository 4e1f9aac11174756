"""No immutable value type keeps a field under a second, property name.

errors._Frozen refuses every assignment, so a slot can be public and
read directly; a property that only returns one of its class's slots
guards nothing.  The sources under src/germcalc are read as text here,
not imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "germcalc"


def _classes():
    """Every top-level class of the package's modules, by name."""
    classes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
    return classes


CLASSES = _classes()


def _bases(node):
    return [base.id for base in node.bases if isinstance(base, ast.Name)]


def _is_frozen(name):
    node = CLASSES.get(name)
    return node is not None and any(
        base == "_Frozen" or _is_frozen(base) for base in _bases(node)
    )


def _slots(node):
    """The slot names of a class and of its bases in the package."""
    slots = set()
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            slots.update(ast.literal_eval(stmt.value))
    for base in _bases(node):
        if base in CLASSES:
            slots |= _slots(CLASSES[base])
    return slots


def _slot_aliases(node, slots):
    """Names of the properties of a class whose body, after any docstring,
    is only ``return self.<slot>``."""
    for stmt in node.body:
        if not isinstance(stmt, ast.FunctionDef) or not any(
            isinstance(d, ast.Name) and d.id == "property" for d in stmt.decorator_list
        ):
            continue
        body = stmt.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        value = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
        if (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
                and value.value.id == stmt.args.args[0].arg and value.attr in slots):
            yield stmt.name


FROZEN = sorted(name for name in CLASSES if _is_frozen(name))


def test_every_frozen_type_is_found():
    assert set(FROZEN) >= {
        "GaussianRational", "MultiIndex", "Staircase", "FormalSeries",
        "_ComponentTuple", "FormalMap", "VectorField", "JetSpace",
        "IdealPresentation", "ShiftSequence",
    }


def test_a_slot_alias_is_recognised():
    (node,) = ast.parse(
        "class C(_Frozen):\n"
        "    __slots__ = ('_x', 'y')\n"
        "    @property\n"
        "    def x(self):\n"
        "        '''The x.'''\n"
        "        return self._x\n"
        "    @property\n"
        "    def double(self):\n"
        "        return 2 * self.y\n"
    ).body
    assert list(_slot_aliases(node, _slots(node))) == ["x"]


@pytest.mark.parametrize("name", FROZEN)
def test_no_property_only_returns_a_slot(name):
    node = CLASSES[name]
    assert list(_slot_aliases(node, _slots(node))) == []

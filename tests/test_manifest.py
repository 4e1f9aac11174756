import json

import pytest

from germcalc import FormalSeries, ParseError, VectorField
from germcalc.manifest import Manifest, load_manifest, parse_manifest

CURVE_TEXT = """\
# two plane curves under a shear
vars: z, w
trunc: 6
kind: ideals
mode: family
order: 2
map: (z, w + z)

[left]
curve: w - z

[right]
curve: w + z
"""


def zw(trunc):
    return (
        FormalSeries.variable(2, trunc, 0),
        FormalSeries.variable(2, trunc, 1),
    )


# -- text form --------------------------------------------------------------


def test_parse_text_manifest():
    man = parse_manifest(CURVE_TEXT)
    assert man.variables == ("z", "w")
    assert man.truncation == 6
    assert man.kind == "ideals"
    assert man.mode == "family"
    assert man.order == 2
    assert man.map_text == "(z, w + z)"
    assert man.left == (("curve", ("w - z",)),)
    assert man.right == (("curve", ("w + z",)),)


def test_resolution_of_ideals_and_map():
    man = parse_manifest(CURVE_TEXT)
    z, w = zw(4)
    left = man.resolve_family("left", 4)
    assert left.mode == "family"
    assert left.labels == ("curve",)
    assert left.ideals[0].generators == (w - z,)
    assert man.resolve_family("right", 4).ideals[0].generators == (w + z,)


def test_generator_lists_split_on_semicolon():
    man = parse_manifest(
        "vars: z, w\n[left]\npair: w - z ; w^2\n"
    )
    z, w = zw(3)
    fam = man.resolve_family("left", 3)
    assert fam.ideals[0].generators == (w - z, w * w)


def test_maps_manifest_resolution():
    man = parse_manifest(
        "vars: z\nkind: maps\n[left]\nf: (z + z^2)\n[right]\ng: (2*z)\n"
    )
    labels, maps = man.resolve_maps("left", 4)
    z = FormalSeries.variable(1, 4, 0)
    assert labels == ["f"]
    assert maps[0].components == (z + z * z,)
    labels, maps = man.resolve_maps("right", 4)
    assert maps[0].components == (2 * z,)


def test_fields_manifest_resolution():
    man = parse_manifest("vars: z\nkind: fields\n[left]\nxi: (z^2)\n")
    labels, fields = man.resolve_fields("left", 5)
    z = FormalSeries.variable(1, 5, 0)
    assert labels == ["xi"]
    assert fields[0] == VectorField([z * z])


def test_series_header_key():
    man = parse_manifest("vars: z, w\nseries: w^2 - z\n[left]\ng: w\n")
    assert man.series_text == "w^2 - z"


def test_comments_and_blank_lines_are_ignored():
    man = parse_manifest("# top\nvars: z\n\n# middle\n[left]\na: z\n# end\n")
    assert man.left == (("a", ("z",)),)


# -- text-form errors -------------------------------------------------------


def test_unknown_header_key_reports_line():
    with pytest.raises(ParseError) as err:
        parse_manifest("vars: z\nfrobnicate: 3\n")
    assert "line 2" in str(err.value)


def test_duplicate_header_key_reports_line():
    with pytest.raises(ParseError) as err:
        parse_manifest("vars: z\ntrunc: 3\ntrunc: 4\n")
    assert "duplicate key 'trunc' on line 3" in str(err.value)


def test_duplicate_section_reports_line():
    with pytest.raises(ParseError) as err:
        parse_manifest("vars: z\n[left]\na: z\n[left]\nb: z\n")
    assert "duplicate section [left] on line 4" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ParseError) as err:
        parse_manifest("vars: z\n[middle]\na: z\n")
    assert "[middle]" in str(err.value)


def test_key_value_shape_enforced():
    with pytest.raises(ParseError) as err:
        parse_manifest("vars: z\n[left]\njust words\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError):
        parse_manifest("vars: z\ntrunc:\n")


def test_duplicate_labels_within_section():
    with pytest.raises(ParseError):
        parse_manifest("vars: z\n[left]\na: z\na: z^2\n")


def test_missing_vars_and_empty_manifest():
    with pytest.raises(ParseError):
        parse_manifest("trunc: 3\n")
    with pytest.raises(ParseError):
        parse_manifest("   \n")


def test_header_validation():
    with pytest.raises(ParseError):
        parse_manifest("vars: z\nkind: curves\n")
    with pytest.raises(ParseError):
        parse_manifest("vars: z\nmode: both\n")
    with pytest.raises(ParseError):
        parse_manifest("vars: z\ntrunc: many\n")
    with pytest.raises(ParseError):
        parse_manifest("vars: z, , w\n")


def test_empty_generator_in_list():
    with pytest.raises(ParseError):
        parse_manifest("vars: z\n[left]\na: z ;; z^2\n")


# -- JSON form --------------------------------------------------------------


def test_parse_json_manifest():
    payload = {
        "vars": ["z", "w"],
        "trunc": 6,
        "kind": "ideals",
        "mode": "family",
        "order": 2,
        "map": "(z, w + z)",
        "left": {"curve": "w - z"},
        "right": {"curve": "w + z"},
    }
    man = parse_manifest(json.dumps(payload))
    assert man == parse_manifest(CURVE_TEXT)


def test_json_pair_list_sections_preserve_order():
    payload = {
        "vars": ["z"],
        "left": [["b", "z"], ["a", "z^2"]],
    }
    man = parse_manifest(json.dumps(payload))
    assert [label for label, _ in man.left] == ["b", "a"]


def test_json_generator_lists():
    payload = {"vars": ["z", "w"], "left": {"pair": ["w - z", "w^2"]}}
    man = parse_manifest(json.dumps(payload))
    assert man.left == (("pair", ("w - z", "w^2")),)


def test_json_errors():
    with pytest.raises(ParseError):
        parse_manifest("{not json")
    with pytest.raises(ParseError):
        parse_manifest(json.dumps(["vars"]))
    with pytest.raises(ParseError):
        parse_manifest(json.dumps({"vars": "z"}))
    with pytest.raises(ParseError):
        parse_manifest(json.dumps({"vars": ["z"], "left": {"a": 3}}))
    with pytest.raises(ParseError):
        parse_manifest(json.dumps({"vars": ["z"], "left": [["a"]]}))
    with pytest.raises(ParseError):
        parse_manifest(json.dumps({"vars": ["z"], "middle": {}}))


# -- resolution errors ------------------------------------------------------


def test_resolving_what_is_not_there():
    man = parse_manifest("vars: z\n[left]\na: z\n")
    assert man.map_text is None and man.series_text is None
    with pytest.raises(ParseError):
        man.resolve_family("right", 3)
    with pytest.raises(ValueError):
        man.resolve_family("middle", 3)


@pytest.mark.parametrize(
    "kind, resolve",
    [("ideals", "resolve_family"), ("maps", "resolve_maps"), ("fields", "resolve_fields")],
)
@pytest.mark.parametrize(
    "sections, missing",
    [
        ("", "left"),
        ("[left]\n[right]\n", "left"),
        ("[left]\na: (z)\n", "right"),
        ("[right]\na: (z)\n", "left"),
        ("[left]\na: (z)\n[right]\n", "right"),
    ],
)
def test_every_kind_refuses_a_missing_or_empty_side(kind, resolve, sections, missing):
    text = parse_manifest(f"vars: z\nkind: {kind}\n{sections}")
    as_json = parse_manifest(
        json.dumps({"vars": ["z"], "kind": kind, "left": {}, "right": {"a": "(z)"}})
    )
    with pytest.raises(ParseError, match=rf"^manifest has no \[{missing}\] section$"):
        for side in ("left", "right"):
            getattr(text, resolve)(side, 3)
    with pytest.raises(ParseError, match=r"^manifest has no \[left\] section$"):
        getattr(as_json, resolve)("left", 3)


def test_kind_mismatch_on_resolution():
    man = parse_manifest("vars: z\nkind: maps\n[left]\nf: (z)\n")
    with pytest.raises(ParseError):
        man.resolve_family("left", 3)
    with pytest.raises(ParseError):
        man.resolve_fields("left", 3)
    ideal_man = parse_manifest("vars: z\n[left]\na: z\n")
    with pytest.raises(ParseError):
        ideal_man.resolve_maps("left", 3)


def test_single_tuple_entries_for_maps():
    man = parse_manifest("vars: z\nkind: maps\n[left]\nf: (z) ; (2*z)\n")
    with pytest.raises(ParseError):
        man.resolve_maps("left", 3)


def test_load_manifest_from_disk(tmp_path):
    path = tmp_path / "curves.man"
    path.write_text(CURVE_TEXT, encoding="utf-8")
    assert load_manifest(str(path)) == parse_manifest(CURVE_TEXT)
    with pytest.raises(ParseError):
        load_manifest(str(tmp_path / "absent.man"))

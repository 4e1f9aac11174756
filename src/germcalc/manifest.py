"""Input files describing comparison tasks.

Two surface syntaxes, one structure.  The text form is sectioned
``key: value`` lines:

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

Header keys declare the variables and task parameters; the ``[left]``
and ``[right]`` sections list labelled objects.  For ideals each value is
a ``;``-separated generator list; for maps and vector fields it is one
component tuple.  A ``series`` header key carries the dividend for
``divide``/``jet``/``reduce`` tasks.  Files whose first nonblank
character is ``{`` are read as JSON with the same keys (``left`` and
``right`` become label-to-payload objects or pair lists).

Expression payloads are kept as raw text here; the ``resolve_*``
helpers parse the section payloads at a chosen truncation so one
manifest can serve several precision levels.  The command line parses
only what a command reads, its flags overriding ``map`` and ``series``:
``diagram`` never parses ``series``, nor ``jet`` the ``[left]`` texts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .dynamics import VectorField
from .equivalence import GermFamily
from .errors import ParseError
from .expressions import parse_components, parse_map, parse_series
from .ideals import IdealPresentation
from .series import FormalMap

KINDS = ("ideals", "maps", "fields")
_HEADER_KEYS = ("vars", "trunc", "kind", "mode", "order", "map", "series")


@dataclass(frozen=True)
class Manifest:
    variables: tuple[str, ...]
    kind: str = "ideals"
    mode: str = "family"
    truncation: Optional[int] = None
    order: Optional[int] = None
    map_text: Optional[str] = None
    series_text: Optional[str] = None
    left: tuple[tuple[str, tuple[str, ...]], ...] = field(default_factory=tuple)
    right: tuple[tuple[str, tuple[str, ...]], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.variables:
            raise ParseError("manifest declares no variables")
        if self.kind not in KINDS:
            raise ParseError(f"kind must be one of {', '.join(KINDS)}")
        if self.mode not in ("family", "set"):
            raise ParseError("mode must be 'family' or 'set'")
        for side in (self.left, self.right):
            labels = [label for label, _ in side]
            if len(set(labels)) != len(labels):
                raise ParseError("labels within a section must be distinct")

    # -- resolution ---------------------------------------------------------

    def resolve_family(self, side: str, truncation: int) -> GermFamily:
        if self.kind != "ideals":
            raise ParseError(f"manifest kind is {self.kind}, not ideals")
        entries = self._side(side)
        if not entries:
            raise ParseError(f"manifest has no [{side}] section")
        items = []
        for label, payload in entries:
            gens = [
                parse_series(text, self.variables, truncation) for text in payload
            ]
            items.append((label, IdealPresentation(len(self.variables), gens)))
        return GermFamily.of(self.mode, items)

    def resolve_maps(self, side: str, truncation: int) -> tuple[list[str], list[FormalMap]]:
        return self._resolve_tuples(
            "maps", side, lambda text: parse_map(text, self.variables, truncation)
        )

    def resolve_fields(self, side: str, truncation: int) -> tuple[list[str], list[VectorField]]:
        return self._resolve_tuples(
            "fields",
            side,
            lambda text: VectorField(parse_components(text, self.variables, truncation)),
        )

    def _resolve_tuples(self, kind: str, side: str, build) -> tuple[list[str], list]:
        """Labels and objects of a side whose entries are one tuple each."""
        if self.kind != kind:
            raise ParseError(f"manifest kind is {self.kind}, not {kind}")
        entries = self._side_single(side)
        return [label for label, _ in entries], [build(text) for _, text in entries]

    def _side(self, side: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
        if side == "left":
            return self.left
        if side == "right":
            return self.right
        raise ValueError("side must be 'left' or 'right'")

    def _side_single(self, side: str) -> list[tuple[str, str]]:
        out = []
        for label, payload in self._side(side):
            if len(payload) != 1:
                raise ParseError(
                    f"{self.kind} entry {label!r} must hold exactly one tuple"
                )
            out.append((label, payload[0]))
        return out


def _split_payload(value: str) -> tuple[str, ...]:
    parts = tuple(piece.strip() for piece in value.split(";"))
    if any(not piece for piece in parts):
        raise ParseError("empty expression in ';'-separated list")
    return parts


def _parse_text(text: str) -> Manifest:
    header: dict = {}
    sections: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in ("left", "right"):
                raise ParseError(f"unknown section [{name}] on line {lineno}")
            if name in sections:
                raise ParseError(f"duplicate section [{name}] on line {lineno}")
            sections[name] = []
            current = name
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value' on line {lineno}")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if not value:
            raise ParseError(f"empty value for {key!r} on line {lineno}")
        if current is None:
            if key not in _HEADER_KEYS:
                raise ParseError(f"unknown manifest key {key!r} on line {lineno}")
            if key in header:
                raise ParseError(f"duplicate key {key!r} on line {lineno}")
            header[key] = value
        else:
            sections[current].append((key, _split_payload(value)))
    return _build(header, sections)


def _parse_json(text: str) -> Manifest:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON manifest: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("JSON manifest must be an object")
    header: dict = {}
    sections: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for key, value in data.items():
        if key in ("left", "right"):
            sections[key] = _json_section(key, value)
            continue
        if key not in _HEADER_KEYS:
            raise ParseError(f"unknown manifest key {key!r}")
        if key == "vars":
            if not isinstance(value, list) or not all(
                isinstance(v, str) for v in value
            ):
                raise ParseError("'vars' must be a list of names")
            header[key] = ", ".join(value)
        else:
            header[key] = str(value)
    return _build(header, sections)


def _json_section(name: str, value) -> list[tuple[str, tuple[str, ...]]]:
    def payload(label: str, entry) -> tuple[str, ...]:
        if isinstance(entry, str):
            return _split_payload(entry)
        if isinstance(entry, list) and all(isinstance(e, str) for e in entry):
            return tuple(entry)
        raise ParseError(
            f"entry {label!r} in [{name}] must be a string or list of strings"
        )

    if isinstance(value, dict):
        return [(label, payload(label, entry)) for label, entry in value.items()]
    if isinstance(value, list):
        out = []
        for item in value:
            if not (isinstance(item, list) and len(item) == 2):
                raise ParseError(f"[{name}] pair lists need [label, payload] items")
            label, entry = item
            out.append((str(label), payload(str(label), entry)))
        return out
    raise ParseError(f"[{name}] must be an object or pair list")


def _build(header: dict, sections: dict) -> Manifest:
    if "vars" not in header:
        raise ParseError("manifest is missing the 'vars' declaration")
    variables = tuple(name.strip() for name in header["vars"].split(","))
    if any(not name for name in variables):
        raise ParseError("empty variable name in 'vars'")

    def integer(key: str) -> Optional[int]:
        if key not in header:
            return None
        try:
            return int(header[key])
        except ValueError:
            raise ParseError(f"{key!r} must be an integer") from None

    return Manifest(
        variables=variables,
        kind=header.get("kind", "ideals"),
        mode=header.get("mode", "family"),
        truncation=integer("trunc"),
        order=integer("order"),
        map_text=header.get("map"),
        series_text=header.get("series"),
        left=tuple(sections.get("left", [])),
        right=tuple(sections.get("right", [])),
    )


def parse_manifest(text: str) -> Manifest:
    """Parse manifest text, JSON if it opens with '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    if not stripped:
        raise ParseError("empty manifest")
    return _parse_text(text)


def load_manifest(path: str) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read manifest {path}: {exc.strerror}") from None
    return parse_manifest(text)

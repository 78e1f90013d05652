"""JSON input formats and report serialization for the command line.

Space descriptions, bars, and relation tables are plain JSON documents;
the loaders here turn them into the library's objects and validate as they
go.  Spaces are the truncated Cantor and Baire trees and their doubles,
the only spaces the commands run on.  ``jsonable`` converts arbitrary
result objects (transcripts, sieves, reports) into JSON-ready structures
with a deterministic layout, so a run with a fixed seed always serializes
byte-identically.
"""
from __future__ import annotations

import dataclasses
import json
from json.encoder import encode_basestring_ascii as _string
from typing import Mapping

from .double import DOpen, DoubleSpace, SingletonOpen, build_double
from .points import Point, eventually_constant_points
from .site import FormalSpace, Sieve, UnknownElement
from .spaces import Bar, TruncatedSpace, baire_space, bar_from_generators, cantor_space


class InputError(ValueError):
    """A JSON input document that does not describe a valid object."""


# Most elements a JSON description may ask a space or a point family to hold.
# Both grow exponentially with depth and are built eagerly, so a larger
# request is refused before anything is built.
MAX_ELEMENTS = 2048


def _object(data, where: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise InputError(f"{where}: expected an object")
    return data


def _list(values, where: str) -> list:
    if not isinstance(values, list):
        raise InputError(f"{where}: expected a list")
    return values


def _require(data: Mapping, key: str, where: str):
    if key not in _object(data, where):
        raise InputError(f"{where}: missing required key {key!r}")
    return data[key]


def _int(data: Mapping, key: str, where: str, default=None) -> int:
    got = data.get(key, default)
    if got is None:
        raise InputError(f"{where}: missing required key {key!r}")
    if not isinstance(got, int) or isinstance(got, bool) or got < 1:
        raise InputError(f"{where}: {key} must be an integer >= 1")
    return got


def _flag(data: Mapping, key: str, default: bool) -> bool:
    got = data.get(key, default)
    if not isinstance(got, bool):
        raise InputError(f"bar: {key} must be true or false")
    return got


def _point_count(branch: int, max_prefix: int) -> int:
    """Eventually constant points with prefixes up to ``max_prefix``, exact up to the limit."""
    return branch ** (min(max_prefix, MAX_ELEMENTS) + 1)


def _basis_size(data: Mapping) -> int:
    """Element count of a tree space or double description, exact up to the limit."""
    if data["kind"] == "double":
        inner = _require(data, "inner", "space")
        if not isinstance(inner, Mapping) or inner.get("kind") not in ("cantor", "baire"):
            raise InputError("space: a double needs a tree space inside")
        branch = 2 if inner["kind"] == "cantor" else _int(inner, "branch", "space")
        max_prefix = _int(data, "max_prefix", "space", default=1)
        return _basis_size(inner) + _point_count(branch, max_prefix)
    branch = 2 if data["kind"] == "cantor" else _int(data, "branch", "space")
    size, level = 0, 1
    for _ in range(_int(data, "depth", "space") + 1):
        size, level = size + level, level * branch
        if size > MAX_ELEMENTS:
            break
    return size


def _seq(values, where: str) -> tuple:
    """A JSON list of integers: a finite sequence."""
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in _list(values, where)):
        raise InputError(f"{where}: expected a list of integers")
    return tuple(values)


def space_from_json(data: Mapping) -> FormalSpace:
    """Build a space from its JSON description.

    Kinds: ``cantor`` (depth), ``baire`` (branch, depth), and ``double``
    (inner space plus ``max_prefix`` for the point family).
    """
    kind = _require(data, "kind", "space")
    if kind not in ("cantor", "baire", "double"):
        raise InputError(f"space: unknown kind {kind!r}")
    if _basis_size(data) > MAX_ELEMENTS:
        raise InputError(f"space: more than {MAX_ELEMENTS} elements requested")
    if kind == "cantor":
        return cantor_space(_int(data, "depth", "space"))
    if kind == "baire":
        return baire_space(_int(data, "branch", "space"), _int(data, "depth", "space"))
    inner = space_from_json(data["inner"])
    max_prefix = _int(data, "max_prefix", "space", default=1)
    return build_double(inner, eventually_constant_points(inner.branch, max_prefix))


def _tree_elements(space: TruncatedSpace, values, what: str) -> set:
    """A JSON list of sequences, each an element of the tree space."""
    out = {_seq(u, f"bar: {what}") for u in _list(values, f"bar: {what}s")}
    for u in out:
        try:
            space.basis.require(u)
        except UnknownElement:
            raise InputError(f"bar: {what} {u!r} is not an element of the space") from None
    return out


def bar_from_json(data: Mapping) -> Bar:
    """A bar over a tree space, from generators or an explicit member list."""
    space = space_from_json(_object(data, "bar").get("space", data))
    if not isinstance(space, TruncatedSpace):
        raise InputError("bar: bars live over tree spaces")
    monotone = _flag(data, "monotone", True)
    inductive = _flag(data, "inductive", False)
    if "generators" in data:
        if not monotone:
            raise InputError("bar: generator form always yields a monotone bar")
        gens = _tree_elements(space, data["generators"], "generator")
        return bar_from_generators(space, gens, inductive=inductive)
    members = _tree_elements(space, _require(data, "members", "bar"), "member")
    return Bar(space, members.__contains__, monotone=monotone, inductive=inductive)


def _point_from_json(data, branch: int) -> Point:
    prefix = _seq(_require(data, "prefix", "point"), "point: prefix")
    tail = _require(data, "tail", "point")
    if isinstance(tail, bool) or not all(
        isinstance(e, int) and 0 <= e < branch for e in prefix + (tail,)
    ):
        raise InputError(f"point: entries outside branching {branch}")
    return Point(prefix, tail)


def rel_from_json(data: Mapping) -> tuple:
    """A relation table for the continuity pipeline: ``(space, table)``.

    Builtins ``shift``, ``identity``, and ``constant`` generate their
    tables over the declared point family; an explicit ``table`` lists
    ``{"from": point, "to": point}`` entries.
    """
    space = space_from_json(_object(data, "rel").get("space", data))
    if not isinstance(space, TruncatedSpace):
        raise InputError("rel: relation tables live over tree spaces")
    branch = space.branch
    max_prefix = _int(data, "max_prefix", "rel", default=space.depth + 1)
    if _point_count(branch, max_prefix) > MAX_ELEMENTS:
        raise InputError(f"rel: more than {MAX_ELEMENTS} points requested")
    points = eventually_constant_points(branch, max_prefix)
    builtin = data.get("builtin")
    if builtin == "identity":
        return space, {q: q for q in points}
    if builtin == "shift":
        return space, {
            q: (Point(q.prefix[1:], q.tail) if q.prefix else q) for q in points
        }
    if builtin == "constant":
        image = _point_from_json(_require(data, "value", "rel"), branch)
        return space, {q: image for q in points}
    if builtin is not None:
        raise InputError(f"rel: unknown builtin {builtin!r}")
    table = {}
    for entry in _list(_require(data, "table", "rel"), "rel: table"):
        source = _point_from_json(_require(entry, "from", "rel"), branch)
        image = _point_from_json(_require(entry, "to", "rel"), branch)
        table[source] = image
    return space, table


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def parse_element(space: FormalSpace, text: str):
    """Parse a basic open named on the command line.

    Tree spaces: ``()``, ``(0,1)``, or bare ``0,1``.  Doubles add
    ``D(...)`` for tree opens and ``{0,1|0}`` for singletons (prefix before
    the bar, tail value after).
    """
    raw = text.strip()
    if isinstance(space, DoubleSpace):
        if raw.startswith("D"):
            seq = _parse_seq(raw[1:], "stage")
            stage = DOpen(seq)
        elif raw.startswith("{") and raw.endswith("}"):
            body = raw[1:-1]
            if "|" not in body:
                raise InputError(f"stage: singleton {text!r} needs a | separator")
            head, _, tail = body.partition("|")
            point = Point(_parse_seq(head, "stage"), int(tail))
            if point not in space.points:
                raise InputError(f"stage: {point} is not in the point family")
            stage = SingletonOpen(point)
        else:
            raise InputError(f"stage: {text!r} is not a double-space open")
    else:
        stage = _parse_seq(raw, "stage")
    try:
        space.basis.require(stage)
    except UnknownElement:
        raise InputError(f"stage: {text!r} is not an element of the space") from None
    return stage


def _parse_seq(raw: str, where: str) -> tuple:
    body = raw.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    body = body.strip()
    if not body:
        return ()
    try:
        return tuple(int(part) for part in body.split(","))
    except ValueError:
        raise InputError(f"{where}: cannot read sequence {raw!r}") from None


def jsonable(obj):
    """Deterministic JSON-ready rendering of result objects."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Point):
        return {"prefix": list(obj.prefix), "tail": obj.tail}
    if isinstance(obj, DOpen):
        return {"D": list(obj.seq)}
    if isinstance(obj, SingletonOpen):
        return {"singleton": jsonable(obj.point)}
    if isinstance(obj, Sieve):
        return {"root": jsonable(obj.root), "generators": jsonable(obj.generators)}
    if isinstance(obj, tuple):
        return [jsonable(x) for x in obj]
    if isinstance(obj, list):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        rendered = [jsonable(x) for x in obj]
        return sorted(rendered, key=lambda r: json.dumps(r, sort_keys=True))
    if isinstance(obj, Mapping):
        # keys are sorted once, when the report is written (dump_report)
        return {key if isinstance(key, str) else json.dumps(jsonable(key)): jsonable(value)
                for key, value in obj.items()}
    if isinstance(obj, BaseException):
        return {"error": type(obj).__name__, "detail": str(obj)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"type": type(obj).__name__}
        for field in dataclasses.fields(obj):
            if field.name.startswith("_") or not field.compare:
                continue
            out[field.name] = jsonable(getattr(obj, field.name))
        return out
    if callable(obj):
        return {"callable": getattr(obj, "__name__", repr(obj))}
    return {"repr": repr(obj)}


def dump_report(rendered) -> str:
    """Canonical text of a :func:`jsonable` rendering: sorted keys,
    two-space indent, final newline.

    The text is ``json.dumps(rendered, sort_keys=True, indent=2)``'s, built
    in one direct pass: with an indent ``json`` leaves its C encoder for a
    pure-Python one.  Keys must be strings, as :func:`jsonable` makes them.
    """
    return _encode(rendered, "\n") + "\n"


def _encode(obj, newline: str) -> str:
    """JSON text of ``obj`` whose nested lines start with ``newline``."""
    if isinstance(obj, str):
        return _string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        # as json writes it, NaN and the infinities included
        return json.dumps(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_encode(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_string(key) + ": " + _encode(value, inner) for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_WITNESS_KEY = '\n  "witnesses": '


def witness_block(text: str) -> str:
    """The ``witnesses`` of a report's :func:`dump_report` text, as
    :func:`dump_report` encodes them on their own, less the final newline.

    ``witnesses`` is the report's last key, and JSON escapes every newline
    inside a string, so the block is the text after that key, less the
    closing brace, with one indent level dropped from each line.
    """
    start = text.rindex(_WITNESS_KEY) + len(_WITNESS_KEY)
    return text[start:-len("\n}\n")].replace("\n  ", "\n")

"""Instance files: one JSON document per mapped disc, graph, patch or
glued disc, with a target declaration and a tolerances block.

Serialization is canonical (sorted keys, minimal separators, shortest
round-trip floats) so reports diff cleanly and byte-identical reruns are
meaningful.  Infinities are written as the string "inf"; JSON has no
literal for them.

The builders (`mapped_disc_instance` and its siblings) put the object's
arrays into the payload as they are, not as lists: the writer formats them
apart, and the document shares them with the object it describes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import reprlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .fields import HeightFieldPatch
from .graphs import GraphInTarget
from .induced import ZERO_TOL
from .majorize import ANGLE_TOL, PolyhedralDisc
from .mesh import MappedDisc
from .minimize import DESCENT_TOL
from .targets import EuclideanSpace

__all__ = [
    "FORMAT_VERSION",
    "DEFAULT_TOLERANCES",
    "mapped_disc_instance",
    "graph_instance",
    "patch_instance",
    "poly_disc_instance",
    "parse_instance",
    "validate_instance",
    "InstanceError",
    "instance_to_json",
    "load_instance",
    "save_instance",
    "jsonable",
    "fixture_path",
]

FORMAT_VERSION = 1

# zero: metrics; descent: minimize-graph, key-lemma; angle: minimize-graph, build-disc, check-cat0, key-lemma
DEFAULT_TOLERANCES = {"zero": ZERO_TOL, "descent": DESCENT_TOL, "angle": ANGLE_TOL}

FIXTURE_ENV = "CATMIN_FIXTURES"


def fixture_path(name: str) -> Path:
    """Locate a named fixture, honoring the CATMIN_FIXTURES directory."""
    override = os.environ.get(FIXTURE_ENV)
    if override:
        candidate = Path(override) / name
        if candidate.exists():
            return candidate
    return Path(__file__).parent / "fixtures" / name


def _array_jsonable(a: np.ndarray):
    """Nested lists of a bool, integer or float array in one ``tolist``;
    float arrays with non-finite entries go through the recursive path."""
    out = a.tolist()
    if a.dtype.kind != "f" or np.isfinite(a).all():
        return out
    return jsonable(out)


def jsonable(obj):
    """Recursively convert arrays/floats, encoding infinities as 'inf'."""
    return _jsonable(obj, None)


def _jsonable(obj, spliced: list | None):
    """`jsonable`, except that when ``spliced`` is a list each plain float
    array of at most 64 bits is appended to it and stands in the result as
    a marker string, ``_MARK`` followed by its index there."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, spliced) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, spliced) for v in obj]
    if isinstance(obj, np.ndarray):
        if (spliced is not None and type(obj) is np.ndarray
                and obj.dtype.kind == "f" and obj.dtype.itemsize <= 8):
            if np.isnan(obj).any():
                raise ValueError("NaN is not serializable")
            spliced.append(obj)
            return _MARK + str(len(spliced) - 1)
        if obj.dtype.kind in "biuf":
            return _array_jsonable(obj)
        return _jsonable(obj.tolist(), spliced)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            raise ValueError("NaN is not serializable")
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


# A spliced array's marker: JSON escapes the NUL, so in the dumped text the
# marker of array i reads "\u0000i", quotes included.
_MARK = "\x00"
_MARKED = re.compile(r'"\\u0000(\d+)"')


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _array_texts(arrays: list[np.ndarray]) -> list[str]:
    """JSON text of each float array, as `_dumps` of its `jsonable` writes it.

    Each distinct 64-bit pattern is formatted once: equal bits give equal
    text, and the int64 view keeps -0.0 apart from 0.0.
    """
    flat = [np.asarray(a, dtype=np.float64).ravel() for a in arrays]
    bits, inverse = np.unique(np.concatenate(flat).view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    texts = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isinf(values)).tolist():
        texts[i] = '"inf"' if values[i] > 0 else '"-inf"'
    words = np.array(texts, dtype=object)[inverse].tolist()
    out = []
    start = 0
    for a in arrays:
        items = words[start:start + a.size]
        start += a.size
        for axis in range(a.ndim - 1, -1, -1):    # innermost axis first
            d = a.shape[axis]
            items = ["[" + ",".join(items[i * d:(i + 1) * d]) + "]"
                     for i in range(math.prod(a.shape[:axis]))]
        out.append(items[0])
    return out


def instance_to_json(doc: dict) -> str:
    """Canonical JSON text of ``doc``: byte for byte
    ``json.dumps(jsonable(doc), sort_keys=True, separators=(",", ":")) + "\\n"``,
    with the same ``ValueError`` on NaN and ``TypeError`` on an unknown type.

    Float arrays are not converted to lists of floats.  They are collected
    and formatted apart, each distinct 64-bit value once (reports repeat
    many values: equal matrices, image distances), and their texts are
    spliced into the `json.dumps` text of the rest, which is dumped in one
    call.  A string of ``doc`` that reads like a marker falls back to the
    plain path.
    """
    arrays: list[np.ndarray] = []
    text = _dumps(_jsonable(doc, arrays))
    if arrays:
        parts = _MARKED.split(text)
        if len(parts) != 2 * len(arrays) + 1:
            return _dumps(jsonable(doc)) + "\n"
        texts = _array_texts(arrays)
        parts[1::2] = [texts[int(i)] for i in parts[1::2]]
        text = "".join(parts)
    return text + "\n"


def save_instance(doc: dict, path) -> None:
    Path(path).write_text(instance_to_json(doc), encoding="utf-8")


def load_instance(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ------------------------------------------------------------------ the schema

_INT, _FLOAT = "integer", "number"


class _Field(NamedTuple):
    """A key's entries (`_INT`: JSON integers; `_FLOAT`: JSON numbers, "inf"
    or "-inf"; a tuple: one of these per column of a row), its size per axis
    (None: any, the first row's for every row unless ``ragged``), and whether
    it may be absent or null."""

    elem: str | tuple
    shape: tuple = ()
    ragged: bool = False
    optional: bool = False


# kind: (its constructor, which takes the payload's fields as keywords, and the
# target if the kind declares one; whether it does; payload and top-level fields)
_KINDS = {
    "mapped_disc": (MappedDisc, True, {
        "vertices": _Field(_FLOAT, (None, 2)),
        "triangles": _Field(_INT, (None, 3)),
        "boundary_loop": _Field(_INT, (None,)),
        "images": _Field(_FLOAT, (None, None)),
    }, {"sample": _Field(_INT, (None,), optional=True)}),
    "graph": (GraphInTarget, True, {
        "points": _Field(_FLOAT, (None, None), ragged=True),
        "edges": _Field(_INT, (None, 2)),
        "pinned": _Field(_INT, (None,)),
        "rotation": _Field(_INT, (None, None), ragged=True),
        "positions": _Field(_FLOAT, (None, 2), optional=True),
    }, {}),
    "patch": (HeightFieldPatch, False, {
        "x": _Field(_FLOAT, (None,)),
        "y": _Field(_FLOAT, (None,)),
        "values": _Field(_FLOAT, (None, None, 3)),
    }, {}),
    "polyhedral_disc": (PolyhedralDisc, False, {
        "tri_coords": _Field(_FLOAT, (None, 3, 2)),
        "tri_vertices": _Field(_INT, (None, 3)),
        "gluings": _Field(_INT, (None, 2, 2)),
        "bridges": _Field((_INT, _INT, _FLOAT), (None, 3)),
        "boundary_walk": _Field(_INT, (None,)),
        "boundary_lengths": _Field(_FLOAT, (None,)),
        "n_vertices": _Field(_INT),
    }, {}),
}
_HEADER_KEYS = {"format_version", "kind", "tolerances", "metadata", "payload"}
# older files carry the last two; they are checked as tolerances and read by no command
_TOLERANCE_KEYS = {*DEFAULT_TOLERANCES, "geodesic", "verify"}


def _written(value):
    """A payload value as written: arrays as they are; lists, tuples and sets (sorted) as new lists, deeply."""
    if isinstance(value, (list, tuple, set)):
        return [_written(v) for v in (sorted(value) if isinstance(value, set) else value)]
    return value


def _instance(kind: str, obj, tolerances, sample, metadata) -> dict:
    """The document of ``obj``: each payload key of its kind is the
    attribute of that name, which the kind's constructor took."""
    _, has_target, payload_fields, _ = _KINDS[kind]
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "tolerances": dict(DEFAULT_TOLERANCES, **(tolerances or {})),
        "payload": {key: _written(getattr(obj, key)) for key in payload_fields},
    }
    if has_target:
        if not isinstance(obj.target, EuclideanSpace):
            raise TypeError("only Euclidean targets are declared in instance files")
        doc["target"] = {"type": "euclidean", "dimension": obj.target.dimension}
    if sample is not None:
        doc["sample"] = [int(v) for v in sample]
    if metadata:
        doc["metadata"] = metadata
    return doc


def mapped_disc_instance(disc: MappedDisc, sample=None, tolerances=None, metadata=None) -> dict:
    return _instance("mapped_disc", disc, tolerances, sample, metadata)


def graph_instance(g: GraphInTarget, tolerances=None, metadata=None) -> dict:
    return _instance("graph", g, tolerances, None, metadata)


def patch_instance(patch: HeightFieldPatch, tolerances=None, metadata=None) -> dict:
    return _instance("patch", patch, tolerances, None, metadata)


def poly_disc_instance(w: PolyhedralDisc, tolerances=None, metadata=None) -> dict:
    return _instance("polyhedral_disc", w, tolerances, None, metadata)


class InstanceError(ValueError):
    """A malformed instance document; ``problems`` lists the diagnostics."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid instance: " + "; ".join(problems))
        self.problems = problems


def parse_instance(doc: dict):
    """Typed payload of an instance document.

    Returns (kind, object, doc); raises `InstanceError`, a ValueError, on
    malformed input.  The object is the one `validate_instance` checked:
    each document is checked once.  The returned doc is a copy whose
    tolerances block is merged over `DEFAULT_TOLERANCES`: a missing block
    or key means the default.
    """
    problems, obj = _check_instance(doc)
    if problems:
        raise InstanceError(problems)
    return doc["kind"], obj, {**doc, "tolerances": {**DEFAULT_TOLERANCES, **doc.get("tolerances", {})}}


def validate_instance(doc) -> list[str]:
    """Schema and invariant diagnostics in deterministic order."""
    return _check_instance(doc)[0]


def _unknown(where: str, obj: dict, known) -> list[str]:
    return [f"{where}unknown key {key!r}" for key in sorted(set(obj) - set(known))]


def _fit(entries: list, elem, shape: tuple) -> bool:
    """Whether each of ``entries`` is a nested list of ``shape`` with entries of
    type ``elem``, checked a level at a time across all of them at once."""
    for size in shape:
        if not ({list}.issuperset(map(type, entries)) and (size is None or {size}.issuperset(map(len, entries)))):
            return False
        entries = list(itertools.chain.from_iterable(entries))
    if isinstance(elem, tuple):  # one type per column of the last axis
        return all(_fit(entries[k::len(elem)], e, ()) for k, e in enumerate(elem))
    numbers = {int, float} if elem == _FLOAT else {int}
    return numbers.issuperset(map(type, entries)) or elem == _FLOAT and all(
        type(x) in numbers or type(x) is str and x in ("inf", "-inf") for x in entries)


def _describe(elem, shape: tuple) -> str:
    """'an integer', 'a list of 3 lists of 2 numbers' and the like."""
    if not shape:
        return ("an " if elem == _INT else "a ") + elem
    if isinstance(elem, tuple) and len(shape) == 1:
        return "a list [" + ", ".join(elem) + "]"
    word, _, rest = _describe(elem, shape[1:]).split(" ", 1)[1].partition(" ")
    size = "" if shape[0] is None else f"{shape[0]} "
    return f"a list of {size}{word}s" + (rest and f" {rest}")


def _read(where: str, value, field: _Field):
    """``value`` as an array of the field's type and shape (a list of 1-d
    arrays when ragged; a scalar as it is).  Raises a ValueError naming the
    first entry that does not fit.  A builder's document holds arrays, or
    lists of them, where a file holds nested lists: they are read as such."""
    elem, shape = field.elem, field.shape
    if isinstance(value, np.ndarray):
        value = value.tolist()
    elif type(value) is list and value and isinstance(value[0], np.ndarray):
        value = [v.tolist() if isinstance(v, np.ndarray) else v for v in value]
    if not (type(value) is list if shape else _fit([value], elem, ())):
        raise ValueError(f"{where}: {reprlib.repr(value)} is not {_describe(elem, shape)}")
    if not shape:
        return value
    rows = shape[1:]
    if rows[:1] == (None,) and not field.ragged and value and type(value[0]) is list:
        rows = (len(value[0]),) + rows[1:]
    if not _fit(value, elem, rows):
        i = next(i for i, row in enumerate(value) if not _fit([row], elem, rows))
        raise ValueError(f"{where}[{i}]: {reprlib.repr(value[i])} is not {_describe(elem, rows)}")
    dtype = np.int64 if elem == _INT else float
    try:
        if field.ragged:
            return [np.array(row, dtype=dtype) for row in value]
        return np.array(value, dtype=dtype).reshape(len(value), *(size or 0 for size in rows))
    except OverflowError:
        raise ValueError(f"{where}: an entry is too large") from None


def _check_instance(doc) -> tuple[list[str], object]:
    """Diagnostics of ``doc`` and the object read from it (None when there
    are diagnostics): the header first, then each field of the kind's table;
    the kind's constructor checks every range, index and topology invariant."""
    if not isinstance(doc, dict):
        return ["instance must be a JSON object"], None
    problems: list[str] = []
    if type(doc.get("format_version")) is not int or doc["format_version"] != FORMAT_VERSION:
        problems.append(f"format_version must be {FORMAT_VERSION}")
    if type(doc.get("kind")) is not str or doc["kind"] not in _KINDS:
        problems.append(f"kind must be one of {sorted(_KINDS)}")
        return problems, None
    build, has_target, payload_fields, top_fields = _KINDS[doc["kind"]]
    problems += _unknown("", doc, _HEADER_KEYS | top_fields.keys() | ({"target"} if has_target else set()))
    tols = doc.get("tolerances", {})
    if not isinstance(tols, dict):
        problems.append("tolerances must be an object")
    else:
        problems += _unknown("tolerances: ", tols, _TOLERANCE_KEYS)
        for key in sorted(_TOLERANCE_KEYS.intersection(tols)):
            if type(tols[key]) not in (int, float) or not 0 <= tols[key] < math.inf:
                problems.append(f"tolerance '{key}' must be a finite nonnegative number")
    target = doc.get("target")
    if has_target and (not isinstance(target, dict) or target.get("type") != "euclidean"):
        problems.append("target must declare type 'euclidean'")
    elif has_target:
        problems += _unknown("target: ", target, ("type", "dimension"))
        if type(target.get("dimension")) is not int or target["dimension"] < 1:
            problems.append("target.dimension must be a positive integer")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        problems.append("payload missing")
    if problems:
        return problems, None

    problems += _unknown("payload: ", payload, payload_fields)
    args, top = {}, {}
    for prefix, block, fields, out in (("payload.", payload, payload_fields, args), ("", doc, top_fields, top)):
        for key, field in fields.items():
            if block.get(key) is None:
                if not field.optional:
                    problems.append(f"{prefix}{key} missing")
            else:
                try:
                    out[key] = _read(prefix + key, block[key], field)
                except ValueError as exc:
                    problems.append(str(exc))
    if problems:
        return problems, None
    if has_target:
        args["target"] = EuclideanSpace(target["dimension"])
    try:
        obj = build(**args)
    except ValueError as exc:
        return ["payload: " + p for p in exc.problems], None
    bad = [v for v in top.get("sample", []) if not 0 <= v < obj.n_vertices]
    if bad:
        return [f"sample: vertex index {bad[0]} out of range"], None
    return [], obj

"""Instance files: one JSON document per mapped disc, graph, patch or
glued disc, with a target declaration and a tolerances block.

Serialization is canonical (sorted keys, minimal separators, shortest
round-trip floats) so reports diff cleanly and byte-identical reruns are
meaningful.  Infinities are written as the string "inf"; JSON has no
literal for them.
"""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path

import numpy as np

from .fields import HeightFieldPatch
from .graphs import GraphInTarget
from .majorize import GlueError, PolyhedralDisc
from .mesh import MappedDisc
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

DEFAULT_TOLERANCES = {
    "zero": 1e-9,
    "descent": 1e-8,
    "angle": 1e-6,
    "geodesic": 1e-9,
    "verify": 1e-9,
}

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


def _parse_floats(obj):
    if isinstance(obj, list):
        return [_parse_floats(v) for v in obj]
    if obj == "inf":
        return math.inf
    if obj == "-inf":
        return -math.inf
    return obj


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


def _target_doc(target) -> dict:
    if isinstance(target, EuclideanSpace):
        return {"type": "euclidean", "dimension": target.dimension}
    raise TypeError("only Euclidean targets are declared in instance files")


def _target_from(doc: dict) -> EuclideanSpace:
    if doc.get("type") != "euclidean":
        raise ValueError(f"unsupported target type {doc.get('type')!r}")
    return EuclideanSpace(int(doc["dimension"]))


def _base(kind: str, target, tolerances, sample, metadata) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "tolerances": dict(DEFAULT_TOLERANCES, **(tolerances or {})),
    }
    if target is not None:
        doc["target"] = _target_doc(target)
    if sample is not None:
        doc["sample"] = [int(v) for v in sample]
    if metadata:
        doc["metadata"] = metadata
    return doc


def mapped_disc_instance(disc: MappedDisc, sample=None, tolerances=None, metadata=None) -> dict:
    doc = _base("mapped_disc", disc.target, tolerances, sample, metadata)
    doc["payload"] = {
        "vertices": jsonable(disc.vertices),
        "triangles": jsonable(disc.triangles),
        "boundary_loop": [int(v) for v in disc.boundary_loop],
        "images": jsonable(np.asarray(disc.images)),
    }
    return doc


def graph_instance(g: GraphInTarget, tolerances=None, metadata=None) -> dict:
    doc = _base("graph", g.target, tolerances, None, metadata)
    doc["payload"] = {
        "points": jsonable([np.asarray(p) for p in g.points]),
        "edges": [[int(u), int(v)] for u, v in g.edges],
        "pinned": sorted(int(v) for v in g.pinned),
        "rotation": [[int(w) for w in rot] for rot in g.rotation],
        "positions": jsonable(g.positions) if g.positions is not None else None,
    }
    return doc


def patch_instance(patch: HeightFieldPatch, tolerances=None, metadata=None) -> dict:
    doc = _base("patch", None, tolerances, None, metadata)
    doc["payload"] = {
        "x": jsonable(patch.x),
        "y": jsonable(patch.y),
        "values": jsonable(patch.values),
    }
    return doc


def poly_disc_instance(w: PolyhedralDisc, tolerances=None, metadata=None) -> dict:
    doc = _base("polyhedral_disc", None, tolerances, None, metadata)
    doc["payload"] = {
        "tri_coords": jsonable([c for c in w.tri_coords]),
        "tri_vertices": [[int(a) for a in tri] for tri in w.tri_vertices],
        "gluings": [[[int(f1), int(s1)], [int(f2), int(s2)]] for (f1, s1), (f2, s2) in w.gluings],
        "bridges": [[int(u), int(v), float(ln)] for u, v, ln in w.bridges],
        "boundary_walk": [int(v) for v in w.boundary_walk],
        "boundary_lengths": jsonable(w.boundary_lengths),
        "n_vertices": int(w.n_vertices),
    }
    return doc


class InstanceError(ValueError):
    """A malformed instance document; ``problems`` lists the diagnostics."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid instance: " + "; ".join(problems))
        self.problems = problems


def parse_instance(doc: dict):
    """Typed payload of an instance document.

    Returns (kind, object, doc); raises `InstanceError`, a ValueError, on
    malformed input.  The object is the one `validate_instance` checked:
    each document is checked once.
    """
    problems, obj = _check_instance(doc)
    if problems:
        raise InstanceError(problems)
    return doc["kind"], obj, doc


_KINDS = {"mapped_disc", "graph", "patch", "polyhedral_disc"}
_TARGET_KINDS = {"mapped_disc", "graph"}


def validate_instance(doc) -> list[str]:
    """Schema and invariant diagnostics in deterministic order."""
    return _check_instance(doc)[0]


def _check_instance(doc) -> tuple[list[str], object]:
    """Diagnostics of ``doc`` and the typed object they were read from
    (None when the payload cannot be read)."""
    problems: list[str] = []
    obj = None
    if not isinstance(doc, dict):
        return ["instance must be a JSON object"], None
    if doc.get("format_version") != FORMAT_VERSION:
        problems.append(f"format_version must be {FORMAT_VERSION}")
    kind = doc.get("kind")
    if kind not in _KINDS:
        problems.append(f"kind must be one of {sorted(_KINDS)}")
        return problems, None
    tols = doc.get("tolerances", {})
    if not isinstance(tols, dict):
        problems.append("tolerances must be an object")
    else:
        for key in sorted(tols):
            val = tols[key]
            if not isinstance(val, (int, float)) or val < 0:
                problems.append(f"tolerance '{key}' must be a nonnegative number")
    if kind in _TARGET_KINDS:
        target = doc.get("target")
        if not isinstance(target, dict) or target.get("type") != "euclidean":
            problems.append("target must declare type 'euclidean'")
        elif not isinstance(target.get("dimension"), int) or target["dimension"] < 1:
            problems.append("target.dimension must be a positive integer")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        problems.append("payload missing")
        return problems, None
    if problems:
        return problems, None

    if kind == "mapped_disc":
        try:
            vertices = np.asarray(payload["vertices"], dtype=float)
            triangles = np.asarray(payload["triangles"], dtype=int)
            images = np.asarray(payload["images"], dtype=float)
            loop = [int(v) for v in payload["boundary_loop"]]
        except (KeyError, ValueError, TypeError) as exc:
            return [f"payload field error: {exc}"], None
        n = len(vertices)
        if triangles.size and (triangles.min() < 0 or triangles.max() >= n):
            problems.append("payload.triangles: vertex index out of range")
        if any(v < 0 or v >= n for v in loop):
            problems.append("payload.boundary_loop: vertex index out of range")
        if len(images) != n:
            problems.append("payload.images: one image per vertex required")
        if not problems:
            try:
                obj = MappedDisc(vertices, triangles, loop, images, _target_from(doc["target"]))
            except ValueError as exc:
                problems.extend("payload: " + p for p in exc.problems)
        sample = doc.get("sample")
        if sample is not None:
            for v in sample:
                if not isinstance(v, int) or v < 0 or v >= n:
                    problems.append(f"sample: vertex index {v} out of range")
                    break
    elif kind == "graph":
        try:
            points = payload["points"]
            edges = payload["edges"]
            rotation = payload["rotation"]
            pinned = payload["pinned"]
        except KeyError as exc:
            return [f"payload field missing: {exc}"], None
        for name, value in (("points", points), ("edges", edges), ("rotation", rotation), ("pinned", pinned)):
            if not isinstance(value, (list, tuple)):
                return [f"payload.{name} must be a list"], None
        n = len(points)
        coords = []
        for v, p in enumerate(points):
            try:
                coords.append(np.asarray(p, dtype=float))
            except (TypeError, ValueError):
                problems.append(f"payload.points: entry {p} of vertex {v} is not a point")
                break
        for edge in edges:
            if (not isinstance(edge, (list, tuple)) or len(edge) != 2
                    or not all(isinstance(x, int) for x in edge)):
                problems.append(f"payload.edges: entry {edge} is not a pair of vertex indices")
                break
            u, v = edge
            if not (0 <= u < n and 0 <= v < n):
                problems.append(f"payload.edges: index ({u},{v}) out of range")
                break
        for v in pinned:
            if not isinstance(v, int):
                problems.append(f"payload.pinned: entry {v!r} is not a vertex index")
                break
            if not 0 <= v < n:
                problems.append(f"payload.pinned: index {v} out of range")
                break
        if len(rotation) != n:
            problems.append("payload.rotation must list every vertex")
        for v, rot in enumerate(rotation):
            if not isinstance(rot, (list, tuple)) or not all(isinstance(w, int) for w in rot):
                problems.append(f"payload.rotation: entry {rot} of vertex {v} is not a list of vertex indices")
                break
            if not all(0 <= w < n for w in rot):
                problems.append(f"payload.rotation: entry {rot} of vertex {v} has an index out of range")
                break
        if not problems:
            try:
                obj = GraphInTarget(
                    points=coords,
                    edges=[(int(u), int(v)) for u, v in edges],
                    pinned=set(int(v) for v in pinned),
                    rotation=[[int(w) for w in rot] for rot in rotation],
                    target=_target_from(doc["target"]),
                    positions=np.asarray(payload["positions"], dtype=float)
                    if payload.get("positions") is not None
                    else None,
                )
            except ValueError as exc:
                problems.extend("payload: " + p for p in exc.problems)
    elif kind == "patch":
        try:
            obj = HeightFieldPatch(
                x=np.asarray(_parse_floats(payload["x"]), dtype=float),
                y=np.asarray(_parse_floats(payload["y"]), dtype=float),
                values=np.asarray(_parse_floats(payload["values"]), dtype=float),
            )
        except (KeyError, ValueError, TypeError) as exc:
            problems.append(f"payload: {exc}")
    elif kind == "polyhedral_disc":
        try:
            obj = PolyhedralDisc(
                tri_coords=[np.asarray(c, dtype=float) for c in payload["tri_coords"]],
                tri_vertices=[tuple(int(a) for a in tri) for tri in payload["tri_vertices"]],
                gluings=[
                    ((int(p[0][0]), int(p[0][1])), (int(p[1][0]), int(p[1][1])))
                    for p in payload["gluings"]
                ],
                bridges=[(int(u), int(v), float(ln)) for u, v, ln in payload["bridges"]],
                boundary_walk=[int(v) for v in payload["boundary_walk"]],
                boundary_lengths=[float(x) for x in payload["boundary_lengths"]],
                n_vertices=int(payload["n_vertices"]),
            )
        except GlueError as exc:
            problems.extend("payload: " + p for p in exc.problems)
        except (KeyError, ValueError, TypeError) as exc:
            problems.append(f"payload: {exc}")
    return problems, obj

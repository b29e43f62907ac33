"""JSON (de)serialization for instances, polygons, triangulations, drawings,
and witness notes.

All rational coordinates travel as "num/den" strings so round-trips are
lossless; output is key-sorted and compact for byte-identical determinism.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .geometry import Point2, SimplePolygon, signed_area2, PolygonError
from .model import (Instance, PlaneInstance, EmbeddingError,
                    orient_plane_instance, validate_instance)
from .triangulation import (Triangulation, root_dual, validate_triangulation,
                            TriangulationError)
from .sketch import Drawing
from .witness import WitnessNote


class SchemaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Rationals.
# ---------------------------------------------------------------------------

def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _json_int(v: Any) -> int:
    """A JSON integer; floats, strings and booleans are refused."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"expected an integer, got {v!r}")
    return v


def fraction_from_str(s: Any) -> Fraction:
    if isinstance(s, bool):
        raise SchemaError(f"expected rational string, got {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise SchemaError(f"expected rational string, got {s!r}")
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {s!r}: {exc}") from exc


def point_to_json(p: Point2) -> list[str]:
    return [fraction_to_str(p.x), fraction_to_str(p.y)]


def point_from_json(v: Any) -> Point2:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise SchemaError(f"expected [x, y], got {v!r}")
    return Point2(fraction_from_str(v[0]), fraction_from_str(v[1]))


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Instances.
# ---------------------------------------------------------------------------

def instance_to_json(inst: Instance) -> dict:
    return {"n": inst.n,
            "edges": [[min(u, v), max(u, v)] for u, v in sorted(
                (min(e), max(e)) for e in inst.edges)],
            "cycle": list(inst.cycle)}


def instance_from_json(data: Any) -> Instance:
    if not isinstance(data, dict):
        raise SchemaError("instance document must be an object")
    try:
        n = _json_int(data["n"])
        edges = [(_json_int(u), _json_int(v)) for u, v in data["edges"]]
        cycle = [_json_int(c) for c in data["cycle"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad instance document: {exc}") from exc
    inst = Instance(n=n, edges=edges, cycle=cycle)
    problems = validate_instance(inst)
    if problems:
        raise SchemaError("bad instance: " + "; ".join(problems))
    return inst


def plane_instance_to_json(plane: PlaneInstance) -> dict:
    out = instance_to_json(plane.instance)
    out["rotation"] = {str(v): list(ns) for v, ns in plane.rotation.items()}
    return out


def plane_instance_from_json(data: Any) -> PlaneInstance:
    inst = instance_from_json(data)
    if "rotation" not in data:
        raise SchemaError("plane instance document lacks a rotation field")
    try:
        rot = {int(v): [_json_int(u) for u in ns]
               for v, ns in data["rotation"].items()}
    except (TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"bad rotation field: {exc}") from exc
    unknown = sorted({u for v, ns in rot.items() for u in [v, *ns]
                      if not 0 <= u < inst.n})
    if unknown:
        raise SchemaError(f"bad rotation field: unknown vertices {unknown}")
    try:
        return orient_plane_instance(PlaneInstance(instance=inst, rotation=rot))
    except EmbeddingError as exc:
        raise SchemaError(f"bad embedding: {exc}") from exc


# ---------------------------------------------------------------------------
# Polygons.
# ---------------------------------------------------------------------------

def polygon_to_json(poly: SimplePolygon) -> dict:
    return {"points": [point_to_json(p) for p in poly.points]}


def polygon_from_json(data: Any) -> SimplePolygon:
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise SchemaError("polygon document must be an object with a list "
                          "of points")
    pts = [point_from_json(v) for v in data["points"]]
    if len(pts) >= 3 and signed_area2(pts) < 0:
        pts = list(reversed(pts))  # accept clockwise input
    try:
        return SimplePolygon.from_points(pts)
    except PolygonError as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Triangulations (1-based polygon indices on the wire).
# ---------------------------------------------------------------------------

def triangulation_to_json(tri: Triangulation) -> dict:
    return {"diagonals": [[a + 1, b + 1] for a, b in sorted(tri.diagonals)],
            "root": tri.root if tri.root is not None else "ear"}


def triangulation_from_json(data: Any, poly: SimplePolygon) -> Triangulation:
    if not isinstance(data, dict):
        raise SchemaError("triangulation document must be an object")
    try:
        diagonals = [(_json_int(a) - 1, _json_int(b) - 1)
                     for a, b in data["diagonals"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad triangulation document: {exc}") from exc
    try:
        tri = validate_triangulation(poly, diagonals)
    except TriangulationError as exc:
        raise SchemaError(str(exc)) from exc
    root = data.get("root", "ear")
    if root == "ear":
        return root_dual(tri, policy="ear")
    try:
        return root_dual(tri, policy=_json_int(root))
    except (TypeError, ValueError, TriangulationError) as exc:
        raise SchemaError(f"bad root: {exc}") from exc


# ---------------------------------------------------------------------------
# Drawings.
# ---------------------------------------------------------------------------

def _simplex_to_json(simplex: tuple[int, ...]) -> dict:
    kinds = {1: "vertex", 2: "edge", 3: "triangle"}
    ids = [i + 1 for i in simplex]
    return {"kind": kinds[len(simplex)],
            "id": ids[0] if len(ids) == 1 else ids}


def _simplex_from_json(data: Any) -> tuple[int, ...]:
    try:
        kind = data["kind"]
        raw = data["id"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad simplex record: {exc}") from exc
    ids = [raw] if isinstance(raw, int) else raw
    want = {"vertex": 1, "edge": 2, "triangle": 3}.get(kind)
    if want is None or not isinstance(ids, list) or len(ids) != want:
        raise SchemaError(f"bad simplex record {data!r}")
    try:
        return tuple(sorted(_json_int(i) - 1 for i in ids))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad simplex record {data!r}: {exc}") from exc


def drawing_to_json(drawing: Drawing) -> dict:
    out = {"positions": {str(v): point_to_json(p)
                         for v, p in drawing.positions.items()}}
    if drawing.simplex is not None:
        out["simplex"] = {str(v): _simplex_to_json(s)
                          for v, s in drawing.simplex.items()}
    return out


def drawing_from_json(data: Any) -> Drawing:
    if not isinstance(data, dict) or "positions" not in data:
        raise SchemaError("drawing document must be an object with positions")
    try:
        positions = {int(v): point_from_json(p)
                     for v, p in data["positions"].items()}
    except (TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"bad positions: {exc}") from exc
    simplex = None
    if "simplex" in data:
        try:
            simplex = {int(v): _simplex_from_json(s)
                       for v, s in data["simplex"].items()}
        except (TypeError, ValueError, AttributeError) as exc:
            raise SchemaError(f"bad simplex field: {exc}") from exc
    return Drawing(positions=positions, simplex=simplex)


# ---------------------------------------------------------------------------
# Witnesses.
# ---------------------------------------------------------------------------

def witness_note_to_json(note: WitnessNote) -> dict:
    return {"kind": note.kind,
            "anchors": {str(pos): idx for pos, idx in note.anchors.items()},
            "certificate": note.certificate}


def witness_note_from_json(data: Any) -> WitnessNote:
    try:
        return WitnessNote(kind=data["kind"],
                           anchors={int(p): _json_int(i)
                                    for p, i in data["anchors"].items()},
                           certificate=dict(data["certificate"]))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"bad witness note: {exc}") from exc


def load(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def save(path: str, obj: Any):
    with open(path, "w") as fh:
        fh.write(dumps(obj))

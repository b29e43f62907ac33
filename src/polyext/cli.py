"""Command-line interface.

Subcommands: check, draw, witness, verify.  Exit codes: 0 for a positive
verdict, 1 for a negative verdict, 2 for invalid input, 3 for an internal
error (a bug, never a verdict).  All JSON output is deterministic (sorted
keys, lossless rationals).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import traceback
from typing import Optional

from . import jsonio
from .conditions import check_universality
from .geometry import SimplePolygon
from .model import Instance
from .sketch import sketch_linear, realize, validate_respecting
from .triangulation import ear_clip, root_dual
from .jsonio import SchemaError

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


def _emit(obj) -> None:
    sys.stdout.write(jsonio.dumps(obj))


def _kind(violation) -> str:
    return "triple" if hasattr(violation, "k") else "pair"


def _violation_json(v) -> dict:
    out = dataclasses.asdict(v)
    out["kind"] = _kind(v)
    return out


def _load_instance(path: str) -> Instance:
    return jsonio.instance_from_json(jsonio.load(path))


def _load_polygon(path: str) -> SimplePolygon:
    return jsonio.polygon_from_json(jsonio.load(path))


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    res = check_universality(inst)
    if res.universal:
        _emit({"status": "universal"})
        return EXIT_POSITIVE
    _emit({"status": "not-universal",
           "violation": _violation_json(res.violation)})
    return EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# draw
# ---------------------------------------------------------------------------

def cmd_draw(args) -> int:
    polygon = _load_polygon(args.polygon)
    if args.tri is not None:
        tri = jsonio.triangulation_from_json(jsonio.load(args.tri), polygon)
    else:
        tri = root_dual(ear_clip(polygon))
    if args.planar:
        from . import planar
        plane = jsonio.plane_instance_from_json(jsonio.load(args.instance))
        inst = plane.instance
        if inst.t != len(polygon):
            raise SchemaError("cycle length differs from polygon size")
        try:
            drawing = planar.accommodate(plane, polygon, tri)
        except planar.NotSketchableError:
            _emit({"status": "not-drawable (for this triangulation)"})
            return EXIT_NEGATIVE
    else:
        inst = _load_instance(args.instance)
        if inst.t != len(polygon):
            raise SchemaError("cycle length differs from polygon size")
        assign = sketch_linear(inst, tri)
        if assign is None:
            _emit({"status": "not-drawable (for this triangulation)"})
            return EXIT_NEGATIVE
        drawing = realize(assign, tri)
    doc = jsonio.drawing_to_json(drawing)
    jsonio.save(args.output, doc)
    if args.svg is not None:
        from .svg import drawing_svg
        with open(args.svg, "w") as fh:
            fh.write(drawing_svg(drawing, inst, polygon, tri))
    _emit({"status": "planar-drawable" if args.planar else "drawable",
           "output": args.output})
    return EXIT_POSITIVE


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

# --kind asserts the kind of the violation check_universality reports
_KIND_MISMATCH = {
    "pair": "pair condition holds; the instance violates the triple condition",
    "triple": "triple condition is undefined while the pair condition fails",
}


def cmd_witness(args) -> int:
    from .witness import build_witness
    inst = _load_instance(args.instance)
    violation = check_universality(inst).violation
    if violation is None:
        _emit({"status": "universal", "note": "no witness exists"})
        return EXIT_NEGATIVE
    if args.kind is not None and args.kind != _kind(violation):
        raise SchemaError(_KIND_MISMATCH[args.kind])
    w = build_witness(inst, violation)
    jsonio.save(args.output, jsonio.polygon_to_json(w.polygon))
    note_path = args.output + ".note.json"
    jsonio.save(note_path, jsonio.witness_note_to_json(w.note))
    if args.svg is not None:
        from .svg import witness_svg
        if w.note.kind == "pair":
            depths = {p: violation.d_g for p in w.note.anchors}
        else:
            depths = {p: d for p, d in zip(
                sorted(w.note.anchors),
                (violation.d_i, violation.d_j, violation.d_k))}
        with open(args.svg, "w") as fh:
            fh.write(witness_svg(w.polygon, inst, w.note.anchors,
                                 w.note.kind, depths))
    _emit({"status": "not-universal", "kind": w.note.kind,
           "output": args.output, "note": note_path,
           "violation": _violation_json(violation)})
    return EXIT_POSITIVE


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    drawing = jsonio.drawing_from_json(jsonio.load(args.drawing))
    inst = _load_instance(args.instance)
    polygon = _load_polygon(args.polygon)
    if inst.t != len(polygon):
        raise SchemaError("cycle length differs from polygon size")
    missing = [v for v in range(inst.n) if v not in drawing.positions]
    if missing:
        raise SchemaError(f"drawing lacks positions for vertices {missing}")
    unknown = [v for v in drawing.positions if not 0 <= v < inst.n]
    if unknown:
        raise SchemaError(f"drawing references unknown vertices {unknown}")
    dangling = [v for v in drawing.simplex or () if not 0 <= v < inst.n]
    if dangling:
        raise SchemaError(
            f"drawing has simplex records for unknown vertices {dangling}")
    tri = None
    if args.tri is not None:
        tri = jsonio.triangulation_from_json(jsonio.load(args.tri), polygon)
    report = validate_respecting(drawing, inst, polygon, tri)
    if not report.ok:
        _emit({"status": "invalid-drawing", "failures": list(report.failures)})
        return EXIT_NEGATIVE
    if args.planar:
        from .planar import validate_planar
        if not validate_planar(drawing, inst):
            _emit({"status": "invalid-drawing",
                   "failures": ["drawing is not planar"]})
            return EXIT_NEGATIVE
    _emit({"status": "valid"})
    return EXIT_POSITIVE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# built once per process: parse_args leaves the parser as it was
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyext",
        description="Universal point sets inside simple polygons: decision, "
                    "drawing, and counterexample construction.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide universality of an instance")
    p.add_argument("instance")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("draw", help="construct a polygon-respecting drawing")
    p.add_argument("instance")
    p.add_argument("polygon")
    p.add_argument("--tri", default=None, help="triangulation JSON")
    p.add_argument("--planar", action="store_true",
                   help="run the planar pipeline (instance needs rotation data)")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_draw)

    p = sub.add_parser("witness", help="emit a counterexample polygon")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--kind", choices=["pair", "triple"], default=None,
                   help="assert the kind of the violation that check reports "
                        "(exit 2 when it is the other kind)")
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="verify a drawing against an instance")
    p.add_argument("drawing")
    p.add_argument("instance")
    p.add_argument("polygon")
    p.add_argument("--tri", default=None)
    p.add_argument("--planar", action="store_true")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        _emit({"status": "invalid-input", "error": str(exc)})
        return EXIT_INVALID
    except Exception as exc:  # a bug must not read as a verdict
        traceback.print_exc(file=sys.stderr)
        _emit({"status": "internal-error",
               "error": f"{type(exc).__name__}: {exc}"})
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Random end-to-end exercise of the whole pipeline.

For each trial: generate a random instance, decide universality; if it passes
both conditions, draw it inside a random polygon and validate the drawing; if
it fails, build the spiral counterexample and re-verify it.  A separate pass
exercises the planar pipeline on random plane instances.  Emits one JSON line
per trial and a final summary.

Usage:
    python3 scripts/random_suite.py [--seed N] [--suite-size N] [--out report.jsonl]

The default seed comes from the POLYEXT_SEED environment variable.
"""
import argparse
import json
import os
import random
import sys
import time

from polyext.conditions import check_universality, PairViolation
from polyext.oracle import (random_instance, random_polygon,
                            random_triangulation, random_plane_instance)
from polyext.planar import accommodate, validate_planar, NotSketchableError
from polyext.sketch import sketch_linear, realize, validate_respecting
from polyext.witness import build_witness, verify_witness


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int,
                    default=int(os.environ.get("POLYEXT_SEED", "20260826")))
    ap.add_argument("--suite-size", type=int, default=100)
    ap.add_argument("--out", default=None, help="write JSONL here too")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    lines = []
    totals = {"universal-drawn": 0, "witnessed": 0, "planar-drawn": 0,
              "planar-unsketchable": 0, "failures": 0}
    start = time.time()

    for trial in range(args.suite_size):
        t = rng.randint(3, 8)
        inst = random_instance(rng, t=t, extra=rng.randint(0, 4),
                               extra_edges=rng.randint(0, 3))
        res = check_universality(inst)
        row = {"trial": trial, "t": t, "n": inst.n,
               "universal": res.universal}
        if res.universal:
            poly = random_polygon(rng, t)
            tri = random_triangulation(rng, poly)
            assign = sketch_linear(inst, tri)
            ok = assign is not None
            if ok:
                drawing = realize(assign, tri)
                ok = validate_respecting(drawing, inst, poly, tri).ok
            row["drawn"] = ok
            totals["universal-drawn" if ok else "failures"] += 1
        else:
            row["violation"] = ("pair" if isinstance(res.violation,
                                                     PairViolation)
                                else "triple")
            w = build_witness(inst, res.violation)
            ok = verify_witness(w.polygon, inst, res.violation)
            row["witness_verified"] = ok
            totals["witnessed" if ok else "failures"] += 1
        lines.append(json.dumps(row, sort_keys=True))

    for trial in range(args.suite_size):
        t = rng.randint(3, 6)
        plane = random_plane_instance(rng, t=t, extra=rng.randint(0, 3))
        poly = random_polygon(rng, t)
        row = {"planar_trial": trial, "t": t, "n": plane.instance.n}
        try:
            d = accommodate(plane, poly)
        except NotSketchableError:
            row["result"] = "not-sketchable"
            totals["planar-unsketchable"] += 1
        else:
            ok = (validate_planar(d, plane.instance)
                  and validate_respecting(d, plane.instance, poly).ok)
            row["result"] = "drawn" if ok else "invalid"
            totals["planar-drawn" if ok else "failures"] += 1
        lines.append(json.dumps(row, sort_keys=True))

    totals["seconds"] = round(time.time() - start, 2)
    totals["seed"] = args.seed
    lines.append(json.dumps({"summary": totals}, sort_keys=True))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 1 if totals["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())

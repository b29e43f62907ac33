"""The benchmark's workloads: inputs built from a seed, the CLI calls made
on them, and the check applied to every call's output.

An operation (``Op``) is what the closed loop times: one CLI call, or for
``draw`` a drawing followed by the verification of that drawing.  Each
workload builds a pool of operations by walking a fixed ladder of input
sizes round after round with fresh random inputs; the timed loop cycles
through the pool in order, so any prefix of it mixes the sizes evenly.
"""
from __future__ import annotations

import json
import os
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import gen

# A check returns None when the call's exit code and stdout record are what
# the input's construction predicts, else a one-line reason.
Check = Callable[[int, Optional[dict]], Optional[str]]


@dataclass
class Call:
    kind: str                 # check | draw | verify | draw_planar | witness
    argv: list[str]
    check: Check
    writes: tuple[str, ...] = ()


@dataclass
class Op:
    label: str
    calls: list[Call]
    post: list[Call] = field(default_factory=list)   # untimed checks


@dataclass
class Workload:
    name: str
    build: Callable[[random.Random, "Files"], tuple[list[Op], list[Op]]]


class Files:
    """Writes input documents under one directory and names outputs there.

    File names start with the document kind (inst, poly, tri, drawing,
    spiral), which the traced run uses to attribute ``jsonio.load`` time.
    """

    def __init__(self, root: str):
        self.inputs = os.path.join(root, "inputs")
        self.outputs = os.path.join(root, "outputs")
        os.makedirs(self.inputs, exist_ok=True)
        os.makedirs(self.outputs, exist_ok=True)

    def write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.inputs, name)
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        return path

    def output(self, name: str) -> str:
        return os.path.join(self.outputs, name)


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def _bfs(inst: dict, src: int) -> list:
    adj = [[] for _ in range(inst["n"])]
    for u, v in inst["edges"]:
        adj[u].append(v)
        adj[v].append(u)
    dist = [None] * inst["n"]
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _violation_error(inst: dict, kind: str, viol: dict) -> Optional[str]:
    """Recompute the reported violation's distances from the instance."""
    if viol.get("kind") != kind:
        return f"expected a {kind} violation, got {viol.get('kind')}"
    t, cyc = len(inst["cycle"]), inst["cycle"]
    if kind == "pair":
        i, j = viol["i"] - 1, viol["j"] - 1
        d_c = min((j - i) % t, (i - j) % t)
        d_g = _bfs(inst, cyc[i])[cyc[j]]
        if (viol["d_g"], viol["d_c"]) != (d_g, d_c) or not d_g < d_c:
            return f"pair violation {viol} does not hold"
        return None
    anchors = [cyc[viol[x] - 1] for x in ("i", "j", "k")]
    dists = [_bfs(inst, a)[viol["v"]] for a in anchors]
    if dists != [viol["d_i"], viol["d_j"], viol["d_k"]] \
            or viol["v"] in anchors or 2 * sum(dists) > t:
        return f"triple violation {viol} does not hold"
    return None


def expect(status: str, rc: int, more: Optional[Callable] = None) -> Check:
    def check(got_rc: int, doc: Optional[dict]) -> Optional[str]:
        if doc is None:
            return "no JSON record on stdout"
        if got_rc != rc or doc.get("status") != status:
            return (f"expected {status!r} with exit {rc}, got "
                    f"{doc.get('status')!r} with exit {got_rc}")
        return more(doc) if more else None
    return check


def expect_violation(inst: dict, kind: str) -> Check:
    return expect("not-universal", 1,
                  lambda doc: _violation_error(inst, kind, doc["violation"]))


def expect_witness(inst: dict, kind: str, out: str) -> Check:
    def more(doc):
        if doc.get("kind") != kind:
            return f"expected a {kind} witness, got {doc.get('kind')}"
        with open(out) as fh:
            points = json.load(fh)["points"]
        if len(points) != len(inst["cycle"]):
            return "witness polygon size differs from the cycle length"
        return _violation_error(inst, kind, doc["violation"])
    return expect("not-universal", 0, more)


# ---------------------------------------------------------------------------
# Workload builders.
# ---------------------------------------------------------------------------

ROUNDS = 8   # rounds of the size ladder generated per pool


def _check_op(files: Files, tag: str, inst: dict, check: Check) -> Op:
    path = files.write(f"inst-{tag}.json", inst)
    return Op(tag, [Call("check", ["check", path], check)])


def build_decide(rng: random.Random, files: Files):
    # Why: the O(n*t^3) triple scan is nearly all of a passing check (BFS is
    # a few per cent) and no geometry runs, so this is where a faster
    # decision shows and where a faster exact kernel should change nothing.
    # (kind, t, n): universal instances with violators as a minority; the
    # tight-triple hub gets the lowest interior id (the scan stops early) or
    # the highest id (the scan runs through every vertex first).  Sizes put
    # the rungs in three cost classes -- early exits (3 of 8), t=28 with n=450
    # (2 of 8) and n*t^3 about that of t=36 with n=500 (3 of 8) -- so the
    # median and the p75 tail fall inside a class of equal-cost inputs, not
    # on the edge between two classes.
    ladder = [("universal", 28, 450), ("pair", 28, 450),
              ("universal", 36, 500), ("triple-low", 36, 500),
              ("universal", 36, 500), ("pair", 24, 400),
              ("triple-high", 28, 450), ("universal", 32, 660)]
    pool = []
    for r in range(ROUNDS):
        for s, (kind, t, n) in enumerate(ladder):
            tag = f"{r}-{s}-{kind}-t{t}"
            if kind == "universal":
                inst = gen.universal_instance(rng, t, n)
                check = expect("universal", 0)
            elif kind == "pair":
                shortcut = rng.randint(1, 3)
                inst = gen.pair_violator(rng, t, n, shortcut,
                                         rng.randint(shortcut + 2, t // 2))
                check = expect_violation(inst, "pair")
            else:
                inst = gen.triple_violator(rng, t, n, kind == "triple-high")
                check = expect_violation(inst, "triple")
            pool.append(_check_op(files, tag, inst, check))
    warm = [_check_op(files, "warm", gen.universal_instance(rng, 8, 20),
                      expect("universal", 0))]
    return pool, warm


def _draw_op(files: Files, tag: str, t: int, n: int, use_tri: bool,
             rng: random.Random) -> Op:
    inst = files.write(f"inst-{tag}.json", gen.universal_instance(rng, t, n))
    poly_doc, tri_doc = gen.polygon_with_triangulation(rng, t)
    poly = files.write(f"poly-{tag}.json", poly_doc)
    out = files.output(f"drawing-{tag}.json")
    tri = ["--tri", files.write(f"tri-{tag}.json", tri_doc)] if use_tri else []
    return Op(tag, [
        Call("draw", ["draw", inst, poly, "-o", out] + tri,
             expect("drawable", 0), writes=(out,)),
        Call("verify", ["verify", out, inst, poly] + tri,
             expect("valid", 0))])


def build_draw(rng: random.Random, files: Files):
    # Why: the geometry layer is used two ways.  Writing a drawing is
    # dominated by polygon simplicity and, with --tri, triangulation
    # validation; reading one back (verify) by per-edge segment containment.
    # A kernel change that helps one and costs the other shows here; the
    # decision layer does not run.
    # (t, n, --tri): each op draws, then verifies that drawing.  The largest
    # plain rung (t=28) costs about what the smallest --tri rung (t=16)
    # does, so the median falls where the two kinds overlap, not in a gap
    # between a cheap plain class and a dear --tri class.
    ladder = [(16, 100, False), (20, 90, True), (28, 80, False),
              (16, 100, True), (20, 90, False), (24, 80, True)]
    pool = [_draw_op(files, f"{r}-{s}-t{t}{'-tri' if tri else ''}",
                     t, n, tri, rng)
            for r in range(ROUNDS) for s, (t, n, tri) in enumerate(ladder)]
    warm = [_draw_op(files, f"warm-{tri}", 8, 20, tri, rng)
            for tri in (False, True)]
    return pool, warm


def _planar_op(files: Files, tag: str, spec: tuple, rng: random.Random) -> Op:
    t, fans, ears, pendants = spec
    inst = files.write(f"inst-{tag}.json",
                       gen.plane_instance(rng, t, fans, ears, pendants))
    poly = files.write(f"poly-{tag}.json",
                       gen.polygon_json(gen.round_polygon(rng, t)))
    out = files.output(f"drawing-{tag}.json")
    return Op(tag, [Call("draw_planar",
                         ["draw", inst, poly, "--planar", "-o", out],
                         expect("planar-drawable", 0), writes=(out,))],
              post=[Call("verify", ["verify", out, inst, poly, "--planar"],
                         expect("valid", 0))])


def build_planar(rng: random.Random, files: Files):
    # Why: journal replay with whole-drawing revalidation is almost all of a
    # planar draw, and its coordinates grow to hundreds of bits.  Every
    # instance passes both conditions, so it has a sketch for every
    # triangulation and accommodate must succeed.
    # (t, fans, ears, pendants); the pattern is fixed per rung because the
    # instance's shape sets the journal length, and the polygons are kept
    # near-regular because a thin spike multiplies the epsilon retries.
    ladder = [(4, 0, 0, 0), (5, 0, 1, 0), (4, 1, 0, 0), (4, 0, 1, 1),
              (5, 0, 0, 0), (4, 0, 2, 0), (5, 1, 0, 0), (4, 1, 1, 0)]
    pool = [_planar_op(files, f"{r}-{s}-t{spec[0]}", spec, rng)
            for r in range(ROUNDS) for s, spec in enumerate(ladder)]
    warm = [_planar_op(files, "warm", (4, 0, 0, 0), rng)]
    return pool, warm


def _witness_op(files: Files, tag: str, spec: tuple,
                rng: random.Random) -> Op:
    kind, t = spec[0], spec[1]
    n = t + rng.randint(4, 8)
    if kind == "pair":
        inst = gen.pair_violator(rng, t, n, *spec[2:], at=0)
    else:
        inst = gen.triple_violator(rng, t, n + 4, rng.random() < 0.5,
                                   spec[2:])
    path = files.write(f"inst-{tag}.json", inst)
    out = files.output(f"spiral-{tag}.json")
    return Op(tag, [Call("witness", ["witness", path, "-o", out],
                         expect_witness(inst, kind, out),
                         writes=(out, out + ".note.json"))])


def build_refute(rng: random.Random, files: Files):
    # Why: the link-distance engine is almost all of a witness (build and
    # re-verification cost about the same), and no drawing layer runs.
    # A witness costs what its violation's shape dictates (cycle length,
    # reported graph distance or arc lengths); the rest of the instance only
    # feeds the cheap decision that picks the violation.  So each rung fixes
    # the shape -- ("pair", t, shortcut, span) with the shortcut starting at
    # cycle position 1, ("triple", t, arcs) at a random rotation -- and the
    # seed varies the background graph, the rotation and the hub's id.  The
    # pair rung of t=12 comes twice, so the median falls inside that rung's
    # fixed-shape cost, not between two rungs.
    ladder = [("pair", 8, 1, 4), ("triple", 8, 3, 3, 2), ("pair", 10, 2, 5),
              ("triple", 6, 2, 2, 2), ("pair", 12, 1, 5),
              ("triple", 10, 4, 3, 3), ("pair", 12, 1, 5)]
    pool = [_witness_op(files, f"{r}-{s}-{spec[0]}-t{spec[1]}", spec, rng)
            for r in range(ROUNDS) for s, spec in enumerate(ladder)]
    warm = [_witness_op(files, f"warm-{spec[0]}", spec, rng)
            for spec in (("pair", 8, 1, 3), ("triple", 6, 2, 2, 2))]
    return pool, warm


WORKLOADS = {w.name: w for w in [
    Workload("decide", build_decide),
    Workload("draw", build_draw),
    Workload("planar", build_planar),
    Workload("refute", build_refute),
]}

"""Spans around calls into each layer's public functions.

The tracer replaces module attributes of ``polyext`` with timing wrappers,
everywhere the same function object is bound, so calls made through
``from .x import f`` are caught as well.  Spans live in memory until the
run ends; each is ``(op, id, parent, name, start_ns, end_ns)``.  Counts the
program exposes in its return values (sketch sweep operations, journal
steps, link depths, ring sizes, coordinate bits) are read at the same
boundaries and kept per operation.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from fractions import Fraction

# module -> public functions wrapped in spans
TARGETS = {
    "cli": ["main"],
    "jsonio": ["load", "save", "instance_from_json",
               "plane_instance_from_json", "polygon_from_json",
               "triangulation_from_json", "drawing_from_json",
               "drawing_to_json", "polygon_to_json", "witness_note_to_json"],
    "model": ["graph_distances"],
    "conditions": ["check_universality", "check_pair", "check_triple"],
    "geometry": ["is_simple_polygon", "segment_inside_polygon"],
    "triangulation": ["ear_clip", "validate_triangulation", "root_dual"],
    "sketch": ["sketch_linear", "realize", "validate_respecting"],
    "planar": ["minimize", "accommodate", "validate_planar",
               "default_epsilon"],
    "visibility": ["link_distance", "link_ball", "triple_intersection_empty"],
    "witness": ["build_witness", "verify_witness"],
}

# Per-layer metrics: (name, unit).  Times are seconds summed over the traced
# operations, counting a function's span only when it is not nested inside
# another span of the same function.
LAYER_METRICS = [
    ("jsonio.instance_load_s", "s"), ("model.graph_distances_s", "s"),
    ("conditions.check_pair_s", "s"), ("conditions.check_triple_s", "s"),
    ("geometry.polygon_load_s", "s"), ("triangulation.ear_clip_s", "s"),
    ("triangulation.validate_triangulation_s", "s"),
    ("triangulation.root_dual_s", "s"), ("sketch.sketch_linear_s", "s"),
    ("sketch.realize_s", "s"), ("sketch.sketch_linear_ops", "count"),
    ("sketch.validate_respecting_s", "s"),
    ("geometry.segment_inside_polygon_s", "s"),
    ("geometry.segment_inside_polygon_calls", "count"),
    ("jsonio.drawing_io_s", "s"), ("sketch.max_coord_bits", "bits"),
    ("planar.minimize_s", "s"), ("planar.accommodate_s", "s"),
    ("planar.replay_s", "s"), ("planar.validate_planar_s", "s"),
    ("planar.journal_steps", "count"),
    ("planar.journal_contractions", "count"),
    ("planar.journal_strips", "count"), ("planar.epsilon_attempts", "count"),
    ("planar.max_coord_bits", "bits"), ("witness.build_witness_s", "s"),
    ("witness.verify_witness_s", "s"), ("visibility.link_distance_s", "s"),
    ("visibility.link_ball_s", "s"),
    ("visibility.triple_intersection_empty_s", "s"),
    ("visibility.link_depth", "count"),
    ("visibility.ball_ring_vertices", "count"),
    ("visibility.ball_windows", "count"),
    ("cli.main_s", "s"), ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"), ("trace.ops", "count"),
]

# Counts that must repeat exactly for the same input.
EXACT_COUNTS = ["sketch.sketch_linear_ops", "sketch.max_coord_bits",
                "planar.journal_steps", "planar.journal_contractions",
                "planar.journal_strips", "planar.epsilon_attempts",
                "planar.max_coord_bits", "visibility.link_depth",
                "visibility.ball_ring_vertices", "visibility.ball_windows",
                "geometry.segment_inside_polygon_calls"]


def coord_bits(drawing) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for p in drawing.positions.values() for c in (p.x, p.y)),
               default=0)


def _file_kind(path) -> str:
    base = str(path).rsplit("/", 1)[-1]
    return base.split("-", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self.counts: dict = {}          # op -> Counter of exact counts
        self.enabled = False
        self._restore: list = []
        self._last_epsilon = None

    # -- spans ------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self.counts[op_id] = Counter()

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([self.op, sid, parent, name,
                           time.perf_counter_ns(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        post = getattr(self, "_post_" + name.replace(".", "_"), None)
        pre = getattr(self, "_pre_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name
            if name in ("jsonio.load", "jsonio.save"):
                label = f"{name}[{_file_kind(args[0])}]"
            if pre is not None:
                args, kwargs, extra = pre(args, kwargs)
            sid = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if post is not None:
                post(result, extra if pre is not None else None)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- counts read at layer boundaries -----------------------------------

    def _pre_sketch_sketch_linear(self, args, kwargs):
        sketch = importlib.import_module("polyext.sketch")
        if len(args) < 3 and kwargs.get("stats") is None:
            stats = sketch.SweepStats()
            kwargs = dict(kwargs, stats=stats)
            return args, kwargs, stats
        return args, kwargs, None

    def _post_sketch_sketch_linear(self, result, stats):
        if stats is not None:
            self.counts[self.op]["sketch.sketch_linear_ops"] += stats.ops

    def _post_sketch_realize(self, drawing, _):
        c = self.counts[self.op]
        c["sketch.max_coord_bits"] = max(c["sketch.max_coord_bits"],
                                         coord_bits(drawing))

    def _post_planar_minimize(self, result, _):
        journal = result[1]
        kinds = Counter(type(step).__name__ for step in journal)
        c = self.counts[self.op]
        c["planar.journal_steps"] += len(journal)
        c["planar.journal_contractions"] += kinds["ContractedEdge"]
        c["planar.journal_strips"] += kinds["StrippedTriangle"]

    def _post_planar_default_epsilon(self, eps, _):
        self._last_epsilon = eps

    def _post_planar_accommodate(self, drawing, _):
        c = self.counts[self.op]
        ratio = Fraction(self._last_epsilon) / drawing.meta["epsilon"]
        attempts = 1
        while ratio > 1:
            ratio /= 4
            attempts += 1
        c["planar.epsilon_attempts"] += attempts
        c["planar.max_coord_bits"] = max(c["planar.max_coord_bits"],
                                         coord_bits(drawing))

    def _post_visibility_link_distance(self, depth, _):
        self.counts[self.op]["visibility.link_depth"] += depth or 0

    def _post_visibility_link_ball(self, region, _):
        c = self.counts[self.op]
        c["visibility.link_depth"] += region.depth
        c["visibility.ball_ring_vertices"] += len(region.ring)
        c["visibility.ball_windows"] += len(region.windows)

    def _post_geometry_segment_inside_polygon(self, _result, _):
        self.counts[self.op]["geometry.segment_inside_polygon_calls"] += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target function in every traced module binding it."""
        modules = {m: importlib.import_module(f"polyext.{m}")
                   for m in TARGETS}
        for modname, names in TARGETS.items():
            for fname in names:
                orig = getattr(modules[modname], fname)
                traced = self._wrap(f"{modname}.{fname}", orig)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, traced)
                            self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_times(self) -> dict:
        """Seconds per span name, outermost occurrence of each name only,
        and the time covered by layer spans directly under ``cli.main``."""
        spans = self.spans
        totals: dict = defaultdict(int)
        covered = 0
        for op, sid, parent, name, t0, t1 in spans:
            p, nested = parent, False
            while p is not None:
                if spans[p][3] == name:
                    nested = True
                    break
                p = spans[p][2]
            if not nested:
                totals[name] += t1 - t0
            if parent is not None and spans[parent][3] == "cli.main":
                covered += t1 - t0
        out = {k: v / 1e9 for k, v in totals.items()}
        out["_covered"] = covered / 1e9
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(times: dict, counts: dict, op_seconds: float,
                  untraced_seconds: float, n_ops: int) -> dict:
    """Fold span times and per-op counts into the per-layer metric set."""
    g = times.get
    total = Counter()
    for c in counts.values():
        for k, v in c.items():
            total[k] = max(total[k], v) if k.endswith("max_coord_bits") \
                else total[k] + v

    def s(*names):
        return sum(g(n, 0.0) for n in names)

    values = {
        "jsonio.instance_load_s": s("jsonio.load[inst]",
                                    "jsonio.instance_from_json",
                                    "jsonio.plane_instance_from_json"),
        "model.graph_distances_s": s("model.graph_distances"),
        "conditions.check_pair_s": s("conditions.check_pair"),
        "conditions.check_triple_s": s("conditions.check_triple"),
        "geometry.polygon_load_s": s("jsonio.load[poly]",
                                     "jsonio.polygon_from_json"),
        "triangulation.ear_clip_s": s("triangulation.ear_clip"),
        "triangulation.validate_triangulation_s":
            s("triangulation.validate_triangulation"),
        "triangulation.root_dual_s": s("triangulation.root_dual"),
        "sketch.sketch_linear_s": s("sketch.sketch_linear"),
        "sketch.realize_s": s("sketch.realize"),
        "sketch.validate_respecting_s": s("sketch.validate_respecting"),
        "geometry.segment_inside_polygon_s":
            s("geometry.segment_inside_polygon"),
        "jsonio.drawing_io_s": s("jsonio.drawing_to_json",
                                 "jsonio.save[drawing]",
                                 "jsonio.load[drawing]",
                                 "jsonio.drawing_from_json"),
        "planar.minimize_s": s("planar.minimize"),
        "planar.accommodate_s": s("planar.accommodate"),
        "planar.replay_s": s("planar.accommodate") - s("planar.minimize"),
        "planar.validate_planar_s": s("planar.validate_planar"),
        "witness.build_witness_s": s("witness.build_witness"),
        "witness.verify_witness_s": s("witness.verify_witness"),
        "visibility.link_distance_s": s("visibility.link_distance"),
        "visibility.link_ball_s": s("visibility.link_ball"),
        "visibility.triple_intersection_empty_s":
            s("visibility.triple_intersection_empty"),
        "cli.main_s": s("cli.main"),
        "trace.coverage": g("_covered", 0.0) / op_seconds,
        "trace.overhead_s": op_seconds - untraced_seconds,
        "trace.ops": n_ops,
    }
    for name in EXACT_COUNTS:
        values[name] = total[name]
    units = dict(LAYER_METRICS)
    return {name: {"value": values[name], "unit": units[name]}
            for name, _ in LAYER_METRICS}

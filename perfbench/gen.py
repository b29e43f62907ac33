"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain JSON-ready
dicts in the program's wire format.  Nothing here imports ``polyext``: the
program under test only ever sees the files written from these dicts, so a
change to the program (or to its test oracles) cannot change the inputs.

Condition-passing instances are built so that both distance conditions hold
by construction (see ``universal_instance``); violators add one known
obstruction on top.  Integer coordinates keep generation cheap.
"""
from __future__ import annotations

import math
import random

# ---------------------------------------------------------------------------
# Instances.
# ---------------------------------------------------------------------------


def _clusters(rng: random.Random, t: int, m: int, first_id: int,
              edges: set) -> None:
    """Add ``m`` interior vertices ``first_id..first_id+m-1`` in clusters.

    A cluster is a connected set of interior vertices whose only cycle
    neighbours lie in one window of at most three consecutive cycle
    vertices, and whose only interior neighbours are in the same cluster.
    Any path from a cluster vertex to the cycle leaves through its window,
    so the graph distance between cycle vertices stays the cycle distance
    (pair condition), and a cluster vertex is at least 1 + (cycle distance
    to its window) from every cycle vertex, which keeps 2(d_i+d_j+d_k) > t
    for every tight triple (triple condition).
    """
    v = first_id
    end = first_id + m
    while v < end:
        size = min(end - v, rng.randint(1, 24))
        p = rng.randrange(t)
        window = [(p + s) % t for s in range(rng.randint(1, 3))]
        members = list(range(v, v + size))
        edges.add((min(window[0], v), max(window[0], v)))
        for idx, u in enumerate(members):
            if idx:
                w = members[rng.randrange(idx)]
                edges.add((w, u))
            for c in window:
                if rng.random() < 0.3:
                    edges.add((c, u))
        for _ in range(size // 4):
            a, b = rng.sample(members, 2) if size > 1 else (v, v)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        v += size


def _instance(n: int, t: int, edges: set) -> dict:
    return {"n": n, "edges": sorted([min(e), max(e)] for e in edges),
            "cycle": list(range(t))}


def _cycle_edges(t: int) -> set:
    return {(min(i, (i + 1) % t), max(i, (i + 1) % t)) for i in range(t)}


def universal_instance(rng: random.Random, t: int, n: int) -> dict:
    """Cycle 0..t-1 plus n-t clustered interior vertices; passes both
    conditions."""
    edges = _cycle_edges(t)
    _clusters(rng, t, n - t, t, edges)
    return _instance(n, t, edges)


def pair_violator(rng: random.Random, t: int, n: int, shortcut: int,
                  span: int, at: int | None = None) -> dict:
    """Universal background plus a path of ``shortcut`` edges joining two
    cycle vertices ``span`` apart (span > shortcut, span <= t/2), starting
    at cycle position ``at`` (random if None)."""
    if not shortcut < span <= t // 2:
        raise ValueError("shortcut must be shorter than the span")
    a = rng.randrange(t) if at is None else at
    b = (a + span) % t
    edges = _cycle_edges(t)
    inner = list(range(t, t + shortcut - 1))
    path = [a] + inner + [b]
    for u, w in zip(path, path[1:]):
        edges.add((min(u, w), max(u, w)))
    _clusters(rng, t, n - t - len(inner), t + len(inner), edges)
    return _instance(n, t, edges)


def triple_arcs(rng: random.Random, t: int) -> tuple[int, int, int]:
    """Three arcs of an even cycle, each at most t/2, summing to t."""
    while True:
        x = rng.randint(1, t // 2)
        y = rng.randint(1, t // 2)
        z = t - x - y
        if 1 <= z <= t // 2 and (x + z - y) >= 2 and (x + y - z) >= 2 \
                and (y + z - x) >= 2:
            return x, y, z


def triple_violator(rng: random.Random, t: int, n: int, hub_high: bool,
                    arcs: tuple | None = None) -> dict:
    """Universal background plus a hub joined by geodesic paths to three
    anchors, so that the hub is at distances summing to exactly t/2.

    With arcs A, B, C between the anchors the paths have lengths
    (A+C-B)/2, (A+B-C)/2 and (B+C-A)/2: each pair of paths is exactly as
    long as the arc it spans, so the pair condition still holds, and the hub
    violates the triple condition.  ``hub_high`` gives the hub the highest
    vertex id (the decision scan reaches it last); otherwise the lowest
    interior id.  ``arcs`` fixes (A, B, C); random if None.
    """
    if t % 2:
        raise ValueError("tight-triple violators need an even cycle")
    arc_a, arc_b, arc_c = arcs or triple_arcs(rng, t)
    i = rng.randrange(t)
    j = (i + arc_a) % t
    k = (j + arc_b) % t
    lengths = ((arc_a + arc_c - arc_b) // 2, (arc_a + arc_b - arc_c) // 2,
               (arc_b + arc_c - arc_a) // 2)
    path_vertices = sum(lengths) - 3
    hub = n - 1 if hub_high else t
    first_inner = t if hub_high else t + 1
    inner = iter(range(first_inner, first_inner + path_vertices))
    edges = _cycle_edges(t)
    for anchor, length in zip((i, j, k), lengths):
        path = [hub] + [next(inner) for _ in range(length - 1)] + [anchor]
        for u, w in zip(path, path[1:]):
            edges.add((min(u, w), max(u, w)))
    background = n - t - path_vertices - 1
    start = first_inner + path_vertices
    _clusters(rng, t, background, start, edges)
    return _instance(n, t, edges)


# ---------------------------------------------------------------------------
# Polygons and triangulations.
# ---------------------------------------------------------------------------


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def star_polygon(rng: random.Random, t: int, radius: int = 100_000) -> list:
    """Random polygon star-shaped around the origin: t integer points at
    increasing angles with random radii, strictly ccw around the origin."""
    while True:
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(t))
        pts = [(round(r * math.cos(a)), round(r * math.sin(a)))
               for a, r in ((a, rng.uniform(radius / 3, radius))
                            for a in angles)]
        origin = (0, 0)
        if all(_cross(origin, pts[q], pts[(q + 1) % t]) > 0
               for q in range(t)):
            return pts


def round_polygon(rng: random.Random, t: int, radius: int = 100_000) -> list:
    """Random near-regular polygon: vertex q at angle 2*pi*(q + u)/t with
    |u| <= 0.35 and radius between 0.6 and 1 times ``radius``.  Consecutive
    angles stay less than pi apart for t >= 4, so it is star-shaped around
    the origin and simple."""
    return [(round(r * math.cos(a)), round(r * math.sin(a)))
            for a, r in ((2 * math.pi * (q + rng.uniform(-0.35, 0.35)) / t,
                          rng.uniform(0.6 * radius, radius))
                         for q in range(t))]


def _in_closed_triangle(p, a, b, c) -> bool:
    return _cross(a, b, p) >= 0 and _cross(b, c, p) >= 0 \
        and _cross(c, a, p) >= 0


def ear_clip_diagonals(rng: random.Random, pts: list) -> list | None:
    """Diagonals of a triangulation of the ccw ring ``pts`` by clipping
    random ears.  Returns None if no strict ear is found (degenerate
    input)."""
    active = list(range(len(pts)))
    diagonals = []
    while len(active) > 3:
        m = len(active)
        ears = []
        for q in range(m):
            a, b, c = active[q - 1], active[q], active[(q + 1) % m]
            if _cross(pts[a], pts[b], pts[c]) <= 0:
                continue
            if any(_in_closed_triangle(pts[x], pts[a], pts[b], pts[c])
                   for x in active if x not in (a, b, c)):
                continue
            ears.append(q)
        if not ears:
            return None
        q = rng.choice(ears)
        a, c = active[q - 1], active[(q + 1) % m]
        diagonals.append([min(a, c) + 1, max(a, c) + 1])
        del active[q]
    return sorted(diagonals)


def polygon_with_triangulation(rng: random.Random, t: int
                               ) -> tuple[dict, dict]:
    """A random star-shaped polygon and a random triangulation of it."""
    while True:
        pts = star_polygon(rng, t)
        diagonals = ear_clip_diagonals(rng, pts)
        if diagonals is not None:
            return (polygon_json(pts),
                    {"diagonals": diagonals, "root": "ear"})


def polygon_json(pts: list) -> dict:
    return {"points": [[f"{x}/1", f"{y}/1"] for x, y in pts]}


# ---------------------------------------------------------------------------
# Plane instances.
# ---------------------------------------------------------------------------


def _segments_cross(a, b, c, d) -> bool:
    """Closed segments ab and cd meet somewhere other than a shared
    endpoint."""
    shared = {a, b} & {c, d}
    if len(shared) == 2:
        return True
    if shared:
        (s,) = shared
        o1 = a if b == s else b
        o2 = c if d == s else d
        # collinear and pointing the same way overlaps
        return _cross(s, o1, o2) == 0 and \
            (o1[0] - s[0]) * (o2[0] - s[0]) \
            + (o1[1] - s[1]) * (o2[1] - s[1]) > 0
    d1, d2 = _cross(a, b, c), _cross(a, b, d)
    d3, d4 = _cross(c, d, a), _cross(c, d, b)
    if ((d1 > 0) != (d2 > 0) and d1 and d2) and \
            ((d3 > 0) != (d4 > 0) and d3 and d4):
        return True

    def on(p, q, r):  # r on closed segment pq, given collinear
        return min(p[0], q[0]) <= r[0] <= max(p[0], q[0]) and \
            min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
    return (d1 == 0 and on(a, b, c)) or (d2 == 0 and on(a, b, d)) or \
        (d3 == 0 and on(c, d, a)) or (d4 == 0 and on(c, d, b))


def _angle_key(v):
    """Sort key giving the ccw angle order of integer vectors."""
    return math.atan2(v[1], v[0])


def plane_instance(rng: random.Random, t: int, fans: int, ears: int,
                   pendants: int) -> dict:
    """Embedded condition-passing instance: the cycle drawn as a regular
    t-gon (turned by a random angle, which moves only where each neighbour
    list starts) plus interior clusters in a fixed pattern: ``fans``
    vertices on even cycle vertices, each joined to three consecutive cycle
    vertices; ``pendants`` vertices on odd cycle vertices,
    each joined to that vertex; and ``ears`` vertices nested on the cycle
    edges leaving odd vertices, each joined to both ends of its edge and to
    the previous ear on that edge.  The rotation system is read off the
    straight-line drawing, which is checked to be crossing-free.  Every
    cluster's cycle neighbours span at most three consecutive cycle
    vertices, so both conditions hold (see ``_clusters``).
    """
    if 2 * fans > t - t % 2 or 2 * pendants > t:
        raise ValueError("pattern does not fit the cycle")
    R = 10_000
    turn = rng.randrange(t)
    pos = [(round(R * math.cos(2 * math.pi * (q + turn) / t)),
            round(R * math.sin(2 * math.pi * (q + turn) / t)))
           for q in range(t)]
    edges = _cycle_edges(t)

    def toward_center(p, frac):
        return (round(p[0] * (1 - frac)), round(p[1] * (1 - frac)))

    def new_vertex(p, nbrs):
        v = len(pos)
        pos.append(p)
        for u in nbrs:
            edges.add((min(u, v), max(u, v)))
        return v

    for p in range(0, 2 * fans, 2):         # 0.3 of the way to the centre
        new_vertex(toward_center(pos[p], 0.3), [(p - 1) % t, p, (p + 1) % t])
    for p in range(1, 2 * pendants, 2):     # 0.1 of the way to the centre
        new_vertex(toward_center(pos[p], 0.1), [p])
    odd_edges = list(range(1, t, 2))
    tips: dict = {}
    for e in range(ears):                   # nested inward from the midpoint
        p = odd_edges[e % len(odd_edges)]
        q = (p + 1) % t
        shrink = 1 - 0.02 * (e // len(odd_edges) + 1)
        point = (round((pos[p][0] + pos[q][0]) / 2 * shrink),
                 round((pos[p][1] + pos[q][1]) / 2 * shrink))
        tips[p] = new_vertex(point, [p, q] + ([tips[p]] if p in tips else []))
    n = len(pos)
    edge_list = sorted(edges)
    for x in range(len(edge_list)):
        for y in range(x + 1, len(edge_list)):
            (a, b), (c, d) = edge_list[x], edge_list[y]
            if _segments_cross(pos[a], pos[b], pos[c], pos[d]):
                raise AssertionError("generated drawing is not plane")
    adj = {v: [] for v in range(n)}
    for a, b in edge_list:
        adj[a].append(b)
        adj[b].append(a)
    rotation = {str(v): sorted(ns, key=lambda u: _angle_key(
        (pos[u][0] - pos[v][0], pos[u][1] - pos[v][1])))
        for v, ns in adj.items()}
    out = _instance(n, t, edges)
    out["rotation"] = rotation
    return out


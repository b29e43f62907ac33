"""Slow, independent reference implementations used to cross-check the fast
routes, plus seeded random generators for the test suite and experiment
scripts.  Nothing in the production pipeline imports this module."""
from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from typing import Iterator, Optional

from .conditions import TripleViolation
from .geometry import (Point2, SimplePolygon, PolygonError, BOUNDARY,
                       INTERIOR, OUTSIDE, EndpointOutsideError, orient,
                       param_along, point_in_ring, point_on_segment,
                       segment_inside_polygon, segment_intersection,
                       segments_properly_cross)
from .model import (Instance, PlaneInstance, DistanceTable, cycle_distance,
                    graph_distances, validate_instance)
from .triangulation import (Pocket, Triangulation, TriangulationError,
                            root_dual, ear_clip, validate_triangulation, _canon,
                            _interleave, _split_ring)
from .sketch import (Simplex, SimplexTable, SketchError, simplex_meet,
                     _check_rooted)
from .visibility import Ring, VisibilityError, link_rings, visibility_polygon
from .planar import PlaneSurgeon, PlanarError


class OracleLimit(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Reference geometry: the predicates computed on Point2/Fraction arithmetic,
# for differential tests of the integer kernel in geometry.
# ---------------------------------------------------------------------------

def orient_reference(p: Point2, q: Point2, r: Point2) -> int:
    v = (q - p).cross(r - p)
    return (v > 0) - (v < 0)


def point_on_segment_reference(p: Point2, a: Point2, b: Point2) -> bool:
    if orient_reference(a, b, p) != 0:
        return False
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def segment_intersection_reference(a: Point2, b: Point2, c: Point2,
                                   d: Point2) -> tuple[Point2, ...]:
    r = b - a
    s = d - c
    denom = r.cross(s)
    if denom != 0:
        t = (c - a).cross(s) / denom
        u = (c - a).cross(r) / denom
        return (a + r.scale(t),) if 0 <= t <= 1 and 0 <= u <= 1 else ()
    # Parallel, or one point a off the line cd.
    if (c - a).cross(r) != 0 or (c - a).cross(s) != 0:
        return ()
    # Collinear: project onto the dominant axis of r (or of s if ab degenerate).
    axis = r if not r.is_zero() else s
    if axis.is_zero():
        return (a,) if a == c else ()

    def key(p: Point2) -> Fraction:
        return p.x if abs(axis.x) >= abs(axis.y) else p.y

    lo = max(min(a, b, key=key), min(c, d, key=key), key=key)
    hi = min(max(a, b, key=key), max(c, d, key=key), key=key)
    if key(lo) > key(hi):
        return ()
    return (lo,) if lo == hi else (lo, hi)


def line_cuts_reference(a: Point2, b: Point2, p: Point2, q: Point2
                        ) -> list[Fraction]:
    n = q - p
    sa = n.cross(a - p)
    sb = n.cross(b - p)
    if sa == sb:  # ab parallel to the line
        return [Fraction(0), Fraction(1)] if sa == 0 else []
    u = sa / (sa - sb)
    return [u] if 0 <= u <= 1 else []


def segments_properly_cross_reference(a: Point2, b: Point2, c: Point2,
                                      d: Point2) -> bool:
    if orient_reference(a, b, c) * orient_reference(a, b, d) >= 0:
        return False
    return orient_reference(c, d, a) * orient_reference(c, d, b) < 0


def point_in_triangle_reference(p: Point2, a: Point2, b: Point2,
                                c: Point2) -> str:
    o = orient_reference(a, b, c)
    if o == 0:
        raise ValueError("degenerate triangle")
    if o < 0:
        b, c = c, b
    s = [orient_reference(a, b, p), orient_reference(b, c, p),
         orient_reference(c, a, p)]
    if min(s) < 0:
        return OUTSIDE
    return BOUNDARY if 0 in s else INTERIOR


def is_simple_polygon_reference(points: list[Point2]) -> bool:
    n = len(points)
    if n < 3:
        return False
    if any(points[i] == points[(i + 1) % n] for i in range(n)):
        return False
    if sum((points[i].cross(points[(i + 1) % n]) for i in range(n)),
           Fraction(0)) == 0:
        return False  # zero area
    for i in range(n):
        a, b, c = points[i], points[(i + 1) % n], points[(i + 2) % n]
        if orient_reference(a, b, c) == 0 and (a - b).dot(c - b) > 0:
            return False  # a spike at b
    for i in range(n):
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges
            if segment_intersection_reference(
                    points[i], points[(i + 1) % n],
                    points[j], points[(j + 1) % n]):
                return False
    return True


def point_in_ring_reference(q: Point2, pts: list[Point2]) -> str:
    n = len(pts)
    for i in range(n):
        if point_on_segment_reference(q, pts[i], pts[(i + 1) % n]):
            return BOUNDARY
    inside = False
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if a.y <= q.y < b.y:
            if orient_reference(a, b, q) > 0:
                inside = not inside
        elif b.y <= q.y < a.y:
            if orient_reference(a, b, q) < 0:
                inside = not inside
    return INTERIOR if inside else OUTSIDE


def segment_inside_ring_reference(a: Point2, b: Point2, pts: list[Point2]
                                  ) -> bool:
    if (point_in_ring_reference(a, pts) == OUTSIDE
            or point_in_ring_reference(b, pts) == OUTSIDE):
        raise EndpointOutsideError("segment endpoint outside polygon")
    if a == b:
        return True
    d = b - a
    params = {Fraction(0), Fraction(1)}
    n = len(pts)
    for i in range(n):
        for h in segment_intersection_reference(a, b, pts[i],
                                                pts[(i + 1) % n]):
            params.add(param_along(h, a, d))
    cuts = sorted(u for u in params if 0 <= u <= 1)
    for u1, u2 in zip(cuts, cuts[1:]):
        mid = a + d.scale((u1 + u2) / 2)
        if point_in_ring_reference(mid, pts) == OUTSIDE:
            return False
    return True


# ---------------------------------------------------------------------------
# Reference sketch route: recursive pocket merge (delta).
# ---------------------------------------------------------------------------

class PocketMaps:
    """Memoised per-pocket maps for the recursive route.

    lam(Q) is the coarsest local sketch of pocket Q restricted to Q itself;
    lam_plus(Q) pushes assignments out across the lid into the outer triangle
    when every neighbour keeps contact with the lid.  Either map is None when
    the pocket admits no local sketch.
    """

    def __init__(self, inst: Instance, tri: Triangulation,
                 table: Optional[SimplexTable] = None):
        _check_rooted(tri)
        if inst.t != tri.t:
            raise SketchError("cycle length differs from polygon size")
        self.inst = inst
        self.tri = tri
        self.table = table or SimplexTable(tri)
        self.adj = inst.adjacency()
        self._lam: dict[tuple[int, int], Optional[dict[int, Simplex]]] = {}
        self._lam_plus: dict[tuple[int, int], Optional[dict[int, Simplex]]] = {}

    def lam(self, edge: tuple[int, int]) -> Optional[dict[int, Simplex]]:
        if edge in self._lam:
            return self._lam[edge]
        pocket = self.tri.pockets[edge]
        t = self.tri.t
        if pocket.trivial:
            i = pocket.start % t
            j = pocket.end % t
            lid = tuple(sorted((i, j)))
            out: dict[int, Simplex] = {}
            ci, cj = self.inst.cycle[i], self.inst.cycle[j]
            for v in range(self.inst.n):
                out[v] = lid
            out[ci] = (i,)
            out[cj] = (j,)
            self._lam[edge] = out
            return out
        left_e, right_e = pocket.children
        lp = self.lam_plus(left_e)
        rp = self.lam_plus(right_e)
        if lp is None or rp is None:
            self._lam[edge] = None
            return None
        tq = tuple(self.tri.triangles[pocket.inner_triangle])
        out = {}
        for v in range(self.inst.n):
            a, b = lp[v], rp[v]
            m = simplex_meet(a, b)
            if m is not None:
                out[v] = m
            elif b == tq:
                out[v] = a
            elif a == tq:
                out[v] = b
            else:
                self._lam[edge] = None
                return None
        self._lam[edge] = out
        return out

    def lam_plus(self, edge: tuple[int, int]) -> Optional[dict[int, Simplex]]:
        if edge in self._lam_plus:
            return self._lam_plus[edge]
        lam = self.lam(edge)
        if lam is None:
            self._lam_plus[edge] = None
            return None
        pocket = self.tri.pockets[edge]
        lid = tuple(sorted(pocket.edge))
        lid_set = set(lid)
        t_out = tuple(self.tri.triangles[pocket.outer_triangle])
        out = {}
        for v in range(self.inst.n):
            s = lam[v]
            if lid_set <= set(s) and all(
                    simplex_meet(lam[u], lid) is not None for u in self.adj[v]):
                out[v] = t_out
            else:
                m = simplex_meet(s, lid)
                out[v] = m if m is not None else s
        self._lam_plus[edge] = out
        return out


def _root_pockets(tri: Triangulation) -> list[Pocket]:
    """The three pockets cut off by the root triangle's sides."""
    a, b, c = tri.triangles[tri.root]
    return [tri.pockets[e] for e in (_canon(a, b), _canon(b, c), _canon(a, c))]


def lambda_plus(edge: tuple[int, int], inst: Instance, tri: Triangulation
                ) -> Optional[dict[int, Simplex]]:
    return PocketMaps(inst, tri).lam_plus(edge)


def delta(inst: Instance, tri: Triangulation,
          maps: Optional[PocketMaps] = None) -> Optional[dict[int, Simplex]]:
    """Coarsest sketch over the whole triangulation, or None if none exists.

    Merges the three root pockets: take the triple intersection where it is
    nonempty; where it is empty, a single constrained pocket wins provided the
    two others are unconstrained (equal to the root triangle); otherwise no
    sketch exists.
    """
    if maps is None:
        maps = PocketMaps(inst, tri)
    troot = tuple(tri.triangles[tri.root])
    plus = []
    for pocket in _root_pockets(tri):
        p = maps.lam_plus(pocket.edge)
        if p is None:
            return None
        plus.append(p)
    pa, pb, pc = plus
    out: dict[int, Simplex] = {}
    for v in range(inst.n):
        a, b, c = pa[v], pb[v], pc[v]
        m = simplex_meet(a, b)
        m = simplex_meet(m, c) if m is not None else None
        if m is not None:
            out[v] = m
        elif b == troot and c == troot:
            out[v] = a
        elif a == troot and c == troot:
            out[v] = b
        elif a == troot and b == troot:
            out[v] = c
        else:
            return None
    return out


# ---------------------------------------------------------------------------
# Reference triple check: every vertex against every tight triple.
# ---------------------------------------------------------------------------

def check_triple_reference(inst: Instance, dt: Optional[DistanceTable] = None
                           ) -> Optional[TripleViolation]:
    """The triple condition by its definition, in O(n·t³).

    Tight triples are enumerated as the position triples whose pairwise
    cycle distances sum to t; the first violation in scan order (v
    ascending, then (i, j, k) lex) is returned.  Defined on any instance;
    whenever the pair condition holds it must equal
    ``conditions.check_triple``.
    """
    if dt is None:
        dt = graph_distances(inst)
    t = inst.t
    tight = [(i, j, k) for i in range(t) for j in range(i + 1, t)
             for k in range(j + 1, t)
             if cycle_distance(t, i, j) + cycle_distance(t, j, k)
             + cycle_distance(t, i, k) == t]
    for v in range(inst.n):
        for i, j, k in tight:
            if v in (inst.cycle[i], inst.cycle[j], inst.cycle[k]):
                continue
            di = dt.from_position(i)[v]
            dj = dt.from_position(j)[v]
            dk = dt.from_position(k)[v]
            if di is None or dj is None or dk is None:
                continue
            if 2 * (di + dj + dk) <= t:
                return TripleViolation(i + 1, j + 1, k + 1, v, di, dj, dk)
    return None


# ---------------------------------------------------------------------------
# Reference link distance: a pointwise test against the ball grown from b.
# ---------------------------------------------------------------------------

def link_distance_pointwise(poly: SimplePolygon, a: Point2, b: Point2,
                            max_depth: int = 16) -> Optional[int]:
    """Independent oracle: grow the ball from b instead and test a pointwise
    at each depth via direct segment visibility to the current region."""
    try:
        if segment_inside_polygon(a, b, poly):
            return 1
    except EndpointOutsideError:
        raise VisibilityError("query point outside polygon")
    for depth, ring in enumerate(link_rings(poly, b), start=1):
        if depth >= max_depth:
            raise VisibilityError("pointwise search exceeded max depth")
        # a is at distance depth+1 iff a sees some point of the depth ring.
        if _point_sees_ring(poly, a, ring):
            return depth + 1
    return None


def _point_sees_ring(poly: SimplePolygon, a: Point2, ring: Ring) -> bool:
    vis = visibility_polygon(poly, a)
    return _rings_intersect(vis, ring)


def _rings_intersect(r1: Ring, r2: Ring) -> bool:
    """Exact nonemptiness of the intersection of two closed regions."""
    for p in r1:
        if point_in_ring(p, r2) != OUTSIDE:
            return True
    for p in r2:
        if point_in_ring(p, r1) != OUTSIDE:
            return True
    n1, n2 = len(r1), len(r2)
    for i in range(n1):
        for j in range(n2):
            if segment_intersection(r1[i], r1[(i + 1) % n1],
                                    r2[j], r2[(j + 1) % n2]):
                return True
    return False


def _bfs_order(inst: Instance) -> list[int]:
    """Vertices ordered by BFS from the cycle, so partial assignments fail
    early; unreachable vertices come last."""
    seen = set(inst.cycle)
    order = list(inst.cycle)
    q = deque(inst.cycle)
    adj = inst.adjacency()
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
                q.append(v)
    order.extend(v for v in range(inst.n) if v not in seen)
    return order


def enumerate_sketches(inst: Instance, tri: Triangulation,
                       limit: int = 10_000_000,
                       count: bool = False) -> int | bool:
    """Backtracking search over all sketches.

    With count=False returns whether any sketch exists; with count=True
    returns the exact number.  Raises OracleLimit after `limit` node visits.
    """
    table = SimplexTable(tri)
    adj = inst.adjacency()
    order = _bfs_order(inst)
    pinned: dict[int, Simplex] = {v: (p,) for p, v in enumerate(inst.cycle)}
    rank = {v: i for i, v in enumerate(order)}
    assign: dict[int, Simplex] = {}
    visits = 0
    found = 0

    def rec(idx: int) -> bool:
        nonlocal visits, found
        visits += 1
        if visits > limit:
            raise OracleLimit(f"exceeded {limit} visits")
        if idx == len(order):
            found += 1
            return True
        v = order[idx]
        choices = [pinned[v]] if v in pinned else table.all
        for s in choices:
            ok = all(table.shares_triangle(s, assign[u])
                     for u in adj[v] if rank[u] < idx)
            if not ok:
                continue
            assign[v] = s
            if rec(idx + 1) and not count:
                del assign[v]
                return True
            del assign[v]
        return False

    hit = rec(0)
    return found if count else hit


def _iter_assignments(inst: Instance, tri: Triangulation,
                      pinned: dict[int, Simplex],
                      domain: list[Simplex],
                      limit: int) -> Iterator[dict[int, Simplex]]:
    """All total assignments respecting pinning and pairwise triangle
    sharing of adjacent vertices, by backtracking."""
    table = SimplexTable(tri)
    adj = inst.adjacency()
    order = _bfs_order(inst)
    rank = {v: i for i, v in enumerate(order)}
    assign: dict[int, Simplex] = {}
    visits = 0

    def rec(idx: int) -> Iterator[dict[int, Simplex]]:
        nonlocal visits
        visits += 1
        if visits > limit:
            raise OracleLimit(f"exceeded {limit} visits")
        if idx == len(order):
            yield dict(assign)
            return
        v = order[idx]
        choices = [pinned[v]] if v in pinned else domain
        for s in choices:
            if all(table.shares_triangle(s, assign[u])
                   for u in adj[v] if rank[u] < idx):
                assign[v] = s
                yield from rec(idx + 1)
                del assign[v]

    yield from rec(0)


def iter_sketches(inst: Instance, tri: Triangulation,
                  limit: int = 10_000_000) -> Iterator[dict[int, Simplex]]:
    """Yield every sketch of the instance."""
    table = SimplexTable(tri)
    pinned = {v: (p,) for p, v in enumerate(inst.cycle)}
    yield from _iter_assignments(inst, tri, pinned, table.all, limit)


def _pocket_contains(pocket: Pocket, t: int, idx: int) -> bool:
    """Whether polygon index idx lies in the pocket's unwrapped range."""
    return (idx - pocket.start) % t <= pocket.end - pocket.start


def pocket_simplices(tri: Triangulation, pocket) -> list[Simplex]:
    """Simplices contained in the pocket's unwrapped cycle range."""
    table = SimplexTable(tri)
    return [s for s in table.all
            if all(_pocket_contains(pocket, tri.t, x) for x in s)]


def enumerate_local_sketches(inst: Instance, tri: Triangulation, pocket,
                             limit: int = 10_000_000
                             ) -> Iterator[dict[int, Simplex]]:
    """Every local sketch of the pocket: vertices range over simplices in the
    pocket plus the outer triangle; cycle vertices whose polygon vertex lies
    in the pocket are pinned, the others are free."""
    t = tri.t
    outer = tuple(sorted(tri.triangles[pocket.outer_triangle]))
    domain = pocket_simplices(tri, pocket)
    if outer not in domain:
        domain = domain + [outer]
    pinned = {}
    for p, v in enumerate(inst.cycle):
        if _pocket_contains(pocket, t, p):
            pinned[v] = (p,)
    yield from _iter_assignments(inst, tri, pinned, domain, limit)


def is_local_sketch(assign: dict[int, Simplex], inst: Instance,
                    tri: Triangulation, pocket) -> bool:
    """Validity check matching enumerate_local_sketches' constraints."""
    table = SimplexTable(tri)
    t = tri.t
    outer = tuple(sorted(tri.triangles[pocket.outer_triangle]))
    domain = set(pocket_simplices(tri, pocket)) | {outer}
    if set(assign) != set(range(inst.n)):
        return False
    if any(assign[v] not in domain for v in assign):
        return False
    for p, v in enumerate(inst.cycle):
        if _pocket_contains(pocket, t, p) and assign[v] != (p,):
            return False
    return all(table.shares_triangle(assign[u], assign[v])
               for u, v in inst.edges)


def localize(assign: dict[int, Simplex], pocket_range: tuple[int, int],
             tri: Triangulation, outer_triangle: Simplex
             ) -> dict[int, Simplex]:
    """Collapse every simplex not contained in the pocket onto the outer
    triangle; used when comparing a global sketch against a pocket map."""
    i, j = pocket_range
    t = tri.t
    span = j - i
    out = {}
    for v, s in assign.items():
        if all((x - i) % t <= span for x in s):
            out[v] = s
        else:
            out[v] = outer_triangle
    return out


# ---------------------------------------------------------------------------
# Reference triangulation check: every diagonal checked geometrically.
# ---------------------------------------------------------------------------

def _diagonal_ok(polygon: SimplePolygon, a: int, b: int) -> bool:
    """Valid diagonal: open segment strictly interior, through no vertex."""
    t = len(polygon)
    if a == b or (a + 1) % t == b or (b + 1) % t == a:
        return False
    pa, pb = polygon.points[a], polygon.points[b]
    if pa == pb:
        return False
    for k, p in enumerate(polygon.points):
        if k in (a, b):
            continue
        if point_on_segment(p, pa, pb):
            return False
    for i in range(t):
        c, d = polygon.points[i], polygon.points[(i + 1) % t]
        hits = segment_intersection(pa, pb, c, d)
        if len(hits) == 2 or any(h not in (pa, pb) for h in hits):
            return False
    try:
        return segment_inside_polygon(pa, pb, polygon)
    except EndpointOutsideError:
        return False


def validate_triangulation_reference(polygon: SimplePolygon,
                                     diagonals: list[tuple[int, int]]
                                     ) -> Triangulation:
    """triangulation.validate_triangulation by definition: each diagonal
    strictly inside the polygon and through no vertex, no two crossing, and
    no degenerate triangle."""
    t = len(polygon)
    diagonals = [_canon(*d) for d in diagonals]
    if len(set(diagonals)) != len(diagonals):
        raise TriangulationError("duplicate diagonal")
    if len(diagonals) != t - 3:
        raise TriangulationError(f"need exactly {t - 3} diagonals, got {len(diagonals)}")
    for d in diagonals:
        if not (0 <= d[0] < t and 0 <= d[1] < t):
            raise TriangulationError(f"diagonal {d} out of range")
        if not _diagonal_ok(polygon, *d):
            raise TriangulationError(f"invalid diagonal {d}")
    for i in range(len(diagonals)):
        for j in range(i + 1, len(diagonals)):
            if _interleave(t, diagonals[i], diagonals[j]):
                raise TriangulationError(
                    f"diagonals {diagonals[i]} and {diagonals[j]} cross")
    triangles = _split_ring(t, set(diagonals))
    for (a, b, c) in triangles:
        if orient(polygon.points[a], polygon.points[b], polygon.points[c]) == 0:
            raise TriangulationError(f"degenerate triangle {(a, b, c)}")
    return Triangulation(polygon, diagonals, triangles)


def all_triangulations(polygon: SimplePolygon) -> Iterator[Triangulation]:
    """Every triangulation of the polygon, by extending compatible diagonal
    sets.  Intended for small t only."""
    t = len(polygon.points)
    candidates = []
    for i in range(t):
        for j in range(i + 2, t):
            if i == 0 and j == t - 1:
                continue
            if _diagonal_ok(polygon, i, j):
                candidates.append((i, j))

    need = t - 3
    results: list[tuple[tuple[int, int], ...]] = []

    def rec(start: int, chosen: list[tuple[int, int]]):
        if len(chosen) == need:
            results.append(tuple(chosen))
            return
        if need - len(chosen) > len(candidates) - start:
            return
        for idx in range(start, len(candidates)):
            d = candidates[idx]
            if any(_interleave(t, d, c) for c in chosen):
                continue
            chosen.append(d)
            rec(idx + 1, chosen)
            chosen.pop()

    rec(0, [])
    for diags in results:
        yield validate_triangulation(polygon, list(diags))


# ---------------------------------------------------------------------------
# Seeded random generators.
# ---------------------------------------------------------------------------

def random_instance(rng: random.Random, t: int, extra: int,
                    extra_edges: int = 0, connected: bool = True) -> Instance:
    """Cycle of length t plus `extra` additional vertices attached at random,
    plus up to `extra_edges` random chords/edges."""
    n = t + extra
    edges = {(i, (i + 1) % t) for i in range(t)}
    edges = {tuple(sorted(e)) for e in edges}
    for v in range(t, n):
        k = rng.randint(1, 3) if connected else rng.randint(0, 3)
        targets = rng.sample(range(v), min(k, v)) if k else []
        for u in targets:
            edges.add(tuple(sorted((u, v))))
    tries = 0
    while extra_edges > 0 and tries < 50 * extra_edges:
        tries += 1
        u, v = rng.sample(range(n), 2)
        e = tuple(sorted((u, v)))
        if e not in edges:
            edges.add(e)
            extra_edges -= 1
    inst = Instance(n=n, edges=sorted(edges), cycle=list(range(t)))
    assert not validate_instance(inst)
    return inst


def random_universal_instance(rng: random.Random, t: int, extra: int) -> Instance:
    """Instance guaranteed to satisfy both distance conditions: trees hung
    off single cycle vertices never shorten cycle distances."""
    n = t + extra
    edges = [(i, (i + 1) % t) for i in range(t)]
    for v in range(t, n):
        u = rng.randrange(v)  # attach to anything earlier: still a hung tree
        edges.append(tuple(sorted((u if u < t else u, v))))
    inst = Instance(n=n, edges=sorted(set(edges)), cycle=list(range(t)))
    assert not validate_instance(inst)
    return inst


def random_polygon(rng: random.Random, t: int,
                   attempts: int = 2000) -> SimplePolygon:
    """Random simple polygon with t integer vertices, by 2-opt untangling of
    a random point set's tour."""
    span = 4 * t
    for _ in range(attempts):
        pts = set()
        while len(pts) < t:
            pts.add((rng.randint(0, span), rng.randint(0, span)))
        pts = [Point2(Fraction(x), Fraction(y)) for x, y in sorted(pts)]
        cx = sum((p.x for p in pts), Fraction(0)) / t
        cy = sum((p.y for p in pts), Fraction(0)) / t
        c = Point2(cx, cy)
        pts.sort(key=lambda p: math.atan2(p.y - c.y, p.x - c.x))
        # 2-opt away any remaining crossings
        for _pass in range(10 * t):
            crossed = False
            for i in range(t):
                for j in range(i + 1, t):
                    a, b = pts[i], pts[(i + 1) % t]
                    cc, d = pts[j], pts[(j + 1) % t]
                    if segments_properly_cross(a, b, cc, d):
                        lo, hi = i + 1, j
                        pts[lo:hi + 1] = pts[lo:hi + 1][::-1]
                        crossed = True
                        break
                if crossed:
                    break
            if not crossed:
                break
        try:
            return SimplePolygon.from_points(pts)
        except PolygonError:
            continue
    raise RuntimeError("failed to generate a simple polygon")


def random_triangulation(rng: random.Random, polygon: SimplePolygon,
                         root: str | int = "ear") -> Triangulation:
    """Random triangulation by shuffled greedy diagonal insertion."""
    t = len(polygon.points)
    cand = [(i, j) for i in range(t) for j in range(i + 2, t)
            if not (i == 0 and j == t - 1) and _diagonal_ok(polygon, i, j)]
    rng.shuffle(cand)
    chosen: list[tuple[int, int]] = []
    for d in cand:
        if len(chosen) == t - 3:
            break
        if all(not _interleave(t, d, c) for c in chosen):
            chosen.append(d)
    if len(chosen) != t - 3:
        return root_dual(ear_clip(polygon), policy=root)
    return root_dual(validate_triangulation(polygon, chosen), policy=root)


def random_plane_instance(rng: random.Random, t: int, extra: int) -> PlaneInstance:
    """Random plane instance: start from the cycle drawn as a convex t-gon,
    insert extra vertices inside random faces and connect them planarly."""
    inst = Instance(n=t, edges=[(i, (i + 1) % t) for i in range(t)],
                    cycle=list(range(t)))
    rotation = {i: [(i - 1) % t, (i + 1) % t] for i in range(t)}
    plane = PlaneInstance(instance=inst, rotation=rotation)
    surgeon = PlaneSurgeon(plane)
    for _ in range(extra):
        faces = surgeon.interior_faces()
        face = rng.choice(faces)
        anchor = rng.choice(sorted(set(face)))
        surgeon.add_vertex_in_face(face, anchor)
    # sprinkle a few face-splitting edges for variety
    for _ in range(extra):
        faces = [f for f in surgeon.interior_faces() if len(f) >= 4]
        if not faces:
            break
        face = rng.choice(faces)
        su = rng.randrange(len(face))
        sv = (su + rng.randrange(2, len(face) - 1)) % len(face)
        if face[su] == face[sv]:
            continue
        try:
            surgeon.add_edge_in_face(face, su, sv)
        except (PlanarError, ValueError):
            continue
    return surgeon.plane

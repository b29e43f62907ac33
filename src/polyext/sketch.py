"""Coarse drawings over a polygon triangulation ("sketches").

A sketch assigns every graph vertex a closed simplex of the triangulation
(vertex, edge, or triangle) such that cycle vertex c_i sits on polygon vertex
i and the simplices of adjacent vertices share a closed triangle.  Simplices
are identified combinatorially by their sorted polygon-index tuple; because a
valid triangulation is a simplicial complex, set intersection of vertex
tuples computes geometric intersection exactly.

sketch_linear computes the canonical coarsest sketch in one postorder sweep
over the pockets, in time linear in the instance and the polygon; realize
turns a sketch into exact positions and validate_respecting checks any
drawing against the polygon.  The recursive pocket merge that defines the
coarsest sketch lives in polyext.oracle as a test-only reference.

validate_respecting reads a drawing's simplex records as a certificate:
when the records of an edge's two endpoints are simplices of a valid
triangulation that contain the endpoints and share a closed triangle, the
edge lies in that triangle, hence in the polygon, and needs no geometry.
Every other edge takes the exact segment-containment test, so the
certificate only ever accepts and the verdict and failures are those of the
geometric check alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .geometry import (Point2, SimplePolygon, point_in_triangle,
                       point_on_segment, segment_inside_polygon,
                       EndpointOutsideError, OUTSIDE)
from .model import Instance
from .triangulation import (Triangulation, TriangulationError, ear_clip,
                            root_dual, validate_triangulation)

Simplex = tuple[int, ...]  # sorted polygon indices; length 1, 2, or 3


class SketchError(ValueError):
    pass


def _check_rooted(tri: Triangulation):
    if tri.root is None or not tri.pockets:
        raise SketchError("triangulation must be rooted (use root_dual)")


def simplex_meet(s1: Simplex, s2: Simplex) -> Optional[Simplex]:
    """Intersection of two simplices of one triangulation, or None if disjoint."""
    common = tuple(sorted(set(s1) & set(s2)))
    return common if common else None


class SimplexTable:
    """Combinatorial lookup structure for the simplices of a triangulation."""

    def __init__(self, tri: Triangulation):
        _check_rooted(tri)
        self.tri = tri
        t = tri.t
        self.vertices: list[Simplex] = [(i,) for i in range(t)]
        self.edges: list[Simplex] = [tuple(e) for e in tri.all_edges()]
        self.triangles: list[Simplex] = [tuple(tr) for tr in tri.triangles]
        self.all: list[Simplex] = self.vertices + self.edges + self.triangles
        self._members: dict[Simplex, set[int]] = {}
        for tid, tr in enumerate(tri.triangles):
            a, b, c = tr
            subs = [(a,), (b,), (c,), tuple(sorted((a, b))),
                    tuple(sorted((b, c))), tuple(sorted((a, c))), tuple(tr)]
            for s in subs:
                self._members.setdefault(s, set()).add(tid)

    def is_simplex(self, s: Simplex) -> bool:
        return s in self._members

    def shares_triangle(self, s1: Simplex, s2: Simplex) -> bool:
        """True iff some closed triangle of the triangulation contains both."""
        union = tuple(sorted(set(s1) | set(s2)))
        if len(union) > 3:
            return False
        return union in self._members


def is_sketch(assign: dict[int, Simplex], inst: Instance, tri: Triangulation,
              table: Optional[SimplexTable] = None) -> bool:
    """Check the sketch conditions for a total assignment."""
    if table is None:
        table = SimplexTable(tri)
    if inst.t != tri.t:
        raise SketchError("cycle length differs from polygon size")
    for pos, v in enumerate(inst.cycle):
        if assign.get(v) != (pos,):
            return False
    for v in range(inst.n):
        if v not in assign or not table.is_simplex(assign[v]):
            return False
    for u, v in inst.edges:
        if not table.shares_triangle(assign[u], assign[v]):
            return False
    return True


# ---------------------------------------------------------------------------
# Linear route: single shared table over a postorder pocket sweep.
# ---------------------------------------------------------------------------

_FREE = ("free",)  # sentinel: vertex not yet constrained by any swept pocket


@dataclass
class SweepStats:
    ops: int = 0


def sketch_linear(inst: Instance, tri: Triangulation,
                  stats: Optional[SweepStats] = None
                  ) -> Optional[dict[int, Simplex]]:
    """Coarsest sketch over the whole triangulation, or None if none exists.

    A single table S maps each vertex to its accumulated constraint.  Pockets
    are swept children before parents; a trivial pocket pins its two cycle
    vertices, and a non-trivial pocket only touches the vertices currently
    sitting on its child lids plus the neighbours of vertices pinned to its
    apex.  Occupant sets per constrained simplex make each touch O(1), for
    O(|V| + |E| + t) total.
    """
    _check_rooted(tri)
    if inst.t != tri.t:
        raise SketchError("cycle length differs from polygon size")
    t = tri.t
    adj = inst.adjacency()
    S: list[Simplex] = [_FREE] * inst.n
    occupants: dict[Simplex, set[int]] = {}

    def tick(k: int = 1):
        if stats is not None:
            stats.ops += k

    # table initialisation and the adjacency scan are part of the work
    tick(inst.n + 2 * len(inst.edges))

    def assign(v: int, s: Simplex):
        old = S[v]
        if old is not _FREE:
            occupants.get(old, set()).discard(v)
        S[v] = s
        occupants.setdefault(s, set()).add(v)
        tick()

    def in_range(s: Simplex, start: int, end: int) -> bool:
        span = end - start
        return all((x - start) % t <= span for x in s)

    for pocket in tri.postorder_pockets():
        if pocket.trivial:
            for pos in (pocket.start % t, pocket.end % t):
                v = inst.cycle[pos]
                cur = S[v]
                tick()
                if cur is _FREE:
                    assign(v, (pos,))
                elif pos in cur:
                    if cur != (pos,):
                        assign(v, (pos,))
                else:
                    return None
            continue
        lid = pocket.edge
        left_e, right_e = pocket.children
        left = tri.pockets[left_e]
        right = tri.pockets[right_e]
        apex = pocket.apex % t
        # Vertices sitting exactly on a child lid move onto the shared corner.
        for child_lid in (left_e, right_e):
            for v in list(occupants.get(child_lid, ())):
                m = simplex_meet(lid, child_lid)
                if m is None:
                    return None
                assign(v, m)
        # Vertices pinned to the apex drag their out-of-pocket neighbours
        # onto the lid.
        for u in list(occupants.get((apex,), ())):
            for v in adj[u]:
                tick()
                s = S[v]
                if s is _FREE:
                    assign(v, lid)
                    continue
                if (in_range(s, left.start, left.end)
                        or in_range(s, right.start, right.end)):
                    continue
                m = simplex_meet(s, lid)
                if m is None:
                    return None
                if m != s:
                    assign(v, m)
                else:
                    tick()
    troot = tuple(tri.triangles[tri.root])
    tick(inst.n)   # materialising the answer
    return {v: (troot if S[v] is _FREE else S[v]) for v in range(inst.n)}


# ---------------------------------------------------------------------------
# Realisation and validation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Drawing:
    positions: dict[int, Point2]
    simplex: Optional[dict[int, Simplex]] = None
    meta: dict = field(default_factory=dict, compare=False)


def realize(assign: dict[int, Simplex], tri: Triangulation) -> Drawing:
    """Canonical positions: vertex -> the point, edge -> midpoint, triangle ->
    centroid."""
    pos: dict[int, Point2] = {}
    for v, s in assign.items():
        pts = [tri.point(i) for i in s]
        x = sum((p.x for p in pts), Fraction(0)) / len(pts)
        y = sum((p.y for p in pts), Fraction(0)) / len(pts)
        pos[v] = Point2(x, y)
    return Drawing(positions=pos, simplex=dict(assign))


@dataclass(frozen=True)
class RespectReport:
    ok: bool
    failures: tuple[str, ...] = ()


def _simplex_holds(s: Simplex, p: Point2, polygon: SimplePolygon) -> bool:
    """Whether the closed simplex s (of a triangulation of polygon) holds p."""
    corners = [polygon.points[i] for i in s]
    if len(corners) == 1:
        return p == corners[0]
    if len(corners) == 2:
        return point_on_segment(p, *corners)
    return point_in_triangle(p, *corners) != OUTSIDE


def _homes(drawing: Drawing, inst: Instance, polygon: SimplePolygon,
           table: SimplexTable) -> tuple[dict[int, Simplex], list[str]]:
    """The vertices whose simplex record is a simplex of the table's
    triangulation holding the vertex's position, mapped to that record, and
    a failure for every other record."""
    homes: dict[int, Simplex] = {}
    bad: list[str] = []
    records = drawing.simplex
    for v in range(inst.n):
        s = records.get(v)
        if s is None:
            continue
        if not table.is_simplex(s):
            bad.append(f"vertex {v} simplex record {s} is not a simplex of "
                       "the triangulation")
        elif not _simplex_holds(s, drawing.positions[v], polygon):
            bad.append(f"vertex {v} lies outside its simplex record")
        else:
            homes[v] = s
    return homes, bad


def _default_cover(polygon: SimplePolygon) -> Optional[Triangulation]:
    """ear_clip(polygon), the triangulation draw uses by default, checked
    like a given one, or None if it does not triangulate the polygon."""
    try:
        return root_dual(validate_triangulation(polygon,
                                                ear_clip(polygon).diagonals))
    except TriangulationError:
        return None


def validate_respecting(drawing: Drawing, inst: Instance,
                        polygon: SimplePolygon,
                        tri: Optional[Triangulation] = None) -> RespectReport:
    """Check that a drawing respects the polygon: every vertex placed, cycle
    pinned, and every edge inside the polygon.  Given a triangulation, also
    check that every edge lies inside some closed triangle of it, and that
    every simplex record of the drawing is a simplex of it holding its
    vertex's position.

    Edges whose endpoints' records share a closed triangle of `tri` are
    accepted without geometry.  Without `tri`, a drawing's records are read
    against _default_cover(polygon): a record that does not fit it is no
    failure, its vertex's edges just take the geometric test.  The verdict
    is the same either way.
    """
    failures = []
    pos = drawing.positions
    for p, v in enumerate(inst.cycle):
        if v not in pos:
            failures.append(f"cycle vertex {v} missing a position")
        elif pos[v] != polygon.points[p]:
            failures.append(f"cycle vertex {v} not pinned to polygon vertex {p}")
    for v in range(inst.n):
        if v not in pos:
            failures.append(f"vertex {v} missing a position")
    if failures:
        return RespectReport(False, tuple(failures))
    homes: dict[int, Simplex] = {}
    certificate = None
    if drawing.simplex:
        certificate = tri if tri is not None else _default_cover(polygon)
    if certificate is not None:
        table = SimplexTable(certificate)
        homes, bad = _homes(drawing, inst, polygon, table)
        if tri is not None:
            failures.extend(bad)
    tri_pts = None if tri is None else [
        (polygon.points[a], polygon.points[b], polygon.points[c])
        for a, b, c in tri.triangles]
    for u, v in inst.edges:
        hu, hv = homes.get(u), homes.get(v)
        if hu is not None and hv is not None and table.shares_triangle(hu, hv):
            continue
        a, b = pos[u], pos[v]
        try:
            if not segment_inside_polygon(a, b, polygon):
                failures.append(f"edge ({u},{v}) leaves the polygon")
                continue
        except EndpointOutsideError:
            failures.append(f"edge ({u},{v}) has an endpoint outside the polygon")
            continue
        if tri_pts is not None and not any(
                point_in_triangle(a, *tp) != OUTSIDE
                and point_in_triangle(b, *tp) != OUTSIDE for tp in tri_pts):
            failures.append(f"edge ({u},{v}) not contained in any closed triangle")
    return RespectReport(not failures, tuple(failures))

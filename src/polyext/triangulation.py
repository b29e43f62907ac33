"""Polygon triangulations, their dual trees, and the pocket index.

validate_triangulation checks a diagonal set by certificate: the diagonals
must form a combinatorial triangulation of the ring and every triangle must
be strictly counterclockwise.  For a simple polygon that is enough, since
the triangles' boundaries add up to the polygon's boundary, so their winding
numbers add up to the polygon's: with every triangle positive, each point of
the polygon lies in exactly one triangle and no point outside lies in any.
The per-diagonal geometric check is polyext.oracle's test-only reference.

Vertex indices are 0-based positions in the polygon ring.  A pocket is the
part of the polygon cut off by a triangulation edge on the side away from the
root triangle; boundary edges cut off nothing and give trivial pockets.
Pocket vertex ranges are stored unwrapped: (start, end) with start < end means
polygon indices start, start+1, ..., end, all taken mod t.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .geometry import SimplePolygon, Point2, orient, point_in_triangle, OUTSIDE


class TriangulationError(ValueError):
    pass


def _canon(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Pocket:
    edge: tuple[int, int]          # canonical lid vertex pair
    start: int                     # unwrapped range start, 0 <= start < t
    end: int                       # unwrapped range end, start < end
    trivial: bool
    inner_triangle: Optional[int]  # triangle on the pocket side (None if trivial)
    outer_triangle: int            # triangle on the root side
    apex: Optional[int]            # unwrapped apex position, start < apex < end
    children: Optional[tuple[tuple[int, int], tuple[int, int]]]

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass
class Triangulation:
    polygon: SimplePolygon
    diagonals: list[tuple[int, int]]
    triangles: list[tuple[int, int, int]]
    root: Optional[int] = None
    pockets: dict[tuple[int, int], Pocket] = field(default_factory=dict)

    @property
    def t(self) -> int:
        return len(self.polygon)

    def all_edges(self) -> list[tuple[int, int]]:
        t = self.t
        return [_canon(i, (i + 1) % t) for i in range(t)] + list(self.diagonals)

    def point(self, i: int) -> Point2:
        return self.polygon.points[i]

    def postorder_pockets(self) -> list[Pocket]:
        """Pockets ordered children before parents (by range size)."""
        return sorted(self.pockets.values(), key=lambda p: (p.size, p.start))


def _is_ear(pts: Sequence[Point2], active: list[int], k: int) -> bool:
    """Is active[k] the tip of a clippable ear of the sub-polygon `active`?"""
    m = len(active)
    a, b, c = (pts[active[(k - 1) % m]], pts[active[k]], pts[active[(k + 1) % m]])
    if orient(a, b, c) <= 0:
        return False
    for idx in active:
        if idx in (active[(k - 1) % m], active[k], active[(k + 1) % m]):
            continue
        if point_in_triangle(pts[idx], a, b, c) != OUTSIDE:
            return False
    return True


def ear_clip(polygon: SimplePolygon) -> Triangulation:
    """Deterministic ear clipping: lowest-index valid ear tip first.

    Zero-area ear candidates (collinear chains) are skipped, and a candidate
    with any other active vertex in its closed triangle is rejected, so no
    produced edge ever passes through a polygon vertex.
    """
    pts = polygon.points
    t = len(pts)
    if t < 3:
        raise TriangulationError("polygon too small")
    active = list(range(t))
    diagonals: list[tuple[int, int]] = []
    triangles: list[tuple[int, int, int]] = []
    while len(active) > 3:
        for k in range(len(active)):
            if _is_ear(pts, active, k):
                m = len(active)
                i, j, l = active[(k - 1) % m], active[k], active[(k + 1) % m]
                triangles.append(tuple(sorted((i, j, l))))
                if _canon(i, l) not in diagonals:
                    diagonals.append(_canon(i, l))
                del active[k]
                break
        else:
            raise TriangulationError("no clippable ear found (polygon not simple?)")
    i, j, l = active
    if orient(pts[i], pts[j], pts[l]) <= 0:
        raise TriangulationError("degenerate final triangle")
    triangles.append(tuple(sorted((i, j, l))))
    return Triangulation(polygon, diagonals, triangles)


def _interleave(t: int, d1: tuple[int, int], d2: tuple[int, int]) -> bool:
    a, b = d1
    c, d = d2
    def between(x, lo, hi):
        return lo < x < hi
    return (between(c, a, b) != between(d, a, b)) and len({a, b, c, d}) == 4


def _split_ring(t: int, diag_set: set[tuple[int, int]]
                ) -> list[tuple[int, int, int]]:
    """Triangles of the diagonal set, in depth-first order over the
    sub-polygons cut off by each triangle.

    A sub-polygon is the index range lo..hi of the ring, closed by the edge
    (lo, hi); its triangle on that edge has the first apex m joined to both
    ends.  The work list holds ranges still to split, left part first.
    """
    triangles = []
    work = [(0, t - 1)]
    while work:
        lo, hi = work.pop()
        for m in range(lo + 1, hi):
            if ((m == lo + 1 or _canon(lo, m) in diag_set)
                    and (m == hi - 1 or _canon(m, hi) in diag_set)):
                break
        else:
            raise TriangulationError(
                "diagonal set does not triangulate the polygon")
        triangles.append((lo, m, hi))
        if m < hi - 1:
            work.append((m, hi))
        if m > lo + 1:
            work.append((lo, m))
    return triangles


def validate_triangulation(polygon: SimplePolygon,
                           diagonals: list[tuple[int, int]]) -> Triangulation:
    """Check a diagonal set and build the triangle list, or raise.

    The only geometry is one orientation test per triangle: a combinatorial
    triangulation of a simple polygon whose triangles are all strictly
    counterclockwise tiles the polygon (see the module docstring).
    """
    t = len(polygon)
    diagonals = [_canon(*d) for d in diagonals]
    if len(set(diagonals)) != len(diagonals):
        raise TriangulationError("duplicate diagonal")
    if len(diagonals) != t - 3:
        raise TriangulationError(f"need exactly {t - 3} diagonals, got {len(diagonals)}")
    for d in diagonals:
        if not (0 <= d[0] < t and 0 <= d[1] < t):
            raise TriangulationError(f"diagonal {d} out of range")
        if d[0] == d[1] or (d[0] + 1) % t == d[1] or (d[1] + 1) % t == d[0]:
            raise TriangulationError(f"invalid diagonal {d}")
    for i in range(len(diagonals)):
        for j in range(i + 1, len(diagonals)):
            if _interleave(t, diagonals[i], diagonals[j]):
                raise TriangulationError(
                    f"diagonals {diagonals[i]} and {diagonals[j]} cross")
    triangles = _split_ring(t, set(diagonals))
    pts = polygon.points
    for (a, b, c) in triangles:
        o = orient(pts[a], pts[b], pts[c])
        if o == 0:
            raise TriangulationError(f"degenerate triangle {(a, b, c)}")
        if o < 0:
            raise TriangulationError(
                f"triangle {(a, b, c)} is not counterclockwise")
    return Triangulation(polygon, diagonals, triangles)


def _edge_to_triangles(tri: Triangulation) -> dict[tuple[int, int], list[int]]:
    e2t: dict[tuple[int, int], list[int]] = {}
    for tid, (a, b, c) in enumerate(tri.triangles):
        for e in (_canon(a, b), _canon(b, c), _canon(a, c)):
            e2t.setdefault(e, []).append(tid)
    return e2t


def ear_triangles(tri: Triangulation) -> list[int]:
    """Triangle ids with at least two polygon-boundary edges (t=3: all three)."""
    t = tri.t
    boundary = {_canon(i, (i + 1) % t) for i in range(t)}
    ears = []
    for tid, (a, b, c) in enumerate(tri.triangles):
        cnt = sum(1 for e in (_canon(a, b), _canon(b, c), _canon(a, c))
                  if e in boundary)
        if cnt >= 2:
            ears.append(tid)
    return ears


def root_dual(tri: Triangulation, policy="ear") -> Triangulation:
    """Root the dual tree and build the pocket index.

    policy is either "ear" (lowest-id triangle with two boundary edges) or an
    explicit triangle id.
    """
    t = tri.t
    if policy == "ear":
        ears = ear_triangles(tri)
        if not ears:
            raise TriangulationError("no ear triangle found")
        root = min(ears)
    else:
        root = int(policy)
        if not (0 <= root < len(tri.triangles)):
            raise TriangulationError(f"root triangle id {root} out of range")
    e2t = _edge_to_triangles(tri)
    boundary = {_canon(i, (i + 1) % t) for i in range(t)}

    # BFS over the dual tree from the root.
    parent_edge: dict[int, tuple[int, int]] = {}
    order = [root]
    seen = {root}
    qi = 0
    while qi < len(order):
        tid = order[qi]
        qi += 1
        a, b, c = tri.triangles[tid]
        for e in (_canon(a, b), _canon(b, c), _canon(a, c)):
            for other in e2t[e]:
                if other not in seen:
                    seen.add(other)
                    parent_edge[other] = e
                    order.append(other)
    if len(order) != len(tri.triangles):
        raise TriangulationError("dual graph is not connected")

    pockets: dict[tuple[int, int], Pocket] = {}
    # Trivial pockets for every boundary edge.
    for i in range(t):
        e = _canon(i, (i + 1) % t)
        outer = e2t[e][0]
        pockets[e] = Pocket(edge=e, start=i, end=i + 1, trivial=True,
                            inner_triangle=None, outer_triangle=outer,
                            apex=None, children=None)
    # Non-trivial pockets bottom-up (children triangles first in reverse BFS).
    for tid in reversed(order):
        if tid == root:
            continue
        e = parent_edge[tid]
        a, b, c = tri.triangles[tid]
        others = [x for x in (_canon(a, b), _canon(b, c), _canon(a, c)) if x != e]
        # Order the two child pockets so their ranges concatenate.
        p1, p2 = pockets[others[0]], pockets[others[1]]
        if p1.end % t == p2.start % t:
            left, right = p1, p2
        elif p2.end % t == p1.start % t:
            left, right = p2, p1
        else:
            raise TriangulationError("pocket ranges do not concatenate")
        outer_candidates = [x for x in e2t[e] if x != tid]
        outer = outer_candidates[0]
        pockets[e] = Pocket(edge=e, start=left.start,
                            end=left.start + left.size + right.size,
                            trivial=False, inner_triangle=tid,
                            outer_triangle=outer,
                            apex=left.start + left.size,
                            children=(left.edge, right.edge))
    return Triangulation(tri.polygon, list(tri.diagonals), list(tri.triangles),
                         root=root, pockets=pockets)

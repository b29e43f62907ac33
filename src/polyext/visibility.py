"""Exact visibility and link-distance machinery inside a simple polygon.

Everything is computed over the rationals.  The visibility polygon uses an
angular sweep over critical directions; link balls grow breadth-first by
expanding each window chord with a weak visibility region and splicing it
into the ring.  Regions are kept as raw ccw vertex rings: they may contain
collinear subdivision points and degenerate boundary contacts that the strict
SimplePolygon validator would reject.  Point location, segment containment
and edge parameters on those rings use geometry's ring primitives
(point_in_ring, segment_inside_ring, param_along).  Lines and rays are exact:
a ring edge is cut where geometry.line_cuts puts it on a line, and a ray keeps
the cuts on its side of the origin.  link_rings yields the successive balls
and is the one growth loop behind link_ball and link_distance.  The pointwise
link-distance reference lives in oracle.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .geometry import (Point2, SimplePolygon, point_in_ring, point_on_segment,
                       primitive_direction, angular_cmp, ccw_strictly_between,
                       segment_intersection, segment_inside_ring, param_along,
                       line_cuts, orient, midpoint, BOUNDARY, OUTSIDE)

Ring = list[Point2]


class VisibilityError(ValueError):
    pass


def _ray_line_point(q: Point2, d: Point2, a: Point2, b: Point2) -> Point2:
    """Intersection of the ray line through q with the (non-parallel) line ab."""
    e = b - a
    denom = d.cross(e)
    if denom == 0:
        raise VisibilityError("ray parallel to edge")
    tau = (a - q).cross(e) / denom
    return q + d.scale(tau)


def _first_hit_edge(q: Point2, d: Point2, edges: Sequence[tuple[Point2, Point2]]
                    ) -> int:
    """Index of the first edge the ray q + tau*d (tau > 0) meets; the lowest
    index among edges it meets first at the same point."""
    hits = [(tau, idx) for idx, (a, b) in enumerate(edges)
            for u in line_cuts(a, b, q, q + d)
            if (tau := param_along(a + (b - a).scale(u), q, d)) > 0]
    if not hits:
        raise VisibilityError("ray escapes the polygon (not simple or q outside)")
    return min(hits)[1]


def visibility_polygon(poly: SimplePolygon, q: Point2) -> Ring:
    """Exact visibility region of q, as a ccw ring (may contain collinear
    vertices)."""
    pts = poly.points
    loc = point_in_ring(q, pts)
    if loc == OUTSIDE:
        raise VisibilityError("query point outside polygon")
    n = len(pts)
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]

    dirs = set()
    for p in pts:
        if p != q:
            dirs.add(primitive_direction(p - q))
    for ax in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        dirs.add(ax)

    site = _boundary_site(pts, q) if loc == BOUNDARY else None
    if site is not None:
        i, s = site
        succ = pts[(i + 1) % n]
        prec = pts[(i - 1) % n] if s == 0 else pts[i]
        d_start = primitive_direction(succ - q)
        d_end = primitive_direction(prec - q)
        kept = [d for d in dirs
                if d == d_start or d == d_end
                or ccw_strictly_between(d_start, d, d_end)]
        kept.sort(key=functools.cmp_to_key(angular_cmp))
        k0 = kept.index(d_start)
        kept = kept[k0:] + kept[:k0]
        if kept[-1] != d_end:  # d_start == d_end cannot happen on a boundary
            raise VisibilityError("inconsistent boundary cone")
        sectors = list(zip(kept, kept[1:]))
    else:
        kept = sorted(dirs, key=functools.cmp_to_key(angular_cmp))
        sectors = list(zip(kept, kept[1:] + kept[:1]))

    ring: Ring = [q] if site is not None else []
    for (x1, y1), (x2, y2) in sectors:
        d1 = Point2(Fraction(x1), Fraction(y1))
        d2 = Point2(Fraction(x2), Fraction(y2))
        ds = d1 + d2  # strictly inside the sector: consecutive gaps < pi
        e = edges[_first_hit_edge(q, ds, edges)]
        entry = _ray_line_point(q, d1, *e)
        exit_ = _ray_line_point(q, d2, *e)
        for p in (entry, exit_):
            if not ring or ring[-1] != p:
                ring.append(p)
    return _normalize_ring(_open_ring(ring), poly)


def _open_ring(ring: Ring) -> Ring:
    """Drop trailing repeats of the ring's first point, in place."""
    while len(ring) > 1 and ring[0] == ring[-1]:
        ring.pop()
    return ring


def _normalize_ring(ring: Ring, poly: SimplePolygon) -> Ring:
    """Subdivide ring edges at polygon vertices lying strictly inside them,
    so that every ring edge is either a full boundary run or a full chord."""
    out: Ring = []
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        out.append(a)
        hits = [p for p in poly.points
                if p != a and p != b and point_on_segment(p, a, b)]
        d = b - a
        hits.sort(key=lambda p: (p - a).dot(d))
        out.extend(hits)
    return out


def _on_some_edge(poly: SimplePolygon, a: Point2, b: Point2) -> bool:
    for u, v in poly.edges():
        if point_on_segment(a, u, v) and point_on_segment(b, u, v):
            return True
    return False


def ring_windows(ring: Ring, poly: SimplePolygon) -> list[int]:
    """Indices i such that ring edge (i, i+1) is a chord through the polygon's
    interior (a window) rather than a piece of its boundary.  Assumes the ring
    is normalized (no polygon vertex interior to a ring edge)."""
    out = []
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        if not _on_some_edge(poly, a, b):
            out.append(i)
    return out


def _boundary_site(poly_pts: Sequence[Point2], p: Point2) -> tuple[int, Fraction]:
    """(edge index, param in [0,1)) locating p on the boundary; a vertex is
    reported as the start of its outgoing edge, the only case with param 0."""
    n = len(poly_pts)
    for i in range(n):
        if p == poly_pts[i]:
            return i, Fraction(0)
    for i in range(n):
        u, v = poly_pts[i], poly_pts[(i + 1) % n]
        if point_on_segment(p, u, v):
            return i, param_along(p, u, v - u)
    raise VisibilityError("point not on polygon boundary")


def _boundary_walk(poly: SimplePolygon, a: Point2, b: Point2) -> Ring:
    """Vertices of poly strictly between a and b walking ccw from a to b."""
    pts = poly.points
    n = len(pts)
    ia, sa = _boundary_site(pts, a)
    ib, sb = _boundary_site(pts, b)
    if ia == ib and sa < sb:
        return []
    out: Ring = []
    i = ia
    for _ in range(n + 1):
        j = (i + 1) % n
        v = pts[j]
        if v != a and v != b:
            out.append(v)
        i = j
        if i == ib:
            break
    else:
        raise VisibilityError("boundary walk failed to close")
    return out


def pocket_ring(poly: SimplePolygon, a: Point2, b: Point2) -> Ring:
    """The part of poly cut off by chord a->b lying to the right of a->b,
    as a ccw ring starting [b, a, ...]."""
    ring = [b, a] + _boundary_walk(poly, a, b)
    return ring


def _reflex_points(ring: Ring) -> Ring:
    n = len(ring)
    out = []
    for i in range(n):
        if orient(ring[i - 1], ring[i], ring[(i + 1) % n]) < 0:
            out.append(ring[i])
    return out


def sees_chord(ring: Ring, x: Point2, w1: Point2, w2: Point2) -> bool:
    """True iff x sees some point of the chord segment (w1, w2) inside the
    region bounded by ring."""
    d = w2 - w1
    params = {Fraction(0), Fraction(1), Fraction(1, 2)}
    for p in ring:
        if p == x:
            continue
        for u in line_cuts(w1, w2, x, p):
            if (w1 + d.scale(u) - x).dot(p - x) >= 0:  # on the ray x -> p
                params.add(u)
    ts = sorted(params)
    cands = list(ts) + [(u1 + u2) / 2 for u1, u2 in zip(ts, ts[1:])]
    # x lies on a ring edge and the chord is a ring edge, so no endpoint is
    # ever outside the ring.
    return any(segment_inside_ring(x, w1 + d.scale(u), ring) for u in cands)


def weak_visibility_from_chord(ring: Ring, w1: Point2, w2: Point2) -> Ring:
    """Region of the pocket ring weakly visible from the chord (w1, w2).

    The pocket ring must start [w1_side...]; concretely we expect the chord to
    be the ring edge (ring[0], ring[1]) = (b, a) as produced by pocket_ring.
    Returns a ccw ring containing that chord edge.  Each ring edge is cut
    where it meets a line through two shadow points (the chord ends and the
    reflex vertices); between cuts, visibility from the chord cannot change.
    """
    n = len(ring)
    shadow_pts = list(dict.fromkeys([w1, w2] + _reflex_points(ring)))
    lines = list(itertools.combinations(shadow_pts, 2))

    out: Ring = [ring[0], ring[1]]  # chord edge b -> a
    for i in range(1, n):
        u, v = ring[i], ring[(i + 1) % n]
        d = v - u
        cuts = {Fraction(0), Fraction(1)}
        for p, r in lines:
            cuts.update(line_cuts(u, v, p, r))
        ts = sorted(cuts)
        for t1, t2 in zip(ts, ts[1:]):
            mid = u + d.scale((t1 + t2) / 2)
            if sees_chord(ring, mid, w1, w2):
                p1 = u + d.scale(t1)
                p2 = u + d.scale(t2)
                if out[-1] != p1:
                    out.append(p1)  # bridges a gap with a window chord
                out.append(p2)
    return _open_ring(out)


@dataclass
class LinkRegion:
    ring: Ring
    depth: int
    windows: list[tuple[Point2, Point2]] = field(default_factory=list)


def _expand_once(poly: SimplePolygon, ring: Ring) -> Ring:
    """Replace every window edge of the ring with the weak visibility region
    of the pocket behind it."""
    widx = set(ring_windows(ring, poly))
    if not widx:
        return ring
    out: Ring = []
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        out.append(a)
        if i in widx:
            pr = pocket_ring(poly, a, b)
            wvp = weak_visibility_from_chord(pr, b, a)
            # wvp starts [b, a, path back to b]; splice the non-chord path.
            if wvp[0] != b or wvp[1] != a:
                raise VisibilityError("weak visibility lost its chord edge")
            out.extend(wvp[2:])
    deduped: Ring = []
    for p in out:
        if not deduped or deduped[-1] != p:
            deduped.append(p)
    return _normalize_ring(_open_ring(deduped), poly)


def link_rings(poly: SimplePolygon, a: Point2) -> Iterator[Ring]:
    """The link balls around a as rings, depth 1, 2, ... in turn: the
    visibility polygon of a, then one expansion per ring asked for.  Stops
    at the fixpoint, when an expansion returns the same ring."""
    ring = visibility_polygon(poly, a)
    while True:
        yield ring
        nxt = _expand_once(poly, ring)
        if nxt == ring:
            return
        ring = nxt


def link_ball(poly: SimplePolygon, a: Point2, k: int) -> LinkRegion:
    if k < 1:
        raise ValueError("link ball depth must be >= 1")
    for depth, ring in enumerate(link_rings(poly, a), start=1):
        if depth == k:
            break
    windows = [(ring[i], ring[(i + 1) % len(ring)])
               for i in ring_windows(ring, poly)]
    return LinkRegion(ring=ring, depth=k, windows=windows)


def link_distance(poly: SimplePolygon, a: Point2, b: Point2) -> Optional[int]:
    """Link distance from a to b.

    Fix any triangulation.  Ball 1 holds a closed triangle at a, and ball
    k+1 holds every triangle that shares a diagonal with a triangle in ball
    k, so ball 1+d covers every triangle within dual distance d.  The dual
    tree has t-2 nodes, so no search passes depth t-2; one that does is a
    bug and raises VisibilityError.
    """
    if point_in_ring(a, poly.points) == OUTSIDE \
            or point_in_ring(b, poly.points) == OUTSIDE:
        raise VisibilityError("query point outside polygon")
    for depth, ring in enumerate(link_rings(poly, a), start=1):
        if depth > len(poly) - 2:
            raise VisibilityError(
                f"link-distance search passed depth {len(poly) - 2}")
        if point_in_ring(b, ring) != OUTSIDE:
            return depth
    return None


def triple_intersection_empty(r1: Ring, r2: Ring, r3: Ring) -> bool:
    """Exact emptiness test for the intersection of three closed regions.

    The intersection, if nonempty, contains a vertex of one region inside the
    other two, or a boundary-boundary crossing point inside the third.
    """
    rings = [r1, r2, r3]
    for i, r in enumerate(rings):
        others = [rings[j] for j in range(3) if j != i]
        for p in r:
            if all(point_in_ring(p, o) != OUTSIDE for o in others):
                return False
    for i in range(3):
        for j in range(i + 1, 3):
            k = 3 - i - j
            ri, rj, rk = rings[i], rings[j], rings[k]
            for ii in range(len(ri)):
                for jj in range(len(rj)):
                    hits = segment_intersection(ri[ii], ri[(ii + 1) % len(ri)],
                                                rj[jj], rj[(jj + 1) % len(rj)])
                    if len(hits) == 2:
                        hits += (midpoint(*hits),)
                    for h in hits:
                        if point_in_ring(h, rk) != OUTSIDE:
                            return False
    return True

"""Exact visibility and link-distance machinery inside a simple polygon.

Everything is computed over the rationals.  The visibility polygon uses an
angular sweep over critical directions; link balls grow breadth-first by
expanding each window chord with a weak visibility region and splicing it
into the ring.  Regions are kept as raw ccw vertex rings: they may contain
collinear subdivision points and degenerate boundary contacts that the strict
SimplePolygon validator would reject.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import (Point2, SimplePolygon, point_in_polygon, point_in_ring,
                       point_on_segment, primitive_direction, angular_cmp,
                       ccw_strictly_between, segment_intersection,
                       segment_inside_polygon, orient, midpoint,
                       BOUNDARY, OUTSIDE, EndpointOutsideError)

Ring = list[Point2]


class VisibilityError(ValueError):
    pass


def _ray_segment_hits(q: Point2, d: Point2, a: Point2, b: Point2
                      ) -> Optional[Fraction]:
    """Smallest tau > 0 with q + tau*d on the closed segment ab, or None."""
    e = b - a
    denom = d.cross(e)
    if denom != 0:
        tau = (a - q).cross(e) / denom
        s = (a - q).cross(d) / denom
        if tau > 0 and 0 <= s <= 1:
            return tau
        return None
    if (a - q).cross(d) != 0:
        return None  # parallel, off the ray's line
    dd = d.dot(d)
    ta = (a - q).dot(d) / dd
    tb = (b - q).dot(d) / dd
    lo, hi = min(ta, tb), max(ta, tb)
    if hi <= 0:
        return None
    return lo if lo > 0 else hi


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
    best = None
    best_tau = None
    for idx, (a, b) in enumerate(edges):
        tau = _ray_segment_hits(q, d, a, b)
        if tau is not None and (best_tau is None or tau < best_tau):
            best, best_tau = idx, tau
    if best is None:
        raise VisibilityError("ray escapes the polygon (not simple or q outside)")
    return best


def _query_site(poly: SimplePolygon, q: Point2) -> Optional[tuple[int, bool]]:
    """(edge index, is_vertex) for q on the boundary, else None."""
    pts = poly.points
    n = len(pts)
    for i in range(n):
        if q == pts[i]:
            return i, True
    for i in range(n):
        if point_on_segment(q, pts[i], pts[(i + 1) % n]):
            return i, False
    return None


def visibility_polygon(poly: SimplePolygon, q: Point2) -> Ring:
    """Exact visibility region of q, as a ccw ring (may contain collinear
    vertices)."""
    loc = point_in_polygon(q, poly)
    if loc == OUTSIDE:
        raise VisibilityError("query point outside polygon")
    pts = poly.points
    n = len(pts)
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]

    dirs = set()
    for p in pts:
        if p != q:
            dirs.add(primitive_direction(p - q))
    for ax in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        dirs.add(ax)

    site = _query_site(poly, q) if loc == BOUNDARY else None
    if site is not None:
        i, is_vertex = site
        succ = pts[(i + 1) % n]
        prec = pts[(i - 1) % n] if is_vertex else pts[i]
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
    while len(ring) > 1 and ring[0] == ring[-1]:
        ring.pop()
    return _normalize_ring(ring, poly)


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
    reported as the start of its outgoing edge."""
    n = len(poly_pts)
    for i in range(n):
        if p == poly_pts[i]:
            return i, Fraction(0)
    for i in range(n):
        u, v = poly_pts[i], poly_pts[(i + 1) % n]
        if point_on_segment(p, u, v):
            d = v - u
            s = ((p.x - u.x) / d.x) if d.x != 0 else ((p.y - u.y) / d.y)
            return i, s
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
    reach = Fraction(16 * _span(ring))
    for p in ring:
        if p == x:
            continue
        v = p - x
        hit = segment_intersection(w1, w2, x, x + v.scale(reach / _seg_norm(v)))
        if hit is None:
            continue
        pt_ = hit[1] if hit[0] == "point" else hit[1][0]
        if d.x != 0:
            params.add((pt_.x - w1.x) / d.x)
        elif d.y != 0:
            params.add((pt_.y - w1.y) / d.y)
    ts = sorted(u for u in params if 0 <= u <= 1)
    cands = list(ts) + [(u1 + u2) / 2 for u1, u2 in zip(ts, ts[1:])]
    for u in cands:
        target = w1 + d.scale(u)
        if _segment_inside_ring(x, target, ring):
            return True
    return False


def _span(ring: Ring) -> int:
    xs = [p.x for p in ring]
    ys = [p.y for p in ring]
    return 1 + int(max(max(xs) - min(xs), max(ys) - min(ys)))


def _segment_inside_ring(a: Point2, b: Point2, ring: Ring) -> bool:
    """segment_inside_polygon against a raw ring (no simplicity validation)."""
    if point_in_ring(a, ring) == OUTSIDE or point_in_ring(b, ring) == OUTSIDE:
        return False
    if a == b:
        return True
    d = b - a
    params = {Fraction(0), Fraction(1)}
    n = len(ring)
    for i in range(n):
        c, e = ring[i], ring[(i + 1) % n]
        hit = segment_intersection(a, b, c, e)
        if hit is None:
            continue
        hits = [hit[1]] if hit[0] == "point" else list(hit[1])
        for h in hits:
            if d.x != 0:
                params.add((h.x - a.x) / d.x)
            else:
                params.add((h.y - a.y) / d.y)
    cuts = sorted(u for u in params if 0 <= u <= 1)
    for u1, u2 in zip(cuts, cuts[1:]):
        mid = a + d.scale((u1 + u2) / 2)
        if point_in_ring(mid, ring) == OUTSIDE:
            return False
    return True


def weak_visibility_from_chord(ring: Ring, w1: Point2, w2: Point2) -> Ring:
    """Region of the pocket ring weakly visible from the chord (w1, w2).

    The pocket ring must start [w1_side...]; concretely we expect the chord to
    be the ring edge (ring[0], ring[1]) = (b, a) as produced by pocket_ring.
    Returns a ccw ring containing that chord edge.
    """
    n = len(ring)
    shadow_pts = [w1, w2] + _reflex_points(ring)
    reach = Fraction(16 * _span(ring))

    out: Ring = [ring[0], ring[1]]  # chord edge b -> a
    for i in range(1, n):
        u, v = ring[i], ring[(i + 1) % n]
        d = v - u
        cuts = {Fraction(0), Fraction(1)}
        for p in shadow_pts:
            for r in shadow_pts:
                if p == r:
                    continue
                step = (r - p).scale(reach / _seg_norm(r - p))
                hit = segment_intersection(u, v, p - step, p + step)
                if hit is None:
                    continue
                hits = [hit[1]] if hit[0] == "point" else list(hit[1])
                for h in hits:
                    if d.x != 0:
                        cuts.add((h.x - u.x) / d.x)
                    else:
                        cuts.add((h.y - u.y) / d.y)
        ts = sorted(c for c in cuts if 0 <= c <= 1)
        for t1, t2 in zip(ts, ts[1:]):
            mid = u + d.scale((t1 + t2) / 2)
            if sees_chord(ring, mid, w1, w2):
                p1 = u + d.scale(t1)
                p2 = u + d.scale(t2)
                if out[-1] != p1:
                    out.append(p1)  # bridges a gap with a window chord
                out.append(p2)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _seg_norm(v: Point2) -> Fraction:
    return abs(v.x) + abs(v.y)


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
    while len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    return _normalize_ring(deduped, poly)


def link_ball(poly: SimplePolygon, a: Point2, k: int) -> LinkRegion:
    if k < 1:
        raise ValueError("link ball depth must be >= 1")
    ring = visibility_polygon(poly, a)
    depth = 1
    while depth < k:
        nxt = _expand_once(poly, ring)
        if nxt == ring:
            break
        ring = nxt
        depth += 1
    windows = [(ring[i], ring[(i + 1) % len(ring)])
               for i in ring_windows(ring, poly)]
    return LinkRegion(ring=ring, depth=k, windows=windows)


def link_distance(poly: SimplePolygon, a: Point2, b: Point2,
                  max_depth: int = 64) -> Optional[int]:
    if point_in_polygon(a, poly) == OUTSIDE or point_in_polygon(b, poly) == OUTSIDE:
        raise VisibilityError("query point outside polygon")
    ring = visibility_polygon(poly, a)
    depth = 1
    while depth <= max_depth:
        if point_in_ring(b, ring) != OUTSIDE:
            return depth
        nxt = _expand_once(poly, ring)
        if nxt == ring:
            return None
        ring = nxt
        depth += 1
    raise VisibilityError("link-distance search exceeded max depth")


def link_distance_pointwise(poly: SimplePolygon, a: Point2, b: Point2,
                            max_depth: int = 16) -> Optional[int]:
    """Independent oracle: grow the ball from b instead and test a pointwise
    at each depth via direct segment visibility to the current region."""
    try:
        if segment_inside_polygon(a, b, poly):
            return 1
    except EndpointOutsideError:
        raise VisibilityError("query point outside polygon")
    ring = visibility_polygon(poly, b)
    depth = 1
    while depth < max_depth:
        # a is at distance depth+1 iff a sees some point of the depth ring.
        if _point_sees_ring(poly, a, ring):
            return depth + 1
        nxt = _expand_once(poly, ring)
        if nxt == ring:
            return None
        ring = nxt
        depth += 1
    raise VisibilityError("pointwise search exceeded max depth")


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
            hit = segment_intersection(r1[i], r1[(i + 1) % n1],
                                       r2[j], r2[(j + 1) % n2])
            if hit is not None:
                return True
    return False


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
                    hit = segment_intersection(ri[ii], ri[(ii + 1) % len(ri)],
                                               rj[jj], rj[(jj + 1) % len(rj)])
                    if hit is None:
                        continue
                    hits = [hit[1]] if hit[0] == "point" else list(hit[1])
                    if hit[0] == "segment":
                        hits.append(midpoint(*hit[1]))
                    for h in hits:
                        if point_in_ring(h, rk) != OUTSIDE:
                            return False
    return True

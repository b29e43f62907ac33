"""Exact planar primitives over the rationals.

Every predicate in this module is computed with fractions.Fraction; nothing
here ever rounds or calls into floating point.  Polygons are vertex rings in
counterclockwise order.  Collinear consecutive vertices are allowed (they are
harmless subdivision points); coincident consecutive vertices are not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

ScalarLike = Union[int, str, Fraction]

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"


def scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, or "num/den" string to an exact scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bools are ints; reject them explicitly
        raise TypeError("boolean is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


@dataclass(frozen=True)
class Point2:
    x: Fraction
    y: Fraction

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def scale(self, k: ScalarLike) -> "Point2":
        k = scalar(k)
        return Point2(self.x * k, self.y * k)

    def cross(self, other: "Point2") -> Fraction:
        return self.x * other.y - self.y * other.x

    def dot(self, other: "Point2") -> Fraction:
        return self.x * other.x + self.y * other.y

    def perp_ccw(self) -> "Point2":
        return Point2(-self.y, self.x)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


def pt(x: ScalarLike, y: ScalarLike) -> Point2:
    return Point2(scalar(x), scalar(y))


def midpoint(a: Point2, b: Point2) -> Point2:
    return Point2((a.x + b.x) / 2, (a.y + b.y) / 2)


def orient(p: Point2, q: Point2, r: Point2) -> int:
    """Sign of the signed area of triangle (p, q, r): +1 ccw, -1 cw, 0 collinear."""
    v = (q - p).cross(r - p)
    return (v > 0) - (v < 0)


def point_on_segment(p: Point2, a: Point2, b: Point2) -> bool:
    """True iff p lies on the closed segment ab (degenerate ab allowed)."""
    if orient(a, b, p) != 0:
        return False
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def segment_intersection(a: Point2, b: Point2, c: Point2, d: Point2
                         ) -> tuple[Point2, ...]:
    """The common points of closed segments ab and cd.

    Returns () when disjoint, (p,) for a single common point, and (lo, hi)
    for the ends of a collinear overlap of positive length.
    """
    r = b - a
    s = d - c
    denom = r.cross(s)
    if denom != 0:
        t = (c - a).cross(s) / denom
        u = (c - a).cross(r) / denom
        return (a + r.scale(t),) if 0 <= t <= 1 and 0 <= u <= 1 else ()
    # Parallel.
    if (c - a).cross(r) != 0:
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


def line_cuts(a: Point2, b: Point2, p: Point2, q: Point2) -> list[Fraction]:
    """The u in [0, 1] with a + u*(b - a) on the line through p and q (p != q):
    one value where ab crosses or touches the line, [0, 1] when ab lies on it,
    [] when ab misses it."""
    n = q - p
    sa = n.cross(a - p)
    sb = n.cross(b - p)
    if sa == sb:  # ab parallel to the line
        return [Fraction(0), Fraction(1)] if sa == 0 else []
    u = sa / (sa - sb)
    return [u] if 0 <= u <= 1 else []


def segments_properly_cross(a: Point2, b: Point2, c: Point2, d: Point2) -> bool:
    """True iff open segments ab and cd cross at a single transversal point."""
    if orient(a, b, c) * orient(a, b, d) >= 0:
        return False
    return orient(c, d, a) * orient(c, d, b) < 0


def point_in_triangle(p: Point2, a: Point2, b: Point2, c: Point2) -> str:
    """Locate p relative to the closed triangle abc (must not be degenerate)."""
    o = orient(a, b, c)
    if o == 0:
        raise ValueError("degenerate triangle")
    if o < 0:
        b, c = c, b
    s1 = orient(a, b, p)
    s2 = orient(b, c, p)
    s3 = orient(c, a, p)
    if s1 < 0 or s2 < 0 or s3 < 0:
        return OUTSIDE
    if s1 == 0 or s2 == 0 or s3 == 0:
        return BOUNDARY
    return INTERIOR


class PolygonError(ValueError):
    pass


@dataclass(frozen=True)
class SimplePolygon:
    """A simple polygon given by its ccw vertex ring.

    The constructor does not re-validate; use from_points for checked
    construction.  Collinear consecutive vertices are permitted.
    """
    points: tuple[Point2, ...]

    @classmethod
    def from_points(cls, points: Iterable[Point2]) -> "SimplePolygon":
        pts = tuple(points)
        if not is_simple_polygon(pts):
            raise PolygonError("vertex ring is not a simple polygon")
        if signed_area2(pts) < 0:
            raise PolygonError("polygon ring must be counterclockwise")
        return cls(pts)

    def __len__(self) -> int:
        return len(self.points)

    def vertex(self, i: int) -> Point2:
        return self.points[i % len(self.points)]

    def edges(self) -> list[tuple[Point2, Point2]]:
        n = len(self.points)
        return [(self.points[i], self.points[(i + 1) % n]) for i in range(n)]


def signed_area2(points: Sequence[Point2]) -> Fraction:
    """Twice the signed area of the ring (positive for ccw)."""
    total = Fraction(0)
    n = len(points)
    for i in range(n):
        total += points[i].cross(points[(i + 1) % n])
    return total


def is_simple_polygon(points: Sequence[Point2]) -> bool:
    """Check simplicity of a closed ring.

    Consecutive collinear vertices are fine; consecutive coincident vertices,
    spikes (a vertex whose two edges double back along the same line), and any
    contact between non-adjacent edges make the ring non-simple.
    """
    n = len(points)
    if n < 3:
        return False
    for i in range(n):
        if points[i] == points[(i + 1) % n]:
            return False
    if signed_area2(points) == 0:
        return False
    for i in range(n):
        a, b = points[i], points[(i + 1) % n]
        c = points[(i + 2) % n]
        # Spike test at the shared vertex b of edges (a,b), (b,c).
        if orient(a, b, c) == 0 and (a - b).dot(c - b) > 0:
            return False
    for i in range(n):
        a, b = points[i], points[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent (handled by the spike test above)
            c, d = points[j], points[(j + 1) % n]
            if segment_intersection(a, b, c, d):
                return False
    return True


def point_in_ring(q: Point2, pts: Sequence[Point2]) -> str:
    """Point location against a raw ccw vertex ring (no simplicity check)."""
    n = len(pts)
    for i in range(n):
        if point_on_segment(q, pts[i], pts[(i + 1) % n]):
            return BOUNDARY
    inside = False
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if a.y <= q.y < b.y:
            if orient(a, b, q) > 0:
                inside = not inside
        elif b.y <= q.y < a.y:
            if orient(a, b, q) < 0:
                inside = not inside
    return INTERIOR if inside else OUTSIDE


class EndpointOutsideError(ValueError):
    pass


def param_along(p: Point2, origin: Point2, d: Point2) -> Fraction:
    """The u with p == origin + u*d, for p on that line (d nonzero)."""
    if d.x != 0:
        return (p.x - origin.x) / d.x
    return (p.y - origin.y) / d.y


def segment_inside_ring(a: Point2, b: Point2, pts: Sequence[Point2]) -> bool:
    """True iff the closed segment ab stays within the closed region bounded
    by the ccw vertex ring pts.

    The ring is not checked for simplicity: collinear subdivision points and
    degenerate boundary contacts are fine.  Raises EndpointOutsideError when
    an endpoint is strictly outside; grazing contact with the boundary
    (touching vertices, running along edges) is allowed as long as the
    segment never enters the exterior.
    """
    if point_in_ring(a, pts) == OUTSIDE or point_in_ring(b, pts) == OUTSIDE:
        raise EndpointOutsideError("segment endpoint outside polygon")
    if a == b:
        return True
    d = b - a
    params = {Fraction(0), Fraction(1)}
    n = len(pts)
    for i in range(n):
        for h in segment_intersection(a, b, pts[i], pts[(i + 1) % n]):
            params.add(param_along(h, a, d))
    cuts = sorted(u for u in params if 0 <= u <= 1)
    for u1, u2 in zip(cuts, cuts[1:]):
        if point_in_ring(a + d.scale((u1 + u2) / 2), pts) == OUTSIDE:
            return False
    return True


def segment_inside_polygon(a: Point2, b: Point2, poly: SimplePolygon) -> bool:
    """segment_inside_ring against the polygon's vertex ring."""
    return segment_inside_ring(a, b, poly.points)


def primitive_direction(v: Point2) -> tuple[int, int]:
    """Shortest integer vector with the same direction as v (v must be nonzero)."""
    if v.is_zero():
        raise ValueError("zero vector has no direction")
    den = v.x.denominator * v.y.denominator
    xi = v.x.numerator * (den // v.x.denominator)
    yi = v.y.numerator * (den // v.y.denominator)
    g = math.gcd(abs(xi), abs(yi))
    return (xi // g, yi // g)


def angular_cmp(d1: tuple[int, int], d2: tuple[int, int]) -> int:
    """Compare two direction vectors by ccw angle from the positive x-axis."""
    def half(d: tuple[int, int]) -> int:
        x, y = d
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    h1, h2 = half(d1), half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cr = d1[0] * d2[1] - d1[1] * d2[0]
    return (cr < 0) - (cr > 0)


def ccw_strictly_between(start: tuple[int, int], d: tuple[int, int],
                         end: tuple[int, int]) -> bool:
    """True iff rotating ccw from start to end sweeps past d strictly inside."""
    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def same_dir(u, v):
        return cross(u, v) == 0 and u[0] * v[0] + u[1] * v[1] > 0

    if same_dir(start, d) or same_dir(end, d):
        return False
    c_se = cross(start, end)
    if c_se == 0 and start[0] * end[0] + start[1] * end[1] > 0:
        return False  # empty cone
    if c_se > 0:
        return cross(start, d) > 0 and cross(d, end) > 0
    # Cone spans more than pi (or exactly pi when start == -end).
    return cross(start, d) > 0 or cross(d, end) > 0

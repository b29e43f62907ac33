"""Exact planar primitives over the rationals.

Points carry fractions.Fraction coordinates.  Each predicate scales its
inputs to one common denominator on entry (L > 0, the lcm of their
denominators) and then decides on Python ints; a derived point such as a cut
midpoint is a homogeneous integer triple (X, Y, W) with W > 0.  Scaling by a
positive number keeps every sign, so each answer is that of the rational
computation, and nothing here rounds or calls into floating point.  Values
handed back (cut parameters, intersection points, areas) are exact Fractions.

Polygons are vertex rings in counterclockwise order.  Collinear consecutive
vertices are allowed (they are harmless subdivision points); coincident
consecutive vertices are not.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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


def _scaled(points: Sequence[Point2]) -> tuple[int, list[tuple[int, int]]]:
    """(L, [(X, Y), ...]): L > 0 is the lcm of the points' denominators and
    each point equals (X/L, Y/L)."""
    L = 1
    for p in points:
        L = lcm(L, p.x.denominator, p.y.denominator)
    if L == 1:
        return 1, [(p.x.numerator, p.y.numerator) for p in points]
    return L, [(p.x.numerator * (L // p.x.denominator),
                p.y.numerator * (L // p.y.denominator)) for p in points]


def orient(p: Point2, q: Point2, r: Point2) -> int:
    """Sign of the signed area of triangle (p, q, r): +1 ccw, -1 cw, 0 collinear."""
    _, ((px, py), (qx, qy), (rx, ry)) = _scaled((p, q, r))
    v = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return (v > 0) - (v < 0)


def point_on_segment(p: Point2, a: Point2, b: Point2) -> bool:
    """True iff p lies on the closed segment ab (degenerate ab allowed)."""
    _, ((px, py), (ax, ay), (bx, by)) = _scaled((p, a, b))
    return ((bx - ax) * (py - ay) == (by - ay) * (px - ax)
            and min(ax, bx) <= px <= max(ax, bx)
            and min(ay, by) <= py <= max(ay, by))


def _segments_meet(a: tuple[int, int], b: tuple[int, int],
                   c: tuple[int, int], d: tuple[int, int]) -> bool:
    """True iff the closed segments ab and cd of integer points share a point
    (degenerate segments allowed)."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = a, b, c, d
    rx, ry = bx - ax, by - ay
    oc = rx * (cy - ay) - ry * (cx - ax)
    od = rx * (dy - ay) - ry * (dx - ax)
    if (oc > 0 and od > 0) or (oc < 0 and od < 0):
        return False
    sx, sy = dx - cx, dy - cy
    oa = sx * (ay - cy) - sy * (ax - cx)
    ob = sx * (by - cy) - sy * (bx - cx)
    if (oa > 0 and ob > 0) or (oa < 0 and ob < 0):
        return False
    if oc or od or oa or ob:
        return True  # the supporting lines cross, on both segments
    # All four points on one line: the segments meet iff their boxes do.
    return (max(min(ax, bx), min(cx, dx)) <= min(max(ax, bx), max(cx, dx))
            and max(min(ay, by), min(cy, dy)) <= min(max(ay, by), max(cy, dy)))


def segment_intersection(a: Point2, b: Point2, c: Point2, d: Point2
                         ) -> tuple[Point2, ...]:
    """The common points of closed segments ab and cd.

    Returns () when disjoint, (p,) for a single common point, and (lo, hi)
    for the ends of a collinear overlap of positive length.
    """
    ends = (a, b, c, d)
    L, S = _scaled(ends)
    if not _segments_meet(*S):
        return ()
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = S
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    den = rx * sy - ry * sx
    if den != 0:
        t = (cx - ax) * sy - (cy - ay) * sx  # the point is a + (t/den)(b - a)
        w = den * L
        return (Point2(Fraction(ax * den + t * rx, w),
                       Fraction(ay * den + t * ry, w)),)
    # Collinear: project onto the dominant axis of r (or of s if ab degenerate).
    ux, uy = (rx, ry) if rx or ry else (sx, sy)
    k = 0 if abs(ux) >= abs(uy) else 1

    def key(i: int) -> int:
        return S[i][k]

    lo = max(min(0, 1, key=key), min(2, 3, key=key), key=key)
    hi = min(max(0, 1, key=key), max(2, 3, key=key), key=key)
    return (ends[lo],) if S[lo] == S[hi] else (ends[lo], ends[hi])


def line_cuts(a: Point2, b: Point2, p: Point2, q: Point2) -> list[Fraction]:
    """The u in [0, 1] with a + u*(b - a) on the line through p and q (p != q):
    one value where ab crosses or touches the line, [0, 1] when ab lies on it,
    [] when ab misses it."""
    _, ((ax, ay), (bx, by), (px, py), (qx, qy)) = _scaled((a, b, p, q))
    nx, ny = qx - px, qy - py
    sa = nx * (ay - py) - ny * (ax - px)
    sb = nx * (by - py) - ny * (bx - px)
    if sa == sb:  # ab parallel to the line
        return [Fraction(0), Fraction(1)] if sa == 0 else []
    if (sa > 0 and sb > 0) or (sa < 0 and sb < 0):
        return []
    return [Fraction(sa, sa - sb)]


def segments_properly_cross(a: Point2, b: Point2, c: Point2, d: Point2) -> bool:
    """True iff open segments ab and cd cross at a single transversal point."""
    _, ((ax, ay), (bx, by), (cx, cy), (dx, dy)) = _scaled((a, b, c, d))
    rx, ry = bx - ax, by - ay
    oc = rx * (cy - ay) - ry * (cx - ax)
    od = rx * (dy - ay) - ry * (dx - ax)
    if not (oc > 0 > od or oc < 0 < od):
        return False
    sx, sy = dx - cx, dy - cy
    oa = sx * (ay - cy) - sy * (ax - cx)
    ob = sx * (by - cy) - sy * (bx - cx)
    return oa > 0 > ob or oa < 0 < ob


def point_in_triangle(p: Point2, a: Point2, b: Point2, c: Point2) -> str:
    """Locate p relative to the closed triangle abc (must not be degenerate)."""
    _, ((px, py), (ax, ay), (bx, by), (cx, cy)) = _scaled((p, a, b, c))
    o = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if o == 0:
        raise ValueError("degenerate triangle")
    if o < 0:
        bx, by, cx, cy = cx, cy, bx, by
    s1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    s2 = (cx - bx) * (py - by) - (cy - by) * (px - bx)
    s3 = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
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


def _area2(P: Sequence[tuple[int, int]]) -> int:
    """Twice the signed area of the integer ring P."""
    return sum(x0 * y1 - y0 * x1
               for (x0, y0), (x1, y1) in zip(P, [*P[1:], *P[:1]]))


def signed_area2(points: Sequence[Point2]) -> Fraction:
    """Twice the signed area of the ring (positive for ccw)."""
    L, P = _scaled(points)
    return Fraction(_area2(P), L * L)


def is_simple_polygon(points: Sequence[Point2]) -> bool:
    """Check simplicity of a closed ring.

    Consecutive collinear vertices are fine; consecutive coincident vertices,
    spikes (a vertex whose two edges double back along the same line), and any
    contact between non-adjacent edges make the ring non-simple.
    """
    n = len(points)
    if n < 3:
        return False
    _, P = _scaled(points)
    if any(P[i - 1] == P[i] for i in range(n)):
        return False
    if _area2(P) == 0:
        return False
    for i in range(n):
        (ax, ay), (bx, by), (cx, cy) = P[i - 2], P[i - 1], P[i]
        # Spike test at the shared vertex b of edges (a,b), (b,c).
        if ((bx - ax) * (cy - ay) == (by - ay) * (cx - ax)
                and (ax - bx) * (cx - bx) + (ay - by) * (cy - by) > 0):
            return False
    for i in range(n):
        a, b = P[i], P[(i + 1) % n]
        # skip j == i + 1 and, for i == 0, j == n - 1: adjacent edges are
        # handled by the spike test above
        for j in range(i + 2, n - 1 if i == 0 else n):
            if _segments_meet(a, b, P[j], P[(j + 1) % n]):
                return False
    return True


def _ring_locate(X: int, Y: int, W: int, P: Sequence[tuple[int, int]]) -> str:
    """Locate the point (X/W, Y/W), W > 0, against the integer ccw ring P.

    Boundary contact wins; otherwise a half-open crossing count decides."""
    if W == 1:
        rel = [(x - X, y - Y) for x, y in P]
    else:
        rel = [(x * W - X, y * W - Y) for x, y in P]
    inside = False
    ax, ay = rel[-1]
    for bx, by in rel:
        # the edge from a to b, with the query point at the origin
        if not ((ay > 0 and by > 0) or (ay < 0 and by < 0)):
            det = ax * by - ay * bx  # orientation of (a, b, origin)
            if det == 0:
                if ax <= 0 <= bx or bx <= 0 <= ax:
                    return BOUNDARY
            elif ay <= 0 < by:
                if det > 0:
                    inside = not inside
            elif by <= 0 < ay:
                if det < 0:
                    inside = not inside
        ax, ay = bx, by
    return INTERIOR if inside else OUTSIDE


def point_in_ring(q: Point2, pts: Sequence[Point2]) -> str:
    """Point location against a raw ccw vertex ring (no simplicity check)."""
    _, P = _scaled((q, *pts))
    X, Y = P[0]
    return _ring_locate(X, Y, 1, P[1:])


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

    The parameters along ab where it meets the ring cut it into pieces, each
    wholly inside or wholly outside; the midpoint of each piece decides it.
    """
    _, P = _scaled((a, b, *pts))
    (ax, ay), (bx, by) = P[0], P[1]
    P = P[2:]
    if (_ring_locate(ax, ay, 1, P) == OUTSIDE
            or _ring_locate(bx, by, 1, P) == OUTSIDE):
        raise EndpointOutsideError("segment endpoint outside polygon")
    if ax == bx and ay == by:
        return True
    dx, dy = bx - ax, by - ay
    side = [dx * (y - ay) - dy * (x - ax) for x, y in P]  # vertex vs line ab
    params = {0, 1}
    for i in range(len(P)):
        sc, se = side[i - 1], side[i]  # the edge c = P[i-1] to e = P[i]
        if (sc > 0 and se > 0) or (sc < 0 and se < 0):
            continue
        (cx, cy), (ex, ey) = P[i - 1], P[i]
        if sc == se:  # the edge lies on the line: keep its ends on ab
            dd = dx * dx + dy * dy
            for x, y in ((cx, cy), (ex, ey)):
                t = dx * (x - ax) + dy * (y - ay)
                if 0 <= t <= dd:
                    params.add(Fraction(t, dd))
        else:  # the line crosses the edge: keep the crossing if on ab
            den = se - sc
            t = (cx - ax) * (ey - cy) - (cy - ay) * (ex - cx)
            if den < 0:
                t, den = -t, -den
            if 0 <= t <= den:
                params.add(Fraction(t, den))
    cuts = sorted(params)
    for u1, u2 in zip(cuts, cuts[1:]):
        # the midpoint a + (N/W)(b - a) of the piece, as (X, Y, W)
        n1, d1, n2, d2 = u1.numerator, u1.denominator, u2.numerator, u2.denominator
        W = 2 * d1 * d2
        N = n1 * d2 + n2 * d1
        if _ring_locate(ax * W + N * dx, ay * W + N * dy, W, P) == OUTSIDE:
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
    g = gcd(abs(xi), abs(yi))
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

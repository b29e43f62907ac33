import itertools
import random
from fractions import Fraction

import pytest

from conftest import suite_seed
from polyext import oracle
from polyext.geometry import (pt, Point2, orient, point_on_segment,
                              segment_intersection, segments_properly_cross,
                              point_in_triangle, INTERIOR, BOUNDARY, OUTSIDE,
                              SimplePolygon, PolygonError, point_in_ring,
                              segment_inside_polygon, segment_inside_ring,
                              EndpointOutsideError, is_simple_polygon,
                              primitive_direction, ccw_strictly_between,
                              midpoint, line_cuts)
from polyext.oracle import random_polygon


def test_orient_signs():
    assert orient(pt(0, 0), pt(1, 0), pt(0, 1)) > 0
    assert orient(pt(0, 0), pt(0, 1), pt(1, 0)) < 0
    assert orient(pt(0, 0), pt(1, 1), pt(2, 2)) == 0


def test_orient_exact_near_degenerate():
    # a float cross product would misclassify this
    eps = Fraction(1, 10**40)
    assert orient(pt(0, 0), pt(1, 0), Point2(Fraction(2), eps)) > 0
    assert orient(pt(0, 0), pt(1, 0), Point2(Fraction(2), -eps)) < 0


def test_point_on_segment():
    assert point_on_segment(pt(1, 1), pt(0, 0), pt(2, 2))
    assert point_on_segment(pt(0, 0), pt(0, 0), pt(2, 2))
    assert not point_on_segment(pt(3, 3), pt(0, 0), pt(2, 2))
    assert not point_on_segment(pt(1, 0), pt(0, 0), pt(2, 2))


def test_segment_intersection_kinds():
    assert segment_intersection(pt(0, 0), pt(2, 2),
                                pt(0, 2), pt(2, 0)) == (pt(1, 1),)
    lo, hi = segment_intersection(pt(0, 0), pt(3, 0), pt(1, 0), pt(5, 0))
    assert {lo, hi} == {pt(1, 0), pt(3, 0)}
    assert segment_intersection(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)) == ()
    # a touch at an endpoint is one common point, collinear or not
    assert segment_intersection(pt(0, 0), pt(1, 1),
                                pt(1, 1), pt(2, 0)) == (pt(1, 1),)
    assert segment_intersection(pt(0, 0), pt(1, 0),
                                pt(1, 0), pt(3, 0)) == (pt(1, 0),)


def test_line_cuts_by_definition():
    """Every segment ab against every line through two points of a 4x4 grid."""
    grid = [pt(x, y) for x in range(4) for y in range(4)]
    for p, q in itertools.combinations(grid, 2):
        for a in grid:
            for b in grid:
                cuts = line_cuts(a, b, p, q)
                sa, sb = orient(p, q, a), orient(p, q, b)
                if sa == sb == 0:
                    assert cuts == [0, 1]
                elif sa * sb > 0:  # no point of ab on the line
                    assert cuts == []
                else:
                    (u,) = cuts
                    assert 0 <= u <= 1
                    assert orient(p, q, a + (b - a).scale(u)) == 0


def test_properly_cross_excludes_touching():
    assert segments_properly_cross(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0))
    assert not segments_properly_cross(pt(0, 0), pt(1, 1), pt(1, 1), pt(2, 0))
    assert not segments_properly_cross(pt(0, 0), pt(2, 0), pt(1, 0), pt(1, 1))


def test_properly_cross_matches_four_orientations_on_grid():
    # every pair of segments with endpoints on the 4x4 integer grid, degenerate
    # segments included, against the four-orientation definition in ints
    grid = [(x, y) for x in range(4) for y in range(4)]
    points = {q: pt(*q) for q in grid}

    def sign(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return (v > 0) - (v < 0)

    for a in grid:
        for b in grid:
            for c in grid:
                for d in grid:
                    want = (sign(a, b, c) * sign(a, b, d) < 0
                            and sign(c, d, a) * sign(c, d, b) < 0)
                    got = segments_properly_cross(points[a], points[b],
                                                  points[c], points[d])
                    assert got == want, (a, b, c, d)


def test_point_in_triangle_classification():
    a, b, c = pt(0, 0), pt(4, 0), pt(0, 4)
    assert point_in_triangle(pt(1, 1), a, b, c) == INTERIOR
    assert point_in_triangle(pt(2, 0), a, b, c) == BOUNDARY
    assert point_in_triangle(pt(0, 0), a, b, c) == BOUNDARY
    assert point_in_triangle(pt(4, 4), a, b, c) == OUTSIDE


def test_simple_polygon_rejects_bad_rings():
    with pytest.raises(PolygonError):
        SimplePolygon.from_points([pt(0, 0), pt(1, 0)])
    with pytest.raises(PolygonError):  # self-crossing bowtie
        SimplePolygon.from_points([pt(0, 0), pt(2, 2), pt(2, 0), pt(0, 2)])
    with pytest.raises(PolygonError):  # clockwise
        SimplePolygon.from_points([pt(0, 0), pt(0, 2), pt(2, 0)])
    with pytest.raises(PolygonError):  # zero-width spike
        SimplePolygon.from_points([pt(0, 0), pt(4, 0), pt(2, 0), pt(2, 2)])


def test_point_in_polygon(l_polygon):
    ring = l_polygon.points
    assert point_in_ring(pt(Fraction(1, 2), Fraction(1, 2)), ring) == INTERIOR
    assert point_in_ring(pt(1, 1), ring) == BOUNDARY
    assert point_in_ring(Point2(Fraction(3, 2), Fraction(3, 2)), ring) == OUTSIDE


def test_segment_inside_polygon(l_polygon):
    # hugging the reflex corner stays inside (closed region)
    assert segment_inside_polygon(pt(2, 0), pt(0, 2), l_polygon)
    assert segment_inside_polygon(pt(0, 0), pt(1, 1), l_polygon)
    # crossing the notch leaves the polygon
    assert not segment_inside_polygon(pt(2, 1), pt(1, 2), l_polygon)
    with pytest.raises(EndpointOutsideError):
        segment_inside_polygon(pt(0, 0), pt(2, 2), l_polygon)


def test_segment_inside_raw_ring():
    # Two triangles pinched at (2, 2), with a collinear subdivision point
    # (4, 2): a ring the simple-polygon validator refuses, of the kind the
    # visibility engine emits.
    ring = [pt(0, 0), pt(2, 2), pt(4, 0), pt(4, 2), pt(4, 4), pt(2, 2),
            pt(0, 4)]
    with pytest.raises(PolygonError):
        SimplePolygon.from_points(ring)
    # inside, through the pinch and from the subdivision point
    assert segment_inside_ring(pt(1, 2), pt(3, 2), ring)
    assert segment_inside_ring(pt(4, 2), pt(2, 2), ring)
    # grazing along an edge, across the subdivision point
    assert segment_inside_ring(pt(4, 0), pt(4, 4), ring)
    # leaving the ring between the two triangles
    assert not segment_inside_ring(pt(0, 1), pt(4, 1), ring)
    with pytest.raises(EndpointOutsideError):
        segment_inside_ring(pt(2, 1), pt(3, 2), ring)


def test_primitive_direction_and_cones():
    assert primitive_direction(pt(4, 6)) == (2, 3)
    assert primitive_direction(pt(0, -5)) == (0, -1)
    assert ccw_strictly_between((1, 0), (1, 1), (0, 1))
    assert not ccw_strictly_between((1, 0), (0, -1), (0, 1))
    # cone wider than pi
    assert ccw_strictly_between((1, 0), (-1, -1), (0, -1))


def test_midpoint():
    assert midpoint(pt(0, 0), pt(1, 3)) == Point2(Fraction(1, 2), Fraction(3, 2))


# -- the integer kernel against the Fraction references in oracle ------------

def _same(fast, ref, *args):
    """Both calls return equal values, or both raise the same error (such as
    EndpointOutsideError)."""
    try:
        want = ref(*args)
    except ValueError as exc:
        with pytest.raises(type(exc)):
            fast(*args)
        return
    got = fast(*args)
    assert got == want, (fast.__name__, args)


def test_kernel_matches_references_on_grid():
    # every point against every segment, and every pair of segments, of a
    # 4x4 grid (degenerate segments included), under an axis scaling that
    # keeps its collinearities and gives it denominators
    grid = [Point2(Fraction(x, 2), Fraction(y, 3))
            for x in range(4) for y in range(4)]
    segments = [(a, b) for a in grid for b in grid]
    for a, b in segments:
        for p in grid:
            _same(orient, oracle.orient_reference, a, b, p)
            _same(point_on_segment, oracle.point_on_segment_reference,
                  p, a, b)
            _same(point_in_triangle, oracle.point_in_triangle_reference,
                  p, a, b, grid[6])
    for i, (a, b) in enumerate(segments):
        for c, d in segments[i:]:
            _same(segment_intersection,
                  oracle.segment_intersection_reference, a, b, c, d)
            _same(segments_properly_cross,
                  oracle.segments_properly_cross_reference, a, b, c, d)
            if c != d:
                _same(line_cuts, oracle.line_cuts_reference, a, b, c, d)


def test_kernel_matches_references_on_large_rationals():
    rng = random.Random(suite_seed() + 21)

    def big():
        return Fraction(rng.getrandbits(400) - 2 ** 399,
                        rng.getrandbits(400) + 1)

    for _ in range(150):
        a, b, c = (Point2(big(), big()) for _ in range(3))
        # points on the line ab, inside and outside the segment
        on = [a + (b - a).scale(Fraction(rng.randint(-4, 8), 4)),
              a + (b - a).scale(big())]
        for p in [c] + on:
            _same(orient, oracle.orient_reference, a, b, p)
            _same(point_on_segment, oracle.point_on_segment_reference,
                  p, a, b)
            _same(point_in_triangle, oracle.point_in_triangle_reference,
                  p, a, b, c)
            for d in [c] + on:
                _same(segment_intersection,
                      oracle.segment_intersection_reference, a, b, p, d)
                _same(segments_properly_cross,
                      oracle.segments_properly_cross_reference, a, p, c, d)
                if p != d:
                    _same(line_cuts, oracle.line_cuts_reference, a, b, p, d)


def test_ring_kernel_matches_references_on_random_rings():
    # random ccw rings with collinear subdivision points, moved by a random
    # orientation-preserving rational affine map
    rng = random.Random(suite_seed() + 22)
    for _ in range(20):
        ring = list(random_polygon(rng, rng.randint(3, 9)).points)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(ring))
            a, b = ring[i], ring[(i + 1) % len(ring)]
            ring.insert(i + 1, a + (b - a).scale(
                Fraction(rng.randint(1, 4), 5)))
        while True:
            m = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(4)]
            if m[0] * m[3] - m[1] * m[2] > 0:
                break
        shift = Point2(Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                       Fraction(rng.randint(-99, 99), rng.randint(1, 99)))
        ring = [Point2(m[0] * p.x + m[1] * p.y, m[2] * p.x + m[3] * p.y)
                + shift for p in ring]
        assert is_simple_polygon(ring)
        # vertices, points on edges, and points of an eighth-step lattice
        # over a box a little larger than the ring's
        n = len(ring)
        points = ring + [ring[i] + (ring[(i + 1) % n] - ring[i]).scale(
            Fraction(j, 4)) for i in range(n) for j in (1, 2)]
        x0, y0 = min(p.x for p in ring), min(p.y for p in ring)
        w, h = max(p.x for p in ring) - x0, max(p.y for p in ring) - y0
        points += [Point2(x0 + w * Fraction(rng.randint(-1, 9), 8),
                          y0 + h * Fraction(rng.randint(-1, 9), 8))
                   for _ in range(24)]
        for q in points:
            _same(point_in_ring, oracle.point_in_ring_reference, q, ring)
        closed = [q for q in points
                  if oracle.point_in_ring_reference(q, ring) != OUTSIDE]
        for _ in range(100):  # segments between points of the closed region
            _same(segment_inside_ring, oracle.segment_inside_ring_reference,
                  rng.choice(closed), rng.choice(closed), ring)
        for _ in range(10):  # and some with an endpoint outside
            _same(segment_inside_ring, oracle.segment_inside_ring_reference,
                  rng.choice(points), rng.choice(points), ring)


def test_is_simple_polygon_matches_reference(rng):
    # rings of few lattice points hit every refusal: repeated points,
    # spikes, zero area, crossings and touching non-adjacent edges
    for _ in range(3000):
        ring = [pt(rng.randint(0, 3), rng.randint(0, 3))
                for _ in range(rng.randint(3, 7))]
        _same(is_simple_polygon, oracle.is_simple_polygon_reference, ring)


def test_ring_kernel_matches_references_on_pinched_ring():
    ring = [pt(0, 0), pt(2, 2), pt(4, 0), pt(4, 2), pt(4, 4), pt(2, 2),
            pt(0, 4)]
    points = [Point2(Fraction(x, 2), Fraction(y, 2))
              for x in range(-1, 10) for y in range(-1, 10)]
    for q in points:
        _same(point_in_ring, oracle.point_in_ring_reference, q, ring)
    closed = [q for q in points
              if oracle.point_in_ring_reference(q, ring) != OUTSIDE]
    for a, b in itertools.combinations_with_replacement(closed, 2):
        _same(segment_inside_ring, oracle.segment_inside_ring_reference,
              a, b, ring)
    for q in points:  # an endpoint outside, on either end
        _same(segment_inside_ring, oracle.segment_inside_ring_reference,
              q, ring[3], ring)
        _same(segment_inside_ring, oracle.segment_inside_ring_reference,
              ring[3], q, ring)


def test_ring_predicates_run_on_ints(monkeypatch):
    # a comb of t=64 vertices with rational teeth; with Fraction subtraction
    # and multiplication refused, the ring predicates still answer
    top = [Point2(Fraction(x), 2 + Fraction(x % 2, 3) - Fraction(1, 7))
           for x in range(61, -1, -1)]
    ring = [pt(0, 0), pt(61, 0)] + top
    assert len(ring) == 64
    inside = Point2(Fraction(1, 2), Fraction(1, 3))
    cases = [
        (point_in_ring, oracle.point_in_ring_reference, (inside, ring)),
        (point_in_ring, oracle.point_in_ring_reference, (top[7], ring)),
        (segment_inside_ring, oracle.segment_inside_ring_reference,
         (inside, Point2(Fraction(121, 2), Fraction(5, 3)), ring)),
        (segment_inside_ring, oracle.segment_inside_ring_reference,
         (inside, Point2(Fraction(121, 2), Fraction(2)), ring)),
    ]
    wants = [ref(*args) for _, ref, args in cases]
    assert wants == [INTERIOR, BOUNDARY, True, False]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the integer kernel")

    monkeypatch.setattr(Fraction, "__sub__", refuse)
    monkeypatch.setattr(Fraction, "__mul__", refuse)
    assert [fast(*args) for fast, _, args in cases] == wants

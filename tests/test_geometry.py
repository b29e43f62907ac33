import itertools
from fractions import Fraction

import pytest

from polyext.geometry import (pt, Point2, orient, point_on_segment,
                              segment_intersection, segments_properly_cross,
                              point_in_triangle, INTERIOR, BOUNDARY, OUTSIDE,
                              SimplePolygon, PolygonError, point_in_ring,
                              segment_inside_polygon, segment_inside_ring,
                              EndpointOutsideError,
                              primitive_direction, ccw_strictly_between,
                              midpoint, line_cuts)


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

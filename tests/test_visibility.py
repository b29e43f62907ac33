from fractions import Fraction

import pytest

from polyext.geometry import SimplePolygon, pt, Point2, segment_inside_polygon
from polyext.oracle import link_distance_pointwise
from polyext.visibility import (visibility_polygon, link_ball, link_distance,
                                VisibilityError)


def test_convex_visibility_is_whole_polygon(unit_square):
    ring = visibility_polygon(unit_square, pt(1, 1))
    # the ring may add collinear boundary points but covers every corner
    assert set(unit_square.points) <= set(ring)


def test_visibility_from_reflex_polygon(l_polygon):
    # from the lower-left corner the far upper-right notch corner is hidden
    ring = visibility_polygon(l_polygon, pt(0, 0))
    assert pt(2, 0) in ring and pt(0, 2) in ring
    for p in ring:
        assert segment_inside_polygon(pt(0, 0), p, l_polygon)


def test_link_distance_convex(unit_square):
    for a, b in [(pt(0, 0), pt(4, 4)), (pt(1, 2), pt(3, 1)),
                 (pt(0, 0), pt(4, 0))]:
        assert link_distance(unit_square, a, b) == 1


def test_link_distance_l_polygon(l_polygon):
    assert link_distance(l_polygon, pt(0, 0), pt(2, 1)) == 1
    # a segment that grazes the reflex corner still counts as one link
    assert link_distance(l_polygon, pt(2, 0), pt(0, 2)) == 1
    # a genuinely blocked pair deep in each arm needs two
    a = Point2(Fraction(7, 4), Fraction(1, 2))
    b = Point2(Fraction(1, 2), Fraction(7, 4))
    assert link_distance(l_polygon, a, b) == 2


def test_link_distance_same_point(l_polygon):
    # a degenerate path still uses one (zero-length) segment
    assert link_distance(l_polygon, pt(1, 1), pt(1, 1)) == 1


def test_link_distance_outside_raises(l_polygon):
    with pytest.raises(VisibilityError):
        link_distance(l_polygon, pt(3, 3), pt(0, 0))


def test_link_ball_growth(l_polygon):
    ball1 = link_ball(l_polygon, pt(2, 0), 1)
    ball2 = link_ball(l_polygon, pt(2, 0), 2)
    assert ball1.depth == 1 and ball2.depth == 2
    # depth-2 ball of the L covers everything
    assert set(l_polygon.points) <= set(ball2.ring)
    from polyext.geometry import point_in_ring, OUTSIDE
    deep = Point2(Fraction(1, 2), Fraction(7, 4))
    assert point_in_ring(deep, ball1.ring) == OUTSIDE
    assert point_in_ring(deep, ball2.ring) != OUTSIDE


def test_pointwise_agrees_with_engine(l_polygon, unit_square):
    samples = [pt(0, 0), pt(2, 0), pt(2, 1), pt(1, 2), pt(0, 2),
               Point2(Fraction(1, 2), Fraction(1, 2)),
               Point2(Fraction(7, 4), Fraction(1, 2)),
               Point2(Fraction(1, 2), Fraction(7, 4))]
    for i, a in enumerate(samples):
        for b in samples[i:]:
            assert link_distance(l_polygon, a, b) == \
                link_distance_pointwise(l_polygon, a, b)
    sq_samples = [pt(0, 0), pt(4, 4), pt(2, 2), pt(1, 3)]
    for i, a in enumerate(sq_samples):
        for b in sq_samples[i:]:
            assert link_distance(unit_square, a, b) == \
                link_distance_pointwise(unit_square, a, b) == 1


def test_link_distance_symmetry(l_polygon):
    pairs = [(pt(2, 0), pt(0, 2)), (pt(0, 0), pt(2, 1)),
             (pt(1, 2), pt(2, 0))]
    for a, b in pairs:
        assert link_distance(l_polygon, a, b) == link_distance(l_polygon, b, a)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_spiral_link_distance(k):
    from polyext.witness import _spiral_ring
    outer, inner, core, mouth = _spiral_ring(k)
    poly = SimplePolygon([core] + outer + [mouth] + inner)
    assert link_distance(poly, core, mouth) == k + 1
    assert link_distance_pointwise(poly, core, mouth) == k + 1


def test_link_distance_depth_bound_is_t_minus_2(l_polygon, monkeypatch):
    # an expansion that never converges (the same region, rotated) must be
    # stopped at depth t-2 = 4, where every ball already covers the polygon
    import polyext.visibility as visibility
    expansions = []

    def rotate(poly, ring):
        expansions.append(ring)
        return ring[1:] + ring[:1]

    monkeypatch.setattr(visibility, "_expand_once", rotate)
    a = Point2(Fraction(7, 4), Fraction(1, 2))
    b = Point2(Fraction(1, 2), Fraction(7, 4))
    with pytest.raises(VisibilityError, match="passed depth 4"):
        link_distance(l_polygon, a, b)
    assert len(expansions) == len(l_polygon) - 2

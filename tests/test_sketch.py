from fractions import Fraction

import pytest

from polyext.geometry import SimplePolygon, pt, Point2
from polyext.model import Instance
from polyext.triangulation import validate_triangulation, root_dual, ear_clip
from polyext.sketch import (sketch_linear, realize, validate_respecting,
                            is_sketch, SimplexTable, simplex_meet,
                            SweepStats, Drawing)
from polyext.oracle import delta, lambda_plus, PocketMaps


def test_simplex_meet():
    assert simplex_meet((1, 3), (1, 2, 3)) == (1, 3)
    assert simplex_meet((0,), (1, 2)) is None
    assert simplex_meet((0, 1, 2), (2, 3)) == (2,)


def test_simplex_table(square_diag):
    table = SimplexTable(square_diag)
    assert len(table.triangles) == 2
    assert table.shares_triangle((0,), (1, 3))
    assert not table.shares_triangle((0,), (2,))
    assert table.is_simplex((1, 3)) and not table.is_simplex((0, 2))


def test_delta_hub(hub_instance, square_diag):
    assign = delta(hub_instance, square_diag)
    assert assign == {0: (0,), 1: (1,), 2: (2,), 3: (3,), 4: (1, 3)}
    assert is_sketch(assign, hub_instance, square_diag)


def test_delta_undefined_on_chord(square_diag):
    # c1 and c3 adjacent: no triangle contains both polygon corners
    inst = Instance(n=4, edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
                    cycle=[0, 1, 2, 3])
    assert delta(inst, square_diag) is None
    assert sketch_linear(inst, square_diag) is None


def test_sketch_linear_matches_delta(hub_instance, square_diag):
    assert sketch_linear(hub_instance, square_diag) == \
        delta(hub_instance, square_diag)


def test_sketch_linear_counts_operations(hub_instance, square_diag):
    stats = SweepStats()
    sketch_linear(hub_instance, square_diag, stats=stats)
    assert stats.ops > 0


def test_realize_hub(hub_instance, square_diag):
    d = realize(delta(hub_instance, square_diag), square_diag)
    assert d.positions[4] == pt(2, 2)  # midpoint of the diagonal
    assert d.positions[0] == pt(0, 0)
    report = validate_respecting(d, hub_instance, square_diag.polygon,
                                 square_diag)
    assert report.ok


def test_realize_centroid(square_diag):
    inst = Instance(n=5, edges=[(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (2, 4)],
                    cycle=[0, 1, 2, 3])
    assign = delta(inst, square_diag)
    d = realize(assign, square_diag)
    if len(assign[4]) == 3:
        pts = [square_diag.point(i) for i in assign[4]]
        cx = sum((p.x for p in pts), Fraction(0)) / 3
        assert d.positions[4].x == cx


def test_validate_respecting_failures(hub_instance, square_diag):
    d = realize(delta(hub_instance, square_diag), square_diag)
    # hub strictly inside the upper triangle: edge to c2 leaves the triangle
    moved = dict(d.positions)
    moved[4] = Point2(Fraction(1), Fraction(7, 2))
    rep = validate_respecting(Drawing(positions=moved), hub_instance,
                              square_diag.polygon, square_diag)
    assert not rep.ok
    # cycle vertex off its polygon vertex
    moved = dict(d.positions)
    moved[0] = pt(1, 1)
    rep = validate_respecting(Drawing(positions=moved), hub_instance,
                              square_diag.polygon, square_diag)
    assert not rep.ok


def test_validate_respecting_without_triangulation(hub_instance, square_diag):
    d = realize(sketch_linear(hub_instance, square_diag), square_diag)
    square = square_diag.polygon
    # off the triangulation's simplices but inside the polygon: fine without
    # a triangulation, rejected with one
    moved = dict(d.positions)
    moved[4] = Point2(Fraction(1), Fraction(7, 2))
    assert validate_respecting(Drawing(positions=moved), hub_instance,
                               square).ok
    assert not validate_respecting(Drawing(positions=moved), hub_instance,
                                   square, square_diag).ok
    # outside the polygon: every edge at the hub is reported
    moved[4] = pt(9, 9)
    rep = validate_respecting(Drawing(positions=moved), hub_instance, square)
    assert rep.failures == tuple(
        f"edge ({c},4) has an endpoint outside the polygon" for c in range(4))


def test_is_sketch_rejects_bad_assignments(hub_instance, square_diag):
    good = delta(hub_instance, square_diag)
    bad = dict(good)
    bad[0] = (1,)  # c1 pinned to the wrong polygon vertex
    assert not is_sketch(bad, hub_instance, square_diag)
    bad = dict(good)
    bad[4] = (0, 2)  # not a simplex of this triangulation
    assert not is_sketch(bad, hub_instance, square_diag)


def test_lambda_maps_trivial_pocket(hub_instance, square_diag):
    edge = (0, 1)
    lam = PocketMaps(hub_instance, square_diag).lam(edge)
    assert lam is not None
    assert lam[0] == (0,) and lam[1] == (1,)
    assert lam[4] == (0, 1)
    lp = lambda_plus(edge, hub_instance, square_diag)
    assert lp is not None
    # the hub is adjacent to c3/c4 outside the pocket: pushed to the outer side
    assert set(lp[4]) <= {0, 1, 3}


def test_single_edge_pocket_forcing(square_diag):
    # c1's neighbor chain forces the trivial pocket update S[c_i] := {p_i};
    # emptying it exactly when no sketch exists
    inst = Instance(n=4, edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
                    cycle=[0, 1, 2, 3])
    assert sketch_linear(inst, square_diag) is None


def test_drawing_meta_not_compared():
    a = Drawing(positions={0: pt(0, 0)}, meta={"x": 1})
    b = Drawing(positions={0: pt(0, 0)}, meta={"y": 2})
    assert a == b

import random
from fractions import Fraction

from hypothesis import given, settings, HealthCheck, strategies as st

from polyext.geometry import (SimplePolygon, pt, Point2, point_in_ring,
                              segment_inside_polygon, OUTSIDE)
from polyext.model import Instance
from polyext.conditions import check_pair, check_universality
from polyext.sketch import sketch_linear, realize, validate_respecting
from polyext.triangulation import root_dual
from polyext.visibility import link_distance
from polyext.oracle import (delta, enumerate_sketches, random_instance,
                            random_polygon, random_triangulation,
                            enumerate_local_sketches, all_triangulations,
                            link_distance_pointwise)
from polyext.jsonio import (instance_to_json, instance_from_json,
                            polygon_to_json, polygon_from_json,
                            drawing_to_json, drawing_from_json)

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _random_setup(seed, t_max=7, extra_max=3):
    rng = random.Random(seed)
    t = rng.randint(3, t_max)
    inst = random_instance(rng, t=t, extra=rng.randint(0, extra_max),
                           extra_edges=rng.randint(0, 2))
    poly = random_polygon(rng, t)
    tri = random_triangulation(rng, poly)
    return rng, inst, poly, tri


@SETTINGS
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_linear_table_matches_reference(seed):
    _, inst, _, tri = _random_setup(seed)
    assert sketch_linear(inst, tri) == delta(inst, tri)


@SETTINGS
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_reference_matches_exhaustive_search(seed):
    _, inst, _, tri = _random_setup(seed, t_max=6, extra_max=2)
    assert (delta(inst, tri) is not None) == \
        bool(enumerate_sketches(inst, tri))


@SETTINGS
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_realized_sketch_respects_triangulation(seed):
    _, inst, poly, tri = _random_setup(seed)
    assign = delta(inst, tri)
    if assign is None:
        return
    d = realize(assign, tri)
    assert validate_respecting(d, inst, poly, tri).ok


@SETTINGS
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_pair_condition_gives_pocket_sketches(seed):
    _, inst, _, tri = _random_setup(seed, t_max=6, extra_max=2)
    if check_pair(inst) is not None:
        return
    for pocket in tri.pockets.values():
        found = next(iter(enumerate_local_sketches(inst, tri, pocket)), None)
        assert found is not None


@SETTINGS
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_universal_instances_sketch_on_every_triangulation(seed):
    rng = random.Random(seed)
    t = rng.randint(3, 6)
    inst = random_instance(rng, t=t, extra=rng.randint(0, 2),
                           extra_edges=rng.randint(0, 1))
    if not check_universality(inst).universal:
        return
    poly = random_polygon(rng, t)
    for tri in all_triangulations(poly):
        tri = root_dual(tri)
        assert delta(inst, tri) is not None


@SETTINGS
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_link_distance_symmetric_and_one_iff_visible(seed):
    rng = random.Random(seed)
    poly = random_polygon(rng, rng.randint(3, 8))
    pts = list(poly.points)
    a, b = rng.choice(pts), rng.choice(pts)
    bb_a = Point2(sum(p.x for p in pts) / len(pts),
                  sum(p.y for p in pts) / len(pts))
    if point_in_ring(bb_a, poly.points) != OUTSIDE:
        pts.append(bb_a)
        a = rng.choice(pts)
    d_ab = link_distance(poly, a, b)
    assert d_ab == link_distance(poly, b, a)
    assert d_ab == link_distance_pointwise(poly, a, b)
    if a != b:
        assert (d_ab == 1) == segment_inside_polygon(a, b, poly)


@SETTINGS
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_json_round_trips(seed):
    rng, inst, poly, tri = _random_setup(seed)
    back = instance_from_json(instance_to_json(inst))
    assert back.n == inst.n and back.cycle == inst.cycle
    assert set(back.edges) == {tuple(sorted(e)) for e in inst.edges}
    assert polygon_from_json(polygon_to_json(poly)) == poly
    assign = delta(inst, tri)
    if assign is not None:
        d = realize(assign, tri)
        assert drawing_from_json(drawing_to_json(d)).positions == d.positions

import random

import pytest

from polyext.geometry import SimplePolygon, pt
from polyext.model import Instance, validate_instance
from polyext.sketch import is_sketch
from polyext.triangulation import root_dual
from polyext.oracle import (delta, lambda_plus, enumerate_sketches,
                            iter_sketches, OracleLimit, all_triangulations,
                            localize, is_local_sketch,
                            enumerate_local_sketches, pocket_simplices,
                            random_instance, random_universal_instance,
                            random_polygon, random_triangulation,
                            random_plane_instance)


def test_enumerate_counts_hub(hub_instance, square_diag):
    assert enumerate_sketches(hub_instance, square_diag, count=True) == 3
    assert enumerate_sketches(hub_instance, square_diag) is True


def test_enumerate_agrees_with_delta(hub_instance, square_diag):
    inst = Instance(n=4, edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
                    cycle=[0, 1, 2, 3])
    assert enumerate_sketches(inst, square_diag) is False
    assert delta(inst, square_diag) is None
    assert delta(hub_instance, square_diag) is not None


def test_iter_sketches_all_valid(hub_instance, square_diag):
    found = list(iter_sketches(hub_instance, square_diag))
    assert len(found) == 3
    for assign in found:
        assert is_sketch(assign, hub_instance, square_diag)
    assert {a[4] for a in found} == {(1,), (3,), (1, 3)}


def test_oracle_limit(square_diag):
    inst = Instance(n=8, edges=[(0, 1), (1, 2), (2, 3), (0, 3)],
                    cycle=[0, 1, 2, 3])
    with pytest.raises(OracleLimit):
        enumerate_sketches(inst, square_diag, limit=2, count=True)


def test_all_triangulations_counts():
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    assert len(list(all_triangulations(sq))) == 2
    pent = SimplePolygon([pt(0, 0), pt(4, 0), pt(5, 3), pt(2, 5), pt(-1, 3)])
    assert len(list(all_triangulations(pent))) == 5
    hexg = SimplePolygon([pt(0, 0), pt(4, 0), pt(6, 2), pt(4, 5),
                          pt(0, 5), pt(-2, 2)])
    assert len(list(all_triangulations(hexg))) == 14


def test_localize_produces_local_sketches(hub_instance, square_diag):
    for assign in iter_sketches(hub_instance, square_diag):
        for pocket in square_diag.pockets.values():
            outer = tuple(sorted(square_diag.triangles[pocket.outer_triangle]))
            loc = localize(assign, (pocket.start, pocket.end),
                           square_diag, outer)
            assert is_local_sketch(loc, hub_instance, square_diag,
                                   pocket)


def test_local_sketches_respect_lambda_plus(hub_instance, square_diag):
    pocket = square_diag.pockets[(1, 3)]
    lp = lambda_plus((1, 3), hub_instance, square_diag)
    outer = set(square_diag.triangles[pocket.outer_triangle])
    seen = 0
    for loc in enumerate_local_sketches(hub_instance, square_diag, pocket):
        seen += 1
        assert is_local_sketch(loc, hub_instance, square_diag, pocket)
        for v, s in loc.items():
            assert set(s) & outer <= set(lp[v])
    assert seen > 0


def test_random_instance_valid():
    rng = random.Random(7)
    for _ in range(30):
        inst = random_instance(rng, t=rng.randint(3, 8),
                               extra=rng.randint(0, 4),
                               extra_edges=rng.randint(0, 3))
        assert validate_instance(inst) == []


def test_random_universal_instance_passes_conditions():
    from polyext.conditions import check_universality
    rng = random.Random(11)
    for _ in range(20):
        inst = random_universal_instance(rng, t=rng.randint(3, 7),
                                         extra=rng.randint(0, 3))
        assert check_universality(inst).universal


def test_random_polygon_and_triangulation():
    rng = random.Random(3)
    for _ in range(15):
        poly = random_polygon(rng, t=rng.randint(3, 9))
        from polyext.geometry import signed_area2
        assert signed_area2(poly.points) > 0
        tri = random_triangulation(rng, poly)
        assert len(tri.triangles) == len(poly.points) - 2


def test_random_plane_instance_valid():
    from polyext.model import validate_plane_instance
    rng = random.Random(5)
    for _ in range(15):
        pl = random_plane_instance(rng, t=rng.randint(3, 6),
                                   extra=rng.randint(0, 3))
        assert validate_plane_instance(pl) == []

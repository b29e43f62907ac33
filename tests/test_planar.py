import random

import pytest

from polyext.geometry import SimplePolygon, pt, point_in_polygon, OUTSIDE
from polyext.model import Instance, PlaneInstance, validate_plane_instance
from polyext.jsonio import load, plane_instance_from_json
from polyext.triangulation import ear_clip, root_dual
from polyext.oracle import random_plane_instance, random_polygon
from polyext.planar import (minimize, accommodate, validate_planar,
                            NotSketchableError, ContractedEdge,
                            StrippedTriangle)
from polyext.sketch import validate_respecting

from conftest import fixture_path, suite_seed


def wheel_plane(t):
    edges = [(i, (i + 1) % t) for i in range(t)] + [(i, t) for i in range(t)]
    rot = {i: [(i + 1) % t, t, (i - 1) % t] for i in range(t)}
    rot[t] = list(range(t))
    inst = Instance(n=t + 1, edges=edges, cycle=list(range(t)))
    return PlaneInstance(inst, rot)


def square_pair_plane():
    return plane_instance_from_json(
        load(fixture_path("square_pair_plane_instance.json")))


def test_minimize_wheel():
    plane = wheel_plane(4)
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    tri = root_dual(ear_clip(sq))
    minimal, journal = minimize(plane, tri)
    # hub contracted away: everything left sits on the cycle
    assert minimal.instance.n == 4
    assert set(minimal.instance.cycle) == set(range(minimal.instance.n))
    tri_edges = {tuple(sorted(((i) % 4, (i + 1) % 4))) for i in range(4)}
    tri_edges |= {tuple(sorted(d)) for d in tri.diagonals}
    assert {tuple(sorted(e)) for e in minimal.instance.edges} == tri_edges
    assert any(isinstance(s, ContractedEdge) for s in journal)


def test_minimize_square_pair():
    plane = square_pair_plane()
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    tri = root_dual(ear_clip(sq))
    minimal, journal = minimize(plane, tri)
    assert set(minimal.instance.cycle) == set(range(minimal.instance.n))
    tri_edges = {tuple(sorted((i, (i + 1) % 4))) for i in range(4)}
    tri_edges |= {tuple(sorted(d)) for d in tri.diagonals}
    assert {tuple(sorted(e)) for e in minimal.instance.edges} == tri_edges


def test_accommodate_square_pair():
    plane = square_pair_plane()
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    d = accommodate(plane, sq)
    assert validate_planar(d, plane.instance)
    assert validate_respecting(d, plane.instance, sq).ok
    for v in range(plane.instance.n):
        assert point_in_polygon(d.positions[v], sq) != OUTSIDE


def test_accommodate_wheel_various_polygons():
    # the six-spoke wheel is not universal (three alternating depth-1 anchors
    # pin the hub), so a five-spoke wheel is used
    plane = wheel_plane(5)
    pent = SimplePolygon([pt(0, 0), pt(4, 0), pt(5, 3), pt(2, 5), pt(-1, 3)])
    nonconvex = SimplePolygon([pt(0, 0), pt(6, 0), pt(6, 4), pt(3, 1),
                               pt(0, 4)])
    for poly in (pent, nonconvex):
        d = accommodate(plane, poly)
        assert validate_planar(d, plane.instance)
        assert validate_respecting(d, plane.instance, poly).ok


def test_not_sketchable_raises():
    # C4 plus a chord between opposite cycle vertices: no triangulation of a
    # square supports the chord
    inst = Instance(n=4, edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
                    cycle=[0, 1, 2, 3])
    plane = PlaneInstance(inst, {0: [1, 2, 3], 1: [2, 0], 2: [3, 0, 1],
                                 3: [0, 2]})
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    tri = root_dual(ear_clip(sq))
    with pytest.raises(NotSketchableError):
        minimize(plane, tri)
    with pytest.raises(NotSketchableError):
        accommodate(plane, sq)


def test_random_suite():
    rng = random.Random(suite_seed())
    done = 0
    skipped = 0
    for _ in range(30):
        t = rng.randint(3, 6)
        plane = random_plane_instance(rng, t=t, extra=rng.randint(0, 3))
        poly = random_polygon(rng, t)
        try:
            d = accommodate(plane, poly)
        except NotSketchableError:
            skipped += 1
            continue
        done += 1
        assert validate_planar(d, plane.instance)
        assert validate_respecting(d, plane.instance, poly).ok
    assert done >= 15


def test_sketch_failure_is_not_a_verdict(monkeypatch):
    # a crash in the sketch route must surface, not read as "not sketchable"
    import polyext.planar as planar

    def broken(inst, tri):
        raise RuntimeError("sketch route crashed")

    monkeypatch.setattr(planar, "sketch_linear", broken)
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    with pytest.raises(RuntimeError, match="sketch route crashed"):
        minimize(square_pair_plane(), root_dual(ear_clip(sq)))

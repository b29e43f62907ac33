import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

import polyext.planar as planar
from polyext.geometry import (Point2, SimplePolygon, angular_cmp, pt,
                              point_in_ring, primitive_direction, OUTSIDE)
from polyext.model import Instance, PlaneInstance, validate_plane_instance
from polyext.conditions import check_universality
from polyext.jsonio import (dumps, drawing_to_json, load,
                            plane_instance_from_json, polygon_from_json)
from polyext.triangulation import ear_clip, root_dual
from polyext.oracle import random_plane_instance, random_polygon
from polyext.planar import (minimize, accommodate, validate_planar,
                            NotSketchableError, PlanarError, ContractedEdge,
                            StrippedTriangle)
from polyext.sketch import Drawing, validate_respecting

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


def assert_golden(drawing, name):
    # drawings recorded from the split points replay computes; each one
    # passes `polyext verify --planar`
    with open(fixture_path(f"planar_golden_{name}.json")) as fh:
        assert dumps(drawing_to_json(drawing)) == fh.read()


def assert_keeps_rotation(drawing, plane):
    # every vertex of degree >= 3 sees its neighbours in the exact ccw
    # angular order of its rotation, up to a cyclic shift
    pos = drawing.positions
    for u, ns in plane.rotation.items():
        if len(ns) < 3:
            continue
        dirs = {w: primitive_direction(pos[w] - pos[u]) for w in ns}
        drawn = sorted(ns, key=cmp_to_key(
            lambda a, b: angular_cmp(dirs[a], dirs[b])))
        k = drawn.index(ns[0])
        assert drawn[k:] + drawn[:k] == list(ns), f"vertex {u}"


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
        assert point_in_ring(d.positions[v], sq.points) != OUTSIDE
    assert_golden(d, "square_pair")


def test_accommodate_wheel_various_polygons():
    # the six-spoke wheel is not universal (three alternating depth-1 anchors
    # pin the hub), so a five-spoke wheel is used
    plane = wheel_plane(5)
    pent = SimplePolygon([pt(0, 0), pt(4, 0), pt(5, 3), pt(2, 5), pt(-1, 3)])
    nonconvex = SimplePolygon([pt(0, 0), pt(6, 0), pt(6, 4), pt(3, 1),
                               pt(0, 4)])
    for poly, name in ((pent, "wheel5_pentagon"),
                       (nonconvex, "wheel5_nonconvex")):
        d = accommodate(plane, poly)
        assert validate_planar(d, plane.instance)
        assert validate_respecting(d, plane.instance, poly).ok
        assert_golden(d, name)


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
        assert_keeps_rotation(d, plane)
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


def test_local_check_matches_full_check(monkeypatch):
    # each split point is tested on top of a valid drawing (the minimal
    # one, or one accepted before), so the link-kernel verdict must equal
    # the full verdict on the instance before the contraction.  Replay tests
    # one point per split, which the kernel always accepts, so the points
    # 2^j times as far from z along the same direction are tested too, until
    # they leave the kernel.  Strip steps replay nested accommodate calls
    # into their own triangle, so the polygon and step are tracked per frame.
    seen, polygons, steps = [], [], []
    kernel, replay, undo = (planar._in_link_kernel, planar._replay,
                            planar._undo_contraction)

    def spy_replay(minimal, journal, polygon, *args):
        polygons.append(polygon)
        try:
            return replay(minimal, journal, polygon, *args)
        finally:
            polygons.pop()

    def spy_undo(step, *args):
        steps.append(step)
        try:
            return undo(step, *args)
        finally:
            steps.pop()

    def verdicts(pos, v, link):
        inst = steps[-1].snapshot.instance
        d = Drawing(positions=dict(pos))
        full = (validate_planar(d, inst)
                and validate_respecting(d, inst, polygons[-1]).ok)
        return kernel(pos, v, link), full

    def spy_kernel(pos, v, link):
        zp = pos[steps[-1].z]
        step_out = pos[v] - zp
        for j in range(1, 9):
            farther = dict(pos)
            farther[v] = zp + step_out.scale(2 ** j)
            seen.append(verdicts(farther, v, link))
        verdict, full = verdicts(pos, v, link)
        seen.append((verdict, full))
        return verdict

    monkeypatch.setattr(planar, "_replay", spy_replay)
    monkeypatch.setattr(planar, "_undo_contraction", spy_undo)
    monkeypatch.setattr(planar, "_in_link_kernel", spy_kernel)
    rng = random.Random(suite_seed())
    done = 0
    for _ in range(400):
        t = rng.randint(3, 5)
        plane = random_plane_instance(rng, t=t, extra=rng.randint(0, 2))
        poly = random_polygon(rng, t)
        try:
            accommodate(plane, poly)
        except NotSketchableError:
            continue
        done += 1
        if done == 100:
            break
    assert done == 100
    assert {verdict for verdict, _ in seen} == {True, False}
    assert all(verdict == full for verdict, full in seen)


def test_split_candidates_take_no_segment_tests(monkeypatch):
    # a split candidate costs deg(v) orientation tests; crossing and
    # on-segment tests run only in the final validate_planar
    splitting, calls = [], []
    undo = planar._undo_contraction

    def spy_undo(*args):
        splitting.append(True)
        try:
            return undo(*args)
        finally:
            splitting.pop()

    def recording(name):
        test = getattr(planar, name)

        def record(*args):
            if splitting:
                calls.append(name)
            return test(*args)
        return record

    monkeypatch.setattr(planar, "_undo_contraction", spy_undo)
    for name in ("segments_properly_cross", "point_on_segment"):
        monkeypatch.setattr(planar, name, recording(name))
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    for plane in (square_pair_plane(), square_cycle_plane()):
        accommodate(plane, sq)
    assert calls == []


NOTCHED = SimplePolygon([pt(0, 0), pt(6, 0), pt(6, 4), pt(3, 1), pt(0, 4)])
# the notched pentagon cut by the diagonals (0, 3) and (1, 3); vertex 5 is
# split into the face (0, 1, 3), so its ccw link is [0, 1, 3]
NOTCH_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 3), (1, 3),
               (0, 5), (1, 5), (3, 5)]
HALF = Fraction(1, 2)


@pytest.mark.parametrize("placed, ok", [
    ((3, HALF), True),
    ((3, 0), False),
    # in the face (1, 2, 3): the edge 5-0 crosses the diagonal (1, 3)
    ((5, 1), False),
    # in the notch, outside the polygon
    ((3, 3), False),
    ((3, 1), False),
    # the edge 5-0 runs through vertex 3
    ((Fraction(9, 2), Fraction(3, 2)), False),
], ids=["control", "vertex-on-old-edge", "edge-crosses-old-edge",
        "edge-leaves-polygon", "coincides-with-old-vertex",
        "edge-through-old-vertex"])
def test_local_check_rejects_planted_faults(placed, ok):
    # replay never moves a pinned cycle vertex; a drawing with one off its
    # pin is refused by the final check (test_sketch.py's
    # test_validate_respecting_failures)
    pos = dict(enumerate(NOTCHED.points))
    pos[5] = pt(*placed)
    inst = Instance(n=6, edges=NOTCH_EDGES, cycle=[0, 1, 2, 3, 4])
    assert planar._in_link_kernel(pos, 5, [0, 1, 3]) is ok
    d = Drawing(positions=pos)
    assert (validate_planar(d, inst)
            and validate_respecting(d, inst, NOTCHED).ok) is ok


def test_replay_checks_in_full_once(monkeypatch):
    # only the final check of each replay is a full one; no journal step
    # takes one.  Strip steps replay nested accommodate calls, so
    # each _replay call counts on its own frame.
    frames, replays = [], []
    replay = planar._replay

    def count_replay(*args):
        frames.append({"validate_planar": 0, "validate_respecting": 0})
        try:
            return replay(*args)
        finally:
            replays.append(frames.pop())

    def counting(name):
        full = getattr(planar, name)

        def count_full(*args):
            frames[-1][name] += 1
            return full(*args)
        return count_full

    monkeypatch.setattr(planar, "_replay", count_replay)
    for name in ("validate_planar", "validate_respecting"):
        monkeypatch.setattr(planar, name, counting(name))
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    accommodate(square_pair_plane(), sq)
    assert replays
    assert all(n <= 1 for counts in replays for n in counts.values())


def test_final_check_guards_the_output(monkeypatch):
    # with the link-kernel test accepting anything, a split that lands on
    # its own vertex must still be refused by the final check
    undo = planar._undo_contraction
    plane = square_pair_plane()
    misplaced = []

    def misplace(step, pos, eps):
        new_pos = undo(step, pos, eps)
        if step.snapshot.instance.n == plane.instance.n:
            # the last contraction replayed (the first one made)
            new_pos[step.v] = new_pos[step.z]
            misplaced.append(step)
        return new_pos

    monkeypatch.setattr(planar, "_in_link_kernel", lambda *args: True)
    monkeypatch.setattr(planar, "_undo_contraction", misplace)
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    with pytest.raises(PlanarError, match="final drawing not planar"):
        accommodate(plane, sq)
    assert misplaced


def square_cycle_plane():
    inst = Instance(n=4, edges=[(0, 1), (1, 2), (2, 3), (0, 3)],
                    cycle=[0, 1, 2, 3])
    return PlaneInstance(inst, {i: [(i - 1) % 4, (i + 1) % 4]
                                for i in range(4)})


def test_refused_chord_leaves_the_surgeon_untouched():
    # the square's triangulation has the diagonal (1, 3), so a chord (0, 2)
    # has no sketch and must be refused before any surgery
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    tri = root_dual(ear_clip(sq))
    assert tri.diagonals == [(1, 3)]
    s = planar.PlaneSurgeon(square_cycle_plane())
    face = s.interior_faces()[0]
    edges, rot = set(s.edges), {v: list(ns) for v, ns in s.rot.items()}
    assert not planar._add_if_sketchable(s, face, 0, 2, tri)
    assert (s.edges, s.rot) == (edges, rot)
    assert planar._add_if_sketchable(s, face, 1, 3, tri)
    assert s.edges == edges | {(1, 3)}


def test_strip_interior_off_its_triangle_raises(monkeypatch):
    # the bare square strips a separating triangle; a re-inserted interior
    # vertex moved onto its triangle's side must be refused at once
    nested = accommodate

    def onto_side(sub, tri_poly):
        d = nested(sub, tri_poly)
        a, b = tri_poly.points[:2]
        d.positions[3] = Point2((a.x + b.x) / 2, (a.y + b.y) / 2)
        return d

    monkeypatch.setattr(planar, "accommodate", onto_side)
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    assert any(isinstance(step, StrippedTriangle)
               for step in minimize(square_cycle_plane(),
                                    root_dual(ear_clip(sq)))[1])
    with pytest.raises(PlanarError,
                       match="re-inserted interior leaves its triangle"):
        nested(square_cycle_plane(), sq)


def test_surgery_failure_is_not_a_refused_chord(monkeypatch):
    # augmenting the bare square adds chords; a crash while adding one must
    # surface, not read as "no sketch-preserving diagonal"
    def broken(self, face, su, sv):
        raise ValueError("boom")

    monkeypatch.setattr(planar.PlaneSurgeon, "add_edge_in_face", broken)
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    with pytest.raises(ValueError, match="boom"):
        minimize(square_cycle_plane(), root_dual(ear_clip(sq)))


def test_replay_runs_once(monkeypatch):
    # with the kernel test refusing everything, the first contraction undone
    # raises on its one split point; the journal is not replayed again at a
    # smaller epsilon
    replays = []
    replay = planar._replay

    def count_replay(*args):
        replays.append(args)
        return replay(*args)

    monkeypatch.setattr(planar, "_replay", count_replay)
    monkeypatch.setattr(planar, "_in_link_kernel", lambda *args: False)
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    with pytest.raises(PlanarError, match="left its link kernel"):
        accommodate(wheel_plane(4), sq)
    assert len(replays) == 1


def square_with(edges, rotation, n):
    """The bare square cycle plus a stray part on vertices 4..n-1."""
    plane = square_cycle_plane()
    rot = dict(plane.rotation)
    rot.update(rotation)
    inst = Instance(n=n, edges=plane.instance.edges + edges,
                    cycle=plane.instance.cycle)
    return PlaneInstance(inst, rot)


@pytest.mark.parametrize("edges, rotation, n", [
    ([], {4: []}, 5),
    ([(4, 5)], {4: [5], 5: [4]}, 6),
    ([(4, 5), (5, 6), (4, 6)], {4: [5, 6], 5: [6, 4], 6: [4, 5]}, 7),
    ([(4, 5), (5, 6), (4, 6)], {4: [6, 5], 5: [4, 6], 6: [5, 4]}, 7),
    ([(4, 5), (5, 6)], {4: [5], 5: [4, 6], 6: [5]}, 7),
], ids=["isolated-vertex", "stray-edge", "stray-triangle-ccw",
        "stray-triangle-cw", "stray-path"])
def test_stray_parts_are_connected_and_drawn(edges, rotation, n):
    plane = square_with(edges, rotation, n)
    assert validate_plane_instance(plane) == []
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    tri = root_dual(ear_clip(sq))
    s = planar.PlaneSurgeon(plane)
    edges = set(s.edges)
    planar._connect_components(s)
    # the stray part is joined through its smallest vertex, to the first
    # vertex of an interior face of the main part
    assert s.edges - edges == {(0, 4)}
    d = accommodate(plane, sq, tri)
    assert validate_planar(d, plane.instance)
    assert validate_respecting(d, plane.instance, sq).ok


def oracle_draw(seed, index):
    """Draw `index` (0-based) of the seeded random_plane_instance loop."""
    rng = random.Random(seed)
    for _ in range(index + 1):
        t = rng.randint(3, 12)
        plane = random_plane_instance(rng, t=t, extra=rng.randint(0, 12))
        poly = random_polygon(rng, t)
    return plane, poly


def sliver_fixture():
    plane = plane_instance_from_json(
        load(fixture_path("split_sliver_plane_instance.json")))
    poly = polygon_from_json(load(fixture_path("split_sliver_polygon.json")))
    # the instance passes both distance conditions
    assert check_universality(plane.instance).universal
    return plane, poly


@pytest.mark.parametrize("case", [
    sliver_fixture,
    lambda: oracle_draw(101, 16),
    lambda: oracle_draw(101, 225),
    lambda: oracle_draw(101, 296),
    lambda: oracle_draw(202, 267),
], ids=["fixture", "seed101-draw16", "seed101-draw225", "seed101-draw296",
        "seed202-draw267"])
def test_split_sliver_instance_draws(case):
    # on these inputs (n = 13 to 24) an earlier split leaves a thin sliver
    # that a later split must land in, such as the one between v->2 and
    # v->13 on the fixture; the kernel bound puts the split point there
    plane, poly = case()
    d = accommodate(plane, poly)
    assert validate_planar(d, plane.instance)
    assert validate_respecting(d, plane.instance, poly).ok
    assert_keeps_rotation(d, plane)

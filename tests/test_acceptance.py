"""End-to-end acceptance gate.

Each test covers one acceptance criterion at its stated size and prints a
single pass line; any assertion failure marks the criterion failed.  Seeded
through POLYEXT_SEED (see conftest.suite_seed) so the whole gate is
reproducible.
"""
import itertools
import random
import time

import pytest

from polyext.geometry import (SimplePolygon, pt, Point2, point_in_ring,
                              OUTSIDE)
from polyext.model import Instance
from polyext.conditions import (check_pair, check_triple, check_universality,
                                PairViolation, TripleViolation)
from polyext.sketch import (sketch_linear, realize, validate_respecting,
                            SweepStats)
from polyext.triangulation import ear_clip, root_dual
from polyext.visibility import link_distance
from polyext.witness import build_witness, verify_witness, _spiral_ring
from polyext.planar import (minimize, accommodate, validate_planar,
                            NotSketchableError)
from polyext.oracle import (delta, lambda_plus, enumerate_sketches,
                            iter_sketches, localize, is_local_sketch,
                            enumerate_local_sketches, all_triangulations,
                            random_instance, random_universal_instance,
                            random_polygon, random_triangulation,
                            random_plane_instance, link_distance_pointwise)
from polyext.jsonio import load, instance_from_json, polygon_from_json
from polyext.cli import main as cli_main, EXIT_POSITIVE

from conftest import fixture_path, suite_seed


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def _tight_triple_instance(depths):
    """Cycle of length 2*(d1+d2+d3) whose hub hangs at depth d_i below three
    anchors; passes the pair condition and violates the triple condition."""
    d1, d2, d3 = depths
    t = 2 * (d1 + d2 + d3)
    edges = [(i, (i + 1) % t) for i in range(t)]
    hub = t
    nxt = t + 1
    anchors = [0, d1 + d2, d1 + 2 * d2 + d3]
    for pos, d in zip(anchors, (d1, d2, d3)):
        prev = pos
        for _ in range(d - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, hub))
    return Instance(n=nxt, edges=edges, cycle=list(range(t)))


def test_criterion_1_oracle_equivalence():
    rng = random.Random(suite_seed() + 1)
    start = time.time()
    for trial in range(1000):
        t = rng.randint(3, 8)
        extra = rng.randint(0, min(4, 12 - t))
        inst = random_instance(rng, t=t, extra=extra,
                               extra_edges=rng.randint(0, 3))
        assert inst.n <= 12
        poly = random_polygon(rng, t)
        tri = random_triangulation(rng, poly)
        assert (delta(inst, tri) is not None) == \
            bool(enumerate_sketches(inst, tri)), (trial, inst)
    elapsed = time.time() - start
    assert elapsed < 60
    _report(1, f"1000 triples, delta == exhaustive search, {elapsed:.1f}s")


def test_criterion_2_linear_table():
    rng = random.Random(suite_seed() + 2)
    # pointwise agreement on random suite inputs
    for _ in range(300):
        t = rng.randint(3, 8)
        inst = random_instance(rng, t=t, extra=rng.randint(0, 5),
                               extra_edges=rng.randint(0, 3))
        poly = random_polygon(rng, t)
        tri = random_triangulation(rng, poly)
        assert sketch_linear(inst, tri) == delta(inst, tri)
    # operation counts on a path family grow linearly
    sq = SimplePolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    tri = root_dual(ear_clip(sq))
    sizes = [10 ** 3, 10 ** 4, 10 ** 5]
    counts = []
    largest_time = None
    for n in sizes:
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)]
        edges += [(i, i + 1) for i in range(4, n - 1)]
        inst = Instance(n=n, edges=edges, cycle=[0, 1, 2, 3])
        stats = SweepStats()
        start = time.time()
        assert sketch_linear(inst, tri, stats=stats) is not None
        largest_time = time.time() - start
        counts.append(stats.ops)
    assert largest_time < 30
    # least-squares fit ops ~ a*n + b; every point within 1.3x of the fit
    xs, ys = sizes, counts
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx, sxy = sum(x * x for x in xs), sum(x * y for x, y in zip(xs, ys))
    a = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    b = (sy - a * sx) / n
    for x, y in zip(xs, ys):
        fit = a * x + b
        assert fit > 0
        assert max(y / fit, fit / y) <= 1.3, (x, y, fit)
    _report(2, f"table == reference on 300 inputs; op counts {counts} "
               f"linear within 1.3x, largest size {largest_time:.2f}s")


def test_criterion_3_sufficiency():
    rng = random.Random(suite_seed() + 3)
    instances = 0
    runs = 0
    while instances < 500:
        t = rng.randint(3, 7)
        inst = random_universal_instance(rng, t=t, extra=rng.randint(0, 3))
        instances += 1
        for _ in range(5):
            poly = random_polygon(rng, t)
            tri = random_triangulation(rng, poly)
            assign = sketch_linear(inst, tri)
            assert assign is not None, (inst, poly)
            d = realize(assign, tri)
            assert validate_respecting(d, inst, poly, tri).ok, (inst, poly)
            runs += 1
    _report(3, f"{instances} condition-passing instances x 5 "
               f"polygons: sketch defined and realized in all {runs} runs")


def test_criterion_4_necessity():
    rng = random.Random(suite_seed() + 4)
    count = 0
    exhaustive = 0
    kinds = {"pair": 0, "triple": 0}
    # constructed tight-triple instances guarantee triple coverage
    queue = [_tight_triple_instance(d)
             for d in itertools.product((1, 2), repeat=3)]
    while count < 200:
        if queue:
            inst = queue.pop()
        else:
            t = rng.randint(4, 10)
            inst = random_instance(rng, t=t, extra=rng.randint(0, 4),
                                   extra_edges=rng.randint(0, 3))
        res = check_universality(inst)
        if res.universal:
            continue
        count += 1
        kinds["pair" if isinstance(res.violation, PairViolation)
              else "triple"] += 1
        w = build_witness(inst, res.violation)
        assert verify_witness(w.polygon, inst, res.violation), inst
        if inst.t <= 10 and exhaustive < 40:
            exhaustive += 1
            for tri in all_triangulations(w.polygon):
                assert delta(inst, root_dual(tri)) is None, inst
    _report(4, f"{count} failing instances ({kinds['pair']} pair, "
               f"{kinds['triple']} triple) all verified; {exhaustive} "
               f"witnesses exhaustively checked over every triangulation")


def test_criterion_5_well_behavedness():
    rng = random.Random(suite_seed() + 5)
    fixtures = 0
    sketches_localized = 0
    locals_checked = 0
    while fixtures < 100:
        t = rng.randint(3, 5)
        inst = random_instance(rng, t=t, extra=rng.randint(0, 2),
                               extra_edges=rng.randint(0, 2))
        poly = random_polygon(rng, t)
        tri = random_triangulation(rng, poly)
        fixtures += 1
        for pocket in tri.pockets.values():
            outer = tuple(sorted(tri.triangles[pocket.outer_triangle]))
            outer_set = set(outer)
            lp = lambda_plus(pocket.edge, inst, tri)
            for loc in enumerate_local_sketches(inst, tri, pocket,
                                                limit=200_000):
                locals_checked += 1
                assert lp is not None, (inst, pocket.edge)
                for v, s in loc.items():
                    assert set(s) & outer_set <= set(lp[v]), (inst, v)
        for assign in iter_sketches(inst, tri, limit=200_000):
            for pocket in tri.pockets.values():
                outer = tuple(sorted(tri.triangles[pocket.outer_triangle]))
                loc = localize(assign, (pocket.start, pocket.end), tri, outer)
                assert is_local_sketch(loc, inst, tri, pocket)
                sketches_localized += 1
    _report(5, f"{fixtures} fixtures: {locals_checked} local sketches inside "
               f"lambda-plus, {sketches_localized} localizations valid")


def test_criterion_6_pair_implies_pocket_sketches():
    rng = random.Random(suite_seed() + 6)
    instances = 0
    pockets = 0
    while instances < 150:
        t = rng.randint(3, 6)
        inst = random_instance(rng, t=t, extra=rng.randint(0, 3),
                               extra_edges=rng.randint(0, 2))
        if check_pair(inst) is not None:
            continue
        instances += 1
        poly = random_polygon(rng, t)
        tri = random_triangulation(rng, poly)
        for pocket in tri.pockets.values():
            found = next(iter(enumerate_local_sketches(inst, tri, pocket,
                                                       limit=500_000)), None)
            assert found is not None, (inst, pocket.edge)
            pockets += 1
    _report(6, f"{instances} pair-passing instances: all {pockets} pockets "
               f"sketchable")


def test_criterion_7_planar_pipeline():
    rng = random.Random(suite_seed() + 7)
    done = 0
    while done < 200:
        t = rng.randint(3, 6)
        plane = random_plane_instance(rng, t=t, extra=rng.randint(0, 3))
        poly = random_polygon(rng, t)
        tri = root_dual(ear_clip(poly))
        try:
            minimal, _ = minimize(plane, tri)
        except NotSketchableError:
            continue
        # minimal: every vertex on the cycle, edges == triangulation edges
        mi = minimal.instance
        assert set(mi.cycle) == set(range(mi.n)), plane
        want = {tuple(sorted((i, (i + 1) % t))) for i in range(t)}
        want |= {tuple(sorted(d)) for d in tri.diagonals}
        assert {tuple(sorted(e)) for e in mi.edges} == want, plane
        d = accommodate(plane, poly, tri)
        assert validate_planar(d, plane.instance), plane
        assert validate_respecting(d, plane.instance, poly).ok, plane
        for v in range(plane.instance.n):
            assert point_in_ring(d.positions[v], poly.points) != OUTSIDE
        done += 1
    # the stored crossing-pair fixture yields a planar perturbed drawing
    from polyext.jsonio import plane_instance_from_json
    plane = plane_instance_from_json(
        load(fixture_path("square_pair_plane_instance.json")))
    sq = polygon_from_json(load(fixture_path("square_polygon.json")))
    d = accommodate(plane, sq)
    assert validate_planar(d, plane.instance)
    assert validate_respecting(d, plane.instance, sq).ok
    _report(7, f"{done} sketchable plane instances accommodated; minimal "
               f"instances canonical; stored square fixture planar")


def test_criterion_8_drawable_without_any_triangulation(capsys):
    inst = instance_from_json(load(fixture_path("two_spikes_instance.json")))
    poly = polygon_from_json(load(fixture_path("two_spikes_polygon.json")))
    rc = cli_main(["verify", fixture_path("two_spikes_drawing.json"),
                   fixture_path("two_spikes_instance.json"),
                   fixture_path("two_spikes_polygon.json")])
    capsys.readouterr()
    assert rc == EXIT_POSITIVE
    tris = 0
    for tri in all_triangulations(poly):
        tris += 1
        assert delta(inst, root_dual(tri)) is None
    assert tris > 0
    with capsys.disabled():
        _report(8, f"stored drawing verifies while delta is undefined on all "
                   f"{tris} triangulations")


def test_criterion_9_link_engine():
    rng = random.Random(suite_seed() + 9)
    # pointwise agreement on every shipped polygon fixture plus random ones
    polys = [
        polygon_from_json(load(fixture_path("square_polygon.json"))),
        polygon_from_json(load(fixture_path("two_spikes_polygon.json"))),
    ]
    polys += [random_polygon(rng, rng.randint(3, 8)) for _ in range(20)]
    checked = 0
    for poly in polys:
        pts = list(poly.points)
        for a in pts[: 4]:
            for b in pts[-4:]:
                assert link_distance(poly, a, b) == \
                    link_distance_pointwise(poly, a, b)
                checked += 1
    # convex polygons always report 1
    for _ in range(10):
        t = rng.randint(3, 8)
        while True:
            poly = random_polygon(rng, t)
            pts = poly.points
            from polyext.geometry import orient
            if all(orient(pts[i - 1], pts[i], pts[(i + 1) % t]) > 0
                   for i in range(t)):
                break
        for i in range(t):
            for j in range(i + 1, t):
                assert link_distance(poly, pts[i], pts[j]) == 1
    # k-turn spirals report k + 1
    for k in range(1, 7):
        outer, inner, core, mouth = _spiral_ring(k)
        poly = SimplePolygon([core] + outer + [mouth] + inner)
        assert link_distance(poly, core, mouth) == k + 1
        assert link_distance_pointwise(poly, core, mouth) == k + 1
    _report(9, f"{checked} pointwise agreements; convex == 1; spirals k+1 "
               f"for k <= 6")

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


# ---------------------------------------------------------------------------
# Simplex records: checked with a triangulation, certificates for edges.
# ---------------------------------------------------------------------------

def _hub_drawing(square_diag, hub_instance, hub_record):
    d = realize(sketch_linear(hub_instance, square_diag), square_diag)
    return Drawing(positions=d.positions, simplex={**d.simplex, 4: hub_record})


@pytest.mark.parametrize("record,position,failure", [
    ((98,), None, "vertex 4 simplex record (98,) is not a simplex of the "
                  "triangulation"),
    ((0, 2), None, "vertex 4 simplex record (0, 2) is not a simplex of the "
                   "triangulation"),
    ((0, 1), None, "vertex 4 lies outside its simplex record"),
    ((1, 3), pt(1, 1), "vertex 4 lies outside its simplex record"),
], ids=["unknown-vertex", "non-edge", "edge-off-position",
        "moved-off-the-edge"])
def test_bad_simplex_record_fails_with_triangulation(
        hub_instance, square_diag, record, position, failure):
    d = _hub_drawing(square_diag, hub_instance, record)
    if position is not None:
        d = Drawing(positions={**d.positions, 4: position}, simplex=d.simplex)
    rep = validate_respecting(d, hub_instance, square_diag.polygon,
                              square_diag)
    assert not rep.ok
    # the record comes first, then whatever the edges fail on their own
    assert rep.failures[0] == failure
    plain = validate_respecting(Drawing(positions=d.positions), hub_instance,
                                square_diag.polygon, square_diag)
    assert rep.failures[1:] == plain.failures
    # without a triangulation the records, read against ear_clip's (here
    # square_diag), only ever accept
    assert validate_respecting(d, hub_instance, square_diag.polygon) == \
        validate_respecting(Drawing(positions=d.positions), hub_instance,
                            square_diag.polygon)


def test_records_on_a_corner_certify_the_edges(hub_instance, square_diag):
    # the hub at (2, 2) lies in both closed triangles, so the other
    # triangle is as good a record as the diagonal
    for record in ((0, 1, 3), (1, 2, 3), (1, 3)):
        d = _hub_drawing(square_diag, hub_instance, record)
        assert validate_respecting(d, hub_instance, square_diag.polygon,
                                   square_diag).ok


def test_default_cover_is_checked_before_it_certifies(l_polygon,
                                                      monkeypatch):
    # without a triangulation the records are read against ear_clip's, and
    # only once it passes validate_triangulation: a "triangulation" whose
    # diagonal (2, 4) leaves the L must not certify the edge along it
    import polyext.sketch as sketch
    from polyext.triangulation import Triangulation
    inst = Instance(n=6, edges=[(i, (i + 1) % 6) for i in range(6)]
                    + [(2, 4)], cycle=list(range(6)))
    d = Drawing(positions=dict(enumerate(l_polygon.points)),
                simplex={v: (v,) for v in range(6)})
    monkeypatch.setattr(sketch, "ear_clip", lambda polygon: Triangulation(
        polygon, [(0, 2), (0, 4), (2, 4)],
        [(0, 1, 2), (0, 2, 4), (2, 3, 4), (0, 4, 5)]))
    assert validate_respecting(d, inst, l_polygon).failures == \
        ("edge (2,4) leaves the polygon",)


def _perturbed(rng, d, inst, poly, table):
    """Copies of drawing d with moved positions, corrupted, removed or
    replaced records."""
    inner = [v for v in range(inst.n) if v not in set(inst.cycle)]
    xs = [int(p.x) for p in poly.points]    # random_polygon's are integers
    ys = [int(p.y) for p in poly.points]

    def somewhere():
        kind = rng.randrange(4)
        if kind == 0:      # anywhere near the polygon, often outside
            return Point2(Fraction(rng.randint(3 * min(xs) - max(xs),
                                               3 * max(xs) - min(xs)), 2),
                          Fraction(rng.randint(3 * min(ys) - max(ys),
                                               3 * max(ys) - min(ys)), 2))
        if kind == 1:      # a polygon corner
            return rng.choice(poly.points)
        if kind == 2:      # another vertex's place
            return d.positions[rng.randrange(inst.n)]
        s = rng.choice(table.all)      # a point of some simplex
        w = [rng.randint(0, 3) for _ in s]
        if not any(w):
            w[0] = 1
        corners = [poly.points[i] for i in s]
        return Point2(sum(wi * c.x for wi, c in zip(w, corners)) / sum(w),
                      sum(wi * c.y for wi, c in zip(w, corners)) / sum(w))

    picks = rng.sample(inner, min(len(inner), rng.randint(1, 3)))
    moved = dict(d.positions)
    for v in picks:
        moved[v] = somewhere()
    yield Drawing(positions=moved, simplex=d.simplex)
    corrupt = dict(d.simplex)
    for v in picks:
        corrupt[v] = rng.choice([(98,), (0, len(poly) // 2),
                                 rng.choice(table.all),
                                 tuple(sorted(rng.sample(range(len(poly)),
                                                         3)))])
    yield Drawing(positions=d.positions, simplex=corrupt)
    yield Drawing(positions=moved, simplex=corrupt)
    yield Drawing(positions=d.positions,
                  simplex={v: s for v, s in d.simplex.items()
                           if v not in picks})


def _record_failure(f):
    return "simplex record" in f


def test_edge_certificates_match_the_geometric_check(rng):
    # the certificate only ever accepts: on drawn, perturbed and corrupted
    # drawings the edge failures equal those of the all-geometric check
    # (the same positions with no records), with and without a triangulation
    from polyext.oracle import (random_instance, random_polygon,
                                random_triangulation)
    drawings = inside = respecting = 0
    while drawings < 150:
        t = rng.randint(4, 9)
        inst = random_instance(rng, t, rng.randint(1, 6),
                               extra_edges=rng.randint(0, 3))
        poly = random_polygon(rng, t)
        tri = random_triangulation(rng, poly)
        other = random_triangulation(rng, poly)
        assign = sketch_linear(inst, tri)
        if assign is None:
            continue
        d = realize(assign, tri)
        foreign = realize(sketch_linear(inst, other) or assign, other)
        # records made on another triangulation: checked against the
        # drawing's own, and the drawing's records against the other one
        cases = [(d, (tri, other)),
                 (Drawing(positions=d.positions, simplex=foreign.simplex),
                  (tri,))]
        cases += [(v, (tri,)) for v in
                  _perturbed(rng, d, inst, poly, SimplexTable(tri))]
        # drawn on ear_clip's triangulation, which the check without a
        # triangulation reads the records against
        ear = root_dual(ear_clip(poly))
        on_ear = sketch_linear(inst, ear)
        if on_ear is not None:
            d = realize(on_ear, ear)
            cases += [(d, (ear, tri))]
            cases += [(v, (ear,)) for v in
                      _perturbed(rng, d, inst, poly, SimplexTable(ear))]
        for v, checks in cases:
            geometric = Drawing(positions=v.positions)
            for check in checks:
                rep = validate_respecting(v, inst, poly, check)
                ref = validate_respecting(geometric, inst, poly, check)
                assert tuple(f for f in rep.failures
                             if not _record_failure(f)) == ref.failures
                assert rep.ok == (ref.ok and not any(
                    _record_failure(f) for f in rep.failures))
                respecting += ref.ok and check is tri
            ref = validate_respecting(geometric, inst, poly)
            assert validate_respecting(v, inst, poly) == ref
            drawings += 1
            inside += ref.ok
    print(f"{drawings} drawings: {inside} inside the polygon, "
          f"{respecting} inside the closed triangles too")
    # both verdicts occur, with and without a triangulation
    assert 0 < respecting < inside < drawings


def test_drawn_drawing_needs_no_containment_test(rng, tmp_path, monkeypatch,
                                                 capsys):
    # a fresh t=28, n=80 drawing verifies, with and without --tri, without
    # a single segment-containment test
    import polyext.geometry as geometry
    from polyext.cli import main
    from polyext.jsonio import (dumps, instance_to_json, polygon_to_json,
                                triangulation_to_json)
    from polyext.oracle import (random_polygon, random_triangulation,
                                random_universal_instance)
    poly = random_polygon(rng, 28)
    docs = {"inst": instance_to_json(random_universal_instance(rng, 28, 52)),
            "poly": polygon_to_json(poly),
            "tri": triangulation_to_json(random_triangulation(rng, poly))}
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(dumps(doc))

    def no_containment(*args):
        raise AssertionError("segment containment test ran")

    monkeypatch.setattr(geometry, "segment_inside_ring", no_containment)
    for tri in ([], ["--tri", paths["tri"]]):
        out = str(tmp_path / "drawing.json")
        assert main(["draw", paths["inst"], paths["poly"], "-o", out]
                    + tri) == 0
        assert main(["verify", out, paths["inst"], paths["poly"]] + tri) == 0
        assert capsys.readouterr().out.endswith('{"status":"valid"}\n')

import json
import os
import random

import pytest

from polyext.cli import (main, EXIT_POSITIVE, EXIT_NEGATIVE, EXIT_INVALID,
                         EXIT_INTERNAL)
from polyext.jsonio import (dumps, instance_to_json, polygon_to_json,
                            plane_instance_to_json, triangulation_to_json,
                            load)
from polyext.geometry import SimplePolygon, pt
from polyext.model import Instance
from polyext.oracle import (random_instance, random_plane_instance,
                            random_polygon)

from conftest import fixture_path, suite_seed


@pytest.fixture
def workdir(tmp_path, hub_instance, unit_square, square_diag):
    paths = {}
    paths["instance"] = str(tmp_path / "instance.json")
    paths["polygon"] = str(tmp_path / "polygon.json")
    paths["tri"] = str(tmp_path / "tri.json")
    with open(paths["instance"], "w") as fh:
        fh.write(dumps(instance_to_json(hub_instance)))
    with open(paths["polygon"], "w") as fh:
        fh.write(dumps(polygon_to_json(unit_square)))
    with open(paths["tri"], "w") as fh:
        fh.write(dumps(triangulation_to_json(square_diag)))
    paths["tmp"] = tmp_path
    return paths


def _chord_instance(tmp_path):
    """A 6-cycle with one antipodal chord (a pair violation), on disk."""
    inst = Instance(n=6,
                    edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                           (0, 3)],
                    cycle=[0, 1, 2, 3, 4, 5])
    p = str(tmp_path / "chord.json")
    with open(p, "w") as fh:
        fh.write(dumps(instance_to_json(inst)))
    return p


def test_check_universal(workdir, capsys):
    assert main(["check", workdir["instance"]]) == EXIT_POSITIVE
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "universal"


def test_check_violation(tmp_path, capsys):
    assert main(["check", _chord_instance(tmp_path)]) == EXIT_NEGATIVE
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "not-universal"
    assert out["violation"]["kind"] == "pair"


def test_check_invalid_input(tmp_path, capsys):
    p = str(tmp_path / "junk.json")
    with open(p, "w") as fh:
        fh.write("{\"n\": 2}")
    assert main(["check", p]) == EXIT_INVALID
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "invalid-input"


@pytest.mark.parametrize("command", ["check", "draw"])
@pytest.mark.parametrize("doc", [
    {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 7]],
     "cycle": [0, 1, 2, 3]},                               # edge out of range
    {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]],
     "cycle": [0, 1, 2, 3]},                               # cycle edge missing
    {"n": 2, "edges": [[0, 1]], "cycle": [0, 1]},          # 2-vertex cycle
], ids=["edge-out-of-range", "cycle-edge-missing", "two-vertex-cycle"])
def test_malformed_instance_is_invalid_input(workdir, tmp_path, capsys,
                                             command, doc):
    p = str(tmp_path / "bad.json")
    with open(p, "w") as fh:
        fh.write(json.dumps(doc))
    argv = ["check", p] if command == "check" else \
        ["draw", p, workdir["polygon"], "-o", str(tmp_path / "d.json")]
    assert main(argv) == EXIT_INVALID
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "invalid-input"
    assert out["error"].startswith("bad instance:")


# The hub instance drawn in the 4x4 square: the hub sits at the centre.
_HUB_POSITIONS = {"0": ["0", "0"], "1": ["4", "0"], "2": ["4", "4"],
                  "3": ["0", "4"], "4": ["2", "2"]}


# A 4-cycle with no chord: universal, so only a schema error can reject it.
_SQUARE = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
           "cycle": [0, 1, 2, 3]}


def _plane_with_neighbour(value):
    """The square-pair plane instance with vertex 1's first rotation
    neighbour (vertex 2) replaced."""
    doc = load(fixture_path("square_pair_plane_instance.json"))
    doc["rotation"]["1"][0] = value
    return doc


@pytest.mark.parametrize("kind,doc", [
    ("polygon", {"points": 5}),
    ("tri", {"diagonals": [[2, 4]], "root": None}),
    ("tri", {"diagonals": [[2, 4]], "root": [1]}),
    ("drawing", {"positions": _HUB_POSITIONS, "simplex": [1]}),
    ("drawing", {"positions": _HUB_POSITIONS,
                 "simplex": {"4": {"kind": "vertex", "id": "x"}}}),
    # Integer fields take JSON integers only: no float, string or boolean
    # is truncated or coerced into a vertex id.
    ("instance", {**_SQUARE, "n": 4.9}),
    ("instance", {**_SQUARE, "n": "4"}),
    ("instance", {**_SQUARE, "edges": [[0, 1.7], [1, 2], [2, 3], [0, 3]]}),
    ("instance", {**_SQUARE, "edges": [[0, True], [1, 2], [2, 3], [0, 3]]}),
    ("instance", {**_SQUARE, "cycle": [0, 1, 2, 3.0]}),
    ("plane", _plane_with_neighbour("2")),
    ("polygon", {"points": [[False, "0"], ["4", "0"], ["4", "4"],
                            ["0", "4"]]}),
    ("tri", {"diagonals": [[1.9, 3]], "root": "ear"}),
    ("tri", {"diagonals": [[2, 4]], "root": True}),
    ("tri", {"diagonals": [[2, 4]], "root": 1.0}),
    ("drawing", {"positions": _HUB_POSITIONS,
                 "simplex": {"4": {"kind": "edge", "id": [2, 4.0]}}}),
    ("drawing", {"positions": _HUB_POSITIONS,
                 "simplex": {"4": {"kind": "edge", "id": [True, 3]}}}),
], ids=["polygon-points-not-a-list", "tri-root-null", "tri-root-list",
        "drawing-simplex-not-an-object", "simplex-id-not-an-int",
        "instance-n-float", "instance-n-string", "instance-edge-float",
        "instance-edge-bool", "instance-cycle-float",
        "rotation-neighbour-string", "polygon-coordinate-bool",
        "tri-diagonal-float", "tri-root-bool", "tri-root-float",
        "simplex-id-float", "simplex-id-bool"])
def test_malformed_document_is_invalid_input(workdir, tmp_path, capsys, kind,
                                             doc):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write(json.dumps(doc))
    out_path = str(tmp_path / "d.json")
    argv = {
        "instance": ["check", bad],
        "plane": ["draw", bad, workdir["polygon"], "--planar",
                  "-o", out_path],
        "polygon": ["draw", workdir["instance"], bad, "-o", out_path],
        "tri": ["draw", workdir["instance"], workdir["polygon"],
                "--tri", bad, "-o", out_path],
        "drawing": ["verify", bad, workdir["instance"], workdir["polygon"]],
    }[kind]
    assert main(argv) == EXIT_INVALID
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "invalid-input"


@pytest.mark.parametrize("where", ["key", "neighbour"])
def test_rotation_naming_unknown_vertex_is_invalid_input(workdir, tmp_path,
                                                        capsys, where):
    doc = load(fixture_path("square_pair_plane_instance.json"))
    if where == "key":
        doc["rotation"]["99"] = [0]
    else:
        doc["rotation"]["0"].append(99)
    p = str(tmp_path / "plane.json")
    with open(p, "w") as fh:
        fh.write(json.dumps(doc))
    rc = main(["draw", p, workdir["polygon"], "--planar",
               "-o", str(tmp_path / "d.json")])
    assert rc == EXIT_INVALID
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "invalid-input"
    assert "unknown vertices" in out["error"]


def test_internal_error_is_not_a_verdict(workdir, monkeypatch, capsys):
    import polyext.cli as cli

    def broken(inst):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "check_universality", broken)
    out_path = str(workdir["tmp"] / "witness.json")
    for argv in (["check", workdir["instance"]],
                 ["witness", workdir["instance"], "-o", out_path]):
        assert main(argv) == EXIT_INTERNAL
        out = json.loads(capsys.readouterr().out)
        assert out == {"status": "internal-error",
                       "error": "RuntimeError: boom"}
    assert not os.path.exists(out_path)


def test_draw_and_verify(workdir, capsys):
    out_path = str(workdir["tmp"] / "drawing.json")
    rc = main(["draw", workdir["instance"], workdir["polygon"],
               "--tri", workdir["tri"], "-o", out_path])
    assert rc == EXIT_POSITIVE
    capsys.readouterr()
    blob = load(out_path)
    # the hub lands on the diagonal's midpoint
    assert blob["positions"]["4"] == ["2/1", "2/1"]
    rc = main(["verify", out_path, workdir["instance"], workdir["polygon"],
               "--tri", workdir["tri"]])
    assert rc == EXIT_POSITIVE
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "valid"


def test_draw_determinism(workdir, capsys):
    a = str(workdir["tmp"] / "a.json")
    b = str(workdir["tmp"] / "b.json")
    for out_path in (a, b):
        main(["draw", workdir["instance"], workdir["polygon"],
              "--tri", workdir["tri"], "-o", out_path])
    capsys.readouterr()
    assert open(a, "rb").read() == open(b, "rb").read()


def test_draw_not_drawable(workdir, tmp_path, capsys):
    inst = Instance(n=4, edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
                    cycle=[0, 1, 2, 3])
    p = str(tmp_path / "chord4.json")
    with open(p, "w") as fh:
        fh.write(dumps(instance_to_json(inst)))
    out_path = str(tmp_path / "never.json")
    rc = main(["draw", p, workdir["polygon"], "--tri", workdir["tri"],
               "-o", out_path])
    assert rc == EXIT_NEGATIVE
    out = json.loads(capsys.readouterr().out)
    assert out["status"].startswith("not-drawable")
    assert not os.path.exists(out_path)


def test_draw_planar_square_pair(workdir, capsys):
    inst_path = fixture_path("square_pair_plane_instance.json")
    out_path = str(workdir["tmp"] / "planar.json")
    rc = main(["draw", inst_path, workdir["polygon"], "--planar",
               "-o", out_path])
    assert rc == EXIT_POSITIVE
    capsys.readouterr()
    rc = main(["verify", out_path, inst_path, workdir["polygon"], "--planar"])
    assert rc == EXIT_POSITIVE


def test_witness_roundtrip(tmp_path, monkeypatch, capsys):
    import polyext.witness as witness

    def not_called(*args):
        raise AssertionError("the CLI re-verified a certified witness")

    monkeypatch.setattr(witness, "verify_witness", not_called)
    p = _chord_instance(tmp_path)
    out_path = str(tmp_path / "witness.json")
    rc = main(["witness", p, "-o", out_path])
    assert rc == EXIT_POSITIVE
    capsys.readouterr()
    assert os.path.exists(out_path)
    assert os.path.exists(out_path + ".note.json")
    # the emitted polygon defeats the drawing: draw must fail on it
    draw_out = str(tmp_path / "no.json")
    rc = main(["draw", p, out_path, "-o", draw_out])
    assert rc == EXIT_NEGATIVE
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["pair", "triple"])
def test_witness_certificate_failure_is_internal(tmp_path, monkeypatch,
                                                 capsys, kind):
    # each spiral is built once: a failed certificate is an internal error,
    # never a retry and never a verdict
    import polyext.witness as witness
    balls = []
    link_ball = witness.link_ball

    def counting_link_ball(*args):
        balls.append(args)
        return link_ball(*args)

    monkeypatch.setattr(witness, "link_ball", counting_link_ball)
    if kind == "pair":
        monkeypatch.setattr(witness, "link_distance", lambda *args: 1)
        instance = _chord_instance(tmp_path)
        error, n_balls = "WitnessError: spiral failed verification", 0
    else:
        monkeypatch.setattr(witness, "triple_intersection_empty",
                            lambda *balls: False)
        instance = _hub_c6_instance(tmp_path)
        error, n_balls = "WitnessError: triple link balls meet", 3
    rc = main(["witness", instance, "-o", str(tmp_path / "witness.json")])
    assert rc == EXIT_INTERNAL
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "internal-error"
    assert out["error"].startswith(error)
    assert len(balls) == n_balls
    assert not os.path.exists(tmp_path / "witness.json")


def test_witness_on_universal_instance(workdir, capsys):
    out_path = str(workdir["tmp"] / "nope.json")
    rc = main(["witness", workdir["instance"], "-o", out_path])
    assert rc == EXIT_NEGATIVE
    capsys.readouterr()


def test_verify_two_spikes_without_triangulation(capsys):
    rc = main(["verify", fixture_path("two_spikes_drawing.json"),
               fixture_path("two_spikes_instance.json"),
               fixture_path("two_spikes_polygon.json")])
    assert rc == EXIT_POSITIVE
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "valid"


def test_verify_rejects_bad_drawing(workdir, tmp_path, capsys):
    out_path = str(workdir["tmp"] / "drawing.json")
    main(["draw", workdir["instance"], workdir["polygon"],
          "--tri", workdir["tri"], "-o", out_path])
    blob = load(out_path)
    blob["positions"]["4"] = ["9/1", "9/1"]    # outside the polygon
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write(dumps(blob))
    rc = main(["verify", bad, workdir["instance"], workdir["polygon"]])
    assert rc == EXIT_NEGATIVE
    capsys.readouterr()


def test_svg_outputs(workdir, tmp_path, capsys):
    out_path = str(workdir["tmp"] / "drawing.json")
    svg_path = str(workdir["tmp"] / "drawing.svg")
    rc = main(["draw", workdir["instance"], workdir["polygon"],
               "--tri", workdir["tri"], "-o", out_path, "--svg", svg_path])
    assert rc == EXIT_POSITIVE
    capsys.readouterr()
    svg = open(svg_path).read()
    assert svg.startswith("<svg") or "<svg" in svg
    assert "polygon" in svg or "path" in svg

    inst = Instance(n=6,
                    edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                           (0, 3)],
                    cycle=[0, 1, 2, 3, 4, 5])
    p = str(tmp_path / "chord.json")
    with open(p, "w") as fh:
        fh.write(dumps(instance_to_json(inst)))
    w_path = str(tmp_path / "w.json")
    w_svg = str(tmp_path / "w.svg")
    rc = main(["witness", p, "-o", w_path, "--svg", w_svg])
    assert rc == EXIT_POSITIVE
    capsys.readouterr()
    assert "<svg" in open(w_svg).read()


def _drawn_with_records(workdir, tmp_path, records):
    """The hub drawing written by draw, with `records` (vertex key ->
    simplex record) written over its simplex records."""
    out_path = str(workdir["tmp"] / "drawing.json")
    main(["draw", workdir["instance"], workdir["polygon"],
          "--tri", workdir["tri"], "-o", out_path])
    blob = load(out_path)
    blob["simplex"].update(records)
    bad = str(tmp_path / "records.json")
    with open(bad, "w") as fh:
        fh.write(dumps(blob))
    return bad


@pytest.mark.parametrize("record,failure", [
    ({"kind": "vertex", "id": 99},
     "vertex 4 simplex record (98,) is not a simplex of the triangulation"),
    ({"kind": "edge", "id": [1, 3]},
     "vertex 4 simplex record (0, 2) is not a simplex of the triangulation"),
    ({"kind": "edge", "id": [1, 2]},
     "vertex 4 lies outside its simplex record"),
], ids=["unknown-polygon-vertex", "non-edge", "point-off-the-edge"])
def test_verify_checks_simplex_records(workdir, tmp_path, capsys, record,
                                       failure):
    bad = _drawn_with_records(workdir, tmp_path, {"4": record})
    capsys.readouterr()
    rc = main(["verify", bad, workdir["instance"], workdir["polygon"],
               "--tri", workdir["tri"]])
    assert rc == EXIT_NEGATIVE
    out = json.loads(capsys.readouterr().out)
    assert out == {"status": "invalid-drawing", "failures": [failure]}
    # without --tri a record is only a shortcut, never a claim
    rc = main(["verify", bad, workdir["instance"], workdir["polygon"]])
    assert rc == EXIT_POSITIVE
    capsys.readouterr()


def test_verify_lists_record_failures_before_edges(workdir, tmp_path,
                                                   capsys):
    bad = _drawn_with_records(workdir, tmp_path,
                              {"4": {"kind": "vertex", "id": 99}})
    blob = load(bad)
    # inside triangle (1, 2, 3), off the diagonal: the edge to corner 0
    # crosses the diagonal
    blob["positions"]["4"] = ["1/1", "7/2"]
    with open(bad, "w") as fh:
        fh.write(dumps(blob))
    capsys.readouterr()
    rc = main(["verify", bad, workdir["instance"], workdir["polygon"],
               "--tri", workdir["tri"]])
    assert rc == EXIT_NEGATIVE
    out = json.loads(capsys.readouterr().out)
    assert out["failures"] == [
        "vertex 4 simplex record (98,) is not a simplex of the triangulation",
        "edge (0,4) not contained in any closed triangle"]


def test_verify_rejects_dangling_simplex_record(workdir, tmp_path, capsys):
    bad = _drawn_with_records(workdir, tmp_path,
                              {"7": {"kind": "vertex", "id": 1}})
    capsys.readouterr()
    for tri in ([], ["--tri", workdir["tri"]]):
        rc = main(["verify", bad, workdir["instance"], workdir["polygon"]]
                  + tri)
        assert rc == EXIT_INVALID
        out = json.loads(capsys.readouterr().out)
        assert out == {"status": "invalid-input", "error": "drawing has "
                       "simplex records for unknown vertices [7]"}


def _hub_c6_instance(tmp_path):
    """C6 plus a hub on three alternating cycle vertices (a triple
    violation at positions 1, 3, 5), on disk."""
    inst = Instance(n=7,
                    edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                           (0, 6), (2, 6), (4, 6)],
                    cycle=[0, 1, 2, 3, 4, 5])
    p = str(tmp_path / "hub_c6.json")
    with open(p, "w") as fh:
        fh.write(dumps(instance_to_json(inst)))
    return p


def test_witness_kind_pair_on_a_triple_violation(tmp_path, capsys):
    # check reports the triple violation (1, 3, 5): witness must not call
    # the instance universal because its pair condition holds
    out_path = str(tmp_path / "witness.json")
    rc = main(["witness", _hub_c6_instance(tmp_path), "-o", out_path,
               "--kind", "pair"])
    assert rc == EXIT_INVALID
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "invalid-input"
    assert "triple condition" in out["error"]
    assert not os.path.exists(out_path)


def test_triple_violator_draws_in_a_convex_hexagon(tmp_path, capsys):
    # universality quantifies over every polygon: a not-universal instance
    # may still be drawable in a given one
    hexagon = SimplePolygon.from_points(
        [pt(2, 0), pt(1, 2), pt(-1, 2), pt(-2, 0), pt(-1, -2), pt(1, -2)])
    poly_path = str(tmp_path / "hexagon.json")
    with open(poly_path, "w") as fh:
        fh.write(dumps(polygon_to_json(hexagon)))
    inst_path = _hub_c6_instance(tmp_path)
    assert main(["check", inst_path]) == EXIT_NEGATIVE
    assert main(["draw", inst_path, poly_path,
                 "-o", str(tmp_path / "drawing.json")]) == EXIT_POSITIVE
    capsys.readouterr()


def test_witness_kind_pair(tmp_path, capsys):
    out_path = str(tmp_path / "witness.json")
    rc = main(["witness", _chord_instance(tmp_path), "-o", out_path,
               "--kind", "pair"])
    assert rc == EXIT_POSITIVE
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "pair"
    assert out["violation"]["kind"] == "pair"
    assert os.path.exists(out_path)


def test_witness_kind_triple_with_svg(tmp_path, capsys):
    out_path = str(tmp_path / "witness.json")
    svg_path = str(tmp_path / "witness.svg")
    rc = main(["witness", _hub_c6_instance(tmp_path), "-o", out_path,
               "--kind", "triple", "--svg", svg_path])
    assert rc == EXIT_POSITIVE
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "triple"
    assert (out["violation"]["i"], out["violation"]["j"],
            out["violation"]["k"]) == (1, 3, 5)
    assert "<svg" in open(svg_path).read()


def test_witness_kind_triple_needs_the_pair_condition(tmp_path, capsys):
    out_path = str(tmp_path / "witness.json")
    rc = main(["witness", _chord_instance(tmp_path), "-o", out_path,
               "--kind", "triple"])
    assert rc == EXIT_INVALID
    out = json.loads(capsys.readouterr().out)
    assert out == {"status": "invalid-input",
                   "error": "triple condition is undefined while the pair "
                            "condition fails"}
    assert not os.path.exists(out_path)


def test_verify_planar_rejects_crossing_drawing(workdir, tmp_path, capsys):
    # both diagonals of the square: inside the polygon, but crossing
    inst = Instance(n=4, edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2),
                                (1, 3)], cycle=[0, 1, 2, 3])
    inst_path = str(tmp_path / "diagonals.json")
    with open(inst_path, "w") as fh:
        fh.write(dumps(instance_to_json(inst)))
    square = load(workdir["polygon"])["points"]
    drawing_path = str(tmp_path / "crossing.json")
    with open(drawing_path, "w") as fh:
        fh.write(dumps({"positions": {str(v): p
                                      for v, p in enumerate(square)}}))
    rc = main(["verify", drawing_path, inst_path, workdir["polygon"]])
    assert rc == EXIT_POSITIVE
    capsys.readouterr()
    rc = main(["verify", drawing_path, inst_path, workdir["polygon"],
               "--planar"])
    assert rc == EXIT_NEGATIVE
    out = json.loads(capsys.readouterr().out)
    assert out == {"status": "invalid-drawing",
                   "failures": ["drawing is not planar"]}


def _random_hub_instance(rng, t):
    """Cycle of even length t plus a hub joined by fresh paths to three
    anchors: with path lengths equal to the depths of a tight triple the
    hub violates the triple condition; one path a step longer misses it."""
    d1 = rng.randint(1, t // 2 - 2)
    d2 = rng.randint(1, t // 2 - 1 - d1)
    depths = [d1, d2, t // 2 - d1 - d2]
    start = rng.randrange(t)
    arcs = [d1 + d2, d2 + depths[2]]
    anchors = [start, (start + arcs[0]) % t, (start + sum(arcs)) % t]
    lengths = list(depths)
    if rng.random() < 0.5:
        lengths[rng.randrange(3)] += 1
    edges = [(p, (p + 1) % t) for p in range(t)]
    hub, n = t, t + 1
    for anchor, length in zip(anchors, lengths):
        prev = hub
        for _ in range(length - 1):
            edges.append((prev, n))
            prev, n = n, n + 1
        edges.append((prev, anchor))
    return Instance(n=n, edges=edges, cycle=list(range(t)))


def test_subcommands_agree_with_check(tmp_path, capsys):
    # one verdict per instance: check decides, draw and witness follow it
    def run(*argv):
        rc = main(list(argv))
        return rc, capsys.readouterr().out

    def write(name, doc):
        path = str(tmp_path / name)
        with open(path, "w") as fh:
            fh.write(dumps(doc))
        return path

    rng = random.Random(suite_seed())
    cases = []
    for _ in range(30):
        t = rng.randint(3, 8)
        cases.append((random_instance(rng, t=t, extra=rng.randint(0, 4),
                                      extra_edges=rng.randint(0, 2)), None))
    for _ in range(20):
        cases.append((_random_hub_instance(rng, rng.choice((6, 8))), None))
    for _ in range(60):
        t = rng.randint(3, 8)
        plane = random_plane_instance(rng, t=t, extra=rng.randint(0, 6))
        cases.append((plane.instance, plane))
    seen = set()
    drawing, spiral = str(tmp_path / "drawing.json"), str(tmp_path / "w.json")
    for inst, plane in cases:
        inst_path = write("instance.json", instance_to_json(inst))
        poly_path = write("polygon.json",
                          polygon_to_json(random_polygon(rng, inst.t)))
        rc, out = run("check", inst_path)
        verdict = json.loads(out)
        witness = run("witness", inst_path, "-o", spiral)
        if rc == EXIT_POSITIVE:
            seen.add("universal")
            assert run("draw", inst_path, poly_path, "-o", drawing)[0] \
                == EXIT_POSITIVE
            assert run("verify", drawing, inst_path, poly_path)[0] \
                == EXIT_POSITIVE
            assert witness == (EXIT_NEGATIVE, dumps(
                {"status": "universal", "note": "no witness exists"}))
            for kind in ("pair", "triple"):
                assert run("witness", inst_path, "-o", spiral,
                           "--kind", kind) == witness
        else:
            assert rc == EXIT_NEGATIVE
            kind = verdict["violation"]["kind"]
            other = {"pair": "triple", "triple": "pair"}[kind]
            seen.add(kind)
            assert witness[0] == EXIT_POSITIVE
            assert json.loads(witness[1])["violation"] == verdict["violation"]
            assert run("witness", inst_path, "-o", spiral,
                       "--kind", kind) == witness
            assert run("witness", inst_path, "-o", spiral,
                       "--kind", other)[0] == EXIT_INVALID
        if plane is not None and rc == EXIT_POSITIVE:
            plane_path = write("plane.json", plane_instance_to_json(plane))
            rc, out = run("draw", plane_path, poly_path, "--planar",
                          "-o", drawing)
            assert rc != EXIT_NEGATIVE
            if rc != EXIT_POSITIVE:
                # the known split defect, ROADMAP item 3: an internal
                # error, never a verdict
                assert rc == EXIT_INTERNAL
                assert "could not split" in json.loads(out)["error"]
    assert seen == {"universal", "pair", "triple"}

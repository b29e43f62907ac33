import json
from fractions import Fraction

import pytest

from polyext.geometry import SimplePolygon, pt, Point2
from polyext.model import Instance, PlaneInstance
from polyext.sketch import Drawing
from polyext.jsonio import (SchemaError, fraction_to_str, fraction_from_str,
                            dumps, instance_to_json, instance_from_json,
                            polygon_to_json, polygon_from_json,
                            triangulation_to_json, triangulation_from_json,
                            plane_instance_to_json, plane_instance_from_json,
                            drawing_to_json, drawing_from_json,
                            witness_note_to_json, witness_note_from_json)

from conftest import fixture_path


def test_fraction_round_trip():
    for f in (Fraction(0), Fraction(3), Fraction(-7, 3), Fraction(22, 7)):
        assert fraction_from_str(fraction_to_str(f)) == f
    assert fraction_to_str(Fraction(4, 2)) == "2/1"
    with pytest.raises(SchemaError):
        fraction_from_str("1/0")
    with pytest.raises(SchemaError):
        fraction_from_str("pi")


def test_dumps_deterministic():
    obj = {"b": 1, "a": [2, {"z": 3, "y": 4}]}
    s = dumps(obj)
    assert s == dumps(json.loads(s))
    assert s.endswith("\n")
    assert json.loads(s) == obj


def test_instance_round_trip(hub_instance):
    blob = instance_to_json(hub_instance)
    back = instance_from_json(json.loads(dumps(blob)))
    assert back.n == hub_instance.n
    assert back.cycle == hub_instance.cycle
    # edge order is normalized on disk
    assert set(back.edges) == {tuple(sorted(e)) for e in hub_instance.edges}
    with pytest.raises(SchemaError):
        instance_from_json({"n": 3})


def test_polygon_round_trip(l_polygon):
    blob = polygon_to_json(l_polygon)
    assert polygon_from_json(blob) == l_polygon


def test_polygon_orientation_normalized(l_polygon):
    blob = polygon_to_json(l_polygon)
    blob["points"].reverse()   # clockwise on disk
    assert polygon_from_json(blob) == l_polygon


def test_triangulation_round_trip(square_diag, unit_square):
    blob = triangulation_to_json(square_diag)
    # diagonals serialized 1-based
    assert blob["diagonals"] == [[2, 4]]
    back = triangulation_from_json(blob, unit_square)
    assert back.diagonals == square_diag.diagonals
    assert back.root == square_diag.root


def test_plane_instance_round_trip(fixture_path=fixture_path):
    from polyext.jsonio import load
    blob = load(fixture_path("square_pair_plane_instance.json"))
    plane = plane_instance_from_json(blob)
    again = plane_instance_from_json(plane_instance_to_json(plane))
    assert again.instance == plane.instance
    assert again.rotation == plane.rotation


def test_drawing_round_trip(hub_instance, square_diag):
    from polyext.oracle import delta
    from polyext.sketch import realize
    d = realize(delta(hub_instance, square_diag), square_diag)
    blob = drawing_to_json(d)
    back = drawing_from_json(blob)
    assert back.positions == d.positions


def test_witness_note_round_trip():
    from polyext.witness import WitnessNote
    note = WitnessNote(kind="pair", anchors={0: 0, 3: 3},
                       certificate={"link_distance": 4})
    back = witness_note_from_json(witness_note_to_json(note))
    assert back == note


def test_bad_polygon_rejected():
    with pytest.raises(SchemaError):
        polygon_from_json({"points": [["0", "0"], ["1", "0"]]})
    with pytest.raises(SchemaError):
        polygon_from_json({"nope": True})

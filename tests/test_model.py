import pytest

from polyext.model import (Instance, validate_instance,
                           graph_distances, cycle_distance, trace_faces,
                           PlaneInstance, validate_plane_instance,
                           orient_plane_instance, EmbeddingError,
                           mirror_rotation, components)


def c_n(t):
    return Instance(n=t, edges=[(i, (i + 1) % t) for i in range(t)],
                    cycle=list(range(t)))


def test_instance_validation():
    assert validate_instance(c_n(5)) == []
    # open "cycle"
    assert validate_instance(Instance(n=3, edges=[(0, 1), (1, 2)],
                                      cycle=[0, 1, 2]))
    # repeated cycle vertex
    assert validate_instance(Instance(n=3, edges=[(0, 1), (1, 2), (0, 2)],
                                      cycle=[0, 1, 1]))
    # t < 3
    assert validate_instance(Instance(n=2, edges=[(0, 1)], cycle=[0, 1]))
    # edge out of range
    assert validate_instance(Instance(n=4,
                                      edges=[(0, 1), (1, 2), (0, 2), (0, 5)],
                                      cycle=[0, 1, 2]))


def test_cycle_distance():
    assert cycle_distance(6, 0, 3) == 3
    assert cycle_distance(6, 0, 5) == 1
    assert cycle_distance(7, 2, 6) == 3


def test_graph_distances_hub():
    inst = Instance(n=5,
                    edges=[(0, 1), (1, 2), (2, 3), (0, 3),
                           (0, 4), (1, 4), (2, 4), (3, 4)],
                    cycle=[0, 1, 2, 3])
    dt = graph_distances(inst)
    assert dt.from_position(0)[2] == 2
    assert dt.from_position(0)[4] == 1


def test_graph_distances_unreachable():
    inst = Instance(n=4, edges=[(0, 1), (1, 2), (0, 2)], cycle=[0, 1, 2])
    dt = graph_distances(inst)
    assert dt.from_position(0)[3] is None


def test_trace_faces_tetrahedron():
    # planar K4: outer face 0-1-2, hub 3 inside
    rot = {0: [1, 3, 2], 1: [2, 3, 0], 2: [0, 3, 1], 3: [0, 1, 2]}
    faces = trace_faces(rot)
    assert len(faces) == 4
    assert all(len(f) == 3 for f in faces)


def test_plane_instance_validation_and_mirror():
    inst = Instance(n=4, edges=[(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)],
                    cycle=[0, 1, 2])
    rot = {0: [1, 3, 2], 1: [2, 3, 0], 2: [0, 3, 1], 3: [0, 1, 2]}
    pi = orient_plane_instance(PlaneInstance(inst, rot))
    assert validate_plane_instance(pi) == []
    # mirrored input is accepted and flipped back
    flipped = PlaneInstance(inst, mirror_rotation(rot))
    assert validate_plane_instance(orient_plane_instance(flipped)) == []
    # rotation missing a neighbor is rejected
    bad = PlaneInstance(inst, {0: [1, 2], 1: [2, 3, 0], 2: [0, 3, 1],
                               3: [0, 1, 2]})
    assert validate_plane_instance(bad)


def test_nonplanar_rotation_rejected():
    # K5 cannot satisfy Euler's formula under any rotation system
    inst = Instance(n=5,
                    edges=[(i, j) for i in range(5) for j in range(i + 1, 5)],
                    cycle=[0, 1, 2])
    rot = {v: [u for u in range(5) if u != v] for v in range(5)}
    assert validate_plane_instance(PlaneInstance(inst, rot))


def test_components():
    inst = Instance(n=5, edges=[(0, 1), (1, 2), (0, 2)], cycle=[0, 1, 2])
    comps = components(inst)
    assert {frozenset(c) for c in comps} == {frozenset({0, 1, 2}),
                                             frozenset({3}), frozenset({4})}

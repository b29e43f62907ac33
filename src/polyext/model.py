"""Instances: a graph with a distinguished cycle, and plane-embedded variants."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Instance:
    """A graph on vertices 0..n-1 with a distinguished simple cycle.

    cycle lists the vertex ids c_1..c_t in cyclic order; all cycle edges must
    be present in edges.  Edges are stored as canonical (min, max) pairs.
    """
    n: int
    edges: list[tuple[int, int]]
    cycle: list[int]
    _adj: list[list[int]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.edges = [tuple(sorted(e)) for e in self.edges]
        self._adj = None

    @property
    def t(self) -> int:
        return len(self.cycle)

    def adjacency(self) -> list[list[int]]:
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            for lst in adj:
                lst.sort()
            self._adj = adj
        return self._adj


def validate_instance(inst: Instance) -> list[str]:
    """Return a list of problems (empty when the instance is well formed)."""
    problems = []
    if inst.n < 0:
        problems.append("negative vertex count")
    seen = set()
    for u, v in inst.edges:
        if not (0 <= u < inst.n and 0 <= v < inst.n):
            problems.append(f"edge ({u},{v}) out of range")
        if u == v:
            problems.append(f"self-loop at {u}")
        if (u, v) in seen:
            problems.append(f"duplicate edge ({u},{v})")
        seen.add((u, v))
    t = len(inst.cycle)
    if t < 3:
        problems.append("cycle must have at least 3 vertices")
    if len(set(inst.cycle)) != t:
        problems.append("cycle repeats a vertex")
    for v in inst.cycle:
        if not (0 <= v < inst.n):
            problems.append(f"cycle vertex {v} out of range")
    if not problems:
        for i in range(t):
            e = tuple(sorted((inst.cycle[i], inst.cycle[(i + 1) % t])))
            if e not in seen:
                problems.append(f"cycle edge {e} missing from edge list")
    return problems


def cycle_distance(t: int, i: int, j: int) -> int:
    """Hop distance between positions i and j (0-based) around a t-cycle."""
    d = abs(i - j) % t
    return min(d, t - d)


@dataclass
class DistanceTable:
    """BFS distances from every cycle vertex; dist[pos][v] is None if unreachable."""
    dist: list[list[Optional[int]]]

    def from_position(self, pos: int) -> list[Optional[int]]:
        return self.dist[pos]


def graph_distances(inst: Instance) -> DistanceTable:
    adj = inst.adjacency()
    table = []
    for src in inst.cycle:
        dist: list[Optional[int]] = [None] * inst.n
        dist[src] = 0
        q = deque([src])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    q.append(w)
        table.append(dist)
    return DistanceTable(table)


# ---------------------------------------------------------------------------
# Plane instances: instance + rotation system + distinguished outer face C.
# Convention: rotation lists neighbors in ccw order as drawn; with that,
# tracing next(u,v) = (v, w) where w precedes u in rot[v] yields interior
# faces as ccw walks and the outer face as the cw traversal of C.
# ---------------------------------------------------------------------------

class EmbeddingError(ValueError):
    pass


@dataclass
class PlaneInstance:
    instance: Instance
    rotation: dict[int, list[int]]


def trace_faces(rotation: dict[int, list[int]]) -> list[list[int]]:
    """All face walks of the rotation system, each as a closed vertex walk.

    Every directed edge appears in exactly one walk.  A walk [a, b, c] stands
    for the closed walk a->b->c->a.
    """
    pos = {v: {u: i for i, u in enumerate(ns)} for v, ns in rotation.items()}
    unused = {(u, v) for u, ns in rotation.items() for v in ns}
    faces = []
    # each walk starts at the smallest dart not yet walked
    for start in sorted(unused):
        if start not in unused:
            continue
        walk = []
        u, v = start
        while (u, v) in unused:
            unused.remove((u, v))
            walk.append(u)
            ns = rotation[v]
            i = pos[v][u]
            w = ns[i - 1]  # cw-next neighbor after u around v
            u, v = v, w
        faces.append(walk)
    return faces


def _cyclic_equal(walk: list[int], cyc: list[int]) -> bool:
    if len(walk) != len(cyc):
        return False
    n = len(cyc)
    for s in range(n):
        if all(walk[(s + k) % n] == cyc[k] for k in range(n)):
            return True
    return False


def components(inst: Instance) -> list[set[int]]:
    adj = inst.adjacency()
    seen = [False] * inst.n
    comps = []
    for s in range(inst.n):
        if seen[s]:
            continue
        comp = {s}
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    q.append(w)
        comps.append(comp)
    return comps


def validate_plane_instance(pi: PlaneInstance) -> list[str]:
    """Combinatorial validity: rotation matches edges, Euler per component,
    and the distinguished cycle bounds a face of its component."""
    inst = pi.instance
    problems = validate_instance(inst)
    adj = {v: set(ns) for v, ns in
           ((u, inst.adjacency()[u]) for u in range(inst.n))}
    for v in range(inst.n):
        rot = pi.rotation.get(v, [])
        if set(rot) != adj[v] or len(rot) != len(adj[v]):
            problems.append(f"rotation at {v} does not list its neighbors once each")
    if problems:
        return problems
    faces = trace_faces(pi.rotation)
    comps = components(inst)
    # Per-component Euler formula; faces shared between components cannot
    # occur in a rotation-system trace, so count faces by component.
    face_comp = []
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    f_count = [0] * len(comps)
    for walk in faces:
        if walk:
            f_count[comp_of[walk[0]]] += 1
    e_count = [0] * len(comps)
    for u, v in inst.edges:
        e_count[comp_of[u]] += 1
    for ci, comp in enumerate(comps):
        if len(comp) == 1 and e_count[ci] == 0:
            continue  # an isolated vertex traces no walks; trivially planar
        if len(comp) - e_count[ci] + f_count[ci] != 2:
            problems.append(f"component {ci} violates the Euler formula "
                            f"(not a planar rotation system)")
    cyc = inst.cycle
    rev = [cyc[0]] + cyc[:0:-1]
    if not any(_cyclic_equal(w, rev) for w in faces):
        if any(_cyclic_equal(w, cyc) for w in faces):
            problems.append("cycle bounds a face but with mirrored orientation; "
                            "flip the rotation system")
        else:
            problems.append("distinguished cycle does not bound a face")
    return problems


def mirror_rotation(rotation: dict[int, list[int]]) -> dict[int, list[int]]:
    return {v: list(reversed(ns)) for v, ns in rotation.items()}


def orient_plane_instance(pi: PlaneInstance) -> PlaneInstance:
    """Return an equivalent plane instance whose outer face is C traversed cw.

    Accepts either handedness of the input rotation system and mirrors it when
    needed; raises EmbeddingError if C never bounds a face.  Mirroring leaves
    rotation and Euler problems as they are and reverses every face walk, so
    the mirror is valid exactly when C bounds a face in the wrong direction.
    """
    problems = validate_plane_instance(pi)
    if not problems:
        return pi
    flipped = PlaneInstance(pi.instance, mirror_rotation(pi.rotation))
    if not validate_plane_instance(flipped):
        return flipped
    raise EmbeddingError("; ".join(problems))

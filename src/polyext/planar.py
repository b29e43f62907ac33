"""Plane-instance simplification and accommodating drawings.

A plane instance fixes a combinatorial embedding with the cycle as outer
face.  The pipeline triangulates interior faces (via a doubled face cycle),
strips separating-triangle interiors, and contracts sketchability-preserving
non-cycle edges down to a minimal instance whose drawing is forced; replaying
the simplification journal backwards with epsilon-perturbations produces a
planar drawing inside the polygon.

Augmentation and contraction sketch-test an edge set before the surgery, so
nothing is rolled back.  The journal holds only what replay reads: strips
and contractions.  It is replayed once, at default_epsilon.  A contraction
is undone by trying split points on one ladder (shrinking distance, then
wedge weight, then wedge) until one lies in the kernel of the split vertex's
link (_in_link_kernel: one orientation test per neighbour); a split that
fits nowhere on the ladder raises PlanarError (exit 3 in the CLI, never a
verdict).  A re-inserted strip interior must lie strictly inside its drawn
triangle.  Only the finished drawing takes the full planarity and
polygon-respect checks.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .geometry import (INTERIOR, Point2, SimplePolygon, ccw_strictly_between,
                       orient, point_in_triangle, point_on_segment,
                       primitive_direction, segments_properly_cross)
from .model import (Instance, PlaneInstance, trace_faces, _cyclic_equal,
                    components, mirror_rotation, orient_plane_instance,
                    validate_plane_instance)
from .triangulation import Triangulation, ear_clip, root_dual
from .sketch import sketch_linear, Drawing, SimplexTable, validate_respecting


class PlanarError(ValueError):
    pass


class NotSketchableError(PlanarError):
    pass


# ---------------------------------------------------------------------------
# Journal steps.
# ---------------------------------------------------------------------------

@dataclass
class StrippedTriangle:
    sub_vertices: list[int]          # global ids; first three are the triangle
    sub_plane: PlaneInstance         # relabelled to 0..m-1, cycle = triangle
    snapshot: PlaneInstance          # state before the strip


@dataclass
class ContractedEdge:
    v: int                           # removed vertex
    z: int                           # surviving vertex
    common: tuple[int, int]          # the two shared face neighbours
    snapshot: PlaneInstance          # state before the contraction


JournalStep = Union[StrippedTriangle, ContractedEdge]


# ---------------------------------------------------------------------------
# Embedding surgery.
# ---------------------------------------------------------------------------

class PlaneSurgeon:
    """Mutable wrapper around a PlaneInstance supporting the pipeline's
    local modifications."""

    def __init__(self, plane: PlaneInstance):
        inst = plane.instance
        self.n = inst.n
        self.edges: set[tuple[int, int]] = {tuple(sorted(e)) for e in inst.edges}
        self.cycle = list(inst.cycle)
        self.rot: dict[int, list[int]] = {v: list(ns)
                                          for v, ns in plane.rotation.items()}
        for v in range(self.n):
            self.rot.setdefault(v, [])

    @property
    def plane(self) -> PlaneInstance:
        inst = Instance(n=self.n, edges=sorted(self.edges), cycle=list(self.cycle))
        return PlaneInstance(instance=inst,
                             rotation={v: list(ns) for v, ns in self.rot.items()})

    def faces(self) -> list[list[int]]:
        return trace_faces(self.rot)

    def interior_faces(self) -> list[list[int]]:
        outer = list(reversed(self.cycle))
        out = []
        for f in self.faces():
            if len(f) == len(outer) and _cyclic_equal(f, outer):
                continue
            out.append(f)
        return out

    def _insert_in_corner(self, u: int, prev_v: int, new_neighbor: int):
        """Insert new_neighbor into rot[u] at the face corner entered from
        prev_v (the walk ... prev_v, u, next ...)."""
        idx = self.rot[u].index(prev_v)
        self.rot[u].insert(idx, new_neighbor)

    def add_edge_in_face(self, face: list[int], su: int, sv: int):
        """Add edge between the face-walk positions su and sv (indices into
        the closed walk), splitting the face."""
        u, v = face[su], face[sv]
        u_prev = face[su - 1]
        v_prev = face[sv - 1]
        e = tuple(sorted((u, v)))
        if e in self.edges:
            raise PlanarError(f"edge {e} already present")
        self.edges.add(e)
        self._insert_in_corner(u, u_prev, v)
        self._insert_in_corner(v, v_prev, u)

    def add_vertex_in_face(self, face: list[int], anchor: int):
        """Add a pendant vertex inside the face, attached to `anchor` (a
        vertex of the face walk)."""
        s = face.index(anchor)
        w = self.n
        self.n += 1
        self.edges.add(tuple(sorted((anchor, w))))
        self.rot[w] = [anchor]
        self._insert_in_corner(anchor, face[s - 1], w)
        return w

    def delete_vertices(self, vs: set[int]):
        """Remove vertices (none on the cycle) and relabel to keep ids dense."""
        if any(v in self.cycle for v in vs):
            raise PlanarError("cannot delete cycle vertices")
        keep = [v for v in range(self.n) if v not in vs]
        remap = {old: new for new, old in enumerate(keep)}
        self.edges = {tuple(sorted((remap[a], remap[b])))
                      for a, b in self.edges if a not in vs and b not in vs}
        self.cycle = [remap[c] for c in self.cycle]
        self.rot = {remap[v]: [remap[u] for u in ns if u not in vs]
                    for v, ns in self.rot.items() if v not in vs}
        self.n = len(keep)
        return remap

    def contract(self, u: int, v: int) -> tuple[int, int]:
        """Contract edge (u, v), keeping u.  Requires a triangulated
        embedding where u and v share exactly two neighbours (the two faces
        on the edge).  Returns those two neighbours.  Vertex ids above v
        shift down by one."""
        common = sorted(set(self.rot[u]) & set(self.rot[v]))
        if len(common) != 2:
            raise PlanarError(
                f"edge ({u},{v}) has {len(common)} shared neighbours; "
                "separating triangle present?")
        x, y = common
        ru, rv = self.rot[u], self.rot[v]
        iu = ru.index(v)
        iv = rv.index(u)
        spliced = rv[iv + 1:] + rv[:iv]          # v's fan, u removed
        merged = ru[:iu] + spliced + ru[iu + 1:]
        # x and y each occur twice (once from u's list, once from v's fan),
        # as cyclically adjacent duplicates; keep one copy of each.
        dedup = []
        for w in merged:
            if w not in dedup:
                dedup.append(w)
        self.rot[u] = dedup
        for w in rv:
            if w == u:
                continue
            rw = self.rot[w]
            if u in rw and v in rw:
                rw.remove(v)
            else:
                rw[rw.index(v)] = u
        for w in rv:
            if w != u:
                self.edges.add(tuple(sorted((u, w))))
        remap = self.delete_vertices({v})   # drops v's edges, keeps ids dense
        return remap[x], remap[y]


# ---------------------------------------------------------------------------
# Sketchability helpers.
# ---------------------------------------------------------------------------

def _assert_valid(plane: PlaneInstance):
    problems = validate_plane_instance(plane)
    if problems:
        raise PlanarError("invalid embedding: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# Pipeline stages.
# ---------------------------------------------------------------------------

def augment_triangulated(plane: PlaneInstance, tri: Triangulation
                         ) -> PlaneInstance:
    """Connect stray components and triangulate all interior faces.

    Non-triangular faces get a doubled inner cycle whose chords are chosen to
    keep the coarsest sketch defined.
    """
    s = PlaneSurgeon(plane)
    _connect_components(s)
    _double_cycle_faces(s, tri)
    out = s.plane
    _assert_valid(out)
    if any(len(f) != 3 for f in s.interior_faces()):
        raise PlanarError("augmentation left a non-triangular face")
    return out


def _connect_components(s: PlaneSurgeon):
    while True:
        comps = components(Instance(n=s.n, edges=sorted(s.edges),
                                    cycle=list(s.cycle)))
        main = next(c for c in comps if s.cycle[0] in c)
        stray = [c for c in comps if c is not main]
        if not stray:
            return
        comp = stray[0]
        w = min(comp)
        # attach w to a vertex of some interior face of the main component
        face = next(f for f in s.interior_faces()
                    if all(v in main for v in f))
        anchor = face[0]
        e = tuple(sorted((anchor, w)))
        s.edges.add(e)
        s._insert_in_corner(anchor, face[-1], w)
        if s.rot[w]:
            s.rot[w].append(anchor)
        else:
            s.rot[w] = [anchor]


def _double_cycle_faces(s: PlaneSurgeon, tri: Triangulation):
    while True:
        faces = [f for f in s.interior_faces() if len(f) > 3]
        if not faces:
            return
        walk = faces[0]
        k = len(walk)
        # one copy per walk occurrence, ring inside the face
        copies = list(range(s.n, s.n + k))
        s.n += k
        for idx, v in enumerate(walk):
            s.edges.add(tuple(sorted((v, copies[idx]))))
        for idx in range(k):
            a, b = copies[idx], copies[(idx + 1) % k]
            s.edges.add(tuple(sorted((a, b))))
        # rotations: copy u_idx sees [v_idx, u_{idx-1}, u_{idx+1}] ccw;
        # each walk vertex gains its copy at the face corner.
        for idx, v in enumerate(walk):
            u = copies[idx]
            s.rot[u] = [walk[idx], copies[(idx + 1) % k], copies[idx - 1]]
            s._insert_in_corner(v, walk[idx - 1], u)
        for idx in range(k):
            _split_quad(s, walk[idx], walk[(idx + 1) % k],
                        copies[(idx + 1) % k], copies[idx], tri)
        _chord_inner_cycle(s, copies, tri)


def _add_if_sketchable(s: PlaneSurgeon, face: list[int], u: int, v: int,
                       tri: Triangulation) -> bool:
    """Add the chord uv across `face` unless it is already an edge or the
    instance has no sketch with it.

    A sketch depends only on the edge set, so the chord is tested before the
    surgery; a refused chord leaves the surgeon untouched.
    """
    e = (min(u, v), max(u, v))
    if e in s.edges or sketch_linear(
            Instance(n=s.n, edges=sorted(s.edges | {e}), cycle=list(s.cycle)),
            tri) is None:
        return False
    s.add_edge_in_face(face, face.index(u), face.index(v))
    return True


def _split_quad(s: PlaneSurgeon, va: int, vb: int, ub: int, ua: int,
                tri: Triangulation):
    """Triangulate the quad face (va, vb, ub, ua) left between a face walk
    edge and the doubled cycle, keeping the coarsest sketch defined."""
    quad = _face_of_cycle(s, [va, vb, ub, ua])
    for p, q in ((ua, vb), (va, ub)):
        if _add_if_sketchable(s, quad, p, q, tri):
            return
    raise PlanarError("no sketch-preserving diagonal for a doubled-cycle quad")


def _chord_inner_cycle(s: PlaneSurgeon, ring: list[int], tri: Triangulation):
    """Triangulate the inner face bounded by the doubled cycle, preferring
    chords whose endpoints' coarsest-sketch simplices share a triangle."""
    table = SimplexTable(tri)

    def rec(cyc: list[int]):
        if len(cyc) <= 3:
            return
        assign = sketch_linear(s.plane.instance, tri)
        pairs = []
        m = len(cyc)
        for off in range(2, m - 1):
            for a in range(m):
                b = (a + off) % m
                if a < b:
                    pairs.append((a, b))
        if assign is not None:
            pairs.sort(key=lambda ab: not table.shares_triangle(
                assign[cyc[ab[0]]], assign[cyc[ab[1]]]))
        face = _face_of_cycle(s, cyc)
        for a, b in pairs:
            if _add_if_sketchable(s, face, cyc[a], cyc[b], tri):
                rec(cyc[a:b + 1])
                rec(cyc[b:] + cyc[:a + 1])
                return
        raise PlanarError("no sketch-preserving chord for the doubled cycle")

    rec(ring)


def _face_of_cycle(s: PlaneSurgeon, cyc: list[int]) -> list[int]:
    want = set(cyc)
    for f in s.interior_faces():
        if len(f) == len(cyc) and set(f) == want:
            return f
    raise PlanarError(f"no interior face bounded by {cyc}")


def find_separating_triangles(plane: PlaneInstance
                              ) -> list[tuple[int, int, int]]:
    inst = plane.instance
    adj = inst.adjacency()
    edge_set = {tuple(sorted(e)) for e in inst.edges}
    face_tris = set()
    for f in trace_faces(plane.rotation):
        if len(f) == 3:
            face_tris.add(tuple(sorted(f)))
    out = []
    for a in range(inst.n):
        for b in adj[a]:
            if b <= a:
                continue
            for c in adj[b]:
                if c <= b or tuple(sorted((a, c))) not in edge_set:
                    continue
                tric = (a, b, c)
                if tric not in face_tris:
                    out.append(tric)
    return out


def _triangle_interior(plane: PlaneInstance, tric: tuple[int, int, int]
                       ) -> set[int]:
    """Vertices strictly inside the separating triangle: the components of
    G - {a,b,c} containing no cycle vertex."""
    inst = plane.instance
    adj = inst.adjacency()
    blocked = set(tric)
    seen = set(blocked)
    q = deque(v for v in inst.cycle if v not in blocked)
    seen.update(q)
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                q.append(w)
    return {v for v in range(inst.n) if v not in seen}


def _induced_sub_plane(plane: PlaneInstance, verts: list[int]
                       ) -> PlaneInstance:
    """Plane instance induced on verts (relabelled 0..m-1), with the first
    three vertices as the cycle."""
    keep = set(verts)
    remap = {g: i for i, g in enumerate(verts)}
    inst = plane.instance
    edges = sorted({(min(remap[a], remap[b]), max(remap[a], remap[b]))
                    for a, b in inst.edges if a in keep and b in keep})
    rot = {remap[v]: [remap[u] for u in plane.rotation[v] if u in keep]
           for v in verts}
    cyc = [0, 1, 2]
    sub = PlaneInstance(instance=Instance(n=len(verts), edges=edges, cycle=cyc),
                        rotation=rot)
    return orient_plane_instance(sub)


def strip_separating_interiors(plane: PlaneInstance
                               ) -> tuple[PlaneInstance, list[JournalStep]]:
    journal: list[JournalStep] = []
    while True:
        found = next(((tc, interior)
                      for tc in find_separating_triangles(plane)
                      if (interior := _triangle_interior(plane, tc))), None)
        if found is None:
            return plane, journal
        tric, interior = found
        sub_vertices = list(tric) + sorted(interior)
        sub = _induced_sub_plane(plane, sub_vertices)
        s = PlaneSurgeon(plane)
        s.delete_vertices(interior)
        # surgery works on copies, so `plane` itself is never mutated
        journal.append(StrippedTriangle(sub_vertices=sub_vertices,
                                        sub_plane=sub, snapshot=plane))
        plane = s.plane
        _assert_valid(plane)


def contract_sketch_preserving(plane: PlaneInstance, tri: Triangulation
                               ) -> Optional[tuple[PlaneInstance,
                                                   list[JournalStep]]]:
    """Contract the first (deterministic order) non-cycle edge that keeps the
    instance sketchable; strips any separating triangles this creates.

    A sketch depends only on the edge set, so each candidate is sketch-tested
    on the contracted edges before any surgery, as in _add_if_sketchable.
    """
    inst = plane.instance
    on_c = set(inst.cycle)
    for u, v in sorted(tuple(sorted(e)) for e in inst.edges):
        if u in on_c and v in on_c:
            continue  # merging two cycle vertices would destroy C
        keep, drop = (v, u) if v in on_c else (u, v)
        if sketch_linear(_contracted(inst, keep, drop), tri) is None:
            continue
        s = PlaneSurgeon(plane)
        common = s.contract(keep, drop)
        cand = s.plane
        _assert_valid(cand)
        journal: list[JournalStep] = [ContractedEdge(v=drop, z=keep,
                                                     common=common,
                                                     snapshot=plane)]
        cand, strips = strip_separating_interiors(cand)
        journal.extend(strips)
        return cand, journal
    return None


def _contracted(inst: Instance, keep: int, drop: int) -> Instance:
    """The instance PlaneSurgeon.contract(keep, drop) leaves: drop becomes
    keep, ids above drop shift down by one, the self-loop goes."""
    def lab(w: int) -> int:
        w = keep if w == drop else w
        return w - 1 if w > drop else w

    edges = {tuple(sorted((lab(a), lab(b)))) for a, b in inst.edges}
    return Instance(n=inst.n - 1, edges=sorted(e for e in edges if e[0] != e[1]),
                    cycle=[lab(c) for c in inst.cycle])


def minimize(plane: PlaneInstance, tri: Triangulation
             ) -> tuple[PlaneInstance, list[JournalStep]]:
    _assert_valid(plane)
    if sketch_linear(plane.instance, tri) is None:
        raise NotSketchableError("instance has no sketch for this triangulation")
    plane = augment_triangulated(plane, tri)
    if sketch_linear(plane.instance, tri) is None:
        raise PlanarError("augmentation broke sketchability")
    plane, journal = strip_separating_interiors(plane)
    while True:
        step = contract_sketch_preserving(plane, tri)
        if step is None:
            break
        plane, steps = step
        journal.extend(steps)
    inst = plane.instance
    on_c = set(inst.cycle)
    if set(range(inst.n)) != on_c:
        raise PlanarError("minimal instance has a vertex off the cycle")
    want = {tuple(sorted((inst.cycle[a], inst.cycle[b])))
            for a, b in tri.all_edges()}
    have = {tuple(sorted(e)) for e in inst.edges}
    if want != have:
        raise PlanarError("minimal instance edges differ from the triangulation")
    return plane, journal


# ---------------------------------------------------------------------------
# Drawing validation.
# ---------------------------------------------------------------------------

def validate_planar(drawing: Drawing, inst: Instance) -> bool:
    """Whether the positions are distinct, no two edges properly cross and
    no edge runs through a vertex other than its ends."""
    pos = drawing.positions
    if len({(p.x, p.y) for p in pos.values()}) != len(pos):
        return False
    edges = [tuple(sorted(e)) for e in inst.edges]
    for i, (a, b) in enumerate(edges):
        pa, pb = pos[a], pos[b]
        if any(segments_properly_cross(pa, pb, pos[c], pos[d])
               for c, d in edges[i + 1:]):
            return False
        if any(v not in (a, b) and point_on_segment(pos[v], pa, pb)
               for v in range(inst.n)):
            return False
    return True


# ---------------------------------------------------------------------------
# Accommodation: backward journal replay.
# ---------------------------------------------------------------------------

def default_epsilon(polygon: SimplePolygon, tri: Triangulation) -> Fraction:
    """A quarter of the smallest vertex-to-non-incident-edge distance,
    under the L-infinity-bounded surrogate |cross| / (|dx|+|dy|)."""
    best: Optional[Fraction] = None
    pts = polygon.points
    for a, b in tri.all_edges():
        pa, pb = pts[a], pts[b]
        d = pb - pa
        ln = abs(d.x) + abs(d.y)
        for v, p in enumerate(pts):
            if v in (a, b):
                continue
            dist = abs(d.cross(p - pa)) / ln
            if dist > 0 and (best is None or dist < best):
                best = dist
    if best is None:
        best = Fraction(1)
    return best / 4


def _wedge_direction(d1: Point2, d2: Point2, weight: Fraction) -> Point2:
    """A direction strictly inside the ccw wedge from d1 to d2."""
    n1 = d1.scale(Fraction(1, abs(d1.x) + abs(d1.y)))
    n2 = d2.scale(Fraction(1, abs(d2.x) + abs(d2.y)))
    cr = n1.cross(n2)
    if cr > 0:
        return n1 + n2.scale(weight)
    if cr < 0:
        return (n1 + n2.scale(weight)).scale(-1)
    if n1.dot(n2) < 0:  # wedge is exactly a half-plane
        return n1.perp_ccw() + n1.scale(weight / 8)
    raise PlanarError("degenerate zero-width wedge")


def _angular_contains(base: Point2, d1: Point2, d2: Point2, q: Point2) -> bool:
    """Whether q - base lies in the ccw cone from d1 - base to d2 - base."""
    s = primitive_direction(d1 - base)
    e = primitive_direction(d2 - base)
    m = primitive_direction(q - base)
    return m == s or m == e or ccw_strictly_between(s, m, e)


def accommodate(plane: PlaneInstance, polygon: SimplePolygon,
                tri: Optional[Triangulation] = None) -> Drawing:
    """Planar polygon-respecting drawing of a sketchable plane instance.

    The journal is replayed once; a split that fits nowhere on its shrink
    ladder raises PlanarError.
    """
    if tri is None:
        tri = root_dual(ear_clip(polygon))
    epsilon = default_epsilon(polygon, tri)
    minimal, journal = minimize(plane, tri)
    return _replay(minimal, journal, polygon, epsilon, plane.instance)


def _replay(minimal: PlaneInstance, journal: list[JournalStep],
            polygon: SimplePolygon, eps: Fraction, original: Instance
            ) -> Drawing:
    inst = minimal.instance
    pos: dict[int, Point2] = {v: polygon.points[p]
                              for p, v in enumerate(inst.cycle)}
    cur = minimal
    # the minimal drawing is the validated triangulation, so every step
    # starts from a valid drawing (see _in_link_kernel)
    for step in reversed(journal):
        if isinstance(step, ContractedEdge):
            pos = _undo_contraction(step, cur, pos, eps)
        else:
            pos = _undo_strip(step, cur, pos)
        cur = step.snapshot
    # augmentation vertices have ids past the original range and are
    # dropped here
    final_pos = {v: pos[v] for v in range(original.n)}
    drawing = Drawing(positions=final_pos, meta={"epsilon": eps})
    if not validate_planar(drawing, original):
        raise PlanarError("final drawing not planar")
    if not validate_respecting(drawing, original, polygon).ok:
        raise PlanarError("final drawing leaves the polygon")
    return drawing


def _in_link_kernel(pos: dict[int, Point2], v: int, link: list[int]) -> bool:
    """Whether v lies strictly left of every edge of its ccw link cycle.

    Replay keeps an invariant: each drawing is planar, pins the cycle and
    draws every interior face as a ccw triangle.  The minimal drawing, the
    validated triangulation, has it.  A contraction ran only after every
    separating triangle was stripped, so v's link in the instance before it
    is a simple cycle bounding an empty face of that instance minus v, and
    every other vertex and edge keeps its place.  A point strictly left of
    every link edge lies in that face and sees each link vertex inside it,
    so v's edges cross nothing and the invariant holds again.  A point not
    strictly left of some link edge puts an edge v->w onto or across a link
    edge or vertex, which validate_planar refuses too.  On top of a valid
    drawing this is therefore exactly validate_planar and
    validate_respecting, at deg(v) orientation tests.  A strip step keeps
    the invariant because the nested accommodate checks the sub-drawing in
    full against the drawn triangle, which is an empty face.
    """
    p = pos[v]
    return all(orient(pos[a], pos[b], p) > 0
               for a, b in zip(link, link[1:] + link[:1]))


def _undo_contraction(step: ContractedEdge, cur: PlaneInstance,
                      pos: dict[int, Point2], eps: Fraction
                      ) -> dict[int, Point2]:
    """Re-split z into (z, v): v goes an epsilon into the wedge between the
    two shared neighbours, on the side holding v's other former edges."""
    before = step.snapshot
    v, z = step.v, step.z
    # ids >= v in `cur` correspond to id+1 in `before`
    lift = {w: (w if w < v else w + 1) for w in range(cur.instance.n)}
    new_pos = {lift[w]: p for w, p in pos.items()}
    rot_v = before.rotation[v]
    exclusive = [w for w in rot_v if w != z]
    zp = new_pos[z]
    x, y = (lift[c] for c in step.common)
    dx, dy = new_pos[x] - zp, new_pos[y] - zp
    others = [w for w in exclusive if w not in (x, y)]
    # the split distance must be small relative to the local configuration,
    # not just the global epsilon, or nested splits collide at every scale
    local = min(abs(p.x - zp.x) + abs(p.y - zp.y)
                for w, p in new_pos.items() if w != v and p != zp)
    base = min(eps, local / 4)
    wedges = [(d1, d2) for d1, d2 in ((dx, dy), (dy, dx))
              if all(_angular_contains(zp, zp + d1, zp + d2, new_pos[w])
                     for w in others)]
    for shrink in range(12):
        dist = base / (4 ** shrink)
        for weight in (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3)):
            for d1, d2 in wedges:
                direction = _wedge_direction(d1, d2, weight)
                ln = abs(direction.x) + abs(direction.y)
                cand = dict(new_pos)
                cand[v] = zp + direction.scale(dist / ln)
                if _in_link_kernel(cand, v, rot_v):
                    return cand
    raise PlanarError(f"could not split vertex {v} off {z}")


def _undo_strip(step: StrippedTriangle, cur: PlaneInstance,
                pos: dict[int, Point2]) -> dict[int, Point2]:
    """Re-insert the stripped interior by recursively accommodating it inside
    the drawn triangle; every re-inserted vertex must land strictly inside
    it."""
    before = step.snapshot
    # cur's ids are before's ids with the interior removed, order preserved
    removed = sorted(step.sub_vertices[3:])
    lift = {}
    it = iter(g for g in range(before.instance.n) if g not in removed)
    for w in range(cur.instance.n):
        lift[w] = next(it)
    new_pos = {lift[w]: p for w, p in pos.items()}
    a, b, c = step.sub_vertices[:3]
    pa, pb, pc = new_pos[a], new_pos[b], new_pos[c]
    if orient(pa, pb, pc) == 0:
        raise PlanarError("stripped triangle drawn degenerate")
    corners = [pa, pb, pc]
    sub = step.sub_plane
    if orient(pa, pb, pc) < 0:
        # mirror the sub-embedding to match the drawn orientation
        sub = PlaneInstance(instance=Instance(
            n=sub.instance.n, edges=list(sub.instance.edges),
            cycle=[sub.instance.cycle[0]] + list(reversed(sub.instance.cycle[1:]))),
            rotation=mirror_rotation(sub.rotation))
        corners = [pa, pc, pb]
    tri_poly = SimplePolygon.from_points([corners[0], corners[1], corners[2]])
    # the sub-triangle sets its own scale; the outer epsilon is irrelevant here
    sub_drawing = accommodate(sub, tri_poly)
    for s_idx, p in sub_drawing.positions.items():
        g = step.sub_vertices[s_idx]
        if g in (a, b, c):
            continue
        if point_in_triangle(p, pa, pb, pc) != INTERIOR:
            raise PlanarError("re-inserted interior leaves its triangle")
        new_pos[g] = p
    return new_pos

"""Counterexample polygons for violated distance conditions.

A pair violation yields a rectangular spiral whose core-to-mouth link
distance exceeds the graph distance; a triple violation yields a pinwheel
chamber with three spiral arms whose link balls have pairwise nonempty but
triple-empty intersection.  Each polygon is built once, at fixed
coordinates, and certified by the exact link-distance engine before being
returned; a build or certificate failure raises WitnessError (an internal
error, never a verdict), so callers need no second check.  ``verify_witness``
recomputes the obstruction from the polygon and the violation alone; it is
the independent check the tests use.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import (Point2, SimplePolygon, pt, signed_area2, PolygonError)
from .model import Instance, cycle_distance
from .conditions import PairViolation, TripleViolation
from .visibility import link_distance, link_ball, triple_intersection_empty


class WitnessError(ValueError):
    pass


@dataclass(frozen=True)
class WitnessNote:
    kind: str                     # "pair" | "triple"
    anchors: dict[int, int]       # cycle position (0-based) -> polygon index
    certificate: dict


@dataclass(frozen=True)
class Witness:
    polygon: SimplePolygon
    note: WitnessNote


_DIRS = [pt(1, 0), pt(0, 1), pt(-1, 0), pt(0, -1)]


def _subdivide(a: Point2, b: Point2, extra: int) -> list[Point2]:
    """a followed by `extra` evenly spaced interior points of segment ab."""
    out = [a]
    for m in range(1, extra + 1):
        out.append(a + (b - a).scale(Fraction(m, extra + 1)))
    return out


def _spiral_ring(q: int) -> tuple[list[Point2], list[Point2], Point2, Point2]:
    """Left-turning rectangular spiral corridor with q quarter turns.

    Returns (outer chain O_1..O_q, inner chain I_q..I_1, core, mouth); the
    full ccw ring is [core] + outer + [mouth] + inner.
    """
    o = pt(0, 0)
    outer = []
    corners = [o]
    for k in range(q + 1):
        o = o + _DIRS[k % 4].scale(4 + 4 * k)
        corners.append(o)
    outer = corners[1:q + 1]
    inner = []
    for k in range(1, q + 1):
        n_prev = _DIRS[(k - 1) % 4].perp_ccw()
        n_k = _DIRS[k % 4].perp_ccw()
        inner.append(corners[k] + n_prev + n_k)
    inner.reverse()                 # I_q .. I_1
    n0 = _DIRS[0].perp_ccw()
    nq = _DIRS[q % 4].perp_ccw()
    core = corners[0] + n0.scale(Fraction(1, 2)) - _DIRS[0]
    mouth = corners[q + 1] + nq.scale(Fraction(1, 2)) + _DIRS[q % 4]
    return outer, inner, core, mouth


def pair_spiral(violation: PairViolation, t: int) -> Witness:
    """Spiral polygon on t vertices with the two violating anchors placed at
    its core and mouth, at link distance d_g + 1 > d_g."""
    i, j = violation.i - 1, violation.j - 1
    d_g = violation.d_g
    if d_g is None or d_g >= cycle_distance(t, i, j):
        raise WitnessError("not a pair violation")
    if d_g < 1:
        raise WitnessError("anchors coincide or are adjacent on the cycle")
    q = d_g
    arc = j - i
    chain_a = arc - 1            # ring vertices strictly between core and mouth
    chain_b = t - arc - 1        # the other way around
    if chain_a < q or chain_b < q:
        raise WitnessError("cycle arcs too short for the spiral")
    outer, inner, core, mouth = _spiral_ring(q)
    side_a = _subdivide(outer[-1], mouth, chain_a - q)
    ring = ([core] + outer[:-1] + side_a + [mouth]
            + _subdivide(mouth, inner[0], chain_b - q)[1:]
            + inner)
    if signed_area2(ring) < 0:
        raise WitnessError("spiral ring unexpectedly clockwise")
    core, mouth = ring[0], ring[chain_a + 1]
    pts = [ring[(m - i) % t] for m in range(t)]
    polygon = SimplePolygon.from_points(pts)
    ld = link_distance(polygon, core, mouth)
    if ld is None or ld <= d_g:
        raise WitnessError(f"spiral failed verification: link distance {ld}")
    note = WitnessNote(kind="pair", anchors={i: i, j: j},
                       certificate={"link_distance": ld})
    return Witness(polygon=polygon, note=note)


# ---------------------------------------------------------------------------
# Triple spiral: pinwheel chamber with three arms.
# ---------------------------------------------------------------------------

# Exact rational rotation by ~120.5 degrees: (-33/65, 56/65) is on the unit
# circle, so repeated application stays exact and roughly evenly spaced.
_ROT_C = Fraction(-33, 65)
_ROT_S = Fraction(56, 65)


def _rot(p: Point2) -> Point2:
    return Point2(_ROT_C * p.x - _ROT_S * p.y, _ROT_S * p.x + _ROT_C * p.y)


def _pinwheel(tip: Point2, blocker: Point2) -> list[Point2]:
    """Hexagon [T1, B1, T2, B2, T3, B3]: three far tips separated by near
    reflex blockers, skewed so each tip's sight beam sweeps past the centre
    on the same side; the three beams then meet pairwise but never all at
    once."""
    ring = []
    t, b = tip, blocker
    for _ in range(3):
        ring.append(t)
        ring.append(b)
        t = _rot(t)
        b = _rot(b)
    if signed_area2(ring) < 0:
        raise WitnessError("pinwheel base unexpectedly clockwise")
    return ring


def _cmul(w: Point2, z: Point2) -> Point2:
    return Point2(w.x * z.x - w.y * z.y, w.x * z.y + w.y * z.x)


def _cdiv(a: Point2, b: Point2) -> Point2:
    den = b.x * b.x + b.y * b.y
    return Point2((a.x * b.x + a.y * b.y) / den, (a.y * b.x - a.x * b.y) / den)


def _arm_graft(depth: int, target_in: Point2, target_out: Point2
               ) -> list[Point2]:
    """Ccw boundary chain of a spiral arm opening at the chord
    (target_out, target_in): inner wall inward, anchor, outer wall back out.

    The chain has 2*depth - 1 vertices with the anchor in the middle, for
    depth >= 2 (a depth-1 arm is its tip alone, which the caller places).
    The arm body lies beyond the chord, on its
    perp_ccw(target_in - target_out) side; link distance from the anchor to
    points past the chord is exactly `depth`.
    """
    q = depth - 1
    outer, inner, core, _mouth = _spiral_ring(q)
    # The corridor's exit chord spans from the outer wall's last corner,
    # one leg past O_q, to its unit-offset inner twin.
    e_out = outer[-1] + _DIRS[q % 4].scale(4 + 4 * q)
    e_in = e_out + _DIRS[q % 4].perp_ccw()
    w = _cdiv(target_out - target_in, e_out - e_in)

    def tf(p: Point2) -> Point2:
        return target_in + _cmul(w, p - e_in)

    chain = [tf(p) for p in inner]                    # I_q .. I_1 going in
    chain.append(tf(core))
    chain.extend(tf(p) for p in outer)                # O_1 .. O_q going out
    return chain


def triple_spiral(violation: TripleViolation, t: int) -> Witness:
    """Pinwheel polygon whose three link balls (radius d_i, d_j, d_k around
    the violating anchors) have empty common intersection."""
    i, j, k = violation.i - 1, violation.j - 1, violation.k - 1
    depths = [violation.d_i, violation.d_j, violation.d_k]
    if 2 * sum(depths) != t:
        raise WitnessError("triple violation depths do not match the cycle")
    arcs = [j - i, k - j, t - (k - i)]
    exp = [depths[0] + depths[1], depths[1] + depths[2], depths[2] + depths[0]]
    if arcs != exp:
        raise WitnessError("violating arcs do not match the distance sums")
    base = _pinwheel(pt(14, -6), pt(-1, 2))
    tips = [base[0], base[2], base[4]]
    blockers = [base[1], base[3], base[5]]
    # anchor x sits depths[x]-1 places into its arm's ccw wall chain
    pos = []
    at = 0
    for x in range(3):
        pos.append(at + depths[x] - 1)
        at += 2 * depths[x]
    shift = (pos[0] - i) % t
    ring: list[Point2] = []
    for x in range(3):
        d = depths[x]
        if d == 1:
            ring.append(tips[x])
        else:
            # the arm's door: a chord of length 1/2 in L1 along the blockers'
            # direction, centred at the tip
            door = blockers[x - 1] - blockers[x]
            u = door.scale(Fraction(1, 4 * (abs(door.x) + abs(door.y))))
            ring.extend(_arm_graft(d, tips[x] + u, tips[x] - u))
        ring.append(blockers[x])
    if len(ring) != t:
        raise WitnessError(f"arm budget mismatch: ring has {len(ring)} of {t}")
    try:
        polygon = SimplePolygon.from_points(
            [ring[(m + shift) % t] for m in range(t)])
    except PolygonError as exc:
        raise WitnessError(f"pinwheel ring is not simple: {exc}") from exc
    balls = [link_ball(polygon, polygon.points[p], d).ring
             for p, d in zip((i, j, k), depths)]
    if not triple_intersection_empty(*balls):
        raise WitnessError("triple link balls meet")
    note = WitnessNote(kind="triple", anchors={i: i, j: j, k: k},
                       certificate={"empty_triple_intersection": True})
    return Witness(polygon=polygon, note=note)


def build_witness(inst: Instance, violation) -> Witness:
    if isinstance(violation, PairViolation):
        return pair_spiral(violation, inst.t)
    if isinstance(violation, TripleViolation):
        return triple_spiral(violation, inst.t)
    raise WitnessError(f"unknown violation type {type(violation).__name__}")


def verify_witness(polygon: SimplePolygon, inst: Instance, violation) -> bool:
    """Recheck the obstruction on the polygon from scratch."""
    t = inst.t
    if len(polygon.points) != t:
        return False
    if isinstance(violation, PairViolation):
        a = polygon.points[violation.i - 1]
        b = polygon.points[violation.j - 1]
        ld = link_distance(polygon, a, b)
        return ld is not None and ld > violation.d_g
    if isinstance(violation, TripleViolation):
        depths = [violation.d_i, violation.d_j, violation.d_k]
        balls = [link_ball(polygon, polygon.points[p - 1], d).ring
                 for p, d in zip((violation.i, violation.j, violation.k),
                                 depths)]
        return triple_intersection_empty(*balls)
    raise WitnessError(f"unknown violation type {type(violation).__name__}")

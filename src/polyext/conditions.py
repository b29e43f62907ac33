"""The two distance conditions characterising polygon-universal instances.

Pair: no two cycle vertices may be closer in the graph than around the cycle.
Triple: for any three cycle positions whose pairwise cycle distances add up to
the full cycle length, no vertex other than those three anchors may be
simultaneously close to all of them (graph distances summing to at most t/2).

Violation reports use 1-based cycle positions.

Cost, after the BFS from every cycle vertex (O(t·(n+m))): the pair check is
O(t²); the triple check is O(n·t) dictionary work, plus one O(t³) scan of
the tight triples for the vertex it reports, if any.  The argument: write
d(p) = d_G(c_p, v).  Under the pair condition d_i + d_j >= d_G(c_i, c_j)
>= d_C(i, j), so every tight triple has 2(d_i + d_j + d_k) >= t, and v
violates it only if all three pair bounds are equalities -- a *tight chain*:

    j - d_j = i + d_i,   k - d_k = j + d_j,   k + d_k = t + i - d_i.

Cycle edges make d 1-Lipschitz along the cycle, so p + d(p) and p - d(p) are
non-decreasing in p and each value of either is taken on a run of consecutive
positions.  For each i the third equality confines k to one run of p + d(p),
fixes j = k - (t/2 - d_i), and the first confines j to one run of p - d(p):
whether a chain exists is an intersection of two intervals.  The exact
reference scan over every vertex and tight triple is
``oracle.check_triple_reference`` (tests only).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .model import Instance, DistanceTable, cycle_distance, graph_distances


@dataclass(frozen=True)
class PairViolation:
    i: int  # 1-based cycle positions, i < j
    j: int
    d_g: int
    d_c: int


@dataclass(frozen=True)
class TripleViolation:
    i: int  # 1-based cycle positions, i < j < k
    j: int
    k: int
    v: int  # offending vertex id
    d_i: int
    d_j: int
    d_k: int


@dataclass(frozen=True)
class UniversalityResult:
    universal: bool
    violation: Optional[Union[PairViolation, TripleViolation]]


class PairConditionError(ValueError):
    """check_triple requires the pair condition to hold first."""


def check_pair(inst: Instance, dt: Optional[DistanceTable] = None
               ) -> Optional[PairViolation]:
    """First pair (lexicographic in 1-based (i, j)) with d_G < d_C, else None.

    Unreachable pairs never violate: an infinite graph distance cannot fall
    below the cycle distance.
    """
    if dt is None:
        dt = graph_distances(inst)
    t = inst.t
    for i in range(t):
        row = dt.from_position(i)
        for j in range(i + 1, t):
            dg = row[inst.cycle[j]]
            if dg is None:
                continue
            dc = cycle_distance(t, i, j)
            if dg < dc:
                return PairViolation(i + 1, j + 1, dg, dc)
    return None


def _tight_triples(t: int):
    """All 0-based position triples i<j<k whose three arcs are each <= t/2.

    Those are exactly the triples whose pairwise cycle distances sum to t:
    each arc of length at most t/2 realises the cycle distance of its
    endpoints, and the three arcs partition the cycle.
    """
    for i in range(t):
        for j in range(i + 1, t):
            if 2 * (j - i) > t:
                break
            for k in range(j + 1, t):
                if 2 * (k - j) > t:
                    break
                if 2 * (t - (k - i)) <= t:
                    yield i, j, k


def _has_tight_chain(d: list[int], t: int, pos: Optional[int]) -> bool:
    """Whether some tight triple with no anchor at ``pos`` is a tight chain
    for the distances ``d`` (``d[p]`` = d_G(c_p, v), ``pos`` = v's cycle
    position or None).

    Only meaningful under the pair condition, where a tight chain is exactly
    a triple violation (see the module docstring).  An anchor at v has
    d = 0; such a triple is skipped and the search goes on.
    """
    if t % 2:
        return False        # 2(d_i + d_j + d_k) = t has no solution
    plus_lo: dict[int, int] = {}
    plus_hi: dict[int, int] = {}
    minus_lo: dict[int, int] = {}
    minus_hi: dict[int, int] = {}
    for p, dp in enumerate(d):
        plus_lo.setdefault(p + dp, p)
        plus_hi[p + dp] = p
        minus_lo.setdefault(p - dp, p)
        minus_hi[p - dp] = p
    half = t // 2
    for i, di in enumerate(d):
        gap = half - di                 # k - j = d_j + d_k
        key = t + i - di                # k + d_k
        if di == 0 or gap < 1 or key not in plus_lo \
                or i + di not in minus_lo:
            continue
        # k in the run of p + d(p) = key, j = k - gap in the run of
        # p - d(p) = i + d_i, and j > i
        lo = max(plus_lo[key], minus_lo[i + di] + gap, i + gap + 1)
        hi = min(plus_hi[key], minus_hi[i + di] + gap)
        # at most two values of k put an anchor (c_j or c_k) at v
        for k in range(lo, min(hi, lo + 2) + 1):
            if k != pos and k - gap != pos:
                return True
    return False


def _first_triple_violation(inst: Instance, dt: DistanceTable
                            ) -> Optional[TripleViolation]:
    """check_triple without its pair check: the caller has run check_pair
    on ``dt`` and found no violation."""
    t = inst.t
    rows = dt.dist
    pos_of = {c: p for p, c in enumerate(inst.cycle)}
    for v in range(inst.n):
        d = [row[v] for row in rows]
        if d[0] is None:
            continue        # the cycle is connected: v reaches no anchor
        pos = pos_of.get(v)
        if not _has_tight_chain(d, t, pos):
            continue
        for i, j, k in _tight_triples(t):
            if pos in (i, j, k):
                continue
            if 2 * (d[i] + d[j] + d[k]) <= t:
                return TripleViolation(i + 1, j + 1, k + 1, v,
                                       d[i], d[j], d[k])
    return None


def check_triple(inst: Instance, dt: Optional[DistanceTable] = None
                 ) -> Optional[TripleViolation]:
    """First triple violation in scan order (v ascending, then (i,j,k) lex).

    The offending vertex is quantified over vertices other than the three
    anchors themselves: an anchor always sits at the end of one of the three
    connecting paths, where the bound degenerates to an equality that every
    polygon satisfies (the boundary chain realises it), so such triples carry
    no obstruction.

    Raises PairConditionError when the pair condition fails.  Beyond the
    distance table and the pair check, each vertex costs O(t): it is tested
    for a tight chain by interval arithmetic (module docstring), and the
    lexicographic scan of the tight triples runs only for a vertex that has
    one, so at most once.
    """
    if dt is None:
        dt = graph_distances(inst)
    pair = check_pair(inst, dt)
    if pair is not None:
        raise PairConditionError(f"pair condition violated: {pair}")
    return _first_triple_violation(inst, dt)


def check_universality(inst: Instance) -> UniversalityResult:
    dt = graph_distances(inst)
    pair = check_pair(inst, dt)
    if pair is not None:
        return UniversalityResult(False, pair)
    triple = _first_triple_violation(inst, dt)
    if triple is not None:
        return UniversalityResult(False, triple)
    return UniversalityResult(True, None)

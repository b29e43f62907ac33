import itertools
import random
from collections import Counter

import pytest

from conftest import suite_seed
from polyext import conditions
from polyext.model import (Instance, cycle_distance, graph_distances,
                           validate_instance)
from polyext.conditions import (check_pair, check_triple, check_universality,
                                PairViolation, TripleViolation,
                                PairConditionError)
from polyext.oracle import check_triple_reference, random_instance


def c_n(t, extra_edges=(), n=None):
    edges = [(i, (i + 1) % t) for i in range(t)] + list(extra_edges)
    return Instance(n=n or t, edges=edges, cycle=list(range(t)))


def test_bare_cycle_universal():
    for t in (3, 4, 5, 6, 9):
        res = check_universality(c_n(t))
        assert res.universal and res.violation is None


def test_chord_pair_violation():
    inst = c_n(4, [(0, 2)])
    assert check_pair(inst) == PairViolation(i=1, j=3, d_g=1, d_c=2)


def test_pair_violation_is_lex_first():
    inst = c_n(6, [(0, 2), (1, 4)])
    v = check_pair(inst)
    assert (v.i, v.j) == (1, 3)


def test_hub_triple_violation():
    inst = c_n(6, [(0, 6), (2, 6), (4, 6)], n=7)
    assert check_pair(inst) is None
    assert check_triple(inst) == TripleViolation(i=1, j=3, k=5, v=6,
                                                 d_i=1, d_j=1, d_k=1)


def test_length_two_spokes_satisfy_both():
    # t=8 wheel whose spokes have length 2 through midpoint vertices
    t = 8
    edges = [(i, (i + 1) % t) for i in range(t)]
    hub = 8
    mids = [9, 10, 11, 12]
    for m, c in zip(mids, (0, 2, 4, 6)):
        edges += [(hub, m), (m, c)]
    inst = Instance(n=13, edges=edges, cycle=list(range(t)))
    res = check_universality(inst)
    assert res.universal


def test_triple_requires_pair():
    inst = c_n(4, [(0, 2)])
    with pytest.raises(PairConditionError):
        check_triple(inst)


def test_even_cycle_anchors_not_flagged():
    # antipodal cycle vertices meet the triple bound with equality but are
    # anchors themselves; a bare even cycle must stay universal
    for t in (4, 6, 8, 10):
        assert check_universality(c_n(t)).universal


def test_check_universality_prefers_pair():
    inst = c_n(6, [(0, 3), (0, 6), (2, 6), (4, 6)], n=7)
    res = check_universality(inst)
    assert isinstance(res.violation, PairViolation)


# ---------------------------------------------------------------------------
# The tight-chain lookup against the O(n·t³) reference scan.
# ---------------------------------------------------------------------------

def _hang_trees(rng, n, edges, count):
    """Add ``count`` vertices, each joined to one earlier vertex: a hung
    tree changes no distance among the old vertices and puts each new one
    farther from every anchor than its parent, so it creates no violation."""
    for v in range(n, n + count):
        edges.append((rng.randrange(v), v))
    return n + count


def _hub_instance(rng, t, hubs, trees=0):
    """Cycle 0..t-1, then for each (lengths, arcs) in ``hubs`` a new hub
    joined by fresh paths of the given lengths to three anchors spaced by
    ``arcs`` from a random start, then hung trees.  With lengths
    (d1, d2, d3) and arcs (d1+d2, d2+d3, d3+d1) the hub violates the triple
    condition; longer paths keep the pair condition and leave tight chains
    that just miss."""
    edges = [(p, (p + 1) % t) for p in range(t)]
    n = t
    for lengths, arcs in hubs:
        assert sum(arcs) == t
        start = rng.randrange(t)
        anchors = [start, (start + arcs[0]) % t,
                   (start + arcs[0] + arcs[1]) % t]
        hub, n = n, n + 1
        for anchor, length in zip(anchors, lengths):
            prev = hub
            for _ in range(length - 1):
                edges.append((prev, n))
                prev, n = n, n + 1
            edges.append((prev, anchor))
    n = _hang_trees(rng, n, edges, trees)
    return Instance(n=n, edges=edges, cycle=list(range(t)))


def _tight(depths):
    """(lengths, arcs) of a hub that violates at the given depths."""
    d1, d2, d3 = depths
    return depths, (d1 + d2, d2 + d3, d3 + d1)


def _bridged_instance(rng, t, trees):
    """Cycle plus, at every position p, a vertex adjacent to c_p and
    c_{p+2}: each such vertex lies on a geodesic between cycle vertices, so
    it has tight pairs on both sides without violating anything."""
    edges = [(p, (p + 1) % t) for p in range(t)]
    edges += [(p, t + p) for p in range(t)]
    edges += [((p + 2) % t, t + p) for p in range(t)]
    n = _hang_trees(rng, 2 * t, edges, trees)
    return Instance(n=n, edges=edges, cycle=list(range(t)))


def _shuffle(rng, inst):
    """The same instance under a random vertex relabelling, with the cycle
    read from a random start in a random direction."""
    perm = list(range(inst.n))
    rng.shuffle(perm)
    cycle = [perm[c] for c in inst.cycle]
    s = rng.randrange(inst.t)
    cycle = cycle[s:] + cycle[:s]
    if rng.random() < 0.5:
        cycle.reverse()
    return Instance(n=inst.n, edges=[(perm[u], perm[v]) for u, v in inst.edges],
                    cycle=cycle)


def _corpus(rng):
    """(label, instance) pairs for the differential test; some fail the pair
    condition and are filtered out by the caller."""
    for depths in itertools.product((1, 2, 3), repeat=3):
        d1, d2, d3 = depths
        t = 2 * sum(depths)
        hub = _tight(depths)
        yield "hub", _hub_instance(rng, t, [hub])
        yield "hub", _shuffle(rng, _hub_instance(rng, t, [hub], 6))
        # one path one hop longer: tight chains that just miss
        yield "near", _shuffle(rng, _hub_instance(
            rng, t, [((d1, d2, d3 + 1), hub[1])], 3))
        # odd t: the arc from k back to i is one shorter than its paths
        yield "near", _shuffle(rng, _hub_instance(
            rng, t + 1, [((d1, d2, d3 + 1), (d1 + d2, d2 + d3 + 1, d3 + d1))],
            3))
        # two violators: the one with the lower id is reported
        yield "two", _shuffle(rng, _hub_instance(
            rng, t, [hub, _tight(depths[::-1])], 2))
        yield "bridged", _shuffle(rng, _bridged_instance(rng, t, 4))
    while True:
        depths = tuple(rng.randint(1, 4) for _ in range(3))
        yield "hub", _shuffle(rng, _hub_instance(
            rng, 2 * sum(depths), [_tight(depths)], rng.randint(0, 12)))
        for _ in range(16):
            t = rng.randint(3, 14)
            yield "random", random_instance(rng, t, rng.randint(0, 12),
                                            rng.randint(0, 2),
                                            connected=rng.random() < 0.5)


def test_check_triple_matches_reference():
    """check_triple equals the O(n·t³) reference on at least 1,000
    pair-passing instances, at least 100 of them violating: hubs at every
    depth pattern, near misses, odd t, two violators (the lower id wins),
    geodesic vertices and random instances with unreachable vertices, most
    under a random relabelling so cycle vertices need not come first."""
    rng = random.Random(suite_seed() + 11)
    passing = violating = odd = unreachable = 0
    labels = Counter()
    for label, inst in _corpus(rng):
        if passing >= 1000 and violating >= 100:
            break
        assert validate_instance(inst) == []
        dt = graph_distances(inst)
        if check_pair(inst, dt) is not None:
            continue
        got = check_triple(inst, dt)
        assert got == check_triple_reference(inst, dt), (label, inst)
        passing += 1
        violating += got is not None
        odd += inst.t % 2
        unreachable += None in dt.from_position(0)
        labels[label] += 1
    assert passing >= 1000 and violating >= 100
    assert odd >= 100 and unreachable >= 100, (odd, unreachable)
    assert labels["two"] == labels["bridged"] == 27, labels
    assert labels["near"] == 54, labels


def _distance_profiles(t, top):
    """Every cyclically 1-Lipschitz list of t values in 0..top with at most
    one zero: the distances from one vertex to the cycle vertices."""
    def grow(d):
        if len(d) == t:
            if abs(d[0] - d[-1]) <= 1 and d.count(0) <= 1:
                yield d
            return
        for x in (d[-1] - 1, d[-1], d[-1] + 1):
            if 0 <= x <= top:
                yield from grow(d + [x])
    for x in range(top + 1):
        yield from grow([x])


def test_tight_chain_lookup_exhaustive():
    """The interval lookup finds a tight chain with no anchor at v exactly
    when one exists, on every distance profile up to t=10.  A zero marks v
    as that cycle vertex: chains anchored there are skipped and the search
    goes on to later ones.  (Under the pair condition a cycle vertex never
    violates, so this skip only shows on profiles taken on their own.)"""
    skipped_then_found = 0
    for t in range(3, 11):
        tight = [(i, j, k) for i, j, k in itertools.combinations(range(t), 3)
                 if cycle_distance(t, i, j) + cycle_distance(t, j, k)
                 + cycle_distance(t, i, k) == t]
        for d in _distance_profiles(t, 4):
            pos = d.index(0) if 0 in d else None
            chains = [(i, j, k) for i, j, k in tight
                      if j - d[j] == i + d[i] and k - d[k] == j + d[j]
                      and k + d[k] == t + i - d[i]]
            free = [c for c in chains if pos not in c]
            assert conditions._has_tight_chain(d, t, pos) == bool(free), \
                (t, d)
            skipped_then_found += bool(free) and min(chains) != min(free)
    assert skipped_then_found >= 100


def test_lower_id_violator_reported():
    # two hubs on a 6-cycle: one sees positions 1,3,5, the other 2,4,6
    edges = [(i, (i + 1) % 6) for i in range(6)]
    odd_hub = edges + [(0, 6), (2, 6), (4, 6), (1, 7), (3, 7), (5, 7)]
    even_hub = edges + [(0, 7), (2, 7), (4, 7), (1, 6), (3, 6), (5, 6)]
    for hub_edges, triple in ((odd_hub, (1, 3, 5)), (even_hub, (2, 4, 6))):
        inst = Instance(n=8, edges=hub_edges, cycle=list(range(6)))
        assert check_pair(inst) is None
        assert check_triple(inst) == TripleViolation(*triple, v=6, d_i=1,
                                                     d_j=1, d_k=1)


def test_tight_triple_scan_runs_only_for_a_violator(monkeypatch):
    """Cost guard without timing: on universal t=64 instances the cubic
    enumeration of tight triples never runs."""
    def cubic(t):
        raise AssertionError("tight triples enumerated")
    monkeypatch.setattr(conditions, "_tight_triples", cubic)
    rng = random.Random(suite_seed())
    near_miss = _hub_instance(rng, 64, [((10, 11, 12), (21, 22, 21))],
                              1000)
    for inst in (near_miss, _bridged_instance(rng, 64, 1000)):
        assert check_universality(inst).universal

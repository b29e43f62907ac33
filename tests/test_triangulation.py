import pytest

from polyext.geometry import SimplePolygon, pt
from polyext.oracle import _root_pockets
from polyext.triangulation import (ear_clip, root_dual, validate_triangulation,
                                   TriangulationError, ear_triangles)


def convex_polygon(t):
    # strictly convex lattice-ish polygon via points on a large circle
    from fractions import Fraction
    pts = []
    for k in range(t):
        # rational points on a convex arc
        x = Fraction(k * (t - k), 1)
        pts.append(pt(k, x))
    # fall back to a generic fan shape: use a known convex set
    base = {3: [(0, 0), (4, 0), (2, 3)],
            4: [(0, 0), (4, 0), (4, 4), (0, 4)],
            5: [(0, 0), (4, 0), (6, 3), (3, 6), (-1, 3)],
            6: [(0, 0), (4, 0), (6, 3), (4, 6), (0, 6), (-2, 3)],
            7: [(0, 0), (4, 0), (6, 2), (6, 5), (3, 7), (-1, 5), (-2, 2)],
            8: [(0, 0), (4, 0), (6, 2), (6, 5), (4, 7), (0, 7), (-2, 5),
                (-2, 2)]}
    return SimplePolygon.from_points([pt(x, y) for x, y in base[t]])


@pytest.mark.parametrize("t", [3, 4, 5, 6, 7, 8])
def test_ear_clip_counts(t):
    tri = ear_clip(convex_polygon(t))
    assert len(tri.diagonals) == t - 3
    assert len(tri.triangles) == t - 2
    # re-validates cleanly
    validate_triangulation(tri.polygon, tri.diagonals)


def test_validate_rejects_crossing_diagonals():
    P = convex_polygon(6)
    with pytest.raises(TriangulationError):
        validate_triangulation(P, [(0, 2), (1, 3), (0, 3)])


def test_validate_rejects_exterior_diagonal(l_polygon):
    # (p3, p6) crosses the notch of the L
    with pytest.raises(TriangulationError):
        validate_triangulation(l_polygon, [(2, 5), (0, 2), (2, 4)])


def test_l_polygon_triangulation(l_polygon):
    tri = root_dual(validate_triangulation(l_polygon, [(0, 2), (0, 3), (3, 5)]))
    assert len(tri.triangles) == 4
    assert tri.root is not None


def test_pocket_structure(unit_square):
    tri = root_dual(validate_triangulation(unit_square, [(1, 3)]))
    assert len(tri.pockets) == 5  # 4 boundary edges + 1 diagonal
    root_tri = tri.triangles[tri.root]
    for edge, pocket in tri.pockets.items():
        assert pocket.size >= 1
        if pocket.trivial:
            assert pocket.inner_triangle is None
        else:
            assert pocket.apex is not None
            assert pocket.children is not None
    # root pockets cover all three root triangle edges
    lids = {p.edge for p in _root_pockets(tri)}
    assert len(lids) == 3


def test_root_policy(unit_square):
    tri = validate_triangulation(unit_square, [(1, 3)])
    r0 = root_dual(tri, policy=0)
    r1 = root_dual(tri, policy=1)
    assert r0.root == 0 and r1.root == 1
    assert root_dual(tri, policy="ear").root in (0, 1)
    assert ear_triangles(tri)


def test_split_ring_large_fan_without_recursion():
    # a fan from vertex 0 nests one sub-polygon per ear; t=1500 is far past
    # the interpreter's recursion limit
    from polyext.triangulation import _split_ring
    t = 1500
    triangles = _split_ring(t, {(0, k) for k in range(2, t - 1)})
    assert len(triangles) == t - 2
    assert sorted(triangles) == [(0, k, k + 1) for k in range(1, t - 1)]


# ---------------------------------------------------------------------------
# Orientation check against the per-diagonal reference.
# ---------------------------------------------------------------------------

def _subdivided(rng, poly):
    """The polygon with a collinear subdivision point on one random edge."""
    from fractions import Fraction
    pts = list(poly.points)
    i = rng.randrange(len(pts))
    a, b = pts[i], pts[(i + 1) % len(pts)]
    u = Fraction(rng.randint(1, 3), 4)
    pts.insert(i + 1, a + (b - a).scale(u))
    return SimplePolygon.from_points(pts)


def _random_split(rng, t):
    """The diagonals of a random combinatorial triangulation of the t-ring."""
    diags, work = [], [(0, t - 1)]
    while work:
        lo, hi = work.pop()
        m = rng.randint(lo + 1, hi - 1)
        for a, b in ((lo, m), (m, hi)):
            if b - a >= 2:
                diags.append((a, b))
                work.append((a, b))
    return diags


def _diagonal_sets(rng, poly):
    """Random diagonal sets of several kinds, most of them combinatorial
    triangulations (so only the geometry can reject them)."""
    t = len(poly)
    yield list(ear_clip(poly).diagonals)
    for _ in range(12):
        yield _random_split(rng, t)
    for _ in range(2):
        diags = _random_split(rng, t)
        if diags:
            diags[rng.randrange(len(diags))] = (rng.randint(-1, t),
                                                rng.randint(-1, t))
        yield diags
    yield [tuple(rng.sample(range(t), 2)) for _ in range(t - 3)]
    yield _random_split(rng, t)[1:]


def _verdict(check, poly, diags):
    try:
        return check(poly, diags).triangles
    except TriangulationError:
        return None


def test_orientation_check_matches_reference(rng, monkeypatch):
    # the differential test of the O(t) check: every triangle strictly ccw
    # over a combinatorial triangulation accepts exactly the diagonal sets
    # that the per-diagonal geometric reference accepts, with the same
    # triangles
    import functools
    import polyext.oracle as oracle
    from polyext.oracle import random_polygon, validate_triangulation_reference
    # the reference's per-diagonal test is a pure function of the polygon
    # and the pair; sets drawn on one polygon share most of their diagonals
    monkeypatch.setattr(oracle, "_diagonal_ok",
                        functools.lru_cache(maxsize=None)(oracle._diagonal_ok))
    cases = accepted = collinear = geometric_rejects = 0
    while cases < 3000:
        t = rng.randint(4, 13)
        with_point = rng.random() < 0.3
        poly = random_polygon(rng, t - 1 if with_point else t)
        if with_point:
            poly = _subdivided(rng, poly)
        for diags in _diagonal_sets(rng, poly):
            fast = _verdict(validate_triangulation, poly, diags)
            slow = _verdict(validate_triangulation_reference, poly, diags)
            assert fast == slow, (poly.points, diags)
            cases += 1
            accepted += fast is not None
            collinear += with_point
            if fast is None and len(set(diags)) == t - 3 == len(diags):
                geometric_rejects += 1
    print(f"{cases} sets: {accepted} valid, {geometric_rejects} combinatorial "
          f"triangulations rejected, {collinear} with a collinear point")
    assert accepted > 500 and geometric_rejects > 500 and collinear > 500


def test_inverted_triangle_is_named():
    # the quadrilateral's reflex corner 2 makes the diagonal (1, 3) leave
    # the polygon: triangle (1, 2, 3) is clockwise
    dart = SimplePolygon.from_points([pt(0, 0), pt(4, 2), pt(2, 2), pt(4, 6)])
    with pytest.raises(TriangulationError, match=r"triangle \(1, 2, 3\)"):
        validate_triangulation(dart, [(1, 3)])
    assert validate_triangulation(dart, [(0, 2)]).triangles

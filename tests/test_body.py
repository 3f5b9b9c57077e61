import math

import numpy as np
import oracles
import pytest

from spherewidth import body as bd
from spherewidth import sphere
from spherewidth.errors import InvalidBody, NotOnBoundary, NotSelfDual
from spherewidth.body import (
    ConvexBody,
    Polytope,
    contains,
    contains_many,
    diametral_partner,
    polar_dual,
    support_poles_at,
    to_polytope,
    validate,
    validate_polytope,
)
from spherewidth.generators import cap, octant, rotated, rotation_from_seed
from spherewidth.sphere import GreatArc, SmallCircleArc, unit

E1, E2, E3 = np.eye(3)


def fib_sphere(n):
    """Quasi-uniform deterministic point cloud on the sphere."""
    i = np.arange(n) + 0.5
    phi = math.pi * (1 + 5**0.5) * i
    z = 1 - 2 * i / n
    r = np.sqrt(1 - z * z)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


# --------------------------------------------------------------- validation


def test_octant_validates():
    rep = validate_polytope(octant())
    assert rep.ok, str(rep)


def test_cap_validates():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        c = cap(unit(rng.normal(size=3)), rng.uniform(0.2, 1.3))
        assert validate(c).ok


def test_two_vertex_polytope_fails():
    rep = validate_polytope(Polytope(np.array([E1, E2])))
    assert not rep.ok
    assert "vertex-count" in rep.failed()


def test_zero_or_nonfinite_vertex_rows_raise():
    with pytest.raises(InvalidBody, match=r"zero or non-finite norm: 0 \[0\.0, 0\.0, 0\.0\]$"):
        Polytope(np.array([[0.0, 0.0, 0.0], E1, E2]))
    with pytest.raises(InvalidBody, match=r"norm: 1 \[nan, 0\.0, 1\.0\]; 3 \[0\.0, inf, 0\.0\]$"):
        Polytope(np.array([E1, [math.nan, 0.0, 1.0], E2, [0.0, math.inf, 0.0]]))


def test_inward_bulge_fails_convexity():
    # the same circle traversed against its stored orientation: claim the
    # interior on the far side of the cap boundary
    piece = SmallCircleArc(E3, math.pi / 4, 0.0, 2 * math.pi)
    wrong = ConvexBody([piece], unit([0.2, 0.0, -1.0]))
    rep = validate(wrong)
    assert not rep.ok
    assert "support-orientation" in rep.failed() or "hemispherical" in rep.failed()


def test_redundant_vertex_detected():
    mid = unit(E1 + E2)
    rep = validate_polytope(Polytope(np.array([E1, mid, E2, E3])))
    assert not rep.ok
    assert "no-redundant-vertices" in rep.failed()


def test_reflex_junction_fails_convexity():
    # swapping two vertices of a convex quadrilateral creates reflex turns
    p = unit(0.75 * E3 + 0.25 * E2)
    q = unit(0.75 * E3 + 0.25 * E1)
    good = validate_polytope(Polytope(np.array([E1, E2, p, q])))
    assert good.ok
    bad = validate_polytope(Polytope(np.array([E1, E2, q, p])))
    assert not bad.ok
    assert "convex-turns" in bad.failed()


# --------------------------------------------------------------- membership


def test_contains_witness_and_antipode():
    b = cap(E3, 0.9)
    assert contains(b, b.interior)
    assert not contains(b, -b.interior)


def test_contains_boundary_points_closed():
    b = cap(unit([1, 2, 3]), 0.7)
    for p in b.boundary_samples(32):
        assert contains(b, p)


def test_contains_cap_matches_closed_form():
    z = unit([0.3, -0.4, 0.9])
    r = 0.8
    b = cap(z, r)
    pts = fib_sphere(4000)
    got = contains_many(b, pts)
    want = sphere.acos_clamped_np(pts @ z) <= r + 1e-9
    assert np.array_equal(got, want)
    # more rows than one block of the batched kernels holds for two pieces
    from fixtures import lens

    z1, z2, r1, r2 = unit([0.0, 0.0, 1.0]), unit([0.5, 0.0, 1.0]), 0.7, 0.6
    pts = np.random.default_rng(5).permutation(fib_sphere(3 * bd.BLOCK_ELEMENTS // 2))
    got = contains_many(lens(z1, z2, r1, r2), pts)
    want = (sphere.acos_clamped_np(pts @ z1) <= r1 + 1e-9) & (
        sphere.acos_clamped_np(pts @ z2) <= r2 + 1e-9
    )
    assert np.array_equal(got, want)
    # a circular segment: one circle arc closed by one great arc
    arc = SmallCircleArc(z, r, 0.5, 4.5)
    chord = GreatArc(arc.end, arc.start)
    seg = ConvexBody([arc, chord], bd.interior_witness([arc, chord]))
    assert validate(seg).ok
    got = contains_many(seg, pts)
    want = (sphere.acos_clamped_np(pts @ z) <= r + 1e-9) & (pts @ chord.pole >= -1e-9)
    assert np.array_equal(got, want)


def test_contains_octant_matches_vertex_dots():
    b = octant().to_body()
    pts = fib_sphere(4000)
    got = contains_many(b, pts)
    want = np.all(pts @ np.eye(3).T >= -1e-9, axis=1)
    assert np.array_equal(got, want)
    # a many-edge polytope, so the rows span many blocks of the batched kernels
    from spherewidth.approx import ApproximationConfig, approximate_polytope

    poly, _, _ = approximate_polytope(cap(unit([1, 2, 3]), math.pi / 4), ApproximationConfig(0.01))
    assert len(poly) * len(pts) > 8 * bd.BLOCK_ELEMENTS
    got = contains_many(poly.to_body(), pts)
    want = oracles.polytope_inside(poly.vertices, tol=1e-9)(pts)
    assert np.array_equal(got, want)


def test_body_distance_zero_inside_positive_outside():
    b = cap(E3, 0.6)
    assert bd.body_distance(b, E3) == 0.0
    d = bd.body_distance(b, E1)
    assert d == pytest.approx(math.pi / 2 - 0.6, abs=1e-12)


# ------------------------------------------------------------------ duality


def test_octant_dual_is_octant():
    dual = polar_dual(octant().to_body())
    poly = to_polytope(dual)
    assert len(poly) == 3
    got = {tuple(np.round(v, 12)) for v in poly.vertices}
    assert got == {tuple(E1), tuple(E2), tuple(E3)}


def test_cap_quarter_pi_dual_fixed_point():
    b = cap(E3, math.pi / 4)
    d = polar_dual(b)
    assert len(d.pieces) == 1
    p = d.pieces[0]
    assert isinstance(p, SmallCircleArc)
    assert p.radius == pytest.approx(math.pi / 4, abs=1e-15)
    assert np.allclose(p.center, E3)
    assert p.is_full


def test_cap_dual_radius_complement():
    b = cap(E3, math.pi / 6)
    d = polar_dual(b)
    p = d.pieces[0]
    assert p.radius == pytest.approx(math.pi / 3, abs=1e-15)


def test_dual_of_dual_restores_cap_exactly():
    b = cap(unit([1.0, -2.0, 2.0]), 0.5)
    dd = polar_dual(polar_dual(b))
    p0, p1 = b.pieces[0], dd.pieces[0]
    assert np.allclose(p0.center, p1.center, atol=1e-15)
    assert p1.radius == pytest.approx(p0.radius, abs=1e-15)
    assert p1.az_from == pytest.approx(p0.az_from, abs=1e-12)
    assert p1.span == pytest.approx(p0.span, abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_polytope_dual_matches_halfspace_oracle(seed):
    # Membership in the dual must agree with the definition: all primal
    # vertices have non-negative dot with the point.
    rot = rotation_from_seed(seed)
    poly = rotated(octant(), rot)
    dual = polar_dual(poly.to_body())
    pts = fib_sphere(5000)
    got = contains_many(dual, pts, tol=1e-9)
    want = np.all(pts @ poly.vertices.T >= -1e-9, axis=1)
    disagree = got != want
    # allow disagreement only within a hair of the dual boundary
    if np.any(disagree):
        d = bd.boundary_distance_many(dual, pts[disagree])
        assert np.max(np.abs(d)) < 1e-6
    assert np.mean(disagree) < 0.001


def test_dual_of_small_body_validates():
    # the dual of a small lens is large; the hemisphericity certificate must
    # still be found even when the boundary mean is far from central
    from fixtures import lens

    body = lens(E3, unit([0.9, 0.2, 1.0]), 0.5, 0.4)
    dual = polar_dual(body)
    rep = bd.validate(dual)
    assert rep.ok, str(rep)


def test_dual_order_reversal_on_nested_caps():
    inner = cap(E3, 0.5)
    outer = cap(E3, 0.7)
    di = polar_dual(inner)
    do = polar_dual(outer)
    pts = fib_sphere(2000)
    in_do = contains_many(do, pts)
    in_di = contains_many(di, pts)
    assert np.all(~in_do | in_di)  # dual(outer) inside dual(inner)


# ------------------------------------------------------------------ support


def test_support_pole_on_cap():
    b = cap(E3, math.pi / 4)
    s = math.sqrt(2) / 2
    p = np.array([s, 0.0, s])
    sup = support_poles_at(b, p)
    assert not sup.is_vertex
    assert np.allclose(sup.poles, [-s, 0.0, s], atol=1e-12)
    # H(pole) contains the cap
    assert np.min(b.boundary_samples(64) @ sup.poles) > -1e-12


def test_support_at_octant_vertex_is_pole_arc():
    b = octant().to_body()
    sup = support_poles_at(b, E2)
    assert sup.is_vertex
    ends = {tuple(np.round(sup.poles.start, 9)), tuple(np.round(sup.poles.end, 9))}
    assert ends == {tuple(E3), tuple(E1)}


def test_support_at_octant_edge_midpoint():
    b = octant().to_body()
    sup = support_poles_at(b, unit(E1 + E2))
    assert not sup.is_vertex
    assert np.allclose(sup.poles, E3, atol=1e-12)


def test_support_not_on_boundary_raises():
    with pytest.raises(NotOnBoundary):
        support_poles_at(octant().to_body(), unit([1, 1, 1]))


def test_support_duality_on_generic_body():
    # poles of a body lie on its dual boundary and support it reciprocally,
    # self-dual or not
    from fixtures import lens

    body = lens(E3, unit([0.5, 0.1, 1.0]), 0.7, 0.5)
    dual = polar_dual(body)
    rng = np.random.default_rng(8)
    for piece in body.pieces:
        for az in rng.uniform(piece.az_from + 1e-3, piece.az_to - 1e-3, 8):
            p = piece.point_at(az)[0]
            k = support_poles_at(body, p).representative()
            assert bd.boundary_distance_many(dual, k[None, :])[0] <= 1e-8
            assert abs(sphere.dot(p, k)) <= 1e-12
            # H(p) supports the dual at k
            assert np.min(dual.boundary_samples(64) @ p) >= -1e-8


# ------------------------------------------------------- diametral partners


def test_partner_on_selfdual_cap_is_opposite_azimuth():
    b = cap(E3, math.pi / 4)
    piece = b.pieces[0]
    for az in np.linspace(0, 2 * math.pi, 9)[:-1]:
        p = piece.point_at(az)[0]
        q = diametral_partner(b, p)
        assert abs(sphere.dot(p, q)) < 1e-10
        assert np.allclose(q, piece.point_at(az + math.pi)[0], atol=1e-12)
        assert contains(b, q)


def test_partner_octant_edge_midpoint():
    q = diametral_partner(octant().to_body(), unit(E1 + E2))
    assert np.allclose(q, E3, atol=1e-12)


def test_partner_octant_vertex_is_arc_midpoint():
    q = diametral_partner(octant().to_body(), E1)
    assert np.allclose(q, unit(E2 + E3), atol=1e-12)


def test_partner_requires_selfdual():
    with pytest.raises(NotSelfDual):
        diametral_partner(cap(E3, math.pi / 6), cap(E3, math.pi / 6).pieces[0].point_at(0.0)[0])


def test_partner_chords_intersect():
    # any two diametral chords of a self-dual body must cross
    b = cap(E3, math.pi / 4)
    piece = b.pieces[0]
    rng = np.random.default_rng(5)
    for _ in range(50):
        a1, a2 = rng.uniform(0, 2 * math.pi, size=2)
        p1 = piece.point_at(a1)[0]
        p2 = piece.point_at(a2)[0]
        c1 = GreatArc(p1, diametral_partner(b, p1))
        c2 = GreatArc(p2, diametral_partner(b, p2))
        assert sphere.arcs_intersect(c1, c2)

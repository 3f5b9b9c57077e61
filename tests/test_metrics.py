import math

import numpy as np
import pytest

import oracles
from fixtures import lens, truncated_octant
from spherewidth.approx import ApproximationConfig, approximate_polytope
from spherewidth.body import BLOCK_ELEMENTS, Polytope, polar_dual, validate_polytope
from spherewidth.errors import NotSupporting
from spherewidth.generators import cap, octant
from spherewidth.metrics import (
    diameter,
    hausdorff,
    is_constant_width,
    self_duality_residual,
    thickness,
    width_wrt,
)
from spherewidth.sphere import acos_clamped_np, lune_thickness, sample_piece, unit

E1, E2, E3 = np.eye(3)
PI = math.pi


@pytest.fixture(scope="module")
def lens_body():
    return lens(E3, unit([0.6, 0.2, 1.0]), 0.8, 0.55)


# ------------------------------------------------------------------- widths


def test_width_octant_wrt_e3():
    assert width_wrt(octant(), E3) == pytest.approx(PI / 2, abs=1e-12)


def test_width_selfdual_cap_any_support_pole():
    b = cap(E3, PI / 4)
    piece = b.pieces[0]
    for az in np.linspace(0, 2 * PI, 7)[:-1]:
        k = piece.support_pole_at(az)[0]
        assert width_wrt(b, k) == pytest.approx(PI / 2, abs=1e-9)
    # a self-dual polytope: every vertex is a support pole; its width sweep
    # spans many piece blocks of the batched farthest-distance kernel
    poly, _, _ = approximate_polytope(cap(unit([1, 2, 3]), PI / 4), ApproximationConfig(0.01))
    dual = polar_dual(poly.to_body())
    for k in poly.vertices:
        assert width_wrt(poly, k, dual=dual) == pytest.approx(PI / 2, abs=1e-9)
    rep = is_constant_width(poly, PI / 2)
    assert len(poly) * 4096 > 8 * BLOCK_ELEMENTS
    assert rep.width_min == pytest.approx(PI / 2, abs=1e-9)
    assert rep.width_max == pytest.approx(PI / 2, abs=1e-9)


def test_width_requires_support():
    with pytest.raises(NotSupporting):
        width_wrt(octant(), unit([1, 1, 1]))  # interior direction, no touch
    with pytest.raises(NotSupporting):
        width_wrt(octant(), -E3)  # cuts the body


def test_width_lens_matches_sampling_oracle(lens_body):
    body = lens_body
    # supporting poles sampled from the piece tangents; oracle sweeps 1e4 poles
    for piece in body.pieces:
        for az in np.linspace(piece.az_from + 0.1, piece.az_to - 0.1, 5):
            k = piece.support_pole_at(az)[0]
            got = width_wrt(body, k)
            want = oracles.width_oracle(body, k, per_piece=5000)
            assert got == pytest.approx(want, abs=1e-4)


def test_width_bounded_by_lune_thickness(lens_body):
    body = lens_body
    dual = polar_dual(body)
    k = body.pieces[0].support_pole_at(body.pieces[0].az_from + 0.2)[0]
    w = width_wrt(body, k)
    for piece in dual.pieces:
        for q in sample_piece(piece, 50):
            assert w <= lune_thickness(k, q) + 1e-9


# -------------------------------------------------------- thickness/diameter


def test_thickness_octant():
    assert thickness(octant()) == pytest.approx(PI / 2, abs=1e-12)


@pytest.mark.parametrize("r", [0.3, PI / 4, 1.1])
def test_cap_thickness_and_diameter(r):
    b = cap(unit([1, -1, 2]), r)
    assert thickness(b) == pytest.approx(2 * r, abs=1e-9)
    assert diameter(b) == pytest.approx(2 * r, abs=1e-9)


def test_lens_thickness_matches_oracle(lens_body):
    got = thickness(lens_body)
    want = oracles.thickness_oracle(lens_body)
    assert got == pytest.approx(want, abs=2e-4)


def test_lens_diameter_matches_oracle(lens_body):
    got = diameter(lens_body)
    want = oracles.diameter_oracle(lens_body)
    assert got == pytest.approx(want, abs=1e-4)


def test_diameter_octant():
    assert diameter(octant()) == pytest.approx(PI / 2, abs=1e-12)
    # random hulls of 40 points on a circle of radius 0.7 (diameter < pi/2)
    # attain their diameter at a vertex pair; rotating the vertex order moves
    # that pair through the blocks of piece pairs
    rng = np.random.default_rng(3)
    for _ in range(3):
        c = unit(rng.normal(size=3))
        u = unit(np.cross(c, rng.normal(size=3)))
        az = np.sort(rng.uniform(0, 2 * PI, 40))
        ring = np.outer(np.cos(az), u) + np.outer(np.sin(az), np.cross(c, u))
        verts = math.cos(0.7) * c + math.sin(0.7) * ring
        want = float(np.max(acos_clamped_np(verts @ verts.T)))
        assert want < PI / 2
        for shift in range(0, 40, 5):
            poly = Polytope(np.roll(verts, shift, axis=0))
            assert validate_polytope(poly).ok
            assert diameter(poly) == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------------ width reports


def test_octant_is_constant_width():
    rep = is_constant_width(octant(), PI / 2, tol=1e-9)
    assert rep.passed
    assert rep.self_duality_residual < 1e-10
    assert abs(rep.diameter - PI / 2) < 1e-9


def test_cap_third_pi_fails_constant_width_check():
    rep = is_constant_width(cap(E3, PI / 3), PI / 2, tol=1e-6)
    assert not rep.passed
    assert rep.width_min == pytest.approx(2 * PI / 3, abs=1e-9)


def test_truncated_octant_not_constant_width():
    rep = is_constant_width(truncated_octant(), PI / 2, tol=1e-6)
    assert not rep.passed
    assert rep.spread > 1e-3


# ---------------------------------------------------------------- Hausdorff


def test_hausdorff_self_is_zero():
    b = cap(E3, 0.8)
    assert hausdorff(b, b) < 1e-12


def test_hausdorff_concentric_caps():
    d = hausdorff(cap(E3, PI / 4), cap(E3, PI / 4 - 0.1))
    assert d == pytest.approx(0.1, abs=1e-9)


def test_hausdorff_octant_vs_cap_matches_oracle():
    z = unit([1, 1, 1])
    a = octant().to_body()
    c = cap(z, PI / 4)
    got = hausdorff(a, c)
    want = oracles.hausdorff_oracle(
        a,
        c,
        oracles.polytope_inside(octant().vertices),
        oracles.cap_inside(z, PI / 4),
        per_piece=30000,
    )
    assert got == pytest.approx(want, abs=1e-4)


def test_hausdorff_symmetry_and_triangle():
    rng = np.random.default_rng(11)
    bodies = [
        cap(unit(rng.normal(size=3)), rng.uniform(0.4, 1.0)) for _ in range(3)
    ]
    h01 = hausdorff(bodies[0], bodies[1])
    h10 = hausdorff(bodies[1], bodies[0])
    assert h01 == pytest.approx(h10, abs=1e-9)
    h12 = hausdorff(bodies[1], bodies[2])
    h02 = hausdorff(bodies[0], bodies[2])
    assert h02 <= h01 + h12 + 1e-7


# ----------------------------------------------------------------- residual


def test_residual_octant_zero():
    assert self_duality_residual(octant()) < 1e-10


def test_residual_selfdual_cap_zero():
    assert self_duality_residual(cap(E3, PI / 4)) < 1e-10


def test_residual_shifted_cap():
    got = self_duality_residual(cap(E3, PI / 4 - 0.05))
    assert got == pytest.approx(0.1, abs=1e-6)


def test_polar_involution_small():
    for b in [cap(unit([1, 2, -1]), 0.6), octant().to_body()]:
        assert hausdorff(polar_dual(polar_dual(b)), b) <= 1e-9

import math

import numpy as np
import oracles
import pytest
from fixtures import acceptance_corpus, lens
from hypothesis import given, settings
from hypothesis import strategies as st

from spherewidth import sphere
from spherewidth.body import Polytope, polar_dual
from spherewidth.errors import AmbiguousSide, DegenerateArc, DegenerateLune
from spherewidth.generators import random_selfdual_polytope
from spherewidth.sphere import (
    TWO_PI,
    GreatArc,
    Hemisphere,
    Lune,
    SmallCircleArc,
    arc_pole,
    arcs_intersect,
    geodesic_distance,
    great_arc_stack,
    linspace_grid,
    lune_thickness,
    max_distance_to_piece,
    point_to_piece_distance,
    sample_piece,
    stack_arcs,
    unit,
    unit_each,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def random_units(rng, n):
    return sphere.unit_rows(rng.normal(size=(n, 3)))


unit_vec = st.builds(
    lambda a, b, c: unit([a, b, c]),
    *(st.floats(-1, 1, allow_nan=False).filter(lambda x: abs(x) > 1e-3),) * 3,
)


# ---------------------------------------------------------------- distances


def test_geodesic_distance_axes():
    assert geodesic_distance(E1, E2) == pytest.approx(math.pi / 2, abs=1e-15)


def test_geodesic_distance_identity_and_antipode():
    p = unit([0.3, -0.5, 0.81])
    assert geodesic_distance(p, p) == 0.0
    assert geodesic_distance(p, -p) == pytest.approx(math.pi, abs=1e-15)


@given(unit_vec, unit_vec)
def test_geodesic_distance_symmetric(p, q):
    assert geodesic_distance(p, q) == pytest.approx(geodesic_distance(q, p), abs=1e-12)


@given(unit_vec, unit_vec, unit_vec)
@settings(max_examples=200)
def test_triangle_inequality(p, q, r):
    assert geodesic_distance(p, r) <= geodesic_distance(p, q) + geodesic_distance(q, r) + 1e-10


# --------------------------------------------------------------------- lunes


def test_lune_thickness_orthogonal_poles():
    assert lune_thickness(E1, E2) == pytest.approx(math.pi / 2, abs=1e-15)


def test_lune_thickness_formula():
    # poles at dot -1/2 are 2*pi/3 apart; thickness pi - 2*pi/3 = pi/3
    b = unit([-0.5, math.sqrt(3) / 2, 0.0])
    assert lune_thickness(E1, b) == pytest.approx(math.pi / 3, abs=1e-12)


def test_lune_degenerate_guard():
    q = unit([1.0, 1e-7, 0.0])
    # dot with e1 is 1 - 5e-15, inside the 1e-12 degeneracy band
    with pytest.raises(DegenerateLune):
        lune_thickness(E1, q)
    with pytest.raises(DegenerateLune):
        Lune(E1, -E1)


@given(unit_vec, unit_vec)
@settings(max_examples=300)
def test_lune_plus_distance_is_pi(p, q):
    if abs(sphere.dot(p, q)) >= 1.0 - 1e-9:
        return
    assert lune_thickness(p, q) + geodesic_distance(p, q) == pytest.approx(
        math.pi, abs=1e-10
    )


def test_hemisphere_membership_closed():
    h = Hemisphere(E3)
    assert h.contains(E1)
    assert h.contains(E3)
    assert not h.contains(np.array([0.0, 0.1, -0.2]) / np.linalg.norm([0.0, 0.1, -0.2]))


# ------------------------------------------------------------------ arc_pole


def test_arc_pole_axes():
    assert np.allclose(arc_pole(E1, E2, E3), E3)
    assert np.allclose(arc_pole(E1, E2, -E3), -E3)


def test_arc_pole_slanted():
    s = math.sqrt(2) / 2
    p1 = np.array([s, 0.0, s])
    p2 = np.array([0.0, s, s])
    r = arc_pole(p1, p2, E3)
    # independent check: explicit cross product, normalized
    expected = np.array([-1.0, -1.0, 1.0]) / math.sqrt(3)
    assert np.allclose(r, expected, atol=1e-15)
    assert abs(sphere.dot(r, p1)) < 1e-15
    assert abs(sphere.dot(r, p2)) < 1e-15


def test_arc_pole_degenerate_and_ambiguous():
    with pytest.raises(DegenerateArc):
        arc_pole(E1, -E1, E3)
    with pytest.raises(AmbiguousSide):
        arc_pole(E1, E2, unit([1.0, 1.0, 0.0]))


@given(unit_vec, unit_vec, unit_vec)
@settings(max_examples=200)
def test_arc_pole_orthogonal_to_inputs(p1, p2, hint):
    if abs(sphere.dot(p1, p2)) >= 1.0 - 1e-6:
        return
    n = sphere.unit(sphere.cross(p1, p2))
    if abs(sphere.dot(n, hint)) < 1e-6:
        return
    r = arc_pole(p1, p2, hint)
    assert abs(sphere.dot(r, p1)) < 1e-10
    assert abs(sphere.dot(r, p2)) < 1e-10
    assert sphere.dot(r, hint) > 0


# ---------------------------------------------------- octant pair property


def test_octant_triangle_pairs_below_right_angle():
    # pairs strictly inside the first-octant triangle stay within pi/2
    rng = np.random.default_rng(7)
    w = rng.dirichlet([1.0, 1.0, 1.0], size=(10_000, 2))
    q1 = sphere.unit_rows(w[:, 0, :])
    q2 = sphere.unit_rows(w[:, 1, :])
    d = sphere.acos_clamped_np(np.sum(q1 * q2, axis=1))
    assert np.all(d < math.pi / 2 + 1e-12)
    interior = np.all(q1 < 1.0, axis=1) & np.all(q2 < 1.0, axis=1)
    assert np.all(d[interior] < math.pi / 2)


# ------------------------------------------------------------------- pieces


def test_small_circle_arc_rejects_bad_radius_and_span():
    with pytest.raises(ValueError):
        SmallCircleArc(E3, math.pi / 2, 0.0, 1.0)
    with pytest.raises(ValueError):
        SmallCircleArc(E3, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        SmallCircleArc(E3, 0.5, 1.0, 1.0)


def test_great_arc_rejects_degenerate():
    with pytest.raises(DegenerateArc):
        GreatArc(E1, -E1)
    with pytest.raises(DegenerateArc):
        GreatArc(E1, E1)


def test_sample_great_arc_midpoint():
    pts = sample_piece(GreatArc(E1, E2), 3)
    assert np.allclose(pts[0], E1)
    assert np.allclose(pts[1], unit(E1 + E2))
    assert np.allclose(pts[2], E2)


def test_sample_two_points_are_endpoints():
    arc = SmallCircleArc(E3, 0.4, 0.3, 2.0)
    pts = sample_piece(arc, 2)
    assert np.allclose(pts[0], arc.start)
    assert np.allclose(pts[1], arc.end)


def test_sample_small_circle_closed_form():
    # frame at e3 is (e1, e2): azimuth a maps to
    # (sin r cos a, sin r sin a, cos r)
    arc = SmallCircleArc(E3, math.pi / 4, 0.0, math.pi)
    pts = sample_piece(arc, 3)
    s = math.sqrt(2) / 2
    assert np.allclose(pts[0], [s, 0, s], atol=1e-15)
    assert np.allclose(pts[1], [0, s, s], atol=1e-15)
    assert np.allclose(pts[2], [-s, 0, s], atol=1e-15)


def test_linspace_grid_is_per_piece_linspace_bit_for_bit():
    rng = np.random.default_rng(5)
    pieces = [GreatArc(unit(rng.normal(size=3)), unit(rng.normal(size=3))) for _ in range(3)]
    pieces += [
        SmallCircleArc(unit(rng.normal(size=3)), 0.7, a, a + s)
        for a, s in rng.uniform(0.1, 6.0, (4, 2))
    ]
    arcs = stack_arcs(pieces)
    counts = np.array([2, 3, 4, 17, 5, 512, 9])
    idx, t = linspace_grid(arcs.t0, arcs.t1, counts)
    want = [np.linspace(p.t0, p.t1, n) for p, n in zip(pieces, counts)]
    assert np.array_equal(t, np.concatenate(want))
    points = np.vstack([p.point_at(w) for p, w in zip(pieces, want)])
    assert np.array_equal(arcs[idx].point_at(t), points)


def test_stacked_support_poles_are_per_piece_bit_for_bit():
    rng = np.random.default_rng(7)
    caps = [SmallCircleArc(unit(rng.normal(size=3)), r, 0.0, 2 * math.pi) for r in (0.3, math.pi / 4)]
    verts = random_units(rng, 6)
    edges = [GreatArc(verts[i], verts[(i + 1) % 6]) for i in range(6)]
    for pieces in (caps, lens(E3, unit([0.5, 0.0, 1.0]), 0.7, 0.6).pieces, edges):
        arcs = stack_arcs(pieces)
        ts = np.linspace(arcs.t0, arcs.t1, 7)
        poles = arcs.support_pole_at(ts)
        for i, p in enumerate(pieces):
            assert np.array_equal(poles[:, i], p.support_pole_at(ts[:, i]))
        assert np.array_equal(arcs.support_pole_at(arcs.t1), [p.support_pole_at(p.t1)[0] for p in pieces])


def test_row_dots_and_unit_each_are_per_row_bit_for_bit():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-6, 6, size=(500, 1))
    y = rng.normal(size=(500, 3))
    assert np.array_equal(sphere.row_dots(x, y), [p @ q for p, q in zip(x, y)])
    assert np.array_equal(sphere.row_dots(x, y[0]), [p @ y[0] for p in x])
    assert np.array_equal(unit_each(x), [unit(p) for p in x])
    # a column slice is not contiguous; its rows still normalise as ``unit``
    wide = rng.normal(size=(50, 6))
    assert np.array_equal(unit_each(wide[:, 1:4]), [unit(p) for p in wide[:, 1:4]])
    with pytest.raises(ValueError):
        unit_each([E1, [0.0, 0.0, 0.0]])


def _great_arc_ends(body):
    """The ends that built a body's great arcs, a polytope's vertices, else the ends of its great-arc pieces."""
    if isinstance(body, Polytope):
        return body.vertices, np.roll(body.vertices, -1, axis=0)
    great = [p for p in body.pieces if isinstance(p, GreatArc)]
    return np.array([p.start for p in great]).reshape(-1, 3), np.array([p.end for p in great]).reshape(-1, 3)


def test_great_arc_stack_is_stack_arcs_of_the_objects_bit_for_bit():
    bodies = [b for _, b in acceptance_corpus().values()]
    bodies += [random_selfdual_polytope(n, s) for n in (3, 8, 30, 60) for s in (1, 2, 3)]
    checked = 0
    for body in bodies + [polar_dual(b) for b in bodies]:
        starts, ends = _great_arc_ends(body)
        if not len(starts):  # a cap, or its dual
            continue
        got = great_arc_stack(starts, ends)
        want = stack_arcs([GreatArc(s, e) for s, e in zip(starts, ends)])
        for name in ("z", "u", "v", "start", "end", "radius", "cos_r", "sin_r", "t0", "t1", "span"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        if isinstance(body, Polytope):
            assert all(np.array_equal(getattr(body.arcs, f), getattr(want, f)) for f in ("z", "u", "v", "t1"))
        checked += len(starts)
    assert checked > 800


def test_stack_builders_and_pieces_follow_the_scalar_piece_rules():
    # every piece is a one-row stack, so the batch builders are checked
    # against the per-piece rules written out in scalar Python
    rng = np.random.default_rng(12)
    n = 400
    z = rng.normal(size=(n, 3))
    z[:20] = [0.3, 0.3, 0.9]  # two least coordinates tie
    r = rng.uniform(1e-6, 0.5 * math.pi - 1e-6, n)
    a0 = rng.uniform(-20.0, 20.0, n)
    span = np.where(rng.uniform(size=n) < 0.1, TWO_PI + 1e-13, rng.uniform(1e-9, TWO_PI, n))
    ends = rng.normal(size=(2, n, 3))
    names = ("z", "u", "v", "start", "end", "radius", "cos_r", "sin_r", "t0", "t1", "span")
    for got, want, pieces, empty in (
        (
            sphere.small_arc_stack(z, r, a0, a0 + span),
            [oracles.small_arc_fields(*row) for row in zip(z, r, a0, a0 + span)],
            [SmallCircleArc(*row) for row in zip(z, r, a0, a0 + span)],
            sphere.small_arc_stack(z[:0], r[:0], a0[:0], a0[:0]),
        ),
        (
            great_arc_stack(*ends),
            [oracles.great_arc_fields(s, e) for s, e in zip(*ends)],
            [GreatArc(s, e) for s, e in zip(*ends)],
            great_arc_stack(*ends[:, :0]),
        ),
    ):
        for name in names:
            column = np.array([w[name] for w in want])
            assert np.array_equal(getattr(got, name), column), name
            assert np.array_equal(getattr(stack_arcs(pieces), name), column), name
            assert np.array_equal(getattr(stack_arcs(sphere.arc_pieces(got)), name), column), name
            # zero rows give the empty stack, each field shaped as the rows' fields
            none = getattr(got, name)[:0]
            assert getattr(empty, name).shape == none.shape and getattr(empty, name).dtype == none.dtype, name


def test_great_arc_stack_rejects_degenerate_rows():
    with pytest.raises(DegenerateArc):
        great_arc_stack([E1, E2], [E2, E2])
    with pytest.raises(DegenerateArc):
        great_arc_stack([E1], [-E1])
    with pytest.raises(ValueError):
        great_arc_stack([E1, [0.0, 0.0, 0.0]], [E2, E3])
    assert len(great_arc_stack(np.empty((0, 3)), np.empty((0, 3)))) == 0


# -------------------------------------------------------- piece distances


def test_point_on_piece_distance_zero():
    arc = SmallCircleArc(E3, 0.7, 0.2, 3.0)
    for p in sample_piece(arc, 7):
        assert point_to_piece_distance(p, arc) < 1e-12


def test_pole_to_equator_distance():
    eq = SmallCircleArc(E1, 0.3, 0.0, sphere.TWO_PI)
    full = GreatArc(E1, E2)
    assert point_to_piece_distance(E3, full) == pytest.approx(math.pi / 2, abs=1e-12)
    cap = SmallCircleArc(E3, math.pi / 4, 0.0, sphere.TWO_PI)
    assert point_to_piece_distance(E3, cap) == pytest.approx(math.pi / 4, abs=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_piece_distance_matches_dense_sampling(seed):
    rng = np.random.default_rng(seed)
    z = unit(rng.normal(size=3))
    r = rng.uniform(0.1, 1.4)
    a0 = rng.uniform(0, 2 * math.pi)
    span = rng.uniform(0.3, 2 * math.pi)
    pieces = [SmallCircleArc(z, min(r, 1.5), a0, a0 + span)]
    q1, q2 = random_units(rng, 2)
    if abs(sphere.dot(q1, q2)) < 1 - 1e-6:
        pieces.append(GreatArc(q1, q2))
    probes = random_units(rng, 40)
    for piece in pieces:
        dense = sample_piece(piece, 10_000)
        for p in probes:
            brute = float(np.min(sphere.acos_clamped_np(dense @ p)))
            assert point_to_piece_distance(p, piece) == pytest.approx(brute, abs=1e-4)
            far = float(np.max(sphere.acos_clamped_np(dense @ p)))
            got = float(max_distance_to_piece(p[None, :], piece)[0])
            assert got == pytest.approx(far, abs=1e-4)
            (fp,), (fd,) = sphere.farthest_on_piece(p[None, :], piece)
            assert fd == pytest.approx(far, abs=1e-4)
            assert point_to_piece_distance(fp, piece) < 1e-9
    if isinstance(pieces[-1], GreatArc):
        # the great arc is the radius-pi/2 circle about its pole
        arc = pieces[-1]
        ts = np.linspace(0.0, arc.length, 7)
        assert np.array_equal(arc.support_pole_at(ts), np.broadcast_to(arc.pole, (7, 3)))
        assert np.all(np.abs(arc.point_at(ts) @ arc.pole) < 1e-14)


# ------------------------------------------------------------ intersection


def test_arcs_intersect_basic():
    a = GreatArc(E1, E2)
    b = GreatArc(unit([1, 1, 1]), unit([1, 1, -1]))
    assert arcs_intersect(a, b)
    c = GreatArc(unit([1, 1, 1]), unit([1, 1, 0.2]))
    assert not arcs_intersect(a, c)


def test_arcs_intersect_shared_endpoint():
    a = GreatArc(E1, E2)
    b = GreatArc(E2, E3)
    assert arcs_intersect(a, b)


def test_arcs_intersect_same_circle_overlap():
    a = GreatArc(E1, unit([1, 1, 0]))
    b = GreatArc(unit([2, 1, 0]), E2)
    assert arcs_intersect(a, b)
    c = GreatArc(unit([-1, 3, 0]), E2)
    assert arcs_intersect(b, c)
    d = GreatArc(unit([-1, 1, 0]), unit([-1, 0.2, 0]))
    assert not arcs_intersect(a, d)

import copy
import functools
import math
import warnings

import numpy as np
import oracles
import pytest
from fixtures import acceptance_corpus, chopped_cap, curved_bodies, curved_tampered, lens, perturbed, selfdual_polytopes
from hypothesis import given, settings
from hypothesis import strategies as st

from spherewidth import body as bd
from spherewidth import sphere
from spherewidth.approx import subdivide_piece
from spherewidth.errors import InvalidBody, NotOnBoundary, NotSelfDual, NotStrictlyConvex
from spherewidth.body import (
    ConvexBody,
    Polytope,
    contains,
    contains_many,
    diametral_partner,
    polar_dual,
    selfdual_residual_bound,
    support_poles_at,
    to_polytope,
    validate,
    validate_polytope,
)
from spherewidth.generators import cap, octant, rotated, rotation_from_seed
from spherewidth.metrics import HAUSDORFF_TOL, is_constant_width
from spherewidth.sphere import GreatArc, SmallCircleArc, stack_arcs, unit

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
    # a digon runs back along its own edge: its corners turn by pi, and its
    # witness, the edge midpoint, lies on the edges' great circle
    rep = validate_polytope(Polytope(np.array([E1, E2])))
    assert rep.failed() == ["support-orientation", "corner-not-cusp"]


def test_repeated_vertex_fails_edges_nondegenerate():
    rep = validate_polytope(Polytope(np.array([E1, E2, E2, E3])))
    assert rep.failed() == ["edges-nondegenerate"]


def test_zero_or_nonfinite_vertex_rows_raise():
    with pytest.raises(InvalidBody, match=r"zero or non-finite norm: 0 \[0\.0, 0\.0, 0\.0\]$"):
        Polytope(np.array([[0.0, 0.0, 0.0], E1, E2]))
    with pytest.raises(InvalidBody, match=r"norm: 1 \[nan, 0\.0, 1\.0\]; 3 \[0\.0, inf, 0\.0\]$"):
        Polytope(np.array([E1, [math.nan, 0.0, 1.0], E2, [0.0, math.inf, 0.0]]))


def test_huge_vertex_rows_normalise_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = Polytope(np.array([[1e200, 0.0, 0.0], E2, E3]))
        rows = sphere.unit_rows([[0.0, -1e300, 1e300], [3e-310, 0.0, 0.0]])
    assert np.array_equal(p.vertices, np.eye(3))
    half = math.sqrt(0.5)
    np.testing.assert_allclose(rows, [[0.0, -half, half], E1], rtol=0.0, atol=2e-16)


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


def test_polytope_validation_is_the_polygon_report():
    # one cached report per polytope: the report of ``validate``, the same
    # checks as on its chain of great arcs
    p = selfdual_polytopes()["random-7-1"]
    assert validate_polytope(p) is p.validation
    assert p.validation.checks == validate(p).checks
    assert [c.name for c in validate(bd.chain_body(p.arcs)).checks] == [c.name for c in p.validation.checks]


def _tampered_selfdual(kind):
    """``random_selfdual_polytope(9, 1)`` with vertex 3 repeated, or a flat vertex in the middle of edge 3."""
    from spherewidth.generators import random_selfdual_polytope

    v = random_selfdual_polytope(9, 1).vertices
    extra = v[3] if kind == "repeated" else unit(v[3] + v[4])
    return Polytope(np.insert(v, 4, extra, axis=0))


@pytest.mark.parametrize("kind, check", [("repeated", "edges-nondegenerate"), ("flat", "no-redundant-vertices")])
def test_tampered_polytopes_raise_invalid_body(kind, check):
    from spherewidth.approx import ApproximationConfig, certify
    from spherewidth.generators import random_selfdual_polytope

    good = random_selfdual_polytope(9, 1)
    config = ApproximationConfig(0.01)
    calls = [
        polar_dual,
        is_constant_width,
        lambda p: certify(p, good, config),
        lambda p: certify(good, p, config),
    ]
    for call in calls:
        with pytest.raises(InvalidBody, match=check):
            call(_tampered_selfdual(kind))
    # the one report refuses the flat vertex, on the polytope and on its chain of great arcs
    if kind == "flat":
        poly = _tampered_selfdual(kind)
        for body in (poly, bd.chain_body(poly.arcs)):
            assert validate(body).failed() == ["no-redundant-vertices"]


def test_reflex_junction_fails_convexity():
    # swapping two vertices of a convex quadrilateral creates reflex turns
    p = unit(0.75 * E3 + 0.25 * E2)
    q = unit(0.75 * E3 + 0.25 * E1)
    good = validate_polytope(Polytope(np.array([E1, E2, p, q])))
    assert good.ok
    bad = validate_polytope(Polytope(np.array([E1, E2, q, p])))
    assert not bad.ok
    assert "convex-turns" in bad.failed()


@functools.lru_cache(maxsize=None)
def _cap_polytope_at(eps):
    from spherewidth.approx import ApproximationConfig, approximate_polytope

    return approximate_polytope(cap(E3, math.pi / 4), ApproximationConfig(eps))[0]


def _validation_corpus():
    valid = [
        cap(unit([0.3, -0.5, 0.8]), 0.6),
        lens(E3, unit([0.5, 0.0, 1.0]), 0.7, 0.6),
        octant(),
        _cap_polytope_at(0.01),
        _cap_polytope_at(0.002),
    ]
    # a piece far shorter than the 1e-12 floor, inserted at the vertex e3
    z = unit([0.2, 0.3, 1.0])
    probe = SmallCircleArc(z, math.acos(z @ E3), 0.0, 2 * math.pi)
    a0 = float(probe.azimuth_of(E3))
    tiny = SmallCircleArc(z, probe.radius, a0, a0 + 2e-12)
    a, b = unit([0.3, 0.2, 0.9]), unit([-0.4, 0.5, 0.7])
    failing = [
        ("closure", ConvexBody([GreatArc(E1, E2), GreatArc(E2, E3)], unit([1.0, 1.0, 1.0]))),
        (
            "support-orientation",
            ConvexBody([SmallCircleArc(E3, math.pi / 4, 0.0, 2 * math.pi)], unit([0.2, 0.0, -1.0])),
        ),
        ("support-orientation", _outside_witness_cap()),
        (
            "convex-turns",
            Polytope(np.array([E1, E2, unit(0.75 * E3 + 0.25 * E1), unit(0.75 * E3 + 0.25 * E2)])),
        ),
        # a digon that runs back along its own edge
        ("corner-not-cusp", bd.chain_body(stack_arcs([GreatArc(a, b), GreatArc(b, a)]))),
        (
            "piece-nondegenerate",
            ConvexBody([GreatArc(E1, E2), GreatArc(E2, E3), tiny, GreatArc(tiny.end, E1)], unit([1.0, 1.0, 1.0])),
        ),
    ]
    return valid + [polar_dual(c) for c in valid], failing


def _outside_witness_cap():
    """The pi/4 cap about e3 whose witness, at polar angle 0.80 and azimuth pi/8, lies 0.015 outside it."""
    theta, phi = 0.80, math.pi / 8
    w = [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    return ConvexBody([SmallCircleArc(E3, math.pi / 4, 0.0, 2 * math.pi)], w)


def test_outside_witness_cap_fails_support_orientation_alone():
    c = _outside_witness_cap()
    assert not contains(c, c.interior)
    assert validate(c).failed() == ["support-orientation"]


def test_validate_matches_per_piece_reference():
    valid, failing = _validation_corpus()
    for c in valid:
        assert validate(c).ok
    for name, c in failing:
        assert name in validate(c).failed()
    for c in valid + [c for _, c in failing]:
        got = validate(c).checks
        want = oracles.validate_per_piece(c)
        assert [g.name for g in got] == [w.name for w in want]
        assert [g.passed for g in got] == [w.passed for w in want]
        np.testing.assert_allclose(
            [g.magnitude for g in got], [w.magnitude for w in want], rtol=0.0, atol=1e-12
        )


def test_validate_reads_one_cos_sin_round_bit_for_bit():
    # the pole integral and the junction poles, whose end poles the support
    # range reads, all read the stack's one cos/sin round of (t0, t1): the
    # reports and poles are, bit for bit, those of a fresh np.cos/np.sin
    # round per use
    valid, failing = _validation_corpus()
    bodies = [b for _, b in acceptance_corpus().values()] + list(curved_bodies().values())
    bodies += list(curved_tampered().values()) + valid + [c for _, c in failing]
    for body in bodies:
        assert validate(body).checks == oracles.validate_three_rounds(body)
        k_end, k_next, _, _ = body.junction_poles
        want_end, want_next = oracles.junction_poles_per_end(body)
        assert k_end.tobytes() == want_end.tobytes() and k_next.tobytes() == want_next.tobytes()


def test_polytope_builds_its_edge_body_once():
    poly = _cap_polytope_at(0.01)
    assert isinstance(poly, ConvexBody)
    assert poly.pieces is poly.pieces
    assert poly.arcs is poly.arcs
    v = poly.vertices
    edges = [GreatArc(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]
    # the witness carries the bits of a body built from the same edges, which
    # stacks them once, to the polytope's edge stack, and views them lazily
    body = ConvexBody(edges, unit(v.mean(axis=0)))
    assert np.array_equal(poly.interior, body.interior)
    assert all(np.array_equal(getattr(body.arcs, f), getattr(poly.arcs, f)) for f in ("z", "u", "v", "start", "t1"))
    assert body.pieces is body.pieces
    want = np.array([e.pole for e in edges])
    poles = poly.edge_poles()
    assert np.array_equal(poles, want)
    poles[:] = 0.0
    assert np.array_equal(poly.arcs.z, want)
    assert np.array_equal(poly.edge_poles(), want)


def _eager_edges(poly):
    """The edges of a polytope, each ``GreatArc`` built on its own."""
    v = poly.vertices
    return [GreatArc(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]


def _eager_dual_pieces(body):
    """The great arcs of the dual of a great-arc body, each built on its own from its corner poles."""
    a = body.arcs
    k_end = a.support_pole_at(a.t1)
    k_next = np.roll(a.support_pole_at(a.t0), -1, axis=0)
    corner = np.linalg.norm(k_end - k_next, axis=1) > bd.POLE_MERGE_EPS
    return [GreatArc(k0, k1) for k0, k1, c in zip(k_end, k_next, corner) if c]


def test_lazy_pieces_equal_eagerly_built_pieces(selfdual_polys):
    fields = ("start", "end", "z", "u", "v", "radius", "cos_r", "sin_r", "t0", "t1")
    for poly in list(selfdual_polys.values()) + [_cap_polytope_at(0.01)]:
        fresh = Polytope(poly.vertices)
        for body, eager in ((fresh, _eager_edges(fresh)), (polar_dual(poly), _eager_dual_pieces(poly))):
            body.arcs
            assert "pieces" not in vars(body)  # made on demand only
            lazy = body.pieces
            assert lazy is body.pieces
            assert len(lazy) == len(eager) == len(body.arcs)
            for p, q in zip(lazy, eager):
                assert type(p) is GreatArc
                assert all(np.array_equal(getattr(p, f), getattr(q, f)) for f in fields)


def test_polytope_paths_construct_no_great_arc(tmp_path, monkeypatch):
    from spherewidth.approx import ApproximationConfig, approximate_polytope
    from spherewidth.cli import main
    from spherewidth.formats import dumps_body

    made = []
    post_init, make_pieces = GreatArc.__post_init__, bd.arc_pieces

    def counting(self):
        made.append(1)
        post_init(self)

    def counting_pieces(arcs):
        made.extend([1] * len(arcs))
        return make_pieces(arcs)

    monkeypatch.setattr(GreatArc, "__post_init__", counting)
    monkeypatch.setattr(bd, "arc_pieces", counting_pieces)
    c = rotated(cap(E3, math.pi / 4), rotation_from_seed(3))
    poly, _, _ = approximate_polytope(c, ApproximationConfig(0.003))
    assert not made
    cap_f, poly_f = tmp_path / "cap.json", tmp_path / "poly.json"
    cap_f.write_text(dumps_body(c))
    poly_f.write_text(dumps_body(poly))
    view = "--view=" + ",".join(repr(float(x)) for x in c.arcs.z[0])
    for argv in (
        ["certify", str(cap_f), str(poly_f), "--epsilon", "0.003"],
        ["metrics", str(poly_f)],
        ["dual", str(poly_f), "-o", str(tmp_path / "dual.json")],
        ["render", str(cap_f), str(poly_f), view, "-o", str(tmp_path / "o.svg")],
        ["render", str(poly_f), "--projection", "stereographic", "-o", str(tmp_path / "s.svg")],
    ):
        assert main(argv) == 0, argv
    assert not made
    # the counter does count: a piece read builds the objects
    Polytope(poly.vertices).pieces
    assert len(made) == len(poly)


def _subdivide_rejects(o):
    with pytest.raises(NotStrictlyConvex):
        subdivide_piece(o, 0, 0.1)
    return True


_ON_OCTANT = {
    "polar_dual": lambda o: len(to_polytope(polar_dual(o))) == 3,
    "validate": lambda o: validate(o).ok,
    "contains": lambda o: contains(o, unit([1, 1, 1])),
    "support_poles_at": lambda o: support_poles_at(o, E2).is_vertex,
    "diametral_partner": lambda o: np.allclose(diametral_partner(o, E1), unit(E2 + E3), atol=1e-12),
    "to_polytope": lambda o: np.array_equal(to_polytope(o).vertices, o.vertices),
    "subdivide_piece": _subdivide_rejects,
}


@pytest.mark.parametrize("name", sorted(_ON_OCTANT))
def test_body_functions_take_a_polytope(name):
    assert _ON_OCTANT[name](octant())


def test_to_polytope_returns_a_polytope_itself():
    # a Polytope, the dual of one too, comes back with its cached edge stack
    # and validation; a chain of great arcs gives a new Polytope of its arc starts
    p = selfdual_polytopes()["random-30-1"]
    arcs, report = p.arcs, p.validation
    assert to_polytope(p) is p
    assert to_polytope(p).arcs is arcs and to_polytope(p).validation is report
    dual = polar_dual(p)
    assert type(dual) is Polytope and to_polytope(dual) is dual
    chain = bd.chain_body(dual.arcs)
    q = to_polytope(chain)
    assert type(chain) is ConvexBody and isinstance(q, Polytope)
    assert np.array_equal(q.vertices, Polytope(chain.arcs.start).vertices)


def test_polytope_dual_is_the_polytope_of_its_corner_poles():
    # the dual keeps the edge poles' bits: its stack is the one-pass stack of
    # the corner poles and the next edges' poles, field by field
    from dataclasses import fields

    for name, p in selfdual_polytopes().items():
        dual = polar_dual(p)
        _, k_next, _, corner = p.junction_poles
        assert type(dual) is Polytope and corner.all(), name
        want = sphere.great_arc_stack(p.arcs.z[corner], k_next[corner])
        for f in fields(want):
            assert np.array_equal(getattr(dual.arcs, f.name), getattr(want, f.name)), (name, f.name)
        assert dual.validation.ok, name


# --------------------------------------------------------------- membership


def test_contains_witness_and_antipode():
    b = cap(E3, 0.9)
    assert contains(b, b.interior)
    assert not contains(b, -b.interior)


def test_contains_boundary_points_closed():
    b = cap(unit([1, 2, 3]), 0.7)
    for p in oracles.boundary_samples(b, 32):
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
    seg = bd.chain_body(stack_arcs([arc, chord]))
    assert validate(seg).ok
    got = contains_many(seg, pts)
    want = (sphere.acos_clamped_np(pts @ z) <= r + 1e-9) & (pts @ chord.pole >= -1e-9)
    assert np.array_equal(got, want)


def test_contains_octant_matches_vertex_dots():
    b = octant()
    pts = fib_sphere(4000)
    got = contains_many(b, pts)
    want = np.all(pts @ np.eye(3).T >= -1e-9, axis=1)
    assert np.array_equal(got, want)
    # a many-edge polytope, so the rows span many blocks of the batched kernels
    from spherewidth.approx import ApproximationConfig, approximate_polytope

    poly, _, _ = approximate_polytope(cap(unit([1, 2, 3]), math.pi / 4), ApproximationConfig(0.01))
    assert len(poly) * len(pts) > 8 * bd.BLOCK_ELEMENTS
    got = contains_many(poly, pts)
    want = oracles.polytope_inside(poly.vertices, tol=1e-9)(pts)
    assert np.array_equal(got, want)


@functools.lru_cache(maxsize=None)
def _cap_polytope():
    from spherewidth.approx import ApproximationConfig, approximate_polytope

    return approximate_polytope(cap(E3, math.pi / 4), ApproximationConfig(0.01))[0]


def _membership_case(shape, rot, radius):
    """A rotated body and its closed-form rule ``inside(points, tol)``, or None."""
    if shape == "cap":
        z = rot @ E3
        return cap(z, radius), lambda x, tol: oracles.cap_inside(z, radius, tol)(x)
    if shape in ("lens", "lens-dual"):
        z1, z2 = rot @ E3, rot @ unit([0.5, 0.0, 1.0])
        body = lens(z1, z2, 0.7, 0.6)
        if shape == "lens-dual":
            return polar_dual(body), None
        return body, lambda x, tol: (
            oracles.cap_inside(z1, 0.7, tol)(x) & oracles.cap_inside(z2, 0.6, tol)(x)
        )
    if shape == "segment":
        z = rot @ unit([0.3, -0.4, 0.9])
        arc = SmallCircleArc(z, 0.8, 0.5, 4.5)
        chord = GreatArc(arc.end, arc.start)
        body = bd.chain_body(stack_arcs([arc, chord]))
        return body, lambda x, tol: oracles.cap_inside(z, 0.8, tol)(x) & (x @ chord.pole >= -tol)
    poly = rotated(octant() if shape == "octant" else _cap_polytope(), rot)
    return poly, lambda x, tol: oracles.polytope_inside(poly.vertices, tol)(x)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    shape=st.sampled_from(["cap", "lens", "lens-dual", "segment", "octant", "polytope"]),
    seed=st.integers(0, 2**31 - 1),
    radius=st.floats(0.05, 1.5),
    log_delta=st.floats(-9.0, -6.0),
)
def test_contains_matches_oracles_under_rotation(shape, seed, radius, log_delta):
    # points delta off the boundary along its normal, on both sides, and
    # uniform points; the kernel and every oracle get the same tolerance
    body, inside = _membership_case(shape, rotation_from_seed(seed), radius)
    assert validate(body).ok
    rng = np.random.default_rng(seed)
    delta = 10.0**log_delta
    tol = 0.25 * delta
    uniform = sphere.unit_rows(rng.normal(size=(400, 3)))
    feet = [p.t0 + p.span * rng.uniform(0.01, 0.99, 16) for p in body.pieces]
    foot = np.vstack([p.point_at(t) for p, t in zip(body.pieces, feet)])
    pole = np.vstack([p.support_pole_at(t) for p, t in zip(body.pieces, feet)])
    outward = math.cos(delta) * foot - math.sin(delta) * pole
    inward = math.cos(delta) * foot + math.sin(delta) * pole
    pts = np.vstack([uniform, outward, inward])
    got = contains_many(body, pts, tol)
    n = len(foot)
    assert not np.any(got[400 : 400 + n]) and np.all(got[400 + n :])
    if inside is not None:
        assert np.array_equal(got, inside(pts, tol))
    least = oracles.dense_support_dot(body)(uniform)
    decided = np.abs(least + tol) > 1e-5
    assert decided.mean() > 0.9
    assert np.array_equal(got[:400][decided], least[decided] >= -tol)


def test_body_distance_zero_inside_positive_outside():
    b = cap(E3, 0.6)
    assert bd.body_distance(b, E3) == 0.0
    d = bd.body_distance(b, E1)
    assert d == pytest.approx(math.pi / 2 - 0.6, abs=1e-12)


@pytest.mark.parametrize(
    "rows,pieces",
    [(0, 5), (1, 1), (1, 9000), (3, 9000), (7, 26), (2048, 26), (8191, 3), (8192, 2), (8193, 1), (20000, 5)],
)
def test_blocks_tile_rows_by_pieces_once(rows, pieces):
    # the blocks are tallest in rows: all rows up to BLOCK_ELEMENTS, beside
    # them the pieces that fit
    cover = np.zeros((rows, pieces), dtype=int)
    blocks = bd._blocks(rows, pieces)
    for r, c in blocks:
        cover[r, c] += 1
        assert 0 < cover[r, c].size <= bd.BLOCK_ELEMENTS
    assert np.all(cover == 1)
    if blocks:
        assert blocks[0][0] == slice(0, min(rows, bd.BLOCK_ELEMENTS))


# ------------------------------------------------------------------ duality


def test_octant_dual_is_octant():
    dual = polar_dual(octant())
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


def test_double_dual_of_a_polytope_starts_at_vertex_one():
    # piece i of the dual joins the poles of edges i and i + 1, so the
    # double dual's chain starts at the vertex between them, vertex 1
    from fixtures import acceptance_corpus

    polys = [b for _, b in acceptance_corpus().values() if isinstance(b, Polytope)]
    polys += list(selfdual_polytopes().values())
    for poly in polys:
        starts = polar_dual(polar_dual(poly)).arcs.start
        assert np.abs(starts - np.roll(poly.vertices, -1, axis=0)).max() <= 1e-12
        assert np.abs(starts - poly.vertices).max() > 1e-2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_polytope_dual_matches_halfspace_oracle(seed):
    # Membership in the dual must agree with the definition: all primal
    # vertices have non-negative dot with the point.
    rot = rotation_from_seed(seed)
    poly = rotated(octant(), rot)
    dual = polar_dual(poly)
    pts = fib_sphere(5000)
    got = contains_many(dual, pts, tol=1e-9)
    want = np.all(pts @ poly.vertices.T >= -1e-9, axis=1)
    assert np.array_equal(got, want)


def test_dual_of_small_body_validates():
    # the dual of a small lens is large; the hemisphericity certificate must
    # still be found even when the boundary mean is far from central
    body = lens(E3, unit([0.9, 0.2, 1.0]), 0.5, 0.4)
    dual = polar_dual(body)
    rep = bd.validate(dual)
    assert rep.ok, str(rep)


def _assert_same_stack(got, want):
    assert len(got) == len(want)
    for f in ("z", "u", "v", "start", "end", "radius", "cos_r", "sin_r", "t0", "t1", "span"):
        assert np.array_equal(getattr(got, f), getattr(want, f)), f


def test_stacked_polar_dual_matches_the_per_piece_reference():
    from fixtures import curved_bodies

    for name, body in curved_bodies().items():
        if not body.validation.ok:
            continue
        got, want = polar_dual(body), oracles.polar_dual_per_piece(body)
        _assert_same_stack(got.arcs, want.arcs)
        assert np.array_equal(got.interior, want.interior), name
        # the double dual's pieces are the body's, up to roundoff
        if not body.junction_poles[3].any():
            back = polar_dual(got).arcs
            assert np.abs(back.start - body.arcs.start).max() <= 1e-12, name
            assert np.abs(back.radius - body.arcs.radius).max() <= 1e-12, name


def test_curved_pieces_are_a_lazy_view_of_the_arcs():
    body = polar_dual(lens(E3, unit([0.9, 0.2, 1.0]), 0.5, 0.4))
    assert "pieces" not in vars(body)
    pieces = body.pieces
    assert pieces is body.pieces
    assert [type(p) for p in pieces] == [
        SmallCircleArc if r != 0.5 * math.pi else GreatArc for r in body.arcs.radius
    ]
    _assert_same_stack(stack_arcs(pieces), body.arcs)
    for p, z, t0, t1 in zip(pieces, body.arcs.z, body.arcs.t0, body.arcs.t1):
        if type(p) is SmallCircleArc:
            assert np.array_equal(p.center, z) and (p.az_from, p.az_to) == (t0, t1)
        else:
            assert np.array_equal(p.pole, z)


def test_membership_refuses_a_body_without_pieces():
    # an empty reduction would put every point inside and nowhere near the boundary
    empty = ConvexBody([], E3)
    pts = np.array([E1, -E3])
    for call in (
        lambda: contains(empty, E1),
        lambda: contains_many(empty, pts),
        lambda: bd.body_distance_many(empty, pts),
        lambda: bd.boundary_distance_many(empty, pts),
        lambda: bd.boundary_max_distance_many(empty, pts),
    ):
        with pytest.raises(InvalidBody, match="no pieces"):
            call()


def test_merge_flat_matches_the_per_piece_merge():
    # a polygon's edges with a midpoint on one edge, rolled so that each
    # junction in turn is the flat one, the chain's last included
    rng = np.random.default_rng(8)
    for _ in range(20):
        ring = SmallCircleArc(unit(rng.normal(size=3)), rng.uniform(0.2, 0.7), 0.0, 2 * math.pi)
        v = ring.point_at(np.sort(rng.uniform(0.0, 2 * math.pi, size=int(rng.integers(3, 8)))))
        v = np.insert(v, 1, unit(v[0] + v[1]), axis=0)
        for k in range(len(v)):
            w = np.roll(v, -k, axis=0)
            pieces = [GreatArc(a, b) for a, b in zip(w, np.roll(w, -1, axis=0))]
            got = bd.merge_flat(stack_arcs(pieces))
            _assert_same_stack(got, stack_arcs(oracles.merge_flat_junctions_per_piece(pieces)))
            assert len(got) == len(v) - 1
            # the merged edge goes first when it spans the end of the chain
            first = pieces[-1] if k == 1 else pieces[0]
            assert np.abs(got.start[0] - first.start).max() <= 1e-15


def test_dual_order_reversal_on_nested_caps():
    inner = cap(E3, 0.5)
    outer = cap(E3, 0.7)
    di = polar_dual(inner)
    do = polar_dual(outer)
    pts = fib_sphere(2000)
    in_do = contains_many(do, pts)
    in_di = contains_many(di, pts)
    assert np.all(~in_do | in_di)  # dual(outer) inside dual(inner)


@pytest.fixture(scope="module")
def selfdual_polys():
    return selfdual_polytopes()


def test_edge_pole_pairs_with_the_vertex_half_a_turn_on(selfdual_polys):
    for name, poly in selfdual_polys.items():
        n = len(poly)
        assert n % 2 == 1, name
        got = np.linalg.norm(poly.edge_poles() - np.roll(poly.vertices, -((n + 1) // 2), axis=0), axis=1)
        assert got.max() < 1e-12, name
        assert selfdual_residual_bound(poly) < 1e-12, name


def test_residual_bound_covers_residual_and_sampled_widths(selfdual_polys):
    checked = 0
    for name, poly in selfdual_polys.items():
        for amp in (0.0, 1e-5, 1e-3, 2e-2):
            q = perturbed(poly, amp, seed=checked)
            if not validate_polytope(q).ok:
                continue  # large moves can fold a fine polytope
            rho = selfdual_residual_bound(q)
            rep = is_constant_width(q)
            assert rho >= rep.self_duality_residual - HAUSDORFF_TOL, (name, amp)
            assert 0.5 * math.pi - rho <= rep.width_min + 1e-12, (name, amp)
            assert rep.width_max <= 0.5 * math.pi + rho + 1e-12, (name, amp)
            checked += 1
    assert checked >= 3 * len(selfdual_polys)


def test_residual_bound_is_the_proved_bound_measured_once(monkeypatch, selfdual_polys):
    # a body keeps the rho of its first read: bit for bit the uncached bound
    # of its kind, None included, and a second read measures nothing
    bodies = [b for _, b in acceptance_corpus().values()] + list(curved_bodies().values())
    bodies += list(curved_tampered().values()) + list(selfdual_polys.values())
    bodies += [perturbed(p, amp, seed=i) for i, p in enumerate(selfdual_polys.values()) for amp in (1e-5, 2e-2)]
    bodies += [polar_dual(b) for b in bodies if b.validation.ok]
    measured = []
    uncached = {name: getattr(bd, name) for name in ("pairing_residual_bound", "selfdual_residual_bound")}
    for name, fn in uncached.items():
        monkeypatch.setattr(bd, name, lambda b, _fn=fn: measured.append(b) or _fn(b))
    kinds = set()
    for body in bodies:
        if not body.is_polytope():
            want = uncached["pairing_residual_bound"](body)
        else:
            poly = to_polytope(body)
            want = uncached["selfdual_residual_bound"](poly) if validate_polytope(poly).ok else None
        # repr tells every float apart, -0.0 and inf too
        assert repr(body.residual_bound) == repr(want), (body, body.residual_bound, want)
        fresh = copy.copy(body)  # the generators read rho already: a copy without it
        vars(fresh).pop("residual_bound", None)
        measured.clear()
        got = fresh.residual_bound
        assert repr(got) == repr(want) and fresh.residual_bound is got
        assert len(measured) == (want is not None or not body.is_polytope())
        kinds.add((body.is_polytope(), want is None))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_run_pairing_table_matches_the_per_run_reference():
    # the stacked table holds, bit for bit, the arcs, pieces, offsets and
    # pairs of the run-by-run construction, and its run term is the largest
    # per-pair one; a cap in twelve pieces sums its spans pairwise, and so
    # does a rounded Reuleaux body cut unevenly into runs of 1 to 12 pieces,
    # turned about a run's centre until that run starts at azimuth 1e-3: its
    # spans there carry finer bits than their sum, so the order of the sum
    # shows, and each run is offset on its own
    from fixtures import curved_selfdual_bodies, curved_tampered, two_cut_cap
    from spherewidth.generators import rounded_reuleaux

    e3 = np.array([0.0, 0.0, 1.0])
    bodies = {**curved_selfdual_bodies(), **curved_tampered(), "two-cut": two_cut_cap(), "chopped": chopped_cap()}
    bodies["split-12"] = ConvexBody([SmallCircleArc(e3, math.pi / 4, k * math.pi / 6, (k + 1) * math.pi / 6) for k in range(12)], e3)
    rr = rounded_reuleaux(5, 0.15)
    c, turn = rr.pieces[0].center, 1e-3 - rr.pieces[0].az_from
    k = np.cross(np.eye(3), c)  # k @ x = c x x
    rr = rotated(rr, np.eye(3) + math.sin(turn) * k + (1.0 - math.cos(turn)) * k @ k)
    rng, pieces = np.random.default_rng(4), []
    for i, p in enumerate(rr.pieces):
        t = p.az_from + p.span * np.sort(np.concatenate([[0.0, 1.0], rng.random([12, 1, 2, 3, 8, 9][i % 6] - 1)]))
        pieces += [SmallCircleArc(p.center, p.radius, lo, hi) for lo, hi in zip(t[:-1], t[1:])]
    bodies["split-runs"] = ConvexBody(pieces, rr.interior)
    spans = bodies["split-runs"].arcs.span[:12]
    assert abs(bodies["split-runs"].arcs.t0[0] - 1e-3) < 1e-9 and np.cumsum(spans)[-1] != spans.sum()
    same = 0
    for name, body in bodies.items():
        ref, table = oracles.run_pairing_per_run(body), bd.run_pairing_or_none(body)
        assert (ref is None) == (table is None), name
        if ref is None:
            continue
        units, pairs, term = ref
        assert len(table.partner) == len(units), name
        for k, unit in enumerate(units):
            lo, hi = table.bounds[k], table.bounds[k + 1]
            arc, ids, offsets = unit if isinstance(unit, tuple) else (None, [unit], [0.0])
            assert table.ids[lo:hi].tolist() == list(ids), (name, k)
            assert table.offsets[lo:hi].tobytes() == np.asarray(offsets).tobytes(), (name, k)
            row = table.arcs[k]
            src = arc if arc is not None else body.arcs[unit]
            for f in ("z", "u", "v", "start", "end", "radius", "cos_r", "sin_r", "t0", "t1", "span"):
                assert np.asarray(getattr(row, f)).tobytes() == np.asarray(getattr(src, f), dtype=float).tobytes(), (name, k, f)
        assert [(k, table.partner[k]) for k in np.flatnonzero(table.chorded)] == pairs, name
        assert bd._run_term(table, body.arcs) == term, name
        same += 1
    assert same == len(bodies) - 5  # four tampered bodies and the chopped cap leave a run unpaired


def test_pairings_are_the_rotations_the_searches_find():
    # duality keeps the cyclic order: run k pairs with run k + R/2, and
    # corner k with great-arc piece k + s; on every body the greedy run
    # search and the nearest-ends corner search agree, or both find no
    # pairing (an odd run count, a trimmed partner, a moved radius)
    from spherewidth.generators import complete_selfdual, rounded_reuleaux

    bodies = {"acceptance-%d" % s: b for s, (_, b) in acceptance_corpus().items()}
    bodies.update({**curved_bodies(), **curved_tampered()})
    for k in (3, 5, 7, 9, 15, 27, 41, 81):
        for delta in (0.05, 0.2):
            bodies["reuleaux-%d-%g" % (k, delta)] = rounded_reuleaux(k, delta)
    for seed in (1, 2, 3):
        bodies["rotated-cap-%d" % seed] = rotated(cap(E3, math.pi / 4), rotation_from_seed(seed))
    for r in (0.5, 0.6, 0.65, 0.7):
        for seed in (1, 2):
            bodies["completion-%g-%d" % (r, seed)] = complete_selfdual(chopped_cap(0.6 * seed, [0.3, -0.2, 1.0], r), tol=1e-7)
    bodies.update({name + "-dual": polar_dual(b) for name, b in list(bodies.items()) if b.validation.ok})
    paired = cornered = 0
    for name, body in bodies.items():
        ref, table = oracles.pair_runs_greedy(bd._boundary_units(body.arcs)[0]), bd.run_pairing_or_none(body)
        assert (ref is None) == (table is None), name
        if ref is not None:
            assert table.partner.tobytes() == ref[0].tobytes() and table.chorded.tobytes() == ref[1].tobytes(), name
            paired += 1
        k_end, k_next, _, corner = body.junction_poles
        c = np.flatnonzero(corner)
        if len(c) and len(c) == np.count_nonzero(body.arcs.great):
            match = oracles.corner_match_nearest_ends(body)
            assert match is not None and np.array_equal(bd._corner_match(body.arcs, k_end[c[0]], k_next[c[0]]), match), name
            cornered += 1
    assert len(bodies) >= 220 and paired >= 200 and cornered >= 90
    with pytest.raises(NotSelfDual, match="5 arc runs"):  # an arc run made a great arc
        bd._pair_runs(*bd._boundary_units(bodies["partner-removed"].arcs))
    with pytest.raises(NotSelfDual, match="arc run 0 .* opposite run 1"):
        bd._pair_runs(*bd._boundary_units(bodies["cap-pi3"].arcs))


# ------------------------------------------------------------------ support


def test_support_pole_on_cap():
    b = cap(E3, math.pi / 4)
    s = math.sqrt(2) / 2
    p = np.array([s, 0.0, s])
    sup = support_poles_at(b, p)
    assert not sup.is_vertex
    assert np.allclose(sup.poles, [-s, 0.0, s], atol=1e-12)
    # H(pole) contains the cap
    assert np.min(oracles.boundary_samples(b, 64) @ sup.poles) > -1e-12


def test_support_at_octant_vertex_is_pole_arc():
    b = octant()
    sup = support_poles_at(b, E2)
    assert sup.is_vertex and len(sup.poles) == 1  # the pole arc, a one-row stack
    ends = {tuple(np.round(sup.poles.start[0], 9)), tuple(np.round(sup.poles.end[0], 9))}
    assert ends == {tuple(E3), tuple(E1)}


def test_support_at_octant_edge_midpoint():
    b = octant()
    sup = support_poles_at(b, unit(E1 + E2))
    assert not sup.is_vertex
    assert np.allclose(sup.poles, E3, atol=1e-12)


def test_support_not_on_boundary_raises():
    with pytest.raises(NotOnBoundary):
        support_poles_at(octant(), unit([1, 1, 1]))


def test_support_duality_on_generic_body():
    # poles of a body lie on its dual boundary and support it reciprocally,
    # self-dual or not
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
            assert np.min(oracles.boundary_samples(dual, 64) @ p) >= -1e-8


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
    q = diametral_partner(octant(), unit(E1 + E2))
    assert np.allclose(q, E3, atol=1e-12)


def test_partner_octant_vertex_is_arc_midpoint():
    q = diametral_partner(octant(), E1)
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

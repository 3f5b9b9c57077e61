import json
import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from fixtures import lens, selfdual_polytopes, truncated_octant
from spherewidth.approx import ApproximationConfig, approximate_polytope
from spherewidth.body import (
    BLOCK_ELEMENTS,
    Polytope,
    body_distance_many,
    boundary_distance_many,
    boundary_max_distance_many,
    pairing_residual_bound,
    polar_dual,
    selfdual_residual_bound,
    to_polytope,
    validate_polytope,
)
from spherewidth import body as bd
from spherewidth import metrics
from spherewidth.errors import NotSupporting, RefinementStalled
from spherewidth.generators import (
    cap,
    complete_selfdual,
    octant,
    random_selfdual_polytope,
    random_subdual_polytope_seed,
    rotated,
    rotation_from_seed,
    rounded_reuleaux,
)
from spherewidth.metrics import (
    HAUSDORFF_TOL,
    WidthReport,
    _structural_caps,
    boundary_sup_distance,
    diameter,
    hausdorff,
    hausdorff_bounds,
    is_constant_width,
    self_duality_residual,
    thickness,
    width_wrt,
)
from spherewidth.sphere import (
    acos_clamped_np,
    great_arc_stack,
    length_weighted_counts,
    linspace_grid,
    lune_thickness,
    max_distance_to_piece,
    sample_piece,
    unit,
    unit_rows,
)

E1, E2, E3 = np.eye(3)
PI = math.pi


@pytest.fixture(scope="module")
def lens_body():
    return lens(E3, unit([0.6, 0.2, 1.0]), 0.8, 0.55)


@pytest.fixture(scope="module")
def cap_polytopes():
    """A rotated pi/4 cap and its eps = 0.01 and eps = 0.002 polytopes."""
    c = rotated(cap(E3, PI / 4), rotation_from_seed(7))
    return c, [approximate_polytope(c, ApproximationConfig(eps))[0] for eps in (0.01, 0.002)]


def sub_arcs(body, per_piece, rng):
    """``per_piece`` random parameter ranges on every piece, of 1e-6 to 1 of its span."""
    arcs = body.arcs
    idx = np.repeat(np.arange(len(body.pieces)), per_piece)
    frac = 10.0 ** rng.uniform(-6.0, 0.0, len(idx))
    tl = arcs.t0[idx] + rng.uniform(0.0, 1.0 - frac) * arcs.span[idx]
    return idx, tl, tl + frac * arcs.span[idx]


# ------------------------------------------------------------------- widths


def test_width_octant_wrt_e3():
    assert width_wrt(octant(), E3) == pytest.approx(PI / 2, abs=1e-12)


def test_width_selfdual_cap_any_support_pole(monkeypatch):
    b = cap(E3, PI / 4)
    piece = b.pieces[0]
    for az in np.linspace(0, 2 * PI, 7)[:-1]:
        k = piece.support_pole_at(az)[0]
        assert width_wrt(b, k) == pytest.approx(PI / 2, abs=1e-9)
    # a self-dual polytope: every vertex is a support pole; its report is
    # the closed form, so it sweeps nothing
    poly, _, _ = approximate_polytope(cap(unit([1, 2, 3]), PI / 4), ApproximationConfig(0.01))
    for k in poly.vertices:
        assert width_wrt(poly, k) == pytest.approx(PI / 2, abs=1e-9)
    rep = is_constant_width(poly)
    assert rep.dual is None
    assert rep.width_min == pytest.approx(PI / 2, abs=1e-9)
    assert rep.width_max == pytest.approx(PI / 2, abs=1e-9)
    # a curved body of constant width takes the closed form of its run
    # pairing; swept, its width sweep spans many piece blocks of the
    # batched farthest-distance kernel
    body = rounded_reuleaux(9, 0.2, unit([1, 2, 3]))
    assert is_constant_width(body).dual is None
    rep = swept(body, 1e-6, monkeypatch)
    assert rep.dual is not None
    assert len(rep.dual.pieces) * 4096 > 8 * BLOCK_ELEMENTS
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


def ring_hulls():
    """Three random hulls of 40 points on a circle of radius 0.7, as vertex arrays."""
    rng = np.random.default_rng(3)
    hulls = []
    for _ in range(3):
        c = unit(rng.normal(size=3))
        u = unit(np.cross(c, rng.normal(size=3)))
        az = np.sort(rng.uniform(0, 2 * PI, 40))
        ring = np.outer(np.cos(az), u) + np.outer(np.sin(az), np.cross(c, u))
        hulls.append(math.cos(0.7) * c + math.sin(0.7) * ring)
    return hulls


def test_diameter_octant():
    assert diameter(octant()) == pytest.approx(PI / 2, abs=1e-12)
    # random hulls of 40 points on a circle of radius 0.7 (diameter < pi/2)
    # attain their diameter at a vertex pair, which the Gram matrix and the
    # farthest-pair kernel both find, whatever the vertex order
    for verts in ring_hulls():
        want = float(np.max(acos_clamped_np(verts @ verts.T)))
        assert want < PI / 2
        for shift in range(0, 40, 5):
            poly = Polytope(np.roll(verts, shift, axis=0))
            assert validate_polytope(poly).ok
            assert diameter(poly) == pytest.approx(want, abs=1e-12)
            assert metrics.farthest_pair(poly)[0] == pytest.approx(want, abs=1e-12)


@pytest.fixture(scope="module")
def lemma_polygons():
    """(name, polygon) pairs: eps = 0.003 polytopes of rotated caps (seeds
    1-5), random self-dual polytopes and their sub-dual seeds (n in 8, 30,
    60; seeds 1-3) and the 40-point ring hulls, each followed by its dual."""
    polys = [
        ("cap-%d" % s, approximate_polytope(rotated(cap(E3, PI / 4), rotation_from_seed(s)), ApproximationConfig(0.003))[0])
        for s in range(1, 6)
    ]
    for n in (8, 30, 60):
        for s in (1, 2, 3):
            polys.append(("random-%d-%d" % (n, s), random_selfdual_polytope(n, s)))
            polys.append(("seed-%d-%d" % (n, s), random_subdual_polytope_seed(n, s)))
    polys += [("hull-%d" % i, Polytope(v)) for i, v in enumerate(ring_hulls())]
    return [x for name, p in polys for x in ((name, p), (name + "-dual", polar_dual(p)))]


def test_vertex_pair_diameter_and_thickness_match_the_ascent(lemma_polygons):
    # every primal polygon takes the closed form (vertex-pair diameter at
    # most pi/2 + slack), and so does every dual whose poles allow it; the
    # farthest-pair kernel, which the others take, is the reference.  On a
    # self-dual polygon each vertex is pi/2 from all of its opposite edge,
    # so the two may part by an ulp of pi/2; on the cap polytopes, the files
    # of the verify-cli benchmark, they agree bit for bit
    ulp = math.ulp(PI / 2)
    closed = 0
    for name, body in lemma_polygons:
        took = metrics._polygon_diameter(np.concatenate([body.arcs.start, body.arcs.end])) is not None
        assert took or name.endswith("-dual"), name
        closed += took
        pairs = [
            (diameter(body), metrics.farthest_pair(body)[0]),
            (thickness(body), PI - metrics.farthest_pair(polar_dual(body))[0]),
        ]
        for got, want in pairs:
            if name.startswith("cap-"):
                assert got == want, name
            assert abs(got - want) <= ulp, (name, got - want)
        # the thickness reads the poles as the dual's own vertices
        assert thickness(body) == PI - diameter(polar_dual(body)), name
    assert closed > 0.75 * len(lemma_polygons)


def test_diameter_puts_each_shared_end_in_the_gram_matrix_once(monkeypatch, lemma_polygons):
    # every end of a Polytope is bit for bit the next start, so the Gram
    # matrix is n x n and its least entry that of the 2n x 2n one, up to the
    # rounding of a matrix product of another shape; an end that misses the
    # next start, on a chain of great arcs, stays in
    rows = []
    gram = metrics._polygon_diameter
    monkeypatch.setattr(metrics, "_polygon_diameter", lambda v: rows.append(len(v)) or gram(v))
    for name, body in lemma_polygons:
        rows.clear()
        both = gram(np.concatenate([body.arcs.start, body.arcs.end]))
        got = diameter(body)
        assert rows == [len(body.arcs)], name
        assert both is None or abs(got - both) <= 2 * math.ulp(PI / 2), name
    poly = random_selfdual_polytope(30, 1)
    a = poly.arcs
    end = a.end.copy()
    end[4] = unit(end[4] + 1e-13 * E3)
    chain = bd.chain_body(great_arc_stack(a.start, end))
    rows.clear()
    assert abs(diameter(chain) - gram(np.concatenate([chain.arcs.start, chain.arcs.end]))) <= 2 * math.ulp(PI / 2)
    assert rows == [len(a) + 1]


def test_diameter_inside_an_edge_takes_the_ascent():
    # a thin triangle: its apex is 1.7 from the middle of its base of length
    # 1 but acos(cos 1.7 cos 0.5) = 1.684 from the base's ends, so the
    # vertex-pair diameter M exceeds pi/2 and undershoots the diameter
    apex = np.array([math.cos(1.7), 0.0, math.sin(1.7)])
    base = [np.array([math.cos(0.5), s * math.sin(0.5), 0.0]) for s in (-1.0, 1.0)]
    poly = Polytope([apex, *base])
    assert validate_polytope(poly).ok
    m = float(np.max(acos_clamped_np(poly.vertices @ poly.vertices.T)))
    assert m == pytest.approx(math.acos(math.cos(1.7) * math.cos(0.5)), abs=1e-12)
    assert m > PI / 2
    assert metrics._polygon_diameter(poly.vertices) is None
    # the farthest-pair kernel finds the apex against the inside of the base
    assert diameter(poly) == pytest.approx(1.7, abs=1e-12)
    assert diameter(poly) > m + 0.01


# ------------------------------------------------------------ farthest pair


@pytest.fixture(scope="module")
def kernel_corpus():
    """The acceptance, curved and tampered corpora, two stadiums and the
    polar duals of sub-dual random polytope seeds (diameter above pi/2)."""
    from fixtures import acceptance_corpus, curved_bodies, curved_tampered, stadium

    bodies = {"acceptance-%d" % s: b for s, (_, b) in acceptance_corpus().items()}
    bodies.update(curved_bodies())
    bodies.update({"tampered-" + k: b for k, b in curved_tampered().items()})
    bodies.update({"stadium-%g-%g-%s" % arc: stadium(*arc) for arc in ((0.5, 0.3, None), (0.8, 0.2, (1.0, 0.1)))})
    bodies.update({"subdual-dual-%d" % s: polar_dual(random_subdual_polytope_seed(30, s)) for s in range(1, 17)})
    return bodies


def test_farthest_pair_matches_dense_chord_sampling(kernel_corpus):
    # never below a sample pair of 2048 a piece, within 1e-12 of that
    # maximum polished by a local search, and realised by two boundary
    # points at that chord-form distance
    above = 0
    for name, body in kernel_corpus.items():
        d, x, y = metrics.farthest_pair(body)
        sampled, polished = oracles.farthest_pair_oracle(body)
        assert d >= sampled - 1e-12, (name, d - sampled)
        assert abs(d - polished) <= 1e-12, (name, d - polished)
        assert np.all(boundary_distance_many(body, np.array([x, y])) <= 1e-12), name
        assert abs(2.0 * math.asin(np.linalg.norm(x - y) / 2.0) - d) <= 1e-12, name
        above += d > PI / 2 + 1e-3
    assert above >= 20


def test_cosine_kernel_matches_the_arccos_reference(kernel_corpus):
    # one arccos of the least dot where the reference takes one a
    # candidate, with np.hypot and np.mod: the kernel's distances, the
    # diameter and the sweep's farthest distances agree to 4e-16, or to one
    # ulp above 2, where an ulp is 4.4e-16; each pair lies on the boundary,
    # at its distance
    def close(got, ref):
        return np.all(np.abs(got - ref) <= np.maximum(4e-16, np.spacing(ref)))

    for name, body in kernel_corpus.items():
        a = body.arcs
        x = np.concatenate([a.start, a.end, a.point_at(0.5 * (a.t0 + a.t1))])
        assert close(max_distance_to_piece(x, a), oracles.max_distance_to_piece_arccos(x, a)), name
        d, p, q = metrics.farthest_pair(body)
        assert close(d, oracles.farthest_pair_arccos(body)), name
        assert np.all(boundary_distance_many(body, np.array([p, q])) <= 4e-16), name
        assert abs(acos_clamped_np(p @ q) - d) <= 4e-16, name
        idx, ts = linspace_grid(a.t0, a.t1, length_weighted_counts(a, 512))
        k = a.point_at(ts, idx)
        assert close(boundary_max_distance_many(body, k), oracles.max_distance_to_piece_arccos(k, a).max(axis=1)), name


def test_farthest_pair_puts_each_shared_end_in_the_kernel_once(monkeypatch):
    # every end of a Polytope is bit for bit the next start, so the kernel
    # gets n end rows, not 2n, and the least dot of all 2n; an end that
    # misses the next start, on a chain of great arcs, stays in
    rows = []
    kernel = metrics.min_dot_to_piece
    monkeypatch.setattr(metrics, "min_dot_to_piece", lambda x, a: rows.append(len(x)) or kernel(x, a))

    def least_of_all_ends(body):
        a = body.arcs
        return float(acos_clamped_np(kernel(np.concatenate([a.start, a.end]), a).min()))

    for s in (1, 2, 3):
        dual = polar_dual(random_subdual_polytope_seed(30, s))
        assert isinstance(dual, Polytope)
        rows.clear()
        assert metrics.farthest_pair(dual)[0] == least_of_all_ends(dual)
        assert rows == [len(dual.arcs)]
    a = dual.arcs
    end = a.end.copy()
    end[4] = unit(end[4] + 1e-13 * E3)
    chain = bd.chain_body(great_arc_stack(a.start, end))
    rows.clear()
    assert metrics.farthest_pair(chain)[0] == least_of_all_ends(chain)
    assert rows == [len(a) + 1]


def test_farthest_pair_of_a_cap_is_an_opposite_pair():
    # a full circle against itself: the start and the point opposite it
    for r in (0.3, PI / 4, 1.2):
        d, x, y = metrics.farthest_pair(cap(unit([0.4, -1.0, 0.7]), r, 0.9))
        assert d == pytest.approx(2 * r, abs=1e-12)
        assert abs(float(x @ y) - math.cos(2 * r)) <= 1e-12


def test_farthest_pair_of_a_stadium_joins_its_small_arcs_inside():
    # the largest distance, along the equator, has no arc end: only the
    # centre-line pair of the two small arcs finds it
    from fixtures import stadium

    # cut short past the equator, the small arcs' midpoints leave it, and
    # the midpoint bound keeps the pair on its l/2 term alone; cut short on
    # both sides, that bound exceeds the ends' best by as little as 0.005
    cases = [(0.5, 0.3, None), (0.3, 0.6, None), (0.8, 0.2, None), (0.5, 0.3, (1.0, 0.2)), (0.3, 0.6, (1.0, 0.3))]
    cases += [(0.5, 0.3, (0.1, 0.1)), (0.8, 0.2, (0.05, 0.08)), (0.8, 0.2, (0.02, 0.03))]
    for a, r, ends in cases:
        body = stadium(a, r, ends)
        d, x, y = metrics.farthest_pair(body)
        assert d == pytest.approx(2 * (a + r), abs=1e-12)
        assert abs(x[2]) <= 1e-12 and abs(y[2]) <= 1e-12
        corners = np.concatenate([body.arcs.start, body.arcs.end])
        assert np.linalg.norm(corners - x, axis=1).min() > 1e-3
        assert float(acos_clamped_np(corners @ corners.T).max()) < d - 1e-5


# ------------------------------------------------------------ width reports


def test_octant_is_constant_width():
    rep = is_constant_width(octant(), tol=1e-9)
    assert rep.passed
    assert rep.self_duality_residual < 1e-10
    assert abs(rep.diameter - PI / 2) < 1e-9


def test_cap_third_pi_fails_constant_width_check():
    rep = is_constant_width(cap(E3, PI / 3), tol=1e-6)
    assert not rep.passed
    assert rep.width_min == pytest.approx(2 * PI / 3, abs=1e-9)


def test_truncated_octant_not_constant_width():
    rep = is_constant_width(truncated_octant(), tol=1e-6)
    assert not rep.passed
    assert rep.spread > 1e-3


def test_the_report_has_one_width_and_one_source_per_quantity(monkeypatch):
    # pi/2 is the only width: the old positional tau is refused, not read
    # as a tolerance
    body = octant()
    for args in ((PI / 2,), (PI / 2, 1e-6)):
        with pytest.raises(TypeError):
            is_constant_width(body, *args)
    assert [f.name for f in fields(WidthReport)] == [
        "tol", "width_min", "width_max", "passed", "body", "dual", "swept_thickness"
    ]
    # in closed form the residual is the body's own rho; swept, as the
    # closed form switched off makes it, the diameter is still ``diameter``'s
    for poly in (body, random_selfdual_polytope(30, 1)):
        rep = is_constant_width(poly)
        assert rep.dual is None and rep.self_duality_residual == poly.residual_bound
        ref = swept(poly, 1e-6, monkeypatch)
        assert ref.dual is not None and ref.passed
        assert ref.diameter == rep.diameter == diameter(poly)
        assert ref.thickness == PI - diameter(ref.dual)


def test_the_swept_residual_is_the_upper_end_of_the_refinement(cap_polytopes):
    # a body the closed form does not cover reports the upper end of
    # hausdorff_bounds against its dual, never its lower end: 0 on the
    # trimmed body, about 1e-7 below the upper end on the moved vertex
    from fixtures import curved_tampered

    for body in (curved_tampered()["trimmed-1e-6"], tampered(cap_polytopes[1][1])[0][1]):
        rep = is_constant_width(body)
        assert rep.dual is not None
        lo, hi = hausdorff_bounds(body, rep.dual)
        assert rep.self_duality_residual == hi > lo


def swept(body, tol, monkeypatch):
    """``is_constant_width`` with the closed form switched off: the sweep alone.

    A property on the class outranks the value a body keeps from an earlier
    read, so a body gated before is swept too."""
    with monkeypatch.context() as m:
        m.setattr(bd.ConvexBody, "residual_bound", property(lambda b: None))
        return is_constant_width(body, tol=tol)


def tampered(poly):
    """(name, polytope) edits of a self-dual polytope that break its self-duality."""
    v = poly.vertices
    out = unit(v[0] - poly.interior)  # away from the witness
    z = poly.arcs.z[0]  # edge 0's pole, on the inner side
    split = unit(unit(v[0] + v[1]) - 1e-8 * z)
    return [
        ("moved-1e-6", Polytope(np.vstack([unit(v[0] + 1e-6 * out), v[1:]]))),
        ("deleted", Polytope(np.delete(v, 3, axis=0))),
        ("even-count", Polytope(np.vstack([v[:1], split, v[1:]]))),
    ]


def test_closed_form_verdict_equals_the_sweep(monkeypatch):
    # the closed form answers only when 2 rho <= tol, where the sweep's
    # widths lie within rho of pi/2 and it passes too; everything else is
    # swept, so ``passed`` never changes
    from fixtures import acceptance_corpus, curved_selfdual_bodies, curved_tampered

    bodies = [body for _, body in acceptance_corpus().values()]
    polys = [b for b in bodies if isinstance(b, Polytope)]
    bodies += [truncated_octant(), *(t for p in polys if len(p) >= 5 for _, t in tampered(p))]
    bodies += [*curved_selfdual_bodies().values(), *curved_tampered().values()]
    closed = curved = swept_fails = 0
    for body in bodies:
        for tol in (0.0, 1e-9, 1e-6, 1e-5, 1e-2):
            rep = is_constant_width(body, tol=tol)
            ref = swept(body, tol, monkeypatch)
            assert rep.passed == ref.passed, (body, tol)
            closed += rep.dual is None
            curved += rep.dual is None and not body.is_polytope()
            swept_fails += not ref.passed
            if rep.dual is None:
                rho = body.residual_bound
                assert (rep.width_min, rep.width_max) == (PI / 2 - rho, PI / 2 + rho)
                assert rep.self_duality_residual == rho
                assert ref.width_min >= rep.width_min - 1e-15 and ref.width_max <= rep.width_max + 1e-15
                if not body.is_polytope():  # measured when read, as the sweep measures it
                    assert rep.thickness == ref.thickness
            else:
                assert (rep.width_min, rep.width_max, rep.thickness) == (ref.width_min, ref.width_max, ref.thickness)
    assert closed > 200 and curved > 80 and swept_fails > 40


def test_pairing_bound_covers_the_residual_and_the_swept_widths(monkeypatch):
    # rho is a proved upper end of H(C, C*), the refinement and sampled
    # distances lower ones; the sampled widths lie within rho of pi/2
    from fixtures import curved_selfdual_bodies, curved_tampered

    selfdual = curved_selfdual_bodies()
    tampered_bodies = curved_tampered()
    rhos = {}
    for name, body in {**selfdual, **tampered_bodies}.items():
        rho = rhos[name] = pairing_residual_bound(body)
        if rho is None:
            continue
        dual = polar_dual(body)
        h = max(float(body_distance_many(x, oracles.boundary_samples(y, 64)).max()) for x, y in ((body, dual), (dual, body)))
        if name != "corner-moved-1e-7":  # its refinement takes seconds on near-flat plateaus
            h = max(h, hausdorff(body, dual))
        ref = swept(body, 1e-6, monkeypatch)
        assert h <= rho, name
        assert PI / 2 - rho - 1e-15 <= ref.width_min <= ref.width_max <= PI / 2 + rho + 1e-15, name
    assert all(rhos[name] <= 1e-10 for name in selfdual)
    # the paired edits move rho by about their size; the others are not paired
    assert {name for name in tampered_bodies if rhos[name] is not None} == {
        "cap-radius-4e-10", "parallel-5e-10", "trimmed-5e-10", "corner-moved-1e-7"
    }
    assert 8e-10 <= rhos["cap-radius-4e-10"] <= 1e-9 + 1e-15
    assert 1e-9 <= rhos["parallel-5e-10"] <= 2e-9
    # the moved vertex turns two edges by about 1e-7 / 0.3: the corners see it
    assert 1e-7 <= rhos["corner-moved-1e-7"] <= 1e-6
    # a frame that turns a quarter between two pieces of one circle never
    # lowers rho: the offset of the second piece from the run's arc is of
    # order 1, and the body is swept
    assert tampered_bodies["frame-jump"].validation.ok and rhos["frame-jump"] is None


def test_pairing_bound_holds_the_merged_junction_gaps():
    # a rotated body's arcs meet with tangents a few 1e-12 apart: the pole
    # arc of each such junction is part of C* and enters rho
    from fixtures import rotated_reuleaux

    body = rotated_reuleaux(3, 1e-5)
    a = body.arcs
    gap = np.linalg.norm(a.support_pole_at(a.t1) - np.roll(a.support_pole_at(a.t0), -1, axis=0), axis=1)
    assert gap.max() > 1e-12
    assert pairing_residual_bound(body) >= gap.max()


def test_curved_gate_builds_no_dual_and_runs_no_ascent(monkeypatch):
    from fixtures import curved_selfdual_bodies

    bodies = list(curved_selfdual_bodies().values())
    calls = counted_calls(monkeypatch, ("farthest_pair",) + SWEEP_WORK)
    reports = [is_constant_width(body) for body in bodies]
    assert all(rep.passed and rep.dual is None for rep in reports)
    assert {k: len(v) for k, v in calls.items()} == dict.fromkeys(calls, 0)
    # thickness and diameter are measured when read, as the sweep measured them
    rep, body = reports[0], bodies[0]
    assert rep.thickness == PI - metrics.farthest_pair(polar_dual(body))[0]
    assert rep.diameter == metrics.farthest_pair(body)[0]


def test_tampered_polytopes_fall_back_to_the_sweep(monkeypatch, cap_polytopes):
    poly = cap_polytopes[1][1]
    for name, bad in tampered(poly):
        assert validate_polytope(bad).ok, name
        rep = is_constant_width(bad, tol=1e-6)
        ref = swept(bad, 1e-6, monkeypatch)
        # swept as before, each quantity from its one source: the dual's
        # diameter, the body's, and the refinement's upper end
        assert rep.dual is not None, name
        assert rep.passed == ref.passed
        assert (rep.width_min, rep.width_max, rep.thickness) == (ref.width_min, ref.width_max, ref.thickness)
        assert rep.thickness == PI - diameter(rep.dual), name
        assert rep.diameter == ref.diameter == diameter(bad)
        assert rep.self_duality_residual == hausdorff_bounds(bad, rep.dual)[1], name
    # the verdicts stay the sweep's: the deleted vertex fails; the even
    # count, its new vertex 1e-8 off an edge, passes although rho is large;
    # so does the moved vertex, whose widths the sweep samples (``certify``
    # rejects it by rho)
    verdicts = {name: is_constant_width(bad, tol=1e-6).passed for name, bad in tampered(poly)}
    assert verdicts == {"moved-1e-6": True, "deleted": False, "even-count": True}


def counted_calls(monkeypatch, names):
    """Lists of first arguments of the calls to ``names``, patched in every module that binds them."""
    import spherewidth
    from spherewidth import approx, body, cli, generators, sphere

    modules = (spherewidth, sphere, body, metrics, approx, generators, cli)
    calls = {}
    for name in names:
        fn = next(getattr(m, name) for m in modules if hasattr(m, name))
        calls[name] = []

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name].append(args[0])
            return _fn(*args, **kwargs)

        for m in modules:
            if getattr(m, name, None) is fn:
                monkeypatch.setattr(m, name, counted)
    return calls


SWEEP_WORK = ("boundary_max_distance_many", "min_dot_to_piece", "hausdorff", "polar_dual")


def test_selfdual_polytope_report_sweeps_nothing(monkeypatch):
    polys = selfdual_polytopes()
    fresh = [Polytope(polys[k].vertices.copy()) for k in ("octant", "cap-1", "random-30-2")]
    calls = counted_calls(monkeypatch, SWEEP_WORK + ("validate",))
    for poly in fresh:
        rep = is_constant_width(poly)
        assert rep.passed
        rho = selfdual_residual_bound(poly)
        assert rep.self_duality_residual == rho
        assert rep.width_min <= rep.thickness <= rep.width_max
        assert rep.diameter == pytest.approx(PI / 2, abs=1e-12)
    assert {k: len(calls[k]) for k in SWEEP_WORK} == dict.fromkeys(SWEEP_WORK, 0)
    assert calls["validate"] == fresh


def test_metrics_verb_sweeps_nothing_on_polytope_files(monkeypatch, tmp_path, capsys):
    from spherewidth.cli import main
    from spherewidth.formats import dumps_body

    poly = selfdual_polytopes()["cap-2"]
    files = {"poly": poly, "dual": polar_dual(poly)}
    for name, b in files.items():
        (tmp_path / name).write_text(dumps_body(b))
    calls = counted_calls(monkeypatch, SWEEP_WORK + ("validate",))
    for name in files:
        assert main(["metrics", str(tmp_path / name)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["width_min"] <= rec["thickness"] <= rec["width_max"]
        assert rec["self_duality_residual"] <= 1e-12
    assert {k: len(calls[k]) for k in SWEEP_WORK} == dict.fromkeys(SWEEP_WORK, 0)
    # the polytope and its dual, a polytope file too, are one body each,
    # each validated once
    validated = calls["validate"]
    assert len(validated) == 2 and len({id(b) for b in validated}) == 2


def test_polytope_gate_and_seed_check_run_no_ascent(monkeypatch):
    # the approximation gate on a polytope input and the completion's
    # sub-duality check of its seed both take the closed form: the
    # farthest-pair kernel measures only the duals the completion grows into
    poly = selfdual_polytopes()["random-30-1"]
    seed = random_subdual_polytope_seed(30, 4)
    calls = counted_calls(monkeypatch, ("farthest_pair",) + SWEEP_WORK)
    out, cert, steps = approximate_polytope(poly, ApproximationConfig(0.01))
    assert len(steps) == 0 and np.array_equal(out.vertices, poly.vertices)
    assert calls["farthest_pair"] == []
    complete_selfdual(seed, tol=1e-7)
    assert len(calls["farthest_pair"]) == 1 and calls["farthest_pair"][0] is not seed
    assert calls["boundary_max_distance_many"] == []


# ---------------------------------------------------------------- Hausdorff


def test_hausdorff_self_is_zero():
    b = cap(E3, 0.8)
    assert hausdorff(b, b) < 1e-12


def test_hausdorff_concentric_caps():
    d = hausdorff(cap(E3, PI / 4), cap(E3, PI / 4 - 0.1))
    assert d == pytest.approx(0.1, abs=1e-9)


def test_oracle_screen_keeps_the_largest_nearest_chord():
    from scipy.spatial import cKDTree

    # rows all nearly equidistant from a curve, far from it and hugging it,
    # and rows scattered over the sphere, where the screen drops most of them
    cloud = oracles.boundary_cloud(cap(E3, 0.3), 3000)
    far = oracles.boundary_cloud(cap(E3, 1.1), 3000)
    near = oracles.boundary_cloud(cap(E3, 0.3001), 4001)
    scattered = unit_rows(np.random.default_rng(5).normal(size=(4000, 3)))
    for points in (far, near, scattered):
        got = oracles.nearest_chords_near_max(points, cloud, stride=16)
        assert got.max() == cKDTree(cloud).query(points)[0].max()
    assert len(got) < len(scattered) // 10


def test_hausdorff_octant_vs_cap_matches_oracle(cap_polytopes):
    z = unit([1, 1, 1])
    a = octant()
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
    # a cap against its 51-vertex polytope: one recap caps over 1000
    # intervals against the 51 edges, several blocks of the structural caps
    c, polys = cap_polytopes
    poly = polys[1]
    got = hausdorff(c, poly)
    want = oracles.hausdorff_oracle(
        c,
        poly,
        oracles.cap_inside(c.pieces[0].center, PI / 4),
        oracles.polytope_inside(poly.vertices),
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


def test_hausdorff_evaluates_each_level_in_one_call(monkeypatch, cap_polytopes):
    # the cap against its 51-vertex polytope: every direction evaluates its
    # whole set-up grid in one call and every level's midpoints in one more,
    # over the same rows as one call per piece and level; rows deep inside
    # the other body are pruned by their signed distance
    c, polys = cap_polytopes
    n = {"calls": 0, "rows": 0, "levels": 0}

    def counted(b, x, *args, **kwargs):
        n["calls"] += 1
        n["rows"] += len(x)
        return body_distance_many(b, x, *args, **kwargs)

    refine_once = metrics._Direction.refine_once

    def level(self, *args):
        n["levels"] += 1
        return refine_once(self, *args)

    monkeypatch.setattr(metrics, "body_distance_many", counted)
    monkeypatch.setattr(metrics._Direction, "refine_once", level)
    hausdorff(c, polys[1])
    assert n["levels"] == 6
    assert n["calls"] <= 2 * 2 + n["levels"]
    assert n["rows"] == 4200


@pytest.mark.parametrize("inner", [cap(E3, 0.6), cap(unit([0.0, 0.1, 1.0]), 0.5)])
def test_sup_distance_of_a_body_inside_another_is_zero_at_once(monkeypatch, inner):
    # every point of the inner cap is inside the outer one: its signed
    # distance is negative, so the set-up grid prunes every row, where an
    # unsigned distance of 0 left each row's Lipschitz bound to halve level
    # after level until the rows ran out
    levels = []
    refine_once = metrics._Direction.refine_once

    def level(self, *args):
        levels.append(self)
        return refine_once(self, *args)

    monkeypatch.setattr(metrics._Direction, "refine_once", level)
    monkeypatch.setattr(metrics, "REFINE_LEVELS", 2)
    assert boundary_sup_distance(inner, cap(E3, PI / 4)) == 0.0
    assert levels == []


def test_stalled_refinement_raises_with_its_bracket(monkeypatch, cap_polytopes):
    # the cap against its eps = 0.002 polytope needs six levels
    c, polys = cap_polytopes
    h = hausdorff(c, polys[1])
    monkeypatch.setattr(metrics, "REFINE_LEVELS", 1)
    with pytest.raises(RefinementStalled) as err:
        hausdorff(c, polys[1])
    assert err.value.lo <= h <= err.value.hi
    assert err.value.hi - err.value.lo > HAUSDORFF_TOL


def test_refinement_upper_end_counts_the_pruned_rows(monkeypatch):
    # the rows left at the end and those pruned on the way cover both
    # boundaries; hi is the largest upper bound among them, here one of a
    # pruned row, and the lower end is hausdorff's
    from fixtures import rotated_reuleaux

    body = rotated_reuleaux(3, 0.1)
    poly = approximate_polytope(body, ApproximationConfig(0.05))[0]
    pruned = []
    split = metrics._Direction.refine_once

    def recorded(self, lb, tol):
        ubs = self._ubs()
        pruned.extend(ubs[ubs <= lb + tol].tolist())
        return split(self, lb, tol)

    monkeypatch.setattr(metrics._Direction, "refine_once", recorded)
    directions = [metrics._Direction(body, poly, HAUSDORFF_TOL), metrics._Direction(poly, body, HAUSDORFF_TOL)]
    lb, hi = metrics._refine(directions, HAUSDORFF_TOL)
    left = max(float(d._ubs().max()) for d in directions)
    assert hi == max(lb, left, *pruned) > max(lb, left)
    assert (lb, hi) == metrics.hausdorff_bounds(body, poly) and lb == hausdorff(body, poly)
    assert hi <= lb + HAUSDORFF_TOL


def test_refinement_tables_stop_at_their_row_bound(monkeypatch):
    # near-flat plateaus: the moved corner keeps the tables growing long
    # before they close, so a small row bound is reached first
    from fixtures import two_cut_cap

    body = two_cut_cap(1e-7)
    sizes = []
    split = metrics._Direction.refine_once

    def recorded(self, lb, tol):
        lb = split(self, lb, tol)
        sizes.append(len(self.tl))
        return lb

    monkeypatch.setattr(metrics._Direction, "refine_once", recorded)
    monkeypatch.setattr(metrics, "REFINE_ROWS", 1 << 14)
    with pytest.raises(RefinementStalled) as err:
        hausdorff(body, polar_dual(body))
    assert 0.0 < err.value.lo <= err.value.hi
    # stopped by the rows, long before the levels, with no table past twice the bound
    assert len(sizes) < metrics.REFINE_LEVELS and max(sizes) <= 2 << 14


# ----------------------------------------------------------------- residual


def test_residual_octant_zero():
    assert self_duality_residual(octant()) < 1e-10


def test_residual_selfdual_cap_zero():
    assert self_duality_residual(cap(E3, PI / 4)) < 1e-10


def test_residual_shifted_cap():
    got = self_duality_residual(cap(E3, PI / 4 - 0.05))
    assert got == pytest.approx(0.1, abs=1e-6)


def test_polar_involution_small():
    for b in [cap(unit([1, 2, -1]), 0.6), octant()]:
        assert hausdorff(polar_dual(polar_dual(b)), b) <= 1e-9


# ------------------------------------------------------------ structural caps


def test_structural_caps_bound_sampled_sup(cap_polytopes):
    # every cap is an upper bound on the sup over its arc of the distance to
    # b: cap against polytope, polytope against cap, polytope against its dual
    c, polys = cap_polytopes
    rng = np.random.default_rng(2)
    checked = 0
    for p in polys:
        dual = polar_dual(p)
        for a, b in ((c, p), (p, c), (p, dual), (dual, p)):
            idx, tl, tr = sub_arcs(a, 20, rng)
            caps = _structural_caps(a.arcs, idx, tl, tr, b)
            ts = np.linspace(tl, tr, 400, axis=-1)
            x = a.arcs[idx[:, None]].point_at(ts).reshape(-1, 3)
            sup = body_distance_many(b, x).reshape(len(tl), -1).max(axis=1)
            assert np.all(caps >= sup - 1e-12), float(np.max(sup - caps))
            checked += int(np.isfinite(caps).sum())
    # great sub-arcs too short to stand alone get no cap (inf); the rest do
    assert checked > 3000


@pytest.fixture
def kernel_pairs(monkeypatch):
    """The number of (row, piece) pairs of each structural-cap kernel call."""
    pairs = []
    pair_caps = metrics._pair_caps

    def counted(pa, *args):
        pairs.append(len(pa.z))
        return pair_caps(pa, *args)

    monkeypatch.setattr(metrics, "_pair_caps", counted)
    return pairs


def test_structural_caps_blocks_match_single_arcs(kernel_pairs, cap_polytopes):
    # with no bound the window keeps every (row, piece) pair, over 2 blocks
    # of them; each kernel call takes at most one block
    c, polys = cap_polytopes
    b = polys[1]
    idx, tl, tr = sub_arcs(c, 400, np.random.default_rng(4))
    assert len(tl) * len(b.pieces) > 2 * BLOCK_ELEMENTS
    caps = _structural_caps(c.arcs, idx, tl, tr, b)
    assert sum(kernel_pairs) == len(tl) * len(b.pieces)
    assert len(kernel_pairs) >= 3 and max(kernel_pairs) <= BLOCK_ELEMENTS
    one = [_structural_caps(c.arcs, idx[[i]], tl[[i]], tr[[i]], b)[0] for i in range(len(tl))]
    # numpy may round a transcendental in the last bit differently in a
    # long and a one-element array
    np.testing.assert_allclose(caps, one, rtol=0, atol=1e-12)


def cap_pairs(cap_polytopes):
    """(a, b) pairs: cap vs P, P vs cap, P vs dual and dual vs P, for both polytopes."""
    c, polys = cap_polytopes
    for p in polys:
        dual = polar_dual(p)
        yield from ((c, p), (p, c), (p, dual), (dual, p))


def test_windowed_caps_match_dense_caps_up_to_the_bound(kernel_pairs, cap_polytopes):
    rng = np.random.default_rng(5)
    kept = dense_pairs = 0
    for a, b in cap_pairs(cap_polytopes):
        idx, tl, tr = sub_arcs(a, max(20, 400 // len(a.pieces)), rng)
        dense = _structural_caps(a.arcs, idx, tl, tr, b)
        for bound in np.quantile(dense[np.isfinite(dense)], [0.0, 0.1, 0.5, 0.9]):
            kernel_pairs.clear()
            caps = _structural_caps(a.arcs, idx, tl, tr, b, bound)
            below = dense <= bound
            np.testing.assert_array_equal(caps[below], dense[below])
            assert np.all(caps[~below] >= dense[~below])
            kept += sum(kernel_pairs)
            dense_pairs += len(tl) * len(b.pieces)
    # the window skips most pairs
    assert kept < 0.2 * dense_pairs


def test_window_drops_only_pairs_whose_caps_exceed_their_lower_bound(cap_polytopes):
    # every cap of a (row, piece) pair is at least LB, so the window, which
    # drops pairs with LB above the bound, never drops a cap at most the bound
    rng = np.random.default_rng(6)
    positive = 0
    for a, b in cap_pairs(cap_polytopes):
        idx, tl, tr = sub_arcs(a, max(20, 400 // len(a.pieces)), rng)
        # LB = d(m, c) - rho: m the arc's midpoint, c the piece's
        # mid-parameter point, rho half the piece's length
        m = a.arcs[idx].point_at(0.5 * (tl + tr))
        c = b.arcs.point_at(0.5 * (b.arcs.t0 + b.arcs.t1))
        lb = acos_clamped_np(m @ c.T) - 0.5 * b.arcs.span * b.arcs.sin_r
        single = np.column_stack(
            [
                _structural_caps(a.arcs, idx, tl, tr, SimpleNamespace(arcs=b.arcs[[j]]))
                for j in range(len(b.pieces))
            ]
        )
        assert np.all(single >= lb - 1e-12), float(np.max(lb - single))
        positive += int(np.sum(lb > 0.0))
    assert positive > 10000


def test_hausdorff_window_changes_no_bit(monkeypatch):
    # the same answers, float for float, with the window and with every
    # (row, piece) pair capped
    polys = selfdual_polytopes()
    pairs = []
    for seed in (1, 2, 3):
        c = rotated(cap(E3, PI / 4), rotation_from_seed(seed))
        p = polys["cap-%d" % seed]
        pairs += [(c, p), (c, polar_dual(p)), (p, polar_dual(p))]
        q = polys["random-30-%d" % seed]
        pairs.append((q, polar_dual(q)))
    windowed = [hausdorff(a, b).hex() for a, b in pairs]
    bounds = []
    dense_caps = metrics._structural_caps

    def dense(arcs, idx, tl, tr, b, bound):
        bounds.append(bound)
        return dense_caps(arcs, idx, tl, tr, b)

    monkeypatch.setattr(metrics, "_structural_caps", dense)
    assert [hausdorff(a, b).hex() for a, b in pairs] == windowed
    assert bounds and all(math.isfinite(x) for x in bounds)

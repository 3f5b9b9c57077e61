import json
import math
from dataclasses import fields

import numpy as np
import pytest

import oracles
from fixtures import lens, selfdual_polytopes, truncated_octant
from spherewidth.approx import ApproximationConfig, approximate_polytope
from spherewidth.body import (
    Polytope,
    body_distance_many,
    boundary_distance_many,
    pairing_residual_bound,
    polar_dual,
    selfdual_residual_bound,
    to_polytope,
    validate_polytope,
)
from spherewidth import body as bd
from spherewidth import metrics
from spherewidth.errors import FarPair, InvalidBody, NotSupporting
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
    WidthReport,
    boundary_sup_distance,
    diameter,
    hausdorff,
    is_constant_width,
    self_duality_residual,
    thickness,
    width_wrt,
)
from spherewidth.sphere import (
    acos_clamped_np,
    great_arc_stack,
    lune_thickness,
    max_distance_to_piece,
    min_dot_to_piece,
    sample_piece,
    unit,
    unit_each,
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


def farthest(body):
    """``farthest_pair`` of the body against itself, its least dot read as the diameter."""
    c, x, y = metrics.farthest_pair(body, body)
    return float(acos_clamped_np(c)), x, y


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
    # the closed form, so it measures nothing
    poly, _, _ = approximate_polytope(cap(unit([1, 2, 3]), PI / 4), ApproximationConfig(0.01))
    for k in poly.vertices:
        assert width_wrt(poly, k) == pytest.approx(PI / 2, abs=1e-9)
    rep = is_constant_width(poly)
    assert closed_form(rep)
    assert rep.width_min == pytest.approx(PI / 2, abs=1e-9)
    assert rep.width_max == pytest.approx(PI / 2, abs=1e-9)
    # a curved body of constant width takes the closed form of its run
    # pairing; off it, the exact report gives the same widths
    body = rounded_reuleaux(9, 0.2, unit([1, 2, 3]))
    assert closed_form(is_constant_width(body))
    rep = exact(body, 1e-6, monkeypatch)
    assert not closed_form(rep)
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
            assert farthest(poly)[0] == pytest.approx(want, abs=1e-12)


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
            (diameter(body), farthest(body)[0]),
            (thickness(body), PI - farthest(polar_dual(body))[0]),
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
        d, x, y = farthest(body)
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
    # diameter and the farthest distances ``width_wrt`` reads agree to
    # 4e-16, or to one ulp above 2, where an ulp is 4.4e-16; each pair lies
    # on the boundary, at its distance
    def close(got, ref):
        return np.all(np.abs(got - ref) <= np.maximum(4e-16, np.spacing(ref)))

    for name, body in kernel_corpus.items():
        a = body.arcs
        x = np.concatenate([a.start, a.end, a.point_at(0.5 * (a.t0 + a.t1))])
        assert close(max_distance_to_piece(x, a), oracles.max_distance_to_piece_arccos(x, a)), name
        d, p, q = farthest(body)
        assert close(d, oracles.farthest_pair_arccos(body, body)), name
        assert np.all(boundary_distance_many(body, np.array([p, q])) <= 4e-16), name
        assert abs(acos_clamped_np(p @ q) - d) <= 4e-16, name
        k = oracles.boundary_samples(body, 16)
        far = acos_clamped_np(bd.boundary_min_dot_many(body, k))
        assert close(far, oracles.max_distance_to_piece_arccos(k, a).max(axis=1)), name


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
        assert farthest(dual)[0] == least_of_all_ends(dual)
        assert rows == [len(dual.arcs)]
    a = dual.arcs
    end = a.end.copy()
    end[4] = unit(end[4] + 1e-13 * E3)
    chain = bd.chain_body(great_arc_stack(a.start, end))
    rows.clear()
    assert farthest(chain)[0] == least_of_all_ends(chain)
    assert rows == [len(a) + 1]


def test_farthest_pair_of_a_cap_is_an_opposite_pair():
    # a full circle against itself: the start and the point opposite it
    for r in (0.3, PI / 4, 1.2):
        d, x, y = farthest(cap(unit([0.4, -1.0, 0.7]), r, 0.9))
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
        d, x, y = farthest(body)
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
        "tol", "width_min", "width_max", "passed", "body", "measured_diameter", "measured_thickness"
    ]
    # in closed form the residual is the body's own rho and nothing is
    # measured; off it, as the closed form switched off makes it, the
    # report keeps the diameter and thickness it measured, once each
    for poly in (body, random_selfdual_polytope(30, 1)):
        rep = is_constant_width(poly)
        assert closed_form(rep) and rep.measured_diameter is None
        assert rep.self_duality_residual == poly.residual_bound
        with monkeypatch.context() as m:
            calls = counted_calls(m, ("diameter", "thickness"))
            ref = exact(poly, 1e-6, m)
            assert ref.passed and ref.width_min == ref.thickness
            assert (ref.diameter, ref.thickness) == (ref.measured_diameter, ref.measured_thickness)
            assert {k: len(v) for k, v in calls.items()} == {"diameter": 1, "thickness": 1}
        assert ref.diameter == rep.diameter == diameter(poly)
        assert ref.thickness == rep.thickness == thickness(poly)


def test_the_exact_residual_is_the_diameter_formula(monkeypatch):
    # a body the closed form does not cover reports its exact distance to
    # its dual, max(0, diameter - pi/2, pi/2 - thickness), from the two
    # values of its own report, on every body of the width corpus: the
    # public ``self_duality_residual`` bit for bit
    reports = 0
    for body in width_corpus():
        rep = exact(body, 1e-6, monkeypatch)
        want = max(0.0, rep.diameter - PI / 2, PI / 2 - rep.thickness)
        assert rep.self_duality_residual == want == self_duality_residual(body), body
        reports += 1
    assert reports > 100
    # a cap of radius 1 lies 2 - pi/2 from its dual, one of radius pi/3 pi/6
    for r, want in ((1.0, 2.0 - PI / 2), (PI / 3, PI / 6)):
        rep = is_constant_width(cap(E3, r))
        assert not closed_form(rep)
        assert abs(rep.self_duality_residual - want) <= 1e-15
        assert abs(self_duality_residual(cap(E3, r)) - want) <= 1e-15


def closed_form(rep):
    """Whether the report took the closed form: it then keeps no measured thickness."""
    return rep.measured_thickness is None


def exact(body, tol, monkeypatch):
    """``is_constant_width`` with the closed form switched off: the exact report alone.

    A property on the class outranks the value a body keeps from an earlier
    read, so a body gated before takes the exact report too."""
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


def width_corpus():
    """The acceptance corpus, each of its polytopes of 5+ vertices tampered three ways, the truncated octant
    and the curved self-dual and curved tampered corpora: 110 bodies."""
    from fixtures import acceptance_corpus, curved_selfdual_bodies, curved_tampered

    bodies = [body for _, body in acceptance_corpus().values()]
    polys = [b for b in bodies if isinstance(b, Polytope)]
    bodies += [truncated_octant(), *(t for p in polys if len(p) >= 5 for _, t in tampered(p))]
    return bodies + [*curved_selfdual_bodies().values(), *curved_tampered().values()]


TOLS = (0.0, 1e-9, 1e-6, 1e-5, 1e-2)


def pole_polygon(poles, per_edge):
    """``per_edge`` points of each great arc from a pole to the next, ends included, edge after edge."""
    s = np.linspace(0.0, 1.0, per_edge)[:, None, None]
    return unit_rows(((1.0 - s) * poles + s * np.roll(poles, -1, axis=0)).swapaxes(0, 1).reshape(-1, 3))


def sampled_widths(body):
    """Widths of the body at sampled poles K on its dual's boundary, none read through ``polar_dual``, each
    as an interval [lo, hi] that holds the exact width.

    hi is pi minus the farthest sampled point of the dual's boundary from
    K, so the width is at most hi, up to roundoff.  A polytope's dual is
    the polygon of its edge poles, ``unit_each(arcs.z)`` (a body of great
    arcs read as its ``Polytope``): K runs over 17 points of each of its
    edges, poles included, against 1025 points of each, at most h apart,
    in chord form.  Along an edge K . y = A cos(t - phi) with A <= 1, so the
    least K . y lies at most h^2 / 8 below the least sampled one, which
    gives lo.  A curved body's K are the finite-difference support poles of
    ``oracles.width_oracle``, exact for a circle by symmetry up to the
    roundoff of their short differences (about 1e-13); every boundary point
    of C* lies within g / 2 along the boundary of one of them, g the
    largest step between consecutive poles (with 1 % for a step's path
    over its chord), which gives lo.
    """
    if body.is_polytope():
        poles = unit_each(to_polytope(body).arcs.z)
        fine = pole_polygon(poles, 1025)
        h = float(oracles.chord_angle(fine[:-1], fine[1:]).max())
        k = pole_polygon(poles, 17)
        far = np.concatenate([oracles.chord_angle(x[:, None], fine).max(axis=1) for x in np.array_split(k, len(poles))])
        return PI - acos_clamped_np(np.maximum(-1.0, np.cos(far) - h * h / 8.0)), PI - far
    poles = oracles.polyline_support_poles(body, per_piece=400)
    hi = oracles.width_oracle(body, poles[:: max(1, len(poles) // 200)], per_piece=400)
    g = 1.01 * float(oracles.chord_angle(poles, np.roll(poles, -1, axis=0)).max())
    return hi - 0.5 * g - 1e-12, hi + 1e-12


def test_off_the_closed_form_the_report_is_exact(monkeypatch):
    # with the closed form off, on every body of the width corpus at every
    # tol, the least width is the thickness and the largest pi/2 plus the
    # exact distance to the dual (or the thickness, an ulp above that on a
    # few self-dual bodies), bit for bit; every width sampled without
    # ``polar_dual`` lies in that range, up to the sampling's error
    polytopes = 0
    for body in width_corpus():
        want_min = thickness(body)
        want_max = max(PI / 2 + self_duality_residual(body), want_min)
        for tol in TOLS:
            rep = exact(body, tol, monkeypatch)
            assert (rep.width_min, rep.width_max) == (want_min, want_max), (body, tol)
        lo, hi = sampled_widths(body)
        assert hi.min() >= want_min - 1e-14, (body, hi.min() - want_min)
        assert lo.max() <= want_max + 1e-14, (body, lo.max() - want_max)
        polytopes += isinstance(body, Polytope)
    assert polytopes > 50


def test_closed_form_verdict_equals_the_exact_report(monkeypatch):
    # the closed form answers only when 2 rho <= tol, where the exact
    # widths lie within rho of pi/2 and pass too; everything else takes
    # the exact report, so ``passed`` never changes
    closed = curved = exact_fails = 0
    for body in width_corpus():
        for tol in TOLS:
            rep = is_constant_width(body, tol=tol)
            ref = exact(body, tol, monkeypatch)
            assert rep.passed == ref.passed, (body, tol)
            closed += closed_form(rep)
            curved += closed_form(rep) and not body.is_polytope()
            exact_fails += not ref.passed
            if closed_form(rep):
                rho = body.residual_bound
                assert (rep.width_min, rep.width_max) == (PI / 2 - rho, PI / 2 + rho)
                assert rep.self_duality_residual == rho
                assert ref.width_min >= rep.width_min - 1e-15 and ref.width_max <= rep.width_max + 1e-15
                if not body.is_polytope():  # measured when read, as the exact report measures it
                    assert rep.thickness == ref.thickness
            else:
                assert (rep.width_min, rep.width_max, rep.thickness) == (ref.width_min, ref.width_max, ref.thickness)
    assert closed > 200 and curved > 80 and exact_fails > 40


def test_pairing_bound_covers_the_residual_and_the_exact_widths(monkeypatch):
    # rho is a proved upper end of H(C, C*), which ``hausdorff`` measures
    # exactly; the exact report's widths lie within rho of pi/2
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
        h = max(h, hausdorff(body, dual))
        ref = exact(body, 1e-6, monkeypatch)
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
    # order 1, and the body takes the exact report
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
    calls = counted_calls(monkeypatch, EXACT_WORK)
    reports = [is_constant_width(body) for body in bodies]
    assert all(rep.passed and closed_form(rep) for rep in reports)
    assert {k: len(v) for k, v in calls.items()} == dict.fromkeys(calls, 0)
    # thickness and diameter are measured when read, as the exact report measures them
    rep, body = reports[0], bodies[0]
    assert rep.thickness == PI - farthest(polar_dual(body))[0]
    assert rep.diameter == farthest(body)[0]


def test_tampered_polytopes_take_the_exact_report(monkeypatch, cap_polytopes):
    poly = cap_polytopes[1][1]
    for name, bad in tampered(poly):
        assert validate_polytope(bad).ok, name
        rep = is_constant_width(bad, tol=1e-6)
        ref = exact(bad, 1e-6, monkeypatch)
        # each quantity from its one source: the body's thickness and
        # diameter, and the residual formula on both
        assert not closed_form(rep), name
        assert rep.passed == ref.passed
        assert (rep.width_min, rep.width_max, rep.thickness) == (ref.width_min, ref.width_max, ref.thickness)
        assert rep.width_min == rep.thickness == thickness(bad), name
        assert rep.diameter == ref.diameter == diameter(bad)
        assert rep.self_duality_residual == max(0.0, rep.diameter - PI / 2, PI / 2 - rep.thickness), name
        assert rep.width_max == PI / 2 + rep.self_duality_residual, name
    # the deleted vertex fails; the even count, its new vertex 1e-8 off an
    # edge, passes although rho is large; so does the moved vertex, whose
    # exact residual is within tol (``certify`` rejects it by rho)
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


# What the exact report measures and the closed form does not: none runs in a closed-form report.
EXACT_WORK = ("farthest_pair", "polar_dual", "thickness", "min_dot_to_piece", "hausdorff")


def test_selfdual_polytope_report_sweeps_nothing(monkeypatch):
    polys = selfdual_polytopes()
    fresh = [Polytope(polys[k].vertices.copy()) for k in ("octant", "cap-1", "random-30-2")]
    calls = counted_calls(monkeypatch, EXACT_WORK + ("validate",))
    reports = [is_constant_width(poly) for poly in fresh]
    assert {k: len(calls[k]) for k in EXACT_WORK} == dict.fromkeys(EXACT_WORK, 0)
    assert calls["validate"] == fresh
    for poly, rep in zip(fresh, reports):
        assert rep.passed and closed_form(rep)
        rho = selfdual_residual_bound(poly)
        assert rep.self_duality_residual == rho
        assert rep.width_min <= rep.thickness <= rep.width_max
        assert rep.diameter == pytest.approx(PI / 2, abs=1e-12)


def test_metrics_verb_sweeps_nothing_on_polytope_files(monkeypatch, tmp_path, capsys):
    from spherewidth import cli
    from spherewidth.cli import main
    from spherewidth.formats import dumps_body

    poly = selfdual_polytopes()["cap-2"]
    files = {"poly": poly, "dual": polar_dual(poly)}
    for name, b in files.items():
        (tmp_path / name).write_text(dumps_body(b))
    calls = counted_calls(monkeypatch, EXACT_WORK + ("validate",))
    reports = []

    def recorded(body, **kwargs):
        reports.append(is_constant_width(body, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "is_constant_width", recorded)
    for name in files:
        assert main(["metrics", str(tmp_path / name)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["width_min"] <= rec["thickness"] <= rec["width_max"]
        assert rec["self_duality_residual"] <= 1e-12
    # each report takes the closed form; the verb prints the thickness, which
    # it then measures on the body's poles
    assert len(reports) == 2 and all(closed_form(rep) for rep in reports)
    assert len(calls.pop("thickness")) == 2
    validated = calls.pop("validate")
    assert {k: len(v) for k, v in calls.items()} == dict.fromkeys(calls, 0)
    # the polytope and its dual, a polytope file too, are one body each,
    # each validated once
    assert len(validated) == 2 and len({id(b) for b in validated}) == 2


def test_polytope_gate_and_seed_check_run_no_ascent(monkeypatch):
    # the approximation gate on a polytope input and the completion's
    # sub-duality check of its seed both take the closed form, so no
    # thickness is measured: the farthest-pair kernel measures only the
    # certificate's Hausdorff fallback, one call a direction (a polytope
    # input has no arc run for the pairing walk), and the duals the
    # completion grows into
    poly = selfdual_polytopes()["random-30-1"]
    seed = random_subdual_polytope_seed(30, 4)
    calls = counted_calls(monkeypatch, EXACT_WORK)
    out, cert, steps = approximate_polytope(poly, ApproximationConfig(0.01))
    assert len(steps) == 0 and np.array_equal(out.vertices, poly.vertices)
    assert calls["hausdorff"] == [poly] and calls["farthest_pair"] == [poly, out]
    calls["farthest_pair"].clear()
    complete_selfdual(seed, tol=1e-7)
    assert len(calls["farthest_pair"]) == 1 and calls["farthest_pair"][0] is not seed
    assert calls["thickness"] == []


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
    # a cap against its 51-vertex polytope
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
    # caps 1 and 2 of seed 11 and a cap between them lie less than pi/2
    # apart; cap 0 holds points pi/2 or more from caps 1 and 2 (the old
    # refinement read 1.651 and 1.983), so those pairs raise in either order
    rng = np.random.default_rng(11)
    bodies = [
        cap(unit(rng.normal(size=3)), rng.uniform(0.4, 1.0)) for _ in range(3)
    ]
    mid = cap(unit(bodies[1].pieces[0].center + bodies[2].pieces[0].center), 0.6)
    h12 = hausdorff(bodies[1], bodies[2])
    assert h12 == hausdorff(bodies[2], bodies[1])
    assert h12 <= hausdorff(bodies[1], mid) + hausdorff(mid, bodies[2]) + 1e-12
    for other in bodies[1:]:
        for a, b in ((bodies[0], other), (other, bodies[0])):
            with pytest.raises(FarPair):
                hausdorff(a, b)


@pytest.fixture(scope="module")
def hausdorff_corpus():
    """(name, a, b) pairs: the acceptance, curved and tampered corpora against their duals, rotated caps
    against their eps = 0.01 and 0.002 polytopes, and rounded Reuleaux bodies against their eps = 0.01
    polytopes.  ``trimmed-1e-6`` is left out: its dual's dual fails validation on closure."""
    from fixtures import acceptance_corpus, curved_bodies, curved_tampered

    bodies = {"acceptance-%d" % s: b for s, (_, b) in acceptance_corpus().items()}
    bodies.update(curved_bodies())
    bodies.update({"tampered-" + k: b for k, b in curved_tampered().items() if k != "trimmed-1e-6"})
    pairs = [(name, b, polar_dual(b)) for name, b in bodies.items()]
    for seed in (1, 2, 3):
        c = rotated(cap(E3, PI / 4), rotation_from_seed(seed))
        pairs += [("cap-%d-%g" % (seed, eps), c, approximate_polytope(c, ApproximationConfig(eps))[0]) for eps in (0.01, 0.002)]
    for k, delta in ((3, 0.05), (5, 0.15), (9, 0.2)):
        body = rounded_reuleaux(k, delta)
        pairs.append(("reuleaux-%d-%g" % (k, delta), body, approximate_polytope(body, ApproximationConfig(0.01))[0]))
    return pairs


@pytest.fixture(scope="module")
def chord_samples(hausdorff_corpus):
    """(name, hausdorff, sampled sup, polished sup) for each corpus pair; the sups are the larger direction's."""
    rows = []
    for name, a, b in hausdorff_corpus:
        (s1, p1), (s2, p2) = oracles.directed_chord_oracle(a, b), oracles.directed_chord_oracle(b, a)
        rows.append((name, hausdorff(a, b), max(s1, s2), max(p1, p2)))
    return rows


def test_hausdorff_bounds_the_chord_samples(chord_samples):
    # never below a chord-form sample of either boundary: every sampled
    # point's distance to the other body is a lower bound of the value
    for name, h, sampled, _ in chord_samples:
        assert h >= sampled - 1e-14, (name, h, sampled)


def test_hausdorff_matches_dense_chord_sampling(chord_samples):
    # within 1e-12 of the sampled maximum polished by a golden-section
    # search; the moved corner lies 7.0711e-8 from its dual, where the old
    # refinement's arccos distances read 7.146e-8, and the trimmed body's
    # dual has no valid dual
    from fixtures import curved_tampered

    for name, h, _, polished in chord_samples:
        assert abs(h - polished) <= 1e-12, (name, h, polished)
    assert sum(h > 1e-9 for _, h, _, _ in chord_samples) >= 15
    moved = curved_tampered()["corner-moved-1e-7"]
    assert hausdorff(moved, polar_dual(moved)) == pytest.approx(7.0711e-8, abs=1e-12)
    trimmed = curved_tampered()["trimmed-1e-6"]
    with pytest.raises(InvalidBody):
        hausdorff(trimmed, polar_dual(trimmed))


@pytest.fixture(scope="module")
def kernel_pairs(hausdorff_corpus):
    """What ``hausdorff`` hands the kernel for each corpus pair, each body against the other's dual, and
    those pairs in the other order."""
    pairs = [(x, polar_dual(y)) for _, a, b in hausdorff_corpus for x, y in ((a, b), (b, a))]
    return pairs + [(b, a) for a, b in pairs]


def test_two_body_kernel_matches_the_unpruned_reference(kernel_pairs):
    # the kernel's largest distance is the unpruned reference's to 4e-16,
    # or to one ulp above 2
    for a, b in kernel_pairs:
        got, ref = float(acos_clamped_np(metrics.farthest_pair(a, b)[0])), oracles.farthest_pair_arccos(a, b)
        assert abs(got - ref) <= max(4e-16, float(np.spacing(ref))), (got, ref)


def test_two_body_kernel_blocks_match_one_block(monkeypatch, kernel_pairs):
    # blocks of a few rows move the least dot by roundoff alone (BLAS
    # rounds a dot of another block shape differently), and the pair read
    # off the winning block attains it
    full = [metrics.farthest_pair(a, b)[0] for a, b in kernel_pairs]
    monkeypatch.setattr(bd, "BLOCK_ELEMENTS", 7)
    for (a, b), c in zip(kernel_pairs, full):
        c2, x2, y2 = metrics.farthest_pair(a, b)
        assert abs(c2 - c) <= 4.5e-16 and abs(float(x2 @ y2) - c2) <= 4.5e-16


def test_midpoint_prune_drops_only_pairs_its_bound_puts_below_the_ends(monkeypatch, kernel_pairs):
    # sampled at 33 points an arc, every arc pair lies within its midpoint
    # bound, and every pair the kernel drops (it hands the kept ones to
    # _antipodal_pairs) lies within the ends' best
    kept = []
    antipodal = metrics._antipodal_pairs
    monkeypatch.setattr(metrics, "_antipodal_pairs", lambda p, i, q, j: kept.append((i, j)) or antipodal(p, i, q, j))
    dropped = 0
    for a, b in kernel_pairs:
        kept.clear()
        metrics.farthest_pair(a, b)
        p, q = a.arcs, b.arcs
        drop = np.ones((len(p), len(q)), dtype=bool)
        drop[kept[0]] = False
        ends = min(metrics._end_pairs(metrics._chain_points(p), q)[0], metrics._end_pairs(metrics._chain_points(q), p)[0])
        best = float(acos_clamped_np(ends))
        mid = p.point_at(0.5 * (p.t0 + p.t1))
        bound = acos_clamped_np(min_dot_to_piece(mid, q)) + 0.5 * (p.span * p.sin_r)[:, None]
        xs, ys = p.point_at(np.linspace(p.t0, p.t1, 33)), q.point_at(np.linspace(q.t0, q.t1, 33))
        for i in range(len(p)):
            far = acos_clamped_np(np.einsum("ka,lja->klj", xs[:, i], ys).min(axis=(0, 1)))  # one per arc of q
            assert (far <= bound[i] + 1e-12).all(), (i, float((far - bound[i]).max()))
            assert (far[drop[i]] <= best + 1e-12).all(), (i, float(far[drop[i]].max()), best)
        dropped += int(drop.sum())
    assert dropped > 0


def test_hausdorff_without_the_midpoint_prune_changes_no_bit(monkeypatch, hausdorff_corpus):
    # every midpoint bound read as infinite keeps every arc pair: each
    # value is the pruned kernel's bit for bit
    pruned = [hausdorff(a, b) for _, a, b in hausdorff_corpus]
    acos = metrics.acos_clamped_np
    monkeypatch.setattr(metrics, "acos_clamped_np", lambda c: np.full(np.shape(c), np.inf) if np.ndim(c) else acos(c))
    assert [hausdorff(a, b) for _, a, b in hausdorff_corpus] == pruned


def test_hausdorff_is_one_kernel_call_a_direction(monkeypatch, cap_polytopes):
    # the cap against its 51-vertex polytope: each direction is one
    # farthest pair against the other body's dual and one row for each of
    # the two far checks that reach a membership query
    c, polys = cap_polytopes
    calls = counted_calls(monkeypatch, ("farthest_pair", "body_distance_many", "contains_many", "polar_dual"))
    h = hausdorff(c, polys[1])
    assert 0.0 < h <= 0.004
    assert {k: len(v) for k, v in calls.items()} == {
        "farthest_pair": 2, "body_distance_many": 2, "contains_many": 2, "polar_dual": 2
    }
    assert calls["farthest_pair"] == [c, polys[1]] and calls["polar_dual"] == [polys[1], c]


@pytest.mark.parametrize("inner", [cap(E3, 0.6), cap(unit([0.0, 0.1, 1.0]), 0.5)])
def test_sup_distance_of_a_body_inside_another_is_zero_at_once(inner):
    # every point of the inner cap is inside the outer one, so every x . K
    # is positive and the directed distance is 0 exactly; the other
    # direction is the outer cap's reach beyond the inner one
    outer = cap(E3, PI / 4)
    assert boundary_sup_distance(inner, outer) == 0.0
    assert boundary_sup_distance(outer, inner) == pytest.approx(
        PI / 4 - inner.pieces[0].radius + math.acos(float(inner.pieces[0].center @ E3)), abs=1e-12
    )


S, N = -E3, E3
# (a, b, check): octant pairs with antipodal boundary points, where the old
# refinement read 1.988; a cap inside -b*, every point pi/2 or more from b;
# and a cap holding -b* inside it (the old refinement read 1.34 from the
# boundaries, while S lies pi - 0.5 from the other cap)
FAR_PAIRS = [
    (octant(), rotated(octant(), rotation_from_seed(3)), "(a)"),
    (cap(S, 0.5), cap(N, 0.1), "(b)"),
    (cap(S, 1.3), cap(N, 0.5), "(c)"),
]


@pytest.mark.parametrize("a, b, check", FAR_PAIRS, ids=["antipodal", "outside", "inside"])
def test_far_pairs_raise_the_typed_error(a, b, check):
    # each far check is what refuses its pair, in both orders, and a far
    # pair never returns a number
    for x, y in ((a, b), (b, a)):
        with pytest.raises(FarPair) as err:
            hausdorff(x, y)
        assert str(err.value).startswith(check)
    with pytest.raises(FarPair) as err:
        boundary_sup_distance(a, b)
    assert str(err.value).startswith(check)


def test_near_flat_bodies_take_the_closed_form():
    # near-flat plateaus, which grew the old refinement's tables past their
    # row bound or stalled it at its level limit: the moved corner of the
    # two-cut cap and the frame that turns a quarter between two pieces of
    # one circle; their distance to their dual is the residual formula
    from fixtures import frame_jump_cap, two_cut_cap

    for body, rho in ((two_cut_cap(1e-7), 5.1e-7), (frame_jump_cap(), 1e-15)):
        dual = polar_dual(body)
        h = hausdorff(body, dual)
        assert abs(h - self_duality_residual(body)) <= 1e-15
        assert h <= rho
    assert is_constant_width(frame_jump_cap()).self_duality_residual <= 1e-15


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

import hashlib
import math
from dataclasses import fields
from functools import cached_property

import numpy as np
import oracles
import pytest
from fixtures import chopped_cap, two_arc_completion, two_arc_seed

from spherewidth import body as bd
from spherewidth import generators
from spherewidth.body import (
    Polytope,
    body_distance_many,
    polar_dual,
    to_polytope,
    validate,
    validate_polytope,
)
from spherewidth.errors import BadRadius, SeedNotSubdual
from spherewidth.generators import (
    cap,
    complete_selfdual,
    convex_hull_with_point,
    octant,
    random_selfdual_polytope,
    rotated,
    rotation_from_seed,
    rounded_reuleaux,
)
from spherewidth.metrics import (
    diameter,
    is_constant_width,
    self_duality_residual,
    thickness,
)
from spherewidth.formats import dumps_body
from spherewidth.sphere import (
    TWO_PI,
    ArcStack,
    SmallCircleArc,
    sample_piece,
    unit,
)

E1, E2, E3 = np.eye(3)
PI = math.pi


# ------------------------------------------------------------------ fixtures


def test_octant_properties():
    p = octant()
    assert validate_polytope(p).ok
    assert self_duality_residual(p) < 1e-10
    assert thickness(p) == pytest.approx(PI / 2, abs=1e-12)
    assert diameter(p) == pytest.approx(PI / 2, abs=1e-12)


def test_cap_selfdual_and_thickness():
    assert self_duality_residual(cap(E3, PI / 4)) < 1e-10
    assert thickness(cap(E3, PI / 6)) == pytest.approx(PI / 3, abs=1e-9)


def test_cap_validates_random_centers():
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = cap(unit(rng.normal(size=3)), rng.uniform(0.1, 1.4))
        assert validate(c).ok


def test_cap_bad_radius():
    with pytest.raises(BadRadius):
        cap(E3, 0.0)
    with pytest.raises(BadRadius):
        cap(E3, PI / 2)


def test_rotation_is_orthogonal_and_deterministic():
    r1 = rotation_from_seed(9)
    r2 = rotation_from_seed(9)
    assert np.array_equal(r1, r2)
    assert np.allclose(r1 @ r1.T, np.eye(3), atol=1e-14)
    assert np.linalg.det(r1) == pytest.approx(1.0, abs=1e-12)


def test_rotated_cap_keeps_geometry():
    rot = rotation_from_seed(4)
    c = rotated(cap(E3, 0.6), rot)
    assert validate(c).ok
    assert thickness(c) == pytest.approx(1.2, abs=1e-9)


# ---------------------------------------------------------------- completion


def test_completion_fixed_point_on_selfdual_cap():
    b = cap(E3, PI / 4)
    out = complete_selfdual(b, tol=1e-6)
    assert len(out.pieces) == 1
    assert self_duality_residual(out) < 1e-9


def test_completion_of_thin_polytope():
    seed = Polytope(np.array([E1, E2, unit(E1 + E2 + 0.4 * E3)]))
    out = complete_selfdual(seed, tol=1e-6)
    assert out.is_polytope()
    assert self_duality_residual(out) <= 1e-6
    rep = is_constant_width(out, tol=1e-5)
    assert rep.passed
    assert thickness(out) == pytest.approx(PI / 2, abs=1e-6)
    assert diameter(out) == pytest.approx(PI / 2, abs=1e-6)


def test_completion_of_shallow_cap_piece_radii():
    r = 0.7
    out = two_arc_completion(r)
    assert self_duality_residual(out) <= 1e-6
    radii = {p.radius for p in out.pieces if isinstance(p, SmallCircleArc)}
    # the seed's two arcs survive with their radii, and no other circle appears
    assert radii == {r, PI / 2 - r}


def test_completion_invariants_per_iteration():
    # replay the greedy loop, checking the growing body stays inside its
    # dual and the residual never increases
    body = cap(E3, 0.7)
    last = np.inf
    for _ in range(40):
        dual = polar_dual(body)
        pts = np.vstack([sample_piece(p, 300) for p in dual.pieces])
        gaps = body_distance_many(body, pts)
        i = int(np.argmax(gaps))
        residual = float(gaps[i])
        assert residual <= last + 1e-9
        last = residual
        # sub-duality: the diameter never exceeds pi/2
        assert diameter(body) <= PI / 2 + 1e-9
        if residual <= 1e-9:
            break
        body = convex_hull_with_point(body, pts[i])
        assert validate(body).ok
    assert last <= 1e-9


# ------------------------------------------------------------ hull insertion


def random_polygon(rng):
    """A convex polygon of 3 to 12 vertices on a random small circle, counterclockwise."""
    n = int(rng.integers(3, 13))
    gaps = rng.uniform(0.2, 1.0, size=n)
    az = np.cumsum(TWO_PI * gaps / gaps.sum())
    ring = SmallCircleArc(unit(rng.normal(size=3)), rng.uniform(0.2, 0.7), 0.0, TWO_PI)
    return Polytope(ring.point_at(az)), ring


def assert_hull_matches_the_piece_loop(poly, x):
    """The polygon hull of ``poly`` and ``x`` against the stacked hull of its chain of great arcs."""
    got = convex_hull_with_point(poly, x)
    want = to_polytope(generators._arc_hull(bd.chain_body(poly.arcs), unit(x)))
    assert isinstance(got, Polytope)
    assert len(got) == len(want)
    assert np.abs(got.vertices - want.vertices).max() <= 1e-14
    return got


def test_polygon_hull_matches_the_piece_loop():
    rng = np.random.default_rng(7)
    for _ in range(200):
        poly, ring = random_polygon(rng)
        d = rng.uniform(0.01, 0.6)
        x = SmallCircleArc(ring.center, ring.radius + d, 0.0, TWO_PI).point_at(rng.uniform(0.0, TWO_PI))[0]
        assert_hull_matches_the_piece_loop(poly, x)
    # the completions' own insertions, into their sub-dual seeds
    for s in (1, 2, 3):
        seed = generators.random_subdual_polytope_seed(30, s)
        dual = polar_dual(seed)
        pts = oracles.boundary_samples(dual)
        x = pts[int(np.argmax(body_distance_many(seed, pts)))]
        assert_hull_matches_the_piece_loop(seed, x)


def test_polygon_hull_drops_a_flat_junction():
    # x on the great circle of edge i, past one of its ends: that end is no
    # longer a vertex, whether roundoff shows x the edge or not
    rng = np.random.default_rng(3)
    for _ in range(100):
        poly, _ = random_polygon(rng)
        i = int(rng.integers(len(poly)))
        edge = poly.pieces[i]
        past_end = bool(rng.integers(2))
        step = rng.uniform(0.05, 0.3)
        x = edge.point_at(edge.t1 + step if past_end else edge.t0 - step)[0]
        got = assert_hull_matches_the_piece_loop(poly, x)
        assert len(got) <= len(poly)
        end = poly.vertices[(i + past_end) % len(poly)]
        assert np.linalg.norm(got.vertices - end, axis=1).min() > 1e-6


def test_polygon_hull_of_an_inner_point_is_the_input():
    rng = np.random.default_rng(4)
    for _ in range(20):
        poly, _ = random_polygon(rng)
        for x in (poly.interior, unit(poly.interior + poly.vertices[0])):
            assert convex_hull_with_point(poly, x) is poly


def test_polygon_hull_refuses_a_point_that_sees_the_whole_boundary():
    poly, _ = random_polygon(np.random.default_rng(5))
    for body in (poly, bd.chain_body(poly.arcs)):
        for hull in (convex_hull_with_point, generators._arc_hull):
            with pytest.raises(ValueError, match="whole boundary"):
                hull(body, -poly.interior)


@pytest.fixture(scope="module")
def curved():
    from fixtures import curved_bodies

    return curved_bodies()


def assert_same_stack(got, want):
    assert len(got) == len(want)
    for f in fields(ArcStack):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


def test_stacked_hull_matches_the_per_piece_reference(curved):
    # at random exterior points of every curved body: the same error, the
    # body itself, or the same chain bit for bit
    rng = np.random.default_rng(11)
    kinds = {"hull": 0, "refused": 0}
    for body in curved.values():
        pts = rng.normal(size=(60, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        for x in pts[body_distance_many(body, pts) > 1e-6][:12]:
            try:
                want = oracles.hull_per_piece(body, unit(x))
            except ValueError as exc:
                with pytest.raises(ValueError) as refused:
                    convex_hull_with_point(body, x)
                assert str(refused.value) == str(exc)
                kinds["refused"] += 1
                continue
            got = convex_hull_with_point(body, x)
            assert want is not body
            assert_same_stack(got.arcs, want.arcs)
            assert np.array_equal(got.interior, want.interior)
            assert validate(got).ok or not validate(body).ok
            kinds["hull"] += 1
    assert kinds["hull"] >= 150 and kinds["refused"] >= 10, kinds


def test_stacked_hull_merges_a_flat_junction(curved):
    # x on the circle of a great arc, past its end: the tangent arc from
    # that end continues the great arc, and the two become one
    merged = 0
    for name in ("mixed", "chopped-cap", "two-cut-cap"):
        body = curved[name]
        for i in np.flatnonzero(body.arcs.radius == 0.5 * PI):
            edge = body.pieces[i]
            x = edge.point_at(edge.t1 + 0.1)[0]
            got, want = convex_hull_with_point(body, x), oracles.hull_per_piece(body, unit(x))
            assert_same_stack(got.arcs, want.arcs)
            assert validate(got).ok
            # the end of the great arc is no longer a junction
            assert np.linalg.norm(got.arcs.start - edge.end, axis=1).min() > 1e-6
            merged += 1
    assert merged >= 3


def test_stacked_hull_of_an_inner_point_is_the_body_and_of_an_all_seeing_point_refused(curved):
    for body in curved.values():
        assert convex_hull_with_point(body, body.interior) is body
    for r in (0.3, 0.6, 1.2):
        body = curved["cap-r%g" % r]
        for hull in (convex_hull_with_point, oracles.hull_per_piece):
            with pytest.raises(ValueError, match="whole boundary"):
                hull(body, -body.arcs.z[0])


def test_stacked_rotation_matches_the_per_piece_reference(curved):
    bodies = list(curved.values())
    # the rotated caps of the cap-fine benchmark, and rotated rounded Reuleaux 9-gons
    bodies += [cap(E3, PI / 4), rounded_reuleaux(9, 0.2)]
    for s in range(1, 65):
        rot = rotation_from_seed(s)
        for body in bodies if s <= 2 else bodies[-2:]:
            got, want = rotated(body, rot), oracles.rotated_per_piece(body, rot)
            assert_same_stack(got.arcs, want.arcs)
            assert np.array_equal(got.interior, want.interior)
            # the lazy pieces are the rows: a rotated cap's centre is read from them
            assert np.array_equal(got.pieces[0].z, want.pieces[0].z)


# ---------------------------------------------------------------- stop rule


def test_polytope_completion_measures_nothing_twice(monkeypatch):
    # a polytope completion stops on its O(n) bound: no GreatArc pieces, one
    # validation of the seed and of the output, one rho of each body it
    # grows, the output's read again by the caller, and one farthest pair
    # of the dual of each body that does not stop
    calls = {"farthest_pair": 0, "pieces": 0}
    validated, measured = [], []
    pair, validate_body, rho = generators.farthest_pair, bd.validate, bd.selfdual_residual_bound
    make_pieces = bd.Polytope.pieces.func

    def pieces(body):
        calls["pieces"] += 1
        return make_pieces(body)

    def validate(body):
        validated.append(body)
        return validate_body(body)

    def counted_pair(a, b):
        calls["farthest_pair"] += 1
        return pair(a, b)

    def counted_rho(poly):
        measured.append(poly)  # the list keeps each body alive, so ids stay distinct
        return rho(poly)

    prop = cached_property(pieces)
    prop.__set_name__(bd.Polytope, "pieces")
    monkeypatch.setattr(bd.Polytope, "pieces", prop)
    monkeypatch.setattr(bd, "validate", validate)
    monkeypatch.setattr(generators, "farthest_pair", counted_pair)
    monkeypatch.setattr(bd, "selfdual_residual_bound", counted_rho)
    for s in (1, 2, 3, 4):
        validated.clear()
        measured.clear()
        calls["farthest_pair"] = 0
        poly = random_selfdual_polytope(30, s)
        assert calls == {"farthest_pair": len(measured) - 1, "pieces": 0}
        assert len(validated) == 2 and validated[-1] is poly
        assert all(isinstance(b, Polytope) for b in validated)
        assert len(measured) > 1 and measured[-1] is poly
        assert len({id(b) for b in measured}) == len(measured)


# ------------------------------------------------------- exact insertion


def completion_seeds():
    """(label, seed): random sub-dual polytope seeds, caps of radius 0.5-0.75, chopped caps,
    two-arc seeds and thin triangles."""
    for n in (4, 5, 7, 9, 12, 30, 60):
        for s in range(1, 9):
            yield (n, s), generators.random_subdual_polytope_seed(n, s)
    for i, r in enumerate(np.linspace(0.5, 0.75, 6)):
        yield ("cap", r), cap(unit([1.0, 2.0 - i, 3.0]), r, 0.7 * i)
        yield ("chopped", r), chopped_cap(0.4 + 0.3 * i, [1.0, 2.0 - i, 3.0], r, 0.9 * i)
    yield "chopped", chopped_cap()
    for r in (0.3, 0.5, 0.7):
        yield ("two-arc", r), two_arc_seed(r)
    for c in (0.4, 0.05):
        yield ("thin", c), Polytope(np.array([E1, E2, unit(E1 + E2 + c * E3)]))


def test_random_selfdual_polytope_pool_is_pinned_bytewise():
    # the random-polytope benchmark's inputs, seeds 1-64, as files: a faster
    # completion or seed must give the same polytopes, byte for byte
    h = hashlib.sha256()
    for s in range(1, 65):
        h.update(dumps_body(random_selfdual_polytope(30, s)).encode())
    assert h.hexdigest() == "367cacbb5c182a55887e4446538e3cd78a01e98c65189d6d761fcd718d6b1cd9"


def test_completion_inserts_an_end_of_the_duals_diameter(monkeypatch):
    # every round inserts a point of the dual whose distance to the body is
    # the dual's diameter less pi/2: the largest distance of any dual point
    rounds = []
    pair, hull = generators.farthest_pair, generators.convex_hull_with_point

    def recorded_pair(a, b):
        assert a is b
        rounds.append(pair(a, b))
        return rounds[-1]

    def recorded_hull(body, x):
        c, p, q = rounds[-1]
        gap = float(body_distance_many(body, np.asarray(x)[None])[0])
        assert any(np.array_equal(x, e) for e in (p, q))
        assert abs(gap - math.asin(-c)) <= 1e-12, (gap, math.asin(-c))
        inserted.append(gap)
        return hull(body, x)

    monkeypatch.setattr(generators, "farthest_pair", recorded_pair)
    monkeypatch.setattr(generators, "convex_hull_with_point", recorded_hull)
    inserted = []
    for label, seed in completion_seeds():
        rounds.clear()
        out = complete_selfdual(seed, tol=1e-7)
        # the last pair measured is the stop's, or rho stopped the body
        assert len(rounds) in (len(inserted), len(inserted) + 1), label
        assert out.residual_bound is not None and out.residual_bound <= 0.9e-7, label
        inserted.clear()


def test_completion_draws_no_random_numbers(monkeypatch):
    seeds = list(completion_seeds())
    want = [complete_selfdual(seed, tol=1e-7) for _, seed in seeds]

    def refused(*args, **kwargs):
        raise AssertionError("the completion drew a random number")

    monkeypatch.setattr(np.random, "default_rng", refused)
    for (label, seed), w in zip(seeds, want):
        got = complete_selfdual(seed, tol=1e-7)
        assert dumps_body(got) == dumps_body(w), label


def test_completions_are_selfdual_to_roundoff():
    # rho, the proved bound on H(C, C*), within 1e-12 on the benchmark pool
    # of random polytopes and on curved completions
    for s in range(1, 65):
        assert random_selfdual_polytope(30, s).residual_bound <= 1e-12, s
    seeds = [cap(unit([0.3, -0.2, 1.0]), r) for r in np.linspace(0.5, 0.75, 11)] + [chopped_cap()]
    for seed in seeds:
        out = complete_selfdual(seed, tol=1e-7)
        assert out.residual_bound <= 1e-12, seed


def test_turned_cap_completions_are_congruent():
    # the completion of a cap is unique up to a turn about its centre: the
    # circle's start azimuth moves every insertion with it
    for r in (0.5, 0.6, 0.7, 0.75):
        bodies = [complete_selfdual(cap(unit([0.3, -0.2, 1.0]), r, az), tol=1e-7) for az in np.linspace(0.0, 6.0, 7)]
        lengths = [np.sort(b.arcs.span * b.arcs.sin_r) for b in bodies]
        assert len({len(x) for x in lengths}) == 1, r
        assert max(float(np.abs(x - lengths[0]).max()) for x in lengths) <= 1e-12, r


def test_completion_rejects_superdual_seed():
    with pytest.raises(SeedNotSubdual):
        complete_selfdual(cap(E3, PI / 3), tol=1e-3)


def test_completion_produces_mixed_body_from_chopped_cap():
    seed = chopped_cap()
    assert validate(seed).ok
    out = complete_selfdual(seed, tol=1e-7)
    assert self_duality_residual(out) <= 1e-7
    kinds = {type(p).__name__ for p in out.pieces}
    assert kinds == {"GreatArc", "SmallCircleArc"}
    radii = {round(p.radius, 9) for p in out.pieces if isinstance(p, SmallCircleArc)}
    assert radii == {round(PI / 4, 9)}  # r and pi/2 - r coincide at pi/4


@pytest.mark.parametrize(
    "k,delta",
    [(3, 0.1), (3, 0.3), (5, 0.15), (7, 0.05), (9, 0.2), (3, 0.78)]
    + [(3, 1e-3), (3, 1e-4), (3, 3e-5), (3, 1e-5)],
)
def test_rounded_reuleaux_has_constant_width_and_partner_arcs(k, delta):
    body = rounded_reuleaux(k, delta, unit([1.0, -2.0, 0.5]))
    assert validate(body).ok
    rep = is_constant_width(body, tol=1e-10)
    assert abs(rep.width_min - PI / 2) <= 1e-10 and abs(rep.width_max - PI / 2) <= 1e-10
    # corner arcs of radius delta alternate with sides of radius pi/2 - delta,
    # and every arc's partner (same centre, azimuths shifted by pi) is present
    pieces = body.pieces
    assert len(pieces) == 2 * k
    assert [p.radius for p in pieces] == pytest.approx([delta, PI / 2 - delta] * k, abs=1e-15)
    for p in pieces:
        partners = [
            q
            for q in pieces
            if np.linalg.norm(q.center - p.center) <= 1e-15
            and abs(q.radius + p.radius - PI / 2) <= 1e-15
            and abs(q.span - p.span) <= 1e-12
            and abs(math.remainder(q.az_from - p.az_from - PI, 2 * PI)) <= 1e-12
        ]
        assert len(partners) == 1


def test_rounded_reuleaux_stack_is_the_per_piece_build():
    # the 2k arcs come from one small_arc_stack, each pair of opposite-vertex
    # azimuths from one (2, 3) @ (3,) product, as the per-piece probe made them
    for k in (3, 5, 9, 27, 81):
        for delta in (0.05, 0.2):
            for center in ((0.0, 0.0, 1.0), (1.0, -2.0, 0.5)):
                got = rounded_reuleaux(k, delta, center)
                want = oracles.rounded_reuleaux_per_piece(k, delta, center)
                for f in fields(want.arcs):
                    assert getattr(got.arcs, f.name).tobytes() == getattr(want.arcs, f.name).tobytes(), (k, delta, f.name)
                assert got.interior.tobytes() == want.interior.tobytes()


def test_rounded_reuleaux_rejects_bad_parameters():
    with pytest.raises(ValueError):
        rounded_reuleaux(4, 0.1)
    for delta in (0.0, PI / 4):
        with pytest.raises(BadRadius):
            rounded_reuleaux(3, delta)


# ---------------------------------------------------------------- randomized


def test_random_polytope_n3_is_rotated_octant():
    p = random_selfdual_polytope(3, 11)
    assert len(p) == 3
    gram = p.vertices @ p.vertices.T
    assert np.allclose(gram, np.eye(3), atol=1e-12)
    assert self_duality_residual(p) <= 1e-6


def test_random_polytope_deterministic():
    a = random_selfdual_polytope(7, 42)
    b = random_selfdual_polytope(7, 42)
    assert np.array_equal(a.vertices, b.vertices)


# seeds per size: the random-polytope benchmark pool (n = 30, seeds 1-64)
# and odd sizes, whose seed caps are cut at other epsilons
RANDOM_SEEDS = {3: (1, 2, 3), 8: (1, 2, 3), 30: range(1, 65), 60: (1, 2, 3), 5: range(1, 9), 7: range(1, 9), 9: range(1, 9), 15: range(1, 9)}


@pytest.mark.parametrize("n", list(RANDOM_SEEDS))
def test_random_polytope_seed_needs_no_gate_or_certificate(n):
    # cutting the seed with the chord core on the cap circle's two half runs
    # gives the vertices of the gated and certified approximation of the
    # cap body, so the output is unchanged bit for bit
    for s in RANDOM_SEEDS[n]:
        got = random_selfdual_polytope(n, s).vertices
        assert np.array_equal(got, oracles.random_selfdual_polytope_reference(n, s).vertices)


@pytest.mark.parametrize("seed", [1, 2, 5, 9])
def test_random_polytope_constant_width(seed):
    p = random_selfdual_polytope(5 + seed % 4, seed)
    assert validate_polytope(p).ok
    rep = is_constant_width(p, tol=1e-5)
    assert rep.passed
    assert diameter(p) <= PI / 2 + 1e-9

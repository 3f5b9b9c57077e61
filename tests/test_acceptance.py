"""Acceptance suite: one test per top-level guarantee, at its stated tolerance.

Each criterion collects its violations, prints a single [PASS]/[FAIL] line,
and then asserts, so a verbose run always shows the full checklist.  The
corpus covers caps, rotated octants, completions and random self-dual
polytopes for seeds 1..50.
"""

import math
import time

import numpy as np
import pytest

import oracles
from fixtures import acceptance_corpus
from spherewidth.approx import (
    ApproximationConfig,
    approximate_polytope,
    cut_step,
    subdivide_piece,
)
from spherewidth.body import (
    Polytope,
    boundary_distance_many,
    diametral_partner,
    polar_dual,
    strictly_convex_arc_length,
    support_poles_at,
)
from spherewidth.errors import FarPair
from spherewidth.generators import (
    cap,
    octant,
    random_selfdual_polytope,
    rotated,
    rotation_from_seed,
)
from spherewidth.metrics import (
    diameter,
    hausdorff,
    is_constant_width,
    self_duality_residual,
    thickness,
)
from spherewidth.sphere import (
    GreatArc,
    arcs_intersect,
    geodesic_distance,
    lune_thickness,
    sample_piece,
    unit,
    unit_rows,
)

E3 = np.array([0.0, 0.0, 1.0])
PI = math.pi
EPSILONS = (0.2, 0.1, 0.05, 0.02)


def conclude(number, label, problems):
    status = "PASS" if not problems else "FAIL"
    print("[%s] criterion %d: %s" % (status, number, label))
    assert not problems, "; ".join(problems[:8])


def random_boundary_points(body, n, rng):
    lens = np.array([p.length for p in body.pieces])
    probs = lens / lens.sum()
    idx = rng.choice(len(body.pieces), size=n, p=probs)
    pts = []
    for i in idx:
        p = body.pieces[i]
        if isinstance(p, GreatArc):
            t = rng.uniform(0.0, p.length)
        else:
            t = rng.uniform(p.az_from, p.az_to)
        pts.append(p.point_at(t)[0])
    return np.vstack(pts)


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus()


@pytest.fixture(scope="module")
def approx_runs():
    runs = {}
    for eps in EPSILONS:
        body = cap(E3, PI / 4)
        t0 = time.monotonic()
        poly, cert, steps = approximate_polytope(body, ApproximationConfig(epsilon=eps))
        runs[eps] = (body, poly, cert, steps, time.monotonic() - t0)
    return runs


def test_criterion_01_end_to_end_approximation(approx_runs):
    problems = []
    for eps, (body, poly, cert, steps, elapsed) in approx_runs.items():
        if elapsed >= 10.0:
            problems.append("eps %g took %.2fs" % (eps, elapsed))
        if not isinstance(poly, Polytope):
            problems.append("eps %g output is not a polytope" % eps)
        measured = hausdorff(body, poly)
        if measured > 2 * eps:
            problems.append("eps %g: h = %.6g > %.6g" % (eps, measured, 2 * eps))
        rep = is_constant_width(poly, tol=1e-6)
        if not rep.passed:
            problems.append(
                "eps %g: width range [%.9f, %.9f]" % (eps, rep.width_min, rep.width_max)
            )
    conclude(1, "approximation terminates, h <= 2*eps, width pi/2", problems)


def test_criterion_02_selfdual_iff_constant_width(corpus):
    problems = []
    for s, (kind, body) in corpus.items():
        rep = is_constant_width(body, tol=1e-5)
        lhs = rep.self_duality_residual <= 1e-6
        rhs = abs(thickness(body) - PI / 2) <= 1e-5 and rep.spread <= 1e-5
        if lhs != rhs or not lhs:
            problems.append("seed %d (%s): lhs=%s rhs=%s" % (s, kind, lhs, rhs))
    for name, bad in (("cap(pi/6)", cap(E3, PI / 6)), ("cap(pi/3)", cap(E3, PI / 3))):
        rep = is_constant_width(bad, tol=1e-5)
        if rep.self_duality_residual <= 1e-6:
            problems.append("%s residual too small" % name)
        if abs(thickness(bad) - PI / 2) <= 1e-5:
            problems.append("%s thickness not rejected" % name)
    conclude(2, "residual <= 1e-6 iff width pi/2 on the 50-body corpus", problems)


def test_criterion_03_diameter_equals_thickness(corpus):
    problems = []
    for s, (kind, body) in corpus.items():
        d = diameter(body)
        t = thickness(body)
        if abs(d - t) > 1e-6:
            problems.append("seed %d (%s): diam %.9f thick %.9f" % (s, kind, d, t))
    conclude(3, "|diameter - thickness| <= 1e-6 on the corpus", problems)


def test_criterion_04_lune_formula():
    problems = []
    if lune_thickness(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])) != PI / 2:
        problems.append("orthogonal poles not exactly pi/2")
    rng = np.random.default_rng(4)
    a = unit_rows(rng.normal(size=(10_000, 3)))
    b = unit_rows(rng.normal(size=(10_000, 3)))
    keep = np.abs(np.sum(a * b, axis=1)) < 1.0 - 1e-9
    worst = max(
        abs(lune_thickness(p, q) + geodesic_distance(p, q) - PI)
        for p, q in zip(a[keep], b[keep])
    )
    if worst > 1e-10:
        problems.append("identity violated by %.3e" % worst)
    conclude(4, "lune thickness formula on 1e4 random pole pairs", problems)


def test_criterion_05_octant_triangle_pairs():
    rng = np.random.default_rng(5)
    w = rng.dirichlet([1.0, 1.0, 1.0], size=(10_000, 2))
    q1 = unit_rows(w[:, 0, :])
    q2 = unit_rows(w[:, 1, :])
    d = np.arccos(np.clip(np.sum(q1 * q2, axis=1), -1, 1))
    problems = [] if bool(np.all(d < PI / 2)) else ["max distance %.12f" % d.max()]
    conclude(5, "1e4 interior pairs stay strictly below pi/2", problems)


def test_criterion_06_diametral_chords_intersect(corpus):
    problems = []
    for s, (kind, body) in corpus.items():
        rng = np.random.default_rng(1000 + s)
        pts = random_boundary_points(body, 200, rng)
        for k in range(100):
            p1, p2 = pts[2 * k], pts[2 * k + 1]
            c1 = GreatArc(p1, diametral_partner(body, p1))
            c2 = GreatArc(p2, diametral_partner(body, p2))
            if not arcs_intersect(c1, c2):
                problems.append("seed %d (%s) pair %d" % (s, kind, k))
    conclude(6, "100 diametral chord pairs intersect per corpus body", problems)


def test_criterion_07_support_duality(corpus):
    problems = []
    for s, (kind, body) in corpus.items():
        dual = polar_dual(body)
        rng = np.random.default_rng(2000 + s)
        pts = random_boundary_points(body, 100, rng)
        poles = np.vstack(
            [support_poles_at(body, p).representative() for p in pts]
        )
        off = float(boundary_distance_many(dual, poles).max())
        if off > 1e-8:
            problems.append("seed %d (%s): pole %.2e off dual" % (s, kind, off))
        # reciprocal relation: H(P) supports the dual at the pole
        for p, k in zip(pts, poles):
            if abs(float(p @ k)) > 1e-8:
                problems.append("seed %d (%s): pole not orthogonal" % (s, kind))
                break
            min_dot = float(min(np.min(sample_piece(q, 64) @ p) for q in dual.pieces))
            if min_dot < -1e-8:
                problems.append("seed %d (%s): H(P) cuts the dual" % (s, kind))
                break
    conclude(7, "support poles land on the dual boundary, reciprocally", problems)


def test_criterion_08_per_step_invariants():
    problems = []
    for eps in EPSILONS:
        body = cap(E3, PI / 4)
        budget = eps
        total = strictly_convex_arc_length(body)
        while body.circle_piece_indices():
            idxs = body.circle_piece_indices()
            pts = subdivide_piece(body, idxs[0], budget)
            before = body
            body, rec = cut_step(body, pts[0], pts[1])
            if rec.r1_distance >= budget:
                problems.append("eps %g: r1 distance %.4g" % (eps, rec.r1_distance))
            for name, value in (
                ("r1.p1", rec.r1 @ rec.p1),
                ("r1.p2", rec.r1 @ rec.p2),
                ("p1.q1", rec.p1 @ rec.q1),
                ("p2.q2", rec.p2 @ rec.q2),
            ):
                if abs(float(value)) > 1e-9:
                    problems.append("eps %g: %s = %.2e" % (eps, name, value))
            if self_duality_residual(body) > 1e-6:
                problems.append("eps %g: residual after step" % eps)
            if hausdorff(before, body) >= budget:
                problems.append("eps %g: step exceeded the round budget" % eps)
            new_total = strictly_convex_arc_length(body)
            if new_total >= total:
                problems.append("eps %g: arc length did not decrease" % eps)
            total = new_total
    conclude(8, "every cut keeps self-duality, budget and progress", problems)


def test_criterion_09_involution_and_oracle(corpus):
    problems = []
    for s, (kind, body) in corpus.items():
        h = hausdorff(polar_dual(polar_dual(body)), body)
        if h > 1e-9:
            problems.append("seed %d (%s): involution %.2e" % (s, kind, h))
    # ten fixed pairs with closed-form membership for the sampling oracle
    z = unit([1.0, 1.0, 1.0])
    rot = rotation_from_seed(9)
    oct_body = octant()
    rot_oct = rotated(octant(), rot)
    poly_a, _, _ = approximate_polytope(cap(E3, PI / 4), ApproximationConfig(epsilon=0.3))
    poly_b = random_selfdual_polytope(7, 3)
    pairs = [
        (oct_body, cap(z, PI / 4), oracles.polytope_inside(octant().vertices), oracles.cap_inside(z, PI / 4)),
        (cap(E3, PI / 4), cap(E3, PI / 4 - 0.05), oracles.cap_inside(E3, PI / 4), oracles.cap_inside(E3, PI / 4 - 0.05)),
        (cap(E3, 0.5), cap(unit([0.5, 0, 1]), 0.9), oracles.cap_inside(E3, 0.5), oracles.cap_inside(unit([0.5, 0, 1]), 0.9)),
        (oct_body, rot_oct, oracles.polytope_inside(octant().vertices), oracles.polytope_inside(rotated(octant(), rot).vertices)),
        (cap(E3, PI / 4), poly_a, oracles.cap_inside(E3, PI / 4), oracles.polytope_inside(poly_a.vertices)),
        (poly_a, poly_b, oracles.polytope_inside(poly_a.vertices), oracles.polytope_inside(poly_b.vertices)),
        (oct_body, poly_b, oracles.polytope_inside(octant().vertices), oracles.polytope_inside(poly_b.vertices)),
        (cap(z, 0.3), cap(z, 1.1), oracles.cap_inside(z, 0.3), oracles.cap_inside(z, 1.1)),
        (cap(unit([1, -1, 1]), 0.8), oct_body, oracles.cap_inside(unit([1, -1, 1]), 0.8), oracles.polytope_inside(octant().vertices)),
        (poly_b, cap(E3, PI / 4), oracles.polytope_inside(poly_b.vertices), oracles.cap_inside(E3, PI / 4)),
    ]
    # poly_b holds points pi/2 or more from poly_a and from the cap (the old
    # refinement read 1.947 and 1.910), where no closed form holds: those
    # pairs must raise the typed error, never return a number
    far = {5, 9}
    for i, (a, b, ia, ib) in enumerate(pairs):
        if i in far:
            try:
                got = hausdorff(a, b)
            except FarPair:
                continue
            problems.append("pair %d: far pair returned %.6f" % (i, got))
            continue
        per_piece = max(2000, 100_000 // (len(a.pieces) + len(b.pieces)))
        want = oracles.hausdorff_oracle(a, b, ia, ib, per_piece=per_piece)
        got = hausdorff(a, b)
        if abs(got - want) > 1e-4:
            problems.append("pair %d: got %.6f oracle %.6f" % (i, got, want))
    conclude(9, "involution <= 1e-9; agrees with the 1e5-point oracle", problems)


def test_criterion_10_output_polytopes_combinatorially_selfdual(approx_runs):
    problems = []
    polys = [(eps, run[1]) for eps, run in approx_runs.items()]
    polys += [("seed %d" % (30 + k), random_selfdual_polytope(4 + k, 30 + k)) for k in range(4)]
    for tag, poly in polys:
        poles = poly.edge_poles()
        verts = poly.vertices
        if len(poles) != len(verts):
            problems.append("%s: edge/vertex counts differ" % tag)
            continue
        d = np.linalg.norm(poles[:, None, :] - verts[None, :, :], axis=2)
        match = d < 1e-9
        if not (np.all(match.sum(axis=1) == 1) and np.all(match.sum(axis=0) == 1)):
            problems.append("%s: worst mismatch %.2e" % (tag, d.min(axis=1).max()))
    conclude(10, "edge poles and vertices match one-to-one", problems)

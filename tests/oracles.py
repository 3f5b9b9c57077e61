"""Independent brute-force oracles used to pin expected values in tests.

Everything here works on dense boundary samples and explicit closed-form
membership rules only; none of the adaptive or closed-form machinery under
test is reused for the quantities being checked.  ``validate_per_piece`` is
the per-piece reference that the stacked ``body.validate`` must reproduce,
``chord_pole_distance`` the measured distance that the closed-form
subdivision of ``approx.subdivide_piece`` must reproduce, and
``chord_cut_loop`` the edit-at-a-time construction, built from
``subdivide_piece`` and ``cut_step``, that the one-pass
``approx.approximate_polytope`` must reproduce, and
``random_selfdual_polytope_reference`` the random generator with its seed
cut by the gated and certified ``approx.approximate_polytope``, which the
generator, cutting it with the bare ``approx.chord_polytope``, must
reproduce bit for bit.
"""

import math

import numpy as np
from scipy.spatial import cKDTree

from spherewidth.approx import ApproximationConfig, approximate_polytope, cut_step, subdivide_piece
from spherewidth.body import Polytope, ValidationCheck, body_distance, to_polytope
from spherewidth.errors import BudgetExhausted, DualOverlap
from spherewidth.generators import cap, complete_selfdual, rotated, rotation_from_seed
from spherewidth.sphere import (
    BOUNDARY_EPS,
    DOT_EPS,
    acos_clamped_np,
    arc_pole,
    chord_distance,
    cross,
    dot,
    sample_piece,
    unit,
    unit_rows,
)


# Every this-many-th sample of a cloud forms the coarse sub-cloud that
# screens the nearest-neighbour queries of ``hausdorff_oracle``.
COARSE_STRIDE = 64


def boundary_cloud(body, per_piece=2000):
    return np.vstack([sample_piece(p, per_piece) for p in body.pieces])


def _piece_poles(piece, per_piece):
    pts = sample_piece(piece, per_piece)
    return unit_rows(np.cross(pts[1:-1], pts[2:] - pts[:-2]))


def polyline_support_poles(body, per_piece=2000):
    """Support poles estimated from finite differences of a dense polyline."""
    return np.vstack([_piece_poles(p, per_piece) for p in body.pieces])


def dense_support_dot(body, per_piece=2000, per_corner=64):
    """Least x . K over dense finite-difference support poles K, per point.

    A convex body is the intersection of its supporting hemispheres, so a
    point is inside iff this is non-negative.  The poles are those of
    ``polyline_support_poles`` plus, at every junction, points of the great
    arc between the poles on either side, so corners get their hemispheres
    too.  Between samples x . K can dip below the sampled least by about
    (2 pi / per_piece)**2, so the sign is only decisive beyond that.
    """
    per = [_piece_poles(p, per_piece) for p in body.pieces]
    s = np.linspace(0.0, 1.0, per_corner)[:, None]
    corners = [unit_rows((1.0 - s) * a[-1] + s * b[0]) for a, b in zip(per, per[1:] + per[:1])]
    poles = np.vstack(per + corners)

    def f(points):
        chunks = np.array_split(points, max(1, len(points) // 64))
        return np.concatenate([(c @ poles.T).min(axis=1) for c in chunks])

    return f


def diameter_oracle(body, per_piece=1500):
    pts = boundary_cloud(body, per_piece)
    best = 0.0
    for chunk in np.array_split(pts, max(1, len(pts) // 512)):
        d = acos_clamped_np(chunk @ pts.T)
        best = max(best, float(d.max()))
    return best


def width_oracle(body, k, per_piece=2000):
    """pi minus the farthest sampled support pole of the body from k."""
    poles = polyline_support_poles(body, per_piece)
    return math.pi - float(acos_clamped_np(poles @ k).max())


def thickness_oracle(body, n_poles=400, per_piece=1200):
    poles = polyline_support_poles(body, per_piece)
    sel = poles[:: max(1, len(poles) // n_poles)]
    far = acos_clamped_np(sel @ poles.T).max(axis=1)
    return math.pi - float(far.max())


def nearest_chords_near_max(points, cloud, stride=COARSE_STRIDE):
    """Exact nearest-neighbour chords into ``cloud`` of the rows that can hold the max.

    Far queries are slow on a fine tree (a curve is nearly equidistant from
    a far point), so a coarse sub-cloud of every ``stride``-th sample
    screens them first.  Its nearest chord u is an upper bound on the full
    cloud's nearest chord d, and u - gap a lower bound, gap bounding the
    chord from any sample to the coarse sub-cloud (each sample's chord to
    the coarse sample that starts its stride).  Only rows with u at least
    max(u - gap) can attain max d, so only they are queried against the
    full cloud; their largest chord is max d exactly.
    The full tree is built with ``compact_nodes=False``, about three times
    faster on concentric circles, where every query has many samples at
    nearly its nearest distance.
    """
    gap = float(np.linalg.norm(cloud - cloud[np.arange(len(cloud)) // stride * stride], axis=1).max())
    upper = cKDTree(cloud[::stride]).query(points)[0]
    # 1e-12 absorbs the roundoff of the triangle inequality
    near = upper >= float(upper.max()) - gap - 1e-12
    return cKDTree(cloud, compact_nodes=False).query(points[near])[0]


def hausdorff_oracle(a, b, inside_a, inside_b, per_piece=2000):
    """Directed-sup Hausdorff over dense samples with closed-form membership.

    ``inside_a``/``inside_b`` decide membership from the body's construction
    (cap radius test, polytope vertex dots) so the oracle never consults the
    implementation under test.
    """
    pa = boundary_cloud(a, per_piece)
    pb = boundary_cloud(b, per_piece)

    def directed(points, other_cloud, other_inside):
        out = ~other_inside(points)
        if not np.any(out):
            return 0.0
        # nearest neighbour in chord metric == nearest in geodesic metric
        chord = nearest_chords_near_max(points[out], other_cloud)
        return float(np.max(2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))))

    return max(directed(pa, pb, inside_b), directed(pb, pa, inside_a))


def cap_inside(center, radius, tol=1e-12):
    def f(points):
        return acos_clamped_np(points @ center) <= radius + tol

    return f


def polytope_inside(vertices, tol=1e-12):
    v = np.asarray(vertices, dtype=float)
    poles = np.vstack(
        [np.cross(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]
    )
    poles = unit_rows(poles)

    def f(points):
        return np.all(points @ poles.T >= -tol, axis=1)

    return f


def validate_per_piece(body):
    """The checks of ``body.validate``, evaluated piece by piece in Python.

    The same names, samples and thresholds as the stacked ``validate``, one
    ``support_pole_at`` / ``tangent_at`` call per piece and junction.
    """
    pcs = body.pieces
    n = len(pcs)
    checks = [ValidationCheck("piece-count", n >= 1, float(max(0, 1 - n)))]
    if n == 0:
        return checks
    gap = 0.0
    for i, p in enumerate(pcs):
        gap = max(gap, chord_distance(p.end, pcs[(i + 1) % n].start))
    checks.append(ValidationCheck("closure", gap <= BOUNDARY_EPS, gap))

    w = body.interior
    samples = np.vstack([sample_piece(p, 16) for p in pcs])
    poles = [p.support_pole_at(np.linspace(p.t0, p.t1, 5)).mean(axis=0) for p in pcs]
    pole_mean = np.sum(poles, axis=0)
    candidates = [w]
    if np.linalg.norm(pole_mean) > DOT_EPS:
        candidates.append(unit(pole_mean))
    min_dot = max(float(np.min(samples @ k)) for k in candidates)
    checks.append(ValidationCheck("hemispherical", min_dot >= -BOUNDARY_EPS, -min_dot))

    worst_support = min(
        1.0, *(float(np.min(p.support_pole_at(np.linspace(p.t0, p.t1, 9)) @ w)) for p in pcs)
    )
    checks.append(ValidationCheck("support-orientation", worst_support > DOT_EPS, -worst_support))

    turns = []
    for i, p in enumerate(pcs):
        q = pcs[(i + 1) % n]
        t_in = p.tangent_at(p.t1)
        t_out = q.tangent_at(q.t0)
        turns.append(math.atan2(dot(cross(t_in, t_out), p.end), dot(t_in, t_out)))
    checks.append(ValidationCheck("convex-turns", min(turns) >= -BOUNDARY_EPS, -min(turns)))
    checks.append(ValidationCheck("corner-not-cusp", max(turns) <= math.pi - 1e-9, max(turns)))

    min_len = min(p.length for p in pcs)
    checks.append(ValidationCheck("piece-nondegenerate", min_len > 1e-12, -min_len))
    return checks


def chord_pole_distance(body, piece, step):
    """Distance to ``body`` of the pole of ``piece``'s first sub-chord of width ``step``.

    The pole is taken on the dual side: it has positive dot with the support
    pole at the sub-arc midpoint, which serves as the side hint.
    """
    a = piece.az_from
    p1 = piece.point_at(a)[0]
    p2 = piece.point_at(a + step)[0]
    r = arc_pole(p1, p2, piece.support_pole_at(a + 0.5 * step)[0])
    return body_distance(body, r)


def chord_cut_loop(body, eps, max_rounds=64):
    """The chord-cut construction one ``cut_step`` at a time.

    Round k = 1, 2, ... uses the budget eps / 2**(k-1).  Within a round the
    first remaining strictly convex piece is re-subdivided and its first
    sub-arc cut, until no strictly convex piece remains; a ``DualOverlap``
    defers the piece to the next, finer round.  Returns the polytope, the
    step records and the number of rounds.
    """
    steps = []
    rounds = 0
    current = body
    for k in range(max_rounds):
        if current.is_polytope():
            break
        rounds = k + 1
        budget = eps / 2.0**k
        while not current.is_polytope():
            pts = subdivide_piece(current, current.circle_piece_indices()[0], budget)
            try:
                current, rec = cut_step(current, pts[0], pts[1])
            except DualOverlap:
                break
            steps.append(rec)
    if not current.is_polytope():
        raise BudgetExhausted(
            "strictly convex arcs remain after %d rounds" % rounds, partial=current, steps=steps
        )
    return to_polytope(current), steps, rounds


def random_selfdual_polytope_reference(n_target, rng_seed):
    """``generators.random_selfdual_polytope`` with the seed cut by ``approximate_polytope``.

    The same seed recipe (a rotated pi/4 cap cut at the size-matched
    epsilon, one vertex dropped at random) and the same completion, but the
    cut runs the input gate and the certificate as well as the build.
    """
    rot = rotation_from_seed(rng_seed)
    if n_target == 3:
        seed = Polytope(rot.T)
    else:
        eps = min(1.2, max(0.004, (2.6 / max(2.5, n_target - 1.5)) ** 2))
        base = rotated(cap(np.array([0.0, 0.0, 1.0]), 0.25 * math.pi), rot)
        seed, _, _ = approximate_polytope(base, ApproximationConfig(epsilon=eps))
        if len(seed) > 3:
            drop = int(np.random.default_rng(rng_seed).integers(len(seed)))
            seed = Polytope(np.delete(seed.vertices, drop, axis=0))
    return to_polytope(complete_selfdual(seed, tol=1e-7, rng_seed=rng_seed))

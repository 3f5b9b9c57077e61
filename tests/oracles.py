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
``step_records_per_row`` the steps of ``approx.chord_polytope`` built as
one ``StepRecord`` object per chord, with every column made at once, whose
records the ``approx.StepTable`` row views, made on first read, must
reproduce bit for bit, and ``random_selfdual_polytope_reference`` the
random generator with its seed cut by the gated and certified
``approx.approximate_polytope`` through the cap body, which the generator,
cutting it with ``approx.chord_core`` on the cap circle's two half runs,
must reproduce bit for bit, and ``render_svg_per_segment`` the renderer that
projects one piece and one segment at a time, whose SVG the stacked
``render.render_svg`` must reproduce byte for byte, and
``run_pairing_per_run`` the run pairing built run by run, one arc object
and one partner search at a time, whose arcs, pairs and run term the
stacked ``body.RunPairing`` must reproduce bit for bit, and
``pair_runs_greedy`` and ``corner_match_nearest_ends`` the pairings found
by search, one free run or one corner at a time, whose tables the
rotations of ``body._pair_runs`` and ``body._corner_match`` must
reproduce, and ``polar_dual_per_piece``, ``rotated_per_piece`` and ``hull_per_piece`` the
curved-body edits made one ``CircleArc`` object at a time, whose stacks
``body.polar_dual`` and ``generators.rotated`` must reproduce bit for bit
and ``generators.convex_hull_with_point`` to roundoff, and
``chord_count_per_run`` the scalar chord count, one run at a time, whose
counts and budget error ``approx._chord_counts`` must reproduce for every
run, and ``pairing_bound_per_unit`` the certificate walk with one start
search and one pass of checks per unit, whose verdicts the one-pass
``approx.pairing_bound`` must reproduce, and its bounds to roundoff, and
``farthest_pair_oracle`` the diameter from dense chord-form samples,
polished by a bounded local search, which the closed-form
``metrics.farthest_pair`` must reproduce to 1e-12, and
``max_distance_to_piece_arccos`` and ``farthest_pair_arccos`` the
farthest-distance kernel with an arccos per candidate (``np.hypot`` and
``np.mod`` in it), and the largest distance between two boundaries it
gives unpruned, which the cosine kernel ``sphere.min_dot_to_piece`` and
``metrics.farthest_pair`` must reproduce to 4e-16, and
``directed_chord_oracle`` the directed distance between two bodies from
dense chord-form samples, polished by a golden-section search, which
``metrics.hausdorff`` must reproduce to 1e-12.
"""

import json
import math
from typing import Optional

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from spherewidth.approx import (
    FIT_EPS,
    MAX_SUBARCS,
    SUBDIVISION_SAFETY,
    ApproximationConfig,
    StepRecord,
    approximate_polytope,
    cut_step,
    subdivide_piece,
)
from spherewidth.body import (
    PAIR_EPS,
    POLE_MERGE_EPS,
    ConvexBody,
    Polytope,
    ValidationCheck,
    body_distance,
    chain_body,
    contains_many,
    polar_dual,
    run_pairing_or_none,
    to_polytope,
)
from spherewidth.errors import BudgetExhausted, DegenerateArc, DualOverlap
from spherewidth.formats import dumps_step
from spherewidth.generators import (
    cap,
    complete_selfdual,
    convex_hull_with_point,
    rotated,
    rotation_from_seed,
)
from spherewidth.render import MAX_SEG_SPAN, STROKES, _Frame, projected_box
from spherewidth.sphere import (
    BOUNDARY_EPS,
    DOT_EPS,
    TWO_PI,
    GreatArc,
    Vec,
    SmallCircleArc,
    acos_clamped_np,
    arc_pole,
    cross,
    cross_rows,
    dot,
    linspace_grid,
    norm_rows,
    sample_piece,
    stack_arcs,
    tangent_basis,
    unit,
    unit_rows,
    wrap_angle,
)


# Every this-many-th sample of a cloud forms the coarse sub-cloud that
# screens the nearest-neighbour queries of ``hausdorff_oracle``.
COARSE_STRIDE = 64


def chord_distance(p: Vec, q: Vec) -> float:
    """Euclidean chord length; resolves tiny separations that arccos cannot."""
    d = p - q
    return math.sqrt(d.dot(d))


def chord_angle(x, y):
    """Geodesic distance between the rows of ``x`` and ``y`` (broadcast) in chord form, 2 asin(|x - y| / 2)."""
    return 2.0 * np.arcsin(np.minimum(1.0, np.linalg.norm(x - y, axis=-1) / 2.0))


def boundary_cloud(body, per_piece=2000):
    return np.vstack([sample_piece(p, per_piece) for p in body.pieces])


def boundary_samples(body, per_piece=16):
    """``per_piece`` evenly spaced points of each piece, piece after piece, from the stacked arcs."""
    a = body.arcs
    return a.point_at(np.linspace(a.t0, a.t1, per_piece)).swapaxes(0, 1).reshape(-1, 3)


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


def farthest_pair_oracle(body, per_piece=2048, block=64, near=1e-4):
    """The diameter of ``body`` from ``per_piece`` samples of each piece, and that value polished.

    Distances are in chord form, 2 asin(|x - y| / 2).  The samples of each
    piece go in runs of ``block``; a run lies within r of its middle
    sample m (r its largest chord to m), so two runs hold no pair farther
    apart than |m - m'| + r + r'.  Only the pairs of runs whose bound
    reaches the largest middle-sample chord are compared in full, so the
    sampled maximum is that of all sample pairs.  Then, from the best
    sample pair of each pair of pieces within ``near`` of it, a bounded
    quasi-Newton search (L-BFGS-B with the exact gradient) maximises
    |x(t) - y(s)| over the two pieces' parameter ranges.  Returns the
    sampled maximum and the polished one, which is at least as large.
    """
    a = body.arcs
    n = len(a)
    idx, ts = linspace_grid(a.t0, a.t1, np.full(n, per_piece))
    cloud = a.point_at(ts, idx).reshape(-1, block, 3)
    mids = cloud[:, block // 2]
    radius = np.linalg.norm(cloud - mids[:, None], axis=2).max(axis=1)
    gap = np.linalg.norm(mids[:, None] - mids[None], axis=2)
    p, q = np.nonzero(np.triu(gap + radius[:, None] + radius[None]) >= gap.max())
    best = np.zeros(len(p))
    where = np.zeros(len(p), dtype=int)
    for lo in range(0, len(p), 256):
        sl = slice(lo, lo + 256)
        dots = np.matmul(cloud[p[sl]], cloud[q[sl]].swapaxes(1, 2)).reshape(len(best[sl]), -1)
        where[sl] = dots.argmin(axis=1)
        best[sl] = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots.min(axis=1)))
    sampled = 2.0 * math.asin(min(1.0, best.max() / 2.0))
    rows = (p * block + where // block, q * block + where % block)
    pieces = idx[rows[0]] * n + idx[rows[1]]
    polished = sampled
    for key in np.unique(pieces):
        k = np.flatnonzero(pieces == key)
        k = k[np.argmax(best[k])]
        if 2.0 * math.asin(min(1.0, best[k] / 2.0)) < sampled - near:
            continue
        i, j = divmod(int(key), n)

        def dot_and_grad(ts, i=i, j=j):
            x, y = (a.point_at(t, r) for t, r in zip(ts, (i, j)))
            dx, dy = (a.sin_r[r] * (np.cos(t) * a.v[r] - np.sin(t) * a.u[r]) for t, r in zip(ts, (i, j)))
            return float(x @ y), np.array([dx @ y, x @ dy])

        start = [ts[rows[0][k]], ts[rows[1][k]]]
        bounds = [(a.t0[i], a.t1[i]), (a.t0[j], a.t1[j])]
        res = minimize(dot_and_grad, start, jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"ftol": 0.0, "gtol": 1e-15, "maxiter": 500})
        x, y = a.point_at(res.x[0], i), a.point_at(res.x[1], j)
        polished = max(polished, 2.0 * math.asin(min(1.0, float(np.linalg.norm(x - y)) / 2.0)))
    return sampled, polished


def _each_dot(x, vecs):
    """``x @ v`` for each row v of ``vecs``, one column each: a matrix-vector product per vector, whose bits
    the kernels give each column (``x @ vecs.T``, one matrix product, can round a column otherwise)."""
    return np.stack([x @ v for v in vecs], axis=-1)


def max_distance_to_piece_arccos(points, piece):
    """The farthest distance from each row of ``points`` to each arc of the stack ``piece``, as the largest of
    three arccos: both ends, and the azimuth opposite the point when ``np.mod`` puts it in the span, at
    arccos((x . z) cos r - hypot(x_u, x_v) sin r)."""
    x = np.asarray(points, dtype=float)
    d_ends = np.maximum(acos_clamped_np(_each_dot(x, piece.start)), acos_clamped_np(_each_dot(x, piece.end)))
    xu, xv = _each_dot(x, piece.u), _each_dot(x, piece.v)
    on = np.mod(np.arctan2(xv, xu) + math.pi - piece.t0, TWO_PI) <= piece.span + BOUNDARY_EPS
    d_far = acos_clamped_np(_each_dot(x, piece.z) * piece.cos_r - np.hypot(xu, xv) * piece.sin_r)
    return np.where(on, np.maximum(d_far, d_ends), d_ends)


def _centre_line_meets(s, p, w):
    """Where the circle of arc ``s[p[k]]`` meets the great circle through its centre and ``w[k]``, toward and
    away from w, and whether each point lies within the span."""
    u, v = s.u[p], s.v[p]
    wu, wv = np.sum(w * u, axis=1), np.sum(w * v, axis=1)
    h = np.sqrt(wu * wu + wv * wv)
    az = np.arctan2(wv, wu)[:, None] + np.array([0.0, math.pi])
    on = (wrap_angle(az - s.t0[p, None]) <= s.span[p, None]) & (h > DOT_EPS)[:, None]
    e = (wu[:, None] * u + wv[:, None] * v) * (s.sin_r[p] / np.where(h > DOT_EPS, h, 1.0))[:, None]
    return (s.cos_r[p, None] * s.z[p])[:, None] + np.array([1.0, -1.0])[:, None] * e[:, None], on


def farthest_pair_arccos(first, second):
    """The largest distance between the boundaries of two bodies from ``max_distance_to_piece_arccos``: every
    arc start and end of either against every arc of the other, and for every pair of arcs with a small arc,
    unpruned, the arccos of each pair of the points where the two meet the great circle through their
    centres, toward or away from the other centre, within their spans.  No antipodal crossings: the pairs
    it serves lie less than pi apart."""
    a, b = first.arcs, second.arcs
    best = max(
        float(max_distance_to_piece_arccos(np.concatenate([a.start, a.end]), b).max()),
        float(max_distance_to_piece_arccos(np.concatenate([b.start, b.end]), a).max()),
    )
    i, j = np.nonzero(~a.great[:, None] | ~b.great[None, :])
    pa, on_a = _centre_line_meets(a, i, b.z[j])
    pb, on_b = _centre_line_meets(b, j, a.z[i])
    d = np.where(on_a[:, :, None] & on_b[:, None, :], acos_clamped_np(np.matmul(pa, pb.swapaxes(1, 2))), -1.0)
    return max(best, float(d.max(initial=-1.0)))


def _chord_to_arcs(x, arcs):
    """The least chord |x - y| over the points y of each arc, and of the straight segment from its end to the
    next start, rows x arcs: on the arc, the circle's point at x's azimuth when the span holds it, else the
    nearer end.  The segments close the roundoff gaps a chain keeps at its junctions (about 8e-12 on the
    dual of ``rotated_reuleaux(3, 1e-5)``), which would otherwise read as distance."""
    rel = wrap_angle(np.arctan2(x @ arcs.v.T, x @ arcs.u.T) - arcs.t0)
    foot = arcs.point_at(arcs.t0 + np.minimum(rel, arcs.span))
    chord = np.where(rel <= arcs.span, np.linalg.norm(foot - x[:, None], axis=2), np.inf)
    ends = np.minimum(np.linalg.norm(arcs.start - x[:, None], axis=2), np.linalg.norm(arcs.end - x[:, None], axis=2))
    gap = np.roll(arcs.start, -1, axis=0) - arcs.end
    t = np.clip(np.sum((x[:, None] - arcs.end) * gap, axis=2) / np.maximum(np.sum(gap * gap, axis=1), 1e-300), 0.0, 1.0)
    across = np.linalg.norm(arcs.end + t[..., None] * gap - x[:, None], axis=2)
    return np.minimum(np.minimum(chord, ends), across)


def directed_chord_oracle(a, b, per_edge=8, peaks=16, steps=60):
    """sup over the boundary of ``a`` of the distance to ``b`` from dense samples, and that value polished.

    Distances are in chord form, 2 asin(|x - y| / 2) to the nearest point
    of b's boundary, and 0 inside b (``contains_many``), so they stay exact
    near 0.  Each piece of a takes ``per_edge`` samples for every piece of
    b, at least 64, ends included; the ``peaks`` largest samples that are
    local maxima along their piece are polished by a golden-section search
    over the sample spacing on either side.  Returns the sampled maximum
    and the polished one.
    """
    arcs = a.arcs
    per_piece = max(64, per_edge * len(b.arcs))

    def distance(idx, t):
        x = arcs.point_at(t, idx)
        chord = np.zeros(len(x))
        for rows in np.array_split(np.flatnonzero(~contains_many(b, x, 0.0)), 1 + len(x) // 512):
            chord[rows] = _chord_to_arcs(x[rows], b.arcs).min(axis=1)
        return 2.0 * np.arcsin(np.minimum(1.0, chord / 2.0))

    idx, ts = linspace_grid(arcs.t0, arcs.t1, np.full(len(arcs), per_piece))
    d = distance(idx, ts)
    grid = d.reshape(len(arcs), per_piece)
    pad = np.pad(grid, ((0, 0), (1, 1)), constant_values=-1.0)
    k = np.flatnonzero(((grid >= pad[:, :-2]) & (grid >= pad[:, 2:])).ravel())
    k = k[np.argsort(d[k])[-peaks:]]
    rows = idx[k]
    h = (arcs.span / (per_piece - 1))[rows]
    lo, hi = np.maximum(ts[k] - h, arcs.t0[rows]), np.minimum(ts[k] + h, arcs.t1[rows])
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(steps):
        p, q = hi - g * (hi - lo), lo + g * (hi - lo)
        dp, dq = np.split(distance(np.concatenate([rows, rows]), np.concatenate([p, q])), 2)
        left = dp >= dq
        lo, hi = np.where(left, lo, p), np.where(left, q, hi)
    return float(d.max()), max(float(d.max()), float(distance(rows, 0.5 * (lo + hi)).max()))


def width_oracle(body, k, per_piece=2000):
    """pi minus the farthest sampled support pole of the body from k, or from each row of k."""
    poles = polyline_support_poles(body, per_piece)
    return math.pi - acos_clamped_np(np.asarray(k) @ poles.T).max(axis=-1)


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


def _sinusoid_min_max(a, b, t0, t1):
    """Least and greatest a cos t + b sin t over [t0, t1], in scalar Python.

    The ends, and the peak (at atan2(b, a)) or the trough (half a turn on),
    of amplitude hypot(a, b), wherever one falls inside the range.
    """
    ends = [a * math.cos(t) + b * math.sin(t) for t in (t0, t1)]
    rho, peak = math.hypot(a, b), math.atan2(b, a)

    def inside(t):
        return (t - t0) % TWO_PI <= t1 - t0

    return (-rho if inside(peak + math.pi) else min(ends)), (rho if inside(peak) else max(ends))


def validate_per_piece(body):
    """The checks of ``body.validate``, evaluated exactly piece by piece in scalar Python.

    The same names and thresholds as the stacked ``validate``.  Along a
    piece, with s(t) = (u . k) cos t + (v . k) sin t, the point x(t) has
    x . k = cos r (z . k) + sin r s(t) and the support pole K(t) has
    K . k = sin r (z . k) - cos r s(t), so each least value comes from the
    least or greatest s (``_sinusoid_min_max``).  The mean support pole sums
    the integral of K(t) over each piece, and each turn is the angle about
    the junction point from one piece's end pole to the next piece's start
    pole.
    """
    try:
        pcs = body.pieces
    except DegenerateArc:
        return [ValidationCheck("edges-nondegenerate", False, 1.0)]
    n = len(pcs)
    checks = [ValidationCheck("piece-count", n >= 1, float(max(0, 1 - n)))]
    if n == 0:
        return checks
    gap = 0.0
    for i, p in enumerate(pcs):
        gap = max(gap, chord_distance(p.end, pcs[(i + 1) % n].start))
    checks.append(ValidationCheck("closure", gap <= BOUNDARY_EPS, gap))

    w = body.interior
    pole_sum = np.zeros(3)
    for p in pcs:
        ring = (math.sin(p.t1) - math.sin(p.t0)) * p.u + (math.cos(p.t0) - math.cos(p.t1)) * p.v
        pole_sum = pole_sum + p.sin_r * p.span * p.z - p.cos_r * ring
    candidates = [w]
    if np.linalg.norm(pole_sum) > DOT_EPS:
        candidates.append(unit(pole_sum))

    def s_range(p, k):
        return _sinusoid_min_max(dot(p.u, k), dot(p.v, k), p.t0, p.t1)

    min_dot = max(min(p.cos_r * dot(p.z, k) + p.sin_r * s_range(p, k)[0] for p in pcs) for k in candidates)
    checks.append(ValidationCheck("hemispherical", min_dot >= -BOUNDARY_EPS, -min_dot))

    worst_support = min(1.0, *(p.sin_r * dot(p.z, w) - p.cos_r * s_range(p, w)[1] for p in pcs))
    checks.append(ValidationCheck("support-orientation", worst_support > DOT_EPS, -worst_support))

    turns, flat = [], math.inf
    for i, p in enumerate(pcs):
        q = pcs[(i + 1) % n]
        k_end, k_next = p.support_pole_at(p.t1)[0], q.support_pole_at(q.t0)[0]
        turns.append(math.atan2(dot(cross(k_end, k_next), p.end), dot(k_end, k_next)))
        if isinstance(p, GreatArc) and isinstance(q, GreatArc):
            flat = min(flat, chord_distance(k_end, k_next))
    checks.append(ValidationCheck("convex-turns", min(turns) >= -BOUNDARY_EPS, -min(turns)))
    checks.append(ValidationCheck("corner-not-cusp", max(turns) <= math.pi - 1e-9, max(turns)))

    min_len = min(p.length for p in pcs)
    checks.append(ValidationCheck("piece-nondegenerate", min_len > 1e-12, -min_len))
    checks.append(ValidationCheck("no-redundant-vertices", flat > BOUNDARY_EPS, -flat))
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
            "strictly convex arcs remain after %d rounds" % rounds, partial=current
        )
    return to_polytope(current), steps, rounds


def chord_count_per_run(radius: float, span: float, target: float, full: bool = False) -> int:
    """Fewest equal sub-arcs of an arc of ``radius`` and ``span`` with sagitta d(s) < ``target``.

    A full circle needs at least two sub-arcs (a single chord would close on
    itself) and no sub-arc may exceed half the circle.  Raises
    ``BudgetExhausted`` when the count would reach ``MAX_SUBARCS``.  The
    scalar formula, one arc at a time, that ``approx._chord_counts`` must
    reproduce for every arc.
    """
    n = max(2 if full else 1, int(math.ceil(span / math.pi - 1e-12)))
    if target < radius:
        # d(s) < target exactly for widths s below s_max
        s_max = 2.0 * math.acos(math.tan(radius - target) / math.tan(radius))
        if span >= s_max * MAX_SUBARCS:
            raise BudgetExhausted(
                "a sagitta budget of %.3g needs %d or more sub-arcs on an arc of radius %.6g"
                % (target, MAX_SUBARCS, radius)
            )
        n = max(n, int(span / s_max) + 1)
    return n


def step_records_per_row(body, config):
    """The steps of ``approx.chord_polytope(body, config)`` as a list, one ``StepRecord`` built per chord.

    Every column is made up front, for every chord: the sub-arc ends and the
    partner points of each chorded run on sub-stacks ``a[rows]``, the
    sagittas in ``math`` and the piece ids from ``RunPairing.piece_at``.
    """
    pairing = body.run_pairing
    a, target = pairing.arcs, config.epsilon * SUBDIVISION_SAFETY
    runs = np.flatnonzero(pairing.chorded)
    radius, span = a.radius[runs].tolist(), a.span[runs].tolist()
    n = np.array([chord_count_per_run(r, s, target) for r, s in zip(radius, span)], dtype=int)
    run, az = linspace_grid(a.t0[runs], a.t1[runs], n + 1)
    unit, mate = runs[run], pairing.partner[runs[run]]
    p = a[unit].point_at(az)
    q = a[mate].point_at(az + math.pi)
    k = np.flatnonzero(run[1:] == run[:-1])
    r = unit_rows(cross_rows(p[k], p[k + 1]))
    s = a.span[runs] / n
    d = [x - math.atan(math.tan(x) * math.cos(0.5 * w)) for x, w in zip(radius, s.tolist())]
    offset = s[run[k]] * (k - (np.cumsum(n + 1) - n - 1)[run[k]])
    primal = pairing.piece_at(unit[k], offset).tolist()
    dual = pairing.piece_at(mate[k], offset).tolist()
    return [
        StepRecord(p[i], p[i + 1], q[i], q[i + 1], r[x], primal[x], dual[x], d[run[i]])
        for x, i in enumerate(k.tolist())
    ]


def dumps_step_log_per_record(steps):
    """``formats.dumps_step_log`` of any sequence of ``StepRecord``, one ``formats.dumps_step`` line each."""
    return "".join(dumps_step(s) + "\n" for s in steps)


def run_pairing_per_run(body):
    """The run pairing of ``body`` built run by run, or None when a run has no partner.

    Returns the units in chain order, each a great-arc piece id or a run
    (``SmallCircleArc``, piece ids, offsets), the (run, partner) unit index
    pairs in the order they pair, and the largest term 2 asin(c / 2) of
    ``body.pairing_residual_bound`` over the pairs, each from scalar
    formulas: ``math.remainder``, one frame per run, one pair at a time.
    """
    a = body.arcs
    m = len(a)
    small = a.radius != 0.5 * math.pi

    def joins(i):  # piece i continues the run of the piece before it
        return small[i] and small[i - 1] and dot(a.z[i - 1], a.z[i]) >= 1.0 - DOT_EPS and abs(a.radius[i - 1] - a.radius[i]) <= PAIR_EPS

    start = next((i for i in range(m - 1, -1, -1) if not joins(i)), 0) if joins(0) else 0
    groups = []
    for i in (np.arange(m) + start) % m:
        if groups and joins(i):
            groups[-1].append(i)
        else:
            groups.append([i])
    units = []
    for g in groups:
        if not small[g[0]]:
            units.append(int(g[0]))
            continue
        ids = np.array(g)
        offsets = np.concatenate([[0.0], np.cumsum(a.span[ids][:-1])])
        az, span = float(a.t0[g[0]]), float(a.span[ids].sum())
        parts = [(az, span)] if span < TWO_PI - PAIR_EPS else [(az, math.pi), (az + math.pi, math.pi)]
        for lo, s in parts:
            units.append((SmallCircleArc(a.z[g[0]], float(a.radius[g[0]]), lo, lo + s), ids, offsets - (lo - az)))

    def fits(x, y):
        return (
            dot(x.center, y.center) >= 1.0 - DOT_EPS
            and abs(x.radius + y.radius - 0.5 * math.pi) <= PAIR_EPS
            and abs(x.span - y.span) <= PAIR_EPS
            and abs(math.remainder(y.az_from - x.az_from - math.pi, TWO_PI)) <= PAIR_EPS
        )

    free = [k for k, u in enumerate(units) if isinstance(u, tuple)]
    pairs = []
    while free:
        k = free.pop(0)
        partner = next((j for j in free if fits(units[k][0], units[j][0])), None)
        if partner is None:
            return None
        free.remove(partner)
        pairs.append((k, partner))

    def frame(x):
        return np.stack([x.u, x.v, x.z], axis=-2)

    def run_offset(arc, ids, offsets):
        dev = np.sqrt(np.sum((frame(a[ids]) - frame(arc)) ** 2, axis=(1, 2)))
        dev = dev + np.abs(a.radius[ids] - arc.radius)
        dev = float(np.max(dev + np.abs(wrap_angle(a.t0[ids] - arc.az_from - offsets + math.pi) - math.pi)))
        end = offsets[-1] + a.span[ids][-1]
        if float(a.span[ids].sum()) < TWO_PI - PAIR_EPS:
            return dev + abs(arc.span - end)
        return dev + max(0.0, arc.span - end)  # half of a full circle

    def pair_offset(x, y):
        s = math.remainder(y.az_from - x.az_from - math.pi, TWO_PI)
        f = math.sqrt(float(np.sum((frame(x) - frame(y)) ** 2)))
        return f + abs(x.radius + y.radius - 0.5 * math.pi) + max(abs(s), abs(s + y.span - x.span))

    terms = [0.0]
    for k, j in pairs:
        c = run_offset(*units[k]) + run_offset(*units[j]) + pair_offset(units[k][0], units[j][0])
        terms.append(2.0 * math.asin(min(1.0, 0.5 * c)))
    return units, pairs, max(terms)


def pair_runs_greedy(arcs):
    """The ``partner`` and ``chorded`` tables of the unit rows ``arcs`` (``body._boundary_units``) by search,
    or None when a run has no partner: in chain order, each free run is chorded and takes the first free run
    spanning its azimuths shifted by pi on (Z, pi/2 - r), one candidate test per run."""
    partner = np.full(len(arcs), -1)
    chorded = np.zeros(len(arcs), dtype=bool)
    runs = np.flatnonzero(~arcs.great)
    z, radius, span, t0 = arcs.z[runs], arcs.radius[runs], arcs.span[runs], arcs.t0[runs]
    for i in runs:
        if partner[i] >= 0:
            continue
        fits = (
            (partner[runs] < 0)
            & (runs != i)
            & (np.sum(arcs.z[i] * z, axis=1) >= 1.0 - DOT_EPS)
            & (np.abs(arcs.radius[i] + radius - 0.5 * math.pi) <= PAIR_EPS)
            & (np.abs(arcs.span[i] - span) <= PAIR_EPS)
            & (np.abs([math.remainder(x, TWO_PI) for x in (t0 - arcs.t0[i] - math.pi).tolist()]) <= PAIR_EPS)
        )
        if not fits.any():
            return None
        j = runs[np.argmax(fits)]
        partner[i], partner[j], chorded[i] = j, i, True
    return partner, chorded


def corner_match_nearest_ends(body):
    """The great-arc piece matched with each corner of ``body`` by search over all pairs, or None when two
    corners take one piece: the piece whose ends are nearest the corner's poles k_end and k_next (least sum
    of the two chords)."""
    a = body.arcs
    k_end, k_next, _, corner = body.junction_poles
    g = np.flatnonzero(a.great)
    c = np.flatnonzero(corner)
    cost = np.linalg.norm(a.start[g][None] - k_end[c][:, None], axis=2) + np.linalg.norm(a.end[g][None] - k_next[c][:, None], axis=2)
    j = g[np.argmin(cost, axis=1)]
    return j if len(np.unique(j)) == len(j) else None


def random_selfdual_polytope_reference(n_target, rng_seed):
    """``generators.random_selfdual_polytope`` with the seed cut by ``approximate_polytope``.

    The same seed recipe (a rotated pi/4 cap cut at the size-matched
    epsilon, one vertex dropped at random) and the same completion, but the
    cut goes through the cap body: its run pairing, the input gate and the
    certificate as well as the build.
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
    return to_polytope(complete_selfdual(seed, tol=1e-7))


# ------------------------------------------------------ scalar piece rules


def _tangent_basis_scalar(z):
    k = int(np.argmin(np.abs(z)))
    axis = np.zeros(3)
    axis[k] = 1.0
    u = unit(axis - dot(axis, z) * z)
    return u, cross(z, u)


def _ends(z, cos_r, sin_r, u, v, t0, t1):
    return [cos_r * z + sin_r * (np.outer(np.cos(t), u) + np.outer(np.sin(t), v))[0] for t in (t0, t1)]


def _over_norm(v):
    """``v`` divided by its norm, as ``unit_each`` divides each row: a near-zero norm raises ``ValueError``, a
    NaN one passes on (``unit`` refuses both)."""
    a = np.asarray(v, dtype=float)
    n = math.sqrt(a.dot(a))
    if n < DOT_EPS:
        raise ValueError("cannot normalize a near-zero vector")
    return a / n


def great_arc_fields(start, end):
    """The ``ArcStack`` row of the great arc from ``start`` to ``end``, in scalar Python; its vectors are
    normalised as ``great_arc_stack`` normalises them (``_over_norm``)."""
    s, e = _over_norm(start), _over_norm(end)
    c = dot(s, e)
    if abs(c) >= 1.0 - DOT_EPS:
        raise DegenerateArc("great arc endpoints equal or antipodal")
    length = math.acos(min(1.0, max(-1.0, c)))
    return dict(
        z=_over_norm(cross(s, e)), u=s, v=_over_norm(e - c * s), start=s, end=e,
        radius=0.5 * math.pi, cos_r=0.0, sin_r=1.0, t0=0.0, t1=length, span=length - 0.0,
    )


def small_arc_fields(center, radius, az_from, az_to):
    """The ``ArcStack`` row of the small-circle arc, in scalar Python.

    The centre normalised, its canonical frame, ``math``'s cosine and sine
    of the radius, the start azimuth reduced into [0, 2 pi) and the span
    clipped to 2 pi.
    """
    z, r = unit(center), float(radius)
    if not (DOT_EPS < r < math.pi / 2 - DOT_EPS):
        raise ValueError("small circle radius must lie strictly in (0, pi/2)")
    span = az_to - az_from
    if not (DOT_EPS < span <= TWO_PI + DOT_EPS):
        raise ValueError("azimuth span must lie in (0, 2*pi]")
    a0 = math.fmod(az_from, TWO_PI)
    a0 = a0 + TWO_PI if a0 < 0 else a0
    a1 = a0 + min(span, TWO_PI)
    u, v = _tangent_basis_scalar(z)
    start, end = _ends(z, math.cos(r), math.sin(r), u, v, a0, a1)
    return dict(
        z=z, u=u, v=v, start=start, end=end, radius=r, cos_r=math.cos(r), sin_r=math.sin(r), t0=a0, t1=a1, span=a1 - a0
    )


# ------------------------------------------------ per-piece curved edits


def polar_dual_per_piece(body):
    """``body.polar_dual`` of a valid body with small-circle arcs, piece by piece.

    Piece i gives ``SmallCircleArc(Z, pi/2 - r, az_from + pi, az_to + pi)``
    when it is a small-circle arc, then ``GreatArc(k_end, k_next)`` when
    junction i is a corner.
    """
    k_end, k_next, _, corner = body.junction_poles
    out = []
    for p, k0, k1, c in zip(body.pieces, k_end, k_next, corner):
        if isinstance(p, SmallCircleArc):
            out.append(SmallCircleArc(p.center, 0.5 * math.pi - p.radius, p.az_from + math.pi, p.az_to + math.pi))
        if c:
            out.append(GreatArc(k0, k1))
    return chain_body(stack_arcs(out))


def rotated_per_piece(body, rot):
    """``generators.rotated`` of a body that is not a ``Polytope``, piece by piece.

    A great arc is rebuilt from its rotated ends; a small-circle arc about
    its rotated centre, re-anchored at the azimuth of its rotated start in
    the new centre's canonical frame.
    """
    pieces = []
    for p in body.pieces:
        if isinstance(p, GreatArc):
            pieces.append(GreatArc(rot @ p.start, rot @ p.end))
        else:
            z = rot @ p.center
            a0 = float(SmallCircleArc(z, p.radius, 0.0, TWO_PI).azimuth_of(rot @ p.start))
            pieces.append(SmallCircleArc(z, p.radius, a0, a0 + p.span))
    return ConvexBody(pieces, rot @ body.interior)


def _support_dot_roots(piece, x):
    """Interior azimuths, from the start, where the support pole of the small-circle piece is orthogonal to x."""
    xu, xv = dot(x, piece.u), dot(x, piece.v)
    rho = math.hypot(xu, xv)
    if rho < 1e-15:
        return []
    m = math.tan(piece.radius) * dot(piece.center, x) / rho
    if abs(m) > 1.0:
        return []
    phi0, off = math.atan2(xv, xu), math.acos(m)
    rel = [(az - piece.az_from) % TWO_PI for az in (phi0 + off, phi0 - off)]
    return sorted(r for r in rel if 1e-9 < r < piece.span - 1e-9)


def _sub_piece(piece, lo, hi):
    """The piece over the parameters [lo, hi], or None when shorter than 1e-9 or, for a great arc, degenerate."""
    if hi - lo <= 1e-9:
        return None
    if isinstance(piece, SmallCircleArc):
        return SmallCircleArc(piece.center, piece.radius, lo, hi)
    p0, p1 = piece.point_at(lo)[0], piece.point_at(hi)[0]
    return None if abs(dot(p0, p1)) >= 1.0 - DOT_EPS else GreatArc(p0, p1)


def merge_flat_junctions_per_piece(pieces):
    """Merge two great arcs on one supporting circle, one junction at a time, until none is left.

    A junction is flat when the poles differ by at most ``POLE_MERGE_EPS``
    and the lengths sum below pi - 1e-9; the merged arc runs from the first
    start to the second end, and goes first when it spans the end of the chain.
    """
    changed = True
    while changed and len(pieces) > 2:
        changed = False
        for i in range(len(pieces)):
            j = (i + 1) % len(pieces)
            a, b = pieces[i], pieces[j]
            if not (isinstance(a, GreatArc) and isinstance(b, GreatArc)):
                continue
            if chord_distance(a.pole, b.pole) > POLE_MERGE_EPS or a.length + b.length >= math.pi - 1e-9:
                continue
            merged = GreatArc(a.start, b.end)
            pieces = pieces[:i] + [merged] + pieces[j + 1 :] if j > i else [merged] + pieces[1:i]
            changed = True
            break
    return pieces


def hull_per_piece(body, x):
    """``generators.convex_hull_with_point`` of any body and the unit point ``x``, piece by piece.

    Every small-circle piece is split at the roots of K(t) . x, each
    segment judged visible (x . K < 0) at its mid-parameter; the one visible
    run gives way to the two tangent great arcs, and flat junctions are
    merged one at a time.
    """
    segments = []  # (segment, visible)
    for piece in body.pieces:
        cuts = [0.0] + (_support_dot_roots(piece, x) if isinstance(piece, SmallCircleArc) else []) + [piece.span]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            seg = _sub_piece(piece, piece.t0 + lo, piece.t0 + hi)
            if seg is not None:
                segments.append((seg, dot(piece.support_pole_at(piece.t0 + 0.5 * (lo + hi))[0], x) < 0.0))
    m = len(segments)
    if all(vis for _, vis in segments):
        raise ValueError("point sees the whole boundary; body is degenerate")
    if not any(vis for _, vis in segments):
        return body
    k = next(i for i, (_, vis) in enumerate(segments) if not vis)
    segments = segments[k:] + segments[:k]
    flips = [i for i in range(m) if segments[i][1] != segments[(i + 1) % m][1]]
    if len(flips) != 2:
        raise ValueError("visible region is not a single arc (%d flips)" % len(flips))
    enter, leave = flips  # visibility turns on after `enter`, off after `leave`
    t_in, t_out = segments[enter][0].end, segments[(leave + 1) % m][0].start
    pieces = [seg for seg, _ in segments[: enter + 1]] + [GreatArc(t_in, x), GreatArc(x, t_out)]
    pieces += [seg for seg, _ in segments[leave + 1 :]]
    return chain_body(stack_arcs(merge_flat_junctions_per_piece(pieces)))


# ------------------------------------------------------- per-segment render


def _conjugate_frame(piece, a, b):
    """2D center and conjugate radii of the orthographic piece image."""
    c2 = piece.cos_r * np.array([piece.z @ a, piece.z @ b])
    e = piece.sin_r * np.array([piece.u @ a, piece.u @ b])
    f = piece.sin_r * np.array([piece.v @ a, piece.v @ b])
    return c2, e, f


def _ellipse_axes(e, f):
    """Semi-axes and rotation of the ellipse with conjugate radii e, f."""
    uu, ss, _ = np.linalg.svd(np.column_stack([e, f]))
    theta = math.degrees(math.atan2(uu[1, 0], uu[0, 0]))
    return float(ss[0]), float(ss[1]), theta


def _sweep_flag(p0, pm, p1):
    turn = (pm[0] - p0[0]) * (p1[1] - pm[1]) - (pm[1] - p0[1]) * (p1[0] - pm[0])
    return 1 if turn > 0 else 0


def _fmt(x: float) -> str:
    """One number of a path command, formatted on its own."""
    return format(float(x), ".9g")


def _ortho_segment(piece, t0, t1, a, b, frame):
    c2, e, f = _conjugate_frame(piece, a, b)
    q0 = c2 + math.cos(t0) * e + math.sin(t0) * f
    qm = c2 + math.cos(0.5 * (t0 + t1)) * e + math.sin(0.5 * (t0 + t1)) * f
    q1 = c2 + math.cos(t1) * e + math.sin(t1) * f
    p0, pm, p1 = frame.to_px(np.vstack([q0, qm, q1]))
    rx, ry, theta = _ellipse_axes(e, f)
    rx *= frame.scale
    ry *= frame.scale
    if ry < 1e-9 * max(rx, 1.0):
        return "L %s %s" % (_fmt(p1[0]), _fmt(p1[1]))
    return "A %s %s %s 0 %d %s %s" % (
        _fmt(rx), _fmt(ry), _fmt(-theta), _sweep_flag(p0, pm, p1), _fmt(p1[0]), _fmt(p1[1])
    )


def _stereo_point(x, v, a, b):
    w = 1.0 + float(x @ v)
    return np.array([float(x @ a), float(x @ b)]) / w


def _stereo_segment(piece, t0, t1, v, a, b, frame):
    fn = piece.point_at
    q0 = _stereo_point(fn(t0)[0], v, a, b)
    qm = _stereo_point(fn(0.5 * (t0 + t1))[0], v, a, b)
    q1 = _stereo_point(fn(t1)[0], v, a, b)
    p0, pm, p1 = frame.to_px(np.vstack([q0, qm, q1]))
    ax, ay = p0
    bx, by = pm
    cx, cy = p1
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-9:
        return "L %s %s" % (_fmt(p1[0]), _fmt(p1[1]))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    r = math.hypot(ax - ux, ay - uy)
    if r > 1e7:
        return "L %s %s" % (_fmt(p1[0]), _fmt(p1[1]))
    return "A %s %s 0 0 %d %s %s" % (_fmt(r), _fmt(r), _sweep_flag(p0, pm, p1), _fmt(p1[0]), _fmt(p1[1]))


def render_svg_per_segment(bodies, projection="orthographic", view=None):
    """``render.render_svg`` one piece and one segment at a time, on the piece objects.

    The frame is the box of the pieces' ``render.projected_box`` boxes, each
    taken on its one-row stack, so this checks the path commands.  Each
    piece is split by ``np.linspace`` into ceil(span / ``MAX_SEG_SPAN``)
    segments, and each segment is projected on its own: an orthographic
    ellipse arc from the conjugate radii and the SVD of one 2 x 2 matrix, or
    a stereographic circumcircle through three projected points.
    """
    if view is None:
        view = np.mean([body.interior for body in bodies], axis=0)
    v = unit(np.asarray(view, dtype=float))
    a, b = tangent_basis(v)
    boxes = [projected_box(body.arcs[i : i + 1], v, a, b, projection == "stereographic") for body in bodies for i in range(len(body.arcs))]
    frame = _Frame(np.min([lo for lo, _ in boxes], axis=0), np.max([hi for _, hi in boxes], axis=0))
    paths = []
    for k, body in enumerate(bodies):
        start = body.pieces[0].start
        if projection == "orthographic":
            p0 = frame.to_px([[start @ a, start @ b]])[0]
        else:
            p0 = frame.to_px(_stereo_point(start, v, a, b))[0]
        cmds = ["M %s %s" % (_fmt(p0[0]), _fmt(p0[1]))]
        for piece in body.pieces:
            n = max(1, int(math.ceil(piece.span / MAX_SEG_SPAN)))
            ts = np.linspace(piece.t0, piece.t1, n + 1)
            for t0, t1 in zip(ts[:-1], ts[1:]):
                if projection == "orthographic":
                    cmds.append(_ortho_segment(piece, t0, t1, a, b, frame))
                else:
                    cmds.append(_stereo_segment(piece, t0, t1, v, a, b, frame))
        cmds.append("Z")
        paths.append(
            '<path d="%s" fill="none" stroke="%s" stroke-width="2"/>' % (" ".join(cmds), STROKES[k % len(STROKES)])
        )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="0 0 1000 1000">\n' + "\n".join(paths) + "\n</svg>\n"
    )


# ------------------------------------------------- per-value references


def math_each_per_row(f, *columns):
    """``sphere.math_each`` as a Python loop: ``f`` called on the Python floats of one row at a time."""
    return np.array([f(*row) for row in zip(*(np.asarray(c, dtype=float).tolist() for c in columns))], dtype=float)


def _num(x):
    return format(float(x), ".17g")


def _vec(v):
    return "[%s]" % ",".join(_num(c) for c in v)


def dumps_body_per_number(body):
    """``formats.dumps_body`` with each number formatted on its own and each piece record joined from them."""
    if isinstance(body, Polytope):
        return '{"kind":"polytope","vertices":[%s]}' % ",".join(_vec(v) for v in body.vertices.tolist())
    a = body.arcs
    parts = []
    for great, start, end, z, r, t0, t1 in zip(
        a.great.tolist(), a.start.tolist(), a.end.tolist(), a.z.tolist(), a.radius.tolist(), a.t0.tolist(), a.t1.tolist()
    ):
        if great:
            parts.append('{"type":"great","from":%s,"to":%s}' % (_vec(start), _vec(end)))
        else:
            parts.append(
                '{"type":"circle","center":%s,"radius":%s,"az_from":%s,"az_to":%s}' % (_vec(z), _num(r), _num(t0), _num(t1))
            )
    return '{"kind":"pc-body","interior":%s,"pieces":[%s]}' % (_vec(body.interior), ",".join(parts))


def loads_body_per_record(text):
    """The body of a ``pc-body`` file built one piece object per record."""
    obj = json.loads(text)
    pieces = [
        GreatArc(rec["from"], rec["to"])
        if rec["type"] == "great"
        else SmallCircleArc(rec["center"], rec["radius"], rec["az_from"], rec["az_to"])
        for rec in obj["pieces"]
    ]
    return ConvexBody(pieces, obj["interior"])


def junction_poles_per_end(body):
    """``ConvexBody.junction_poles``'s k_end and k_next from ``support_pole_at`` of t1 and t0, one cos/sin round."""
    a = body.arcs
    k_end, k_start = a.support_pole_at(np.array([a.t1, a.t0]))
    return k_end, np.roll(k_start, -1, axis=0)


def validate_three_rounds(body):
    """The checks of ``body.validate``, each reading its own cosines and sines of t0 and t1.

    The pole integral and the junction poles (``junction_poles_per_end``),
    whose end poles the support-orientation range reads, each take a fresh
    ``np.cos``/``np.sin`` round, as the stacked ``validate`` did before each
    stack kept one (``ArcStack.end_trig``).  The hemisphere and support
    ranges take their end values from one product of the candidates with
    the arcs' ends and end poles, and their inner extremes from one atan2.
    """
    try:
        a = body.arcs
    except DegenerateArc:
        return [ValidationCheck("edges-nondegenerate", False, 1.0)]
    n = len(a)
    checks = [ValidationCheck("piece-count", n >= 1, float(max(0, 1 - n)))]
    if n == 0:
        return checks
    gap = float(np.linalg.norm(a.end - np.roll(a.start, -1, axis=0), axis=1).max())
    checks.append(ValidationCheck("closure", gap <= BOUNDARY_EPS, gap))

    ring = (np.sin(a.t1) - np.sin(a.t0))[:, None] * a.u + (np.cos(a.t0) - np.cos(a.t1))[:, None] * a.v
    pole_sum = ((a.sin_r * a.span)[:, None] * a.z - a.cos_r[:, None] * ring).sum(axis=0)
    w = body.interior
    candidates = np.array([w, unit(pole_sum)]) if np.linalg.norm(pole_sum) > DOT_EPS else w[None]
    k_end, k_next = junction_poles_per_end(body)
    dots = np.stack((a.u, a.v, a.z, a.start, a.end, np.roll(k_next, 1, axis=0), k_end)) @ candidates.T
    ku, kv, kz = dots[:3]
    amp, rel = np.hypot(ku, kv), np.arctan2(kv, ku) - a.t0[:, None]
    lo = np.where(wrap_angle(rel + math.pi) <= a.span[:, None], a.cos_r[:, None] * kz - a.sin_r[:, None] * amp, np.inf)
    min_dot = float(np.minimum(np.minimum(dots[3], dots[4]), lo).min(axis=0).max())
    checks.append(ValidationCheck("hemispherical", min_dot >= -BOUNDARY_EPS, -min_dot))

    hi = np.where(wrap_angle(rel[:, 0]) <= a.span, a.sin_r * kz[:, 0] - a.cos_r * amp[:, 0], np.inf)
    worst_support = min(1.0, float(np.minimum(np.minimum(dots[5, :, 0], dots[6, :, 0]), hi).min()))
    checks.append(ValidationCheck("support-orientation", worst_support > DOT_EPS, -worst_support))

    turns = np.arctan2((cross_rows(k_end, k_next) * a.end).sum(axis=1), (k_end * k_next).sum(axis=1))
    min_turn, max_turn = float(turns.min()), float(turns.max())
    checks.append(ValidationCheck("convex-turns", min_turn >= -BOUNDARY_EPS, -min_turn))
    checks.append(ValidationCheck("corner-not-cusp", max_turn <= math.pi - 1e-9, max_turn))

    min_len = float((a.span * a.sin_r).min())
    checks.append(ValidationCheck("piece-nondegenerate", min_len > 1e-12, -min_len))

    pole_gap = np.linalg.norm(k_end - k_next, axis=1)
    great = a.great
    flat = float(pole_gap[great & np.roll(great, -1)].min(initial=np.inf))
    checks.append(ValidationCheck("no-redundant-vertices", flat > BOUNDARY_EPS, -flat))
    return checks


def rounded_reuleaux_per_piece(k, delta, center=(0.0, 0.0, 1.0)):
    """``generators.rounded_reuleaux`` built one ``SmallCircleArc`` at a time.

    Each pair of partner arcs about V_c is made from a probe circle about
    V_c, whose ``azimuth_of`` the two opposite vertices gives their span.
    """
    z = unit(center)
    m = (k - 1) // 2
    sin_rho = math.sqrt((1.0 - math.sin(2.0 * delta)) / (1.0 - math.cos(TWO_PI * m / k)))
    ring = SmallCircleArc(z, math.asin(sin_rho), 0.0, TWO_PI)
    verts = ring.point_at(TWO_PI * np.arange(k) / k)

    def partners(c):
        probe = SmallCircleArc(verts[c], delta, 0.0, TWO_PI)
        a0, a1 = probe.azimuth_of(verts[[(c + m) % k, (c + m + 1) % k]])
        span = (a1 - a0) % TWO_PI
        return (
            SmallCircleArc(verts[c], delta, a0 + math.pi, a0 + math.pi + span),
            SmallCircleArc(verts[c], 0.5 * math.pi - delta, a0, a0 + span),
        )

    pieces = []
    for i in range(k):
        pieces += [partners(i)[0], partners((i + m + 1) % k)[1]]
    return ConvexBody(pieces, z)


# ------------------------------------------------------------ pairing walk


def _rho(z: Vec, x: np.ndarray) -> np.ndarray:
    """Distance of each row of ``x`` from ``z``, in the atan2 form that stays exact near 0."""
    return np.arctan2(norm_rows(cross_rows(x, z)), x @ z)


def _angle(a: Vec, b: Vec) -> float:
    return 2.0 * math.asin(min(1.0, 0.5 * chord_distance(a, b)))


def _half_cosines(x: np.ndarray) -> float:
    """Least cos(l/2) over the segments of the polyline ``x``, |a + b| / 2 for unit ends a, b."""
    return 0.5 * float(np.min(norm_rows(x[:-1] + x[1:])))


def _locate_junction(poly: Polytope, p: Vec):
    """Where ``p`` sits on the boundary of ``poly``, within ``FIT_EPS``.

    Returns (2i, vertex i) for a vertex, (2i + 1, the foot of ``p``) inside
    edge i, its great circle within ``FIT_EPS`` of ``p``, or None.
    """
    v, w = poly.vertices, poly.arcs.z
    i = int(np.argmin(norm_rows(v - p)))
    if _angle(v[i], p) <= FIT_EPS:
        return 2 * i, v[i]
    for i in np.flatnonzero(np.abs(w @ p) <= math.sin(FIT_EPS)):
        if dot(cross(v[i], p), w[i]) > 0.0 and dot(cross(p, v[(i + 1) % len(v)]), w[i]) > 0.0:
            return 2 * i + 1, unit(p - dot(p, w[i]) * w[i])
    return None


def pairing_bound_per_unit(original: ConvexBody, result: Polytope) -> Optional[float]:
    """``approx.pairing_bound`` as one Python pass per unit: each unit's start located by its own ``argmin`` over
    the vertices and its own scan of the edges near it, then each unit's checks, branch by branch."""
    pairing = None if original.is_polytope() else run_pairing_or_none(original)
    if pairing is None or not pairing.chorded.any():
        return None
    a = pairing.arcs
    located = [_locate_junction(result, start) for start in a.start]
    if any(loc is None for loc in located):
        return None
    n = len(result)
    pos = np.array([loc[0] for loc in located])
    cut = np.append((pos - pos[0]) % (2 * n), 2 * n) + pos[0]
    if not np.all(np.diff(cut) > 0):
        return None
    m, half = 0.0, 1.0
    for k, (start, end) in enumerate(zip(a.start, a.end)):
        x_end = located[(k + 1) % len(a)][1]
        if not _angle(end, x_end) <= FIT_EPS:
            return None
        inner = result.vertices[np.arange(cut[k] // 2 + 1, (cut[k + 1] + 1) // 2) % n]
        half = min(half, _half_cosines(np.vstack([located[k][1], inner, x_end])))
        if pairing.partner[k] < 0:  # a great-arc piece
            if len(inner):
                return None
            continue
        z, r = a.z[k], float(a.radius[k])
        az = np.mod(np.mod(np.arctan2(inner @ a.v[k], inner @ a.u[k]), TWO_PI) - a.t0[k], TWO_PI)
        s = np.diff(np.concatenate([[0.0], az, [a.span[k]]]))
        if not pairing.chorded[k]:
            q = np.vstack([start, inner, end])
            rho = _rho(z, q)
            poles = unit_rows(cross_rows(q[:-1], q[1:]))
            touch = math.sin(r) * z + math.cos(r) * unit_rows(poles - np.outer(poles @ z, z))
            tilt = np.maximum(np.abs(np.sum(q[:-1] * touch, axis=1)), np.abs(np.sum(q[1:] * touch, axis=1)))
            if not (np.all((s > 0.0) & (s < math.pi)) and rho.max() < 0.5 * math.pi and tilt.max() <= math.sin(FIT_EPS)):
                return None
            m = max(m, float(rho.max()) - r)
            half = min(half, _half_cosines(q))
        else:
            off = np.abs(_rho(z, inner) - r)
            if not (np.all((s > 0.0) & (s <= math.pi)) and np.all(off <= FIT_EPS)):
                return None
            m = max(m, float(np.max(r - np.arctan(math.tan(r) * np.cos(0.5 * s)))))
    return m + 3.0 * math.asin(min(1.0, FIT_EPS / max(half, FIT_EPS)))

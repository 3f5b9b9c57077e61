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
and ``generators.convex_hull_with_point`` to roundoff.
"""

import json
import math

import numpy as np
from scipy.spatial import cKDTree

from spherewidth.approx import (
    SUBDIVISION_SAFETY,
    ApproximationConfig,
    StepRecord,
    _chord_count,
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
    to_polytope,
)
from spherewidth.errors import BudgetExhausted, DegenerateArc, DualOverlap
from spherewidth.formats import dumps_step
from spherewidth.generators import cap, complete_selfdual, rotated, rotation_from_seed
from spherewidth.render import MAX_SEG_SPAN, STROKES, _Frame, projected_box
from spherewidth.sphere import (
    BOUNDARY_EPS,
    DOT_EPS,
    TWO_PI,
    GreatArc,
    _dots,
    SmallCircleArc,
    acos_clamped_np,
    arc_pole,
    chord_distance,
    cross,
    cross_rows,
    dot,
    linspace_grid,
    sample_piece,
    sinusoid_range,
    stack_arcs,
    tangent_basis,
    unit,
    unit_rows,
    wrap_angle,
)


# Every this-many-th sample of a cloud forms the coarse sub-cloud that
# screens the nearest-neighbour queries of ``hausdorff_oracle``.
COARSE_STRIDE = 64


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
    n = np.array([_chord_count(r, s, target) for r, s in zip(radius, span)], dtype=int)
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
    return to_polytope(complete_selfdual(seed, tol=1e-7, rng_seed=rng_seed))


# ------------------------------------------------------ scalar piece rules


def _tangent_basis_scalar(z):
    k = int(np.argmin(np.abs(z)))
    axis = np.zeros(3)
    axis[k] = 1.0
    u = unit(axis - dot(axis, z) * z)
    return u, cross(z, u)


def _ends(z, cos_r, sin_r, u, v, t0, t1):
    return [cos_r * z + sin_r * (np.outer(np.cos(t), u) + np.outer(np.sin(t), v))[0] for t in (t0, t1)]


def great_arc_fields(start, end):
    """The ``ArcStack`` row of the great arc from ``start`` to ``end``, in scalar Python."""
    s, e = unit(start), unit(end)
    c = dot(s, e)
    if abs(c) >= 1.0 - DOT_EPS:
        raise DegenerateArc("great arc endpoints equal or antipodal")
    length = math.acos(min(1.0, max(-1.0, c)))
    return dict(
        z=unit(cross(s, e)), u=s, v=unit(e - c * s), start=s, end=e,
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


def length_weighted_counts_per_row(arcs, count):
    """``sphere.length_weighted_counts`` one piece at a time: Python's ``round`` of each share, at least four."""
    lengths = (arcs.span * arcs.sin_r).tolist()
    total = max(sum(lengths), 1e-12)
    return np.array([max(4, int(round(count * x / total))) for x in lengths])


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

    The pole integral, the hemisphere range, the support-orientation range
    and the junction poles (``junction_poles_per_end``) each take a fresh
    ``np.cos``/``np.sin`` round, as the stacked ``validate`` did before each
    stack kept one (``ArcStack.end_trig``).
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

    def trig():
        return np.array([np.cos(a.t0), np.cos(a.t1)]), np.array([np.sin(a.t0), np.sin(a.t1)])

    ring = (np.sin(a.t1) - np.sin(a.t0))[:, None] * a.u + (np.cos(a.t0) - np.cos(a.t1))[:, None] * a.v
    pole_sum = ((a.sin_r * a.span)[:, None] * a.z - a.cos_r[:, None] * ring).sum(axis=0)
    w = body.interior
    candidates = np.array([w, unit(pole_sum)]) if np.linalg.norm(pole_sum) > DOT_EPS else w[None]
    k = candidates[:, None]
    lo = sinusoid_range((a.u * k).sum(axis=-1), (a.v * k).sum(axis=-1), a.t0, a.t1, *trig())[0]
    lo = a.cos_r * (a.z * k).sum(axis=-1) + a.sin_r * lo
    min_dot = float(lo.min(axis=1).max())
    checks.append(ValidationCheck("hemispherical", min_dot >= -BOUNDARY_EPS, -min_dot))

    x = w[None]
    support = a.sin_r * _dots(x, a.z)
    if not a.great.all():
        support = support - a.cos_r * sinusoid_range(_dots(x, a.u), _dots(x, a.v), a.t0, a.t1, *trig())[1]
    worst_support = min(1.0, float(support.min()))
    checks.append(ValidationCheck("support-orientation", worst_support > DOT_EPS, -worst_support))

    k_end, k_next = junction_poles_per_end(body)
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

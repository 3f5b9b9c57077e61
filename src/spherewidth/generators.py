"""Constructors for test bodies: exact fixtures and randomized self-dual bodies.

The completion generator grows a body C with C inside its polar dual toward
a self-dual (constant width pi/2) body: adding a point x of the dual keeps
the invariant, because the hull of C and x is contained in the dual of that
hull.  The dual points farthest from C are the ends of the dual's diametral
pairs, at distance diam C* - pi/2, which is also H(C, C*); so each round
inserts an end of the dual's diameter (``metrics.farthest_pair``), exactly,
with nothing sampled and no random number drawn, and the residual gap is
known exactly at every stop.

The completion of a polytope stays a polygon: each hull insertion works on
its vertex array and cached edge poles and returns a ``Polytope``, with no
``GreatArc`` objects.  The completion stops on the O(n) bound rho each body
measures once (``ConvexBody.residual_bound``), or on the dual's diameter.  A
body with small-circle arcs is grown on one table of segments of its
stacked arcs, each arc split where the visibility from x flips; ``rotated``
also turns the stack rows, not piece objects.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import BadRadius, BudgetExhausted, InvalidBody, NotSelfDual, SeedNotSubdual
from .sphere import (
    BOUNDARY_EPS,
    TWO_PI,
    ArcStack,
    Vec,
    great_arc_stack,
    join_stacks,
    math_each,
    row_dots,
    small_arc_stack,
    tangent_frames,
    unit,
    unit_each,
)
from .body import (
    SELF_DUAL_EPS,
    ConvexBody,
    Polytope,
    chain_body,
    drop_flat_vertices,
    merge_flat,
    polar_dual,
    require_valid,
    to_polytope,
    validate_polytope,
)
from .metrics import diameter, farthest_pair
from .approx import SUBDIVISION_SAFETY, chord_core

# Insertions before the completion gives up; each inserts an end of the
# dual's diameter, a point of the dual farthest from the body.
MAX_INSERTIONS = 10_000


def octant() -> Polytope:
    """The canonical self-dual polytope with vertices e1, e2, e3."""
    return Polytope(np.eye(3))


def cap(center: Vec, radius: float, azimuth: float = 0.0) -> ConvexBody:
    """Spherical cap as a single full-circle boundary piece, starting at ``azimuth`` of its centre's frame.

    Self-dual exactly when radius is pi/4.
    """
    if not (0.0 < radius < 0.5 * math.pi):
        raise BadRadius("cap radius must lie in (0, pi/2)")
    z = unit(center)
    return chain_body(small_arc_stack(z, [radius], [azimuth], [azimuth + TWO_PI]), z)


def rotation_from_seed(seed: int) -> np.ndarray:
    """Deterministic uniform-ish random rotation matrix."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def rotated(b: ConvexBody, rot: np.ndarray) -> ConvexBody:
    """Apply a rotation matrix to a body or polytope.

    A polytope turns its vertices, any other body its stack rows: a great arc
    is rebuilt from its turned ends, a small circle about its turned centre
    in that centre's ``tangent_basis`` frame, from the azimuth of its turned start.
    """
    if isinstance(b, Polytope):
        return Polytope(b.vertices @ rot.T)
    a = b.arcs
    z, start, end = np.matmul(rot, np.stack([a.z, a.start, a.end])[..., None])[..., 0]  # rot @ row, bit for bit
    g = a.great
    arcs = join_stacks(
        great_arc_stack(start[g], end[g]),
        _turned_circles(z[~g], start[~g], a.radius[~g], a.span[~g]),
        keys=[np.flatnonzero(g), np.flatnonzero(~g)],
    )
    return chain_body(arcs, rot @ b.interior)


def _turned_circles(z: np.ndarray, start: np.ndarray, radius, span) -> ArcStack:
    """The small-circle rows of ``rotated``: about each turned centre ``z``, from the azimuth of its turned
    ``start`` (``_turned_azimuths``), over ``span``."""
    a0 = _turned_azimuths(z, start)[1]
    return small_arc_stack(z, radius, a0, a0 + span)


def _turned_azimuths(z: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each centre ``z`` normalised, and the azimuth in [0, 2 pi] of ``start`` in that centre's ``tangent_basis`` frame."""
    z = unit_each(z)
    u, v = tangent_frames(z)
    return z, np.mod(np.arctan2(row_dots(start, v), row_dots(start, u)), TWO_PI)


def rounded_reuleaux(k: int, delta: float, center: Vec = (0.0, 0.0, 1.0)) -> ConvexBody:
    """Outer parallel body, at ``delta``, of the regular Reuleaux k-gon of width pi/2 - 2 delta.

    ``k`` is odd and at least 3, and 0 < ``delta`` < pi/4.  The vertices V_i
    of the Reuleaux polygon sit at azimuths 2 pi i / k about ``center``.
    About each V_i the boundary has an arc of radius pi/2 - delta, spanning
    the directions of the two opposite vertices, and an arc of radius
    delta, spanning the reverse directions.  The two are partners (the same
    span shifted by pi, radii summing to pi/2), so the body has constant
    width pi/2.  Every arc runs counterclockwise about its own centre.  The
    2k arcs are built as one ``small_arc_stack``.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("k must be odd and at least 3")
    if not 0.0 < delta < 0.25 * math.pi:
        raise BadRadius("delta must lie in (0, pi/4)")
    z = unit(center)
    m = (k - 1) // 2
    # V_i is the width pi/2 - 2 delta from the opposite V_{i+m}
    sin_rho = math.sqrt((1.0 - math.sin(2.0 * delta)) / (1.0 - math.cos(TWO_PI * m / k)))
    ring = small_arc_stack(z[None], [math.asin(sin_rho)], [0.0], [TWO_PI])
    verts = ring.point_at(TWO_PI * np.arange(k) / k)
    # the azimuths a0, a1 of the opposite vertices V_{i+m}, V_{i+m+1} about each V_i,
    # in V_i's canonical frame, each pair one (2, 3) @ (3,) product as on one arc
    u, v = tangent_frames(unit_each(verts))
    i = np.arange(k)
    opposite = verts[np.column_stack([(i + m) % k, (i + m + 1) % k])]
    az = np.mod(np.arctan2(np.matmul(opposite, v[:, :, None])[..., 0], np.matmul(opposite, u[:, :, None])[..., 0]), TWO_PI)
    a0, span = az[:, 0], np.mod(az[:, 1] - az[:, 0], TWO_PI)
    # the rounded corner at V_i, of radius delta over the reverse directions
    # [a0 + pi, a0 + pi + span], then the side about V_j, j = i + m + 1, of
    # radius pi/2 - delta over [a0_j, a0_j + span_j]
    j = (i + m + 1) % k
    corner_from, side_from = a0 + math.pi, a0[j]
    arcs = small_arc_stack(
        np.column_stack([verts, verts[j]]).reshape(-1, 3),
        np.tile([delta, 0.5 * math.pi - delta], k),
        np.column_stack([corner_from, side_from]).ravel(),
        np.column_stack([corner_from + span, side_from + span[j]]).ravel(),
    )
    return chain_body(arcs, z)


# ------------------------------------------------------------ hull insertion


def convex_hull_with_point(body: ConvexBody, x: Vec) -> ConvexBody:
    """Spherical convex hull of the body and one exterior point.

    The boundary chunk visible from ``x`` (support pole dotted with x below
    zero) is one contiguous arc; it is replaced by the two tangent great arcs
    through ``x``.  A body bounded by great arcs gives a ``Polytope``
    (``_polygon_hull``), any other the chain of ``_arc_hull``.  Returns the
    body itself when ``x`` sees none of it.
    """
    x = unit(x)
    if body.is_polytope():
        return _polygon_hull(to_polytope(body), x)
    return _arc_hull(body, x)


def _visible_run(vis: np.ndarray) -> Optional[tuple[int, int, int]]:
    """The first hidden segment h of a closed chain with visibility ``vis``, and the first and last visible
    segments of the chain rolled to start at h; None when none is visible.  Raises ``ValueError`` when all
    are, or when the visible ones are not one run."""
    if vis.all():
        raise ValueError("point sees the whole boundary; body is degenerate")
    if not vis.any():
        return None
    h = int(np.argmin(vis))
    run = np.flatnonzero(np.roll(vis, -h))
    if run[-1] - run[0] + 1 != len(run):
        flips = np.count_nonzero(vis != np.roll(vis, 1))
        raise ValueError("visible region is not a single arc (%d flips)" % flips)
    return h, int(run[0]), int(run[-1])


def _polygon_hull(poly: Polytope, x: Vec) -> Polytope:
    """``convex_hull_with_point`` of a polytope, on its vertex array.

    Edge i, from vertex i to vertex i + 1, is visible when its cached pole K
    has K . x < 0, evaluated in the order of ``dot``.  The inner vertices of
    the visible run give way to ``x``, and the flat junctions this leaves
    are dropped (``body.drop_flat_vertices``).  The chain starts at the
    edge that holds the first hidden edge, as ``_arc_hull``'s does: at its
    first vertex, or at the one before when a flat junction went there.
    """
    z = poly.arcs.z
    run = _visible_run(z[:, 0] * x[0] + z[:, 1] * x[1] + z[:, 2] * x[2] < 0.0)
    if run is None:
        return poly
    first_hidden, enter, leave = run  # enter and leave: the first and the last visible edge
    v = np.roll(poly.vertices, -first_hidden, axis=0)
    # each kept vertex normalised twice and x once more, the bits completions have always had
    w = np.vstack([unit_each(unit_each(v[: enter + 1])), unit(x), unit_each(unit_each(v[leave + 1 :]))])
    kept = drop_flat_vertices(w)
    return Polytope(kept if np.array_equal(kept[0], w[0]) else np.roll(kept, 1, axis=0))


def _arc_hull(body: ConvexBody, x: Vec) -> ConvexBody:
    """``convex_hull_with_point`` of any body, on one table of segments of its stacked arcs.

    Each small-circle row is cut where x . K(t) = sin r (z . x) -
    cos r (x_u cos t + x_v sin t) vanishes, at atan2(x_v, x_u) +-
    acos(tan r (z . x) / hypot(x_u, x_v)) (in ``math``, ``math_each``), more
    than 1e-9 inside the span.  Each segment is visible (x . K < 0) or hidden
    as a whole, judged at its mid-parameter; segments of span 1e-9 or less
    go (a great arc is never that short).  The visible run gives way to the two
    tangent great arcs through ``x``, flat junctions are merged
    (``body.merge_flat``), and the chain starts at the first hidden segment.
    """
    a = body.arcs
    n = len(a)
    great = a.great
    xu, xv, zx = (w[:, 0] * x[0] + w[:, 1] * x[1] + w[:, 2] * x[2] for w in (a.u, a.v, a.z))
    rho = math_each(math.hypot, xu, xv)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = math_each(math.tan, a.radius) * zx / rho
    cut = ~great & (rho >= 1e-15) & (np.abs(m) <= 1.0)
    off = math_each(math.acos, np.where(cut, m, 1.0))
    rel = np.mod(math_each(math.atan2, xv, xu)[:, None] + np.outer(off, [1.0, -1.0]) - a.t0[:, None], TWO_PI)
    root = cut[:, None] & (rel > 1e-9) & (rel < a.span[:, None] - 1e-9)
    # the cuts of row i: 0, its roots in order, its span (a missing root is the span again)
    cuts = np.column_stack([np.zeros(n), np.sort(np.where(root, rel, a.span[:, None]), axis=1), a.span])
    row, lo, hi = np.repeat(np.arange(n), 3), cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    keep = hi - lo > 1e-9
    row, lo, hi = row[keep], lo[keep], hi[keep]
    seg = a[row]
    k = seg.support_pole_at(seg.t0 + 0.5 * (lo + hi))
    run = _visible_run(k[:, 0] * x[0] + k[:, 1] * x[1] + k[:, 2] * x[2] < 0.0)
    if run is None:
        return body  # x adds nothing (inside or on a supporting circle)
    h, enter, leave = run
    g = great[row]
    p0, p1 = seg.point_at(np.array([seg.t0 + lo, seg.t0 + hi]))
    segs = join_stacks(
        great_arc_stack(p0[g], p1[g]),
        small_arc_stack(seg.z[~g], seg.radius[~g], seg.t0[~g] + lo[~g], seg.t0[~g] + hi[~g]),
        keys=[np.flatnonzero(g), np.flatnonzero(~g)],
    )[np.roll(np.arange(len(g)), -h)]
    tangents = great_arc_stack(np.array([segs.end[enter - 1], x]), np.array([x, segs.start[(leave + 1) % len(segs)]]))
    return chain_body(merge_flat(join_stacks(segs[:enter], tangents, segs[leave + 1 :])))


# ------------------------------------------------------------- completion


def complete_selfdual(seed: ConvexBody, tol: float) -> ConvexBody:
    """Grow a sub-dual body into a self-dual one by inserting an end of its dual's diameter.

    The seed must satisfy seed inside seed-dual (equivalently diameter at
    most pi/2).  Each round returns the body when its proved bound
    rho >= H(body, dual) (``ConvexBody.residual_bound``, kept on the body)
    is within tolerance.  Otherwise it takes the diameter D of the dual P*
    and a pair attaining it (``metrics.farthest_pair``): for P inside P*
    the points of P* farthest from P are the ends of such pairs, at
    D - pi/2 = H(P, P*).  The round returns the body when that is within
    tolerance, else inserts one end: an arc end of P* before a point inside
    a dual arc, whose circle would stay on both sides of the cut (cap seeds
    of radius 0.5-0.75 take 3-7 insertions; the nearer end alone left gaps
    of about 1e-4 after 60), then the end nearer the body's witness, then
    the first.  Nothing is sampled and no random number is drawn.  Raises
    ``BudgetExhausted`` with the partial body if the budget runs out.
    """
    body = seed
    require_valid(body)
    if diameter(body) > 0.5 * math.pi + BOUNDARY_EPS:
        raise SeedNotSubdual("seed diameter exceeds pi/2; seed is not inside its dual")
    for _ in range(MAX_INSERTIONS):
        # rho bounds H(body, dual): in O(n) for a polytope
        rho = body.residual_bound
        if rho is not None and rho <= 0.9 * tol:
            return body
        dual = polar_dual(body)
        d, x, y = farthest_pair(dual)
        # below 1e-12 the gap is roundoff, and no insertion can close it
        if d - 0.5 * math.pi <= max(0.9 * tol, 1e-12):
            return body
        ends = np.concatenate([dual.arcs.start, dual.arcs.end])
        w = body.interior
        rank = [(bool((ends == p).all(axis=1).any()), float(p @ w)) for p in (x, y)]
        body = convex_hull_with_point(body, x if rank[0] >= rank[1] else y)
    raise BudgetExhausted(
        "completion did not reach tol %.1e in %d insertions" % (tol, MAX_INSERTIONS),
        partial=body,
    )


# --------------------------------------------------------------- randomized


def random_subdual_polytope_seed(n_target: int, rng_seed: int) -> Polytope:
    """Random polytope contained in its own dual, with about n_target vertices.

    For ``n_target`` of 3 the seed is a rotated orthonormal triple (the
    minimal self-dual polytope).  Larger targets cut a rotated quarter-pi cap
    down to a polytope of roughly the requested size and delete one vertex;
    any subset of a self-dual body is sub-dual.  The cut is
    ``approx.chord_core`` on the cap circle's two half runs, the rows
    ``ConvexBody.run_pairing`` makes for a full circle, the first chorded
    and the second carrying the poles, so a seed builds no run pairing and
    no steps.  The halves start where the turned cap's row would, the
    row ``rotated`` makes (``_turned_azimuths``), with no cap row or cap
    body built.  The cut polytope goes uncertified: ``complete_selfdual``
    checks the seed.
    """
    if n_target < 3:
        raise ValueError("n_target must be at least 3")
    rot = rotation_from_seed(rng_seed)
    if n_target == 3:
        return Polytope(rot.T)
    # empirical size of the cap approximation: about 2.6 / sqrt(eps) vertices
    eps = min(1.2, max(0.004, (2.6 / max(2.5, n_target - 1.5)) ** 2))
    # the pi/4 cap about e3 and its start, at azimuth 0 of its frame (e1, e2), turned as ``rotated`` turns them
    r = 0.25 * math.pi
    z, start = np.matmul(rot, np.array([[[0.0, 0.0, 1.0]], [[math.sin(r), 0.0, math.cos(r)]]])[..., None])[..., 0]
    z, a0 = _turned_azimuths(z, start)
    # the start the turned cap's row takes: ``small_arc_stack`` reduces a0 by fmod, so an np.mod rounded up to 2 pi is 0
    t0 = float(np.fmod(a0[0], TWO_PI))
    lo = np.array([t0, t0 + math.pi])  # each half ends at lo + pi, as in the pairing's rows
    halves = small_arc_stack(z[[0, 0]], [r, r], lo, lo + math.pi)
    chords = chord_core(halves, np.array([True, False]), np.array([1, 0]), eps * SUBDIVISION_SAFETY)
    poly = Polytope(drop_flat_vertices(chords.vertices))
    if len(poly) <= 3:
        return poly
    rng = np.random.default_rng(rng_seed)
    drop = int(rng.integers(len(poly)))
    # Polytope normalises the kept rows a second time; the completion's outputs depend on these bits
    return Polytope(np.delete(poly.vertices, drop, axis=0))


def random_selfdual_polytope(n_target: int, rng_seed: int = 0) -> Polytope:
    """Random polytope of constant width pi/2, deterministic in the seed.

    The seed (``random_subdual_polytope_seed``) is the one random draw; the
    completion inserts ends of the dual's diameter and draws nothing.  The
    completion of a polytope seed stays a polytope; it is validated once,
    by the completion, and its constant width re-checked against
    ``SELF_DUAL_EPS`` on its ``residual_bound``: the bound the completion
    stopped on, measured on this read only when it stopped another way.
    """
    seed = random_subdual_polytope_seed(n_target, rng_seed)
    poly = to_polytope(complete_selfdual(seed, tol=1e-7))
    rep = validate_polytope(poly)
    if not rep.ok:
        raise InvalidBody("completion produced an invalid polytope: %s" % rep)
    rho = poly.residual_bound
    if rho > SELF_DUAL_EPS:
        raise NotSelfDual("completion residual bound %.3g exceeds %.1e" % (rho, SELF_DUAL_EPS))
    return poly

"""Approximation of constant-width-pi/2 bodies by constant-width polytopes.

The algorithm removes one strictly convex sub-arc at a time.  A chord P1-P2
replaces its circle sub-arc, and the matching dual sub-arc (the same span
shifted by pi on the paired circle of complementary radius) is replaced by
two great arcs through the new vertex R1, the pole of the chord.  Because
the edit is exactly the polar image of itself, self-duality is preserved to
roundoff at every step, and the set of remaining strictly convex arcs stays
closed under duality, so repeatedly consuming the first remaining arc
terminates in a polytope.

Each round works with a halved distance budget; a cut is admissible when its
new vertex sits closer to the body than the budget times a safety factor.

For a sub-arc of width s on the circle (Z, r), the right spherical triangle
Z-M-P1 gives tan m = tan r cos(s/2), M the chord midpoint at distance m from
Z, so the chord's sagitta is d(s) = r - atan(tan r cos(s/2)).  The new
vertex R1 lies at pi/2 - m from Z on the dual side, so while the dual
sub-arc (radius pi/2 - r) is intact, R1 sits d(s) outside it and d(s) is its
distance to the body; the subdivision solves d(s) < budget * safety for s
in closed form.  Where the dual sub-arc is not intact, ``cut_step`` raises
``DualOverlap`` and the piece waits for the next round.

The certificate never trusts the step chain: it re-measures the Hausdorff
distance on the final pair.  For a polytope output the width range and the
self-duality residual are proved upper-bound ends from its edge-pole/vertex
pairing (``body.selfdual_residual_bound``), in O(n); a curved result is
still measured by the width sweep of ``metrics.is_constant_width``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BudgetExhausted,
    CertificationFailed,
    DualOverlap,
    InvalidBody,
    NotConstantWidth,
    NotOnBoundary,
    NotSelfDual,
    NotStrictlyConvex,
)
from .sphere import (
    TWO_PI,
    GreatArc,
    SmallCircleArc,
    Vec,
    arc_pole,
    dot,
    unit,
)
from .body import (
    ConvexBody,
    Polytope,
    body_distance,
    boundary_distance_many,
    chain_body,
    merge_flat_junctions,
    require_valid,
    selfdual_residual_bound,
    to_polytope,
    validate_polytope,
)
from .metrics import hausdorff, is_constant_width


MAX_ROUNDS = 64  # rounds of halving budgets before ``BudgetExhausted``
SUBDIVISION_SAFETY = 0.5  # share of the round's budget the sagitta d(s) may use


@dataclass(frozen=True)
class ApproximationConfig:
    """The Hausdorff budget ``epsilon`` (certified against 2 * epsilon) and
    the tolerance ``self_dual_tol`` on widths and the self-duality residual."""

    epsilon: float
    self_dual_tol: float = 1e-6

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True, eq=False)
class StepRecord:
    """One primal/dual boundary edit."""

    p1: Vec
    p2: Vec
    q1: Vec
    q2: Vec
    r1: Vec
    primal_piece_id: int
    dual_piece_id: int
    r1_distance: float


@dataclass(frozen=True)
class Certificate:
    """Independently re-measured guarantees for an approximation output.

    ``hausdorff_bound`` is the refined Hausdorff distance to the input.  For
    a polytope output, ``width_min`` and ``width_max`` are the proved ends
    pi/2 -+ rho and ``self_duality_residual`` is rho, the upper bound on its
    distance to its polar dual from the edge-pole/vertex pairing; for a
    curved output all three come from the sampled width sweep.
    """

    epsilon: float
    hausdorff_bound: float
    width_min: float
    width_max: float
    self_duality_residual: float
    steps: int
    rounds: int


# ---------------------------------------------------------------- subdivide


def subdivide_piece(
    body: ConvexBody, piece_id: int, eps: float, safety: float = SUBDIVISION_SAFETY
) -> np.ndarray:
    """Subdivision points of a strictly convex piece for the budget ``eps``.

    Returns the points (endpoints included) of the fewest equal sub-arcs
    whose chord pole lies closer to the body than ``eps * safety``, the
    distance being the sagitta ``d(s)`` of the module docstring.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    piece = body.pieces[piece_id]
    if not isinstance(piece, SmallCircleArc):
        raise NotStrictlyConvex("piece %d is a great arc" % piece_id)
    target = eps * safety
    r = piece.radius
    span = piece.span
    # full circles need at least two sub-arcs (a single chord would close on
    # itself) and no sub-arc may exceed half the circle
    n = max(2 if piece.is_full else 1, int(math.ceil(span / math.pi - 1e-12)))
    if target < r:
        # d(s) < target exactly for widths s below s_max
        s_max = 2.0 * math.acos(math.tan(r - target) / math.tan(r))
        if span >= s_max * (1 << 22):
            raise ValueError("subdivision did not converge; eps too small")
        n = max(n, int(span / s_max) + 1)
    return piece.point_at(np.linspace(piece.az_from, piece.az_to, n + 1))


# ----------------------------------------------------------------- cut step


def _rel_azimuth(piece: SmallCircleArc, p: Vec, tol: float) -> Optional[float]:
    """Azimuth of ``p`` relative to the span start, or None if off the piece."""
    if float(np.linalg.norm(p - piece.point_at(piece.azimuth_of(p))[0])) > tol:
        return None
    rel = float(np.mod(piece.azimuth_of(p) - piece.az_from, TWO_PI))
    if rel >= TWO_PI - 1e-9:
        rel = 0.0
    if rel > piece.span + 1e-9:
        return None
    return min(rel, piece.span)


def _locate_chord(body: ConvexBody, p1: Vec, p2: Vec):
    for i in body.circle_piece_indices():
        piece = body.pieces[i]
        r1 = _rel_azimuth(piece, p1, 1e-9)
        r2 = _rel_azimuth(piece, p2, 1e-9)
        if r1 is None or r2 is None:
            continue
        if r1 < r2 - 1e-12:
            return i, r1, r2
    off = float(boundary_distance_many(body, np.vstack([p1, p2])).max())
    if off > 1e-9:
        raise NotOnBoundary("chord endpoint is %.3e from the boundary" % off)
    # points are on the boundary but the forward sub-arc is not circular
    # anymore: it was already cut away or split
    raise DualOverlap("sub-arc between the chord endpoints is no longer strictly convex")


def _find_dual_piece(body: ConvexBody, primal: SmallCircleArc, a1: float, a2: float):
    """Index of the circle piece holding the dual span [a1+pi, a2+pi]."""
    z = primal.center
    r_dual = 0.5 * math.pi - primal.radius
    fallback = None
    for j in body.circle_piece_indices():
        piece = body.pieces[j]
        if dot(piece.center, z) < 1.0 - 1e-12 or abs(piece.radius - r_dual) > 1e-9:
            continue
        fallback = j
        rel = float(np.mod(a1 + math.pi - piece.az_from, TWO_PI))
        if rel >= TWO_PI - 1e-9:
            rel = 0.0
        if rel <= piece.span + 1e-9 and rel + (a2 - a1) <= piece.span + 1e-9:
            return j, rel
    if fallback is None:
        raise NotSelfDual(
            "no circle piece of radius pi/2 - r about the same center; body is not self-dual"
        )
    raise DualOverlap("dual arc is not fully available; refine the subdivision")


def cut_step(body: ConvexBody, p1: Vec, p2: Vec) -> tuple[ConvexBody, StepRecord]:
    """Replace one strictly convex sub-arc by its chord, editing the dual side too.

    The sub-arc from ``p1`` to ``p2`` becomes the great arc P1-P2; the dual
    sub-arc (same span shifted by pi on the paired circle) becomes the two
    great arcs Q1-R1 and R1-Q2 through the chord pole R1.  The result is
    again self-dual to roundoff, and the total strictly convex arc length
    strictly decreases.
    """
    p1 = unit(p1)
    p2 = unit(p2)
    ip, rel1, rel2 = _locate_chord(body, p1, p2)
    primal = body.pieces[ip]
    gap = rel2 - rel1
    if gap > math.pi + 1e-12:
        # the minor great arc would pass on the wrong side of the circle
        raise DualOverlap("chord spans more than half the circle; refine the subdivision")
    a1 = primal.az_from + rel1
    a2 = primal.az_from + rel2
    jd, rel_d = _find_dual_piece(body, primal, a1, a2)
    dual = body.pieces[jd]
    if ip == jd:
        # self-paired piece: primal and dual sub-spans must not collide
        disjoint = rel_d >= rel2 - 1e-9 or rel_d + gap <= rel1 + 1e-9
        if not disjoint:
            raise DualOverlap("dual arc collides with the primal arc on a self-paired piece")

    q1 = dual.point_at(dual.az_from + rel_d)[0]
    q2 = dual.point_at(dual.az_from + rel_d + gap)[0]
    mid_dual = dual.point_at(dual.az_from + rel_d + 0.5 * gap)[0]
    r1 = arc_pole(p1, p2, mid_dual)
    r1_dist = body_distance(body, r1)

    def circle_part(piece, lo, hi):
        if hi - lo <= 1e-12:
            return []
        return [SmallCircleArc(piece.center, piece.radius, piece.az_from + lo, piece.az_from + hi)]

    chord = [GreatArc(p1, p2)]
    spike = [GreatArc(q1, r1), GreatArc(r1, q2)]

    new_pieces: list = []
    if ip == jd:
        # primal and dual sub-spans live on one piece, in either order
        if rel2 <= rel_d + 1e-9:
            segments = (
                circle_part(primal, 0.0, rel1)
                + chord
                + circle_part(primal, rel2, rel_d)
                + spike
                + circle_part(primal, rel_d + gap, primal.span)
            )
        else:
            segments = (
                circle_part(primal, 0.0, rel_d)
                + spike
                + circle_part(primal, rel_d + gap, rel1)
                + chord
                + circle_part(primal, rel2, primal.span)
            )
        for k, piece in enumerate(body.pieces):
            if k != ip:
                new_pieces.append(piece)
            else:
                new_pieces.extend(segments)
    else:
        for k, piece in enumerate(body.pieces):
            if k == ip:
                new_pieces.extend(circle_part(primal, 0.0, rel1))
                new_pieces.extend(chord)
                new_pieces.extend(circle_part(primal, rel2, primal.span))
            elif k == jd:
                new_pieces.extend(circle_part(dual, 0.0, rel_d))
                new_pieces.extend(spike)
                new_pieces.extend(circle_part(dual, rel_d + gap, dual.span))
            else:
                new_pieces.append(piece)

    new_pieces = merge_flat_junctions(new_pieces)
    out = chain_body(new_pieces)
    rec = StepRecord(
        p1=p1,
        p2=p2,
        q1=q1,
        q2=q2,
        r1=r1,
        primal_piece_id=ip,
        dual_piece_id=jd,
        r1_distance=r1_dist,
    )
    return out, rec


# ---------------------------------------------------------------- main loop


def approximate_polytope(
    body: ConvexBody, config: ApproximationConfig
) -> tuple[Polytope, Certificate, list[StepRecord]]:
    """Approximate a constant-width-pi/2 body by a polytope of the same width.

    Rounds k = 1, 2, ... use the budget epsilon / 2**(k-1).  Within a round
    the first remaining strictly convex piece is re-subdivided and its first
    sub-arc is cut, until no strictly convex piece remains; a ``DualOverlap``
    defers the piece to the next, finer round.  The measured Hausdorff
    distance between input and output is certified against 2 * epsilon.
    """
    # the gate validates the input, through polar_dual
    gate = is_constant_width(body, 0.5 * math.pi, config.self_dual_tol)
    if not gate.passed:
        raise NotConstantWidth(
            "input width range [%.9f, %.9f] is not pi/2 within %.1e"
            % (gate.width_min, gate.width_max, config.self_dual_tol)
        )
    steps: list[StepRecord] = []
    rounds = 0
    current = body
    for k in range(MAX_ROUNDS):
        if not current.circle_piece_indices():
            break
        rounds = k + 1
        budget = config.epsilon / (2.0**k)
        while True:
            idxs = current.circle_piece_indices()
            if not idxs:
                break
            pts = subdivide_piece(current, idxs[0], budget)
            try:
                current, rec = cut_step(current, pts[0], pts[1])
            except DualOverlap:
                break
            steps.append(rec)
            if len(steps) > 200_000:
                raise BudgetExhausted(
                    "step limit exceeded", partial=current, steps=steps
                )
    if current.circle_piece_indices():
        raise BudgetExhausted(
            "strictly convex arcs remain after %d rounds" % rounds,
            partial=current,
            steps=steps,
        )
    poly = to_polytope(current)
    cert = certify(body, poly, config, steps=len(steps), rounds=rounds)
    return poly, cert, steps


def certify(
    original: ConvexBody,
    result: ConvexBody,
    config: ApproximationConfig,
    steps: int = 0,
    rounds: int = 0,
) -> Certificate:
    """Re-measure every guarantee on the (input, output) pair from scratch.

    A ``Polytope`` result takes its width range and residual from
    ``selfdual_residual_bound``, any other result from the
    ``is_constant_width`` sweep.  Raises ``CertificationFailed`` naming the
    violated bound; never trusts the step chain that produced the result.
    """
    require_valid(original)
    if isinstance(result, Polytope):
        failed = validate_polytope(result).failed()
        if failed:
            raise InvalidBody("invalid polytope: " + ", ".join(failed))
        residual = selfdual_residual_bound(result)
        wmin, wmax = 0.5 * math.pi - residual, 0.5 * math.pi + residual
    else:
        # the width sweep validates the result, through polar_dual
        rep = is_constant_width(result, 0.5 * math.pi, config.self_dual_tol)
        wmin, wmax, residual = rep.width_min, rep.width_max, rep.self_duality_residual
    h = hausdorff(original, result)
    cert = Certificate(
        epsilon=config.epsilon,
        hausdorff_bound=h,
        width_min=wmin,
        width_max=wmax,
        self_duality_residual=residual,
        steps=steps,
        rounds=rounds,
    )
    if h > 2.0 * config.epsilon:
        raise CertificationFailed(
            "hausdorff %.6g exceeds 2*epsilon = %.6g" % (h, 2 * config.epsilon),
            bound="hausdorff_bound",
        )
    if abs(wmin - 0.5 * math.pi) > config.self_dual_tol or abs(
        wmax - 0.5 * math.pi
    ) > config.self_dual_tol:
        raise CertificationFailed(
            "width range [%.9f, %.9f] is not pi/2 within %.1e"
            % (wmin, wmax, config.self_dual_tol),
            bound="width_range",
        )
    if residual > config.self_dual_tol:
        raise CertificationFailed(
            "self-duality residual %.3g exceeds %.1e"
            % (residual, config.self_dual_tol),
            bound="self_duality_residual",
        )
    return cert

"""Hemispherical convex bodies with piecewise-circular boundaries.

A body is a closed cyclic chain of boundary pieces plus an interior witness
point.  Every piece is a circle arc in the one parametrisation of ``sphere``
(centre z, radius r, tangent frame, parameter range), a great arc being the
r = pi/2 case, so membership and boundary distance evaluate all pieces of a
body in one numpy expression over its stacked arrays (``ConvexBody.arcs``),
in blocks of at most ``BLOCK_ELEMENTS`` rows x pieces.  The chain is traversed
counterclockwise as seen from the interior side: at every smooth boundary
point P with unit tangent T, the support pole of the body is P x T.  Under
that convention polar duality maps pieces to pieces in traversal order:

* circle arc (Z, r < pi/2, span)  ->  circle arc (Z, pi/2 - r, span + pi)
* great arc (r = pi/2)            ->  its pole, as a dual vertex
* junction vertex                 ->  great arc between the adjacent poles

so the dual of a valid body is again a valid body and the double dual
reproduces the original representation exactly up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .errors import DegenerateArc, InvalidBody, NotOnBoundary, NotSelfDual
from .sphere import (
    BOUNDARY_EPS,
    DOT_EPS,
    TWO_PI,
    ArcStack,
    CircleArc,
    GreatArc,
    SmallCircleArc,
    Vec,
    acos_clamped_np,
    chord_distance,
    cross,
    distance_to_piece,
    dot,
    max_distance_to_piece,
    sample_piece,
    stack_arcs,
    unit,
    unit_rows,
    wrap_angle,
)

# Junction poles closer than this chord distance are treated as one smooth
# support pole.  Must sit above the GreatArc degeneracy floor (~1.4e-6, from
# the 1e-12 dot-product guard) so skipped junctions can never demand an arc
# too short to represent.
POLE_MERGE_EPS = 1e-5
# Default residual tolerance when an operation requires a self-dual body.
SELF_DUAL_EPS = 1e-6
# Rows x pieces evaluated per numpy expression by the batched kernels, which
# bounds their temporaries whatever the number of query points.
BLOCK_ELEMENTS = 8192


@dataclass(eq=False)
class ConvexBody:
    """Spherical convex body bounded by a closed chain of pieces."""

    pieces: list[CircleArc]
    interior: Vec

    def __post_init__(self):
        self.pieces = list(self.pieces)
        self.interior = unit(self.interior)

    def circle_piece_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.pieces) if isinstance(p, SmallCircleArc)]

    def is_polytope(self) -> bool:
        return not self.circle_piece_indices()

    @cached_property
    def arcs(self) -> ArcStack:
        """The pieces as stacked arrays; ``pieces`` must not change afterwards."""
        return stack_arcs(self.pieces)

    def boundary_samples(self, per_piece: int = 16) -> np.ndarray:
        return np.vstack([sample_piece(p, per_piece) for p in self.pieces])


@dataclass(eq=False)
class Polytope:
    """Convex body whose boundary consists of great arcs, stored by vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        norms = np.linalg.norm(v, axis=1)
        bad = np.flatnonzero(~np.isfinite(norms) | (norms < DOT_EPS))
        if len(bad):
            raise InvalidBody(
                "vertex rows with zero or non-finite norm: "
                + "; ".join("%d %s" % (i, v[i].tolist()) for i in bad)
            )
        self.vertices = unit_rows(v)

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[GreatArc]:
        v = self.vertices
        return [GreatArc(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def edge_poles(self) -> np.ndarray:
        return np.vstack([e.pole for e in self.edges()])

    def to_body(self) -> ConvexBody:
        return ConvexBody(self.edges(), unit(self.vertices.mean(axis=0)))


BodyLike = Union[ConvexBody, Polytope]


def as_body(b: BodyLike) -> ConvexBody:
    return b.to_body() if isinstance(b, Polytope) else b


def to_polytope(body: ConvexBody) -> Polytope:
    if not body.is_polytope():
        raise InvalidBody("body still has strictly convex pieces")
    return Polytope(np.vstack([p.start for p in body.pieces]))


def interior_witness(pieces: list[CircleArc]) -> Vec:
    """Normalized mean of boundary samples; interior for any valid chain."""
    pts = np.vstack([sample_piece(p, 5) for p in pieces])
    return unit(pts.mean(axis=0))


# ---------------------------------------------------------------- validation


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    checks: list[ValidationCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> float:
        return max((c.magnitude for c in self.checks), default=0.0)

    def failed(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def __str__(self) -> str:
        return "; ".join(
            "%s=%s(%.3e)" % (c.name, "ok" if c.passed else "FAIL", c.magnitude)
            for c in self.checks
        )


def validate(body: ConvexBody) -> ValidationReport:
    """Check the boundary-chain invariants and report each with its worst violation.

    Checks: piece count, chain closure, hemisphericity (the interior witness
    doubles as the certifying hemisphere pole, so it must be central enough
    to see the whole boundary at non-negative dot), support orientation
    (every support pole sees the witness strictly inside, which also forces
    small-circle arcs to bulge outward), junction convexity and piece
    non-degeneracy.  A body should only be used when all pass.
    """
    checks: list[ValidationCheck] = []
    pcs = body.pieces
    n = len(pcs)
    checks.append(ValidationCheck("piece-count", n >= 1, float(max(0, 1 - n))))
    if n == 0:
        return ValidationReport(checks)

    gap = 0.0
    for i, p in enumerate(pcs):
        q = pcs[(i + 1) % n]
        gap = max(gap, chord_distance(p.end, q.start))
    checks.append(ValidationCheck("closure", gap <= BOUNDARY_EPS, gap))

    w = body.interior
    samples = body.boundary_samples(16)
    # candidate hemisphere poles: the witness, and the mean support pole
    # (an interior point of the polar dual certifies containment exactly)
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
    checks.append(
        ValidationCheck("support-orientation", worst_support > DOT_EPS, -worst_support)
    )

    turns = []
    for i, p in enumerate(pcs):
        q = pcs[(i + 1) % n]
        t_in = p.tangent_at(p.t1)
        t_out = q.tangent_at(q.t0)
        turns.append(math.atan2(dot(cross(t_in, t_out), p.end), dot(t_in, t_out)))
    min_turn = min(turns)
    max_turn = max(turns)
    checks.append(ValidationCheck("convex-turns", min_turn >= -BOUNDARY_EPS, -min_turn))
    checks.append(
        ValidationCheck("corner-not-cusp", max_turn <= math.pi - 1e-9, max_turn)
    )

    min_len = min(p.length for p in pcs)
    checks.append(ValidationCheck("piece-nondegenerate", min_len > 1e-12, -min_len))
    return ValidationReport(checks)


def validate_polytope(poly: Polytope) -> ValidationReport:
    """Polytope-specific checks on top of the generic body validation."""
    checks = [
        ValidationCheck(
            "vertex-count", len(poly) >= 3, float(max(0, 3 - len(poly)))
        )
    ]
    if len(poly) >= 3:
        try:
            body = poly.to_body()
        except DegenerateArc:
            checks.append(ValidationCheck("edges-nondegenerate", False, 1.0))
            return ValidationReport(checks)
        checks.extend(validate(body).checks)
        poles = poly.edge_poles()
        sep = [
            chord_distance(poles[i], poles[(i + 1) % len(poles)])
            for i in range(len(poles))
        ]
        m = min(sep)
        checks.append(ValidationCheck("no-redundant-vertices", m > BOUNDARY_EPS, -m))
    return ValidationReport(checks)


def require_valid(body: ConvexBody):
    rep = validate(body)
    if not rep.ok:
        raise InvalidBody("invalid body: " + ", ".join(rep.failed()))


# -------------------------------------------------------------- membership


def _blocks(rows: int, pieces: int) -> list[tuple[slice, slice]]:
    """(rows, pieces) blocks of at most ``BLOCK_ELEMENTS`` elements, widest in pieces."""
    r = max(1, min(rows, BLOCK_ELEMENTS))
    k = max(1, BLOCK_ELEMENTS // r)
    return [
        (slice(i, i + r), slice(j, j + k))
        for i in range(0, rows, r)
        for j in range(0, pieces, k)
    ]


def _ray_first_hits(body: ConvexBody, points: np.ndarray) -> np.ndarray:
    """Distance from the witness to the first boundary crossing toward each point.

    The ray from the interior witness w through x crosses the boundary of a
    convex body exactly once on the way out; points are inside iff their
    distance from w does not exceed that crossing distance.  The ray
    q(t) = cos t w + sin t d meets the circle q . z = cos r where
    alpha cos t + beta sin t = cos r (alpha = w . z, beta = d . z), that is at
    t = atan2(beta, alpha) +- acos(cos r / rho) with rho = hypot(alpha, beta);
    cos t and sin t of both crossings, scaled by rho^2, are
    alpha cos r -+ beta s and beta cos r +- alpha s, s = sqrt(rho^2 - cos^2 r).
    """
    w = body.interior
    x = np.asarray(points, dtype=float)
    c = x @ w
    tang = x - np.outer(c, w)
    tn = np.linalg.norm(tang, axis=1)
    ok = tn > DOT_EPS
    dirs = np.where(ok[:, None], tang / np.where(ok, tn, 1.0)[:, None], 0.0)

    best = np.full(len(x), np.inf)
    for rows, cols in _blocks(len(x), len(body.pieces)):
        a = body.arcs[cols]
        d = dirs[rows]
        alpha, beta = a.z @ w, d @ a.z.T
        rho2 = alpha * alpha + beta * beta
        feas = np.sqrt(rho2) >= np.abs(a.cos_r) - 1e-15
        s = np.sqrt(np.maximum(rho2 - a.cos_r * a.cos_r, 0.0))
        wu, wv, du, dv = a.u @ w, a.v @ w, d @ a.u.T, d @ a.v.T
        for sign in (1.0, -1.0):
            ct = alpha * a.cos_r - sign * beta * s
            st = beta * a.cos_r + sign * alpha * s
            t = wrap_angle(np.arctan2(st, ct))
            rel = wrap_angle(np.arctan2(ct * wv + st * dv, ct * wu + st * du) - a.t0)
            hit = (
                feas
                & ((rel <= a.span + BOUNDARY_EPS) | (rel >= TWO_PI - BOUNDARY_EPS))
                & (t > 1e-12)
                & ok[rows, None]
            )
            best[rows] = np.minimum(best[rows], np.where(hit, t, np.inf).min(axis=1))
    return best


def contains_many(body: ConvexBody, points: np.ndarray, tol: float = BOUNDARY_EPS) -> np.ndarray:
    x = np.asarray(points, dtype=float)
    dist_w = acos_clamped_np(x @ body.interior)
    hits = _ray_first_hits(body, x)
    inside = dist_w <= hits + tol
    # Degenerate directions (point at the witness or its antipode).
    inside = np.where(dist_w < 1e-9, True, inside)
    inside = np.where(dist_w > math.pi - 1e-9, False, inside)
    # Rays that numerically missed every piece: decide by boundary distance.
    missed = ~np.isfinite(hits) & (dist_w >= 1e-9) & (dist_w <= math.pi - 1e-9)
    if np.any(missed):
        bd = boundary_distance_many(body, x[missed])
        inside[missed] = bd <= tol
    return inside


def contains(body: ConvexBody, p: Vec, tol: float = BOUNDARY_EPS) -> bool:
    return bool(contains_many(body, np.asarray(p, dtype=float)[None, :], tol)[0])


def _reduce_pieces(body: ConvexBody, points: np.ndarray, kernel, reduce, start: float) -> np.ndarray:
    """``reduce`` (``np.minimum`` or ``np.maximum``) of ``kernel`` over all pieces, per row."""
    x = np.asarray(points, dtype=float)
    d = np.full(len(x), start)
    for rows, cols in _blocks(len(x), len(body.pieces)):
        d[rows] = reduce(d[rows], reduce.reduce(kernel(x[rows], body.arcs[cols]), axis=1))
    return d


def boundary_distance_many(body: ConvexBody, points: np.ndarray) -> np.ndarray:
    return _reduce_pieces(body, points, distance_to_piece, np.minimum, np.inf)


def boundary_max_distance_many(body: ConvexBody, points: np.ndarray) -> np.ndarray:
    return _reduce_pieces(body, points, max_distance_to_piece, np.maximum, 0.0)


def body_distance_many(body: ConvexBody, points: np.ndarray, tol: float = BOUNDARY_EPS) -> np.ndarray:
    """Geodesic distance to the body (zero inside)."""
    x = np.asarray(points, dtype=float)
    d = boundary_distance_many(body, x)
    inside = contains_many(body, x, tol)
    return np.where(inside, 0.0, d)


def body_distance(body: ConvexBody, p: Vec) -> float:
    return float(body_distance_many(body, np.asarray(p, dtype=float)[None, :])[0])


# ------------------------------------------------------------------ duality


def polar_dual(body: ConvexBody, check: bool = True) -> ConvexBody:
    """Polar body, with the piecewise-circular structure mapped exactly.

    See the module docstring for the piece-by-piece correspondence.  The
    traversal order of the dual follows the primal order, so the result is a
    valid body and ``polar_dual(polar_dual(c))`` reproduces ``c``.
    """
    if check:
        require_valid(body)
    pcs = body.pieces
    n = len(pcs)
    out: list[CircleArc] = []
    for i, p in enumerate(pcs):
        if isinstance(p, SmallCircleArc):
            out.append(
                SmallCircleArc(
                    p.center,
                    0.5 * math.pi - p.radius,
                    p.az_from + math.pi,
                    p.az_to + math.pi,
                )
            )
        q = pcs[(i + 1) % n]
        k_end = p.support_pole_at(p.t1)[0]
        k_next = q.support_pole_at(q.t0)[0]
        if chord_distance(k_end, k_next) > POLE_MERGE_EPS:
            out.append(GreatArc(k_end, k_next))
    if not out:
        raise InvalidBody("dual boundary is empty")
    return ConvexBody(out, interior_witness(out))


# ------------------------------------------------------------------ support


@dataclass(frozen=True, eq=False)
class SupportSet:
    """Support poles of the body at one boundary point.

    ``poles`` is a single pole at smooth points and a great arc of poles at
    vertices; every pole K satisfies K . at = 0 with the body inside H(K).
    """

    at: Vec
    poles: Union[Vec, GreatArc]
    is_vertex: bool

    def representative(self) -> Vec:
        if not self.is_vertex:
            return self.poles
        return self.poles.point_at(0.5 * self.poles.length)[0]


def _locate(body: ConvexBody, p: Vec, tol: float):
    dists = distance_to_piece(p[None, :], body.arcs)[0]
    i = int(np.argmin(dists))
    if dists[i] > tol:
        raise NotOnBoundary(
            "point is %.3e from the boundary (tol %.1e)" % (dists[i], tol)
        )
    return i


def support_poles_at(body: ConvexBody, p, tol: float = BOUNDARY_EPS) -> SupportSet:
    """Support pole(s) at a boundary point ``p``.

    Smooth interior points of a piece yield the unique tangent pole; points
    at a junction yield the great arc of poles spanned by the two adjacent
    pieces.
    """
    p = unit(p)
    pcs = body.pieces
    n = len(pcs)
    for i, pc in enumerate(pcs):
        if chord_distance(p, pc.end) <= tol:
            q = pcs[(i + 1) % n]
            k_in = pc.support_pole_at(pc.t1)[0]
            k_out = q.support_pole_at(q.t0)[0]
            if chord_distance(k_in, k_out) <= POLE_MERGE_EPS:
                return SupportSet(at=p, poles=k_in, is_vertex=False)
            return SupportSet(at=p, poles=GreatArc(k_in, k_out), is_vertex=True)
    i = _locate(body, p, tol)
    pc = pcs[i]
    return SupportSet(at=p, poles=pc.support_pole_at(pc.azimuth_of(p))[0], is_vertex=False)


def diametral_partner(
    body: ConvexBody, p, tol: float = BOUNDARY_EPS, self_dual_tol: float = SELF_DUAL_EPS
) -> Vec:
    """Boundary point Q with P . Q = 0 whose hemisphere supports the body at P.

    Defined for self-dual bodies, where every support pole is itself a
    boundary point.  At vertices the midpoint of the pole arc is returned as
    the deterministic representative of the partner set.
    """
    s = support_poles_at(body, p, tol)
    q = s.representative()
    off = float(boundary_distance_many(body, q[None, :])[0])
    if off > self_dual_tol:
        raise NotSelfDual(
            "support pole is %.3e away from the boundary; body is not self-dual"
            % off
        )
    return q


# ------------------------------------------------------------- construction


def merge_flat_junctions(pieces: list[CircleArc]) -> list[CircleArc]:
    """Merge consecutive great arcs lying on one supporting circle.

    Boundary edits can produce junctions with exactly matching support poles
    (chord distance below ``POLE_MERGE_EPS``); such a junction is not a
    vertex and the two edges are one edge.
    """
    changed = True
    while changed and len(pieces) > 2:
        changed = False
        for i in range(len(pieces)):
            j = (i + 1) % len(pieces)
            a = pieces[i]
            b = pieces[j]
            if not (isinstance(a, GreatArc) and isinstance(b, GreatArc)):
                continue
            if chord_distance(a.pole, b.pole) > POLE_MERGE_EPS:
                continue
            if a.length + b.length >= math.pi - 1e-9:
                continue
            merged = GreatArc(a.start, b.end)
            if j > i:
                pieces = pieces[:i] + [merged] + pieces[j + 1 :]
            else:
                pieces = [merged] + pieces[1:i]
            changed = True
            break
    return pieces


def strictly_convex_arc_length(body: ConvexBody) -> float:
    """Total length of the small-circle (strictly convex) boundary arcs."""
    return sum(body.pieces[i].length for i in body.circle_piece_indices())

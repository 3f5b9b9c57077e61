"""Hemispherical convex bodies with piecewise-circular boundaries.

A body is a closed cyclic chain of boundary pieces plus an interior witness
point.  Every piece is a circle arc in the one parametrisation of ``sphere``
(centre z, radius r, tangent frame, parameter range), a great arc being the
r = pi/2 case.  A convex body is the intersection of its supporting
hemispheres, so a point x is a member when x . K >= -tol for every support
pole K; membership and boundary distance evaluate all pieces of a body in
one numpy expression over its stacked arrays (``ConvexBody.arcs``), in
blocks of at most ``BLOCK_ELEMENTS`` rows x pieces; so do validation, the
interior witness and the dual's corner poles.  Great-arc boundaries are
built as stacks: a ``Polytope``'s edges, and the dual of a body without
small-circle arcs (``great_arc_body``), come from their end points in one
pass (``sphere.great_arc_stack``), and their ``GreatArc`` objects are made
from the same ends only when ``pieces`` is read.  A body caches its
validation and a ``Polytope`` its edge stack and witness, built from its
vertices, on first use, so ``vertices``, like ``pieces``, must not change
after.
The chain is traversed counterclockwise as seen from the interior side: at
every smooth boundary point P with unit tangent T, the support pole of the
body is P x T.  Under that convention polar duality maps pieces to pieces
in traversal order:

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
    ArcStack,
    CircleArc,
    GreatArc,
    SmallCircleArc,
    Vec,
    chord_distance,
    distance_to_piece,
    great_arc_stack,
    max_distance_to_piece,
    min_support_dot,
    stack_arcs,
    unit,
    unit_rows,
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


class ConvexBody:
    """Spherical convex body bounded by a closed chain of pieces.

    Built from its pieces, or by ``great_arc_body`` from the ends of its great
    arcs, whose stack is then built in one pass and whose ``GreatArc``
    objects are made from the same ends on first read of ``pieces``.
    """

    def __init__(self, pieces, interior):
        self.pieces = list(pieces)
        self.interior = unit(interior)

    def __repr__(self) -> str:
        return "ConvexBody(pieces=%r, interior=%r)" % (self.pieces, self.interior)

    @cached_property
    def pieces(self) -> list[CircleArc]:
        """The great arcs [start, end] of ``ends``, made on first read.

        Only a body built from great-arc ends gets here: one built from its
        pieces holds them.
        """
        return [GreatArc(s, e) for s, e in zip(*self.ends)]

    def circle_piece_indices(self) -> list[int]:
        return np.flatnonzero(self.arcs.radius != 0.5 * math.pi).tolist()

    def is_polytope(self) -> bool:
        return not self.circle_piece_indices()

    @cached_property
    def arcs(self) -> ArcStack:
        """The pieces as stacked arrays; ``pieces`` must not change afterwards."""
        return stack_arcs(self.pieces)

    @cached_property
    def validation(self) -> ValidationReport:
        """``validate(self)``, run on first read only: the body must not change afterwards."""
        return validate(self)

    def boundary_samples(self, per_piece: int = 16) -> np.ndarray:
        """``per_piece`` evenly spaced points of each piece, piece after piece."""
        a = self.arcs
        return a.point_at(np.linspace(a.t0, a.t1, per_piece)).swapaxes(0, 1).reshape(-1, 3)


class Polytope(ConvexBody):
    """Convex body bounded by great arcs, stored by its vertices.

    The edge stack, the edges and the interior witness are built from
    ``vertices`` on first use, so ``vertices`` must not change afterwards.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        with np.errstate(over="ignore"):  # inf only past the float range
            norms = np.hypot.reduce(v, axis=1)
        bad = np.flatnonzero(~np.isfinite(norms) | (norms < DOT_EPS))
        if len(bad):
            raise InvalidBody(
                "vertex rows with zero or non-finite norm: "
                + "; ".join("%d %s" % (i, v[i].tolist()) for i in bad)
            )
        self.vertices = unit_rows(v)

    def __repr__(self) -> str:
        return "Polytope(vertices=%r)" % (self.vertices,)

    def __len__(self) -> int:
        return len(self.vertices)

    def is_polytope(self) -> bool:
        return True

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge i runs from vertex i to vertex i + 1."""
        return self.vertices, np.roll(self.vertices, -1, axis=0)

    @cached_property
    def arcs(self) -> ArcStack:
        """The edges as stacked arrays, in one pass; raises ``DegenerateArc`` on a repeated vertex."""
        return great_arc_stack(*self.ends)

    @cached_property
    def interior(self) -> Vec:
        # normalised twice on purpose: the second ``unit`` can move the last
        # bits, and every result downstream of the witness keeps these bits
        return unit(unit(self.vertices.mean(axis=0)))

    def edge_poles(self) -> np.ndarray:
        return self.arcs.z.copy()


def as_body(b: ConvexBody) -> ConvexBody:
    """The body itself: every body, a ``Polytope`` included, is a ``ConvexBody``."""
    return b


def to_polytope(body: ConvexBody) -> Polytope:
    if not body.is_polytope():
        raise InvalidBody("body still has strictly convex pieces")
    return Polytope(body.arcs.start)


def interior_witness(arcs: ArcStack) -> Vec:
    """Normalized mean of five samples a piece, in chain order; interior for any valid chain."""
    pts = arcs.point_at(np.linspace(arcs.t0, arcs.t1, 5)).swapaxes(0, 1).reshape(-1, 3)
    return unit(pts.mean(axis=0))


def chain_body(pieces: list[CircleArc]) -> ConvexBody:
    """The body of the chain ``pieces``, its witness taken from the stacked arcs it keeps."""
    arcs = stack_arcs(pieces)
    body = ConvexBody(pieces, interior_witness(arcs))
    body.arcs = arcs
    return body


def great_arc_body(starts: np.ndarray, ends: np.ndarray) -> ConvexBody:
    """The body of the great arcs [starts[i], ends[i]], in chain order.

    Its stack is ``great_arc_stack`` of the ends and its witness is taken
    from that stack, as ``chain_body`` takes it; the ``GreatArc`` objects are
    made from the same ends only if ``pieces`` is read.
    """
    body = ConvexBody.__new__(ConvexBody)  # no pieces to hold: they are made on demand
    body.ends = (starts, ends)
    body.arcs = great_arc_stack(starts, ends)
    body.interior = unit(interior_witness(body.arcs))
    return body


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
    a = body.arcs
    n = len(a)
    checks = [ValidationCheck("piece-count", n >= 1, float(max(0, 1 - n)))]
    if n == 0:
        return ValidationReport(checks)

    # row i of a rolled array belongs to piece i + 1, across junction i
    gap = float(np.max(np.linalg.norm(a.end - np.roll(a.start, -1, axis=0), axis=1)))
    checks.append(ValidationCheck("closure", gap <= BOUNDARY_EPS, gap))

    w = body.interior
    samples = a.point_at(np.linspace(a.t0, a.t1, 16))
    # candidate hemisphere poles: the witness, and the mean support pole
    # (an interior point of the polar dual certifies containment exactly)
    pole_mean = a.support_pole_at(np.linspace(a.t0, a.t1, 5)).mean(axis=0).sum(axis=0)
    candidates = [w]
    if np.linalg.norm(pole_mean) > DOT_EPS:
        candidates.append(unit(pole_mean))
    min_dot = max(float(np.min(samples @ k)) for k in candidates)
    checks.append(ValidationCheck("hemispherical", min_dot >= -BOUNDARY_EPS, -min_dot))

    worst_support = min(1.0, float(np.min(a.support_pole_at(np.linspace(a.t0, a.t1, 9)) @ w)))
    checks.append(ValidationCheck("support-orientation", worst_support > DOT_EPS, -worst_support))

    t_in = a.tangent_at(a.t1)
    t_out = np.roll(a.tangent_at(a.t0), -1, axis=0)
    turns = np.arctan2(np.sum(np.cross(t_in, t_out) * a.end, axis=1), np.sum(t_in * t_out, axis=1))
    min_turn = float(np.min(turns))
    max_turn = float(np.max(turns))
    checks.append(ValidationCheck("convex-turns", min_turn >= -BOUNDARY_EPS, -min_turn))
    checks.append(ValidationCheck("corner-not-cusp", max_turn <= math.pi - 1e-9, max_turn))

    min_len = float(np.min(a.span * a.sin_r))
    checks.append(ValidationCheck("piece-nondegenerate", min_len > 1e-12, -min_len))
    return ValidationReport(checks)


def validate_polytope(poly: Polytope) -> ValidationReport:
    """Polytope-specific checks on top of the generic body validation."""
    checks = [ValidationCheck("vertex-count", len(poly) >= 3, float(max(0, 3 - len(poly))))]
    if len(poly) >= 3:
        try:
            poly.arcs
        except DegenerateArc:
            checks.append(ValidationCheck("edges-nondegenerate", False, 1.0))
            return ValidationReport(checks)
        checks.extend(poly.validation.checks)
        poles = poly.arcs.z
        m = float(np.min(np.linalg.norm(poles - np.roll(poles, -1, axis=0), axis=1)))
        checks.append(ValidationCheck("no-redundant-vertices", m > BOUNDARY_EPS, -m))
    return ValidationReport(checks)


def require_valid(body: ConvexBody):
    rep = body.validation
    if not rep.ok:
        raise InvalidBody("invalid body: " + ", ".join(rep.failed()))


# -------------------------------------------------------------- membership


def _blocks(rows: int, pieces: int) -> list[tuple[slice, slice]]:
    """(rows, pieces) blocks of at most ``BLOCK_ELEMENTS`` elements, widest in pieces."""
    r = max(1, min(rows, BLOCK_ELEMENTS))
    k = max(1, BLOCK_ELEMENTS // r)
    return [
        (slice(i, i + r), slice(j, min(j + k, pieces)))
        for i in range(0, rows, r)
        for j in range(0, pieces, k)
    ]


def _reduce_pieces(body: ConvexBody, points: np.ndarray, kernel, reduce, start: float) -> np.ndarray:
    """``reduce`` (``np.minimum`` or ``np.maximum``) of ``kernel`` over all pieces, per row."""
    x = np.asarray(points, dtype=float)
    d = np.full(len(x), start)
    every = slice(0, len(body.arcs))
    for rows, cols in _blocks(len(x), len(body.arcs)):
        arcs = body.arcs if cols == every else body.arcs[cols]
        d[rows] = reduce(d[rows], reduce.reduce(kernel(x[rows], arcs), axis=1))
    return d


def contains_many(body: ConvexBody, points: np.ndarray, tol: float = BOUNDARY_EPS) -> np.ndarray:
    """Whether each row lies in the body: x . K >= -tol for every support pole K.

    A convex body is the intersection of its supporting hemispheres, so this
    is exact membership with ``tol`` a tolerance on dot products (the sine
    of a distance to a supporting great circle).  One blocked minimum of
    ``min_support_dot`` runs over the pieces.  Junctions need no term of
    their own: the corner poles sweep a great arc from the incoming to the
    outgoing piece's end pole, shorter than pi (the ``corner-not-cusp``
    check), and x . K is a sinusoid along it, which is nonnegative on all
    of an arc shorter than pi when it is nonnegative at both ends.  With
    ``tol > 0`` the accepted band at a corner of turn theta widens to
    tol / cos(theta / 2).  The witness w is inside, and its antipode
    outside, whenever ``tol`` is below the least w . K, which the
    ``support-orientation`` check keeps positive.
    """
    return _reduce_pieces(body, points, min_support_dot, np.minimum, np.inf) >= -tol


def contains(body: ConvexBody, p: Vec, tol: float = BOUNDARY_EPS) -> bool:
    return bool(contains_many(body, np.asarray(p, dtype=float)[None, :], tol)[0])


def boundary_distance_many(body: ConvexBody, points: np.ndarray) -> np.ndarray:
    return _reduce_pieces(body, points, distance_to_piece, np.minimum, np.inf)


def boundary_max_distance_many(body: ConvexBody, points: np.ndarray) -> np.ndarray:
    return _reduce_pieces(body, points, max_distance_to_piece, np.maximum, 0.0)


def body_distance_many(body: ConvexBody, points: np.ndarray, tol: float = BOUNDARY_EPS) -> np.ndarray:
    """Geodesic distance to the body (zero inside)."""
    x = np.asarray(points, dtype=float)
    out = ~contains_many(body, x, tol)
    d = np.zeros(len(x))
    d[out] = boundary_distance_many(body, x[out])
    return d


def body_distance(body: ConvexBody, p: Vec) -> float:
    return float(body_distance_many(body, np.asarray(p, dtype=float)[None, :])[0])


# ------------------------------------------------------------------ duality


def polar_dual(body: ConvexBody) -> ConvexBody:
    """Polar body, with the piecewise-circular structure mapped exactly.

    See the module docstring for the piece-by-piece correspondence.  The
    traversal order of the dual follows the primal order, so the result is a
    valid body and ``polar_dual(polar_dual(c))`` reproduces ``c``.
    """
    require_valid(body)
    a = body.arcs
    k_end = a.support_pole_at(a.t1)
    k_next = np.roll(a.support_pole_at(a.t0), -1, axis=0)
    corner = np.linalg.norm(k_end - k_next, axis=1) > POLE_MERGE_EPS
    if body.is_polytope():
        # every piece maps to a dual vertex and every corner to a great arc
        if not corner.any():
            raise InvalidBody("dual boundary is empty")
        return great_arc_body(k_end[corner], k_next[corner])
    out: list[CircleArc] = []
    for p, k0, k1, c in zip(body.pieces, k_end, k_next, corner):
        if isinstance(p, SmallCircleArc):
            out.append(
                SmallCircleArc(p.center, 0.5 * math.pi - p.radius, p.az_from + math.pi, p.az_to + math.pi)
            )
        if c:
            out.append(GreatArc(k0, k1))
    if not out:
        raise InvalidBody("dual boundary is empty")
    return chain_body(out)


def selfdual_residual_bound(poly: Polytope) -> float:
    """Upper bound rho on the Hausdorff distance between a valid polytope P and P*.

    P* is the polar dual, whose vertices are the edge poles w_i of P, in
    order.  With n vertices v_j and s = (n + 1) // 2, pair w_i with
    v_{i+s}: c = max_i |w_i - v_{i+s}| (chord), and l is the longest edge
    of P or of P*.  Then rho = asin(c / cos(l/2)), or inf when the ratio
    reaches 1.  On a self-dual polytope n is odd and the pole of edge i is
    vertex i + s, so c is roundoff; any other pairing still gives a sound,
    only larger, bound.

    Proof.  For x outside P, closer than pi/2 to it, sin d(x, P) is the
    largest -x . K over the support poles K of P, which form the boundary
    of P*: the great arcs [w_i, w_{i+1}].  Take x in P*; then x . v >= 0
    for every vertex v of P, so x . w_i >= x . v_{i+s} - c >= -c.  For
    K = (a w_i + b w_{i+1}) / |a w_i + b w_{i+1}| with a, b >= 0,
    -x . K <= c (a + b) / |a w_i + b w_{i+1}| <= c / cos(l/2), the worst
    case being the midpoint.  So every point of P* is within rho of P.  The
    same argument with P and P* swapped (P** = P, its support poles the
    edges [v_j, v_{j+1}]) bounds the other direction: H(P, P*) <= rho.
    The factor 1/cos(l/2) is needed: the rho-neighbourhood of a spherical
    polygon is not convex (beside an edge it is bounded by a circle of
    radius pi/2 + rho), so matched vertices alone do not bound H.

    Widths follow: for a support pole k of P, width(P, k) is pi minus the
    largest d(k, y) over y in P*; over P that largest distance is exactly
    pi/2 (k . y >= 0 on P, with equality where H(k) touches), and
    y -> d(k, y) is 1-Lipschitz, so |width(P, k) - pi/2| <= rho.  The
    bound holds up to the roundoff of its own evaluation.
    """
    v = poly.vertices
    w = poly.arcs.z
    c = float(np.max(np.linalg.norm(w - np.roll(v, -((len(v) + 1) // 2), axis=0), axis=1)))
    # cos(l/2) = |a + b| / 2 for the unit ends a, b of an edge of length l
    half = 0.5 * min(float(np.min(np.linalg.norm(x + np.roll(x, -1, axis=0), axis=1))) for x in (v, w))
    return math.asin(c / half) if c < half else math.inf


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

"""Approximation of constant-width-pi/2 bodies by constant-width polytopes.

Every strictly convex arc of a self-dual body, on the circle (Z, r), has a
partner arc on the circle (Z, pi/2 - r): the same azimuth span shifted by
pi, made of the support poles of the first.  Replacing a sub-arc P1-P2 of
one side by its chord, and the partner sub-arc by the two great arcs through
R, the pole of the chord, is its own polar image, so the edit keeps the body
self-dual.  The edit changes nothing but its own sub-arc and that sub-arc's
partner, so edits on disjoint sub-arcs commute and can all be applied at
once.  ``chord_polytope`` therefore builds the polytope in one pass over
the run pairing table (``body.RunPairing``) with ``chord_core``: it splits
each chorded row, the first of each arc pair, into equal sub-arcs, all in
one ``sphere.linspace_grid`` call, puts the chord poles on the partner rows
and emits the vertices sorted by row, in boundary order.  The cap's full
circle is two half rows, one chorded and one carrying the poles; the
random polytope seeds of ``generators`` are cut by ``chord_core`` on those
two rows alone.  The steps are one ``StepTable`` of the core's arrays, the
sub-arc ends and the chord poles; ``StepRecord`` is its row view, and the
log-only columns (the partner points, the sagittas and the piece ids) are
made on first read, so a build whose steps are only counted makes none.

For a sub-arc of width s on the circle (Z, r), the right spherical triangle
Z-M-P1 gives tan m = tan r cos(s/2), M the chord midpoint at distance m from
Z, so the chord's sagitta is d(s) = r - atan(tan r cos(s/2)).  The pole R
lies at pi/2 - m from Z on the partner side, d(s) outside the partner arc,
so chord and spike both stay within d(s) of the body; the sub-arc count
solves d(s) < epsilon * SUBDIVISION_SAFETY for s in closed form.

``cut_step`` applies the same edit to one sub-arc of a body and rebuilds
it; the tests replay the edits chord by chord with it as the reference for
the one-pass output.

``approximate_polytope`` runs the gate (``is_constant_width``: the closed
form of the input's self-duality bound rho, ``ConvexBody.residual_bound``,
from its edge-pole/vertex pairing on a polytope or from its run pairing
(``body.pairing_residual_bound``) on a curved body, and the width sweep
only when that bound is not within tolerance), the build
(``chord_polytope``, which checks nothing) and the certificate once each,
all reading each body's one cached validation (``ConvexBody.validation``),
its one cached run pairing (``ConvexBody.run_pairing``), which the gate
reads, the build chords and the certificate walks, and its one cached rho.
An epsilon sweep over one body object therefore measures the input's rho
once, at its first gate.  The certificate never trusts the construction: it
reads only the two bodies, and checks the widths and the residual before
it measures the Hausdorff term.  For a polytope output its Hausdorff
term is the proved upper bound of ``pairing_bound``, one pass over all
units: a walk that checks the output is inscribed in every chorded arc
run of the input, circumscribed about every partner run and has an edge
on every great-arc piece.  Any pair the walk does not cover (a curved
result, an input without arc runs, an arbitrary file pair) is re-measured
by the refinement ``metrics.hausdorff_bounds``, whose upper end it takes.
For a polytope output the width range and the self-duality residual are
proved upper-bound ends from its edge-pole/vertex pairing (its
``residual_bound``, ``body.selfdual_residual_bound``), in O(n); a curved
result takes them from ``metrics.is_constant_width``, in closed form from
its run pairing (``body.pairing_residual_bound``) when that is within
tolerance, else from the width sweep and the upper end of the refinement.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    BudgetExhausted,
    CertificationFailed,
    DualOverlap,
    NotConstantWidth,
    NotOnBoundary,
    NotSelfDual,
    NotStrictlyConvex,
)
from .sphere import (
    TWO_PI,
    ArcStack,
    GreatArc,
    SmallCircleArc,
    Vec,
    arc_pole,
    cross_rows,
    dot,
    linspace_grid,
    math_each,
    norm_rows,
    stack_arcs,
    unit,
    unit_rows,
)
from .body import (
    BLOCK_ELEMENTS,
    ConvexBody,
    Polytope,
    RunPairing,
    body_distance,
    boundary_distance_many,
    chain_body,
    drop_flat_vertices,
    merge_flat,
    require_valid,
    run_pairing_or_none,
    to_polytope,
)
# ``hausdorff`` is not on certify's path, which takes ``hausdorff_bounds``' upper end: a test that must see the
# refinement patches ``hausdorff_bounds``.  The name stays because the benchmark's self-test reads it here.
from .metrics import hausdorff, hausdorff_bounds, is_constant_width  # noqa: F401


SUBDIVISION_SAFETY = 0.5  # share of the budget epsilon the sagitta d(s) may use
MAX_SUBARCS = 1 << 22  # sub-arcs of one arc interval before ``BudgetExhausted``
# Largest vertex offset, junction offset or tangency error (radians) the
# pairing certificate accepts; its bound adds 3 asin(FIT_EPS / c), so it
# must stay far below any budget epsilon and far above roundoff.
FIT_EPS = 1e-11


@dataclass(frozen=True)
class ApproximationConfig:
    """The Hausdorff budget ``epsilon`` (certified against 2 * epsilon) and
    the tolerance ``self_dual_tol`` on widths and the self-duality residual."""

    epsilon: float
    self_dual_tol: float = 1e-6

    def __post_init__(self):
        # written so that NaN fails
        if not (0.0 < self.epsilon < math.inf and 0.0 <= self.self_dual_tol < math.inf):
            raise ValueError("epsilon must be finite and > 0, self_dual_tol finite and >= 0")


@dataclass(frozen=True, eq=False)
class StepRecord:
    """One primal/dual boundary edit: a row of a ``StepTable``, or the record of one ``cut_step``."""

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

    ``hausdorff_bound`` bounds the Hausdorff distance to the input: the
    proved upper bound of ``pairing_bound`` for a polytope the walk covers,
    as the chord construction's outputs are, else the refinement's upper
    end (``metrics.hausdorff_bounds``), within ``metrics.HAUSDORFF_TOL``
    above its lower end.  For a polytope output,
    ``width_min`` and ``width_max`` are the proved ends
    pi/2 -+ rho and ``self_duality_residual`` is rho, the upper bound on its
    distance to its polar dual from the edge-pole/vertex pairing; a curved
    output takes all three from ``metrics.is_constant_width``: the same
    ends from its run pairing when 2 rho is within tolerance, else the
    sampled width sweep and, as the residual, the upper end of
    ``metrics.hausdorff_bounds`` against its dual.  ``steps`` and
    ``rounds`` count the chords and build rounds of
    ``approximate_polytope``, 0 from ``certify`` alone.
    """

    epsilon: float
    hausdorff_bound: float
    width_min: float
    width_max: float
    self_duality_residual: float
    steps: int = 0
    rounds: int = 0


# ---------------------------------------------------------------- subdivide


def _chord_counts(radius: np.ndarray, span: np.ndarray, target: float, full: bool = False) -> np.ndarray:
    """Fewest equal sub-arcs of each arc of ``radius`` and ``span`` with sagitta d(s) < ``target``, with ``math``'s
    tan and acos (``math_each``).  A full circle needs at least two sub-arcs (a single chord would close on itself)
    and no sub-arc may exceed half the circle.  Raises ``BudgetExhausted``, naming the first arc at fault, when a
    count would reach ``MAX_SUBARCS``.
    """
    n = np.maximum(2 if full else 1, np.ceil(span / math.pi - 1e-12).astype(int))
    # d(s) < target exactly for widths s below s_max
    fine = target < radius
    r, s = radius[fine], span[fine]
    s_max = 2.0 * math_each(math.acos, math_each(math.tan, r - target) / math_each(math.tan, r))
    over = s >= s_max * MAX_SUBARCS
    if over.any():
        raise BudgetExhausted(
            "a sagitta budget of %.3g needs %d or more sub-arcs on an arc of radius %.6g"
            % (target, MAX_SUBARCS, r[over.argmax()])
        )
    n[fine] = np.maximum(n[fine], (s / s_max).astype(int) + 1)
    return n


def subdivide_piece(body: ConvexBody, piece_id: int, eps: float) -> np.ndarray:
    """Subdivision points of a strictly convex piece for the budget ``eps``.

    Returns the points (endpoints included) of the fewest equal sub-arcs
    whose chord pole lies within ``eps * SUBDIVISION_SAFETY`` of the body,
    the distance being the sagitta ``d(s)`` of the module docstring.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    piece = body.pieces[piece_id]
    if not isinstance(piece, SmallCircleArc):
        raise NotStrictlyConvex("piece %d is a great arc" % piece_id)
    n = int(_chord_counts(np.array([piece.radius]), np.array([piece.span]), eps * SUBDIVISION_SAFETY, piece.is_full)[0])
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
        new_pieces = body.pieces[:ip] + segments + body.pieces[ip + 1 :]
    else:
        new_pieces = []
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

    out = chain_body(merge_flat(stack_arcs(new_pieces)))
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


# ----------------------------------------------------------- one-pass build


class Chords(NamedTuple):
    """What ``chord_core`` emits: the chords of the chorded rows of a stack, in one array pass.

    ``runs`` are the chorded rows and ``n`` their sub-arc counts; ``run``
    (an index into ``runs``) and ``az`` give each sub-arc end, whose points
    are ``p``; ``k`` is the first end of each chord, all but the last of each
    run, and ``r`` each chord's pole.  ``vertices`` is the chain in boundary
    order, flat junctions kept.
    """

    runs: np.ndarray
    n: np.ndarray
    run: np.ndarray
    az: np.ndarray
    p: np.ndarray
    k: np.ndarray
    r: np.ndarray
    vertices: np.ndarray


def chord_core(a: ArcStack, chorded: np.ndarray, partner: np.ndarray, target: float) -> Chords:
    """The chords, with sagittas d(s) under ``target``, of the rows ``chorded`` of the stack ``a``.

    Each chorded row is split into its fewest equal sub-arcs
    (``_chord_counts``), all rows in one ``sphere.linspace_grid`` call, and
    the poles of its chords go on its partner row ``partner[i]``.  Each row
    holds, in chain order: a chorded row its sub-arc starts, any other row
    its start, then a partner row the chord poles.  Raises
    ``BudgetExhausted`` when a row needs ``MAX_SUBARCS`` sub-arcs.
    """
    runs = np.flatnonzero(chorded)
    n = _chord_counts(a.radius[runs], a.span[runs], target)
    run, az = linspace_grid(a.t0[runs], a.t1[runs], n + 1)
    rows = runs[run]
    p = a.point_at(az, rows)
    k = np.flatnonzero(run[1:] == run[:-1])  # the first end of each chord: all but the last of each run
    r = unit_rows(cross_rows(p[k], p[k + 1]))
    owner = np.concatenate([rows[k], np.flatnonzero(~chorded), partner[rows[k]]])
    v = np.vstack([p[k], a.start[~chorded], r])
    return Chords(runs, n, run, az, p, k, r, v[np.argsort(owner, kind="stable")])


class StepTable(Sequence):
    """The steps of one ``chord_polytope`` build, one row per chord, as a sequence of ``StepRecord`` views.

    The table keeps the core's arrays (``Chords``).  Its log-only columns,
    the partner points ``q``, the sagittas ``d`` and the piece ids
    ``primal`` and ``dual`` (``RunPairing.piece_at``), are made on first
    read and cached, so a build whose steps are only counted makes none of
    them.  Row x is the ``StepRecord`` of chord x, built when read.
    """

    def __init__(self, pairing: RunPairing, chords: Chords):
        self.pairing, self.chords = pairing, chords

    def __len__(self) -> int:
        return len(self.chords.k)

    def __getitem__(self, x: int) -> StepRecord:
        x = range(len(self))[x]  # IndexError past the end, as a list
        p, i = self.chords.p, int(self.chords.k[x])
        primal, dual = self.piece_ids
        return StepRecord(
            p[i], p[i + 1], self.q[i], self.q[i + 1], self.chords.r[x], int(primal[x]), int(dual[x]), float(self.d[x])
        )

    def columns(self) -> np.ndarray:
        """The ``StepRecord`` fields of every row as one float array, in field order, a vector as three columns."""
        c, (primal, dual) = self.chords, self.piece_ids
        return np.column_stack([c.p[c.k], c.p[c.k + 1], self.q[c.k], self.q[c.k + 1], c.r, primal, dual, self.d])

    @cached_property
    def q(self) -> np.ndarray:
        """The partner point of each sub-arc end: its azimuth shifted by pi on the partner row."""
        c = self.chords
        return self.pairing.arcs.point_at(c.az + math.pi, self.pairing.partner[c.runs[c.run]])

    @cached_property
    def d(self) -> np.ndarray:
        """The sagitta d(s) = r - atan(tan r cos(s/2)) of each chord."""
        a, c = self.pairing.arcs, self.chords
        r, s = a.radius[c.runs], a.span[c.runs] / c.n
        return (r - math_each(math.atan, math_each(math.tan, r) * math_each(math.cos, 0.5 * s)))[c.run[c.k]]

    @cached_property
    def piece_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """The input piece holding each chord's first end, and the one holding its partner point."""
        a, c, pairing = self.pairing.arcs, self.chords, self.pairing
        run = c.run[c.k]
        offset = (a.span[c.runs] / c.n)[run] * (c.k - (np.cumsum(c.n + 1) - c.n - 1)[run])
        rows = c.runs[run]
        return pairing.piece_at(rows, offset), pairing.piece_at(pairing.partner[rows], offset)


def chord_polytope(body: ConvexBody, config: ApproximationConfig) -> tuple[Polytope, StepTable]:
    """The chord-cut polytope of a self-dual body, and its ``StepTable``, one row per chord.

    One pass (module docstring, ``chord_core`` on the run pairing) with
    sagittas under ``epsilon * SUBDIVISION_SAFETY``; flat junctions are
    dropped and nothing is checked.  Raises ``NotSelfDual`` when an arc run
    has no partner (``ConvexBody.run_pairing``) and, before building,
    ``BudgetExhausted`` when one needs ``MAX_SUBARCS`` sub-arcs.
    """
    pairing = body.run_pairing
    chords = chord_core(pairing.arcs, pairing.chorded, pairing.partner, config.epsilon * SUBDIVISION_SAFETY)
    return Polytope(drop_flat_vertices(chords.vertices)), StepTable(pairing, chords)


# ------------------------------------------------------ pairing certificate


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``x`` with the row of ``y``: one product and one matrix-vector sum."""
    return (x * y) @ np.ones(3)


def _angles(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The angle between each row of ``x`` and the row of ``z``, 2 asin(|x - z| / 2): the chord form, exact near 0."""
    return 2.0 * np.arcsin(np.minimum(1.0, 0.5 * np.sqrt(_dots(x - z, x - z))))


def _locate(poly: Polytope, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position and point of each row of ``p`` on the boundary of ``poly``: 2i and vertex i when its nearest vertex
    is within ``FIT_EPS``, else 2i + 1 and its foot on edge i, the first edge whose great circle passes within
    ``FIT_EPS`` and that holds it between its ends, else -1.  Each lookup is one query over blocks of at most
    ``BLOCK_ELEMENTS`` rows x vertices."""
    v, w = poly.vertices, poly.arcs.z
    per = max(1, BLOCK_ELEMENTS // len(v))  # rows a block
    blocks = [p[lo : lo + per] for lo in range(0, len(p), per)]
    i = np.concatenate([(((v - x[:, None]) ** 2) @ np.ones(3)).argmin(axis=1) for x in blocks])
    pos, at = 2 * i, v[i]
    miss = (~(_angles(at, p) <= FIT_EPS)).nonzero()[0]
    if len(miss):
        # a row p lies between the ends of edge i when p . (w_i cross v_i) > 0 and p . (v_i+1 cross w_i) > 0
        after, before = cross_rows(w, v).T, cross_rows(np.roll(v, -1, axis=0), w).T
        hits = ((np.abs(x @ w.T) <= math.sin(FIT_EPS)) & (x @ after > 0.0) & (x @ before > 0.0) for x in blocks)
        e = np.concatenate([np.where(h.any(axis=1), h.argmax(axis=1), -1) for h in hits])[miss]
        pos[miss], at[miss] = np.where(e < 0, -1, 2 * e + 1), unit_rows(p[miss] - _dots(p[miss], w[e])[:, None] * w[e])
    return pos, at


def pairing_bound(original: ConvexBody, result: Polytope) -> Optional[float]:
    """Proved upper bound h on the Hausdorff distance between C and a polytope P, or None.

    C is ``original``, P the valid polytope ``result``, eta = ``FIT_EPS``.
    The walk splits the boundary of C into the units of its run pairing
    (``ConvexBody.run_pairing``: one row per great-arc piece or arc run,
    each run paired with its partner, the first of a pair chorded); without
    arc runs (checked before the pairing is built) or with a run unpaired
    it returns None.  One query (``_locate``) places every unit's start on
    P, at a vertex within eta or, where ``drop_flat_vertices`` removed a
    junction because the edges on both sides lie on one great circle,
    inside an edge within eta of its great circle.  The located points
    must follow each other in boundary order, once around P; they cut the
    boundary of P into one polyline X per unit, and each unit's end must
    lie within eta of the next located point.  Each check below is one
    expression over the segments of all the Xs.  Then:

    * a great-arc piece g: X is one edge;
    * a chorded run on the circle (Z, r), inscribed: the inner vertices of X
      lie within eta of the circle, and the azimuths phi, from 0 at the
      run's start to its span S at its end, increase in gaps s in (0, pi];
    * a partner run on (Z, r'), circumscribed: Q, the inner vertices of X
      between the run's own ends, lies closer than pi/2 to Z, its azimuths
      increase from 0 to S in steps in (0, pi), and each segment of Q is
      tangent to (Z, r') within eta: both its ends lie within eta of the
      great circle whose pole is the point of (Z, pi/2 - r') at the
      azimuth of the segment's pole.  The far vertex R_k, where the
      tangents at Q_k and Q_k+1 meet, lies d(s) outside the circle in
      exact arithmetic; the walk measures rho - r' instead, rho the
      distance from Z.

    Any failed check returns None.  Otherwise h = m + 3 asin(eta / c), m
    the largest d(s) = r - atan(tan r cos(s/2)) over the chords and of
    rho - r' over the vertices of the Qs, c the least cos(l/2) over the
    segments of length l of the Xs and Qs.  The eta term also covers the
    roundoff of the evaluation, orders of magnitude below eta.

    Proof.  Two lemmas.  (Shift) If the ends of great arcs [a, b] and
    [a', b'] are within e of each other, every point of either is within
    2 asin(e / c) of the other, c = cos(l/2) for l = |ab|: the points
    (alpha a + beta b) / |.| and (alpha a' + beta b') / |.|, alpha, beta
    >= 0, are at most 2 (alpha + beta) e / |alpha a + beta b| apart in
    chord, and |alpha a + beta b| >= (alpha + beta) c.  (Sagitta) On the
    circle (Z, r), a point x of the arc between two circle points s <= pi
    apart lies within d(s) of their chord: with tan m = tan r cos(s/2), N
    the chord's outer pole and psi the azimuth of x from the middle,
    x . N = sin r cos m cos psi - cos r sin m <= sin(r - m), and the foot
    of x on the chord's great circle lies between the ends, moving along
    it monotonically with psi.

    Each unit then lies within h of P, and its X within h of C.  A great
    arc is within 2 asin(eta / c) of its edge.  On a chorded run, the
    circle points at the azimuths phi (the run's own ends at 0 and S)
    bound chords that lie in C, as C is convex, each within
    2 asin(eta / c) of its segment of X (shift), and the sub-arc over
    each chord within d(s) of it (sagitta).  On a partner run, cos rho on
    a segment of Q is a sinusoid of the arc length, positive at both
    ends, and the segment is shorter than pi: so rho is largest at an end,
    growing monotonically from the segment's nearest point to Z (the
    tangent point Q_k, in exact arithmetic) to R_k.  The segment lies
    within asin(eta / c) of a great circle at distance r' from Z (the
    dot of each of its points with that pole is a weighted mean of the
    ends' over |alpha a + beta b|), so rho >= r' - asin(eta / c) on it,
    and its azimuths sweep monotonically from its start's to its end's.
    A point y of Q and the point x of the run at y's azimuth are
    |rho(y) - r'| <= m + asin(eta / c) apart; the azimuths of Q cover
    [0, S], so every x has such a y, and Q is within 2 asin(eta / c) of
    X (shift: only the end segments differ).  So every point of the
    boundary of C is within h of P, and every point of the boundary of P
    within h of C.  For x outside P, closer than pi/2, sin d(x, P) is
    the largest -x . K over the support poles K of P (as in
    ``body.selfdual_residual_bound``), and for each K the least x . K
    over C is taken on its boundary, a linear function on the cone over
    C: so all of C is within h of P, likewise all of P within h of C,
    and H(C, P) <= h.
    """
    pairing = None if original.is_polytope() else run_pairing_or_none(original)
    if pairing is None or not pairing.chorded.any():
        return None
    a, v, n = pairing.arcs, result.vertices, len(result)
    pos, at = _locate(result, a.start)
    cut = np.append((pos - pos[0]) % (2 * n), 2 * n) + pos[0]
    if (pos < 0).any() or (cut[1:] <= cut[:-1]).any():
        return None
    # one row per segment of the Xs in boundary order: x, unit k's located start (rank 0) or inner vertex, y the next
    size = (cut[1:] + 1) // 2 - cut[:-1] // 2
    k = np.repeat(np.arange(len(a)), size)
    rank = np.arange(len(k)) - np.repeat(np.cumsum(size) - size, size)
    head, tail = rank == 0, np.concatenate((rank[1:], rank[:1])) == 0
    x = np.concatenate((v, at))[np.where(head, n + k, (cut[k] // 2 + rank) % n)]
    y = np.concatenate((x[1:], x[:1]))
    outer = (pairing.partner >= 0) & ~pairing.chorded  # the partner runs, circumscribed
    chorded, circ, r = pairing.chorded[k], outer[k], a.radius[k]
    az = np.arctan2(_dots(x, np.repeat(a.v, size, axis=0)), _dots(x, np.repeat(a.u, size, axis=0)))
    phi = np.where(head, 0.0, np.mod(az - a.t0[k], TWO_PI))
    s = np.where(tail, a.span[k], np.concatenate((phi[1:], phi[:1]))) - phi
    # the segments of the Qs, a partner run's own ends at its first and last rows, and the tangent point of each
    xq, yq, z = x[circ], y[circ], np.repeat(a.z, np.where(outer, size, 0), axis=0)
    xq[head[circ]], yq[tail[circ]] = a.start[outer], a.end[outer]
    poles = cross_rows(xq, yq)
    side = poles - _dots(poles, z)[:, None] * z  # the part of each pole off z
    touch = a.sin_r[k[circ], None] * z + a.cos_r[k[circ], None] * side / norm_rows(side)[:, None]
    # rho, the distance from Z, at every row's x and at each unit's own start and end; q marks the points of the Qs
    rho = _angles(np.concatenate((x, a.start, a.end)), np.concatenate((np.repeat(a.z, size, axis=0), a.z, a.z)))
    off, q = rho - np.concatenate((r, a.radius, a.radius)), np.concatenate((circ & ~head, outer, outer))
    if not (
        (_angles(a.end, y[tail]) <= FIT_EPS).all()
        # a run's azimuth gaps s; a great-arc piece's X is one edge
        and np.where(chorded | circ, (s > 0.0) & np.where(chorded, s <= math.pi, s < math.pi), head & tail).all()
        and (np.abs(off[: len(k)][chorded & ~head]) <= FIT_EPS).all()
        and (rho[q] < 0.5 * math.pi).all()
        and (np.maximum(np.abs(_dots(xq, touch)), np.abs(_dots(yq, touch))) <= math.sin(FIT_EPS)).all()
    ):
        return None
    m = max(0.0, float(off[q].max()), float((r - np.arctan(np.tan(r) * np.cos(0.5 * s)))[chorded].max()))
    half = min(1.0, 0.5 * math.sqrt(min(_dots(x + y, x + y).min(), _dots(xq + yq, xq + yq).min())))
    return m + 3.0 * math.asin(min(1.0, FIT_EPS / max(half, FIT_EPS)))


def approximate_polytope(
    body: ConvexBody, config: ApproximationConfig
) -> tuple[Polytope, Certificate, StepTable]:
    """Approximate a constant-width-pi/2 body by a polytope of the same width.

    Gates the input (``NotConstantWidth``), builds with ``chord_polytope``
    and certifies.  Returns the polytope, its certificate (Hausdorff
    distance checked against 2 * epsilon) and the steps, a ``StepTable``
    whose records are made when read.
    """
    # the gate validates the input through its rho (``residual_bound``),
    # and through polar_dual when it sweeps; a body gated before reads
    # both from its caches
    gate = is_constant_width(body, tol=config.self_dual_tol)
    if not gate.passed:
        raise NotConstantWidth(
            "input width range [%.9f, %.9f] is not pi/2 within %.1e"
            % (gate.width_min, gate.width_max, config.self_dual_tol)
        )
    poly, steps = chord_polytope(body, config)
    cert = replace(certify(body, poly, config), steps=len(steps), rounds=1 if steps else 0)
    return poly, cert, steps


def certify(original: ConvexBody, result: ConvexBody, config: ApproximationConfig) -> Certificate:
    """Re-measure every guarantee on the (input, output) pair from scratch.

    A result bounded by great arcs, read as a ``Polytope`` (``to_polytope``)
    and validated as one, takes its width range and residual from its
    ``residual_bound`` (``selfdual_residual_bound``), any other from
    ``is_constant_width``: its run pairing's closed form, or the sweep.
    Both are checked first, in O(n) for a polytope result, so a result
    that fails them is refused before its Hausdorff term is measured:
    ``pairing_bound`` when that walk covers the pair, else the upper end of
    the ``hausdorff_bounds`` refinement.  Raises ``CertificationFailed``
    naming the violated bound, a NaN one too.  Never reads the construction, so the
    certificate counts no steps or rounds.
    """
    require_valid(original)
    if result.is_polytope():
        result = to_polytope(result)
        require_valid(result)
        residual = result.residual_bound
        wmin, wmax = 0.5 * math.pi - residual, 0.5 * math.pi + residual
    else:
        # is_constant_width validates the result, in the closed form or,
        # when it sweeps, through polar_dual
        rep = is_constant_width(result, tol=config.self_dual_tol)
        wmin, wmax, residual = rep.width_min, rep.width_max, rep.self_duality_residual
    tol = config.self_dual_tol
    if not (abs(wmin - 0.5 * math.pi) <= tol and abs(wmax - 0.5 * math.pi) <= tol):
        raise CertificationFailed(
            "width range [%.9f, %.9f] is not pi/2 within %.1e" % (wmin, wmax, tol),
            bound="width_range",
        )
    if not residual <= tol:
        raise CertificationFailed(
            "self-duality residual %.3g exceeds %.1e" % (residual, tol),
            bound="self_duality_residual",
        )
    # the walk covers polytope results only; a result bounded by great arcs
    # is a Polytope by now
    h = pairing_bound(original, result) if result.is_polytope() else None
    if h is None:
        h = hausdorff_bounds(original, result)[1]
    if not h <= 2.0 * config.epsilon:
        raise CertificationFailed(
            "hausdorff %.6g exceeds 2*epsilon = %.6g" % (h, 2 * config.epsilon),
            bound="hausdorff_bound",
        )
    return Certificate(
        epsilon=config.epsilon,
        hausdorff_bound=h,
        width_min=wmin,
        width_max=wmax,
        self_duality_residual=residual,
    )

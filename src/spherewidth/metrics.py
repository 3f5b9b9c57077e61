"""Width, thickness, diameter, Hausdorff distance and self-duality residual.

The support poles of a convex body are exactly the boundary points of its
polar dual, so every width query reduces to farthest-distance queries against
the dual boundary:

    width_wrt(C, K) = pi - max { dist(K, K') : K' on boundary of dual(C) }
    thickness(C)    = pi - diameter(dual(C))

Farthest distances to a whole boundary are one batched closed-form query
(``boundary_max_distance_many``); the diameter runs one alternating
farthest-point ascent for all piece pairs at once.  The Hausdorff distance
runs a Lipschitz branch-and-bound over parameter intervals of each piece (the
distance to a convex body is 1-Lipschitz along the boundary), refined until
the bounds meet within ``tol``.  Each interval also carries a closed-form
structural cap, the least over all pieces of the other body of a vertex,
full-circle, concentric-arc, coplanar-great-arc or nearby-edge bound; one
stacked numpy kernel caps a whole set of intervals against all pieces.

Everything here is pure and safe to call concurrently; all reductions are
max/min over samples and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotSupporting
from .sphere import (
    BOUNDARY_EPS,
    DOT_EPS,
    TWO_PI,
    ArcStack,
    Vec,
    acos_clamped_np,
    farthest_on_piece,
    length_weighted_params,
    unit,
    wrap_angle,
)
from .body import (
    BLOCK_ELEMENTS,
    BodyLike,
    ConvexBody,
    as_body,
    body_distance_many,
    boundary_max_distance_many,
    polar_dual,
)

# Default certified accuracy of the Hausdorff refinement.
HAUSDORFF_TOL = 1e-7


# ----------------------------------------------------------- farthest points


def diameter(body: BodyLike) -> float:
    """Maximum geodesic distance between boundary points.

    Alternating farthest-point ascent from nine seeds on every piece pair
    i <= j, a block of pairs at once; a pair stops after 80 rounds or once
    its maximum grows by at most 1e-14.
    """
    b = as_body(body)
    arcs = b.arcs
    seeds = np.linspace(arcs.t0, arcs.t1, 9, axis=-1)
    ia, ja = np.triu_indices(len(b.pieces))
    per = BLOCK_ELEMENTS // (3 * 9)  # (pairs, 9, 3) arrays of BLOCK_ELEMENTS values
    best = 0.0
    for lo in range(0, len(ia), per):
        i, j = ia[lo : lo + per], ja[lo : lo + per]
        pa, pb = arcs[i[:, None]], arcs[j[:, None]]
        x = pa.point_at(seeds[i])
        top = np.zeros(len(i))
        live = np.arange(len(i))
        for _ in range(80):
            y = farthest_on_piece(x[live], pb[live])[0]
            x[live], dx = farthest_on_piece(y, pa[live])
            got = dx.max(axis=1)
            stop = got <= top[live] + 1e-14
            top[live] = np.where(stop, np.maximum(top[live], got), got)
            live = live[~stop]
            if not len(live):
                break
        best = max(best, float(top.max()))
    return best


# ------------------------------------------------------------------- widths


def width_wrt(
    body: BodyLike,
    k: Vec,
    dual: Optional[ConvexBody] = None,
    touch_tol: float = 1e-6,
) -> float:
    """Width of the body with respect to the supporting hemisphere H(k).

    The minimum lune thickness against all other supporting hemispheres;
    attained on the dual boundary, where the farthest-point query is closed
    form per piece.
    """
    b = as_body(body)
    k = unit(k)[None, :]
    # min over the boundary of k . x, the cosine of the farthest distance
    gap = math.cos(float(boundary_max_distance_many(b, k)[0]))
    if gap < -BOUNDARY_EPS:
        raise NotSupporting("hemisphere cuts into the body (min dot %.3e)" % gap)
    if gap > touch_tol:
        raise NotSupporting("hemisphere does not touch the body (min dot %.3e)" % gap)
    if dual is None:
        dual = polar_dual(b, check=False)
    return math.pi - float(boundary_max_distance_many(dual, k)[0])


def thickness(body: BodyLike) -> float:
    """Minimum width over all supporting hemispheres: pi - diameter(dual)."""
    return math.pi - diameter(polar_dual(as_body(body)))


# ---------------------------------------------------------------- Hausdorff


def _dot_ranges(pa: ArcStack, tl, tr, w: np.ndarray):
    """Exact range of x . w over arcs, one row per arc and one column per vector.

    Row i is the arc of ``pa[i]`` over the parameters [tl[i], tr[i]], where
    x(t) . w = cos r (z . w) + sin r (au cos t + av sin t).  That is extreme
    at the ends, and at t = atan2(av, au) (value rho = hypot(au, av)) or
    t + pi (value -rho) when those lie inside the range.  Returns the minimum,
    the maximum and rho.
    """
    tl, tr = tl[:, None], tr[:, None]
    au, av = pa.u @ w.T, pa.v @ w.T
    rho = np.hypot(au, av)
    rel = np.arctan2(av, au) - tl
    e0 = au * np.cos(tl) + av * np.sin(tl)
    e1 = au * np.cos(tr) + av * np.sin(tr)
    lo, hi = np.minimum(e0, e1), np.maximum(e0, e1)
    hi = np.where(wrap_angle(rel) <= tr - tl, np.maximum(hi, rho), hi)
    lo = np.where(wrap_angle(rel + math.pi) <= tr - tl, np.minimum(lo, -rho), lo)
    g, s = pa.cos_r[:, None] * (pa.z @ w.T), pa.sin_r[:, None]
    return g + s * lo, g + s * hi, rho


def _caps_block(pa: ArcStack, tl, tr, b: ArcStack) -> np.ndarray:
    """Structural caps of a block of arcs (rows) against all pieces of ``b`` (columns)."""
    span = (tr - tl)[:, None]
    length = span * pa.sin_r[:, None]
    small_a = (pa.cos_r > 0.0)[:, None]
    great_b = b.cos_r == 0.0
    full_b = b.span >= TWO_PI - DOT_EPS
    # any single boundary point v gives sup dist(., b) <= sup d(., v), exact
    # on plateaus where a vertex is the nearest feature
    caps = [acos_clamped_np(_dot_ranges(pa, tl, tr, v)[0]).min(axis=1) for v in (b.start, b.end)]

    # the distance to a full circle is |d(x, z) - r|, whose range over the
    # arc is closed form; it also serves concentric small arcs below
    cmin, cmax, rho = _dot_ranges(pa, tl, tr, b.z)
    ring = np.maximum(
        np.abs(acos_clamped_np(cmax) - b.radius), np.abs(acos_clamped_np(cmin) - b.radius)
    )
    caps.append(np.where(full_b, ring, np.inf).min(axis=1))

    # small arcs about near-bit-identical centres share the canonical frame,
    # so the azimuth containment is meaningful; the centre mismatch enters
    # the bound as the chord gamma
    cc = pa.z @ b.z.T
    off = np.fmod(tl[:, None] - b.t0, TWO_PI)
    off = np.where(off < 0.0, off + TWO_PI, off)
    off = np.where(off >= TWO_PI - 1e-6, 0.0, off)
    overhang = np.maximum(0.0, off + span - b.span)
    gamma = np.sqrt(np.maximum(0.0, 2.0 * (1.0 - cc)))
    ok = small_a & ~great_b & ~full_b & (cc >= 1.0 - 1e-15) & (overhang <= 1e-6)
    caps.append(np.where(ok, ring + overhang * b.sin_r + 2.0 * gamma, np.inf).min(axis=1))

    # foot parameters of the arc's start, middle and end on each great circle
    ends = [pa.point_at(t) for t in (tl, 0.5 * (tl + tr), tr)]
    ts, tm, te = (np.arctan2(x @ b.v.T, x @ b.u.T) for x in ends)
    length_b = b.span * b.sin_r

    # a great arc on pb's great circle: rho is the exact sup of |x . pole|
    # over its circle; every point is that close to pb's full circle, and
    # its foot drifts by at most the same angle
    coplanar = ~small_a & great_b & (np.abs(cc) >= 1.0 - 1e-9)
    amp = np.arcsin(np.minimum(1.0, rho))
    overhang = np.maximum.reduce(
        [-np.minimum(ts, te), np.maximum(ts, te) - length_b, np.abs(np.abs(te - ts) - length)]
    ).clip(min=0.0)
    ok = coplanar & (overhang <= 1e-3 + 2.0 * amp)
    caps.append(np.where(ok, 1.01 * amp + overhang + 1e-12, np.inf).min(axis=1))

    # a short arc against one edge: the sup of |asin(x . pole)| is closed
    # form and tight at the peak of a chord sliver; the foot map onto the
    # supporting circle stretches arc length by at most 1/cos(amp) < 1.1
    amp = np.arcsin(np.minimum(1.0, np.maximum(np.abs(cmin), np.abs(cmax))))
    reach = 1.1 * length
    lo = np.minimum(np.minimum(ts, tm), te) - reach
    hi = np.maximum(np.maximum(ts, tm), te) + reach
    overhang = np.maximum(-lo, hi - length_b).clip(min=0.0)
    ok = great_b & ~coplanar & (amp < 0.3)
    caps.append(np.where(ok, amp + overhang, np.inf).min(axis=1))

    # arcs too short to stand alone (``CircleArc.sub`` gives None) get no cap
    short = (tr - tl <= 1e-9) | (
        (pa.cos_r == 0.0) & (np.abs(np.sum(ends[0] * ends[2], axis=1)) >= 1.0 - DOT_EPS)
    )
    return np.where(short, np.inf, np.minimum.reduce(caps))


def _structural_caps(arcs: ArcStack, idx, tl, tr, b: ConvexBody) -> np.ndarray:
    """Closed-form upper bound on the sup over each arc of the distance to ``b``.

    Row i is the arc of piece ``arcs[idx[i]]`` over the parameters
    [tl[i], tr[i]] in its own frame.  Its cap is the least, over all pieces
    of ``b``, of a vertex cap for each piece endpoint and of caps against a
    full-circle piece (the distance to a full circle is |d(x, Z) - r|), a
    small arc about the same centre with a covering span, a great arc on the
    same great circle, and an edge near a short arc.  Everything else is
    left to the Lipschitz refinement (cap inf).  These caps collapse the
    plateau landscapes, e.g. concentric caps, a polytope edge equidistant
    from a cap, or a body compared against its own double dual.  Evaluated
    in blocks of at most ``BLOCK_ELEMENTS`` arcs x pieces.
    """
    caps = np.empty(len(tl))
    per = max(1, BLOCK_ELEMENTS // len(b.pieces))
    for lo in range(0, len(tl), per):
        i = slice(lo, lo + per)
        caps[i] = _caps_block(arcs[idx[i]], tl[i], tr[i], b.arcs)
    return caps


class _Direction:
    """Refinement state for sup over the boundary of ``a`` of dist(., b).

    One queue of parameter intervals per piece of ``a``.  Intervals carry
    both the Lipschitz bound and a structural cap: the whole pieces are
    capped in one ``_structural_caps`` call, and every few levels one call
    per queue recaps all surviving sub-intervals, so plateaus straddling a
    feature of ``b`` still collapse.
    """

    RECAP_LEVELS = frozenset({6, 10, 14, 18, 22})

    def __init__(self, a: ConvexBody, b: ConvexBody):
        self.b = b
        self.arcs = a.arcs
        self.queues = []
        self.lb = 0.0
        self.level = 0
        caps = _structural_caps(a.arcs, np.arange(len(a.pieces)), a.arcs.t0, a.arcs.t1, b)
        for i, pa in enumerate(a.pieces):
            lam = pa.sin_r
            n = int(np.clip(math.ceil(pa.span * lam / 0.05), 4, 512))
            ts = np.linspace(pa.t0, pa.t1, n + 1)
            fs = body_distance_many(b, pa.point_at(ts))
            self.lb = max(self.lb, float(fs.max()))
            self.queues.append(
                {
                    "index": i,
                    "piece": pa,
                    "lam": lam,
                    "cap": np.full(n, caps[i]),
                    "tl": ts[:-1],
                    "tr": ts[1:],
                    "fl": fs[:-1],
                    "fr": fs[1:],
                }
            )

    def _ubs(self, q) -> np.ndarray:
        lip = 0.5 * (q["fl"] + q["fr"]) + 0.5 * q["lam"] * (q["tr"] - q["tl"])
        return np.minimum(lip, q["cap"])

    def refine_once(self, lb: float, tol: float) -> float:
        """One split level; returns the updated global lower bound."""
        self.level += 1
        recap = self.level in self.RECAP_LEVELS
        for q in self.queues:
            if len(q["tl"]) == 0:
                continue
            alive = self._ubs(q) > lb + tol
            if not np.any(alive):
                q["tl"] = q["tl"][:0]
                continue
            tl, tr = q["tl"][alive], q["tr"][alive]
            fl, fr = q["fl"][alive], q["fr"][alive]
            cap = q["cap"][alive]
            if recap and len(tl) <= 65536:
                idx = np.full(len(tl), q["index"])
                cap = np.minimum(cap, _structural_caps(self.arcs, idx, tl, tr, self.b))
            tm = 0.5 * (tl + tr)
            fm = body_distance_many(self.b, q["piece"].point_at(tm))
            lb = max(lb, float(fm.max()))
            q["tl"] = np.concatenate([tl, tm])
            q["tr"] = np.concatenate([tm, tr])
            q["fl"] = np.concatenate([fl, fm])
            q["fr"] = np.concatenate([fm, fr])
            q["cap"] = np.concatenate([cap, cap])
        return lb

    def alive(self, lb: float, tol: float) -> bool:
        for q in self.queues:
            if len(q["tl"]) and np.any(self._ubs(q) > lb + tol):
                return True
        return False


def _refine(directions: list[_Direction], tol: float) -> float:
    """Refine the directed suprema against one shared lower bound, in order."""
    lb = max(d.lb for d in directions)
    for _ in range(64):
        alive = [d for d in directions if d.alive(lb, tol)]
        if not alive:
            return lb
        for d in alive:
            lb = d.refine_once(lb, tol)
    return lb


def boundary_sup_distance(a: BodyLike, b: BodyLike, tol: float = HAUSDORFF_TOL) -> float:
    """sup over the boundary of ``a`` of the distance to ``b``, within ``tol``."""
    return _refine([_Direction(as_body(a), as_body(b))], tol)


def hausdorff(a: BodyLike, b: BodyLike, tol: float = HAUSDORFF_TOL) -> float:
    """Geodesic Hausdorff distance between two convex bodies.

    Both directed suprema are refined against a shared lower bound, so the
    smaller direction collapses immediately; the result underestimates the
    true value by at most ``tol``.
    """
    a = as_body(a)
    b = as_body(b)
    return _refine([_Direction(a, b), _Direction(b, a)], tol)


def self_duality_residual(body: BodyLike, tol: float = HAUSDORFF_TOL) -> float:
    """Hausdorff distance between the body and its polar dual."""
    b = as_body(body)
    return hausdorff(b, polar_dual(b), tol=tol)


# ------------------------------------------------------------- width report


@dataclass(frozen=True)
class WidthReport:
    """Result of a constant-width verification sweep."""

    tau: float
    tol: float
    width_min: float
    width_max: float
    diameter: float
    thickness: float
    self_duality_residual: Optional[float]
    passed: bool

    @property
    def spread(self) -> float:
        return self.width_max - self.width_min


def is_constant_width(
    body: BodyLike, tau: float, tol: float = 1e-6, sweep: int = 4096
) -> WidthReport:
    """Sweep all supporting hemispheres and compare widths against ``tau``.

    Poles are sampled along the dual boundary (where all supporting poles
    live) together with every piece endpoint; the exact minimum width is
    pinned by pi - diameter(dual).  For tau = pi/2 the self-duality residual
    is reported as well.
    """
    b = as_body(body)
    dual = polar_dual(b)
    params = length_weighted_params(dual.pieces, sweep)
    k = np.vstack([p.point_at(ts) for p, ts in zip(dual.pieces, params)])
    widths = math.pi - boundary_max_distance_many(dual, k)
    thick = math.pi - diameter(dual)
    wmin = min(float(widths.min()), thick)
    wmax = float(widths.max())
    body_diam = diameter(b)
    residual = None
    if abs(tau - 0.5 * math.pi) < 1e-9:
        residual = hausdorff(b, dual)
    passed = (wmax - wmin <= tol) and abs(wmin - tau) <= tol
    return WidthReport(
        tau=tau,
        tol=tol,
        width_min=wmin,
        width_max=wmax,
        diameter=body_diam,
        thickness=thick,
        self_duality_residual=residual,
        passed=passed,
    )

"""Spherical primitives on the unit sphere.

Points are unit 3-vectors (numpy arrays of shape (3,)).  Every boundary piece
is an arc of a circle in one parametrisation,

    point(t) = cos r * z + sin r * (cos t * u + sin t * v),   t0 <= t <= t1,

with centre z, angular radius r in (0, pi/2] and a tangent frame (u, v) at z.
A ``SmallCircleArc`` has r < pi/2 and the canonical ``tangent_basis`` frame; a
``GreatArc`` is the r = pi/2 case about its pole, and ``ArcStack.great`` is
the one test that tells the two apart on a stack.  Sampling, support poles,
distance and farthest-point queries are therefore one closed form for both,
and so is ``arc_dot_range``, the exact range of x . w along stacked arcs,
which validation and the Hausdorff structural caps share; each stack takes
the cosines and sines of its ends once (``ArcStack.end_trig``), and a part
of its arcs is ``ArcStack.part``.  The farthest kernel works on cosines:
``min_dot_to_piece`` gives the least x . y over each piece and takes no
arccos, so a caller reduces the cosines and takes one arccos per distance
it reports (``max_distance_to_piece`` is the arccos of each), and
``farthest_on_arc`` reads the farthest point off the same candidates.
``stack_arcs`` lays out a whole boundary as arrays; ``great_arc_stack`` and
``small_arc_stack`` build them from ends, or centres, radii and azimuths, in
one pass, each piece object being the one-row case (``arc_pieces`` gives a
stack's rows as objects).  Where a value must be ``math``'s rather than
numpy's, ``math_each`` maps the ``math`` function over a whole column at C
level, so no builder runs Python code per row.  The distance kernels and
the least support-pole dot take a stack for one column per piece,
``farthest_on_arc`` one row of a stack, the Hausdorff structural caps one
stack per body.
Everything here is a pure function over immutable values and is safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import AmbiguousSide, DegenerateArc, DegenerateLune

# Single global degeneracy threshold on dot products (equality / antipodality).
DOT_EPS = 1e-12
# Tolerance for "point lies on a piece / boundary" predicates.
BOUNDARY_EPS = 1e-9

TWO_PI = 2.0 * math.pi

Vec = np.ndarray


def unit(v) -> Vec:
    """Normalize ``v`` to a unit 3-vector."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError("expected a 3-vector, got shape %s" % (a.shape,))
    n = math.sqrt(a.dot(a))  # np.linalg.norm of a vector, without its dispatch
    if n < DOT_EPS:
        raise ValueError("cannot normalize a near-zero vector")
    return a / n


def unit_rows(m) -> np.ndarray:
    """Normalize each row of an (n, 3) array.

    Each row is first scaled by the power of two that puts its largest
    |component| in [0.5, 1); the scaling is exact, so no finite row overflows
    or underflows in its norm."""
    a = np.asarray(m, dtype=float)
    a = np.ldexp(a, -np.frexp(np.abs(a).max(axis=-1, keepdims=True))[1])
    return a / np.sqrt(np.add.reduce(a * a, axis=-1, keepdims=True))


def norm_rows(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)`` of a float array, bit for bit: the root of the same sum of squares, without
    the dispatch that costs more than the sum on a few rows."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[i] @ y[i]`` for every row i, or ``x[i] @ y`` for one vector ``y``.

    numpy runs each (1, 3) @ (3, 1) product of the stack as a 1-D dot, so
    every value equals the 1-D product of its contiguous row bit for bit, as
    an (n, 3) @ (3,) product need not.
    """
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return np.matmul(x[:, None, :], y[:, :, None] if y.ndim == 2 else y).reshape(len(x))


def unit_each(m) -> np.ndarray:
    """Each row of an (n, 3) array divided by its norm, bit for bit ``unit`` of the row.

    Unlike ``unit_rows`` it does not rescale first; a row of norm below
    ``DOT_EPS`` raises ``ValueError``, as in ``unit``.
    """
    a = np.ascontiguousarray(m, dtype=float)
    n = np.sqrt(row_dots(a, a))
    if (n < DOT_EPS).any():
        raise ValueError("cannot normalize a near-zero vector")
    return a / n[:, None]


def math_each(f, *columns) -> np.ndarray:
    """``f`` of the Python floats of each row of the 1-D ``columns``, as one C-level ``map`` over their lists.

    The values are ``math``'s, bit for bit, which numpy's need not be; no
    Python code runs per row unless ``f`` is itself written in Python.
    """
    lists = [np.asarray(c, dtype=float).tolist() for c in columns]
    return np.fromiter(map(f, *lists), dtype=float, count=len(lists[0]))


def dot(a: Vec, b: Vec) -> float:
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])


def cross(a: Vec, b: Vec) -> Vec:
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


_NEXT, _AFTER, _AXES = np.array([1, 2, 0]), np.array([2, 0, 1]), np.eye(3)  # coordinates k + 1, k + 2; the axes


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of (..., 3) arrays, bit for bit (the same products and differences), without its axis handling."""
    return a.take(_NEXT, axis=-1) * b.take(_AFTER, axis=-1) - a.take(_AFTER, axis=-1) * b.take(_NEXT, axis=-1)


def acos_clamped(x) -> float:
    """arccos with the argument clamped to [-1, 1], for one Python float.

    A dot product of unit vectors can drift past -+1 by roundoff; clamped,
    its arccos is 0 or pi rather than NaN, and a NaN argument gives pi.
    ``acos_clamped_each`` is the same for a whole column, bit for bit;
    ``acos_clamped_np`` is the numpy form, which need not round as ``math``
    does.
    """
    return math.acos(min(1.0, max(-1.0, x)))


def acos_clamped_each(x) -> np.ndarray:
    """``acos_clamped`` of each value of a column, bit for bit: ``math.acos`` mapped over it (``math_each``)
    after the same clamp, with NaN clamped to -1 (``np.clip`` would keep it)."""
    return math_each(math.acos, np.minimum(np.fmax(x, -1.0), 1.0))


def acos_clamped_np(x) -> np.ndarray:
    return np.arccos(np.clip(x, -1.0, 1.0))


def wrap_angle(a) -> np.ndarray:
    """Angle(s) ``a`` reduced into [0, 2*pi]; several times cheaper than np.mod."""
    return a - TWO_PI * np.floor(a / TWO_PI)


def geodesic_distance(p: Vec, q: Vec) -> float:
    """Great-circle distance arccos(p . q) in [0, pi]."""
    return acos_clamped(dot(p, q))


def lune_thickness(pole_a: Vec, pole_b: Vec) -> float:
    """Thickness pi - arccos(pole_a . pole_b) of the lune H(a) & H(b)."""
    d = dot(pole_a, pole_b)
    if abs(d) >= 1.0 - DOT_EPS:
        raise DegenerateLune("lune poles are equal or antipodal")
    return math.pi - acos_clamped(d)


def arc_pole(p1: Vec, p2: Vec, side_hint: Vec) -> Vec:
    """Unit normal of the great circle through p1, p2, signed by ``side_hint``.

    The result is orthogonal to both inputs and has positive dot with the
    hint.  Raises ``DegenerateArc`` for equal/antipodal inputs and
    ``AmbiguousSide`` when the hint lies on the great circle itself.
    """
    if abs(dot(p1, p2)) >= 1.0 - DOT_EPS:
        raise DegenerateArc("arc endpoints are equal or antipodal")
    n = unit(cross(p1, p2))
    s = dot(n, side_hint)
    if abs(s) < DOT_EPS:
        raise AmbiguousSide("side hint is orthogonal to the pole line")
    return n if s > 0 else -n


def tangent_basis(z: Vec) -> tuple[Vec, Vec]:
    """Deterministic right-handed tangent frame (u, v) at ``z``.

    u is the normalized projection of the coordinate axis least aligned with
    ``z``; v = z x u.  Azimuths about ``z`` are measured from u toward v, so
    the frame fixes the parametrization of every circle centered at ``z``.
    """
    u, v = tangent_frames(np.asarray(z, dtype=float)[None])
    return u[0], v[0]


def tangent_frames(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``tangent_basis`` (u, v) of each unit row of ``z``; ties go to the first least coordinate."""
    axis = _AXES[np.abs(z).argmin(axis=1)]
    # axis . z written out in the order of ``dot``
    d = axis[:, 0] * z[:, 0] + axis[:, 1] * z[:, 1] + axis[:, 2] * z[:, 2]
    u = unit_each(axis - d[:, None] * z)
    return u, cross_rows(z, u)


class CircleArc:
    """Arc of the circle of angular radius r about the centre z.

    point(t) = cos r * z + sin r * (cos t * u + sin t * v) for t in [t0, t1],
    where (u, v) is a right-handed tangent frame at z (v = z x u), so t runs
    counterclockwise about z seen from outside the sphere.  Each subclass
    is the one-row case of a stack builder, whose row gives it ``z``,
    ``radius``, ``cos_r``, ``sin_r``, ``u``, ``v``, ``t0``, ``t1``,
    ``start`` and ``end`` (``_take_row``).
    """

    @property
    def span(self) -> float:
        return self.t1 - self.t0

    @property
    def length(self) -> float:
        return self.span * self.sin_r

    @property
    def is_full(self) -> bool:
        return self.span >= TWO_PI - DOT_EPS

    def _ring(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.outer(np.cos(t), self.u) + np.outer(np.sin(t), self.v)

    def point_at(self, t) -> np.ndarray:
        return self.cos_r * self.z + self.sin_r * self._ring(t)

    def support_pole_at(self, t) -> np.ndarray:
        """Pole of the tangent great circle at parameter ``t``.

        The pole lies in span{z, point} orthogonal to the point, on the
        centre side, so H(pole) contains the local cap; on a great arc it is
        the arc's pole everywhere.
        """
        return self.sin_r * self.z - self.cos_r * self._ring(t)

    def azimuth_of(self, p) -> np.ndarray:
        """Azimuth of point(s) ``p`` about z in [0, 2*pi), measured from u."""
        p = np.asarray(p, dtype=float)
        return np.mod(np.arctan2(p @ self.v, p @ self.u), TWO_PI)

    def midpoint(self) -> Vec:
        return self.point_at(0.5 * (self.t0 + self.t1))[0]


@dataclass(frozen=True, eq=False)
class GreatArc(CircleArc):
    """Minor geodesic arc between two non-antipodal endpoints.

    The r = pi/2 circle arc about its pole: the frame is (start, b) with b
    the unit tangent at start toward end, t runs over [0, length], and
    cos r and sin r are exactly 0 and 1.  Spans of pi or more must be split
    by callers; the arc never contains the antipodes of its endpoints.
    """

    start: Vec
    end: Vec

    def __post_init__(self):
        _take_row(self, great_arc_stack(np.reshape(self.start, (1, 3)), np.reshape(self.end, (1, 3))), 0, True)

    @property
    def pole(self) -> Vec:
        """Pole of the supporting great circle, oriented start x end."""
        return self.z

    def param_of(self, p) -> np.ndarray:
        """Signed angle parameter of point(s) on the supporting circle."""
        p = np.asarray(p, dtype=float)
        return np.arctan2(p @ self.v, p @ self.u)


@dataclass(frozen=True, eq=False)
class SmallCircleArc(CircleArc):
    """Arc of the circle at angular radius ``radius`` in (0, pi/2) about ``center``.

    The frame is the deterministic ``tangent_basis`` of the centre and the
    parameter is the azimuth: ``az_from`` is normalized into [0, 2*pi) and
    ``az_to - az_from`` must lie in (0, 2*pi].  Radius pi/2 is the great-arc
    case, which is built from its endpoints as ``GreatArc``.
    """

    center: Vec
    radius: float
    az_from: float
    az_to: float

    def __post_init__(self):
        row = small_arc_stack(np.reshape(self.center, (1, 3)), [self.radius], [self.az_from], [self.az_to])
        _take_row(self, row, 0, False)


@dataclass(frozen=True, eq=False)
class ArcStack:
    """The pieces of one boundary as stacked arrays, row i for piece i.

    The field names match the ``CircleArc`` attributes, so
    ``distance_to_piece`` takes either one piece (one distance per row) or a
    stack (rows x pieces); slicing gives the stack of a run of pieces.  The
    methods are the ``CircleArc`` formulas elementwise (bit for bit per row);
    ``t`` broadcasts, so ``np.linspace(t0, t1, k)`` gives k values a piece.
    ``point_at`` and ``support_pole_at`` take an optional row index and
    then read only the five fields they use, bit for bit
    ``arcs[rows].point_at(t)`` without building that sub-stack.
    """

    z: np.ndarray
    u: np.ndarray
    v: np.ndarray
    start: np.ndarray
    end: np.ndarray
    radius: np.ndarray
    cos_r: np.ndarray
    sin_r: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    span: np.ndarray

    def __getitem__(self, key) -> ArcStack:
        return ArcStack(**{f.name: getattr(self, f.name)[key] for f in fields(self)})

    def __len__(self) -> int:
        return len(self.t0)

    @property
    def great(self) -> np.ndarray:
        """Whether each row is a great arc, radius pi/2; ``small_arc_stack`` refuses radii within ``DOT_EPS`` of it."""
        return self.radius == 0.5 * math.pi

    @cached_property
    def end_trig(self) -> tuple[np.ndarray, np.ndarray]:
        """cos and sin of (t0, t1), each (2, rows), taken once per stack.

        Validation's pole integral and hemisphere range (``arc_dot_range``),
        ``min_support_dot`` and ``ConvexBody.junction_poles`` all read these
        values; ``small_arc_stack`` and ``part`` keep the ones they made
        their ends from.
        """
        t = np.array([self.t0, self.t1])
        return np.cos(t), np.sin(t)

    def part(self, tl, tr) -> ArcStack:
        """The rows' arcs over the parameters [tl[i], tr[i]] of their own frames; start and end are
        ``point_at(tl)`` and ``point_at(tr)`` bit for bit."""
        return _arcs_over(self.z, self.u, self.v, self.radius, self.cos_r, self.sin_r, tl, tr)

    def _terms(self, t, rows):
        """cos r, sin r, z and the ring cos t u + sin t v of the rows ``rows`` (all rows for None)."""
        cos_r, sin_r, z, u, v = self.cos_r, self.sin_r, self.z, self.u, self.v
        if rows is not None:
            cos_r, sin_r, z, u, v = cos_r[rows], sin_r[rows], z[rows], u[rows], v[rows]
        t = np.asarray(t, dtype=float)[..., None]
        return cos_r[..., None], sin_r[..., None], z, np.cos(t) * u + np.sin(t) * v

    def point_at(self, t, rows=None) -> np.ndarray:
        cos_r, sin_r, z, ring = self._terms(t, rows)
        return cos_r * z + sin_r * ring

    def support_pole_at(self, t, rows=None) -> np.ndarray:
        cos_r, sin_r, z, ring = self._terms(t, rows)
        return sin_r * z - cos_r * ring


def stack_arcs(pieces) -> ArcStack:
    """The ``ArcStack`` of piece objects, one row each, their values as they are; ``pieces`` may be any iterable."""
    pieces = list(pieces)
    return ArcStack(
        **{f.name: np.array([getattr(p, f.name) for p in pieces], dtype=float) for f in fields(ArcStack)}
    )


def _arcs_over(z, u, v, radius, cos_r, sin_r, t0, t1) -> ArcStack:
    """The stack of the arcs over [t0, t1], its ends made from the one cos/sin round it keeps (``end_trig``)."""
    cos, sin = np.cos([t0, t1]), np.sin([t0, t1])
    start, end = cos_r[:, None] * z + sin_r[:, None] * (cos[..., None] * u + sin[..., None] * v)
    a = ArcStack(z=z, u=u, v=v, start=start, end=end, radius=radius, cos_r=cos_r, sin_r=sin_r, t0=t0, t1=t1, span=t1 - t0)
    a.__dict__["end_trig"] = cos, sin
    return a


def _no_arcs() -> ArcStack:
    """The stack of zero rows, shaped as the builders leave it, without their numpy calls."""
    rows, values = np.empty((0, 3)), np.empty(0)
    return ArcStack(rows, rows, rows, rows, rows, values, values, values, values, values, values)


def great_arc_stack(starts, ends) -> ArcStack:
    """The ``ArcStack`` of the great arcs [starts[i], ends[i]], built in one pass.

    Equal bit for bit, field by field, to ``stack_arcs`` of the
    ``GreatArc(starts[i], ends[i])`` objects: the rows are normalised as
    ``unit`` does (``unit_each``), the dot product is written out in the
    order of ``dot``, the poles are ``cross_rows``, and each length is
    ``acos_clamped`` of its cosine (``acos_clamped_each``, one C-level map
    of ``math.acos``; ``np.arccos`` rounds some values differently).
    Raises ``DegenerateArc`` when some pair of ends is equal or antipodal.
    Zero rows give the empty stack at once.
    """
    n = len(starts)
    if not n:
        return _no_arcs()
    # unit_each is per row, so each pair of columns is normalised in one call
    se = unit_each(np.concatenate([starts, ends]))
    s, e = se[:n], se[n:]
    c = s[:, 0] * e[:, 0] + s[:, 1] * e[:, 1] + s[:, 2] * e[:, 2]
    if (np.abs(c) >= 1.0 - DOT_EPS).any():
        raise DegenerateArc("great arc endpoints equal or antipodal")
    zv = unit_each(np.concatenate([cross_rows(s, e), e - c[:, None] * s]))
    length = acos_clamped_each(c)
    return ArcStack(
        z=zv[:n],
        u=s,
        v=zv[n:],
        start=s,
        end=e,
        radius=np.full(n, 0.5 * math.pi),
        cos_r=np.zeros(n),
        sin_r=np.ones(n),
        t0=np.zeros(n),
        t1=length,
        span=length.copy(),
    )


def small_arc_stack(centers, radius, az_from, az_to) -> ArcStack:
    """The ``ArcStack`` of the small-circle arcs about ``centers[i]`` of ``radius[i]``, from ``az_from[i]`` to ``az_to[i]``.

    One pass; ``SmallCircleArc`` is its one-row case.  Each centre is
    normalised as ``unit`` does (``unit_each``) and takes the
    ``tangent_basis`` of the normalised centre, the cosine and sine of each
    radius are ``math``'s, ``az_from`` is reduced into [0, 2 pi) and the span
    clipped to 2 pi.  Raises ``ValueError`` on a radius outside (0, pi/2) or
    a span outside (0, 2 pi], each by ``DOT_EPS``.  Zero rows give the
    empty stack at once.
    """
    if not np.size(centers):
        return _no_arcs()
    z = unit_each(np.reshape(centers, (-1, 3)))
    r = np.asarray(radius, dtype=float)
    if not ((DOT_EPS < r) & (r < math.pi / 2 - DOT_EPS)).all():
        raise ValueError("small circle radius must lie strictly in (0, pi/2)")
    span = np.asarray(az_to, dtype=float) - az_from
    if not ((DOT_EPS < span) & (span <= TWO_PI + DOT_EPS)).all():
        raise ValueError("azimuth span must lie in (0, 2*pi]")
    t0 = np.fmod(az_from, TWO_PI)
    t0 = np.where(t0 < 0, t0 + TWO_PI, t0)
    t1 = t0 + np.minimum(span, TWO_PI)
    u, v = tangent_frames(z)
    return _arcs_over(z, u, v, r, math_each(math.cos, r), math_each(math.sin, r), t0, t1)


def join_stacks(*stacks: ArcStack, keys=None) -> ArcStack:
    """The rows of ``stacks`` one stack after the other, or, given a key array per stack, in the order of the
    keys; the one stack with rows, already in that order, comes back as it is."""
    full = [s for s in stacks if len(s)] or list(stacks[:1])
    a = full[0] if len(full) == 1 else ArcStack(**{f.name: np.concatenate([getattr(s, f.name) for s in full]) for f in fields(ArcStack)})
    order = None if keys is None else np.argsort(np.concatenate(keys))
    return a if order is None or (order[1:] > order[:-1]).all() else a[order]


def _take_row(piece: CircleArc, a: ArcStack, i: int, great: bool) -> CircleArc:
    """``piece`` given the values of row i of ``a`` as they are; a small-circle arc (not ``great``) names its
    centre and azimuths."""
    row = {f.name: getattr(a, f.name)[i] for f in fields(ArcStack) if f.name != "span"}  # span is t1 - t0
    piece.__dict__.update({k: x.copy() if x.ndim else float(x) for k, x in row.items()})
    if not great:
        piece.__dict__.update(center=piece.z, az_from=piece.t0, az_to=piece.t1)
    return piece


def arc_pieces(a: ArcStack) -> list[CircleArc]:
    """The rows of ``a`` as ``GreatArc`` (radius pi/2) and ``SmallCircleArc`` objects.

    Each object takes its row's values as they are, none renormalised, so
    ``stack_arcs`` of the result is ``a`` bit for bit.
    """
    return [
        _take_row(object.__new__(GreatArc if g else SmallCircleArc), a, i, g) for i, g in enumerate(a.great.tolist())
    ]


def sample_piece(piece: CircleArc, n: int) -> np.ndarray:
    """``n`` points evenly spaced in the piece's angle parameter, endpoints included."""
    if n < 2:
        raise ValueError("need at least two sample points")
    return piece.point_at(np.linspace(piece.t0, piece.t1, n))


def length_weighted_counts(arcs: ArcStack, count: int) -> np.ndarray:
    """Sample counts per piece of the stack, about ``count`` in all.

    Each piece gets a share proportional to its length, rounded half to
    even (``np.rint``, as ``round`` does), and at least four; the lengths
    are summed in chain order, as Python floats.
    """
    lengths = arcs.span * arcs.sin_r
    total = max(sum(lengths.tolist()), 1e-12)
    return np.maximum(4, np.rint(count * lengths / total).astype(int))


def linspace_grid(t0, t1, counts) -> tuple[np.ndarray, np.ndarray]:
    """``np.linspace(t0[i], t1[i], counts[i])`` for every piece i, stacked.

    Returns the piece index and the parameter of each row, bit for bit the
    values of the per-piece ``linspace`` calls: k * step + t0 with
    step = (t1 - t0) / (counts - 1), and each piece's last row exactly t1.
    Every count must be at least two.
    """
    idx = np.repeat(np.arange(len(counts)), counts)
    last = np.cumsum(counts) - 1
    k = np.arange(len(idx)) - (last - counts + 1)[idx]
    t = k * ((t1 - t0) / (counts - 1))[idx] + t0[idx]
    t[last] = t1
    return idx, t


def point_to_piece_distance(p: Vec, piece: CircleArc) -> float:
    """Minimum geodesic distance from ``p`` to any point of the piece."""
    return float(distance_to_piece(np.asarray(p, dtype=float)[None, :], piece)[0])


def _dots(x: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``x @ vecs.T`` as one matrix-vector product per row of ``vecs``.

    Each column then equals ``x @ vec`` bit for bit, so a piece gets the
    same values alone as inside a stack of any size.
    """
    if vecs.ndim == 1:
        return x @ vecs
    return np.matmul(x, vecs[:, :, None])[..., 0].T


def sinusoid_range(a, b, tl, tr, cos, sin):
    """Exact range of a cos t + b sin t over t in [tl, tr], elementwise.

    ``cos`` and ``sin`` hold the cosines and sines of tl and tr, stacked
    (an ``ArcStack.end_trig``).  The sinusoid has amplitude rho = hypot(a, b)
    and is extreme at the ends, and at t = atan2(b, a) (value rho) or
    t + pi (value -rho) when those lie inside the range.  The arguments
    broadcast; returns the minimum, the maximum and rho.
    """
    rho = np.hypot(a, b)
    rel = np.arctan2(b, a) - tl
    e0 = a * cos[0] + b * sin[0]
    e1 = a * cos[1] + b * sin[1]
    lo, hi = np.minimum(e0, e1), np.maximum(e0, e1)
    hi = np.where(wrap_angle(rel) <= tr - tl, np.maximum(hi, rho), hi)
    lo = np.where(wrap_angle(rel + math.pi) <= tr - tl, np.minimum(lo, -rho), lo)
    return lo, hi, rho


def arc_dot_range(arcs: ArcStack, w: np.ndarray):
    """Exact range of x . w over arcs, elementwise.

    Along arc i, x(t) . w = cos r (z . w) + sin r (au cos t + av sin t), whose
    sinusoid ``sinusoid_range`` bounds over [t0, t1] from the stack's
    ``end_trig`` (a part of an arc is a row of ``ArcStack.part``).  Arc
    i takes the vector w[i], or every arc one w; vectors w of shape
    (m, 1, 3) give (m, n) ranges, each vector against every arc.  Returns
    the minimum, the maximum and the sinusoid's amplitude rho = hypot(au, av).
    """
    lo, hi, rho = sinusoid_range((arcs.u * w).sum(axis=-1), (arcs.v * w).sum(axis=-1), arcs.t0, arcs.t1, *arcs.end_trig)
    g, s = arcs.cos_r * (arcs.z * w).sum(axis=-1), arcs.sin_r
    return g + s * lo, g + s * hi, rho


def _opposite_param(xu: np.ndarray, xv: np.ndarray, t0) -> np.ndarray:
    """How far past t0, in [0, 2*pi], lies the azimuth opposite atan2(xv, xu) (``wrap_angle``)."""
    return wrap_angle(np.arctan2(xv, xu) + math.pi - t0)


def distance_to_piece(points: np.ndarray, piece) -> np.ndarray:
    """Vectorized minimum geodesic distance from each row of ``points``.

    ``piece`` is one piece, or an ``ArcStack`` for one column per piece.
    When the azimuth lies in the span the distance is |d(x, z) - r| to the
    supporting circle, whose sine is |rho cos r - (x . z) sin r| with
    rho = sin d(x, z); the endpoints take over when it falls outside.
    """
    x = np.asarray(points, dtype=float)
    xu, xv, xz = _dots(x, piece.u), _dots(x, piece.v), _dots(x, piece.z)
    rho = np.sqrt(xu * xu + xv * xv)
    rel = wrap_angle(np.arctan2(xv, xu) - piece.t0)
    on = (rel <= piece.span + BOUNDARY_EPS) | (rel >= TWO_PI - BOUNDARY_EPS)
    circ = np.arcsin(np.clip(np.abs(rho * piece.cos_r - xz * piece.sin_r), 0.0, 1.0))
    circ = np.where(xz * piece.cos_r + rho * piece.sin_r < 0.0, math.pi - circ, circ)
    d_ends = np.minimum(acos_clamped_np(_dots(x, piece.start)), acos_clamped_np(_dots(x, piece.end)))
    return np.where(on, circ, d_ends)


def min_dot_to_piece(points: np.ndarray, piece) -> np.ndarray:
    """Vectorized least x . y over the points y of the piece, for each row x of ``points``.

    ``piece`` is one piece, or an ``ArcStack`` for one column per piece.
    The least dot, the cosine of the farthest distance, is taken at an
    endpoint or, when it lies in the span, at the azimuth opposite the
    query point, where it is (x . z) cos r - sqrt(x_u^2 + x_v^2) sin r.
    No arccos is taken: a caller reduces the cosines and takes one arccos
    per distance it reports.
    """
    x = np.asarray(points, dtype=float)
    least = np.minimum(_dots(x, piece.start), _dots(x, piece.end))
    xu, xv = _dots(x, piece.u), _dots(x, piece.v)
    on = _opposite_param(xu, xv, piece.t0) <= piece.span + BOUNDARY_EPS
    far = _dots(x, piece.z) * piece.cos_r - np.sqrt(xu * xu + xv * xv) * piece.sin_r
    return np.where(on, np.minimum(far, least), least)


def max_distance_to_piece(points: np.ndarray, piece) -> np.ndarray:
    """Vectorized maximum geodesic distance from each row of ``points``: the arccos of ``min_dot_to_piece``."""
    return acos_clamped_np(min_dot_to_piece(points, piece))


def min_support_dot(points: np.ndarray, arcs: ArcStack) -> np.ndarray:
    """Vectorized least x . K over the support poles K of each piece of the stack, rows x pieces.

    Along a piece K(t) = sin r z - cos r (cos t u + sin t v), so
    x . K(t) = sin r (x . z) - cos r (x_u cos t + x_v sin t) is least where
    the sinusoid is greatest (``sinusoid_range``); on a great arc cos r = 0
    and it is the constant x . pole.
    """
    x = np.asarray(points, dtype=float)
    if arcs.great.all():
        # great arcs only: the sinusoid's term is 0 * hi, with hi finite
        return arcs.sin_r * _dots(x, arcs.z)
    _, hi, _ = sinusoid_range(_dots(x, arcs.u), _dots(x, arcs.v), arcs.t0, arcs.t1, *arcs.end_trig)
    return arcs.sin_r * _dots(x, arcs.z) - arcs.cos_r * hi


def farthest_on_arc(x: Vec, arcs: ArcStack, j: int) -> Vec:
    """The point of arc ``j`` of the stack farthest from the point ``x``, read off the candidates of
    ``min_dot_to_piece``: the opposite-azimuth point when it lies in the span and x . y is no greater there
    than at either end, else the end of the lesser x . y, the start on a tie."""
    cs, ce, xu, xv, xz = _dots(x[None], np.stack([arcs.start[j], arcs.end[j], arcs.u[j], arcs.v[j], arcs.z[j]]))[0]
    far = float(_opposite_param(xu, xv, arcs.t0[j]))
    if far <= arcs.span[j] + BOUNDARY_EPS:
        c = xz * arcs.cos_r[j] - math.sqrt(xu * xu + xv * xv) * arcs.sin_r[j]
        if c <= cs and c <= ce:
            return arcs.point_at(arcs.t0[j] + min(far, arcs.span[j]), j)
    return arcs.start[j] if cs <= ce else arcs.end[j]


def arcs_intersect(a: GreatArc, b: GreatArc, tol: float = BOUNDARY_EPS) -> bool:
    """Closed intersection predicate for two minor great arcs.

    Candidate points are the two intersections of the supporting great
    circles; the arcs intersect iff one of them lies on both arcs (within
    ``tol``).  Shared endpoints count as intersections.
    """
    na = cross(a.start, a.end)
    nb = cross(b.start, b.end)
    x = cross(na, nb)
    nx = float(np.linalg.norm(x))
    if nx < DOT_EPS:
        # Same supporting circle: arcs overlap iff some endpoint of one lies
        # on the other.
        return (
            _on_arc(a, b.start, tol)
            or _on_arc(a, b.end, tol)
            or _on_arc(b, a.start, tol)
            or _on_arc(b, a.end, tol)
        )
    x = x / nx
    for cand in (x, -x):
        if _on_arc(a, cand, tol) and _on_arc(b, cand, tol):
            return True
    return False


def _on_arc(arc: GreatArc, p: Vec, tol: float) -> bool:
    if abs(dot(p, arc.pole)) > math.sin(tol) + DOT_EPS:
        return False
    t = float(arc.param_of(p))
    return -tol <= t <= arc.length + tol

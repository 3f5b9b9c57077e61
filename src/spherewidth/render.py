"""SVG rendering of bodies under orthographic or stereographic projection.

Boundary pieces project to exact conic arcs: under orthographic projection a
spherical circle becomes an ellipse segment (written as an SVG arc command
with semi-axes from the projected conjugate radii), and under stereographic
projection it becomes a circular arc through three exactly projected points.
Each piece is split into segments of at most ``MAX_SEG_SPAN``.  The bodies'
stacked arrays (``ConvexBody.arcs``) are joined into one stack, so the front
check, the frame and the segments of all bodies are each computed in one
pass, with no piece objects and no numpy call per segment or per body: one
batched SVD gives every ellipse's axes.  The orthographic path's scalar
``math.cos``, ``math.sin`` and ``math.atan2``, whose values numpy could
round differently, are mapped over whole columns at C level
(``sphere.math_each``); the stereographic circles' squares and radii are
numpy's, whose last bits the ``%.9g`` format hides.  Each path command is
one ``%.9g`` format mapped over the segment rows
(``formats.format_rows_by``), so no Python code runs per value or per
segment.  Output is deterministic for fixed inputs: fixed 1000 x 1000
viewBox, y down, bodies scaled to 90 percent of the frame.  The frame is the
exact box of the projected arcs, in closed form for both projections
(``projected_box``: each plane coordinate along an arc is a ratio of two
sinusoids, extreme at the ends or at the two roots of its derivative), and
the front-hemisphere checks take the exact least x . v along each arc
(``sphere.arc_dot_range``), so nothing is sampled.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .body import ConvexBody
from .formats import format_rows_by
from .sphere import (
    ArcStack,
    arc_dot_range,
    join_stacks,
    linspace_grid,
    math_each,
    row_dots,
    tangent_basis,
    unit,
    wrap_angle,
)

VIEWBOX = 1000.0
FILL_FRACTION = 0.9
STROKES = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# split every piece into parameter sub-spans of at most this angle so each
# SVG arc segment is short, well conditioned, and never ambiguous
MAX_SEG_SPAN = 0.5 * math.pi


class _Frame:
    """Affine map from projected plane coordinates to SVG pixels (y down), fitting the box [lo, hi]."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.center = 0.5 * (lo + hi)
        half = float(np.max(hi - lo)) / 2.0
        self.scale = FILL_FRACTION * (VIEWBOX / 2.0) / max(half, 1e-12)

    def to_px(self, q) -> np.ndarray:
        q = np.atleast_2d(q)
        px = VIEWBOX / 2.0 + self.scale * (q[:, 0] - self.center[0])
        py = VIEWBOX / 2.0 - self.scale * (q[:, 1] - self.center[1])
        return np.column_stack([px, py])


def projected_box(arcs: ArcStack, view, a, b, stereographic: bool) -> tuple[np.ndarray, np.ndarray]:
    """Exact corners lo, hi of the box about the projected arcs, in closed form.

    On row i, plane coordinate w in (a, b) is the ratio
    (n0 + n1 cos t + n2 sin t) / (d0 + d1 cos t + d2 sin t), where
    n = (cos r z.w, sin r u.w, sin r v.w) and d is (1, 0, 0) orthographic or
    (1 + cos r z.view, sin r u.view, sin r v.view) stereographic.  Its
    derivative vanishes where A sin t + B cos t + C = 0, with
    A = n0 d1 - n1 d0, B = n2 d0 - n0 d2 and C = n2 d1 - n1 d2, that is at
    atan2(A, B) +- acos(-C / hypot(A, B)); so each coordinate is extreme at
    the ends or at those roots that lie inside [t0, t1].  The denominator
    must stay positive on the arcs.
    """
    # (cos r z, sin r u, sin r v) . (a, b, view) on every row: one (1, 3) @ (3, 3) product a row
    dots = np.matmul(np.stack([arcs.z, arcs.u, arcs.v])[:, :, None], np.array([a, b, view]).T)[:, :, 0]
    coef = (dots * np.array([arcs.cos_r, arcs.sin_r, arcs.sin_r])[..., None]).transpose(0, 2, 1)
    n = coef[:, :2]  # (n0, n1, n2) x (a, b) x rows
    d = np.array([1.0, 0.0, 0.0])[:, None, None] + (coef[:, 2:] if stereographic else 0.0)
    A = n[0] * d[1] - n[1] * d[0]
    B = n[2] * d[0] - n[0] * d[2]
    C = n[2] * d[1] - n[1] * d[2]
    with np.errstate(divide="ignore", invalid="ignore"):  # nan where the ratio has no stationary point
        half = np.arccos(-C / np.hypot(A, B))
    rel = wrap_angle(np.arctan2(A, B) + np.array([-half, half]) - arcs.t0)
    # a root outside the arc, or none, falls back to the start
    t = np.concatenate([np.broadcast_to([arcs.t0, arcs.t1], rel.shape), np.where(rel <= arcs.span, rel, 0.0) + arcs.t0])
    cos, sin = np.cos(t), np.sin(t)
    q = (n[0] + n[1] * cos + n[2] * sin) / (d[0] + d[1] * cos + d[2] * sin)
    return q.min(axis=(0, 2)), q.max(axis=(0, 2))


def _segments(arcs: ArcStack):
    """Piece index and parameter of the start, middle and end of every segment, piece after piece.

    Each piece is split into ceil(span / ``MAX_SEG_SPAN``) equal segments,
    at least one, at the values of ``np.linspace(t0, t1, n + 1)``.  The
    three points of all segments are one column each: the piece index
    repeats thrice and t runs over the starts, the middles, then the ends.
    """
    n = np.maximum(1, np.ceil(arcs.span / MAX_SEG_SPAN).astype(int))
    idx, t = linspace_grid(arcs.t0, arcs.t1, n + 1)
    lo = np.flatnonzero(idx[:-1] == idx[1:])  # rows followed by one of the same piece
    t0, t1 = t[lo], t[lo + 1]
    return np.tile(idx[lo], 3), np.concatenate([t0, 0.5 * (t0 + t1), t1])


def _commands(line: np.ndarray, arc: str, values: np.ndarray, end: np.ndarray) -> list[str]:
    """One path command per segment, each one ``%.9g`` format: ``L x y`` to the pixel ``end`` where ``line``,
    else the command ``arc`` of the segment's row of ``values`` and its end."""
    return format_rows_by(line, "L %.9g %.9g", end[line], arc, np.column_stack([values[~line], end[~line]]))


def _sweep_flags(p0, pm, p1) -> np.ndarray:
    """1 where the pixel path p0 -> pm -> p1 turns counterclockwise, else 0."""
    cross = (pm[:, 0] - p0[:, 0]) * (p1[:, 1] - pm[:, 1]) - (pm[:, 1] - p0[:, 1]) * (p1[:, 0] - pm[:, 0])
    return (cross > 0).astype(int)


def _ortho_commands(arcs: ArcStack, j, t, a, b, frame: _Frame) -> list[str]:
    """The path commands of the pieces' orthographic images, one per segment.

    A piece's image is an ellipse arc with centre c and conjugate radii
    e, f (the projected cos r z, sin r u, sin r v), so the point at t is
    c + cos t e + sin t f; its semi-axes and rotation come from one batched
    SVD of the matrices [e f], and a flat image is a line.  ``j`` and ``t``
    are the ``_segments`` of ``arcs``.
    """
    c = [arcs.cos_r * row_dots(arcs.z, w) for w in (a, b)]
    e = [arcs.sin_r * row_dots(arcs.u, w) for w in (a, b)]
    f = [arcs.sin_r * row_dots(arcs.v, w) for w in (a, b)]
    cos, sin = math_each(math.cos, t), math_each(math.sin, t)
    px = frame.to_px(np.column_stack([c[k][j] + cos * e[k][j] + sin * f[k][j] for k in (0, 1)])).reshape(3, -1, 2)
    uu, ss, _ = np.linalg.svd(np.stack([e, f], axis=-1).transpose(1, 0, 2))
    theta = math_each(math.degrees, math_each(math.atan2, uu[:, 1, 0], uu[:, 0, 0]))
    i = j[: len(j) // 3]
    rx, ry = ss[i, 0] * frame.scale, ss[i, 1] * frame.scale
    flat = ry < 1e-9 * np.maximum(rx, 1.0)
    # y flip mirrors the ellipse rotation
    values = np.column_stack([rx, ry, -theta[i], _sweep_flags(*px)])
    return _commands(flat, "A %.9g %.9g %.9g 0 %d %.9g %.9g", values, px[2])


def _stereo_px(x: np.ndarray, v, a, b, frame: _Frame) -> np.ndarray:
    """Pixels of the stereographic images of the rows of ``x``, from the antipode of ``v``."""
    w = 1.0 + row_dots(x, v)
    return frame.to_px(np.column_stack([row_dots(x, a) / w, row_dots(x, b) / w]))


def _stereo_commands(arcs: ArcStack, j, t, v, a, b, frame: _Frame) -> list[str]:
    """The path commands of the pieces' stereographic images, one per segment.

    A circle's image is a circle: each segment is the arc of the
    circumcircle of its projected start, middle and end pixels, or a line
    when that circle is (nearly) flat.  ``j`` and ``t`` are the
    ``_segments`` of ``arcs``.
    """
    q = _stereo_px(arcs.point_at(t, j), v, a, b, frame)
    px = q.reshape(3, -1, 2)
    (ax, ay), (bx, by), (cx, cy) = (p.T for p in px)
    a2, b2, c2 = (q[:, 0] * q[:, 0] + q[:, 1] * q[:, 1]).reshape(3, -1)
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
        uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
        dx, dy = ax - ux, ay - uy
    r = np.hypot(dx, dy)
    flat = (np.abs(d) < 1e-9) | (r > 1e7)
    return _commands(flat, "A %.9g %.9g 0 0 %d %.9g %.9g", np.column_stack([r, r, _sweep_flags(*px)]), px[2])


def render_svg(bodies: Sequence[ConvexBody], projection: str = "orthographic", view=None) -> str:
    """Render bodies to an SVG document string.

    The view direction defaults to the unit mean of the bodies' interior
    witnesses.  Orthographic projection requires every body to lie in the
    open front hemisphere of the view direction, stereographic projection
    every body to keep x . v above -1 + 1e-6; either raises ``ValueError``
    otherwise, as do an empty list of bodies and a body without arcs.
    """
    if not len(bodies):
        raise ValueError("render_svg needs at least one body")
    if projection not in ("orthographic", "stereographic"):
        raise ValueError("projection must be orthographic or stereographic")
    if view is None:
        view = np.mean([body.interior for body in bodies], axis=0)
    v = unit(np.asarray(view, dtype=float))
    a, b = tangent_basis(v)

    # every body's arcs in one stack, body k from row first[k]: each step below is one pass over all of them
    counts = [len(body.arcs) for body in bodies]
    if not all(counts):
        raise ValueError("render_svg needs at least one arc per body")
    arcs = join_stacks(*(body.arcs for body in bodies))
    first = np.cumsum([0] + counts[:-1])
    stereographic = projection == "stereographic"
    front = np.minimum.reduceat(arc_dot_range(arcs, v)[0], first)
    if not stereographic and (front <= 0.0).any():
        raise ValueError("body is not contained in the front hemisphere")
    if stereographic and (front <= -1.0 + 1e-6).any():
        raise ValueError("body passes through the projection point")
    frame = _Frame(*projected_box(arcs, v, a, b, stereographic))

    j, t = _segments(arcs)
    start = arcs.start[first]
    if stereographic:
        p0 = _stereo_px(start, v, a, b, frame)
        cmds = _stereo_commands(arcs, j, t, v, a, b, frame)
    else:
        p0 = frame.to_px(np.column_stack([row_dots(start, a), row_dots(start, b)]))
        cmds = _ortho_commands(arcs, j, t, a, b, frame)
    bounds = [0] + np.searchsorted(j[: len(j) // 3], first[1:]).tolist() + [len(cmds)]  # body k's segments
    paths = []
    for k, (x, y) in enumerate(p0.tolist()):
        d = " ".join(["M %.9g %.9g" % (x, y)] + cmds[bounds[k] : bounds[k + 1]] + ["Z"])
        paths.append('<path d="%s" fill="none" stroke="%s" stroke-width="2"/>' % (d, STROKES[k % len(STROKES)]))

    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="0 0 1000 1000">\n'
        + "\n".join(paths)
        + "\n</svg>\n"
    )

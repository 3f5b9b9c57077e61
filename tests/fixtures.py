"""Shared geometric fixtures for the test suite."""

import math

import numpy as np

from spherewidth.approx import ApproximationConfig, approximate_polytope
from spherewidth.body import ConvexBody, Polytope, chain_body
from spherewidth.generators import (
    cap,
    complete_selfdual,
    octant,
    random_selfdual_polytope,
    rotated,
    rotation_from_seed,
    rounded_reuleaux,
)
from spherewidth.sphere import GreatArc, SmallCircleArc, cross, dot, stack_arcs, unit


def lens(z1, z2, r1, r2):
    """Intersection of two overlapping caps: a two-arc piecewise body.

    Not of constant width in general; used as a negative control and as a
    generic curved test body.
    """
    z1, z2 = unit(z1), unit(z2)
    g = dot(z1, z2)
    c1, c2 = math.cos(r1), math.cos(r2)
    a = (c1 - c2 * g) / (1 - g * g)
    b = (c2 - c1 * g) / (1 - g * g)
    x0 = a * z1 + b * z2
    t2 = 1.0 - float(np.dot(x0, x0))
    if t2 <= 0:
        raise ValueError("caps do not intersect transversally")
    n = unit(cross(z1, z2))
    xp = x0 + math.sqrt(t2) * n
    xm = x0 - math.sqrt(t2) * n

    probe1 = SmallCircleArc(z1, r1, 0.0, 2 * math.pi)
    probe2 = SmallCircleArc(z2, r2, 0.0, 2 * math.pi)

    def sub_arc(probe, z_other, r_other, start_pt, end_pt):
        a0 = float(probe.azimuth_of(start_pt))
        a1 = float(probe.azimuth_of(end_pt))
        span = (a1 - a0) % (2 * math.pi)
        arc = SmallCircleArc(probe.center, probe.radius, a0, a0 + span)
        mid = arc.point_at(a0 + span / 2)[0]
        if math.acos(max(-1, min(1, dot(mid, z_other)))) > r_other:
            # wrong side: take the complementary span
            span = 2 * math.pi - span
            arc = SmallCircleArc(probe.center, probe.radius, a1, a1 + span)
        return arc

    arc1 = sub_arc(probe1, z2, r2, xp, xm)
    arc2 = sub_arc(probe2, z1, r1, xm, xp)
    witness = unit(arc1.midpoint() + arc2.midpoint())
    body = ConvexBody([arc1, arc2], witness)
    if np.linalg.norm(body.pieces[0].end - body.pieces[1].start) > 1e-9:
        body = ConvexBody([arc2, arc1], witness)
    return body


def two_arc_seed(r):
    """Hull of the arcs of (e3, r) and (e3, pi/2 - r) on opposite azimuths.

    Every point of one arc is pi/2 from the opposite point of the other, so
    both arcs stay on the boundary of its self-dual completion.
    """
    e3 = np.array([0.0, 0.0, 1.0])
    arc = SmallCircleArc(e3, r, -0.5, 0.5)
    dual = SmallCircleArc(e3, 0.5 * math.pi - r, math.pi - 0.5, math.pi + 0.5)
    return chain_body(stack_arcs([arc, GreatArc(arc.end, dual.start), dual, GreatArc(dual.end, arc.start)]))


def chopped_cap(gap=math.pi / 2, center=(0.0, 0.0, 1.0), radius=math.pi / 4, start=0.0):
    """A cap truncated by the hemisphere of one chord pole: the chord from
    azimuth ``start`` of its circle to ``start + gap``."""
    z = unit(center)
    circle = SmallCircleArc(z, radius, start, start + 2 * math.pi)
    p1, p2 = circle.point_at(np.array([start, start + gap]))
    return ConvexBody([GreatArc(p1, p2), SmallCircleArc(z, radius, start + gap, start + 2 * math.pi)], z)


def two_arc_completion(r):
    """Completion of ``two_arc_seed(r)``."""
    return complete_selfdual(two_arc_seed(r), tol=1e-7)


def stadium(a=0.5, r=0.3, ends=None):
    """The hull of the caps of radius ``r`` about the equator points at
    longitudes -``a`` and ``a``: their outer halves joined by the two common
    tangent great arcs.  Its diameter, 2 a + 2 r along the equator, joins
    points inside both small arcs, so no arc end attains it.  With
    ``ends = (before, after)`` each small arc keeps only the azimuths from
    ``before`` ahead of the equator to ``after`` past it, and chords join it
    to the tangent points.
    """
    c1, c2 = np.array([math.cos(a), -math.sin(a), 0.0]), np.array([math.cos(a), math.sin(a), 0.0])
    cos_b = math.sin(r) / math.cos(a)  # a tangent pole p has p . c = sin r
    sin_b = math.sqrt(1.0 - cos_b * cos_b)
    # the feet of the centres on the upper and on the lower tangent
    (t1u, t2u), (t1l, t2l) = [
        [unit(c - dot(c, p) * p) for c in (c1, c2)] for p in (np.array([cos_b, 0.0, -sin_b]), np.array([cos_b, 0.0, sin_b]))
    ]

    def side(c, p, q, tip):
        # the arc about c, counterclockwise from p to q, or about ``tip`` with chords to p and q
        probe = SmallCircleArc(c, r, 0.0, 2 * math.pi)
        if ends is None:
            a0 = float(probe.azimuth_of(p))
            return [SmallCircleArc(c, r, a0, a0 + (float(probe.azimuth_of(q)) - a0) % (2 * math.pi))]
        t = float(probe.azimuth_of(tip))
        arc = SmallCircleArc(c, r, t - ends[0], t + ends[1])
        return [GreatArc(p, arc.start), arc, GreatArc(arc.end, q)]

    tips = np.array([[math.cos(a + r), s * math.sin(a + r), 0.0] for s in (-1.0, 1.0)])
    pieces = [GreatArc(t2u, t1u), *side(c1, t1u, t1l, tips[0]), GreatArc(t1l, t2l), *side(c2, t2l, t2u, tips[1])]
    return ConvexBody(pieces, np.array([1.0, 0.0, 0.0]))


def truncated_octant(s=0.25):
    """Octant with the e3 vertex cut off: a non-constant-width polytope."""
    e1, e2, e3 = np.eye(3)
    p = unit((1 - s) * e3 + s * e2)
    q = unit((1 - s) * e3 + s * e1)
    return Polytope(np.array([e1, e2, p, q]))


def selfdual_polytopes():
    """Self-dual polytopes of every origin: the octant, eps = 0.002 cap outputs
    and random completions, keyed by name."""
    polys = {"octant": octant()}
    e3 = np.array([0.0, 0.0, 1.0])
    for seed in (1, 2, 3):
        body = rotated(cap(e3, 0.25 * math.pi), rotation_from_seed(seed))
        polys["cap-%d" % seed] = approximate_polytope(body, ApproximationConfig(0.002))[0]
        for n in (7, 30):
            polys["random-%d-%d" % (n, seed)] = random_selfdual_polytope(n, seed)
    return polys


def acceptance_corpus():
    """Caps, rotated octants, random self-dual polytopes and completions for
    seeds 1..50, keyed by seed as (kind, body).

    A completion's seed is a cap of radius 0.55-0.75 chopped by a chord at a
    seeded place and of a seeded length: the completions of whole caps of
    one radius are congruent.
    """
    bodies = {}
    for s in range(1, 51):
        rng = np.random.default_rng(s)
        kind = s % 4
        if kind == 0:
            bodies[s] = ("cap", cap(unit(rng.normal(size=3)), math.pi / 4))
        elif kind == 1:
            bodies[s] = ("octant", rotated(octant(), rotation_from_seed(s)))
        elif kind == 2:
            # n_target 4, 7 and 10 give 3, 5 and 7 vertices
            bodies[s] = ("random-polytope", random_selfdual_polytope((4, 7, 10)[s % 6 // 2], s))
        else:
            center, gap, start = rng.normal(size=3), rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * math.pi)
            seed = chopped_cap(gap, center, 0.55 + 0.1 * (s % 3), start)
            bodies[s] = ("completion", complete_selfdual(seed, tol=1e-7))
    return bodies


def perturbed(poly, amplitude, seed=0):
    """``poly`` with every vertex moved by Gaussian noise of ``amplitude``."""
    rng = np.random.default_rng(seed)
    return Polytope(poly.vertices + amplitude * rng.normal(size=poly.vertices.shape))


def rotated_reuleaux(k, delta):
    """``rounded_reuleaux(k, delta)`` about (1, -2, 0.5), rotated by a seed of (k, delta)."""
    rot = rotation_from_seed(100 * k + int(round(-math.log10(delta) * 10)))
    return rotated(rounded_reuleaux(k, delta, unit([1.0, -2.0, 0.5])), rot)


REULEAUX_CASES = [(3, 0.1), (3, 0.3), (5, 0.15), (7, 0.05), (9, 0.2), (3, 0.78)] + [
    (3, 1e-3), (3, 1e-4), (3, 3e-5), (3, 1e-5)
]


def curved_selfdual_bodies():
    """Self-dual bodies with circle arcs, keyed by name: the acceptance-corpus
    caps, the rotated rounded Reuleaux bodies and the mixed completion of a
    chopped cap."""
    # the caps of ``acceptance_corpus``, without building the rest of it
    bodies = {"cap-%d" % s: cap(unit(np.random.default_rng(s).normal(size=3)), math.pi / 4) for s in range(4, 51, 4)}
    for k, delta in REULEAUX_CASES:
        bodies["reuleaux-%d-%g" % (k, delta)] = rotated_reuleaux(k, delta)
    bodies["mixed"] = complete_selfdual(chopped_cap(), tol=1e-7)
    return bodies


def curved_bodies():
    """Bodies with small-circle arcs, self-dual or not, keyed by name: ``curved_selfdual_bodies``,
    caps of other radii, a lens, and the bodies that mix small and great arcs (the chopped cap and
    a cap after two chord cuts)."""
    bodies = curved_selfdual_bodies()
    for r in (0.3, 0.6, 1.2):
        bodies["cap-r%g" % r] = cap(unit([0.4, -1.0, 0.7]), r)
    bodies["lens"] = lens([0.0, 0.0, 1.0], [0.3, 0.0, 1.0], 0.5, 0.6)
    bodies["chopped-cap"] = chopped_cap()
    bodies["two-cut-cap"] = two_cut_cap()
    bodies["frame-jump"] = frame_jump_cap()
    return bodies


def _with_radius(piece, dr):
    return SmallCircleArc(piece.center, piece.radius + dr, piece.az_from, piece.az_to)


def _trimmed(body, dspan):
    """``body`` with the span of its piece 0 shortened by ``dspan`` at the end."""
    p = body.pieces[0]
    return ConvexBody([SmallCircleArc(p.center, p.radius, p.az_from, p.az_to - dspan)] + body.pieces[1:], body.interior)


def two_cut_cap(move=0.0):
    """A rotated pi/4 cap after two adjacent chord cuts, their shared vertex moved ``move`` outward.

    The move changes two edges and their corners only: every arc run keeps
    its partner exactly.
    """
    from spherewidth.approx import cut_step

    body = cap(unit([1.0, 2.0, 3.0]), 0.25 * math.pi)
    circle = body.pieces[0]
    p = circle.point_at(circle.az_from + np.array([0.0, 0.4, 0.8]))
    body = cut_step(cut_step(body, p[0], p[1])[0], p[1], p[2])[0]
    moved = unit(p[1] + move * unit(p[1] - math.cos(circle.radius) * circle.center))
    pieces = []
    for piece in body.pieces:
        if isinstance(piece, GreatArc) and np.array_equal(piece.end, p[1]):
            piece = GreatArc(piece.start, moved)
        elif isinstance(piece, GreatArc) and np.array_equal(piece.start, p[1]):
            piece = GreatArc(moved, piece.end)
        pieces.append(piece)
    return chain_body(stack_arcs(pieces))


def frame_jump_cap():
    """A pi/4 cap as two half arcs whose centres differ by one ulp across a
    ``tangent_basis`` jump: the second half's azimuths are measured from an
    axis a quarter turn away."""
    t = unit([0.3, 0.3, 0.9])  # x and y tie for the least coordinate
    t2 = t.copy()
    t2[1] = np.nextafter(t2[1], 0.0)  # now y is least: the frame turns
    first = SmallCircleArc(t, 0.25 * math.pi, 0.0, math.pi)
    a0 = float(SmallCircleArc(t2, 0.25 * math.pi, 0.0, 2.0 * math.pi).azimuth_of(first.end))
    return ConvexBody([first, SmallCircleArc(t2, 0.25 * math.pi, a0, a0 + math.pi)], t)


def curved_tampered():
    """Valid edits of curved self-dual bodies, keyed by name.

    Some stay paired, with rho of the order of the edit; the others leave a
    run without its partner, or are not self-dual at all.
    """
    rr = rotated_reuleaux(3, 0.1)
    side = rr.pieces[1]
    return {
        # radius sums moved 8e-10 and 1e-9: still paired
        "cap-radius-4e-10": cap(unit([1.0, 2.0, 3.0]), 0.25 * math.pi + 4e-10),
        "parallel-5e-10": ConvexBody([_with_radius(p, 5e-10) for p in rr.pieces], rr.interior),
        # each partner radius moved 1e-7: unpaired
        "parallel-1e-7": ConvexBody([_with_radius(p, 1e-7) for p in rr.pieces], rr.interior),
        "trimmed-5e-10": _trimmed(rr, 5e-10),
        "trimmed-1e-6": _trimmed(rotated_reuleaux(3, 1e-4), 1e-6),
        "partner-removed": ConvexBody([rr.pieces[0], GreatArc(side.start, side.end)] + rr.pieces[2:], rr.interior),
        "corner-moved-1e-7": two_cut_cap(1e-7),
        "frame-jump": frame_jump_cap(),
        "cap-pi3": cap(np.array([0.0, 0.0, 1.0]), math.pi / 3),
    }

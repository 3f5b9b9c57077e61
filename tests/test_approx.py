import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from fixtures import REULEAUX_CASES, curved_bodies, curved_tampered, rotated_reuleaux, two_arc_completion, two_cut_cap
from spherewidth import approx, metrics
from spherewidth import body as bd
from spherewidth.approx import (
    ApproximationConfig,
    StepRecord,
    approximate_polytope,
    certify,
    cut_step,
    subdivide_piece,
)
from spherewidth.body import (
    ConvexBody,
    Polytope,
    chain_body,
    polar_dual,
    strictly_convex_arc_length,
    to_polytope,
    validate,
)
from spherewidth.errors import (
    BudgetExhausted,
    CertificationFailed,
    DualOverlap,
    InvalidBody,
    NotConstantWidth,
    NotSelfDual,
    NotStrictlyConvex,
)
from spherewidth.generators import (
    cap,
    complete_selfdual,
    octant,
    random_selfdual_polytope,
    rotated,
    rotation_from_seed,
    rounded_reuleaux,
)
from spherewidth.formats import dumps_certificate, dumps_step, dumps_step_log
from spherewidth.metrics import HAUSDORFF_TOL, hausdorff_bounds, is_constant_width, self_duality_residual
from spherewidth.sphere import GreatArc, SmallCircleArc, unit

E1, E2, E3 = np.eye(3)
PI = math.pi


def chord_pole_distance_cap(radius, gap):
    """Closed-form distance from a chord pole to the cap body (via its dual circle)."""
    c = math.cos(gap / 2)
    cz = math.sin(radius) * c / math.hypot(math.cos(radius), math.sin(radius) * c)
    return math.acos(cz) - (PI / 2 - radius)


# ----------------------------------------------------------------- subdivide


def test_chord_pole_distance_quarter_gap():
    # the frozen reference value for a quarter-circle chord on cap(pi/4)
    assert chord_pole_distance_cap(PI / 4, PI / 2) == pytest.approx(
        math.acos(1 / math.sqrt(3)) - PI / 4, abs=1e-15
    )
    assert chord_pole_distance_cap(PI / 4, PI / 2) == pytest.approx(0.16995, abs=1e-4)


def _cap_after_one_cut():
    b = cap(E3, PI / 4)
    pts = subdivide_piece(b, 0, 0.3)
    cut, _ = cut_step(b, pts[0], pts[1])
    return cut, cut.circle_piece_indices()[0]


def test_subdivide_cap_budget():
    cut, idx = _cap_after_one_cut()
    for b, i in [(cap(E3, PI / 4), 0), (cut, idx)]:
        piece = b.pieces[i]
        for eps in [0.2, 0.05, 0.01, 0.002]:
            pts = subdivide_piece(b, i, eps)
            rel = [float(piece.azimuth_of(p)) - piece.az_from for p in pts[1:-1]]
            gaps = np.diff([0.0] + list(np.mod(rel, 2 * PI)) + [piece.span])
            assert np.all(gaps < PI / 2)
            n = len(pts) - 1
            assert chord_pole_distance_cap(PI / 4, piece.span / n) < 0.5 * eps
            # the next coarser split must violate the budget (tight subdivision)
            min_subs = max(2 if piece.is_full else 1, math.ceil(piece.span / PI - 1e-12))
            if n - 1 >= min_subs:
                assert chord_pole_distance_cap(PI / 4, piece.span / (n - 1)) >= 0.5 * eps


@pytest.mark.parametrize("eps", [0.05, 0.01, 0.002])
def test_subdivision_matches_measured_chord_pole(eps):
    # the sagitta d(s) is the measured distance of the first chord pole, and
    # the count is the least whose measured distance is under the target
    bodies = [cap(E3, PI / 4), _cap_after_one_cut()[0]]
    bodies += [two_arc_completion(r) for r in (0.3, 0.5, 0.7)]
    target = eps * approx.SUBDIVISION_SAFETY
    radii = set()
    for b in bodies:
        for i in b.circle_piece_indices():
            piece = b.pieces[i]
            radii.add(round(piece.radius, 9))
            n = len(subdivide_piece(b, i, eps)) - 1
            s = piece.span / n
            d = oracles.chord_pole_distance(b, piece, s)
            r = piece.radius
            assert abs(d - (r - math.atan(math.tan(r) * math.cos(s / 2)))) <= 1e-14
            assert d < target
            min_subs = max(2 if piece.is_full else 1, math.ceil(piece.span / PI - 1e-12))
            if n - 1 >= min_subs:
                assert oracles.chord_pole_distance(b, piece, piece.span / (n - 1)) >= target
    assert len(radii) == 7  # pi/4 and both radii of each completion


def test_subdivide_huge_eps_full_circle():
    b = cap(E3, PI / 4)
    pts = subdivide_piece(b, 0, 10.0)
    assert len(pts) == 3  # full circle cannot be a single chord


def test_subdivide_huge_eps_partial_arc():
    b = cap(E3, PI / 4)
    pts = subdivide_piece(b, 0, 0.3)
    cut, _ = cut_step(b, pts[0], pts[1])
    idx = cut.circle_piece_indices()[0]
    pts2 = subdivide_piece(cut, idx, 10.0)
    assert len(pts2) == 2  # endpoints only


def test_subdivide_great_arc_rejected():
    with pytest.raises(NotStrictlyConvex):
        subdivide_piece(octant(), 0, 0.1)


# ------------------------------------------------------------------ cut step


def test_cut_step_cap_quarter_chord():
    b = cap(E3, PI / 4)
    piece = b.pieces[0]
    p1 = piece.point_at(0.0)[0]
    p2 = piece.point_at(PI / 2)[0]
    out, rec = cut_step(b, p1, p2)

    assert np.allclose(rec.r1, np.array([-1.0, -1.0, 1.0]) / math.sqrt(3), atol=1e-14)
    assert np.allclose(rec.q1, piece.point_at(PI)[0], atol=1e-14)
    assert np.allclose(rec.q2, piece.point_at(3 * PI / 2)[0], atol=1e-14)
    assert abs(rec.r1 @ rec.p1) < 1e-14
    assert abs(rec.r1 @ rec.p2) < 1e-14
    assert abs(rec.p1 @ rec.q1) < 1e-14
    assert abs(rec.p2 @ rec.q2) < 1e-14
    assert rec.r1_distance == pytest.approx(
        math.acos(1 / math.sqrt(3)) - PI / 4, abs=1e-12
    )

    kinds = [type(p).__name__ for p in out.pieces]
    assert kinds.count("GreatArc") == 3
    assert kinds.count("SmallCircleArc") == 2
    spans = sorted(p.span for p in out.pieces if isinstance(p, SmallCircleArc))
    assert spans == pytest.approx([PI / 2, PI / 2], abs=1e-12)
    assert validate(out).ok
    assert self_duality_residual(out) <= 1e-9


def test_cut_step_repeat_on_cut_region_overlaps():
    b = cap(E3, PI / 4)
    piece = b.pieces[0]
    p1 = piece.point_at(0.0)[0]
    p2 = piece.point_at(PI / 2)[0]
    out, _ = cut_step(b, p1, p2)
    # repeating the same step: the sub-arc was already consumed
    with pytest.raises(DualOverlap):
        cut_step(out, p1, p2)


def test_cut_step_rejects_overlong_chord():
    b = cap(E3, PI / 4)
    piece = b.pieces[0]
    with pytest.raises(DualOverlap):
        cut_step(b, piece.point_at(0.0)[0], piece.point_at(1.2 * PI)[0])


def test_cut_step_dual_span_before_primal():
    # chord in the second half of the circle: its dual sub-span wraps to the
    # first half, exercising the dual-before-primal splice order
    b = cap(E3, PI / 4)
    piece = b.pieces[0]
    p1 = piece.point_at(1.2 * PI)[0]
    p2 = piece.point_at(1.4 * PI)[0]
    out, rec = cut_step(b, p1, p2)
    assert validate(out).ok
    assert self_duality_residual(out) <= 1e-9
    assert abs(rec.r1 @ rec.p1) < 1e-14
    spans = sorted(p.span for p in out.pieces if isinstance(p, SmallCircleArc))
    assert sum(spans) == pytest.approx(2 * PI - 2 * (0.2 * PI), abs=1e-9)


def test_fine_epsilon_run():
    cfg = ApproximationConfig(epsilon=0.01)
    poly, cert, steps = approximate_polytope(cap(E3, PI / 4), cfg)
    assert cert.hausdorff_bound <= 0.02
    assert len(poly) > 20
    rep = is_constant_width(poly, tol=1e-6)
    assert rep.passed


def test_cut_step_preserves_selfduality_and_shrinks_arcs():
    b = cap(E3, PI / 4)
    total = strictly_convex_arc_length(b)
    pts = subdivide_piece(b, 0, 0.3)
    cur = b
    for _ in range(3):
        idxs = cur.circle_piece_indices()
        if not idxs:
            break
        pts = subdivide_piece(cur, idxs[0], 0.3)
        cur, rec = cut_step(cur, pts[0], pts[1])
        new_total = strictly_convex_arc_length(cur)
        assert new_total < total - 1e-9
        total = new_total
        assert validate(cur).ok
        assert self_duality_residual(cur) <= 1e-9


# ------------------------------------------------------------- end to end


def test_octant_is_fixed_point():
    cfg = ApproximationConfig(epsilon=0.1)
    poly, cert, steps = approximate_polytope(octant(), cfg)
    assert len(steps) == 0
    assert cert.hausdorff_bound <= 1e-12
    assert len(poly) == 3
    got = {tuple(np.round(v, 12)) for v in poly.vertices}
    assert got == {tuple(E1), tuple(E2), tuple(E3)}


def test_cap_approximation_certified():
    cfg = ApproximationConfig(epsilon=0.1)
    poly, cert, steps = approximate_polytope(cap(E3, PI / 4), cfg)
    assert cert.hausdorff_bound <= 0.2
    assert abs(cert.width_min - PI / 2) <= 1e-6
    assert abs(cert.width_max - PI / 2) <= 1e-6
    assert cert.self_duality_residual <= 1e-6
    assert len(steps) >= 1
    assert to_polytope  # output type is enforced by the return annotation
    rep = is_constant_width(poly, tol=1e-6)
    assert rep.passed


def test_gate_rejects_wrong_width():
    with pytest.raises(NotConstantWidth):
        approximate_polytope(cap(E3, PI / 6), ApproximationConfig(epsilon=0.1))


def test_mixed_arc_input_certified():
    # constant-width body mixing great arcs and circle arcs
    from spherewidth.generators import complete_selfdual
    from fixtures import chopped_cap

    body = complete_selfdual(chopped_cap(), tol=1e-7)
    kinds = {type(p).__name__ for p in body.pieces}
    assert kinds == {"GreatArc", "SmallCircleArc"}
    poly, cert, steps = approximate_polytope(body, ApproximationConfig(epsilon=0.05))
    assert cert.hausdorff_bound <= 0.1
    assert abs(cert.width_min - PI / 2) <= 1e-6
    assert abs(cert.width_max - PI / 2) <= 1e-6
    assert cert.self_duality_residual <= 1e-6
    assert len(steps) >= 1


def test_certify_rejects_bad_pair():
    with pytest.raises(CertificationFailed) as err:
        certify(cap(E3, PI / 4), octant(), ApproximationConfig(epsilon=0.01))
    assert err.value.bound == "hausdorff_bound"


def test_certify_rejects_a_one_micro_radian_vertex_move():
    # moving a vertex 1e-6 outward keeps the sampled widths within
    # self_dual_tol of pi/2, but turns its two short edges: their poles
    # sit about 2e-5 from their vertices
    body = rotated(cap(E3, PI / 4), rotation_from_seed(1))
    config = ApproximationConfig(0.002)
    poly, _, _ = approximate_polytope(body, config)
    v = poly.vertices.copy()
    v[0] = unit(v[0] - 1e-6 * unit(np.cross(v[0], v[1])))
    with pytest.raises(CertificationFailed) as err:
        certify(body, Polytope(v), config)
    assert err.value.bound in ("width_range", "self_duality_residual")


def test_certify_curved_result_takes_the_run_pairing(monkeypatch):
    # a curved result's widths and residual come from its run pairing in
    # closed form: no dual is built, so no sweep runs
    body = cap(E3, PI / 4)

    def sweep(*args, **kwargs):
        raise AssertionError("the width sweep ran")

    monkeypatch.setattr(metrics, "polar_dual", sweep)
    cert = certify(body, body, ApproximationConfig(0.01))
    assert cert.hausdorff_bound == 0.0
    assert abs(cert.width_min - PI / 2) <= 1e-9 and abs(cert.width_max - PI / 2) <= 1e-9
    assert cert.self_duality_residual <= 1e-9


@pytest.mark.parametrize("make", [octant, lambda: random_selfdual_polytope(9, 1)], ids=["octant", "random"])
def test_certify_great_arc_body_takes_the_polytope_certificate(monkeypatch, make):
    # the dual of a polytope is a ConvexBody of great arcs; certify reads it
    # as a polytope, so the width sweep never runs
    poly = make()

    def sweep(*args, **kwargs):
        raise AssertionError("the width sweep ran")

    monkeypatch.setattr(approx, "is_constant_width", sweep)
    cert = certify(poly, polar_dual(poly), ApproximationConfig(1e-9))
    assert cert.self_duality_residual < 1e-12


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epsilon=math.nan),
        dict(epsilon=math.inf),
        dict(epsilon=0.0),
        dict(epsilon=0.1, self_dual_tol=math.nan),
        dict(epsilon=0.1, self_dual_tol=math.inf),
        dict(epsilon=0.1, self_dual_tol=-1e-9),
    ],
)
def test_config_rejects_nan_and_out_of_range_values(kwargs):
    with pytest.raises(ValueError):
        ApproximationConfig(**kwargs)


@pytest.mark.parametrize(
    "nan_in, bound",
    [
        ("hausdorff", "hausdorff_bound"),
        ("width_min", "width_range"),
        ("self_duality_residual", "self_duality_residual"),
    ],
)
def test_certify_fails_closed_on_a_nan_measure(monkeypatch, nan_in, bound):
    body = cap(E3, PI / 4)
    if nan_in == "hausdorff":
        monkeypatch.setattr(approx, "hausdorff_bounds", lambda a, b: (0.0, math.nan))  # a NaN upper end
    else:
        rep = dict(width_min=PI / 2, width_max=PI / 2, self_duality_residual=0.0)
        rep[nan_in] = math.nan
        monkeypatch.setattr(approx, "is_constant_width", lambda *args, **kwargs: SimpleNamespace(**rep))
    with pytest.raises(CertificationFailed) as err:
        certify(body, body, ApproximationConfig(0.01))
    assert err.value.bound == bound


def test_certify_octant_pair_zero():
    cert = certify(octant(), octant(), ApproximationConfig(epsilon=0.05))
    assert cert.hausdorff_bound <= 1e-12


def test_certify_fallback_bound_is_the_refinements_upper_end(monkeypatch):
    # pairs the walk does not cover (a polytope and its dual, a cap and
    # itself, a curved body and its dual, and a cap and its chord polytope
    # with the walk switched off) certify the refinement's upper end, which
    # lies within its tolerance above the refined distance
    from spherewidth.generators import random_selfdual_polytope

    rp, rr = random_selfdual_polytope(12, 3), rotated_reuleaux(3, 0.1)
    body = rotated(cap(E3, PI / 4), rotation_from_seed(2))
    poly, walked, _ = approximate_polytope(body, ApproximationConfig(0.05))
    pairs = [(rp, polar_dual(rp)), (octant(), polar_dual(octant())), (body, body), (rr, polar_dual(rr))]
    for original, result in pairs:
        lb, hi = hausdorff_bounds(original, result)
        assert certify(original, result, ApproximationConfig(0.01)).hausdorff_bound == hi
        assert lb <= hi <= lb + HAUSDORFF_TOL
    monkeypatch.setattr(approx, "pairing_bound", lambda *args: None)
    lb, hi = hausdorff_bounds(body, poly)
    assert certify(body, poly, ApproximationConfig(0.05)).hausdorff_bound == hi
    assert 0.001 < lb <= hi <= lb + HAUSDORFF_TOL and lb <= walked.hausdorff_bound


def test_pairing_bound_builds_no_pairing_for_an_input_of_great_arcs(monkeypatch):
    # a polytope original has no arc run to chord: None before any run
    # pairing is built, as for a pc-body chain of great arcs
    from spherewidth.generators import random_selfdual_polytope

    def forbidden(*args):
        raise AssertionError("no run pairing may be built")

    monkeypatch.setattr(bd, "_boundary_units", forbidden)
    rp = random_selfdual_polytope(12, 3)
    dual = polar_dual(rp)
    for original in (rp, bd.chain_body(rp.arcs), dual):
        assert approx.pairing_bound(original, dual) is None
        assert "run_pairing" not in vars(original)


def test_approximation_measures_each_body_once(monkeypatch):
    # the gate reads only the input's widths, which the run pairing gives
    # in closed form: no dual, no farthest pair;
    # the certificate refines nothing: the output's distance to the input
    # comes from the chord/tangent pairing, its widths and residual from
    # the pole/vertex pairing; the input and the output are validated once
    # each, the gate, the dual and the certificate sharing the cached
    # report; the input's run pairing is built once, the gate, the build
    # and the certificate sharing it; the construction measures nothing,
    # each chord's d(s) being closed form
    calls = {
        "hausdorff_bounds": [], "diameter": [], "farthest_pair": [], "validate": [], "body_distance": [],
        "_boundary_units": [],
    }
    homes = {
        "hausdorff_bounds": metrics,
        "diameter": metrics,
        "farthest_pair": metrics,
        "validate": bd,
        "body_distance": bd,
        "_boundary_units": bd,
    }
    for name in calls:
        fn = getattr(homes[name], name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name].append(args[0])
            return _fn(*args, **kwargs)

        for module in (bd, metrics, approx):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    for body in (cap(E3, PI / 4), rotated_reuleaux(9, 0.2), rotated_reuleaux(27, 0.05)):
        for v in calls.values():
            v.clear()
        poly, _, steps = approximate_polytope(body, ApproximationConfig(0.05))
        assert len(steps) > 0
        assert {k: len(v) for k, v in calls.items()} == {
            "hausdorff_bounds": 0, "diameter": 0, "farthest_pair": 0, "validate": 2, "body_distance": 0,
            "_boundary_units": 1,
        }
        assert calls["validate"][0] is body and calls["validate"][1] is poly
        assert calls["_boundary_units"][0] is body.arcs


@pytest.mark.parametrize("name", ["reuleaux", "cap"])
def test_an_epsilon_ladder_on_one_body_measures_its_rho_once(monkeypatch, name):
    # the gate reads the input's rho from the body, which measures it at the
    # first rung only; every certificate is that of a fresh copy of the body
    body = rotated_reuleaux(9, 0.2) if name == "reuleaux" else rotated(cap(E3, PI / 4), rotation_from_seed(3))
    measured, pairing = [], bd.pairing_residual_bound

    def counted(b):
        measured.append(b)
        return pairing(b)

    monkeypatch.setattr(bd, "pairing_residual_bound", counted)
    ladder = (0.01, 0.002, 5e-4)
    certs = [approximate_polytope(body, ApproximationConfig(e))[1] for e in ladder]
    assert len(measured) == 1 and measured[0] is body
    for e, cert in zip(ladder, certs):
        fresh = chain_body(body.arcs, body.interior)
        assert dumps_certificate(cert) == dumps_certificate(approximate_polytope(fresh, ApproximationConfig(e))[1])
        assert measured[-1] is fresh
    assert len(measured) == 1 + len(ladder)


def test_approximating_great_arc_bodies_makes_no_great_arc_objects():
    # a polytope and the dual of one keep their edges as stacks only: the
    # gate, the build and the certificate read no ``pieces``
    poly = random_selfdual_polytope(30, 1)
    for body in (poly, polar_dual(poly)):
        approximate_polytope(body, ApproximationConfig(0.01))
        assert "pieces" not in vars(body)


def test_an_unpaired_run_fails_every_read_of_the_pairing():
    # a chopped cap: the chord took away the partner of its one arc run
    from fixtures import chopped_cap

    body = chopped_cap()
    assert body.validation.ok
    for _ in range(2):
        with pytest.raises(NotSelfDual):
            approx.chord_polytope(body, ApproximationConfig(0.01))
    poly, _, _ = approximate_polytope(cap(E3, PI / 4), ApproximationConfig(0.01))
    assert approx.pairing_bound(body, poly) is None
    assert bd.pairing_residual_bound(body) is None


# ------------------------------------------------------------ one-pass build


ORACLE_CASES = (
    [("cap", seed, eps) for seed in range(1, 11) for eps in (0.01, 0.002, 0.0005)]
    + [("two-arc", r, 0.002) for r in (0.3, 0.5, 0.7)]
    + [("chopped-cap", 0, 0.002)]
    + [("reuleaux", kd, 0.002) for kd in ((9, 0.2), (27, 0.05))]
)


def _oracle_body(kind, arg):
    from fixtures import chopped_cap

    if kind == "cap":
        return rotated(cap(E3, PI / 4), rotation_from_seed(arg))
    if kind == "two-arc":
        return two_arc_completion(arg)
    if kind == "reuleaux":
        return rotated_reuleaux(*arg)
    return complete_selfdual(chopped_cap(), tol=1e-7)


@pytest.mark.parametrize("kind,arg,eps", ORACLE_CASES)
def test_one_pass_build_matches_the_chord_cut_loop(kind, arg, eps):
    body = _oracle_body(kind, arg)
    config = ApproximationConfig(eps)
    poly, cert, steps = approximate_polytope(body, config)
    ref, ref_steps, rounds = oracles.chord_cut_loop(body, eps)
    ref_cert = certify(body, ref, config)
    assert len(poly) == len(ref)
    assert len(steps) == len(ref_steps) == cert.steps
    assert cert.rounds == rounds == 1
    # the loop's first chord on a full circle is 2 pi / N0 wide and the rest
    # of the half is split equally, so on the cap its phase matches equal
    # spacing only where 2 pi / N0 is the equal width, as at eps = 0.002
    if kind == "cap" and eps != 0.002:
        return
    k = int(np.argmin(np.linalg.norm(ref.vertices - poly.vertices[0], axis=1)))
    assert np.abs(np.roll(ref.vertices, -k, axis=0) - poly.vertices).max() <= 1e-12
    assert abs(cert.hausdorff_bound - ref_cert.hausdorff_bound) <= 1e-12
    for got, want in zip(steps, ref_steps):
        for name in ("p1", "p2", "q1", "q2", "r1"):
            assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-12
        # the closed-form d(s) is the distance the loop measures
        assert abs(got.r1_distance - want.r1_distance) <= 1e-12


def test_split_arcs_are_chorded_as_one_interval():
    whole = approximate_polytope(cap(E3, PI / 4), ApproximationConfig(0.002))
    poly, cert, steps = approximate_polytope(_split_cap(), ApproximationConfig(0.002))
    assert np.abs(poly.vertices - whole[0].vertices).max() <= 1e-15
    assert cert.steps == whole[1].steps
    # piece ids name the input pieces holding each chord and its partner span
    s = (PI / len(steps)) * np.arange(len(steps))
    assert [rec.primal_piece_id for rec in steps] == [0 if x < 1.0 else 1 for x in s]
    assert {rec.dual_piece_id for rec in steps} == {1}


def _split_cap():
    return ConvexBody([SmallCircleArc(E3, PI / 4, 0.0, 1.0), SmallCircleArc(E3, PI / 4, 1.0, 2 * PI)], E3)


STEP_TABLE_CASES = {
    "cap": lambda: rotated(cap(E3, PI / 4), rotation_from_seed(1)),
    "reuleaux-3": lambda: rotated_reuleaux(3, 0.1),
    "reuleaux-5": lambda: rotated_reuleaux(5, 0.15),
    "reuleaux-9": lambda: rotated_reuleaux(9, 0.2),
    "reuleaux-27": lambda: rotated_reuleaux(27, 0.05),
    "split-cap": _split_cap,
    "polytope": octant,
}


@pytest.mark.parametrize("name", list(STEP_TABLE_CASES))
def test_step_table_rows_are_the_per_row_records(name):
    # every row view equals the per-chord reference record, field by field
    # and bit for bit, and so does the log
    body, config = STEP_TABLE_CASES[name](), ApproximationConfig(0.002)
    _, cert, steps = approximate_polytope(body, config)
    want = oracles.step_records_per_row(body, config)
    assert len(steps) == len(want) == cert.steps
    assert (len(steps) == 0) == (name == "polytope")
    for got, ref in zip(steps, want):
        for f in fields(StepRecord):
            a, b = getattr(got, f.name), getattr(ref, f.name)
            assert type(a) is type(b), f.name
            assert np.array_equal(a, b) and np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
    assert dumps_step_log(steps) == oracles.dumps_step_log_per_record(want)
    assert [dumps_step(steps[i]) for i in range(-len(steps), 0)] == dumps_step_log(steps).splitlines()
    with pytest.raises(IndexError):
        steps[len(steps)]


def test_step_table_makes_its_log_columns_on_first_read(monkeypatch):
    # a fresh cap's approximation only counts its steps: no piece lookup and
    # no record is made until the steps are read, and then once
    calls = {"piece_at": 0, "record": 0}
    piece_at, init = bd.RunPairing.piece_at, StepRecord.__init__

    def counted_piece_at(self, *args):
        calls["piece_at"] += 1
        return piece_at(self, *args)

    def counted_init(self, *args, **kwargs):
        calls["record"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(bd.RunPairing, "piece_at", counted_piece_at)
    monkeypatch.setattr(StepRecord, "__init__", counted_init)
    _, cert, steps = approximate_polytope(rotated(cap(E3, PI / 4), rotation_from_seed(3)), ApproximationConfig(0.002))
    assert calls == {"piece_at": 0, "record": 0}
    assert len(steps) == cert.steps > 0
    assert calls == {"piece_at": 0, "record": 0}
    rows = list(steps)
    assert calls == {"piece_at": 2, "record": len(rows)}  # one lookup a side
    list(steps)
    assert calls == {"piece_at": 2, "record": 2 * len(rows)}


def test_unmatched_partner_interval_raises_not_self_dual():
    # the partner arc of two_arc_completion(0.5) shortened by 1e-8: within
    # the gate's 1e-6, but its interval no longer matches the primal one
    body = two_arc_completion(0.5)
    pieces = list(body.pieces)
    i = next(i for i, p in enumerate(pieces) if isinstance(p, SmallCircleArc) and p.radius > PI / 4)
    arc = pieces[i]
    pieces[i] = SmallCircleArc(arc.center, arc.radius, arc.az_from, arc.az_to - 1e-8)
    pieces[i + 1] = GreatArc(pieces[i].end, pieces[i + 1].end)
    with pytest.raises(NotSelfDual):
        approximate_polytope(ConvexBody(pieces, body.interior), ApproximationConfig(0.01))


def test_too_small_epsilon_raises_budget_exhausted_before_building(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("nothing may be built")

    monkeypatch.setattr(approx, "Polytope", forbidden)
    monkeypatch.setattr(approx, "certify", forbidden)
    with pytest.raises(BudgetExhausted):
        approximate_polytope(cap(E3, PI / 4), ApproximationConfig(1e-15))
    with pytest.raises(BudgetExhausted):
        subdivide_piece(cap(E3, PI / 4), 0, 1e-15)


@pytest.mark.parametrize("delta", [3e-5, 1e-5])
def test_rounded_reuleaux_with_tiny_rounding_certifies(delta):
    # the edit-at-a-time loop left a 1e-12 sliver of a delta arc that no
    # round could cut, and gave up
    poly, cert, steps = approximate_polytope(rounded_reuleaux(3, delta), ApproximationConfig(0.01))
    assert cert.hausdorff_bound <= 0.02
    assert (len(poly), cert.steps, cert.rounds) == (7, 3, 1)


def test_invalid_bodies_still_raise():
    # the circle traversed against its orientation claims the far side
    inverted = ConvexBody([SmallCircleArc(E3, PI / 4, 0.0, 2 * PI)], unit([0.2, 0.0, -1.0]))
    # two vertices of a convex quadrilateral swapped: reflex turns
    reflex = Polytope(np.array([E1, E2, unit(0.75 * E3 + 0.25 * E1), unit(0.75 * E3 + 0.25 * E2)]))
    config = ApproximationConfig(0.05)
    for bad in (inverted, reflex):
        with pytest.raises(InvalidBody):
            approximate_polytope(bad, config)
        with pytest.raises(InvalidBody):
            certify(cap(E3, PI / 4), bad, config)


# -------------------------------------------------- output polytope duality


def polytope_selfdual_bijection(poly):
    """Each edge pole must coincide with exactly one vertex (and vice versa)."""
    poles = poly.edge_poles()
    verts = poly.vertices
    if len(poles) != len(verts):
        return False, np.inf
    # chordal distances resolve coincidence far below the arccos floor
    d = np.linalg.norm(poles[:, None, :] - verts[None, :, :], axis=2)
    match = d < 1e-9
    return (
        bool(np.all(match.sum(axis=1) == 1) and np.all(match.sum(axis=0) == 1)),
        float(d.min(axis=1).max()),
    )


@pytest.mark.parametrize("eps", [0.5, 0.15])
def test_output_polytope_combinatorial_selfduality(eps):
    poly, cert, _ = approximate_polytope(cap(E3, PI / 4), ApproximationConfig(epsilon=eps))
    ok, worst = polytope_selfdual_bijection(poly)
    assert ok, "worst pole-vertex mismatch %.3e" % worst


def test_run_chords_intersect_pairwise():
    # the diametral chords consumed by a run must all cross each other
    from spherewidth.sphere import GreatArc, arcs_intersect

    _, _, steps = approximate_polytope(cap(E3, PI / 4), ApproximationConfig(epsilon=0.15))
    chords = []
    for rec in steps:
        chords.append(GreatArc(rec.p1, rec.q1))
        chords.append(GreatArc(rec.p2, rec.q2))
    for i in range(len(chords)):
        for j in range(i + 1, len(chords)):
            assert arcs_intersect(chords[i], chords[j])


def test_idempotent_on_random_selfdual_polytope():
    from spherewidth.generators import random_selfdual_polytope

    poly = random_selfdual_polytope(7, 13)
    out, cert, steps = approximate_polytope(poly, ApproximationConfig(epsilon=0.05))
    assert len(steps) == 0
    assert np.array_equal(out.vertices, poly.vertices)
    # the input has no arc runs: the bound is the refinement's upper end,
    # whose caps on coplanar great arcs carry a 1e-12 slack
    lb, hi = hausdorff_bounds(poly, out)
    assert lb <= 1e-12 and cert.hausdorff_bound == hi <= 1.01e-12


def test_pentagon_from_coarse_cap():
    # two quarter-chords consume the full circle, leaving a 5-vertex polytope
    b = cap(E3, PI / 4)
    piece = b.pieces[0]
    cur = b
    cur, _ = cut_step(cur, piece.point_at(0.0)[0], piece.point_at(PI / 2)[0])
    arc = [p for p in cur.pieces if isinstance(p, SmallCircleArc)][0]
    cur, _ = cut_step(
        cur, arc.point_at(arc.az_from)[0], arc.point_at(arc.az_to)[0]
    )
    assert cur.is_polytope()
    poly = to_polytope(cur)
    assert len(poly) == 5
    ok, _ = polytope_selfdual_bijection(poly)
    assert ok


# ------------------------------------------------------ pairing certificate


def _seed1_cap():
    return rotated(cap(E3, PI / 4), rotation_from_seed(1))


# the cap and the rounded Reuleaux (k, delta) bodies of the agreement cases
PAIRING_BODIES = {"cap": _seed1_cap}
for _k, _delta in [(3, 0.1), (5, 0.15), (7, 0.05), (9, 0.2), (3, 0.78), (3, 1e-3)]:
    PAIRING_BODIES["reuleaux-%d-%g" % (_k, _delta)] = lambda k=_k, delta=_delta: rounded_reuleaux(k, delta)


def _assert_pairing_agrees(body, eps):
    # the bound is an upper end of H, the refinement a lower one within
    # 1e-7; on the construction's output both sit at the largest d(s)
    poly, cert, _ = approximate_polytope(body, ApproximationConfig(eps))
    h = metrics.hausdorff(body, poly)
    assert approx.pairing_bound(body, poly) == cert.hausdorff_bound
    assert h <= cert.hausdorff_bound <= h + 1e-10


@pytest.mark.parametrize("eps", [0.01, 0.002, 0.0005])
@pytest.mark.parametrize("kind", list(PAIRING_BODIES))
def test_pairing_bound_agrees_with_the_refinement(kind, eps):
    _assert_pairing_agrees(PAIRING_BODIES[kind](), eps)


@pytest.mark.parametrize("k,delta", REULEAUX_CASES)
def test_pairing_bound_agrees_on_rotated_reuleaux_bodies(k, delta):
    _assert_pairing_agrees(rotated_reuleaux(k, delta), 0.01)


def test_pairing_bound_agrees_on_a_file_pair():
    # the pair the CLI verb reads: a cap and its eps = 0.003 polytope, both
    # written to JSON and read back
    from spherewidth.formats import dumps_body, loads_body

    poly, _, _ = approximate_polytope(_seed1_cap(), ApproximationConfig(0.003))
    body, poly = loads_body(dumps_body(_seed1_cap())), loads_body(dumps_body(poly))
    h = metrics.hausdorff(body, poly)
    cert = certify(body, poly, ApproximationConfig(0.003))
    assert h <= cert.hausdorff_bound <= h + 1e-10
    assert cert.hausdorff_bound == approx.pairing_bound(body, poly)


def test_mixed_arc_input_takes_the_pairing_path():
    # great-arc pieces of the input map to edges of the output, each arc run
    # to a chorded or circumscribed run: no refinement
    from fixtures import chopped_cap

    _assert_pairing_agrees(complete_selfdual(chopped_cap(), tol=1e-7), 0.05)


@pytest.mark.parametrize(
    "body,eps",
    [
        (cap(E3, PI / 4), 0.002),
        (cap(E3, PI / 4), 5e-5),
        (rounded_reuleaux(3, 1e-5), 0.01),
        (rounded_reuleaux(5, 0.15), 0.01),
    ],
    ids=["cap-0.002", "cap-5e-5", "reuleaux-3-1e-5", "reuleaux-5-0.15"],
)
def test_chord_outputs_certify_without_the_refinement(monkeypatch, body, eps):
    # the (3, 1e-5) body took about a second in the refinement, which slows
    # as an arc shrinks toward a vertex; the pairing walk is O(n)
    def refinement(*args, **kwargs):
        raise AssertionError("the Hausdorff refinement ran")

    monkeypatch.setattr(approx, "hausdorff_bounds", refinement)
    poly, cert, steps = approximate_polytope(body, ApproximationConfig(eps))
    assert cert.steps == len(steps) > 0
    assert cert.hausdorff_bound <= 2 * eps


def _cap_polytope():
    body = _seed1_cap()
    poly, _, _ = approximate_polytope(body, ApproximationConfig(0.002))
    return body, poly


def _radial(v, z, delta):
    """``v`` moved ``delta`` away from ``z`` along its meridian."""
    out = unit(np.dot(v, z) * v - z)
    return unit(math.cos(delta) * v + math.sin(delta) * out)


def _tampered(kind):
    body, poly = _cap_polytope()
    v = poly.vertices.copy()
    # the chorded half run holds vertices 0 to n, the partner half n to 2n
    n = len(v) // 2
    z = body.pieces[0].center
    if kind == "moved-1e-9":
        v[3] = _radial(v[3], z, 1e-9)
    elif kind == "chord-vertex-deleted":
        v = np.delete(v, 3, axis=0)
    elif kind == "pole-vertex-deleted":
        v = np.delete(v, n + 3, axis=0)
    elif kind == "reversed":
        v = v[::-1]
    else:
        # the polytope of a cap rotated by another seed
        v = approximate_polytope(rotated(cap(E3, PI / 4), rotation_from_seed(2)), ApproximationConfig(0.002))[0].vertices
    return body, Polytope(v)


def test_certify_checks_the_widths_before_the_hausdorff_term(monkeypatch):
    # the walk does not cover the pole-deleted polytope, and its width
    # range is off by about 0.09: the O(n) checks refuse it before the
    # refinement would measure anything
    body, poly = _tampered("pole-vertex-deleted")

    def refine(*args, **kwargs):
        raise AssertionError("the Hausdorff refinement ran")

    monkeypatch.setattr(approx, "hausdorff_bounds", refine)
    with pytest.raises(CertificationFailed) as err:
        certify(body, poly, ApproximationConfig(0.002))
    assert err.value.bound in ("width_range", "self_duality_residual")


@pytest.mark.parametrize(
    "kind", ["moved-1e-9", "chord-vertex-deleted", "pole-vertex-deleted", "reversed", "rotated-cap"]
)
def test_tampered_polytope_falls_back_or_fails(kind):
    body, poly = _tampered(kind)
    config = ApproximationConfig(0.002)
    bound = approx.pairing_bound(body, poly)
    if kind == "reversed":
        # clockwise: polytope validation rejects it before anything is measured
        assert bound is None
        with pytest.raises(InvalidBody):
            certify(body, poly, config)
        return
    h = metrics.hausdorff(body, poly)
    assert bound is None or bound >= h
    if kind in ("moved-1e-9", "pole-vertex-deleted", "rotated-cap"):
        assert bound is None
    try:
        cert = certify(body, poly, config)
    except CertificationFailed:
        return
    assert cert.hausdorff_bound == h


def test_pairing_bound_covers_a_sub_tolerance_vertex_move():
    # a chord vertex moved FIT_EPS / 2 toward the centre still passes the
    # walk, but pulls its two chords in: the sub-arcs over them reach
    # further from P than any d(s) of the unchanged azimuths, by half the
    # move; the bound's eta term covers that.  The refinement stops within
    # its 1e-7 tolerance before it sees the change, so a golden-section
    # search on each sub-arc gives the lower end of H
    body, poly = _cap_polytope()
    arc = body.pieces[0]
    v = poly.vertices.copy()
    v[3] = _radial(v[3], arc.center, -0.5 * approx.FIT_EPS)
    moved = Polytope(v)
    bound = approx.pairing_bound(body, moved)
    assert bound is not None

    def distance(t):
        return float(bd.body_distance(moved, arc.point_at(t)[0]))

    az = arc.azimuth_of(poly.vertices[2:5])
    lower = metrics.hausdorff(body, moved)
    for lo, hi in zip(az[:-1], az[1:]):
        g = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(80):
            a, b = hi - g * (hi - lo), lo + g * (hi - lo)
            lo, hi = (a, hi) if distance(a) < distance(b) else (lo, b)
        lower = max(lower, distance(0.5 * (lo + hi)))
    sagitta = max(rec.r1_distance for rec in approximate_polytope(body, ApproximationConfig(0.002))[2])
    assert lower > sagitta + 0.2 * approx.FIT_EPS
    assert bound >= lower


@pytest.mark.parametrize("first", [2, 27], ids=["chord-vertices", "pole-vertices"])
def test_pairing_walk_rejects_azimuths_out_of_order(first):
    # two neighbours swapped: every vertex still lies on its circle or its
    # tangents, but the run no longer advances (validation rejects the
    # polygon too)
    body, poly = _cap_polytope()
    v = poly.vertices.copy()
    v[[first, first + 1]] = v[[first + 1, first]]
    assert approx.pairing_bound(body, Polytope(v)) is None


def _walk_corpus():
    """(name, C, P) pairs the walk must judge as the per-unit oracle does: chord outputs of rotated caps and of
    rounded Reuleaux bodies and their rotations, the curved and tampered curved fixtures (paired with the cap's
    polytope when they cannot be approximated), a great-arc piece whose edge holds an extra vertex, and the
    tampered polytopes of the tests above."""
    pairs = []
    for seed in range(1, 33):
        body = rotated(cap(E3, PI / 4), rotation_from_seed(seed))
        pairs.append(("cap-%d" % seed, body, approximate_polytope(body, ApproximationConfig(0.002))[0]))
    for k in (3, 5, 9, 27, 81):
        for delta in (0.05, 0.2):
            for name, body in (("reuleaux", rounded_reuleaux(k, delta)), ("rotated", rotated_reuleaux(k, delta))):
                poly = approximate_polytope(body, ApproximationConfig(0.002))[0]
                pairs.append(("%s-%d-%g" % (name, k, delta), body, poly))
    cap_body, cap_poly = _cap_polytope()
    for name, body in {**curved_bodies(), **curved_tampered()}.items():
        try:
            pairs.append((name, body, approximate_polytope(body, ApproximationConfig(0.01))[0]))
        except (NotConstantWidth, NotSelfDual):
            pairs.append((name, body, cap_poly))
    # a vertex put in the middle of the edge of a great-arc piece
    body = two_cut_cap()
    v, g = approximate_polytope(body, ApproximationConfig(0.01))[0].vertices, body.arcs.great.argmax()
    i = int(np.argmin(np.linalg.norm(v - body.arcs.start[g], axis=1)))
    pairs.append(("great-arc-split", body, Polytope(np.insert(v, i + 1, unit(v[i] + v[(i + 1) % len(v)]), axis=0))))
    for kind in ("moved-1e-9", "chord-vertex-deleted", "pole-vertex-deleted", "reversed", "rotated-cap"):
        pairs.append((kind,) + _tampered(kind))
    for first in (2, 27):
        v = cap_poly.vertices.copy()
        v[[first, first + 1]] = v[[first + 1, first]]
        pairs.append(("swapped-%d" % first, cap_body, Polytope(v)))
    v = cap_poly.vertices.copy()
    v[3] = _radial(v[3], cap_body.pieces[0].center, -0.5 * approx.FIT_EPS)
    pairs.append(("moved-fit-eps-half", cap_body, Polytope(v)))
    return pairs


def test_pairing_walk_is_the_per_unit_walk():
    # the one-pass walk returns the per-unit loop's verdict, and its bound to
    # roundoff: per-row dot products where the loop took one matrix-vector
    # product a unit; rounded Reuleaux outputs put unit starts inside edges
    bounds = refused = inside = 0
    for name, body, poly in _walk_corpus():
        got, want = approx.pairing_bound(body, poly), oracles.pairing_bound_per_unit(body, poly)
        assert (got is None) == (want is None), name
        if got is None:
            refused += 1
            continue
        assert abs(got - want) <= 1e-15, (name, got, want)
        bounds += 1
        inside += int(np.count_nonzero(approx._locate(poly, body.run_pairing.arcs.start)[0] % 2))
    assert bounds >= 70 and refused >= 15 and inside >= 80


def test_pairing_walk_is_one_pass(monkeypatch):
    # the walk makes as many row-kernel calls on 162 units as on 18: none of
    # them runs once per unit
    counts = dict(norm_rows=0, cross_rows=0, _dots=0, _angles=0)

    def counted(name, f):
        def g(*args):
            counts[name] += 1
            return f(*args)

        return g

    for name in counts:
        monkeypatch.setattr(approx, name, counted(name, getattr(approx, name)))
    seen = []
    for k, delta in ((9, 0.2), (81, 0.05)):
        body = rounded_reuleaux(k, delta)
        poly = approximate_polytope(body, ApproximationConfig(0.002))[0]
        assert len(body.run_pairing.arcs) == 2 * k and approx._locate(poly, body.run_pairing.arcs.start)[0].min() >= 0
        counts.update(dict.fromkeys(counts, 0))
        assert approx.pairing_bound(body, poly) is not None
        seen.append(dict(counts))
    assert seen[0] == seen[1] and min(seen[0].values()) > 0


def test_chord_counts_are_the_per_run_counts():
    # one array expression over the runs, with math's tan and acos, gives
    # each run the count of the scalar formula, bit for bit
    rng = np.random.default_rng(7)
    radius = np.concatenate([rng.uniform(1e-6, PI / 2 - 1e-6, 300), [1e-3, 0.5, PI / 4, 1.5]])
    span = np.concatenate([rng.uniform(1e-6, 2 * PI, 300), [2 * PI, PI, PI / 2, 1e-3]])
    for target in (1e-9, 1e-5, 0.002, 0.3, 2.0):
        for full in (False, True):
            want = [oracles.chord_count_per_run(r, s, target, full) for r, s in zip(radius.tolist(), span.tolist())]
            assert approx._chord_counts(radius, span, target, full).tolist() == want, (target, full)
    # the budget names the first run at fault, as the scalar formula does
    radius, span = np.array([1e-20, 0.6, 0.7]), np.array([1.0, 6.0, 6.0])
    with pytest.raises(BudgetExhausted) as got:
        approx._chord_counts(radius, span, 1e-16)
    with pytest.raises(BudgetExhausted) as want:
        oracles.chord_count_per_run(0.6, 6.0, 1e-16)
    assert str(got.value) == str(want.value) and str(got.value).endswith("radius 0.6")


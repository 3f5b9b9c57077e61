import json
import math

import numpy as np
import pytest

from spherewidth import approx, metrics
from spherewidth import body as bd
from spherewidth.cli import main
from spherewidth.formats import dumps_body, loads_body, loads_certificate
from spherewidth.body import Polytope
from spherewidth.metrics import is_constant_width


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_octant(tmp_path, capsys):
    out = tmp_path / "octant.json"
    code, _, _ = run(capsys, "generate", "octant", "-o", str(out))
    assert code == 0
    body = loads_body(out.read_text())
    assert isinstance(body, Polytope)
    assert len(body) == 3


def test_generate_cap_and_metrics(tmp_path, capsys):
    out = tmp_path / "cap.json"
    code, _, _ = run(
        capsys, "generate", "cap", "--radius", repr(math.pi / 6), "-o", str(out)
    )
    assert code == 0
    code, stdout, _ = run(capsys, "metrics", str(out))
    assert code == 0
    rec = json.loads(stdout.strip().splitlines()[-1])
    assert rec["thickness"] == pytest.approx(math.pi / 3, abs=1e-9)
    assert rec["diameter"] == pytest.approx(math.pi / 3, abs=1e-9)


def test_generate_random_polytope_deterministic(tmp_path, capsys):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    for f in (f1, f2):
        code, _, _ = run(
            capsys, "generate", "random-polytope", "--n", "8", "--seed", "42",
            "-o", str(f),
        )
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_dual_roundtrip(tmp_path, capsys):
    src = tmp_path / "cap.json"
    d1 = tmp_path / "dual.json"
    d2 = tmp_path / "dual2.json"
    run(capsys, "generate", "cap", "--radius", repr(math.pi / 6), "-o", str(src))
    assert run(capsys, "dual", str(src), "-o", str(d1))[0] == 0
    dual = loads_body(d1.read_text())
    assert dual.pieces[0].radius == pytest.approx(math.pi / 3, abs=1e-12)
    assert run(capsys, "dual", str(d1), "-o", str(d2))[0] == 0
    back = loads_body(d2.read_text())
    orig = loads_body(src.read_text())
    assert np.allclose(back.pieces[0].center, orig.pieces[0].center, atol=1e-12)
    assert back.pieces[0].radius == pytest.approx(orig.pieces[0].radius, abs=1e-9)


def test_approximate_pipeline(tmp_path, capsys):
    src = tmp_path / "cap.json"
    out = tmp_path / "poly.json"
    cert_file = tmp_path / "cert.json"
    log_file = tmp_path / "steps.jsonl"
    run(capsys, "generate", "cap", "-o", str(src))
    code, _, _ = run(
        capsys, "approximate", str(src), "--epsilon", "0.1", "-o", str(out),
        "--certificate", str(cert_file), "--log", str(log_file),
    )
    assert code == 0
    cert = loads_certificate(cert_file.read_text())
    assert cert.hausdorff_bound <= 0.2
    assert log_file.read_text().count("\n") == cert.steps
    poly = loads_body(out.read_text())
    assert isinstance(poly, Polytope)


def test_generate_and_approximate_rounded_reuleaux(tmp_path, capsys):
    src = tmp_path / "rr.json"
    log = tmp_path / "rr.jsonl"
    cert_file = tmp_path / "cert.json"
    code, stdout, _ = run(capsys, "generate", "reuleaux", "--k", "5", "--delta", "0.05", "-o", str(src))
    assert code == 0 and "10 pieces" in stdout
    code, _, _ = run(
        capsys, "approximate", str(src), "--epsilon", "0.01", "-o", str(tmp_path / "p.json"),
        "--certificate", str(cert_file), "--log", str(log),
    )
    assert code == 0
    assert len(log.read_text().splitlines()) == loads_certificate(cert_file.read_text()).steps > 0


def test_generate_completion(tmp_path, capsys):
    out = tmp_path / "completion.json"
    code, stdout, _ = run(
        capsys, "generate", "completion", "--radius", "0.6", "--seed", "3",
        "-o", str(out),
    )
    assert code == 0
    assert stdout.strip() == "wrote %s (completion, 3 pieces)" % out
    code, stdout, _ = run(capsys, "metrics", str(out))
    assert code == 0
    rec = json.loads(stdout.strip().splitlines()[-1])
    assert rec["thickness"] == pytest.approx(math.pi / 2, abs=1e-12)
    assert rec["self_duality_residual"] <= 1e-12


def test_generate_completion_seeds_give_congruent_bodies(tmp_path, capsys):
    # the seed turns the cap about its centre, and the completion with it:
    # the same pieces, widths and residual, at other places
    recs, bodies = [], []
    for seed in ("1", "2", "7"):
        out = tmp_path / ("completion-%s.json" % seed)
        code, stdout, _ = run(capsys, "generate", "completion", "--radius", "0.7", "--seed", seed, "-o", str(out))
        assert code == 0 and stdout.strip() == "wrote %s (completion, 5 pieces)" % out
        code, stdout, _ = run(capsys, "metrics", str(out))
        assert code == 0
        recs.append(json.loads(stdout))
        bodies.append(loads_body(out.read_text()))
    for rec in recs[1:]:
        for key in ("thickness", "diameter", "width_min", "width_max", "self_duality_residual"):
            assert abs(rec[key] - recs[0][key]) <= 1e-12, key
    lengths = [np.sort(b.arcs.span * b.arcs.sin_r) for b in bodies]
    assert all(np.abs(x - lengths[0]).max() <= 1e-12 for x in lengths)
    assert np.abs(bodies[0].arcs.start[0] - bodies[1].arcs.start[0]).max() > 1e-3


def test_metrics_of_approximation_output(tmp_path, capsys):
    src = tmp_path / "cap.json"
    out = tmp_path / "poly.json"
    run(capsys, "generate", "cap", "-o", str(src))
    run(capsys, "approximate", str(src), "--epsilon", "0.2", "-o", str(out))
    code, stdout, _ = run(capsys, "metrics", str(out))
    assert code == 0
    rec = json.loads(stdout.strip().splitlines()[-1])
    for key in ("thickness", "diameter", "width_min", "width_max"):
        assert rec[key] == pytest.approx(math.pi / 2, abs=1e-6)
    assert rec["self_duality_residual"] <= 1e-6


def test_metrics_prints_thickness_and_diameter_exactly(tmp_path, capsys):
    from spherewidth.metrics import diameter, thickness

    src = tmp_path / "cap.json"
    out = tmp_path / "poly.json"
    run(capsys, "generate", "cap", "--center", "1,2,3", "-o", str(src))
    run(capsys, "approximate", str(src), "--epsilon", "0.05", "-o", str(out))
    for path in (src, out):
        code, stdout, _ = run(capsys, "metrics", str(path))
        assert code == 0
        rec = json.loads(stdout.strip().splitlines()[-1])
        body = loads_body(path.read_text())
        assert rec["thickness"] == thickness(body)
        assert rec["diameter"] == diameter(body)


def test_approximate_rejects_wrong_width(tmp_path, capsys):
    src = tmp_path / "cap6.json"
    run(capsys, "generate", "cap", "--radius", repr(math.pi / 6), "-o", str(src))
    code, _, err = run(
        capsys, "approximate", str(src), "--epsilon", "0.1",
        "-o", str(tmp_path / "x.json"),
    )
    assert code == 1
    assert "NotConstantWidth" in err


def test_certify_failure_exit_code(tmp_path, capsys):
    src = tmp_path / "cap.json"
    oct_file = tmp_path / "oct.json"
    run(capsys, "generate", "cap", "-o", str(src))
    run(capsys, "generate", "octant", "-o", str(oct_file))
    code, _, err = run(
        capsys, "certify", str(src), str(oct_file), "--epsilon", "0.01"
    )
    assert code == 2
    assert "hausdorff_bound" in err


def test_certify_of_a_far_pair_exits_one(tmp_path, capsys):
    # the result, a pi/4 cap about N, is of constant width, so certify
    # reaches the Hausdorff term; no pairing covers a curved result, and
    # the cap of radius 0.5 about S lies inside -C*, every point of it pi/2
    # or more from the result: the distance has no closed form there
    src, cap = tmp_path / "south.json", tmp_path / "cap.json"
    run(capsys, "generate", "cap", "--center", "0,0,-1", "--radius", "0.5", "-o", str(src))
    run(capsys, "generate", "cap", "-o", str(cap))
    code, stdout, err = run(capsys, "certify", str(src), str(cap), "--epsilon", "0.01")
    assert code == 1 and stdout == ""
    assert err.startswith("FarPair: (b) ")


def test_metrics_of_the_frame_jump_body_exits_zero(tmp_path, capsys):
    # a valid pi/4 cap whose frame turns a quarter between two pieces of one
    # circle takes the exact report; its residual is 0 up to roundoff
    from fixtures import frame_jump_cap

    f = tmp_path / "frame-jump.json"
    f.write_text(dumps_body(frame_jump_cap()))
    code, stdout, _ = run(capsys, "metrics", str(f))
    assert code == 0
    assert json.loads(stdout)["self_duality_residual"] <= 1e-12


def test_certify_octant_pair(tmp_path, capsys):
    oct_file = tmp_path / "oct.json"
    run(capsys, "generate", "octant", "-o", str(oct_file))
    code, stdout, _ = run(
        capsys, "certify", str(oct_file), str(oct_file), "--epsilon", "0.05"
    )
    assert code == 0
    rec = json.loads(stdout.strip().splitlines()[-1])
    assert rec["hausdorff_bound"] <= 1e-12


@pytest.mark.parametrize("kind", ["octant", "random-polytope"])
def test_certify_dual_file_takes_the_polytope_certificate(tmp_path, capsys, monkeypatch, kind):
    # ``dual`` writes a polytope file, and a pc-body of great arcs, the
    # format it wrote before, is read as a polytope too: certify takes the
    # polytope certificate on both, so the width report (``is_constant_width``)
    # never runs
    body, dual, old = tmp_path / "body.json", tmp_path / "dual.json", tmp_path / "old.json"
    run(capsys, "generate", kind, "-o", str(body))
    run(capsys, "dual", str(body), "-o", str(dual))
    assert json.loads(dual.read_text())["kind"] == "polytope"
    old.write_text(dumps_body(bd.chain_body(loads_body(dual.read_text()).arcs)))
    assert json.loads(old.read_text())["kind"] == "pc-body"
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return is_constant_width(*args, **kwargs)

    monkeypatch.setattr(approx, "is_constant_width", counted)
    for result in (dual, old):
        code, stdout, _ = run(capsys, "certify", str(body), str(result), "--epsilon", "1e-9")
        assert code == 0
        rec = json.loads(stdout.strip().splitlines()[-1])
        assert rec["self_duality_residual"] < 1e-12
    assert calls == []


@pytest.mark.parametrize("kind", ["octant", "random-polytope", "cap"])
def test_certify_pairs_without_arc_runs_keep_the_refined_distance(tmp_path, capsys, monkeypatch, kind):
    # no chord/tangent pairing covers a polytope against its dual (the input
    # has no arc runs) or a body against itself (the result is curved), so
    # the certificate prints the exact distance, 0 up to roundoff
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "generate", kind, "-o", str(a))
    if kind == "cap":
        b = a
    else:
        run(capsys, "dual", str(a), "-o", str(b))
    bounds = []
    pairing = approx.pairing_bound

    def recorded(*args):
        bounds.append(pairing(*args))
        return bounds[-1]

    monkeypatch.setattr(approx, "pairing_bound", recorded)
    code, stdout, _ = run(capsys, "certify", str(a), str(b), "--epsilon", "0.01")
    assert code == 0
    assert bounds == ([] if kind == "cap" else [None])
    result = loads_body(b.read_text())
    if result.is_polytope():
        result = bd.to_polytope(result)
    assert json.loads(stdout)["hausdorff_bound"] == metrics.hausdorff(loads_body(a.read_text()), result) <= 1e-12


def test_certify_and_metrics_print_the_exact_residual_off_the_closed_form(tmp_path, capsys):
    # a curved result whose run pairing does not cover it takes the exact
    # report: both verbs print its exact distance to its dual,
    # max(0, diameter - pi/2, pi/2 - thickness), 0 up to roundoff on this
    # trimmed body
    from fixtures import curved_tampered, rotated_reuleaux

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dumps_body(rotated_reuleaux(3, 1e-4)))
    b.write_text(dumps_body(curved_tampered()["trimmed-1e-6"]))
    result = loads_body(b.read_text())
    assert result.residual_bound is None
    h = metrics.self_duality_residual(result)
    assert h == max(0.0, metrics.diameter(result) - math.pi / 2, metrics.diameter(bd.polar_dual(result)) - math.pi / 2)
    assert h <= 1e-12
    for argv in (("certify", str(a), str(b), "--epsilon", "0.01"), ("metrics", str(b))):
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(stdout)["self_duality_residual"] == h, argv


def test_nan_epsilon_exits_one_and_writes_nothing(tmp_path, capsys):
    src, out, cert = (tmp_path / n for n in ("cap.json", "p.json", "c.json"))
    run(capsys, "generate", "cap", "-o", str(src))
    code, _, err = run(
        capsys, "approximate", str(src), "--epsilon", "nan", "-o", str(out), "--certificate", str(cert)
    )
    assert code == 1
    assert "ValueError" in err
    assert not out.exists() and not cert.exists()


def test_nan_tol_cannot_certify_a_wrong_width(tmp_path, capsys):
    # the radius-0.6 cap has width 1.2, not pi/2
    src, small = tmp_path / "cap.json", tmp_path / "small.json"
    run(capsys, "generate", "cap", "-o", str(src))
    run(capsys, "generate", "cap", "--radius", "0.6", "-o", str(small))
    code, stdout, err = run(capsys, "certify", str(src), str(small), "--epsilon", "1", "--tol", "nan")
    assert code == 1
    assert "ValueError" in err and stdout == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_a_bad_tol_is_refused_at_once(tmp_path, capsys, tol):
    # the completion and the width report take a tol only when it is
    # finite and >= 0: a NaN one would run the completion to its insertion
    # budget, an infinite one fail in math.sin; refused before any work,
    # each names tol and exits 1
    src = tmp_path / "cap.json"
    run(capsys, "generate", "cap", "-o", str(src))
    for argv in (("generate", "completion", "--radius", "0.6", "-o", str(tmp_path / "c.json")), ("metrics", str(src))):
        code, stdout, err = run(capsys, *argv, "--tol", tol)
        assert code == 1 and stdout == "", argv
        assert err.startswith("ValueError: tol must be finite and >= 0"), (argv, err)
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("vec", ["nan,0,1", "inf,0,1", "0,-inf,1", "0,0,1e200"])
def test_a_non_finite_vector_is_refused(tmp_path, capsys, vec):
    # a NaN or infinite --center or --view has no direction: refused naming
    # the vector, exit 1 and nothing written (a NaN centre was written out
    # as [nan, nan, nan], which no JSON reader takes back, and a NaN view
    # failed in the SVD); a finite one whose squared norm overflows is
    # normalised and taken
    src = tmp_path / "cap.json"
    run(capsys, "generate", "cap", "-o", str(src))
    cases = [
        (("generate", "cap", "--center", vec), "cap-out.json"),
        (("generate", "reuleaux", "--center", vec), "rr.json"),
        (("render", str(src), "--view", vec), "view.svg"),
    ]
    finite = all(math.isfinite(float(c)) for c in vec.split(","))
    for argv, out in cases:
        code, stdout, err = run(capsys, *argv, "-o", str(tmp_path / out))
        if finite:
            assert code == 0 and err == "" and (tmp_path / out).exists(), (argv, err)
            continue
        assert code == 1 and stdout == "", argv
        want = "ValueError: cannot normalize %s: its norm must be finite" % [float(c) for c in vec.split(",")]
        assert err.startswith(want), (argv, err)
        assert not (tmp_path / out).exists(), argv


def test_each_verb_validates_each_body_once(tmp_path, capsys, monkeypatch):
    files = {n: tmp_path / n for n in ("cap.json", "poly.json", "dual.json", "old.json", "fig.svg", "p2.json")}
    run(capsys, "generate", "cap", "-o", str(files["cap.json"]))
    run(capsys, "approximate", str(files["cap.json"]), "--epsilon", "0.01", "-o", str(files["poly.json"]))
    # the dual as a pc-body of great arcs, the format ``dual`` wrote before
    run(capsys, "dual", str(files["poly.json"]), "-o", str(files["dual.json"]))
    files["old.json"].write_text(dumps_body(bd.chain_body(loads_body(files["dual.json"].read_text()).arcs)))
    seen = []
    validate = bd.validate

    def counted(body):
        seen.append(body)
        return validate(body)

    monkeypatch.setattr(bd, "validate", counted)
    cap_f, poly_f, old_f = str(files["cap.json"]), str(files["poly.json"]), str(files["old.json"])
    verbs = [
        (["certify", cap_f, poly_f, "--epsilon", "0.01"], 2),
        (["certify", cap_f, old_f, "--epsilon", "0.01"], 2),
        (["metrics", poly_f], 1),
        (["metrics", cap_f], 1),
        (["metrics", old_f], 1),
        (["dual", poly_f, "-o", str(files["dual.json"])], 1),
        (["dual", old_f, "-o", str(files["dual.json"])], 1),
        (["render", cap_f, poly_f, "-o", str(files["fig.svg"])], 2),
        (["render", old_f, "-o", str(files["fig.svg"])], 1),
        # the file it reads, and the polytope it writes
        (["approximate", cap_f, "--epsilon", "0.01", "-o", str(files["p2.json"])], 2),
    ]
    for argv, bodies in verbs:
        seen.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(seen) == bodies == len({id(b) for b in seen}), argv[0]


def test_render_command(tmp_path, capsys):
    src = tmp_path / "cap.json"
    out = tmp_path / "fig.svg"
    run(capsys, "generate", "cap", "-o", str(src))
    code, _, _ = run(
        capsys, "render", str(src), "--view", "0,0,1", "-o", str(out)
    )
    assert code == 0
    assert out.read_text().startswith("<?xml")


def test_render_default_view(tmp_path, capsys):
    # the default view looks at the bodies, so plain generator output renders
    files = {name: tmp_path / (name + ".json") for name in ("cap", "rp", "rp-dual")}
    run(capsys, "generate", "cap", "-o", str(files["cap"]))
    run(capsys, "generate", "random-polytope", "-o", str(files["rp"]))
    run(capsys, "dual", str(files["rp"]), "-o", str(files["rp-dual"]))
    for inputs in ([files["cap"]], [files["rp"], files["rp-dual"]]):
        out = tmp_path / "fig.svg"
        code, _, err = run(capsys, "render", *map(str, inputs), "-o", str(out))
        assert code == 0, err
        assert out.read_text().count("<path ") == len(inputs)


def test_render_bad_view(tmp_path, capsys):
    src = tmp_path / "cap.json"
    run(capsys, "generate", "cap", "-o", str(src))
    code, _, err = run(
        capsys, "render", str(src), "--view", "0,0,0", "-o", str(tmp_path / "f.svg")
    )
    assert code == 1


def test_bad_arguments_exit_one(capsys):
    code, _, _ = run(capsys, "generate", "nonsense", "-o", "x.json")
    assert code == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"kind":"polytope"}',
        '{"kind":"pc-body","interior":[0,0,1],"pieces":'
        '[{"type":"circle","center":[0,0,1],"radius":0.7,"az_from":0}]}',
        '[{"kind":"polytope","vertices":[[1,0,0],[0,1,0],[0,0,1]]}]',
        '{"kind":"polytope","vertices":[[0,0,0],[1,0,0],[0,1,0]]}',
        # great arcs whose last one stops short of the first start: not the octant of their starts
        '{"kind":"pc-body","interior":[1,1,1],"pieces":[{"type":"great","from":[1,0,0],"to":[0,1,0]},'
        '{"type":"great","from":[0,1,0],"to":[0,0,1]},{"type":"great","from":[0,0,1],"to":[1,0,0.2]}]}',
        '{"kind":"pc-body","interior":[0,0,1],"pieces":[]}',
        '{"kind":"pc-body","interior":[0,0,1],"pieces":'
        '[{"type":"circle","center":[0,0,1],"radius":"0.7853981633974483","az_from":0,"az_to":6.283185307179586}]}',
        '{"kind":"polytope","vertices":[[1,0,0],[0,1,0],[0,0,1]]',
    ],
    ids=[
        "polytope-without-vertices",
        "circle-without-az_to",
        "array-root",
        "zero-vertex",
        "open-great-arc-chain",
        "no-pieces",
        "radius-string",
        "broken-json",
    ],
)
def test_malformed_body_file_exits_one(tmp_path, capsys, text):
    src = tmp_path / "bad.json"
    src.write_text(text)
    code, _, err = run(capsys, "metrics", str(src))
    assert code == 1
    assert "InvalidBody" in err


def test_one_parser_serves_every_call_and_no_option_carries_over(monkeypatch):
    # the parser is built once per process; each call gets a fresh namespace
    # of its own verb's options and defaults, and runs the handler bound to
    # ``cmd_<verb>`` at call time
    from spherewidth import cli

    assert cli.build_parser() is cli.build_parser()
    seen = []
    for verb in ("certify", "metrics", "dual", "render"):
        monkeypatch.setattr(cli, "cmd_" + verb, lambda args: seen.append(vars(args)) or 0)
    assert main(["certify", "a.json", "b.json", "--epsilon", "0.01", "--tol", "1e-3"]) == 0
    assert main(["metrics", "c.json"]) == 0
    assert main(["certify", "a.json", "b.json", "--epsilon", "0.02"]) == 0
    assert seen == [
        {"command": "certify", "original": "a.json", "result": "b.json", "epsilon": 0.01, "tol": 1e-3},
        {"command": "metrics", "input": "c.json", "tol": 1e-6},
        {"command": "certify", "original": "a.json", "result": "b.json", "epsilon": 0.02, "tol": 1e-6},
    ]
    # only generate takes --seed, and dual and render take no --tol: each is
    # refused before any handler runs
    args = {
        "dual": ["a.json", "-o", "x"],
        "metrics": ["c.json"],
        "approximate": ["a.json", "--epsilon", "0.01", "-o", "x"],
        "certify": ["a.json", "b.json", "--epsilon", "0.01"],
        "render": ["a.json", "-o", "x"],
    }
    monkeypatch.setattr(cli, "cmd_approximate", lambda args: seen.append(vars(args)) or 0)
    for verb in args:
        assert main([verb, *args[verb], "--seed", "1"]) == 1
    for verb in ("dual", "render"):
        assert main([verb, *args[verb], "--tol", "1e-3"]) == 1
    assert len(seen) == 3


def test_tol_of_one_call_does_not_reach_the_next(tmp_path, capsys):
    # a loose --tol certifies a cap of radius pi/4 + 1e-4 against itself,
    # its widths 2e-4 from pi/2; the next call, at the default, rejects it
    src = str(tmp_path / "cap.json")
    run(capsys, "generate", "cap", "--radius", repr(math.pi / 4 + 1e-4), "-o", src)
    assert run(capsys, "certify", src, src, "--epsilon", "0.01", "--tol", "1e-3")[0] == 0
    code, _, err = run(capsys, "certify", src, src, "--epsilon", "0.01")
    assert code == 2 and "width_range" in err

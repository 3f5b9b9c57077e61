import json
import math

import numpy as np
import pytest

from spherewidth.cli import main
from spherewidth.formats import loads_body, loads_certificate
from spherewidth.body import Polytope


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


def test_generate_completion(tmp_path, capsys):
    out = tmp_path / "completion.json"
    code, _, _ = run(
        capsys, "generate", "completion", "--radius", "0.6", "--seed", "3",
        "-o", str(out),
    )
    assert code == 0
    code, stdout, _ = run(capsys, "metrics", str(out))
    assert code == 0
    rec = json.loads(stdout.strip().splitlines()[-1])
    assert rec["thickness"] == pytest.approx(math.pi / 2, abs=1e-5)
    assert rec["self_duality_residual"] <= 1e-6


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


def test_certify_octant_pair(tmp_path, capsys):
    oct_file = tmp_path / "oct.json"
    run(capsys, "generate", "octant", "-o", str(oct_file))
    code, stdout, _ = run(
        capsys, "certify", str(oct_file), str(oct_file), "--epsilon", "0.05"
    )
    assert code == 0
    rec = json.loads(stdout.strip().splitlines()[-1])
    assert rec["hausdorff_bound"] <= 1e-12


def test_render_command(tmp_path, capsys):
    src = tmp_path / "cap.json"
    out = tmp_path / "fig.svg"
    run(capsys, "generate", "cap", "-o", str(src))
    code, _, _ = run(
        capsys, "render", str(src), "--view", "0,0,1", "-o", str(out)
    )
    assert code == 0
    assert out.read_text().startswith("<?xml")


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
    ],
    ids=["polytope-without-vertices", "circle-without-az_to", "array-root", "zero-vertex"],
)
def test_malformed_body_file_exits_one(tmp_path, capsys, text):
    src = tmp_path / "bad.json"
    src.write_text(text)
    code, _, err = run(capsys, "metrics", str(src))
    assert code == 1
    assert "InvalidBody" in err

"""Tests of the benchmark's own code: wrapper restore, the tail rule, self time.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spherewidth  # noqa: E402
from spherewidth import approx, body, metrics  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


def _bindings():
    return {
        "metrics.hausdorff": metrics.hausdorff,
        "approx.hausdorff": approx.hausdorff,
        "pkg.hausdorff": spherewidth.hausdorff,
        "body.body_distance_many": body.body_distance_many,
        "metrics.body_distance_many": metrics.body_distance_many,
    }


def test_wrappers_cover_every_binding_and_are_restored():
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        assert during["metrics.hausdorff"] is during["approx.hausdorff"] is during["pkg.hausdorff"]
        octant = spherewidth.octant()
        approx.hausdorff(octant, octant)
    assert _bindings() == before
    names = {s.name for s in tracer.spans}
    assert "metrics.hausdorff" in names
    # internal calls from metrics reach the body kernels through the wrappers
    assert "body.body_distance_many" in names or "sphere.distance_to_piece" in names


def test_wrappers_are_restored_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_span_records_error_and_parent():
    tracer = Tracer()
    with tracer.installed():
        tracer.op = 7
        with pytest.raises(ValueError):
            approx.subdivide_piece(spherewidth.cap([0, 0, 1.0], 0.7), 0, -1.0)
    (span,) = [s for s in tracer.spans if s.name == "approx.subdivide_piece"]
    assert span.error == "ValueError" and span.op == 7 and span.parent == -1


def test_tail_percentile_rule():
    samples = list(range(1, 101))
    assert run.tail_percentile(samples) == (90, 90, 10)
    # 25 samples: p60 is the 15th value, with 10 above it
    assert run.tail_percentile(list(range(25))) == (60, 14, 10)
    # too few samples: the median, with its own count
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (50, 2.0, 1)


def _spans(*rows):
    return [Span(name, parent, 0, start, end) for name, parent, start, end in rows]


def test_self_time_subtracts_covered_child_intervals():
    spans = _spans(
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 3.0),
        ("c", 0, 2.0, 5.0),  # overlaps b: the union 1..5 counts once
        ("d", 0, 7.0, 8.0),
        ("e", 3, 7.2, 7.5),
    )
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([5.0, 2.0, 3.0, 0.7, 0.3])


def test_inclusive_time_counts_recursion_once():
    spans = _spans(
        ("f", -1, 0.0, 4.0),
        ("f", 0, 1.0, 3.0),
        ("g", 1, 1.5, 2.0),
    )
    stats, _ = tracing.op_layer_stats(spans)
    assert stats["f"]["calls"] == 2
    assert stats["f"]["s"] == pytest.approx(4.0)
    assert stats["f"]["self_s"] == pytest.approx(2.0 + 1.5)


def test_split_by_op_reindexes_parents():
    spans = [
        Span("a", -1, 0, 0.0, 1.0),
        Span("x", -1, 1, 2.0, 3.0),
        Span("b", 0, 0, 0.1, 0.2),
        Span("y", 1, 1, 2.1, 2.2),
    ]
    groups = tracing.split_by_op(spans)
    assert [(s.name, s.parent) for s in groups[0]] == [("a", -1), ("b", 0)]
    assert [(s.name, s.parent) for s in groups[1]] == [("x", -1), ("y", 0)]


def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    stats, extra = tracing.op_layer_stats(_spans(("approx.cut_step", -1, 0.0, 1.0)))
    emitted = set(tracing.layer_metrics([(stats, extra)])) | {"trace.overhead"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert all(m["unit"] == tracing.layer_unit(m["name"]) for m in spec["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb", "out_vertices_mean",
    }
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)


def test_workload_names_match_the_workloads():
    from workloads import WORKLOADS

    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES


def test_package_level_calls_are_traced_with_their_counters():
    tracer = Tracer()
    with tracer.installed():
        tracer.op = 0
        spherewidth.approximate_polytope(
            spherewidth.cap([0, 0, 1.0], math.pi / 4), spherewidth.ApproximationConfig(0.2)
        )
    stats, extra = tracing.op_layer_stats(tracer.spans)
    top = stats["approx.approximate_polytope"]
    assert top["calls"] == 1 and top["rounds"] >= 1 and top["cuts"] == extra["cuts"] > 0
    assert extra["gate_s"] > 0 and extra["subdivide_evals"] > 0


def test_fingerprint_ledger_flags_count_drift(tmp_path):
    from workloads import WORKLOADS

    ledger = tmp_path / "fingerprints.json"

    def runner_with(vertices):
        r = run.Runner(WORKLOADS["random-polytope"], 5, 1.0, 0)
        r.records = [{"op": 0, "outputs": {"vertices": vertices}}]
        return r

    first = runner_with(25)
    digest = run.check_fingerprints(first, "code-a", ledger)
    again = runner_with(25)
    assert run.check_fingerprints(again, "code-a", ledger) == digest and not again.failures
    drift = runner_with(27)
    run.check_fingerprints(drift, "code-a", ledger)
    assert drift.failures
    other_code = runner_with(27)
    run.check_fingerprints(other_code, "code-b", ledger)
    assert not other_code.failures

"""spherewidth benchmark: one client, closed loop, single process.

Run from the repository root:

    python3 perfbench/run.py --workload cap-fine --seed 1 --seconds 30 --trace 0

The loop starts the next op only after the previous one returned and was
checked.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
each input twice, untraced then traced, and reports the per-layer metrics
and the tracing overhead.  The last stdout line is one JSON object; details
(environment, tail percentile, fingerprint, per-op records) go to earlier
lines and to ``.bench_out/``.  Exit code 1 means a failed check, 2 an
unusable checkout.  See README.md in this directory.
"""

from __future__ import annotations

import os

# Pin numpy's thread pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
MIN_OPS = 3
MAX_FAILURES = 10
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("cap-fine", "random-polytope", "verify-cli")
# Times the package import inside a fresh interpreter, then the speed kernel.
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import spherewidth\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "print(t, speed.kernel_seconds())\n"
)


def tail_percentile(samples):
    """Highest whole percentile, not below the median, with ``TAIL_BEYOND`` samples above it.

    Returns ``(percentile, value, samples_above)``.  Percentiles use the
    nearest-rank rule.  With too few samples no percentile above the median
    qualifies, and the median is returned with its own count.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 50, -1):
        v = xs[math.ceil(p * n / 100) - 1]
        above = sum(1 for x in xs if x > v)
        if above >= TAIL_BEYOND:
            return p, v, above
    v = statistics.median(xs)
    return 50, v, sum(1 for x in xs if x > v)


def code_digest():
    h = hashlib.sha256()
    for base in (SRC, Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment():
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "code": code_digest(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def import_timing():
    """Package import in a fresh interpreter, as a CLI user pays it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    seconds, kernel_s = map(float, proc.stdout.split())
    return speed.Timing(seconds, seconds, kernel_s)


class Runner:
    """One benchmark run: set-up, the closed loop, and the per-op records."""

    def __init__(self, workload, seed, seconds, trace):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.timings: list = []
        self.traced_timings: list = []
        self.records: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0

    def setup(self, workdir):
        """Import plus input generation, ``SETUP_REPS`` times: (normalised, wall) seconds."""
        self.setup_times = []
        for _ in range(SETUP_REPS):
            imp = import_timing()
            self.inputs, gen = speed.timed(self.wl.generate, self.seed, workdir)
            self.setup_times.append((imp.norm_s + gen.norm_s, imp.wall_s + gen.wall_s))

    def _attempt(self, i, tracer=None):
        """Run and check op ``i``; returns (Timing, counts) or None on failure."""
        from spherewidth.errors import SphereGeomError
        from workloads import CheckFailed

        self.attempted += 1
        try:
            if tracer is None:
                out, timing = speed.timed(self.wl.run, self.inputs, i)
            else:
                tracer.op = i
                with tracer.installed():
                    out, timing = speed.timed(self.wl.run, self.inputs, i)
            return timing, self.wl.check(self.inputs, i, out)
        except (SphereGeomError, CheckFailed) as exc:
            self.failures.append("op %d: %s: %s" % (i, type(exc).__name__, exc))
        except Exception:  # noqa: BLE001 - any crash of an op is a counted failure
            self.failures.append("op %d: %s" % (i, traceback.format_exc(limit=3)))
        return None

    def loop(self):
        tracer = None
        if self.trace:
            from tracing import Tracer

            tracer = Tracer()
        self.tracer = tracer
        start = time.perf_counter()
        i = 0
        while True:
            if i >= MIN_OPS:
                # stop before an op that would, at the median pace, end late
                pace = sum(
                    statistics.median(t.wall_s for t in ts)
                    for ts in (self.timings, self.traced_timings) if ts
                )
                if time.perf_counter() - start + pace > self.seconds:
                    break
            plain = self._attempt(i)
            if plain is not None:
                self.timings.append(plain[0])
                record = {"op": i, "outputs": plain[1]}
                if tracer is not None:
                    traced = self._attempt(i, tracer)
                    if traced is not None:
                        self.traced_timings.append(traced[0])
                        if traced[1] != plain[1]:
                            self.failures.append("op %d: traced output differs" % i)
                self.records.append(record)
            i += 1
            if len(self.failures) >= MAX_FAILURES:
                break


def end_to_end(runner):
    """End-to-end metrics; times are speed-normalised (see speed.py)."""
    lat = [t.norm_s for t in runner.timings]
    pct, tail, above = tail_percentile(lat)
    vertices = [r["outputs"]["vertices"] for r in runner.records]
    metrics = {
        "setup_s": (statistics.median(norm for norm, _ in runner.setup_times), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "out_vertices_mean": (sum(vertices) / len(vertices), "count"),
    }
    notes = {
        "op_samples": len(lat),
        "op_tail_percentile": pct,
        "op_tail_samples_above": above,
        "op_wall_p50_s": statistics.median(t.wall_s for t in runner.timings),
        "setup_wall_s": [wall for _, wall in runner.setup_times],
        "speed_p50": statistics.median(t.speed for t in runner.timings),
        "op_norm_s": lat,
        "op_wall_s": [t.wall_s for t in runner.timings],
    }
    return metrics, notes


def per_layer(runner):
    import tracing

    by_op = tracing.split_by_op(runner.tracer.spans)
    per_op = []
    for record in runner.records:
        spans = by_op.get(record["op"])
        if spans is None:
            continue
        stats, extra = tracing.op_layer_stats(spans)
        per_op.append((stats, extra))
        record["layers"] = tracing.count_fingerprint(stats, extra)
    values = tracing.layer_metrics(per_op)
    values["trace.overhead"] = (
        statistics.median(t.norm_s for t in runner.traced_timings)
        / statistics.median(t.norm_s for t in runner.timings)
        - 1.0
    )
    return {name: (value, tracing.layer_unit(name)) for name, value in values.items()}


def check_fingerprints(runner, code, ledger_path):
    """Compare each op's counts with earlier runs of the same code and seed.

    The ledger (``.bench_out/fingerprints.json``) keeps, per (workload,
    seed, op), the output counts and (from traced runs) the per-layer
    counts.  Returns the run's fingerprint: a digest of op 0's counts.
    """
    try:
        ledger = json.loads(ledger_path.read_text())
    except (OSError, ValueError):
        ledger = {}
    for record in runner.records:
        key = "%s/%d/%d" % (runner.wl.name, runner.seed, record["op"])
        entry = ledger.get(key)
        if entry is None or entry.get("code") != code:
            entry = {"code": code}
        for part in ("outputs", "layers"):
            if part not in record:
                continue
            if part in entry and entry[part] != record[part]:
                runner.failures.append(
                    "op %d: %s counts differ from an earlier run of the same code" % (record["op"], part)
                )
            entry[part] = record[part]
        ledger[key] = entry
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, sort_keys=True))
    os.replace(tmp, ledger_path)
    first = {k: v for k, v in runner.records[0].items() if k != "op"} if runner.records else {}
    return hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spherewidth" / "__init__.py").is_file():
        print("perfbench: no spherewidth sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spherewidth
    from workloads import WORKLOADS

    if Path(spherewidth.__file__).resolve().parent != SRC / "spherewidth":
        print("perfbench: imported spherewidth from %s" % spherewidth.__file__, file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = environment()
    runner = Runner(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=OUT)
    try:
        runner.setup(workdir)
        runner.loop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not runner.timings or (args.trace and not runner.traced_timings):
        for line in runner.failures:
            print(line, file=sys.stderr)
        print("perfbench: no op completed", file=sys.stderr)
        return 1

    metrics, notes = end_to_end(runner)
    if args.trace:
        metrics = per_layer(runner)
        runner.tracer.write_spans(OUT / ("spans-%s.tsv.gz" % args.workload))
    fingerprint = check_fingerprints(runner, env["code"], OUT / "fingerprints.json")
    failed = min(len(runner.failures), runner.attempted)
    correct = not runner.failures

    print("perfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    print("env %s" % json.dumps(env, sort_keys=True))
    print("op_samples %d, op_tail_s is p%d with %d samples above it"
          % (notes["op_samples"], notes["op_tail_percentile"], notes["op_tail_samples_above"]))
    print("op wall p50 %.4g s at CPU speed %.3f of the reference (times below are normalised)"
          % (notes["op_wall_p50_s"], notes["speed_p50"]))
    print("fail_ratio %d/%d = %.4g" % (failed, runner.attempted, failed / runner.attempted))
    print("fingerprint %s (counts of op 0)" % fingerprint)
    for line in runner.failures:
        print("FAILED %s" % line)
    for name, (value, unit) in metrics.items():
        print("%-44s %.6g %s" % (name, value, unit))
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(dict(result, env=env, notes=notes, fingerprint=fingerprint,
                        failures=runner.failures, records=runner.records), sort_keys=True, indent=1)
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

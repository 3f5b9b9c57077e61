"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cap-fine --seeds 1-10 [--trace 0]

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json, and prints per metric the median, the
quartile spread as a share of the median (``statistics.quantiles(n=4)``)
and, for end-to-end metrics, a third of the bound the spread should stay
below.  Exits 1 if a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, such as 1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print("seed %d: exit %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append("%s=%.4g" % (name, metric["value"]))
        print("seed %d: %s" % (seed, " ".join(line)), flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        limit = " (a third of the bound: %.3f)" % (bounds[name] / 3) if name in bounds else ""
        print("%-40s median %.6g  spread %.4f%s" % (name, med, spread, limit))
    return 0


if __name__ == "__main__":
    sys.exit(main())

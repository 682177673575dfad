"""Per-layer table and tracing overhead for one workload and seed.

    python3 perfbench/trace_report.py --workload forum --seed 1

Runs the benchmark twice, untraced and traced, with the same seed and the
run length `run_seconds` of BENCHMARK.json, and prints every per-layer
metric followed by the traced-minus-untraced difference of each end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False, cwd=ROOT,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"trace={trace} run failed ({out.returncode}):\n{out.stdout}{out.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        seconds = json.load(f)["run_seconds"]

    _, untraced = run_once(args.workload, args.seed, seconds, 0)
    detail, traced = run_once(args.workload, args.seed, seconds, 1)

    print(f"per-layer metrics, {args.workload}, seed {args.seed}")
    for name, m in traced["metrics"].items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    print("tracing overhead (traced - untraced)")
    for name, m in untraced["metrics"].items():
        t = detail["end_to_end_traced"][name]["value"]
        print(f"  {name:36s} {t - m['value']:>+14.6g} {m['unit']}"
              f"  ({(t - m['value']) / m['value']:+.1%})")


if __name__ == "__main__":
    main()

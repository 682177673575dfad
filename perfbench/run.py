"""Benchmark entry point: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload forum --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. With --trace 0 the last line of standard
output is a JSON object with every end-to-end metric; with --trace 1 it has
every per-layer metric. The line before it is a JSON record of the machine,
the inputs, sample counts and the protocol figures. Scratch files, the
records and the spans of a traced run go to `.perfbench/` in the checkout.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("forum", "desk-protocol"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _openblas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """HEAD's commit, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def machine_record():
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "urgentbayes", "__init__.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import urgentbayes.cli  # noqa: F401  (imports every module a user's command loads)

    import workloads
    from spans import Patches

    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    patches = Patches()
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), scratch, patches)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        patches.restore()
        shutil.rmtree(scratch, ignore_errors=True)

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    end_to_end = run.end_to_end()
    if run.tracer:
        run.compare_with_reference()
        metrics = run.tracer.per_layer()
        run.detail["end_to_end_traced"] = end_to_end
        run.tracer.write(stem + ".spans.jsonl")
    else:
        metrics = end_to_end
    correct = run.failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        **run.detail,
    }
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump({**record, "metrics": metrics}, f, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

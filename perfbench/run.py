"""Run one gridwalk benchmark workload and print its metrics as one JSON line.

From the root of a checkout:

    python3 perfbench/run.py --workload walk_sparse --seed 1 --seconds 20 --trace 0

Workloads: walk_sparse, walk_dense, physical, gate (see README.md). With
--trace 0 the last line holds the end-to-end metrics: setup_s, the median of
three set-ups, each timed from process start to the end of its warm-up, two
in processes that only set up and one in the process that then runs the
timed loop; jobs_per_s and job_p50_s of that loop; and the peak resident
memory of its process. With --trace 1 a single process runs the same loop
with every public gridwalk function wrapped, and the last line holds the
per-layer metrics; the spans go to perfbench/out/trace-<workload>-<seed>.npz.

This file imports only the standard library, so that its own start-up stays
out of what it measures. It exits with code 2, printing no result, when the
checkout has no gridwalk sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("walk_sparse", "walk_dense", "physical", "gate")
# One BLAS thread: jobs are a single client's chain of small mat-vecs, FFTs
# and 64×64 eigensolves; on two cores a second thread slowed a 64×64 eigh
# from 0.6 ms to 48 ms.
BLAS_THREADS = 1
SETUPS = 3
DEADLINE_S = 170.0

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    threads = str(BLAS_THREADS)
    return dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )


def spawn(args, index: int, extra: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from start to READY, its RESULT or None)."""
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--run-dir", str(run_dir), *extra]
    ready = result = None
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - start), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if ready is None and line.startswith(READY):
                ready = time.monotonic() - start
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    if code != 0 or ready is None or ("--setup-only" not in extra and result is None):
        raise BenchError(f"worker {' '.join(cmd[2:])} exited with code {code}")
    return ready, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gridwalk" / "__init__.py").is_file():
        print(f"no gridwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}-{args.seed}.npz"
            _, result = spawn(args, 0, ["--seconds", str(args.seconds),
                                        "--trace-file", str(trace_file)], deadline)
            metrics = result["layers"]
            if result["absent"]:
                print("absent from the program: " + ", ".join(result["absent"]))
        else:
            setups = [spawn(args, i, ["--setup-only"], deadline)[0] for i in range(SETUPS - 1)]
            ready, result = spawn(args, SETUPS - 1, ["--seconds", str(args.seconds)], deadline)
            setups.append(ready)
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "jobs_per_s": {"value": result["jobs_per_s"], "unit": "1/s"},
                "job_p50_s": {"value": result["job_p50_s"], "unit": "s"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
            }
    except BenchError as e:
        print(e, file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

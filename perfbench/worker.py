"""One benchmark process: set-up, the timed closed loop, and its result.

``run.py`` starts this file with the BLAS thread count, PYTHONPATH and a run
directory of its own. Set-up imports gridwalk from the checkout, generates
the workload's inputs from the seed and warms up; the process then prints
READY, the moment ``run.py`` takes as the end of set-up. With --setup-only it
stops there. Otherwise it runs whole rounds over the generated jobs, one job
at a time, until the jobs have taken --seconds, checks every job's output
outside the timed region, and prints one RESULT line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "

ROOT = Path(__file__).resolve().parent.parent


def run_rounds(jobs: list, seconds: float, tracer=None) -> dict:
    """Closed loop with one client: whole rounds over `jobs`, at least one, until they have taken `seconds`."""
    times: list[float] = []
    attempted = failed = wrong = 0
    elapsed = 0.0
    while attempted == 0 or elapsed < seconds:
        for job in jobs:
            span = tracer.job(attempted) if tracer else nullcontext()
            attempted += 1
            start = time.perf_counter()
            try:
                with span:
                    outcome = job.run()
            except Exception as e:  # a job that raises is a failed job, not a failed run
                outcome, problem = None, f"{type(e).__name__}: {e}"
            else:
                problem = None
            took = time.perf_counter() - start
            elapsed += took
            times.append(took)
            if problem is None:
                try:
                    problem = job.check(outcome)
                except (OSError, ValueError, KeyError, IndexError) as e:
                    problem = f"unreadable output: {type(e).__name__}: {e}"
                wrong += problem is not None
            if problem is not None:
                failed += 1
                print(f"job {attempted} failed: {problem}", file=sys.stderr)
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "jobs_per_s": (attempted - failed) / elapsed,
        "job_p50_s": statistics.median(times),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace-file", type=Path,
                        help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    import gridwalk

    if not Path(gridwalk.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"gridwalk was imported from {gridwalk.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads

    jobs = workloads.generate(args.workload, args.seed, args.run_dir / "inputs")
    workloads.warm_up(args.workload, args.seed, args.run_dir / "warm-up")
    print(READY, flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_file:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    result = run_rounds(jobs, args.seconds, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer, list(range(result["attempted"])))
        layers["trace.jobs_per_s"] = result["jobs_per_s"]
        result["layers"] = {name: {"value": layers[name], "unit": unit}
                            for name, unit, _ in tracing.LAYER_METRICS}
        result["absent"] = tracer.absent
        tracer.write(args.trace_file)
    print(RESULT + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

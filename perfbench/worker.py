"""One workload process: set up, report readiness, then solve and check.

``run.py`` starts this file in a fresh process with the BLAS thread
variables already in its environment, so they take effect before numpy
loads.  The worker prints JSON lines on stdout:

    {"event": "ready", "t": <time.monotonic() after set-up>}
    {"event": "result", ...}          (not with --setup-only)

``time.monotonic`` reads CLOCK_MONOTONIC, which on Linux is shared by all
processes, so the parent can subtract its own reading taken before the spawn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def timed_solve(workload, before_check=None) -> tuple[float, dict]:
    """Run one solve and its check; an exception is a failed solve.

    ``before_check`` runs between the two, outside the timed region."""
    t0 = time.perf_counter()
    try:
        out = workload.solve()
    except Exception as exc:  # counted as a failure, never retried
        elapsed = time.perf_counter() - t0
        traceback.print_exc()
        return elapsed, {"rel_error": None, "checks": [[f"raised {type(exc).__name__}", False]],
                         "digests": {}}
    elapsed = time.perf_counter() - t0
    if before_check is not None:
        before_check()
    outcome = workload.check(out)
    return elapsed, {"rel_error": outcome.rel_error,
                     "checks": [[name, bool(ok)] for name, ok in outcome.checks],
                     "digests": outcome.digests}


def measure(workload, seconds: float) -> dict:
    """Solve repeatedly until the solves add up to ``seconds`` (at least once)."""
    times, solves = [], []
    while not times or sum(times) < seconds:
        elapsed, result = timed_solve(workload)
        times.append(elapsed)
        solves.append(result)
    return {"solve_s": times, "solves": solves}


def measure_traced(workload, build, trace_path: Path) -> dict:
    """One untraced solve, then a traced set-up and solve on fresh inputs."""
    import tracing

    plain_s, plain = timed_solve(workload)
    del workload

    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = build(tracer.wrap_callable)
        tracer.start_run("solve")
        traced_s, traced = timed_solve(workload, before_check=tracer.restore)
    finally:
        tracer.restore()
    summary = tracer.summary()
    tracer.write(trace_path)
    top = sorted(((rec["self_s"], name) for name, rec in summary.items()), reverse=True)[:8]
    return {"solve_s": [plain_s], "traced_s": traced_s, "solves": [plain, traced],
            "layer_metrics": tracer.layer_metrics(summary, traced_s / plain_s - 1.0),
            "tail_samples": tracing.tail_samples(summary),
            "absent": tracer.absent,
            "top_self_s": [[name, s] for s, name in top]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned or "numpy" in sys.modules:
        print(f"worker: thread variables not pinned before numpy: {unpinned}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import raytrans
    import workloads

    if Path(raytrans.__file__).resolve().parent != ROOT / "src" / "raytrans":
        print(f"worker: raytrans imported from {raytrans.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    out_dir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        def build(wrap):
            return workloads.build(args.workload, args.seed, args.size, wrap=wrap,
                                   root=ROOT, out_dir=out_dir)

        workload = build(None)
        emit({"event": "ready", "t": time.monotonic()})
        if args.setup_only:
            return 0
        if args.trace:
            trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            result = measure_traced(workload, build, trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            result = measure(workload, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment()
        emit({"event": "result", **result})
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Run one raytrans benchmark workload and print its metrics.

    python3 perfbench/run.py --workload attn_grid --seed 1 --seconds 20 --trace 0

Load model: closed loop, one client, one solve at a time, in a fresh
single-threaded worker process (BLAS/OpenMP pinned to one thread before numpy
loads).  With ``--trace 0`` the run reports the end-to-end metrics: the
median solve time over solves adding up to ``--seconds``, the median set-up
time over several fresh processes, peak memory, the relative error against
the reference, and the share of correctness checks passed.  With
``--trace 1`` it reports the per-layer metrics of ``tracing.py`` from one
traced solve.  The last stdout line is the JSON result; lines before it,
starting with ``#``, carry the environment, digests and raw samples.

Exit status is 0 when a result was printed, also when checks failed (the
result says so); anything else exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("attn_grid", "scatter_mms", "csda_sweep")
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 4       # set-up-only processes, besides the measuring one
DEADLINE_S = 170.0     # the whole run, workers included


class RunFailed(Exception):
    pass


def run_worker(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Start a worker; return its set-up time and its result record."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **THREADS}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with status {proc.returncode}")
    events = {}
    for line in proc.stdout.splitlines():
        record = json.loads(line)
        events[record.pop("event")] = record
    if "ready" not in events or (not setup_only and "result" not in events):
        raise RunFailed("worker ended without reporting")
    return events["ready"]["t"] - t0, events.get("result", {})


def summarize(result: dict, setup_samples: list, trace: bool) -> dict:
    solves = result["solves"]
    failed = sum(1 for s in solves if not all(ok for _, ok in s["checks"]))
    checks = [ok for s in solves for _, ok in s["checks"]]
    if trace:
        metrics = result["layer_metrics"]
    else:
        # A solve that raised has no field; its error counts as that of a zero field.
        errors = [s["rel_error"] for s in solves if s["rel_error"] is not None] or [1.0]
        metrics = {
            "solve_s": {"value": statistics.median(result["solve_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "rel_error": {"value": statistics.median(errors), "unit": "ratio"},
            "pass_frac": {"value": sum(checks) / len(checks), "unit": "ratio"},
        }
    return {"correct": failed == 0, "attempted": len(solves), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small shrinks the problems for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "raytrans" / "__init__.py").is_file():
        print(f"run: no raytrans sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup_samples.append(run_worker(args, deadline, setup_only=True)[0])
        setup_s, result = run_worker(args, deadline, setup_only=False)
        setup_samples.append(setup_s)
    except RunFailed as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1

    print("# env: " + json.dumps(result["env"]))
    print("# digests: " + json.dumps([s["digests"] for s in result["solves"]]))
    print("# checks: " + json.dumps([s["checks"] for s in result["solves"]]))
    print("# solve_s: " + json.dumps(result["solve_s"]))
    if args.trace:
        print("# traced_s: " + json.dumps(result["traced_s"]))
        print("# top self times: " + json.dumps(result["top_self_s"]))
        print("# tail samples: " + json.dumps(result["tail_samples"]))
        print("# absent hooks: " + json.dumps(result["absent"]))
        print("# spans: " + result["trace_file"])
    else:
        print("# setup_s samples: " + json.dumps(setup_samples))
    print(json.dumps(summarize(result, setup_samples, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

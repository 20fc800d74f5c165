"""Tests of the benchmark itself, at reduced problem sizes.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "small"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_emitted_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.LAYER_METRICS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = last_json(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    result = last_json(bench(workload, 1))
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == dict(tracing.LAYER_METRICS)
    assert result["attempted"] == 2
    if workload == "attn_grid":
        assert metrics["attenuation.point_solves"]["value"] > 0
        for name in ("attenuation.sweeps", "scattering.kernel_applies",
                     "fields.kernel_points", "attenuation.ray_builds"):
            assert metrics[name]["value"] == 0
    if workload == "scatter_mms":
        assert metrics["attenuation.sweeps"]["value"] == 8 * metrics["attenuation.ray_builds"]["value"]
        assert metrics["attenuation.integrations_per_build"]["value"] == 9.0
    if workload == "csda_sweep":
        assert metrics["csda.steps"]["value"] == 16
        assert metrics["verify.suite_s"]["value"] > 0


def small(name: str):
    return workloads.build(name, 5, "small", root=ROOT, out_dir=BENCH / "out")


@pytest.mark.parametrize("name", ["attn_grid", "scatter_mms"])
def test_corrupted_result_counts_as_failed(name):
    workload = small(name)
    healthy = worker.measure(workload, 0.0)
    assert run.summarize(healthy | {"peak_rss_mb": 1.0}, [1.0], False)["correct"]

    solve = workload.solve

    def corrupted():
        result = solve()
        field = result[0] if isinstance(result, tuple) else result
        bad = field.with_values(field.values * (1.0 + 1e-3))
        return (bad,) + result[1:] if isinstance(result, tuple) else bad

    workload.solve = corrupted
    summary = run.summarize(worker.measure(workload, 0.0) | {"peak_rss_mb": 1.0}, [1.0], False)
    assert summary["failed"] == summary["attempted"] == 1
    assert not summary["correct"]
    assert summary["metrics"]["pass_frac"]["value"] < 1.0


def test_raised_solve_counts_as_failed():
    workload = small("attn_grid")

    def broken():
        raise FloatingPointError("injected")

    workload.solve = broken
    summary = run.summarize(worker.measure(workload, 0.0) | {"peak_rss_mb": 1.0}, [1.0], False)
    assert (summary["attempted"], summary["failed"]) == (1, 1)
    assert summary["metrics"]["rel_error"]["value"] == 1.0
    assert summary["metrics"]["pass_frac"]["value"] == 0.0


def test_missing_hook_is_reported_absent_and_metrics_still_emitted():
    import raytrans.scattering as sc

    tracer = tracing.Tracer()
    tracer.patch(sc, "no_such_helper", lambda fn: fn)
    tracer.patch(sc._KernelApplier, "no_such_method", lambda fn: fn)
    assert tracer.absent == ["raytrans.scattering.no_such_helper", "_KernelApplier.no_such_method"]
    metrics = tracer.layer_metrics(tracer.summary(), 0.0)
    assert [m for m in metrics] == [name for name, _ in tracing.LAYER_METRICS]


def test_self_time_excludes_children_and_restore_undoes_patches():
    import raytrans.attenuation as at

    original = at.solve_attenuation_points
    tracer = tracing.Tracer()
    tracer.patch(at, "solve_attenuation_points", lambda fn: tracer.wrap("outer", fn))
    assert at.solve_attenuation_points is not original
    tracer.restore()
    assert at.solve_attenuation_points is original

    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    summary = tracer.summary()
    total = summary["outer"]["durations"][0]
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] + summary["inner"]["self_s"] == pytest.approx(total)


def test_tail_percentile_keeps_ten_samples_above_it():
    assert tracing.tail_percentile(128) == 92
    assert tracing.tail_percentile(256) == 96
    assert tracing.tail_percentile(16) == 50
    for n in (20, 37, 128, 1000):
        q = tracing.tail_percentile(n)
        assert np.sum(np.arange(n) > np.percentile(np.arange(n), q)) >= 10


def test_run_fails_without_the_program():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("attn_grid", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_worker_refuses_unpinned_threads():
    env = {k: v for k, v in os.environ.items() if k not in run.THREADS}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload", "attn_grid",
                           "--seed", "1", "--size", "small", "--setup-only"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""

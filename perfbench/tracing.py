"""Spans around the calls into each raytrans module, for the traced run.

The tracer replaces module attributes that the solvers look up at call time
(module-level functions, class methods, and the callables the workloads and
the CLI catalog hand to the solver) with wrappers that record a span: name,
start, end, parent span and run id.  Spans stay in memory and are written
when the run ends.  An attribute that no longer exists is reported as absent
instead of failing, so the traced run survives renames of private helpers.

Metric conventions:

- ``*_s`` is the summed self time of a span name: each span's duration
  minus the time its child spans cover.  Self times never count a moment
  twice, so the largest one is the hot spot.
- ``*_ms_p50`` / ``*_ms_tail`` are inclusive durations of single calls: the
  median, and the highest whole percentile with at least ten samples above
  it (the median when there are fewer than 20 samples).
- Counts repeat exactly from run to run.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

import numpy as np

# (metric, unit) in the order the traced run prints them.
LAYER_METRICS = [
    ("geometry.escape_cache_s", "s"),
    ("geometry.escape_points", "count"),
    ("geometry.triangulate_s", "s"),
    ("fields.grid_build_s", "s"),
    ("fields.source_points", "count"),
    ("fields.source_s", "s"),
    ("fields.sigma_points", "count"),
    ("fields.sigma_s", "s"),
    ("fields.kernel_points", "count"),
    ("fields.kernel_s", "s"),
    ("fields.sup_norm_s", "s"),
    ("attenuation.point_solves", "count"),
    ("attenuation.point_solve_ms_p50", "ms"),
    ("attenuation.point_solve_ms_tail", "ms"),
    ("attenuation.ray_groups", "count"),
    ("attenuation.ray_geometry_s", "s"),
    ("attenuation.ray_builds", "count"),
    ("attenuation.ray_nodes", "count"),
    ("attenuation.ray_build_s", "s"),
    ("attenuation.ray_rebuilds", "count"),
    ("attenuation.source_integrate_s", "s"),
    ("attenuation.sweeps", "count"),
    ("attenuation.sweep_s", "s"),
    ("attenuation.sweep_ms_p50", "ms"),
    ("attenuation.sweep_ms_tail", "ms"),
    ("attenuation.integrations_per_build", "ratio"),
    ("scattering.iterations", "count"),
    ("scattering.interp_builds", "count"),
    ("scattering.interp_build_s", "s"),
    ("scattering.interp_points", "count"),
    ("scattering.interp_eval_s", "s"),
    ("scattering.kernel_applies", "count"),
    ("scattering.kernel_apply_s", "s"),
    ("scattering.threshold_s", "s"),
    ("csda.marches", "count"),
    ("csda.steps", "count"),
    ("csda.inner_iterations", "count"),
    ("csda.step_ms_p50", "ms"),
    ("csda.step_ms_tail", "ms"),
    ("csda.trace_sample_s", "s"),
    ("csda.explicit_s", "s"),
    ("norms.h_norm_calls", "count"),
    ("norms.h_norm_s", "s"),
    ("norms.boundary_s", "s"),
    ("verify.suite_s", "s"),
    ("cli.report_write_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# Metrics read straight from a span name: its call count, its self time, or
# its per-call percentiles.
_CALLS = {
    "attenuation.point_solves": "attenuation.point_solve",
    "attenuation.ray_groups": "attenuation.ray_geometry",
    "attenuation.ray_builds": "attenuation.ray_build",
    "attenuation.sweeps": "attenuation.sweep",
    "scattering.interp_builds": "scattering.interp_build",
    "scattering.kernel_applies": "scattering.kernel_apply",
    "csda.marches": "csda.march",
    "norms.h_norm_calls": "norms.h_norm",
}
_PERCENTILES = {
    "attenuation.point_solve_ms": "attenuation.point_solve",
    "attenuation.sweep_ms": "attenuation.sweep",
    "csda.step_ms": "csda.step",
}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples above it
    (50 when there are fewer than 20 samples)."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 50


def tail_samples(summary: dict) -> dict:
    """Sample count and tail percentile behind each ``*_ms_tail`` metric."""
    out = {}
    for base, span in _PERCENTILES.items():
        n = summary[span]["calls"] if span in summary else 0
        out[f"{base}_tail"] = {"samples": n, "percentile": tail_percentile(n)}
    return out


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, run id]
        self.counts = Counter()
        self.absent = []
        self.run = "setup"
        self._stack = []
        self._undo = []
        self._built = set()
        self._keep = []

    def start_run(self, run: str) -> None:
        """Begin a new run id; ray rebuilds are counted within one run."""
        self.run = run
        self._built.clear()
        self._keep.clear()

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, post: Optional[Callable] = None,
             points: Optional[str] = None) -> Callable:
        """``fn`` inside a span called ``name``.

        ``points`` names a counter that gets the row count of the first
        argument; ``post(args, kwargs, result)`` sees each result and
        returns what the caller gets.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if points is not None:
                self.counts[points] += len(np.atleast_2d(args[0]))
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            return result if post is None else post(args, kwargs, result)

        return traced

    def wrap_callable(self, kind: str, fn: Callable) -> Callable:
        """A coefficient or source callable as a ``fields.<kind>`` span."""
        return self.wrap(f"fields.{kind}", fn, points=f"fields.{kind}_points")

    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until ``restore``."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- hooks on results ----------------------------------------------------

    def _count_ray_build(self, args, kwargs, result):
        ray_sys = args[0]
        coeffs = args[1] if len(args) > 1 else kwargs["coeffs"]
        xs = args[3] if len(args) > 3 else kwargs["xs"]
        self.counts["attenuation.ray_nodes"] += ray_sys.n_nodes
        key = (id(coeffs), id(xs), ray_sys.omega.tobytes(), ray_sys.E)
        if key in self._built:
            self.counts["attenuation.ray_rebuilds"] += 1
        self._built.add(key)
        self._keep.append((coeffs, xs))  # ids stay unique within the run
        return result

    def _count_iterations(self, args, kwargs, result):
        self.counts["scattering.iterations"] += result[1].iterations
        return result

    def _count_march(self, args, kwargs, result):
        self.counts["csda.steps"] += result[1].steps
        self.counts["csda.inner_iterations"] += result[1].inner_iterations
        return result

    def _wrap_interp(self, args, kwargs, result):
        return self.wrap("scattering.interp_eval", result, points="scattering.interp_points")

    def _wrap_built(self, kind: str, builder: Callable) -> Callable:
        def build(*args, **kwargs):
            return self.wrap_callable(kind, builder(*args, **kwargs))
        return build

    def _count_points(self, counter: str, fn: Callable) -> Callable:
        def counted(domain, xs, *args, **kwargs):
            self.counts[counter] += len(np.atleast_2d(xs))
            return fn(domain, xs, *args, **kwargs)
        return counted

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every traced attribute of the raytrans modules."""
        from raytrans import attenuation, cli, csda, fields, geometry, norms, scattering, verify

        def span(name, post=None):
            return lambda fn: self.wrap(name, fn, post)

        for mod in (geometry, fields, attenuation, scattering, csda, norms, verify):
            self.patch(mod, "escape_times",
                       lambda fn: self._count_points("geometry.escape_points", fn))
        for mod in (geometry, csda, cli, norms):
            self.patch(mod, "triangulate_boundary", span("geometry.triangulate"))
        self.patch(fields.GridSpec, "escape_cache", span("geometry.escape_cache"))

        self.patch(fields.GridSpec, "__init__", span("fields.grid_build"))
        for mod in (fields, attenuation, scattering, verify):
            self.patch(mod, "sup_norm_estimate", span("fields.sup_norm"))
        for builder, kind in (("build_source", "source"), ("build_sigma", "sigma"),
                              ("build_scatter", "kernel")):
            self.patch(cli, builder, lambda fn, kind=kind: self._wrap_built(kind, fn))

        self.patch(attenuation, "solve_attenuation_points", span("attenuation.point_solve"))
        self.patch(attenuation, "_ray_geometry", span("attenuation.ray_geometry"))
        self.patch(attenuation.RaySystem, "__init__",
                   span("attenuation.ray_build", self._count_ray_build))
        self.patch(attenuation.RaySystem, "integrate_callable", span("attenuation.source_integrate"))
        self.patch(attenuation.RaySystem, "integrate_interp", span("attenuation.sweep"))

        self.patch(scattering, "solve_scattering", span("scattering.solve", self._count_iterations))
        self.patch(scattering, "_grid_interp_factory",
                   span("scattering.interp_build", self._wrap_interp))
        self.patch(scattering._KernelApplier, "apply_slice", span("scattering.kernel_apply"))
        for attr in ("solvability_threshold", "scatter_norm_bound"):
            self.patch(scattering, attr, span("scattering.threshold"))

        self.patch(csda, "march_energy", span("csda.march", self._count_march))
        self.patch(csda, "solve_scattering", span("csda.step", self._count_iterations))
        self.patch(csda, "solve_attenuation_points", span("csda.trace_sample"))
        for attr in ("explicit_csda_grid", "explicit_csda_points"):
            self.patch(csda, attr, span("csda.explicit"))

        self.patch(norms, "h_norm", span("norms.h_norm"))
        for attr in ("boundary_h_norm", "green_residual", "trace_from_callable",
                     "trace_from_grid_field", "trace_norm"):
            self.patch(norms, attr, span("norms.boundary"))

        for mod in (verify, cli):
            self.patch(mod, "run_suite", span("verify.suite"))

        self.patch(cli.RunReport, "to_json", span("cli.report_write"))
        self.patch(cli, "write_field_csv", span("cli.report_write"))

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, summed self time, and sorted call durations."""
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans]) if n else np.zeros(0)
        child = np.zeros(n)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
        for i, s in enumerate(self.spans):
            rec = out[s[0]]
            rec["calls"] += 1
            rec["self_s"] += float(dur[i] - child[i])
            rec["durations"].append(float(dur[i]))
        for rec in out.values():
            rec["durations"].sort()
        return dict(out)

    def layer_metrics(self, summary: dict, overhead_frac: float) -> dict:
        """Every per-layer metric, zero for layers the run did not enter."""

        def rec(name):
            return summary.get(name, {"calls": 0, "self_s": 0.0, "durations": []})

        values = {}
        for metric, unit in LAYER_METRICS:
            if metric == "trace.overhead_frac":
                v = overhead_frac
            elif metric == "attenuation.integrations_per_build":
                builds = rec("attenuation.ray_build")["calls"]
                uses = rec("attenuation.source_integrate")["calls"] + rec("attenuation.sweep")["calls"]
                v = uses / builds if builds else 0.0
            elif metric in _CALLS:
                v = rec(_CALLS[metric])["calls"]
            elif metric.endswith(("_ms_p50", "_ms_tail")):
                base, which = metric.rsplit("_", 1)
                d = rec(_PERCENTILES[base])["durations"]
                q = 50 if which == "p50" else tail_percentile(len(d))
                v = 1e3 * float(np.percentile(d, q)) if d else 0.0
            elif unit == "s":
                v = rec(metric[:-2])["self_s"]
            else:
                v = self.counts[metric]
            values[metric] = {"value": v, "unit": unit}
        return values

    def write(self, path) -> None:
        """Write the spans as JSON lines, after one line listing absent hooks."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"absent": self.absent, "counts": dict(self.counts)}) + "\n")
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")

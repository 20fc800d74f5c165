"""Scenario runner: parse a JSON configuration, execute a solver or
verification pipeline, and emit a machine-readable report plus field slices.

Commands:
    raytrans run <config.json> [--out DIR] [--seed N]
    raytrans verify <suite>    [--out DIR] [--seed N]

Environment overrides mirror the flags with the RAYTRANS_ prefix
(RAYTRANS_OUT, RAYTRANS_SEED); explicit flags win.
Exit status is zero iff every selected property passes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import attenuation as at
from . import csda
from . import norms as nm
from . import scattering as sc
from .catalog import _flag, _get, _number, _object, _text, _triple, build_boundary, build_scatter, build_sigma, build_source, build_stopping
from .errors import ConfigError, RayTransError
from .fields import CoefficientSet, DiscreteField, EnergyInterval, GridSpec
from .geometry import ConvexDomain, triangulate_boundary
from .verify import SUITES, PropertyResult, run_suite

SCHEMA_VERSION = 1
ENV_PREFIX = "RAYTRANS_"
PROBLEM_KINDS = ("attenuation", "scattering", "scattering_with_inflow", "csda", "explicit_csda")


@dataclass
class RunReport:
    """Self-contained record of one scenario or verification run."""

    command: str
    scenario: dict
    seed: int
    grid_meta: dict = field(default_factory=dict)
    norms: dict = field(default_factory=dict)
    residuals: list = field(default_factory=list)
    iteration: dict = field(default_factory=dict)
    properties: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(p["pass"] for p in self.properties)

    def to_dict(self, include_timings: bool = True) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "scenario": self.scenario,
            "seed": self.seed,
            "grid": self.grid_meta,
            "norms": self.norms,
            "residuals": self.residuals,
            "iteration": self.iteration,
            "properties": self.properties,
        }
        if include_timings:
            out["timings"] = self.timings
        return out

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_dict(include_timings), sort_keys=True, indent=2)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration does not parse as JSON: {exc}")


def build_domain(block: dict) -> ConvexDomain:
    kind = _get(block, "kind", "domain")
    if kind == "unit_ball":
        return ConvexDomain.unit_ball()
    if kind == "ball":
        radius = _number(block, "radius", "domain", valid=lambda r: r > 0.0, what="positive and finite")
        return ConvexDomain.ball(_number(block, "center", "domain", _triple, (0, 0, 0)), radius)
    if kind == "ellipsoid":
        axes = _number(block, "semi_axes", "domain", _triple, valid=lambda a: np.all(a > 0.0),
                       what="3 positive finite numbers")
        return ConvexDomain.ellipsoid(_number(block, "center", "domain", _triple, (0, 0, 0)), axes)
    raise ConfigError(f"unknown domain kind '{kind}'")


def build_grid(block: dict, domain: ConvexDomain) -> GridSpec:
    E0, Em = _number(block, "E0", "grid", default=0.0), _number(block, "Em", "grid", default=1.0)
    try:
        interval = EnergyInterval(E0, Em)
    except ValueError:
        raise ConfigError(f"'E0' and 'Em' in grid block must satisfy 0 <= E0 < Em, "
                          f"got E0={E0!r}, Em={Em!r}") from None
    count = lambda key, default: _number(block, key, "grid", int, default, lambda n: n >= 1, "an integer >= 1")
    n_spatial = _number(block, "n_spatial", "grid", int, valid=lambda n: n >= 3, what="an integer >= 3")
    return GridSpec(domain, n_spatial, count("n_polar", 4), count("n_azimuth", 8), interval, count("n_energy", 1))


def build_coefficients(block: dict, grid: GridSpec) -> CoefficientSet:
    sigma = build_sigma(_get(block, "sigma", "coefficients"))
    scatter = None
    if block.get("scatter") is not None:
        scatter = build_scatter(block["scatter"])
    stopping, kappa = (None, 0.0)
    if block.get("stopping") is not None:
        stopping, kappa = build_stopping(block["stopping"])
    shift_spec = block.get("shift", 0.0)
    partial = CoefficientSet(sigma_t=sigma, scatter=scatter, stopping=stopping, kappa=kappa)
    if shift_spec == "auto":
        shift = sc.solvability_threshold(partial, grid) + 1.0
    else:
        shift = _number(block, "shift", "coefficients", default=0.0)
    return CoefficientSet(sigma_t=sigma, scatter=scatter, stopping=stopping,
                          kappa=kappa, shift=shift)


def _quadrature(problem: dict) -> at.RayQuadrature:
    q = problem.get("quadrature", {})
    panels = _number(q, "panels_per_unit_length", "quadrature", int, 16)
    nodes = _number(q, "nodes_per_panel", "quadrature", int, 4)
    try:
        return at.RayQuadrature(panels, nodes)
    except ValueError:
        raise ConfigError("quadrature block needs 'panels_per_unit_length' >= 1 and "
                          f"'nodes_per_panel' >= 2, got {panels} and {nodes}") from None


def _field_norms(fld: DiscreteField) -> dict:
    return {
        "l2": nm.h_norm(fld, 0),
        "h1": nm.h_norm(fld, 1),
        "sup": fld.sup(),
    }


def _grid_meta(grid: GridSpec) -> dict:
    return {
        "h": list(map(float, grid.h)),
        "n_interior": int(grid.n_interior),
        "n_polar": int(grid.n_polar),
        "n_azimuth": int(grid.n_azimuth),
        "n_energy": int(grid.n_energy),
        "E0": float(grid.interval.E0),
        "Em": float(grid.interval.Em),
    }


def _run_attenuation(cfg: dict, grid: GridSpec, coeffs: CoefficientSet, report: RunReport) -> DiscreteField:
    problem = cfg["problem"]
    quad = _quadrature(problem)
    f = build_source(_get(problem, "source", "problem"))
    fld = at.solve_attenuation_grid(f, coeffs, grid, quad)
    report.norms = _field_norms(fld)
    worst = csda.inflow_trace_sup(f, coeffs, grid, quad, triangulate_boundary(grid.domain, 2),
                                  float(grid.energy_nodes[0]))
    report.properties.append(PropertyResult("inflow_trace_zero", worst < 1e-12, worst, 1e-12).as_dict())

    src_block = problem["source"]
    sig_block = cfg["coefficients"]["sigma"]
    if src_block.get("name") == "constant" and sig_block.get("name") == "constant":
        sig_total = float(sig_block["value"]) + coeffs.shift
        t = grid.escape_cache()
        if sig_total > 0:
            ref = float(src_block["value"]) * (1.0 - np.exp(-sig_total * t)) / sig_total
        else:
            ref = float(src_block["value"]) * t
        worst = float(np.max(np.abs(fld.values - ref[:, :, None])))
        report.properties.append(PropertyResult("closed_form_agreement", worst < 1e-8, worst, 1e-8).as_dict())
    if src_block.get("name") in ("constant", "radial_bump") and float(
            src_block.get("value", src_block.get("amplitude", 0.0))) >= 0.0:
        low = float(np.min(fld.values))
        report.properties.append(PropertyResult("nonnegative_solution", low >= -1e-12, low, 0.0).as_dict())
    return fld


def _run_scattering(cfg: dict, grid: GridSpec, coeffs: CoefficientSet, report: RunReport,
                    with_inflow: bool) -> DiscreteField:
    problem = cfg["problem"]
    quad = _quadrature(problem)
    f = build_source(_get(problem, "source", "problem"))
    tol = _number(problem, "tol", "problem", default=1e-8, valid=lambda v: v > 0.0, what="positive and finite")
    max_iter = _number(problem, "max_iter", "problem", int, 200, lambda n: n >= 1, "an integer >= 1")
    if with_inflow:
        g = build_boundary(_get(problem, "boundary", "problem"), grid.interval.Em)
        fld, rep = sc.solve_with_inflow(f, g, coeffs, grid, quad, tol=tol, max_iter=max_iter,
                                        lam=_number(problem, "lambda", "problem", default=0.0))
    else:
        fld, rep = sc.solve_scattering(f, coeffs, grid, quad, tol=tol, max_iter=max_iter)
    report.norms = _field_norms(fld)
    report.residuals = [float(r) for r in rep.residual_history]
    report.iteration = {
        "iterations": rep.iterations,
        "converged": rep.converged,
        "estimated_rate": None if np.isnan(rep.estimated_rate) else float(rep.estimated_rate),
    }
    report.timings["sweep_cache"] = rep.cache
    report.properties.append(PropertyResult("iteration_converged", rep.converged,
                                            rep.residual_history[-1], tol).as_dict())
    if coeffs.scatter is not None and not np.isnan(rep.estimated_rate):
        report.properties.append(PropertyResult("rate_below_bound", rep.estimated_rate <= rep.rate_bound,
                                                rep.estimated_rate, rep.rate_bound).as_dict())
    if with_inflow:
        tr = nm.trace_from_grid_field(fld, None)
        worst = 0.0
        for j in range(grid.n_omega):
            sel = tr.dots[:, j] < -0.3
            if not np.any(sel):
                continue
            expect = np.asarray(g(tr.mesh.points[sel], grid.sphere_nodes[j],
                                  float(grid.energy_nodes[0])), dtype=float)
            worst = max(worst, float(np.max(np.abs(tr.values[sel, j, 0] - expect))))
        htol = 2.0 * float(np.mean(grid.h))
        report.properties.append(PropertyResult("inflow_trace_matches_data", worst < htol,
                                                worst, htol).as_dict())
    return fld


def _run_csda(cfg: dict, grid: GridSpec, coeffs: CoefficientSet, report: RunReport,
              snapshot_dir: Optional[str]) -> DiscreteField:
    """The configured march; its snapshots go to ``snapshot_dir`` if not None."""
    problem = cfg["problem"]
    quad = _quadrature(problem)
    f = build_source(_get(problem, "source", "problem"))
    dE = None
    if problem.get("dE") is not None:
        dE = _number(problem, "dE", "problem", valid=lambda v: v > 0.0, what="positive and finite")
    tol = _number(problem, "tol", "problem", default=1e-10, valid=lambda v: v > 0.0, what="positive and finite")
    sig_block = cfg["coefficients"]["sigma"]
    halving_sweep = _flag(problem, "halving_sweep", "problem", False)
    if halving_sweep:
        stop_block = cfg["coefficients"].get("stopping") or {}
        if not (sig_block.get("name") == "constant"
                and coeffs.scatter is None
                and stop_block.get("name") == "constant"
                and float(stop_block.get("value", 0.0)) == -1.0
                and coeffs.shift == 0.0):
            raise ConfigError("halving_sweep needs constant sigma, stopping -1, no scatter, shift 0")
    snapshots = []
    snapshot_cb = None
    if snapshot_dir is not None:
        snapshot_cb = lambda state: snapshots.append(
            {"E_prime": float(state.E_current), "step": float(state.step),
             "sup": float(np.max(np.abs(state.phi)))})
    phi, rep = csda.march_energy(f, coeffs, grid, quad, dE=dE, tol=tol,
                                 snapshot_cb=snapshot_cb)
    fld = csda.transform_from_march(phi, grid, coeffs.shift)
    if snapshots:
        snap_dir = Path(snapshot_dir)
        snap_dir.mkdir(parents=True, exist_ok=True)
        with open(snap_dir / "march_snapshots.jsonl", "w") as fh:
            for rec in snapshots:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    report.norms = _field_norms(fld)
    report.iteration = {"steps": rep.steps, "inner_iterations": rep.inner_iterations}
    report.timings["sweep_cache"] = rep.cache
    report.timings["step_iterations"] = rep.step_iterations
    report.timings["step_residuals"] = rep.step_residuals
    report.properties.append(PropertyResult("cutoff_energy_trace", rep.final_slice_sup < 1e-12,
                                            rep.final_slice_sup, 1e-12).as_dict())
    report.properties.append(PropertyResult("inflow_trace", rep.inflow_trace_sup < 1e-10,
                                            rep.inflow_trace_sup, 1e-10).as_dict())

    if halving_sweep:
        base_dE = dE if dE is not None else grid.interval.length / 8.0
        ref = csda.explicit_csda_grid(f, float(sig_block["value"]), grid, quad)
        nref = nm.h_norm(ref, 0)
        errs, iterations, residuals, counts = [], [], [], Counter(rep.cache)
        for step in (base_dE, base_dE / 2.0):
            # the march above already solved the configured step
            sol, step_rep = fld, rep
            if step != dE:
                sol, step_rep = csda.solve_csda(f, coeffs, grid, quad, dE=step, tol=tol)
                counts.update(step_rep.cache)
            iterations.append(step_rep.step_iterations)
            residuals.append(step_rep.step_residuals)
            err = nm.h_norm(sol.with_values(sol.values - ref.values), 0) / nref
            errs.append({"dE": float(step), "l2_rel_error": float(err)})
        report.norms["halving_sweep"] = errs
        report.timings["sweep_cache"] = dict(counts)
        report.timings["halving_step_iterations"] = iterations
        report.timings["halving_step_residuals"] = residuals
        ratio = errs[1]["l2_rel_error"] / errs[0]["l2_rel_error"]
        report.properties.append(PropertyResult("halving_error_ratio", 0.4 <= ratio <= 0.6,
                                                ratio, 0.6).as_dict())
    return fld


def _run_explicit_csda(cfg: dict, grid: GridSpec, coeffs: CoefficientSet,
                       report: RunReport) -> DiscreteField:
    problem = cfg["problem"]
    sig_block = cfg["coefficients"]["sigma"]
    if sig_block.get("name") != "constant":
        raise ConfigError("explicit_csda needs a constant sigma")
    quad = _quadrature(problem)
    f = build_source(_get(problem, "source", "problem"))
    fld = csda.explicit_csda_grid(f, float(sig_block["value"]), grid, quad)
    report.norms = _field_norms(fld)
    worst = float(np.max(np.abs(fld.values[:, :, -1])))
    report.properties.append(PropertyResult("cutoff_energy_trace", worst < 1e-12, worst, 1e-12).as_dict())
    return fld


def write_field_csv(fld: DiscreteField, path: Path) -> None:
    grid = fld.grid
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "omega_index", "E", "value"])
        for j in range(grid.n_omega):
            for k in range(grid.n_energy):
                E = float(grid.energy_nodes[k])
                for i in range(grid.n_interior):
                    x, y, z = grid.coords[i]
                    writer.writerow([f"{x:.12g}", f"{y:.12g}", f"{z:.12g}",
                                     j, f"{E:.12g}", f"{fld.values[i, j, k]:.17g}"])


def run_scenario(config, out_dir: Optional[str] = None, seed: int = 0) -> RunReport:
    """Execute one configured pipeline and assemble its report."""
    cfg = load_config(config) if not isinstance(config, dict) else config
    for key in ("domain", "grid", "coefficients", "problem"):
        _get(cfg, key, "top-level")
    out_block, suites = _object(cfg.get("output", {}), "output"), cfg.get("verification", [])
    configured_dir = _text(out_block, "dir", "output")
    target = out_dir if out_dir is not None else configured_dir
    write_fields = _flag(out_block, "write_fields", "output", True)
    write_snapshots = _flag(out_block, "write_snapshots", "output", False)
    if not isinstance(suites, list) or not all(isinstance(s, str) for s in suites):
        raise ConfigError(f"verification block must be a list of suite names, got {suites!r}")
    kind = _get(cfg["problem"], "kind", "problem")
    if kind not in PROBLEM_KINDS:
        raise ConfigError(f"unknown problem kind '{kind}' (choose from {', '.join(PROBLEM_KINDS)})")

    t0 = time.perf_counter()
    domain = build_domain(cfg["domain"])
    grid = build_grid(cfg["grid"], domain)
    coeffs = build_coefficients(cfg["coefficients"], grid)
    report = RunReport(command=f"run:{kind}", scenario=cfg, seed=seed,
                       grid_meta=_grid_meta(grid))
    t_setup = time.perf_counter() - t0

    t0 = time.perf_counter()
    if kind == "attenuation":
        fld = _run_attenuation(cfg, grid, coeffs, report)
    elif kind == "scattering":
        fld = _run_scattering(cfg, grid, coeffs, report, with_inflow=False)
    elif kind == "scattering_with_inflow":
        fld = _run_scattering(cfg, grid, coeffs, report, with_inflow=True)
    elif kind == "csda":
        fld = _run_csda(cfg, grid, coeffs, report, target if write_snapshots else None)
    else:
        fld = _run_explicit_csda(cfg, grid, coeffs, report)
    t_solve = time.perf_counter() - t0

    for suite in suites:
        for r in run_suite(suite, seed):
            report.properties.append(r.as_dict())

    report.timings.update(setup_s=t_setup, solve_s=t_solve)
    if target is not None:
        outp = Path(target)
        outp.mkdir(parents=True, exist_ok=True)
        (outp / "report.json").write_text(report.to_json())
        if write_fields:
            write_field_csv(fld, outp / "field.csv")
    return report


def run_verification_suite(suite: str, seed: int = 0, out_dir: Optional[str] = None) -> RunReport:
    """Run a named invariant suite and wrap it in a report."""
    results = run_suite(suite, seed)
    report = RunReport(command=f"verify:{suite}", scenario={"suite": suite}, seed=seed)
    report.properties = [r.as_dict() for r in results]
    if out_dir is not None:
        outp = Path(out_dir)
        outp.mkdir(parents=True, exist_ok=True)
        (outp / "report.json").write_text(report.to_json())
    return report


def _env_seed() -> int:
    """``RAYTRANS_SEED`` (0 if unset) read as a JSON number and checked by
    ``_number`` like a config value."""
    name = ENV_PREFIX + "SEED"
    raw = os.environ.get(name, "0")
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    return _number({name: value}, name, "environment", int)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="raytrans",
                                     description="transport scenario runner and verifier")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="execute a scenario configuration")
    p_run.add_argument("config", help="path to the JSON scenario file")
    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=SUITES)
    for p in (p_run, p_ver):
        p.add_argument("--out", default=os.environ.get(ENV_PREFIX + "OUT"), help="output directory")
        p.add_argument("--seed", type=int)
    args = parser.parse_args(argv)

    try:
        seed = args.seed if args.seed is not None else _env_seed()
        if args.cmd == "run":
            report = run_scenario(args.config, out_dir=args.out, seed=seed)
        else:
            report = run_verification_suite(args.suite, seed=seed, out_dir=args.out)
    except RayTransError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        # exit status: 1 a property failed, 2 a config error, 3 a solver error
        return 2 if isinstance(exc, ConfigError) else 3

    for p in report.properties:
        status = "PASS" if p["pass"] else "FAIL"
        print(f"{status} {p['name']}: value={p['value']:.6g} tolerance={p['tolerance']:.6g}")
    if args.out:
        print(f"report written to {Path(args.out) / 'report.json'}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())

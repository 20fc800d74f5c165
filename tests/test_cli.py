import json

import numpy as np
import pytest

from raytrans import cli, csda
from raytrans import norms as nm
from raytrans import scattering as sc
from raytrans.errors import ConfigError
from raytrans.fields import leibniz_constant, sup_norm_estimate


def attenuation_config(tmp_path, sigma=0.0, value=1.0):
    return {
        "domain": {"kind": "unit_ball"},
        "grid": {"n_spatial": 9, "n_polar": 2, "n_azimuth": 4, "n_energy": 1, "E0": 0.0, "Em": 1.0},
        "coefficients": {"sigma": {"name": "constant", "value": sigma}, "shift": 0.0},
        "problem": {"kind": "attenuation", "source": {"name": "constant", "value": value},
                    "quadrature": {"panels_per_unit_length": 12, "nodes_per_panel": 4}},
        "output": {"dir": str(tmp_path / "out"), "write_fields": True},
    }


class TestRunScenario:
    def test_attenuation_closed_form_property(self, tmp_path):
        report = cli.run_scenario(attenuation_config(tmp_path))
        names = {p["name"]: p for p in report.properties}
        assert names["closed_form_agreement"]["pass"]
        assert names["inflow_trace_zero"]["pass"]
        assert report.all_passed

    def test_field_csv_written_and_matches_exit_times(self, tmp_path):
        cfg = attenuation_config(tmp_path)
        report = cli.run_scenario(cfg)
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        rows = (out / "field.csv").read_text().strip().splitlines()
        assert rows[0] == "x,y,z,omega_index,E,value"
        # sigma = 0, f = 1: the solution is the exit time field
        from raytrans.geometry import ConvexDomain, escape_times

        ball = ConvexDomain.unit_ball()
        first = rows[1].split(",")
        x = np.array([float(first[0]), float(first[1]), float(first[2])])
        from raytrans.fields import EnergyInterval, GridSpec

        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
        omega = grid.sphere_nodes[int(first[3])]
        assert float(first[5]) == pytest.approx(
            float(escape_times(ball, x.reshape(1, 3), omega)[0]), abs=1e-10)

    def test_shift_too_small_is_reported(self, tmp_path):
        cfg = attenuation_config(tmp_path)
        cfg["coefficients"]["scatter"] = {"name": "isotropic", "sigma_s": 0.5}
        cfg["coefficients"]["sigma"] = {"name": "constant", "value": 0.3}
        cfg["coefficients"]["shift"] = 0.7
        cfg["problem"]["kind"] = "scattering"
        rc = cli.main(["run", str(write_cfg(tmp_path, cfg))])
        assert rc == 3

    def test_scattering_with_auto_shift(self, tmp_path):
        cfg = attenuation_config(tmp_path)
        cfg["coefficients"]["scatter"] = {"name": "isotropic_bump", "sigma_s": 0.4, "radius": 0.5}
        cfg["coefficients"]["shift"] = "auto"
        cfg["problem"]["kind"] = "scattering"
        cfg["problem"]["source"] = {"name": "radial_bump", "amplitude": 1.0, "radius": 0.5}
        report = cli.run_scenario(cfg)
        assert report.iteration["converged"]
        assert report.all_passed
        # one sweep operator per (direction, energy), counted outside the body
        counts = report.timings["sweep_cache"]
        assert counts["operators_built"] == 8
        assert counts["sweeps_rebuilt"] == 0
        assert counts["operator_entries"] > 0
        assert counts["ray_nodes"] > 0
        assert counts["operators_reused"] == counts["ray_weights_reused"] == 0
        assert counts.keys() == sc._cache_counts().keys()
        assert counts["kernel_columns"] == 8
        body = report.to_json(include_timings=False)
        for key in ("sweep_cache", "operator_entries", "ray_nodes", "operators_reused",
                    "ray_weights_reused", "sweeps_rebuilt", "kernel_columns"):
            assert key not in body

    def test_rate_cap_takes_the_threshold_of_the_solve(self, tmp_path, monkeypatch):
        cfg = attenuation_config(tmp_path)
        cfg["coefficients"]["scatter"] = {"name": "isotropic_bump", "sigma_s": 0.4, "radius": 0.5}
        cfg["coefficients"]["shift"] = 1.0
        cfg["problem"]["kind"] = "scattering"
        cfg["problem"]["source"] = {"name": "radial_bump", "amplitude": 1.0, "radius": 0.5}
        calls = []
        build = cli.build_scatter

        def counted(block):
            kernel = build(block)
            return lambda *args: calls.append(1) or kernel(*args)

        monkeypatch.setattr(cli, "build_scatter", counted)
        report = cli.run_scenario(cfg)
        grid = cli.build_grid(cfg["grid"], cli.build_domain(cfg["domain"]))
        # each kernel column evaluated once, for the threshold and the sweeps
        assert len(calls) == grid.n_omega ** 2 * grid.n_energy
        coeffs = cli.build_coefficients(cfg["coefficients"], grid)
        bound = sc.scatter_norm_bound(coeffs.scatter, grid)
        c_prime = leibniz_constant(0) * sup_norm_estimate(coeffs.sigma_t, 0, grid)
        cap = {p["name"]: p for p in report.properties}["rate_below_bound"]
        assert cap["pass"]
        assert cap["tolerance"] == bound / max(coeffs.shift - c_prime, 1e-300) + 0.05

    def test_csda_halving_sweep(self, tmp_path):
        cfg = {
            "domain": {"kind": "unit_ball"},
            "grid": {"n_spatial": 21, "n_polar": 2, "n_azimuth": 4, "n_energy": 3,
                     "E0": 0.0, "Em": 0.3},
            "coefficients": {
                "sigma": {"name": "constant", "value": 0.6},
                "stopping": {"name": "constant", "value": -1.0},
                "shift": 0.0,
            },
            "problem": {"kind": "csda", "dE": 0.075, "halving_sweep": True,
                        "source": {"name": "bump_cos_energy", "amplitude": 1.0,
                                   "radius": 0.45, "freq": 3.0},
                        "quadrature": {"panels_per_unit_length": 12, "nodes_per_panel": 4}},
        }
        report = cli.run_scenario(cfg)
        sweep = report.norms["halving_sweep"]
        assert len(sweep) == 2
        ratio = sweep[1]["l2_rel_error"] / sweep[0]["l2_rel_error"]
        assert 0.4 <= ratio <= 0.6
        names = {p["name"]: p for p in report.properties}
        assert names["cutoff_energy_trace"]["pass"]
        assert names["inflow_trace"]["pass"]
        # the run's march and the sweep's march at dE/2: weights and one
        # lattice-source operator built once per direction and march (the
        # first step's source is zero) and applied at every later step,
        # per-step iterations and residuals in timings
        counts = report.timings["sweep_cache"]
        steps = report.iteration["steps"]
        all_steps = steps + 2 * steps
        assert counts["ray_weights_reused"] == 8 * (all_steps - 2)
        assert counts["operators_built"] == 8 * 2
        assert counts["operators_reused"] == 8 * (all_steps - 2 * 2)
        assert len(report.timings["step_iterations"]) == steps
        assert sum(report.timings["step_iterations"]) == report.iteration["inner_iterations"]
        halving = report.timings["halving_step_iterations"]
        assert halving[0] == report.timings["step_iterations"]
        assert len(halving[1]) == 2 * steps and min(halving[1]) > 0
        residuals = report.timings["halving_step_residuals"]
        assert residuals[0] == report.timings["step_residuals"]
        for iterations, histories in zip(halving, residuals):
            assert [len(h) for h in histories] == iterations
        body = report.to_json(include_timings=False)
        for key in ("step_iterations", "step_residuals", "ray_weights_reused", "operators_built",
                    "operators_reused"):
            assert key not in body

    def test_halving_sweep_reuses_the_configured_step(self, monkeypatch):
        cfg = {
            "domain": {"kind": "unit_ball"},
            "grid": {"n_spatial": 11, "n_polar": 2, "n_azimuth": 4, "n_energy": 3,
                     "E0": 0.0, "Em": 0.3},
            "coefficients": {
                "sigma": {"name": "constant", "value": 0.6},
                "stopping": {"name": "constant", "value": -1.0},
                "shift": 0.0,
            },
            "problem": {"kind": "csda", "dE": 0.075, "halving_sweep": True,
                        "source": {"name": "bump_cos_energy", "amplitude": 1.0,
                                   "radius": 0.45, "freq": 3.0},
                        "quadrature": {"panels_per_unit_length": 12, "nodes_per_panel": 4}},
        }
        march = csda.march_energy
        steps = []
        monkeypatch.setattr(csda, "march_energy",
                            lambda *a, **kw: steps.append(kw["dE"]) or march(*a, **kw))
        report = cli.run_scenario(cfg)
        # the run's own march at dE, then only the halved step
        assert steps == [0.075, 0.0375]

        # the base-step entry is what a separate march at dE gives
        grid = cli.build_grid(cfg["grid"], cli.build_domain(cfg["domain"]))
        coeffs = cli.build_coefficients(cfg["coefficients"], grid)
        quad = cli._quadrature(cfg["problem"])
        f = cli.build_source(cfg["problem"]["source"])
        ref = csda.explicit_csda_grid(f, 0.6, grid, quad)
        sol, _ = csda.solve_csda(f, coeffs, grid, quad, dE=0.075, tol=1e-10)
        err = nm.h_norm(sol.with_values(sol.values - ref.values), 0) \
            / nm.h_norm(ref, 0)
        assert report.norms["halving_sweep"][0] == {"dE": 0.075, "l2_rel_error": float(err)}

    def test_scattering_with_inflow_kind(self, tmp_path):
        cfg = {
            "domain": {"kind": "unit_ball"},
            "grid": {"n_spatial": 11, "n_polar": 4, "n_azimuth": 8, "n_energy": 1,
                     "E0": 0.0, "Em": 1.0},
            "coefficients": {"sigma": {"name": "constant", "value": 0.5}, "shift": 1.0},
            "problem": {"kind": "scattering_with_inflow",
                        "source": {"name": "radial_bump", "amplitude": 1.0, "radius": 0.5},
                        "boundary": {"name": "axis_affine", "a0": 1.0,
                                     "gradient": [0.0, 0.0, 0.5]},
                        "tol": 1e-10},
        }
        report = cli.run_scenario(cfg)
        names = {p["name"]: p for p in report.properties}
        assert names["iteration_converged"]["pass"]
        assert names["inflow_trace_matches_data"]["pass"]

    def test_csda_snapshots_written(self, tmp_path):
        cfg = {
            "domain": {"kind": "unit_ball"},
            "grid": {"n_spatial": 9, "n_polar": 2, "n_azimuth": 4, "n_energy": 3,
                     "E0": 0.0, "Em": 0.3},
            "coefficients": {
                "sigma": {"name": "constant", "value": 0.6},
                "stopping": {"name": "constant", "value": -1.0},
                "shift": 0.0,
            },
            "problem": {"kind": "csda", "dE": 0.075,
                        "source": {"name": "radial_bump", "amplitude": 1.0, "radius": 0.4}},
            "output": {"dir": str(tmp_path / "snap"), "write_fields": False,
                       "write_snapshots": True},
        }
        cli.run_scenario(cfg)
        lines = (tmp_path / "snap" / "march_snapshots.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4
        rec = json.loads(lines[0])
        assert set(rec) == {"E_prime", "step", "sup"}

    def test_csda_snapshots_go_next_to_the_report(self, tmp_path):
        # with --out and no output.dir, the snapshots were not written at all
        cfg = {
            "domain": {"kind": "unit_ball"},
            "grid": {"n_spatial": 9, "n_polar": 2, "n_azimuth": 4, "n_energy": 3,
                     "E0": 0.0, "Em": 0.3},
            "coefficients": {
                "sigma": {"name": "constant", "value": 0.6},
                "stopping": {"name": "constant", "value": -1.0},
                "shift": 0.0,
            },
            "problem": {"kind": "csda", "dE": 0.075,
                        "source": {"name": "radial_bump", "amplitude": 1.0, "radius": 0.4}},
            "output": {"write_fields": False, "write_snapshots": True},
        }
        cli.run_scenario(cfg, out_dir=str(tmp_path / "out"))
        assert (tmp_path / "out" / "report.json").exists()
        lines = (tmp_path / "out" / "march_snapshots.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_incompatible_halving_sweep_fails_before_the_march(self, monkeypatch):
        # the check ran only after the configured march
        cfg = {
            "domain": {"kind": "unit_ball"},
            "grid": {"n_spatial": 21, "n_polar": 2, "n_azimuth": 4, "n_energy": 3,
                     "E0": 0.0, "Em": 0.3},
            "coefficients": {
                "sigma": {"name": "constant", "value": 0.6},
                "stopping": {"name": "constant", "value": -1.0},
                "scatter": {"name": "isotropic_bump", "sigma_s": 0.2, "radius": 0.5},
                "shift": 0.0,
            },
            "problem": {"kind": "csda", "dE": 0.075, "halving_sweep": True,
                        "source": {"name": "bump_cos_energy", "amplitude": 1.0,
                                   "radius": 0.45, "freq": 3.0}},
        }
        calls = []
        monkeypatch.setattr(csda, "march_energy", lambda *args, **kw: calls.append(1))
        with pytest.raises(ConfigError, match="halving_sweep"):
            cli.run_scenario(cfg)
        assert calls == []

    def test_ellipsoid_domain(self, tmp_path):
        cfg = attenuation_config(tmp_path, sigma=0.5)
        cfg["domain"] = {"kind": "ellipsoid", "center": [0.0, 0.1, 0.0],
                         "semi_axes": [1.5, 1.0, 0.8]}
        del cfg["output"]
        report = cli.run_scenario(cfg)
        assert report.all_passed
        assert report.norms["l2"] > 0

    def test_unknown_problem_kind(self, tmp_path):
        cfg = attenuation_config(tmp_path)
        cfg["problem"]["kind"] = "bogus"
        with pytest.raises(ConfigError):
            cli.run_scenario(cfg)

    def test_missing_block_named(self, tmp_path):
        cfg = attenuation_config(tmp_path)
        del cfg["coefficients"]
        with pytest.raises(ConfigError, match="coefficients"):
            cli.run_scenario(cfg)


@pytest.mark.parametrize("block, key, value", [
    ("grid", "E0", 2.0),
    ("grid", "n_spatial", "abc"),
    ("domain", "radius", -0.5),
    ("quadrature", "nodes_per_panel", 1),
    ("grid", "n_polar", 0),
    ("grid", "n_azimuth", 0),
    ("grid", "n_energy", 0),
    ("grid", "n_spatial", 2),
])
def test_bad_config_value_is_a_config_error_naming_the_key(tmp_path, capsys, block, key, value):
    cfg = attenuation_config(tmp_path)
    if block == "domain":
        cfg["domain"] = {"kind": "ball", "radius": value}
    elif block == "quadrature":
        cfg["problem"]["quadrature"][key] = value
    else:
        cfg[block][key] = value
    with pytest.raises(ConfigError, match=key):
        cli.run_scenario(cfg)
    assert cli.main(["run", str(write_cfg(tmp_path, cfg))]) == 2
    assert "error: ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("domain, key", [
    ({"kind": "ellipsoid", "semi_axes": [1, -1, 1]}, "semi_axes"),
    ({"kind": "ellipsoid", "semi_axes": [1, 1]}, "semi_axes"),
    ({"kind": "ball", "radius": 0.5, "center": [0, 0]}, "center"),
    ({"kind": "ball", "radius": 0.5, "center": "abc"}, "center"),
])
def test_bad_domain_block_is_a_config_error_naming_the_key(tmp_path, capsys, domain, key):
    cfg = attenuation_config(tmp_path)
    cfg["domain"] = domain
    assert cli.main(["run", str(write_cfg(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert "error: ConfigError" in err and f"'{key}' in domain block" in err


def test_non_finite_stopping_power_is_a_config_error(tmp_path, capsys):
    cfg = attenuation_config(tmp_path)
    cfg["coefficients"]["stopping"] = {"name": "constant", "value": float("nan")}
    assert cli.main(["run", str(write_cfg(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert "error: ConfigError" in err and "'value' in stopping block must be negative and finite" in err


@pytest.mark.parametrize("block, entry, key", [
    ("sigma", {"name": "radial_bump", "amplitude": 0.5, "radius": 0.5, "center": "abc"}, "center"),
    ("sigma", {"name": "constant", "value": float("nan")}, "value"),
    ("sigma", {"name": "affine", "gradient": [0.0, 0.0, float("inf")]}, "gradient"),
    ("source", {"name": "radial_bump", "amplitude": 1.0, "radius": 0.5, "center": [0, 0]}, "center"),
    ("source", {"name": "constant", "value": float("-inf")}, "value"),
    ("scatter", {"name": "isotropic_bump", "sigma_s": 0.1, "radius": 0.5, "center": "abc"}, "center"),
    ("scatter", {"name": "isotropic", "sigma_s": float("nan")}, "sigma_s"),
])
def test_bad_catalog_number_is_a_config_error_naming_the_key(tmp_path, capsys, block, entry, key):
    cfg = attenuation_config(tmp_path)
    if block == "source":
        cfg["problem"]["source"] = entry
    else:
        cfg["coefficients"][block] = entry
    assert cli.main(["run", str(write_cfg(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert "error: ConfigError" in err and f"'{key}' in {block} block" in err


@pytest.mark.parametrize("path, value, block", [
    ((), 5, "top-level"),
    (("domain",), 1, "domain"),
    (("grid",), [], "grid"),
    (("output",), 3, "output"),
    (("problem", "quadrature"), 4, "quadrature"),
    (("coefficients", "sigma"), 2, "sigma"),
    (("coefficients",), "x", "coefficients"),
    (("verification",), "norms", "verification"),
    (("verification",), [["norms"]], "verification"),
])
def test_block_of_the_wrong_type_is_a_config_error_naming_the_block(tmp_path, capsys, path, value, block):
    cfg = attenuation_config(tmp_path)
    if path:
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        cfg = value
    assert cli.main(["run", str(write_cfg(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert "error: ConfigError" in err and f"{block} block must be" in err


@pytest.mark.parametrize("path, value, what", [
    (("grid", "n_spatial"), 9.7, "an integer"),
    (("grid", "n_spatial"), True, "an integer"),
    (("grid", "n_spatial"), "12", "an integer"),
    (("grid", "n_energy"), False, "an integer"),
    (("problem", "quadrature", "nodes_per_panel"), 4.5, "an integer"),
    (("grid", "Em"), True, "a finite number"),
    (("grid", "E0"), "0.5", "a finite number"),
    (("coefficients", "shift"), "1", "a finite number"),
    (("coefficients", "sigma", "value"), False, "a finite number"),
    (("problem", "source", "value"), "1.0", "a finite number"),
    (("domain",), {"kind": "ball", "center": [0, 0, True], "radius": 1.0}, "3 finite numbers"),
    (("domain",), {"kind": "ball", "center": ["0", 0, 0], "radius": 1.0}, "3 finite numbers"),
])
def test_number_that_is_a_boolean_string_or_fraction_is_a_config_error(tmp_path, capsys, path, value, what):
    # these used to be coerced: 9.7 read as 9, true as 1 and "12" as 12
    cfg = attenuation_config(tmp_path)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    assert cli.main(["run", str(write_cfg(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    key = path[-1] if path[-1] != "domain" else "center"
    assert "error: ConfigError" in err and f"'{key}' in" in err and f"must be {what}" in err


def csda_config(tmp_path):
    return {
        "domain": {"kind": "unit_ball"},
        "grid": {"n_spatial": 9, "n_polar": 2, "n_azimuth": 4, "n_energy": 3, "E0": 0.0, "Em": 0.3},
        "coefficients": {"sigma": {"name": "constant", "value": 0.6},
                         "stopping": {"name": "constant", "value": -1.0}, "shift": 0.0},
        "problem": {"kind": "csda", "dE": 0.075,
                    "source": {"name": "radial_bump", "amplitude": 1.0, "radius": 0.4}},
        "output": {"dir": str(tmp_path / "out"), "write_fields": False},
    }


@pytest.mark.parametrize("kind, path, value, what", [
    ("csda", ("problem", "halving_sweep"), "false", "true or false"),
    ("csda", ("problem", "halving_sweep"), 0, "true or false"),
    ("csda", ("output", "write_snapshots"), "yes", "true or false"),
    ("attenuation", ("output", "write_fields"), "no", "true or false"),
    ("attenuation", ("output", "write_fields"), None, "true or false"),
    ("attenuation", ("output", "dir"), 5, "a string"),
])
def test_flag_or_directory_of_the_wrong_type_is_a_config_error(tmp_path, capsys, monkeypatch, kind, path, value,
                                                               what):
    # these were read as truthy values: "false" ran the halving sweep, "no"
    # wrote field.csv, and a dir of 5 ended in a TypeError after the solve
    cfg = csda_config(tmp_path) if kind == "csda" else attenuation_config(tmp_path)
    cfg[path[0]][path[1]] = value
    solved = []
    monkeypatch.setattr(csda, "march_energy", lambda *a, **kw: solved.append(1))
    monkeypatch.setattr(cli, "_run_attenuation", lambda *a, **kw: solved.append(1))
    assert cli.main(["run", str(write_cfg(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert "error: ConfigError" in err and f"'{path[1]}' in {path[0]} block must be {what}" in err
    assert solved == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, key, value", [
    ("csda", "dE", 0),
    ("csda", "dE", -0.1),
    ("csda", "tol", 0),
    ("scattering", "tol", -1),
    ("scattering", "tol", 0),
    ("scattering", "max_iter", 0),
    ("scattering_with_inflow", "max_iter", -3),
])
def test_step_tolerance_or_iteration_cap_that_is_not_positive_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                                                 kind, key, value):
    # dE = 0 divided by zero, dE = -0.1 marched one step per energy interval,
    # and tol <= 0 or max_iter = 0 ran the set-up to end in MaxIterationsExceeded
    if kind == "csda":
        cfg = csda_config(tmp_path)
    else:
        cfg = attenuation_config(tmp_path, sigma=0.3)
        cfg["problem"]["kind"] = kind
        cfg["problem"]["boundary"] = {"name": "constant", "value": 1.0}
    cfg["problem"][key] = value
    solved = []
    for mod, name in ((csda, "march_energy"), (sc, "solve_scattering"), (sc, "solve_with_inflow")):
        monkeypatch.setattr(mod, name, lambda *a, **kw: solved.append(1))
    assert cli.main(["run", str(write_cfg(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert "error: ConfigError" in err and f"'{key}' in problem block must be" in err
    assert solved == []


def test_output_flags_take_json_booleans(tmp_path):
    cfg = attenuation_config(tmp_path)
    cfg["output"]["write_fields"] = False
    cli.run_scenario(cfg)
    assert (tmp_path / "out" / "report.json").exists() and not (tmp_path / "out" / "field.csv").exists()
    cfg = csda_config(tmp_path)
    cfg["problem"]["halving_sweep"] = False
    cfg["output"].update(dir=str(tmp_path / "csda"), write_snapshots=False)
    report = cli.run_scenario(cfg)
    assert "halving_sweep" not in report.norms
    assert sorted(p.name for p in (tmp_path / "csda").iterdir()) == ["report.json"]


def test_whole_float_is_an_integer(tmp_path):
    cfg = attenuation_config(tmp_path)
    whole = cli.run_scenario(cfg).grid_meta
    cfg["grid"]["n_spatial"] = 9.0
    assert cli.run_scenario(cfg).grid_meta == whole


def write_cfg(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestVerifyCommand:
    def test_geometry_suite_passes(self, tmp_path):
        rc = cli.main(["verify", "geometry", "--out", str(tmp_path / "v")])
        assert rc == 0
        data = json.loads((tmp_path / "v" / "report.json").read_text())
        assert data["schema_version"] == 1
        assert all(p["pass"] for p in data["properties"])

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["verify", "nonsense"])

    def test_determinism_excluding_timings(self, tmp_path):
        r1 = cli.run_verification_suite("geometry", seed=42)
        r2 = cli.run_verification_suite("geometry", seed=42)
        assert r1.to_json(include_timings=False) == r2.to_json(include_timings=False)

    def test_scenario_report_deterministic(self, tmp_path):
        cfg = attenuation_config(tmp_path)
        del cfg["output"]
        r1 = cli.run_scenario(cfg, seed=5)
        r2 = cli.run_scenario(cfg, seed=5)
        assert r1.to_json(include_timings=False) == r2.to_json(include_timings=False)

    def test_exit_status_contract(self, tmp_path):
        cfg = attenuation_config(tmp_path)
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["run", str(path)]) == 0

    def test_env_overrides(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RAYTRANS_OUT", str(tmp_path / "env_out"))
        monkeypatch.setenv("RAYTRANS_SEED", "77")
        rc = cli.main(["verify", "geometry"])
        assert rc == 0
        data = json.loads((tmp_path / "env_out" / "report.json").read_text())
        assert data["seed"] == 77

    def test_seed_variable_that_is_not_an_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RAYTRANS_SEED", "abc")
        assert cli.main(["verify", "geometry"]) == 2
        err = capsys.readouterr().err
        assert "error: ConfigError" in err and "'RAYTRANS_SEED'" in err
        # an explicit flag wins over the variable
        assert cli.main(["verify", "geometry", "--seed", "3", "--out", str(tmp_path / "v")]) == 0
        assert json.loads((tmp_path / "v" / "report.json").read_text())["seed"] == 3

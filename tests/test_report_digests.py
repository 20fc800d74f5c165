"""``tools/report_digests.py`` hashes each report body without its
``timings`` block, and compares digests with a file."""

import importlib.util
import json
from pathlib import Path

from raytrans import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _tiny_run(out):
    cfg = {
        "domain": {"kind": "unit_ball"},
        "grid": {"n_spatial": 7, "n_polar": 2, "n_azimuth": 4, "n_energy": 1},
        "coefficients": {"sigma": {"name": "constant", "value": 0.5}},
        "problem": {"kind": "attenuation", "source": {"name": "constant", "value": 1.0},
                    "quadrature": {"panels_per_unit_length": 8, "nodes_per_panel": 3}},
    }
    cli.run_scenario(cfg, out_dir=str(out), seed=0)


def test_report_digest_excludes_timings_only(tmp_path):
    tool = _tool()
    _tiny_run(tmp_path / "run")
    digests = tool.output_digests(tmp_path)
    assert sorted(digests) == ["run/field.csv", "run/report.json"]
    path = tmp_path / "run" / "report.json"
    report = json.loads(path.read_text())
    assert report["timings"]
    report["timings"] = {"solve_s": -1.0}
    path.write_text(json.dumps(report))
    assert tool.output_digests(tmp_path) == digests
    report["norms"]["l2"] *= 2.0
    path.write_text(json.dumps(report))
    assert tool.report_digest(path) != digests["run/report.json"]


def test_against_exits_non_zero_on_any_difference(tmp_path, monkeypatch, capsys):
    tool = _tool()
    digests = {"a/report.json": "1" * 64, "a/field.csv": "2" * 64}
    monkeypatch.setattr(tool, "run_all", lambda out: dict(digests))
    saved = tmp_path / "digests.txt"
    assert tool.main([]) == 0
    saved.write_text(capsys.readouterr().out)
    assert tool.main(["--against", str(saved)]) == 0
    digests["a/field.csv"] = "3" * 64
    assert tool.main(["--against", str(saved)]) == 1
    assert "differs: a/field.csv" in capsys.readouterr().err
    del digests["a/field.csv"]
    assert tool.main(["--against", str(saved)]) == 1


def _body(residuals=(1.0, 1e-3, 1e-9), value=0.5, passed=True, iterations=3):
    return {"command": "run", "seed": 0, "iteration": {"iterations": iterations, "converged": True},
            "norms": {"l2": 0.25, "tiny": 2.4e-15}, "residuals": list(residuals),
            "properties": [{"name": "p", "pass": passed, "value": value, "tolerance": 1.0}]}


def test_bodies_compare_values_within_the_stated_tolerance():
    tool = _tool()
    assert tool.compare_bodies(_body(), _body()) == ([], 0.0)
    # floats within 1e-5 of the larger magnitude (plus 1e-13) pass, and the
    # largest relative change is reported
    bad, worst = tool.compare_bodies(_body(value=0.5), _body(value=0.5 * (1 + 4e-6)))
    assert bad == [] and 3e-6 < worst < 5e-6
    bad, _ = tool.compare_bodies(_body(value=0.5), _body(value=0.5 * (1 + 3e-5)))
    assert [where for where, _ in bad] == ["/properties/0/value"]
    # round-off-level values are held to the absolute 1e-13 only
    moved = _body()
    moved["norms"]["tiny"] = 2.2e-16
    assert tool.compare_bodies(_body(), moved) == ([], 0.0)
    # integers, booleans and strings must match exactly, types included
    for other in (_body(iterations=4), _body(passed=False)):
        assert len(tool.compare_bodies(_body(), other)[0]) == 1
    renamed = _body()
    renamed["command"] = "verify"
    assert len(tool.compare_bodies(_body(), renamed)[0]) == 1
    retyped = _body()
    retyped["seed"] = 0.0
    assert len(tool.compare_bodies(_body(), retyped)[0]) == 1
    missing = _body()
    del missing["norms"]["l2"]
    assert tool.compare_bodies(_body(), missing)[0] == [("/norms/l2", "missing")]


def test_residual_histories_compare_relative_to_their_first_entry():
    tool = _tool()
    # the last residual moves by 50 % of itself but 5e-10 of the first entry
    bad, worst = tool.compare_bodies(_body(), _body(residuals=(1.0, 1e-3, 1.5e-9)))
    assert bad == [] and worst < 1e-9
    bad, _ = tool.compare_bodies(_body(), _body(residuals=(1.0, 1.1e-3, 1e-9)))
    assert [where for where, _ in bad] == ["/residuals/1"]
    bad, _ = tool.compare_bodies(_body(), _body(residuals=(1.0, 1e-3)))
    assert bad == [("/residuals", "length 2, expected 3")]


def test_bodies_option_checks_every_report_and_prints_margins(tmp_path, monkeypatch, capsys):
    tool = _tool()
    body = _body()

    def run_all(out):
        (out / "a").mkdir()
        (out / "a" / "report.json").write_text(json.dumps({**body, "timings": {"solve_s": 1.0}}))
        return tool.output_digests(out)

    monkeypatch.setattr(tool, "run_all", run_all)
    stored = tmp_path / "bodies.json"
    assert tool.main(["--write-bodies", str(stored)]) == 0
    assert json.loads(stored.read_text()) == {"a/report.json": _body()}
    capsys.readouterr()
    assert tool.main(["--bodies", str(stored)]) == 0
    out = capsys.readouterr().out
    assert "# a/report.json p: pass=True value=0.5 tolerance=1 margin=0.5" in out
    assert "# a/report.json: largest relative change 0" in out
    body["iteration"]["iterations"] = 4
    assert tool.main(["--bodies", str(stored)]) == 1
    assert "differs: a/report.json/iteration/iterations: 4, expected 3" in capsys.readouterr().err

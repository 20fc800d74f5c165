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

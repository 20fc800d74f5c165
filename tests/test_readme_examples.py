"""The README's library example and scenario configuration run as written,
so a change of the public API or of the configuration keys breaks a test
before it breaks the documentation."""

import contextlib
import io
import json
import re
from pathlib import Path

from raytrans import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the markdown ``heading`` line."""
    match = re.search(rf"^{re.escape(heading)}\n.*?^```{lang}\n(.*?)^```", README, re.M | re.S)
    assert match, f"no {lang} block under {heading!r}"
    return match.group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("## Library example", "python"), {})
    iterations, rate = out.getvalue().split()
    assert int(iterations) >= 1 and 0.0 <= float(rate) < 1.0


def test_scenario_configuration_runs(tmp_path):
    report = cli.run_scenario(json.loads(_block("### Scenario configuration", "json")), out_dir=str(tmp_path))
    assert report.properties and report.all_passed
    assert (tmp_path / "report.json").exists() and (tmp_path / "field.csv").exists()

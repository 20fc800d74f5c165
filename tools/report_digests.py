"""SHA-256 digests of the deterministic outputs of raytrans.

Runs the three ``configs/`` scenarios and ``raytrans verify all --seed 0``
from this checkout's ``src`` in a temporary directory, and prints one line
per output: the SHA-256 of each ``report.json`` body without its
``timings`` block (the JSON re-serialised as ``RunReport.to_json`` writes
it), and of each ``field.csv`` as written.

    python tools/report_digests.py                       # print the digests
    python tools/report_digests.py --against FILE        # exit 1 on any difference

``tools/report_digests.txt`` holds the digests of the current tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from raytrans import cli  # noqa: E402

CONFIGS = ("attenuation_ball", "scattering_ball", "csda_sweep")


def report_digest(path) -> str:
    """SHA-256 of a report.json body without ``timings``."""
    body = json.loads(Path(path).read_text())
    body.pop("timings", None)
    return hashlib.sha256(json.dumps(body, sort_keys=True, indent=2).encode()).hexdigest()


def output_digests(out: Path) -> dict:
    """Digests of the report.json and field.csv files under ``out``, keyed by
    their paths relative to it."""
    digests = {}
    for path in sorted(out.rglob("*")):
        name = path.relative_to(out).as_posix()
        if path.name == "report.json":
            digests[name] = report_digest(path)
        elif path.name == "field.csv":
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def run_all(out: Path) -> dict:
    """Run the configs and ``verify all --seed 0`` into ``out``; their digests."""
    for name in CONFIGS:
        cli.run_scenario(ROOT / "configs" / f"{name}.json", out_dir=str(out / name), seed=0)
    cli.run_verification_suite("all", seed=0, out_dir=str(out / "verify_all"))
    return output_digests(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="digest file to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
    text = "".join(f"{digest}  {name}\n" for name, digest in digests.items())
    print(text, end="")
    if args.against is None:
        return 0
    expected = dict(line.split()[::-1] for line in args.against.read_text().splitlines() if line.strip())
    bad = sorted(name for name in expected.keys() | digests.keys() if expected.get(name) != digests.get(name))
    for name in bad:
        print(f"differs: {name}: expected {expected.get(name)}, got {digests.get(name)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""SHA-256 digests of the deterministic outputs of raytrans, and a
value-level comparison of the report bodies.

Runs the three ``configs/`` scenarios and ``raytrans verify all --seed 0``
from this checkout's ``src`` in a temporary directory, and prints one line
per output: the SHA-256 of each ``report.json`` body without its
``timings`` block (the JSON re-serialised as ``RunReport.to_json`` writes
it), and of each ``field.csv`` as written.

    python tools/report_digests.py                       # print the digests
    python tools/report_digests.py --against FILE        # exit 1 on any difference
    python tools/report_digests.py --bodies FILE         # exit 1 on a value out of tolerance
    python tools/report_digests.py --write-bodies FILE   # store the report bodies

``--bodies`` compares every value of the report bodies with the stored
ones (``compare_bodies``): integers, booleans, strings and pass flags must
match exactly; floats within ``REL_TOL`` of the larger magnitude plus
``ABS_TOL``; each residual history relative to its first entry.  It prints
every property's value, tolerance and margin, since a value near its
threshold can flip a pass flag or an iteration count.

``tools/report_digests.txt`` holds the digests of the current tree and
``tools/report_bodies.json`` its report bodies.  BLAS and OpenMP run on one
thread unless the environment says otherwise, so the digests do not depend
on the machine's thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from raytrans import cli  # noqa: E402

CONFIGS = ("attenuation_ball", "scattering_ball", "csda_sweep")
REL_TOL = 1e-5
ABS_TOL = 1e-13
HISTORIES = ("residuals",)   # keys whose float lists are residual histories


def report_body(path) -> dict:
    """A report.json body without ``timings``."""
    body = json.loads(Path(path).read_text())
    body.pop("timings", None)
    return body


def report_digest(path) -> str:
    """SHA-256 of a report.json body without ``timings``."""
    return hashlib.sha256(json.dumps(report_body(path), sort_keys=True, indent=2).encode()).hexdigest()


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


def output_bodies(out: Path) -> dict:
    """The report bodies under ``out``, keyed like ``output_digests``."""
    return {path.relative_to(out).as_posix(): report_body(path) for path in sorted(out.rglob("report.json"))}


def run_all(out: Path) -> dict:
    """Run the configs and ``verify all --seed 0`` into ``out``; their digests."""
    for name in CONFIGS:
        cli.run_scenario(ROOT / "configs" / f"{name}.json", out_dir=str(out / name), seed=0)
    cli.run_verification_suite("all", seed=0, out_dir=str(out / "verify_all"))
    return output_digests(out)


def _history_scale(expected, got):
    """max(|a_0|, |b_0|) if both are residual histories (lists starting
    with a float), else None."""
    if isinstance(expected, list) and isinstance(got, list) and expected and got \
            and isinstance(expected[0], float) and isinstance(got[0], float):
        return max(abs(expected[0]), abs(got[0]))
    return None


def compare_bodies(expected, got, path: str = "", scale=None) -> tuple[list, float]:
    """(differences, largest relative change) between two report bodies.

    A difference is a (path, message) pair: a key, length or type that does
    not match, an integer, boolean or string that differs, or a float out of
    tolerance.  Floats a and b compare relative to ``scale`` if given (the
    first entry of a residual history), else to max(|a|, |b|); the largest
    relative change leaves out values of at most ``ABS_TOL``."""
    if isinstance(expected, dict) and isinstance(got, dict):
        bad, worst = [], 0.0
        for key in sorted(expected.keys() | got.keys()):
            if key not in expected or key not in got:
                bad.append((f"{path}/{key}", "missing" if key not in got else "unexpected"))
                continue
            sub_scale = _history_scale(expected[key], got[key]) if key in HISTORIES else scale
            sub_bad, sub_worst = compare_bodies(expected[key], got[key], f"{path}/{key}", sub_scale)
            bad += sub_bad
            worst = max(worst, sub_worst)
        return bad, worst
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [(path, f"length {len(got)}, expected {len(expected)}")], 0.0
        bad, worst = [], 0.0
        for i, (a, b) in enumerate(zip(expected, got)):
            sub_bad, sub_worst = compare_bodies(a, b, f"{path}/{i}", scale)
            bad += sub_bad
            worst = max(worst, sub_worst)
        return bad, worst
    if isinstance(expected, float) and isinstance(got, float):
        if expected == got or (math.isnan(expected) and math.isnan(got)):
            return [], 0.0
        size = max(abs(expected), abs(got)) if scale is None else scale
        gap = abs(got - expected)
        # a value at round-off level, below ABS_TOL, has no relative change to speak of
        rel = 0.0 if size <= ABS_TOL else gap / size if size < math.inf else math.inf
        ok = gap <= REL_TOL * size + ABS_TOL
        return ([] if ok else [(path, f"{got!r}, expected {expected!r}")]), rel
    if type(expected) is not type(got) or expected != got:
        return [(path, f"{got!r}, expected {expected!r}")], 0.0
    return [], 0.0


def property_margins(bodies: dict) -> list:
    """(report, property, pass, value, tolerance, margin) of every property;
    the margin is 1 - value / tolerance (negative when the value is over it)."""
    rows = []
    for name, body in bodies.items():
        for p in body.get("properties", []):
            value, tol = p["value"], p["tolerance"]
            margin = 1.0 - value / tol if tol not in (0.0, None) and math.isfinite(value) else math.nan
            rows.append((name, p["name"], p["pass"], value, tol, margin))
    return rows


def check_bodies(expected: dict, got: dict) -> bool:
    """Print every property's margin and the largest relative change of each
    report; print each difference to stderr.  True if there are none."""
    for name, prop, passed, value, tol, margin in property_margins(got):
        print(f"# {name} {prop}: pass={passed} value={value:.6g} tolerance={tol:.6g} margin={margin:.3g}")
    ok = True
    for name in sorted(expected.keys() | got.keys()):
        if name not in expected or name not in got:
            print(f"differs: {name}: {'missing' if name not in got else 'no stored body'}", file=sys.stderr)
            ok = False
            continue
        bad, worst = compare_bodies(expected[name], got[name])
        print(f"# {name}: largest relative change {worst:.3g}")
        for where, msg in bad:
            print(f"differs: {name}{where}: {msg}", file=sys.stderr)
        ok = ok and not bad
    return ok


def check_against(path: Path, digests: dict) -> bool:
    """Print to stderr each name whose digest differs from the one in the
    digest file ``path`` (or is in only one of them).  True if none does."""
    expected = dict(line.split()[::-1] for line in path.read_text().splitlines() if line.strip())
    bad = sorted(name for name in expected.keys() | digests.keys() if expected.get(name) != digests.get(name))
    for name in bad:
        print(f"differs: {name}: expected {expected.get(name)}, got {digests.get(name)}", file=sys.stderr)
    return not bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="digest file to compare with")
    parser.add_argument("--bodies", type=Path, help="stored report bodies to compare values with")
    parser.add_argument("--write-bodies", type=Path, help="file to store the report bodies in")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
        bodies = output_bodies(Path(tmp))
    text = "".join(f"{digest}  {name}\n" for name, digest in digests.items())
    print(text, end="")
    if args.write_bodies is not None:
        args.write_bodies.write_text(json.dumps(bodies, sort_keys=True, indent=1) + "\n")
    ok = True
    if args.bodies is not None:
        ok = check_bodies(json.loads(args.bodies.read_text()), bodies)
    if args.against is not None:
        ok = check_against(args.against, digests) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""SHA-256 digests of every sweep operator the solver builds.

Runs the benchmark's ``scatter_mms`` problem (seed 101), the configs
``scattering_ball`` and ``csda_sweep`` (seed 0) and a CSDA march with
scattering (``scattering_march``) from this checkout's ``src`` in a
temporary directory, and prints one line per operator that
``RaySystem.sweep_operator`` returns, named by its run and its place in
build order: the SHA-256 of its rows, starts, cols and data, each with its
dtype and shape.  A build stopped over budget returns no operator and gets
no line.

    python tools/operator_digests.py                  # print the digests
    python tools/operator_digests.py --against FILE   # exit 1 on any difference

``tools/operator_digests.txt`` holds the digests of the current tree, so a
change that must keep every operator bit for bit shows it with
``--against tools/operator_digests.txt``.  BLAS and OpenMP run on one
thread unless the environment says otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tools")]

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402
from raytrans import attenuation as at  # noqa: E402
from raytrans import cli, csda  # noqa: E402
from raytrans.catalog import smooth_bump  # noqa: E402
from raytrans.fields import CoefficientSet, EnergyInterval, GridSpec  # noqa: E402
from raytrans.geometry import ConvexDomain  # noqa: E402
from report_digests import check_against  # noqa: E402


def scattering_march(out) -> None:
    """A 13^3, 2x4-direction CSDA march with a bump kernel of radius 0.5
    and dE = 0.05, within the cache budget: its kernel sweeps and its
    lattice sources build operators on different clamps, 8 of each."""
    grid = GridSpec(ConvexDomain.unit_ball(), 13, 2, 4, EnergyInterval(0.0, 0.3), 3)
    coeffs = CoefficientSet(
        sigma_t=lambda x, w, E: np.full(len(x), 0.4),
        scatter=lambda x, wi, wo, E: 0.5 / (4.0 * np.pi) * smooth_bump(np.linalg.norm(x, axis=1), 0.5),
        stopping=lambda x, E: -np.ones(len(np.atleast_2d(x))), kappa=1.0, shift=0.0,
    )
    f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.45) * (1.0 + 0.8 * np.cos(3.0 * E))
    csda.march_energy(f, coeffs, grid, at.RayQuadrature(12, 4), dE=0.05, tol=1e-12)


RUNS = {
    "scatter_mms": lambda out: workloads.build("scatter_mms", 101).solve(),
    "scattering_ball": lambda out: cli.run_scenario(ROOT / "configs" / "scattering_ball.json",
                                                    out_dir=str(out), seed=0),
    "csda_sweep": lambda out: cli.run_scenario(ROOT / "configs" / "csda_sweep.json", out_dir=str(out), seed=0),
    "scattering_march": scattering_march,
}


def operator_digest(op) -> str:
    """SHA-256 of a ``SweepOperator``'s arrays, each with its dtype and shape."""
    h = hashlib.sha256()
    for a in (op.rows, op.starts, op.cols, op.data):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def record(run, out: Path) -> list:
    """The digests of the operators ``RaySystem.sweep_operator`` returns
    while ``run(out)`` runs, in build order."""
    digests = []
    build = at.RaySystem.sweep_operator

    def recorded(*args, **kwargs):
        op = build(*args, **kwargs)
        if op is not None:
            digests.append(operator_digest(op))
        return op

    at.RaySystem.sweep_operator = recorded
    try:
        run(out)
    finally:
        at.RaySystem.sweep_operator = build
    return digests


def run_all(out: Path) -> dict:
    """Every run of ``RUNS`` in a directory of its own under ``out``; the
    digests of their operators, keyed run/index."""
    digests = {}
    for name, run in RUNS.items():
        for i, digest in enumerate(record(run, out / name)):
            digests[f"{name}/{i:03d}"] = digest
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="digest file to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
    print("".join(f"{digest}  {name}\n" for name, digest in digests.items()), end="")
    return 0 if args.against is None or check_against(args.against, digests) else 1


if __name__ == "__main__":
    sys.exit(main())

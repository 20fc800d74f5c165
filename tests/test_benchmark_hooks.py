"""The traced benchmark run finds every raytrans attribute it patches.

``perfbench/tracing.py`` patches solver functions and methods by name and
reports a missing one as absent instead of failing, so a renamed helper
would silently read zero in its per-layer metric.  Its ray-build hook reads
the ``RaySystem`` constructor's positional arguments, so a traced solve must
run and count every ray system it assembles.
"""

import importlib.util
from pathlib import Path

import numpy as np

from raytrans import attenuation, scattering
from raytrans.fields import CoefficientSet, EnergyInterval, GridSpec
from raytrans.geometry import ConvexDomain

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_every_traced_hook_is_present():
    original = scattering._KernelApplier.__dict__["apply_slice"]
    tracer = _tracer()
    try:
        tracer.install()
        assert tracer.absent == []
        assert scattering._KernelApplier.__dict__["apply_slice"] is not original
    finally:
        tracer.restore()
    assert scattering._KernelApplier.__dict__["apply_slice"] is original


def test_traced_solve_counts_each_ray_system_it_assembles():
    # the tracer's ray-build hook reads the constructor's positional
    # arguments and wraps ``RaySystem.__init__`` as the class defines it
    grid = GridSpec(ConvexDomain.unit_ball(), 11, 2, 4, EnergyInterval(0.0, 1.0), 1)
    bump = lambda x, r: np.maximum(1.0 - np.sum(x * x, axis=1) / r**2, 0.0) ** 4
    coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3),
                            scatter=lambda x, wi, wo, E: 0.4 / (4 * np.pi) * bump(x, 0.6), shift=1.0)
    original = attenuation.RaySystem.__dict__["__init__"]
    tracer = _tracer()
    try:
        tracer.install()
        assert tracer.absent == []
        scattering.solve_scattering(lambda x, w, E: bump(x, 0.5), coeffs, grid,
                                    attenuation.RayQuadrature(12, 4), tol=1e-10)
    finally:
        tracer.restore()
    assert attenuation.RaySystem.__dict__["__init__"] is original
    builds = [s for s in tracer.spans if s[0] == "attenuation.ray_build"]
    assert len(builds) == grid.n_omega * grid.n_energy
    assert tracer.counts["attenuation.ray_nodes"] > 0

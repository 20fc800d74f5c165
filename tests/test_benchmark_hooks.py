"""The traced benchmark run finds every raytrans attribute it patches.

``perfbench/tracing.py`` patches solver functions and methods by name and
reports a missing one as absent instead of failing, so a renamed helper
would silently read zero in its per-layer metric.
"""

import importlib.util
from pathlib import Path

from raytrans import scattering

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_hook_is_present():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = scattering._KernelApplier.__dict__["apply_slice"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
        assert scattering._KernelApplier.__dict__["apply_slice"] is not original
    finally:
        tracer.restore()
    assert scattering._KernelApplier.__dict__["apply_slice"] is original

"""Attenuation-only processes never load scipy; a scattering solve loads it
at its first sweep and gives the same field as in any other process.  No
package module keeps an import it does not use, and every error class is
raised somewhere."""

import ast
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

PROBLEM = """
import numpy as np
from raytrans import (CoefficientSet, ConvexDomain, EnergyInterval, GridSpec, RayQuadrature,
                      solve_attenuation_grid, solve_scattering)

grid = GridSpec(ConvexDomain.unit_ball(), 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
quad = RayQuadrature(12, 4)
bump = lambda x, r: np.maximum(1.0 - np.sum(x * x, axis=1) / r**2, 0.0) ** 4
f = lambda x, w, E: bump(x, 0.5)
attenuation = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3), shift=0.5)
scattering = CoefficientSet(sigma_t=attenuation.sigma_t,
                            scatter=lambda x, wi, wo, E: 0.4 / (4 * np.pi) * bump(x, 0.6),
                            shift=1.0)
"""

CHILD = PROBLEM + """
import sys
import raytrans.cli

solve_attenuation_grid(f, attenuation, grid, quad)
assert "scipy.ndimage" not in sys.modules, "an attenuation solve loaded scipy.ndimage"
psi, _ = solve_scattering(f, scattering, grid, quad, tol=1e-10)
assert "scipy.ndimage" in sys.modules
np.save(sys.stdout.buffer, psi.values)
"""


def test_scipy_loads_only_with_the_first_sweep():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr.decode()
    child = np.load(io.BytesIO(proc.stdout))

    ns = {}
    exec(PROBLEM, ns)
    psi, _ = ns["solve_scattering"](ns["f"], ns["scattering"], ns["grid"], ns["quad"], tol=1e-10)
    assert np.array_equal(child, psi.values)


def _unused_imports(path: Path) -> list[str]:
    """Names bound by the module-level imports of ``path`` that its code
    never loads (a string that is one name, as a quoted annotation, counts
    as a use)."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {n.id if isinstance(n, ast.Name) else n.value for n in ast.walk(tree)
            if isinstance(n, ast.Name) or (isinstance(n, ast.Constant) and isinstance(n.value, str))}
    return sorted(bound - used)


def test_no_unused_module_imports():
    # the package __init__ imports to re-export
    modules = sorted(p for p in (SRC / "raytrans").glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: names for p in modules if (names := _unused_imports(p))}
    assert unused == {}


def test_every_error_class_is_raised():
    # RayTransError is the base that callers catch; every subclass needs a raise site
    errors = ast.parse((SRC / "raytrans" / "errors.py").read_text())
    defined = {n.name for n in errors.body if isinstance(n, ast.ClassDef)} - {"RayTransError"}
    raised = set()
    for path in (SRC / "raytrans").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert defined
    assert sorted(defined - raised) == []

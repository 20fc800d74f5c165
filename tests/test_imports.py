"""Attenuation-only processes never load scipy; a scattering solve loads
scipy.ndimage and scipy.sparse at its first sweep and gives the same field
as in any other process.  No package module keeps an import it does not
use or a private module-level name that the package never loads, every
error class is raised somewhere and expected by some test, every
parameter default is passed by some caller, and every sweep-cache counter
is counted."""

import ast
import io
import math
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
for name in ("scipy.ndimage", "scipy.sparse"):
    assert name not in sys.modules, f"an attenuation solve loaded {name}"
psi, _ = solve_scattering(f, scattering, grid, quad, tol=1e-10)
assert "scipy.ndimage" in sys.modules and "scipy.sparse" in sys.modules
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module) -> set:
    """The private (``_x``, not dunder) names that the module-level
    statements of ``tree`` define: functions, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set(filter(_is_private, names))


def _patched_by_string() -> set:
    """The private names that the benchmark tracer patches by string
    (``Tracer.patch(owner, "_name", ...)``): it, not the package, loads them."""
    tree = ast.parse((SRC.parent / "perfbench" / "tracing.py").read_text())
    return {n.args[1].value for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "patch"
            and len(n.args) > 1 and isinstance(n.args[1], ast.Constant) and isinstance(n.args[1].value, str)
            and _is_private(n.args[1].value)}


def test_every_private_module_name_is_loaded_in_the_package():
    # a private helper or constant that only its definition (or only a
    # test) names is dead code
    defined, loaded = set(), set()
    for path in sorted((SRC / "raytrans").glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {f"{path.name}:{name}" for name in _private_definitions(tree)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                loaded.add(n.attr)
    exempt = _patched_by_string()
    assert "_grid_interp_factory" in exempt
    assert sorted(d for d in defined if d.split(":")[1] not in loaded | exempt) == []


def test_every_cache_counter_is_counted():
    # ``IterationReport.cache`` starts from ``_cache_counts()``: a key that
    # no code adds to, or a key added to that it lacks, is a stale counter
    from raytrans.scattering import _cache_counts

    counted = set()
    for path in sorted((SRC / "raytrans").glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Subscript) \
                    and isinstance(n.target.slice, ast.Constant) and isinstance(n.target.slice.value, str):
                counted.add(n.target.slice.value)
    assert counted == set(_cache_counts())


# reached only through run_suite's table, each with the seed run_suite takes
_TABLE_CALLED = {"geometry_suite", "attenuation_suite", "scattering_suite", "csda_suite", "norms_suite"}


def _calls(roots: list) -> dict:
    """For each called name (a bare name or the last attribute), the
    (positional argument nodes, keyword name -> value node) of every call
    under ``roots``; a ``**kwargs`` is keyed by None."""
    calls = {}
    for root in roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    calls.setdefault(name, []).append((node.args, {k.arg: k.value for k in node.keywords}))
    return calls


def _defaults(path: Path):
    """(called name, qualified name, parameter, position or None if
    keyword-only, default node) of each parameter default of the
    module-level functions and methods of ``path``; a method's position
    does not count ``self``, and a class is called by its name."""
    tree = ast.parse(path.read_text())
    defs = [(None, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
    defs += [(c.name, n) for c in tree.body if isinstance(c, ast.ClassDef)
             for n in c.body if isinstance(n, ast.FunctionDef)]
    for cls, fn in defs:
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        skip = 0 if cls is None or static else 1
        qual = f"{cls}.{fn.name}" if cls else fn.name
        called = cls if fn.name == "__init__" else fn.name
        pos = fn.args.posonlyargs + fn.args.args
        first = len(pos) - len(fn.args.defaults)
        for i, (arg, default) in enumerate(zip(pos[first:], fn.args.defaults), start=first):
            yield called, qual, arg.arg, i - skip, default
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield called, qual, arg.arg, None, default


_NOT_LITERAL = object()


def _literal(node: ast.AST):
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return _NOT_LITERAL


def _passes(call: tuple, param: str, i, default: ast.AST) -> bool:
    """Whether ``call`` sets ``param`` (position ``i``) to something other
    than a literal equal to ``default``; a ``*args`` counts as every
    position and a ``**kwargs`` as every keyword."""
    args, kws = call
    if None in kws or (i is not None and any(isinstance(a, ast.Starred) for a in args)):
        return True
    if param in kws:
        value = kws[param]
    elif i is not None and i < len(args):
        value = args[i]
    else:
        return False
    passed = _literal(value)
    return passed is _NOT_LITERAL or passed != _literal(default)


def test_every_parameter_default_is_passed_by_some_call():
    # a default that no call sets, or that calls only set to itself, is a
    # constant behind a parameter
    root = SRC.parent
    calls = _calls([root / d for d in ("src", "tests", "perfbench", "tools")])
    unset = []
    for path in sorted((SRC / "raytrans").glob("*.py")):
        for called, qual, param, i, default in _defaults(path):
            if qual in _TABLE_CALLED:
                continue
            if not any(_passes(call, param, i, default) for call in calls.get(called, [])):
                unset.append(f"{path.name}:{qual}({param})")
    assert unset == []


def _expected_by_tests() -> set:
    """The names (bare or the last attribute) that the first argument of a
    ``pytest.raises`` call under ``tests/`` names, alone or in a tuple."""
    expected = set()
    for path in (SRC.parent / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "raises" and node.args):
                first = node.args[0]
                for exc in first.elts if isinstance(first, ast.Tuple) else [first]:
                    if isinstance(exc, (ast.Name, ast.Attribute)):
                        expected.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return expected


def test_every_error_class_is_raised():
    # RayTransError is the base that callers catch; every subclass needs a
    # raise site in the package and a test that expects it
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
    assert sorted(defined - _expected_by_tests()) == []

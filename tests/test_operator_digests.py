"""``tools/operator_digests.py`` hashes every operator that
``RaySystem.sweep_operator`` returns, and compares digests with a file."""

import importlib.util
from pathlib import Path

import numpy as np

from raytrans import attenuation as at
from raytrans.fields import CoefficientSet, EnergyInterval, GridSpec
from raytrans.geometry import ConvexDomain

TOOL = Path(__file__).resolve().parents[1] / "tools" / "operator_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("operator_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digest_covers_every_array_with_its_dtype_and_shape():
    tool = _tool()
    arrays = dict(rows=np.array([0, 2], dtype=np.int32), starts=np.array([0, 2], dtype=np.int32),
                  cols=np.array([1, 4, 4], dtype=np.uint16), data=np.array([0.5, -1.0, 2.0]))
    digest = tool.operator_digest(at.SweepOperator(3, **arrays))
    assert digest == tool.operator_digest(at.SweepOperator(3, **{k: v.copy() for k, v in arrays.items()}))
    for name, a in arrays.items():
        moved = a.copy()
        moved[-1] += 1
        retyped = a.view(np.int16 if a.dtype == np.uint16 else np.uint32 if a.dtype == np.int32 else np.int64)
        for other in (moved, retyped, a.reshape(1, -1)):
            assert tool.operator_digest(at.SweepOperator(3, **{**arrays, name: other})) != digest


def test_records_each_operator_a_run_returns(tmp_path, ray_system):
    tool = _tool()
    ball = ConvexDomain.unit_ball()
    g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
    coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3), shift=1.0)
    system = ray_system(coeffs, ball, g.coords, g.sphere_nodes[1], 0.0, at.RayQuadrature(8, 3))
    clamp = np.ones(g.shape, dtype=bool)
    build = at.RaySystem.sweep_operator
    ops = []
    digests = tool.record(lambda out: ops.extend([system.sweep_operator(g, clamp),
                                                  system.sweep_operator(g, clamp, 0.0)]), tmp_path)
    # the build stopped over budget returned None and has no digest
    assert ops[1] is None and digests == [tool.operator_digest(ops[0])]
    assert at.RaySystem.sweep_operator is build


def test_against_exits_non_zero_on_any_difference(tmp_path, monkeypatch, capsys):
    tool = _tool()
    digests = {"a/000": "1" * 64, "a/001": "2" * 64}
    monkeypatch.setattr(tool, "run_all", lambda out: dict(digests))
    saved = tmp_path / "digests.txt"
    assert tool.main([]) == 0
    saved.write_text(capsys.readouterr().out)
    assert tool.main(["--against", str(saved)]) == 0
    digests["a/001"] = "3" * 64
    assert tool.main(["--against", str(saved)]) == 1
    assert "differs: a/001" in capsys.readouterr().err
    del digests["a/001"]
    assert tool.main(["--against", str(saved)]) == 1

import time
import weakref

import pytest

from raytrans import norms as nm
from raytrans.errors import ConfigError
from raytrans.verify import SUITES, geometry_suite, norms_suite, run_suite


class TestSuites:
    def test_geometry_suite_passes(self):
        results = run_suite("geometry", seed=7)
        assert len(results) >= 5
        assert all(r.passed for r in results)

    def test_all_suites_pass_within_budget(self):
        started = time.perf_counter()
        results = run_suite("all", seed=2026)
        elapsed = time.perf_counter() - started
        failed = [r.name for r in results if not r.passed]
        assert not failed, failed
        assert elapsed < 600.0

    def test_deterministic_for_same_seed(self):
        a = geometry_suite(seed=99)
        b = geometry_suite(seed=99)
        assert [(r.name, r.value) for r in a] == [(r.name, r.value) for r in b]

    def test_result_serialization(self):
        r = geometry_suite(seed=1)[0]
        d = r.as_dict()
        assert set(d) == {"name", "pass", "value", "tolerance"}

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            run_suite("bogus")

    def test_suite_names_exported(self):
        assert "all" in SUITES and "geometry" in SUITES

    def test_norms_suite_drops_its_trace_before_going_on(self, monkeypatch):
        # the trace of the inflow-norm property (63 MB: 5120 points x 512
        # directions x 2 energies) and its arrays are dead by the time the
        # suite goes on to the Green residual
        refs, alive = [], []
        trace, green = nm.trace_from_callable, nm.green_residual

        def traced(*args, **kwargs):
            tr = trace(*args, **kwargs)
            refs.extend(weakref.ref(a) for a in (tr, tr.values.base, tr.dots.base))
            return tr

        def residual(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return green(*args, **kwargs)

        monkeypatch.setattr(nm, "trace_from_callable", traced)
        monkeypatch.setattr(nm, "green_residual", residual)
        assert all(r.passed for r in norms_suite(seed=0))
        assert alive == [[False, False, False]]

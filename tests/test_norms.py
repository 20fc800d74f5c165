import numpy as np
import pytest

from raytrans import norms as nm
from raytrans.errors import CoefficientShapeError, EmptyTrace, NonFiniteValue
from raytrans.fields import EnergyInterval, GridSpec, sample_field
from raytrans.geometry import BoundarySide, ConvexDomain, SurfaceMesh

VOL = 4 * np.pi / 3  # unit ball volume
X1_SQ = 4 * np.pi / 15  # integral of x1^2 over the unit ball


def smooth_bump(r, radius):
    u = np.asarray(r) / radius
    out = np.zeros_like(u, dtype=float)
    inside = u < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


@pytest.fixture(scope="module")
def ball():
    return ConvexDomain.unit_ball()


@pytest.fixture(scope="module")
def grid(ball):
    return GridSpec(ball, 25, 4, 8, EnergyInterval(0.0, 1.0), 2)


@pytest.fixture(scope="module")
def fine_grid(ball):
    return GridSpec(ball, 81, 2, 4, EnergyInterval(0.0, 1.0), 1)


class TestHNorm:
    def test_constant_value(self, ball, fine_grid):
        f = sample_field(lambda x, w, E: np.ones(len(x)), fine_grid)
        expect = np.sqrt(VOL * 4 * np.pi * 1.0)
        assert abs(nm.h_norm(f, 0) - expect) / expect < 0.01

    def test_constant_all_orders_equal(self, grid):
        f = sample_field(lambda x, w, E: np.full(len(x), 2.0), grid)
        v0 = nm.h_norm(f, 0)
        for m in (1, 2, 3):
            assert nm.h_norm(f, m) == pytest.approx(v0, rel=1e-12)

    def test_linear_field_first_order(self, fine_grid):
        f = sample_field(lambda x, w, E: x[:, 0], fine_grid)
        expect = np.sqrt((X1_SQ + VOL) * 4 * np.pi * 1.0)
        assert abs(nm.h_norm(f, 1) - expect) / expect < 0.01

    def test_monotone_and_homogeneous(self, grid):
        f = sample_field(lambda x, w, E: np.sin(x[:, 0]) * np.cos(2 * x[:, 1]), grid)
        v = [nm.h_norm(f, m) for m in range(3)]
        assert v[0] <= v[1] <= v[2]
        f3 = f.with_values(3.0 * f.values)
        assert nm.h_norm(f3, 2) == pytest.approx(3.0 * v[2], rel=1e-12)


class TestTraceNorm:
    def test_zero_trace(self, grid):
        tr = nm.trace_from_callable(lambda p, w, E: np.zeros(len(p)), grid, BoundarySide.INFLOW)
        assert nm.trace_norm(tr) == 0.0

    def test_constant_inflow_value(self, ball):
        # integral over Gamma'_- of |omega.nu| = (area) * pi; times |I| = 1
        g = GridSpec(ball, 9, 16, 32, EnergyInterval(0.0, 1.0), 2)
        tr = nm.trace_from_callable(lambda p, w, E: np.ones(len(p)), g, BoundarySide.INFLOW, subdivisions=4)
        expect = np.sqrt(4 * np.pi * np.pi)
        assert abs(nm.trace_norm(tr) - expect) / expect < 0.01

    def test_traces_are_stored_direction_major(self, grid):
        # each direction's slab of values and dots is contiguous, and the
        # norms have the bits of those of row-major copies
        f = lambda p, w, E: 1.0 + p[:, 0] * w[2] + E
        fld = sample_field(f, grid)
        for tr in (nm.trace_from_callable(f, grid, BoundarySide.INFLOW),
                   nm.trace_from_grid_field(fld, BoundarySide.INFLOW)):
            n_surf = tr.mesh.points.shape[0]
            assert tr.values.shape == (n_surf, grid.n_omega, grid.n_energy)
            assert tr.dots.shape == (n_surf, grid.n_omega)
            assert tr.dots.tobytes() == (tr.mesh.normals @ grid.sphere_nodes.T).tobytes()
            for j in range(grid.n_omega):
                assert tr.values[:, j, :].flags.c_contiguous and tr.dots[:, j].flags.c_contiguous
            copy = nm.TraceField(np.ascontiguousarray(tr.values), np.ascontiguousarray(tr.dots), tr.mesh, grid,
                                 BoundarySide.INFLOW)
            for weighting in ("plain", "tau"):
                assert nm.trace_norm(tr, weighting) == nm.trace_norm(copy, weighting)

    def test_tau_weighted_bounded_by_diameter(self, grid):
        tr = nm.trace_from_callable(lambda p, w, E: np.ones(len(p)), grid, BoundarySide.INFLOW)
        plain = nm.trace_norm(tr, "plain")
        tau = nm.trace_norm(tr, "tau")
        assert tau <= np.sqrt(grid.domain.diameter) * plain + 1e-12

    def test_empty_trace_raises(self, grid):
        tr = nm.trace_from_callable(lambda p, w, E: np.ones(len(p)), grid, BoundarySide.INFLOW)
        object.__setattr__(tr, "dots", np.abs(tr.dots))
        with pytest.raises(EmptyTrace):
            nm.trace_norm(tr)

    @pytest.mark.parametrize("side", [BoundarySide.INFLOW, BoundarySide.OUTFLOW, None])
    def test_callable_norm_equals_the_norm_of_its_trace(self, grid, side, monkeypatch):
        f = lambda p, w, E: 1.0 + p[:, 0] * w[2] + E
        for subdivisions in (2, 3):
            for weighting in ("plain", "tau"):
                tr = nm.trace_from_callable(f, grid, side, subdivisions)
                assert nm.trace_norm(f, grid, side, subdivisions, weighting=weighting) == \
                    nm.trace_norm(tr, weighting)
        # a mesh whose normals vanish has no inflow or outflow point: both
        # paths raise EmptyTrace there, and agree on the whole boundary
        mesh = nm.triangulate_boundary(grid.domain, 2)
        flat = SurfaceMesh(mesh.points, mesh.areas, np.zeros_like(mesh.normals))
        monkeypatch.setattr(nm, "triangulate_boundary", lambda domain, subdivisions: flat)
        if side is None:
            assert nm.trace_norm(f, grid, side, 2) == nm.trace_norm(nm.trace_from_callable(f, grid, side, 2)) == 0.0
        else:
            for norm in (lambda: nm.trace_norm(f, grid, side, 2),
                         lambda: nm.trace_norm(nm.trace_from_callable(f, grid, side, 2))):
                with pytest.raises(EmptyTrace):
                    norm()

    def test_callable_norm_holds_no_trace(self):
        # the grid of the norms suite's inflow-norm property: its trace
        # values (5120 points x 512 directions x 2 energies) take 42 MB, the
        # one omega . nu product 21 MB
        import tracemalloc

        g = GridSpec(ConvexDomain.unit_ball(), 9, 16, 32, EnergyInterval(0.0, 1.0), 2)
        f = lambda p, w, E: np.ones(len(p))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            value = nm.trace_norm(f, g, BoundarySide.INFLOW, subdivisions=4)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        expect = np.sqrt(4 * np.pi * np.pi)
        assert abs(value - expect) / expect < 0.01
        assert 5120 * 512 * 8 <= peak < 25e6

    def test_callable_is_checked(self, grid):
        with pytest.raises(NonFiniteValue, match=r"field is inf at point \[.*\] \(direction \[.*\], energy 0\)"):
            nm.trace_from_callable(lambda p, w, E: np.where(p[:, 0] > 0.5, np.inf, 1.0), grid, None)
        with pytest.raises(CoefficientShapeError, match=r"field returned shape \(\d+, 1\) for \d+ points"):
            nm.trace_from_callable(lambda p, w, E: np.ones((len(p), 1)), grid, None)


class TestBoundaryHNorm:
    def test_interior_bump_vanishes(self, grid):
        psi = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.5)
        assert nm.boundary_h_norm(psi, grid, 1) < 1e-12

    def test_callable_is_checked(self):
        # an all-NaN psi returned a nan norm
        g = GridSpec(ConvexDomain.unit_ball(), 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
        with pytest.raises(NonFiniteValue, match=r"psi is nan at point \[.*\] \(direction \[.*\], energy 0\)"):
            nm.boundary_h_norm(lambda x, w, E: np.full(len(x), np.nan), g, 1)
        with pytest.raises(CoefficientShapeError, match=r"psi returned shape \((\d+), 1\) for \1 points"):
            nm.boundary_h_norm(lambda x, w, E: np.ones((len(x), 1)), g, 0)

    def test_full_vs_outflow_agree_for_inflow_vanishing(self, ball):
        # field w(exit time) with cutoff: vanishes identically near the
        # inflow closure, so the Gamma_+ sum carries the whole boundary norm
        from raytrans.geometry import escape_times

        g = GridSpec(ball, 17, 6, 12, EnergyInterval(0.0, 1.0), 1)

        def w_cut(t):
            u = (t - 0.5) / 0.3
            out = np.zeros_like(t)
            m = u > 0
            out[m] = np.where(u[m] >= 1.0, 1.0, np.exp(-1.0 / np.maximum(u[m], 1e-300)) /
                              (np.exp(-1.0 / np.maximum(u[m], 1e-300)) + np.exp(-1.0 / np.maximum(1 - u[m], 1e-300))))
            return out

        def clamp(x):
            r = np.linalg.norm(x, axis=1, keepdims=True)
            return x / np.maximum(r, 1.0)

        psi = lambda x, w, E: w_cut(escape_times(ball, clamp(x), w))
        full = 0.0
        m = 1
        # full-boundary sum: reuse the implementation with side selection off
        val_plus = nm.boundary_h_norm(psi, g, m)
        # independent full-boundary evaluation
        from raytrans.fields import multi_indices
        from raytrans.geometry import triangulate_boundary

        mesh = triangulate_boundary(ball, 3)
        dots = mesh.normals @ g.sphere_nodes.T
        tot = 0.0
        for alpha in multi_indices(m):
            for j in range(g.n_omega):
                omega = g.sphere_nodes[j]
                f = lambda p: psi(p, omega, 0.0)
                d = nm._onesided_derivative(f, mesh.points, mesh.normals, alpha, 1e-4)
                w = mesh.areas * np.abs(dots[:, j])
                tot += float(np.sum(w * d**2) * g.sphere_weights[j] * g.energy_weights[0])
        full = np.sqrt(tot)
        assert abs(full**2 - val_plus**2) <= 1e-10 * max(full**2, 1.0)


class TestGreen:
    def test_constant_pair(self, grid):
        one = sample_field(lambda x, w, E: np.ones(len(x)), grid)
        assert abs(nm.green_residual(one, one)) < 1e-10

    def test_coordinate_pair_symmetric_zero(self, grid):
        # terms factor through the odd sphere moment, which the product rule
        # integrates to zero exactly
        p = sample_field(lambda x, w, E: x[:, 0], grid)
        v = sample_field(lambda x, w, E: x[:, 1], grid)
        assert abs(nm.green_residual(p, v)) < 1e-10

    def test_boundary_vanishing_pair_refinement(self, ball):
        # residual decays at order >= 1.8 for omega-weighted polynomial pairs
        # vanishing quadratically at the boundary; traces are exact data
        def psi(x, w, E):
            return (1.0 - np.sum(x * x, axis=1)) ** 2 * (1.0 + 0.5 * w[0])

        def vv(x, w, E):
            return (1.0 - np.sum(x * x, axis=1)) ** 2 * (x[:, 0] + 0.3 * w[2])

        res = []
        for n in (11, 21, 41):
            g = GridSpec(ball, n, 2, 4, EnergyInterval(0.0, 1.0), 1)
            fp = sample_field(psi, g)
            fv = sample_field(vv, g)
            res.append(abs(nm.green_residual(fp, fv, psi_trace=psi, v_trace=vv)))
        orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
        assert np.all(orders >= 1.8) and res[-1] < 1e-3

    def test_traces_are_checked(self):
        g = GridSpec(ConvexDomain.unit_ball(), 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
        one = lambda x, w, E: np.ones(len(x))
        f = sample_field(one, g)
        with pytest.raises(NonFiniteValue, match=r"psi_trace is nan at point \[.*\] \(direction \[.*\], energy 0\)"):
            nm.green_residual(f, f, psi_trace=lambda x, w, E: np.full(len(x), np.nan), v_trace=one)
        with pytest.raises(CoefficientShapeError, match=r"v_trace returned shape \((\d+), 1\) for \1 points"):
            nm.green_residual(f, f, psi_trace=one, v_trace=lambda x, w, E: np.ones((len(x), 1)))

    def test_interior_bumps_tiny_residual(self, ball):
        g = GridSpec(ball, 33, 4, 8, EnergyInterval(0.0, 1.0), 1)
        rng = np.random.default_rng(3)
        for _ in range(3):
            c = rng.uniform(-0.15, 0.15, size=3)
            fp = sample_field(lambda x, w, E: smooth_bump(np.linalg.norm(x - c, axis=1), 0.45), g)
            fv = sample_field(lambda x, w, E: smooth_bump(np.linalg.norm(x + c, axis=1), 0.45), g)
            assert abs(nm.green_residual(fp, fv)) < 1e-8


class TestTraceOfSolutions:
    def test_outflow_trace_of_attenuation_solution_stable(self, ball):
        # the outflow trace of a transport solve has a finite weighted norm
        # that is stable under surface-mesh refinement
        from raytrans.attenuation import RayQuadrature, solve_attenuation_points
        from raytrans.fields import CoefficientSet

        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.8))
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.6)
        psi = lambda xs, w, E: solve_attenuation_points(f, coeffs, ball, xs, w, float(E), RayQuadrature(12, 4))
        g = GridSpec(ball, 9, 4, 8, EnergyInterval(0.0, 1.0), 1)
        vals = []
        for subdiv in (2, 3):
            tr = nm.trace_from_callable(psi, g, BoundarySide.OUTFLOW, subdivisions=subdiv)
            vals.append(nm.trace_norm(tr, "plain"))
        assert np.isfinite(vals).all() and vals[1] > 0
        assert abs(vals[1] - vals[0]) / vals[1] < 0.02


class TestMargin:
    def test_zero_field(self, grid):
        f = sample_field(lambda x, w, E: np.zeros(len(x)), grid)
        eta, ok = nm.h0_margin(f)
        assert eta == grid.domain.diameter and ok

    def test_constant_field_fails(self, grid):
        f = sample_field(lambda x, w, E: np.ones(len(x)), grid)
        eta, ok = nm.h0_margin(f)
        assert eta < 2 * np.mean(grid.h) and not ok

    def test_interior_bump_margin(self, grid):
        f = sample_field(lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.3), grid)
        eta, ok = nm.h0_margin(f)
        assert eta >= 0.7 - 3 * np.mean(grid.h) and ok

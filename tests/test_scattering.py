import sys

import numpy as np
import pytest
from scipy import ndimage, sparse

from raytrans import attenuation as at
from raytrans import csda
from raytrans import scattering as sc
from raytrans.catalog import build_scatter
from raytrans.errors import CoefficientShapeError, NonFiniteValue, ShiftTooSmall
from raytrans.fields import CoefficientSet, EnergyInterval, GridSpec, sample_field
from raytrans.geometry import ConvexDomain, escape_times
from raytrans.norms import h0_margin


def smooth_bump(r, radius):
    u = np.asarray(r) / radius
    out = np.zeros_like(u, dtype=float)
    inside = u < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


ISO = 1.0 / (4.0 * np.pi)


@pytest.fixture(scope="module")
def ball():
    return ConvexDomain.unit_ball()


@pytest.fixture(scope="module")
def grid(ball):
    return GridSpec(ball, 13, 4, 8, EnergyInterval(0.0, 1.0), 2)


@pytest.fixture(scope="module")
def quad():
    return at.RayQuadrature(12, 4)


class TestApplyScatter:
    def test_isotropic_normalization(self, grid):
        scatter = lambda x, wi, wo, E: np.full(len(x), ISO)
        psi = sample_field(lambda x, w, E: np.full(len(x), 3.7), grid)
        v = sc.apply_scatter_grid(scatter, psi).values
        assert np.max(np.abs(v - 3.7)) <= 1e-12

    def test_linear_anisotropy_moment(self, grid):
        # kernel (1 + w.w')/4pi against psi = w'.e3 integrates to (w.e3)/3
        scatter = lambda x, wi, wo, E: ISO * (1.0 + x[:, 0] * 0.0 + wi @ wo)
        psi_fn = lambda x, w, E: np.full(len(x), w[2])
        for j in (0, 3, grid.n_omega - 1):
            omega = grid.sphere_nodes[j]
            v = sc.apply_scatter(scatter, psi_fn, grid.coords, omega, 0.0, grid)
            assert v.shape == (grid.n_interior,)
            assert np.max(np.abs(v - omega[2] / 3.0)) <= 1e-12

    def test_high_order_quadrature_oracle(self, ball):
        # same moment against a much finer product rule
        fine = GridSpec(ball, 5, 24, 48, EnergyInterval(0.0, 1.0), 1)
        scatter = lambda x, wi, wo, E: np.full(len(x), ISO * (1.0 + wi @ wo))
        psi_fn = lambda x, w, E: np.full(len(x), w[2])
        omega = fine.sphere_nodes[7]
        v = sc.apply_scatter(scatter, psi_fn, fine.coords, omega, 0.0, fine)
        assert np.max(np.abs(v - omega[2] / 3.0)) <= 1e-12

    def test_zero_field(self, grid):
        scatter = lambda x, wi, wo, E: np.full(len(x), ISO)
        psi = sample_field(lambda x, w, E: np.zeros(len(x)), grid)
        assert np.all(sc.apply_scatter_grid(scatter, psi).values == 0.0)

    def test_batched_equals_grid_apply_at_nodes(self, grid):
        scatter = lambda x, wi, wo, E: ISO * (1.0 + 0.4 * (wi @ wo) + 0.3 * E) \
            * smooth_bump(np.linalg.norm(x - 0.2 * wo, axis=1), 0.8)
        psi_fn = lambda x, w, E: np.cos(x[:, 1]) + 0.5 * w[2] + x[:, 0] * E
        on_grid = sc.apply_scatter_grid(scatter, sample_field(psi_fn, grid)).values
        assert np.max(np.abs(on_grid)) > 0.1
        for j in range(grid.n_omega):
            for k, E in enumerate(grid.energy_nodes):
                v = sc.apply_scatter(scatter, psi_fn, grid.coords, grid.sphere_nodes[j], float(E), grid)
                assert np.max(np.abs(v - on_grid[:, j, k])) <= 1e-15

    def test_scalar_kernel_and_named_errors(self, grid):
        psi_fn = lambda x, w, E: np.ones(len(x))
        v = sc.apply_scatter(lambda x, wi, wo, E: ISO, psi_fn, grid.coords[:4], grid.sphere_nodes[0], 0.0, grid)
        assert np.max(np.abs(v - 1.0)) <= 1e-15
        with pytest.raises(CoefficientShapeError, match=r"kernel returned shape \(4, 1\) for 4 points "
                                                        r"\(in-direction \[.*\], out-direction \[.*\], energy 0\)"):
            sc.apply_scatter(lambda x, wi, wo, E: np.ones((len(x), 1)), psi_fn, grid.coords[:4],
                             grid.sphere_nodes[0], 0.0, grid)

        def kernel(x, wi, wo, E):
            out = np.full(len(x), ISO)
            out[2] = np.inf
            return out

        with pytest.raises(NonFiniteValue, match=r"kernel is inf at point \[.*\] \(in-direction"):
            sc.apply_scatter(kernel, psi_fn, grid.coords[:4], grid.sphere_nodes[0], 0.0, grid)

    def test_linear_and_monotone(self, grid):
        scatter = lambda x, wi, wo, E: ISO * (1.0 + 0.3 * wi @ wo)
        a = sample_field(lambda x, w, E: 1.0 + 0.2 * x[:, 0] + 0.1 * w[2], grid)
        b = sample_field(lambda x, w, E: np.cos(x[:, 1]) + 0.4 * w[0], grid)
        Ka = sc.apply_scatter_grid(scatter, a)
        Kb = sc.apply_scatter_grid(scatter, b)
        comb = a.with_values(2.0 * a.values - 0.5 * b.values)
        Kc = sc.apply_scatter_grid(scatter, comb)
        assert np.allclose(Kc.values, 2.0 * Ka.values - 0.5 * Kb.values, atol=1e-13)
        pos = sample_field(lambda x, w, E: np.ones(len(x)) + 0.5 * w[2], grid)
        assert np.all(sc.apply_scatter_grid(scatter, pos).values >= 0.0)


def _sampled_bound(scatter, grid, max_x_samples):
    """The m = 0 ``scatter_norm_bound`` before the column bound: kernel calls
    at no more than ``max_x_samples`` evenly spaced interior nodes, frozen
    as the reference."""
    g = grid
    idx = np.unique(np.linspace(0, g.n_interior - 1, min(max_x_samples, g.n_interior)).astype(int))
    xs = g.coords[idx]
    n1 = n2 = 0.0
    for k in range(g.n_energy):
        E = float(g.energy_nodes[k])
        for j in range(g.n_omega):
            acc_in = np.zeros(len(xs))
            acc_out = np.zeros(len(xs))
            for jp in range(g.n_omega):
                acc_in += g.sphere_weights[jp] * np.abs(np.asarray(
                    scatter(xs, g.sphere_nodes[jp], g.sphere_nodes[j], E), dtype=float))
                acc_out += g.sphere_weights[jp] * np.abs(np.asarray(
                    scatter(xs, g.sphere_nodes[j], g.sphere_nodes[jp], E), dtype=float))
            n1 = max(n1, float(np.max(acc_in)))
            n2 = max(n2, float(np.max(acc_out)))
    return np.sqrt(n1 * n2)


# off-centre kernels that 200 evenly spaced nodes of the 13^3 grid of
# configs/scattering_ball.json miss almost entirely
OFF_CENTRE = [(0.2, [0.0, 0.5, 0.4]), (0.12, [0.3, -0.3, 0.3])]


class TestNormBound:
    def test_zero_kernel(self, grid):
        assert sc.scatter_norm_bound(lambda x, wi, wo, E: np.zeros(len(x)), grid) == 0.0

    def test_isotropic_unit(self, grid):
        v = sc.scatter_norm_bound(lambda x, wi, wo, E: np.full(len(x), ISO), grid)
        assert v == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kernel", ["centred", "anisotropic", "off_centre_0", "off_centre_1"])
    def test_column_bound_equals_sampling_every_node(self, ball, kernel):
        g = GridSpec(ball, 13, 2, 4, EnergyInterval(0.0, 1.0), 2)
        if kernel == "centred":
            kern = build_scatter({"name": "isotropic_bump", "sigma_s": 0.5, "radius": 0.7})
        elif kernel == "anisotropic":
            kern = lambda x, wi, wo, E: ISO * (1.0 + 0.6 * (wi @ wo) - 0.3 * E) * smooth_bump(
                np.linalg.norm(x - 0.2 * wo, axis=1), 0.6)
        else:
            radius, center = OFF_CENTRE[int(kernel[-1])]
            kern = build_scatter({"name": "isotropic_bump", "sigma_s": 0.5,
                                  "radius": radius, "center": center})
        bound = sc.scatter_norm_bound(kern, g)
        assert bound > 0.0
        assert bound == _sampled_bound(kern, g, g.n_interior)

    @pytest.mark.parametrize("radius, center", OFF_CENTRE)
    def test_off_centre_kernel_below_true_threshold_raises(self, ball, quad, radius, center):
        g = GridSpec(ball, 13, 4, 8, EnergyInterval(0.0, 1.0), 1)
        kern = build_scatter({"name": "isotropic_bump", "sigma_s": 0.5,
                              "radius": radius, "center": center})
        sampled, exact = _sampled_bound(kern, g, 200), sc.scatter_norm_bound(kern, g)
        assert sampled < 1e-6 and exact > 0.3
        # above the sampled threshold 0.1 + sampled, below the true one
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.1), scatter=kern,
                                shift=0.1 + 0.5 * (sampled + exact))
        assert sc.solvability_threshold(coeffs, g) == 0.1 + exact
        with pytest.raises(ShiftTooSmall):
            sc.solve_scattering(lambda x, w, E: np.ones(len(x)), coeffs, g, quad)

    def test_bound_dominates_observed_norm(self, ball):
        # discrete operator norm at each (x, E) via weighted SVD, compared
        # with the constructive bound, for random nonnegative kernels
        g = GridSpec(ball, 7, 4, 8, EnergyInterval(0.0, 1.0), 1)
        rng = np.random.default_rng(7)
        sq = np.sqrt(g.sphere_weights)
        for _ in range(10):
            a0 = rng.uniform(0.05, 0.5)
            a1 = rng.uniform(0.0, a0)  # keeps the kernel nonnegative
            r0 = rng.uniform(0.4, 0.9)
            kern = lambda x, wi, wo, E: (a0 + a1 * (wi @ wo)) * ISO \
                * (1.0 + np.cos(np.pi * np.linalg.norm(x, axis=1) / r0)) / 2.0
            bound = sc.scatter_norm_bound(kern, g)
            observed = 0.0
            for i in range(0, g.n_interior, 7):
                M = np.empty((g.n_omega, g.n_omega))
                for jin in range(g.n_omega):
                    M[:, jin] = g.sphere_weights[jin] * np.array([
                        kern(g.coords[i].reshape(1, 3), g.sphere_nodes[jin], g.sphere_nodes[jo], 0.0)[0]
                        for jo in range(g.n_omega)
                    ])
                W = sq[:, None] * M / sq[None, :]
                observed = max(observed, float(np.linalg.svd(W, compute_uv=False)[0]))
            assert observed <= bound * (1.0 + 1e-9)


class TestKernelPath:
    def test_kernel_is_called_only_through_the_shared_function(self, ball, quad):
        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 0.2), 2)
        callers = []

        def kern(x, wi, wo, E):
            # the caller, or the caller of a kernel that only forwards to this one
            up = sys._getframe(1)
            callers.append(up.f_code.co_name if up.f_code.co_name == "_kernel_values"
                           else (up.f_code.co_name, up.f_back.f_code.co_name))
            return 0.4 * ISO * (1.0 + E) * smooth_bump(np.linalg.norm(x, axis=1), 0.6)

        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3), scatter=kern, shift=1.0,
                                stopping=lambda x, E: -np.ones(len(np.atleast_2d(x))), kappa=1.0)
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.5)
        sc.solve_scattering(f, coeffs, g, quad, tol=1e-10)
        # the threshold and the solve share the cached kernel columns
        assert len(callers) == g.n_energy * g.n_omega ** 2
        sc.scatter_norm_bound(kern, g)
        sc.apply_scatter_grid(kern, sample_field(f, g))
        sc.apply_scatter(kern, f, g.coords, g.sphere_nodes[0], 0.0, g)
        sc.solve_with_inflow(f, lambda y, w, E: np.ones(len(y)), coeffs, g, quad, tol=1e-8)
        four_energies = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 0.2), 4)
        csda.compatibility_check(lambda y, w, E: np.zeros(len(y)), f, 2, four_energies, coeffs)
        csda.kr_energy_derivative_gap(kern, kern, g, lambda x, w: np.ones(len(x)), 0.1, 0.05)
        csda.march_energy(f, coeffs, g, quad, dE=0.1)
        assert set(callers) == {"_kernel_values", ("quotient", "_kernel_values"),
                                ("scatter_eff", "_kernel_values")}


class TestSolveScattering:
    def test_no_kernel_equals_attenuation(self, ball, grid, quad):
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: 0.5 + 0.2 * x[:, 0], shift=1.0)
        f = lambda x, w, E: 1.0 + 0.3 * x[:, 1] + 0.1 * E
        psi, rep = sc.solve_scattering(f, coeffs, grid, quad, tol=1e-12)
        ref = at.solve_attenuation_grid(f, coeffs, grid, quad)
        assert np.max(np.abs(psi.values - ref.values)) < 1e-12
        assert rep.converged

    def test_shift_too_small(self, ball, grid, quad):
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.3),
            scatter=lambda x, wi, wo, E: np.full(len(x), 0.5 * ISO),
            shift=0.7,
        )
        with pytest.raises(ShiftTooSmall):
            sc.solve_scattering(lambda x, w, E: np.ones(len(x)), coeffs, grid, quad)

    def test_contraction_rate(self, ball, quad):
        # isotropic sigma_s = 0.5 inside an interior ball, Sigma + C = 1
        g = GridSpec(ball, 13, 4, 8, EnergyInterval(0.0, 1.0), 1)
        sigma_s = lambda x: 0.5 * smooth_bump(np.linalg.norm(x, axis=1), 0.75)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.1),
            scatter=lambda x, wi, wo, E: ISO * sigma_s(x),
            shift=0.9,
        )
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.6)
        psi, rep = sc.solve_scattering(f, coeffs, g, quad, tol=1e-9, max_iter=80)
        ratios = [b / a for a, b in zip(rep.residual_history[1:-1], rep.residual_history[2:-1])]
        assert rep.converged
        assert max(ratios) <= 0.55
        assert rep.estimated_rate <= 0.55

    def test_max_iterations_carries_report(self, ball, quad):
        from raytrans.errors import MaxIterationsExceeded

        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.1),
            scatter=lambda x, wi, wo, E: 0.3 * ISO * smooth_bump(np.linalg.norm(x, axis=1), 0.6),
            shift=1.0,
        )
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.5)
        with pytest.raises(MaxIterationsExceeded) as err:
            sc.solve_scattering(f, coeffs, g, quad, tol=1e-14, max_iter=2)
        assert err.value.report.iterations == 2
        assert len(err.value.report.residual_history) == 2

    def test_cache_budgets_do_not_change_the_answer(self, ball, quad, monkeypatch):
        g = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 1.0), 2)
        sigma_s = lambda x: 0.5 * smooth_bump(np.linalg.norm(x, axis=1), 0.75)
        kernel_calls = []

        def kernel(x, wi, wo, E):
            kernel_calls.append(E)
            return ISO * (1.0 + 0.5 * (wi @ wo) + 0.2 * E) * sigma_s(x)

        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.1), scatter=kernel, shift=0.9)
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x - 0.1 * w, axis=1), 0.6)
        cached, rep_cached = sc.solve_scattering(f, coeffs, g, quad, tol=1e-9)
        # at 4 MiB some directions keep their operator and the others stream
        monkeypatch.setattr(sc, "_CACHE_BYTES", 4 * 2**20)
        part, rep_part = sc.solve_scattering(f, coeffs, g, quad, tol=1e-9)
        assert rep_part.cache == dict(operators_built=6, operators_reused=6, operator_entries=334344,
                                      operator_bytes=3366720, sweeps_rebuilt=44, ray_nodes=979888,
                                      ray_weights_reused=8, kernel_columns=16)
        monkeypatch.setattr(sc, "_CACHE_BYTES", 0)
        clamps = []
        kernel_clamp = sc._kernel_clamp
        monkeypatch.setattr(sc, "_kernel_clamp", lambda *args: clamps.append(1) or kernel_clamp(*args))
        kernel_calls.clear()
        uncached, rep_uncached = sc.solve_scattering(f, coeffs, g, quad, tol=1e-9)
        # a streamed sweep unpacks the clamp bits of its set-up: the kernel
        # is called for the threshold, the 16 set-up clamps and each
        # collision apply (128 calls each), never again for a clamp
        assert len(clamps) == g.n_omega * g.n_energy == 16
        assert len(kernel_calls) == (2 + rep_uncached.iterations) * g.n_energy * g.n_omega ** 2 == 1792
        assert np.array_equal(cached.values, part.values)
        assert np.array_equal(cached.values, uncached.values)
        assert rep_cached.iterations == rep_part.iterations == rep_uncached.iterations
        n_sweeps = g.n_omega * g.n_energy
        reused = g.n_omega * (g.n_energy - 1)
        # sigma ignores E and the kernel rows do not move with E: one weight
        # set and one operator per direction serve both energies
        assert rep_cached.cache["operators_built"] == g.n_omega
        assert rep_cached.cache["operators_reused"] == rep_cached.cache["ray_weights_reused"] == reused
        assert rep_cached.cache["sweeps_rebuilt"] == 0
        # with no budget nothing is kept, so no operator is built or reused;
        # the first iterate is zero, and a zero slab is not swept
        assert rep_uncached.cache == dict(operators_built=0, operators_reused=0, operator_entries=0,
                                          operator_bytes=0, sweeps_rebuilt=176, ray_nodes=3467296,
                                          ray_weights_reused=0,
                                          kernel_columns=len(kernel_calls) // g.n_omega)
        assert rep_uncached.cache["sweeps_rebuilt"] == n_sweeps * (rep_uncached.iterations - 1)
        # nodes are placed once per direction, and again for every rebuilt sweep
        assert rep_uncached.cache["ray_nodes"] == \
            rep_cached.cache["ray_nodes"] * (1 + g.n_energy * (rep_uncached.iterations - 1))

    def test_march_over_budget_streams_its_sweeps(self, ball, quad, monkeypatch):
        grid = GridSpec(ball, 13, 2, 4, EnergyInterval(0.0, 0.3), 3)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.4),
            scatter=lambda x, wi, wo, E: 0.5 * ISO * smooth_bump(np.linalg.norm(x, axis=1), 0.5),
            stopping=lambda x, E: -np.ones(len(np.atleast_2d(x))), kappa=1.0, shift=0.0,
        )
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.45) * (1.0 + 0.8 * np.cos(3.0 * E))
        calls = _spy_sweeps(monkeypatch)
        # the march's cache counts and (sweep_operator calls, operators it
        # completed, sweep calls) at each budget: within budget nothing is
        # rebuilt; at 4 MiB some directions keep their weights or operators.
        # The first step's lattice source and first iterate are zero, and a
        # zero slab is not swept; within budget each direction then builds
        # one kernel and one lattice-source operator and keeps them
        expected = {
            sc._CACHE_BYTES: (dict(operators_built=16, operators_reused=72, operator_entries=1593088,
                                   operator_bytes=16036864, sweeps_rebuilt=0, ray_nodes=1655904,
                                   ray_weights_reused=40, kernel_columns=48), (16, 16, 0)),
            4 * 2**20: (dict(operators_built=2, operators_reused=10, operator_entries=172522,
                             operator_bytes=1737316, sweeps_rebuilt=322, ray_nodes=11375128,
                             ray_weights_reused=20, kernel_columns=48), (34, 2, 322)),
            0: (dict(operators_built=0, operators_reused=0, operator_entries=0,
                     operator_bytes=0, sweeps_rebuilt=416, ray_nodes=14627152,
                     ray_weights_reused=0, kernel_columns=432), (0, 0, 416)),
        }
        # with no budget, the 6 steps place each direction's nodes once, and
        # only a streamed kernel sweep places them again: the 40 lattice
        # sources of steps 2-6 stream through the ray systems of set-up
        per_step = expected[sc._CACHE_BYTES][0]["ray_nodes"] // 6
        kernel_streams = expected[0][0]["sweeps_rebuilt"] - grid.n_omega * 5
        assert expected[0][0]["ray_nodes"] == per_step * (6 + kernel_streams // grid.n_omega)
        fields = []
        for budget, (counts, spied) in expected.items():
            monkeypatch.setattr(sc, "_CACHE_BYTES", budget)
            calls.update(sweep_operator=0, completed=[], sweep=0)
            phi, rep = csda.march_energy(f, coeffs, grid, quad, dE=0.05, tol=1e-12)
            fields.append(phi.values)
            assert rep.inner_iterations == 48
            assert rep.cache == counts
            assert (calls["sweep_operator"], len(calls["completed"]), calls["sweep"]) == spied
        assert all(np.array_equal(fields[0], other) for other in fields[1:])

    def test_kernel_sweep_and_lattice_source_share_one_operator(self, ball, quad, monkeypatch):
        # an isotropic kernel is non-zero on every interior node, so its
        # clamp has the bits of ``lattice_clamp``: each direction's weight
        # set builds one operator and serves its kernel sweeps and its
        # lattice sources with it
        grid = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 0.3), 3)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.4),
            scatter=build_scatter({"name": "isotropic", "sigma_s": 0.3}),
            stopping=lambda x, E: -np.ones(len(np.atleast_2d(x))), kappa=1.0, shift=0.0,
        )
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.45) * (1.0 + 0.8 * np.cos(3.0 * E))
        served = []
        operator = sc.SweepCache._operator

        def spied(cache, ws, system, clamp, counts):
            op = operator(cache, ws, system, clamp, counts)
            served.append((ws, clamp is cache.lattice_clamp, op))
            return op

        monkeypatch.setattr(sc.SweepCache, "_operator", spied)
        phi, rep = csda.march_energy(f, coeffs, grid, quad, dE=0.1, tol=1e-12)
        assert rep.cache["operators_built"] == grid.n_omega
        sets = {id(ws): ws for ws, _, _ in served}
        assert len(sets) == grid.n_omega
        for ws in sets.values():
            [op] = ws.ops.values()
            assert {(lattice, id(got)) for w, lattice, got in served if w is ws} == \
                {(False, id(op)), (True, id(op))}
        monkeypatch.setattr(sc, "_CACHE_BYTES", 0)
        streamed, rep_streamed = csda.march_energy(f, coeffs, grid, quad, dE=0.1, tol=1e-12)
        assert rep_streamed.cache["operators_built"] == 0
        assert rep_streamed.step_iterations == rep.step_iterations
        assert np.array_equal(phi.values, streamed.values)

    def test_set_up_keeps_every_operator_it_completes(self, ball, quad, monkeypatch):
        # the cache builds an operator only to keep it: the build stops at
        # the first chunk over budget, and the kernel sweep or lattice-source
        # operator that does not fit streams through ``RaySystem.sweep``
        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 2)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: 0.2 + 0.1 * E + 0.1 * x[:, 0],
            scatter=lambda x, wi, wo, E: 0.4 * ISO * smooth_bump(np.linalg.norm(x, axis=1), 0.7),
            shift=1.0,
        )
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x - 0.1 * w, axis=1), 0.6)
        bump = smooth_bump(np.linalg.norm(g.coords, axis=1), 0.5)
        lattice = bump[:, None, None] * np.linspace(0.5, 1.5, g.n_omega * g.n_energy).reshape(
            1, g.n_omega, g.n_energy)
        calls = _spy_sweeps(monkeypatch)
        fields = []
        for budget, n_kept in ((sc._CACHE_BYTES, 32), (2 * 2**20, 8), (0, 0)):
            monkeypatch.setattr(sc, "_CACHE_BYTES", budget)
            calls.update(sweep_operator=0, completed=[], sweep=0)
            cache = sc.SweepCache(g, quad, across_solves=False)
            psi, rep = sc.solve_scattering(f, coeffs, g, quad, tol=1e-10, grid_source=lattice, cache=cache)
            fields.append(psi.values)
            sets = [ws for sets in cache._sets.values() for ws in sets]
            kept = [op for ws in sets for op in ws.ops.values()]
            assert len(kept) == n_kept
            assert sorted(map(id, calls["completed"])) == sorted(map(id, kept))
            assert rep.cache["operators_built"] == len(kept)
            # one sweep per streamed lattice source and kernel sweep
            assert calls["sweep"] == rep.cache["sweeps_rebuilt"]
        # with no budget every lattice source streams, and so does every
        # kernel sweep after the first iterate's zero slabs
        n_sweeps = g.n_omega * g.n_energy
        assert rep.cache["sweeps_rebuilt"] == n_sweeps + n_sweeps * (rep.iterations - 1)
        assert calls["sweep_operator"] == 0
        assert all(np.array_equal(fields[0], other) for other in fields[1:])

    @pytest.mark.parametrize("sigma_has_E", [False, True])
    def test_energy_nodes_share_ray_nodes_and_weights(self, ball, quad, monkeypatch, ray_system,
                                                      sigma_has_E):
        g = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 1.0), 3)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: 0.3 + 0.1 * x[:, 0] + (0.1 * E if sigma_has_E else 0.0),
            scatter=lambda x, wi, wo, E: ISO * (0.4 + 0.1 * E) * smooth_bump(
                np.linalg.norm(x, axis=1), 0.7),
            shift=1.0,
        )
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x - 0.1 * w, axis=1), 0.6) * (1.0 + E)
        psi, rep = sc.solve_scattering(f, coeffs, g, quad, tol=1e-10)
        per_pair = sum(ray_system(coeffs, ball, g.coords, g.sphere_nodes[j], float(E), quad,
                                  T=g.escape_cache()[:, j]).n_nodes
                       for j in range(g.n_omega) for E in g.energy_nodes)
        assert 3 * rep.cache["ray_nodes"] == per_pair
        reused = 0 if sigma_has_E else 2 * g.n_omega
        assert rep.cache["ray_weights_reused"] == rep.cache["operators_reused"] == reused
        # every (direction, energy) building its own weights and operator
        monkeypatch.setattr(sc._WeightSet, "matches", lambda self, sigma: False)
        ref, rep_ref = sc.solve_scattering(f, coeffs, g, quad, tol=1e-10)
        assert rep_ref.cache["ray_weights_reused"] == rep_ref.cache["operators_reused"] == 0
        assert rep_ref.cache["operators_built"] == g.n_omega * g.n_energy
        assert rep_ref.iterations == rep.iterations
        assert np.array_equal(psi.values, ref.values)

    def test_non_finite_sigma_fails_before_the_solve_returns(self, ball, quad):
        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 2)

        def sigma(x, w, E):
            out = np.full(len(x), 0.3)
            if E > 0.5:
                out[len(x) // 2] = np.nan
            return out

        calls = []
        f = lambda x, w, E: calls.append(E) or np.ones(len(x))
        coeffs = CoefficientSet(sigma_t=sigma, shift=1.0)
        with pytest.raises(NonFiniteValue, match=r"sigma is nan at ray node \[.*\] \(direction \[.*\], energy 1\)"):
            sc.solve_scattering(f, coeffs, g, quad, check_threshold=False)
        # the source was integrated at the first energy node only
        assert calls and set(calls) == {0.0}

    def test_non_finite_sigma_is_named_by_the_threshold(self, ball, quad):
        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), np.nan), shift=1.0)
        with pytest.raises(NonFiniteValue, match=r"sigma is nan at grid node \[.*\] \(direction \[.*\], energy 0\)"):
            sc.solve_scattering(lambda x, w, E: np.ones(len(x)), coeffs, g, quad)

    def test_sigma_of_wrong_shape_is_named(self, ball, quad):
        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full((len(x), 1), 0.3), shift=1.0)
        with pytest.raises(CoefficientShapeError, match=r"shape \(\d+, 1\) for \d+ ray nodes"):
            sc.solve_scattering(lambda x, w, E: np.ones(len(x)), coeffs, g, quad)

    def test_cache_of_an_equal_quadrature_serves(self, ball):
        # equal quadratures compared their reference arrays, so a cache made
        # with a distinct but equal one ended in numpy's ambiguous truth value
        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 2)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.3),
            scatter=lambda x, wi, wo, E: 0.4 * ISO * smooth_bump(np.linalg.norm(x, axis=1), 0.6),
            shift=1.0,
        )
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.5)
        cache = sc.SweepCache(g, at.RayQuadrature(8, 2))
        psi, _ = sc.solve_scattering(f, coeffs, g, at.RayQuadrature(8, 2), tol=1e-10, cache=cache)
        ref, _ = sc.solve_scattering(f, coeffs, g, at.RayQuadrature(8, 2), tol=1e-10)
        assert np.array_equal(psi.values, ref.values)
        with pytest.raises(ValueError, match="another grid or quadrature"):
            sc.solve_scattering(f, coeffs, g, at.RayQuadrature(8, 3), cache=cache)

    def test_output_keeps_support_margin(self, ball, quad):
        g = GridSpec(ball, 21, 4, 8, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.2),
            scatter=lambda x, wi, wo, E: 0.4 * ISO * smooth_bump(np.linalg.norm(x, axis=1), 0.35),
            shift=1.0,
        )
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.35)
        psi, _ = sc.solve_scattering(f, coeffs, g, quad, tol=1e-10)
        eta, ok = h0_margin(psi)
        assert ok and eta > 0.25


def _spy_sweeps(monkeypatch) -> dict:
    """Counts of the ``RaySystem.sweep_operator`` and ``RaySystem.sweep``
    calls from now on, with the operators the former completed."""
    calls = {"sweep_operator": 0, "completed": [], "sweep": 0}
    build, sweep = at.RaySystem.sweep_operator, at.RaySystem.sweep

    def spied_build(*args):
        calls["sweep_operator"] += 1
        op = build(*args)
        if op is not None:
            calls["completed"].append(op)
        return op

    def spied_sweep(*args):
        calls["sweep"] += 1
        return sweep(*args)

    monkeypatch.setattr(at.RaySystem, "sweep_operator", spied_build)
    monkeypatch.setattr(at.RaySystem, "sweep", spied_sweep)
    return calls


def _kernel_sweep(grid, coeffs, quad, j, k, slab_rng):
    """Operator and direct sweep of a random slab on the kernel's non-zero
    rows at (k, j), as ``solve_scattering`` builds them.  The streamed sweep
    of an operator over budget equals its apply bit for bit, and a build
    capped at fewer bytes than the operator's ``nbytes`` stops with None."""
    applier = sc._KernelApplier(coeffs.scatter, grid)
    rows = applier.column(k, j)[0]
    cache = sc.SweepCache(grid, quad)
    system, _ = cache.system(j, cache.nodes(j), coeffs, float(grid.energy_nodes[k]), sc._cache_counts())
    clamp = sc._kernel_clamp(applier, j, k)
    op = system.sweep_operator(grid, clamp)
    assert system.sweep_operator(grid, clamp, op.nbytes).nbytes == op.nbytes
    assert system.sweep_operator(grid, clamp, op.nbytes - 1) is None
    slab = np.zeros(grid.n_interior)
    slab[rows] = slab_rng.uniform(0.5, 1.5, rows.size)
    coef = ndimage.spline_filter(grid.embed(slab), order=3, mode="constant")
    fast = op.apply(coef)
    assert np.array_equal(system.sweep(grid, clamp, coef), fast)
    return op, fast, system.integrate_interp(sc._grid_interp_factory(grid, slab))


class TestSweepOperator:
    # The operator reorders the sums of the direct sweep; both see the same
    # spline taps and ray weights, so they agree to round-off.
    REL_TOL = 1e-13

    def test_interpolant_clamp_equals_map_coordinates(self, ball):
        g = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 1.0), 1)
        rng = np.random.default_rng(11)
        top = np.array(g.shape) - 1
        for _ in range(4):
            slab = np.where(rng.random(g.n_interior) < 0.2, rng.normal(size=g.n_interior), 0.0)
            # lattice coordinates over and beyond the box, a quarter on half-integers
            c = rng.uniform(-1.0, top + 1.0, size=(20000, 3))
            c[:5000] = np.round(2.0 * c[:5000]) / 2.0
            pts = g.origin + c * g.h
            box = g.embed(slab)
            filt = ndimage.spline_filter(box, order=3, mode="constant")
            coords = ((pts - g.origin) / g.h).T
            old = ndimage.map_coordinates(filt, coords, order=3, prefilter=False,
                                          mode="constant", cval=0.0) \
                * ndimage.map_coordinates(sc._support_clamp(box != 0.0).astype(np.uint8), coords,
                                          order=0, mode="constant", cval=0)
            new = sc._grid_interp_factory(g, slab)(pts)
            assert np.count_nonzero(new) > 0
            assert np.array_equal(new, old)

    def test_operator_matches_direct_sweep(self, ball, quad, monkeypatch, ray_system):
        g = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 1.0), 2)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: 0.3 + 0.2 * x[:, 0] + 0.1 * E,
            scatter=lambda x, wi, wo, E: ISO * (1.0 + 0.3 * wo[2]) * smooth_bump(
                np.linalg.norm(x - 0.2 * wo, axis=1), 0.55 + 0.1 * E),
            shift=1.0,
        )
        rng = np.random.default_rng(3)
        for j, k in [(0, 0), (3, 1), (5, 0), (7, 1)]:
            op, fast, direct = _kernel_sweep(g, coeffs, quad, j, k, rng)
            assert op.cols.dtype == np.uint16
            assert np.max(np.abs(direct)) > 0.1
            assert np.max(np.abs(fast - direct)) <= self.REL_TOL * np.max(np.abs(direct))
        system = ray_system(coeffs, ball, g.coords, g.sphere_nodes[0], 0.0, quad)
        nothing = np.zeros(g.shape, dtype=bool)
        empty = system.sweep_operator(g, nothing)
        assert empty.nbytes == 0
        assert np.array_equal(empty.apply(np.ones(g.shape)), np.zeros(g.n_interior))
        assert np.array_equal(system.sweep(g, nothing, np.ones(g.shape)), np.zeros(g.n_interior))
        # many chunks per panel-count group, each writing its own points
        monkeypatch.setattr(at, "_OPERATOR_CHUNK", 7)
        _kernel_sweep(g, coeffs, quad, 3, 1, rng)

    def test_one_lattice_operator_per_weight_set(self, ball, quad, monkeypatch):
        g = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: 0.3 + 0.2 * x[:, 0], shift=1.0)
        r = np.linalg.norm(g.coords, axis=1)
        clamp = sc._support_clamp(g.mask).astype(np.uint8)
        # empty, growing, repeated, growing, shrinking, empty, growing supports
        radii = [0.0, 0.3, 0.5, 0.5, 0.9, 0.4, 0.0, 0.6]
        calls = _spy_sweeps(monkeypatch)

        def reference(system, slab):
            # the cubic spline of the slab, clamped to the whole mask's clamp
            filt = ndimage.spline_filter(g.embed(slab), order=3, mode="constant")

            def interp(pts):
                c = ((pts - g.origin) / g.h).T
                return ndimage.map_coordinates(filt, c, order=3, prefilter=False,
                                               mode="constant", cval=0.0) \
                    * ndimage.map_coordinates(clamp, c, order=0, mode="constant", cval=0)
            return system.integrate_interp(interp)

        def march(budget):
            monkeypatch.setattr(sc, "_CACHE_BYTES", budget)
            cache = sc.SweepCache(g, quad)
            rng = np.random.default_rng(9)
            for radius in radii:
                for j in (0, 3):
                    counts = sc._cache_counts()
                    slab = np.where(r < radius, rng.uniform(0.5, 1.5, g.n_interior), 0.0)
                    system, ws = cache.system(j, cache.nodes(j), coeffs, 0.0, counts)
                    calls.update(sweep_operator=0, completed=[], sweep=0)
                    out = cache.sweep(ws, system, cache.lattice_clamp, counts)(slab)
                    if radius == 0.0:
                        # a zero slab: exact zeros, nothing built or applied
                        assert np.array_equal(out, np.zeros(g.n_interior))
                        assert calls == dict(sweep_operator=0, completed=[], sweep=0)
                        assert counts["operators_built"] == counts["operators_reused"] == 0
                    else:
                        ref = reference(system, slab)
                        assert np.max(np.abs(out - ref)) <= self.REL_TOL * np.max(np.abs(ref))
                    yield radius, counts, ws
                cache.end_setup()
            kept = sum(ws.nbytes for sets in cache._sets.values() for ws in sets)
            assert cache.budget.left == budget - kept

        # within budget, the first non-zero slab of each direction builds
        # the one operator its weight set keeps; every later slab applies it
        first = radii.index(0.3)
        for i, (radius, counts, ws) in enumerate(march(sc._CACHE_BYTES)):
            built = i // 2 == first
            assert counts["operators_built"] == built
            assert counts["operators_reused"] == (i // 2 > first and radius > 0.0)
            assert (calls["sweep_operator"], len(calls["completed"])) == (built, built)
            assert calls["sweep"] == counts["sweeps_rebuilt"] == 0
            assert counts["ray_weights_reused"] == (i >= 2)
            assert ws.kept and len(ws.ops) == (i // 2 >= first)
        # over budget, every non-zero slab streams its operator, and the
        # weight set holds nothing
        for radius, counts, ws in march(0):
            assert counts["sweeps_rebuilt"] == calls["sweep"] == (radius > 0.0)
            assert calls["sweep_operator"] == 0
            assert counts["ray_weights_reused"] == 0
            assert not ws.kept and not ws.ops and ws.nbytes == 0

    def test_cache_keeps_the_sets_the_last_solve_used(self, ball, quad, ray_system):
        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
        cache = sc.SweepCache(g, quad)
        slab = np.where(np.linalg.norm(g.coords, axis=1) < 0.5, 1.0, 0.0)
        for a0 in (0.3, 0.3, 0.4, 0.4, 0.3):
            # one march step per a0: sigma changes at the third and fifth
            coeffs = CoefficientSet(sigma_t=lambda x, w, E, a0=a0: a0 + 0.1 * x[:, 1], shift=1.0)
            counts = sc._cache_counts()
            for j in range(g.n_omega):
                system, ws = cache.system(j, cache.nodes(j), coeffs, 0.0, counts)
                fresh = ray_system(coeffs, ball, g.coords, g.sphere_nodes[j], 0.0, quad,
                                   T=g.escape_cache()[:, j])
                for (sel, flat, w), (sel_f, flat_f, w_f) in zip(system.groups, fresh.groups):
                    assert np.array_equal(sel, sel_f) and np.array_equal(flat, flat_f)
                    assert np.array_equal(w, w_f)
                cache.sweep(ws, system, cache.lattice_clamp, counts)(slab)
            cache.end_setup()
            assert all(len(sets) == 1 for sets in cache._sets.values())
            kept = sum(ws.nbytes for sets in cache._sets.values() for ws in sets)
            assert cache.budget.left == sc._CACHE_BYTES - kept
        assert counts["ray_weights_reused"] == 0

    def test_wide_index_dtype(self, ball):
        g = GridSpec(ball, 41, 1, 2, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.3),
            scatter=lambda x, wi, wo, E: ISO * smooth_bump(np.linalg.norm(x, axis=1), 0.3),
            shift=1.0,
        )
        op, fast, direct = _kernel_sweep(g, coeffs, at.RayQuadrature(4, 2), 1, 0,
                                         np.random.default_rng(4))
        assert op.cols.dtype == np.uint32
        assert np.max(np.abs(fast - direct)) <= self.REL_TOL * np.max(np.abs(direct))

    # The per-node build that the shared tap table replaced (the node-major
    # form of ``_operator_chunk``, which matched it bit for bit), frozen as
    # the reference.  It forms every node's taps from the node's own lattice
    # coordinates, the table from the lattice offset -s omega / h of a
    # full-panel node, so the two agree to round-off of the sup.
    REF_TOL = 1e-13

    @staticmethod
    def _ref_bspline3(t):
        s = 1.0 - t
        t2 = t * t
        t3 = t2 * t
        return np.stack([s * s * s, 4.0 - 6.0 * t2 + 3.0 * t3,
                         1.0 + 3.0 * (t + t2 - t3), t3], axis=1) / 6.0

    @staticmethod
    def _ref_in_clamp(c, clamp):
        nx, ny, nz = clamp.shape
        inside = (c >= 0.0) & (c <= np.array([nx - 1, ny - 1, nz - 1]))
        keep = inside[:, 0] & inside[:, 1] & inside[:, 2]
        near = np.floor(c[keep] + 0.5).astype(np.intp)
        keep[keep] = clamp.reshape(-1)[near @ np.array([ny * nz, nz, 1])]
        return keep

    @classmethod
    def _ref_operator_chunk(cls, grid, clamp, flat, w, n_rays, flags=None):
        # flags: the keep flag of each node of flat, else the per-node rule
        shape = np.array(grid.shape)
        strides = np.array([shape[1] * shape[2], shape[2], 1])
        per_ray = flat.shape[0] // n_rays
        c = (flat - grid.origin) / grid.h
        keep = np.flatnonzero(cls._ref_in_clamp(c, clamp) if flags is None else flags)
        ray = keep // per_ray
        c = c[keep]
        cell = np.floor(c)
        base = cell.astype(np.intp) - 1
        new_run = np.ones(keep.size, dtype=bool)
        new_run[1:] = (ray[1:] != ray[:-1]) | np.any(base[1:] != base[:-1], axis=1)
        runs = np.flatnonzero(new_run)
        if runs.size == 0:
            return runs, runs, np.zeros(0)
        t = c - cell
        wx, wy, wz = (cls._ref_bspline3(t[:, ax]) for ax in range(3))
        taps = (w.reshape(-1)[keep][:, None, None, None] * wx[:, :, None, None]
                * wy[:, None, :, None] * wz[:, None, None, :]).reshape(-1, 64)
        taps = np.add.reduceat(taps, runs, axis=0)
        idx = np.abs(base[runs][:, :, None] + np.arange(4))
        top = (shape - 1)[None, :, None]
        idx = np.where(idx > top, 2 * top - idx, idx) * strides[None, :, None]
        cols = (idx[:, 0, :, None, None] + idx[:, 1, None, :, None]
                + idx[:, 2, None, None, :]).reshape(-1, 64)
        size = int(np.prod(shape))
        key = (ray[runs][:, None] * size + cols).reshape(-1)
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        return key[first] // size, key[first] % size, np.add.reduceat(taps.reshape(-1)[order], first)

    @classmethod
    def _ref_matrix(cls, system, grid, clamp, flags=None):
        """The reference build of ``system``'s sweep operator as a sparse
        (points x box) matrix, and its entries; ``flags`` holds the keep
        flags of the nodes of each group, if not the per-node rule's."""
        rows, cols, vals = [], [], []
        for i, (sel, flat, w) in enumerate(system.groups):
            ray, col, val = cls._ref_operator_chunk(grid, clamp, flat, w, sel.size,
                                                    None if flags is None else flags[i])
            rows.append(sel[ray])
            cols.append(col)
            vals.append(val)
        vals = np.concatenate(vals)
        shape = (system.n_points, int(np.prod(grid.shape)))
        return sparse.csr_matrix((vals, (np.concatenate(rows), np.concatenate(cols))), shape=shape), vals

    @staticmethod
    def _matrix(op, grid):
        counts = np.diff(np.r_[op.starts, op.data.size])
        return sparse.csr_matrix((op.data, (np.repeat(op.rows, counts), op.cols)),
                                 shape=(op.n_points, int(np.prod(grid.shape))))

    def _assert_matches_reference(self, system, grid, clamp, flags=None):
        """The operator of ``system`` on ``clamp``: within ``REF_TOL`` of the
        sup of the reference (fed ``flags``, see ``_ref_matrix``), with no
        exact zeros kept, and its streamed sweep equal to its apply bit for
        bit."""
        op = system.sweep_operator(grid, clamp)
        ref, ref_vals = self._ref_matrix(system, grid, clamp, flags)
        assert abs(self._matrix(op, grid) - ref).max() <= self.REF_TOL * abs(ref).max()
        assert not np.any(op.data == 0.0)
        assert op.cols.dtype == np.min_scalar_type(int(np.prod(grid.shape)) - 1)
        coef = np.random.default_rng(17).normal(size=grid.shape)
        assert np.array_equal(system.sweep(grid, clamp, coef), op.apply(coef))
        return op, ref_vals

    def test_build_matches_the_per_node_reference(self, ball, quad, ray_system):
        g = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 1.0), 2)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: 0.3 + 0.2 * x[:, 0] + 0.1 * E,
            scatter=lambda x, wi, wo, E: ISO * smooth_bump(np.linalg.norm(x - 0.2 * wo, axis=1), 0.6),
            shift=1.0,
        )
        applier = sc._KernelApplier(coeffs.scatter, g)
        rng = np.random.default_rng(5)
        top = np.array(g.shape)[:, None] - 1
        # j = 0 has an exact-zero y component: its taps at t = 0 are exactly 0
        for j, k in [(0, 0), (3, 1), (6, 0)]:
            system = ray_system(coeffs, ball, g.coords, g.sphere_nodes[j],
                                float(g.energy_nodes[k]), quad, T=g.escape_cache()[:, j])
            support = np.zeros(g.shape, dtype=bool)
            support.reshape(-1)[g.interior_idx[applier.column(k, j)[0]]] = True
            op, ref_vals = self._assert_matches_reference(system, g, sc._support_clamp(support))
            assert op.data.size > 0
            if j == 0:
                assert np.count_nonzero(ref_vals == 0.0) > 0
            for _ in range(3):
                clamp = rng.random(g.shape) < 0.6
                op, _ = self._assert_matches_reference(system, g, clamp)
                assert op.cols.dtype == np.uint16 and op.data.size > 0
                # kept nodes within one cell of a box face fold taps by mirroring
                c = np.concatenate([at._lattice_rows(g, flat) for _, flat, _ in system.groups], axis=1)
                c = c[:, at._in_clamp(c, clamp)]
                assert np.any((c < 1.0) | (c > top - 1.0))
        empty, _ = self._assert_matches_reference(system, g, np.zeros(g.shape, dtype=bool))
        assert empty.nbytes == 0

    def test_wide_build_matches_the_per_node_reference(self, ball, ray_system):
        g = GridSpec(ball, 41, 1, 2, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3), shift=1.0)
        system = ray_system(coeffs, ball, g.coords, g.sphere_nodes[1], 0.0,
                            at.RayQuadrature(4, 2), T=g.escape_cache()[:, 1])
        clamp = np.zeros(g.shape, dtype=bool)
        clamp[5:30, 10:36, 3:25] = True
        op, _ = self._assert_matches_reference(system, g, clamp)
        assert op.cols.dtype == np.uint32 and op.data.size > 0

    @pytest.mark.parametrize("case", ["full_clamp", "kernel_clamp", "ring_clamp", "single_panels",
                                      "ellipsoid_mirror"])
    def test_build_matches_the_per_node_reference_on_each_kind_of_clamp(self, ray_system, case):
        domain = ConvexDomain.unit_ball()
        quad = at.RayQuadrature(1, 3) if case == "single_panels" else at.RayQuadrature(12, 4)
        if case == "ellipsoid_mirror":
            domain = ConvexDomain.ellipsoid((0.1, -0.2, 0.0), (1.2, 0.7, 0.9))
        g = GridSpec(domain, 13, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: 0.3 + 0.2 * x[:, 0], shift=1.0)
        r = np.linalg.norm(g.coords - domain.center, axis=1)
        box = lambda radius: g.embed(np.where(r < radius, 1.0, 0.0)) != 0.0
        clamp = {"kernel_clamp": sc._support_clamp(box(0.4)),
                 "ring_clamp": sc._support_clamp(box(0.6)) & ~sc._support_clamp(box(0.3))}.get(
                     case, np.ones(g.shape, dtype=bool))
        top = np.array(g.shape)[:, None] - 1
        for j in (1, 2, 6):
            system = ray_system(coeffs, domain, g.coords, g.sphere_nodes[j], 0.0, quad,
                                T=g.escape_cache()[:, j])
            op, _ = self._assert_matches_reference(system, g, clamp)
            assert op.data.size > 0
            panels = [flat.shape[0] // (sel.size * quad.nodes_per_panel) for sel, flat, _ in system.groups]
            assert 1 in panels and max(panels) > 1
            if case == "ellipsoid_mirror":
                c = np.concatenate([at._lattice_rows(g, flat) for _, flat, _ in system.groups], axis=1)
                assert np.any((c < 1.0) | (c > top - 1.0))

    def test_apply_matches_a_csr_reference(self, ball, quad, ray_system):
        # the apply is a CSR mat-vec over the operator's own arrays, with its
        # columns widened for the call only; the reference sums the mirrored
        # duplicates of a row first (both clamps keep nodes within a cell of
        # a box face)
        g = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: 0.3 + 0.2 * x[:, 0], shift=1.0)
        r = np.linalg.norm(g.coords, axis=1)
        rng = np.random.default_rng(41)
        for j, clamp in [(1, np.ones(g.shape, dtype=bool)),
                         (5, sc._support_clamp(g.embed(np.where(r < 0.5, 1.0, 0.0)) != 0.0))]:
            system = ray_system(coeffs, ball, g.coords, g.sphere_nodes[j], 0.0, quad, T=g.escape_cache()[:, j])
            op = system.sweep_operator(g, clamp)
            cols = op.cols.copy()
            ref = self._matrix(op, g)
            ref.sum_duplicates()
            assert ref.nnz < op.data.size
            coef = rng.normal(size=g.shape)
            out = op.apply(coef)
            expected = ref @ coef.reshape(-1)
            assert np.max(np.abs(out - expected)) <= self.REL_TOL * np.max(np.abs(expected))
            assert op.cols.dtype == np.uint16 and np.array_equal(op.cols, cols)
            assert np.array_equal(system.sweep(g, clamp, coef), out)

    def test_kept_operators_keep_their_stored_size(self, ball):
        # the kernel operators of the benchmark's scatter_mms problem (17^3,
        # 4 x 8 directions, a (1 - |x|^2 / 0.36)^4 kernel) as the README
        # "Memory" section gives them: the apply widens no stored column
        from raytrans.errors import MaxIterationsExceeded

        g = GridSpec(ball, 17, 4, 8, EnergyInterval(0.0, 1.0), 1)
        bump = lambda x: (1.0 - np.minimum(np.sum(x * x, axis=1) / 0.6**2, 1.0)) ** 4
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3),
                                scatter=lambda x, wi, wo, E: 0.5 * ISO * bump(x), shift=1.0)
        with pytest.raises(MaxIterationsExceeded) as err:
            sc.solve_scattering(lambda x, w, E: bump(x), coeffs, g, at.RayQuadrature(16, 4), max_iter=1)
        cache = err.value.report.cache
        assert (cache["operators_built"], cache["operator_entries"], cache["operator_bytes"]) == \
            (32, 9415474, 94642292)

    @staticmethod
    def _own_flags(grid, clamp, system):
        """The shifted keep flags of every group of ``system`` and the
        per-node rule on the nodes' own coordinates: ((full-panel, last-panel)
        shifted, (full-panel, last-panel) own)."""
        tube = at._TapTube(grid, system.omega, system.quad, system.groups)
        padded = np.pad(clamp, at._PAD).reshape(-1)
        keep_last = at._in_clamp(tube.last, clamp)
        nq = system.quad.nodes_per_panel
        p = 0
        for sel, flat, _ in system.groups:
            nodes = flat.reshape(sel.size, -1, 3)
            n_full = nodes.shape[1] - nq
            keep = tube.keep(padded, sel, n_full)
            last = slice(p * nq, (p + sel.size) * nq)
            p += sel.size
            own = at._in_clamp(at._lattice_rows(grid, flat), clamp).reshape(sel.size, -1)
            assert keep.dtype == bool and keep.shape == (sel.size, n_full)
            assert tube.last[:, last].tobytes() == at._lattice_rows(grid, nodes[:, n_full:].reshape(-1, 3)).tobytes()
            yield (keep, keep_last[last]), (own[:, :n_full], own[:, n_full:].reshape(-1))

    @classmethod
    def _node_flags(cls, grid, clamp, system):
        """The shifted keep flags of the nodes of each group of ``system`` in
        their flat order, as ``_ref_matrix`` takes them."""
        return [np.concatenate([full, last.reshape(full.shape[0], -1)], axis=1).reshape(-1)
                for (full, last), _ in cls._own_flags(grid, clamp, system)]

    def _assert_matches_the_shifted_reference(self, system, grid, clamp):
        """The operator and its sweep against the per-node reference fed the
        shifted keep flags."""
        flags = self._node_flags(grid, clamp, system)
        op, _ = self._assert_matches_reference(system, grid, clamp, flags)
        ref, _ = self._ref_matrix(system, grid, clamp, flags)
        coef = np.random.default_rng(19).normal(size=grid.shape)
        expected = ref @ coef.reshape(-1)
        assert np.max(np.abs(system.sweep(grid, clamp, coef) - expected)) <= self.REL_TOL * np.max(np.abs(expected))
        return op

    # (n_spatial, n_polar, n_azimuth, panels per unit length): two grids of
    # the tests above, then those of configs/scattering_ball.json and
    # configs/csda_sweep.json with their quadratures
    @pytest.mark.parametrize("dims", [(11, 2, 4, 12), (17, 4, 8, 12), (13, 4, 8, 16), (21, 2, 4, 12)])
    def test_shifted_keep_flags_equal_the_per_node_rule(self, ball, ray_system, dims):
        g = GridSpec(ball, dims[0], dims[1], dims[2], EnergyInterval(0.0, 1.0), 1)
        quad = at.RayQuadrature(dims[3], 4)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3), shift=1.0)
        r = np.linalg.norm(g.coords, axis=1)
        clamps = [np.ones(g.shape, dtype=bool),
                  sc._support_clamp(g.embed(np.where(r < 0.5, 1.0, 0.0)) != 0.0),
                  np.random.default_rng(43).random(g.shape) < 0.5]
        for j in range(g.n_omega):
            system = ray_system(coeffs, ball, g.coords, g.sphere_nodes[j], 0.0, quad, T=g.escape_cache()[:, j])
            for clamp in clamps:
                for shifted, own in self._own_flags(g, clamp, system):
                    assert np.array_equal(shifted[0], own[0]) and np.array_equal(shifted[1], own[1])

    def test_half_integer_offset_keeps_the_shifted_clamp(self, quad, ray_system):
        # a direction whose x offset d_6 of full-panel node 6 is -1/2 lattice
        # spacings: the round-off of each node's own coordinates decides its
        # nearest node, so the per-node rule differs on some rays, while the
        # shifted flag is the clamp at the ray start shifted by floor(d_6 + 1/2)
        domain = ConvexDomain.ellipsoid((0.13, -0.21, 0.07), (1.2, 0.7, 0.9))
        g = GridSpec(domain, 11, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3), shift=1.0)
        s6 = quad.full_nodes(2).reshape(-1)[6]
        wx = 0.5 * g.h[0] / s6
        omega = np.r_[wx, np.array([0.6, 0.8]) * np.sqrt(1.0 - wx * wx)]
        system = ray_system(coeffs, domain, g.coords, omega, 0.0, quad)
        clamp = np.ones(g.shape, dtype=bool)
        clamp[::2] = False
        d6 = -s6 * omega / g.h
        assert abs(d6[0] + 0.5) < 1e-15
        near = np.floor(d6 + 0.5).astype(int)
        start = np.array(np.unravel_index(g.interior_idx, g.shape))
        differ = rays = 0
        for (sel, _, _), (shifted, own) in zip(system.groups, self._own_flags(g, clamp, system)):
            if shifted[0].shape[1] > 6:
                at_near = tuple(start[:, sel] + near[:, None] + at._PAD)
                assert np.array_equal(shifted[0][:, 6], np.pad(clamp, at._PAD)[at_near])
                differ += np.count_nonzero(shifted[0][:, 6] != own[0][:, 6])
                rays += sel.size
        assert rays > 0 and differ > 0
        self._assert_matches_the_shifted_reference(system, g, clamp)

    def test_nodes_past_a_box_face_keep_the_shifted_clamp(self, ball, quad, ray_system):
        # rays run 0.1 (half a spacing) past the ball, so some full-panel
        # nodes lie just outside the box, nearest to a set face node: the
        # shifted flag keeps them where the per-node rule drops them, and
        # their taps fold into the box from within _PAD
        g = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3), shift=1.0)
        clamp = np.ones(g.shape, dtype=bool)
        top = np.array(g.shape)[:, None] - 1
        for j in (0, 5):
            system = ray_system(coeffs, ball, g.coords, g.sphere_nodes[j], 0.0, quad,
                                T=g.escape_cache()[:, j] + 0.1)
            outside = []
            for (sel, flat, _), (shifted, own) in zip(system.groups, self._own_flags(g, clamp, system)):
                n_full = shifted[0].shape[1]
                c = at._lattice_rows(g, flat).reshape(3, sel.size, -1)[:, :, :n_full].reshape(3, -1)
                out = np.any((c < 0.0) | (c > top), axis=0).reshape(sel.size, n_full)
                assert shifted[0].all() and np.array_equal(own[0], ~out)
                outside.append(c[:, out.reshape(-1)])
            outside = np.concatenate(outside, axis=1)
            assert outside.size > 0
            cells = np.floor(outside)
            assert np.all(cells - 1 >= -at._PAD) and np.all(cells + 2 <= top + at._PAD)
            op = self._assert_matches_the_shifted_reference(system, g, clamp)
            assert op.cols.max() < np.prod(g.shape)

    def test_build_needs_the_grid_interior_nodes(self, ball, quad, ray_system):
        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3), shift=1.0)
        clamp = np.ones(g.shape, dtype=bool)
        moved = ray_system(coeffs, ball, g.coords * 0.99, g.sphere_nodes[0], 0.0, quad)
        with pytest.raises(ValueError, match="not the grid's interior nodes"):
            moved.sweep_operator(g, clamp)
        fewer = ray_system(coeffs, ball, g.coords[:-1], g.sphere_nodes[0], 0.0, quad)
        with pytest.raises(ValueError, match="on the grid's interior nodes"):
            fewer.sweep(g, clamp, np.ones(g.shape))


class _PerGroupTube:
    """``attenuation._TapTube`` of the build that took one panel-count
    group at a time, frozen as the reference of ``TestMergedChunks``: it
    forms the last-panel lattice coordinates group by group, and again for
    each chunk in ``keep``."""

    def __init__(self, grid, omega, quad, groups):
        self.nq = nq = quad.nodes_per_panel
        self.start = np.array(np.unravel_index(grid.interior_idx, grid.shape))
        n_full = max((flat.shape[0] // sel.size - nq for sel, flat, _ in groups), default=0)
        d = (-(quad.full_nodes(n_full // nq).reshape(-1)[:, None] * omega) / grid.h).T
        d[np.abs(d) <= max(grid.shape) * np.finfo(float).eps] = 0.0
        cell = np.floor(d)
        taps = at._tensor_taps(d - cell)
        bases, ranks = [cell.astype(np.intp)], [2 * np.arange(n_full)]
        for sel, flat, _ in groups:
            per_ray = flat.shape[0] // sel.size
            last = np.empty((3, sel.size, nq))
            last[...] = np.moveaxis(flat.reshape(sel.size, per_ray, 3)[:, per_ray - nq:], -1, 0)
            bases.append(self.relative_cells(np.floor(at._lattice_rows(grid, last.reshape(3, -1).T)),
                                             np.repeat(sel, nq)))
            ranks.append(np.full(sel.size * nq, 2 * (per_ray - nq) - 1))
        bases, ranks = np.concatenate(bases, axis=1), np.concatenate(ranks)
        self.lo = bases.min(axis=1) - 1
        span = bases.max(axis=1) + 3 - self.lo
        self.key_strides = np.array([span[1] * span[2], span[2], 1])
        base_keys, base_ranks = at._first_by_rank(self.keys(bases), ranks)
        a = np.arange(4) - 1
        self.deltas = self.key_strides @ np.stack(np.meshgrid(a, a, a, indexing="ij")).reshape(3, -1)
        tube, self.rank = at._first_by_rank((base_keys[None, :] + self.deltas[:, None]).reshape(-1),
                                            np.tile(base_ranks, 64))
        self.lookup = np.full(int(np.prod(span)), -1, dtype=np.intp)
        self.lookup[tube] = np.arange(tube.size)
        self.G = np.zeros((n_full, tube.size))
        if n_full:
            self.G[np.arange(n_full)[:, None], self.lookup[self.keys(cell.astype(np.intp))[:, None]
                                                          + self.deltas[None, :]]] = taps.T
        padded = np.array(grid.shape) + 2 * at._PAD
        strides = np.array([padded[1] * padded[2], padded[2], 1])
        offsets = np.array(np.unravel_index(tube, tuple(span))) + self.lo[:, None]
        self.offset = at._flat_index(strides, offsets)
        self.padded_start = at._flat_index(strides, self.start + at._PAD)
        self.near = at._flat_index(strides, np.floor(d + 0.5).astype(np.intp))
        self.mirror = at._mirror_map(grid.shape)

    def keys(self, offsets):
        return at._flat_index(self.key_strides, offsets - self.lo[:, None])

    def keep(self, grid, clamp, padded, rays, nodes):
        n_full = nodes.shape[1] - self.nq
        c = at._lattice_rows(grid, np.moveaxis(nodes[:, n_full:], -1, 0).reshape(3, -1).T)
        return padded[self.padded_start[rays][:, None] + self.near[None, :n_full]], c, at._in_clamp(c, clamp)

    def relative_cells(self, cells, rays):
        return cells.astype(np.intp) - self.start[:, rays]

    def width(self, n_full):
        return int(np.searchsorted(self.rank, 2 * n_full))


def _per_group_chunks(system, grid, clamp, tube=None):
    """``RaySystem._operator_chunks`` as it was before the merged chunks,
    frozen as the reference: one chunk, and one dense block, per (group,
    at most ``_OPERATOR_CHUNK`` rays) segment.  It forms its own tube and
    ignores ``tube``."""
    if not system.groups:
        return
    nq = system.quad.nodes_per_panel
    tube = _PerGroupTube(grid, system.omega, system.quad, system.groups)
    mirror = tube.mirror.astype(np.min_scalar_type(int(np.prod(grid.shape)) - 1))
    padded = np.pad(clamp, at._PAD).reshape(-1)
    for sel, flat, w in system.groups:
        per_ray = flat.shape[0] // sel.size
        n_full = per_ray - nq
        width = tube.width(n_full)
        for lo in range(0, sel.size, at._OPERATOR_CHUNK):
            hi = min(lo + at._OPERATOR_CHUNK, sel.size)
            rays = sel[lo:hi]
            keep, c, keep_last = tube.keep(grid, clamp, padded, rays,
                                           flat[lo * per_ray:hi * per_ray].reshape(rays.size, per_ray, 3))
            rows = (w[lo:hi, :-1].reshape(rays.size, n_full) * keep) @ tube.G[:n_full, :width]
            last = np.flatnonzero(keep_last)
            ray = last // nq
            c = c[:, last]
            cells = np.floor(c)
            taps = at._tensor_taps(c - cells, w[lo:hi, -1].reshape(-1)[last])
            idx = (tube.lookup[tube.keys(tube.relative_cells(cells, rays[ray]))[None, :] + tube.deltas[:, None]]
                   + width * ray[None, :])
            rows += np.bincount(idx.reshape(-1), taps.reshape(-1), rows.size).reshape(rows.shape)
            nz = rows != 0.0
            counts = np.count_nonzero(nz, axis=1)
            box = (tube.padded_start[rays][:, None] + tube.offset[None, :width])[nz]
            yield rays[counts > 0], counts[counts > 0], mirror[box], rows[nz]


def _concatenated_operator(system, grid, clamp):
    """``RaySystem.sweep_operator`` as it was before the in-place build,
    frozen as the reference: its chunks kept in a list, then concatenated."""
    none = np.zeros(0, dtype=np.intp)
    col_type = np.min_scalar_type(int(np.prod(grid.shape)) - 1)
    chunks = [(none, none, none.astype(col_type), np.zeros(0))] + list(system._operator_chunks(grid, clamp))
    rows, counts, cols, data = zip(*chunks)
    counts = np.concatenate(counts)
    return at.SweepOperator(system.n_points, np.concatenate(rows).astype(np.int32),
                            (np.cumsum(counts) - counts).astype(np.int32),
                            np.concatenate(cols), np.concatenate(data))


def _buffer(a):
    """The object at the end of an array's chain of bases: the array itself
    if it owns its memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a if a.base is None else a.base


def _held_numpy_bytes(build):
    """``build()`` and the bytes of numpy data it allocated and still holds,
    as tracemalloc traces them."""
    import tracemalloc

    def traced():
        domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        return sum(t.size for t in tracemalloc.take_snapshot().filter_traces([domain]).traces)

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = traced()
        out = build()
        return out, traced() - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestMergedChunks:
    """The build merges consecutive (group, at most ``_OPERATOR_CHUNK``-ray)
    segments into chunks of at most ``_OPERATOR_CHUNK`` rays, one dense
    block each, and keeps one product per segment: its operators have the
    bits of the per-group build."""

    # (n_spatial, n_polar, n_azimuth, panels per unit length, _OPERATOR_CHUNK):
    # a group spans several chunks; chunks span several groups; the grids
    # of configs/scattering_ball.json and configs/csda_sweep.json
    DIMS = [(11, 2, 4, 12, 7), (17, 4, 8, 12, 256), (13, 4, 8, 16, 256), (21, 2, 4, 12, 256)]
    COEFFS = CoefficientSet(sigma_t=lambda x, w, E: 0.3 + 0.1 * x[:, 0], shift=1.0)

    @staticmethod
    def _set_up(ball, monkeypatch, dims):
        """The grid, quadrature and clamps (all set, a ball's support clamp,
        random) of one case of ``DIMS``, with its ``_OPERATOR_CHUNK``."""
        monkeypatch.setattr(at, "_OPERATOR_CHUNK", dims[4])
        g = GridSpec(ball, dims[0], dims[1], dims[2], EnergyInterval(0.0, 1.0), 1)
        r = np.linalg.norm(g.coords, axis=1)
        clamps = [np.ones(g.shape, dtype=bool),
                  sc._support_clamp(g.embed(np.where(r < 0.5, 1.0, 0.0)) != 0.0),
                  np.random.default_rng(47).random(g.shape) < 0.5]
        return g, at.RayQuadrature(dims[3], 4), clamps

    @pytest.mark.parametrize("dims", DIMS)
    def test_merged_chunks_equal_the_per_group_build(self, ball, ray_system, monkeypatch, dims):
        g, quad, clamps = self._set_up(ball, monkeypatch, dims)
        coeffs = self.COEFFS
        merged = at.RaySystem._operator_chunks
        chunks = []

        def spied(system, grid, clamp, tube=None):
            for chunk in merged(system, grid, clamp, tube):
                chunks.append(chunk[0])
                yield chunk

        spans, split = [], 0   # groups per chunk; groups in more than one chunk
        for j in range(g.n_omega):
            system = ray_system(coeffs, ball, g.coords, g.sphere_nodes[j], 0.0, quad, T=g.escape_cache()[:, j])
            group = np.empty(g.n_interior, dtype=np.intp)
            for i, (sel, _, _) in enumerate(system.groups):
                group[sel] = i
            for clamp in clamps:
                with monkeypatch.context() as m:
                    m.setattr(at.RaySystem, "_operator_chunks", _per_group_chunks)
                    ref = system.sweep_operator(g, clamp)
                    m.setattr(at.RaySystem, "_operator_chunks", spied)
                    chunks.clear()
                    op = system.sweep_operator(g, clamp)
                for name in ("rows", "starts", "cols", "data"):
                    new, old = getattr(op, name), getattr(ref, name)
                    assert new.dtype == old.dtype and new.shape == old.shape
                    assert new.tobytes() == old.tobytes()
                assert op.data.size > 0
                assert all(rays.size <= at._OPERATOR_CHUNK for rays in chunks)
                per_chunk = [np.unique(group[rays]) for rays in chunks]
                spans += [groups.size for groups in per_chunk]
                split += np.count_nonzero(np.bincount(np.concatenate(per_chunk)) > 1)
        assert split > 0 if dims[4] == 7 else max(spans) >= 2

    @pytest.mark.parametrize("dims", DIMS)
    def test_operators_are_built_in_their_final_arrays(self, ball, monkeypatch, dims):
        # a march's cache builds each kept operator in one memory map of its
        # own, and copies only weight sets into maps; a solve's cache builds
        # into heap arrays cut to the operator, with no spare capacity
        import mmap

        g, quad, clamps = self._set_up(ball, monkeypatch, dims)
        copied = []
        mapped = sc._mapped

        def spied(arrays):
            copied.append(len(arrays))
            return mapped(arrays)

        monkeypatch.setattr(sc, "_mapped", spied)
        for across in (True, False):
            cache = sc.SweepCache(g, quad, across_solves=across)
            counts, groups = sc._cache_counts(), []
            for j in range(g.n_omega):
                system, ws = cache.system(j, cache.nodes(j), self.COEFFS, 0.0, counts)
                groups.append(len(system.groups))
                for clamp in clamps:
                    ref = _concatenated_operator(system, g, clamp)
                    op, held = _held_numpy_bytes(lambda: cache._operator(ws, system, clamp, counts))
                    arrays = [op.rows, op.starts, op.cols, op.data]
                    for new, old in zip(arrays, [ref.rows, ref.starts, ref.cols, ref.data]):
                        assert new.dtype == old.dtype and new.shape == old.shape
                        assert new.tobytes() == old.tobytes()
                    assert op.data.size > 0 and ws.ops[np.packbits(clamp).tobytes()] is op
                    if across:
                        maps = {id(_buffer(a).obj) for a in arrays}
                        assert len(maps) == 1 and isinstance(_buffer(op.data).obj, mmap.mmap)
                        assert held == 0
                    else:
                        assert all(a.flags.owndata and a.base is None for a in arrays)
                        assert held == op.nbytes
            assert counts["operators_built"] == g.n_omega * len(clamps)
            assert copied == ([2 * n for n in groups] if across else [])
            copied.clear()

    def test_build_holds_its_transients_per_chunk(self, ball):
        # the grid and quadrature of configs/csda_sweep.json.  Peak traced
        # bytes of one build beyond the operator it returns: 6.85-8.18 MB
        # for the build in place (the tube, one chunk's transients, and the
        # heap arrays at their bound, 25-40 % more entries than the operator
        # keeps: tracemalloc counts the tail the build never writes),
        # 7.44-7.52 MB for the chunk list and its concatenation,
        # 20.9-21.1 MB when the last-panel taps of a whole direction are
        # formed at once
        import tracemalloc

        g = GridSpec(ball, 21, 2, 4, EnergyInterval(0.0, 1.0), 1)
        quad = at.RayQuadrature(12, 4)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.6), shift=0.0)
        cache = sc.SweepCache(g, quad)
        clamp = np.ones(g.shape, dtype=bool)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            for j in range(g.n_omega):
                system, _ = cache.system(j, cache.nodes(j), coeffs, 0.0, sc._cache_counts())
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                op = system.sweep_operator(g, clamp)
                peak = tracemalloc.get_traced_memory()[1] - base
                assert op.nbytes > 7e6
                assert peak - op.nbytes <= 8.5e6
        finally:
            if not tracing:
                tracemalloc.stop()


class TestLift:
    def test_constant_data(self, ball):
        g1 = lambda y, w, E: np.ones(len(y))
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=3)
            x *= rng.uniform(0, 0.95) ** (1 / 3) / np.linalg.norm(x)
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            assert sc.lift_values(g1, 0.0, ball, x, w, 0.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_decay_from_center(self, ball):
        g1 = lambda y, w, E: np.ones(len(y))
        v = sc.lift_values(g1, 1.0, ball, np.zeros(3), np.array([1.0, 0, 0]), 0.0)[0]
        assert v == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_characteristic_constancy(self, ball):
        g1 = lambda y, w, E: 1.0 + y[:, 0] * y[:, 2] + np.sin(2 * y[:, 1])
        rng = np.random.default_rng(13)
        delta = 1e-4
        for _ in range(50):
            x = rng.normal(size=3)
            x *= rng.uniform(0, 0.9) ** (1 / 3) / np.linalg.norm(x)
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            if ball.level((x + delta * w).reshape(1, 3))[0] >= 0:
                continue
            up = sc.lift_values(g1, 0.0, ball, (x + delta * w).reshape(1, 3), w, 0.0)[0]
            dn = sc.lift_values(g1, 0.0, ball, (x - delta * w).reshape(1, 3), w, 0.0)[0]
            assert abs(up - dn) / (2 * delta) < 1e-6

    def test_tangential_point_flagged_zero(self, ball):
        g1 = lambda y, w, E: np.ones(len(y)) + y[:, 0]
        x = np.array([1.0, 0, 0])
        assert sc.lift_values(g1, 0.0, ball, x, np.array([0.0, 0, 1.0]), 0.0)[0] == 0.0
        assert sc.lift_values(g1, 0.0, ball, x, np.array([-1.0, 0, 0]), 0.0)[0] == pytest.approx(2.0, abs=1e-9)

    def test_inflow_trace_matches_data(self, ball):
        g1 = lambda y, w, E: y[:, 0] + 2.0
        rng = np.random.default_rng(17)
        ys = ball.boundary_points(30, rng)
        for y in ys:
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            if np.dot(w, y) > -0.2:
                w = -w
            if np.dot(w, y) > -0.2:
                continue
            v = sc.lift_values(g1, 0.0, ball, y.reshape(1, 3), w, 0.0)[0]
            assert v == pytest.approx(y[0] + 2.0, abs=1e-9)


class TestSolveWithInflow:
    def test_zero_data_matches_homogeneous(self, ball, quad):
        g = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.4),
            scatter=lambda x, wi, wo, E: 0.3 * ISO * smooth_bump(np.linalg.norm(x, axis=1), 0.6),
            shift=1.0,
        )
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.5)
        zero_g = lambda y, w, E: np.zeros(len(y))
        a, _ = sc.solve_with_inflow(f, zero_g, coeffs, g, quad, tol=1e-10)
        b, _ = sc.solve_scattering(f, coeffs, g, quad, tol=1e-10)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_constant_solution_branch(self, ball, quad):
        # f built so that the homogeneous source vanishes: psi = 1 exactly
        g = GridSpec(ball, 11, 4, 8, EnergyInterval(0.0, 1.0), 1)
        sigma_s = lambda x: 0.4 * smooth_bump(np.linalg.norm(x, axis=1), 0.6)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.5),
            scatter=lambda x, wi, wo, E: ISO * sigma_s(x),
            shift=1.0,
        )

        def f(x, w, E):
            return 0.5 + 1.0 - sigma_s(np.atleast_2d(x))

        one_g = lambda y, w, E: np.ones(len(y))
        psi, _ = sc.solve_with_inflow(f, one_g, coeffs, g, quad, tol=1e-12)
        assert np.max(np.abs(psi.values - 1.0)) < 1e-10

    @pytest.mark.parametrize("lam", [0.5, 1.3])
    def test_lift_decay_enters_the_source(self, ball, quad, lam):
        # omega.grad exp(-lam t) = -lam exp(-lam t), so with
        # f = (sigma + C - lam) exp(-lam t) and g = 1 the solution is
        # exp(-lam t) and the source for u = psi - L g vanishes
        g = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.5), shift=1.0)
        f = lambda x, w, E: (0.5 + 1.0 - lam) * np.exp(-lam * escape_times(ball, x, w))
        psi, _ = sc.solve_with_inflow(f, lambda y, w, E: np.ones(len(y)), coeffs, g, quad, tol=1e-12, lam=lam)
        assert np.max(np.abs(psi.values[:, :, 0] - np.exp(-lam * g.escape_cache()))) == 0.0

    def test_source_of_wrong_shape_is_named(self, ball, quad):
        # an (n, 1) source broadcast against the (n,) lift to an (n, n) array,
        # and the error named that shape
        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.5), shift=1.0)
        one_g = lambda y, w, E: np.ones(len(y))
        with pytest.raises(CoefficientShapeError, match=r"source returned shape \((\d+), 1\) for \1 ray nodes"):
            sc.solve_with_inflow(lambda x, w, E: np.ones((len(x), 1)), one_g, coeffs, g, quad)

    def test_inflow_data_are_checked(self, ball, quad):
        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.5), shift=1.0)
        f = lambda x, w, E: np.ones(len(x))
        with pytest.raises(NonFiniteValue, match=r"g is nan at point \[.*\] \(direction \[.*\], energy 0\)"):
            sc.solve_with_inflow(f, lambda y, w, E: np.full(len(y), np.nan), coeffs, g, quad)
        with pytest.raises(CoefficientShapeError, match=r"g returned shape \((\d+), 1\) for \1 points"):
            sc.solve_with_inflow(f, lambda y, w, E: np.ones((len(y), 1)), coeffs, g, quad)

    def test_smooth_data_trace(self, ball, quad):
        g = GridSpec(ball, 15, 4, 8, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.5), shift=1.0)
        gb = lambda y, w, E: 1.0 + 0.5 * y[:, 2]
        f = lambda x, w, E: np.zeros(len(x))
        psi, _ = sc.solve_with_inflow(f, gb, coeffs, g, quad, tol=1e-10)
        # discrete inflow trace: extrapolate the grid field to the boundary
        # mesh and compare against g on well-inflow pairs
        from raytrans.norms import trace_from_grid_field

        tr = trace_from_grid_field(psi, None)
        h = float(np.mean(g.h))
        worst = 0.0
        for j in range(g.n_omega):
            sel = tr.dots[:, j] < -0.3
            if not np.any(sel):
                continue
            expect = gb(tr.mesh.points[sel], g.sphere_nodes[j], 0.0)
            worst = max(worst, float(np.max(np.abs(tr.values[sel, j, 0] - expect))))
        assert worst < 2 * h

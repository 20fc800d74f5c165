import numpy as np
import pytest

from raytrans import csda
from raytrans.attenuation import RayQuadrature
from raytrans.errors import (CoefficientShapeError, InsufficientEnergyResolution, NonFiniteValue, ShiftTooSmall,
                             StoppingPowerViolation)
from raytrans.fields import CoefficientSet, DiscreteField, EnergyInterval, GridSpec
from raytrans.geometry import ConvexDomain
from raytrans.norms import h_norm


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
def quad():
    return RayQuadrature(12, 4)


def unit_stopping(x, E):
    return -np.ones(len(np.atleast_2d(x)))


class TestExplicit:
    def test_empty_range_at_cutoff(self, ball, quad):
        iv = EnergyInterval(0.0, 1.0)
        f = lambda x, w, E: np.ones(len(np.atleast_2d(x)))
        got = csda.explicit_csda_points(f, 0.5, iv, ball, np.zeros(3), np.array([1.0, 0, 0]), iv.Em, quad)
        assert got[0] == 0.0

    def test_unit_source_no_attenuation(self, ball, quad):
        iv = EnergyInterval(0.0, 1.0)
        f = lambda x, w, E: np.ones(len(np.atleast_2d(x)))
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.normal(size=3)
            x *= rng.uniform(0, 0.95) ** (1 / 3) / np.linalg.norm(x)
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            E = rng.uniform(0, 1)
            from raytrans.geometry import escape_times

            expect = min(iv.Em - E, escape_times(ball, x[None], w)[0])
            got = csda.explicit_csda_points(f, 0.0, iv, ball, x, w, E, quad)[0]
            assert got == pytest.approx(expect, abs=1e-11)

    def test_energy_ramp_closed_form(self, ball, quad):
        # f = E: integral_0^L exp(-sig s)(E + s) ds has an elementary
        # antiderivative used as the oracle
        iv = EnergyInterval(0.0, 2.0)
        sig = 0.8
        f = lambda x, w, E: np.zeros(len(np.atleast_2d(x))) + E
        rng = np.random.default_rng(5)
        from raytrans.geometry import escape_times

        for _ in range(30):
            x = rng.normal(size=3)
            x *= rng.uniform(0, 0.95) ** (1 / 3) / np.linalg.norm(x)
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            E = rng.uniform(0, 2)
            L = min(iv.Em - E, escape_times(ball, x[None], w)[0])
            expect = (E * (1 - np.exp(-sig * L)) / sig
                      + (1 - np.exp(-sig * L) * (1 + sig * L)) / sig**2)
            got = csda.explicit_csda_points(f, sig, iv, ball, x, w, E, quad)[0]
            assert got == pytest.approx(expect, abs=1e-9)


class TestMarch:
    def test_zero_source(self, ball, quad):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 3)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.5),
            stopping=unit_stopping, kappa=1.0, shift=0.0,
        )
        f = lambda x, w, E: np.zeros(len(np.atleast_2d(x)))
        phi, rep = csda.march_energy(f, coeffs, grid, quad, dE=0.25)
        assert np.all(phi.values == 0.0)
        assert rep.final_slice_sup == 0.0 and rep.inflow_trace_sup == 0.0

    def test_single_step_matches_steady_solve(self, ball, quad):
        # one backward-Euler step from zero equals the steady solve with the
        # effective coefficients and source dE * weight * f
        grid = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 0.5), 2)
        sig0 = 0.4
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), sig0),
            stopping=unit_stopping, kappa=1.0, shift=0.0,
        )
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.6) + 0.0 * np.asarray(E)
        phi, _ = csda.march_energy(f, coeffs, grid, quad, dE=0.25)
        dE = 0.25

        from raytrans.attenuation import solve_attenuation_grid

        eff = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), sig0 + 1.0 / dE))
        egrid = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 0.5), 2)
        ref = solve_attenuation_grid(lambda x, w, E: f(x, w, E) / dE * dE, eff, egrid, quad)
        # phi at first march node vs steady solve with source f (weight 1, C=0)
        assert np.max(np.abs(phi.values[:, :, 1] - ref.values[:, :, 0])) < 1e-10

    def test_stopping_power_required(self, ball, quad):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 3)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.5))
        with pytest.raises(StoppingPowerViolation):
            csda.march_energy(lambda x, w, E: np.zeros(len(x)), coeffs, grid, quad)

    def test_weak_stopping_rejected(self, ball, quad):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 3)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.5),
            stopping=lambda x, E: np.full(len(np.atleast_2d(x)), -0.1),
            kappa=0.5,
        )
        with pytest.raises(StoppingPowerViolation):
            csda.march_energy(lambda x, w, E: np.zeros(len(x)), coeffs, grid, quad)


    def test_weak_stopping_at_last_energy_node_rejected(self, ball, quad):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 8)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.5),
            stopping=lambda x, E: np.full(len(np.atleast_2d(x)), -0.1 if E >= 1.0 else -1.0),
            kappa=0.5,
        )
        with pytest.raises(StoppingPowerViolation):
            csda.march_energy(lambda x, w, E: np.zeros(len(x)), coeffs, grid, quad, dE=1.0 / 7.0)

    @pytest.mark.parametrize("dE", [0.0, -0.1, float("nan")])
    def test_energy_step_must_be_positive(self, ball, quad, dE):
        # dE = 0 divided by zero and dE = -0.1 marched one step per interval
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 3)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.5), stopping=unit_stopping, kappa=0.5)
        with pytest.raises(ValueError, match="dE must be positive"):
            csda.march_energy(lambda x, w, E: np.zeros(len(x)), coeffs, grid, quad, dE=dE)

    # On 3 energy nodes over [0, 1] with dE = 1/4 the march nodes are
    # E = 1, 3/4, 1/2, 1/4, 0; E = 3/4 and 1/4 are not grid nodes, and
    # direction 1 of the 2 x 4 sphere rule lies between every other one.
    def test_weak_stopping_at_march_node_rejected(self, ball, quad):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 3)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.5),
            stopping=lambda x, E: np.full(len(np.atleast_2d(x)), -0.1 if abs(E - 0.75) < 1e-9 else -1.0),
            kappa=0.5,
        )
        with pytest.raises(StoppingPowerViolation):
            csda.march_energy(lambda x, w, E: np.zeros(len(x)), coeffs, grid, quad, dE=0.25)

    def test_stopping_of_wrong_shape_or_non_finite_fails_before_the_first_step(self, ball, quad, monkeypatch):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 3)

        def nan_at_march_node(x, E):
            a = -np.ones(len(x))
            if abs(E - 0.75) < 1e-9:
                a[len(x) // 2] = np.nan
            return a

        steps = []
        monkeypatch.setattr(csda, "solve_scattering", lambda *args, **kw: steps.append(1))
        f = lambda x, w, E: np.zeros(len(x))
        for stopping, error, message in [
                (lambda x, E: -np.ones((len(x), 1)), CoefficientShapeError,
                 r"stopping power returned shape \(\d+, 1\) for \d+ grid nodes \(energy 1\)"),
                (nan_at_march_node, NonFiniteValue,
                 r"stopping power is nan at grid node \[.*\] \(energy 0.75\)")]:
            coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.5), stopping=stopping, kappa=1.0)
            with pytest.raises(error, match=message):
                csda.march_energy(f, coeffs, grid, quad, dE=0.25)
        assert steps == []

    def test_non_finite_sigma_is_named_before_the_first_step(self, ball, quad, monkeypatch):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 3)
        steps = []
        monkeypatch.setattr(csda, "solve_scattering", lambda *args, **kw: steps.append(1))
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), np.nan), stopping=unit_stopping,
                                kappa=1.0)
        with pytest.raises(NonFiniteValue, match=r"sigma is nan at grid node \[.*\] \(direction \[.*\], energy 1\)"):
            csda.march_energy(lambda x, w, E: np.zeros(len(x)), coeffs, grid, quad, dE=0.25)
        assert steps == []

    def test_stopping_power_is_evaluated_once_per_march_energy(self, ball, quad):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 3)
        at_nodes = []

        def stopping(x, E):
            if np.array_equal(x, grid.coords):
                at_nodes.append(E)
            return unit_stopping(x, E)

        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.5), stopping=stopping, kappa=1.0)
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.5)
        _, rep = csda.march_energy(f, coeffs, grid, quad, dE=0.25)
        # the pre-pass checks each march energy, and its values serve the steps
        assert rep.steps == 4 and at_nodes == [1.0, 0.75, 0.5, 0.25, 0.0]

    def test_negative_effective_absorption_at_one_direction_rejected(self, ball, quad):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 3)
        bad = grid.sphere_nodes[1]
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), -1e3 if np.allclose(w, bad) else 0.5),
            stopping=unit_stopping, kappa=1.0,
        )
        with pytest.raises(ShiftTooSmall):
            csda.march_energy(lambda x, w, E: np.zeros(len(x)), coeffs, grid, quad, dE=0.25)

    def test_negative_effective_absorption_at_one_march_node_rejected(self, ball, quad):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 3)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), -1e3 if abs(E - 0.75) < 1e-9 else 0.5),
            stopping=unit_stopping, kappa=1.0,
        )
        with pytest.raises(ShiftTooSmall):
            csda.march_energy(lambda x, w, E: np.zeros(len(x)), coeffs, grid, quad, dE=0.25)


class TestSolveCsda:
    def _setup(self, ball, n=21, n_e=3, span=0.3):
        grid = GridSpec(ball, n, 2, 4, EnergyInterval(0.0, span), n_e)
        sig0 = 0.6
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), sig0),
            stopping=unit_stopping, kappa=1.0, shift=0.0,
        )
        # source supported well inside with a short energy span: the solution
        # stays clear of the boundary (no exit-time kink within reach) and
        # the bump is resolved on the lattice, so the slice-interpolation
        # floor sits below the energy-stepping error
        f = lambda x, w, E: smooth_bump(np.linalg.norm(np.atleast_2d(x), axis=1), 0.45) \
            * (1.0 + 0.8 * np.cos(3.0 * np.asarray(E)))
        return grid, coeffs, f, sig0

    def test_zero_source(self, ball, quad):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 3)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.5),
            stopping=unit_stopping, kappa=1.0, shift=0.0,
        )
        psi, _ = csda.solve_csda(lambda x, w, E: np.zeros(len(np.atleast_2d(x))),
                                 coeffs, grid, quad, dE=0.25)
        assert np.all(psi.values == 0.0)

    def test_matches_explicit_solution(self, ball, quad):
        grid, coeffs, f, sig0 = self._setup(ball)
        dE = grid.interval.length / 8
        psi, rep = csda.solve_csda(f, coeffs, grid, quad, dE=dE)
        ref = csda.explicit_csda_grid(f, sig0, grid, quad)
        err = h_norm(psi.with_values(psi.values - ref.values), 0)
        rel = err / h_norm(ref, 0)
        assert rel <= 3.0 * dE

    def test_first_order_in_energy_step(self, ball, quad):
        grid, coeffs, f, sig0 = self._setup(ball)
        L = grid.interval.length
        ref = csda.explicit_csda_grid(f, sig0, grid, quad)
        nref = h_norm(ref, 0)
        errs = []
        for dE in (L / 4, L / 8):
            psi, _ = csda.solve_csda(f, coeffs, grid, quad, dE=dE)
            errs.append(h_norm(psi.with_values(psi.values - ref.values), 0) / nref)
        ratio = errs[1] / errs[0]
        assert 0.4 <= ratio <= 0.6

    def test_traces(self, ball, quad):
        grid, coeffs, f, _ = self._setup(ball)
        psi, rep = csda.solve_csda(f, coeffs, grid, quad, dE=0.5 / 8)
        assert np.max(np.abs(psi.values[:, :, -1])) < 1e-12
        assert rep.final_slice_sup < 1e-12
        assert rep.inflow_trace_sup < 1e-10

    def test_march_with_scattering_self_convergence(self, ball, quad):
        # no explicit solution with a kernel; check the first-order Cauchy
        # signature against a refined march instead
        L = 0.3
        grid = GridSpec(ball, 15, 2, 4, EnergyInterval(0.0, L), 3)
        iso = 1.0 / (4 * np.pi)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.4),
            scatter=lambda x, wi, wo, E: 0.5 * iso * smooth_bump(
                np.linalg.norm(np.atleast_2d(x), axis=1), 0.5),
            stopping=unit_stopping, kappa=1.0, shift=0.0,
        )
        f = lambda x, w, E: smooth_bump(np.linalg.norm(np.atleast_2d(x), axis=1), 0.45) \
            * (1.0 + 0.8 * np.cos(3.0 * np.asarray(E)))
        sols = {}
        for dE in (L / 4, L / 8, L / 16):
            psi, rep = csda.solve_csda(f, coeffs, grid, quad, dE=dE, tol=1e-11)
            sols[dE] = psi
            assert rep.final_slice_sup < 1e-12 and rep.inflow_trace_sup < 1e-10
            # sigma_eff and the kernel clamp repeat at every step: each
            # direction builds its weights and its kernel operator once, and
            # at the second step its lattice-source operator on another clamp
            reused = grid.n_omega * (rep.steps - 1)
            assert rep.cache["operators_built"] == 2 * grid.n_omega
            assert rep.cache["ray_weights_reused"] == reused
            assert rep.cache["operators_reused"] == reused + grid.n_omega * (rep.steps - 2)
            assert len(rep.step_iterations) == rep.steps
            assert sum(rep.step_iterations) == rep.inner_iterations
            assert [len(h) for h in rep.step_residuals] == rep.step_iterations
        ref = sols[L / 16]
        e1 = h_norm(sols[L / 4].with_values(sols[L / 4].values - ref.values), 0)
        e2 = h_norm(sols[L / 8].with_values(sols[L / 8].values - ref.values), 0)
        # first order: errors ~ a dE, so distances to the refined run sit
        # near a*(3L/16) and a*(L/16)
        assert 0.2 <= e2 / e1 <= 0.5

    def test_energy_causality(self, ball, quad):
        # no source above E*: nothing flows down from above, so psi = 0 there
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 5)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(x), 0.5),
            stopping=unit_stopping, kappa=1.0, shift=0.0,
        )
        e_star = 0.5

        def f(x, w, E):
            x = np.atleast_2d(x)
            active = (np.zeros(len(x)) + np.asarray(E)) <= e_star
            return smooth_bump(np.linalg.norm(x, axis=1), 0.4) * active

        psi, _ = csda.solve_csda(f, coeffs, grid, quad, dE=0.125)
        above = grid.energy_nodes > e_star + 1e-12
        # exactly: a zero lattice source integrates to exact zeros
        assert np.max(np.abs(psi.values[:, :, above])) == 0.0
        assert np.max(np.abs(psi.values)) > 0.0


class TestTransform:
    def test_roundtrip_exact(self, ball):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.2, 1.2), 5)
        rng = np.random.default_rng(7)
        vals = rng.normal(size=grid.phase_shape)
        psi = DiscreteField(vals, grid)
        phi = csda.transform_to_march(psi, C=1.7)
        # the cut-off energy Em lands on march node 0, E0 on the last one
        assert np.array_equal(phi.values[:, :, 0], psi.values[:, :, -1])
        back = csda.transform_from_march(phi, grid, C=1.7)
        assert np.max(np.abs(back.values - psi.values)) < 1e-12


class TestKernelEnergyDerivative:
    def test_difference_quotient_first_order(self, ball):
        grid = GridSpec(ball, 9, 3, 6, EnergyInterval(0.0, 1.0), 2)
        kern = lambda x, wi, wo, E: (1.0 + 0.5 * np.sin(3.0 * E)) \
            * smooth_bump(np.linalg.norm(np.atleast_2d(x), axis=1), 0.6) / (4 * np.pi)
        dkern = lambda x, wi, wo, E: 1.5 * np.cos(3.0 * E) \
            * smooth_bump(np.linalg.norm(np.atleast_2d(x), axis=1), 0.6) / (4 * np.pi)
        phi = lambda x, w: 1.0 + 0.3 * w[2] + 0.1 * np.atleast_2d(x)[:, 0]
        gaps = [csda.kr_energy_derivative_gap(kern, dkern, grid, phi, 0.4, h)
                for h in (0.1, 0.05, 0.025)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] / gaps[1] == pytest.approx(0.5, abs=0.15)

    def test_field_values_are_checked(self, ball):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 2)
        kern = lambda x, wi, wo, E: np.full(len(x), 1.0 / (4 * np.pi))
        with pytest.raises(NonFiniteValue, match=r"psi is nan at point \[.*\] \(direction"):
            csda.kr_energy_derivative_gap(kern, kern, grid, lambda x, w: np.full(len(x), np.nan), 0.4, 0.1)
        with pytest.raises(CoefficientShapeError, match=rf"psi returned shape \({grid.n_interior}, 1\) for "
                                                        rf"{grid.n_interior} points \(direction"):
            csda.kr_energy_derivative_gap(kern, kern, grid, lambda x, w: np.ones((len(x), 1)), 0.4, 0.1)


class TestCompatibility:
    def test_zero_data_passes_all_orders(self, ball):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 5)
        z3 = lambda y, w, E: np.zeros(len(np.atleast_2d(y)))
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(np.atleast_2d(x)), 0.5),
            stopping=unit_stopping, kappa=1.0,
        )
        for order in (0, 1, 2):
            rep = csda.compatibility_check(z3, z3, order, grid, coeffs=coeffs)
            assert rep.passed and rep.residual == 0.0

    def test_linear_ramp_pattern(self, ball):
        # g = Em - E: zeroth order passes, first order fails with residual 1
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 5)
        g = lambda y, w, E: np.full(len(np.atleast_2d(y)), grid.interval.Em - E)
        z3 = lambda y, w, E: np.zeros(len(np.atleast_2d(y)))
        assert csda.compatibility_check(g, z3, 0, grid).passed
        rep1 = csda.compatibility_check(g, z3, 1, grid)
        assert not rep1.passed
        assert rep1.residual == pytest.approx(1.0, abs=1e-9)

    def test_matched_ramp_passes_first_order(self, ball):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 5)
        F0 = 0.7
        g = lambda y, w, E: np.full(len(np.atleast_2d(y)), (grid.interval.Em - E) * F0)
        F = lambda y, w, E: np.full(len(np.atleast_2d(y)), -F0)
        assert csda.compatibility_check(g, F, 0, grid).passed
        assert csda.compatibility_check(g, F, 1, grid).passed

    def test_second_order_with_transport_action(self, ball):
        # g carries the first- and second-order terms matched to F = y1 + 2,
        # so all three identities hold; the second order exercises the
        # streaming and attenuation parts of the transport action
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 5)
        sig0 = 0.5
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: np.full(len(np.atleast_2d(x)), sig0),
            stopping=unit_stopping, kappa=1.0,
        )
        Em = grid.interval.Em
        F = lambda y, w, E: np.atleast_2d(y)[:, 0] + 2.0

        def g(y, w, E):
            y = np.atleast_2d(y)
            f0 = y[:, 0] + 2.0
            action = w[0] + sig0 * f0
            return (E - Em) * f0 + 0.5 * (Em - E) ** 2 * action

        for order in (0, 1, 2):
            rep = csda.compatibility_check(g, F, order, grid, coeffs=coeffs)
            assert rep.passed, (order, rep.residual)

    def test_insufficient_resolution(self, ball):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 2)
        z3 = lambda y, w, E: np.zeros(len(np.atleast_2d(y)))
        with pytest.raises(InsufficientEnergyResolution):
            csda.compatibility_check(z3, z3, 1, grid)

    def test_non_finite_data_are_named(self, ball):
        # NaN data passed (residual 0.0) while the residuals were folded with max
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 4)
        nan = lambda y, w, E: np.full(len(y), np.nan)
        z3 = lambda y, w, E: np.zeros(len(y))
        with pytest.raises(NonFiniteValue, match=r"g is nan at point \[.*\] \(direction \[.*\], energy 1\)"):
            csda.compatibility_check(nan, nan, 1, grid)
        with pytest.raises(NonFiniteValue, match=r"F is nan at point"):
            csda.compatibility_check(z3, nan, 1, grid)
        coeffs = CoefficientSet(sigma_t=nan, stopping=unit_stopping, kappa=1.0)
        with pytest.raises(NonFiniteValue, match=r"sigma is nan at point"):
            csda.compatibility_check(z3, z3, 2, grid, coeffs=coeffs)
        coeffs = CoefficientSet(sigma_t=z3, stopping=lambda x, E: np.full(len(x), np.nan), kappa=1.0)
        with pytest.raises(NonFiniteValue, match=r"stopping power is nan at point \[.*\] \(energy 1\)"):
            csda.compatibility_check(z3, z3, 2, grid, coeffs=coeffs)

    def test_data_of_wrong_shape_are_named(self, ball):
        grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 4)
        wide = lambda y, w, E: np.zeros((len(y), 2))
        z3 = lambda y, w, E: np.zeros(len(y))
        with pytest.raises(CoefficientShapeError, match=r"g returned shape \((\d+), 2\) for \1 points"):
            csda.compatibility_check(wide, z3, 0, grid)
        with pytest.raises(CoefficientShapeError, match=r"F returned shape \((\d+), 2\) for \1 points"):
            csda.compatibility_check(z3, wide, 1, grid)


def _step_major_march(f, coeffs, grid, quad, dE=None, tol=1e-10, snapshot_cb=None):
    """The kernel-free ``march_energy`` that ran step-major, frozen as the
    reference of ``TestDirectionMajorMarch``: every step is a
    ``solve_scattering`` over all the directions on the march's one cache,
    so each direction's weights and operators stay kept across the steps,
    and its ray nodes are placed again at each step."""
    from collections import Counter

    from raytrans import scattering as sc
    from raytrans.geometry import triangulate_boundary

    n_steps = csda._steps_for(grid, dE)
    Em, step, C = grid.interval.Em, grid.interval.length / n_steps, coeffs.shift
    mgrid = csda._march_grid(grid, n_steps)
    stopping = [csda._stopping_values(coeffs, mgrid.coords, Em - n * step, "grid node")
                for n in range(n_steps + 1)]
    sig_min = min(float(np.min(coeffs.sigma_t(mgrid.coords, omega, Em - n * step) + stopping[n] * (C - 1.0 / step)))
                  for n in range(n_steps + 1) for omega in mgrid.sphere_nodes)
    step_quad = RayQuadrature(max(quad.panels_per_unit_length, int(np.ceil(sig_min / 2.0))), quad.nodes_per_panel)
    mesh = triangulate_boundary(grid.domain, 2)
    slice_grid = csda._march_grid(grid, 0)
    phi = np.zeros((mgrid.n_interior, mgrid.n_omega, n_steps + 1))
    sweep_cache = sc.SweepCache(slice_grid, step_quad, 38.0 / sig_min)
    step_iterations, step_residuals = [], []
    cache = Counter()
    trace_sup = 0.0
    prev = phi[:, :, 0]
    for n in range(1, n_steps + 1):
        Ep = n * step
        Ehat = Em - Ep

        def sigma_eff(xs, omega, E, _Ehat=Ehat):
            a = np.asarray(coeffs.stopping(np.atleast_2d(xs), _Ehat), dtype=float)
            s = np.asarray(coeffs.sigma_t(xs, omega, _Ehat), dtype=float)
            return s + a * (C - 1.0 / step)

        weight = np.exp(C * Ep)

        def src(xs, omega, E, _Ehat=Ehat, _w=weight):
            return _w * np.asarray(f(xs, omega, _Ehat), dtype=float)

        eff = CoefficientSet(sigma_t=sigma_eff, shift=0.0)
        lattice = ((-stopping[n] / step)[:, None] * prev)[:, :, None]
        out, rep = sc.solve_scattering(src, eff, slice_grid, step_quad, tol=tol, max_iter=csda._MAX_ITER,
                                       check_threshold=False, grid_source=lattice,
                                       psi0=prev[:, :, None], cache=sweep_cache)
        prev = out.values[:, :, 0]
        phi[:, :, n] = prev
        step_iterations.append(rep.iterations)
        step_residuals.append(rep.residual_history)
        cache.update(rep.cache)
        trace_sup = max(trace_sup, csda.inflow_trace_sup(src, eff, mgrid, quad, mesh, 0.0))
        if snapshot_cb is not None:
            snapshot_cb(csda.MarchState(Ep, prev, step))
    report = csda.MarchReport(steps=n_steps, inner_iterations=sum(step_iterations),
                              final_slice_sup=float(np.max(np.abs(phi[:, :, 0]))),
                              inflow_trace_sup=trace_sup, cache=dict(cache),
                              step_iterations=step_iterations, step_residuals=step_residuals)
    return DiscreteField(phi, mgrid), report


class TestDirectionMajorMarch:
    """A kernel-free march runs each direction through all its steps before
    the next: its field, report and snapshots have the bits of the
    step-major loop, and it holds one direction's weights and operators at
    a time."""

    @staticmethod
    def _problem(ball, zero_source):
        # sigma switches between the second and third steps, so each
        # direction keeps one weight set for two steps and then another
        grid = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 0.4), 3)
        coeffs = CoefficientSet(
            sigma_t=lambda x, w, E: 0.4 + 0.1 * x[:, 0] + (0.2 if E > 0.15 else 0.0),
            stopping=unit_stopping, kappa=1.0, shift=0.5,
        )
        if zero_source:
            f = lambda x, w, E: np.zeros(len(np.atleast_2d(x)))
        else:
            f = lambda x, w, E: smooth_bump(np.linalg.norm(np.atleast_2d(x) - 0.1 * w, axis=1), 0.5) \
                * (1.0 + 0.8 * np.cos(3.0 * np.asarray(E)))
        return grid, coeffs, f

    @pytest.mark.parametrize("zero_source", [False, True])
    def test_march_equals_the_step_major_loop(self, ball, quad, zero_source):
        grid, coeffs, f = self._problem(ball, zero_source)
        runs = []
        for march in (_step_major_march, csda.march_energy):
            snapshots = []
            phi, rep = march(f, coeffs, grid, quad, dE=0.1, tol=1e-10,
                             snapshot_cb=lambda state: snapshots.append(
                                 (state.E_current, state.step, state.phi.copy())))
            runs.append((phi, rep, snapshots))
        (ref, ref_rep, ref_snaps), (phi, rep, snaps) = runs
        assert phi.values.tobytes() == ref.values.tobytes()
        for name in ("steps", "inner_iterations", "step_iterations", "step_residuals",
                     "final_slice_sup", "inflow_trace_sup"):
            assert getattr(rep, name) == getattr(ref_rep, name), name
        assert len(snaps) == len(ref_snaps) == rep.steps
        for (E, step, values), (E_ref, step_ref, values_ref) in zip(snaps, ref_snaps):
            assert (E, step) == (E_ref, step_ref)
            assert values.tobytes() == values_ref.tobytes()
        # the nodes of a direction are placed once per march, not per step;
        # every other count is the step-major loop's
        assert rep.cache["ray_nodes"] * rep.steps == ref_rep.cache["ray_nodes"]
        assert {k: v for k, v in rep.cache.items() if k != "ray_nodes"} == \
            {k: v for k, v in ref_rep.cache.items() if k != "ray_nodes"}
        if zero_source:
            # a zero slab builds nothing: one iteration of residual 0 per step
            assert rep.step_residuals == [[0.0]] * rep.steps
            assert rep.cache["operators_built"] == 0
        else:
            # every step's first residual is at least tol: two iterations
            assert rep.step_iterations == [2] * rep.steps
            assert all(h[0] >= 1e-10 and h[1] == 0.0 for h in rep.step_residuals)
            # steps 2 and 3 build a lattice-source operator for their new
            # weight set, step 4 reuses step 3's
            assert (rep.cache["operators_built"], rep.cache["operators_reused"],
                    rep.cache["ray_weights_reused"]) == (2 * grid.n_omega, grid.n_omega, 2 * grid.n_omega)

    @staticmethod
    def _csda_sweep(ball, n):
        """The problem of configs/csda_sweep.json on an n^3 lattice."""
        from raytrans.catalog import build_source

        grid = GridSpec(ball, n, 2, 4, EnergyInterval(0.0, 0.3), 3)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.6),
                                stopping=unit_stopping, kappa=1.0, shift=0.0)
        f = build_source({"name": "bump_cos_energy", "amplitude": 1.0, "radius": 0.45, "freq": 3.0})
        return grid, coeffs, f

    def test_budget_fits_a_direction_at_a_time(self, ball, quad, monkeypatch):
        # at 6 MiB one direction's weights and operator fit, all eight do
        # not: the step-major loop keeps one operator and streams the other
        # directions' lattice sources, the direction-major march keeps each
        # operator while its direction marches
        from raytrans import scattering as sc

        grid, coeffs, f = self._csda_sweep(ball, 13)
        monkeypatch.setattr(sc, "_CACHE_BYTES", 6 * 2**20)
        ref, ref_rep = _step_major_march(f, coeffs, grid, quad, dE=0.075)
        phi, rep = csda.march_energy(f, coeffs, grid, quad, dE=0.075)
        assert rep.cache["operator_bytes"] > sc._CACHE_BYTES
        assert (ref_rep.cache["operators_built"], ref_rep.cache["sweeps_rebuilt"]) == (1, 21)
        assert (rep.cache["operators_built"], rep.cache["sweeps_rebuilt"]) == (grid.n_omega, 0)
        assert phi.values.tobytes() == ref.values.tobytes()
        assert rep.step_residuals == ref_rep.step_residuals

    def test_one_direction_is_held_at_a_time(self, ball, quad, monkeypatch):
        # weakrefs on every weight set, weight array and operator the cache
        # builds: when a direction looks up its weights, no other
        # direction's are alive.  The step-major loop holds all of them.
        import gc
        import weakref

        from raytrans import scattering as sc

        grid, coeffs, f = self._problem(ball, zero_source=False)
        system, operator = sc.SweepCache.system, sc.SweepCache._operator
        built, others, ops = [], [], []

        def alive(j):
            gc.collect()
            return {k for k, ref in built if k != j and ref() is not None}

        def spied_system(cache, j, *args, **kwargs):
            others.append(alive(j))
            s, ws = system(cache, j, *args, **kwargs)
            built.extend((j, weakref.ref(a)) for a in [ws] + ws.weights)
            return s, ws

        def spied_operator(cache, ws, *args, **kwargs):
            op = operator(cache, ws, *args, **kwargs)
            if op is not None:
                j = next(k for k, ref in built if ref() is ws)
                built.append((j, weakref.ref(op)))
                ops.append(j)
            return op

        monkeypatch.setattr(sc.SweepCache, "system", spied_system)
        monkeypatch.setattr(sc.SweepCache, "_operator", spied_operator)
        csda.march_energy(f, coeffs, grid, quad, dE=0.1)
        assert len(others) == grid.n_omega * 4
        assert sorted(set(ops)) == list(range(grid.n_omega))
        assert all(not held for held in others)
        assert alive(None) == set()
        built.clear(), others.clear()
        _step_major_march(f, coeffs, grid, quad, dE=0.1)
        assert len(others[-1]) == grid.n_omega - 1

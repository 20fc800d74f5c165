import numpy as np
import pytest

from raytrans import attenuation as at
from raytrans.errors import CoefficientShapeError, NonFiniteValue, NotInH0
from raytrans.fields import CoefficientSet, EnergyInterval, GridSpec, sample_field
from raytrans.geometry import ConvexDomain, PhasePoint, ball_escape_closed_form, escape_times
from raytrans.norms import h_norm


def zero_f(x, w, E):
    return np.zeros(len(x))


def one_f(x, w, E):
    return np.ones(len(x))


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
    return at.RayQuadrature(16, 4)


def random_phase(rng, n, rmax=0.98):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    xs = v * (rmax * rng.uniform(0, 1, size=n) ** (1 / 3))[:, None]
    d = rng.normal(size=(n, 3))
    return xs, d / np.linalg.norm(d, axis=1, keepdims=True)


class TestRayQuadrature:
    def test_equal_rules_compare_and_hash_equal(self):
        # the reference arrays took part in ==, which raised numpy's
        # ambiguous truth value, and made the rule unhashable
        a, b = at.RayQuadrature(16, 4), at.RayQuadrature(16, 4)
        assert a == b and hash(a) == hash(b)
        assert a != at.RayQuadrature(16, 3) and a != at.RayQuadrature(8, 4)
        assert np.array_equal(a.partial_matrix, b.partial_matrix)
        with pytest.raises(ValueError, match="read-only"):
            a.ref_weights[0] = 1.0

    @pytest.mark.parametrize("ppu", [16, 12, 10, 7])
    def test_last_panel_width_is_in_the_panel_width(self, ppu):
        # exact multiples of 1/ppu and their neighbours one ulp away: at
        # ppu = 10, ceil(10 * 0.3) is 4 but 3 * (1/10) >= 0.3, so the count
        # takes one less; at ppu = 7, 12 and 24 the remainder can round over 1/ppu
        quad = at.RayQuadrature(ppu, 3)
        h = 1.0 / ppu
        k = np.arange(1, 40)
        T = np.concatenate([k * h, k / ppu, np.nextafter(k * h, 0.0), np.nextafter(k * h, 2.0),
                            np.random.default_rng(3).uniform(1e-13, 2.5, 2000)])
        xs = np.zeros((T.size, 3))
        seen = 0
        for sel, s, _, width in at._ray_groups(xs, np.array([0.0, 0.0, 1.0]), T, quad):
            npan = width.shape[1]
            assert np.all(quad.n_panels(T[sel]) == npan)
            assert np.all(width[:, :-1] == h)
            assert np.all((width[:, -1] > 0.0) & (width[:, -1] <= h))
            assert np.all(np.abs((npan - 1) * h + width[:, -1] - T[sel]) <= 4 * np.spacing(T[sel]))
            # the panel count is ceil(ppu T) up to the rounding of ppu T
            assert np.all(np.abs(npan - ppu * T[sel]) < 1.0 + 1e-9)
            assert np.all(s[:, -1] >= (npan - 1) * h) and np.all(s[:, -1] <= T[sel][:, None])
            seen += sel.size
        assert seen == T.size
        assert np.all(quad.n_panels(k * h) == k)

    def test_full_panel_nodes_share_their_distances_across_rays(self, ball, quad):
        rng = np.random.default_rng(41)
        xs, oms = random_phase(rng, 300)
        for omega in oms[:3]:
            T = escape_times(ball, xs, omega)
            groups = list(at._ray_groups(xs, omega, T, quad))
            assert len(groups) > 5
            longest = max(s.shape[1] for _, s, _, _ in groups)
            full = quad.full_nodes(longest - 1)
            for sel, s, pts, _ in groups:
                n_full = s.shape[1] - 1
                # every ray's full-panel node (p, q) is at full[p, q], bit for bit
                assert s[:, :n_full].tobytes() == np.broadcast_to(full[:n_full], s[:, :n_full].shape).tobytes()
                assert np.array_equal(pts[:, :n_full], xs[sel][:, None, None, :]
                                      - full[None, :n_full, :, None] * omega)


class TestPointSolve:
    def test_zero_sigma_unit_source_gives_exit_time(self, ball, quad):
        coeffs = CoefficientSet(sigma_t=zero_f)
        rng = np.random.default_rng(3)
        xs, oms = random_phase(rng, 50)
        for x, w in zip(xs, oms):
            psi = at.solve_attenuation_points(one_f, coeffs, ball, x, w, 0.0, quad)[0]
            t, _ = ball_escape_closed_form(x[None], w, with_gradient=False)
            assert psi == pytest.approx(t[0], abs=1e-11)

    def test_constant_attenuation_closed_form(self, ball, quad):
        # integrand exp(-t): psi = 1 - exp(-T)
        coeffs = CoefficientSet(sigma_t=one_f)
        rng = np.random.default_rng(5)
        xs, oms = random_phase(rng, 100)
        psi = np.array([
            at.solve_attenuation_points(one_f, coeffs, ball, x, w, 0.0, quad)[0]
            for x, w in zip(xs, oms)
        ])
        T, _ = ball_escape_closed_form(xs, oms, with_gradient=False)
        assert np.max(np.abs(psi - (1.0 - np.exp(-T)))) < 1e-8

    def test_inflow_point_returns_zero(self, ball, quad):
        coeffs = CoefficientSet(sigma_t=one_f)
        psi = at.solve_attenuation_points(one_f, coeffs, ball, np.array([1.0, 0, 0]),
                                          np.array([-1.0, 0, 0]), 0.0, quad)[0]
        assert psi == 0.0

    def test_streamed_solve_equals_ray_system(self, ball, quad, ray_system):
        # interior points of several panel counts plus inflow boundary points
        # (T = 0): the streamed one-shot solve and the materialised ray system
        # share one engine and must agree exactly
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: 0.5 + 0.3 * x[:, 0], shift=0.2)
        f = lambda x, w, E: np.cos(x[:, 1]) + E
        w = np.array([0.0, 0.6, 0.8])
        rng = np.random.default_rng(31)
        xs, _ = random_phase(rng, 60)
        inflow = -w + 0.3 * rng.normal(size=(5, 3))
        inflow /= np.linalg.norm(inflow, axis=1, keepdims=True)
        xs = np.vstack([xs, inflow, -w])
        T = escape_times(ball, xs, w)
        assert np.all(T[60:] <= 1e-14)
        assert np.unique(quad.n_panels(T[:60])).size > 5
        psi = at.solve_attenuation_points(f, coeffs, ball, xs, w, 0.4, quad)
        ref = ray_system(coeffs, ball, xs, w, 0.4, quad).integrate_callable(f)
        assert np.array_equal(psi, ref)
        assert np.all(psi[60:] == 0.0) and np.all(psi[:60] > 0.0)

    def test_linearity(self, ball, quad):
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: 0.5 + 0.3 * x[:, 0])
        f1 = lambda x, w, E: np.sin(x[:, 0])
        f2 = lambda x, w, E: np.cos(x[:, 1]) * x[:, 2]
        fc = lambda x, w, E: 2.0 * f1(x, w, E) - 3.0 * f2(x, w, E)
        x, w = np.array([0.2, -0.3, 0.1]), np.array([0.6, 0.8, 0.0])
        a, b, c = (at.solve_attenuation_points(f, coeffs, ball, x, w, 0.0, quad)[0] for f in (f1, f2, fc))
        assert c == pytest.approx(2 * a - 3 * b, abs=1e-12)

    def test_monotonicity(self, ball, quad):
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: 1.0 + x[:, 1] ** 2)
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.8)
        rng = np.random.default_rng(7)
        xs, oms = random_phase(rng, 50)
        for x, w in zip(xs, oms):
            assert at.solve_attenuation_points(f, coeffs, ball, x, w, 0.0, quad)[0] >= 0.0


class TestManufactured:
    def test_exit_time_profile_recovered(self, ball, quad):
        # psi* = w(T) with w(0) = 0; the streaming term is w'(T) by ray
        # additivity, so f = w'(T) + (Sigma + C) w(T) reproduces psi*.
        sig0, c0 = 0.4, 0.6
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), sig0) + 0.2 * x[:, 0],
                                shift=c0)

        wfun = lambda t: t**2 * np.exp(-t)
        wprime = lambda t: (2 * t - t**2) * np.exp(-t)

        def f(x, w, E):
            T, _ = ball_escape_closed_form(x, w, with_gradient=False)
            sig = coeffs.sigma_t(x, w, E) + c0
            return wprime(T) + sig * wfun(T)

        rng = np.random.default_rng(11)
        xs, oms = random_phase(rng, 200)
        psi = np.array([
            at.solve_attenuation_points(f, coeffs, ball, x, w, 0.0, quad)[0]
            for x, w in zip(xs, oms)
        ])
        T, _ = ball_escape_closed_form(xs, oms, with_gradient=False)
        assert np.max(np.abs(psi - wfun(T))) < 1e-9

    def test_grid_solver_matches_point_solver(self, ball, quad):
        grid = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 1.0), 2)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: 0.5 + 0.1 * E + 0.2 * x[:, 1])
        f = lambda x, w, E: 1.0 + x[:, 0] * E
        field = at.solve_attenuation_grid(f, coeffs, grid, quad)
        rng = np.random.default_rng(13)
        for _ in range(20):
            i = rng.integers(grid.n_interior)
            j = rng.integers(grid.n_omega)
            k = rng.integers(grid.n_energy)
            assert field.values[i, j, k] == pytest.approx(at.solve_attenuation_points(
                f, coeffs, ball, grid.coords[i], grid.sphere_nodes[j], float(grid.energy_nodes[k]), quad)[0],
                abs=1e-12)


class TestNodesPerDirection:
    def test_ray_nodes_equal_broadcast_formula(self, ball, quad):
        rng = np.random.default_rng(17)
        xs, oms = random_phase(rng, 200)
        for omega in oms[:5]:
            T = escape_times(ball, xs, omega)
            for sel, s, pts, _ in at._ray_groups(xs, omega, T, quad):
                old = xs[sel][:, None, None, :] - s[..., None] * omega[None, None, None, :]
                assert pts.shape == old.shape
                assert pts.tobytes() == old.tobytes()

    @pytest.mark.parametrize("sigma, recomputed_per_energy", [
        (lambda x, w, E: 0.5 + 0.2 * x[:, 1], False),
        (lambda x, w, E: 0.5 + 0.1 * E + 0.2 * x[:, 1], True),
    ], ids=["sigma_without_E", "sigma_with_E"])
    def test_grid_equals_per_energy_point_solves(self, ball, quad, monkeypatch,
                                                  sigma, recomputed_per_energy):
        grid = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 1.0), 3)
        coeffs = CoefficientSet(sigma_t=sigma, shift=0.25)
        f = lambda x, w, E: 1.0 + x[:, 0] * E
        t_cache = grid.escape_cache()
        calls = []
        geometry = at._ray_geometry
        monkeypatch.setattr(at, "_ray_geometry", lambda *a: calls.append(1) or geometry(*a))

        field = at.solve_attenuation_grid(f, coeffs, grid, quad)
        batched = len(calls)
        del calls[:]
        for j in range(grid.n_omega):
            for k in range(grid.n_energy):
                single = at.solve_attenuation_points(f, coeffs, ball, grid.coords, grid.sphere_nodes[j],
                                                     float(grid.energy_nodes[k]), quad, T=t_cache[:, j])
                assert single.shape == (grid.n_interior,)
                assert np.array_equal(field.values[:, j, k], single)
        # weights are formed once per group, and again only when sigma changes
        per_energy = len(calls)
        assert batched == (per_energy if recomputed_per_energy else per_energy // grid.n_energy)


class TestEllipsoidDomain:
    def test_manufactured_profile_on_ellipsoid(self, quad):
        # the exit-time profile trick is domain-independent: psi* = w(T) with
        # T from the generic machinery, f from ray additivity
        dom = ConvexDomain.ellipsoid([0.1, 0.0, -0.1], [1.4, 1.0, 0.8])
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.5), shift=0.5)
        wfun = lambda t: t**2 * np.exp(-t)
        wprime = lambda t: (2 * t - t**2) * np.exp(-t)

        def f(x, w, E):
            T = escape_times(dom, x, w)
            return wprime(T) + 1.0 * wfun(T)

        rng = np.random.default_rng(43)
        u = rng.normal(size=(60, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        xs = dom.center + u * dom.semi_axes * (0.97 * rng.uniform(0, 1, (60, 1)) ** (1 / 3))
        d = rng.normal(size=(60, 3))
        oms = d / np.linalg.norm(d, axis=1, keepdims=True)
        worst = 0.0
        for x, w in zip(xs, oms):
            got = at.solve_attenuation_points(f, coeffs, dom, x, w, 0.0, quad)[0]
            T = escape_times(dom, x.reshape(1, 3), w)[0]
            worst = max(worst, abs(got - wfun(T)))
        assert worst < 1e-9


class TestGradient:
    def test_zero_source(self, ball, quad):
        coeffs = CoefficientSet(sigma_t=one_f)
        g = at.solve_attenuation_gradient(zero_f, lambda x, w, E: np.zeros((len(x), 3)),
                                          coeffs, None, ball,
                                          PhasePoint(np.array([0.1, 0.2, 0.0]), np.array([1.0, 0, 0])),
                                          quad, inflow_vanishing=True)
        assert np.allclose(g, 0.0)

    @staticmethod
    def _check_vs_finite_differences(ball, quad, coeffs, grad_sigma):
        # inflow-vanishing bump source: boundary term absent
        c = np.array([0.1, -0.05, 0.2])
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x - c, axis=1), 0.5)

        def grad_f(x, w, E):
            h = 1e-6
            out = np.empty((len(x), 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                out[:, j] = (f(x + e, w, E) - f(x - e, w, E)) / (2 * h)
            return out

        def fd_richardson(x, w, j):
            # Richardson-extrapolated central differences: the plain h = 1e-4
            # quotient carries bump third-derivative truncation at the 1e-4
            # level itself, too coarse to serve as an oracle.
            def fd(h):
                e = np.zeros(3)
                e[j] = h
                up = at.solve_attenuation_points(f, coeffs, ball, x + e, w, 0.0, quad)[0]
                dn = at.solve_attenuation_points(f, coeffs, ball, x - e, w, 0.0, quad)[0]
                return (up - dn) / (2 * h)

            return (4 * fd(1e-4) - fd(2e-4)) / 3

        rng = np.random.default_rng(17)
        xs, oms = random_phase(rng, 25, rmax=0.7)
        for x, w in zip(xs, oms):
            g = at.solve_attenuation_gradient(f, grad_f, coeffs, grad_sigma, ball,
                                              PhasePoint(x, w), quad, inflow_vanishing=True)
            gn = max(np.max(np.abs(g)), 1e-3)
            for j in range(3):
                assert abs(fd_richardson(x, w, j) - g[j]) / gn < 1e-4

    def test_gradient_vs_finite_differences(self, ball, quad):
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.7), shift=0.3)
        self._check_vs_finite_differences(ball, quad, coeffs, None)

    def test_gradient_with_sigma_gradient_vs_finite_differences(self, ball, quad):
        # non-constant sigma: the differentiated attenuation factor contributes
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: 0.6 + 0.3 * x[:, 0] + 0.2 * x[:, 1] ** 2,
                                shift=0.3)

        def grad_sigma(x, w, E):
            return np.stack([np.full(len(x), 0.3), 0.4 * x[:, 1], np.zeros(len(x))], axis=1)

        self._check_vs_finite_differences(ball, quad, coeffs, grad_sigma)

    def test_boundary_term_reproduces_exit_time_gradient(self, ball, quad):
        # f = 1, Sigma = C = 0: psi = T, so grad psi = grad T, all from h3
        coeffs = CoefficientSet(sigma_t=zero_f)
        p = PhasePoint(np.array([0.3, -0.2, 0.1]), np.array([0.0, 0.6, 0.8]))
        g = at.solve_attenuation_gradient(one_f, lambda x, w, E: np.zeros((len(x), 3)),
                                          coeffs, None, ball, p, quad)
        _, g_exact = ball_escape_closed_form(p.x[None], p.omega)
        assert np.allclose(g, g_exact[0], atol=1e-10)

    def test_source_gradient_is_checked(self, ball, quad):
        coeffs = CoefficientSet(sigma_t=one_f)
        p = PhasePoint(np.array([0.1, 0.2, 0.0]), np.array([1.0, 0, 0]))
        nan_grad = lambda x, w, E: np.full((len(x), 3), np.nan)
        nan_f = lambda x, w, E: np.full(len(x), np.nan)
        with pytest.raises(NonFiniteValue, match=r"source is nan at ray node \[.*\] \(direction"):
            at.solve_attenuation_gradient(nan_f, lambda x, w, E: np.zeros((len(x), 3)), coeffs, None, ball, p,
                                          quad, inflow_vanishing=True)
        with pytest.raises(NonFiniteValue, match=r"grad_f is nan at ray node \[.*\] \(direction"):
            at.solve_attenuation_gradient(zero_f, nan_grad, coeffs, None, ball, p, quad, inflow_vanishing=True)
        flat_grad = lambda x, w, E: np.zeros(len(x))
        with pytest.raises(CoefficientShapeError, match=r"grad_f returned shape \(\d+,\) for \d+ ray nodes"):
            at.solve_attenuation_gradient(zero_f, flat_grad, coeffs, None, ball, p, quad, inflow_vanishing=True)
        with pytest.raises(CoefficientShapeError, match=r"grad_sigma returned shape \(\d+, 1\)"):
            at.solve_attenuation_gradient(zero_f, lambda x, w, E: np.zeros((len(x), 3)), coeffs,
                                          lambda x, w, E: np.zeros((len(x), 1)), ball, p, quad)

    def test_boundary_value_is_checked(self, ball, quad):
        # f is finite at every ray node and NaN only on the boundary, at y = x - T omega
        coeffs = CoefficientSet(sigma_t=one_f)
        f = lambda x, w, E: np.where(np.linalg.norm(x, axis=1) > 1.0 - 1e-9, np.nan, 1.0)
        p = PhasePoint(np.array([0.1, 0.2, 0.0]), np.array([1.0, 0, 0]))
        with pytest.raises(NonFiniteValue, match=r"source is nan at point \[.*\] \(direction"):
            at.solve_attenuation_gradient(f, lambda x, w, E: np.zeros((len(x), 3)), coeffs, None, ball, p, quad)


class TestSupportPreservation:
    def test_margin_preserved(self, ball, quad):
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: 0.5 + 0.2 * x[:, 2] ** 2)
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.7)
        rng = np.random.default_rng(23)
        xs, oms = random_phase(rng, 400)
        T = escape_times(ball, xs, oms)
        short = T < 0.29
        assert np.any(short)
        vals = np.array([at.solve_attenuation_points(f, coeffs, ball, x, w, 0.0, quad)[0]
                         for x, w in zip(xs[short], oms[short])])
        assert np.max(np.abs(vals)) < 1e-12

    def test_grid_solution_keeps_margin(self, ball, quad):
        from raytrans.norms import h0_margin

        grid = GridSpec(ball, 17, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=one_f)
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.6)
        fld = at.solve_attenuation_grid(f, coeffs, grid, quad)
        eta, ok = h0_margin(fld)
        assert ok and eta > 0.3

    def test_inflow_trace_exactly_zero(self, ball, quad):
        coeffs = CoefficientSet(sigma_t=one_f)
        f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.7)
        rng = np.random.default_rng(29)
        ys = ball.boundary_points(50, rng)
        for y in ys:
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            if np.dot(w, y) >= -1e-6:
                w = -w  # make it inflow-ish
            if np.dot(w, y) >= -1e-6:
                continue
            psi = at.solve_attenuation_points(f, coeffs, ball, y, w, 0.0, quad)[0]
            assert psi == 0.0


class TestAccretivity:
    def _bump_field(self, grid, rng):
        c = rng.uniform(-0.25, 0.25, size=3)
        r = rng.uniform(0.3, 0.45)
        amp = rng.uniform(0.5, 2.0)
        a = rng.uniform(-0.5, 0.5, size=3)

        def fn(x, w, E):
            return amp * smooth_bump(np.linalg.norm(x - c, axis=1), r) * (1.0 + a @ w)

        return sample_field(fn, grid)

    def test_zero_field(self, ball):
        grid = GridSpec(ball, 15, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=one_f, shift=2.0)
        z = sample_field(zero_f, grid)
        res = at.accretivity_functional(z, coeffs, 0)
        assert res.lhs == 0.0 and res.rhs_bound == 0.0 and res.boundary_term == 0.0

    def test_constant_sigma_identity_m0(self, ball):
        # deep interior bump (support clear of the boundary extrapolation
        # band): boundary term 0, streaming term telescopes, so
        # lhs = (C + sigma0) |psi|^2 exactly
        grid = GridSpec(ball, 19, 2, 4, EnergyInterval(0.0, 1.0), 1)
        sig0, c0 = 0.7, 1.3
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), sig0), shift=c0)
        psi = sample_field(
            lambda x, w, E: smooth_bump(np.linalg.norm(x - [0.1, 0.0, -0.1], axis=1), 0.35)
            * (1.0 + 0.4 * w[2]),
            grid,
        )
        res = at.accretivity_functional(psi, coeffs, 0)
        n2 = h_norm(psi, 0) ** 2
        assert res.lhs == pytest.approx(res.boundary_term + (c0 + sig0) * n2, rel=1e-6)

    def test_positive_with_shift(self, ball):
        grid = GridSpec(ball, 19, 2, 4, EnergyInterval(0.0, 1.0), 1)
        sig = lambda x, w, E: 0.5 * (1.0 + x[:, 0] ** 2)
        rng = np.random.default_rng(37)
        for m in (0, 1, 2):
            from raytrans.fields import leibniz_constant, sup_norm_estimate

            sup_s = sup_norm_estimate(sig, m, GridSpec(ball, 19, 2, 4, EnergyInterval(0.0, 1.0), 1))
            coeffs = CoefficientSet(sigma_t=sig, shift=leibniz_constant(m) * sup_s + 1.0)
            for _ in range(5):
                psi = self._bump_field(grid, rng)
                res = at.accretivity_functional(psi, coeffs, m, sigma_sup=sup_s)
                n2 = h_norm(psi, m) ** 2
                assert res.lhs >= 0.98 * n2

    def test_non_finite_sigma_is_named(self, ball):
        grid = GridSpec(ball, 15, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), np.nan), shift=2.0)
        with pytest.raises(NonFiniteValue, match=r"sigma is nan at grid node \[.*\] \(direction"):
            at.accretivity_functional(sample_field(zero_f, grid), coeffs, 0)

    def test_not_in_h0_raises(self, ball):
        grid = GridSpec(ball, 15, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=one_f, shift=2.0)
        one_field = sample_field(one_f, grid)
        with pytest.raises(NotInH0):
            at.accretivity_functional(one_field, coeffs, 0)

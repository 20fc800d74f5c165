"""Ray nodes are stored coordinate-major: every batch of nodes handed to a
callable or to ``_lattice_rows`` is a Fortran-ordered (n, 3) view, and the
callables of the package fail fast on results that break their contract."""

import numpy as np
import pytest

from raytrans import attenuation as at
from raytrans import csda
from raytrans import scattering as sc
from raytrans.catalog import _distance, build_scatter, build_source, smooth_bump
from raytrans.errors import CoefficientShapeError, NonFiniteValue
from raytrans.fields import CoefficientSet, EnergyInterval, GridSpec
from raytrans.geometry import ConvexDomain, escape_times


@pytest.fixture(scope="module")
def ball():
    return ConvexDomain.unit_ball()


@pytest.fixture(scope="module")
def quad():
    return at.RayQuadrature(16, 4)


def _row_major_groups(xs, omega, T, quad):
    """The node placement of the row-major layout, kept as the reference:
    one (..., 3) array, each coordinate written through a strided view.
    The panels are anchored at the ray start: full panels 1/ppu wide, the
    last holding the rest of T."""
    idx_active = np.flatnonzero(T > at._T_FLOOR)
    if idx_active.size == 0:
        return
    h = 1.0 / quad.panels_per_unit_length
    panel_counts = quad.n_panels(T[idx_active])
    for npan in np.unique(panel_counts):
        sel = idx_active[panel_counts == npan]
        width = np.full((sel.size, npan), h)
        width[:, -1] = np.minimum(T[sel] - (npan - 1) * h, h)
        start = np.arange(npan)[None, :, None] * h
        s = start + quad.ref_nodes[None, None, :] * width[:, :, None]
        pts = np.empty(s.shape + (3,))
        flat_s = s.reshape(sel.size, -1)
        flat_p = pts.reshape(sel.size, -1, 3)
        for ax in range(3):
            flat_p[:, :, ax] = xs[sel, ax][:, None] - flat_s * omega[ax]
        yield sel, s, pts, width


def _spy(calls, fn):
    """``fn`` recording the memory order of every node batch it is given."""
    def wrapped(x, *rest):
        calls.append(x.flags.f_contiguous and (x.shape[0] == 1 or not x.flags.c_contiguous))
        return fn(x, *rest)
    return wrapped


def _contiguous(fn):
    return lambda x, *rest: fn(np.ascontiguousarray(x), *rest)


def _elementwise_sigma(x, w, E):
    return 0.3 + 0.2 * x[:, 0] - 0.1 * x[:, 2] * (1.0 + E) + 0.05 * w[1]


def _elementwise_source(x, w, E):
    return smooth_bump(_distance(x, np.array([0.1, -0.1, 0.05])), 0.7) * (1.0 + x[:, 1] * w[0]) \
        + 0.1 * np.sum(x * x, axis=1) * E


class TestCoordinateMajorNodes:
    @pytest.mark.parametrize("domain", [ConvexDomain.unit_ball(),
                                        ConvexDomain.ellipsoid((0.1, -0.2, 0.0), (1.2, 0.7, 0.9))],
                             ids=["ball", "ellipsoid"])
    def test_nodes_are_a_fortran_view_with_the_row_major_bits(self, domain, quad):
        rng = np.random.default_rng(23)
        inner = domain.center + 0.95 * domain.semi_axes * rng.uniform(-0.57, 0.57, size=(150, 3))
        xs = np.vstack([inner, domain.boundary_points(40, rng)])
        oms = rng.normal(size=(5, 3))
        oms /= np.linalg.norm(oms, axis=1, keepdims=True)
        for omega in np.vstack([oms, [[0.0, 0.0, 1.0]]]):
            T = escape_times(domain, xs, omega)
            assert np.any(T == 0.0) and np.any(T > 0.0)
            new = list(at._ray_groups(xs, omega, T, quad))
            ref = list(_row_major_groups(xs, omega, T, quad))
            assert len(new) == len(ref) > 1
            for (sel, s, pts, width), (sel_r, s_r, pts_r, width_r) in zip(new, ref):
                assert np.array_equal(sel, sel_r) and np.all(T[sel] > 0.0)
                assert s.tobytes() == s_r.tobytes() and width.tobytes() == width_r.tobytes()
                assert pts.shape == pts_r.shape and pts.tobytes() == pts_r.tobytes()
                flat = pts.reshape(-1, 3)
                assert np.shares_memory(flat, pts) and flat.flags.f_contiguous
                assert flat.tobytes() == pts_r.reshape(-1, 3).tobytes()

    def test_point_and_csda_solves_pass_fortran_batches(self, ball, quad):
        rng = np.random.default_rng(29)
        xs = rng.uniform(-0.55, 0.55, size=(300, 3))
        omega = np.array([0.48, -0.6, 0.64])
        sig_calls, src_calls = [], []
        coeffs = CoefficientSet(sigma_t=_spy(sig_calls, _elementwise_sigma), shift=0.5)
        at.solve_attenuation_points(_spy(src_calls, _elementwise_source), coeffs, ball, xs, omega,
                                    np.array([0.0, 0.5]), quad)
        csda.explicit_csda_points(_spy(src_calls, _elementwise_source), 0.4, EnergyInterval(0.0, 1.0),
                                  ball, xs, omega, 0.25, quad)
        assert len(sig_calls) > 2 and len(src_calls) > 4
        assert all(sig_calls) and all(src_calls)

    def test_ray_systems_and_operator_builds_read_fortran_batches(self, ball, quad, monkeypatch,
                                                                  ray_system):
        g = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 1.0), 1)
        sig_calls, src_calls, lattice_calls = [], [], []
        coeffs = CoefficientSet(sigma_t=_spy(sig_calls, _elementwise_sigma), shift=0.5)
        rows = at._lattice_rows

        def lattice_rows(grid, pts):
            # the last-panel nodes of an operator build, one batch for the
            # whole direction: its columns stay contiguous
            lattice_calls.append(pts.strides[0] == pts.itemsize and pts.shape[0] > 1)
            return rows(grid, pts)

        monkeypatch.setattr(at, "_lattice_rows", lattice_rows)
        system = ray_system(coeffs, ball, g.coords, g.sphere_nodes[1], 0.0, quad, T=g.escape_cache()[:, 1])
        system.integrate_callable(_spy(src_calls, _elementwise_source))
        cache = sc.SweepCache(g, quad)
        cached, _ = cache.system(2, cache.nodes(2), coeffs, 0.0, sc._cache_counts())
        cached.integrate_callable(_spy(src_calls, _elementwise_source))
        cached.sweep_operator(g, np.ones(g.shape, dtype=bool))
        assert len(sig_calls) > 2 and len(src_calls) > 2 and len(lattice_calls) == 1
        assert all(sig_calls) and all(src_calls) and all(lattice_calls)

    def test_solves_equal_solves_on_row_major_copies(self, ball, quad):
        # elementwise callables round alike in either memory order
        g = GridSpec(ball, 11, 2, 4, EnergyInterval(0.0, 1.0), 2)
        kernel = build_scatter({"name": "linear_anisotropic_bump", "sigma_s": 0.4, "b": 0.3, "radius": 0.6})
        source = build_source({"name": "bump_cos_energy", "amplitude": 1.0, "radius": 0.6, "freq": 2.0})
        f = lambda x, w, E: source(x, w, E) + _elementwise_source(x, w, E)
        coeffs = CoefficientSet(sigma_t=_elementwise_sigma, scatter=kernel, shift=1.0)
        copied = CoefficientSet(sigma_t=_contiguous(_elementwise_sigma), scatter=_contiguous(kernel), shift=1.0)
        grid_f = at.solve_attenuation_grid(f, coeffs, g, quad)
        grid_c = at.solve_attenuation_grid(_contiguous(f), copied, g, quad)
        assert grid_f.values.tobytes() == grid_c.values.tobytes()
        psi_f, rep_f = sc.solve_scattering(f, coeffs, g, quad, tol=1e-10)
        psi_c, rep_c = sc.solve_scattering(_contiguous(f), copied, g, quad, tol=1e-10)
        assert rep_f.iterations == rep_c.iterations > 1
        assert psi_f.values.tobytes() == psi_c.values.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_distance_has_the_bits_of_linalg_norm(order):
    rng = np.random.default_rng(31)
    c = np.array([0.15, -0.3, 0.45])
    x = np.vstack([rng.normal(size=(20000, 3)), np.tile(c, (4, 1)), [[0.15, -0.3, 1.0]]])
    x = np.asarray(x, order=order)
    d = _distance(x, c)
    assert d.tobytes() == np.linalg.norm(x - c, axis=1).tobytes()
    assert np.all(d[-5:-1] == 0.0)


class TestCallablesFailFast:
    def test_non_finite_source_stops_the_grid_solve_at_its_direction(self, ball, quad):
        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 2)
        bad = g.sphere_nodes[3]
        seen = []

        def f(x, w, E):
            seen.append(int(np.argmin(np.linalg.norm(g.sphere_nodes - w, axis=1))))
            out = np.ones(len(x))
            if np.array_equal(w, bad) and E > 0.5:
                out[len(x) // 2] = np.nan
            return out

        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3), shift=0.5)
        with pytest.raises(NonFiniteValue, match=r"source is nan at ray node \[.*\] \(direction \[.*\], energy 1\)"):
            at.solve_attenuation_grid(f, coeffs, g, quad)
        assert set(seen) == {0, 1, 2, 3}

    def test_non_finite_source_stops_the_scattering_setup_at_its_direction(self, ball, quad):
        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
        bad = g.sphere_nodes[2]
        seen = []

        def f(x, w, E):
            seen.append(1)
            return np.where(x[:, 0] > 0.2, np.inf, 1.0) if np.array_equal(w, bad) else np.ones(len(x))

        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3), shift=0.5)
        with pytest.raises(NonFiniteValue, match=r"source is inf at ray node"):
            sc.solve_scattering(f, coeffs, g, quad)
        # directions 0 and 1 in full, then direction 2 up to its first bad group
        groups = [len(sc.SweepCache(g, quad).nodes(j)) for j in range(3)]
        assert groups[0] + groups[1] < len(seen) <= sum(groups)

    @pytest.mark.parametrize("solve", ["points", "system", "csda"])
    def test_source_of_wrong_shape_is_named(self, ball, quad, ray_system, solve):
        xs = np.random.default_rng(37).uniform(-0.5, 0.5, size=(50, 3))
        omega = np.array([0.0, 0.6, 0.8])
        f = lambda x, w, E: np.ones((len(x), 1))
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3), shift=0.5)
        with pytest.raises(CoefficientShapeError, match=r"source returned shape \(\d+, 1\) for \d+ ray nodes"):
            if solve == "points":
                at.solve_attenuation_points(f, coeffs, ball, xs, omega, 0.0, quad)
            elif solve == "system":
                ray_system(coeffs, ball, xs, omega, 0.0, quad).integrate_callable(f)
            else:
                csda.explicit_csda_points(f, 0.3, EnergyInterval(0.0, 1.0), ball, xs, omega, 0.0, quad)

    def test_non_finite_kernel_fails_before_the_first_iteration(self, ball, quad, monkeypatch):
        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 1)

        def kernel(x, wi, wo, E):
            out = np.full(len(x), 0.05)
            if np.array_equal(wi, g.sphere_nodes[1]) and np.array_equal(wo, g.sphere_nodes[4]):
                out[7] = np.nan
            return out

        applies = []
        monkeypatch.setattr(sc._KernelApplier, "apply_slice", lambda *a: applies.append(1))
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3), scatter=kernel, shift=1.0)
        for check in (True, False):
            with pytest.raises(NonFiniteValue, match=r"kernel is nan at grid node \[.*\] \(energy node 0, "
                                                     r"in-direction \[.*\], out-direction \[.*\], energy 0\)"):
                sc.solve_scattering(lambda x, w, E: np.ones(len(x)), coeffs, g, quad,
                                    check_threshold=check)
        assert applies == []

    def test_kernel_of_wrong_shape_is_named(self, ball, quad):
        g = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
        coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 0.3),
                                scatter=lambda x, wi, wo, E: np.full((len(x), 1), 0.05), shift=1.0)
        with pytest.raises(CoefficientShapeError, match=r"kernel returned shape \(\d+, 1\) for \d+ grid nodes"):
            sc.solve_scattering(lambda x, w, E: np.ones(len(x)), coeffs, g, quad)

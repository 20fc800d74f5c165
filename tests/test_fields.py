import math

import numpy as np
import pytest

from raytrans import fields as fl
from raytrans.errors import CoefficientShapeError, NonFiniteValue, OrderTooHigh
from raytrans.geometry import ConvexDomain
from raytrans.scattering import solvability_threshold


def smooth_bump(r, radius):
    """C-infinity bump of unit height supported in r < radius."""
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
    return fl.GridSpec(ball, 21, 4, 8, fl.EnergyInterval(0.0, 1.0), 3)


class TestGridSpec:
    def test_sphere_weights_sum(self, grid):
        assert abs(np.sum(grid.sphere_weights) - 4 * np.pi) < 1e-12

    def test_sphere_first_moment_vanishes(self, grid):
        m = grid.sphere_weights @ grid.sphere_nodes
        assert np.max(np.abs(m)) < 1e-12

    def test_interior_nodes_inside(self, grid, ball):
        assert np.all(ball.level(grid.coords) < 0)

    def test_energy_weights_sum_to_length(self, grid):
        assert abs(np.sum(grid.energy_weights) - 1.0) < 1e-14

    def test_volume_quadrature(self, ball):
        for n, tol in ((41, 2e-3), (101, 5e-4)):
            g = fl.GridSpec(ball, n, 1, 2, fl.EnergyInterval(0.0, 1.0), 1)
            vol = np.sum(g.vol_weights)
            assert abs(vol - 4 * np.pi / 3) / (4 * np.pi / 3) < tol

    def test_escape_cache_matches_geometry(self, grid, ball):
        from raytrans.geometry import escape_times

        t = grid.escape_cache()
        j = 3
        ref = escape_times(ball, grid.coords, grid.sphere_nodes[j])
        assert np.max(np.abs(t[:, j] - ref)) < 1e-12


class TestSampleField:
    def test_constant(self, grid):
        f = fl.sample_field(lambda x, w, E: np.ones(len(x)), grid)
        assert np.all(f.values == 1.0)

    def test_energy_slices(self, ball):
        g = fl.GridSpec(ball, 9, 2, 4, fl.EnergyInterval(0.0, 1.0), 2)
        f = fl.sample_field(lambda x, w, E: np.full(len(x), E), g)
        assert np.all(f.values[:, :, 0] == 0.0)
        assert np.all(f.values[:, :, 1] == 1.0)

    def test_escape_time_field_matches_geometry(self, grid):
        t = grid.escape_cache()
        f = fl.sample_field(
            lambda x, w, E: __import__("raytrans.geometry", fromlist=["escape_times"]).escape_times(grid.domain, x, w),
            grid,
        )
        for j in range(grid.n_omega):
            assert np.max(np.abs(f.values[:, j, 0] - t[:, j])) < 1e-12

    def test_non_finite_raises(self, grid):
        def bad(x, w, E):
            v = np.ones(len(x))
            v[0] = np.nan
            return v

        with pytest.raises(NonFiniteValue):
            fl.sample_field(bad, grid)

    def test_wrong_shape_is_named(self, grid):
        with pytest.raises(CoefficientShapeError, match=r"field returned shape \(\d+, 2\) for \d+ grid nodes "
                                                        r"\(direction \[.*\], energy 0\)"):
            fl.sample_field(lambda x, w, E: np.ones((len(x), 2)), grid)


class TestSupNorm:
    def test_constant(self, grid):
        for m in range(3):
            v = fl.sup_norm_estimate(lambda x, w, E: np.full(len(x), -2.5), m, grid)
            assert v == pytest.approx(2.5, abs=1e-12)

    def test_linear_coordinate(self, grid):
        v = fl.sup_norm_estimate(lambda x, w, E: x[:, 0], 1, grid)
        assert v == pytest.approx(1.0, abs=1e-10)

    def test_sin_second_derivative(self, ball):
        g = fl.GridSpec(ball, 101, 1, 2, fl.EnergyInterval(0.0, 1.0), 1)
        v = fl.sup_norm_estimate(lambda x, w, E: np.sin(np.pi * x[:, 0]), 2, g)
        assert abs(v - np.pi**2) / np.pi**2 < 0.02

    def test_monotone_in_order(self, grid):
        f = lambda x, w, E: np.sin(2 * x[:, 0]) * np.cos(x[:, 1])
        vals = [fl.sup_norm_estimate(f, m, grid) for m in range(3)]
        assert vals[0] <= vals[1] + 1e-12 and vals[1] <= vals[2] + 1e-12

    def test_every_direction_and_energy_node(self, ball):
        # peaks at direction 1 and energy node 1, between the nodes an even
        # subsample of 4 directions and 5 energies would take
        g = fl.GridSpec(ball, 9, 2, 4, fl.EnergyInterval(0.0, 1.0), 9)
        calls = []

        def sig(x, w, E):
            calls.append(1)
            return np.full(len(x), 1.0 + 2.0 * np.array_equal(w, g.sphere_nodes[1])
                           + 3.0 * (E == g.energy_nodes[1]))

        for m in (0, 1):
            calls.clear()
            assert fl.sup_norm_estimate(sig, m, g) == 6.0
            assert len(calls) == g.n_omega * g.n_energy

    def test_non_finite_field_is_named(self, grid):
        nan = lambda x, w, E: np.full(len(x), np.nan)
        for m in (0, 1):
            with pytest.raises(NonFiniteValue, match=r"field is nan at grid node \[.*\] \(direction"):
                fl.sup_norm_estimate(nan, m, grid)
        with pytest.raises(NonFiniteValue, match=r"sigma is nan at grid node"):
            solvability_threshold(fl.CoefficientSet(sigma_t=nan, shift=1.0), grid)

    def test_order_too_high(self, grid):
        with pytest.raises(OrderTooHigh):
            fl.sup_norm_estimate(lambda x, w, E: x[:, 0], 5, grid)


class TestLeibniz:
    def test_small_orders(self):
        assert fl.leibniz_constant(0) == pytest.approx(1.0)
        assert fl.leibniz_constant(1) == pytest.approx(math.sqrt(2.0))

    def test_order_two_by_enumeration(self):
        # independent brute-force enumeration of max_alpha sqrt(sum binom^2)
        best = 0.0
        for a1 in range(3):
            for a2 in range(3):
                for a3 in range(3):
                    if a1 + a2 + a3 > 2:
                        continue
                    s = 0
                    for b1 in range(a1 + 1):
                        for b2 in range(a2 + 1):
                            for b3 in range(a3 + 1):
                                s += (math.comb(a1, b1) * math.comb(a2, b2) * math.comb(a3, b3)) ** 2
                    best = max(best, math.sqrt(s))
        assert fl.leibniz_constant(2) == pytest.approx(best)
        assert best == pytest.approx(math.sqrt(6.0))

    def test_product_bound_holds(self, ball):
        # |Sigma psi|_(m) <= c(m) |Sigma|_W |psi|_(m) on random polynomial/bump pairs
        from raytrans.norms import h_norm

        g = fl.GridSpec(ball, 25, 2, 4, fl.EnergyInterval(0.0, 1.0), 2)
        rng = np.random.default_rng(101)
        for m in (0, 1, 2):
            cm = fl.leibniz_constant(m)
            for _ in range(8):
                coef = rng.uniform(-1, 1, size=4)
                sig = lambda x, w, E: coef[0] + coef[1] * x[:, 0] + coef[2] * x[:, 1] * x[:, 2] + coef[3] * x[:, 0] ** 2
                center = rng.uniform(-0.2, 0.2, size=3)
                psi = lambda x, w, E: smooth_bump(np.linalg.norm(x - center, axis=1), 0.55)
                f_psi = fl.sample_field(psi, g)
                f_prod = fl.sample_field(lambda x, w, E: sig(x, w, E) * psi(x, w, E), g)
                lhs = h_norm(f_prod, m)
                sup_s = fl.sup_norm_estimate(sig, m, g)
                rhs = cm * sup_s * h_norm(f_psi, m)
                assert lhs <= rhs * 1.02



def _neighbor(mask, axis, k):
    """mask at the node k steps along axis, False beyond the box faces."""
    pad = [(0, 0)] * 3
    pad[axis] = (2, 2)
    return np.take(np.pad(mask, pad), np.arange(2 + k, 2 + k + mask.shape[axis]), axis=axis)


def _box_coords(g):
    axes = [g.origin[k] + g.h[k] * np.arange(g.shape[k]) for k in range(3)]
    return np.meshgrid(*axes, indexing="ij")


@pytest.fixture(scope="module", params=["ball", "ellipsoid"])
def stencil_grid(request, grid):
    if request.param == "ball":
        return grid
    domain = ConvexDomain.ellipsoid([0.1, -0.05, 0.0], [1.0, 0.7, 0.5])
    return fl.GridSpec(domain, 17, 1, 2, fl.EnergyInterval(0.0, 1.0), 1)


class TestMaskedStencil:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_linear_field_gives_slope(self, stencil_grid, axis):
        g = stencil_grid
        X, Y, Z = _box_coords(g)
        slope = [0.7, -1.3, 0.4]
        d = g.diff_masked(0.2 + slope[0] * X + slope[1] * Y + slope[2] * Z, axis)
        has_nb = g.mask & (_neighbor(g.mask, axis, 1) | _neighbor(g.mask, axis, -1))
        assert np.any(has_nb & ~(_neighbor(g.mask, axis, 1) & _neighbor(g.mask, axis, -1)))
        assert np.allclose(d[has_nb], slope[axis], rtol=0.0, atol=1e-11)
        assert np.all(d[g.mask & ~has_nb] == 0.0)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_quadratic_exact_at_second_order_nodes(self, stencil_grid, axis):
        g = stencil_grid
        coords = _box_coords(g)
        p1, m1 = _neighbor(g.mask, axis, 1), _neighbor(g.mask, axis, -1)
        p2, m2 = _neighbor(g.mask, axis, 2), _neighbor(g.mask, axis, -2)
        second = g.mask & ((p1 & m1) | (p1 & p2) | (m1 & m2))
        assert np.any(second & ~(p1 & m1))
        d = g.diff_masked(coords[axis] ** 2 + coords[(axis + 1) % 3], axis)
        assert np.allclose(d[second], 2.0 * coords[axis][second], rtol=0.0, atol=1e-11)

    def test_zero_off_mask(self, stencil_grid):
        g = stencil_grid
        box = np.random.default_rng(3).standard_normal(g.shape)
        for axis in range(3):
            assert np.all(g.diff_masked(box, axis)[~g.mask] == 0.0)

    def test_channels_differenced_independently(self, stencil_grid):
        g = stencil_grid
        box = g.embed(np.random.default_rng(4).standard_normal((g.n_interior, 2)))
        for axis in range(3):
            d = g.diff_masked(box, axis)
            for c in range(2):
                assert np.array_equal(d[..., c], g.diff_masked(box[..., c], axis))



def _batched_stream(g, values, masked):
    """The all-directions-at-once ``GridSpec.stream`` that the per-direction
    loop replaced, frozen as the reference for bit identity."""
    op = g.diff_masked if masked else g.diff_central
    out = np.empty_like(values)
    for k in range(values.shape[2]):
        box = g.embed(values[:, :, k])
        acc = np.zeros_like(box)
        for axis in range(3):
            acc += op(box, axis) * g.sphere_nodes[None, None, None, :, axis]
        out[:, :, k] = g.extract(acc)
    return out


class TestStream:
    @pytest.mark.parametrize("masked", [True, False])
    def test_per_direction_equals_batched(self, stencil_grid, masked):
        g = stencil_grid
        shape = (g.n_interior, g.n_omega, 3)
        values = np.random.default_rng(5).standard_normal(shape)
        out = g.stream(values, masked=masked)
        assert out.shape == shape
        assert np.array_equal(out, _batched_stream(g, values, masked))

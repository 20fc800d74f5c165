import numpy as np
import pytest

from raytrans import geometry as geo
from raytrans.errors import (
    EmptyInput,
    GradientUndefinedOnBoundary,
    NotOnBoundary,
    OutsideDomain,
)


def bisection_escape_unit_ball(x, omega, tol=1e-12):
    """Independent oracle: bisect |x - s*omega| = 1 on [0, 2]."""
    lo, hi = 0.0, 2.0 + 1e-9
    f = lambda s: np.dot(x - s * omega, x - s * omega) - 1.0
    assert f(hi) >= 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def random_interior(rng, n, rmax=0.999):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = rmax * rng.uniform(0, 1, size=n) ** (1 / 3)
    return v * r[:, None]


def random_directions(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def ball():
    return geo.ConvexDomain.unit_ball()


@pytest.mark.parametrize("center, radius", [((0.0, 0.0, 0.0), 1.0), ((0.3, -0.2, 0.1), 0.7),
                                            ((-1.5, 2.0, 0.5), 2.3)])
def test_ball_is_the_ellipsoid_with_equal_semi_axes(center, radius):
    """Every quantity of a ball, bit for bit, is the ellipsoid's with semi-axes (r, r, r)."""
    ball = geo.ConvexDomain.unit_ball() if radius == 1.0 else geo.ConvexDomain.ball(center, radius)
    ell = geo.ConvexDomain.ellipsoid(center, (radius,) * 3)
    c = np.asarray(center)
    rng = np.random.default_rng(5)
    xs = c + radius * random_interior(rng, 200)
    oms = random_directions(rng, 200)
    np.testing.assert_array_equal(ball.level(xs), ell.level(xs))
    np.testing.assert_array_equal(ball.level_gradient(xs), ell.level_gradient(xs))
    np.testing.assert_array_equal(ball.bounding_box(), ell.bounding_box())
    np.testing.assert_array_equal(ball.boundary_points(50, np.random.default_rng(2)),
                                  ell.boundary_points(50, np.random.default_rng(2)))
    mb, me = geo.triangulate_boundary(ball, 3), geo.triangulate_boundary(ell, 3)
    for name in ("points", "areas", "normals"):
        np.testing.assert_array_equal(getattr(mb, name), getattr(me, name))
    np.testing.assert_array_equal(geo.escape_times(ball, xs, oms), geo.escape_times(ell, xs, oms))
    np.testing.assert_array_equal(ball.semi_axes, ell.semi_axes)
    assert ball.diameter == ell.diameter == 2.0 * radius


@pytest.mark.parametrize("center, semi_axes", [
    ((0, 0, 0), (1, 1, np.nan)),
    ((0, 0, 0), (1, np.inf, 1)),
    ((np.nan, 0, 0), (1, 1, 1)),
    ((0, -np.inf, 0), (1, 1, 1)),
])
def test_ellipsoid_rejects_non_finite_parameters(center, semi_axes):
    # these built a domain that failed later as "no lattice node falls inside"
    with pytest.raises(ValueError, match="finite"):
        geo.ConvexDomain.ellipsoid(center, semi_axes)


@pytest.mark.parametrize("center, radius", [((0, 0, 0), np.nan), ((0, 0, 0), np.inf), ((0, np.nan, 0), 1.0)])
def test_ball_rejects_non_finite_parameters(center, radius):
    with pytest.raises(ValueError, match="finite"):
        geo.ConvexDomain.ball(center, radius)


@pytest.mark.parametrize("xs", [np.zeros(3), np.zeros((2, 2)), np.zeros((1, 1, 3))])
def test_exit_times_take_only_batches_of_positions(ball, xs):
    w = np.array([1.0, 0, 0])
    for fn in (lambda: geo.escape_times(ball, xs, w), lambda: geo.escape_times_rootfind(ball, xs, w),
               lambda: geo.escape_time_gradient(ball, xs, w),
               lambda: geo.ball_escape_closed_form(xs, w)):
        with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
            fn()


class TestNormalsAndClassification:
    def test_sphere_normal_radial(self, ball):
        nu = geo.outward_normal(ball, np.array([[1.0, 0, 0], [0, -1.0, 0]]))
        assert np.allclose(nu, [[1, 0, 0], [0, -1, 0]], atol=1e-12)

    def test_ellipsoid_normal(self):
        # normalize grad of x^2/4 + y^2 + z^2 - 1 at (2,0,0)
        dom = geo.ConvexDomain.ellipsoid([0, 0, 0], [2, 1, 1])
        assert np.allclose(geo.outward_normal(dom, np.array([[2.0, 0, 0]])), [[1, 0, 0]], atol=1e-12)

    def test_normal_unit_length(self, ball):
        rng = np.random.default_rng(7)
        ys = ball.boundary_points(200, rng)
        nu = geo.outward_normal(ball, ys)
        assert np.max(np.abs(np.linalg.norm(nu, axis=1) - 1.0)) < 1e-12

    def test_not_on_boundary(self, ball):
        with pytest.raises(NotOnBoundary):
            geo.outward_normal(ball, np.array([[0.5, 0, 0]]))


class TestEscapeTime:
    def test_center_time_is_radius(self, ball):
        for omega in ([1, 0, 0], [0, 0, -1], [0.6, 0.8, 0]):
            assert geo.escape_times(ball, np.zeros(3)[None], np.array(omega, float))[0] == pytest.approx(1.0, abs=1e-10)

    def test_backward_ray_exit(self, ball):
        t = geo.escape_times(ball, np.array([0.5, 0, 0])[None], np.array([1.0, 0, 0]))[0]
        assert t == pytest.approx(1.5, abs=1e-10)

    def test_matches_bisection_oracle(self, ball):
        rng = np.random.default_rng(11)
        xs = random_interior(rng, 500)
        oms = random_directions(rng, 500)
        t = geo.escape_times(ball, xs, oms)
        t_ref = np.array([bisection_escape_unit_ball(x, w) for x, w in zip(xs, oms)])
        assert np.max(np.abs(t - t_ref)) < 1e-9

    def test_tangential_boundary_point_zero(self, ball):
        t = geo.escape_times(ball, np.array([1.0, 0, 0])[None], np.array([0.0, 0, 1.0]))[0]
        assert t == 0.0

    def test_outflow_boundary_chord(self, ball):
        t = geo.escape_times(ball, np.array([1.0, 0, 0])[None], np.array([1.0, 0, 0]))[0]
        assert t == pytest.approx(2.0, abs=1e-9)

    def test_outside_raises(self, ball):
        with pytest.raises(OutsideDomain):
            geo.escape_times(ball, np.array([1.5, 0, 0])[None], np.array([1.0, 0, 0]))[0]

    def test_additivity_along_rays(self, ball):
        rng = np.random.default_rng(13)
        xs = random_interior(rng, 400)
        oms = random_directions(rng, 400)
        t = geo.escape_times(ball, xs, oms)
        s = rng.uniform(0, 1, size=400) * t
        t_shift = geo.escape_times(ball, xs - s[:, None] * oms, oms)
        assert np.max(np.abs(t_shift - (t - s))) < 1e-9

    def test_range_bounds(self, ball):
        rng = np.random.default_rng(17)
        t = geo.escape_times(ball, random_interior(rng, 300), random_directions(rng, 300))
        assert np.all(t >= 0.0) and np.all(t <= ball.diameter + 1e-12)

    @pytest.mark.parametrize("n", [7, 100, 200001])
    def test_bits_do_not_depend_on_memory_order(self, n):
        rng = np.random.default_rng(n)
        for dom in (geo.ConvexDomain.unit_ball(), geo.ConvexDomain.ellipsoid([0.1, 0.0, -0.1], [1.4, 1.0, 0.8])):
            u = rng.normal(size=(n, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            xs = dom.center + u * dom.semi_axes * (0.99 * rng.uniform(0, 1, (n, 1)) ** (1 / 3))
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            c_order = geo.escape_times(dom, np.ascontiguousarray(xs), w)
            f_order = geo.escape_times(dom, np.asfortranarray(xs), w)
            assert np.array_equal(c_order, f_order)

    def test_ellipsoid_against_bisection(self):
        dom = geo.ConvexDomain.ellipsoid([0.1, -0.2, 0.0], [2.0, 1.0, 0.7])
        rng = np.random.default_rng(19)
        n = 200
        u = random_interior(rng, n, rmax=0.98)
        xs = dom.center + u * dom.semi_axes
        oms = random_directions(rng, n)
        t = geo.escape_times(dom, xs, oms)
        t_root = geo.escape_times_rootfind(dom, xs, oms)
        assert np.max(np.abs(t - t_root)) < 1e-9
        for i in range(n):
            lo, hi = 0.0, dom.diameter * (1 + 1e-9)
            f = lambda s: dom.level((xs[i] - s * oms[i]).reshape(1, 3))[0]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if f(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            assert abs(t[i] - 0.5 * (lo + hi)) < 1e-9


class TestBallClosedForm:
    def test_center(self):
        omega = np.array([0.6, 0.8, 0.0])
        t, g = geo.ball_escape_closed_form(np.zeros((1, 3)), omega)
        assert t[0] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(g[0], omega, atol=1e-14)

    def test_half_radius(self):
        t, g = geo.ball_escape_closed_form(np.array([[0.5, 0, 0]]), np.array([1.0, 0, 0]))
        assert t[0] == pytest.approx(1.5, abs=1e-14)
        assert np.allclose(g[0], [1.0, 0, 0], atol=1e-14)

    def test_gradient_vs_central_differences(self):
        rng = np.random.default_rng(23)
        xs = random_interior(rng, 300, rmax=0.9)
        oms = random_directions(rng, 300)
        _, grad = geo.ball_escape_closed_form(xs, oms)
        h = 1e-5
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            tp, _ = geo.ball_escape_closed_form(xs + e, oms, with_gradient=False)
            tm, _ = geo.ball_escape_closed_form(xs - e, oms, with_gradient=False)
            fd = (tp - tm) / (2 * h)
            denom = np.maximum(np.abs(grad[:, j]), 1.0)
            assert np.max(np.abs(fd - grad[:, j]) / denom) < 1e-5

    def test_closed_form_matches_generic_root(self, ball=None):
        dom = geo.ConvexDomain.unit_ball()
        rng = np.random.default_rng(29)
        xs = random_interior(rng, 1000)
        oms = random_directions(rng, 1000)
        t_generic = geo.escape_times_rootfind(dom, xs, oms)
        t_closed, _ = geo.ball_escape_closed_form(xs, oms, with_gradient=False)
        assert np.max(np.abs(t_generic - t_closed)) < 1e-9
        # the dispatching entry point agrees with both
        assert np.max(np.abs(geo.escape_times(dom, xs, oms) - t_closed)) < 1e-12

    def test_gradient_undefined_on_boundary(self):
        with pytest.raises(GradientUndefinedOnBoundary):
            geo.ball_escape_closed_form(np.array([[1.0, 0, 0]]), np.array([0.0, 0, 1.0]))

    def test_implicit_gradient_matches_closed_form(self):
        dom = geo.ConvexDomain.unit_ball()
        rng = np.random.default_rng(31)
        xs = random_interior(rng, 200, rmax=0.9)
        oms = random_directions(rng, 200)
        _, g_closed = geo.ball_escape_closed_form(xs, oms)
        g_impl = geo.escape_time_gradient(dom, xs, oms)
        assert np.max(np.abs(g_closed - g_impl)) < 1e-8

    def test_implicit_gradient_rejects_tangential_exit(self):
        from raytrans.errors import GradientUnavailable

        dom = geo.ConvexDomain.unit_ball()
        with pytest.raises(GradientUnavailable):
            geo.escape_time_gradient(dom, np.array([[1.0, 0, 0]]), np.array([0.0, 0, 1.0]))


class TestBacktrack:
    """The inflow foot y = x - T omega of a backward ray."""

    def test_center_down(self, ball):
        x, w = np.zeros(3), np.array([0.0, 0, 1.0])
        s = geo.escape_times(ball, x[None], w)[0]
        assert s == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(x - s * w, [0, 0, -1], atol=1e-9)

    def test_outflow_chord(self, ball):
        x, w = np.array([1.0, 0, 0]), np.array([1.0, 0, 0])
        s = geo.escape_times(ball, x[None], w)[0]
        assert s == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(x - s * w, [-1, 0, 0], atol=1e-8)

    def test_lands_on_inflow(self, ball):
        rng = np.random.default_rng(37)
        xs = random_interior(rng, 300)
        oms = random_directions(rng, 300)
        s = geo.escape_times(ball, xs, oms)
        assert np.all(s > geo.BOUNDARY_TOL)
        ys = xs - s[:, None] * oms
        nu = geo.outward_normal(ball, ball.project_to_boundary(ys))
        assert np.all(np.einsum("ij,ij->i", oms, nu) < geo.TANGENT_TOL)


class TestSupportAndHyperplane:
    def test_margin_center(self, ball):
        p = geo.PhasePoint(np.zeros(3), np.array([1.0, 0, 0]))
        assert geo.support_margin(ball, [p]) == pytest.approx(1.0, abs=1e-10)

    def test_margin_zero_with_inflow_point(self, ball):
        pts = [
            geo.PhasePoint(np.zeros(3), np.array([1.0, 0, 0])),
            geo.PhasePoint(np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])),
        ]
        assert geo.support_margin(ball, pts) == 0.0

    def test_margin_of_centered_bump_support(self, ball):
        # support of a bump of radius 0.3: worst ray exits after 0.7
        rng = np.random.default_rng(41)
        xs = random_interior(rng, 2000, rmax=0.3)
        oms = random_directions(rng, 2000)
        m = geo.support_margin(ball, [geo.PhasePoint(x, w) for x, w in zip(xs, oms)])
        assert m >= 0.7 - 1e-6

    def test_empty_raises(self, ball):
        with pytest.raises(EmptyInput):
            geo.support_margin(ball, [])

    def test_supporting_hyperplane(self, ball):
        rng = np.random.default_rng(43)
        ys = ball.boundary_points(200, rng)
        zs = random_interior(rng, 200, rmax=0.999)
        nu = geo.outward_normal(ball, ys)
        vals = np.einsum("ij,kj->ik", nu, zs) - np.sum(nu * ys, axis=1)[:, None]
        assert np.all(vals < 0.0)

    def test_midpoint_convexity(self, ball):
        rng = np.random.default_rng(47)
        y1 = ball.boundary_points(100, rng)
        y2 = ball.boundary_points(100, rng)
        same = np.linalg.norm(y1 - y2, axis=1) < 1e-8
        mids = 0.5 * (y1 + y2)[~same]
        assert np.all(ball.level(mids) < 0.0)


class TestContinuityAndMesh:
    def test_level_gradient_vs_fd(self):
        dom = geo.ConvexDomain.ellipsoid([0.0, 0.1, 0.0], [1.5, 1.0, 0.8])
        rng = np.random.default_rng(53)
        u = random_interior(rng, 100, rmax=0.95)
        xs = dom.center + u * dom.semi_axes
        g = dom.level_gradient(xs)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (dom.level(xs + e) - dom.level(xs - e)) / (2 * h)
            assert np.max(np.abs(fd - g[:, j]) / np.maximum(np.abs(g[:, j]), 1.0)) < 1e-6

    def test_continuity_to_zero_near_inflow_closure(self, ball):
        # sequences approaching an inflow boundary point have vanishing times
        y = np.array([0.0, 0.0, -1.0])
        omega = np.array([0.0, 0.0, 1.0])
        ks = np.arange(1, 12)
        xs = y * (1.0 - 10.0 ** (-ks[:, None].astype(float)))
        t = geo.escape_times(ball, xs, omega)
        assert np.all(np.diff(t) <= 0) and t[-1] < 1e-9

    def test_continuity_interior_sampling(self, ball):
        rng = np.random.default_rng(59)
        x0 = np.array([0.2, -0.1, 0.4])
        w0 = np.array([0.0, 0.6, 0.8])
        t0 = geo.escape_times(ball, x0[None], w0)[0]
        for k in range(2, 9):
            dx = 10.0 ** (-k) * rng.normal(size=3)
            t = geo.escape_times(ball, (x0 + dx)[None], w0)[0]
            assert abs(t - t0) < 10.0 ** (-k) * 20

    def test_surface_mesh_area(self, ball):
        mesh = geo.triangulate_boundary(ball, subdivisions=4)
        assert abs(mesh.areas.sum() - 4 * np.pi) / (4 * np.pi) < 5e-3
        assert np.max(np.abs(ball.level(mesh.points))) < 1e-12
        out = np.einsum("ij,ij->i", mesh.normals, mesh.points)
        assert np.all(out > 0)

    def test_phase_point_validation(self):
        with pytest.raises(ValueError):
            geo.PhasePoint(np.zeros(3), np.array([1.0, 1.0, 0.0]))

"""Generated tests of the exit-time map and the attenuation solve: ray
additivity and range of exit times, the closed form against root finding on
balls and ellipsoids, linearity in the source, and support preservation along
characteristics."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from raytrans.attenuation import RayQuadrature, solve_attenuation_points
from raytrans.catalog import smooth_bump
from raytrans.fields import CoefficientSet
from raytrans.geometry import ConvexDomain, escape_times, escape_times_rootfind

QUAD = RayQuadrature(8, 3)
BALL = ConvexDomain.unit_ball()

coord = st.floats(-1.0, 1.0)
unit = st.tuples(coord, coord, coord).filter(lambda v: np.linalg.norm(v) > 0.1).map(
    lambda v: np.array(v) / np.linalg.norm(v))
length = st.floats(0.2, 2.0)
domains = st.one_of(
    st.builds(ConvexDomain.ball, st.tuples(coord, coord, coord), length),
    st.builds(ConvexDomain.ellipsoid, st.tuples(coord, coord, coord), st.tuples(length, length, length)))


@st.composite
def interior_points(draw, domain, n_max=8):
    """Up to n_max points of the domain, at most 0.99 of the way from its
    center to its boundary along random rays."""
    rays = draw(st.lists(st.tuples(unit, st.floats(0.0, 0.99)), min_size=1, max_size=n_max))
    return np.array([domain.center + u * domain.semi_axes * r for u, r in rays])


@given(st.data(), domains)
def test_exit_time_is_additive_along_rays_and_bounded_by_the_diameter(data, domain):
    xs = data.draw(interior_points(domain))
    omega = data.draw(unit)
    frac = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(xs), max_size=len(xs))))
    T = escape_times(domain, xs, omega)
    assert np.all(T >= 0.0) and np.all(T <= domain.diameter * (1 + 1e-12))
    s = frac * T
    assert np.max(np.abs(escape_times(domain, xs - s[:, None] * omega, omega) - (T - s))) < 1e-9


@given(st.data(), domains)
def test_closed_form_matches_root_finding(data, domain):
    xs = data.draw(interior_points(domain))
    omegas = np.array(data.draw(st.lists(unit, min_size=len(xs), max_size=len(xs))))
    gap = np.abs(escape_times(domain, xs, omegas) - escape_times_rootfind(domain, xs, omegas))
    assert np.max(gap) < 1e-9


sigmas = st.builds(lambda s0, g: CoefficientSet(sigma_t=lambda x, w, E: s0 + x @ np.asarray(g), shift=0.1),
                   st.floats(0.5, 2.0), st.tuples(*[st.floats(-0.4, 0.4)] * 3))
sources = st.builds(lambda a, b, k: lambda x, w, E: a + x @ np.asarray(b) + np.sin(k * x[:, 0] + w[2]),
                    st.floats(-2.0, 2.0), st.tuples(*[st.floats(-2.0, 2.0)] * 3), st.floats(0.0, 5.0))


@given(st.data(), sigmas, sources, sources, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_attenuation_solve_is_linear_in_the_source(data, coeffs, f1, f2, a, b):
    xs = data.draw(interior_points(BALL))
    omega = data.draw(unit)
    solve = lambda f: solve_attenuation_points(f, coeffs, BALL, xs, omega, 0.0, QUAD)
    both = solve(lambda x, w, E: a * f1(x, w, E) + b * f2(x, w, E))
    parts = a * solve(f1) + b * solve(f2)
    assert np.max(np.abs(both - parts)) <= 1e-12 * (1.0 + np.max(np.abs(parts)))


@given(st.data(), sigmas, st.floats(0.1, 0.4))
def test_solution_vanishes_where_the_characteristic_misses_the_source(data, coeffs, radius):
    center = data.draw(interior_points(BALL, n_max=1))[0] * 0.5
    xs = data.draw(interior_points(BALL))
    omega = data.draw(unit)
    f = lambda x, w, E: smooth_bump(np.linalg.norm(x - center, axis=1), radius)
    psi = solve_attenuation_points(f, coeffs, BALL, xs, omega, 0.0, QUAD)
    # distance from the center to the backward segment x - t omega, 0 <= t <= T
    T = escape_times(BALL, xs, omega)
    t = np.clip((xs - center) @ omega, 0.0, T)
    miss = np.linalg.norm(xs - t[:, None] * omega - center, axis=1) > radius * (1 + 1e-9)
    assert np.all(psi[miss] == 0.0)
    assert np.all(psi >= 0.0)

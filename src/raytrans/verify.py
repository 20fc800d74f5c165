"""Deterministic property suites: each module's invariants at pinned seeds
and small grids, reported as pass/fail entries for the scenario runner."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attenuation as at
from . import csda
from . import norms as nm
from . import scattering as sc
from .catalog import smooth_bump
from .errors import ConfigError
from .fields import CoefficientSet, DiscreteField, EnergyInterval, GridSpec, leibniz_constant, sample_field, sup_norm_estimate
from .geometry import (
    ConvexDomain,
    ball_escape_closed_form,
    escape_times,
    escape_times_rootfind,
    outward_normal,
)

_ISO = 1.0 / (4.0 * np.pi)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    value: float
    tolerance: float

    def as_dict(self) -> dict:
        return {"name": self.name, "pass": bool(self.passed),
                "value": float(self.value), "tolerance": float(self.tolerance)}


def _interior(rng, n, rmax=0.98):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * (rmax * rng.uniform(0, 1, size=n) ** (1 / 3))[:, None]


def _directions(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def geometry_suite(seed: int = 0) -> list[PropertyResult]:
    ball = ConvexDomain.unit_ball()
    rng = np.random.default_rng(seed)
    out = []

    xs, oms = _interior(rng, 1000), _directions(rng, 1000)
    t_closed, _ = ball_escape_closed_form(xs, oms, with_gradient=False)
    gap = float(np.max(np.abs(escape_times_rootfind(ball, xs, oms) - t_closed)))
    out.append(PropertyResult("exit_time_closed_form_vs_rootfind", gap < 1e-9, gap, 1e-9))

    t = escape_times(ball, xs, oms)
    s = rng.uniform(0, 1, size=1000) * t
    gap = float(np.max(np.abs(escape_times(ball, xs - s[:, None] * oms, oms) - (t - s))))
    out.append(PropertyResult("exit_time_ray_additivity", gap < 1e-9, gap, 1e-9))

    in_range = bool(np.all((t >= 0) & (t <= ball.diameter + 1e-12)))
    out.append(PropertyResult("exit_time_range", in_range, float(np.max(t)), ball.diameter))

    ys = ball.boundary_points(200, rng)
    zs = _interior(rng, 200, rmax=0.999)
    nu = outward_normal(ball, ys)
    worst = float(np.max(np.einsum("ij,kj->ik", nu, zs) - np.sum(nu * ys, axis=1)[:, None]))
    out.append(PropertyResult("supporting_hyperplane", worst < 0.0, worst, 0.0))

    mids = 0.5 * (ys[:100] + ys[100:])
    ok = bool(np.all(ball.level(mids) < 0.0))
    out.append(PropertyResult("strict_convexity_midpoints", ok, float(np.max(ball.level(mids))), 0.0))

    dots = np.einsum("ij,ij->i", oms[:200], outward_normal(ball, ys))
    t_b = escape_times(ball, ys, oms[:200])
    zero_ok = bool(np.all((t_b[dots <= 0] < 1e-9) & True)) and bool(np.all(t_b[dots > 1e-6] > 0))
    out.append(PropertyResult("exit_time_zero_set", zero_ok, float(np.max(t_b[dots <= 0], initial=0.0)), 1e-9))

    y0, w0 = np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0])
    seqs = y0 * (1.0 - 10.0 ** (-np.arange(1.0, 10.0)))[:, None]
    tail = float(escape_times(ball, seqs, w0)[-1])
    out.append(PropertyResult("exit_time_continuity_at_inflow", tail < 1e-6, tail, 1e-6))
    return out


def _std_quad():
    return at.RayQuadrature(12, 4)


def attenuation_suite(seed: int = 0) -> list[PropertyResult]:
    ball = ConvexDomain.unit_ball()
    rng = np.random.default_rng(seed)
    quad = _std_quad()
    out = []

    def point(f, cs, x, w):
        return at.solve_attenuation_points(f, cs, ball, x, w, 0.0, quad)[0]

    coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), 1.0))
    xs, oms = _interior(rng, 200), _directions(rng, 200)
    psi = np.array([point(lambda x, w, E: np.ones(len(x)), coeffs, x, w) for x, w in zip(xs, oms)])
    T, _ = ball_escape_closed_form(xs, oms, with_gradient=False)
    gap = float(np.max(np.abs(psi - (1.0 - np.exp(-T)))))
    out.append(PropertyResult("attenuation_constant_closed_form", gap < 1e-8, gap, 1e-8))

    # manufactured exit-time profile
    sshift = CoefficientSet(sigma_t=lambda x, w, E: 0.4 + 0.2 * x[:, 0], shift=0.6)
    wf = lambda t: t**2 * np.exp(-t)
    wp = lambda t: (2 * t - t**2) * np.exp(-t)

    def fman(x, w, E):
        tt, _ = ball_escape_closed_form(x, w, with_gradient=False)
        return wp(tt) + (sshift.sigma_t(x, w, E) + sshift.shift) * wf(tt)

    psi = np.array([point(fman, sshift, x, w) for x, w in zip(xs[:100], oms[:100])])
    gap = float(np.max(np.abs(psi - wf(T[:100]))))
    out.append(PropertyResult("attenuation_manufactured_profile", gap < 1e-9, gap, 1e-9))

    f1 = lambda x, w, E: np.sin(x[:, 0])
    f2 = lambda x, w, E: np.cos(x[:, 1])
    solve = lambda f: point(f, sshift, np.array([0.2, -0.1, 0.3]), np.array([0.6, 0.8, 0.0]))
    lin = abs(solve(lambda x, w, E: 2 * f1(x, w, E) - 3 * f2(x, w, E)) - (2 * solve(f1) - 3 * solve(f2)))
    out.append(PropertyResult("attenuation_linearity", lin < 1e-12, lin, 1e-12))

    fb = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.7)
    T_all = escape_times(ball, xs, oms)
    short = T_all < 0.29
    vals = np.array([point(fb, coeffs, x, w) for x, w in zip(xs[short], oms[short])]) \
        if np.any(short) else np.zeros(1)
    worst = float(np.max(np.abs(vals)))
    out.append(PropertyResult("support_preservation_margin", worst < 1e-12, worst, 1e-12))

    mono = np.array([point(fb, coeffs, x, w) for x, w in zip(xs[:100], oms[:100])])
    out.append(PropertyResult("attenuation_monotone_nonnegative", bool(np.all(mono >= 0)), float(np.min(mono)), 0.0))

    grid = GridSpec(ball, 17, 2, 4, EnergyInterval(0.0, 1.0), 1)
    sig = lambda x, w, E: 0.5 * (1.0 + x[:, 0] ** 2)
    worst_ratio = np.inf
    for m in (0, 1):
        sup_s = sup_norm_estimate(sig, m, grid)
        cset = CoefficientSet(sigma_t=sig, shift=leibniz_constant(m) * sup_s + 1.0)
        for _ in range(10):
            c = rng.uniform(-0.2, 0.2, size=3)
            r = rng.uniform(0.25, 0.4)
            amp = rng.uniform(0.5, 2.0)
            fld = sample_field(lambda x, w, E: amp * smooth_bump(np.linalg.norm(x - c, axis=1), r), grid)
            res = at.accretivity_functional(fld, cset, m, sigma_sup=sup_s)
            n2 = nm.h_norm(fld, m) ** 2
            worst_ratio = min(worst_ratio, res.lhs / n2)
    out.append(PropertyResult("accretivity_shifted_positive", worst_ratio >= 0.98, float(worst_ratio), 0.98))
    return out


def scattering_suite(seed: int = 0) -> list[PropertyResult]:
    ball = ConvexDomain.unit_ball()
    rng = np.random.default_rng(seed)
    quad = _std_quad()
    out = []
    grid = GridSpec(ball, 13, 4, 8, EnergyInterval(0.0, 1.0), 1)

    iso = lambda x, wi, wo, E: np.full(len(np.atleast_2d(x)), _ISO)
    const_field = sample_field(lambda x, w, E: np.full(len(x), 2.5), grid)
    gap = float(np.max(np.abs(sc.apply_scatter_grid(iso, const_field).values - 2.5)))
    out.append(PropertyResult("scatter_isotropic_normalization", gap < 1e-12, gap, 1e-12))

    kern = lambda x, wi, wo, E: np.full(len(np.atleast_2d(x)), _ISO * (1.0 + wi @ wo))
    psi_fn = lambda x, w, E: np.full(len(np.atleast_2d(x)), w[2])
    omega = grid.sphere_nodes[3]
    gap = abs(sc.apply_scatter(kern, psi_fn, grid.coords[0], omega, 0.0, grid)[0] - omega[2] / 3.0)
    out.append(PropertyResult("scatter_linear_moment", gap < 1e-12, gap, 1e-12))

    worst = 0.0
    sq = np.sqrt(grid.sphere_weights)
    for _ in range(5):
        a0 = rng.uniform(0.05, 0.5)
        a1 = rng.uniform(0.0, a0)
        r0 = rng.uniform(0.4, 0.8)
        k2 = lambda x, wi, wo, E: (a0 + a1 * (wi @ wo)) * _ISO \
            * smooth_bump(np.linalg.norm(np.atleast_2d(x), axis=1), r0)
        applier = sc._KernelApplier(k2, grid)
        bound = sc.scatter_norm_bound(k2, grid, applier=applier)
        # M[x, out, in] = w_in K(x, in, out): the discrete operator at each node
        M = np.zeros((grid.n_interior, grid.n_omega, grid.n_omega))
        for jo in range(grid.n_omega):
            rows, col = applier.column(0, jo)
            M[rows, jo] = col * grid.sphere_weights
        W = sq[:, None] * M / sq[None, :]
        observed = float(np.max(np.linalg.svd(W, compute_uv=False)[:, 0]))
        worst = max(worst, observed - bound)
    out.append(PropertyResult("scatter_bound_dominates_observed", worst <= 1e-12, worst, 0.0))

    sigma_s = lambda x: 0.5 * smooth_bump(np.linalg.norm(np.atleast_2d(x), axis=1), 0.75)
    coeffs = CoefficientSet(
        sigma_t=lambda x, w, E: np.full(len(x), 0.1),
        scatter=lambda x, wi, wo, E: _ISO * sigma_s(x),
        shift=0.9,
    )
    f = lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.6)
    psi, rep = sc.solve_scattering(f, coeffs, grid, quad, tol=1e-9, max_iter=60)
    out.append(PropertyResult("iteration_rate_below_bound", rep.estimated_rate <= rep.rate_bound,
                              rep.estimated_rate, rep.rate_bound))

    # support margin on a grid that resolves the source/kernel supports
    mgrid = GridSpec(ball, 21, 4, 8, EnergyInterval(0.0, 1.0), 1)
    mcoeffs = CoefficientSet(
        sigma_t=lambda x, w, E: np.full(len(x), 0.2),
        scatter=lambda x, wi, wo, E: 0.4 * _ISO * smooth_bump(
            np.linalg.norm(np.atleast_2d(x), axis=1), 0.35),
        shift=1.0,
    )
    mpsi, _ = sc.solve_scattering(lambda x, w, E: smooth_bump(np.linalg.norm(x, axis=1), 0.35),
                                  mcoeffs, mgrid, quad, tol=1e-9)
    eta, okm = nm.h0_margin(mpsi)
    out.append(PropertyResult("scattering_output_margin", okm, eta, 2 * float(np.mean(mgrid.h))))

    g1 = lambda y, w, E: 1.0 + y[:, 0] * y[:, 2] + np.sin(2 * y[:, 1])
    delta, worst = 1e-4, 0.0
    for _ in range(50):
        x = _interior(rng, 1, rmax=0.9)[0]
        w = _directions(rng, 1)[0]
        if ball.level((x + delta * w).reshape(1, 3))[0] >= 0:
            continue
        up = sc.lift_values(g1, 0.0, ball, (x + delta * w).reshape(1, 3), w, 0.0)[0]
        dn = sc.lift_values(g1, 0.0, ball, (x - delta * w).reshape(1, 3), w, 0.0)[0]
        worst = max(worst, abs(up - dn) / (2 * delta))
    out.append(PropertyResult("lift_characteristic_constancy", worst < 1e-6, worst, 1e-6))

    def f0(x, w, E):
        x2 = np.atleast_2d(x)
        return 0.1 + 0.9 - sigma_s(x2)

    one_g = lambda y, w, E: np.ones(len(np.atleast_2d(y)))
    psi1, _ = sc.solve_with_inflow(f0, one_g, coeffs, grid, quad, tol=1e-12)
    gap = float(np.max(np.abs(psi1.values - 1.0)))
    out.append(PropertyResult("inflow_constant_branch", gap < 1e-10, gap, 1e-10))
    return out


def csda_suite(seed: int = 0) -> list[PropertyResult]:
    ball = ConvexDomain.unit_ball()
    rng = np.random.default_rng(seed)
    quad = _std_quad()
    out = []

    grid = GridSpec(ball, 9, 2, 4, EnergyInterval(0.2, 1.2), 5)
    vals = rng.normal(size=grid.phase_shape)
    back = csda.transform_from_march(csda.transform_to_march(DiscreteField(vals, grid), 1.3), grid, 1.3)
    gap = float(np.max(np.abs(back.values - vals)))
    out.append(PropertyResult("transform_roundtrip", gap < 1e-12, gap, 1e-12))

    L = 0.3
    mgrid = GridSpec(ball, 21, 2, 4, EnergyInterval(0.0, L), 3)
    sig0 = 0.6
    coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.full(len(x), sig0),
                            stopping=lambda x, E: -np.ones(len(np.atleast_2d(x))),
                            kappa=1.0, shift=0.0)
    f = lambda x, w, E: smooth_bump(np.linalg.norm(np.atleast_2d(x), axis=1), 0.45) \
        * (1.0 + 0.8 * np.cos(3.0 * np.asarray(E)))
    dE = L / 8
    psi, rep = csda.solve_csda(f, coeffs, mgrid, quad, dE=dE)
    ref = csda.explicit_csda_grid(f, sig0, mgrid, quad)
    rel = nm.h_norm(psi.with_values(psi.values - ref.values), 0) \
        / nm.h_norm(ref, 0)
    out.append(PropertyResult("march_matches_explicit", rel <= 3 * dE, rel, 3 * dE))
    out.append(PropertyResult("cutoff_energy_trace", rep.final_slice_sup < 1e-12,
                              rep.final_slice_sup, 1e-12))
    out.append(PropertyResult("inflow_trace", rep.inflow_trace_sup < 1e-10,
                              rep.inflow_trace_sup, 1e-10))

    e_star = 0.15
    def f_cut(x, w, E):
        x2 = np.atleast_2d(x)
        active = (np.zeros(len(x2)) + np.asarray(E)) <= e_star
        return smooth_bump(np.linalg.norm(x2, axis=1), 0.4) * active
    psi_c, _ = csda.solve_csda(f_cut, coeffs, mgrid, quad, dE=L / 8)
    above = mgrid.energy_nodes > e_star + 1e-12
    leak = float(np.max(np.abs(psi_c.values[:, :, above])))
    out.append(PropertyResult("energy_causality", leak < 1e-14, leak, 1e-14))

    kern = lambda x, wi, wo, E: (1.0 + 0.5 * np.sin(3.0 * E)) \
        * smooth_bump(np.linalg.norm(np.atleast_2d(x), axis=1), 0.6) * _ISO
    dkern = lambda x, wi, wo, E: 1.5 * np.cos(3.0 * E) \
        * smooth_bump(np.linalg.norm(np.atleast_2d(x), axis=1), 0.6) * _ISO
    phi = lambda x, w: 1.0 + 0.3 * w[2]
    small = GridSpec(ball, 9, 2, 4, EnergyInterval(0.0, 1.0), 2)
    g1 = csda.kr_energy_derivative_gap(kern, dkern, small, phi, 0.4, 0.1)
    g2 = csda.kr_energy_derivative_gap(kern, dkern, small, phi, 0.4, 0.05)
    ratio = g2 / g1 if g1 > 0 else 0.0
    out.append(PropertyResult("collision_energy_derivative_first_order",
                              0.35 <= ratio <= 0.65, ratio, 0.65))

    z3 = lambda y, w, E: np.zeros(len(np.atleast_2d(y)))
    gr = lambda y, w, E: np.full(len(np.atleast_2d(y)), mgrid.interval.Em - E)
    ok0 = csda.compatibility_check(gr, z3, 0, mgrid).passed
    bad1 = csda.compatibility_check(gr, z3, 1, mgrid)
    pattern = ok0 and (not bad1.passed) and abs(bad1.residual - 1.0) < 1e-9
    out.append(PropertyResult("compatibility_ramp_pattern", pattern, bad1.residual, 1.0))
    return out


def norms_suite(seed: int = 0) -> list[PropertyResult]:
    ball = ConvexDomain.unit_ball()
    rng = np.random.default_rng(seed)
    out = []
    grid = GridSpec(ball, 41, 2, 4, EnergyInterval(0.0, 1.0), 1)

    one = sample_field(lambda x, w, E: np.ones(len(x)), grid)
    expect = np.sqrt(4 * np.pi / 3 * 4 * np.pi)
    v0 = nm.h_norm(one, 0)
    out.append(PropertyResult("l2_norm_constant_volume", abs(v0 - expect) / expect < 0.01,
                              abs(v0 - expect) / expect, 0.01))

    f = sample_field(lambda x, w, E: np.sin(x[:, 0]) * np.cos(2 * x[:, 1]), grid)
    n0, n1, n2 = (nm.h_norm(f, m) for m in range(3))
    out.append(PropertyResult("h_norm_monotone_in_order", bool(n0 <= n1 <= n2), n2, 0.0))

    tgrid = GridSpec(ball, 9, 16, 32, EnergyInterval(0.0, 1.0), 2)
    from .geometry import BoundarySide

    expect_tr = np.sqrt(4 * np.pi * np.pi)
    # the norm of the callable is summed one direction at a time: the suite
    # never holds its trace values (42 MB: 5120 points x 512 directions x 2
    # energies), only the one omega . nu product (21 MB)
    vt = nm.trace_norm(lambda p, w, E: np.ones(len(p)), tgrid, BoundarySide.INFLOW, subdivisions=4)
    out.append(PropertyResult("inflow_trace_norm_constant", abs(vt - expect_tr) / expect_tr < 0.01,
                              abs(vt - expect_tr) / expect_tr, 0.01))

    c = rng.uniform(-0.15, 0.15, size=3)
    bump_p = sample_field(lambda x, w, E: smooth_bump(np.linalg.norm(x - c, axis=1), 0.45), grid)
    bump_v = sample_field(lambda x, w, E: smooth_bump(np.linalg.norm(x + c, axis=1), 0.45), grid)
    gr = abs(nm.green_residual(bump_p, bump_v))
    out.append(PropertyResult("green_residual_interior_bumps", gr < 1e-8, gr, 1e-8))

    # streaming inner product vs outflow boundary norm (half identity)
    ggrid = GridSpec(ball, 33, 6, 12, EnergyInterval(0.0, 1.0), 1)

    def w_cut(t):
        u = (np.asarray(t) - 0.5) / 0.4
        out_ = np.zeros_like(u)
        m = (u > 0) & (u < 1)
        out_[np.asarray(u) >= 1] = 1.0
        lo = np.exp(-1.0 / np.maximum(u[m], 1e-300))
        hi = np.exp(-1.0 / np.maximum(1 - u[m], 1e-300))
        out_[m] = lo / (lo + hi)
        return out_

    def clamp(x):
        r = np.linalg.norm(x, axis=1, keepdims=True)
        return x / np.maximum(r, 1.0)

    psi_fn = lambda x, w, E: w_cut(escape_times(ball, clamp(np.atleast_2d(x)), w))
    fld = sample_field(psi_fn, ggrid)
    # mask-aware one-sided stencils carry the outflow flux; zero-embedded
    # central differences telescope to zero and cannot see it
    stream = ggrid.stream(fld.values, masked=True)
    lhs = 2.0 * float(np.sum(ggrid.vol_weights[:, None, None] * stream * fld.values
                             * ggrid.sphere_weights[None, :, None]
                             * ggrid.energy_weights[None, None, :]))
    rhs = nm.boundary_h_norm(psi_fn, ggrid, 0) ** 2
    rel = abs(lhs - rhs) / max(rhs, 1e-12)
    out.append(PropertyResult("streaming_vs_outflow_norm_identity", rel < 0.03, rel, 0.03))

    eta, okm = nm.h0_margin(bump_p)
    out.append(PropertyResult("margin_of_interior_bump", okm and eta > 0.3, eta, 0.3))
    return out


_SUITE_TABLE = {
    "geometry": geometry_suite,
    "attenuation": attenuation_suite,
    "scattering": scattering_suite,
    "csda": csda_suite,
    "norms": norms_suite,
}
SUITES = tuple(_SUITE_TABLE) + ("all",)


def run_suite(name: str, seed: int = 0) -> list[PropertyResult]:
    if name == "all":
        return [r for suite in _SUITE_TABLE.values() for r in suite(seed)]
    if name not in _SUITE_TABLE:
        raise ConfigError(f"unknown verification suite '{name}' (choose from {', '.join(SUITES)})")
    return _SUITE_TABLE[name](seed)

"""Acceptance suite: end-to-end accuracy and property criteria with pinned
scales and tolerances, printing one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`; the whole module finishes
in a couple of minutes on a laptop.
"""

import time

import numpy as np
import pytest

from raytrans import attenuation as at
from raytrans import csda
from raytrans import norms as nm
from raytrans import scattering as sc
from raytrans.fields import (
    CoefficientSet,
    EnergyInterval,
    GridSpec,
    leibniz_constant,
    sample_field,
    sup_norm_estimate,
)
from raytrans.geometry import (
    ConvexDomain,
    ball_escape_closed_form,
    escape_times,
    outward_normal,
)

BALL = ConvexDomain.unit_ball()
ISO = 1.0 / (4.0 * np.pi)


def report(cid, label, passed, value, tol, started):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPT {cid} {label}: {status} (value={value:.3e}, tol={tol:.3e}, "
          f"{time.perf_counter() - started:.1f}s)")
    assert passed, f"{cid} {label}: value {value:.6e} vs tolerance {tol:.6e}"


def poly_bump(r, radius, p=4):
    u = np.asarray(r) / radius
    return np.where(u < 1.0, (1.0 - np.minimum(u, 1.0) ** 2) ** p, 0.0)


def interior_points(rng, n, rmax=0.999):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * (rmax * rng.uniform(0, 1, size=n) ** (1 / 3))[:, None]


def directions(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_c01_ball_exit_time_vs_bisection():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    n = 10_000
    xs = interior_points(rng, n)
    oms = directions(rng, n)
    t_closed, _ = ball_escape_closed_form(xs, oms, with_gradient=False)

    # independent oracle: vectorized bisection on |x - s w|^2 - 1 over [0, 2]
    lo = np.zeros(n)
    hi = np.full(n, 2.0 + 1e-9)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        val = np.sum((xs - mid[:, None] * oms) ** 2, axis=1) - 1.0
        neg = val < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    t_bis = 0.5 * (lo + hi)

    err = float(np.max(np.abs(t_closed - t_bis)))
    elapsed = time.perf_counter() - start
    report("C01", "ball exit-time closed form vs bisection", err < 1e-9 and elapsed < 1.0,
           err, 1e-9, start)


def test_c02_ray_additivity():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    n = 10_000
    xs = interior_points(rng, n)
    oms = directions(rng, n)
    t = escape_times(BALL, xs, oms)
    s = rng.uniform(0.0, 1.0, size=n) * t
    gap = float(np.max(np.abs(escape_times(BALL, xs - s[:, None] * oms, oms) - (t - s))))
    report("C02", "exit-time additivity along rays", gap < 1e-9, gap, 1e-9, start)


def test_c03_ball_gradient_vs_central_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    n = 1000
    xs = interior_points(rng, n, rmax=0.9)
    oms = directions(rng, n)
    _, grad = ball_escape_closed_form(xs, oms)
    h = 1e-5
    worst = 0.0
    denom = np.linalg.norm(grad, axis=1)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        tp, _ = ball_escape_closed_form(xs + e, oms, with_gradient=False)
        tm, _ = ball_escape_closed_form(xs - e, oms, with_gradient=False)
        fd = (tp - tm) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd - grad[:, j]) / denom)))
    report("C03", "ball exit-time gradient vs finite differences", worst < 1e-5, worst, 1e-5, start)


def test_c04_supporting_hyperplane():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    ys = BALL.boundary_points(1000, rng)
    zs = interior_points(rng, 1000)
    nu = outward_normal(BALL, ys)
    vals = np.einsum("ij,kj->ik", nu, zs) - np.sum(nu * ys, axis=1)[:, None]
    worst = float(np.max(vals))
    report("C04", "supporting hyperplane inequality", worst < 0.0, worst, 0.0, start)


def test_c05_attenuation_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    n = 1000
    xs = interior_points(rng, n)
    oms = directions(rng, n)
    quad = at.RayQuadrature(8, 4)  # <= 64 nodes per ray on the unit ball
    coeffs = CoefficientSet(sigma_t=lambda x, w, E: np.ones(len(x)))
    one = lambda x, w, E: np.ones(len(x))
    psi = np.array([
        at.solve_attenuation_points(one, coeffs, BALL, x, w, 0.0, quad)[0]
        for x, w in zip(xs, oms)
    ])
    T, _ = ball_escape_closed_form(xs, oms, with_gradient=False)
    err = float(np.max(np.abs(psi - (1.0 - np.exp(-T)))))
    report("C05", "attenuation closed form (Sigma+C=1, f=1)", err < 1e-8, err, 1e-8, start)


def test_c06_manufactured_attenuation_full_grid():
    start = time.perf_counter()
    grid = GridSpec(BALL, 32, 8, 16, EnergyInterval(0.0, 1.0), 8)
    coeffs = CoefficientSet(sigma_t=lambda x, w, E: 0.3 + 0.15 * x[:, 0], shift=0.5)
    wf = lambda t: t**2 * np.exp(-t)
    wp = lambda t: (2 * t - t**2) * np.exp(-t)

    def f(x, w, E):
        T, _ = ball_escape_closed_form(x, w, with_gradient=False)
        return (wp(T) + (0.3 + 0.15 * x[:, 0] + 0.5) * wf(T)) * (1.0 + 0.5 * E)

    def psi_star(x, w, E):
        T, _ = ball_escape_closed_form(x, w, with_gradient=False)
        return wf(T) * (1.0 + 0.5 * E)

    psi = at.solve_attenuation_grid(f, coeffs, grid, at.RayQuadrature(16, 4))
    ref = sample_field(psi_star, grid)
    rel = nm.h_norm(psi.with_values(psi.values - ref.values), 0) \
        / nm.h_norm(ref, 0)
    report("C06", "manufactured attenuation on 32^3 x (8x16) x 8", rel < 1e-6, rel, 1e-6, start)


def test_c07_support_preservation():
    start = time.perf_counter()
    rng = np.random.default_rng(1007)
    quad = at.RayQuadrature(16, 4)
    coeffs = CoefficientSet(sigma_t=lambda x, w, E: 0.5 + 0.2 * x[:, 2] ** 2)
    f = lambda x, w, E: poly_bump(np.linalg.norm(x, axis=1), 0.7)
    xs = interior_points(rng, 4000)
    oms = directions(rng, 4000)
    T = escape_times(BALL, xs, oms)
    short = T < 0.29
    assert np.count_nonzero(short) > 200
    worst = 0.0
    for x, w in zip(xs[short], oms[short]):
        worst = max(worst, abs(at.solve_attenuation_points(f, coeffs, BALL, x, w, 0.0, quad)[0]))
    report("C07", "support preservation (margin 0.3 source)", worst < 1e-12, worst, 1e-12, start)


def test_c08_accretivity_shifted():
    start = time.perf_counter()
    rng = np.random.default_rng(1008)
    grid = GridSpec(BALL, 17, 2, 4, EnergyInterval(0.0, 1.0), 1)
    sig = lambda x, w, E: 0.5 * (1.0 + x[:, 0] ** 2)
    worst = np.inf
    for m in (0, 1, 2):
        sup_s = sup_norm_estimate(sig, m, grid)
        coeffs = CoefficientSet(sigma_t=sig, shift=leibniz_constant(m) * sup_s + 1.0)
        for _ in range(100):
            c = rng.uniform(-0.25, 0.25, size=3)
            r = rng.uniform(0.2, 0.4)
            amp = rng.uniform(0.5, 2.0)
            tilt = rng.uniform(-0.5, 0.5, size=3)
            fld = sample_field(
                lambda x, w, E: amp * poly_bump(np.linalg.norm(x - c, axis=1), r)
                * (1.0 + tilt @ w), grid)
            res = at.accretivity_functional(fld, coeffs, m, sigma_sup=sup_s,
                                            boundary_subdivisions=2)
            n2 = nm.h_norm(fld, m) ** 2
            worst = min(worst, res.lhs / n2)
    report("C08", "accretivity with C = C' + 1 (m in 0,1,2)", worst >= 0.98, worst, 0.98, start)


def test_c09_green_residual_refinement():
    start = time.perf_counter()

    def psi(x, w, E):
        return (1.0 - np.sum(x * x, axis=1)) ** 3 * (1.0 + 0.5 * w[0])

    def vv(x, w, E):
        return (1.0 - np.sum(x * x, axis=1)) ** 3 * (x[:, 0] + 0.3 * w[2])

    res = []
    for n in (11, 21, 41):
        g = GridSpec(BALL, n, 2, 4, EnergyInterval(0.0, 1.0), 1)
        fp = sample_field(psi, g)
        fv = sample_field(vv, g)
        res.append(abs(nm.green_residual(fp, fv, psi_trace=psi, v_trace=vv)))
    orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    passed = bool(np.all(orders >= 1.8) and res[-1] < 1e-6)
    print(f"\n  green residuals: {[f'{r:.2e}' for r in res]}, orders {orders.round(2)}")
    report("C09", "Green identity residual refinement", passed, res[-1], 1e-6, start)


def test_c10_scattering_contraction_and_manufactured():
    start = time.perf_counter()
    quad = at.RayQuadrature(16, 4)

    # contraction: isotropic sigma_s = 0.5 on an interior ball, Sigma + C = 1
    g1 = GridSpec(BALL, 13, 4, 8, EnergyInterval(0.0, 1.0), 1)

    def sigma_s_flat(x):
        r = np.linalg.norm(np.atleast_2d(x), axis=1)
        return 0.5 * np.clip((0.75 - r) / 0.15, 0.0, 1.0)

    coeffs1 = CoefficientSet(
        sigma_t=lambda x, w, E: np.zeros(len(x)),
        scatter=lambda x, wi, wo, E: ISO * sigma_s_flat(x),
        shift=1.0,
    )
    f1 = lambda x, w, E: poly_bump(np.linalg.norm(x, axis=1), 0.6)
    _, rep = sc.solve_scattering(f1, coeffs1, g1, quad, tol=1e-9, max_iter=80)
    ratios = [b / a for a, b in zip(rep.residual_history[1:-1], rep.residual_history[2:-1])]
    rate = max(ratios)

    # manufactured solution with a small isotropic admixture riding on a
    # quadrature-orthogonal angular mode
    g2 = GridSpec(BALL, 17, 4, 8, EnergyInterval(0.0, 1.0), 1)
    a0 = 0.003
    sigma_s = lambda x: 0.5 * poly_bump(np.linalg.norm(np.atleast_2d(x), axis=1), 0.6)
    coeffs2 = CoefficientSet(
        sigma_t=lambda x, w, E: np.full(len(x), 0.3),
        scatter=lambda x, wi, wo, E: ISO * sigma_s(x),
        shift=1.0,
    )
    b = lambda x: poly_bump(np.linalg.norm(np.atleast_2d(x), axis=1), 0.55)
    psi_star = lambda x, w, E: b(x) * (a0 + w[2])

    def grad_b_dot_omega(x, w):
        h = 1e-6
        out = np.zeros(len(x))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            out += w[j] * (b(x + e) - b(x - e)) / (2 * h)
        return out

    ang_int = float(np.sum(g2.sphere_weights * (a0 + g2.sphere_nodes[:, 2])))

    def f2(x, w, E):
        x = np.atleast_2d(x)
        return grad_b_dot_omega(x, w) * (a0 + w[2]) + 1.3 * psi_star(x, w, E) \
            - ISO * sigma_s(x) * b(x) * ang_int

    psi, rep2 = sc.solve_scattering(f2, coeffs2, g2, quad, tol=1e-10, max_iter=60)
    ref = sample_field(psi_star, g2)
    rel = nm.h_norm(psi.with_values(psi.values - ref.values), 0) \
        / nm.h_norm(ref, 0)
    print(f"\n  contraction rate {rate:.3f}, manufactured rel err {rel:.2e} "
          f"({rep.iterations}/{rep2.iterations} iterations)")
    report("C10", "scattering contraction and manufactured recovery",
           rate <= 0.55 and rel < 1e-5, max(rate - 0.55, rel), 1e-5, start)


def test_c11_operator_norm_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(1011)
    grid = GridSpec(BALL, 9, 4, 8, EnergyInterval(0.0, 1.0), 1)
    sq = np.sqrt(grid.sphere_weights)
    worst_excess = -np.inf
    for _ in range(10):
        a0 = rng.uniform(0.05, 0.6)
        a1 = rng.uniform(0.0, a0)
        r0 = rng.uniform(0.4, 0.9)
        p = rng.integers(2, 5)
        kern = lambda x, wi, wo, E: (a0 + a1 * (wi @ wo)) * ISO \
            * poly_bump(np.linalg.norm(np.atleast_2d(x), axis=1), r0, p)
        bound = sc.scatter_norm_bound(kern, grid)
        observed = 0.0
        for i in range(0, grid.n_interior, 11):
            M = np.empty((grid.n_omega, grid.n_omega))
            for jin in range(grid.n_omega):
                col = np.array([
                    kern(grid.coords[i].reshape(1, 3), grid.sphere_nodes[jin],
                         grid.sphere_nodes[jo], 0.0)[0]
                    for jo in range(grid.n_omega)
                ])
                M[:, jin] = grid.sphere_weights[jin] * col
            W = sq[:, None] * M / sq[None, :]
            # power iteration on W^T W for the top singular value
            v = np.ones(grid.n_omega) / np.sqrt(grid.n_omega)
            for _ in range(60):
                v = W.T @ (W @ v)
                nv = np.linalg.norm(v)
                if nv == 0.0:
                    break
                v /= nv
            observed = max(observed, float(np.sqrt(v @ (W.T @ (W @ v)))))
        worst_excess = max(worst_excess, observed - bound)
    report("C11", "collision operator norm bound dominates power iteration",
           worst_excess <= 1e-12, worst_excess, 0.0, start)


@pytest.fixture(scope="module")
def csda_runs():
    grid = GridSpec(BALL, 29, 2, 4, EnergyInterval(0.0, 0.3), 3)
    sig0 = 0.6
    coeffs = CoefficientSet(
        sigma_t=lambda x, w, E: np.full(len(x), sig0),
        stopping=lambda x, E: -np.ones(len(np.atleast_2d(x))),
        kappa=1.0, shift=0.0,
    )
    f = lambda x, w, E: poly_bump(np.linalg.norm(np.atleast_2d(x), axis=1), 0.45) \
        * (1.0 + 0.8 * np.cos(3.0 * np.asarray(E)))
    quad = at.RayQuadrature(12, 4)
    ref = csda.explicit_csda_grid(f, sig0, grid, quad)
    runs = []
    for dE in (0.3 / 4, 0.3 / 8):
        psi, rep = csda.solve_csda(f, coeffs, grid, quad, dE=dE)
        rel = nm.h_norm(psi.with_values(psi.values - ref.values), 0) \
            / nm.h_norm(ref, 0)
        runs.append({"dE": dE, "rel": rel, "report": rep, "psi": psi})
    return runs


def test_c12_csda_explicit_vs_marching(csda_runs):
    start = time.perf_counter()
    errs = [r["rel"] for r in csda_runs]
    ratio = errs[1] / errs[0]
    in_budget = all(r["rel"] <= 3.0 * r["dE"] for r in csda_runs)
    print(f"\n  csda errors {errs[0]:.3e} -> {errs[1]:.3e}, ratio {ratio:.3f}")
    report("C12", "continuous slowing down explicit vs marching",
           in_budget and 0.4 <= ratio <= 0.6, ratio, 0.6, start)


def test_c13_csda_traces(csda_runs):
    start = time.perf_counter()
    worst_final = max(r["report"].final_slice_sup for r in csda_runs)
    worst_final = max(worst_final,
                      max(float(np.max(np.abs(r["psi"].values[:, :, -1]))) for r in csda_runs))
    worst_inflow = max(r["report"].inflow_trace_sup for r in csda_runs)
    report("C13", "cut-off and inflow traces of the marching solve",
           worst_final < 1e-12 and worst_inflow < 1e-10, max(worst_final, worst_inflow),
           1e-10, start)


def test_c14_compatibility_worked_cases():
    start = time.perf_counter()
    grid = GridSpec(BALL, 9, 2, 4, EnergyInterval(0.0, 1.0), 5)
    coeffs = CoefficientSet(
        sigma_t=lambda x, w, E: np.full(len(np.atleast_2d(x)), 0.5),
        stopping=lambda x, E: -np.ones(len(np.atleast_2d(x))),
        kappa=1.0,
    )
    z3 = lambda y, w, E: np.zeros(len(np.atleast_2d(y)))
    case_a = all(csda.compatibility_check(z3, z3, m, grid, coeffs=coeffs).passed
                 for m in (0, 1, 2))

    ramp = lambda y, w, E: np.full(len(np.atleast_2d(y)), grid.interval.Em - E)
    rep0 = csda.compatibility_check(ramp, z3, 0, grid)
    rep1 = csda.compatibility_check(ramp, z3, 1, grid)
    case_b = rep0.passed and (not rep1.passed) and abs(rep1.residual - 1.0) < 1e-9

    F0 = 0.7
    g3 = lambda y, w, E: np.full(len(np.atleast_2d(y)), (grid.interval.Em - E) * F0)
    F3 = lambda y, w, E: np.full(len(np.atleast_2d(y)), -F0)
    case_c = csda.compatibility_check(g3, F3, 0, grid).passed \
        and csda.compatibility_check(g3, F3, 1, grid).passed

    report("C14", "compatibility checker worked cases", case_a and case_b and case_c,
           rep1.residual, 1.0, start)


def test_c15_lift_characteristic_constancy():
    start = time.perf_counter()
    rng = np.random.default_rng(1015)
    g1 = lambda y, w, E: 1.0 + y[:, 0] * y[:, 2] + np.sin(2.0 * y[:, 1])
    delta = 1e-4
    worst = 0.0
    count = 0
    while count < 1000:
        x = interior_points(rng, 1, rmax=0.9)[0]
        w = directions(rng, 1)[0]
        if BALL.level((x + delta * w).reshape(1, 3))[0] >= 0:
            continue
        up = sc.lift_values(g1, 0.0, BALL, (x + delta * w).reshape(1, 3), w, 0.0)[0]
        dn = sc.lift_values(g1, 0.0, BALL, (x - delta * w).reshape(1, 3), w, 0.0)[0]
        worst = max(worst, abs(up - dn) / (2 * delta))
        count += 1
    report("C15", "lift constancy along characteristics", worst < 1e-6, worst, 1e-6, start)

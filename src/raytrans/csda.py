"""Continuous-slowing-down solver: energy flip / exponential-weight
transform, implicit energy marching with per-step steady transport solves,
the explicit constant-coefficient solution, and compatibility-condition
checks at the cut-off energy.

Marching runs in the transformed variable E' = Em - E with unknown
phi = exp(C E') psi(Em - E'); each backward-Euler step folds the stopping
power and the step size into an effective attenuation coefficient and reuses
the steady scattering solver with the previous slice as a lattice source.
Energy-dependent sources used here (the explicit solution, step sources)
must broadcast over a per-node energy array.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .attenuation import RayQuadrature, _ray_groups, _source_integrals, solve_attenuation_points
from .errors import InsufficientEnergyResolution, ShiftTooSmall, StoppingPowerViolation
from .fields import CoefficientSet, DiscreteField, EnergyInterval, GridSpec, _node_values, _where
from .geometry import ConvexDomain, SurfaceMesh, escape_times, triangulate_boundary
from .scattering import SweepCache, apply_scatter, solve_scattering

_FD_STEP = 1e-5      # step of compatibility_check's central differences in space
_COMPAT_TOL = 1e-6   # residual bound of compatibility_check
_MAX_ITER = 60       # source iterations allowed to each march step


@dataclass(frozen=True)
class MarchState:
    """Snapshot of one energy step in transformed variables."""

    E_current: float
    phi: np.ndarray       # (n_x, n_omega) slice of the transformed unknown
    step: float


@dataclass
class MarchReport:
    steps: int
    inner_iterations: int
    final_slice_sup: float
    inflow_trace_sup: float
    cache: dict = field(default_factory=dict)   # IterationReport.cache summed over steps
    step_iterations: list = field(default_factory=list)   # inner iterations of each step
    step_residuals: list = field(default_factory=list)    # residual history of each step


@dataclass(frozen=True)
class CompatibilityReport:
    order: int
    residual: float
    passed: bool
    tolerance: float


def _check_stopping(coeffs: CoefficientSet) -> None:
    if coeffs.stopping is None:
        raise StoppingPowerViolation("continuous slowing down needs a stopping power")
    if coeffs.kappa <= 0.0:
        raise StoppingPowerViolation("kappa must be positive")


def _stopping_values(coeffs: CoefficientSet, xs: np.ndarray, E: float, nodes: str) -> np.ndarray:
    """The stopping power at the positions xs (n, 3) (``nodes`` names their
    kind) and energy E, checked by ``_node_values``."""
    return _node_values(coeffs.stopping(xs, E), xs, "stopping power", nodes, lambda: f"energy {E:.6g}")


def _march_grid(grid: GridSpec, n_steps: int) -> GridSpec:
    """Single companion grid holding the transformed energy axis."""
    L = grid.interval.length
    return GridSpec(grid.domain, grid.shape[0], grid.n_polar, grid.n_azimuth,
                    EnergyInterval(0.0, L), n_steps + 1)


def _steps_for(grid: GridSpec, dE: Optional[float]) -> int:
    """Step count: a multiple of the grid's energy intervals so that marched
    slices land exactly on grid nodes."""
    L = grid.interval.length
    n_seg = grid.n_energy - 1
    if n_seg < 1:
        raise InsufficientEnergyResolution("continuous slowing down needs n_energy >= 2")
    if dE is None:
        dE = L / 64.0
    elif not dE > 0.0:
        raise ValueError(f"energy step dE must be positive, got {dE!r}")
    factor = max(1, math.ceil(L / (dE * n_seg) - 1e-12))
    return factor * n_seg


def inflow_trace_sup(f: Callable, coeffs: CoefficientSet, grid: GridSpec, quad: RayQuadrature,
                     mesh: SurfaceMesh, E: float) -> float:
    """Largest |attenuation solution| at energy E over every inflow point
    (normal . omega < -1e-3) of the boundary ``mesh`` on every direction of
    ``grid``, where the characteristic integral is empty."""
    worst = 0.0
    for omega in grid.sphere_nodes:
        ys = mesh.points[mesh.normals @ omega < -1e-3]
        if ys.size:
            vals = solve_attenuation_points(f, coeffs, grid.domain, ys, omega, E, quad)
            worst = max(worst, float(np.max(np.abs(vals))))
    return worst


def march_energy(f: Callable, coeffs: CoefficientSet, grid: GridSpec,
                 quad: RayQuadrature, dE: Optional[float] = None,
                 tol: float = 1e-10, snapshot_cb: Optional[Callable] = None) -> tuple[DiscreteField, MarchReport]:
    """Backward-Euler march of the transformed evolution problem.

    Starts from the zero slice, and at each step solves the steady problem

        omega.grad phi + [Sigma^ + a^ (C - 1/dE)] phi - K^ phi
            = (-a^/dE) phi_prev + exp(C E') f^

    with coefficients frozen at the step energy, in at most ``_MAX_ITER``
    source iterations; the inflow condition is enforced by the
    characteristic integral itself (and checked by ``inflow_trace_sup``).
    The steps share one ``SweepCache``: a direction's attenuation weights
    and sweep operators are built again only when their inputs change, and
    are freed when the march returns.  The first step's lattice source is
    zero and builds nothing; from the second step on, each direction applies
    one lattice-source operator while sigma_eff repeats (its kernel sweep's
    if their clamps are equal).
    Returns the transformed field on the companion march grid.
    """
    _check_stopping(coeffs)
    n_steps = _steps_for(grid, dE)
    L = grid.interval.length
    Em = grid.interval.Em
    step = L / n_steps
    C = coeffs.shift
    mgrid = _march_grid(grid, n_steps)

    # solvability of the implicit step at every march energy node (the grid's
    # among them) and direction: a checked stopping power with -a >= kappa
    # (kept for the steps), a checked sigma, and the effective absorption
    # must stay positive
    sig_min = math.inf
    stopping = []
    for n in range(n_steps + 1):
        Ehat = Em - n * step
        a = _stopping_values(coeffs, mgrid.coords, Ehat, "grid node")
        if np.any(-a < coeffs.kappa):
            raise StoppingPowerViolation(f"-a >= kappa violated at march energy {Ehat:.6g}")
        stopping.append(a)
        for omega in mgrid.sphere_nodes:
            s = _node_values(coeffs.sigma_t(mgrid.coords, omega, Ehat), mgrid.coords, "sigma", "grid node",
                             lambda: _where(omega, Ehat))
            sig_min = min(sig_min, float(np.min(s + a * (C - 1.0 / step))))
    if sig_min <= 0.0:
        raise ShiftTooSmall(
            f"effective absorption {sig_min:.3g} <= 0: decrease the energy step or raise the shift")

    # The implicit step concentrates the ray integrand in a boundary layer of
    # width ~1/absorption; panels must resolve it and the tail beyond ~38
    # mean free paths is below double precision.
    step_quad = RayQuadrature(max(quad.panels_per_unit_length, math.ceil(sig_min / 2.0)),
                              quad.nodes_per_panel)
    t_cap = 38.0 / sig_min

    mesh = triangulate_boundary(grid.domain, 2)
    slice_grid = _march_grid(grid, 0)

    phi = np.zeros((mgrid.n_interior, mgrid.n_omega, n_steps + 1))
    sweep_cache = SweepCache(slice_grid, step_quad, t_cap)
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

        scatter_eff = None
        if coeffs.scatter is not None:
            def scatter_eff(xs, wi, wo, E, _Ehat=Ehat):
                return coeffs.scatter(xs, wi, wo, _Ehat)

        weight = math.exp(C * Ep)

        def src(xs, omega, E, _Ehat=Ehat, _w=weight):
            return _w * np.asarray(f(xs, omega, _Ehat), dtype=float)

        eff = CoefficientSet(sigma_t=sigma_eff, scatter=scatter_eff, shift=0.0)
        lattice = ((-stopping[n] / step)[:, None] * prev)[:, :, None]
        out, rep = solve_scattering(src, eff, slice_grid, step_quad, tol=tol, max_iter=_MAX_ITER,
                                    check_threshold=False, grid_source=lattice,
                                    psi0=prev[:, :, None], cache=sweep_cache)
        prev = out.values[:, :, 0]
        phi[:, :, n] = prev
        step_iterations.append(rep.iterations)
        step_residuals.append(rep.residual_history)
        cache.update(rep.cache)
        trace_sup = max(trace_sup, inflow_trace_sup(src, eff, mgrid, quad, mesh, 0.0))
        if snapshot_cb is not None:
            snapshot_cb(MarchState(Ep, prev, step))

    report = MarchReport(steps=n_steps, inner_iterations=sum(step_iterations),
                         final_slice_sup=float(np.max(np.abs(phi[:, :, 0]))),
                         inflow_trace_sup=trace_sup, cache=dict(cache),
                         step_iterations=step_iterations, step_residuals=step_residuals)
    return DiscreteField(phi, mgrid), report


def transform_from_march(phi: DiscreteField, grid: GridSpec, C: float) -> DiscreteField:
    """Map the transformed march field back to psi on the grid energy nodes:
    psi(E) = exp(-C (Em - E)) phi(Em - E)."""
    L = grid.interval.length
    n_march = phi.grid.n_energy - 1
    factor = n_march // (grid.n_energy - 1)
    out = np.empty(grid.phase_shape)
    for k in range(grid.n_energy):
        Ep = grid.interval.Em - grid.energy_nodes[k]
        idx = (grid.n_energy - 1 - k) * factor
        out[:, :, k] = math.exp(-C * Ep) * phi.values[:, :, idx]
    return DiscreteField(out, grid)


def transform_to_march(psi: DiscreteField, C: float) -> DiscreteField:
    """Inverse of ``transform_from_march`` on the grid's own energy nodes:
    phi(E') = exp(C E') psi(Em - E') on the march grid with one step per
    energy interval."""
    grid = psi.grid
    mgrid = _march_grid(grid, grid.n_energy - 1)
    out = np.empty(mgrid.phase_shape)
    for k in range(grid.n_energy):
        Ep = grid.interval.Em - grid.energy_nodes[k]
        out[:, :, grid.n_energy - 1 - k] = math.exp(C * Ep) * psi.values[:, :, k]
    return DiscreteField(out, mgrid)


def solve_csda(f: Callable, coeffs: CoefficientSet, grid: GridSpec, quad: RayQuadrature,
               dE: Optional[float] = None, tol: float = 1e-10) -> tuple[DiscreteField, MarchReport]:
    """Full continuous-slowing-down solve on the grid.

    Transforms, marches, and maps back; the returned field carries zero
    cut-off-energy and inflow traces by construction of the march.
    """
    phi, report = march_energy(f, coeffs, grid, quad, dE=dE, tol=tol)
    return transform_from_march(phi, grid, coeffs.shift), report


def explicit_csda_points(f: Callable, sigma_const: float, interval: EnergyInterval,
                         domain: ConvexDomain, xs, omega, E: float,
                         quad: RayQuadrature) -> np.ndarray:
    """Explicit solution for unit stopping power and constant attenuation:

        psi(x, omega, E) = int_0^min(Em - E, t(x, omega))
                               exp(-Sigma s) f(x - s omega, omega, E + s) ds.

    The source must accept a per-node energy array.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    omega = np.asarray(omega, dtype=float).reshape(3)
    T = np.minimum(escape_times(domain, xs, omega), interval.Em - E)
    out = np.zeros(xs.shape[0])
    eta = quad.ref_weights
    for sel, s, pts, width in _ray_groups(xs, omega, T, quad):
        flat = pts.reshape(-1, 3)
        w = eta[None, None, :] * width[:, :, None] * np.exp(-sigma_const * s)
        out[sel] = _source_integrals(w, f(flat, omega, (E + s).reshape(-1)), flat, omega, E)
    return out


def explicit_csda_grid(f: Callable, sigma_const: float, grid: GridSpec,
                       quad: RayQuadrature) -> DiscreteField:
    out = np.empty(grid.phase_shape)
    for j in range(grid.n_omega):
        for k in range(grid.n_energy):
            out[:, j, k] = explicit_csda_points(f, sigma_const, grid.interval, grid.domain,
                                                grid.coords, grid.sphere_nodes[j],
                                                float(grid.energy_nodes[k]), quad)
    return DiscreteField(out, grid)


def kr_energy_derivative_gap(scatter: Callable, dscatter_dE: Callable, grid: GridSpec,
                             phi: Callable, E: float, dE: float) -> float:
    """Sup gap between the difference quotient of the collision operator in
    energy and the operator with the energy-differentiated kernel; first
    order in dE for smooth kernels.  ``phi(x, omega)`` does not depend on
    energy."""
    def quotient(xs, wi, wo, E):
        return (np.asarray(scatter(xs, wi, wo, E + dE), dtype=float)
                - np.asarray(scatter(xs, wi, wo, E), dtype=float)) / dE

    psi = lambda xs, w, E: phi(xs, w)
    worst = 0.0
    for wo in grid.sphere_nodes:
        quot = apply_scatter(quotient, psi, grid.coords, wo, E, grid)
        deriv = apply_scatter(dscatter_dE, psi, grid.coords, wo, E, grid)
        worst = max(worst, float(np.max(np.abs(quot - deriv))))
    return worst


def compatibility_check(g: Callable, F: Callable, order: int, grid: GridSpec,
                        coeffs: Optional[CoefficientSet] = None) -> CompatibilityReport:
    """Compatibility of inflow data with the zero cut-off-energy condition.

    order 0:  g(., ., Em) = 0 on the inflow boundary set
    order 1:  dg/dE(., ., Em) = F(., ., Em)
    order 2:  d2g/dE2(., ., Em) = (P F)(., ., Em) + dF/dE(., ., Em)

    with P the first-order transport action -(1/a)(omega.grad + Sigma - K);
    energy derivatives use one-sided stencils on the grid energy nodes, the
    streaming term central differences of step ``_FD_STEP``.  g, F, sigma
    and the stopping power are evaluated once per energy they need at the
    inflow points, and every value is checked by ``_node_values``; the
    check passes iff the residual is below ``_COMPAT_TOL`` (so not if NaN).
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    need = {0: 1, 1: 3, 2: 4}[order]
    if grid.n_energy < need:
        raise InsufficientEnergyResolution(
            f"order {order} needs at least {need} energy nodes, grid has {grid.n_energy}")
    if order == 2 and coeffs is None:
        raise ValueError("order 2 needs the coefficient set for the transport action")

    def checked(fn, what):
        return lambda xs, w, E: _node_values(fn(xs, w, E), xs, what, "point", lambda: _where(w, E))

    g, F = checked(g, "g"), checked(F, "F")
    mesh = triangulate_boundary(grid.domain, 2)
    Em = grid.interval.Em
    dE = grid.energy_nodes[-1] - grid.energy_nodes[-2] if grid.n_energy > 1 else 0.0
    worst = 0.0
    for j in range(grid.n_omega):
        omega = grid.sphere_nodes[j]
        inflow = mesh.normals @ omega < -1e-9
        ys = mesh.points[inflow]
        if ys.size == 0:
            continue
        gs = [g(ys, omega, Em - i * dE) for i in range(need)]
        if order == 0:
            res = np.abs(gs[0])
        elif order == 1:
            dg = (3.0 * gs[0] - 4.0 * gs[1] + gs[2]) / (2.0 * dE)
            res = np.abs(dg - F(ys, omega, Em))
        else:
            Fs = [F(ys, omega, Em - i * dE) for i in range(3)]
            d2g = (2.0 * gs[0] - 5.0 * gs[1] + 4.0 * gs[2] - gs[3]) / dE**2
            dF = (3.0 * Fs[0] - 4.0 * Fs[1] + Fs[2]) / (2.0 * dE)
            stream = np.zeros(len(ys))
            inward = ys - _FD_STEP * 2 * mesh.normals[inflow]
            for ax in range(3):
                e = np.zeros(3)
                e[ax] = _FD_STEP
                stream += omega[ax] * (F(inward + e, omega, Em) - F(inward - e, omega, Em)) / (2 * _FD_STEP)
            sig = checked(coeffs.sigma_t, "sigma")(ys, omega, Em)
            kf = (apply_scatter(coeffs.scatter, F, ys, omega, Em, grid)
                  if coeffs.scatter is not None else np.zeros(len(ys)))
            a = _stopping_values(coeffs, ys, Em, "point")
            PF = -(stream + sig * Fs[0] - kf) / a
            res = np.abs(d2g - PF - dF)
        worst = float(np.max(res, initial=worst))
    return CompatibilityReport(order, worst, worst < _COMPAT_TOL, _COMPAT_TOL)

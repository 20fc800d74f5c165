"""Restricted collision operator, its norm bound, source iteration for the
convection-scattering problem, and the inflow lift.

The collision operator redistributes the field over directions at fixed
position and energy; source iteration alternates exact attenuation inversion
with an application of the operator and contracts whenever the shift exceeds
the solvability threshold built from the product-rule constant and the
operator-norm bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import ndimage

from .attenuation import RayQuadrature, _in_clamp, _lattice_rows
from .errors import MaxIterationsExceeded, QuadratureMismatch, ShiftTooSmall
from .fields import (
    CoefficientSet,
    DiscreteField,
    GridSpec,
    _central_derivative_callable,
    leibniz_constant,
    mi_binom,
    multi_indices,
    sub_indices,
    sup_norm_estimate,
)
from .geometry import ConvexDomain, PhasePoint, escape_times

_CACHE_BYTES = 512 * 2**20


class _CacheBudget:
    """Bytes left for the kernel columns and sweep operators that one solve
    keeps; ``take`` reserves them if they fit."""

    def __init__(self):
        self.left = _CACHE_BYTES

    def take(self, nbytes: int) -> bool:
        if nbytes > self.left:
            return False
        self.left -= nbytes
        return True


def _cache_counts() -> dict:
    return {"operators_built": 0, "operator_entries": 0, "operator_bytes": 0,
            "sweeps_rebuilt": 0, "ray_nodes": 0}


@dataclass
class IterationReport:
    """Contraction record of one source-iteration run.

    ``cache`` counts the sweep operators built, their stored entries, the
    bytes of those kept, the sweeps that rebuilt their operator because it
    was over budget, and the nodes of every ray system built (rebuilds
    included).
    """

    iterations: int = 0
    residual_history: list = field(default_factory=list)
    converged: bool = False
    estimated_rate: float = math.nan
    cache: dict = field(default_factory=_cache_counts)

    def finish(self) -> "IterationReport":
        ratios = [b / a for a, b in zip(self.residual_history, self.residual_history[1:]) if a > 0]
        if ratios:
            tail = ratios[-min(5, len(ratios)):]
            self.estimated_rate = float(np.exp(np.mean(np.log(np.maximum(tail, 1e-300)))))
        return self


def apply_scatter(scatter: Callable, psi, x, omega, E: float, grid: GridSpec) -> float:
    """Quadrature of the direction integral of the kernel against the field
    at one (position, out-direction, energy)."""
    x = np.asarray(x, dtype=float).reshape(3)
    omega = np.asarray(omega, dtype=float).reshape(3)
    if isinstance(psi, DiscreteField):
        if psi.grid is not grid:
            raise QuadratureMismatch("field lives on a different grid")
        d = np.linalg.norm(grid.coords - x, axis=1)
        i = int(np.argmin(d))
        if d[i] > 1e-12:
            raise QuadratureMismatch("position is not a grid node")
        k = int(np.argmin(np.abs(grid.energy_nodes - E)))
        if abs(grid.energy_nodes[k] - E) > 1e-12:
            raise QuadratureMismatch("energy is not a grid node")
        psi_vals = psi.values[i, :, k]
    else:
        psi_vals = np.array([float(np.asarray(psi(x.reshape(1, 3), grid.sphere_nodes[j], E))[0])
                             for j in range(grid.n_omega)])
    kern = np.array([float(np.asarray(scatter(x.reshape(1, 3), grid.sphere_nodes[j], omega, E))[0])
                     for j in range(grid.n_omega)])
    return float(np.sum(grid.sphere_weights * kern * psi_vals))


class _KernelApplier:
    """Applies the collision operator to grid fields one output direction at
    a time.  The kernel column of each (energy node, output direction) is
    kept as its non-zero rows and their (n_rows, n_omega) values; it is
    cached while ``budget`` allows, otherwise evaluated on use."""

    def __init__(self, scatter: Callable, grid: GridSpec, budget: Optional[_CacheBudget] = None):
        self.scatter = scatter
        self.grid = grid
        self._cache = {}
        self._budget = budget if budget is not None else _CacheBudget()

    def column(self, k: int, jout: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, values) of the kernel column at energy node k, out-direction jout."""
        hit = self._cache.get((k, jout))
        if hit is None:
            g = self.grid
            E = float(g.energy_nodes[k])
            col = np.empty((g.n_interior, g.n_omega))
            for jin in range(g.n_omega):
                col[:, jin] = self.scatter(g.coords, g.sphere_nodes[jin], g.sphere_nodes[jout], E)
            rows = np.flatnonzero(np.any(col != 0.0, axis=1))
            hit = (rows, col[rows])
            if self._budget.take(rows.nbytes + hit[1].nbytes):
                self._cache[(k, jout)] = hit
        return hit

    def apply_slice(self, psi_slice: np.ndarray, k: int) -> np.ndarray:
        """psi_slice: (n_x, n_omega) at energy node k -> scattered source."""
        w = self.grid.sphere_weights
        out = np.zeros_like(psi_slice)
        for jout in range(self.grid.n_omega):
            rows, col = self.column(k, jout)
            out[rows, jout] = np.einsum("xi,i,xi->x", col, w, psi_slice[rows])
        return out


def apply_scatter_grid(scatter: Callable, psi: DiscreteField) -> DiscreteField:
    """Collision operator applied at every grid node."""
    applier = _KernelApplier(scatter, psi.grid)
    out = np.empty_like(psi.values)
    for k in range(psi.grid.n_energy):
        out[:, :, k] = applier.apply_slice(psi.values[:, :, k], k)
    return DiscreteField(out, psi.grid)


def combinatorial_constant(m: int) -> float:
    """Enumerated counting constant from the operator-bound derivation:
    worst accumulation of Leibniz binomials and term counts over spatial
    multi-indices of order <= m."""
    alphas = multi_indices(m)
    best = 0.0
    for beta in alphas:
        total = 0.0
        for alpha in alphas:
            if all(b <= a for a, b in zip(alpha, beta)):
                n_alpha = len(sub_indices(alpha))
                total += n_alpha * mi_binom(alpha, beta) ** 2
        best = max(best, total)
    return best


def scatter_norm_bound(scatter: Callable, m: int, grid: GridSpec,
                       max_x_samples: int = 200) -> float:
    """Constructive upper bound sqrt(C_m N1 N2) for the collision-operator
    norm on the order-m space.

    N1 and N2 are grid estimates of the two mixed sup/L1 kernel norms
    (incoming- and outgoing-direction integrals); C_m is the enumerated
    combinatorial constant.
    """
    g = grid
    idx = np.unique(np.linspace(0, g.n_interior - 1, min(max_x_samples, g.n_interior)).astype(int))
    xs = g.coords[idx]
    n1 = 0.0
    n2 = 0.0
    for alpha in multi_indices(m):
        for k in range(g.n_energy):
            E = float(g.energy_nodes[k])
            for j in range(g.n_omega):
                w_fix = g.sphere_nodes[j]
                acc_in = np.zeros(len(xs))
                acc_out = np.zeros(len(xs))
                for jp in range(g.n_omega):
                    w_var = g.sphere_nodes[jp]
                    d_in = _central_derivative_callable(
                        lambda p: np.asarray(scatter(p, w_var, w_fix, E), dtype=float),
                        xs, alpha, g.h)
                    d_out = _central_derivative_callable(
                        lambda p: np.asarray(scatter(p, w_fix, w_var, E), dtype=float),
                        xs, alpha, g.h)
                    acc_in += g.sphere_weights[jp] * np.abs(d_in)
                    acc_out += g.sphere_weights[jp] * np.abs(d_out)
                n1 = max(n1, float(np.max(acc_in)))
                n2 = max(n2, float(np.max(acc_out)))
    return math.sqrt(combinatorial_constant(m) * n1 * n2)


def solvability_threshold(coeffs: CoefficientSet, grid: GridSpec, m: int = 0) -> float:
    """C'' = c(m) |Sigma|_(W-inf,m) + collision norm bound."""
    c_sigma = leibniz_constant(m) * sup_norm_estimate(coeffs.sigma_t, m, grid)
    c_kernel = scatter_norm_bound(coeffs.scatter, m, grid) if coeffs.scatter is not None else 0.0
    return c_sigma + c_kernel


def _support_clamp(support: np.ndarray) -> np.ndarray:
    """Two-cell dilation of a box support: the nodes where a clamped cubic
    interpolant of data on that support is evaluated.

    A local cubic interpolant of compactly supported data vanishes beyond
    it, and the clamp removes the global ringing that the spline prefilter
    would otherwise spread across the box, preserving discrete support
    margins.
    """
    return ndimage.binary_dilation(support, np.ones((3, 3, 3), bool), iterations=2)


def _grid_interp_factory(grid: GridSpec, slab: np.ndarray) -> Callable:
    """Cubic-spline evaluator for one spatial slab (zero outside the mask),
    clamped by ``_in_clamp`` to the ``_support_clamp`` of the slab support;
    the spline is evaluated only at the points the clamp keeps."""
    box = grid.embed(slab)
    filt = ndimage.spline_filter(box, order=3, mode="constant")
    support = _support_clamp(box != 0.0)

    def interp(pts):
        c = _lattice_rows(grid, pts)
        keep = _in_clamp(c, support)
        vals = np.zeros(c.shape[1])
        vals[keep] = ndimage.map_coordinates(filt, c[:, keep], order=3, prefilter=False,
                                             mode="constant", cval=0.0)
        return vals

    return interp


def _kernel_sweep_operator(system, applier: _KernelApplier, j: int, k: int):
    """``system.sweep_operator`` clamped to the ``_support_clamp`` of the
    kernel's non-zero rows at energy node k, out-direction j."""
    grid = applier.grid
    support = np.zeros(grid.shape, dtype=bool)
    support.reshape(-1)[grid.interior_idx[applier.column(k, j)[0]]] = True
    return system.sweep_operator(grid, _support_clamp(support))


def solve_scattering(f: Callable, coeffs: CoefficientSet, grid: GridSpec,
                     quad: RayQuadrature, tol: float = 1e-8, max_iter: int = 200,
                     check_threshold: bool = True,
                     grid_source: Optional[np.ndarray] = None,
                     psi0: Optional[np.ndarray] = None,
                     t_cap: Optional[float] = None) -> tuple[DiscreteField, IterationReport]:
    """Source iteration for omega.grad psi + Sigma psi + C psi - K psi = f.

    By linearity each iterate is the fixed attenuation inverse of f plus the
    attenuation inverse of the scattered previous iterate, so the analytic
    source is ray-integrated once.  The sweep of each (direction, energy) is
    built once as a ``SweepOperator`` on the cubic spline coefficients of the
    scattered slab, clamped to the ``_support_clamp`` of the kernel's
    non-zero rows there (which holds the support of every scattered slab);
    each ray system is dropped once its operator is built.  Operators and
    cached kernel columns share one ``_CACHE_BYTES`` budget; a sweep whose
    operator is over budget rebuilds it, with the same arithmetic.  Stops
    when the sup change between iterates falls below tol.  ``grid_source``
    adds a lattice source of shape (n_x, n_omega, n_E), integrated once
    through ``_grid_interp_factory``; ``check_threshold`` verifies C > C''
    first (callers with their own solvability criterion, like the energy
    marcher, disable it); ``t_cap`` truncates rays where strong absorption
    makes the tail negligible.
    """
    from .attenuation import RaySystem

    if check_threshold:
        thr = solvability_threshold(coeffs, grid, m=0)
        if coeffs.shift <= thr:
            raise ShiftTooSmall(f"shift {coeffs.shift} <= threshold {thr:.6g}")
    budget = _CacheBudget()
    applier = _KernelApplier(coeffs.scatter, grid, budget) if coeffs.scatter is not None else None
    t_cache = grid.escape_cache()
    if t_cap is not None:
        t_cache = np.minimum(t_cache, t_cap)
    report = IterationReport()

    def system(j: int, k: int) -> RaySystem:
        s = RaySystem(coeffs, grid.domain, grid.coords, grid.sphere_nodes[j],
                      float(grid.energy_nodes[k]), quad, T=t_cache[:, j])
        report.cache["ray_nodes"] += s.n_nodes
        return s

    operators = {}
    psi_fix = np.empty(grid.phase_shape)
    for j in range(grid.n_omega):
        for k in range(grid.n_energy):
            s = system(j, k)
            psi_fix[:, j, k] = s.integrate_callable(f)
            if grid_source is not None:
                interp = _grid_interp_factory(grid, grid_source[:, j, k])
                psi_fix[:, j, k] += s.integrate_interp(interp)
            if applier is not None:
                op = _kernel_sweep_operator(s, applier, j, k)
                report.cache["operators_built"] += 1
                report.cache["operator_entries"] += op.data.size
                if budget.take(op.nbytes):
                    operators[(j, k)] = op
                    report.cache["operator_bytes"] += op.nbytes
            del s

    psi = np.zeros(grid.phase_shape) if psi0 is None else np.array(psi0, dtype=float)
    resid = math.inf
    for it in range(max_iter):
        if applier is None:
            new = psi_fix
        else:
            new = psi_fix.copy()
            for k in range(grid.n_energy):
                scattered = applier.apply_slice(psi[:, :, k], k)
                for j in range(grid.n_omega):
                    op = operators.get((j, k))
                    if op is None:
                        op = _kernel_sweep_operator(system(j, k), applier, j, k)
                        report.cache["sweeps_rebuilt"] += 1
                    coef = ndimage.spline_filter(grid.embed(scattered[:, j]), order=3, mode="constant")
                    new[:, j, k] += op.apply(coef)
        resid = float(np.max(np.abs(new - psi)))
        report.residual_history.append(resid)
        report.iterations = it + 1
        psi = new
        if resid < tol:
            report.converged = True
            break
    report.finish()
    if not report.converged:
        raise MaxIterationsExceeded(
            f"no convergence in {max_iter} iterations (last residual {resid:.3e})",
            report=report)
    return DiscreteField(psi, grid), report


# -- inflow lift ---------------------------------------------------------------


def lift_values(g: Callable, lam: float, domain: ConvexDomain, xs, omega,
                E: float) -> np.ndarray:
    """Inflow boundary data extended along characteristics:
    exp(-lam * t) g(x - t omega, omega, E) with t the exit time.

    Tangential phase points (zero exit time off the inflow set) get the
    conventional value zero.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    omega = np.asarray(omega, dtype=float).reshape(3)
    T = escape_times(domain, xs, omega)
    y = xs - T[:, None] * omega
    y = domain.project_to_boundary(y)
    vals = np.exp(-lam * T) * np.asarray(g(y, omega, E), dtype=float)
    zero_t = T <= 1e-12
    if np.any(zero_t):
        grad = domain.level_gradient(xs[zero_t])
        nrm = np.linalg.norm(grad, axis=1)
        dots = np.einsum("j,ij->i", omega, grad / np.maximum(nrm, 1e-300)[:, None])
        from .geometry import TANGENT_TOL

        tang = np.abs(dots) <= TANGENT_TOL
        sub = np.flatnonzero(zero_t)[tang]
        vals[sub] = 0.0
    return vals


def lift_inflow(g: Callable, lam: float, domain: ConvexDomain, p: PhasePoint) -> float:
    """Lift of inflow data at a single phase point."""
    return float(lift_values(g, lam, domain, p.x.reshape(1, 3), p.omega, p.E)[0])


def lift_field(g: Callable, lam: float, domain: ConvexDomain) -> Callable:
    """The lift as a vectorized callable field."""

    def lg(xs, omega, E):
        return lift_values(g, lam, domain, xs, omega, float(E))

    return lg


def solve_with_inflow(f: Callable, g: Callable, coeffs: CoefficientSet, grid: GridSpec,
                      quad: RayQuadrature, tol: float = 1e-8, max_iter: int = 200,
                      lam: float = 0.0) -> tuple[DiscreteField, IterationReport]:
    """Nonzero inflow data via the change of unknown u = psi - lift(g).

    Solves the homogeneous-inflow problem for u with source
    f - (Sigma L g - K L g + C L g) and returns psi = u + L g on the grid.
    """
    domain = grid.domain
    lg = lift_field(g, lam, domain)

    def source(xs, omega, E):
        base = np.asarray(f(xs, omega, E), dtype=float)
        lg_here = lift_values(g, lam, domain, xs, omega, E)
        sig = np.asarray(coeffs.sigma_t(xs, omega, E), dtype=float)
        out = base - (sig + coeffs.shift) * lg_here
        if coeffs.scatter is not None:
            xs2 = np.atleast_2d(np.asarray(xs, dtype=float))
            acc = np.zeros(xs2.shape[0])
            for j in range(grid.n_omega):
                wj = grid.sphere_nodes[j]
                acc += grid.sphere_weights[j] \
                    * np.asarray(coeffs.scatter(xs2, wj, omega, E), dtype=float) \
                    * lift_values(g, lam, domain, xs2, wj, E)
            out = out + acc
        return out

    u, report = solve_scattering(source, coeffs, grid, quad, tol, max_iter)
    lifted = np.empty(grid.phase_shape)
    for j in range(grid.n_omega):
        for k in range(grid.n_energy):
            lifted[:, j, k] = lift_values(g, lam, domain, grid.coords,
                                          grid.sphere_nodes[j], float(grid.energy_nodes[k]))
    return DiscreteField(u.values + lifted, grid), report

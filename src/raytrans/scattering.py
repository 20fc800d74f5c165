"""Restricted collision operator, its norm bound, source iteration for the
convection-scattering problem, and the inflow lift.

The collision operator redistributes the field over directions at fixed
position and energy; source iteration alternates exact attenuation inversion
with an application of the operator and contracts whenever the shift exceeds
the m = 0 solvability threshold, the sup of sigma plus the operator-norm
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .attenuation import (
    RayQuadrature,
    RaySystem,
    SweepOperator,
    _in_clamp,
    _lattice_rows,
    _node_sigma,
    _ray_geometry,
    _ray_groups,
)
from .errors import MaxIterationsExceeded, ShiftTooSmall
from .fields import (
    CoefficientSet,
    DiscreteField,
    GridSpec,
    _kernel_values,
    _node_values,
    _where,
    sample_field,
    sup_norm_estimate,
)
from .geometry import TANGENT_TOL, ConvexDomain, escape_times, outward_normal

_CACHE_BYTES = 512 * 2**20


class _CacheBudget:
    """Bytes left for the kernel columns, ray weights and sweep operators
    kept by one solve or one energy march; ``take`` reserves them if they
    fit, ``give`` returns them."""

    def __init__(self, nbytes: Optional[int] = None):
        self.left = _CACHE_BYTES if nbytes is None else nbytes

    def take(self, nbytes: int) -> bool:
        if nbytes > self.left:
            return False
        self.left -= nbytes
        return True

    def give(self, nbytes: int) -> None:
        self.left += nbytes


def _cache_counts() -> dict:
    return {"operators_built": 0, "operators_reused": 0, "operator_entries": 0,
            "operator_bytes": 0, "sweeps_rebuilt": 0, "ray_nodes": 0,
            "ray_weights_reused": 0, "kernel_columns": 0}


@dataclass
class IterationReport:
    """Contraction record of one source-iteration run.

    ``cache`` counts the sweep operators (of kernel sweeps and lattice
    sources alike) built, and so kept, and reused in the ``SweepCache``,
    their stored entries and bytes, the sweeps streamed over budget, the
    ray nodes placed (again for each streamed kernel sweep), the (direction,
    energy) pairs whose attenuation weights came from the cache at set-up,
    and the kernel columns evaluated (a column the budget did not keep at
    each use).  ``rate_bound`` caps the contraction rate by c_kernel /
    (shift - c_sigma) + 0.05, with the two terms of the m = 0 threshold the
    solve checked (NaN if it checked none).
    """

    iterations: int = 0
    residual_history: list = field(default_factory=list)
    converged: bool = False
    estimated_rate: float = math.nan
    cache: dict = field(default_factory=_cache_counts)
    rate_bound: float = math.nan

    def finish(self) -> "IterationReport":
        ratios = [b / a for a, b in zip(self.residual_history, self.residual_history[1:]) if a > 0]
        if ratios:
            tail = ratios[-min(5, len(ratios)):]
            self.estimated_rate = float(np.exp(np.mean(np.log(np.maximum(tail, 1e-300)))))
        return self


def apply_scatter(scatter: Callable, psi: Callable, xs, omega, E: float, grid: GridSpec) -> np.ndarray:
    """Collision operator at the positions xs (n, 3) for out-direction omega
    and energy E, off the grid: the quadrature over the grid's directions
    of the kernel against the field callable psi(xs, omega', E): one value
    for every position or (n,) values, checked by ``_node_values``.
    Returns (n,) values; ``apply_scatter_grid`` applies it to grid fields."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    acc = np.zeros(xs.shape[0])
    for wj, weight in zip(grid.sphere_nodes, grid.sphere_weights):
        acc += weight * _kernel_values(scatter, xs, wj, omega, E) \
            * _node_values(psi(xs, wj, E), xs, "psi", "point", lambda: _where(wj, E), scalar=True)
    return acc


class _KernelApplier:
    """Applies the collision operator to grid fields one output direction at
    a time.  The kernel column of each (energy node, output direction) is
    kept as its non-zero rows and their (n_rows, n_omega) values; it is
    cached while ``budget`` allows, otherwise evaluated on use.  The kernel
    values come from ``_kernel_values``, which checks them; ``columns``
    counts the columns evaluated."""

    def __init__(self, scatter: Callable, grid: GridSpec, budget: Optional[_CacheBudget] = None):
        self.scatter = scatter
        self.grid = grid
        self._cache = {}
        self._budget = budget if budget is not None else _CacheBudget()
        self._nbytes = 0
        self.columns = 0

    def column(self, k: int, jout: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, values) of the kernel column at energy node k, out-direction jout."""
        hit = self._cache.get((k, jout))
        if hit is None:
            g = self.grid
            E = float(g.energy_nodes[k])
            col = np.empty((g.n_interior, g.n_omega))
            for jin in range(g.n_omega):
                col[:, jin] = _kernel_values(self.scatter, g.coords, g.sphere_nodes[jin],
                                             g.sphere_nodes[jout], E, k)
            rows = np.flatnonzero(np.any(col != 0.0, axis=1))
            hit = (rows, col[rows])
            self.columns += 1
            nbytes = rows.nbytes + hit[1].nbytes
            if self._budget.take(nbytes):
                self._cache[(k, jout)] = hit
                self._nbytes += nbytes
        return hit

    def release(self) -> None:
        """Drop the cached columns and return their bytes to the budget."""
        self._cache.clear()
        self._budget.give(self._nbytes)
        self._nbytes = 0

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


def _column_norms(applier: _KernelApplier) -> tuple[float, float]:
    """N1 and N2 of the bound over every interior node, from the kernel
    columns: N1 is the largest incoming-direction quadrature of |K| (a
    weighted row sum of one column), N2 the largest outgoing-direction one
    (summed over the columns)."""
    g = applier.grid
    w = g.sphere_weights
    n1 = n2 = 0.0
    for k in range(g.n_energy):
        acc_out = np.zeros((g.n_interior, g.n_omega))
        for jout in range(g.n_omega):
            rows, col = applier.column(k, jout)
            mag = np.abs(col)
            acc_in = np.zeros(mag.shape[0])
            for jin in range(g.n_omega):
                acc_in += w[jin] * mag[:, jin]
            n1 = max(n1, float(np.max(acc_in, initial=0.0)))
            acc_out[rows] += w[jout] * mag
        n2 = max(n2, float(np.max(acc_out)))
    return n1, n2


def scatter_norm_bound(scatter: Callable, grid: GridSpec,
                       applier: Optional[_KernelApplier] = None) -> float:
    """Constructive upper bound sqrt(N1 N2) for the L2 norm of the
    collision operator.

    N1 and N2 are grid values of the two mixed sup/L1 kernel norms
    (incoming- and outgoing-direction integrals) over every interior node,
    from the kernel columns of ``applier`` (``_column_norms``; the solve's,
    so the threshold and the solve evaluate the kernel once; a fresh
    uncached one if None).
    """
    if applier is None:
        applier = _KernelApplier(scatter, grid, _CacheBudget(0))
    n1, n2 = _column_norms(applier)
    return math.sqrt(n1 * n2)


def _threshold_terms(coeffs: CoefficientSet, grid: GridSpec,
                     applier: Optional[_KernelApplier]) -> tuple[float, float]:
    """The two terms of ``solvability_threshold`` (``applier`` as in ``scatter_norm_bound``)."""
    return (sup_norm_estimate(coeffs.sigma_t, 0, grid, "sigma"),
            scatter_norm_bound(coeffs.scatter, grid, applier=applier)
            if coeffs.scatter is not None else 0.0)


def solvability_threshold(coeffs: CoefficientSet, grid: GridSpec) -> float:
    """C'' = c_sigma + c_kernel = |Sigma|_inf + collision norm bound, the
    m = 0 threshold the shift must exceed."""
    c_sigma, c_kernel = _threshold_terms(coeffs, grid, None)
    return c_sigma + c_kernel


def _support_clamp(support: np.ndarray) -> np.ndarray:
    """Two-cell dilation of a box support: the nodes where a clamped cubic
    interpolant of data on that support is evaluated.

    A local cubic interpolant of compactly supported data vanishes beyond
    it, and the clamp removes the global ringing that the spline prefilter
    would otherwise spread across the box, preserving discrete support
    margins.
    """
    from scipy import ndimage

    return ndimage.binary_dilation(support, np.ones((3, 3, 3), bool), iterations=2)


def _grid_interp_factory(grid: GridSpec, slab: np.ndarray) -> Callable:
    """Cubic-spline evaluator for one spatial slab (zero outside the mask),
    clamped by ``_in_clamp`` to the ``_support_clamp`` of the slab support;
    the spline is evaluated only at the points the clamp keeps."""
    from scipy import ndimage

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


def _kernel_clamp(applier: _KernelApplier, j: int, k: int) -> np.ndarray:
    """The ``_support_clamp`` of the kernel's non-zero rows at energy node
    k, out-direction j."""
    grid = applier.grid
    support = np.zeros(grid.shape, dtype=bool)
    support.reshape(-1)[grid.interior_idx[applier.column(k, j)[0]]] = True
    return _support_clamp(support)


class _WeightSet:
    """Attenuation weights of one direction for one sigma + shift at its ray
    nodes, with the table of the sweep operators built from them."""

    def __init__(self, sigma: list, weights: list):
        self.sigma = sigma          # per panel-count group, compared bitwise
        self.weights = weights      # per panel-count group
        self.kept = False           # whether the cache holds (and charged) the set
        self.nbytes = 0             # bytes charged for the set and its operators
        self.ops = {}               # packed clamp bits -> SweepOperator
        self.used = True            # used by the current solve

    def matches(self, sigma: list) -> bool:
        return self.sigma is not None and all(
            np.array_equal(a, b) for a, b in zip(self.sigma, sigma))


class SweepCache:
    """Ray weights and sweep operators of each direction, kept within one
    solve or across the solves of one energy march (``march_energy`` makes
    one per march: a march with a kernel passes it to every step, a
    kernel-free one marches each direction through all its steps and drops
    that direction's sets (``drop``) before the next).

    The ray nodes of direction j are those ``_ray_groups`` places on the
    lattice with the exit times (capped at ``t_cap``) and ``quad``; they are
    placed again on every use, with the same bits, and never stored.  For
    each distinct sigma + shift at those nodes (compared bitwise) the cache
    keeps the attenuation weights and one table of sweep operators keyed by
    their packed clamp bits, shared by kernel sweeps (on ``_kernel_clamp``)
    and lattice sources (on ``lattice_clamp``) through ``sweep``.
    Everything kept, and the kernel columns of the solve, is charged to one
    ``_CACHE_BYTES`` budget; what does not fit is used once and dropped, and
    an operator that does not fit is never built whole but streamed
    (``_operator``).  A kept weight set stays in the arrays it was formed
    in, and a kept operator in the heap arrays ``RaySystem.sweep_operator``
    builds it in.  Only a set-up keeps weight sets (``system``, not
    ``form``), and a solve drops those of a cache it made (``end_direction``).
    """

    def __init__(self, grid: GridSpec, quad: RayQuadrature, t_cap: Optional[float] = None):
        self.grid, self.quad = grid, quad
        self.budget = _CacheBudget()
        T = grid.escape_cache()
        self.T = T if t_cap is None else np.minimum(T, t_cap)
        self._sets = {}

    @cached_property
    def lattice_clamp(self) -> np.ndarray:
        """The ``_support_clamp`` of the grid mask, the clamp of every lattice
        source: no march property reads a lattice source's support margin."""
        return _support_clamp(self.grid.mask)

    def nodes(self, j: int, counts: Optional[dict] = None) -> list:
        """(sel, nodes, width) of each panel-count group of direction j, from
        ``_ray_groups``; the nodes placed are counted in ``counts`` if given."""
        nodes = [(sel, pts, width) for sel, _, pts, width in
                 _ray_groups(self.grid.coords, self.grid.sphere_nodes[j], self.T[:, j], self.quad)]
        if counts is not None:
            counts["ray_nodes"] += sum(pts.size // 3 for _, pts, _ in nodes)
        return nodes

    def _system(self, j: int, nodes: list, coeffs: CoefficientSet, E: float,
                counts: Optional[dict] = None) -> tuple[RaySystem, _WeightSet]:
        """The ray system of direction j at energy E on ``nodes``, with the
        kept weight set whose sigma + shift at the nodes is bitwise this one
        (its reuse counted in ``counts`` if given), or a new set, not kept."""
        omega = self.grid.sphere_nodes[j]
        sigma = [_node_sigma(coeffs, pts, omega, E) for _, pts, _ in nodes]
        ws = next((s for s in self._sets.get(j, []) if s.matches(sigma)), None)
        if ws is None:
            ws = _WeightSet(sigma, [_ray_geometry(sig, width, self.quad)[0]
                                    for sig, (_, _, width) in zip(sigma, nodes)])
        else:
            ws.used = True
            if counts is not None:
                counts["ray_weights_reused"] += 1
        groups = [(sel, pts.reshape(-1, 3), w) for (sel, pts, _), w in zip(nodes, ws.weights)]
        return RaySystem(omega, E, self.grid.n_interior, groups, self.quad), ws

    def system(self, j: int, nodes: list, coeffs: CoefficientSet, E: float,
               counts: Optional[dict] = None) -> tuple[RaySystem, _WeightSet]:
        """``_system``, a new weight set kept if it fits the budget."""
        s, ws = self._system(j, nodes, coeffs, E, counts)
        if not ws.kept:
            nbytes = sum(a.nbytes for a in ws.sigma + ws.weights)
            if self.budget.take(nbytes):
                ws.kept, ws.nbytes = True, nbytes
                self._sets.setdefault(j, []).append(ws)
        return s, ws

    def form(self, j: int, coeffs: CoefficientSet, E: float, counts: dict) -> RaySystem:
        """The ray system of direction j at energy E formed again after
        set-up, its nodes placed again (and counted in ``counts``): with a
        kept weight set that matches, or with weights formed now and not
        kept."""
        return self._system(j, self.nodes(j, counts), coeffs, E)[0]

    def _operator(self, ws: _WeightSet, system: RaySystem, clamp: np.ndarray,
                  counts: dict) -> Optional[SweepOperator]:
        """The sweep operator of ``system`` on ``clamp`` in the table of
        ``ws``, or built now, kept there and charged to the budget.  None,
        the one decision to stream, if ``ws`` is not kept (nothing is built)
        or the operator does not fit (its build stops at the first chunk
        over the bytes left)."""
        key = np.packbits(clamp).tobytes()
        op = ws.ops.get(key)
        if op is not None:
            counts["operators_reused"] += 1
            return op
        op = system.sweep_operator(self.grid, clamp, self.budget.left) if ws.kept else None
        if op is None:
            return None
        self.budget.take(op.nbytes)
        ws.nbytes += op.nbytes
        ws.ops[key] = op
        counts["operators_built"] += 1
        counts["operator_entries"] += op.data.size
        counts["operator_bytes"] += op.nbytes
        return op

    def sweep(self, ws: _WeightSet, system: RaySystem, clamp: np.ndarray, counts: dict,
              form: Optional[Callable[[], RaySystem]] = None) -> Callable[[np.ndarray], np.ndarray]:
        """The sweep of ``system`` on ``clamp``: the map from a lattice slab
        (n_interior,) to the ray integrals of its cubic spline.

        An all-zero slab gives exact zeros, with nothing filtered, built or
        applied.  Any other slab's spline coefficients go through the
        operator of ``_operator``, taken at that slab, or, if it decides to
        stream, through ``RaySystem.sweep`` of ``system`` (a sweep rebuilt).
        With ``form``, for a sweep used after set-up, the operator is taken
        now, and a stream goes through the ray system ``form()`` forms again."""
        grid, bits = self.grid, np.packbits(clamp)
        if form is None:
            take = lambda: self._operator(ws, system, clamp, counts)
            form = lambda: system
        else:
            op = self._operator(ws, system, clamp, counts)
            take = lambda: op

        def integrals(slab: np.ndarray) -> np.ndarray:
            if not slab.any():
                return np.zeros(grid.n_interior)
            from scipy import ndimage

            coef = ndimage.spline_filter(grid.embed(slab), order=3, mode="constant")
            kept = take()
            if kept is not None:
                return kept.apply(coef)
            counts["sweeps_rebuilt"] += 1
            unpacked = np.unpackbits(bits, count=grid.mask.size).view(bool).reshape(grid.shape)
            return form().sweep(grid, unpacked, coef)
        return integrals

    def fixed(self, j: int, nodes: list, coeffs: CoefficientSet, E: float, f: Callable,
              lattice: Optional[np.ndarray], counts: dict,
              last: bool = False) -> tuple[np.ndarray, RaySystem, _WeightSet]:
        """The fixed part of one (direction j, energy E) of a solve, with its
        ray system and weight set: the ray integrals of the analytic source
        f on ``nodes`` plus, unless ``lattice`` is None, the sweep of that
        lattice slab (n_interior,) on ``lattice_clamp``.  ``last`` marks
        direction j's last lookup in the set-up of a solve that made this
        cache (``end_direction`` before the integrals).  The one body of
        ``solve_scattering``'s set-up and of a kernel-free march step."""
        s, ws = self.system(j, nodes, coeffs, E, counts)
        if last:
            self.end_direction(j)
        out = s.integrate_callable(f)
        if lattice is not None:
            out += self.sweep(ws, s, self.lattice_clamp, counts)(lattice)
        return out, s, ws

    def drop(self, j: int) -> None:
        """A march is done with direction j: drop its weight sets and their
        operators, returning their bytes."""
        for ws in self._sets.pop(j, []):
            self.budget.give(ws.nbytes)

    def end_direction(self, j: int) -> None:
        """The set-up of a solve that made this cache looks up no more weights
        of direction j: drop them, returning their bytes (its operators stay,
        and so do the weights of ray systems already handed out); a sweep over
        budget forms them again (``form``)."""
        for ws in self._sets.get(j, []):
            nbytes = sum(a.nbytes for a in ws.sigma + ws.weights)
            self.budget.give(nbytes)
            ws.nbytes -= nbytes
            ws.sigma = ws.weights = None

    def end_setup(self, j: Optional[int] = None) -> None:
        """Drop the weight sets the solve just set up did not use, returning
        their bytes, and mark the others unused for the next solve; only
        those of direction j if given (one step of a direction-major march)."""
        for sets in (self._sets.values() if j is None else [self._sets.get(j, [])]):
            for ws in sets:
                if not ws.used:
                    self.budget.give(ws.nbytes)
            sets[:] = [ws for ws in sets if ws.used]
            for ws in sets:
                ws.used = False


def solve_scattering(f: Callable, coeffs: CoefficientSet, grid: GridSpec,
                     quad: RayQuadrature, tol: float = 1e-8, max_iter: int = 200,
                     check_threshold: bool = True,
                     grid_source: Optional[np.ndarray] = None,
                     psi0: Optional[np.ndarray] = None,
                     cache: Optional[SweepCache] = None) -> tuple[DiscreteField, IterationReport]:
    """Source iteration for omega.grad psi + Sigma psi + C psi - K psi = f.

    By linearity each iterate is the fixed attenuation inverse of f plus the
    attenuation inverse of the scattered previous iterate, so the analytic
    source is ray-integrated once.  The ray nodes of a direction are placed
    once for all its energies, and its attenuation weights and sweep
    operators come from ``cache`` (a ``SweepCache`` on this grid and
    ``quad``, shared by the steps of an energy march, whose ``t_cap`` also
    serves the solve, and keeps its weights for the next step; if None, a
    new one that drops each direction's weights once it is set up).  Each
    (direction, energy) sweeps the scattered slab with ``SweepCache.sweep``
    on the ``_support_clamp`` of the kernel's non-zero rows there (which
    holds the support of every scattered slab): a kept operator, or a sweep
    streamed on every call if over budget, with the same arithmetic.  Stops
    when the sup change between iterates falls below tol.  ``grid_source``
    adds a lattice source of shape (n_x, n_omega, n_E), integrated once
    through the same ``SweepCache.sweep`` on ``lattice_clamp``; ``check_threshold`` verifies
    C > C'' first, with the kernel columns the solve uses (callers with
    their own solvability criterion, like the energy marcher, disable it;
    the report keeps the ``rate_bound`` of the threshold).
    """
    own = cache is None
    if own:
        cache = SweepCache(grid, quad)
    elif cache.grid is not grid or cache.quad != quad:
        raise ValueError("the sweep cache was made for another grid or quadrature")
    applier = (_KernelApplier(coeffs.scatter, grid, cache.budget)
               if coeffs.scatter is not None else None)
    report = IterationReport()
    if check_threshold:
        c_sigma, c_kernel = _threshold_terms(coeffs, grid, applier)
        if coeffs.shift <= c_sigma + c_kernel:
            raise ShiftTooSmall(f"shift {coeffs.shift} <= threshold {c_sigma + c_kernel:.6g}")
        report.rate_bound = c_kernel / (coeffs.shift - c_sigma) + 0.05
    counts = report.cache

    sweeps = {}
    psi_fix = np.empty(grid.phase_shape)
    for j in range(grid.n_omega):
        nodes = cache.nodes(j, counts)
        for k in range(grid.n_energy):
            psi_fix[:, j, k], s, ws = cache.fixed(j, nodes, coeffs, float(grid.energy_nodes[k]), f,
                                                  None if grid_source is None else grid_source[:, j, k],
                                                  counts, last=own and k == grid.n_energy - 1)
            if applier is not None:
                sweeps[j, k] = cache.sweep(ws, s, _kernel_clamp(applier, j, k), counts,
                                           partial(cache.form, j, coeffs, s.E, counts))
            del s
        del nodes
    cache.end_setup()

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
                    new[:, j, k] += sweeps[j, k](scattered[:, j])
        resid = float(np.max(np.abs(new - psi)))
        report.residual_history.append(resid)
        report.iterations = it + 1
        psi = new
        if resid < tol:
            report.converged = True
            break
    if applier is not None:
        applier.release()
        counts["kernel_columns"] += applier.columns
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
    exp(-lam * t) g(x - t omega, omega, E) with t the exit time (the
    quadric closed form, so x - t omega is on the boundary to round-off).

    Tangential phase points (zero exit time off the inflow set) get the
    conventional value zero.  The values of g are checked by
    ``_node_values``.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    omega = np.asarray(omega, dtype=float).reshape(3)
    T = escape_times(domain, xs, omega)
    y = xs - T[:, None] * omega
    vals = np.exp(-lam * T) * _node_values(g(y, omega, E), y, "g", "point", lambda: _where(omega, E))
    zero_t = T <= 1e-12
    if np.any(zero_t):
        dots = np.einsum("j,ij->i", omega, outward_normal(domain, xs[zero_t]))
        tang = np.abs(dots) <= TANGENT_TOL
        sub = np.flatnonzero(zero_t)[tang]
        vals[sub] = 0.0
    return vals


def solve_with_inflow(f: Callable, g: Callable, coeffs: CoefficientSet, grid: GridSpec,
                      quad: RayQuadrature, tol: float = 1e-8, max_iter: int = 200,
                      lam: float = 0.0) -> tuple[DiscreteField, IterationReport]:
    """Nonzero inflow data via the change of unknown u = psi - lift(g).

    The lift L g decays by exp(-lam t) along each characteristic, so
    omega.grad L g = -lam L g.  Solves the homogeneous-inflow problem for u
    with source f - (Sigma + C - lam) L g + K L g and returns psi = u + L g
    on the grid.
    """
    def lift(xs, omega, E):
        return lift_values(g, lam, grid.domain, xs, omega, E)

    def source(xs, omega, E):
        where = lambda: _where(omega, E)
        base = _node_values(f(xs, omega, E), xs, "source", "ray node", where, finite=False)
        sig = _node_values(coeffs.sigma_t(xs, omega, E), xs, "sigma", "ray node", where)
        out = base - (sig + coeffs.shift - lam) * lift(xs, omega, E)
        if coeffs.scatter is not None:
            out = out + apply_scatter(coeffs.scatter, lift, xs, omega, E, grid)
        return out

    u, report = solve_scattering(source, coeffs, grid, quad, tol, max_iter)
    return DiscreteField(u.values + sample_field(lift, grid, "lift").values, grid), report

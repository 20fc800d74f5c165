"""Discrete anisotropic Sobolev norms, weighted trace norms, Green-identity
residuals, and the inflow-vanishing margin surrogate.

Spatial derivatives use mask-aware central stencils (one-sided near the
boundary); the L2 measure is the lattice partial-volume rule times the sphere
and energy quadratures.  Boundary integrals use the triangulated level-set
surface from the geometry module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EmptyTrace, OrderTooHigh
from .fields import DiscreteField, GridSpec, _node_values, _where, multi_indices
from .geometry import TANGENT_TOL, BoundarySide, SurfaceMesh, escape_times, triangulate_boundary

_MAX_SPATIAL_ORDER = 3
_FD_STEP = 1e-4        # step of boundary_h_norm's one-sided differences of a callable
_H0_THRESHOLD = 1e-10  # h0_margin's bound on |psi| below which psi counts as zero
_SUBDIVISIONS = 3      # mesh refinement of trace_from_grid_field and green_residual


def _check_order(m: int) -> None:
    """The spatial differentiation order m of every norm: 0 <= m <= 3."""
    if m < 0:
        raise ValueError("orders must be nonnegative")
    if m > _MAX_SPATIAL_ORDER:
        raise OrderTooHigh(f"spatial order {m} exceeds {_MAX_SPATIAL_ORDER}")


def h_norm(psi: DiscreteField, m: int) -> float:
    """Discrete mixed Sobolev norm (sum of squared spatial-derivative L2 norms)."""
    _check_order(m)
    grid = psi.grid
    w_phase = grid.sphere_weights[None, :, None] * grid.energy_weights[None, None, :]
    total = float(np.sum(grid.vol_weights[:, None, None] * w_phase * psi.values**2))
    if m >= 1:
        alphas = [a for a in multi_indices(m) if sum(a) >= 1]
        for k in range(grid.n_energy):
            box = grid.embed(psi.values[:, :, k])
            for alpha in alphas:
                d = grid.extract(grid.derivative_multi(box, alpha, masked=True))
                total += float(np.sum(grid.vol_weights[:, None] * grid.sphere_weights[None, :]
                                      * grid.energy_weights[k] * d**2))
    return float(np.sqrt(total))


def h_inner(psi: DiscreteField, v: DiscreteField, m: int) -> float:
    """Discrete inner product matching ``h_norm`` (pure central derivatives).

    Central differences with zero extension commute and are antisymmetric
    under the lattice inner product, which the accretivity identities need;
    fields should vanish near the boundary for the derivative terms to be
    trustworthy there.
    """
    _check_order(m)
    grid = psi.grid
    total = 0.0
    for k in range(grid.n_energy):
        box_p = grid.embed(psi.values[:, :, k])
        box_v = grid.embed(v.values[:, :, k])
        for alpha in multi_indices(m):
            dp = grid.derivative_multi(box_p, alpha, masked=False)
            dv = grid.derivative_multi(box_v, alpha, masked=False)
            prod = np.sum(dp * dv * grid.sphere_weights[None, None, None, :], axis=3)
            total += float(np.sum(prod) * np.prod(grid.h) * grid.energy_weights[k])
    return total


# -- traces ------------------------------------------------------------------


@dataclass(frozen=True)
class TraceField:
    """Boundary-restricted field values with surface quadrature data.

    ``trace_from_callable`` and ``trace_from_grid_field`` store both arrays
    direction-major, (n_omega, n_surf, n_energy) and (n_omega, n_surf), and
    hand them out as ``np.moveaxis`` views of the shapes below, so the
    per-direction slabs ``values[:, j, :]`` and ``dots[:, j]`` that fill and
    read them are contiguous."""

    values: np.ndarray        # (n_surf, n_omega, n_energy)
    dots: np.ndarray          # (n_surf, n_omega) omega . nu(y)
    mesh: SurfaceMesh
    grid: GridSpec
    side: Optional[BoundarySide]


def _selection(dots: np.ndarray, side: Optional[BoundarySide]) -> np.ndarray:
    """The boundary quadrature points of ``side`` (all if None) by their
    omega . nu values ``dots``."""
    if side is BoundarySide.INFLOW:
        return dots < -TANGENT_TOL
    if side is BoundarySide.OUTFLOW:
        return dots > TANGENT_TOL
    return np.ones_like(dots, dtype=bool)


def _direction_dots(mesh: SurfaceMesh, grid: GridSpec) -> np.ndarray:
    """omega_j . nu(y) direction-major (n_omega, n_surf): the bits of
    ``mesh.normals @ grid.sphere_nodes.T``, transposed in place of a product
    in the other order, which may round differently."""
    return np.ascontiguousarray((mesh.normals @ grid.sphere_nodes.T).T)


def trace_from_callable(field: Callable, grid: GridSpec, side: Optional[BoundarySide],
                        subdivisions: int = 3) -> TraceField:
    """Sample a callable field on the boundary quadrature mesh, checked by
    ``_node_values``."""
    mesh = triangulate_boundary(grid.domain, subdivisions)
    dots = _direction_dots(mesh, grid)
    vals = np.empty((grid.n_omega, mesh.points.shape[0], grid.n_energy))
    for j in range(grid.n_omega):
        vals[j] = _direction_samples(field, grid, mesh, j)
    return TraceField(np.moveaxis(vals, 0, 1), dots.T, mesh, grid, side)


def _direction_samples(field: Callable, grid: GridSpec, mesh: SurfaceMesh, j: int) -> np.ndarray:
    """The values (n_surf, n_energy) of a callable field at the points of
    ``mesh`` for direction j, checked by ``_node_values``: the one sampler
    of ``trace_from_callable`` and of ``trace_norm`` of a callable."""
    omega = grid.sphere_nodes[j]
    vals = np.empty((mesh.points.shape[0], grid.n_energy))
    for k, E in enumerate(grid.energy_nodes.tolist()):
        vals[:, k] = _node_values(field(mesh.points, omega, E), mesh.points, "field", "point",
                                  lambda: _where(omega, E))
    return vals


def _pullin_samples(grid: GridSpec, box: np.ndarray, points: np.ndarray,
                    normals: np.ndarray) -> np.ndarray:
    """Quadratic extrapolation of a box field to surface points along -nu.

    The box is first extended past the mask edge by nearest-interior fill so
    shallow samples are not contaminated by the zero embedding; the sample
    span stays within three lattice spacings of the surface because deeper
    spans turn unresolved interior structure into spurious boundary values.
    """
    from scipy.ndimage import map_coordinates

    filled = grid.fill_from_interior(box)
    s = float(np.mean(grid.h))
    vals = []
    for c in (1.0, 2.0, 3.0):
        p = points - c * s * normals
        coords = ((p - grid.origin) / grid.h).T
        vals.append(map_coordinates(filled, coords, order=1, mode="nearest"))
    return 3.0 * vals[0] - 3.0 * vals[1] + vals[2]


def trace_from_grid_field(psi: DiscreteField, side: Optional[BoundarySide]) -> TraceField:
    """Extrapolate a grid field to the boundary mesh (second order inward)."""
    grid = psi.grid
    mesh = triangulate_boundary(grid.domain, _SUBDIVISIONS)
    dots = _direction_dots(mesh, grid)
    vals = np.empty((grid.n_omega, mesh.points.shape[0], grid.n_energy))
    for k in range(grid.n_energy):
        box = grid.embed(psi.values[:, :, k])
        for j in range(grid.n_omega):
            vals[j, :, k] = _pullin_samples(grid, box[..., j], mesh.points, mesh.normals)
    return TraceField(np.moveaxis(vals, 0, 1), dots.T, mesh, grid, side)


def trace_norm(tr: TraceField | Callable, *args, **kwargs) -> float:
    """T2 norm of a trace, ``trace_norm(tr, weighting="plain")`` of a
    ``TraceField``: plain uses |omega.nu|, tau adds the chord length.

    ``tr`` may instead be a callable field, ``trace_norm(field, grid, side,
    subdivisions=3, weighting="plain")``: the norm of ``trace_from_callable(
    field, grid, side, subdivisions)`` bit for bit, each direction's values
    sampled (and checked by ``_node_values``) as its term is summed, so the
    (n_surf, n_omega, n_energy) values are never held.  The omega . nu
    values are the columns of the one product ``mesh.normals @
    grid.sphere_nodes.T``, whose bits a trace's ``dots`` have.  An empty
    selection raises ``EmptyTrace`` before any field value is sampled.
    """
    if callable(tr):
        return _callable_trace_norm(tr, *args, **kwargs)
    return _trace_sum(tr.grid, tr.mesh, tr.dots, tr.side, lambda j: tr.values[:, j, :], *args, **kwargs)


def _callable_trace_norm(field: Callable, grid: GridSpec, side: Optional[BoundarySide],
                         subdivisions: int = 3, weighting: str = "plain") -> float:
    mesh = triangulate_boundary(grid.domain, subdivisions)
    return _trace_sum(grid, mesh, mesh.normals @ grid.sphere_nodes.T, side,
                      lambda j: _direction_samples(field, grid, mesh, j), weighting)


def _trace_sum(grid: GridSpec, mesh: SurfaceMesh, dots: np.ndarray, side: Optional[BoundarySide],
               values: Callable[[int], np.ndarray], weighting: str = "plain") -> float:
    """``trace_norm`` of the values (n_surf, n_energy) that ``values(j)``
    gives for each direction j, summed one direction at a time."""
    if not any(np.any(_selection(dots[:, j], side)) for j in range(grid.n_omega)):
        raise EmptyTrace("trace restriction selected no boundary quadrature point")
    if weighting not in ("plain", "tau"):
        raise ValueError("weighting must be 'plain' or 'tau'")
    total = 0.0
    for j in range(grid.n_omega):
        w = np.abs(dots[:, j]) * _selection(dots[:, j], side)
        if weighting == "tau":
            omega = grid.sphere_nodes[j]
            fwd = escape_times(grid.domain, mesh.points, -omega)
            bwd = escape_times(grid.domain, mesh.points, omega)
            # tau_- is the forward chord from inflow points, tau_+ the
            # backward chord from outflow points; both vanish tangentially.
            w = w * np.where(dots[:, j] < 0.0, fwd, bwd)
        quad = (mesh.areas * w * grid.sphere_weights[j])[:, None] * grid.energy_weights[None, :]
        total += float(np.sum(quad * values(j) ** 2))
    return float(np.sqrt(total))


def boundary_h_norm(psi, grid: GridSpec, m: int, subdivisions: int = 3) -> float:
    """Outflow boundary norm: sum over |alpha| <= m of T2(Gamma_+) norms.

    ``psi`` may be a callable field (derivatives by inward one-sided
    differences of step ``_FD_STEP``, every value checked by
    ``_node_values``) or a DiscreteField (lattice derivatives extrapolated to
    the surface).
    """
    _check_order(m)
    mesh = triangulate_boundary(grid.domain, subdivisions)
    dots = mesh.normals @ grid.sphere_nodes.T
    sel = dots > 0.0
    total = 0.0
    if callable(psi):
        for alpha in multi_indices(m):
            for j in range(grid.n_omega):
                if not np.any(sel[:, j]):
                    continue
                omega = grid.sphere_nodes[j]
                for k, E in enumerate(grid.energy_nodes.tolist()):
                    f = lambda p: _node_values(psi(p, omega, E), p, "psi", "point", lambda: _where(omega, E))
                    d = _onesided_derivative(f, mesh.points, mesh.normals, alpha, _FD_STEP)
                    w = mesh.areas * np.abs(dots[:, j]) * sel[:, j]
                    total += float(np.sum(w * d**2) * grid.sphere_weights[j] * grid.energy_weights[k])
        return float(np.sqrt(total))

    for alpha in multi_indices(m):
        for k in range(grid.n_energy):
            box = grid.embed(psi.values[:, :, k])
            dbox = grid.derivative_multi(box, alpha, masked=True)
            for j in range(grid.n_omega):
                if not np.any(sel[:, j]):
                    continue
                d = _pullin_samples(grid, dbox[..., j], mesh.points, mesh.normals)
                w = mesh.areas * np.abs(dots[:, j]) * sel[:, j]
                total += float(np.sum(w * d**2) * grid.sphere_weights[j] * grid.energy_weights[k])
    return float(np.sqrt(total))


def _onesided_derivative(f: Callable, points: np.ndarray, normals: np.ndarray,
                         alpha, step: float) -> np.ndarray:
    """Composed one-sided second-order differences pointing into the domain."""
    if sum(alpha) == 0:
        return f(points)
    axis = next(i for i, a in enumerate(alpha) if a > 0)
    rest = tuple(a - (1 if i == axis else 0) for i, a in enumerate(alpha))
    sgn = -np.sign(normals[:, axis])
    sgn[sgn == 0.0] = 1.0
    e = np.zeros((points.shape[0], 3))
    e[:, axis] = sgn * step
    f0 = _onesided_derivative(f, points, normals, rest, step)
    f1 = _onesided_derivative(f, points + e, normals, rest, step)
    f2 = _onesided_derivative(f, points + 2 * e, normals, rest, step)
    return sgn * (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * step)


# -- Green identity and margin -----------------------------------------------


def green_residual(psi: DiscreteField, v: DiscreteField,
                   psi_trace: Optional[Callable] = None,
                   v_trace: Optional[Callable] = None) -> float:
    """Residual of the transport Green identity

        int (omega.grad psi) v + int (omega.grad v) psi
            - surface int (omega.nu) psi v  =  0.

    Boundary traces are separate data from interior values; when the caller
    knows them (``psi_trace``/``v_trace`` callables) the surface term uses
    their values, checked by ``_node_values``; otherwise it falls back to inward extrapolation of the
    lattice values.
    """
    grid = psi.grid
    mesh = triangulate_boundary(grid.domain, _SUBDIVISIONS)
    dots = mesh.normals @ grid.sphere_nodes.T
    vol = 0.0
    surf = 0.0
    stream_p = grid.stream(psi.values, masked=True)
    stream_v = grid.stream(v.values, masked=True)
    for k in range(grid.n_energy):
        E = float(grid.energy_nodes[k])
        p_k, v_k = psi.values[:, :, k], v.values[:, :, k]
        integrand = stream_p[:, :, k] * v_k + stream_v[:, :, k] * p_k
        vol += float(np.sum(grid.vol_weights[:, None] * integrand * grid.sphere_weights[None, :])
                     * grid.energy_weights[k])
        prod_box = grid.embed(p_k * v_k)
        for j in range(grid.n_omega):
            omega = grid.sphere_nodes[j]
            if psi_trace is not None and v_trace is not None:
                where = lambda: _where(omega, E)
                pv = (_node_values(psi_trace(mesh.points, omega, E), mesh.points, "psi_trace", "point", where)
                      * _node_values(v_trace(mesh.points, omega, E), mesh.points, "v_trace", "point", where))
            else:
                pv = _pullin_samples(grid, prod_box[..., j], mesh.points, mesh.normals)
            surf += float(np.sum(mesh.areas * dots[:, j] * pv)
                          * grid.sphere_weights[j] * grid.energy_weights[k])
    return vol - surf


def h0_margin(psi: DiscreteField) -> tuple[float, bool]:
    """Largest eta with |psi| < _H0_THRESHOLD wherever the exit time is < eta.

    The discrete surrogate of support disjoint from the inflow closure;
    passes iff eta exceeds two lattice spacings.
    """
    grid = psi.grid
    t = grid.escape_cache()
    nonzero = np.max(np.abs(psi.values), axis=2) >= _H0_THRESHOLD
    if not np.any(nonzero):
        return grid.domain.diameter, True
    eta = float(np.min(t[nonzero]))
    return eta, eta > 2.0 * float(np.mean(grid.h))

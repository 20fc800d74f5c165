"""Exact characteristic-integral solution of the convection-attenuation
problem

    omega . grad psi + (Sigma + C) psi = f,    psi = 0 on the inflow boundary,

via composite Gauss-Legendre quadrature along backward rays, together with
its spatial gradient, higher-derivative sources, and the accretivity
functional used by the verification harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import CoefficientShapeError, MissingDerivative, NonFiniteValue, NotInH0
from .fields import (CoefficientSet, DiscreteField, GridSpec, _node_values, _non_finite, _where, leibniz_constant,
                     mi_binom, sample_field, sub_indices, sup_norm_estimate)
from .geometry import ConvexDomain, PhasePoint, escape_time_gradient, escape_times

_T_FLOOR = 1e-14


def _lagrange_partial_matrix(nodes: np.ndarray) -> np.ndarray:
    """B[r, q] = integral over [0, xi_r] of the q-th Lagrange basis on nodes.

    Applied to integrand values at the panel nodes this yields the running
    integral from the panel start, exactly for polynomials of degree
    < len(nodes); this keeps the nested attenuation exponent O(nodes) per ray.
    """
    n = nodes.size
    B = np.empty((n, n))
    for q in range(n):
        others = np.delete(nodes, q)
        poly = np.polynomial.Polynomial.fromroots(others)
        poly = poly / poly(nodes[q])
        anti = poly.integ()
        B[:, q] = anti(nodes) - anti(0.0)
    return B


@dataclass(frozen=True)
class RayQuadrature:
    """Composite Gauss-Legendre rule along rays.

    Panels scale with ray length (panels = ceil(panels_per_unit_length * T),
    at least one); per-panel nodes are Gauss-Legendre, so the rule is exact
    for polynomials of degree <= 2*nodes_per_panel - 1 on each panel.
    """

    panels_per_unit_length: int = 16
    nodes_per_panel: int = 4
    ref_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    ref_weights: np.ndarray = field(init=False, repr=False, compare=False)
    partial_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.panels_per_unit_length < 1 or self.nodes_per_panel < 2:
            raise ValueError("need >= 1 panel per unit length and >= 2 nodes per panel")
        x, w = np.polynomial.legendre.leggauss(self.nodes_per_panel)
        nodes = 0.5 * (x + 1.0)
        ref = {"ref_nodes": nodes, "ref_weights": 0.5 * w, "partial_matrix": _lagrange_partial_matrix(nodes)}
        for name, arr in ref.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def n_panels(self, T: np.ndarray) -> np.ndarray:
        return np.maximum(1, np.ceil(self.panels_per_unit_length * np.asarray(T)).astype(int))


def _ray_groups(xs, omega, T, quad):
    """Backward-ray nodes of a point batch, one panel-count group at a time.

    Rays with T <= _T_FLOOR (inflow and tangential points) are skipped, so
    their entries stay zero.  Yields (sel, s, pts, width): sel indexes the
    group's rays in the batch, s (n_rays, n_panels, n_nodes) is the distance
    of each node from its ray start, pts (..., 3) the nodes x - s omega, and
    width (n_rays,) the panel width.  The nodes are stored coordinate-major,
    one contiguous (n_rays, n_panels, n_nodes) block per coordinate, so
    ``pts.reshape(-1, 3)`` is a Fortran-ordered view whose columns the
    callables and ``_lattice_rows`` read contiguously.
    """
    idx_active = np.flatnonzero(T > _T_FLOOR)
    if idx_active.size == 0:
        return
    panel_counts = quad.n_panels(T[idx_active])
    for npan in np.unique(panel_counts):
        sel = idx_active[panel_counts == npan]
        width = T[sel] / npan
        s = (np.arange(npan)[None, :, None] + quad.ref_nodes[None, None, :]) * width[:, None, None]
        rows = np.empty((3,) + s.shape)
        for ax in range(3):
            np.subtract(xs[sel, ax][:, None, None], s * omega[ax], out=rows[ax])
        yield sel, s, np.moveaxis(rows, 0, -1), width


def _running_integral(g, width, quad):
    """Panel integrals (n_rays, n_panels) of node values g, and the running
    integral from the ray start at every node."""
    panel = np.einsum("ipq,q->ip", g, quad.ref_weights) * width[:, None]
    before = np.cumsum(panel, axis=1) - panel
    partial = np.einsum("rq,ipq->ipr", quad.partial_matrix, g) * width[:, None, None]
    return panel, before[:, :, None] + partial


def _node_sigma(coeffs, pts, omega, E):
    """sigma + shift at the nodes of one panel-count group, shaped like s,
    checked by ``_node_values``."""
    flat = pts.reshape(-1, 3)
    sig = _node_values(coeffs.sigma_t(flat, omega, E), flat, "sigma", "ray node", lambda: _where(omega, E))
    return sig.reshape(pts.shape[:3]) + coeffs.shift


def _source_integrals(w, vals, flat, omega, E):
    """Ray integrals of the source values ``vals`` at the flat ray nodes
    with the weights w (n_rays, n_panels, n_nodes).  ``vals`` is checked for
    shape; a non-finite node value always makes its ray's sum non-finite,
    so only the sums are checked for finiteness."""
    where = lambda: _where(omega, E)
    vals = _node_values(vals, flat, "source", "ray node", where, finite=False)
    out = np.einsum("ipq,ipq->i", w, vals.reshape(w.shape))
    if not np.isfinite(out).all():
        if np.isfinite(vals).all():
            raise NonFiniteValue(f"source ray integral overflows ({where()})")
        raise _non_finite(vals, flat, "source", "ray node", where)
    return out


def _ray_geometry(sig, width, quad):
    """Attenuation-weighted quadrature for one panel-count group with
    sigma + shift values ``sig`` at its nodes.

    Returns (weights, panel_int): the weights carry exp(-running integral of
    sigma+shift), so integrating a source is a plain weighted sum, and
    panel_int holds the per-panel integrals of sigma+shift.
    """
    panel_int, exponent = _running_integral(sig, width, quad)
    return quad.ref_weights[None, None, :] * width[:, None, None] * np.exp(-exponent), panel_int


def _weighted_sums(n_points, groups, values, omega, E):
    """Ray integrals of ``values`` (flat nodes -> values) over the groups,
    checked like a source at (omega, E)."""
    out = np.zeros(n_points)
    for sel, flat, w in groups:
        out[sel] = _source_integrals(w, values(flat), flat, omega, E)
    return out


_OPERATOR_CHUNK = 256  # rays per sweep-operator build step


def _bspline3(t):
    """Cubic B-spline weights (4, n) of the taps floor(c) - 1 .. floor(c) + 2
    at fractional lattice offsets t = c - floor(c)."""
    s = 1.0 - t
    t2 = t * t
    t3 = t2 * t
    return np.stack([s * s * s, 4.0 - 6.0 * t2 + 3.0 * t3,
                     1.0 + 3.0 * (t + t2 - t3), t3]) / 6.0


def _lattice_rows(grid, pts):
    """Lattice coordinates (3, n) of points (n, 3): the node axis is last, so
    the per-node arithmetic that follows runs over long rows, contiguous for
    coordinate-major points such as the ray nodes."""
    c = pts - grid.origin
    c /= grid.h
    return c.T


def _in_clamp(c, clamp):
    """Whether each lattice coordinate of the rows c (3, n) is kept by the
    box mask ``clamp``: it lies in the box and its nearest lattice node
    floor(c + 1/2) is set, the rule of ``map_coordinates(order=0,
    mode="constant")`` on the mask."""
    nx, ny, nz = clamp.shape
    inside = (c >= 0.0) & (c <= np.array([[nx - 1], [ny - 1], [nz - 1]]))
    keep = inside[0] & inside[1] & inside[2]
    near = np.floor(c[:, keep] + 0.5).astype(np.intp)
    keep[keep] = clamp.reshape(-1)[np.array([ny * nz, nz, 1]) @ near]
    return keep


@dataclass(frozen=True)
class SweepOperator:
    """Sparse map from cubic spline coefficients on the lattice box to the
    ray integrals of their spline at every point of a ``RaySystem``.

    Row r (point ``rows[r]``) holds the flat box indices
    ``cols[starts[r]:starts[r+1]]`` and their weights ``data[...]``; points
    not in ``rows`` get zero.
    """

    n_points: int
    rows: np.ndarray     # int32
    starts: np.ndarray   # int32
    cols: np.ndarray     # smallest unsigned dtype that indexes the box
    data: np.ndarray     # float64

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.starts.nbytes + self.cols.nbytes + self.data.nbytes

    def apply(self, coef: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_points)
        if self.rows.size:
            out[self.rows] = np.add.reduceat(self.data * coef.reshape(-1)[self.cols], self.starts)
        return out


def _operator_chunk(grid, clamp, flat, w, n_rays):
    """Merged (ray, flat box index, weight) triples of ``n_rays`` rays whose
    nodes ``flat`` and weights ``w`` are stored ray after ray.

    A node counts only if ``_in_clamp`` keeps it.  Its weight times the
    tensor cubic B-spline taps goes to the 4 x 4 x 4 box indices from
    floor(c) - 1, folded into the box by whole-sample mirroring (i -> -i,
    i -> 2 (n - 1) - i) as ``map_coordinates(mode="constant")`` does inside
    the box.  Taps are summed over runs of nodes that share a ray and a
    base cell, then over equal indices within each ray, run after run.
    Every per-node array keeps the node axis last.
    """
    shape = np.array(grid.shape)
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    per_ray = flat.shape[0] // n_rays
    c = _lattice_rows(grid, flat)
    keep = np.flatnonzero(_in_clamp(c, clamp))
    ray = keep // per_ray
    c = c[:, keep]
    cell = np.floor(c)
    base = cell.astype(np.intp) - 1
    new_run = np.ones(keep.size, dtype=bool)
    new_run[1:] = (ray[1:] != ray[:-1]) | np.any(base[:, 1:] != base[:, :-1], axis=0)
    runs = np.flatnonzero(new_run)
    if runs.size == 0:
        return runs, runs, np.zeros(0)

    t = c - cell
    wx, wy, wz = _bspline3(t[0]), _bspline3(t[1]), _bspline3(t[2])
    taps = (((w.reshape(-1)[keep] * wx)[:, None, None, :] * wy[None, :, None, :])
            * wz[None, None, :, :]).reshape(64, -1)
    taps = np.add.reduceat(taps, runs, axis=1)
    idx = np.abs(base[:, runs][:, None, :] + np.arange(4)[None, :, None])
    top = (shape - 1)[:, None, None]
    idx = np.where(idx > top, 2 * top - idx, idx) * strides[:, None, None]
    cols = (idx[0, :, None, None] + idx[1, None, :, None] + idx[2, None, None, :]).reshape(64, -1)

    size = int(np.prod(shape))
    key = (ray[runs] * size + cols).T.reshape(-1)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    return key[first] // size, key[first] % size, np.add.reduceat(taps.T.reshape(-1)[order], first)


@dataclass(frozen=True, eq=False)
class RaySystem:
    """Backward-ray quadrature of one (direction, energy) pair on a batch of
    ``n_points`` points, as ``SweepCache.system`` assembles it: per
    panel-count group, the indices ``sel`` of its rays in the batch, their
    flat nodes and their attenuation-weighted quadrature weights."""

    omega: np.ndarray
    E: float
    n_points: int
    groups: list

    @property
    def n_nodes(self) -> int:
        return sum(p.shape[0] for _, p, _ in self.groups)

    def integrate_callable(self, f: Callable) -> np.ndarray:
        return _weighted_sums(self.n_points, self.groups, lambda flat: f(flat, self.omega, self.E),
                              self.omega, self.E)

    def integrate_interp(self, interp: Callable) -> np.ndarray:
        return _weighted_sums(self.n_points, self.groups, interp, self.omega, self.E)

    def _operator_chunks(self, grid: GridSpec, clamp: np.ndarray):
        """(points, entries per point, box indices, weights) of the rows of
        ``sweep_operator``, one chunk of ``_OPERATOR_CHUNK`` rays at a time."""
        col_type = np.min_scalar_type(int(np.prod(grid.shape)) - 1)
        for sel, flat, w in self.groups:
            per_ray = flat.shape[0] // sel.size
            for lo in range(0, sel.size, _OPERATOR_CHUNK):
                hi = min(lo + _OPERATOR_CHUNK, sel.size)
                ray, col, val = _operator_chunk(grid, clamp, flat[lo * per_ray:hi * per_ray],
                                                w[lo:hi], hi - lo)
                if ray.size:
                    head = np.flatnonzero(np.r_[True, ray[1:] != ray[:-1]])
                    yield sel[lo + ray[head]], np.diff(np.r_[head, ray.size]), col.astype(col_type), val

    def sweep_operator(self, grid: GridSpec, clamp: np.ndarray,
                       max_bytes: float = math.inf) -> Optional[SweepOperator]:
        """``integrate_interp`` of the cubic spline interpolant of a lattice
        box, clamped by ``_in_clamp`` to the box mask ``clamp``, as a
        ``SweepOperator`` on the spline coefficients ``spline_filter(box,
        order=3, mode="constant")``: its chunks concatenated.  The build stops
        with None at the first chunk that takes the operator's ``nbytes`` (an
        int32 row and start per point) over ``max_bytes``."""
        none = np.zeros(0, dtype=np.intp)
        col_type = np.min_scalar_type(int(np.prod(grid.shape)) - 1)
        chunks = [(none, none, none.astype(col_type), np.zeros(0))]
        nbytes = 0
        for chunk in self._operator_chunks(grid, clamp):
            nbytes += 8 * chunk[0].size + chunk[2].nbytes + chunk[3].nbytes
            if nbytes > max_bytes:
                return None
            chunks.append(chunk)
        rows, counts, cols, data = zip(*chunks)
        counts = np.concatenate(counts)
        return SweepOperator(self.n_points, np.concatenate(rows).astype(np.int32),
                             (np.cumsum(counts) - counts).astype(np.int32),
                             np.concatenate(cols), np.concatenate(data))

    def sweep(self, grid: GridSpec, clamp: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """``sweep_operator(grid, clamp).apply(coef)`` bit for bit, each chunk
        applied as it is built: chunks hold disjoint points."""
        out = np.zeros(self.n_points)
        coef = coef.reshape(-1)
        for rows, counts, cols, data in self._operator_chunks(grid, clamp):
            out[rows] = np.add.reduceat(data * coef[cols], np.cumsum(counts) - counts)
        return out


def solve_attenuation_points(f: Callable, coeffs: CoefficientSet, domain: ConvexDomain,
                             xs: np.ndarray, omega: np.ndarray, E: float | np.ndarray,
                             quad: RayQuadrature, T: Optional[np.ndarray] = None) -> np.ndarray:
    """Attenuation solution at a batch of positions for one direction.

    Evaluates the backward characteristic integral

        psi(x) = int_0^T exp(-int_0^t (Sigma+C)) f(x - t omega) dt,

    returning zero at inflow/tangential points (T = 0).  ``E`` is one energy
    (result (n,)) or a 1-D array of energies (result (n, n_E)).  Unlike
    ``RaySystem`` the panel-count groups are built and integrated one at a
    time, so only the largest group's nodes are held in memory.  The nodes
    of a group serve every energy; its attenuation weights are recomputed
    only when sigma at the nodes differs from the previous energy's.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    omega = np.asarray(omega, dtype=float).reshape(3)
    energies = np.asarray(E, dtype=float)
    if T is None:
        T = escape_times(domain, xs, omega)
    out = np.zeros((xs.shape[0], energies.size))
    for sel, _, pts, width in _ray_groups(xs, omega, T, quad):
        flat = pts.reshape(-1, 3)
        sig_prev = None
        for k, Ek in enumerate(energies.reshape(-1).tolist()):
            sig = _node_sigma(coeffs, pts, omega, Ek)
            if sig_prev is None or not np.array_equal(sig, sig_prev):
                w, _ = _ray_geometry(sig, width, quad)
                sig_prev = sig
            out[sel, k] = _source_integrals(w, f(flat, omega, Ek), flat, omega, Ek)
    return out[:, 0] if energies.ndim == 0 else out


def solve_attenuation_grid(f: Callable, coeffs: CoefficientSet, grid: GridSpec,
                           quad: RayQuadrature) -> DiscreteField:
    """Attenuation solve at every grid node."""
    t_cache = grid.escape_cache()
    out = np.empty(grid.phase_shape)
    for j in range(grid.n_omega):
        out[:, j, :] = solve_attenuation_points(f, coeffs, grid.domain, grid.coords,
                                                grid.sphere_nodes[j], grid.energy_nodes,
                                                quad, T=t_cache[:, j])
    return DiscreteField(out, grid)


def _gradient_values(vals, flat: np.ndarray, what: str, where: Callable[[], str]) -> np.ndarray:
    """A gradient callable's result at the flat ray nodes as floats of shape
    (n, 3), checked like ``_node_values`` checks values of shape (n,)."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (len(flat), 3):
        raise CoefficientShapeError(f"{what} returned shape {vals.shape} for {len(flat)} ray nodes ({where()})")
    if not np.isfinite(vals).all():
        raise _non_finite(vals, flat, what, "ray node", where)
    return vals


def solve_attenuation_gradient(f: Callable, grad_f: Callable, coeffs: CoefficientSet,
                               grad_sigma: Optional[Callable], domain: ConvexDomain,
                               p: PhasePoint, quad: RayQuadrature,
                               inflow_vanishing: bool = False) -> np.ndarray:
    """Spatial gradient of the attenuation solution at a phase point.

    Three contributions: differentiated attenuation factor, differentiated
    source, and the boundary term with the exit-time gradient.  The boundary
    term is dropped when the source is known to vanish on the inflow closure
    (``inflow_vanishing``); otherwise it needs the exit-time gradient, which
    fails near tangential exit rays.
    """
    x = p.x.reshape(1, 3)
    omega = p.omega
    E = p.E
    T = escape_times(domain, x, omega)
    group = next(_ray_groups(x, omega, T, quad), None)
    if group is None:
        return np.zeros(3)
    _, _, pts, width = group
    if grad_sigma is None:
        grad_sigma = lambda xs, w, e: np.zeros((len(xs), 3))

    atten, panel_int = _ray_geometry(_node_sigma(coeffs, pts, omega, E), width, quad)
    flat = pts.reshape(-1, 3)
    nshape = pts.shape[:3]
    where = lambda: _where(omega, E)
    fv = _node_values(f(flat, omega, E), flat, "source", "ray node", where).reshape(nshape)
    gf = _gradient_values(grad_f(flat, omega, E), flat, "grad_f", where).reshape(nshape + (3,))
    gs = _gradient_values(grad_sigma(flat, omega, E), flat, "grad_sigma", where).reshape(nshape + (3,))

    grad = np.empty(3)
    for jax in range(3):
        _, cum_c = _running_integral(gs[..., jax], width, quad)
        h1 = -float(np.sum(atten * cum_c * fv))
        h2 = float(np.sum(atten * gf[..., jax]))
        grad[jax] = h1 + h2
    if not inflow_vanishing:
        dt_dx = escape_time_gradient(domain, x, omega)[0]
        y = x - T[:, None] * omega
        f_y = float(_node_values(f(y, omega, E), y, "source", "point", where)[0])
        grad += math.exp(-float(np.sum(panel_int))) * f_y * dt_dx
    return grad


def derivative_source(f_derivs: Mapping[tuple, Callable], sigma_derivs: Mapping[tuple, Callable],
                      psi_derivs: Mapping[tuple, Callable], alpha: tuple) -> Callable:
    """Right-hand side for the transport equation of the alpha-derivative.

    f_alpha = d^alpha f - sum over beta < alpha of binom(alpha, beta)
              (d^(alpha-beta) Sigma) (d^beta psi).
    """
    alpha = tuple(int(a) for a in alpha)
    if alpha not in f_derivs:
        raise MissingDerivative(f"source derivative table lacks order {alpha}")
    terms = []
    for beta in [b for b in sub_indices(alpha) if b != alpha]:
        gap = tuple(a - b for a, b in zip(alpha, beta))
        if gap not in sigma_derivs:
            raise MissingDerivative(f"attenuation derivative table lacks order {gap}")
        if beta not in psi_derivs:
            raise MissingDerivative(f"solution derivative table lacks order {beta}")
        terms.append((mi_binom(alpha, beta), gap, sigma_derivs[gap], beta, psi_derivs[beta]))
    f_a = f_derivs[alpha]

    def source(xs, omega, E):
        # the source-like values are checked for shape only: the solve's ray sums check them
        where = lambda: _where(omega, E)
        out = _node_values(f_a(xs, omega, E), xs, f"source derivative {alpha}", "point", where,
                           finite=False).copy()
        for coef, gap, sig_d, beta, psi_d in terms:
            out -= coef * _node_values(sig_d(xs, omega, E), xs, f"sigma derivative {gap}", "point", where) \
                 * _node_values(psi_d(xs, omega, E), xs, f"solution derivative {beta}", "point", where,
                                finite=False)
        return out

    return source


@dataclass(frozen=True)
class AccretivityResult:
    lhs: float
    rhs_bound: float
    boundary_term: float


def accretivity_functional(psi: DiscreteField, coeffs: CoefficientSet, m: int,
                           sigma_sup: Optional[float] = None,
                           boundary_subdivisions: int = 3) -> AccretivityResult:
    """Discrete accretivity data for the shifted transport operator.

    lhs approximates <(P + C) psi, psi> in the order-m zero-inflow inner
    product, rhs_bound is (C - C') |psi|^2 with C' from the product-rule
    constant, and boundary_term is half the squared order-m outflow boundary
    norm.  The field must pass the inflow-margin surrogate.
    """
    from .norms import boundary_h_norm, h0_margin, h_inner, h_norm

    if m > 2:
        raise ValueError("accretivity functional supports m <= 2")
    grid = psi.grid
    eta, ok = h0_margin(psi)
    if not ok:
        raise NotInH0(f"inflow margin {eta:.3e} below twice the lattice spacing")

    # (P + C) psi with pure central streaming (commutes with the inner product)
    pv = grid.stream(psi.values)
    pv += (sample_field(coeffs.sigma_t, grid, "sigma").values + coeffs.shift) * psi.values

    lhs = h_inner(DiscreteField(pv, grid), psi, m)
    if sigma_sup is None:
        sigma_sup = sup_norm_estimate(coeffs.sigma_t, m, grid, "sigma")
    c_prime = leibniz_constant(m) * sigma_sup
    nrm = h_norm(psi, m)
    rhs_bound = (coeffs.shift - c_prime) * nrm**2
    boundary_term = 0.5 * boundary_h_norm(psi, grid, m, subdivisions=boundary_subdivisions) ** 2
    return AccretivityResult(lhs, rhs_bound, boundary_term)

"""Exact characteristic-integral solution of the convection-attenuation
problem

    omega . grad psi + (Sigma + C) psi = f,    psi = 0 on the inflow boundary,

via composite Gauss-Legendre quadrature along backward rays, together with
its spatial gradient and the accretivity functional used by the
verification harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CoefficientShapeError, NonFiniteValue, NotInH0
from .fields import (CoefficientSet, DiscreteField, GridSpec, _node_values, _non_finite, _where, leibniz_constant,
                     sample_field, sup_norm_estimate)
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

    A ray of length T has n = ceil(panels_per_unit_length * T) panels (at
    least one) anchored at its start: every panel but the last is
    ``panel_width`` = 1 / panels_per_unit_length wide, and the last holds
    the remainder T - (n - 1) / panels_per_unit_length, in (0,
    panel_width].  Per-panel nodes are Gauss-Legendre, so the rule is exact
    for polynomials of degree <= 2*nodes_per_panel - 1 on each panel.  The
    nodes of the full panels sit at the same distances from the start on
    every ray (``full_nodes``).
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

    @property
    def panel_width(self) -> float:
        return 1.0 / self.panels_per_unit_length

    def n_panels(self, T: np.ndarray) -> np.ndarray:
        """ceil(panels_per_unit_length * T), at least 1, and one fewer where
        rounding put the start (n - 1) * panel_width of the last panel at or
        past T."""
        T = np.asarray(T)
        n = np.maximum(1, np.ceil(self.panels_per_unit_length * T).astype(int))
        return n - ((n > 1) & (T <= (n - 1) * self.panel_width))

    def full_nodes(self, n_full: int) -> np.ndarray:
        """Distances (n_full, nodes_per_panel) from the ray start of the
        nodes of the first n_full panels of a ray that has more."""
        h = self.panel_width
        return np.arange(n_full)[:, None] * h + self.ref_nodes[None, :] * h


def _ray_groups(xs, omega, T, quad):
    """Backward-ray nodes of a point batch, one panel-count group at a time.

    Rays with T <= _T_FLOOR (inflow and tangential points) are skipped, so
    their entries stay zero.  Yields (sel, s, pts, width): sel indexes the
    group's rays in the batch, s (n_rays, n_panels, n_nodes) is the distance
    of each node from its ray start, pts (..., 3) the nodes x - s omega, and
    width (n_rays, n_panels) the panel widths.  The panels are anchored at
    the ray start (``RayQuadrature``): the full panels are
    ``quad.panel_width`` wide and their nodes ``quad.full_nodes``, bit for
    bit the same s on every ray, so a full-panel node of every ray of a
    direction started at a lattice node sits at the same lattice offset
    -s omega / h (the invariant ``RaySystem.sweep_operator`` builds on).
    The last panel holds the remainder of T, in (0, quad.panel_width].
    The nodes are stored coordinate-major, one contiguous (n_rays,
    n_panels, n_nodes) block per coordinate, so ``pts.reshape(-1, 3)`` is a
    Fortran-ordered view whose columns the callables and ``_lattice_rows``
    read contiguously.
    """
    idx_active = np.flatnonzero(T > _T_FLOOR)
    if idx_active.size == 0:
        return
    h = quad.panel_width
    panel_counts = quad.n_panels(T[idx_active])
    for npan in np.unique(panel_counts):
        sel = idx_active[panel_counts == npan]
        width = np.full((sel.size, npan), h)
        width[:, -1] = np.minimum(T[sel] - (npan - 1) * h, h)
        s = np.empty((sel.size, npan, quad.nodes_per_panel))
        s[:, :-1] = quad.full_nodes(npan - 1)
        s[:, -1] = (npan - 1) * h + quad.ref_nodes * width[:, -1:]
        rows = np.empty((3,) + s.shape)
        for ax in range(3):
            np.subtract(xs[sel, ax][:, None, None], s * omega[ax], out=rows[ax])
        yield sel, s, np.moveaxis(rows, 0, -1), width


def _running_integral(g, width, quad):
    """Panel integrals (n_rays, n_panels) of node values g on panels of
    widths ``width`` (n_rays, n_panels), and the running integral from the
    ray start at every node."""
    panel = np.einsum("ipq,q->ip", g, quad.ref_weights) * width
    before = np.cumsum(panel, axis=1) - panel
    partial = np.einsum("rq,ipq->ipr", quad.partial_matrix, g) * width[:, :, None]
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
    return quad.ref_weights[None, None, :] * width[:, :, None] * np.exp(-exponent), panel_int


def _weighted_sums(n_points, groups, values, omega, E):
    """Ray integrals of ``values`` (flat nodes -> values) over the groups,
    checked like a source at (omega, E)."""
    out = np.zeros(n_points)
    for sel, flat, w in groups:
        out[sel] = _source_integrals(w, values(flat), flat, omega, E)
    return out


_OPERATOR_CHUNK = 256  # rays per sweep-operator build step


def _bspline3(t):
    """Cubic B-spline weights (4, ...) of the taps floor(c) - 1 .. floor(c) + 2
    at fractional lattice offsets t = c - floor(c) of any shape."""
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


def _flat_index(strides, idx):
    """The flat indices strides . idx of the integer offsets idx (3, n), as
    multiply-adds: numpy runs an integer ``@`` without BLAS, several times
    slower."""
    return idx[0] * strides[0] + idx[1] * strides[1] + idx[2] * strides[2]


def _in_clamp(c, clamp):
    """Whether each lattice coordinate of the rows c (3, n) is kept by the
    box mask ``clamp``: it lies in the box and its nearest lattice node
    floor(c + 1/2) is set, the rule of ``map_coordinates(order=0,
    mode="constant")`` on the mask."""
    nx, ny, nz = clamp.shape
    inside = (c >= 0.0) & (c <= np.array([[nx - 1], [ny - 1], [nz - 1]]))
    keep = inside[0] & inside[1] & inside[2]
    near = np.floor(c[:, keep] + 0.5).astype(np.intp)
    keep[keep] = clamp.reshape(-1)[_flat_index((ny * nz, nz, 1), near)]
    return keep


def _row_sums(starts, cols, data, coef):
    """Sums of data * coef[cols] over the rows that start at ``starts``
    (int32), as one CSR mat-vec.  scipy takes signed column indices, so the
    columns are widened to int32 for the call and kept narrow at rest; a
    row's sum runs over its entries in order, so it has the same bits
    whichever rows are summed with it."""
    from scipy import sparse

    indptr = np.empty(starts.size + 1, dtype=np.int32)
    indptr[:-1] = starts
    indptr[-1] = data.size
    return sparse.csr_array((data, cols.astype(np.int32), indptr), shape=(starts.size, coef.size)) @ coef


@dataclass(frozen=True)
class SweepOperator:
    """Sparse map from cubic spline coefficients on the lattice box to the
    ray integrals of their spline at every point of a ``RaySystem``.

    Row r (point ``rows[r]``) holds the flat box indices
    ``cols[starts[r]:starts[r+1]]`` and their weights ``data[...]``; points
    not in ``rows`` get zero.  ``apply`` is a CSR mat-vec (``_row_sums``).
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
            out[self.rows] = _row_sums(self.starts, self.cols, self.data, coef.reshape(-1))
        return out


_PAD = 2  # lattice nodes beyond a box face that the taps of a kept node can reach


def _tensor_taps(t, w=1.0):
    """The 64 tensor cubic B-spline weights (64, n), times w, at the
    fractional lattice offsets t (3, n); tap (a, b, c) is row 16 a + 4 b + c,
    at the box offset (a, b, c) - 1 from the base cell floor."""
    wx, wy, wz = np.moveaxis(_bspline3(t), 1, 0)
    return (((w * wx)[:, None, None, :] * wy[None, :, None, :]) * wz[None, None, :, :]).reshape(64, -1)


def _mirror_map(shape) -> np.ndarray:
    """Flat box index of every node of the box padded by ``_PAD`` nodes on
    each side, folded into the box by whole-sample mirroring (i -> -i,
    i -> 2 (n - 1) - i) as ``map_coordinates(mode="constant")`` does inside
    the box; raveled."""
    axes = []
    for n in shape:
        i = np.abs(np.arange(-_PAD, n + _PAD))
        axes.append(np.where(i > n - 1, 2 * (n - 1) - i, i))
    return (axes[0][:, None, None] * (shape[1] * shape[2]) + axes[1][None, :, None] * shape[2]
            + axes[2][None, None, :]).reshape(-1)


def _first_by_rank(keys, ranks):
    """The distinct keys, ordered by the smallest rank each comes with, and
    those ranks."""
    order = np.lexsort((keys, ranks))
    keys, ranks = keys[order], ranks[order]
    first = np.sort(np.unique(keys, return_index=True)[1])
    return keys[first], ranks[first]


class _TapTube:
    """The box offsets, relative to the ray start, that the spline taps of
    the rays of one ``RaySystem`` on the grid's interior nodes can touch
    (the "tube"), the taps of the full-panel nodes that all its rays share,
    and the lattice coordinates of the last-panel nodes of all its rays.

    Full-panel node k sits at the lattice offset d_k = -s_k omega / h from
    its ray start on every ray, so its 64 taps and their offsets form row k
    of one table ``G`` (full-panel nodes x tube).  Last-panel nodes have
    their own offsets: ``last`` holds their lattice coordinates (3, rays x
    nodes_per_panel), one coordinate-major batch over the rays ``rays`` of
    every panel-count group in turn, and ``last_keys`` the keys of their
    base cells; ``n_fulls`` holds the full-panel nodes per ray of each
    group.  The tube is ordered by the first node that touches each
    offset: full-panel node k at rank 2k, the last-panel nodes of the rays
    with n full-panel nodes at rank 2n - 1, so the offsets of the rays of
    one panel-count group are the first ``width(n)`` of the tube.  Offsets
    are keyed in the smallest box that holds every base cell offset widened
    by the taps, from its corner ``lo``.

    Full-panel node k of a ray is kept where the clamp is set at the ray
    start shifted by the integer floor(d_k + 1/2) (``near``, a padded flat
    offset; ``keep``).  This is ``_in_clamp`` on the node's own coordinates
    except where d_k is within their round-off of a half-integer on some
    axis, and for a node just outside the box whose nearest node is a set
    face node: it is kept, and its taps fold into the box from within
    ``_PAD``."""

    def __init__(self, grid: GridSpec, omega: np.ndarray, quad: RayQuadrature, groups: list):
        nq = quad.nodes_per_panel
        start = np.array(np.unravel_index(grid.interior_idx, grid.shape))   # (3, n_points)
        self.n_fulls = n_fulls = [flat.shape[0] // sel.size - nq for sel, flat, _ in groups]
        n_full = max(n_fulls)
        d = (-(quad.full_nodes(n_full // nq).reshape(-1)[:, None] * omega) / grid.h).T
        # an offset below the round-off of a lattice coordinate, such as that
        # of a direction component of 1e-16 that should be 0, is 0
        d[np.abs(d) <= max(grid.shape) * np.finfo(float).eps] = 0.0
        cell = np.floor(d)
        taps = _tensor_taps(d - cell)
        self.rays = np.concatenate([sel for sel, _, _ in groups])
        last = np.concatenate([flat.T.reshape(3, sel.size, -1)[:, :, -nq:] for sel, flat, _ in groups], axis=1)
        self.last = _lattice_rows(grid, last.reshape(3, -1).T)
        last_cells = np.floor(self.last).astype(np.intp) - start[:, np.repeat(self.rays, nq)]
        bases = np.concatenate([cell.astype(np.intp), last_cells], axis=1)
        ranks = np.concatenate([2 * np.arange(n_full)]
                               + [np.full(sel.size * nq, 2 * n - 1) for (sel, _, _), n in zip(groups, n_fulls)])
        self.lo = bases.min(axis=1) - 1
        span = bases.max(axis=1) + 3 - self.lo
        self.key_strides = np.array([span[1] * span[2], span[2], 1])
        self.last_keys = self.keys(last_cells)
        base_keys, base_ranks = _first_by_rank(self.keys(bases), ranks)
        a = np.arange(4) - 1
        self.deltas = self.key_strides @ np.stack(np.meshgrid(a, a, a, indexing="ij")).reshape(3, -1)
        tube, self.rank = _first_by_rank((base_keys[None, :] + self.deltas[:, None]).reshape(-1),
                                         np.tile(base_ranks, 64))
        self.lookup = np.full(int(np.prod(span)), -1, dtype=np.intp)
        self.lookup[tube] = np.arange(tube.size)
        self.G = np.zeros((n_full, tube.size))
        if n_full:
            self.G[np.arange(n_full)[:, None], self.lookup[self.keys(cell.astype(np.intp))[:, None]
                                                          + self.deltas[None, :]]] = taps.T
        # flat index in the padded box of each tube offset, of each ray start
        # and of each full-panel node's nearest lattice node from its ray start
        padded = np.array(grid.shape) + 2 * _PAD
        strides = np.array([padded[1] * padded[2], padded[2], 1])
        offsets = np.array(np.unravel_index(tube, tuple(span))) + self.lo[:, None]
        self.offset = _flat_index(strides, offsets)
        self.padded_start = _flat_index(strides, start + _PAD)
        self.near = _flat_index(strides, np.floor(d + 0.5).astype(np.intp))
        self.mirror = _mirror_map(grid.shape)

    def keys(self, offsets):
        """Keys of the box offsets (3, n)."""
        return _flat_index(self.key_strides, offsets - self.lo[:, None])

    def keep(self, padded: np.ndarray, rays: np.ndarray, n_full: int) -> np.ndarray:
        """The keep flags (n_rays, n_full) of the full-panel nodes of the
        rays ``rays`` with n_full full-panel nodes, read from ``padded`` (the
        clamp padded by ``_PAD`` nodes and raveled) at their shifted nearest
        nodes."""
        return padded[self.padded_start[rays][:, None] + self.near[None, :n_full]]

    def width(self, n_full: int) -> int:
        """Tube offsets of the rays with n_full full-panel nodes."""
        return int(np.searchsorted(self.rank, 2 * n_full))


def _heap_arrays(specs: list) -> list:
    """Empty heap arrays of the (dtype, size) ``specs``."""
    return [np.empty(size, dtype) for dtype, size in specs]


def _cut(a: np.ndarray, n: int) -> np.ndarray:
    """The first n entries of ``a``.  An array that owns its memory is
    shrunk in place (``ndarray.resize``, a realloc to a smaller size), so
    no spare capacity stays allocated; a view, such as one into a memory
    map, is cut as a view: the map's untouched tail never becomes
    resident."""
    if a.flags.owndata:
        a.resize(n, refcheck=False)
        return a
    return a[:n]


def _merged_segments(sizes):
    """Lists of consecutive segments (group, lo, hi) of the groups of
    ``sizes`` rays, each segment of at most ``_OPERATOR_CHUNK`` rays of one
    group (its rays lo:hi), merged into lists of at most ``_OPERATOR_CHUNK``
    rays."""
    merged, n = [], 0
    for i, size in enumerate(sizes):
        for lo in range(0, size, _OPERATOR_CHUNK):
            hi = min(lo + _OPERATOR_CHUNK, size)
            if n + hi - lo > _OPERATOR_CHUNK:
                yield merged
                merged, n = [], 0
            merged.append((i, lo, hi))
            n += hi - lo
    if merged:
        yield merged


@dataclass(frozen=True, eq=False)
class RaySystem:
    """Backward-ray quadrature of one (direction, energy) pair on a batch of
    ``n_points`` points, as ``SweepCache.system`` assembles it: per
    panel-count group, the indices ``sel`` of its rays in the batch, their
    flat nodes and their attenuation-weighted quadrature weights, placed by
    ``_ray_groups`` with the rule ``quad``."""

    omega: np.ndarray
    E: float
    n_points: int
    groups: list
    quad: RayQuadrature

    @property
    def n_nodes(self) -> int:
        return sum(p.shape[0] for _, p, _ in self.groups)

    def integrate_callable(self, f: Callable) -> np.ndarray:
        return _weighted_sums(self.n_points, self.groups, lambda flat: f(flat, self.omega, self.E),
                              self.omega, self.E)

    def integrate_interp(self, interp: Callable) -> np.ndarray:
        return _weighted_sums(self.n_points, self.groups, interp, self.omega, self.E)

    def _tap_tube(self, grid: GridSpec) -> Optional[_TapTube]:
        """The ``_TapTube`` of the system on ``grid`` (None if it has no
        rays), once its points are checked to be the grid's interior nodes."""
        if self.n_points != grid.n_interior:
            raise ValueError("a sweep operator needs a ray system on the grid's interior nodes")
        if not self.groups:
            return None
        nq = self.quad.nodes_per_panel
        first = self.quad.full_nodes(1)[0, 0] * self.omega
        for sel, flat, _ in self.groups:
            if flat.shape[0] > sel.size * nq and not np.array_equal(
                    flat[::flat.shape[0] // sel.size], grid.coords[sel] - first):
                raise ValueError("the ray system's points are not the grid's interior nodes")
        return _TapTube(grid, self.omega, self.quad, self.groups)

    def _entry_bound(self, tube: _TapTube) -> int:
        """A bound on the operator's entries: rays x ``_TapTube.width``
        summed over the panel-count groups, since every tap of a ray with
        n full-panel nodes lies in the first width(n) tube offsets."""
        return sum(sel.size * tube.width(n_full) for (sel, _, _), n_full in zip(self.groups, tube.n_fulls))

    def _operator_chunks(self, grid: GridSpec, clamp: np.ndarray, tube: Optional[_TapTube] = None):
        """(points, entries per point, box indices, weights) of the rows of
        ``sweep_operator``, one chunk of at most ``_OPERATOR_CHUNK`` rays at
        a time.

        A node counts only if the clamp keeps it: a full-panel node where
        the clamp at its ray start shifted by floor(d_k + 1/2) is set
        (``_TapTube.keep``, gathered once per panel-count group), a
        last-panel node by ``_in_clamp`` on its own coordinates (one call
        on the ``_TapTube.last`` batch).  Its weight times the tensor cubic
        B-spline taps goes to the 4 x 4 x 4 box indices from floor(c) - 1,
        folded into the box by ``_mirror_map``.  The rays are cut into
        segments of at most ``_OPERATOR_CHUNK`` rays of one panel-count
        group (``_merged_segments``), and consecutive segments are merged
        into chunks of at most ``_OPERATOR_CHUNK`` rays.  A chunk's rows
        are formed in ``_TapTube`` offsets, in one dense block as wide as
        its widest segment's tube: the full-panel nodes of each segment as
        one product of their kept weights with the shared tap table, the
        last-panel nodes of the chunk by one ``bincount`` of their own taps.
        Each segment's product has exactly the operands of a build that
        takes one segment at a time, and ``bincount`` adds a row's own taps
        in the same order, so every row has that build's bits (one
        zero-padded product per chunk would round some rows differently).
        Exact zeros are dropped, so every box index is one a kept node
        touches, within ``_PAD`` of the box.  A row keeps a box index twice
        where the mirror folds a tap onto an index it already has: the
        apply sums both, and merging them would cost a sort.  The points
        must be the grid's interior nodes, so that every ray starts at a
        lattice node, and no full-panel node may lie as far as ``_PAD`` -
        1/2 spacings outside the box (nodes in the domain lie in it).
        ``tube`` is the system's ``_tap_tube(grid)``, formed here if not
        given."""
        if tube is None:
            tube = self._tap_tube(grid)
            if tube is None:
                return
        nq = self.quad.nodes_per_panel
        mirror = tube.mirror.astype(np.min_scalar_type(int(np.prod(grid.shape)) - 1))
        padded = np.pad(clamp, _PAD).reshape(-1)
        keep_last = _in_clamp(tube.last, clamp)
        w_last = np.concatenate([w[:, -1].reshape(-1) for _, _, w in self.groups])
        widths = [tube.width(n_full) for n_full in tube.n_fulls]
        p0 = 0
        for segments in _merged_segments([sel.size for sel, _, _ in self.groups]):
            p1 = p0 + sum(hi - lo for _, lo, hi in segments)
            rays = tube.rays[p0:p1]
            width = max(widths[i] for i, _, _ in segments)
            block = np.zeros((p1 - p0, width))
            r = 0
            for i, lo, hi in segments:
                sel, _, w = self.groups[i]
                n_full, cols = tube.n_fulls[i], widths[i]
                if lo == 0:   # a group's segments come in order
                    keep = tube.keep(padded, sel, n_full)
                block[r:r + hi - lo, :cols] = (w[lo:hi, :-1].reshape(hi - lo, n_full) * keep[lo:hi]) \
                    @ tube.G[:n_full, :cols]
                r += hi - lo
            # the taps of a dropped last-panel node would add only zeros
            last = np.flatnonzero(keep_last[p0 * nq:p1 * nq])
            ray = last // nq
            last += p0 * nq
            c = tube.last[:, last]
            taps = _tensor_taps(c - np.floor(c), w_last[last])
            idx = tube.lookup[tube.last_keys[last][None, :] + tube.deltas[:, None]] + width * ray[None, :]
            block += np.bincount(idx.reshape(-1), taps.reshape(-1), block.size).reshape(block.shape)
            nz = block != 0.0
            counts = np.count_nonzero(nz, axis=1)
            at = (tube.padded_start[rays][:, None] + tube.offset[None, :width])[nz]
            yield rays[counts > 0], counts[counts > 0], mirror[at], block[nz]
            p0 = p1

    def sweep_operator(self, grid: GridSpec, clamp: np.ndarray, max_bytes: float = math.inf,
                       alloc: Optional[Callable[[list], list]] = None) -> Optional[SweepOperator]:
        """``integrate_interp`` of the cubic spline interpolant of a lattice
        box, clamped to the box mask ``clamp`` by ``_TapTube.keep``, as a
        ``SweepOperator`` on the spline coefficients ``spline_filter(box,
        order=3, mode="constant")``: its chunks in order.  The build stops
        with None at the first chunk that takes the operator's ``nbytes`` (an
        int32 row and start per point) over ``max_bytes``.

        Each chunk is written straight into the operator's arrays, sized to
        a bound: a row per ray of the system and ``_entry_bound`` entries.
        ``alloc`` takes the (dtype, size) of the rows, starts, columns and
        weights and returns arrays of those sizes (``SweepCache`` passes one
        memory map per operator); by default they are heap arrays.  Once
        built, each is cut to the operator by ``_cut``: no entry is copied
        again."""
        tube = self._tap_tube(grid)
        col_type = np.min_scalar_type(int(np.prod(grid.shape)) - 1)
        n_rays, n_entries = (0, 0) if tube is None else (tube.rays.size, self._entry_bound(tube))
        arrays = (alloc or _heap_arrays)([(np.int32, n_rays), (np.int32, n_rays),
                                          (col_type, n_entries), (np.float64, n_entries)])
        rows, starts, cols, data = arrays
        r = e = nbytes = 0
        for chunk_rows, counts, chunk_cols, chunk_data in self._operator_chunks(grid, clamp, tube):
            nbytes += 8 * chunk_rows.size + chunk_cols.nbytes + chunk_data.nbytes
            if nbytes > max_bytes:
                return None
            r1, e1 = r + chunk_rows.size, e + chunk_data.size
            rows[r:r1] = chunk_rows
            starts[r:r1] = np.cumsum(counts) - counts + e
            cols[e:e1] = chunk_cols
            data[e:e1] = chunk_data
            r, e = r1, e1
            del chunk_rows, counts, chunk_cols, chunk_data   # before the next chunk is formed
        return SweepOperator(self.n_points, *(_cut(a, n) for a, n in zip(arrays, (r, r, e, e))))

    def sweep(self, grid: GridSpec, clamp: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """``sweep_operator(grid, clamp).apply(coef)`` bit for bit, each chunk
        applied as it is built: chunks hold disjoint points."""
        out = np.zeros(self.n_points)
        coef = coef.reshape(-1)
        for rows, counts, cols, data in self._operator_chunks(grid, clamp):
            out[rows] = _row_sums((np.cumsum(counts) - counts).astype(np.int32), cols, data, coef)
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

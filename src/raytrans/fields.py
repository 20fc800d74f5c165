"""Coefficient fields, structured grids, field sampling, and sup-norm bounds.

Callable conventions used throughout the package:

- scalar fields        f(x, omega, E) -> (n,)     x: (n, 3), omega: (3,), E: float
- scattering kernels   s(x, omega_in, omega_out, E) -> (n,)
- stopping power       a(x, E) -> (n,)

All callables must be pure and vectorized over the position batch; grids and
sampled fields are immutable after construction.  Every result the package
evaluates is checked where it is evaluated, by ``_node_values`` and
``_non_finite``: a result not of shape (n,) (a kernel may also return one
scalar) raises ``CoefficientShapeError``, a non-finite value
``NonFiniteValue`` naming the first bad node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

import numpy as np

from .errors import CoefficientShapeError, GridTooCoarse, NonFiniteValue, OrderTooHigh
from .geometry import ConvexDomain, escape_times

_MAX_ORDER = 4


# -- multi-index helpers ----------------------------------------------------


def multi_indices(m: int) -> list[tuple[int, ...]]:
    """All spatial multi-indices alpha with |alpha| <= m, graded lexicographic."""
    out = [a for a in product(range(m + 1), repeat=3) if sum(a) <= m]
    out.sort(key=lambda a: (sum(a), a))
    return out


def sub_indices(alpha) -> list[tuple[int, ...]]:
    """All beta <= alpha componentwise."""
    ranges = [range(a + 1) for a in alpha]
    return [b for b in product(*ranges)]


def mi_binom(alpha, beta) -> int:
    return int(np.prod([math.comb(a, b) for a, b in zip(alpha, beta)]))


def leibniz_constant(m: int) -> float:
    """Constructive product-rule constant c(m) for the multiplication bound
    |Sigma psi|_(m) <= c(m) |Sigma|_(W-inf,m) |psi|_(m).

    Computed as the worst l2-aggregated binomial weight over spatial
    multi-indices of order <= m.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    best = 0.0
    for alpha in multi_indices(m):
        s = sum(mi_binom(alpha, beta) ** 2 for beta in sub_indices(alpha))
        best = max(best, math.sqrt(s))
    return best


# -- domain types -----------------------------------------------------------


@dataclass(frozen=True)
class EnergyInterval:
    E0: float
    Em: float

    def __post_init__(self):
        if not (0.0 <= self.E0 < self.Em < math.inf):
            raise ValueError("require 0 <= E0 < Em < inf")

    @property
    def length(self) -> float:
        return self.Em - self.E0


@dataclass(frozen=True)
class CoefficientSet:
    """Attenuation, optional scattering kernel and stopping power, and the
    solver shift constant."""

    sigma_t: Callable
    scatter: Optional[Callable] = None
    stopping: Optional[Callable] = None
    kappa: float = 0.0
    shift: float = 0.0


class GridSpec:
    """Structured discretization of domain x sphere x energy interval.

    Spatial nodes form a uniform lattice over the domain bounding box with
    an interior mask; quadrature weights near the boundary carry a
    partial-volume correction from the signed level function.  The sphere
    rule is a Gauss-Legendre (polar cosine) x uniform trapezoid (azimuth)
    product; energy nodes are uniform with trapezoid weights.
    """

    def __init__(self, domain: ConvexDomain, n_spatial: int, n_polar: int,
                 n_azimuth: int, interval: EnergyInterval, n_energy: int):
        if n_spatial < 3:
            raise GridTooCoarse("need at least 3 lattice nodes per axis")
        if min(n_polar, n_azimuth, n_energy) < 1:
            raise GridTooCoarse(f"need at least 1 polar, azimuthal and energy node, got "
                                f"{n_polar}, {n_azimuth} and {n_energy}")
        self.domain = domain
        self.interval = interval
        box = domain.bounding_box()
        self.origin = box[0].copy()
        axes = [np.linspace(box[0, k], box[1, k], n_spatial) for k in range(3)]
        self.h = np.array([ax[1] - ax[0] for ax in axes])
        self.shape = (n_spatial, n_spatial, n_spatial)
        X, Y, Z = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
        lv = domain.level(nodes)
        self.mask = (lv < 0.0).reshape(self.shape)
        self.interior_idx = np.flatnonzero(self.mask.ravel())
        if self.interior_idx.size == 0:
            raise GridTooCoarse("no lattice node falls inside the domain")
        self.coords = nodes[self.interior_idx]
        grad = domain.level_gradient(self.coords)
        signed = lv[self.interior_idx] / np.maximum(np.linalg.norm(grad, axis=1), 1e-300)
        self.boundary_dist = -signed
        hbar = float(np.mean(self.h))
        # Partial-volume weights: nodes deeper than one cell carry full cells;
        # the boundary-adjacent node carries its cut cell plus the inside
        # share of the just-outside neighbor (values up to 1.5).
        frac = np.where(signed <= -hbar, 1.0, 0.5 - signed / hbar)
        self.vol_weights = float(np.prod(self.h)) * frac

        mu, wmu = np.polynomial.legendre.leggauss(n_polar)
        phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
        wphi = 2.0 * np.pi / n_azimuth
        st = np.sqrt(1.0 - mu**2)
        omegas = np.empty((n_polar * n_azimuth, 3))
        weights = np.empty(n_polar * n_azimuth)
        for k in range(n_polar):
            sl = slice(k * n_azimuth, (k + 1) * n_azimuth)
            omegas[sl, 0] = st[k] * np.cos(phi)
            omegas[sl, 1] = st[k] * np.sin(phi)
            omegas[sl, 2] = mu[k]
            weights[sl] = wmu[k] * wphi
        self.sphere_nodes = omegas
        self.sphere_weights = weights
        self.n_polar, self.n_azimuth = n_polar, n_azimuth

        self.energy_nodes = np.linspace(interval.E0, interval.Em, n_energy)
        if n_energy == 1:
            self.energy_weights = np.array([interval.length])
        else:
            dE = self.energy_nodes[1] - self.energy_nodes[0]
            w = np.full(n_energy, dE)
            w[0] = w[-1] = 0.5 * dE
            self.energy_weights = w

        self._escape = None
        self._fill_idx = None
        self._stencils = [None, None, None]
        for arr in (self.coords, self.vol_weights, self.boundary_dist,
                    self.sphere_nodes, self.sphere_weights,
                    self.energy_nodes, self.energy_weights):
            arr.setflags(write=False)

    # -- sizes -------------------------------------------------------------

    @property
    def n_interior(self) -> int:
        return self.interior_idx.size

    @property
    def n_omega(self) -> int:
        return self.sphere_nodes.shape[0]

    @property
    def n_energy(self) -> int:
        return self.energy_nodes.size

    @property
    def phase_shape(self) -> tuple[int, int, int]:
        return (self.n_interior, self.n_omega, self.n_energy)

    def escape_cache(self) -> np.ndarray:
        """Exit times at every (interior node, sphere node) pair.

        Computed on first use; recomputation races are benign because the
        result is deterministic.
        """
        if self._escape is None:
            out = np.empty((self.n_interior, self.n_omega))
            for j in range(self.n_omega):
                out[:, j] = escape_times(self.domain, self.coords, self.sphere_nodes[j])
            out.setflags(write=False)
            self._escape = out
        return self._escape

    # -- embedding and finite differences -----------------------------------

    def embed(self, values: np.ndarray) -> np.ndarray:
        """Scatter interior-node values into the full box (zeros outside)."""
        values = np.asarray(values)
        out = np.zeros(self.shape + values.shape[1:], dtype=values.dtype)
        out.reshape(-1, *values.shape[1:])[self.interior_idx] = values
        return out

    def extract(self, box: np.ndarray) -> np.ndarray:
        return box.reshape(-1, *box.shape[3:])[self.interior_idx]

    def fill_from_interior(self, box: np.ndarray) -> np.ndarray:
        """Replace exterior box values with the nearest interior value.

        Removes the zero-extension jump at the mask edge before boundary
        extrapolation; the nearest-neighbor index map is cached per grid.
        """
        if self._fill_idx is None:
            from scipy import ndimage

            idx = ndimage.distance_transform_edt(~self.mask, return_distances=False,
                                                 return_indices=True)
            self._fill_idx = tuple(idx)
        return box[self._fill_idx]

    def diff_central(self, box: np.ndarray, axis: int) -> np.ndarray:
        """Pure central difference on the embedded box, zero beyond the faces.

        Together with zero embedding this operator is antisymmetric under the
        lattice inner product, which the accretivity checks rely on.
        """
        up = np.roll(box, -1, axis=axis)
        dn = np.roll(box, 1, axis=axis)
        sl_lo = [slice(None)] * box.ndim
        sl_hi = [slice(None)] * box.ndim
        sl_lo[axis] = slice(0, 1)
        sl_hi[axis] = slice(box.shape[axis] - 1, box.shape[axis])
        up[tuple(sl_hi)] = 0.0
        dn[tuple(sl_lo)] = 0.0
        out = (up - dn) / (2.0 * self.h[axis])
        return out

    def _stencil_table(self, axis: int) -> tuple[np.ndarray, ...]:
        """Flat box indices of the mask nodes that take each ``diff_masked``
        stencil along ``axis``, in priority order: central, 2nd-order
        forward, 2nd-order backward, 1st-order forward, 1st-order backward.
        A neighbor beyond a box face counts as outside the mask.  Built on
        first use and cached per axis."""
        if self._stencils[axis] is None:
            m, n = self.mask, self.shape[axis]

            def neighbor(k):
                s = np.zeros_like(m)
                dst = [slice(None)] * 3
                src = [slice(None)] * 3
                dst[axis] = slice(max(0, -k), n - max(0, k))
                src[axis] = slice(max(0, k), n + min(0, k))
                s[tuple(dst)] = m[tuple(src)]
                return s

            p1, m1, p2, m2 = neighbor(1), neighbor(-1), neighbor(2), neighbor(-2)
            taken = ~m
            table = []
            for use in (p1 & m1, p1 & p2, m1 & m2, p1, m1):
                use = use & ~taken
                taken |= use
                table.append(np.flatnonzero(use))
            self._stencils[axis] = tuple(table)
        return self._stencils[axis]

    def diff_masked(self, box: np.ndarray, axis: int) -> np.ndarray:
        """Mask-aware first derivative: central in the bulk, second-order
        one-sided where a neighbor leaves the interior mask, first-order
        one-sided where only one neighbor is left, zero off the mask.  Each
        formula is evaluated only on the nodes of ``_stencil_table``."""
        f = box.reshape(-1, *box.shape[3:])
        s = int(np.prod(self.shape[axis + 1:]))
        h = self.h[axis]
        central, fwd2, bwd2, fwd1, bwd1 = self._stencil_table(axis)
        out = np.zeros(f.shape)
        out[central] = (f[central + s] - f[central - s]) / (2 * h)
        out[fwd2] = (-3 * f[fwd2] + 4 * f[fwd2 + s] - f[fwd2 + 2 * s]) / (2 * h)
        out[bwd2] = (3 * f[bwd2] - 4 * f[bwd2 - s] + f[bwd2 - 2 * s]) / (2 * h)
        out[fwd1] = (f[fwd1 + s] - f[fwd1]) / h
        out[bwd1] = (f[bwd1] - f[bwd1 - s]) / h
        return out.reshape(box.shape)

    def stream(self, values: np.ndarray, masked: bool = False) -> np.ndarray:
        """omega . grad of phase-space values (n_interior, n_omega, n_energy),
        with ``diff_masked`` stencils if ``masked``, else ``diff_central``.
        One (direction, energy) slab at a time, so the temporaries stay one
        box in size."""
        op = self.diff_masked if masked else self.diff_central
        out = np.empty_like(values)
        for k in range(values.shape[2]):
            for j in range(values.shape[1]):
                box = self.embed(values[:, j, k])
                acc = np.zeros_like(box)
                for axis in range(3):
                    acc += op(box, axis) * self.sphere_nodes[j, axis]
                out[:, j, k] = self.extract(acc)
        return out

    def derivative_multi(self, box: np.ndarray, alpha, masked: bool = True) -> np.ndarray:
        """Apply the composed spatial derivative of multi-index alpha."""
        op = self.diff_masked if masked else self.diff_central
        out = box
        for axis, count in enumerate(alpha):
            for _ in range(count):
                out = op(out, axis)
        return out

    def eroded_mask(self, iterations: int) -> np.ndarray:
        """Interior mask shrunk so that iterated central stencils stay inside."""
        if iterations <= 0:
            return self.mask
        from scipy import ndimage

        structure = ndimage.generate_binary_structure(3, 1)
        return ndimage.binary_erosion(self.mask, structure, iterations=iterations)


@dataclass(frozen=True)
class DiscreteField:
    """Field values sampled at (interior node, sphere node, energy node)."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.phase_shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.phase_shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteValue("field contains non-finite values")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "DiscreteField":
        return DiscreteField(values, self.grid)

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


def _where(omega, E) -> str:
    return f"direction {np.array2string(np.asarray(omega), precision=6)}, energy {float(E):.6g}"


def _node_values(vals, xs: np.ndarray, what: str, nodes: str, where: Callable[[], str],
                 finite: bool = True, scalar: bool = False) -> np.ndarray:
    """A callable's result ``vals`` at the positions xs (n, 3) (``nodes``
    names their kind: "ray node", "grid node" or "point") as floats.  One not
    of shape (n,), or () if ``scalar``, raises ``CoefficientShapeError``; if
    ``finite``, a non-finite value raises ``_non_finite``.  The context text
    ``where()`` is formed only when a check fails."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (len(xs),) and not (scalar and vals.shape == ()):
        raise CoefficientShapeError(f"{what} returned shape {vals.shape} for {len(xs)} {nodes}s ({where()})")
    if finite and not np.isfinite(vals).all():
        raise _non_finite(vals, xs, what, nodes, where)
    return vals


def _non_finite(vals, xs: np.ndarray, what: str, nodes: str, where: Callable[[], str]) -> NonFiniteValue:
    """The error for values ``vals`` (one, or n along the leading axis) at
    the positions xs that are not all finite: it names the first position
    with a non-finite value, and that value."""
    vals = np.broadcast_to(vals, (len(xs),) + np.shape(vals)[1:]).reshape(len(xs), -1)
    bad = int(np.argmin(np.isfinite(vals).all(axis=1)))
    return NonFiniteValue(f"{what} is {vals[bad, np.argmin(np.isfinite(vals[bad]))]} at {nodes} "
                          f"{np.array2string(xs[bad], precision=6)} ({where()})")


def _kernel_values(scatter: Callable, xs: np.ndarray, wi: np.ndarray, wo: np.ndarray, E: float,
                   k: Optional[int] = None) -> np.ndarray:
    """The kernel at the positions xs (n, 3) for in-direction wi,
    out-direction wo and energy E (energy node k of a grid, if given): one
    value for every position or (n,) values, checked by ``_node_values``.
    The collision operator and its norm bound call kernels only through
    here."""
    def where():
        return (f"energy node {k}, " if k is not None else "") \
            + f"in-direction {np.array2string(np.asarray(wi), precision=6)}, out-{_where(wo, E)}"
    return _node_values(scatter(xs, wi, wo, E), xs, "kernel", "point" if k is None else "grid node", where,
                        scalar=True)


def sample_field(field: Callable, grid: GridSpec, what: str = "field") -> DiscreteField:
    """Evaluate a callable field at every grid node, checked by ``_node_values``
    (``what`` names the field in its messages)."""
    out = np.empty(grid.phase_shape)
    for j, omega in enumerate(grid.sphere_nodes):
        for k, E in enumerate(grid.energy_nodes.tolist()):
            out[:, j, k] = _node_values(field(grid.coords, omega, E), grid.coords, what, "grid node",
                                        lambda: _where(omega, E))
    return DiscreteField(out, grid)


def sup_norm_estimate(field: Callable, m: int, grid: GridSpec, what: str = "field") -> float:
    """Estimate of the spatial W-infinity norm of order m.

    Max over |alpha| <= m of the grid sup of central finite differences,
    restricted to interior nodes more than m*h from the boundary, over every
    direction and energy node (one field call per pair).  A non-finite value
    raises ``_non_finite``, naming the field as ``what``.  The values need
    only the leading axis n that ``GridSpec.embed`` takes: the shape is the
    contract of the caller's own evaluation points, so a solve names a sigma
    of wrong shape at its ray nodes.
    """
    if m > _MAX_ORDER:
        raise OrderTooHigh(f"order {m} exceeds supported stencil width {_MAX_ORDER}")
    hbar = float(np.mean(grid.h))
    safe = grid.eroded_mask(m)
    if m > 0:
        far = np.zeros(grid.shape, dtype=bool)
        far.reshape(-1)[grid.interior_idx] = grid.boundary_dist > m * hbar
        safe = safe & far
    if not np.any(safe):
        raise GridTooCoarse("no interior node is far enough from the boundary")
    best = 0.0
    for omega in grid.sphere_nodes:
        for E in grid.energy_nodes.tolist():
            vals = np.asarray(field(grid.coords, omega, E), dtype=float)
            if not np.isfinite(vals).all():
                raise _non_finite(vals, grid.coords, what, "grid node", lambda: _where(omega, E))
            box = grid.embed(vals)
            for alpha in multi_indices(m):
                d = grid.derivative_multi(box, alpha, masked=False)
                best = max(best, float(np.max(np.abs(d[safe]))))
    return best

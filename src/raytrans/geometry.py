"""Ellipsoidal domains, exit-time maps and boundary triangulation.

A domain is an axis-aligned ellipsoid with the level function
r(x) = |(x - center) / semi_axes|^2 - 1: interior {r < 0}, boundary
{r = 0}.  Positions are batches of shape (n, 3); a direction is one (3,)
vector shared by the batch or an (n, 3) array.  Every operation is a pure
function of immutable domain data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyInput,
    GradientUnavailable,
    GradientUndefinedOnBoundary,
    NotOnBoundary,
    OutsideDomain,
)

# Numerical bands.  The tangential set has measure zero in the continuum;
# telling inflow from outflow needs a tolerance band around omega.nu = 0.
BOUNDARY_TOL = 1e-9
TANGENT_TOL = 1e-10
_ROOT_TOL = 1e-12


class BoundarySide(enum.Enum):
    INFLOW = "inflow"
    OUTFLOW = "outflow"


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, omega, E) in position x direction x energy space."""

    x: np.ndarray
    omega: np.ndarray
    E: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).reshape(3)
        omega = np.asarray(self.omega, dtype=float).reshape(3)
        if abs(np.linalg.norm(omega) - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector to 1e-12")
        x.setflags(write=False)
        omega.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "omega", omega)


@dataclass(frozen=True)
class ConvexDomain:
    """The axis-aligned ellipsoid {|(x - center) / semi_axes| < 1}; a ball
    is the ellipsoid with equal semi-axes.  Construction takes any three
    numbers for each field and rejects non-finite or non-positive ones."""

    center: np.ndarray
    semi_axes: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(3)
        a = np.asarray(self.semi_axes, dtype=float).reshape(3)
        if not (np.isfinite(c).all() and np.isfinite(a).all()):
            raise ValueError("center and semi-axes must be finite")
        if np.any(a <= 0.0):
            raise ValueError("semi-axes must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "semi_axes", a)

    @staticmethod
    def unit_ball() -> "ConvexDomain":
        return ConvexDomain.ball(np.zeros(3), 1.0)

    @staticmethod
    def ball(center, radius) -> "ConvexDomain":
        """The ellipsoid with equal semi-axes ``radius``."""
        r = float(radius)
        return ConvexDomain(center, (r, r, r))

    @staticmethod
    def ellipsoid(center, semi_axes) -> "ConvexDomain":
        return ConvexDomain(center, semi_axes)

    @property
    def diameter(self) -> float:
        """diam(G); bounds every exit time."""
        return 2.0 * float(np.max(self.semi_axes))

    def level(self, x: np.ndarray) -> np.ndarray:
        """Level function, (n, 3) -> (n,); the interior is {level < 0}."""
        return np.sum(((x - self.center) / self.semi_axes) ** 2, axis=-1) - 1.0

    def level_gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient of the level function, (n, 3) -> (n, 3)."""
        return 2.0 * (x - self.center) / self.semi_axes**2

    # -- basic queries -----------------------------------------------------

    def bounding_box(self) -> np.ndarray:
        """Axis-aligned box [lo, hi] of shape (2, 3) containing the closure."""
        return np.stack([self.center - self.semi_axes, self.center + self.semi_axes])

    def boundary_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sample n points on the boundary surface (area-biased for ellipsoids)."""
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return self.center + v * self.semi_axes

    def project_to_boundary(self, p: np.ndarray) -> np.ndarray:
        """Radially project points onto {level = 0} (exact for the quadric level)."""
        q = self.level(p) + 1.0
        return self.center + (p - self.center) / np.sqrt(q)[:, None]


def _rays(xs, omegas) -> tuple[np.ndarray, np.ndarray]:
    """Positions as a float batch of shape (n, 3) and directions broadcast to it."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != 3:
        raise ValueError(f"positions must have shape (n, 3), got {xs.shape}")
    return xs, np.broadcast_to(np.asarray(omegas, dtype=float), xs.shape)


def outward_normal(domain: ConvexDomain, ys: np.ndarray) -> np.ndarray:
    """Unit outward normals grad r / |grad r| at boundary points ys, (n, 3)."""
    lv = domain.level(ys)
    if np.any(np.abs(lv) > BOUNDARY_TOL):
        raise NotOnBoundary(f"|level| = {np.max(np.abs(lv)):.3e} exceeds {BOUNDARY_TOL}")
    g = domain.level_gradient(ys)
    return g / np.linalg.norm(g, axis=-1)[:, None]


def _escape_root(domain: ConvexDomain, xs: np.ndarray, omegas: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Safeguarded Newton with bisection fallback for level(x - s*omega) = 0.

    Requires level(x - lo*omega) <= 0 <= level(x - hi*omega) componentwise.
    """
    lo = lo.copy()
    hi = hi.copy()
    s = 0.5 * (lo + hi)
    for _ in range(120):
        p = xs - s[:, None] * omegas
        g = domain.level(p)
        gp = -np.einsum("ij,ij->i", omegas, domain.level_gradient(p))
        neg = g < 0.0
        lo = np.where(neg, s, lo)
        hi = np.where(neg, hi, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            s_newton = s - g / gp
        ok = np.isfinite(s_newton) & (s_newton > lo) & (s_newton < hi)
        s = np.where(ok, s_newton, 0.5 * (lo + hi))
        if np.all(hi - lo < _ROOT_TOL):
            break
    return 0.5 * (lo + hi)


def _quadric_escape(domain: ConvexDomain, xs: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Closed-form exit time for quadric level sets (balls and ellipsoids).

    In scaled coordinates the level is |u|^2 - 1 and the backward crossing
    solves a quadratic; the positive-part form reproduces the boundary
    extension (zero on inflow/tangential pairs) exactly.  The scaled
    positions are made C-contiguous, so the row sums, and with them the
    bits, do not depend on the memory order of xs.
    """
    scale = domain.semi_axes
    u = np.ascontiguousarray((xs - domain.center) / scale)
    v = omegas / scale
    uv = np.einsum("ij,ij->i", u, v)
    vv = np.einsum("ij,ij->i", v, v)
    disc = uv * uv + vv * (1.0 - np.einsum("ij,ij->i", u, u))
    t = (uv + np.sqrt(np.maximum(disc, 0.0))) / vv
    return np.maximum(t, 0.0)


def escape_times(domain: ConvexDomain, xs, omegas) -> np.ndarray:
    """Extended exit time for batches of phase points.

    xs: (n, 3) positions in the closed domain; omegas: (3,) shared direction
    or (n, 3).  Returns (n,) times: backward distance to the boundary along
    -omega, zero on the inflow/tangential boundary set.  This is the
    quadric closed form; ``escape_times_rootfind`` serves as the
    independent cross-check.
    """
    xs, omegas = _rays(xs, omegas)
    lv = domain.level(xs)
    if np.any(lv > BOUNDARY_TOL):
        raise OutsideDomain(f"level = {np.max(lv):.3e} exceeds boundary tolerance")
    return _quadric_escape(domain, xs, omegas)


def escape_times_rootfind(domain: ConvexDomain, xs, omegas) -> np.ndarray:
    """Exit times by safeguarded Newton on the level function, bracketed on
    [0, diameter]; the independent cross-check of ``escape_times``."""
    xs, omegas = _rays(xs, omegas)
    n = xs.shape[0]
    lv = domain.level(xs)
    if np.any(lv > BOUNDARY_TOL):
        raise OutsideDomain(f"level = {np.max(lv):.3e} exceeds boundary tolerance")

    times = np.zeros(n)
    on_boundary = np.abs(lv) <= BOUNDARY_TOL
    interior = ~on_boundary

    # Boundary starts: inflow/tangential have time zero by the extension;
    # outflow points trace the chord back across the domain.
    outflow = np.zeros(n, dtype=bool)
    if np.any(on_boundary):
        dots = np.einsum("ij,ij->i", omegas[on_boundary], outward_normal(domain, xs[on_boundary]))
        outflow[np.flatnonzero(on_boundary)[dots > TANGENT_TOL]] = True

    d = domain.diameter
    hi0 = d * (1.0 + 1e-9)
    solve = interior | outflow
    if np.any(solve):
        idx = np.flatnonzero(solve)
        x_s, o_s = xs[idx], omegas[idx]
        lo = np.zeros(idx.size)
        # Outflow boundary starts have level(x) = 0; step inside before
        # bracketing.  Rays re-exiting within the step are tangential in all
        # but name and get time zero.
        ob = outflow[idx]
        lo[ob] = 1e-9 * d
        keep = ~(ob & (domain.level(x_s - lo[:, None] * o_s) >= 0.0))
        if np.any(keep):
            roots = _escape_root(domain, x_s[keep], o_s[keep], lo[keep], np.full(keep.sum(), hi0))
            times[idx[keep]] = roots
    return times


def ball_escape_closed_form(xs, omegas, with_gradient: bool = True):
    """Closed-form exit times (and spatial gradients) on the unit ball.

    time = x.omega + sqrt((x.omega)^2 + 1 - |x|^2)
    grad = omega + ((x.omega) omega - x) / sqrt(...)

    The gradient is only defined for interior points; a square-root argument
    below 1e-14 raises ``GradientUndefinedOnBoundary``.
    """
    pts, om = _rays(xs, omegas)
    r2 = np.sum(pts * pts, axis=-1)
    if np.any(r2 > 1.0 + 10 * BOUNDARY_TOL):
        raise OutsideDomain("closed form requires |x| <= 1")
    xw = np.einsum("ij,ij->i", pts, om)
    disc = xw * xw + 1.0 - r2
    disc = np.maximum(disc, 0.0)
    root = np.sqrt(disc)
    time = xw + root
    if not with_gradient:
        return time, None
    if np.any(disc < 1e-14):
        raise GradientUndefinedOnBoundary("exit-time gradient singular: sqrt argument < 1e-14")
    return time, om + (xw[:, None] * om - pts) / root[:, None]


def escape_time_gradient(domain: ConvexDomain, xs, omegas) -> np.ndarray:
    """Spatial gradients of the exit time by implicit differentiation, (n, 3).

    With y = x - t*omega on the boundary, grad_x t = grad r(y) / (omega.grad r(y)).
    Near-tangential exit rays (|omega.grad r(y)| < 1e-8) are rejected: the
    gradient does not extend continuously there.
    """
    pts, om = _rays(xs, omegas)
    t = escape_times(domain, pts, om)
    y = pts - t[:, None] * om
    g = domain.level_gradient(y)
    denom = np.einsum("ij,ij->i", om, g)
    if np.any(np.abs(denom) < 1e-8):
        raise GradientUnavailable("exit ray is near-tangential at the boundary")
    return g / denom[:, None]


def support_margin(domain: ConvexDomain, points: Sequence[PhasePoint]) -> float:
    """Smallest extended exit time over a collection of phase points.

    This is the largest eta such that every point lies in the sublevel-set
    complement {exit time >= eta}; zero as soon as an inflow/tangential
    boundary point is included.
    """
    pts = list(points)
    if not pts:
        raise EmptyInput("support_margin needs at least one phase point")
    xs = np.stack([p.x for p in pts])
    oms = np.stack([p.omega for p in pts])
    return float(np.min(escape_times(domain, xs, oms)))


# -- boundary surface triangulation ---------------------------------------


@dataclass(frozen=True)
class SurfaceMesh:
    """Triangulated boundary with centroid quadrature data."""

    points: np.ndarray   # (n_tri, 3) centroids projected to the surface
    areas: np.ndarray    # (n_tri,) flat triangle areas
    normals: np.ndarray  # (n_tri, 3) unit outward normals at the centroids


_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    [-1, _ICO_T, 0], [1, _ICO_T, 0], [-1, -_ICO_T, 0], [1, -_ICO_T, 0],
    [0, -1, _ICO_T], [0, 1, _ICO_T], [0, -1, -_ICO_T], [0, 1, -_ICO_T],
    [_ICO_T, 0, -1], [_ICO_T, 0, 1], [-_ICO_T, 0, -1], [-_ICO_T, 0, 1],
], dtype=float)
_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
])


def _unit_sphere_mesh(subdivisions: int):
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = _ICO_FACES
    for _ in range(subdivisions):
        edge_mid = {}
        verts_list = list(verts)

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in edge_mid:
                m = verts_list[i] + verts_list[j]
                m /= np.linalg.norm(m)
                verts_list.append(m)
                edge_mid[key] = len(verts_list) - 1
            return edge_mid[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
        verts = np.array(verts_list)
        faces = np.array(new_faces)
    return verts, faces


def triangulate_boundary(domain: ConvexDomain, subdivisions: int = 4) -> SurfaceMesh:
    """Triangle-centroid quadrature mesh on the boundary surface."""
    verts, faces = _unit_sphere_mesh(subdivisions)
    tri = (domain.center + verts * domain.semi_axes)[faces]
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    centroids = domain.project_to_boundary(tri.mean(axis=1))
    normals = outward_normal(domain, centroids)
    return SurfaceMesh(centroids, areas, normals)

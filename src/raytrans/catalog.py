"""Built-in coefficient catalog for scenario configuration.

Each builder turns a {"name": ..., parameters...} block into a vectorized
callable following the package conventions.  Arbitrary expressions are out of
scope; the catalog covers constants, affine profiles, radial bumps, and the
kernel/stopping/boundary shapes the scenario kinds need.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConfigError

_FOUR_PI = 4.0 * math.pi


def smooth_bump(r: np.ndarray, radius: float) -> np.ndarray:
    """Unit-height bump, identically zero for r >= radius, infinitely flat
    at the support edge."""
    u = np.asarray(r, dtype=float) / radius
    out = np.zeros_like(u)
    inside = u < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


def _distance(x, c: np.ndarray) -> np.ndarray:
    """|x - c| at the points x (n, 3), summed one coordinate at a time as
    (d0^2 + d1^2) + d2^2: the bits of ``np.linalg.norm(x - c, axis=1)`` in
    either memory order of x, without a reduction over the length-3 axis."""
    x = np.atleast_2d(x)
    d = [x[:, ax] - c[ax] for ax in range(3)]
    return np.sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2])


def _require(block: dict, key: str, kind: str):
    if key not in block:
        raise ConfigError(f"{kind} block is missing '{key}'")
    return block[key]


def _center(block: dict) -> np.ndarray:
    return np.asarray(block.get("center", (0.0, 0.0, 0.0)), dtype=float).reshape(3)


def build_sigma(block: dict) -> Callable:
    """Attenuation coefficient by catalog name."""
    name = _require(block, "name", "sigma")
    if name == "constant":
        v = float(_require(block, "value", "sigma"))
        return lambda x, w, E: np.full(len(np.atleast_2d(x)), v)
    if name == "affine":
        a0 = float(block.get("a0", 0.0))
        grad = np.asarray(block.get("gradient", (0.0, 0.0, 0.0)), dtype=float).reshape(3)
        return lambda x, w, E: a0 + np.atleast_2d(x) @ grad
    if name == "radial_bump":
        amp = float(_require(block, "amplitude", "sigma"))
        radius = float(_require(block, "radius", "sigma"))
        c = _center(block)
        return lambda x, w, E: amp * smooth_bump(_distance(x, c), radius)
    raise ConfigError(f"unknown sigma catalog name '{name}'")


def build_source(block: dict) -> Callable:
    """Internal source by catalog name."""
    name = _require(block, "name", "source")
    if name == "constant":
        v = float(_require(block, "value", "source"))
        return lambda x, w, E: np.full(len(np.atleast_2d(x)), v)
    if name == "radial_bump":
        amp = float(_require(block, "amplitude", "source"))
        radius = float(_require(block, "radius", "source"))
        c = _center(block)
        return lambda x, w, E: amp * smooth_bump(_distance(x, c), radius)
    if name == "bump_cos_energy":
        amp = float(_require(block, "amplitude", "source"))
        radius = float(_require(block, "radius", "source"))
        freq = float(block.get("freq", 1.0))
        c = _center(block)
        return lambda x, w, E: amp * smooth_bump(_distance(x, c), radius) \
            * (1.0 + 0.8 * np.cos(freq * np.asarray(E)))
    raise ConfigError(f"unknown source catalog name '{name}'")


def build_scatter(block: dict) -> Callable:
    """Scattering kernel by catalog name (nonnegative by construction)."""
    name = _require(block, "name", "scatter")
    if name == "isotropic":
        s = float(_require(block, "sigma_s", "scatter"))
        return lambda x, wi, wo, E: np.full(len(np.atleast_2d(x)), s / _FOUR_PI)
    if name == "isotropic_bump":
        s = float(_require(block, "sigma_s", "scatter"))
        radius = float(_require(block, "radius", "scatter"))
        c = _center(block)
        return lambda x, wi, wo, E: (s / _FOUR_PI) * smooth_bump(_distance(x, c), radius)
    if name == "linear_anisotropic_bump":
        s = float(_require(block, "sigma_s", "scatter"))
        b = float(block.get("b", 0.0))
        if abs(b) > 1.0:
            raise ConfigError("scatter anisotropy 'b' must lie in [-1, 1] for a nonnegative kernel")
        radius = float(_require(block, "radius", "scatter"))
        c = _center(block)
        return lambda x, wi, wo, E: (s / _FOUR_PI) * (1.0 + b * float(wi @ wo)) \
            * smooth_bump(_distance(x, c), radius)
    raise ConfigError(f"unknown scatter catalog name '{name}'")


def build_stopping(block: dict) -> tuple[Callable, float]:
    """Stopping power and its lower bound kappa for -a."""
    name = _require(block, "name", "stopping")
    if name == "constant":
        v = float(_require(block, "value", "stopping"))
        if not -math.inf < v < 0.0:
            raise ConfigError(f"'value' in stopping block must be negative and finite, got {v!r}")
        return (lambda x, E: np.full(len(np.atleast_2d(x)), v)), -v
    raise ConfigError(f"unknown stopping catalog name '{name}'")


def build_boundary(block: dict, Em: float) -> Callable:
    """Inflow boundary data by catalog name."""
    name = _require(block, "name", "boundary")
    if name == "constant":
        v = float(_require(block, "value", "boundary"))
        return lambda y, w, E: np.full(len(np.atleast_2d(y)), v)
    if name == "axis_affine":
        a0 = float(block.get("a0", 0.0))
        coef = np.asarray(block.get("gradient", (0.0, 0.0, 0.0)), dtype=float).reshape(3)
        return lambda y, w, E: a0 + np.atleast_2d(y) @ coef
    if name == "energy_ramp":
        factor = float(block.get("factor", 1.0))
        return lambda y, w, E: np.full(len(np.atleast_2d(y)), (Em - E) * factor)
    raise ConfigError(f"unknown boundary catalog name '{name}'")

"""Built-in coefficient catalog for scenario configuration.

Each builder turns a {"name": ..., parameters...} block into a vectorized
callable following the package conventions.  Arbitrary expressions are out of
scope; the catalog covers constants, affine profiles, radial bumps, and the
kernel/stopping/boundary shapes the scenario kinds need.
"""

from __future__ import annotations

import math
import numbers
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


def _object(block, context: str) -> dict:
    """``block`` if it is a JSON object, else a ``ConfigError`` naming ``context``."""
    if not isinstance(block, dict):
        raise ConfigError(f"{context} block must be a JSON object, got {block!r}")
    return block


def _get(block: dict, key: str, context: str):
    if key not in _object(block, context):
        raise ConfigError(f"missing key '{key}' in {context} block")
    return block[key]


def _triple(value) -> np.ndarray:
    return np.asarray(value, dtype=float).reshape(3)


def _numeric(value, kind) -> bool:
    """Whether ``value`` holds only numbers, not booleans or strings (a list
    of them for ``_triple``), and whole ones for ``int``."""
    items = value if kind is _triple and isinstance(value, (list, tuple, np.ndarray)) else [value]
    return all(isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))
               and (kind is not int or float(v).is_integer()) for v in items)


def _number(block: dict, key: str, context: str, kind=float, default=None, valid=None, what=None):
    """``block[key]`` (``default`` when given and the key is absent) as a
    finite ``kind`` number (or as 3 for ``_triple``).  A value that is not a
    number (a boolean or a string is not), is not whole for ``int``, is not
    finite or fails the test ``valid`` raises ``ConfigError``, naming the
    key, the block and ``what`` it must be."""
    value = _get(block, key, context) if default is None else _object(block, context).get(key, default)
    try:
        out = kind(value) if _numeric(value, kind) else None
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or not np.all(np.isfinite(out)) or (valid is not None and not valid(out)):
        what = what or {int: "an integer", float: "a finite number"}.get(kind, "3 finite numbers")
        raise ConfigError(f"'{key}' in {context} block must be {what}, got {value!r}")
    return out


def _flag(block: dict, key: str, context: str, default: bool) -> bool:
    """``block[key]`` (``default`` when the key is absent) as a JSON boolean.
    Any other value, such as the string "false" or the number 0, raises
    ``ConfigError`` naming the key and the block."""
    value = _object(block, context).get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"'{key}' in {context} block must be true or false, got {value!r}")
    return value


def _text(block: dict, key: str, context: str):
    """``block[key]`` as a string, or None when the key is absent; any other
    value raises ``ConfigError`` naming the key and the block."""
    value = _object(block, context).get(key)
    if key in block and not isinstance(value, str):
        raise ConfigError(f"'{key}' in {context} block must be a string, got {value!r}")
    return value


def build_sigma(block: dict) -> Callable:
    """Attenuation coefficient by catalog name."""
    name = _get(block, "name", "sigma")
    if name == "constant":
        v = _number(block, "value", "sigma")
        return lambda x, w, E: np.full(len(np.atleast_2d(x)), v)
    if name == "affine":
        a0 = _number(block, "a0", "sigma", default=0.0)
        grad = _number(block, "gradient", "sigma", _triple, (0.0, 0.0, 0.0))
        return lambda x, w, E: a0 + np.atleast_2d(x) @ grad
    if name == "radial_bump":
        amp = _number(block, "amplitude", "sigma")
        radius = _number(block, "radius", "sigma")
        c = _number(block, "center", "sigma", _triple, (0.0, 0.0, 0.0))
        return lambda x, w, E: amp * smooth_bump(_distance(x, c), radius)
    raise ConfigError(f"unknown sigma catalog name '{name}'")


def build_source(block: dict) -> Callable:
    """Internal source by catalog name."""
    name = _get(block, "name", "source")
    if name == "constant":
        v = _number(block, "value", "source")
        return lambda x, w, E: np.full(len(np.atleast_2d(x)), v)
    if name == "radial_bump":
        amp = _number(block, "amplitude", "source")
        radius = _number(block, "radius", "source")
        c = _number(block, "center", "source", _triple, (0.0, 0.0, 0.0))
        return lambda x, w, E: amp * smooth_bump(_distance(x, c), radius)
    if name == "bump_cos_energy":
        amp = _number(block, "amplitude", "source")
        radius = _number(block, "radius", "source")
        freq = _number(block, "freq", "source", default=1.0)
        c = _number(block, "center", "source", _triple, (0.0, 0.0, 0.0))
        return lambda x, w, E: amp * smooth_bump(_distance(x, c), radius) \
            * (1.0 + 0.8 * np.cos(freq * np.asarray(E)))
    raise ConfigError(f"unknown source catalog name '{name}'")


def build_scatter(block: dict) -> Callable:
    """Scattering kernel by catalog name (nonnegative by construction)."""
    name = _get(block, "name", "scatter")
    if name == "isotropic":
        s = _number(block, "sigma_s", "scatter")
        return lambda x, wi, wo, E: np.full(len(np.atleast_2d(x)), s / _FOUR_PI)
    if name == "isotropic_bump":
        s = _number(block, "sigma_s", "scatter")
        radius = _number(block, "radius", "scatter")
        c = _number(block, "center", "scatter", _triple, (0.0, 0.0, 0.0))
        return lambda x, wi, wo, E: (s / _FOUR_PI) * smooth_bump(_distance(x, c), radius)
    if name == "linear_anisotropic_bump":
        s = _number(block, "sigma_s", "scatter")
        b = _number(block, "b", "scatter", default=0.0, valid=lambda b: abs(b) <= 1.0,
                    what="in [-1, 1] for a nonnegative kernel")
        radius = _number(block, "radius", "scatter")
        c = _number(block, "center", "scatter", _triple, (0.0, 0.0, 0.0))
        return lambda x, wi, wo, E: (s / _FOUR_PI) * (1.0 + b * float(wi @ wo)) \
            * smooth_bump(_distance(x, c), radius)
    raise ConfigError(f"unknown scatter catalog name '{name}'")


def build_stopping(block: dict) -> tuple[Callable, float]:
    """Stopping power and its lower bound kappa for -a."""
    name = _get(block, "name", "stopping")
    if name == "constant":
        v = _number(block, "value", "stopping", valid=lambda v: v < 0.0, what="negative and finite")
        return (lambda x, E: np.full(len(np.atleast_2d(x)), v)), -v
    raise ConfigError(f"unknown stopping catalog name '{name}'")


def build_boundary(block: dict, Em: float) -> Callable:
    """Inflow boundary data by catalog name."""
    name = _get(block, "name", "boundary")
    if name == "constant":
        v = _number(block, "value", "boundary")
        return lambda y, w, E: np.full(len(np.atleast_2d(y)), v)
    if name == "axis_affine":
        a0 = _number(block, "a0", "boundary", default=0.0)
        coef = _number(block, "gradient", "boundary", _triple, (0.0, 0.0, 0.0))
        return lambda y, w, E: a0 + np.atleast_2d(y) @ coef
    if name == "energy_ramp":
        factor = _number(block, "factor", "boundary", default=1.0)
        return lambda y, w, E: np.full(len(np.atleast_2d(y)), (Em - E) * factor)
    raise ConfigError(f"unknown boundary catalog name '{name}'")

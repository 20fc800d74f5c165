"""Exception types raised across the package."""


class RayTransError(Exception):
    """Base class for all package errors."""


class NotOnBoundary(RayTransError):
    """Point does not lie on the domain boundary within tolerance."""


class OutsideDomain(RayTransError):
    """Point lies outside the closed domain."""


class GradientUndefinedOnBoundary(RayTransError):
    """Closed-form exit-time gradient is singular at this boundary point."""


class GradientUnavailable(RayTransError):
    """Spatial gradient of the exit time cannot be evaluated: the exit ray
    is near-tangential."""


class EmptyInput(RayTransError):
    """An operation received an empty point collection."""


class NonFiniteValue(RayTransError):
    """Sampling produced a non-finite value; message carries the grid index."""


class CoefficientShapeError(RayTransError):
    """A coefficient callable returned an array that is not of shape (n,)
    for a batch of n positions."""


class OrderTooHigh(RayTransError):
    """Requested differentiation order exceeds the supported stencil width."""


class GridTooCoarse(RayTransError):
    """Grid cannot support the requested stencil."""


class NotInH0(RayTransError):
    """Field does not vanish near the inflow boundary within the margin
    required by the zero-trace function space surrogate."""


class ShiftTooSmall(RayTransError):
    """Shift constant does not exceed the solvability threshold."""


class MaxIterationsExceeded(RayTransError):
    """Fixed-point iteration failed to converge; carries the report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class StoppingPowerViolation(RayTransError):
    """Stopping power does not satisfy -a >= kappa > 0 everywhere."""


class InsufficientEnergyResolution(RayTransError):
    """Energy grid too coarse for the requested difference order."""


class EmptyTrace(RayTransError):
    """Trace restriction selected no boundary quadrature points."""


class ConfigError(RayTransError):
    """Scenario configuration is invalid; message names the offending key."""

"""Characteristic-tracing linear Boltzmann transport on strictly convex domains.

Modules cover domain geometry and exit times (``geometry``), coefficient
fields and grids (``fields``), the exact attenuation solve along
characteristics (``attenuation``), source iteration for scattering and the
inflow lift (``scattering``), energy marching for continuous slowing down
(``csda``), discrete mixed Sobolev and trace norms (``norms``), deterministic
invariant suites (``verify``), and a scenario-running CLI (``cli``).
"""

from types import ModuleType as _ModuleType

from .attenuation import (
    AccretivityResult,
    RayQuadrature,
    accretivity_functional,
    solve_attenuation_grid,
    solve_attenuation_gradient,
    solve_attenuation_points,
)
from .csda import (
    CompatibilityReport,
    MarchReport,
    MarchState,
    compatibility_check,
    explicit_csda_grid,
    march_energy,
    solve_csda,
)
from .fields import (
    CoefficientSet,
    DiscreteField,
    EnergyInterval,
    GridSpec,
    leibniz_constant,
    sample_field,
    sup_norm_estimate,
)
from .geometry import (
    BoundarySide,
    ConvexDomain,
    PhasePoint,
    ball_escape_closed_form,
    escape_times,
    escape_times_rootfind,
    outward_normal,
    support_margin,
    triangulate_boundary,
)
from .norms import (
    TraceField,
    boundary_h_norm,
    green_residual,
    h0_margin,
    h_norm,
    trace_from_callable,
    trace_from_grid_field,
    trace_norm,
)
from .scattering import (
    IterationReport,
    apply_scatter,
    apply_scatter_grid,
    scatter_norm_bound,
    solvability_threshold,
    solve_scattering,
    solve_with_inflow,
)

# every name imported above; the submodules are reached as attributes
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

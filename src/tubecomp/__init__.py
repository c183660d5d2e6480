"""Numerical comparison geometry for tubes around submanifolds.

Computes tube volumes, shape-operator evolution along normal geodesics,
and k-Ricci curvature on chart-based model manifolds, and verifies
constant-curvature and integral-curvature volume bounds against measured
quantities at desk scale.
"""

from .models import (
    BoundConstants,
    BoundReport,
    DomainError,
    InfeasibleBoundError,
    cheeger_delta,
    first_zero,
    hk_integrand,
    model_shape_trace,
    sn_cs,
    sphere_volume,
    thm1_bound,
    thm1_constants,
)
from .geometry import (
    Box,
    ChartManifold,
    SingularMetricError,
    christoffel_at,
    curvature_tensor_at,
    lp_deficit_norm,
    rho_k,
    rho_k_at,
)
from . import (
    manifolds,
    quadrature,
    scenarios,
    submanifolds,
    transport,
    tubes,
    verification,
)

__all__ = [
    "BoundConstants",
    "BoundReport",
    "DomainError",
    "InfeasibleBoundError",
    "cheeger_delta",
    "first_zero",
    "hk_integrand",
    "model_shape_trace",
    "sn_cs",
    "sphere_volume",
    "thm1_bound",
    "thm1_constants",
    "Box",
    "ChartManifold",
    "SingularMetricError",
    "christoffel_at",
    "curvature_tensor_at",
    "lp_deficit_norm",
    "rho_k",
    "rho_k_at",
    "manifolds",
    "quadrature",
    "scenarios",
    "submanifolds",
    "transport",
    "tubes",
    "verification",
]

__version__ = "0.1.0"

"""Numerical Riemannian geometry of strongly pseudoconvex Hartogs domains.

A Hartogs domain is cut out by |z0|^2 < b, ||z||^2 < f(|z0|^2) for a
positive non-increasing profile f, and carries the Kahler metric with
potential -log(f(|z0|^2) - ||z||^2).  This package evaluates the metric,
its connection and curvature, traces geodesics in closed form, decides the
completeness criterion numerically, and classifies the profile families
with constant base curvature.
"""

__version__ = "0.1.0"

from .connection import (
    ChristoffelSlice,
    GeodesicTrace,
    SliceReduction,
    christoffel_closed,
    christoffel_generic,
    integrate_geodesic,
    reduce_to_slice,
    residual_ode,
    self_intersection_check,
    straightline_residual,
    straightline_residual_algebraic,
)
from .curvature import (
    ClassificationResult,
    EinsteinReport,
    classify_profile,
    einstein_check,
    gauss_curvature_base,
    gauss_curvature_slice,
    monge_ampere_J,
)
from .expressions import (
    ExpressionEvalError,
    ExpressionSyntaxError,
    parse_expression,
)
from .hyperbolic import (
    CompletenessReport,
    completeness,
    phi_embed,
    psi,
    psi_map,
    psi_map_jacobian,
)
from .metric import (
    DomainPoint,
    OutsideDomainError,
    SliceMetric,
    SlicePoint,
    beltrami_klein,
    hermitian_metric,
    potential,
    slice_metric,
    slice_metric_generic,
)
from .profile import Profile, ValidationReport, kcond, parse_profile, validate

__all__ = [
    "ChristoffelSlice",
    "ClassificationResult",
    "CompletenessReport",
    "DomainPoint",
    "EinsteinReport",
    "ExpressionEvalError",
    "ExpressionSyntaxError",
    "GeodesicTrace",
    "OutsideDomainError",
    "Profile",
    "SliceMetric",
    "SlicePoint",
    "SliceReduction",
    "ValidationReport",
    "beltrami_klein",
    "christoffel_closed",
    "christoffel_generic",
    "classify_profile",
    "completeness",
    "einstein_check",
    "gauss_curvature_base",
    "gauss_curvature_slice",
    "hermitian_metric",
    "integrate_geodesic",
    "kcond",
    "monge_ampere_J",
    "parse_expression",
    "parse_profile",
    "phi_embed",
    "potential",
    "psi",
    "psi_map",
    "psi_map_jacobian",
    "reduce_to_slice",
    "residual_ode",
    "self_intersection_check",
    "slice_metric",
    "slice_metric_generic",
    "straightline_residual",
    "straightline_residual_algebraic",
    "validate",
]

"""Exact degrees and Euclidean distance degrees of Segre and Segre-Veronese
products of projective spaces, their dual hypersurfaces, and the asymptotic
formulas approximating them.

Everything exact runs on arbitrary-precision integers and rationals; the
floating-point surface is confined to the growth estimates in ``asympt``.
"""

from .asympt import (
    BinaryAsymptotics,
    ConvergenceReport,
    DiscriminantRatios,
    MinimalPointCheck,
    VerificationError,
    binary_asymptotics,
    convergence_sweep,
    discriminant_ratios,
    relative_error,
    verify_minimal_point_constants,
)
from .combinat import binomial, multinomial
from .eddeg import (
    binary_generic_ed_degree,
    frobenius_ed_degree,
    generic_ed_degree,
    matrix_ed_polynomial,
    stabilization_onset,
    veronese_frobenius_ed_degree,
)
from .hyperdet import (
    binary_hyperdet_degree,
    degree_series_denominator,
    hyperdet_degree,
    is_dual_nondefective,
    mixed_partial_at_symmetric_point,
    partition_formats,
    sv_hyperdet_degree,
    symmetric_point,
)
from .polar import (
    ChernData,
    PolarProfile,
    alpha_coefficients,
    alternating_binomial_identity_holds,
    chern_data_product,
    chern_data_projective_space_product,
    chern_data_smooth_hypersurface,
    delta0_product_with_hypersurface,
    dual_profile,
    f_identity_holds,
    g_identity_holds,
    polar_class,
    stabilization_ratio_check,
)
from .truncpoly import TruncatedPoly, elementary_symmetric, series_inverse

__version__ = "0.1.0"

__all__ = [
    "BinaryAsymptotics",
    "ChernData",
    "ConvergenceReport",
    "DiscriminantRatios",
    "MinimalPointCheck",
    "PolarProfile",
    "TruncatedPoly",
    "VerificationError",
    "alpha_coefficients",
    "alternating_binomial_identity_holds",
    "binary_asymptotics",
    "binary_generic_ed_degree",
    "binary_hyperdet_degree",
    "binomial",
    "chern_data_product",
    "chern_data_projective_space_product",
    "chern_data_smooth_hypersurface",
    "convergence_sweep",
    "degree_series_denominator",
    "delta0_product_with_hypersurface",
    "discriminant_ratios",
    "dual_profile",
    "elementary_symmetric",
    "f_identity_holds",
    "frobenius_ed_degree",
    "g_identity_holds",
    "generic_ed_degree",
    "hyperdet_degree",
    "is_dual_nondefective",
    "matrix_ed_polynomial",
    "mixed_partial_at_symmetric_point",
    "multinomial",
    "partition_formats",
    "polar_class",
    "relative_error",
    "series_inverse",
    "stabilization_onset",
    "stabilization_ratio_check",
    "sv_hyperdet_degree",
    "symmetric_point",
    "verify_minimal_point_constants",
]

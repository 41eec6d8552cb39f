"""Signed multiplicative cascade simulation and verification toolkit.

Layers, bottom up:

  streams   counter-based deterministic random words per tree node
  core      sign fields, sample paths, normalizations, exact samplers
  moments   analytic moment tables, limits, and the enumeration oracle
  charfn    characteristic function of the limit mass and its density
  stats     Monte-Carlo checks of the distributional limit claims
  fractal   Hölder-exponent and box-dimension estimators
  reports   CSV/JSON/SVG serialization with reproducibility metadata
  cli       the ``cascadekit`` command-line entry point
"""

from __future__ import annotations

from .charfn import (
    DensityResult,
    charfn_at,
    charfn_auto,
    density_of_z,
)
from .core import (
    CapacityError,
    CascadeParams,
    LeafSignField,
    PathKind,
    Regime,
    SamplePath,
    SelfSimilarityReport,
    build_path,
    enumerate_next_level_mean,
    evaluate,
    generate_leaf_signs,
    normalize_path,
    regime_of,
    sample_branch_signs,
    sample_terminal,
    sample_terminal_depths,
    sigma,
    verify_self_similarity,
)
from .fractal import (
    DimensionFit,
    FractalSummary,
    box_dimension,
    increment_scaling_exponent,
    pointwise_holder_profile,
    summarize_field,
)
from .moments import (
    MomentTable,
    brute_force_moments,
    closed_form_second_moment,
    epsilon_moment,
    gaussian_even_moments,
    limit_z_moments,
    normalized_moment_recursion,
    z_moment_recursion,
)
from .stats import (
    StatReport,
    clt_small_h_test,
    clt_terminal_trend,
    empirical_vs_exact_moments,
    increments_gaussianity,
    ks_statistic,
    residual_clt_test,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CascadeParams",
    "DensityResult",
    "DimensionFit",
    "FractalSummary",
    "LeafSignField",
    "MomentTable",
    "PathKind",
    "Regime",
    "SamplePath",
    "SelfSimilarityReport",
    "StatReport",
    "__version__",
    "box_dimension",
    "brute_force_moments",
    "build_path",
    "charfn_at",
    "charfn_auto",
    "closed_form_second_moment",
    "clt_small_h_test",
    "clt_terminal_trend",
    "density_of_z",
    "empirical_vs_exact_moments",
    "enumerate_next_level_mean",
    "epsilon_moment",
    "evaluate",
    "gaussian_even_moments",
    "generate_leaf_signs",
    "increment_scaling_exponent",
    "increments_gaussianity",
    "ks_statistic",
    "limit_z_moments",
    "normalize_path",
    "normalized_moment_recursion",
    "pointwise_holder_profile",
    "regime_of",
    "residual_clt_test",
    "sample_branch_signs",
    "sample_terminal",
    "sample_terminal_depths",
    "sigma",
    "summarize_field",
    "verify_self_similarity",
    "z_moment_recursion",
]

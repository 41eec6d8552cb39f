"""Tests for roughness and dimension estimators on cascade paths."""

import numpy as np
import pytest

from cascadekit.core import CascadeParams, generate_leaf_signs
from cascadekit.fractal import (
    HOLDER_J_RANGE,
    box_dimension,
    increment_scaling_exponent,
    pointwise_holder_profile,
    summarize_field,
)

DEPTH = 18


def summary_of(params, depth=DEPTH, **ranges):
    """The field summary of a depth-``depth`` path for ``ranges``."""
    return summarize_field(generate_leaf_signs(params, depth), params,
                           **ranges)


def test_ramp_exactness():
    """H = 1 gives B(t) = t: every estimator must return 1 sharply.

    The increment and box fits are algebraically exact ramps; the
    pointwise fits snap ball ends outward to the grid, and the balls of
    the outermost points are clipped at 0 and 1, so the profile is
    judged by its median.
    """
    params = CascadeParams(base=2, hurst=1.0, seed=0)
    summary = summary_of(params, p_range=(4, 12), j_range=(4, 12),
                         holder_range=HOLDER_J_RANGE)
    fit = increment_scaling_exponent(summary)
    assert abs(fit.estimate - 1.0) <= 1e-12
    assert fit.r_squared >= 1.0 - 1e-12
    assert fit.zero_increments == 0
    dim = box_dimension(summary)
    assert abs(dim.estimate - 1.0) <= 1e-12
    prof = pointwise_holder_profile(summary)
    assert abs(float(np.median(prof)) - 1.0) <= 1e-2


def test_exponent_recovers_h():
    params = CascadeParams(base=2, hurst=0.7, seed=35)
    fit = increment_scaling_exponent(summary_of(params, p_range=(4, 12)))
    assert abs(fit.estimate - 0.7) <= 0.05
    assert fit.kind == "increment_exponent"
    assert fit.r_squared > 0.99
    params95 = CascadeParams(base=2, hurst=0.95, seed=35)
    fit95 = increment_scaling_exponent(summary_of(params95, p_range=(4, 12)))
    assert abs(fit95.estimate - 0.95) <= 0.05


def test_box_dimension_recovers_2_minus_h():
    params = CascadeParams(base=2, hurst=0.7, seed=35)
    dim = box_dimension(summary_of(params, j_range=(4, 12)))
    assert abs(dim.estimate - 1.3) <= 0.1
    assert dim.kind == "box_dimension"
    params95 = CascadeParams(base=2, hurst=0.95, seed=35)
    dim95 = box_dimension(summary_of(params95, j_range=(4, 12)))
    assert abs(dim95.estimate - 1.05) <= 0.1


def test_box_counts_monotone():
    params = CascadeParams(base=2, hurst=0.7, seed=35)
    fit = box_dimension(summary_of(params, j_range=(4, 12)))
    ns = np.round(np.exp(fit.log_values))
    assert fit.scales.tolist() == list(range(4, 13))
    assert all(b > a for a, b in zip(ns, ns[1:]))
    # at least one box per width-2^-j column
    assert all(n >= 2**j for j, n in zip(fit.scales, ns))


def test_zero_increments_are_counted():
    """Fair-sign block sums hit exactly zero; they are excluded, tallied."""
    params = CascadeParams.symmetric(base=2, seed=0)
    fit = increment_scaling_exponent(summary_of(params, p_range=(4, 12)))
    assert fit.zero_increments > 0
    assert np.isfinite(fit.estimate)
    # symmetric walks scale like the critical case: exponent near 1/2
    assert abs(fit.estimate - 0.5) <= 0.05


def test_pointwise_profile_tightness():
    """64-point profile: tight spread around H for a convergent path."""
    params = CascadeParams(base=2, hurst=0.7, seed=35)
    prof = pointwise_holder_profile(
        summary_of(params, holder_range=HOLDER_J_RANGE))
    assert prof.shape == (64,)
    assert abs(float(np.median(prof)) - 0.7) <= 0.1
    assert float(prof.std()) <= 0.1


@pytest.mark.parametrize("estimator, name", [
    (increment_scaling_exponent, "p_range"),
    (box_dimension, "j_range"),
    (pointwise_holder_profile, "holder_range"),
])
def test_estimator_needs_its_range_in_the_summary(estimator, name):
    """Each estimator reads its range from the summary; a summary made
    without it is one ValueError naming the missing range."""
    params = CascadeParams(base=2, hurst=0.7, seed=0)
    ranges = {"p_range": (2, 8), "j_range": (2, 12),
              "holder_range": (2, 14)}
    del ranges[name]
    summary = summary_of(params, 14, **ranges)
    assert getattr(summary, name) is None
    with pytest.raises(ValueError, match=f"made without a {name}"):
        estimator(summary)


def test_range_preconditions():
    params = CascadeParams(base=2, hurst=0.7, seed=0)
    field = generate_leaf_signs(params, 14)
    for ranges in ({"p_range": (1, 8)},
                   {"p_range": (4, 12)},  # needs n >= 18
                   {"p_range": (4, 6)},  # < 4 scales
                   {"j_range": (4, 13)},  # needs j <= n - 2
                   {"j_range": (0, 8)},
                   {"holder_range": (2, 15)}):  # needs j <= n
        with pytest.raises(ValueError):
            summarize_field(field, params, **ranges)


def test_pointwise_holder_rejects_scales_below_one():
    """holder_range must start at 1 or above, as its message says."""
    params = CascadeParams(base=2, hurst=0.7, seed=0)
    field = generate_leaf_signs(params, 14)
    with pytest.raises(ValueError, match=r"holder_range .*\[1, depth\]"):
        summarize_field(field, params, holder_range=(0, 8))

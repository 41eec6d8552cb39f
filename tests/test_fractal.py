"""Tests for roughness and dimension estimators on cascade paths."""

import numpy as np
import pytest

from cascadekit.core import CascadeParams, build_path, generate_leaf_signs
from cascadekit.fractal import (
    _oscillation,
    box_dimension,
    increment_scaling_exponent,
    pointwise_holder,
    pointwise_holder_profile,
    summarize_field,
)

DEPTH = 18


def full_path(params, depth=DEPTH):
    field = generate_leaf_signs(params, depth)
    return build_path(field, params, max_points=params.base**depth)


def test_ramp_exactness():
    """H = 1 gives B(t) = t: every estimator must return 1 sharply.

    The increment and box fits are algebraically exact ramps; the
    pointwise fit snaps ball ends outward to the grid, which costs a
    few 1e-3 at shallow scales.
    """
    params = CascadeParams(base=2, hurst=1.0, seed=0)
    path = full_path(params)
    fit = increment_scaling_exponent(path)
    assert abs(fit.estimate - 1.0) <= 1e-12
    assert fit.r_squared >= 1.0 - 1e-12
    assert fit.zero_increments == 0
    dim = box_dimension(path)
    assert abs(dim.estimate - 1.0) <= 1e-12
    point = pointwise_holder(path, 0.37)
    assert abs(point.estimate - 1.0) <= 1e-2


def test_exponent_recovers_h():
    params = CascadeParams(base=2, hurst=0.7, seed=35)
    fit = increment_scaling_exponent(full_path(params))
    assert abs(fit.estimate - 0.7) <= 0.05
    assert fit.kind == "increment_exponent"
    assert fit.r_squared > 0.99
    params95 = CascadeParams(base=2, hurst=0.95, seed=35)
    fit95 = increment_scaling_exponent(full_path(params95))
    assert abs(fit95.estimate - 0.95) <= 0.05


def test_box_dimension_recovers_2_minus_h():
    params = CascadeParams(base=2, hurst=0.7, seed=35)
    dim = box_dimension(full_path(params))
    assert abs(dim.estimate - 1.3) <= 0.1
    assert dim.kind == "box_dimension"
    params95 = CascadeParams(base=2, hurst=0.95, seed=35)
    dim95 = box_dimension(full_path(params95))
    assert abs(dim95.estimate - 1.05) <= 0.1


def test_box_counts_monotone():
    params = CascadeParams(base=2, hurst=0.7, seed=35)
    fit = box_dimension(full_path(params))
    ns = np.round(np.exp(fit.log_values))
    assert fit.scales.tolist() == list(range(4, 13))
    assert all(b > a for a, b in zip(ns, ns[1:]))
    # at least one box per width-2^-j column
    assert all(n >= 2**j for j, n in zip(fit.scales, ns))


def test_zero_increments_are_counted():
    """Fair-sign block sums hit exactly zero; they are excluded, tallied."""
    params = CascadeParams.symmetric(base=2, seed=0)
    fit = increment_scaling_exponent(full_path(params))
    assert fit.zero_increments > 0
    assert np.isfinite(fit.estimate)
    # symmetric walks scale like the critical case: exponent near 1/2
    assert abs(fit.estimate - 0.5) <= 0.05


def test_pointwise_profile_tightness():
    """64-point profile: tight spread around H for a convergent path."""
    params = CascadeParams(base=2, hurst=0.7, seed=35)
    prof = pointwise_holder_profile(full_path(params))
    assert prof.shape == (64,)
    assert abs(float(np.median(prof)) - 0.7) <= 0.1
    assert float(prof.std()) <= 0.1


def test_pointwise_holder_guards():
    params = CascadeParams(base=2, hurst=0.7, seed=0)
    path = full_path(params, 14)
    with pytest.raises(ValueError):
        pointwise_holder(path, 0.0)
    with pytest.raises(ValueError):
        pointwise_holder(path, 1.0)
    flat = build_path(generate_leaf_signs(CascadeParams(base=2, hurst=1.0,
                                                        seed=0), 14),
                      CascadeParams(base=2, hurst=1.0, seed=0))
    zeroed = type(path)(params=flat.params, depth=flat.depth,
                        values=np.zeros_like(flat.values), kind=flat.kind,
                        stride=flat.stride)
    with pytest.raises(ValueError):
        pointwise_holder(zeroed, 0.5)


def test_estimators_reject_decimated_paths():
    """Decimation erases sub-stride oscillation, so fits must refuse."""
    params = CascadeParams(base=2, hurst=0.7, seed=0)
    field = generate_leaf_signs(params, 18)
    thin = build_path(field, params, max_points=2**12)
    assert thin.is_decimated
    with pytest.raises(ValueError):
        increment_scaling_exponent(thin)
    with pytest.raises(ValueError):
        box_dimension(thin)
    with pytest.raises(ValueError):
        pointwise_holder(thin, 0.5)
    with pytest.raises(ValueError):
        pointwise_holder_profile(thin)


def test_summary_without_the_asked_scales_is_refused():
    """A summary answers only the ranges it was made for; any other
    range is a ValueError naming what it lacks."""
    params = CascadeParams(base=2, hurst=0.7, seed=0)
    summary = summarize_field(generate_leaf_signs(params, 14), params,
                              p_range=(2, 7), j_range=(2, 8))
    with pytest.raises(ValueError, match="no generation-8 increments"):
        increment_scaling_exponent(summary, p_range=(2, 8))
    with pytest.raises(ValueError, match="no box counts for j_range 2,9"):
        box_dimension(summary, j_range=(2, 9))
    with pytest.raises(ValueError, match="no extrema for samples"):
        pointwise_holder(summary, 0.37)
    with pytest.raises(ValueError, match="no extrema for samples"):
        pointwise_holder_profile(summary)
    bare = summarize_field(generate_leaf_signs(params, 14), params)
    with pytest.raises(ValueError, match="no generation-5 increments"):
        increment_scaling_exponent(bare, p_range=(2, 5))
    # every summary holds the block table: the ball of samples 0..8191,
    # two whole blocks of 4096 and no raw piece, is the window's range,
    # but the ragged ball 2047..6143 needs raw pieces no summary was
    # made for
    values = full_path(params, 14).values
    assert _oscillation(bare, 0, 8191) \
        == values[:8192].max() - values[:8192].min()
    with pytest.raises(ValueError, match="no extrema for samples 2047..6143"):
        _oscillation(bare, 2047, 6143)


def test_range_preconditions():
    params = CascadeParams(base=2, hurst=0.7, seed=0)
    path = full_path(params, 14)
    with pytest.raises(ValueError):
        increment_scaling_exponent(path, p_range=(1, 8))
    with pytest.raises(ValueError):
        increment_scaling_exponent(path, p_range=(4, 12))  # needs n >= 18
    with pytest.raises(ValueError):
        increment_scaling_exponent(path, p_range=(4, 6))  # < 4 scales
    with pytest.raises(ValueError):
        box_dimension(path, j_range=(4, 13))  # needs j <= n - 2
    with pytest.raises(ValueError):
        box_dimension(path, j_range=(0, 8))


def test_pointwise_holder_rejects_scales_below_one():
    """j_range must start at 1 or above, as its message says."""
    params = CascadeParams(base=2, hurst=0.7, seed=0)
    path = full_path(params, 14)
    with pytest.raises(ValueError, match=r"\[1, depth\]"):
        pointwise_holder(path, 0.5, j_range=(0, 8))
    with pytest.raises(ValueError, match=r"\[1, depth\]"):
        pointwise_holder_profile(path, j_range=(0, 8))

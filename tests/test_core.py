"""Tests for cascade parameters, sign fields, paths, and samplers."""

import math

import numpy as np
import pytest

from cascadekit.core import (
    CapacityError,
    CascadeParams,
    PathKind,
    Regime,
    build_path,
    check_chain_depths,
    enumerate_next_level_mean,
    evaluate,
    generate_leaf_signs,
    normalize_path,
    path_slices,
    regime_of,
    sample_branch_signs,
    sample_terminal,
    sample_terminal_depths,
    verify_self_similarity,
)
from cascadekit.fractal import summarize_field
from cascadekit.moments import (
    closed_form_second_moment,
    normalized_moment_recursion,
    sigma,
    z_moment_recursion,
)

SEED = 2024


def test_params_validation():
    with pytest.raises(ValueError):
        CascadeParams(base=1, hurst=0.7)
    with pytest.raises(ValueError):
        CascadeParams(base=2, hurst=1.2)
    with pytest.raises(ValueError):
        CascadeParams(base=2, hurst=float("nan"))
    with pytest.raises(ValueError):
        CascadeParams(base=2, hurst=0.7, seed=-1)
    with pytest.raises(ValueError):
        CascadeParams(base=2, hurst=0.7, seed=2**64)


def test_params_probabilities():
    """p_plus = (1 + b^(H-1)) / 2 and the symmetric sentinel."""
    p = CascadeParams(base=2, hurst=0.7)
    assert math.isclose(p.p_plus, (1 + 2 ** (-0.3)) / 2, rel_tol=1e-15)
    assert math.isclose(p.p_plus + p.p_minus, 1.0)
    assert math.isclose(p.eps_mean, 2 ** (-0.3), rel_tol=1e-15)
    sym = CascadeParams.symmetric(base=3)
    assert sym.is_symmetric
    assert sym.p_plus == 0.5
    assert sym.eps_mean == 0.0
    assert sym.weight_scale(9) == 1.0
    # negative H is allowed: probabilities stay in (1/2, 1)
    deep = CascadeParams(base=2, hurst=-2.0)
    assert 0.5 < deep.p_plus < 1.0


def test_regime_classification():
    assert regime_of(CascadeParams(hurst=0.7)) is Regime.CONVERGENT
    assert regime_of(CascadeParams(hurst=1.0)) is Regime.CONVERGENT
    assert regime_of(CascadeParams(hurst=0.5)) is Regime.CRITICAL
    assert regime_of(CascadeParams(hurst=0.3)) is Regime.DIVERGENT
    assert regime_of(CascadeParams(hurst=-4.0)) is Regime.DIVERGENT
    assert regime_of(CascadeParams(hurst=None)) is Regime.SYMMETRIC


def test_field_determinism_and_shapes():
    params = CascadeParams(base=3, hurst=0.6, seed=SEED)
    f1 = generate_leaf_signs(params, 5)
    f2 = generate_leaf_signs(params, 5)
    assert np.array_equal(f1.packed, f2.packed)
    assert f1.n_leaves == 3**5
    assert len(f1.leaf_signs()) == 3**5
    assert set(np.unique(f1.leaf_signs())) <= {-1, 1}


@pytest.mark.parametrize("start, stop", [(0, 40), (20, 30), (-5, 3),
                                         (10, 9), (28, 28)])
def test_leaf_range_outside_the_field_is_refused(start, stop):
    """A 27-leaf field answers only 0 <= start <= stop <= 27: reading past
    its end would return the packing's padding bits as +1 leaves."""
    field = generate_leaf_signs(CascadeParams(base=3, hurst=0.6, seed=SEED),
                                3)
    with pytest.raises(ValueError, match="not within"):
        field.leaf_bits(start, stop)
    with pytest.raises(ValueError, match="not within"):
        field.leaf_signs(start, stop)
    assert field.leaf_bits(27, 27).size == 0
    assert np.array_equal(field.leaf_bits(20, 27), field.leaf_bits()[20:])


def test_capacity_guard(monkeypatch):
    monkeypatch.setattr("cascadekit.core.DEFAULT_MAX_LEAVES", 2**10)
    with pytest.raises(CapacityError):
        generate_leaf_signs(CascadeParams(seed=0), 12)


def test_h_equal_one_is_deterministic_ramp():
    """H = 1 forces every sign to +1, so B_n(t) = t exactly."""
    params = CascadeParams(base=2, hurst=1.0, seed=99)
    field = generate_leaf_signs(params, 10)
    path = build_path(field, params)
    assert np.allclose(path.values, path.grid, rtol=0, atol=1e-15)


def test_path_values_match_manual_cumsum():
    params = CascadeParams(base=2, hurst=0.7, seed=SEED)
    field = generate_leaf_signs(params, 6)
    path = build_path(field, params)
    manual = 2.0 ** (-6 * 0.7) * np.concatenate(
        [[0], np.cumsum(field.leaf_signs())])
    assert np.array_equal(path.values, manual)
    assert path.values[0] == 0.0
    assert path.stride == 1


def test_increment_magnitude_is_uniform():
    """Every full-resolution increment has magnitude exactly b^(-n*H)."""
    params = CascadeParams(base=3, hurst=0.8, seed=5)
    field = generate_leaf_signs(params, 5)
    path = build_path(field, params)
    mags = np.abs(np.diff(path.values))
    assert np.max(np.abs(mags - params.weight_scale(5))) <= 1e-16


def test_decimated_path_is_exact_subsample():
    params = CascadeParams(base=2, hurst=0.7, seed=SEED)
    field = generate_leaf_signs(params, 12)
    full = build_path(field, params, max_points=2**12)
    thin = build_path(field, params, max_points=2**9)
    assert thin.stride == 2**3
    assert np.array_equal(thin.values, full.values[::2**3])


def test_build_path_rejects_empty_point_budget():
    params = CascadeParams(base=2, hurst=0.7, seed=SEED)
    field = generate_leaf_signs(params, 7)
    with pytest.raises(ValueError, match="max_points"):
        build_path(field, params, max_points=0)


def test_evaluate_grid_and_midpoints():
    params = CascadeParams(base=2, hurst=0.7, seed=SEED)
    path = build_path(generate_leaf_signs(params, 4), params)
    grid = path.grid
    assert np.allclose(evaluate(path, grid), path.values, rtol=0, atol=0)
    mid = (grid[3] + grid[4]) / 2
    want = (path.values[3] + path.values[4]) / 2
    assert math.isclose(evaluate(path, mid), want, rel_tol=1e-12)
    assert isinstance(evaluate(path, 0.5), float)
    with pytest.raises(ValueError):
        evaluate(path, 1.5)


@pytest.mark.parametrize("t", [float("nan"), np.nan, [0.5, float("nan")],
                               np.array([[0.0, np.nan]])])
def test_evaluate_rejects_nan(t):
    """NaN lies outside [0, 1]: the documented error, not an IndexError."""
    params = CascadeParams(base=2, hurst=0.7, seed=SEED)
    path = build_path(generate_leaf_signs(params, 4), params)
    with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
        evaluate(path, t)


def test_normalize_path_kinds_and_divisors():
    n = 6
    raw_vals = {}
    for h, kind in [(0.7, PathKind.NORMALIZED_TILDE),
                    (0.5, PathKind.NORMALIZED_X),
                    (0.3, PathKind.NORMALIZED_X),
                    (None, PathKind.NORMALIZED_X)]:
        params = CascadeParams(base=2, hurst=h, seed=SEED)
        raw = build_path(generate_leaf_signs(params, n), params)
        norm = normalize_path(raw, params)
        assert norm.kind is kind
        raw_vals[h] = (raw, norm)
    raw, norm = raw_vals[0.5]
    params = CascadeParams(base=2, hurst=0.5, seed=SEED)
    assert np.allclose(norm.values * sigma(params) * math.sqrt(n), raw.values)
    raw, norm = raw_vals[None]
    assert np.allclose(norm.values * 2.0 ** (n / 2), raw.values)
    with pytest.raises(ValueError):
        normalize_path(norm, params)


@pytest.mark.parametrize("h,seed", [(0.7, 0), (0.7, 3), (0.5, 1),
                                    (0.25, 2), (None, 4)])
def test_self_similarity_all_regimes(h, seed):
    """Subtree rescaling holds to near machine precision in every regime."""
    params = CascadeParams(base=2, hurst=h, seed=seed)
    field = generate_leaf_signs(params, 10)
    report = verify_self_similarity(field, params, split_depth=3)
    assert report.passed and report.tolerance == 1e-10
    assert report.max_rel_violation <= 1e-12
    assert report.subtrees_checked == 8


def test_self_similarity_needs_interior_split():
    params = CascadeParams(base=2, hurst=0.7, seed=0)
    field = generate_leaf_signs(params, 6)
    with pytest.raises(ValueError):
        verify_self_similarity(field, params, split_depth=6)


@pytest.mark.parametrize("h", [0.7, 0.5, 0.3, None])
def test_martingale_identity_exhaustive(h):
    """E[B_{n+1} | generation-n signs] equals B_n on the finer grid.

    The conditional mean is enumerated over all fresh-sign assignments;
    B_n at generation-(n+1) points is its linear interpolant.
    """
    params = CascadeParams(base=2, hurst=h, seed=7)
    for n in (0, 1, 2):
        field = generate_leaf_signs(params, n)
        cond_mean = enumerate_next_level_mean(field, params)
        path = build_path(field, params)
        fine_grid = np.arange(2 ** (n + 1) + 1) / 2.0 ** (n + 1)
        interp = evaluate(path, fine_grid)
        if params.is_symmetric:
            # fair signs: every child increment has conditional mean
            # zero, so the conditional mean path vanishes identically
            # (raw symmetric sums are not a martingale, by design)
            assert np.allclose(cond_mean, 0.0, atol=1e-12)
        else:
            factor = params.eps_mean * params.weight_scale(1)
            # E eps * b^(-H) = b^(-1): the mean path is exactly B_n
            assert math.isclose(factor * 2, 1.0, rel_tol=1e-12)
            assert np.allclose(cond_mean, interp, atol=1e-12)


def test_enumeration_budget_guard():
    params = CascadeParams(base=2, hurst=0.7, seed=0)
    field = generate_leaf_signs(params, 4)
    with pytest.raises(CapacityError):
        enumerate_next_level_mean(field, params)


def test_sample_terminal_determinism_and_chunking():
    params = CascadeParams(base=2, hurst=0.7, seed=11)
    a = sample_terminal(params, 10, 10000)
    b = sample_terminal(params, 10, 10000)
    assert np.array_equal(a, b)
    # chunks are independent streams: a shorter run is a prefix
    c = sample_terminal(params, 10, 8192)
    assert np.array_equal(a[:8192], c)


def test_sample_terminal_martingale_mean_and_variance():
    """Empirical mean ~ 1 and variance ~ closed form, within 4 SE.

    Standard errors use the exact moments of Z_n from the recursion, so
    both bands are correctly sized rather than normal-theory guesses.
    """
    params = CascadeParams(base=2, hurst=0.7, seed=21)
    reps, n = 200000, 14
    z = sample_terminal(params, n, reps)
    table = z_moment_recursion(params, n, 4)
    m2, m3, m4 = (table.value(n, q) for q in (2, 3, 4))
    assert math.isclose(m2, closed_form_second_moment(params, n),
                        rel_tol=1e-12)
    se_mean = math.sqrt((m2 - 1.0) / reps)
    assert abs(z.mean() - 1.0) <= 4 * se_mean
    mu4 = m4 - 4 * m3 + 6 * m2 - 3.0  # E (Z - 1)^4
    se_var = math.sqrt((mu4 - (m2 - 1.0) ** 2) / reps)
    assert abs(z.var() - (m2 - 1.0)) <= 4 * se_var


def test_sample_terminal_symmetric_parity():
    """Symmetric draws are signed leaf counts: integers of b^n parity."""
    params = CascadeParams.symmetric(base=2, seed=3)
    z = sample_terminal(params, 6, 500)
    assert np.all(z == np.round(z))
    assert np.all((z.astype(np.int64) - 2**6) % 2 == 0)
    assert np.all(np.abs(z) <= 2**6)


def test_sample_terminal_pair_consistent_with_single():
    """A two-depth draw's deep marginal is the single sampler's output."""
    params = CascadeParams(base=2, hurst=0.7, seed=13)
    z_n, z_nm = sample_terminal_depths(params, (6, 10), 5000)
    single = sample_terminal(params, 10, 5000)
    assert np.array_equal(z_nm, single)
    # martingale increment has conditional mean zero
    diff = z_nm - z_n
    se = diff.std() / math.sqrt(len(diff))
    assert abs(diff.mean()) <= 4 * se
    # and is uncorrelated with the starting level
    corr = np.mean((z_n - z_n.mean()) * diff)
    se_corr = np.std((z_n - z_n.mean()) * diff) / math.sqrt(len(diff))
    assert abs(corr) <= 4 * se_corr


def test_sample_terminal_capacity():
    with pytest.raises(CapacityError):
        sample_terminal(CascadeParams(base=2, hurst=0.7, seed=0), 70, 10)


def test_sample_branch_signs_law():
    """Branch products at depth p have mean (E eps)^p."""
    params = CascadeParams(base=2, hurst=0.7, seed=17)
    reps = 40000
    signs = sample_branch_signs(params, 3, reps)
    assert signs.shape == (reps, 8)
    assert set(np.unique(signs)) <= {-1, 1}
    want = params.eps_mean**3
    got = signs.mean()
    se = 1.0 / math.sqrt(reps * 8)  # variance of one product is <= 1
    assert abs(got - want) <= 5 * se


#: Refusals with their messages: a base-3 field read with base-2 params
#: (path_slices at its first slice; build_path and summarize_field before
#: their own argument checks, which these calls would fail), a negative
#: chain depth, more than 4096 branches, and a normalized table without a
#: row past the start.
REFUSALS = {
    "path_slices": (ValueError, "disagree on base", lambda field: next(
        path_slices(field, CascadeParams(base=2, hurst=0.7), 9))),
    "build_path": (ValueError, "disagree on base", lambda field: build_path(
        field, CascadeParams(base=2, hurst=0.7), max_points=0)),
    "summarize_field": (ValueError, "disagree on base",
                        lambda field: summarize_field(
                            field, CascadeParams(base=2, hurst=0.7),
                            p_range=(0, 1))),
    "check_chain_depths": (ValueError, r"depth must be >= 0",
                           lambda field: check_chain_depths(2, (4, -1))),
    "sample_branch_signs": (CapacityError, "meant for shallow tops",
                            lambda field: sample_branch_signs(
                                CascadeParams(base=2, hurst=0.3), 13, 1)),
    "normalized_moment_recursion": (ValueError, r"n_max must be >= 1",
                                    lambda field: normalized_moment_recursion(
                                        CascadeParams(base=2, hurst=0.5),
                                        0, 4)),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusals_raise_their_messages(name):
    error, message, call = REFUSALS[name]
    field = generate_leaf_signs(CascadeParams(base=3, hurst=0.7, seed=1), 4)
    with pytest.raises(error, match=message):
        call(field)

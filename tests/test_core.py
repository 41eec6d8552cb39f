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
    regime_of,
    sample_branch_signs,
    sample_terminal,
    sample_terminal_depths,
    subtree_rows,
    verify_self_similarity,
)
from cascadekit import core
from cascadekit.moments import (
    brute_force_moments,
    closed_form_second_moment,
    normalized_moment_recursion,
    sigma,
    z_moment_recursion,
)
from cascadekit.stats import Z_BAND

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
    assert len(f1.leaf_bits()) == 3**5
    assert set(np.unique(f1.leaf_bits())) <= {0, 1}


def test_capacity_guard(monkeypatch):
    monkeypatch.setattr("cascadekit.core.DEFAULT_MAX_LEAVES", 2**10)
    with pytest.raises(CapacityError):
        generate_leaf_signs(CascadeParams(seed=0), 12)


def test_h_equal_one_is_deterministic_ramp():
    """H = 1 forces every sign to +1, so B_n(t) = t exactly."""
    params = CascadeParams(base=2, hurst=1.0, seed=99)
    field = generate_leaf_signs(params, 10)
    path = build_path(field)
    assert np.allclose(path.values, path.grid, rtol=0, atol=1e-15)


def test_path_values_match_manual_cumsum():
    params = CascadeParams(base=2, hurst=0.7, seed=SEED)
    field = generate_leaf_signs(params, 6)
    path = build_path(field)
    manual = 2.0 ** (-6 * 0.7) * np.concatenate(
        [[0], np.cumsum(1.0 - 2.0 * field.leaf_bits())])
    assert np.array_equal(path.values, manual)
    assert path.values[0] == 0.0
    assert path.stride == 1


def test_increment_magnitude_is_uniform():
    """Every full-resolution increment has magnitude exactly b^(-n*H)."""
    params = CascadeParams(base=3, hurst=0.8, seed=5)
    field = generate_leaf_signs(params, 5)
    path = build_path(field)
    mags = np.abs(np.diff(path.values))
    assert np.max(np.abs(mags - params.weight_scale(5))) <= 1e-16


def test_decimated_path_is_exact_subsample():
    params = CascadeParams(base=2, hurst=0.7, seed=SEED)
    field = generate_leaf_signs(params, 12)
    full = build_path(field, max_points=2**12)
    thin = build_path(field, max_points=2**9)
    assert thin.stride == 2**3
    assert np.array_equal(thin.values, full.values[::2**3])


def test_build_path_rejects_empty_point_budget():
    params = CascadeParams(base=2, hurst=0.7, seed=SEED)
    field = generate_leaf_signs(params, 7)
    with pytest.raises(ValueError, match="max_points"):
        build_path(field, max_points=0)


def test_evaluate_grid_and_midpoints():
    params = CascadeParams(base=2, hurst=0.7, seed=SEED)
    path = build_path(generate_leaf_signs(params, 4))
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
    path = build_path(generate_leaf_signs(params, 4))
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
        raw = build_path(generate_leaf_signs(params, n))
        norm = normalize_path(raw)
        assert norm.kind is kind
        raw_vals[h] = (raw, norm)
    raw, norm = raw_vals[0.5]
    params = CascadeParams(base=2, hurst=0.5, seed=SEED)
    assert np.allclose(norm.values * sigma(params) * math.sqrt(n), raw.values)
    raw, norm = raw_vals[None]
    assert np.allclose(norm.values * 2.0 ** (n / 2), raw.values)
    with pytest.raises(ValueError):
        normalize_path(norm)


@pytest.mark.parametrize("h,seed", [(0.7, 0), (0.7, 3), (0.5, 1),
                                    (0.25, 2), (None, 4)])
def test_self_similarity_all_regimes(h, seed):
    """Subtree rescaling holds to near machine precision in every regime,
    at b = 2 and at b = 3 (depth 9, below the 2^22-node chunk)."""
    for base, depth in ((2, 10), (3, 9)):
        params = CascadeParams(base=base, hurst=h, seed=seed)
        field = generate_leaf_signs(params, depth)
        report = verify_self_similarity(field, split_depth=3)
        assert report.passed and report.tolerance == 1e-10
        assert report.max_rel_violation <= 1e-12
        assert report.subtrees_checked == base**3
        assert report.subtree_depth == depth - 3


def test_self_similarity_holds_for_any_bits():
    """The identity is algebraic: a field of random bytes passes it too,
    so it checks the path assembly, not the law of the field."""
    bytes_ = np.random.default_rng(7).integers(0, 256, 2**9, dtype=np.uint8)
    field = core.LeafSignField(params=CascadeParams(base=2, hurst=0.7),
                               depth=12, packed=bytes_)
    assert verify_self_similarity(field, split_depth=5).passed


def test_self_similarity_hashes_the_split_once(monkeypatch):
    """sign(w) is read off the field and its row, so the depth-p field is
    hashed once per check, inside :func:`subtree_rows`."""
    field = generate_leaf_signs(CascadeParams(base=3, hurst=0.7), 7)
    calls = []

    def spy(params, depth):
        calls.append(depth)
        return generate_leaf_signs(params, depth)

    monkeypatch.setattr(core, "generate_leaf_signs", spy)
    for split in (2, 4):
        assert verify_self_similarity(field, split_depth=split).passed
    assert calls == [2, 4]


@pytest.mark.parametrize("base, depth", [(2, 9), (3, 5)])
def test_subtree_rows_divide_out_the_branch_product(base, depth):
    """Row j is the field's leaves under node j XOR node j's bit; p = 0
    gives the field's bits as one row, and p = depth gives b^depth rows
    that are each a single 0."""
    field = generate_leaf_signs(CascadeParams(base=base, hurst=0.7,
                                              seed=SEED), depth)
    bits = field.leaf_bits()
    top = generate_leaf_signs(field.params, 2).leaf_bits()
    rows = subtree_rows(field, 2)
    assert rows.dtype == np.uint8 and rows.shape == (base**2,
                                                     base**(depth - 2))
    assert np.array_equal(rows, bits.reshape(base**2, -1) ^ top[:, None])
    assert np.array_equal(subtree_rows(field, 0), bits[None, :])
    assert np.array_equal(subtree_rows(field, depth),
                          np.zeros((base**depth, 1), dtype=np.uint8))


@pytest.mark.parametrize("p", [-1, 7])
def test_subtree_rows_refuse_a_split_outside_the_depth(p, monkeypatch):
    """The split is checked before the depth-p field is hashed."""
    field = generate_leaf_signs(CascadeParams(base=2, hurst=0.7), 6)

    def no_hashing(*args, **kwargs):
        raise AssertionError("a field was hashed before the check")

    monkeypatch.setattr(core, "generate_leaf_signs", no_hashing)
    with pytest.raises(ValueError, match=rf"p must lie in \[0, 6\], got {p}"):
        subtree_rows(field, p)


#: The seeds the subtree-law test pools, fixed before its gate first ran.
LAW_SEEDS = (1, 2, 3)


@pytest.mark.parametrize("base, h, depth, split", [
    (2, 0.7, 20, 10), (2, 0.5, 20, 10), (2, 0.3, 20, 10), (3, 0.8, 13, 7)])
def test_subtree_sums_match_the_exact_moments(base, h, depth, split):
    """The hashed field's law: each subtree sum S of :func:`subtree_rows`
    gives a replica Z = b^(-(n-p)H) * S of Z_(n-p), and E Z^q for
    q = 1..4, pooled over the b^p subtrees of each of ``LAW_SEEDS``, lies
    within ``Z_BAND`` standard errors of ``z_moment_recursion`` (the
    largest |z| read 1.58).  The odd orders are what see the branch
    product: rows not XORed with it scored -8.4 to -60.1 at q = 1 and 3,
    and within 1.3 at q = 2 and 4."""
    m = depth - split
    params = CascadeParams(base=base, hurst=h)
    z = np.concatenate([
        base**m - 2.0 * subtree_rows(generate_leaf_signs(
            CascadeParams(base=base, hurst=h, seed=seed), depth),
            split).sum(axis=1)
        for seed in LAW_SEEDS]) * params.weight_scale(m)
    assert z.size == len(LAW_SEEDS) * base**split
    exact = z_moment_recursion(params, m, 4).values[m]
    scores = [(np.mean(z**q) - exact[q])
              / (np.std(z**q, ddof=1) / math.sqrt(z.size))
              for q in range(1, 5)]
    assert max(abs(s) for s in scores) <= Z_BAND, scores


def test_self_similarity_needs_interior_split():
    params = CascadeParams(base=2, hurst=0.7, seed=0)
    field = generate_leaf_signs(params, 6)
    with pytest.raises(ValueError):
        verify_self_similarity(field, split_depth=6)


@pytest.mark.parametrize("h", [0.7, 0.5, 0.3, None])
def test_martingale_identity_exhaustive(h):
    """E[B_{n+1} | generation-n signs] equals B_n on the finer grid.

    The conditional mean is enumerated over all fresh-sign assignments;
    B_n at generation-(n+1) points is its linear interpolant.
    """
    params = CascadeParams(base=2, hurst=h, seed=7)
    for n in (0, 1, 2):
        field = generate_leaf_signs(params, n)
        cond_mean = enumerate_next_level_mean(field)
        path = build_path(field)
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
        enumerate_next_level_mean(field)


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


def test_two_depth_draw_matches_single_depth_sampler():
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


#: Refusals with their messages: a negative chain depth, an empty depth
#: list, more than 4096 branches, a negative branch depth, fewer than one
#: branch replica, a normalized table without a row past the start, and
#: an enumeration to a negative depth or of no moment order.
REFUSALS = {
    "check_chain_depths": (ValueError, r"depth must be >= 0",
                           lambda: check_chain_depths(2, (4, -1))),
    "sample_terminal_depths": (ValueError, "the depth list is empty",
                               lambda: sample_terminal_depths(
                                   CascadeParams(base=2, hurst=0.7), (), 10)),
    "sample_branch_signs": (CapacityError, "meant for shallow tops",
                            lambda: sample_branch_signs(
                                CascadeParams(base=2, hurst=0.3), 13, 1)),
    "sample_branch_signs-depth": (ValueError, r"depth must be >= 0",
                                  lambda: sample_branch_signs(
                                      CascadeParams(base=2, hurst=0.3),
                                      -1, 10)),
    "sample_branch_signs-reps": (ValueError, r"reps must be >= 1",
                                 lambda: sample_branch_signs(
                                     CascadeParams(base=2, hurst=0.3), 2, -3)),
    "sample_branch_signs-no-reps": (ValueError, r"reps must be >= 1",
                                    lambda: sample_branch_signs(
                                        CascadeParams(base=2, hurst=0.3),
                                        2, 0)),
    "brute_force_moments-n_max": (ValueError, r"n_max must be >= 0",
                                  lambda: brute_force_moments(
                                      CascadeParams(base=2, hurst=0.7),
                                      -1, 2)),
    "brute_force_moments-q_max": (ValueError, r"q_max must be >= 1",
                                  lambda: brute_force_moments(
                                      CascadeParams(base=2, hurst=0.7),
                                      2, -1)),
    "normalized_moment_recursion": (ValueError, r"n_max must be >= 1",
                                    lambda: normalized_moment_recursion(
                                        CascadeParams(base=2, hurst=0.5),
                                        0, 4)),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusals_raise_their_messages(name):
    error, message, call = REFUSALS[name]
    with pytest.raises(error, match=message):
        call()

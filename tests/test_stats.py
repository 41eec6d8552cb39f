"""Tests for the Monte-Carlo verification layer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cascadekit import stats
from cascadekit.core import (
    CapacityError,
    CascadeParams,
    regime_divisor,
    sample_branch_signs,
    sample_terminal,
    sigma,
)
from cascadekit.moments import closed_form_second_moment
from cascadekit.stats import (
    D_THRESHOLD_CRITICAL,
    D_THRESHOLD_FAST,
    StatReport,
    clt_small_h_test,
    clt_terminal_trend,
    empirical_vs_exact_moments,
    increments_gaussianity,
    ks_statistic,
    residual_clt_test,
)

REPS = 4000
SIGMA_RESID_H07 = 1.0319430604753999  # sqrt(ell - 1) at H = 0.7, b = 2


def test_ks_statistic_basics():
    """Closed-form cases of the two-sided order-statistic form."""
    assert math.isclose(ks_statistic(np.zeros(1)), 0.5)
    d_const = ks_statistic(np.zeros(1000))
    assert d_const >= 0.5
    with pytest.raises(ValueError):
        ks_statistic(np.array([]))
    # custom reference: exact uniform spacings give D = 1/(2N)
    u = (np.arange(1, 11) - 0.5) / 10
    d = ks_statistic(u, reference_cdf=lambda x: x)
    assert math.isclose(d, 0.05, rel_tol=1e-12)


def _ks_every_point(samples, cdf):
    """The order-statistic form with the CDF evaluated at every sorted
    sample, ties included."""
    xs = np.sort(np.asarray(samples, dtype=float))
    f = cdf(xs)
    n = xs.size
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - f, f - (i - 1) / n)))


#: A lattice sample with ties, one sample, a sample holding NaN, a
#: constant sample, and a continuous sample whose distinct values fill
#: three CDF blocks and five values of a fourth.
KS_SAMPLES = {
    "lattice": np.random.default_rng(5).integers(-6, 7, 3000) / 4.0,
    "single": np.array([0.3]),
    "nan": np.array([0.5, np.nan, -1.0, 0.5, np.nan, 2.0]),
    "constant": np.full(500, -0.25),
    "continuous": np.random.default_rng(6).standard_normal(
        3 * stats._KS_BLOCK + 5),
}


@pytest.mark.parametrize("cdf", [None, lambda x: np.clip(x / 4 + 0.5, 0, 1)],
                         ids=["ndtr", "uniform"])
@pytest.mark.parametrize("case", sorted(KS_SAMPLES))
def test_ks_evaluates_the_cdf_once_per_distinct_value(case, cdf):
    """The CDF sees each distinct sample once, in strictly increasing
    order across calls of at most ``_KS_BLOCK`` values each, and the
    distance keeps the bits of the CDF evaluated at every sorted
    sample."""
    samples = KS_SAMPLES[case]
    reference = stats._ndtr if cdf is None else cdf
    seen = []

    def spy(x):
        seen.append(x.copy())
        return reference(x)

    got = ks_statistic(samples, spy)
    assert all(0 < x.size <= stats._KS_BLOCK for x in seen)
    inputs = np.concatenate(seen)
    assert len(seen) == -(-inputs.size // stats._KS_BLOCK)
    finite = inputs[~np.isnan(inputs)]
    assert np.all(np.diff(finite) > 0)
    assert np.array_equal(finite, np.unique(samples[~np.isnan(samples)]))
    assert inputs.size - finite.size == np.isnan(samples).sum()
    want = _ks_every_point(samples, reference)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    if cdf is None:
        assert np.float64(ks_statistic(samples)).tobytes() == \
            np.float64(got).tobytes()


def test_ks_threshold_and_calibration():
    """The 1% asymptotic KS point, 1.63/sqrt(N) (sqrt(-log(0.01)/2)
    rounded up), rejects about 1% of genuinely normal batches; at most 5%
    keeps it usable as a gate."""
    n = 2000
    limit = 1.63 / math.sqrt(n)
    rng = np.random.default_rng(0)
    hits = sum(ks_statistic(rng.standard_normal(n)) > limit
               for _ in range(100))
    assert hits <= 5


def _z_score_by_std(x, target):
    """The z-score as ``x.mean()`` and ``x.std(ddof=1)`` give it."""
    se = float(x.std(ddof=1)) / math.sqrt(x.size)
    diff = abs(float(x.mean()) - target)
    if se == 0.0:
        return 0.0 if diff <= 1e-12 * max(1.0, abs(target)) else math.inf
    return diff / se


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(n=st.integers(2, 5000),
       kind=st.sampled_from(["normal", "lattice", "constant"]),
       seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-300, 1e-8, 0.1, 1.0, 3.0, 1e8, 1e150]),
       loc=st.sampled_from([0.0, 0.1, -7.5, 1e8]),
       specials=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]),
                         max_size=3),
       target=st.one_of(st.none(), st.floats(-1e3, 1e3)))
@example(n=2, kind="constant", seed=0, scale=1.0, loc=0.1, specials=[],
         target=None)
@example(n=4000, kind="constant", seed=0, scale=1.0, loc=0.1, specials=[],
         target=0.1)
@example(n=3, kind="normal", seed=1, scale=1.0, loc=0.0,
         specials=[math.inf, -math.inf], target=0.0)
def test_z_score_keeps_the_bits_of_numpy_std(n, kind, seed, scale, loc,
                                             specials, target):
    """``_z_score`` consumes its sample, taking the variance in its
    buffer, and keeps the bits of the score through ``x.std(ddof=1)``,
    NaN for NaN, the SE = 0 branch included, on normal, lattice-tied and
    constant samples with infinities and NaNs mixed in; a numpy whose
    variance took other steps would fail here."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        x = rng.standard_normal(n)
    elif kind == "lattice":
        x = rng.integers(-6, 7, n) / 4.0
    else:
        x = np.ones(n)
    x = x * scale + loc
    x[rng.integers(0, n, len(specials))] = specials
    with np.errstate(all="ignore"):
        if target is None:
            target = float(x.mean())
        want = _z_score_by_std(x, target)
        got = stats._z_score(x.copy(), target)
    assert np.float64(got).tobytes() == np.float64(want).tobytes() or \
        (math.isnan(got) and math.isnan(want))


def test_stat_report_gating():
    """Only keys present in ``thresholds`` decide the pass flag."""
    r = StatReport(test="demo", params=CascadeParams(), sample_size=10,
                   statistics={"a": 1.0, "b": 99.0}, thresholds={"a": 2.0})
    assert r.passed
    assert "PASS" in r.summary_line()
    assert "a=1" in r.summary_line()
    bad = StatReport(test="demo", params=CascadeParams(), sample_size=10,
                     statistics={"a": 3.0}, thresholds={"a": 2.0})
    assert not bad.passed
    assert "FAIL" in bad.summary_line()


def test_clt_terminal_guard_raises_before_sampling(monkeypatch):
    """Regime errors come before any replica is drawn."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the regime guard")

    monkeypatch.setattr("cascadekit.stats.sample_terminal_depths",
                        no_sampling)
    with pytest.raises(ValueError):
        clt_terminal_trend(CascadeParams(base=2, hurst=0.7), (8,), 100)
    with pytest.raises(ValueError):
        clt_terminal_trend(CascadeParams(base=2, hurst=0.5), (0,), 100)


H07 = CascadeParams(base=2, hurst=0.7)
H03 = CascadeParams(base=2, hurst=0.3)

#: Every check that takes sample standard errors (ddof=1), with valid
#: arguments apart from ``reps``.
SE_CHECKS = {
    "terminal": lambda reps: clt_terminal_trend(H03, (8,), reps),
    "trend": lambda reps: clt_terminal_trend(H03, (4, 8), reps),
    "smallh": lambda reps: clt_small_h_test((0.8, 0.65), 8, reps),
    "increments": lambda reps: increments_gaussianity(H03, 2, 8, reps),
    "residual": lambda reps: residual_clt_test(H07, 8, reps),
    "moments": lambda reps: empirical_vs_exact_moments(H07, 8, reps, 4),
}


@pytest.mark.parametrize("reps", [0, 1])
@pytest.mark.parametrize("check", sorted(SE_CHECKS))
def test_fewer_than_two_replicas_rejected_before_sampling(monkeypatch,
                                                          check, reps):
    """One replica has no sample standard error; no draw is made."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the replica guard")

    for name in ("sample_terminal", "sample_terminal_depths",
                 "sample_branch_signs"):
        monkeypatch.setattr(f"cascadekit.stats.{name}", no_sampling)
    with pytest.raises(ValueError, match=r"reps >= 2"):
        SE_CHECKS[check](reps)


#: The KS gate of each check: the critical terminal law converges slowest
#: and gets the wider gate.
KS_GATES = {
    "terminal-critical": (lambda: clt_terminal_trend(
        CascadeParams(base=2, hurst=0.5), (8,), 50)[0][0], "ks_distance",
        D_THRESHOLD_CRITICAL),
    "terminal-divergent": (lambda: clt_terminal_trend(H03, (8,), 50)[0][0],
                           "ks_distance", D_THRESHOLD_FAST),
    "increments": (lambda: increments_gaussianity(H03, 2, 8, 50),
                   "marginal_ks_max", D_THRESHOLD_FAST),
    "residual": (lambda: residual_clt_test(H07, 8, 50), "ks_distance",
                 D_THRESHOLD_FAST),
}


@pytest.mark.parametrize("check", sorted(KS_GATES))
def test_ks_gate_of_each_check(check):
    run, key, gate = KS_GATES[check]
    assert run().thresholds[key] == gate


def test_terminal_clt_symmetric():
    params = CascadeParams.symmetric(base=2, seed=0)
    (r,), _ = clt_terminal_trend(params, (16,), REPS)
    assert r.passed
    assert r.statistics["ks_distance"] <= D_THRESHOLD_FAST
    assert r.statistics["moment2_z"] <= 4.0


def test_terminal_clt_critical_moments_pass_ks_lags():
    """Critical depth 16: moments match the exact table, KS does not.

    The critical normalized law at n = 16 sits a genuine ~0.15 KS away
    from the limit normal (the 1/sqrt(n) log-factor correction), so the
    moment gates pass while the distributional gate honestly fails at
    this depth.
    """
    params = CascadeParams(base=2, hurst=0.5, seed=0)
    (r,), _ = clt_terminal_trend(params, (16,), REPS)
    for q in range(1, 5):
        assert r.statistics[f"moment{q}_z"] <= 4.0
    assert math.isclose(r.statistics["moment2_exact"], 1.125, rel_tol=1e-12)
    d = r.statistics["ks_distance"]
    assert D_THRESHOLD_CRITICAL < d < 0.25
    assert not r.passed


def test_terminal_clt_divergent_trend():
    """Divergent KS decreases strictly along depths 8, 12, 16."""
    params = CascadeParams(base=2, hurst=0.3, seed=0)
    reports, decreasing = clt_terminal_trend(params, (8, 12, 16), REPS)
    assert decreasing
    assert reports[-1].statistics["ks_distance"] <= D_THRESHOLD_FAST
    assert reports[-1].passed


def test_terminal_clt_regime_guards():
    with pytest.raises(ValueError):
        clt_terminal_trend(CascadeParams(base=2, hurst=0.7, seed=0), (8,),
                           100)
    with pytest.raises(ValueError):
        clt_terminal_trend(CascadeParams(base=2, hurst=0.5, seed=0), (0,),
                           100)


def test_small_h_scaling():
    """Finite-n scaled marginals match N(0,1) moments for H near 1."""
    reports, _ = clt_small_h_test((0.8, 0.65), 16, REPS, seed=0)
    gaps = []
    for r in reports:
        assert r.passed
        assert r.statistics["mean_z"] <= 4.0
        assert r.statistics["m2_z"] <= 4.0
        gaps.append(abs(r.statistics["scale"] - r.statistics["limit_scale"]))
    # truncation between the finite-n and limit factors grows toward 1/2
    assert gaps[1] > gaps[0]
    assert gaps[0] <= 1e-3


def test_small_h_limit_scale_mean_far_from_critical():
    """At H = 0.8 the depth-16 truncation is already below the MC band,
    so the mean matches the limit-law factor 1/sigma_H too."""
    params = CascadeParams(base=2, hurst=0.8, seed=0)
    from cascadekit.core import sample_terminal
    from cascadekit.moments import closed_form_second_moment, sigma
    scale = 1.0 / math.sqrt(closed_form_second_moment(params, 16))
    y = scale * sample_terminal(params, 16, REPS)
    se = y.std(ddof=1) / math.sqrt(REPS)
    assert abs(y.mean() - 1.0 / sigma(params)) <= 4 * se


def test_small_h_rejects_nonconvergent():
    with pytest.raises(ValueError):
        clt_small_h_test((0.5,), 8, 100)


def test_small_h_guard_checks_every_h_before_sampling(monkeypatch):
    """A bad H late in the sequence is caught before any draw and named."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the regime guard")

    monkeypatch.setattr("cascadekit.stats.sample_terminal", no_sampling)
    with pytest.raises(ValueError, match=r"H = 0\.3 "):
        clt_small_h_test((0.8, 0.3), 8, 100)


def test_small_h_degenerate_h_one():
    """H = 1 makes Z_n = 1 exactly: zero SE must not blow up the z-scores."""
    (r,), _ = clt_small_h_test([1.0], 8, 100)
    assert r.passed
    assert r.statistics["mean_z"] == 0.0
    assert r.statistics["m2_z"] == 0.0


def test_increments_symmetric():
    params = CascadeParams.symmetric(base=2, seed=0)
    r = increments_gaussianity(params, 2, 12, REPS)
    assert r.passed
    assert r.statistics["marginal_ks_max"] <= D_THRESHOLD_FAST
    assert r.statistics["var_z_max"] <= 4.0
    assert r.statistics["offdiag_z_max"] <= 4.0


def test_increments_negative_control():
    """Two levels below the split the subtree mass is visibly non-normal.

    The same seed at n = p + 2 must degrade the marginal KS by a large
    factor; this guards against the test statistic being insensitive.
    """
    params = CascadeParams.symmetric(base=2, seed=0)
    good = increments_gaussianity(params, 2, 12, REPS)
    bad = increments_gaussianity(params, 2, 4, REPS)
    assert not bad.passed
    assert (bad.statistics["marginal_ks_max"]
            > 3 * good.statistics["marginal_ks_max"])


def test_increments_guards():
    with pytest.raises(ValueError):
        increments_gaussianity(CascadeParams(base=2, hurst=0.7, seed=0),
                               2, 8, 100)
    with pytest.raises(ValueError):
        increments_gaussianity(CascadeParams.symmetric(seed=0), 8, 8, 100)


def test_increments_critical_factor():
    """At H = 1/2 each column carries the extra sqrt((n - p)/n).  The
    report's var_err_max is that of the draws rebuilt with it, bit for
    bit, and the pooled column variance is the exact one,

      b^-p E Z_(n-p)^2 / (sigma^2 n) - (delta^p b^(-p/2) / (sigma sqrt n))^2,

    0.867 b^-p here with delta = E(eps); without the factor it would read
    n/(n - p) = 4/3 times that.  The 2 % band is about four standard
    errors of the pooled variance at these replicas."""
    b, p, n = 2, 4, 16
    params = CascadeParams(base=b, hurst=0.5, seed=1)
    report = increments_gaussianity(params, p, n, REPS)

    incr = sample_terminal(params, n - p, REPS * b**p).reshape(REPS, b**p)
    incr /= regime_divisor(params, n - p)
    incr *= sample_branch_signs(params, p, REPS)
    incr *= float(b) ** (-p / 2.0) * math.sqrt((n - p) / n)
    target = float(b) ** (-p)
    variances = incr.var(axis=0, ddof=1)
    assert report.statistics["var_err_max"] == float(
        np.max(np.abs(variances - target)))

    s2n = sigma(params) ** 2 * n
    mean = params.eps_mean**p * math.sqrt(target)
    exact = (target * closed_form_second_moment(params, n - p) / s2n
             - mean**2 / s2n)
    assert exact / target == pytest.approx(0.867, abs=5e-4)
    assert abs(variances.mean() / exact - 1.0) < 0.02


def test_residual_clt():
    """Residual (Z_deep - Z_n), rescaled, is normal with frozen scale."""
    params = CascadeParams(base=2, hurst=0.7, seed=0)
    r = residual_clt_test(params, 8, REPS)
    assert r.passed
    assert r.statistics["ks_distance"] <= D_THRESHOLD_FAST
    assert math.isclose(r.statistics["sigma_resid"], SIGMA_RESID_H07,
                        rel_tol=1e-12)


#: Bad arguments that a check would meet only after a valid draw, or
#: never: q_max past the table's cap, a bad depth after a good one, trend
#: depths that do not strictly increase, or a residual limit proxy of
#: fewer than one extra level.
LATE_BAD_ARGS = {
    "moments-q99": (ValueError,
                    lambda: empirical_vs_exact_moments(H07, 8, 100, 99)),
    "trend-depth70": (CapacityError,
                      lambda: clt_terminal_trend(H03, (8, 70), 100)),
    "trend-critical-depth0": (ValueError, lambda: clt_terminal_trend(
        CascadeParams(base=2, hurst=0.5), (8, 0), 100)),
    "trend-unordered": (ValueError, lambda: clt_terminal_trend(
        H03, (12, 8), 100)),
    "trend-repeated": (ValueError, lambda: clt_terminal_trend(
        H03, (8, 8), 100)),
    "increments-depth70": (CapacityError,
                           lambda: increments_gaussianity(H03, 2, 70, 100)),
    "residual-proxy0": (ValueError, lambda: residual_clt_test(
        H07, 8, 100, proxy_levels=0)),
    "residual-proxy-3": (ValueError, lambda: residual_clt_test(
        H07, 8, 100, proxy_levels=-3)),
}


@pytest.mark.parametrize("case", sorted(LATE_BAD_ARGS))
def test_sampler_guards_run_before_the_first_draw(monkeypatch, case):
    """Every argument is checked before the first replica is drawn."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the guard")

    for name in ("sample_terminal", "sample_terminal_depths",
                 "sample_branch_signs"):
        monkeypatch.setattr(f"cascadekit.stats.{name}", no_sampling)
    error, check = LATE_BAD_ARGS[case]
    with pytest.raises(error):
        check()


def test_residual_clt_guards():
    with pytest.raises(ValueError):
        residual_clt_test(CascadeParams(base=2, hurst=0.5, seed=0), 8, 100)
    with pytest.raises(ValueError):
        residual_clt_test(CascadeParams(base=2, hurst=1.0, seed=0), 8, 100)


def test_empirical_vs_exact_moments():
    params = CascadeParams(base=2, hurst=0.7, seed=0)
    r = empirical_vs_exact_moments(params, 10, 20000, 4)
    assert r.passed
    for q in range(1, 5):
        assert r.statistics[f"moment{q}_z"] <= 4.0


def test_empirical_vs_exact_moments_degenerate():
    """H = 1 is deterministic: zero SE must not blow up the z-scores."""
    params = CascadeParams(base=2, hurst=1.0, seed=0)
    r = empirical_vs_exact_moments(params, 10, 100, 4)
    assert r.passed
    assert all(r.statistics[f"moment{q}_z"] == 0.0 for q in range(1, 5))

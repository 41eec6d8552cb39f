"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Every criterion prints exactly one PASS/FAIL line (criterion 5 prints
two: its two halves are gated separately, see 05b) carrying the measured
values and the pinned tolerance, then asserts.  Seeds are pinned per
criterion; thresholds were pilot-calibrated and are recorded next to the
assertions.  Each test also asserts its own runtime budget.

Criterion 05b is expected to FAIL: the depth-16 critical marginal has
mean 1/a_16 = 0.354, which the check does not subtract, and a normal law
with that mean alone sits 0.1403 in KS from N(0,1), a floor that falls
only like 1/sqrt(n) and that no sample size or seed can push under the
0.08 gate.  The failing assertion is kept rather than loosened; the
verdict line prints the floor next to the distance and the gate.
"""

import math
import resource
import time

import numpy as np

from cascadekit.charfn import density_of_z
from cascadekit.cli import main as cli_main
from cascadekit.core import (
    CascadeParams,
    build_path,
    enumerate_next_level_mean,
    evaluate,
    generate_leaf_signs,
    regime_divisor,
    sample_terminal,
    verify_self_similarity,
)
from cascadekit.fractal import (
    HOLDER_J_RANGE,
    box_dimension,
    increment_scaling_exponent,
    pointwise_holder_profile,
    summarize_field,
)
from cascadekit.moments import (
    brute_force_moments,
    gaussian_even_moments,
    limit_z_moments,
    z_moment_recursion,
)
from cascadekit.stats import (
    clt_small_h_test,
    clt_terminal_trend,
    increments_gaussianity,
    ks_statistic,
)

REPS = 4000

# pinned seeds (trend/estimate assertions are seed-sensitive by nature;
# these were fixed by pilot runs and never tuned afterwards)
SEED_TREND_HM2 = 20
SEED_TREND_H03 = 0
SEED_TREND_H05 = 0
SEED_SMALL_H = 0
SEED_INCREMENTS = 8
SEED_FRACTAL = 35
SEED_DENSITY_MC = 5
SEED_STRUCTURAL = 424242


def verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_oracle_equivalence():
    """Exhaustive enumeration vs moment recursion, five H values."""
    t0 = time.perf_counter()
    worst = 0.0
    for h in (-2.0, 0.3, 0.5, 0.7, 0.95):
        params = CascadeParams(base=2, hurst=h)
        oracle = brute_force_moments(params, 3, 6)
        table = z_moment_recursion(params, 3, 6)
        dev = np.max(np.abs(oracle.values[:, 1:] - table.values[:, 1:])
                     / np.maximum(1.0, np.abs(oracle.values[:, 1:])))
        worst = max(worst, float(dev))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 10.0
    assert verdict("01 oracle-equivalence",
                   ok, f"max relative deviation {worst:.2e} <= 1e-10 over "
                       f"H in {{-2, 0.3, 0.5, 0.7, 0.95}}, n <= 3, q <= 6; "
                       f"{dt:.2f}s < 10s")


def test_criterion_02_closed_form_second_moments():
    """Critical and divergent E(Z_n^2) closed forms; convergent limit."""
    t0 = time.perf_counter()
    worst = 0.0
    crit = CascadeParams(base=2, hurst=0.5)
    table = z_moment_recursion(crit, 40, 2)
    for n in range(41):
        want = 1.0 + n / 2.0
        worst = max(worst, abs(table.value(n, 2) - want) / want)
    div = CascadeParams(base=2, hurst=0.3)
    table = z_moment_recursion(div, 40, 2)
    ell = 1.0 / (2.0 - 2.0 ** (2.0 - 2.0 * 0.3))
    for n in range(41):
        want = ell + 2.0 ** (n * (1.0 - 2.0 * 0.3)) * (1.0 - ell)
        worst = max(worst, abs(table.value(n, 2) - want) / want)
    # limit second moment at H = 0.7, from the independently evaluated
    # formula (2 - 2^0.6)^(-1) = 2.0649064800633348
    limit = float(limit_z_moments(CascadeParams(base=2, hurst=0.7), 2)[1])
    target = 1.0 / (2.0 - 2.0**0.6)
    lim_err = abs(limit - target) / target
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and lim_err <= 1e-9 and dt < 5.0
    assert verdict("02 closed-form-moments",
                   ok, f"table vs closed forms {worst:.2e} <= 1e-12 "
                       f"(n <= 40); limit E(Z^2) = {limit:.10f} vs "
                       f"{target:.10f}, err {lim_err:.2e} <= 1e-9")


def test_criterion_03_gaussian_induction():
    """Even-moment induction equals (2p-1)!! exactly in rational mode."""
    t0 = time.perf_counter()
    exact = gaussian_even_moments(8)
    want = [1, 3, 15, 105, 945, 10395, 135135, 2027025]
    ok = all(a == b for a, b in zip(exact, want))
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    assert verdict("03 gaussian-induction",
                   ok, f"M^(2p) = (2p-1)!! for p <= 8, exact rational "
                       f"arithmetic, values {', '.join(str(v) for v in want)}")


def test_criterion_04_structural_identities():
    """Self-similarity, uniform increment magnitude, martingale property."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED_STRUCTURAL)

    worst_ss = 0.0
    worst_mag = 0.0
    for h in (0.7, 0.5, 0.3):
        for _ in range(2):
            split = int(rng.integers(2, 6))
            depth = int(rng.integers(split + 2, 17))  # split + n <= 16
            seed = int(rng.integers(0, 2**32))
            params = CascadeParams(base=2, hurst=h, seed=seed)
            field = generate_leaf_signs(params, depth)
            rep = verify_self_similarity(field, split)
            worst_ss = max(worst_ss, rep.max_rel_violation)
            path = build_path(field, max_points=2**depth)
            scale = params.weight_scale(depth)
            mags = np.abs(np.diff(path.values))
            worst_mag = max(worst_mag,
                            float(np.max(np.abs(mags - scale)) / scale))

    worst_mart = 0.0
    for h in (0.7, 0.5, 0.3, -2.0):
        params = CascadeParams(base=2, hurst=h,
                               seed=int(rng.integers(0, 2**32)))
        for n in range(4):
            field = generate_leaf_signs(params, n)
            cond = enumerate_next_level_mean(field)
            path = build_path(field)
            fine = np.arange(2 ** (n + 1) + 1) / 2.0 ** (n + 1)
            walk = evaluate(path, fine)
            # relative: at H < 0 the walk amplitude is b^(n|H|), so an
            # absolute gate would measure scale, not roundoff
            dev = np.max(np.abs(cond - walk)) / max(1.0, np.max(np.abs(walk)))
            worst_mart = max(worst_mart, float(dev))
    dt = time.perf_counter() - t0
    ok = (worst_ss <= 1e-10 and worst_mag <= 1e-10
          and worst_mart <= 1e-10 and dt < 30.0)
    assert verdict("04 structural-identities",
                   ok, f"self-similarity {worst_ss:.2e} <= 1e-10, "
                       f"increment magnitude {worst_mag:.2e} <= 1e-10 "
                       f"(random seeds, split+n <= 16); exhaustive "
                       f"martingale mean, relative {worst_mart:.2e} "
                       f"<= 1e-10 (all regimes, n <= 3); {dt:.1f}s < 30s")


def test_criterion_05a_clt_trends_and_fast_thresholds():
    """KS decreases over depths 8/12/16; final D small off criticality."""
    t0 = time.perf_counter()
    results = {}
    for h, seed in ((-2.0, SEED_TREND_HM2), (0.3, SEED_TREND_H03),
                    (0.5, SEED_TREND_H05)):
        params = CascadeParams(base=2, hurst=h, seed=seed)
        reports, decreasing = clt_terminal_trend(params, (8, 12, 16), REPS)
        ds = [r.statistics["ks_distance"] for r in reports]
        results[h] = (ds, decreasing)
    dt = time.perf_counter() - t0
    ok = (all(dec for _, dec in results.values())
          and results[-2.0][0][-1] <= 0.05
          and results[0.3][0][-1] <= 0.05
          and dt <= 120.0)
    detail = "; ".join(
        f"H={h:g} D={'->'.join(f'{d:.4f}' for d in ds)}"
        f"{' decreasing' if dec else ' NOT decreasing'}"
        for h, (ds, dec) in results.items())
    assert verdict("05a clt-trend-h-le-half",
                   ok, detail + f"; final D <= 0.05 for H in {{-2, 0.3}}; "
                                f"seeds ({SEED_TREND_HM2}, "
                                f"{SEED_TREND_H03}, {SEED_TREND_H05}); "
                                f"{dt:.1f}s <= 120s")


def test_criterion_05b_critical_final_threshold():
    """Critical H = 1/2: final KS gate at 0.08.  Expected RED.

    X_16(1) = Z_16/a_16 has mean 1/a_16 = 0.354 (Z_n is a martingale)
    and variance exactly 1 (E Z_n^2 = 1 + a_n^2).  The check compares it
    with N(0,1) without subtracting that mean, and a N(1/a_16, 1) law
    alone sits erf(1/(2 sqrt(2) a_16)) = 0.1403 from N(0,1) in KS, the
    floor the verdict line prints; reps = 4000 adds ~0.01 of noise.  The
    gate is therefore unreachable at n = 16 and this test records that
    instead of loosening the threshold or deepening the run beyond the
    pinned protocol.
    """
    t0 = time.perf_counter()
    params = CascadeParams(base=2, hurst=0.5, seed=SEED_TREND_H05)
    reports, _ = clt_terminal_trend(params, (8, 12, 16), REPS)
    d_final = reports[-1].statistics["ks_distance"]
    # KS distance of N(mu, 1) from N(0, 1), at mu = E X_16(1) = 1/a_16
    floor = math.erf(1.0 / (2.0 * math.sqrt(2.0)
                            * regime_divisor(params, 16)))
    dt = time.perf_counter() - t0
    ok = d_final <= 0.08 and dt <= 120.0
    assert verdict("05b clt-critical-final-threshold",
                   ok, f"H=0.5 final D = {d_final:.4f} vs gate 0.08; "
                       f"N(1/a_16, 1), the normal law with the depth-16 "
                       f"mean, alone sits {floor:.4f} from N(0,1), so "
                       f"the gate cannot be met at this depth; seed "
                       f"{SEED_TREND_H05}")


def test_criterion_06_small_h_limit():
    """Scaled Z_16 approaches N(0,1) as H decreases to 1/2.

    The scale is the finite-depth factor 1/sqrt(E Z_16^2); its
    n -> infinity limit is the closed-form constant sqrt(2 - 2^(2-2H)),
    and at H = 0.8 the two differ by under 3e-4 (checked in the stats
    module tests).  Using the limit constant directly at depth 16 makes
    the second-moment claim false by construction near H = 1/2, where
    E Z_16^2 is still far from its limit.
    """
    t0 = time.perf_counter()
    hs = (0.8, 0.65, 0.55, 0.51)
    reports, decreasing = clt_small_h_test(hs, 16, REPS, seed=SEED_SMALL_H)
    ds = [r.statistics["ks_distance"] for r in reports]
    m2z = [r.statistics["m2_z"] for r in reports]
    dt = time.perf_counter() - t0
    ok = decreasing and all(z <= 4.0 for z in m2z) and dt <= 120.0
    assert verdict("06 small-h-limit",
                   ok, f"D along H={hs}: "
                       f"{'->'.join(f'{d:.4f}' for d in ds)}"
                       f"{' decreasing' if decreasing else ' NOT decreasing'}"
                       f"; second-moment z-scores "
                       f"{', '.join(f'{z:.2f}' for z in m2z)} all <= 4; "
                       f"seed {SEED_SMALL_H}; {dt:.1f}s <= 120s")


def test_criterion_07_brownian_increments():
    """Generation-4 increments at H = 0.3: variances and covariances."""
    t0 = time.perf_counter()
    params = CascadeParams(base=2, hurst=0.3, seed=SEED_INCREMENTS)
    report = increments_gaussianity(params, 4, 16, REPS)
    var_z = report.statistics["var_z_max"]
    off_z = report.statistics["offdiag_z_max"]
    dt = time.perf_counter() - t0
    ok = var_z <= 4.0 and off_z <= 4.0 and dt <= 60.0
    assert verdict("07 brownian-increments",
                   ok, f"16 marginal variances vs 2^-4: worst z = "
                       f"{var_z:.2f} <= 4; 120 off-diagonal covariances "
                       f"vs 0: worst z = {off_z:.2f} <= 4; seed "
                       f"{SEED_INCREMENTS}; {dt:.1f}s <= 60s")


def test_criterion_08_density_module():
    """Inverted density: normalization, moments, and KS vs MC draws."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for h in (0.7, 0.95):
        params = CascadeParams(base=2, hurst=h)
        res = density_of_z(params)
        integral = res.moment(0)
        mean = res.moment(1)
        second = res.moment(2)
        exact = float(limit_z_moments(params, 2)[1])
        cdf = res.cdf()
        z = sample_terminal(CascadeParams(base=2, hurst=h,
                                          seed=SEED_DENSITY_MC),
                            16, 100000)
        d = ks_statistic(z, lambda s: np.interp(s, res.x, cdf))
        ok = ok and (abs(integral - 1.0) <= 1e-6
                     and abs(mean - 1.0) <= 1e-4
                     and abs(second - exact) <= 1e-3
                     and d <= 0.02)
        details.append(f"H={h:g}: mass err {abs(integral - 1):.1e}, "
                       f"mean err {abs(mean - 1):.1e}, m2 err "
                       f"{abs(second - exact):.1e}, KS {d:.4f}")
    dt = time.perf_counter() - t0
    ok = ok and dt <= 60.0
    assert verdict("08 density-module",
                   ok, "; ".join(details) + f"; gates 1e-6/1e-4/1e-3/0.02; "
                                            f"{dt:.1f}s <= 60s")


def test_criterion_09_fractal_claims():
    """Box dimension 2-H, increment exponent H, pointwise profile.

    The 64-point profile is judged by its median and spread: individual
    mid-cell estimates at depth 18 scatter with sd ~ 0.06, so a few of
    the 64 routinely land just outside H +- 0.1 for every seed (the
    worst single point is printed for transparency); the profile's
    center and tightness are the stable quantities.
    """
    t0 = time.perf_counter()
    details = []
    ok = True
    for h, dim_target, dim_tol in ((0.7, 1.3, 0.1), (0.95, 1.05, 0.07)):
        params = CascadeParams(base=2, hurst=h, seed=SEED_FRACTAL)
        summary = summarize_field(generate_leaf_signs(params, 18),
                                  p_range=(4, 12), j_range=(4, 12),
                                  holder_range=HOLDER_J_RANGE)
        dim = box_dimension(summary).estimate
        exp = increment_scaling_exponent(summary).estimate
        prof = pointwise_holder_profile(summary)
        med = float(np.median(prof))
        spread = float(prof.std())
        worst_pt = float(np.max(np.abs(prof - h)))
        ok = ok and (abs(dim - dim_target) <= dim_tol
                     and abs(exp - h) <= 0.05
                     and abs(med - h) <= 0.1
                     and spread <= 0.1)
        details.append(f"H={h:g}: dim {dim:.3f} (target {dim_target} "
                       f"+- {dim_tol}), exponent {exp:.3f} (+- 0.05), "
                       f"profile median {med:.3f} (+- 0.1) spread "
                       f"{spread:.3f} (<= 0.1), worst point off by "
                       f"{worst_pt:.3f}")
    dt = time.perf_counter() - t0
    ok = ok and dt <= 120.0
    assert verdict("09 fractal-claims",
                   ok, "; ".join(details) + f"; seed {SEED_FRACTAL}; "
                                            f"{dt:.1f}s <= 120s")


def test_criterion_10_figure_regimes(tmp_path):
    """Four figure regimes at depths 8/12/18/27: deterministic, bounded."""
    runs = [
        (["--H", "0.95"], "path_b2_H0.95_n27.csv"),
        (["--H", "0.7"], "path_b2_H0.7_n27.csv"),
        (["--H", "0.5", "--normalize"], "path_b2_H0.5_n27_norm.csv"),
        (["--H", "-2", "--normalize"], "path_b2_H-2_n27_norm.csv"),
    ]
    depths = "8,12,18,27"
    worst_dt = 0.0
    ok = True
    for extra, deep_name in runs:
        t0 = time.perf_counter()
        code = cli_main(["simulate", "--depths", depths, "--seed", "1",
                         "--formats", "csv", "--outdir", str(tmp_path)]
                        + extra)
        dt = time.perf_counter() - t0
        worst_dt = max(worst_dt, dt)
        ok = ok and code == 0 and (tmp_path / deep_name).exists()
    # determinism: byte-identical repeat of one full invocation
    deep = tmp_path / "path_b2_H0.7_n27.csv"
    before = deep.read_bytes()
    cli_main(["simulate", "--depths", depths, "--seed", "1",
              "--formats", "csv", "--outdir", str(tmp_path), "--H", "0.7"])
    deterministic = deep.read_bytes() == before
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = ok and deterministic and worst_dt <= 60.0 and rss_mib <= 1024.0
    assert verdict("10 figure-regimes",
                   ok, f"4 regimes x depths {{8,12,18,27}} regenerated; "
                       f"repeat run byte-identical: {deterministic}; "
                       f"slowest regime {worst_dt:.1f}s <= 60s; peak rss "
                       f"{rss_mib:.0f} MiB <= 1024 MiB")

"""Monte-Carlo verification of the distributional limit claims.

Each test draws terminal masses through the exact-in-law count chain
(see :mod:`cascadekit.core`), normalizes them per regime, and
compares against the claimed limit law or against exact moment tables.
Draws at one depth come from ``sample_terminal``; draws at several
depths of one realization (the terminal trend, the residual's Z_n and
its limit proxy) come from one ``sample_terminal_depths`` call.  The
terminal central limit check has one entry, :func:`clt_terminal_trend`,
whose one-depth form is the single-depth check.
Results come back as :class:`StatReport` records whose pass flag means
"every gated statistic is at or below its threshold"; thresholds are
pilot-calibrated constants documented at the call sites, since the
underlying theorems come with no rates.

Conventions used throughout:

  * KS distances are against the standard normal CDF unless stated,
    evaluated by :func:`_ndtr`, a numpy port of Cephes' ``ndtr`` (with
    the C library's ``exp``) that gives scipy 1.17.1's bits without
    importing scipy.  :func:`ks_statistic` reads the sorted sample run
    of ties by run and calls the CDF on its distinct values in blocks,
    so its working set is the sorted copy and the run bounds.
  * The checks scale and difference their draws in place, in the
    buffers the samplers return, and :func:`_z_score` takes its variance
    in the buffer it is given.  The terminal trend holds its draws and
    one working column, which takes in turn each depth's sorted copy
    and its four powers.
  * Moment checks use 4-standard-error bands (two-sided z-scores), a
    per-test false-positive rate of about 6e-5.
  * All randomness flows from ``params.seed``; identical (params, n,
    reps) inputs reproduce identical statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CascadeParams,
    Regime,
    check_chain_depths,
    regime_divisor,
    regime_of,
    require_regime,
    sample_branch_signs,
    sample_terminal,
    sample_terminal_depths,
    sigma,
)
from .moments import (
    closed_form_second_moment,
    limit_z_moments,
    normalized_moment_recursion,
    z_moment_recursion,
)

#: Pilot-calibrated KS thresholds at (n=16, reps=4000).
D_THRESHOLD_FAST = 0.05     # divergent / symmetric
D_THRESHOLD_CRITICAL = 0.08  # critical (log-factor normalization, slower)

Z_BAND = 4.0


@dataclass(frozen=True)
class StatReport:
    """Self-describing result of one statistical verification run.

    ``statistics`` may carry informational values beyond the gated
    ones; only keys present in ``thresholds`` decide the pass flag.
    """

    test: str
    params: CascadeParams
    sample_size: int
    statistics: dict[str, float]
    thresholds: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(self.statistics[k] <= self.thresholds[k]
                   for k in self.thresholds)

    def summary_line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        gated = ", ".join(f"{k}={self.statistics[k]:.4g}"
                          f" (<= {self.thresholds[k]:.4g})"
                          for k in self.thresholds)
        return f"[{flag}] {self.test}: {gated}"


#: Coefficients of Cephes' ``ndtr.c`` (S. L. Moshier, *Methods and
#: Programs for Mathematical Functions*, 1989), leading term first:
#: erfc(z) = exp(-z^2) P(z)/Q(z) on [1, 8) and exp(-z^2) R(z)/S(z) from 8
#: up, erf(x) = x T(x^2)/U(x^2) on |x| <= 1.  Q, S and U have an implicit
#: leading 1.
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
      7.46321056442269912687E0, 4.86371970985681366614E1,
      1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3,
      5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
      3.54937778887819891062E2, 9.75708501743205489753E2,
      1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
      5.01905042251180477414E0, 6.16021097993053585195E0,
      7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
      1.20489539808096656605E1, 1.70814450747565897222E1,
      9.60896809063285878198E0, 3.36907645100081516050E0)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
      2.23200534594684319226E3, 7.00332514112805075473E3,
      5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4,
      4.92673942608635921086E4)
#: log of the largest double: exp(-z^2) underflows to 0 below -MAXLOG.
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = math.sqrt(0.5)
#: Distinct values per call of the KS distance's CDF.
_KS_BLOCK = 2**13


def _polevl(x: np.ndarray, coef: tuple[float, ...],
            leading_one: bool = False) -> np.ndarray:
    """Horner's rule from the leading coefficient, one multiply and one
    add per step (no fused multiply-add), as Cephes' ``polevl`` and, with
    ``leading_one``, ``p1evl`` evaluate it."""
    out = x + coef[0] if leading_one else coef[0] * x + coef[1]
    for c in coef[1 if leading_one else 2:]:
        out = out * x + c
    return out


def _erf_small(x: np.ndarray) -> np.ndarray:
    """Cephes' erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U, leading_one=True)


def _erfc_tail(z: np.ndarray) -> np.ndarray:
    """Cephes' erfc for z >= sqrt(1/2), each branch on its own elements:
    1 - erf(z) below 1, exp(-z^2) P(z)/Q(z) below 8, exp(-z^2) R(z)/S(z)
    from 8 up, and 0 where exp(-z^2) underflows."""
    e = np.zeros_like(z)
    near = z < 1.0
    e[near] = 1.0 - _erf_small(z[near])
    neg_sq = -z * z
    live = ~(neg_sq < -_MAXLOG)
    mid = z < 8.0
    for part, num, den in ((live & mid & ~near, _P, _Q),
                           (live & ~mid, _R, _S)):
        zp = z[part]
        ef = np.fromiter(map(math.exp, neg_sq[part].tolist()), float,
                         zp.size)
        e[part] = ef * _polevl(zp, num) / _polevl(zp, den, leading_one=True)
    return e


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF with the bits of scipy 1.17.1's
    ``scipy.special.ndtr``.

    Follows Cephes' ``ndtr``/``erf``/``erfc`` control flow: with
    x = a/sqrt(2) and z = |x|, 0.5 + 0.5 erf(x) for z < sqrt(1/2), else
    y = 0.5 erfc(z), flipped to 1 - y for x > 0.  Each branch runs on
    its own elements only.  exp(-z^2) comes from ``math.exp``, the C
    library's exp that the compiled code calls; numpy's vectorized exp
    differs from it in the last bit on about 1 % of inputs.  Every NaN
    input gives the default quiet NaN, as Cephes' early return does.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(all="ignore"):
        x = a.reshape(-1) * _SQRT1_2
        z = np.abs(x)
        y = np.empty_like(x)
        small = z < _SQRT1_2
        y[small] = 0.5 + 0.5 * _erf_small(x[small])
        tail = ~small
        yt = 0.5 * _erfc_tail(z[tail])
        y[tail] = np.where(x[tail] > 0, 1.0 - yt, yt)
    y[np.isnan(x)] = np.nan
    return y.reshape(a.shape)


def ks_statistic(samples: np.ndarray, reference_cdf=None) -> float:
    """Sup distance between the empirical CDF and a reference CDF.

    ``reference_cdf=None`` means the standard normal CDF, :func:`_ndtr`: a
    numpy port of Cephes' rational approximations with libm's ``exp``,
    bit-identical to scipy 1.17.1's ``scipy.special.ndtr``.  The distance
    is the two-sided order-statistic form
    max_i max(i/N - F(x_(i)), F(x_(i)) - (i-1)/N), read run by run: a run
    of equal sorted values at 0-based positions s..e-1 with CDF value F
    contributes max(e/N - F, F - s/N), which is the maximum over its
    positions bit for bit, because fl(i/N) and fl(a - F) are monotone.
    So the call holds the sorted copy and the run bounds only.  The CDF,
    which must act elementwise, is called on the distinct sorted values
    in blocks of at most :data:`_KS_BLOCK`, in increasing order; a
    lattice-valued sample pays for its distinct values only.  A NaN
    sample makes the distance NaN.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        raise ValueError("samples must be nonempty")
    return _ks_sorted(xs, _ndtr if reference_cdf is None else reference_cdf)


def _ks_sorted(xs: np.ndarray, reference_cdf) -> float:
    """:func:`ks_statistic` of the nonempty float64 sample ``xs``, which is
    already sorted (NaNs last, as ``np.sort`` puts them); it holds the
    run-edge mask, then the run bounds, beside ``xs``."""
    n = xs.size
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(xs[1:], xs[:-1], out=edge[1:n])
    bounds = np.flatnonzero(edge)
    del edge
    starts, ends = bounds[:-1], bounds[1:]  # run k is xs[starts[k]:ends[k]]
    d = -np.inf
    for k in range(0, starts.size, _KS_BLOCK):
        s = starts[k:k + _KS_BLOCK]
        e = ends[k:k + _KS_BLOCK]
        f = reference_cdf(xs[s])
        d = np.maximum(d, np.max(np.maximum(e / n - f, f - s / n)))
    return float(d)


def _require_replicas(reps: int) -> None:
    """Sample standard errors (``ddof=1``) need at least two replicas."""
    if reps < 2:
        raise ValueError("the sample standard error needs reps >= 2; "
                         f"got reps = {reps}")


def _z_score(x: np.ndarray, target: float) -> float:
    """|mean(x) - target| in units of the sample standard error.

    Consumes ``x``: its deviations from the mean are taken and squared
    in its buffer.  These are the steps of numpy 2.4.6's
    ``x.std(ddof=1)`` in its order (the mean as sum / n, the squared
    deviations summed and divided by n - 1, the square root), so the
    score keeps that call's bits without its temporary of the size of
    ``x``.  A constant sample (SE = 0, as for Z_n at H = 1) scores 0
    when the difference sits at float rounding scale (1e-12 relative,
    covering the log-space table's last-ulp wobble) and infinity
    otherwise.
    """
    n = x.size
    mean = x.mean()
    diff = abs(float(mean) - target)
    np.subtract(x, mean, out=x)
    np.square(x, out=x)
    se = math.sqrt(float(x.sum()) / (n - 1)) / math.sqrt(n)
    if se == 0.0:
        return 0.0 if diff <= 1e-12 * max(1.0, abs(target)) else math.inf
    return diff / se


def _strictly_decreasing(reports: list[StatReport]) -> bool:
    """Whether the KS distance falls strictly from each report to the next."""
    ds = [r.statistics["ks_distance"] for r in reports]
    return all(b < a for a, b in zip(ds, ds[1:]))


def clt_terminal_trend(params: CascadeParams, depths: tuple[int, ...],
                       reps: int) -> tuple[list[StatReport], bool]:
    """KS and first-four-moment check of X_n(1) against its normal limit
    at each depth n of ``depths``; also reports strict D decrease.

    Draws X_n(1) = Z_n / divisor and reports, per depth, the KS distance
    to N(0,1) plus z-scores of the first four sample moments against the
    exact normalized-moment table at that n (so the moment gates test the
    sampler against finite-n truth, not against the limit).  Every depth
    is drawn from one realization of the count chain
    (:func:`~cascadekit.core.sample_terminal_depths`), run once to the
    deepest depth; its columns are the draws of a run to each depth
    alone, so each report equals the one-depth trend's report at its
    depth, and a one-depth trend is the single-depth check.  The depths
    must strictly increase, so that the last report is the deepest run
    and the trend reads along growing n.
    """
    require_regime(params, "the terminal central limit check",
                   convergent=False,
                   why="the limit of X_n(1) is normal only there")
    _require_replicas(reps)
    # every depth is checked before the first draw
    divisors = []
    for n in depths:
        check_chain_depths(params.base, (n,))
        divisors.append(regime_divisor(params, n))
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise ValueError("--n: the terminal trend takes strictly increasing "
                         f"depths; got {','.join(map(str, depths))}")
    # rows come from a forward recursion: row n is the same at any depth
    table = normalized_moment_recursion(params, max((1, *depths)), 4)
    d_threshold = (D_THRESHOLD_CRITICAL
                   if regime_of(params) is Regime.CRITICAL
                   else D_THRESHOLD_FAST)
    columns = sample_terminal_depths(params, depths, reps)
    # the sorted copy and each power in turn, held beside the draws
    work = np.empty(reps)
    reports = []
    for n, x, divisor in zip(depths, columns, divisors):
        x /= divisor
        np.copyto(work, x)
        work.sort()
        stats: dict[str, float] = {"ks_distance": _ks_sorted(work, _ndtr)}
        thresholds: dict[str, float] = {"ks_distance": d_threshold}
        for q in range(1, 5):
            exact = table.values[n, q]
            if q == 1:
                np.copyto(work, x)
            elif q == 2:
                np.square(x, out=work)
            else:
                np.power(x, q, out=work)
            stats[f"moment{q}_z"] = _z_score(work, exact)
            stats[f"moment{q}_exact"] = float(exact)
            thresholds[f"moment{q}_z"] = Z_BAND
        reports.append(StatReport(test="clt_terminal", params=params,
                                  sample_size=x.size, statistics=stats,
                                  thresholds=thresholds))
    return reports, _strictly_decreasing(reports)


def clt_small_h_test(h_values, n: int, reps: int, *, base: int = 2,
                     seed: int = 0) -> tuple[list[StatReport], bool]:
    """Approach to Brownian marginals as H decreases toward 1/2.

    For each H in ``h_values`` (convergent regime), draws Z_n and scales
    by the exact finite-n factor 1/sqrt(E Z_n^2).  The limit-law factor
    sqrt(2 - 2^(2-2H)) = 1/sigma_H equals this up to truncation that
    vanishes as n grows, but at reachable depths the finite-n factor is
    the one that makes the second-moment gate honest near H = 1/2 (the
    count chain caps depth near 60 for b = 2, far short of where the
    limit factor converges; see the second-moment identity).
    Reports per H: KS distance to N(0,1) (informational here; the
    decreasing trend along the sequence is the theorem's content, and
    comes back beside the reports as the strict D decrease of
    :func:`clt_terminal_trend`), mean z-score against the exact scaled
    mean, and second-moment z-score against 1.  The H values must
    strictly decrease, so that the trend reads along H falling toward
    1/2.
    """
    _require_replicas(reps)
    runs = [CascadeParams(base=base, hurst=float(h), seed=seed)
            for h in h_values]
    for params in runs:
        require_regime(params, "the H-to-1/2 limit check", convergent=True,
                       why="for every H of the sequence")
    hs = [params.hurst for params in runs]
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("--h-values: the small-H check takes strictly "
                         f"decreasing H values; got {','.join(map(str, hs))}")
    out = []
    for params in runs:
        m2_n = closed_form_second_moment(params, n)
        scale = 1.0 / math.sqrt(m2_n)
        y = sample_terminal(params, n, reps)
        y *= scale
        d = ks_statistic(y)
        m2_z = _z_score(y**2, 1.0)  # before the mean's score consumes y
        stats = {"ks_distance": d, "mean_z": _z_score(y, scale),
                 "m2_z": m2_z,
                 "scale": scale, "limit_scale": 1.0 / sigma(params)}
        thresholds = {"mean_z": Z_BAND, "m2_z": Z_BAND}
        out.append(StatReport(test="clt_small_h", params=params,
                              sample_size=reps, statistics=stats,
                              thresholds=thresholds))
    return out, _strictly_decreasing(out)


def increments_gaussianity(params: CascadeParams, p: int, n: int,
                           reps: int) -> StatReport:
    """Generation-p increments of X_n against independent N(0, b^-p).

    The increment of X_n over the j-th generation-p cell factorizes as
    (branch sign at the cell) * (independent depth-(n-p) normalized
    terminal) * b^(-p/2), with an extra sqrt((n-p)/n) in the critical
    regime, so the b^p columns are sampled from that product form: one
    branch-sign draw per replica plus reps*b^p independent terminal
    draws.  Gates: max marginal KS (columns standardized by b^(p/2)),
    max marginal-variance z against b^-p, max off-diagonal covariance z
    against 0.
    """
    require_regime(params, "the increment gaussianity check",
                   convergent=False, why="Brownian-limit increments")
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    _require_replicas(reps)
    check_chain_depths(params.base, (n - p,))
    b = params.base
    cols = b**p
    w = sample_branch_signs(params, p, reps)
    incr = sample_terminal(params, n - p, reps * cols).reshape(reps, cols)
    incr /= regime_divisor(params, n - p)
    factor = float(b) ** (-p / 2.0)
    if regime_of(params) is Regime.CRITICAL:
        factor *= math.sqrt((n - p) / n)
    incr *= w
    incr *= factor

    standardize = float(b) ** (p / 2.0)
    d_max = max(ks_statistic(incr[:, j] * standardize) for j in range(cols))

    target_var = float(b) ** (-p)
    variances = incr.var(axis=0, ddof=1)
    se_var = target_var * math.sqrt(2.0 / reps)
    var_z = float(np.max(np.abs(variances - target_var))) / se_var

    cov = np.cov(incr, rowvar=False)
    off = cov - np.diag(np.diag(cov))
    se_off = target_var / math.sqrt(reps)
    off_z = float(np.max(np.abs(off))) / se_off

    stats = {"marginal_ks_max": d_max, "var_z_max": var_z,
             "offdiag_z_max": off_z,
             "var_err_max": float(np.max(np.abs(variances - target_var))),
             "offdiag_abs_max": float(np.max(np.abs(off)))}
    thresholds = {"marginal_ks_max": D_THRESHOLD_FAST, "var_z_max": Z_BAND,
                  "offdiag_z_max": Z_BAND}
    return StatReport(test="increments_gaussianity", params=params,
                      sample_size=reps, statistics=stats,
                      thresholds=thresholds)


def residual_clt_test(params: CascadeParams, n: int, reps: int, *,
                      proxy_levels: int = 12) -> StatReport:
    """Normality of the rescaled residual (Z_limit - Z_n) at t = 1.

    The limit is proxied by Z_(n+m) with m = ``proxy_levels`` extra
    levels, which keep a fraction 1 - b^(-m(2H-1)) of the limit
    residual's variance.  The omitted tail's deficit b^(-m(2H-1)) is
    2^(-4.8) = 3.6 % at b = 2, H = 0.7, m = 12, and at b = 2, m = 12 it
    is below half a percent only for H >= 0.82.  The residual is divided
    by sigma_resid * b^(n(1/2-H)) with sigma_resid = sqrt(E Z^2 - 1)
    from the limit moments.  Gates: KS distance to N(0,1) and the
    residual-mean z-score against 0.
    """
    require_regime(params, "the residual central limit check",
                   convergent=True, below_one=True,
                   why="it rescales Z_limit - Z_n, which is 0 at H = 1")
    _require_replicas(reps)
    if proxy_levels < 1:
        raise ValueError("the limit proxy needs proxy_levels >= 1; got "
                         f"proxy_levels = {proxy_levels}")
    z_n, resid = sample_terminal_depths(params, (n, n + proxy_levels), reps)
    sigma_resid = math.sqrt(float(limit_z_moments(params, 2)[1]) - 1.0)
    scale = sigma_resid * float(params.base) ** (n * (0.5 - params.hurst))
    resid -= z_n  # Z_(n+m) - Z_n in the deeper draw's buffer
    del z_n
    resid /= scale
    d = ks_statistic(resid)
    stats = {"ks_distance": d, "mean_z": _z_score(resid, 0.0),
             "sigma_resid": sigma_resid}
    thresholds = {"ks_distance": D_THRESHOLD_FAST, "mean_z": Z_BAND}
    return StatReport(test="residual_clt", params=params, sample_size=reps,
                      statistics=stats, thresholds=thresholds)


def empirical_vs_exact_moments(params: CascadeParams, n: int, reps: int,
                               q_max: int) -> StatReport:
    """Sample moments of Z_n against the exact recursion table.

    One z-score per q in 1..q_max using the sample standard error
    (see :func:`_z_score` for the degenerate H = 1 case).
    """
    _require_replicas(reps)
    check_chain_depths(params.base, (n,))
    table = z_moment_recursion(params, n, q_max)  # checks q_max; no draw yet
    z = sample_terminal(params, n, reps)
    stats: dict[str, float] = {}
    thresholds: dict[str, float] = {}
    for q in range(1, q_max + 1):
        exact = float(table.values[n, q])
        stats[f"moment{q}_z"] = _z_score(z**q, exact)
        thresholds[f"moment{q}_z"] = Z_BAND
    return StatReport(test="empirical_vs_exact_moments", params=params,
                      sample_size=reps, statistics=stats,
                      thresholds=thresholds)

"""Pathwise roughness estimators: Hölder exponents and graph box dimension.

For a convergent cascade (H > 1/2) the limit path is monofractal: every
point has pointwise Hölder exponent H and the graph has box dimension
2 - H.  These are asymptotic statements about the limit; the estimators
here work on a finite-depth path and recover them by ordinary least
squares over a documented range of dyadic scales (dyadic in the cascade
base b), which is why every estimate travels with its scales, residual,
and the transform that produced it (:class:`DimensionFit`).

All three estimators require a full-resolution path (stride 1): the
oscillation of the stored piecewise-linear interpolant is attained at
grid points, so window extrema are exact, but a decimated path hides
sub-stride oscillation and silently flattens the estimates.

Window extrema come from precomputed block extrema rather than a scan
of every sample: box counting coarsens a b-adic min/max pyramid one
level per scale, and the pointwise balls read a table of per-block
extrema over blocks of 4,096 samples plus the raw samples at either
ragged end.  Min and max of floats are exact (the result is one of the
inputs, with no rounding), so they can be regrouped freely: the min of
block mins is the min of the window, bit for bit, and the estimates are
the same as those of a raw scan.

Box counting streams the path in slices of about 2^16 samples, each a
whole number of its coarsest columns (at least one), and runs the
pyramid per slice; the per-scale counts are integers summed exactly in
Python ints, so its memory above the path does not grow with the depth
and the counts are those of one pass over the whole path.

Scale-range rule of thumb baked into the preconditions: the self-similar
structure below a width-b^-j window scales as b^-(n-j)H, so estimates
use j at most n - 6 (exponent) or n - 2 (boxes) to keep within-window
structure resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SamplePath


#: Scale range of the pointwise exponent fits (the CLI's --profile
#: uses it as is).
HOLDER_J_RANGE = (2, 12)

#: Samples per block of the pointwise extrema table.
_BLOCK = 4096

#: Target samples per box-counting slice (rounded to whole columns).
_SLICE = 2**16

#: Per fit kind: the range's name, its lowest start and the margin its
#: end keeps below the depth (see the module docstring).
_RANGE_RULES = {"increment_exponent": ("p_range", 2, 6),
                "box_dimension": ("j_range", 1, 2),
                "pointwise_holder": ("j_range", 1, 0)}


@dataclass(frozen=True)
class DimensionFit:
    """OLS fit over dyadic scales with its derived estimate.

    ``estimate`` is a documented transform of ``slope``:
    box_dimension: estimate = slope of ln N_j vs j ln b;
    increment_exponent / pointwise_holder: estimate = -slope of the
    mean log_b magnitude vs generation/scale index j.
    """

    kind: str
    scales: np.ndarray
    log_values: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    estimate: float
    zero_increments: int = 0


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    if x.size < 4:
        raise ValueError("need at least 4 scales for a fit")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def check_scale_range(kind: str, depth: int,
                      scale_range: tuple[int, int]) -> None:
    """Raise ValueError unless ``scale_range`` suits fit ``kind`` (a
    DimensionFit kind) on a depth-``depth`` path.  Cheap, so callers can
    check their ranges before building the path."""
    name, lo_min, margin = _RANGE_RULES[kind]
    lo, hi = scale_range
    if lo < lo_min or hi > depth - margin or hi < lo:
        top = f"depth - {margin}" if margin else "depth"
        raise ValueError(f"{name} must sit within [{lo_min}, {top}]; got "
                         f"{lo},{hi} at depth {depth}")


def _require_full_resolution(path: SamplePath) -> None:
    if path.is_decimated:
        raise ValueError("fractal estimators need a full-resolution path; "
                         "rebuild with max_points >= base**depth")


def increment_scaling_exponent(path: SamplePath,
                               p_range: tuple[int, int] = (4, 12)
                               ) -> DimensionFit:
    """Hölder exponent from the decay of generation-p increment sizes.

    The generation-p increment over one b-adic cell factors into
    b^(-pH) times an O(1) subtree mass, so the across-cells mean of
    log_b |increment| falls like -pH + O(1); the fit's negated slope
    estimates H.  Zero increments (possible at finite depth: a subtree
    mass can vanish exactly) are excluded from the mean and counted in
    ``zero_increments``.
    """
    _require_full_resolution(path)
    b = path.params.base
    n = path.depth
    check_scale_range("increment_exponent", n, p_range)
    p_lo, p_hi = p_range
    v = path.values
    log_b = math.log(b)
    ps, means = [], []
    zeros = 0
    for p in range(p_lo, p_hi + 1):
        step = b ** (n - p)
        incr = v[step::step] - v[:-step:step]
        mags = np.abs(incr)
        nz = mags > 0.0
        zeros += int(mags.size - nz.sum())
        if nz.sum() == 0:
            raise ValueError(f"all generation-{p} increments are zero")
        ps.append(p)
        means.append(float(np.mean(np.log(mags[nz]) / log_b)))
    slope, intercept, r2 = _ols(np.array(ps, dtype=float), np.array(means))
    return DimensionFit(kind="increment_exponent",
                        scales=np.array(ps), log_values=np.array(means),
                        slope=slope, intercept=intercept, r_squared=r2,
                        estimate=-slope, zero_increments=zeros)


def _coarsen(mins: np.ndarray, maxs: np.ndarray, width: int):
    """Elementwise min of the ``width`` interleaved slices of ``mins``
    and max of those of ``maxs`` (width >= 2), as new arrays."""
    lo = np.minimum(mins[0::width], mins[1::width])
    hi = np.maximum(maxs[0::width], maxs[1::width])
    for i in range(2, width):
        np.minimum(lo, mins[i::width], out=lo)
        np.maximum(hi, maxs[i::width], out=hi)
    return lo, hi


def _level_extrema(v: np.ndarray, b: int, n: int, j_hi: int, j_lo: int):
    """Yield (j, mins, maxs) for j = j_hi down to j_lo (j_hi < n): the
    extrema of v over the half-open blocks [k s, (k + 1) s), s = b^(n - j),
    of its whole blocks at j_lo (the first b^n samples of a path).

    A b-adic pyramid: the first level, j = max(j_hi, n - 2), reduces the
    b^(n - j) interleaved slices of v; each coarser level reduces the b
    interleaved slices of the one below.  A level's arrays are new (never
    views of v, as j < n) and the next coarser level is computed before
    they are yielded, so the caller may overwrite them.
    """
    level = max(j_hi, n - 2)
    whole = v.size // b**(n - j_lo) * b**(n - j_lo)
    mins, maxs = _coarsen(v[:whole], v[:whole], b**(n - level))
    for j in range(level, j_lo - 1, -1):
        current = mins, maxs
        if j > j_lo:
            mins, maxs = _coarsen(mins, maxs, b)
        if j <= j_hi:
            yield (j, *current)


def box_dimension(path: SamplePath,
                  j_range: tuple[int, int] = (4, 12)) -> DimensionFit:
    """Graph box dimension by column counting at sides b^-j.

    For each scale j the graph is covered by squares of side b^-j; the
    count over one width-b^-j column is floor(max/delta) -
    floor(min/delta) + 1 with delta = b^-j (the vertical run of boxes
    the column's range touches), using exact window extrema: each
    closed column [k s, (k + 1) s] is a pyramid block plus its right
    edge sample.  Fits ln N_j against j ln b; the slope is the
    dimension estimate.

    The path is counted in slices of whole width-b^-j_lo columns, about
    :data:`_SLICE` samples each; every column count is an integer below
    2^53, so the per-slice float sums and their Python-int totals are
    exact and N_j does not depend on the slicing.
    """
    _require_full_resolution(path)
    b = path.params.base
    n = path.depth
    check_scale_range("box_dimension", n, j_range)
    j_lo, j_hi = j_range
    v = path.values
    column = b**(n - j_lo)
    width = max(1, _SLICE // column) * column
    totals = [0] * (j_hi - j_lo + 1)
    for start in range(0, b**n, width):
        seg = v[start:start + width + 1]  # with the last right edge
        for j, mins, maxs in _level_extrema(seg, b, n, j_hi, j_lo):
            step = b**(n - j)
            right = seg[step::step]
            delta = float(b) ** (-j)
            np.maximum(maxs, right, out=maxs)
            maxs /= delta
            np.floor(maxs, out=maxs)
            np.minimum(mins, right, out=mins)
            mins /= delta
            np.floor(mins, out=mins)
            maxs -= mins
            maxs += 1.0  # per-column box counts
            totals[j - j_lo] += int(maxs.sum())
    js = list(range(j_lo, j_hi + 1))
    x = np.array(js, dtype=float) * math.log(b)
    y = np.array([math.log(float(total)) for total in totals])
    slope, intercept, r2 = _ols(x, y)
    return DimensionFit(kind="box_dimension", scales=np.array(js),
                        log_values=y, slope=slope, intercept=intercept,
                        r_squared=r2, estimate=slope)


def box_counts(path: SamplePath, j_range: tuple[int, int] = (4, 12)
               ) -> list[tuple[int, int]]:
    """(j, N_j) pairs as used by :func:`box_dimension`, for serialization."""
    fit = box_dimension(path, j_range)
    return [(int(j), int(round(math.exp(y))))
            for j, y in zip(fit.scales, fit.log_values)]


def _extrema_table(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-block (min, max) of v over its whole blocks of _BLOCK samples."""
    blocks = v[:v.size // _BLOCK * _BLOCK].reshape(-1, _BLOCK)
    return blocks.min(axis=1), blocks.max(axis=1)


def _oscillation(v: np.ndarray, table: tuple[np.ndarray, np.ndarray],
                 i_lo: int, i_hi: int) -> float:
    """max - min of v[i_lo:i_hi + 1]: the whole blocks inside the window
    come from ``table`` (see _extrema_table), the ragged ends from v."""
    first = -(-i_lo // _BLOCK)
    stop = (i_hi + 1) // _BLOCK
    if stop <= first:
        window = v[i_lo:i_hi + 1]
        return float(window.max() - window.min())
    mins, maxs = table
    lo, hi = mins[first:stop].min(), maxs[first:stop].max()
    for edge in (v[i_lo:first * _BLOCK], v[stop * _BLOCK:i_hi + 1]):
        if edge.size:
            lo = np.minimum(lo, edge.min())
            hi = np.maximum(hi, edge.max())
    return float(hi - lo)


def _holder_fit(path: SamplePath, t: float, j_range: tuple[int, int],
                table: tuple[np.ndarray, np.ndarray]) -> DimensionFit:
    """The fit of :func:`pointwise_holder` at t, given the path's block
    extrema table; the path and the range are already checked."""
    b = path.params.base
    m = b**path.depth
    v = path.values
    log_b = math.log(b)
    j_lo, j_hi = j_range
    js, log_osc = [], []
    for j in range(j_lo, j_hi + 1):
        r = float(b) ** (-j)
        lo = max(0.0, t - r)
        hi = min(1.0, t + r)
        i_lo = int(math.floor(lo * m))
        i_hi = int(math.ceil(hi * m))
        osc = _oscillation(v, table, i_lo, i_hi)
        if osc <= 0.0:
            raise ValueError(f"zero oscillation at scale j={j}; "
                             "path is flat near t")
        js.append(j)
        log_osc.append(math.log(osc) / log_b)
    slope, intercept, r2 = _ols(np.array(js, dtype=float),
                                np.array(log_osc))
    return DimensionFit(kind="pointwise_holder", scales=np.array(js),
                        log_values=np.array(log_osc), slope=slope,
                        intercept=intercept, r_squared=r2,
                        estimate=-slope)


def pointwise_holder(path: SamplePath, t: float,
                     j_range: tuple[int, int] = HOLDER_J_RANGE
                     ) -> DimensionFit:
    """Pointwise Hölder exponent at t from shrinking-ball oscillations.

    Regresses log_b of the oscillation sup - inf over the balls
    |s - t| <= b^-j (clipped to [0, 1]) against j; the negated slope
    estimates the exponent.  The ball endpoints are snapped outward to
    grid points, so the oscillation is that of the stored interpolant
    over a slightly enlarged ball, a conservative choice at these scales.
    """
    _require_full_resolution(path)
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    check_scale_range("pointwise_holder", path.depth, j_range)
    return _holder_fit(path, t, j_range, _extrema_table(path.values))


def pointwise_holder_profile(path: SamplePath, n_points: int = 64,
                             j_range: tuple[int, int] = HOLDER_J_RANGE
                             ) -> np.ndarray:
    """Pointwise exponent estimates at n_points mid-cell positions.

    Evaluation points (k + 1/2)/n_points avoid 0 and 1; monofractality
    predicts a tight spread around H (the profile's spread, not each
    individual point, is the stable statistic at finite depth).  The
    block extrema table is built once and shared by every point.
    """
    _require_full_resolution(path)
    check_scale_range("pointwise_holder", path.depth, j_range)
    table = _extrema_table(path.values)
    ts = (np.arange(n_points) + 0.5) / n_points
    return np.array([_holder_fit(path, float(t), j_range, table).estimate
                     for t in ts])

"""Pathwise roughness estimators: Hölder exponents and graph box dimension.

For a convergent cascade (H > 1/2) the limit path is monofractal: every
point has pointwise Hölder exponent H and the graph has box dimension
2 - H.  These are asymptotic statements about the limit; the estimators
here work on a finite-depth path and recover them by ordinary least
squares over a documented range of dyadic scales (dyadic in the cascade
base b), which is why every estimate travels with its scales, residual,
and the transform that produced it (:class:`DimensionFit`).

All three estimators read the full-resolution grid values of B_n (the
oscillation of the piecewise-linear interpolant is attained at grid
points, so window extrema are exact, where a decimated path would hide
sub-stride oscillation), but none of them holds the whole path.  They
read a :class:`FractalSummary` made in one pass over consecutive slices
of the largest power of b <= 2^16 samples (plus the next slice's first
sample as right edge):

* the samples at the finest increment generation, copied out;
* a table of per-block extrema over blocks of the largest power of
  b <= 4096 samples (at most one slice), and the samples at the block
  edges: each slice's b-adic min/max pyramid writes its rows;
* the box counts per scale, with integer totals summed exactly in
  Python ints: the slice pyramid counts the columns no wider than a
  block, and a pyramid over the block table the wider ones;
* the oscillation of each pointwise ball: at the end of the pass, the
  extrema of its whole blocks from the block table and those of its
  ragged ends (each inside one block), kept as raw pieces of the slices,
  give its max - min.

Min and max of floats are exact (the result is one of the inputs, with no
rounding), so they can be regrouped freely: the min of block mins is the
min of the window, bit for bit, and no estimate depends on the slicing.

The pass reads a packed :class:`LeafSignField`: :func:`summarize_field`
rebuilds each slice with :func:`~cascadekit.core.path_slices`, the code
:func:`build_path` takes its values from, so every sample has the bits
of the full-resolution path, which is never built.  The summary records
the scale range of each fit it was made for, and each estimator takes
the summary alone and reads its range from it.  Above the field, the
pass holds one slice, the block table (24 bytes per block) and the
summary: 8 bytes per increment sample (b^p + 1 of them, for generation
p) and a few scalars per scale and ball.

Scale-range rule of thumb baked into the preconditions: the self-similar
structure below a width-b^-j window scales as b^-(n-j)H, so estimates
use j at most n - 6 (exponent) or n - 2 (boxes) to keep within-window
structure resolved; every fit needs at least 4 scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CascadeParams, LeafSignField, path_slices


#: Scale range of the pointwise exponent fits of the CLI's --profile.
HOLDER_J_RANGE = (2, 12)

#: Evaluation points of the pointwise profile (the CLI's --profile).
PROFILE_POINTS = 64

#: Samples per block of the extrema table (the pointwise balls and the
#: box columns wider than a block): the largest power of b at most this
#: (at most one slice).
_BLOCK = 4096

#: Samples per slice of the pass: the largest power of b at most this
#: (at most the whole path).
_SLICE = 2**16

#: Fewest scales a fit takes.
_MIN_SCALES = 4

#: Per fit kind: the range's name, its lowest start and the margin its
#: end keeps below the depth (see the module docstring).
_RANGE_RULES = {"increment_exponent": ("p_range", 2, 6),
                "box_dimension": ("j_range", 1, 2),
                "pointwise_holder": ("holder_range", 1, 0)}


@dataclass(frozen=True)
class DimensionFit:
    """OLS fit over dyadic scales with its derived estimate.

    ``estimate`` is a documented transform of ``slope``:
    box_dimension: estimate = slope of ln N_j vs j ln b;
    increment_exponent: estimate = -slope of the mean log_b magnitude
    vs generation p.  (The pointwise profile fits each point the same
    way, against the ball scale j, and keeps only the estimates.)
    """

    kind: str
    scales: np.ndarray
    log_values: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    estimate: float
    zero_increments: int = 0


@dataclass(frozen=True)
class FractalSummary:
    """What the estimators read of one depth-``depth`` path.

    ``p_range``, ``j_range`` and ``holder_range`` are the scale ranges of
    the increment, box and pointwise fits it was made for (None for a fit
    it cannot answer).  ``increments`` holds the path at the multiples of
    b^(depth - p_range[1]); ``box_counts`` maps each scale j of
    ``j_range`` to N_j; ``oscillations`` holds the max - min of the path
    over each ball |s - t| <= b^-j of the pointwise fits, t-major (one
    row of ``holder_range`` scales per profile point), and is empty
    without a ``holder_range``.
    """

    params: CascadeParams
    depth: int
    p_range: tuple[int, int] | None
    j_range: tuple[int, int] | None
    holder_range: tuple[int, int] | None
    increments: np.ndarray | None
    box_counts: dict[int, int]
    oscillations: np.ndarray


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def check_scale_range(kind: str, depth: int,
                      scale_range: tuple[int, int]) -> None:
    """Raise ValueError unless ``scale_range`` suits fit ``kind`` (a
    DimensionFit kind) on a depth-``depth`` path.  Cheap, so callers can
    check their ranges before drawing the field."""
    name, lo_min, margin = _RANGE_RULES[kind]
    lo, hi = scale_range
    if lo < lo_min or hi > depth - margin or hi < lo:
        top = f"depth - {margin}" if margin else "depth"
        raise ValueError(f"{name} must sit within [{lo_min}, {top}]; got "
                         f"{lo},{hi} at depth {depth}")
    if hi - lo + 1 < _MIN_SCALES:
        raise ValueError(f"{name} needs at least {_MIN_SCALES} scales for "
                         f"a fit; got {lo},{hi}")


def _log_at_most(b: int, limit: int) -> int:
    """The exponent of the largest power of b that is at most ``limit``,
    for ``limit`` >= 1."""
    e, power = 0, b
    while power <= limit:
        e, power = e + 1, power * b
    return e


def _ball(b: int, depth: int, t: float, j: int) -> tuple[int, int]:
    """First and last sample index of the ball |s - t| <= b^-j, clipped
    to [0, 1] and snapped outward to the grid."""
    m = b**depth
    r = float(b) ** (-j)
    lo = max(0.0, t - r)
    hi = min(1.0, t + r)
    return int(math.floor(lo * m)), int(math.ceil(hi * m))


def _split(i_lo: int, i_hi: int, block: int):
    """(first, stop, pieces): samples i_lo..i_hi are the whole blocks
    first..stop-1 plus the raw pieces (lo, hi), each inside one block or
    ending at the last sample of the path."""
    first = -(-i_lo // block)
    stop = (i_hi + 1) // block
    if stop <= first:  # no whole block: cut at the one block edge inside
        cut = min(first * block, i_hi + 1)
        first = stop = 0
        pieces = ((i_lo, cut), (cut, i_hi + 1))
    else:
        pieces = ((i_lo, first * block), (stop * block, i_hi + 1))
    return first, stop, [p for p in pieces if p[0] < p[1]]


def _coarsen(mins: np.ndarray, maxs: np.ndarray, width: int):
    """Elementwise min of the ``width`` interleaved slices of ``mins``
    and max of those of ``maxs`` (width >= 2), as new arrays."""
    lo = np.minimum(mins[0::width], mins[1::width])
    hi = np.maximum(maxs[0::width], maxs[1::width])
    for i in range(2, width):
        np.minimum(lo, mins[i::width], out=lo)
        np.maximum(hi, maxs[i::width], out=hi)
    return lo, hi


def _level_extrema(mins: np.ndarray, maxs: np.ndarray, b: int, n: int,
                   j_hi: int, j_lo: int):
    """Yield (j, mins_j, maxs_j) for j = j_hi down to j_lo (j_hi <= n):
    the extrema over the half-open blocks [k s, (k + 1) s), s = b^(n - j),
    where ``mins``/``maxs`` are the extrema at level n, a whole number of
    level-j_lo blocks (raw samples of a depth-n path pass themselves
    twice).

    A b-adic pyramid: the first level, j = max(j_hi, n - 2), reduces the
    b^(n - j) interleaved slices of the input; each coarser level reduces
    the b interleaved slices of the one below.  The levels below n are
    new arrays, and the next coarser level is computed before one is
    yielded, so the caller may overwrite them; level n is the input.
    """
    level = max(j_hi, n - 2)
    if level < n:
        mins, maxs = _coarsen(mins, maxs, b**(n - level))
    for j in range(level, j_lo - 1, -1):
        current = mins, maxs
        if j > j_lo:
            mins, maxs = _coarsen(mins, maxs, b)
        if j <= j_hi:
            yield (j, *current)


def _column_boxes(mins: np.ndarray, maxs: np.ndarray, right: np.ndarray,
                  b: int, j: int) -> int:
    """Boxes of side b^-j over the closed columns whose half-open extrema
    are ``mins``/``maxs`` and whose right edge samples are ``right``:
    floor(max/delta) - floor(min/delta) + 1 per column, delta = b^-j.
    Overwrites ``mins`` and ``maxs``; every column count is an integer
    below 2^53, so the float sum is exact."""
    delta = float(b) ** (-j)
    np.maximum(maxs, right, out=maxs)
    maxs /= delta
    np.floor(maxs, out=maxs)
    np.minimum(mins, right, out=mins)
    mins /= delta
    np.floor(mins, out=mins)
    maxs -= mins
    maxs += 1.0
    return int(maxs.sum())


def _summarize(params: CascadeParams, depth: int, slices_of, *,
               p_range: tuple[int, int] | None = None,
               j_range: tuple[int, int] | None = None,
               holder_range: tuple[int, int] | None = None,
               windows=()) -> FractalSummary:
    """One pass over the slices that ``slices_of(width)`` yields (samples
    [s, s + width] for s = 0, width, ...) collects the samples at the
    multiples of b^(depth - p_range[1]), the box counts for every j in
    ``j_range`` and the oscillation of every window (i_lo, i_hi) in
    ``windows``, in window order.  The ranges are already checked; the
    summary records them.

    Each slice's min/max pyramid runs down to the block level: it writes
    the slice's rows of the table and counts the columns no wider than a
    block.  The pyramid over the table then counts the wider columns,
    whose right edges are the samples at block multiples.  Each window is
    its whole blocks, read from the table after the pass, and its raw
    pieces, whose extrema are taken from the slice that holds them."""
    b = params.base
    m = b**depth
    width_log = min(_log_at_most(b, _SLICE), depth)
    block_log = min(_log_at_most(b, _BLOCK), width_log)
    width, block, j_block = b**width_log, b**block_log, depth - block_log
    n_slices = m // width

    increments = None
    if p_range is not None:
        step = b**(depth - p_range[1])
        increments = np.empty(b**p_range[1] + 1, dtype=np.float64)

    totals: dict[int, int] = {}
    if j_range is not None:
        totals = dict.fromkeys(range(j_range[0], j_range[1] + 1), 0)
    j_top = max([j_block, *totals])

    n_blocks = m // block
    block_mins = np.empty(n_blocks, dtype=np.float64)
    block_maxs = np.empty(n_blocks, dtype=np.float64)
    block_starts = np.empty(n_blocks + 1, dtype=np.float64)
    splits = [_split(i_lo, i_hi, block) for i_lo, i_hi in windows]
    pieces_by_slice: dict[int, set] = {}
    for _, _, pieces in splits:
        for piece in pieces:
            k = min(piece[0] // width, n_slices - 1)
            pieces_by_slice.setdefault(k, set()).add(piece)
    edges = {}

    for k, seg in enumerate(slices_of(width)):
        start = k * width
        body = seg[:width]
        if increments is not None and start % step == 0:
            part = body[::step]
            increments[start // step:start // step + part.size] = part
        rows = slice(start // block, (start + width) // block)
        block_starts[rows.start:rows.stop + 1] = seg[::block]
        for lo, hi in pieces_by_slice.get(k, ()):
            piece = seg[lo - start:hi - start]
            edges[lo, hi] = (piece.min(), piece.max())
        for j, mins, maxs in _level_extrema(body, body, b, depth, j_top,
                                            j_block):
            if j == j_block:
                block_mins[rows] = mins
                block_maxs[rows] = maxs
            if j in totals:
                step_j = b**(depth - j)
                totals[j] += _column_boxes(mins, maxs, seg[step_j::step_j],
                                           b, j)
    if totals and min(totals) < j_block:
        for j, mins, maxs in _level_extrema(
                block_mins, block_maxs, b, j_block,
                min(max(totals), j_block - 1), min(totals)):
            c = b**(j_block - j)
            totals[j] += _column_boxes(mins, maxs, block_starts[c::c], b, j)
    if increments is not None:
        increments[-1] = seg[-1]
    oscillations = np.empty(len(splits), dtype=np.float64)
    for w, (first, stop, pieces) in enumerate(splits):
        extrema = [edges[piece] for piece in pieces]
        if stop > first:
            extrema.append((block_mins[first:stop].min(),
                            block_maxs[first:stop].max()))
        oscillations[w] = (max(hi for _, hi in extrema)
                           - min(lo for lo, _ in extrema))
    return FractalSummary(params=params, depth=depth, p_range=p_range,
                          j_range=j_range, holder_range=holder_range,
                          increments=increments, box_counts=totals,
                          oscillations=oscillations)


def summarize_field(field: LeafSignField, params: CascadeParams, *,
                    p_range: tuple[int, int] | None = None,
                    j_range: tuple[int, int] | None = None,
                    holder_range: tuple[int, int] | None = None
                    ) -> FractalSummary:
    """Summarize B_n for the estimators straight from its packed field.

    One pass over slices of the path rebuilt from ``field`` (see the
    module docstring), keeping what :func:`increment_scaling_exponent`
    needs for ``p_range``, :func:`box_dimension` for ``j_range`` and
    :func:`pointwise_holder_profile` for ``holder_range`` (its balls
    around the :data:`PROFILE_POINTS` points); a range of None skips that
    fit.  Each range is checked against the field's depth first.  The
    fits on the summary are those on the full-resolution path
    ``build_path(field, params, max_points=b**n)``, bit for bit, and
    that path is never built.
    """
    if field.base != params.base:
        raise ValueError("sign field and params disagree on base")
    n = field.depth
    for kind, scale_range in (("increment_exponent", p_range),
                              ("box_dimension", j_range),
                              ("pointwise_holder", holder_range)):
        if scale_range is not None:
            check_scale_range(kind, n, scale_range)
    windows = [] if holder_range is None else [
        _ball(params.base, n, float(t), j)
        for t in (np.arange(PROFILE_POINTS) + 0.5) / PROFILE_POINTS
        for j in range(holder_range[0], holder_range[1] + 1)]
    return _summarize(params, n,
                      lambda width: path_slices(field, params, width),
                      p_range=p_range, j_range=j_range,
                      holder_range=holder_range, windows=windows)


def _scale_range(summary: FractalSummary, name: str) -> tuple[int, int]:
    """The range ``name`` the summary was made for."""
    scale_range = getattr(summary, name)
    if scale_range is None:
        raise ValueError(f"the summary was made without a {name}; pass "
                         f"{name} to summarize_field")
    return scale_range


def increment_scaling_exponent(summary: FractalSummary) -> DimensionFit:
    """Hölder exponent from the decay of generation-p increment sizes,
    over the summary's ``p_range``.

    The generation-p increment over one b-adic cell factors into
    b^(-pH) times an O(1) subtree mass, so the across-cells mean of
    log_b |increment| falls like -pH + O(1); the fit's negated slope
    estimates H.  Zero increments (possible at finite depth: a subtree
    mass can vanish exactly) are excluded from the mean and counted in
    ``zero_increments``.
    """
    p_lo, p_hi = _scale_range(summary, "p_range")
    b = summary.params.base
    v = summary.increments
    log_b = math.log(b)
    ps, means = [], []
    zeros = 0
    for p in range(p_lo, p_hi + 1):
        step = b ** (p_hi - p)
        # each step rebinds ``mags``, which frees the array before it:
        # |increments|, the nonzero ones, then their base-b logs
        mags = v[step::step] - v[:-step:step]
        np.abs(mags, out=mags)
        count = mags.size
        mags = mags[mags > 0.0]
        zeros += count - mags.size
        if mags.size == 0:
            raise ValueError(f"all generation-{p} increments are zero")
        mags = np.log(mags)
        mags /= log_b
        ps.append(p)
        means.append(float(np.mean(mags)))
    slope, intercept, r2 = _ols(np.array(ps, dtype=float), np.array(means))
    return DimensionFit(kind="increment_exponent",
                        scales=np.array(ps), log_values=np.array(means),
                        slope=slope, intercept=intercept, r_squared=r2,
                        estimate=-slope, zero_increments=zeros)


def box_dimension(summary: FractalSummary) -> DimensionFit:
    """Graph box dimension by column counting at sides b^-j, over the
    summary's ``j_range``.

    For each scale j the graph is covered by squares of side b^-j; the
    count over one width-b^-j column is floor(max/delta) -
    floor(min/delta) + 1 with delta = b^-j (the vertical run of boxes
    the column's range touches), using exact window extrema: each
    closed column [k s, (k + 1) s] is a block of half-open extrema plus
    its right edge sample.  Fits ln N_j against j ln b; the slope is the
    dimension estimate.
    """
    j_lo, j_hi = _scale_range(summary, "j_range")
    js = list(range(j_lo, j_hi + 1))
    x = np.array(js, dtype=float) * math.log(summary.params.base)
    y = np.array([math.log(float(summary.box_counts[j])) for j in js])
    slope, intercept, r2 = _ols(x, y)
    return DimensionFit(kind="box_dimension", scales=np.array(js),
                        log_values=y, slope=slope, intercept=intercept,
                        r_squared=r2, estimate=slope)


def pointwise_holder_profile(summary: FractalSummary) -> np.ndarray:
    """Pointwise Hölder exponent estimates at the :data:`PROFILE_POINTS`
    mid-cell positions (k + 1/2)/PROFILE_POINTS, over the summary's
    ``holder_range``.

    At each point t, regresses log_b of the oscillation sup - inf over
    the balls |s - t| <= b^-j (clipped to [0, 1]) against j; the negated
    slope estimates the exponent.  The ball endpoints are snapped outward
    to grid points, so the oscillation is that of the stored interpolant
    over a slightly enlarged ball, a conservative choice at these scales.
    The points avoid 0 and 1; monofractality predicts a tight spread
    around H (the profile's spread, not each individual point, is the
    stable statistic at finite depth).  Each oscillation is positive:
    adjacent samples of a field path differ by +-b^(-nH).
    """
    j_lo, j_hi = _scale_range(summary, "holder_range")
    js = np.arange(j_lo, j_hi + 1, dtype=float)
    log_b = math.log(summary.params.base)
    rows = summary.oscillations.reshape(PROFILE_POINTS, js.size)
    return np.array([
        -_ols(js, np.array([math.log(osc) / log_b for osc in row]))[0]
        for row in rows])

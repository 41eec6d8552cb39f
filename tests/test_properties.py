"""Property tests of the determinism contracts of the node streams, the
sign fields and the count-chain samplers (whatever the number of worker
threads or the set of depths recorded), of the terminal CLT trend drawn
from one chain, of the moment recursion's log-sum-exp and the KS
distances' normal CDF against scipy's bits, of the exactness of the
fractal estimators' block extrema, of the path's bits under any slice
size, of the fractal fits read straight from the packed field, and of
the float-table text kernel against Python's ``%``."""

import functools
import math
import struct
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp, ndtr

from cascadekit import core, streams
from cascadekit.fractal import (
    HOLDER_J_RANGE,
    _BLOCK,
    _level_extrema,
    _summarize,
    pointwise_holder_profile,
    summarize_field,
)
from cascadekit.core import (
    CapacityError,
    CascadeParams,
    _map_threads,
    build_path,
    generate_leaf_signs,
    sample_terminal,
    sample_terminal_depths,
)
from cascadekit import reports
from cascadekit.moments import _logsumexp
from cascadekit.stats import _ndtr, clt_terminal_trend

#: Replica chunk size of the samplers.
CHUNK = 8192

# derandomized and without an example database, so every run draws the
# same examples and writes nothing to disk
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=30)

params_st = st.builds(CascadeParams,
                      base=st.sampled_from([2, 3]),
                      hurst=st.sampled_from([None, 0.3, 0.5, 0.7, 1.0]),
                      seed=st.integers(0, 2**64 - 1))


@PROPERTY
@given(params=params_st, n=st.integers(0, 10), m=st.integers(0, 6),
       reps=st.integers(1, 2 * CHUNK + 100))
def test_pair_matches_single_depth_draws(params, n, m, reps):
    """Both depths of a two-depth draw come from the same chain as
    sample_terminal."""
    z_n, z_nm = sample_terminal_depths(params, (n, n + m), reps)
    assert np.array_equal(z_n, sample_terminal(params, n, reps))
    assert np.array_equal(z_nm, sample_terminal(params, n + m, reps))


@PROPERTY
@given(params=params_st,
       depths=st.lists(st.integers(0, 12), min_size=1, max_size=5),
       reps=st.integers(1, 2 * CHUNK + 100))
@example(params=CascadeParams(base=3, hurst=0.3, seed=5),
         depths=[9, 2, 9, 0, 5], reps=CHUNK + 1)
def test_depths_match_single_depth_draws(params, depths, reps):
    """Every column of one chain, for depths in any order and repeated,
    is the draw of sample_terminal at its depth."""
    columns = sample_terminal_depths(params, depths, reps)
    assert len(columns) == len(depths)
    for n, z in zip(depths, columns):
        assert np.array_equal(z, sample_terminal(params, n, reps))


@settings(PROPERTY, max_examples=15)
@given(params=st.builds(CascadeParams, base=st.sampled_from([2, 3]),
                        hurst=st.sampled_from([None, 0.3, 0.5]),
                        seed=st.integers(0, 2**64 - 1)),
       depths=st.lists(st.integers(1, 10), min_size=1, max_size=4,
                       unique=True).map(sorted),
       reps=st.integers(2, CHUNK + 100))
def test_trend_reports_equal_single_depth_tests(params, depths, reps):
    """The trend's reports, drawn from one chain, are the reports of the
    one-depth trend at each depth, field for field (the trend takes
    strictly increasing depths)."""
    reports, _ = clt_terminal_trend(params, tuple(depths), reps)
    assert reports == [clt_terminal_trend(params, (n,), reps)[0][0]
                       for n in depths]


#: Log-magnitudes as the moment recursion sums them: finite values close
#: enough for many terms to count, far-off ones, -inf (log 0) and, by a
#: repeated draw, ties for the max.
_log_terms = st.lists(
    st.one_of(st.floats(-5, 5), st.floats(-1e3, 1e3), st.just(-np.inf)),
    min_size=1, max_size=40)


@settings(PROPERTY, max_examples=200)
@given(terms=_log_terms, data=st.data())
@example(terms=[-np.inf] * 7, data=None)
@example(terms=[3.0], data=None)
@example(terms=[-np.inf], data=None)
def test_logsumexp_matches_scipy_bits(terms, data):
    """The local log-sum-exp gives scipy's bits, also on ties for the max,
    on -inf entries and on vectors that are -inf throughout."""
    a = np.array(terms)
    if data is not None:
        ties = data.draw(st.lists(st.integers(0, a.size - 1), max_size=4))
        a[ties] = a.max()
    got = np.float64(_logsumexp(a))
    assert got.tobytes() == np.float64(logsumexp(a)).tobytes()


#: Inputs where the normal CDF changes branch or goes to its limits:
#: signed zeros and infinities, the smallest subnormal, |a| = 1 (erf to
#: erfc) and sqrt(2) (erfc's z = 1) with their neighbouring floats,
#: 8 sqrt(2) (z = 8), the underflow edge of exp(-z^2) near -37.7, and
#: huge values.
_NDTR_EDGES = [0.0, -0.0, math.inf, -math.inf, 5e-324, 8 * math.sqrt(2),
               -8 * math.sqrt(2), -37.6, -37.7, -38.2, 1e300, -1e300] + [
    math.nextafter(s, toward) for v in (1.0, math.sqrt(2)) for s in (v, -v)
    for toward in (-math.inf, s, math.inf)]


@settings(PROPERTY, max_examples=300)
@given(a=st.lists(st.floats(allow_nan=True, allow_infinity=True,
                            allow_subnormal=True), min_size=1, max_size=50))
@example(a=_NDTR_EDGES)
def test_ndtr_matches_scipy_bits(a):
    """The local normal CDF gives scipy's ``ndtr`` bits on every float,
    non-finite and subnormal ones included."""
    a = np.array(a)
    assert _ndtr(a).tobytes() == ndtr(a).tobytes()

@PROPERTY
@given(params=params_st, n=st.integers(0, 10), k=st.integers(1, 2))
def test_more_chunks_extend_the_draws(params, n, k):
    """Adding a replica chunk keeps every earlier draw."""
    short = sample_terminal(params, n, k * CHUNK)
    long = sample_terminal(params, n, (k + 1) * CHUNK)
    assert np.array_equal(long[: k * CHUNK], short)


#: Replica counts below one chunk, of exactly one chunk, and with a
#: partial last chunk.
reps_st = st.one_of(
    st.integers(1, CHUNK - 1), st.just(CHUNK),
    st.builds(lambda k, r: k * CHUNK + r, st.integers(1, 2),
              st.integers(1, CHUNK - 1)))


def _chain_on(workers, params, depths, reps):
    """``sample_terminal_depths`` with its thread map fixed to ``workers``
    threads."""
    with mock.patch.object(core, "_map_threads",
                           functools.partial(_map_threads, workers=workers)):
        return sample_terminal_depths(params, depths, reps)


@PROPERTY
@given(params=params_st,
       depths=st.lists(st.integers(0, 12), min_size=1, max_size=2),
       reps=reps_st)
@example(params=CascadeParams.symmetric(base=2, seed=3), depths=[9],
         reps=CHUNK)
@example(params=CascadeParams(base=3, hurst=0.7, seed=4), depths=[4, 8],
         reps=2 * CHUNK + 5)
def test_count_chain_independent_of_workers(params, depths, reps):
    """Chunks on two threads give the draws of one thread, bit for bit."""
    one = _chain_on(1, params, depths, reps)
    two = _chain_on(2, params, depths, reps)
    assert all(np.array_equal(a, b) for a, b in zip(one, two))


def test_more_workers_than_cores_under_fast_switching():
    """Eight threads switching every microsecond still fill every chunk of
    their own slice with the one-thread draws, round after round."""
    params = CascadeParams(base=2, hurst=0.3, seed=7)
    one = _chain_on(1, params, (6, 10), 9 * CHUNK + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            many = _chain_on(8, params, (6, 10), 9 * CHUNK + 1)
            assert all(np.array_equal(a, b) for a, b in zip(one, many))
    finally:
        sys.setswitchinterval(interval)


def test_one_worker_or_one_item_starts_no_thread():
    """The thread map runs inline unless it has two workers and two items,
    and returns results in item order either way."""
    def where(item):
        return item, threading.current_thread()

    main = threading.current_thread()
    assert _map_threads(where, range(3), workers=1) == [
        (0, main), (1, main), (2, main)]
    assert _map_threads(where, [5], workers=4) == [(5, main)]
    spread = _map_threads(where, range(3), workers=2)
    assert [item for item, _ in spread] == [0, 1, 2]
    assert all(thread is not main for _, thread in spread)


def test_sampler_guards_raise_before_the_thread_map(monkeypatch):
    """The depth and replica guards of the samplers raise before any chunk
    is handed to the thread map."""
    def no_map(*args, **kwargs):
        raise AssertionError("the chunks reached the thread map")

    monkeypatch.setattr(core, "_map_threads", no_map)
    params = CascadeParams(base=2, hurst=0.7, seed=1)
    with pytest.raises(CapacityError):
        sample_terminal(params, 62, 10)
    with pytest.raises(ValueError, match="reps"):
        sample_terminal(params, 8, 0)
    with pytest.raises(CapacityError):
        sample_terminal_depths(params, (40, 70), 10)


def _unpacked_sign_bits(state, base, level, start, count, threshold):
    """``streams.sign_bits`` of the run unpacked, one uint8 0/1 per node."""
    out = np.empty((count + 7) // 8, dtype=np.uint8)
    streams.sign_bits(state, base, level, start, count, threshold, out=out)
    return np.unpackbits(out, count=count)


@PROPERTY
@given(params=params_st, level=st.integers(1, 9), data=st.data())
def test_sign_bits_independent_of_split(params, level, data):
    """Any split of [start, start + count) gives the same sign bits."""
    b = params.base
    width = b**level
    start = data.draw(st.integers(0, width - 1))
    count = data.draw(st.integers(1, width - start))
    cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=4)))
    state = streams.premix_seed(params.seed)
    threshold = streams.sign_threshold(params.p_plus)
    whole = _unpacked_sign_bits(state, b, level, start, count, threshold)
    edges = [0, *cuts, count]
    pieces = [_unpacked_sign_bits(state, b, level, start + lo, hi - lo,
                                  threshold)
              for lo, hi in zip(edges, edges[1:])]
    assert np.array_equal(np.concatenate(pieces), whole)


@PROPERTY
@given(params=params_st, level=st.integers(18, 20),
       count=st.integers(2**16 + 1, 3 * 2**16 + 100),
       start=st.integers(0, 3**20))
@example(params=CascadeParams(base=2, hurst=0.7, seed=1), level=18,
         count=2**17 + 5, start=3)
@example(params=CascadeParams(base=3, hurst=None, seed=2), level=19,
         count=3 * 2**16 + 99, start=12347)
def test_sign_bits_are_thresholded_node_words(params, level, count, start):
    """Windows spanning several 2^16-word hashing blocks, from any start
    and of any length, give the packed sign of each node's word, computed
    one array at a time by node_words, with zero padding."""
    b = params.base
    start %= b**level - count + 1
    state = streams.premix_seed(params.seed)
    threshold = streams.sign_threshold(params.p_plus)
    first = streams.level_offset(b, level) + start
    words = streams.node_words(
        state, np.arange(first, first + count, dtype=np.uint64))
    expected = np.packbits((words.astype(object) >= threshold).astype(bool))
    out = np.empty((count + 7) // 8, dtype=np.uint8)
    assert np.array_equal(
        streams.sign_bits(state, b, level, start, count, threshold, out=out),
        expected)


@PROPERTY
@given(params=params_st, n=st.integers(0, 6), k=st.integers(1, 3))
def test_deeper_field_expands_shallower_leaves(params, n, k):
    """Depth-(n+k) leaves are the depth-n leaves, each repeated b times per
    level, XORed with the fresh sign bits of levels n+1..n+k."""
    b = params.base
    state = streams.premix_seed(params.seed)
    threshold = streams.sign_threshold(params.p_plus)
    bits = generate_leaf_signs(params, n).leaf_bits()
    for level in range(n + 1, n + k + 1):
        bits = np.repeat(bits, b) ^ _unpacked_sign_bits(
            state, b, level, 0, b**level, threshold)
    assert np.array_equal(bits, generate_leaf_signs(params, n + k).leaf_bits())


@pytest.mark.xfail(strict=True, reason=(
    "for a base that is not a power of 2, generate_leaf_signs expands "
    "levels wider than its 2^22-leaf chunk from chunk starts that are not "
    "multiples of b, so leaves past the first chunk take the wrong parent"))
def test_deeper_field_expands_shallower_leaves_across_chunks():
    """The expansion property at b = 3, depth 14: 3^14 leaves span two
    expansion chunks, and 2^22 is not a multiple of 3."""
    params = CascadeParams(base=3, hurst=0.7, seed=1)
    state = streams.premix_seed(params.seed)
    threshold = streams.sign_threshold(params.p_plus)
    bits = np.repeat(generate_leaf_signs(params, 13).leaf_bits(), 3) \
        ^ _unpacked_sign_bits(state, 3, 14, 0, 3**14, threshold)
    assert np.array_equal(bits, generate_leaf_signs(params, 14).leaf_bits())


@pytest.mark.parametrize("params, depth", [
    (CascadeParams(base=2, hurst=0.7, seed=1), 12),
    (CascadeParams(base=2, hurst=None, seed=5), 12),
    (CascadeParams(base=4, hurst=0.3, seed=2), 6),
])
def test_field_is_independent_of_the_chunk_size(params, depth, monkeypatch):
    """With a 2^8-node chunk every level past 2^8 nodes is drawn in many
    chunks, each hashed, XORed with its parents and packed on its own;
    for a base that divides the chunk the packed field is the same."""
    whole = generate_leaf_signs(params, depth).packed
    monkeypatch.setattr(core, "_CHUNK", 2**8)
    assert np.array_equal(generate_leaf_signs(params, depth).packed, whole)


def _unpacked_expansion(params, depth, chunk):
    """The expansion loop with every parent range unpacked: each chunk of
    ``chunk`` nodes is hashed, XORed with the bits of its parents, b
    copies each, counted from parent lo // b of the chunk start lo, and
    packed."""
    b = params.base
    state = streams.premix_seed(params.seed)
    threshold = streams.sign_threshold(params.p_plus)
    parents = np.zeros(1, dtype=np.uint8)
    for level in range(1, depth + 1):
        count = b**level
        packed = np.empty((count + 7) // 8, dtype=np.uint8)
        for lo in range(0, count, chunk):
            hi = min(lo + chunk, count)
            part = _unpacked_sign_bits(state, b, level, lo, hi - lo,
                                       threshold)
            first = lo // b
            bits = np.unpackbits(parents)[first:first + (hi - lo + b - 1) // b]
            part ^= np.repeat(bits, b)[:hi - lo]
            packed[lo // 8:(hi + 7) // 8] = np.packbits(part)
        parents = packed
    return parents


@pytest.mark.parametrize("b, depth", [
    (2, 11), (4, 6), (3, 7), (5, 5), (6, 4), (7, 4),
])
def test_packed_expansion_matches_the_unpacked_loop(b, depth, monkeypatch):
    """With a 2^8-node chunk, parent lo // b of a chunk start lo sits
    15, 15, 12 and 28 bits into its spread bytes at b = 3, 5, 6 and 7
    (0 at b = 2 and 4), so the byte-wise XOR shifts each parent byte and
    carries bits from the next; the packed field, padding included, is
    that of the loop that unpacks its parents, byte for byte."""
    monkeypatch.setattr(core, "_CHUNK", 2**8)
    for params in (CascadeParams(base=b, hurst=0.7, seed=1),
                   CascadeParams(base=b, hurst=None, seed=9)):
        for n in (depth - 1, depth):
            assert generate_leaf_signs(params, n).packed.tobytes() == \
                _unpacked_expansion(params, n, 2**8).tobytes()


def _path_slices(values, width):
    """Views of ``values`` over samples [s, s + width] for s = 0, width,
    ..., as ``core.path_slices`` yields them."""
    for start in range(0, values.size - 1, width):
        yield values[start:start + width + 1]


def _walk(seed, size):
    """A random-walk sample vector, the shape of a cascade path."""
    return np.cumsum(np.random.default_rng(seed).standard_normal(size))


@settings(PROPERTY, max_examples=120)
@given(seed=st.integers(0, 2**32), n=st.integers(13, 15), data=st.data())
def test_block_oscillation_is_the_window_range(seed, n, data):
    """Block-table oscillation equals max - min of the raw window, for
    windows shorter than one block, windows spanning whole blocks, windows
    on block boundaries and windows ending at the last sample."""
    m = 2**n
    v = _walk(seed, m + 1)
    kind = data.draw(st.sampled_from(["short", "long", "aligned", "last"]))
    if kind == "short":
        i = data.draw(st.integers(0, m))
        j = data.draw(st.integers(i, min(m, i + _BLOCK - 1)))
    elif kind == "long":
        i = data.draw(st.integers(0, m - 2 * _BLOCK))
        j = data.draw(st.integers(i + 2 * _BLOCK - 1, m))
    elif kind == "aligned":
        k = data.draw(st.integers(0, m // _BLOCK - 1))
        lst = data.draw(st.integers(k + 1, m // _BLOCK))
        i = k * _BLOCK
        j = lst * _BLOCK - data.draw(st.sampled_from([0, 1]))
    else:
        i = data.draw(st.integers(0, m))
        j = m
    # put the window's extreme on one of its end samples, where a dropped
    # head or tail sample would show
    end = data.draw(st.sampled_from([None, i, j]))
    if end is not None:
        v[end] = v.max() + 1.0 if data.draw(st.booleans()) else v.min() - 1.0
    window = v[i:j + 1]
    summary = _summarize(CascadeParams(base=2), n,
                         lambda width: _path_slices(v, width),
                         windows=[(i, j)])
    assert summary.oscillations.tolist() == [window.max() - window.min()]


@PROPERTY
@given(seed=st.integers(0, 2**32), b=st.sampled_from([2, 3, 5]),
       data=st.data())
def test_pyramid_levels_match_reduceat(seed, b, data):
    """Each pyramid level holds the block extrema that reduceat gives,
    over raw samples (level n is the samples themselves) and, as the
    wide box columns read them, over a table of level-j_lo extrema."""
    n = data.draw(st.integers(1, {2: 12, 3: 8, 5: 5}[b]))
    j_hi = data.draw(st.integers(0, n))
    j_lo = data.draw(st.integers(0, j_hi))
    m = b**n
    v = _walk(seed, m)

    def reduceat(j):
        starts = np.arange(0, m, b**(n - j))
        return (np.minimum.reduceat(v, starts),
                np.maximum.reduceat(v, starts))

    levels = list(_level_extrema(v, v, b, n, j_hi, j_lo))
    assert [j for j, _, _ in levels] == list(range(j_hi, j_lo - 1, -1))
    table_hi = data.draw(st.integers(0, j_lo))
    table_lo = data.draw(st.integers(0, table_hi))
    table = list(_level_extrema(*reduceat(j_lo), b, j_lo, table_hi,
                                table_lo))
    assert [j for j, _, _ in table] == list(range(table_hi, table_lo - 1,
                                                  -1))
    for j, mins, maxs in levels + table:
        expected_mins, expected_maxs = reduceat(j)
        assert np.array_equal(mins, expected_mins)
        assert np.array_equal(maxs, expected_maxs)


#: Strides of the routes of ``core.path_slices``: within a byte,
#: multiples of 8, and straddling bytes (from unpacked bits).
PATH_STRIDES = {2: (1, 2, 4, 8, 64, 256), 3: (1, 3, 9, 27, 81, 243)}


def _assert_path_is_running_sum(params, n, point_counts, samples):
    """build_path of a depth-n field at each ``max_points`` in
    ``point_counts``: the stride is the smallest power of b with at most
    ``max_points`` cells, and slices of 2^16 leaves and of ``samples()``
    samples both give b^(-nH) times the running sum of the unpacked leaf
    signs, taken every ``stride`` leaves, bit for bit."""
    b = params.base
    field = generate_leaf_signs(params, n)
    running = np.concatenate(
        [[0], np.cumsum(1 - 2 * field.leaf_bits().astype(np.int64))])

    def built(max_points, size):
        with mock.patch.object(core, "_SLICE", size):
            return build_path(field, max_points=max_points)

    for max_points in point_counts:
        path = built(max_points, 2**16)
        stride = path.stride
        assert b**n // stride <= max_points
        assert stride == 1 or b**n // (stride // b) > max_points
        expected = (params.weight_scale(n) * running[::stride]).tobytes()
        assert path.values.tobytes() == expected
        assert built(max_points, samples() * stride).values.tobytes() == \
            expected


@PROPERTY
@given(params=params_st, data=st.data())
def test_path_bits_do_not_depend_on_the_slice_size(params, data):
    """build_path reads the packed field in slices of at most
    ``core._SLICE`` leaves, at the smallest power-of-b stride that keeps
    at most ``max_points`` cells.  At each stride, at the stride b^n of a
    one-cell path, and at the stride of 1, 5, 64 or b^n points, slices of
    3, 5 or 7 samples (which start inside a byte at strides 1 to 4 and 3
    to 243, the last one ragged) and 2^16-leaf slices both give b^(-nH)
    times the running sum of the unpacked leaf signs, taken every
    ``stride`` leaves, bit for bit."""
    b = params.base
    n = data.draw(st.integers(0, {2: 12, 3: 8}[b]))
    strides = {s for s in (*PATH_STRIDES[b], b**n) if s <= b**n}
    drawn = data.draw(st.sampled_from([1, 5, 64, b**n]))
    _assert_path_is_running_sum(
        params, n, sorted({b**n // s for s in strides} | {drawn}),
        lambda: data.draw(st.sampled_from([3, 5, 7])))


@pytest.mark.parametrize("b", [6, 10])
@pytest.mark.parametrize("size", [3, 5, 7])
def test_path_strides_that_straddle_bytes_are_running_sums(b, size):
    """Strides b to b^4 over b^4 leaves at b = 6 and 10, which no
    power of 2 or 3 reaches: 6 and 10 end 4 samples in every 3 and 5
    bytes and 36 and 100 end 2 in every 9 and 25, summed from unpacked
    bits; 216 = 8 * 27 and 1000 = 8 * 125 sum the popcounts of 27 and
    125 whole bytes a sample.  Each path is the running sum of the
    unpacked leaf signs, in slices of ``size`` samples and of 2^16
    leaves."""
    params = CascadeParams(base=b, hurst=0.7, seed=b + size)
    _assert_path_is_running_sum(params, 4, [b**3, b**2, b, 1],
                                lambda: size)


@st.composite
def fit_cases(draw):
    """(params, depth, p_range, j_range, holder_range): box ranges from
    j = 1, whose columns are wider than one slice of the pass, increment
    ranges ending at depth - 6 (None where the depth leaves fewer than 4
    generations, as at b = 5), and the pointwise profile's range where
    the depth reaches its end."""
    params = draw(st.builds(CascadeParams, base=st.sampled_from([2, 3, 5]),
                            hurst=st.sampled_from([None, 0.55, 0.7, 1.0]),
                            seed=st.integers(0, 2**64 - 1)))
    n = draw(st.integers(*{2: (10, 18), 3: (10, 12), 5: (8, 9)}[
        params.base]))
    p_range = (draw(st.integers(2, n - 9)), n - 6) if n >= 11 else None
    j_lo = draw(st.sampled_from([1, 2, n - 5]))
    j_range = (j_lo, draw(st.integers(j_lo + 3, n - 2)))
    profile = n >= HOLDER_J_RANGE[1] and draw(st.booleans())
    return (params, n, p_range, j_range,
            HOLDER_J_RANGE if profile else None)


def _reference_box_counts(values, b, n, j):
    """N_j over the closed columns [k s, (k + 1) s], s = b^(n - j), of
    the full-resolution path ``values``."""
    s = b**(n - j)
    starts = np.arange(0, b**n, s)
    right = values[s::s]
    lo = np.minimum(np.minimum.reduceat(values[:-1], starts), right)
    hi = np.maximum(np.maximum.reduceat(values[:-1], starts), right)
    delta = float(b) ** (-j)
    return int(np.sum(np.floor(hi / delta) - np.floor(lo / delta) + 1.0))


def _reference_profile(values, b, n, holder_range):
    """The pointwise estimates at the 64 mid-cell points, from the raw
    window of each ball |s - t| <= b^-j (clipped to [0, 1] and snapped
    outward to the grid)."""
    m = b**n
    js = np.arange(holder_range[0], holder_range[1] + 1)
    estimates = []
    for t in (np.arange(64) + 0.5) / 64:
        log_osc = []
        for j in js:
            r = float(b) ** (-int(j))
            i_lo = math.floor(max(0.0, t - r) * m)
            i_hi = math.ceil(min(1.0, t + r) * m)
            window = values[i_lo:i_hi + 1]
            log_osc.append(math.log(window.max() - window.min())
                           / math.log(b))
        estimates.append(-float(np.polyfit(js.astype(float), log_osc,
                                           1)[0]))
    return np.array(estimates)


@settings(PROPERTY, max_examples=25)
@given(case=fit_cases())
@example(case=(CascadeParams(base=3, hurst=0.7, seed=1), 14, (4, 8),
               (1, 12), HOLDER_J_RANGE))
@example(case=(CascadeParams(base=2, hurst=0.7, seed=2), 18, (2, 12),
               (1, 16), HOLDER_J_RANGE))
@example(case=(CascadeParams(base=3, hurst=0.95, seed=3), 12, (2, 6),
               (1, 10), HOLDER_J_RANGE))
@example(case=(CascadeParams(base=5, hurst=0.55, seed=4), 9, None,
               (1, 7), None))
def test_field_summary_fits_equal_path_fits(case):
    """The summary of the packed field holds, bit for bit, what a direct
    reading of the full-resolution path gives: box counts from reduceat
    window extrema plus each column's right edge sample, the increment
    samples as a strided view, and the profile from raw ball windows
    (3^14 leaves cross the 2^22-leaf expansion chunk)."""
    params, n, p_range, j_range, holder_range = case
    b = params.base
    field = generate_leaf_signs(params, n)
    summary = summarize_field(field, p_range=p_range,
                              j_range=j_range, holder_range=holder_range)
    values = build_path(field, max_points=b**n).values
    assert summary.box_counts == {
        j: _reference_box_counts(values, b, n, j)
        for j in range(j_range[0], j_range[1] + 1)}
    if p_range is not None:
        step = b**(n - p_range[1])
        assert summary.increments.tobytes() == values[::step].tobytes()
    if holder_range is not None:
        assert pointwise_holder_profile(summary).tobytes() == \
            _reference_profile(values, b, n, holder_range).tobytes()


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: Every float, nan and inf included, and raw 64-bit patterns (which
#: reach subnormals, huge exponents and nan payloads evenly).
any_float = st.floats() | st.integers(0, 2**64 - 1).map(_from_bits)

#: Powers of ten and both neighbours; a tie at the 17th digit; ties and
#: cents at %.2f; signed zeros, the extremes of the range; the edges of
#: %.17g's fixed notation (E = 16, 17 and -4, -5).
TEXT_EXAMPLES = [
    v for k in range(-40, 41) for p in [float(f"1e{k}")]
    for v in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))
] + [1 + 2**-17, 0.125, 0.005, 0.0, -0.0, 5e-324, sys.float_info.max,
     1e16, 1e17, 9.9999999999999999e16, 1e-4, 1e-5]


def _examples(**values):
    """One ``@example`` per value of each keyword."""
    def add(fn):
        for name, vals in values.items():
            for v in reversed(vals):
                fn = example(**{name: v})(fn)
        return fn
    return add


def _kernel_text(table, fmt, row_end="\n", last_end=None):
    return b"".join(reports._table_text(np.asarray(table, dtype=float), fmt,
                                        row_end, last_end)).decode()


@PROPERTY
@given(x=any_float)
@_examples(x=[float(v) for v in TEXT_EXAMPLES])
def test_float_text_kernel_is_percent_text(x):
    """One cell's text from the kernel is ``%.17g % x`` and ``%.2f % x``,
    byte for byte."""
    for fmt in ("%.17g", "%.2f"):
        assert _kernel_text([[x]], fmt) == fmt % x + "\n"


#: A ``%.17g`` table of 3-row blocks that take different character rows:
#: fixed notation only; ``e-05`` cells; a cell left to ``%`` (1e300), a
#: sign and a three-digit exponent.
G17_BLOCKS = [0.5, 12.25, 3.0, 1.5e-05, 2.5e-05, 0.125, 1e300, -7.5,
              2.5e-100]

#: ``%.2f`` blocks whose largest whole part gains a digit in rounding,
#: whose whole parts are all 0, and whose every cell goes to ``%``.
F2_BLOCKS = [[9.999], [99.999, 5.0], [999999999.999, 0.5], [0.004],
             [-1.5, -0.0, 1e9, 2e9, math.nan]]


@PROPERTY
@given(cells=st.lists(any_float, min_size=2, max_size=40),
       cols=st.sampled_from([1, 2, 3]))
@example(cells=G17_BLOCKS, cols=1)
def test_float_table_text_is_percent_rows(cells, cols):
    """Tables of several 3-row blocks, with cells left to ``%`` spliced
    at their places: CSV rows end in a newline, SVG points are joined by
    spaces with no trailing separator."""
    rows = len(cells) // cols
    table = np.array(cells[:rows * cols]).reshape(rows, cols)
    values = table.tolist()
    with mock.patch.object(reports, "_BLOCK_ROWS", 3):
        assert _kernel_text(table, "%.17g") == "".join(
            ",".join("%.17g" % v for v in row) + "\n" for row in values)
        assert _kernel_text(table, "%.2f", " ", "") == " ".join(
            ",".join("%.2f" % v for v in row) for row in values)


def test_float_text_blocks_keep_only_the_rows_they_use():
    """The 3-row blocks of ``G17_BLOCKS`` take different numbers of
    character rows, and every row the ``%.17g`` kernel returns holds a
    character of some cell (or the mark of a cell left to ``%``)."""
    widths = set()
    for lo in range(0, len(G17_BLOCKS), 3):
        rows, _ = reports._g17_cells(np.array(G17_BLOCKS[lo:lo + 3]))
        assert (rows != 0).any(axis=1).all()
        widths.add(len(rows))
    assert len(widths) == 3


@pytest.mark.parametrize("block", F2_BLOCKS)
def test_fixed_text_takes_the_rows_of_the_rounded_whole_part(block):
    """A ``%.2f`` block is ``%`` text, from as many integer-digit rows as
    its largest whole part has digits after rounding (one where every
    cell goes to ``%``), the point and two decimals."""
    x = np.array(block)
    assert _kernel_text(x[:, None], "%.2f") == "".join(
        "%.2f\n" % v for v in block)
    rows, left = reports._f2_cells(x)
    whole = [len(("%.2f" % v).split(".")[0])
             for v, rest in zip(block, left) if not rest]
    assert len(rows) == max(whole, default=1) + 3

"""Peak heap of the path-side stages, the writers, the Monte-Carlo
checks and the density inversion, measured with ``tracemalloc``.

Numpy registers its data buffers with ``tracemalloc``, so the peak of a
call counts every array it allocates, its result included.  Each bound
is the arrays the stage needs to build its result, plus one fixed-size
working chunk and a stated slack for interpreter objects and ufunc
buffers.
"""

import tracemalloc

import numpy as np
import pytest

from cascadekit import charfn, stats, streams
from cascadekit.cli import main
from cascadekit import fractal
from cascadekit.core import (
    _SLICE,
    CascadeParams,
    build_path,
    generate_leaf_signs,
    sample_terminal_depths,
    subtree_rows,
)
from cascadekit.fractal import summarize_field
from cascadekit.reports import (
    _BLOCK_ROWS,
    path_rows,
    write_csv,
    write_svg_polyline,
)

#: Interpreter objects, views and ufunc buffers on top of each bound.
SLACK = 256 * 1024

#: The same on top of a path: its slices hold no per-leaf array, so
#: views and interpreter objects are all that is left.
PATH_SLACK = 32 * 1024


def _peak(fn, *args, **kwargs):
    """(result, peak bytes traced while ``fn`` ran)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _path_bound(points, stride):
    """The result's float64 values, and one slice of the running sum read
    from the packed bytes: its buffer of width + 16 floats and 8 bytes
    per byte it reads (the intp indices of the byte-table lookup, or the
    widened popcounts of whole-byte sums), width * stride / 8 of them."""
    width = max(1, _SLICE // stride)
    return 8 * (points + 1) + 8 * (width + 16) + width * stride


@pytest.mark.parametrize("b, n", [(2, 22), (3, 13)])
def test_full_resolution_path_holds_one_float_array(b, n):
    """The b^n + 1 float64 values plus one slice of 2^16 leaves read
    from their packed bytes (8 * 2^16 + 128 bytes of floats and 2^16 of
    indices); unpacking each slice's bits peaked 138 KiB above its
    floats."""
    params = CascadeParams(base=b, hurst=0.7, seed=3)
    field = generate_leaf_signs(params, n)
    path, peak = _peak(build_path, field, max_points=b**n)
    assert path.values.nbytes == 8 * (b**n + 1)
    assert peak <= _path_bound(b**n, 1) + PATH_SLACK


def test_decimated_path_holds_its_points_and_one_slice():
    """Paths decimated to 2^16 cells read 2^16 leaves per slice, at
    depth 18 four to a sample inside bytes and at depth 24 as popcount
    sums of 32 whole bytes, so their peak is that of a full-resolution
    2^16-cell path (building the stride sums over 2^22-leaf chunks
    peaked at 8.5 MiB at depth 24, and unpacking each slice's bits
    132 KiB above its floats)."""
    params = CascadeParams(base=2, hurst=0.7, seed=3)
    for n in (18, 24):
        field = generate_leaf_signs(params, n)
        path, peak = _peak(build_path, field)
        assert path.stride == 2**(n - 16) and path.values.size == 2**16 + 1
        assert peak <= _path_bound(2**16, path.stride) + PATH_SLACK


def test_box_counting_memory_does_not_grow_with_depth():
    """Box counting streams over fixed-size slices of the path rebuilt
    from the field, so its peak above the field is the same at depth 16
    and depth 20."""
    peaks = []
    for n in (16, 20):
        params = CascadeParams(base=2, hurst=0.7, seed=3)
        field = generate_leaf_signs(params, n)
        _, peak = _peak(summarize_field, field, j_range=(4, n - 2))
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + 16 * 1024


def test_box_counting_memory_does_not_grow_with_column_width():
    """Columns wider than a block are counted from the table of block
    extrema, so counting from j = 1 peaks as counting from j = 8."""
    params = CascadeParams(base=2, hurst=0.7, seed=3)
    field = generate_leaf_signs(params, 20)
    _, wide = _peak(summarize_field, field, j_range=(1, 18))
    _, narrow = _peak(summarize_field, field, j_range=(8, 18))
    assert abs(wide - narrow) <= 16 * 1024


def _expansion_bound(b, n):
    """The packed parents and the packed field, and the three uint64
    blocks and the bool block ``streams.sign_bits`` hashes in."""
    return (b**(n - 1) + 7) // 8 + (b**n + 7) // 8 \
        + 3 * 8 * streams._BLOCK + streams._BLOCK


@pytest.mark.parametrize("b, n", [(2, 23), (2, 26), (3, 14), (5, 10)])
def test_leaf_expansion_holds_two_levels_and_one_chunk(b, n):
    """Every level is hashed chunk by chunk straight into its packed
    bytes and XORed there, byte by byte, with its spread parents: no
    node is held one byte per node, and the chunk's spread parents come
    after the hashing.  At b = 2, depth 26 the level before the last
    held unpacked peaked at 52 MiB, unpacking each chunk's parents took
    2.125 chunks above the two levels, and hashing each chunk into a
    one-byte-per-node buffer took 5.5 MiB.  At b = 5 the parents of the
    chunks past the first are shifted across bytes."""
    params = CascadeParams(base=b, hurst=0.7, seed=3)
    field, peak = _peak(generate_leaf_signs, params, n)
    assert field.packed.nbytes == (b**n + 7) // 8
    assert peak <= _expansion_bound(b, n) + SLACK


def test_subtree_rows_hold_one_byte_per_leaf_and_the_top_field():
    """The rows are the field's unpacked bits, XORed in place: b^n bytes,
    then the depth-p field (its last two packed levels and the hashing
    blocks, b^p words long) and its b^p unpacked bits.  A float or int64
    copy of the rows would add 8 MiB here."""
    b, n, p = 2, 20, 10
    field = generate_leaf_signs(CascadeParams(base=b, hurst=0.7, seed=3), n)
    rows, peak = _peak(subtree_rows, field, p)
    assert rows.nbytes == b**n
    top = (b**(p - 1) + 7) // 8 + (b**p + 7) // 8 + 3 * 8 * b**p + b**p
    assert peak <= b**n + top + b**p + SLACK


def _fractal_bound(b, n):
    """The largest of the three phases of ``fractal --profile``: drawing
    the field; the summary pass, which holds the field, the summary and
    one slice (its floats, the indices of its bytes and its min/max
    pyramid, each at most 8 bytes per sample); and the increment fit,
    which holds the summary and, per increment sample, two float
    temporaries and a bool mask (the magnitudes, the mask of the nonzero
    ones and their copy).  The summary is 8 bytes per increment sample,
    at most b^(n-6) + 1 of them, 16 per block of the extrema table and
    up to two edge extrema of at most 256 bytes each per pointwise
    ball."""
    increments = b**(n - 6) + 1
    width = b**min(n, fractal._log_at_most(b, fractal._SLICE))
    block = b**fractal._log_at_most(b, fractal._BLOCK)
    balls = fractal.PROFILE_POINTS \
        * (fractal.HOLDER_J_RANGE[1] - fractal.HOLDER_J_RANGE[0] + 1)
    summary = 8 * increments + 16 * (b**n // block) + 512 * balls
    return max(_expansion_bound(b, n),
               (b**n + 7) // 8 + summary + 3 * 8 * width,
               summary + (2 * 8 + 1) * increments)


@pytest.mark.parametrize("b, n, ranges", [
    (2, 22, ["--p-range", "4,16", "--j-range", "1,20"]),
    (3, 14, ["--p-range", "4,8", "--j-range", "1,12"]),
])
def test_fractal_command_never_holds_the_path(b, n, ranges, tmp_path):
    """``fractal --profile`` reads its fits from one pass over the packed
    field, far below the 8·(b^n + 1) bytes of a full-resolution path.
    Drawing the field sets the peak at both bases."""
    code, peak = _peak(main, ["fractal", "--profile", "--b", str(b),
                              "--n", str(n), "--H", "0.7", *ranges,
                              "--outdir", str(tmp_path)])
    assert code in (0, 1)
    assert peak <= _fractal_bound(b, n) + SLACK
    assert peak < 8 * b**n / 3


def test_increment_fit_holds_the_magnitudes_a_mask_and_their_copy():
    """The increment fit holds, per increment sample, the magnitudes, the
    mask of the nonzero ones and their copy, then the copy and its logs:
    17 bytes (holding the differences, the magnitudes, the mask, the
    logs and their quotient at once peaked at 33)."""
    params = CascadeParams(base=2, hurst=0.7, seed=3)
    summary = summarize_field(generate_leaf_signs(params, 22),
                              p_range=(4, 16))
    _, peak = _peak(fractal.increment_scaling_exponent, summary)
    assert peak <= (2 * 8 + 1) * summary.increments.size + SLACK


@pytest.fixture(scope="module")
def path_table():
    """A 2^16 + 1-row path (t, value)."""
    params = CascadeParams(base=2, hurst=0.7, seed=3)
    return build_path(generate_leaf_signs(params, 16),
                      max_points=2**16)


def test_csv_writer_holds_one_block_of_text(path_table, tmp_path):
    """The float table's text is built and written one block of rows at a
    time: one column's working arrays and character rows and the other
    column's rows, 200 bytes per block row for two columns (the peak is
    181 above ``SLACK``; holding the text of the block before took 221),
    whatever the number of rows (``%`` cell by cell peaked at 7.2 MiB on
    this table)."""
    table = path_rows(path_table)
    assert table.shape == (2**16 + 1, 2)
    _, peak = _peak(write_csv, tmp_path / "p.csv", ["t", "value"], table,
                    {"tool": "cascadekit"})
    assert peak <= 200 * _BLOCK_ROWS + SLACK


def test_svg_writer_holds_the_points_and_one_block(path_table, tmp_path):
    """The SVG writer holds the scaled points, 32 bytes per row (x and y,
    and their two-column table), plus one block of their text at 80
    bytes per block row (the peak is 70 above the points and ``SLACK``,
    84 while the text of the block before was held; ``%`` cell by cell
    peaked at 7.5 MiB)."""
    rows = path_table.values.size
    _, peak = _peak(write_svg_polyline, tmp_path / "p.svg", path_table.grid,
                    path_table.values, {"tool": "cascadekit"})
    assert peak <= 32 * rows + 80 * _BLOCK_ROWS + SLACK


#: Bytes per value that ``stats._ndtr`` holds at once: x, |x|, the result,
#: the tail's |x|, erfc's result and -z^2, one branch's z, -z^2 and
#: exp(-z^2) with its Horner temporaries, the branch masks, and the exp
#: loop's Python floats and their list (32 bytes per value).  A block in
#: the far tail, where every value takes the exp loop, traced 101.5.
NDTR_BYTES = 104


def _ks_bound(n):
    """The sorted copy (8 bytes per sample), the run-edge mask (1 byte
    per sample) and the run bounds (8 bytes per run, read as the two
    views of run starts and ends), plus one CDF block: 2^13 values at
    ``NDTR_BYTES`` each and the block's values, CDF and two differences,
    8 bytes each."""
    return 8 * n + (n + 1) + 8 * (n + 1) + 2**13 * (NDTR_BYTES + 4 * 8)


def test_ks_holds_the_sorted_copy_and_one_cdf_block():
    """A continuous sample has as many runs as samples, so the run bounds
    are as large as the sorted copy, but the CDF and the differences are
    held one block at a time (the per-sample CDF, index and difference
    arrays peaked at 7.3 MB on these 10^5 samples)."""
    n = 10**5
    x = np.random.default_rng(1).standard_normal(n)
    _, peak = _peak(stats.ks_statistic, x)
    assert peak <= _ks_bound(n) + SLACK


def _replay_draws(monkeypatch, params, depths, reps):
    """Draw the count chain's columns once and make the checks read
    copies of them, so that a traced call holds the draws but not the
    chain's own working set, which depends on how many threads it runs
    on."""
    draws = sample_terminal_depths(params, depths, reps)
    monkeypatch.setattr(stats, "sample_terminal_depths",
                        lambda *args: tuple(z.copy() for z in draws))


def test_residual_check_holds_one_draw_and_one_ks(monkeypatch):
    """The residual is built in the deeper draw's buffer and the shallower
    draw is dropped before the KS distance, so the check holds the two
    draws (8 bytes per replica each) and then the residual and one KS
    call (three draws, the residual and the KS arrays peaked at 9.8 MB)."""
    params = CascadeParams(base=2, hurst=0.7, seed=1)
    reps, n = 10**5, 12
    _replay_draws(monkeypatch, params, (n, n + 12), reps)
    report, peak = _peak(stats.residual_clt_test, params, n, reps)
    assert report.sample_size == reps
    assert peak <= max(2 * 8 * reps, 8 * reps + _ks_bound(reps)) + SLACK


def test_terminal_trend_holds_its_draws_and_one_column(monkeypatch):
    """The trend holds its draws and one working column, which takes in
    turn each depth's sorted copy and its four powers, whose variances
    are taken in place; the KS edge mask (1 byte per replica) comes on
    top while the column is sorted.  The lattice draws at H = 0.3 have
    at most 1,391 distinct values per depth, so the run bounds and the
    CDF block stay inside ``SLACK`` (the peak is 41 KiB above the four
    columns and the mask).  The sorted copy, x**q and the standard
    deviation's temporary of x - mean made five columns and peaked at
    3.83 MiB."""
    params = CascadeParams(base=2, hurst=0.3, seed=1)
    reps, depths = 10**5, (8, 12, 16)
    _replay_draws(monkeypatch, params, depths, reps)
    (reports, _), peak = _peak(stats.clt_terminal_trend, params, depths,
                               reps)
    assert [r.sample_size for r in reports] == [reps] * len(depths)
    assert peak <= (len(depths) + 1) * 8 * reps + (reps + 1) + SLACK


def test_density_holds_the_t_grid_and_one_kernel_block():
    """The x-grid and the density (8 bytes per x each), ten complex
    arrays of the t-grid (the ladder's steps, phi and the weighted real
    and imaginary parts), and one kernel block: ``_KERNEL_BYTES`` per
    t-point for each of 64 columns.  At b = 2, H = 0.95 the t-grid has
    319 points; 512-column blocks peaked at 7.9 MB."""
    result, peak = _peak(charfn.density_of_z,
                         CascadeParams(base=2, hurst=0.95))
    n_t, n_x = result.t.size, result.x.size
    assert n_t == 319
    bound = 16 * n_x + 10 * 16 * n_t + n_t * 64 * charfn._KERNEL_BYTES
    assert peak <= bound + SLACK

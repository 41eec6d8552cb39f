"""Serialization of analysis artifacts: CSV, JSON, and SVG writers.

Every file these writers produce opens with a metadata block carrying
the tool version and the full effective run configuration (including the
seed), so any output can be regenerated bit-identically from its own
header.  CSV metadata lines are ``# key = value`` comments; JSON carries
the same pairs under a ``"meta"`` object; SVG carries them in a leading
XML comment.

Numbers in CSV bodies are ``%.17g`` text ('.' decimal, no grouping),
enough to round-trip float64 exactly; SVG points are ``%.2f`` text.
Float tables (paths, densities, characteristic functions, SVG points)
travel as 2-D float64 arrays, and numpy builds their text a block of
rows at a time, byte for byte the text ``%`` writes.  A kernel per
format returns a column's text as character rows, one uint8 row per
character place and zero where a cell has none; one loop writes the
decimal digits of uint32 arrays for both:

* ``%.17g``: the 17-digit significand D = round(|x|·10^(16-E)) comes
  from Dekker's exact two-product of |x| with a double-double 10^(16-E)
  built from exact integers, so the scaled value carries a relative
  error below 2^-100, under 1e-13 in absolute terms.  E is chosen on the
  unrounded product, and D = 10^17 after rounding carries into E + 1.
  ``%g``'s layout follows: fixed notation for -4 <= E < 17, else
  ``d.ddde±XX``, with trailing zeros and a bare point dropped.  D's
  digits are its top 9 and bottom 8; the rows are the sign, the
  ``0.000`` lead below 1, the digits with their point and the exponent,
  and a block keeps only the rows some cell uses.
* ``%.2f``: 100·x = p + e exactly (Dekker), and the rounding to cents,
  ties to even, is decided exactly from (p - floor p) - 1/2 against -e.
  A block takes as many integer-digit rows as its largest rounded whole
  part has digits, then the point and the two cents.

``%`` itself writes the cells the error bound cannot decide or the
kernel does not cover: ``%.17g`` cells whose scaled fraction lies within
1e-6 of 1/2, zeros, non-finite values and |x| outside [1e-290, 1e290];
``%.2f`` cells that are negative or -0.0, non-finite, or at least 1e9.
Metadata values and mixed-type rows (moment tables, fractal fits) go
through ``%`` cell by cell.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping

import numpy as np

FLOAT_FMT = "%.17g"

#: Rows per formatting block of a float table: large enough to amortize
#: the per-block numpy calls, small enough that each float temporary
#: (64 KiB) reuses freed heap memory.  At 2^14 rows (128 KiB) one
#: column block, timed alone, page-faulted about 300 fresh pages a call.
_BLOCK_ROWS = 2**13

#: Veltkamp's splitter 2^27 + 1: ``c = _SPLIT * a; c - (c - a)`` is the
#: top 26 bits of a, as Dekker's exact product needs.
_SPLIT = 134217729.0

#: Byte that stands in the text for a cell whose text ``%`` writes.
_MARK = 1


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = a and hi the top 26 bits of a (Veltkamp)."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10(k_lo: int, k_hi: int) -> np.ndarray:
    """Rows hi, hi's split (hh, hl) and lo, for each k in k_lo..k_hi.

    hi + lo is 10^k truncated to 106 bits, from exact integers, so its
    relative error is below 2^-105; hi = hh + hl splits as ``_split``
    would, done before scaling so that no product overflows.
    """
    rows = []
    for k in range(k_lo, k_hi + 1):
        # 10^k ~ big·2^(f - 106), big in [2^106, 2^107)
        if k >= 0:
            f = (10**k).bit_length() - 1
            big = 10**k << 106 >> f if f <= 106 else 10**k >> (f - 106)
        else:
            f = -(10**-k).bit_length()
            big = (1 << (106 - f)) // 10**-k
        hi = float(big)
        hh, hl = _split(hi)
        rows.append([math.ldexp(v, f - 106)
                     for v in (hi, hh, hl, float(big - int(hi)))])
    return np.array(rows).T


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a·10^k as (s, t): s = fl(a·10^k), t the rest, |t| <= ulp(s)/2.

    a·hi is exact as Dekker's two-product p + err, a·lo adds the rest of
    10^k; the relative error of s + t is below 2^-100.  Every partial
    product is near a·10^k ~ 1e16, so none underflows.
    """
    k_lo = int(k.min())
    idx = k - k_lo
    hi, hh, hl, lo = (np.take(row, idx)
                      for row in _pow10(k_lo, int(k.max())))
    p = a * hi
    ah, al = _split(a)
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    t += a * lo
    s = p + t
    t -= s - p
    return s, t


def _digits(v: np.ndarray, out: np.ndarray) -> None:
    """The decimal digits of each uint32 in v, below 10^len(out), into
    the rows of out, most significant first, as digit values (add 48 for
    ASCII)."""
    for row in out[:0:-1]:
        q = v // 10
        np.subtract(v, q * 10, out=row, casting="unsafe")
        v = q
    out[0] = v


def _g17_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``%.17g`` text of each x as character rows, one column a cell,
    and the cells left to ``%`` (their column holds one _MARK).

    Rows no cell uses are dropped.
    """
    a = np.abs(x)
    done = (a >= 1e-290) & (a <= 1e290)
    a[~done] = 1.0
    # E on the unrounded a·10^(16-E) in [1e16, 1e17); a product less
    # than 0.01 below 1e16 prints as 1e16 from either exponent
    E = np.floor(np.log10(a)).astype(np.int64)
    s, t = _scaled(a, 16 - E)
    while True:
        low = (s < 1e16) | ((s == 1e16) & (t < -0.01))
        high = (s > 1e17) | ((s == 1e17) & (t >= 0))
        moved = low | high
        if not moved.any():
            break
        E += high
        E -= low
        s[moved], t[moved] = _scaled(a[moved], 16 - E[moved])
    # D = round(s + t): s is an integer here, t holds the fraction
    ft = np.floor(t)
    t -= ft
    done &= np.abs(t - 0.5) >= 1e-6
    D = s.astype(np.int64)
    D += ft.astype(np.int64)
    D += t > 0.5
    carry = D == 10**17
    D[carry] = 10**16
    E += carry

    # the 17 digits: D's top 9, then its bottom 8
    top = D // 10**8
    dig = np.empty((17, x.size), np.uint8)
    _digits(top.astype(np.uint32), dig[:9])
    _digits((D - top * 10**8).astype(np.uint32), dig[9:])
    rank = np.arange(18, dtype=np.int8)[:, None]
    last = (rank[1:17] * (dig[1:] != 0)).max(axis=0)  # last nonzero digit
    dig += 48

    fixed = (E >= -4) & (E < 17)
    below_one = fixed & (E < 0)
    sci = ~fixed
    # the last digit before the point, and the row of the point
    point = np.where(fixed & (E >= 0), E, 0).astype(np.int8)
    pos = np.where(below_one, 17, point + 1).astype(np.int8)
    # digits up to the last kept one, one row right past the point
    dig *= rank[:17] <= np.maximum(last, point)
    body = np.zeros((18, x.size), np.uint8)
    np.multiply(dig, rank[:17] < pos, out=body[:17])
    body[1:] += dig * (rank[1:] > pos)
    body += (rank == pos) * np.where((last > point) & ~below_one,
                                     np.uint8(ord(".")), np.uint8(0))

    u8 = np.uint8
    rows = [(x < 0) * u8(ord("-"))]
    if below_one.any():  # the 0.000 lead of fixed notation below 1
        rows += [(below_one & (E < e)) * u8(c)
                 for c, e in zip(b"0.000", (0, 0, -1, -2, -3))]
    rows += list(body)
    if sci.any():  # the exponent e±dd[d]
        mag = np.abs(E)
        rows += [(c * sci).astype(u8) for c in (
            ord("e"), np.where(E < 0, ord("-"), ord("+")),
            np.where(mag >= 100, 48 + mag // 100, 0),
            48 + mag // 10 % 10, 48 + mag % 10)]
    rows = np.stack(rows)
    rows *= done
    rows[0][~done] = _MARK
    return rows[rows.any(axis=1)], ~done


def _f2_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``%.2f`` text of each x as character rows, one column a cell,
    and the cells left to ``%`` (their column holds one _MARK).

    The integer digits take as many rows as the largest rounded whole
    part has digits.
    """
    done = ~np.signbit(x) & (x < 1e9)
    v = np.where(done, x, 0.0)
    # 100·v = p + err exactly (Dekker's two-product; 100 has 7 bits)
    p = 100.0 * v
    vh, vl = _split(v)
    err = (100.0 * vh - p) + 100.0 * vl
    f = np.floor(p)
    half = (p - f) - 0.5  # exact: p < 2^37
    N = f.astype(np.int64)
    N += (half > -err) | ((half == -err) & (N % 2 == 1))
    whole = (N // 100).astype(np.uint32)  # at most 10^9
    width = len(str(whole.max()))
    rows = np.empty((width + 3, x.size), np.uint8)
    _digits(whole, rows[:width])
    _digits((N % 100).astype(np.uint32), rows[width + 1:])
    rows[width] = ord(".")
    # the whole part's digits from its first, and its last if it is 0
    shown = 10 ** np.arange(width - 1, -1, -1, dtype=np.uint32)
    shown[-1] = 0
    rows[:width] += np.uint8(48) * (whole >= shown[:, None])
    rows[width + 1:] += np.uint8(48)
    rows *= done
    rows[0][~done] = _MARK
    return rows, ~done


def _table_text(table: np.ndarray, fmt: str, row_end: str,
                last_end: str | None = None):
    """Text of a float table as ASCII bytes, one block of rows at a time.

    Each cell's text is ``fmt % cell`` (``%.17g`` or ``%.2f``); cells
    are joined by ``,`` and every row ends with ``row_end``, the last
    with ``last_end`` if given.  The kernel of ``fmt`` returns a
    column's text as character rows, one uint8 row per character place
    and zero where a cell has no character there.  A block stacks each
    column's rows and one row of its separators; one transpose puts the
    characters in text order and deleting the zero bytes leaves the
    text.  Cells the kernel leaves to ``%`` are spliced in at their
    marks.
    """
    cells = _g17_cells if fmt == FLOAT_FMT else _f2_cells
    rows, cols = table.shape
    blk = max(1, min(rows, _BLOCK_ROWS))
    ends = np.full((cols, blk), ord(","), np.uint8)
    ends[-1] = ord(row_end)
    for lo in range(0, rows, blk):
        block = table[lo:lo + blk]
        k = len(block)
        if lo + k == rows and last_end is not None:
            ends[-1, k - 1] = ord(last_end) if last_end else 0
        parts = []
        left = np.empty((k, cols), bool)
        for j in range(cols):
            text, left[:, j] = cells(block[:, j])
            parts += [text, ends[j:j + 1, :k]]
        data = np.concatenate(parts).T.tobytes().translate(None, b"\0")
        if left.any():
            parts = data.split(bytes([_MARK]))
            spliced = [parts[0]]
            for value, part in zip(block[left].tolist(), parts[1:]):
                spliced += [(fmt % value).encode(), part]
            data = b"".join(spliced)
        yield data
        del data  # not held while the next block is built


def metadata_items(config: Mapping[str, object]) -> list[tuple[str, str]]:
    """Normalized (key, value-string) pairs, insertion-ordered."""
    out = []
    for key, value in config.items():
        if isinstance(value, float):
            text = format_float(value)
        elif isinstance(value, (list, tuple)):
            text = ",".join(str(v) for v in value)
        elif value is None:
            text = "none"
        else:
            text = str(value)
        out.append((str(key), text))
    return out


def write_csv(path, header: list[str],
              rows: np.ndarray | Iterable[tuple],
              config: Mapping[str, object]) -> None:
    """CSV with a ``# key = value`` metadata block before the header row.

    ``rows`` is either a 2-D array, whose cells are written as float64,
    or an iterable of tuples of mixed type.  Row cells that are floats
    are rendered at 17 significant digits; everything else via str().
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, text in metadata_items(config):
            fh.write(f"# {key} = {text}\n")
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            table = np.asarray(rows, dtype=np.float64)
            # the table's text goes to the byte stream, untranslated like
            # the lines above (newline="\n")
            fh.flush()
            fh.buffer.writelines(_table_text(table, FLOAT_FMT, "\n"))
        else:
            for row in rows:
                cells = [format_float(c)
                         if isinstance(c, (float, np.floating))
                         else str(c) for c in row]
                fh.write(",".join(cells) + "\n")


def write_json(path, payload: Mapping[str, object],
               config: Mapping[str, object]) -> None:
    """JSON document: {"meta": {...}, **payload}, stable key order.

    Strict JSON: numpy values become Python ones and NaN and infinities
    become null, which the ``passed`` flags of failed checks still record.
    """
    doc = _json_safe({"meta": dict(metadata_items(config)), **payload})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False, allow_nan=False)
        fh.write("\n")


def _json_safe(value):
    """``value`` with numpy scalars and arrays as Python values and every
    non-finite float as None, which JSON writes as null."""
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def stat_report_payload(report) -> dict:
    """:func:`write_json` payload of a StatReport (stable key names)."""
    params = report.params
    return {
        "test": report.test,
        "params": {"base": params.base,
                   "hurst": ("sym" if params.hurst is None
                             else params.hurst),
                   "seed": params.seed},
        "sample_size": report.sample_size,
        "statistics": dict(report.statistics),
        "thresholds": dict(report.thresholds),
        "passed": report.passed,
        "seed": params.seed,
    }


def dimension_fit_payload(fit) -> dict:
    """:func:`write_json` payload of a DimensionFit."""
    return {
        "kind": fit.kind,
        "scales": fit.scales,
        "log_values": fit.log_values,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "estimate": fit.estimate,
        "zero_increments": fit.zero_increments,
    }


def path_rows(path) -> np.ndarray:
    """(t, value) table for a SamplePath CSV."""
    return np.column_stack((path.grid, path.values))


def density_rows(result) -> np.ndarray:
    """(x, density) table for a DensityResult CSV."""
    return np.column_stack((result.x, result.density))


def charfn_rows(result) -> np.ndarray:
    """(t, re, im) table of a DensityResult's inverted phi on [-t_max, t_max].

    The negative half is the conjugate reflection of the t >= 0 grid,
    phi(-t) = conj(phi(t)), so the table is Hermitian by construction.
    """
    t = np.concatenate([-result.t[:0:-1], result.t])
    phi = np.concatenate([np.conj(result.phi[:0:-1]), result.phi])
    return np.column_stack((t, phi.real, phi.imag))


def write_svg_polyline(path, xs: np.ndarray, ys: np.ndarray,
                       config: Mapping[str, object]) -> None:
    """Standalone 800 x 400 SVG of a polyline, no plotting dependencies.

    Metadata rides in a leading XML comment.  The y-range is padded 5%
    and degenerate (constant) data gets a unit band so the line stays
    visible.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    width, height, margin = 800, 400, 10.0
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if y_hi == y_lo:
        y_lo -= 0.5
        y_hi += 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    px = margin + (xs - x_lo) / (x_hi - x_lo) * (width - 2 * margin)
    py = height - margin - (ys - y_lo) / (y_hi - y_lo) * (height
                                                          - 2 * margin)
    meta = "\n".join(f"{k} = {v}" for k, v in metadata_items(config))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        fh.write(f"<!--\n{meta}\n-->\n")
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{width}" height="{height}" '
                 f'viewBox="0 0 {width} {height}">\n')
        fh.write(f'<rect width="{width}" height="{height}" '
                 f'fill="white"/>\n')
        fh.write('<polyline points="')
        fh.flush()
        fh.buffer.writelines(_table_text(np.column_stack((px, py)), "%.2f",
                                         " ", last_end=""))
        fh.write('" fill="none" stroke="#20506e" stroke-width="0.8"/>\n')
        fh.write("</svg>\n")

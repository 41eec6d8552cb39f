"""Serialization of analysis artifacts: CSV, JSON, and SVG writers.

Every file these writers produce opens with a metadata block carrying
the tool version and the full effective run configuration (including the
seed), so any output can be regenerated bit-identically from its own
header.  CSV metadata lines are ``# key = value`` comments; JSON carries
the same pairs under a ``"meta"`` object; SVG carries them in a leading
XML comment.

Numbers in CSV bodies are written with 17 significant digits ('.'
decimal, no grouping), enough to round-trip float64 exactly.  Float
tables (paths, densities, characteristic functions) travel as 2-D
float64 arrays and are formatted a block of rows at a time with one
``%``-template, which yields the same text as formatting cell by cell.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

import numpy as np

FLOAT_FMT = "%.17g"

#: Rows per formatting block of a float table: large enough to amortize
#: the template, small enough to keep each block's text in cache.
_BLOCK_ROWS = 2**14


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


def _format_blocks(table: np.ndarray, row_fmt: str,
                   sep: str = "") -> list[str]:
    """Text of a 2-D table, one string per block of rows.

    Each block is ``sep.join([row_fmt] * k) % cells`` over the block's
    k rows, with the cells taken from one ``.tolist()`` of the table, so
    every number goes through the same ``%`` conversion as a per-cell
    loop would and the text is the same.
    """
    cols = table.shape[1]
    cells = table.ravel().tolist()
    step = _BLOCK_ROWS * cols
    full = sep.join([row_fmt] * _BLOCK_ROWS)
    blocks = []
    for lo in range(0, len(cells), step):
        chunk = cells[lo:lo + step]
        rows = len(chunk) // cols
        template = full if rows == _BLOCK_ROWS else sep.join([row_fmt]
                                                            * rows)
        blocks.append(template % tuple(chunk))
    return blocks


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
    with open(path, "w", encoding="utf-8") as fh:
        for key, text in metadata_items(config):
            fh.write(f"# {key} = {text}\n")
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            table = np.asarray(rows, dtype=np.float64)
            row_fmt = ",".join([FLOAT_FMT] * table.shape[1]) + "\n"
            fh.writelines(_format_blocks(table, row_fmt))
        else:
            for row in rows:
                cells = [format_float(c)
                         if isinstance(c, (float, np.floating))
                         else str(c) for c in row]
                fh.write(",".join(cells) + "\n")


def write_json(path, payload: Mapping[str, object],
               config: Mapping[str, object]) -> None:
    """JSON document: {"meta": {...}, **payload}, stable key order."""
    doc = {"meta": dict(metadata_items(config))}
    doc.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _json_safe(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and value != value:  # NaN
        return None
    return value


def stat_report_payload(report) -> dict:
    """JSON-ready dict for a StatReport (stable key names)."""
    params = report.params
    return _json_safe({
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
    })


def dimension_fit_payload(fit) -> dict:
    """JSON-ready dict for a DimensionFit."""
    return _json_safe({
        "kind": fit.kind,
        "scales": fit.scales,
        "log_values": fit.log_values,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "estimate": fit.estimate,
        "zero_increments": fit.zero_increments,
    })


def path_rows(path) -> np.ndarray:
    """(t, value) table for a SamplePath CSV."""
    return np.column_stack((path.grid, path.values))


def density_rows(result) -> np.ndarray:
    """(x, density) table for a DensityResult CSV."""
    return np.column_stack((result.x, result.density))


def charfn_rows(grid) -> np.ndarray:
    """(t, re, im) table for a characteristic-function grid CSV."""
    return np.column_stack((grid.t, grid.values.real, grid.values.imag))


def write_svg_polyline(path, xs: np.ndarray, ys: np.ndarray,
                       config: Mapping[str, object], *,
                       width: int = 800, height: int = 400) -> None:
    """Standalone SVG of a polyline, no plotting dependencies.

    Metadata rides in a leading XML comment.  The y-range is padded 5%
    and degenerate (constant) data gets a unit band so the line stays
    visible.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    margin = 10.0
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
    points = " ".join(_format_blocks(np.column_stack((px, py)),
                                     "%.2f,%.2f", " "))
    meta = "\n".join(f"{k} = {v}" for k, v in metadata_items(config))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        fh.write(f"<!--\n{meta}\n-->\n")
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{width}" height="{height}" '
                 f'viewBox="0 0 {width} {height}">\n')
        fh.write(f'<rect width="{width}" height="{height}" '
                 f'fill="white"/>\n')
        fh.write(f'<polyline points="{points}" fill="none" '
                 f'stroke="#20506e" stroke-width="0.8"/>\n')
        fh.write("</svg>\n")

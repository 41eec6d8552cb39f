"""Serialization of analysis artifacts: CSV, JSON, and SVG writers.

Every file these writers produce opens with a metadata block carrying
the tool version and the full effective run configuration (including the
seed), so any output can be regenerated bit-identically from its own
header.  CSV metadata lines are ``# key = value`` comments; JSON carries
the same pairs under a ``"meta"`` object; SVG carries them in a leading
XML comment.

Numbers in CSV bodies are written with 17 significant digits ('.'
decimal, no grouping), enough to round-trip float64 exactly.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

import numpy as np

FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


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


def write_csv(path, header: list[str], rows: Iterable[tuple],
              config: Mapping[str, object]) -> None:
    """CSV with a ``# key = value`` metadata block before the header row.

    Row cells that are floats are rendered at 17 significant digits;
    everything else via str().
    """
    with open(path, "w", encoding="utf-8") as fh:
        for key, text in metadata_items(config):
            fh.write(f"# {key} = {text}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [format_float(c) if isinstance(c, (float, np.floating))
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


def path_rows(path) -> Iterable[tuple[float, float]]:
    """(t, value) rows for a SamplePath CSV."""
    return zip(path.grid.tolist(), path.values.tolist())


def density_rows(result) -> Iterable[tuple[float, float]]:
    return zip(result.x.tolist(), result.density.tolist())


def charfn_rows(grid) -> Iterable[tuple[float, float, float]]:
    return zip(grid.t.tolist(), grid.values.real.tolist(),
               grid.values.imag.tolist())


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
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
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

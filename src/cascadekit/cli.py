"""Command-line surface: simulate paths, tabulate moments, run checks.

Subcommands map one-to-one onto the library layers:

  simulate   sample paths at several depths -> CSV (+ SVG polyline)
  moments    exact moment tables and constants -> CSV / stdout
  clt        Monte-Carlo limit-law checks -> JSON StatReports (stdout:
             each gated value next to its tolerance)
  fractal    box dimension and Hölder estimates -> CSV + JSON
  density    characteristic function and inverted density -> CSVs

Importing this module and every subcommand load numpy and nothing
heavier; ``clt``'s KS distances evaluate the standard normal CDF with a
local port of Cephes' ``ndtr`` (see
:func:`cascadekit.stats.ks_statistic`).

Configuration can come from flags or from a ``key = value`` file passed
with --config (on/off keys take true or false); explicit flags always win
over file values.  The default output directory is $CASCADEKIT_OUTDIR,
falling back to the current directory.  Every emitted file starts with a
metadata block holding the tool version and the full effective
configuration.

Exit codes (stable contract): 0 all requested checks passed, 1 a
threshold or runtime failure, 2 usage errors including regime
mismatches (each such diagnostic names the mathematical restriction
that was violated).  The library raises every usage and capacity error
before anything is hashed, drawn or written, and the output directory is
created only after that, so a refused run leaves nothing behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .charfn import MIN_X_POINTS, density_of_z
from .core import (
    DEFAULT_MAX_POINTS,
    CapacityError,
    CascadeParams,
    Regime,
    build_path,
    check_leaf_budget,
    check_max_points,
    generate_leaf_signs,
    hurst_tag,
    normalize_path,
    regime_divisor,
    regime_of,
    require_regime,
    sigma,
)
from .fractal import (
    HOLDER_J_RANGE,
    PROFILE_POINTS,
    box_dimension,
    check_scale_range,
    increment_scaling_exponent,
    pointwise_holder_profile,
    summarize_field,
)
from .moments import (
    gaussian_even_moments,
    limit_z_moments,
    z_moment_recursion,
)
from .reports import (
    charfn_rows,
    density_rows,
    format_float,
    path_rows,
    stat_report_payload,
    write_csv,
    write_json,
    write_svg_polyline,
)
from .stats import (
    clt_small_h_test,
    clt_terminal_trend,
    empirical_vs_exact_moments,
    increments_gaussianity,
    residual_clt_test,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _parse_hurst(text: str):
    if text.strip().lower() in ("sym", "symmetric"):
        return None
    return float(text)


def _parse_list(kind, text: str) -> tuple:
    values = tuple(kind(part) for part in text.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return values


def _parse_int_list(text: str) -> tuple[int, ...]:
    return _parse_list(int, text)


def _parse_scale_range(text: str) -> tuple[int, int]:
    """``lo,hi``: exactly two integer scales."""
    try:
        scales = _parse_int_list(text)
    except (ValueError, argparse.ArgumentTypeError):
        scales = ()
    if len(scales) != 2:
        raise argparse.ArgumentTypeError(
            f"takes two scales lo,hi, got {text!r}")
    return scales


def _parse_float_list(text: str) -> tuple[float, ...]:
    return _parse_list(float, text)


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--b", type=int, default=2,
                        help="branching base (default 2)")
    parser.add_argument("--H", type=_parse_hurst, default=0.7,
                        help="exponent in (-inf, 1], or 'sym' for the "
                             "symmetric fair-sign case (default 0.7)")
    parser.add_argument("--seed", type=int, default=0,
                        help="stream seed (default 0)")
    parser.add_argument("--outdir", default=None,
                        help="output directory (default "
                             "$CASCADEKIT_OUTDIR or '.')")
    parser.add_argument("--config", default=None,
                        help="key = value config file; flags override it")


def build_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="cascadekit",
        description="Signed multiplicative cascade simulation and "
                    "verification toolkit.")
    parser.add_argument("--version", action="version",
                        version=f"cascadekit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    p_sim = subs.add_parser("simulate", help="sample paths to CSV/SVG")
    _add_common(p_sim)
    p_sim.add_argument("--depths", type=_parse_int_list,
                       default=(8, 12, 18, 27),
                       help="comma-separated depths (default 8,12,18,27)")
    p_sim.add_argument("--normalize", action="store_true",
                       help="apply the regime divisor to each path")
    p_sim.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS,
                       help="decimation threshold for stored/emitted "
                            f"points (default {DEFAULT_MAX_POINTS})")
    p_sim.add_argument("--formats", default="csv,svg",
                       help="comma list from {csv,svg} (default csv,svg)")
    registry["simulate"] = p_sim

    p_mom = subs.add_parser("moments", help="exact moment tables")
    _add_common(p_mom)
    p_mom.add_argument("--n", type=int, default=12,
                       help="table depth (default 12)")
    p_mom.add_argument("--q", type=int, default=8,
                       help="largest moment order (default 8)")
    group = p_mom.add_mutually_exclusive_group()
    group.add_argument("--gaussian", action="store_true",
                       help="print the even-moment induction values")
    group.add_argument("--sigma", action="store_true",
                       help="print the regime normalization constant")
    p_mom.add_argument("--p", type=int, default=4,
                       help="number of even moments with --gaussian")
    registry["moments"] = p_mom

    p_clt = subs.add_parser("clt", help="Monte-Carlo limit-law checks")
    _add_common(p_clt)
    p_clt.add_argument("--test", default="terminal",
                       choices=("terminal", "smallh", "increments",
                                "residual", "moments"),
                       help="which check to run (default terminal)")
    p_clt.add_argument("--n", type=_parse_int_list, default=None,
                       help="depth; --test terminal takes a comma list "
                            "of depths (default 8,12,16 for terminal, "
                            "16 otherwise)")
    p_clt.add_argument("--reps", type=int, default=4000,
                       help="replicas per depth, at least 2 (default 4000)")
    p_clt.add_argument("--h-values", type=_parse_float_list,
                       default=(0.8, 0.65, 0.55, 0.51),
                       help="H sequence for --test smallh")
    p_clt.add_argument("--p", type=int, default=4,
                       help="increment generation for --test increments")
    p_clt.add_argument("--proxy-levels", type=int, default=12,
                       help="extra levels proxying the limit for "
                            "--test residual, at least 1 (default 12)")
    p_clt.add_argument("--q", type=int, default=4,
                       help="largest order for --test moments")
    registry["clt"] = p_clt

    p_fra = subs.add_parser("fractal", help="dimension/exponent estimates")
    _add_common(p_fra)
    p_fra.add_argument("--n", type=int, default=18,
                       help="path depth (default 18)")
    p_fra.add_argument("--p-range", type=_parse_scale_range, default=(4, 12),
                       help="generation range for the increment fit")
    p_fra.add_argument("--j-range", type=_parse_scale_range, default=(4, 12),
                       help="scale range for box counting")
    p_fra.add_argument("--profile", action="store_true",
                       help="also estimate pointwise exponents at "
                            f"{PROFILE_POINTS} positions")
    p_fra.add_argument("--dim-tol", type=float, default=0.1,
                       help="pass band around 2-H for the dimension")
    p_fra.add_argument("--exp-tol", type=float, default=0.05,
                       help="pass band around H for the exponent")
    registry["fractal"] = p_fra

    p_den = subs.add_parser("density", help="limit-mass density via phi")
    _add_common(p_den)
    p_den.add_argument("--depth", type=int, default=None,
                       help="ladder depth (default: auto Cauchy)")
    p_den.add_argument("--x-points", type=int, default=MIN_X_POINTS,
                       help=f"x-grid size, at least {MIN_X_POINTS} "
                            f"(default {MIN_X_POINTS})")
    registry["density"] = p_den

    return parser, registry


def _apply_config_file(argv: list[str], parser: argparse.ArgumentParser,
                       registry: dict[str, argparse.ArgumentParser]):
    """Two-phase parse: file values become defaults, flags override."""
    ns, _ = parser.parse_known_args(argv)
    if getattr(ns, "config", None):
        values = _load_config_file(ns.config)
        sub = registry[ns.command]
        actions = {action.dest: action for action in sub._actions}
        defaults = {}
        for key, value in values.items():
            action = actions.get(key.replace("-", "_"))
            if action is None:
                print(f"warning: ignoring unknown config key '{key}'",
                      file=sys.stderr)
                continue
            # on/off flags have no ``type`` to convert a string default
            if action.const is True:
                if value.lower() not in ("true", "false"):
                    raise ValueError(f"config key '{key}' takes true or "
                                     f"false, got {value!r}")
                value = value.lower() == "true"
            # argparse checks ``choices`` on flags only, never on defaults
            # (every option with choices takes plain strings)
            elif action.choices is not None and value not in action.choices:
                raise ValueError(f"config key '{key}' takes one of "
                                 f"{', '.join(action.choices)}, got {value!r}")
            defaults[action.dest] = value
        sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _effective_config(ns: argparse.Namespace) -> dict[str, object]:
    cfg = {"tool": "cascadekit", "version": __version__}
    skip = {"config"}
    for key, value in sorted(vars(ns).items()):
        if key in skip:
            continue
        if key == "H":
            value = hurst_tag(value)
        cfg[key] = value
    return cfg


def _outdir(ns: argparse.Namespace) -> Path:
    """Create and return the output directory; call just before writing."""
    out = ns.outdir or os.environ.get("CASCADEKIT_OUTDIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _params(ns: argparse.Namespace) -> CascadeParams:
    return CascadeParams(base=ns.b, hurst=ns.H, seed=ns.seed)


def cmd_simulate(ns: argparse.Namespace) -> int:
    params = _params(ns)
    formats = {f.strip() for f in ns.formats.split(",") if f.strip()}
    bad = formats - {"csv", "svg"}
    if bad:
        raise ValueError(f"unknown format(s) {sorted(bad)}")
    if not formats:
        raise ValueError(f"--formats: names no format; got {ns.formats!r}")
    # every depth is checked before the first field is hashed
    for depth in ns.depths:
        if ns.depths.count(depth) > 1:
            raise ValueError(f"--depths: depth {depth} is given more than "
                             "once")
        check_leaf_budget(params.base, depth)
        if ns.normalize:
            regime_divisor(params, depth)
    check_max_points(ns.max_points)
    outdir = _outdir(ns)
    config = _effective_config(ns)
    tag = hurst_tag(params.hurst)
    for depth in ns.depths:
        signs = generate_leaf_signs(params, depth)
        path = build_path(signs, max_points=ns.max_points)
        if ns.normalize:
            path = normalize_path(path)
        suffix = "_norm" if ns.normalize else ""
        stem = f"path_b{params.base}_H{tag}_n{depth}{suffix}"
        meta = dict(config, depth=depth, stride=path.stride,
                    kind=path.kind.name.lower())
        if "csv" in formats:
            write_csv(outdir / f"{stem}.csv", ["t", "value"],
                      path_rows(path), meta)
        if "svg" in formats:
            write_svg_polyline(outdir / f"{stem}.svg", path.grid,
                               path.values, meta)
        print(f"wrote {stem} (depth {depth}, {path.values.size} points, "
              f"stride {path.stride})")
    return EXIT_OK


def cmd_moments(ns: argparse.Namespace) -> int:
    params = _params(ns)
    if ns.gaussian:
        values = gaussian_even_moments(ns.p)
        print(", ".join(str(int(v)) for v in values))
        return EXIT_OK
    if ns.sigma:
        print(f"{sigma(params):.6f}")
        return EXIT_OK
    config = _effective_config(ns)
    tag = hurst_tag(params.hurst)
    table = z_moment_recursion(params, ns.n, ns.q)
    stem = f"moment_table_b{params.base}_H{tag}"
    meta = dict(config, sigma=sigma(params))
    outdir = _outdir(ns)
    write_csv(outdir / f"{stem}.csv", ["n", "q", "value", "flag"],
              table.rows(), meta)
    written = [f"{stem}.csv"]
    if regime_of(params) is Regime.CONVERGENT:
        limits = limit_z_moments(params, ns.q)
        rows = [(q + 1, float(v), "limit") for q, v in enumerate(limits)]
        lim_stem = f"limit_moments_b{params.base}_H{tag}"
        write_csv(outdir / f"{lim_stem}.csv", ["q", "value", "flag"],
                  rows, meta)
        written.append(f"{lim_stem}.csv")
    print("wrote " + ", ".join(written))
    return EXIT_OK


def cmd_clt(ns: argparse.Namespace) -> int:
    # the terminal trend reads D along several depths, every other check
    # runs at one
    if ns.n is None:
        ns.n = (8, 12, 16) if ns.test == "terminal" else (16,)
    elif ns.test != "terminal" and len(ns.n) > 1:
        raise ValueError(f"--n: --test {ns.test} takes one depth; got "
                         f"{','.join(map(str, ns.n))}")
    params = _params(ns)
    config = _effective_config(ns)
    tag = hurst_tag(params.hurst)

    decreasing = None  # the D trend of the checks that read one
    if ns.test == "terminal":
        reports, decreasing = clt_terminal_trend(params, ns.n, ns.reps)
        # early depths are pre-asymptotic by design; the deepest run is
        # the converged one the thresholds were calibrated for
        passed = reports[-1].passed
    elif ns.test == "smallh":
        reports, decreasing = clt_small_h_test(
            ns.h_values, ns.n[0], ns.reps, base=params.base,
            seed=params.seed)
        passed = all(r.passed for r in reports)
    else:  # the single-report checks
        if ns.test == "increments":
            report = increments_gaussianity(params, ns.p, ns.n[0], ns.reps)
        elif ns.test == "residual":
            report = residual_clt_test(params, ns.n[0], ns.reps,
                                       proxy_levels=ns.proxy_levels)
        else:  # moments
            report = empirical_vs_exact_moments(params, ns.n[0], ns.reps,
                                                ns.q)
        reports = [report]
        passed = report.passed
    payload = {"reports": [stat_report_payload(r) for r in reports]}
    if decreasing is not None:
        payload["d_decreasing"] = decreasing

    name = f"clt_{ns.test}_b{params.base}_H{tag}.json"
    write_json(_outdir(ns) / name, payload, config)
    print(f"wrote {name} ({'pass' if passed else 'FAIL'})")
    for report in reports:
        print(report.summary_line())
    if decreasing is not None:  # the trend verdict, which does not gate
        over = (f"n = {','.join(map(str, ns.n))}" if ns.test == "terminal"
                else f"H = {','.join(f'{h:g}' for h in ns.h_values)}")
        ds = ", ".join(f"{r.statistics['ks_distance']:.4g}" for r in reports)
        verdict = "strictly decreasing" if decreasing else \
            "NOT strictly decreasing"
        print(f"ks_distance over {over}: {ds} ({verdict})")
    return EXIT_OK if passed else EXIT_FAIL


def cmd_fractal(ns: argparse.Namespace) -> int:
    params = _params(ns)
    require_regime(params, "fractal estimation", convergent=True,
                   why="the Hölder/dimension claims hold for that limit path")
    # every fit's scale range is checked against --n before hashing
    ranges = [("--p-range", "increment_exponent", ns.p_range),
              ("--j-range", "box_dimension", ns.j_range)]
    if ns.profile:
        ranges.append(("--profile (its pointwise fits use holder_range "
                       f"{HOLDER_J_RANGE[0]},{HOLDER_J_RANGE[1]})",
                       "pointwise_holder", HOLDER_J_RANGE))
    for flag, kind, scale_range in ranges:
        try:
            check_scale_range(kind, ns.n, scale_range)
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from None
    config = _effective_config(ns)
    tag = hurst_tag(params.hurst)
    # one pass over the path rebuilt slice by slice from the packed
    # field; the full-resolution path is never held
    summary = summarize_field(
        generate_leaf_signs(params, ns.n), p_range=ns.p_range,
        j_range=ns.j_range,
        holder_range=HOLDER_J_RANGE if ns.profile else None)
    exp_fit = increment_scaling_exponent(summary)
    box_fit = box_dimension(summary)
    payload = {"increment_exponent": dataclasses.asdict(exp_fit),
               "box_dimension": dataclasses.asdict(box_fit)}
    if ns.profile:
        prof = pointwise_holder_profile(summary)
        payload["pointwise_profile"] = {
            "median": float(np.median(prof)),
            "spread": float(prof.std(ddof=1)),
            "estimates": [float(v) for v in prof],
        }
    stem = f"fractal_b{params.base}_H{tag}_n{ns.n}"
    outdir = _outdir(ns)
    write_json(outdir / f"{stem}.json", payload, config)
    rows = [("exponent", int(s), float(v))
            for s, v in zip(exp_fit.scales, exp_fit.log_values)]
    rows += [("boxdim", int(s), float(v))
             for s, v in zip(box_fit.scales, box_fit.log_values)]
    write_csv(outdir / f"{stem}.csv", ["fit", "scale", "log_value"],
              rows, config)

    h = params.hurst
    dim_ok = abs(box_fit.estimate - (2.0 - h)) <= ns.dim_tol
    exp_ok = abs(exp_fit.estimate - h) <= ns.exp_tol
    print(f"dimension estimate {box_fit.estimate:.4f} (target "
          f"{2.0 - h:.2f} +- {ns.dim_tol}), exponent estimate "
          f"{exp_fit.estimate:.4f} (target {h:.2f} +- {ns.exp_tol})")
    print(f"wrote {stem}.json, {stem}.csv")
    return EXIT_OK if (dim_ok and exp_ok) else EXIT_FAIL


def cmd_density(ns: argparse.Namespace) -> int:
    params = _params(ns)
    result = density_of_z(params, x_points=ns.x_points, depth=ns.depth)
    config = _effective_config(ns)
    tag = hurst_tag(params.hurst)
    integral = result.moment(0)
    mean = result.moment(1)
    second = result.moment(2)
    exact_second = float(limit_z_moments(params, 2)[1])
    meta = dict(config, integral=integral, mean=mean,
                second_moment=second, exact_second_moment=exact_second,
                t_max=result.t_max, ladder_depth=result.depth,
                tail_magnitude=result.tail_magnitude)
    d_stem = f"density_b{params.base}_H{tag}"
    outdir = _outdir(ns)
    write_csv(outdir / f"{d_stem}.csv", ["x", "density"],
              density_rows(result), meta)
    c_stem = f"charfn_b{params.base}_H{tag}"
    write_csv(outdir / f"{c_stem}.csv", ["t", "re", "im"],
              charfn_rows(result), meta)
    ok = (abs(integral - 1.0) <= 1e-6 and abs(mean - 1.0) <= 1e-4
          and abs(second - exact_second) <= 1e-3)
    print(f"integral = {format_float(integral)}, mean = "
          f"{format_float(mean)}, second moment = {format_float(second)}"
          f" (exact {format_float(exact_second)})")
    print(f"wrote {d_stem}.csv, {c_stem}.csv")
    return EXIT_OK if ok else EXIT_FAIL


_COMMANDS = {
    "simulate": cmd_simulate,
    "moments": cmd_moments,
    "clt": cmd_clt,
    "fractal": cmd_fractal,
    "density": cmd_density,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        ns = _apply_config_file(argv, parser, registry)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[ns.command](ns)
    except CapacityError as exc:
        print(f"error: capacity: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

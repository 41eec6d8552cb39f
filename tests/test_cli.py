"""End-to-end tests of the command-line surface and report files."""

import json
import math

import numpy as np
import pytest

from cascadekit.charfn import charfn_at
from cascadekit.cli import main
from cascadekit.core import CascadeParams
from cascadekit.stats import clt_small_h_test

H07_TABLE = "moment_table_b2_H0.7.csv"


def read_meta(path):
    """Parse the leading '# key = value' metadata block of a CSV."""
    meta = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(" = ")
        meta[key] = value
    return meta


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def test_gaussian_stdout(capsys):
    assert main(["moments", "--gaussian", "--p", "4"]) == 0
    assert capsys.readouterr().out == "1, 3, 15, 105\n"


def test_sigma_stdout(capsys):
    assert main(["moments", "--sigma", "--b", "3", "--H", "0.5"]) == 0
    assert capsys.readouterr().out == "0.816497\n"


def test_moment_table_file(tmp_path):
    """Critical table lands in CSV with metadata; E(Z_4^2) = 3 exactly."""
    code = main(["moments", "--H", "0.5", "--n", "4", "--q", "2",
                 "--outdir", str(tmp_path)])
    assert code == 0
    table = tmp_path / "moment_table_b2_H0.5.csv"
    assert table.exists()
    meta = read_meta(table)
    assert meta["tool"] == "cascadekit"
    assert meta["H"] == "0.5"
    header, rows = read_rows(table)
    assert header == ["n", "q", "value", "flag"]
    val = next(float(r[2]) for r in rows if r[0] == "4" and r[1] == "2")
    assert math.isclose(val, 3.0, rel_tol=1e-12)
    # no limit table outside the convergent regime
    assert not (tmp_path / "limit_moments_b2_H0.5.csv").exists()


def test_limit_moments_written_when_convergent(tmp_path):
    assert main(["moments", "--n", "4", "--q", "4",
                 "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / H07_TABLE).exists()
    lim = tmp_path / "limit_moments_b2_H0.7.csv"
    assert lim.exists()
    _, rows = read_rows(lim)
    q2 = next(float(r[1]) for r in rows if r[0] == "2")
    assert math.isclose(q2, 2.0649064800633348, rel_tol=1e-12)


def test_simulate_outputs_and_determinism(tmp_path):
    """Repeating one invocation reproduces both files byte for byte.

    The metadata block records the full effective config including the
    output directory, so the byte-level contract is per invocation; the
    data rows are directory-independent on top of that.
    """
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--depths", "8", "--seed", "3"]
    assert main(args + ["--outdir", str(a)]) == 0
    csv_a = a / "path_b2_H0.7_n8.csv"
    svg_a = a / "path_b2_H0.7_n8.svg"
    assert csv_a.exists() and svg_a.exists()
    first_csv, first_svg = csv_a.read_bytes(), svg_a.read_bytes()
    assert main(args + ["--outdir", str(a)]) == 0
    assert csv_a.read_bytes() == first_csv
    assert svg_a.read_bytes() == first_svg
    assert main(args + ["--outdir", str(b)]) == 0
    assert read_rows(csv_a) == read_rows(b / "path_b2_H0.7_n8.csv")
    meta = read_meta(csv_a)
    assert meta["seed"] == "3"
    assert meta["stride"] == "1"
    svg = svg_a.read_text()
    assert svg.startswith("<?xml")
    assert "<!--\ntool = cascadekit" in svg
    assert "<svg" in svg and "<polyline" in svg


def test_simulate_ramp_values(tmp_path):
    """H = 1 path CSV is the identity t -> t at full precision."""
    assert main(["simulate", "--H", "1.0", "--depths", "4",
                 "--outdir", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "path_b2_H1_n4.csv")
    for t_str, v_str in rows:
        assert math.isclose(float(v_str), float(t_str), abs_tol=1e-15)


def test_simulate_symmetric_normalized(tmp_path):
    assert main(["simulate", "--H", "sym", "--depths", "6", "--normalize",
                 "--outdir", str(tmp_path)]) == 0
    out = tmp_path / "path_b2_Hsym_n6_norm.csv"
    assert out.exists()
    _, rows = read_rows(out)
    vals = np.array([float(r[1]) for r in rows])
    assert np.all(np.isfinite(vals))
    assert len(vals) == 2**6 + 1


def test_simulate_rejects_unknown_format(tmp_path, capsys):
    code = main(["simulate", "--formats", "png", "--outdir", str(tmp_path)])
    assert code == 2
    assert "png" in capsys.readouterr().err


@pytest.mark.parametrize("formats", ["", " , "])
def test_simulate_empty_formats_is_a_usage_error(tmp_path, capsys,
                                                 monkeypatch, formats):
    """A format list naming no format would hash every field and write
    nothing: a usage error naming --formats, before hashing."""
    def no_field(*args, **kwargs):
        raise AssertionError("the sign field was generated")

    monkeypatch.setattr("cascadekit.cli.generate_leaf_signs", no_field)
    outdir = tmp_path / "out"
    assert main(["simulate", "--formats", formats,
                 "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == (
        f"error: --formats: names no format; got {formats!r}\n")
    assert not outdir.exists()


def test_simulate_rejects_empty_point_budget(tmp_path, capsys):
    code = main(["simulate", "--depths", "7", "--max-points", "0",
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert "max_points" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("H = 0.5\nn = 4\nq = 2\n")
    assert main(["moments", "--config", str(cfg),
                 "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "moment_table_b2_H0.5.csv").exists()
    # explicit flag beats the file value
    assert main(["moments", "--config", str(cfg), "--H", "0.7",
                 "--outdir", str(tmp_path)]) == 0
    meta = read_meta(tmp_path / H07_TABLE)
    assert meta["H"] == "0.7"
    assert meta["n"] == "4"


def test_config_file_booleans(tmp_path, capsys):
    """On/off keys take true/false in any case and record the bool a flag
    run would; any other value is a usage error naming the key."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("normalize = false\ndepths = 4\n")
    assert main(["simulate", "--config", str(cfg), "--formats", "csv",
                 "--outdir", str(tmp_path)]) == 0
    assert read_meta(tmp_path / "path_b2_H0.7_n4.csv")["normalize"] == "False"
    assert not (tmp_path / "path_b2_H0.7_n4_norm.csv").exists()
    cfg.write_text("normalize = TRUE\ndepths = 4\n")
    assert main(["simulate", "--config", str(cfg), "--formats", "csv",
                 "--outdir", str(tmp_path)]) == 0
    meta = read_meta(tmp_path / "path_b2_H0.7_n4_norm.csv")
    assert meta["normalize"] == "True"
    cfg.write_text("sigma = false\nn = 4\nq = 2\n")
    assert main(["moments", "--config", str(cfg),
                 "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / H07_TABLE).exists()
    capsys.readouterr()
    cfg.write_text("normalize = yes\n")
    outdir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg),
                 "--outdir", str(outdir)]) == 2
    assert "config key 'normalize' takes true or false" in \
        capsys.readouterr().err
    assert not outdir.exists()


def test_config_file_value_outside_choices(tmp_path, capsys):
    """A config value outside the option's choices is a usage error naming
    the key and the allowed values, and nothing is written."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("test = bogus\nreps = 100\n")
    outdir = tmp_path / "out"
    assert main(["clt", "--config", str(cfg),
                 "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: config key 'test' takes one of ")
    assert "terminal, smallh, increments, residual, moments" in err[0]
    assert not outdir.exists()
    cfg.write_text("test = smallh\nreps = 100\nn = 4\n")
    assert main(["clt", "--config", str(cfg), "--outdir", str(outdir)]) == 0
    assert (outdir / "clt_smallh_b2_H0.7.json").exists()


@pytest.mark.parametrize("args", [
    ["clt", "--H", "0.3", "--n", ""],
    ["simulate", "--depths", ""],
    ["clt", "--test", "smallh", "--h-values", ""],
])
def test_empty_list_is_a_usage_error(tmp_path, capsys, args):
    """An empty comma list is rejected by the parser, not run as no work."""
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(args + ["--outdir", str(outdir)])
    assert exc.value.code == 2
    assert "empty list" in capsys.readouterr().err
    assert not outdir.exists()


def test_config_file_unknown_key_warns(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\nn = 4\n")
    assert main(["moments", "--config", str(cfg),
                 "--outdir", str(tmp_path)]) == 0
    assert "bogus" in capsys.readouterr().err


def test_config_file_malformed(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    assert main(["moments", "--config", str(cfg)]) == 2
    assert "error" in capsys.readouterr().err


def test_env_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("CASCADEKIT_OUTDIR", str(tmp_path))
    assert main(["moments", "--H", "0.5", "--n", "4", "--q", "2"]) == 0
    assert (tmp_path / "moment_table_b2_H0.5.csv").exists()


def test_clt_terminal_json(tmp_path):
    code = main(["clt", "--test", "terminal", "--H", "0.3",
                 "--n", "8,12,16", "--reps", "4000",
                 "--outdir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "clt_terminal_b2_H0.3.json")
                         .read_text())
    assert payload["meta"]["tool"] == "cascadekit"
    assert payload["d_decreasing"] is True
    assert len(payload["reports"]) == 3
    final = payload["reports"][-1]
    assert final["passed"] is True
    assert final["statistics"]["ks_distance"] <= 0.05


def test_clt_smallh_json_records_the_checks_decrease_flag(tmp_path, capsys):
    """The small-H check returns its strict D-decrease flag beside its
    reports; the JSON records that flag, and stdout prints each report's
    gated values next to their tolerances after the ``wrote`` line."""
    hs = (0.8, 0.65, 0.55)
    reports, decreasing = clt_small_h_test(hs, 8, 300, seed=3)
    ds = [r.statistics["ks_distance"] for r in reports]
    assert decreasing == all(b < a for a, b in zip(ds, ds[1:]))
    capsys.readouterr()
    main(["clt", "--test", "smallh", "--h-values", "0.8,0.65,0.55",
          "--n", "8", "--reps", "300", "--seed", "3",
          "--outdir", str(tmp_path)])
    payload = json.loads((tmp_path / "clt_smallh_b2_H0.7.json").read_text())
    assert payload["d_decreasing"] is decreasing
    assert [r["statistics"]["ks_distance"]
            for r in payload["reports"]] == ds
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("wrote clt_smallh_b2_H0.7.json")
    verdict = "strictly decreasing" if decreasing else \
        "NOT strictly decreasing"
    assert out[1:] == [r.summary_line() for r in reports] + [
        "ks_distance over H = 0.8,0.65,0.55: "
        f"{', '.join(f'{d:.4g}' for d in ds)} ({verdict})"]


def test_clt_terminal_prints_the_trend_verdict(tmp_path, capsys):
    """Both depths pass their gates while D rises from depth 15 to 16:
    stdout says the trend is not strictly decreasing, as the JSON does,
    and the exit code still follows the deepest report's gates."""
    code = main(["clt", "--test", "terminal", "--H", "0.3", "--n", "15,16",
                 "--reps", "4000", "--seed", "3", "--outdir", str(tmp_path)])
    payload = json.loads((tmp_path / "clt_terminal_b2_H0.3.json")
                         .read_text())
    ds = [r["statistics"]["ks_distance"] for r in payload["reports"]]
    assert code == 0 and all(r["passed"] for r in payload["reports"])
    assert ds[1] > ds[0] and payload["d_decreasing"] is False
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == (f"ks_distance over n = 15,16: {ds[0]:.4g}, "
                       f"{ds[1]:.4g} (NOT strictly decreasing)")


def test_clt_json_is_strict_when_a_z_score_is_infinite(tmp_path):
    """A zero-spread sample scores an infinite z; it is written as null.

    At H = sym, n = 1 and seed 1 both replicas draw Z_1 = 0, so Z_1^2 has
    no spread and misses the exact E Z_1^2 = 2.  ``parse_constant`` sees
    the non-standard ``NaN`` and ``Infinity`` tokens that plain
    ``json.loads`` accepts.
    """
    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    code = main(["clt", "--test", "moments", "--H", "sym", "--n", "1",
                 "--reps", "2", "--q", "2", "--seed", "1",
                 "--outdir", str(tmp_path)])
    assert code == 1
    payload = json.loads((tmp_path / "clt_moments_b2_Hsym.json").read_text(),
                         parse_constant=refuse)
    (report,) = payload["reports"]
    assert report["statistics"]["moment2_z"] is None
    assert report["passed"] is False


def test_clt_regime_mismatch_diagnostics(tmp_path, capsys):
    """Exit 2 plus a message naming the violated restriction."""
    code = main(["clt", "--test", "terminal", "--H", "0.7",
                 "--outdir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "H <= 1/2" in err
    assert "convergent regime" in err
    code = main(["clt", "--test", "residual", "--H", "0.5",
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert "convergent" in capsys.readouterr().err


def test_clt_smallh_names_the_offending_h(tmp_path, capsys):
    """The diagnostic names the bad H of the sequence, not the --H default."""
    code = main(["clt", "--test", "smallh", "--h-values", "0.8,0.3",
                 "--outdir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "H = 0.3 (divergent regime)" in err
    assert "0.7" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("depths", ["16,8", "8,8", "8,16,12"])
def test_clt_terminal_depths_must_increase(tmp_path, capsys, monkeypatch,
                                           depths):
    """The terminal trend gates on its last depth and reads D along the
    list, so unordered or repeated depths are a usage error naming --n,
    before any draw."""
    def no_draws(*args, **kwargs):
        raise AssertionError("replicas were drawn")

    monkeypatch.setattr("cascadekit.stats.sample_terminal_depths", no_draws)
    outdir = tmp_path / "out"
    code = main(["clt", "--test", "terminal", "--H", "0.3", "--n", depths,
                 "--reps", "200", "--outdir", str(outdir)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --n: the terminal trend takes strictly increasing depths; "
        f"got {depths}\n")
    assert not outdir.exists()


@pytest.mark.parametrize("h_values", ["0.55,0.8", "0.8,0.8",
                                      "0.8,0.55,0.65"])
def test_clt_smallh_h_values_must_decrease(tmp_path, capsys, monkeypatch,
                                           h_values):
    """The small-H check reads D along H falling toward 1/2, so H values
    that do not strictly decrease are a usage error naming --h-values,
    before any draw."""
    def no_draws(*args, **kwargs):
        raise AssertionError("replicas were drawn")

    monkeypatch.setattr("cascadekit.stats.sample_terminal", no_draws)
    outdir = tmp_path / "out"
    code = main(["clt", "--test", "smallh", "--h-values", h_values,
                 "--n", "8", "--reps", "200", "--outdir", str(outdir)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --h-values: the small-H check takes strictly decreasing "
        f"H values; got {h_values}\n")
    assert not outdir.exists()


@pytest.mark.parametrize("proxy_levels", ["0", "-3"])
def test_clt_residual_proxy_levels_below_one_is_a_usage_error(
        tmp_path, capsys, monkeypatch, proxy_levels):
    """A residual against no deeper level is no residual test: exit 2,
    before any draw, and no report."""
    def no_draws(*args, **kwargs):
        raise AssertionError("replicas were drawn")

    monkeypatch.setattr("cascadekit.stats.sample_terminal_depths", no_draws)
    outdir = tmp_path / "out"
    code = main(["clt", "--test", "residual", "--H", "0.7", "--n", "8",
                 "--proxy-levels", proxy_levels, "--reps", "200",
                 "--outdir", str(outdir)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the limit proxy needs proxy_levels >= 1; got "
        f"proxy_levels = {proxy_levels}\n")
    assert not outdir.exists()


@pytest.mark.parametrize("test,hurst", [
    ("smallh", "0.7"), ("increments", "0.3"), ("residual", "0.7"),
    ("moments", "0.7")])
def test_clt_single_depth_checks_refuse_a_depth_list(tmp_path, capsys,
                                                     monkeypatch, test,
                                                     hurst):
    """Every check but the terminal trend runs at one depth, so a list
    is a usage error naming --n and the test, before any draw."""
    def no_draws(*args, **kwargs):
        raise AssertionError("replicas were drawn")

    for name in ("sample_terminal", "sample_terminal_depths",
                 "sample_branch_signs"):
        monkeypatch.setattr(f"cascadekit.stats.{name}", no_draws)
    outdir = tmp_path / "out"
    code = main(["clt", "--test", test, "--H", hurst, "--n", "8,40",
                 "--reps", "200", "--outdir", str(outdir)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --n: --test {test} takes one depth; got 8,40\n")
    assert not outdir.exists()


@pytest.mark.parametrize("test,hurst,depths", [
    ("terminal", "0.3", "8,12,16"), ("moments", "0.7", "16")])
def test_clt_default_depths_per_test(tmp_path, test, hurst, depths):
    """Without --n the terminal trend runs at 8,12,16 and the other
    checks at 16, and the metadata records the depths that ran."""
    main(["clt", "--test", test, "--H", hurst, "--reps", "200",
          "--outdir", str(tmp_path)])
    payload = json.loads(next(tmp_path.glob("clt_*.json")).read_text())
    assert payload["meta"]["n"] == depths
    assert len(payload["reports"]) == len(depths.split(","))


@pytest.mark.parametrize("test,hurst", [
    ("terminal", "0.3"), ("smallh", "0.7"), ("increments", "0.3"),
    ("residual", "0.7"), ("moments", "0.7")])
def test_clt_single_replica_is_a_usage_error(tmp_path, capsys, test, hurst):
    """--reps 1 has no sample standard error: exit 2, nothing written."""
    code = main(["clt", "--test", test, "--H", hurst, "--n", "8",
                 "--reps", "1", "--outdir", str(tmp_path)])
    assert code == 2
    assert "reps >= 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_fractal_cli_passes_and_fails_on_tolerance(tmp_path):
    args = ["fractal", "--n", "18", "--seed", "35",
            "--outdir", str(tmp_path)]
    assert main(args) == 0
    payload = json.loads((tmp_path / "fractal_b2_H0.7_n18.json")
                         .read_text())
    assert abs(payload["box_dimension"]["estimate"] - 1.3) <= 0.1
    assert abs(payload["increment_exponent"]["estimate"] - 0.7) <= 0.05
    assert (tmp_path / "fractal_b2_H0.7_n18.csv").exists()
    # an impossible tolerance turns the same data into exit 1
    assert main(args + ["--exp-tol", "0.001"]) == 1


@pytest.mark.parametrize("ranges, flag", [
    (["--p-range", "2,5", "--j-range", "2,9", "--profile"], "--profile"),
    (["--p-range", "2,6", "--j-range", "2,9"], "--p-range"),
    (["--p-range", "2,5", "--j-range", "2,10"], "--j-range"),
])
def test_fractal_ranges_checked_before_hashing(tmp_path, capsys,
                                               monkeypatch, ranges, flag):
    """A scale range that does not fit --n is a usage error naming its
    own option (the profile's fixed range included), before any hashing."""
    def no_field(*args, **kwargs):
        raise AssertionError("the sign field was generated")

    monkeypatch.setattr("cascadekit.cli.generate_leaf_signs", no_field)
    outdir = tmp_path / "out"
    code = main(["fractal", "--H", "0.7", "--n", "11", *ranges,
                 "--outdir", str(outdir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}") and "at depth 11" in err
    assert not outdir.exists()


def test_fractal_range_below_four_scales_is_refused_before_hashing(
        tmp_path, capsys, monkeypatch):
    """A range inside the depth's bounds but with fewer than the 4 scales
    a fit takes is a usage error naming its option, before hashing."""
    def no_field(*args, **kwargs):
        raise AssertionError("the sign field was generated")

    monkeypatch.setattr("cascadekit.cli.generate_leaf_signs", no_field)
    outdir = tmp_path / "out"
    code = main(["fractal", "--n", "8", "--p-range", "2,2", "--j-range",
                 "1,6", "--outdir", str(outdir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --p-range: p_range needs at least 4 "
                          "scales for a fit; got 2,2")
    assert not outdir.exists()


@pytest.mark.parametrize("args, code", [
    (["--depths", "26", "--max-points", "0"], 2),
    (["--depths", "4,-1"], 2),
    (["--depths", "4,30"], 1),
    (["--H", "0.5", "--normalize", "--depths", "4,0"], 2),
])
def test_simulate_checks_every_depth_before_hashing(tmp_path, capsys,
                                                    monkeypatch, args, code):
    """Every depth and the point budget are checked before the first
    field is hashed, so a bad late depth writes nothing."""
    def no_field(*args, **kwargs):
        raise AssertionError("the sign field was generated")

    monkeypatch.setattr("cascadekit.cli.generate_leaf_signs", no_field)
    outdir = tmp_path / "out"
    assert main(["simulate", *args, "--outdir", str(outdir)]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not outdir.exists()


def test_simulate_repeated_depth_is_a_usage_error(tmp_path, capsys,
                                                  monkeypatch):
    """A depth given twice would hash the same field twice and write the
    same files twice: a usage error naming --depths, before hashing."""
    def no_field(*args, **kwargs):
        raise AssertionError("the sign field was generated")

    monkeypatch.setattr("cascadekit.cli.generate_leaf_signs", no_field)
    outdir = tmp_path / "out"
    assert main(["simulate", "--depths", "4,8,4",
                 "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == (
        "error: --depths: depth 4 is given more than once\n")
    assert not outdir.exists()


@pytest.mark.parametrize("flag", ["--p-range", "--j-range"])
@pytest.mark.parametrize("value", ["2,5,7", "5"])
def test_fractal_range_takes_two_scales(tmp_path, capsys, flag, value):
    """A scale range of three values or of one is a usage error that says
    the option takes two scales."""
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["fractal", "--H", "0.7", "--n", "14", flag, value,
              "--outdir", str(outdir)])
    assert exc.value.code == 2
    assert f"{flag}: takes two scales lo,hi" in capsys.readouterr().err
    assert not outdir.exists()


def test_fractal_regime_mismatch(capsys):
    assert main(["fractal", "--H", "0.3", "--n", "12"]) == 2
    assert "convergent regime" in capsys.readouterr().err


def test_density_cli(tmp_path):
    code = main(["density", "--outdir", str(tmp_path)])
    assert code == 0
    den = tmp_path / "density_b2_H0.7.csv"
    cf = tmp_path / "charfn_b2_H0.7.csv"
    assert den.exists() and cf.exists()
    meta = read_meta(den)
    assert abs(float(meta["integral"]) - 1.0) <= 1e-6
    assert abs(float(meta["mean"]) - 1.0) <= 1e-4
    assert float(meta["ladder_depth"]) == 192
    header, rows = read_rows(cf)
    assert header == ["t", "re", "im"]
    # the grid is symmetric and phi(0) = 1
    mid = rows[len(rows) // 2]
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == 1.0


def test_density_charfn_csv_is_the_inverted_grid(tmp_path):
    """At b = 2, H = 0.8 the charfn CSV ends at the metadata's t_max = 32,
    and its t >= 0 rows are phi on linspace(0, t_max, n_t) at the ladder
    depth, bit for bit: the grid the density was inverted on."""
    assert main(["density", "--b", "2", "--H", "0.8",
                 "--outdir", str(tmp_path)]) == 0
    cf = tmp_path / "charfn_b2_H0.8.csv"
    meta = read_meta(cf)
    assert meta["t_max"] == "32"
    _, rows = read_rows(cf)
    table = np.array(rows, dtype=float)
    assert table[-1, 0] == 32.0
    n_t = (len(table) + 1) // 2
    t = np.linspace(0.0, float(meta["t_max"]), n_t)
    phi = charfn_at(CascadeParams(base=2, hurst=0.8), t,
                    int(meta["ladder_depth"]))
    assert np.array_equal(table[n_t - 1:, 0], t)
    assert np.array_equal(table[n_t - 1:, 1], phi.real)
    assert np.array_equal(table[n_t - 1:, 2], phi.imag)


def test_density_rejects_grid_below_floor(tmp_path, capsys):
    """An --x-points below the 4,096-point floor is a usage error raised
    before any work, not a silently larger grid."""
    outdir = tmp_path / "out"
    assert main(["density", "--H", "0.7", "--x-points", "1",
                 "--outdir", str(outdir)]) == 2
    assert "at least MIN_X_POINTS = 4096, got 1" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("depth", ["0", "1", "2", "3", "4", "5", "6"])
def test_density_shallow_ladder_hits_the_grid_budget(tmp_path, capsys,
                                                     monkeypatch, depth):
    """At a ladder depth of 6 or less (b = 2, H = 0.7) |phi| never meets
    the tail tolerance, so the t-grid reaches T_CAP, 4.8 million points
    and 110 GiB of kernel: a capacity error (exit 1, one line) raised
    before the grid is allocated.  From depth 7 on the tail is met at
    T = 32, a grid of 149 points."""
    def no_grid(*args, **kwargs):
        raise AssertionError("the t-grid was allocated")

    monkeypatch.setattr("cascadekit.charfn.np.linspace", no_grid)
    outdir = tmp_path / "out"
    assert main(["density", "--H", "0.7", "--depth", depth,
                 "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: capacity: the inversion's t-grid of "
                          "4822075 points ")
    assert "above the budget of 1 GiB" in err
    assert not outdir.exists()


def test_density_h1_rejected(capsys):
    assert main(["density", "--H", "1.0"]) == 2
    assert "constant 1" in capsys.readouterr().err


def test_usage_errors():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["unknown-command"])


#: One row per usage or capacity error: argv, exit code, and a fragment
#: of the diagnostic.
REFUSED_RUNS = {
    "clt-terminal-convergent": (
        ["clt", "--test", "terminal", "--H", "0.7"], 2, "H <= 1/2"),
    "clt-increments-convergent": (
        ["clt", "--test", "increments", "--H", "0.7"], 2, "H <= 1/2"),
    "clt-residual-critical": (
        ["clt", "--test", "residual", "--H", "0.5"], 2,
        "1/2 < H < 1"),
    "clt-residual-h1": (
        ["clt", "--test", "residual", "--H", "1"], 2, "1/2 < H < 1"),
    "clt-moments-q99": (
        ["clt", "--test", "moments", "--q", "99"], 2, "q_max"),
    "simulate-png": (["simulate", "--formats", "png"], 2, "png"),
    "moments-q99": (["moments", "--q", "99"], 2, "q_max"),
    "moments-negative-n": (["moments", "--n", "-1"], 2, "n_max"),
    "density-divergent": (
        ["density", "--H", "0.3"], 2, "H = 0.3 (divergent regime)"),
    "density-h1": (["density", "--H", "1"], 2, "constant 1"),
    "fractal-divergent": (
        ["fractal", "--H", "0.3"], 2, "convergent regime"),
    "simulate-over-budget": (
        ["simulate", "--depths", "4,30"], 1, "leaf budget"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_RUNS))
def test_refused_run_creates_nothing(tmp_path, capsys, case):
    """A usage or capacity error exits with its documented code, prints
    one error line and no traceback, and creates no output directory."""
    argv, code, fragment = REFUSED_RUNS[case]
    outdir = tmp_path / "out"
    assert main(argv + ["--outdir", str(outdir)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert fragment in err and "Traceback" not in err
    assert not outdir.exists()

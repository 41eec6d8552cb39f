"""cascadekit benchmark: one workload per process, through the public CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paths --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/run.py --capture-goldens       # re-record goldens

Each pass runs every operation of the workload through
``cascadekit.cli.main(argv)`` in this process, as ``cascadekit <argv>``
would, and checks its artifacts (see checks.py).  Passes repeat until
``--seconds`` is used up, with at least three.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics; with ``--trace 1``
untraced and traced passes alternate and it reports the per-layer
metrics from the traced ones (see tracing.py).  The last line is always
one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin BLAS threads before numpy loads: at most one per core.
_NPROC = os.cpu_count() or 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    try:
        _val = int(os.environ.get(_var, _NPROC))
    except ValueError:
        _val = _NPROC
    os.environ[_var] = str(max(1, min(_val, _NPROC)))

import collections  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN_SEEDS, GROUPS, OUT_ROOT, WORKLOADS, Op)

MIN_PASSES = 3
SETUP_SAMPLES = 5
SETUP_CODE = ("import time; t0 = time.perf_counter(); "
              "import cascadekit.cli as cli; cli.build_parser(); "
              "print(repr(time.perf_counter() - t0))")

END_TO_END = {"run_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

#: Per-layer metrics, all reported on every workload (0 where the layer
#: does not run).  Spans are summed self time per pass.
SPAN_METRICS = (
    "streams.sign_bits", "core.generate_leaf_signs", "core.build_path",
    "core.normalize_path", "core.sample_terminal",
    "core.sample_terminal_pair", "core.sample_branch_signs",
    "stats.ks_statistic", "stats.tests", "moments.z_moment_recursion",
    "moments.limit_z_moments", "moments.normalized_moment_recursion",
    "charfn.density_of_z", "charfn.build_charfn_grid",
    "fractal.increment_scaling_exponent", "fractal.box_dimension",
    "fractal.pointwise_holder_profile", "reports.write_csv",
    "reports.write_svg_polyline", "reports.write_json",
    "cli.simulate", "cli.clt", "cli.moments", "cli.density", "cli.fractal",
)
COUNT_METRICS = {
    "streams.sign_bits.words": "count",
    "core.generate_leaf_signs.leaves": "count",
    "core.build_path.points": "count",
    "stats.ks_statistic.samples": "count",
    "charfn.density_of_z.ladder_depth": "count",
    "reports.write_csv.bytes": "bytes",
    "reports.write_svg_polyline.bytes": "bytes",
}
PER_LAYER = {
    **{f"{name}.s": "s" for name in SPAN_METRICS},
    **COUNT_METRICS,
    "streams.sign_bits.words_per_s": "words/s",
    "core.generate_leaf_signs.rss_growth_mib": "MiB",
    "core.sample_terminal.draw_levels_per_s": "draw_levels/s",
    "reports.write_json.volatile_keys": "count",
    "leaves_per_s": "leaves/s",
    "draw_levels_per_s": "draw_levels/s",
    "trace_overhead_ratio": "ratio",
}

#: Spans each group of operations must fire when traced (the layer map in
#: NOTES.md); a workload expects those of every group it runs.
EXPECTED_SPANS = {
    "paths": ("streams.sign_bits", "core.generate_leaf_signs",
              "core.build_path", "core.normalize_path",
              "reports.write_csv", "reports.write_svg_polyline",
              "cli.simulate"),
    "montecarlo": ("core.sample_terminal", "core.sample_terminal_pair",
                   "core.sample_branch_signs", "stats.ks_statistic",
                   "stats.tests", "moments.normalized_moment_recursion",
                   "moments.z_moment_recursion", "reports.write_json",
                   "cli.clt"),
    "exact": ("moments.z_moment_recursion", "moments.limit_z_moments",
              "charfn.density_of_z", "charfn.build_charfn_grid",
              "reports.write_csv", "cli.moments", "cli.density"),
    "fractal": ("streams.sign_bits", "core.generate_leaf_signs",
                "core.build_path", "fractal.increment_scaling_exponent",
                "fractal.box_dimension", "fractal.pointwise_holder_profile",
                "reports.write_json", "reports.write_csv", "cli.fractal"),
}


class BenchError(RuntimeError):
    """No cascadekit source tree here, or a golden capture failed."""


def import_cli():
    """Import cascadekit from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "cascadekit", "cli.py")):
        raise BenchError(f"no cascadekit source under {SRC}")
    sys.path.insert(0, SRC)
    import cascadekit.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported {cli.__file__}, not the checkout's")
    return cli


def measure_setup() -> list[float]:
    """Import cascadekit.cli and build its parser in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first one warms the disk cache
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        if i:
            samples.append(float(out.stdout.split()[-1]))
    return samples


# -- one pass -----------------------------------------------------------------

def run_op(cli, op: Op, seed: int, tracer=None):
    """One CLI call: (exit code or None, files, seconds, captured output)."""
    outdir = op.outdir()
    shutil.rmtree(outdir, ignore_errors=True)
    buf = io.StringIO()
    argv = op.argv(seed)
    code = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        span = tracer.open(f"cli.{op.command}") if tracer else None
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a crash here
            buf.write(traceback.format_exc())
        finally:
            if tracer:
                tracer.close(span)
    seconds = time.perf_counter() - t0
    files = checks.read_outdir(outdir) if os.path.isdir(outdir) else {}
    return code, files, seconds, buf.getvalue()


def _reps(op: Op) -> int:
    return int(op.args[op.args.index("--reps") + 1])


def first_pass_problems(op: Op, seed: int, code, files,
                        golden) -> list[str]:
    """Full checks of an operation's artifacts (see checks.py)."""
    if code is None:
        return ["raised an exception"]
    problems = []
    if golden is not None:
        problems += checks.compare_golden(golden, code, files)
    if op.group == "paths":
        if code != 0:
            problems.append(f"exit {code}")
        norm = "--normalize" in op.args
        depths = op.args[op.args.index("--depths") + 1].split(",")
        stems = [f"path_b{op.base}_H{op.hurst}_n{d}{'_norm' if norm else ''}"
                 for d in depths]
        want = sorted(f"{s}.{ext}" for s in stems for ext in ("csv", "svg"))
        if sorted(files) != want:
            return problems + [f"files {sorted(files)}"]
        for stem in stems:
            text = files[f"{stem}.csv"].decode()
            problems += [f"{stem}.csv: {p}" for p in checks.check_path_csv(
                text, op.base, op.hurst, seed, norm,
                f"{seed}/{op.op_id}/{stem}")]
            rows = sum(1 for ln in text.splitlines()
                       if ln and ln[0] not in "#t")
            problems += [f"{stem}.svg: {p}" for p in
                         checks.check_svg(files[f"{stem}.svg"], rows)]
    elif op.group == "montecarlo":
        if len(files) != 1:
            return problems + [f"files {sorted(files)}"]
        (name, data), = files.items()
        problems += checks.check_clt_json(name, data, code, seed, _reps(op))
    elif op.group == "fractal":
        if len(files) != 2:
            return problems + [f"files {sorted(files)}"]
        problems += checks.check_fractal(files, op.base, float(op.hurst),
                                         code)
    elif code != 0:
        problems.append(f"exit {code}")
    return problems


# -- statistics ---------------------------------------------------------------

def summarize(samples: list[float]) -> dict:
    """Median, quartiles and the highest percentile with >= 10 samples
    beyond it (None below 11 samples), with the sample count."""
    xs = sorted(samples)
    out = {"n": len(xs), "median": statistics.median(xs),
           "q1": xs[0], "q3": xs[-1], "p_high": None}
    if len(xs) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(xs, n=4)
    if len(xs) >= 11:
        out["p_high"] = {"percentile": 100.0 * (len(xs) - 10) / len(xs),
                         "value": xs[len(xs) - 11]}
    return out


def environment(seed: int, passes: int) -> dict:
    """Hardware and software the numbers were measured on."""
    env = {"nproc": _NPROC, "cpu_model": None, "caches": {},
           "python": platform.python_version(), "seed": seed,
           "passes": passes, "blas_threads": os.environ["OMP_NUM_THREADS"]}
    import numpy
    import scipy
    env["numpy"], env["scipy"] = numpy.__version__, scipy.__version__
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for index in sorted(os.listdir(cache_dir)):
            path = os.path.join(cache_dir, index)
            with open(os.path.join(path, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(path, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                if kind != "Instruction":
                    env["caches"][f"L{level}"] = fh.read().strip()
    env["git_commit"] = git_commit()
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# -- a run --------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    cli = import_cli()
    import cascadekit.charfn
    import cascadekit.stats
    import cascadekit.streams
    modules = {m: sys.modules[m] for m in
               ("cascadekit.cli", "cascadekit.stats", "cascadekit.charfn",
                "cascadekit.streams")}
    ops = WORKLOADS[workload]
    goldens = checks.load_goldens()
    golden = {}
    for op in ops:
        key = "any" if op.group == "exact" else str(seed)
        golden.update(goldens["seeds"].get(key, {}).get(op.group, {}))
    notes = []
    if any(op.op_id not in golden for op in ops):
        notes.append(f"seed {seed} has no goldens (captured for seeds "
                     f"{', '.join(map(str, GOLDEN_SEEDS))}): golden checks "
                     "skipped; stream-oracle, verdict, fit and re-run "
                     "checks still apply")
        print("note: " + notes[-1], file=sys.stderr)

    setup = [] if trace else measure_setup()
    tracer = tracing.Tracer() if trace else None
    attempted = failed = 0
    failures: list[str] = []
    reference: dict[str, tuple] = {}
    untraced, traced = [], []
    op_seconds: dict[str, list[float]] = {op.op_id: [] for op in ops}
    volatile_keys = 0
    min_passes = 2 * (MIN_PASSES - 1) if trace else MIN_PASSES
    t_start = time.perf_counter()
    while True:
        traced_pass = trace and len(untraced) > len(traced)
        if traced_pass:
            tracer.pass_index = len(traced)
            tracer.install(modules)
        gc.collect()
        total = 0.0
        p0 = time.perf_counter()
        pass_volatile = 0
        for op in ops:
            if tracer:
                tracer.op = f"{len(untraced) + len(traced)}/{op.op_id}"
            code, files, secs, output = run_op(
                cli, op, seed, tracer if traced_pass else None)
            total += secs
            if not traced_pass:
                op_seconds[op.op_id].append(secs)
            attempted += 1
            digests = {n: checks.digest(n, d) for n, d in files.items()}
            pass_volatile += sum(r for _, r in digests.values())
            if op.op_id not in reference:
                problems = first_pass_problems(op, seed, code, files,
                                               golden.get(op.op_id))
                reference[op.op_id] = (code, digests, problems)
            elif reference[op.op_id][:2] != (code, digests):
                problems = ["output differs from the first pass"]
            else:  # the same output fails the same checks again
                problems = reference[op.op_id][2]
            if problems:
                failed += 1
                argv = " ".join(op.argv(seed))
                failures.append(f"{op.op_id} ({argv}): {'; '.join(problems)}")
                if code is None:
                    failures[-1] += "\n" + output
        volatile_keys = pass_volatile
        if traced_pass:
            tracer.uninstall()
            traced.append(total)
        else:
            untraced.append(total)
        # stop once another pass like the last would overrun --seconds,
        # and never between an untraced pass and its traced partner
        last = time.perf_counter() - p0
        balanced = not trace or len(traced) == len(untraced)
        if len(untraced) + len(traced) >= min_passes and balanced \
                and time.perf_counter() - t_start + last > seconds:
            break

    detail = {"workload": workload,
              "env": environment(seed, len(untraced) + len(traced)),
              "notes": notes, "failures": failures[:20],
              "run_s_passes": summarize(untraced)}
    if trace:
        metrics = layer_metrics(tracer, workload, op_seconds, untraced,
                                traced, volatile_keys, detail)
        path = f"{OUT_ROOT}/trace/{workload}-seed{seed}.jsonl"
        tracer.write_jsonl(path)
        detail["trace_file"] = path
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"run_s": run_seconds(op_seconds),
                   "peak_rss_mib": rss,
                   "setup_s": statistics.median(setup)}
        detail["setup_s_samples"] = summarize(setup)
    units = PER_LAYER if trace else END_TO_END
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, detail


def run_seconds(op_seconds: dict[str, list[float]]) -> float:
    """One typical pass: the sum over operations of each one's median.

    Per-operation medians drop a slow phase of the machine that hits
    one operation in one pass, which a median of pass totals keeps.
    """
    return sum(statistics.median(xs) for xs in op_seconds.values())


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, workload, op_seconds, untraced, traced,
                  volatile_keys, detail) -> dict:
    """Per-layer metrics (medians over traced passes); adds call counts,
    absent names, trace errors and layer shares to ``detail``."""
    per_pass = []
    shares = []
    for i, total in enumerate(traced):
        selfs = tracer.self_times(i)
        counts = tracer.counts[i]
        m = {f"{name}.s": selfs.get(name, 0.0) for name in SPAN_METRICS}
        m.update({name: counts.get(name, 0.0) for name in COUNT_METRICS})
        m["streams.sign_bits.words_per_s"] = _rate(
            counts.get("streams.sign_bits.words", 0.0),
            selfs.get("streams.sign_bits", 0.0))
        m["core.generate_leaf_signs.rss_growth_mib"] = \
            tracer.heap_peak[i].get("core.generate_leaf_signs", 0.0)
        m["core.sample_terminal.draw_levels_per_s"] = _rate(
            counts.get("core.sample_terminal.draw_levels", 0.0),
            selfs.get("core.sample_terminal", 0.0))
        per_pass.append(m)
        layer = {}
        for name, secs in selfs.items():
            top = name.split(".")[0]
            layer[top] = layer.get(top, 0.0) + secs
        shares.append({k: v / total for k, v in layer.items()})
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    detail["per_layer_passes"] = {
        name: summarize([m[name] for m in per_pass]) for name in per_pass[0]}
    run_s = run_seconds(op_seconds)
    ops = WORKLOADS[workload]
    metrics["reports.write_json.volatile_keys"] = float(volatile_keys)
    metrics["leaves_per_s"] = _rate(sum(op.leaves for op in ops), run_s)
    metrics["draw_levels_per_s"] = _rate(
        sum(op.draw_levels for op in ops), run_s)
    metrics["trace_overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(untraced))

    calls = collections.Counter(span["name"] for span in tracer.spans)
    present = {t[2] for t in tracing.TARGETS
               if f"{t[0]}.{t[1]}" not in tracer.absent}
    groups = dict.fromkeys(op.group for op in ops)
    expected = dict.fromkeys(name for group in groups
                             for name in EXPECTED_SPANS[group])
    errors = [f"{name} never fired on {workload}"
              for name in expected
              if calls[name] == 0
              and (name in present or name.startswith("cli."))]
    for err in errors:
        print("trace error: " + err, file=sys.stderr)
    detail.update({
        "trace_calls": dict(sorted(calls.items())),
        "trace_absent": sorted(tracer.absent),
        "trace_errors": errors + sorted(tracer.count_errors),
        "layer_share_of_traced_run_s": {
            k: statistics.median(s.get(k, 0.0) for s in shares)
            for k in sorted({k for s in shares for k in s})},
        "traced_run_s_passes": summarize(traced)})
    return metrics


# -- goldens ------------------------------------------------------------------

def capture_goldens() -> None:
    """Run every group once per golden seed and record its outputs."""
    cli = import_cli()
    doc = {"rtol": checks.RTOL, "commit": git_commit(), "seeds": {}}
    plan = [("any", "exact", 0)] + [(str(s), w, s) for s in GOLDEN_SEEDS
                                    for w in ("paths", "montecarlo",
                                              "fractal")]
    for key, group, seed in plan:
        recs = {}
        for op in GROUPS[group]:
            code, files, secs, output = run_op(cli, op, seed)
            problems = first_pass_problems(op, seed, code, files, None)
            if problems:
                raise BenchError(f"{group} {op.op_id}: {problems}\n"
                                 + output)
            recs[op.op_id] = checks.golden_record(group, code, files)
            print(f"captured {key} {group} {op.op_id} exit {code} "
                  f"({secs:.2f} s)")
        doc["seeds"].setdefault(key, {})[group] = recs
    checks.save_goldens(doc)


# -- entry --------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in a fresh process; print every metric per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:<11} {name:<44} {metric['value']:>16.6g} "
                  f"{metric['unit']}")
            merged["metrics"][f"{workload}.{name}"] = metric
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        print(f"{workload:<11} fail_ratio {result['failed']}/"
              f"{result['attempted']}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-goldens", action="store_true")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    os.chdir(ROOT)
    try:
        if args.capture_goldens:
            capture_goldens()
            return 0
        if args.workload == "all":
            return run_all(args)
        result, detail = run_workload(args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(f"{OUT_ROOT}/result-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    for fail in detail["failures"]:
        print("FAILED " + fail, file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

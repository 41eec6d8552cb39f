"""Span tracing around cascadekit's layer boundaries, from outside.

The tracer rebinds the module attributes through which one layer calls
the next (``cascadekit.cli``'s imported names, ``cascadekit.stats``'s
sampler and moment imports, ``cascadekit.charfn``'s moment import and
``cascadekit.streams.sign_bits``, which ``core`` looks up by attribute)
with timing wrappers.  No source file is edited, and ``uninstall``
restores every original.  Spans live in memory and are written as JSON
lines at the end of a run.

A layer's self time is the duration of its spans minus the time covered
by their direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
import tracemalloc
from collections import defaultdict

MIB = 1024.0 * 1024.0


def _arg(bound, name, default=None):
    return bound.arguments.get(name, default)


def _file_bytes(bound, result):
    return {"bytes": os.path.getsize(_arg(bound, "path"))}


# (module, attribute, span name, counter) for every wrapped call.  The
# counter maps the bound arguments and the result to named counts.
TARGETS = (
    ("cascadekit.streams", "sign_bits", "streams.sign_bits",
     lambda a, r: {"words": _arg(a, "count")}),
    ("cascadekit.cli", "generate_leaf_signs", "core.generate_leaf_signs",
     lambda a, r: {"leaves": _arg(a, "params").base ** _arg(a, "depth")}),
    ("cascadekit.cli", "build_path", "core.build_path",
     lambda a, r: {"points": len(r.values)}),
    ("cascadekit.cli", "normalize_path", "core.normalize_path", None),
    ("cascadekit.stats", "sample_terminal", "core.sample_terminal",
     lambda a, r: {"draw_levels": _arg(a, "reps") * _arg(a, "n")}),
    ("cascadekit.stats", "sample_terminal_pair", "core.sample_terminal_pair",
     lambda a, r: {"draw_levels":
                   _arg(a, "reps") * (_arg(a, "n") + _arg(a, "m"))}),
    ("cascadekit.stats", "sample_branch_signs", "core.sample_branch_signs",
     lambda a, r: {"draw_levels": _arg(a, "reps") * _arg(a, "depth")}),
    ("cascadekit.stats", "ks_statistic", "stats.ks_statistic",
     lambda a, r: {"samples": len(_arg(a, "samples"))}),
    ("cascadekit.cli", "clt_terminal_trend", "stats.tests", None),
    ("cascadekit.stats", "clt_terminal_test", "stats.tests", None),
    ("cascadekit.cli", "clt_small_h_test", "stats.tests", None),
    ("cascadekit.cli", "increments_gaussianity", "stats.tests", None),
    ("cascadekit.cli", "residual_clt_test", "stats.tests", None),
    ("cascadekit.cli", "empirical_vs_exact_moments", "stats.tests", None),
    ("cascadekit.cli", "z_moment_recursion", "moments.z_moment_recursion",
     None),
    ("cascadekit.stats", "z_moment_recursion", "moments.z_moment_recursion",
     None),
    ("cascadekit.cli", "limit_z_moments", "moments.limit_z_moments", None),
    ("cascadekit.stats", "limit_z_moments", "moments.limit_z_moments", None),
    ("cascadekit.charfn", "limit_z_moments", "moments.limit_z_moments",
     None),
    ("cascadekit.stats", "normalized_moment_recursion",
     "moments.normalized_moment_recursion", None),
    ("cascadekit.cli", "density_of_z", "charfn.density_of_z",
     lambda a, r: {"ladder_depth": r.depth}),
    ("cascadekit.cli", "build_charfn_grid", "charfn.build_charfn_grid",
     None),
    ("cascadekit.cli", "increment_scaling_exponent",
     "fractal.increment_scaling_exponent", None),
    ("cascadekit.cli", "box_dimension", "fractal.box_dimension", None),
    ("cascadekit.cli", "pointwise_holder_profile",
     "fractal.pointwise_holder_profile", None),
    ("cascadekit.cli", "write_csv", "reports.write_csv", _file_bytes),
    ("cascadekit.cli", "write_svg_polyline", "reports.write_svg_polyline",
     _file_bytes),
    ("cascadekit.cli", "write_json", "reports.write_json", None),
)

#: Spans whose peak heap growth is recorded (tracemalloc runs only inside
#: them, so the rest of the traced run pays nothing for it).
HEAP_SPANS = ("core.generate_leaf_signs",)


class Tracer:
    """In-memory span recorder with per-pass counters."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = ""
        self.pass_index = 0
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.heap_peak: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.absent: set[str] = set()
        self.count_errors: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent, "op": self.op,
                           "pass": self.pass_index})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    # -- wrapping ----------------------------------------------------------
    def install(self, modules: dict[str, object]) -> None:
        for mod_name, attr, name, counter in TARGETS:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, counter))
            self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, name, counter):
        sig = inspect.signature(fn)
        heap = name in HEAP_SPANS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if heap:
                tracemalloc.start()
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if heap:
                    _, peak = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    slot = tracer.heap_peak[tracer.pass_index]
                    slot[name] = max(slot[name], peak / MIB)
            counts = tracer.counts[tracer.pass_index]
            if counter is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, value in counter(bound, result).items():
                        counts[f"{name}.{key}"] += value
                except (TypeError, AttributeError, KeyError) as exc:
                    # a changed signature loses the count, not the run
                    tracer.count_errors.add(f"{name} counter: {exc!r}")
            return result

        return wrapper

    # -- results -----------------------------------------------------------
    def self_times(self, pass_index: int) -> dict[str, float]:
        """Summed self time per span name within one pass."""
        child = defaultdict(float)
        for span in self.spans:
            if span["parent"] >= 0:
                child[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            if span["pass"] == pass_index:
                out[span["name"]] += (span["end"] - span["start"]
                                      - child[i])
        return out

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

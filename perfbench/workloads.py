"""The benchmark workloads as lists of ``cascadekit`` CLI invocations.

Each operation is one ``cascadekit.cli.main(argv)`` call and belongs to
one of four groups (``paths``, ``fractal``, ``montecarlo``, ``exact``),
which decide how its artifacts are checked and under which key its
goldens are stored.  A workload runs one or more groups.  An operation's
output directory is a fixed relative string named after its group (the
CLI embeds it in every artifact's metadata, so a moving outdir would
change the bytes), and the work it does is counted from its inputs:
leaves for sign-field operations, replica x levels for count-chain
sampler calls.
"""

from __future__ import annotations

from dataclasses import dataclass

OUT_ROOT = ".bench_out"

#: Seeds with goldens captured by ``run.py --capture-goldens``.  Seed 1
#: is the default; seed 2 is held out (not used while tuning).
GOLDEN_SEEDS = (1, 2)


@dataclass(frozen=True)
class Op:
    """One CLI call of a workload."""

    op_id: str
    group: str
    command: str
    args: tuple[str, ...]
    seeded: bool = True
    leaves: int = 0
    draw_levels: int = 0
    hurst: str = ""
    base: int = 2

    def argv(self, seed: int) -> list[str]:
        argv = [self.command, *self.args, "--outdir", self.outdir()]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv

    def outdir(self) -> str:
        return f"{OUT_ROOT}/{self.group}/{self.op_id}"


# Criterion 10's four regimes: two convergent raw paths, the critical and
# a divergent path normalized.  Depth 24 instead of the criterion's 27
# keeps one pass near 8 s.
PATH_DEPTHS = (8, 12, 18, 24)
_PATH_REGIMES = (("0.95", False), ("0.7", False), ("0.5", True),
                 ("-2", True))


def _paths() -> list[Op]:
    ops = []
    for i, (h, norm) in enumerate(_PATH_REGIMES):
        args = ("--H", h, "--depths", ",".join(map(str, PATH_DEPTHS)))
        if norm:
            args += ("--normalize",)
        ops.append(Op(f"p{i}", "paths", "simulate", args, hurst=h,
                      leaves=sum(2**d for d in PATH_DEPTHS)))
    return ops


_REPS = 100_000
_SMALLH_VALUES = 4  # the CLI's default --h-values has four entries


def _montecarlo() -> list[Op]:
    depths = (8, 12, 16)
    ops = [Op(f"m{i}", "montecarlo", "clt",
              ("--test", "terminal", "--H", h, "--n", "8,12,16",
               "--reps", str(_REPS)),
              hurst=h, draw_levels=_REPS * sum(depths))
           for i, h in enumerate(("0.3", "sym", "0.5"))]
    inc_reps, inc_p, inc_n = 4000, 4, 16
    ops += [
        Op("m3", "montecarlo", "clt",
           ("--test", "smallh", "--n", "16", "--reps", str(_REPS)),
           hurst="0.7", draw_levels=_SMALLH_VALUES * _REPS * 16),
        # increments: branch signs to depth p, then b^p terminal draws of
        # depth n - p per replica
        Op("m4", "montecarlo", "clt",
           ("--test", "increments", "--H", "0.3", "--n", str(inc_n),
            "--reps", str(inc_reps)),
           hurst="0.3",
           draw_levels=inc_reps * inc_p
           + inc_reps * 2**inc_p * (inc_n - inc_p)),
        # residual: one pair chain to n + proxy_levels (default 12)
        Op("m5", "montecarlo", "clt",
           ("--test", "residual", "--H", "0.7", "--n", "12",
            "--reps", str(_REPS)),
           hurst="0.7", draw_levels=_REPS * (12 + 12)),
        Op("m6", "montecarlo", "clt",
           ("--test", "moments", "--H", "0.7", "--n", "40", "--q", "4",
            "--reps", str(_REPS)),
           hurst="0.7", draw_levels=_REPS * 40),
    ]
    return ops


def _exact() -> list[Op]:
    tables = (("2", "0.7", "16"), ("2", "0.5", "16"), ("2", "0.3", "16"),
              ("2", "sym", "16"), ("3", "0.7", "10"), ("5", "0.7", "10"),
              ("5", "0.3", "10"))
    densities = (("2", "0.55"), ("2", "0.7"), ("2", "0.95"), ("3", "0.6"))
    # The exact side takes no seed, so these inputs (and their goldens)
    # are the same for every --seed.
    ops = [Op(f"e{i}", "exact", "moments",
              ("--b", b, "--H", h, "--n", "60", "--q", q),
              seeded=False, hurst=h, base=int(b))
           for i, (b, h, q) in enumerate(tables)]
    ops += [Op(f"d{i}", "exact", "density", ("--b", b, "--H", h),
               seeded=False, hurst=h, base=int(b))
            for i, (b, h) in enumerate(densities)]
    return ops


def _fractal() -> list[Op]:
    ops = [Op(f"f{i}", "fractal", "fractal",
              ("--profile", "--b", "2", "--n", "22", "--H", h,
               "--p-range", "4,16", "--j-range", "4,20"),
              hurst=h, leaves=2**22)
           for i, h in enumerate(("0.7", "0.95"))]
    ops.append(Op("f2", "fractal", "fractal",
                  ("--profile", "--b", "3", "--n", "14", "--H", "0.7",
                   "--p-range", "4,8"),
                  hurst="0.7", base=3, leaves=3**14))
    return ops


GROUPS: dict[str, list[Op]] = {
    "paths": _paths(),
    "fractal": _fractal(),
    "montecarlo": _montecarlo(),
    "exact": _exact(),
}

# Two workloads rather than one per group, so that each run can be long
# enough to ride out the host's speed drift.  ``paths`` hashes the sign
# field and builds paths from it; ``nohash`` never touches the field: the
# count-chain samplers, then the seed-free exact side.
WORKLOADS: dict[str, list[Op]] = {
    "paths": GROUPS["paths"] + GROUPS["fractal"],
    "nohash": GROUPS["montecarlo"] + GROUPS["exact"],
}

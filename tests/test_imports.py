"""The import contract: every public name resolves and is used by the
library, and no command loads scipy.

``import cascadekit`` and every subcommand, ``clt`` included, load numpy
and nothing heavier: the KS distances' normal CDF is a local port of
scipy's ``ndtr`` (:func:`cascadekit.stats._ndtr`).  The check runs in a
fresh interpreter, since other test modules import scipy into this one;
the script imports scipy itself only after every command has run, to
check the default KS distance against scipy's ``ndtr`` bit for bit.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import cascadekit

SRC = str(Path(cascadekit.__file__).resolve().parents[1])

SCRIPT = r"""
import json
import sys

import numpy as np


def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))


import cascadekit
import cascadekit.cli as cli

cli.build_parser()
state = {"import": scipy_modules()}
outdir = sys.argv[1]
for argv in (["simulate", "--depths", "8"],
             ["fractal", "--n", "14", "--p-range", "2,8", "--j-range", "2,8",
              "--profile"],
             ["moments", "--n", "6", "--q", "4"],
             ["density"],
             ["clt", "--test", "terminal", "--H", "0.3", "--n", "8",
              "--reps", "200"]):
    cli.main(argv + ["--outdir", outdir])
state["commands"] = scipy_modules()

import scipy.special

x = np.random.default_rng(20240611).standard_normal(1001)
state["ks"] = [cascadekit.ks_statistic(x).hex(),
               cascadekit.ks_statistic(x, scipy.special.ndtr).hex()]
print(json.dumps(state))
"""


def test_no_command_loads_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                         env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    state = json.loads(out.stdout.splitlines()[-1])
    assert state["import"] == []
    # every command ran to its files without loading scipy
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "charfn_b2_H0.7.csv", "clt_terminal_b2_H0.3.json",
        "density_b2_H0.7.csv", "fractal_b2_H0.7_n14.csv",
        "fractal_b2_H0.7_n14.json", "limit_moments_b2_H0.7.csv",
        "moment_table_b2_H0.7.csv", "path_b2_H0.7_n8.csv",
        "path_b2_H0.7_n8.svg"]
    assert state["commands"] == []
    # the default CDF gives scipy's ndtr bits
    default, explicit = state["ks"]
    assert default == explicit


def test_every_public_name_resolves_once():
    """``cascadekit.__all__`` lists each name once and each resolves, so a
    deleted public function cannot leave a stale export behind."""
    names = cascadekit.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(cascadekit, n)] == []


#: Public names that no module calls, kept as references that tests check
#: the library against: the enumeration oracles.
ORACLES = {"brute_force_moments", "enumerate_next_level_mean", "evaluate",
           "verify_self_similarity"}


def _loaders():
    """Name -> the top-level definitions (None: module-level code) of the
    package's modules, ``__init__`` aside, that load it as a variable or an
    attribute.  Imports and docstrings do not load a name."""
    loaders: dict[str, set] = {}
    for path in Path(cascadekit.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    loaders.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    loaders.setdefault(node.attr, set()).add(owner)
    return loaders


def test_every_public_name_is_used_by_the_library():
    """Each ``__all__`` name is loaded by some module, outside its own
    definition and outside exports that are themselves unused, or is one
    of the named oracles: an export only tests call cannot come back."""
    loaders = _loaders()
    unused: set[str] = set()
    while True:
        found = {name for name in set(cascadekit.__all__) - ORACLES - unused
                 if not loaders.get(name, set()) - unused - {name}}
        if not found:
            break
        unused |= found
    assert sorted(unused) == []

"""The import contract: every public name resolves and is used by the
library, every private top-level function and class is used outside its
own definition, no command loads scipy, and nothing needs mpmath.

``import cascadekit`` and every subcommand, ``clt`` included, load numpy
and nothing heavier: the KS distances' normal CDF is a local port of
scipy's ``ndtr`` (:func:`cascadekit.stats._ndtr`), and the enumeration
oracle weights its cells in the standard library's ``decimal``.  The
checks run in a fresh interpreter, since other test modules import scipy
into this one; the scipy script imports scipy itself only after every
command has run, to check the default KS distance against scipy's
``ndtr`` bit for bit.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import cascadekit

SRC = str(Path(cascadekit.__file__).resolve().parents[1])

#: One run of every command, small enough for a test.
COMMANDS = [["simulate", "--depths", "8"],
            ["fractal", "--n", "14", "--p-range", "2,8", "--j-range", "2,8",
             "--profile"],
            ["moments", "--n", "6", "--q", "4"],
            ["density"],
            ["clt", "--test", "terminal", "--H", "0.3", "--n", "8",
             "--reps", "200"]]

#: The files that ``COMMANDS`` write.
COMMAND_FILES = [
    "charfn_b2_H0.7.csv", "clt_terminal_b2_H0.3.json",
    "density_b2_H0.7.csv", "fractal_b2_H0.7_n14.csv",
    "fractal_b2_H0.7_n14.json", "limit_moments_b2_H0.7.csv",
    "moment_table_b2_H0.7.csv", "path_b2_H0.7_n8.csv",
    "path_b2_H0.7_n8.svg"]

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
for argv in json.loads(sys.argv[2]):
    cli.main(argv + ["--outdir", sys.argv[1]])
state["commands"] = scipy_modules()

import scipy.special

x = np.random.default_rng(20240611).standard_normal(1001)
state["ks"] = [cascadekit.ks_statistic(x).hex(),
               cascadekit.ks_statistic(x, scipy.special.ndtr).hex()]
print(json.dumps(state))
"""

NO_MPMATH_SCRIPT = r"""
import sys

sys.modules["mpmath"] = None  # every import of mpmath now raises

import json

import cascadekit
import cascadekit.cli as cli

tables = [cascadekit.brute_force_moments(cascadekit.CascadeParams(hurst=h),
                                         3, 6).values.tolist()
          for h in (0.7, 1.0)]
for argv in json.loads(sys.argv[2]):
    cli.main(argv + ["--outdir", sys.argv[1]])
print(json.dumps(tables))
"""


def _run_fresh(script, outdir):
    """Run ``script`` with argv (outdir, COMMANDS as JSON) in a fresh
    interpreter that imports the package from this checkout; return the
    JSON of its last line of output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script, str(outdir),
                          json.dumps(COMMANDS)],
                         env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_no_command_loads_scipy(tmp_path):
    state = _run_fresh(SCRIPT, tmp_path)
    assert state["import"] == []
    # every command ran to its files without loading scipy
    assert sorted(p.name for p in tmp_path.iterdir()) == COMMAND_FILES
    assert state["commands"] == []
    # the default CDF gives scipy's ndtr bits
    default, explicit = state["ks"]
    assert default == explicit


def test_oracle_and_every_command_run_without_mpmath(tmp_path):
    """With mpmath blocked, the oracle gives the tables it gives here, at
    an irrational b^(H-1) and at H = 1 (p_minus = 0), and every command
    writes its files."""
    tables = _run_fresh(NO_MPMATH_SCRIPT, tmp_path)
    assert tables == [
        cascadekit.brute_force_moments(cascadekit.CascadeParams(hurst=h),
                                       3, 6).values.tolist()
        for h in (0.7, 1.0)]
    assert sorted(p.name for p in tmp_path.iterdir()) == COMMAND_FILES


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


def _unloaded_private_definitions():
    """``module.name`` of each private top-level function or class of the
    package that no code loads outside its own definition: by name in
    its own module or in a module that imports it from there, or as an
    attribute anywhere.  Imports and docstrings do not load a name."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(cascadekit.__file__).parent.glob("*.py")}
    loaders: dict[tuple, set] = {}  # (module, name) -> (module, owner)
    attributes = set()
    for stem, tree in trees.items():
        sources = {alias.asname or alias.name: (node.module, alias.name)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   for alias in node.names}
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    key = sources.get(node.id, (stem, node.id))
                    loaders.setdefault(key, set()).add((stem, owner))
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    return sorted(
        f"{stem}.{stmt.name}" for stem, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and stmt.name not in attributes
        and not loaders.get((stem, stmt.name), set()) - {(stem, stmt.name)})


def test_every_private_definition_is_used():
    """Each private top-level function and class is loaded outside its own
    definition, so a helper whose last caller goes cannot stay behind."""
    assert _unloaded_private_definitions() == []

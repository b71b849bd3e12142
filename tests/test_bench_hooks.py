"""The benchmark's hooks into the package.

``perfbench`` reaches into ``horseshoe`` by name: ``run.py`` counts the
``map_core`` functions in ``MAP_CORE`` and times the layer functions in
``SPANNED``, and ``tracer.py`` derives counters from the results of the
functions keyed in ``OBSERVERS``.  A hook whose function is renamed or
deleted is skipped without an error and its counter reads 0, so these
tests read the three tables with ``ast`` and check each name and each
result field that an observer reads.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np

import horseshoe
from horseshoe import induced as ind
from horseshoe import manifolds as mf
from horseshoe import sampling as sp
from horseshoe import thermo
from horseshoe.map_core import REF_EX

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(horseshoe.__file__).parent


def _assigned(path: Path, name: str) -> ast.expr:
    """The expression assigned to the module-level ``name`` in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return node.value
    raise LookupError(f"{name} is not assigned in {path.name}")


def _hooks() -> list:
    """(module, function) for every name the benchmark wraps by name."""
    run = BENCH / "run.py"
    pairs = [("map_core", fn)
             for fn in ast.literal_eval(_assigned(run, "MAP_CORE"))]
    pairs += [(layer, fn) for layer, fns
              in ast.literal_eval(_assigned(run, "SPANNED")).items()
              for fn in fns]
    observers = _assigned(BENCH / "tracer.py", "OBSERVERS")
    pairs += [tuple(ast.literal_eval(key).split("."))
              for key in observers.keys]
    return pairs


def _public_functions(module: str) -> set:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def test_every_benchmark_hook_is_a_public_function():
    hooks = _hooks()
    assert len(hooks) == 32
    missing = [f"{module}.{fn}" for module, fn in hooks
               if fn not in _public_functions(module)]
    assert missing == []


def test_the_observed_result_fields_exist():
    def fields(cls) -> set:
        return {f.name for f in dataclasses.fields(cls)}

    assert "flagged" in fields(thermo.CylinderPotential)
    assert "reassigned" in fields(thermo.EquilibriumState)
    assert {"c0_ok", "eps0_ok", "eta_ok"} <= fields(ind.CrossReport)
    m = sp.sample_returning_point(REF_EX, np.random.default_rng(1)).M
    for leaf in (mf.local_unstable(REF_EX, m), mf.local_stable(REF_EX, m)):
        assert int(leaf.meta["iterations"]) >= 0

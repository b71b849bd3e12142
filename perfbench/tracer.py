"""Per-layer tracing from outside the program.

The tracer wraps every public function of the ``horseshoe`` modules.  It
replaces the module attribute and every other binding of the same
function object, so calls through ``from .map_core import apply`` are
seen as well as calls through ``mc.apply``.  Nothing under ``src/`` is
edited; ``uninstall`` puts the original objects back.

``map_core`` functions are only counted: a span per call would cost
more than the call itself.  Every other wrapped call records a span,
whose self time is its duration minus the time of the spans it caused.
Time spent in counted-only functions stays in the caller's self time.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("map_core", "coding", "splitting", "sampling", "induced",
          "manifolds", "thermo")
COUNT_ONLY = frozenset({"map_core"})


# Output-derived counters, keyed by the wrapped function's qualified name.
# Each observer gets the call's arguments, its result and the counter.

def _observe_atoms(args, kwargs, result, counts):
    counts["coding.atoms.words"] += len(result)
    counts["coding.atoms.boxes"] += sum(len(a.boxes) for a in result.values())


def _observe_crossing(args, kwargs, result, counts):
    """A call passes when every statement it asked for held."""
    checks = kwargs.get("checks", args[5] if len(args) > 5
                        else ("c0", "eps0", "eta"))
    counts["induced.u_crossing_certificate.passed"] += all(
        getattr(result, name + "_ok") for name in checks)


def _observe_leaf(args, kwargs, result, counts):
    counts["manifolds.leaf_iterations"] += int(result.meta["iterations"])


def _observe_pull_back(args, kwargs, result, counts):
    counts["thermo.pull_back.flagged"] += len(result.flagged)


def _observe_equilibrium(args, kwargs, result, counts):
    counts["thermo.equilibrium_state.reassigned"] += len(result.reassigned)


OBSERVERS = {
    "coding.atoms": _observe_atoms,
    "induced.u_crossing_certificate": _observe_crossing,
    "manifolds.local_unstable": _observe_leaf,
    "manifolds.local_stable": _observe_leaf,
    "thermo.pull_back": _observe_pull_back,
    "thermo.equilibrium_state": _observe_equilibrium,
}


class Tracer:
    """Call counts, error counts and self times of the wrapped functions."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._child_time: list = []
        self._undo: list = []

    def _counting(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanning(self, name, fn):
        calls, errors, counts = self.calls, self.errors, self.counts
        self_s, child_time = self.self_s, self._child_time
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            calls[name] += 1
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
            if observe is not None:
                observe(args, kwargs, result, counts)
            return result
        return spanned

    def install(self, extra_namespaces=()) -> None:
        """Wrap the public functions of every layer and rebind them in
        every ``horseshoe`` module and in ``extra_namespaces``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"horseshoe.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                make = self._counting if layer in COUNT_ONLY else self._spanning
                wrappers[id(obj)] = (obj, make(name, obj))
        namespaces = [vars(m) for n, m in sorted(sys.modules.items())
                      if n == "horseshoe" or n.startswith("horseshoe.")]
        namespaces.extend(extra_namespaces)
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    ns[attr] = hit[1]
                    self._undo.append((ns, attr, obj))

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._undo):
            ns[attr] = obj
        self._undo.clear()

    def layer_self_s(self) -> dict:
        """Self time summed per layer (counted-only layers have none)."""
        out = {layer: 0.0 for layer in LAYERS if layer not in COUNT_ONLY}
        for name, secs in self.self_s.items():
            out[name.split(".", 1)[0]] += secs
        return out

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "errors": dict(self.errors),
                "counts": dict(self.counts), "self_s": dict(self.self_s),
                "layer_self_s": self.layer_self_s()}

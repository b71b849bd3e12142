"""Seeded inputs, task lists and output checks of the three workloads.

``build`` turns a seed into the inputs of one workload (and, for
``analysis``, fills the atom cache); ``run`` executes the timed task list
on them.  The program only ever sees the generated inputs.  The input
generators are: a valid-parameter sweep around each reference set,
returning points of the tangency window A (and nearest-neighbour pairs
of them), disks, and affine strip itineraries.

atlas     the cold write path: validate -> atoms(n) -> P(0) -> equilibrium
          state, then point-location lookups against the fresh atoms.
certify   certificate calibration, then crossing checks at fresh points.
analysis  the warm read path: leaves, brackets, invariance defects,
          mixing times, Lyapunov exponents and a pressure curve, over an
          atom cache filled during set-up.

Every task is timed on its own.  A task fails when it raises one of the
program's typed errors or when one of its checks fails.  Checks marked
hard state mathematical identities; one failing makes the run incorrect.
The soft ones record the geometric outcomes the code reaches today.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from horseshoe import coding, induced, manifolds, sampling, splitting, thermo
from horseshoe import map_core as mc

WORKLOADS = ("atlas", "certify", "analysis")
FAMILIES = {"ex": mc.REF_EX, "strict": mc.REF_STRICT}
# Nonempty level-n words of the reference sets.
EXPECTED_WORDS = {("ex", 0): 3, ("ex", 1): 27, ("ex", 2): 241,
                  ("strict", 0): 3, ("strict", 1): 27, ("strict", 2): 243}
PERTURBED_FIELDS = ("lam", "sigma", "c", "q", "t", "w_max")
LOG3 = math.log(3.0)
TOL = 1e-9
REPEAT = 3          # passes over the analysis queries


@dataclass(frozen=True)
class Sizes:
    """How much work one round does."""

    levels: tuple = (("ex", 2), ("strict", 2))   # atlas level per reference set
    perturbed_levels: tuple = (("ex", 1), ("strict", 2))
    perturbed: int = 1          # seeded parameter sets per family (atlas)
    # point lookups per reference set and per perturbed set (atlas); most
    # go to REF_EX so that p50 and p90 both fall inside its lookups
    lookups: tuple = (("ex", 1200), ("strict", 10))
    perturbed_lookups: int = 10
    budget: int = 40            # calibration sample budget (certify)
    fresh_points: int = 75      # crossing checks per parameter set (certify)
    a_points: int = 32          # leaf and bracket A-points per set (analysis)
    field_points: int = 160     # direction-field A-points per set (analysis)
    defects: int = 8            # invariance-defect queries per kind and set
    disks: int = 2              # mixing-time disks per parameter set
    itineraries: int = 8        # Lyapunov itineraries per parameter set
    horizon: int = 30           # Lyapunov horizon
    memory: tuple = (("ex", 3), ("strict", 5))   # analysis cache and curve
    curve_points: int = 9       # pressure-curve points per parameter set


FULL = Sizes()
TINY = Sizes(levels=(("ex", 0), ("strict", 1)),
             perturbed_levels=(("ex", 0), ("strict", 1)),
             lookups=(("ex", 3), ("strict", 3)), perturbed_lookups=2,
             budget=4, fresh_points=2,
             a_points=4, field_points=4, defects=1, disks=1, itineraries=2,
             horizon=10, memory=(("ex", 1), ("strict", 3)), curve_points=3)


def _rng(seed: int, *labels) -> np.random.Generator:
    """Independent stream per (seed, purpose)."""
    words = [int.from_bytes(hashlib.sha256(str(x).encode()).digest()[:4],
                            "little") for x in labels]
    return np.random.default_rng([seed] + words)


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------

def param_sweep(rng: np.random.Generator, base: mc.MapParams, count: int,
                spread: float = 0.04) -> tuple[list, int]:
    """``count`` parameter sets drawn around ``base`` (each perturbed field
    scaled by exp(U(-spread, spread))), with the number of draws skipped
    because ``validate`` rejected them on a hard check."""
    out, rejected = [], 0
    while len(out) < count:
        if rejected > 1000:
            raise RuntimeError(f"parameter sweep around {base} keeps failing")
        fields = {f: getattr(base, f) * math.exp(rng.uniform(-spread, spread))
                  for f in PERTURBED_FIELDS}
        cand = dataclasses.replace(base, **fields)
        if mc.validate(cand).valid:
            out.append(cand)
        else:
            rejected += 1
    return out, rejected


def a_point_pairs(points: list) -> list:
    """Nearest-neighbour pairs among returning points of equal escape time."""
    pairs = set()
    for i, a in enumerate(points):
        same = [j for j, b in enumerate(points)
                if j != i and b.n_escape == a.n_escape]
        if same:
            j = min(same, key=lambda j: math.dist(a.M, points[j].M))
            pairs.add((min(i, j), max(i, j)))
    return [(points[i].M, points[j].M) for i, j in sorted(pairs)]


def disks(rng: np.random.Generator, count: int) -> list:
    """Disks of radius 0.05-0.15 centred anywhere in the square."""
    return [manifolds.Disk((float(rng.uniform(0.05, 0.95)),
                            float(rng.uniform(0.05, 0.95))),
                           float(rng.uniform(0.05, 0.15)))
            for _ in range(count)]


def affine_itinerary(rng: np.random.Generator, length: int) -> tuple:
    """Strip symbols over {0, 1, 2} without the unrealizable step 1 -> 0."""
    out = [int(rng.integers(0, 3))]
    while len(out) < length:
        s = int(rng.integers(0, 3))
        if not (out[-1] == 1 and s == 0):
            out.append(s)
    return tuple(out)


def digest(obj) -> str:
    """Short hash of the repr, to show two rounds had the same data."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _returning_points(params, rng, count) -> list:
    """Returning points of A, stratified over escape times 1..5 so that
    the seed does not change how many of each kind a round gets."""
    return [sampling.sample_returning_point(params, rng, n1=1 + i % 5)
            for i in range(count)]


def _atlas_inputs(seed: int, sizes: Sizes) -> dict:
    sets, rejected = [], 0
    for fam, n in sizes.levels:
        sets.append((fam, True, FAMILIES[fam], n))
    for fam, n in sizes.perturbed_levels:
        drawn, rej = param_sweep(_rng(seed, "sweep", fam), FAMILIES[fam],
                                 sizes.perturbed)
        rejected += rej
        sets.extend((fam, False, p, n) for p in drawn)
    lookups = [[rp.M for rp in _returning_points(
                    p, _rng(seed, "lookups", i),
                    dict(sizes.lookups)[fam] if is_ref
                    else sizes.perturbed_lookups)]
               for i, (fam, is_ref, p, _) in enumerate(sets)]
    return {"sets": sets, "lookups": lookups, "rejected": rejected}


def _certify_inputs(seed: int, sizes: Sizes) -> dict:
    # The calibration seed is fixed: calibration cost swings by about 10 %
    # with it, more than the wall-time bound could absorb.  The run seed
    # varies the fresh points the certificate is checked at.
    return {"budget": sizes.budget, "calibration_seed": 0, "sets": [
        (fam, p, [rp.M for rp in _returning_points(
            p, _rng(seed, "fresh", fam), sizes.fresh_points)])
        for fam, p in FAMILIES.items()]}


def _analysis_inputs(seed: int, sizes: Sizes) -> dict:
    sets = []
    for fam, m in sizes.memory:
        p = FAMILIES[fam]
        rng = _rng(seed, "analysis", fam)
        pts = _returning_points(p, rng, sizes.a_points)
        field = _returning_points(p, rng, sizes.field_points)
        itins = []
        for _ in range(sizes.itineraries):
            seq = affine_itinerary(rng, 8 + sizes.horizon + 1)
            past, future = seq[:8], seq[8:]
            itins.append((thermo.shift_orbit_point(p, past, future), future))
        scale = float(rng.uniform(1.0, 2.0))
        half = sizes.curve_points // 2
        sets.append({
            "family": fam, "params": p, "memory": m,
            "points": [rp.M for rp in pts], "field": [rp.M for rp in field],
            "pairs": a_point_pairs(pts), "disks": disks(rng, sizes.disks),
            "itineraries": itins,
            "ts": [scale * (k - half) / half for k in range(sizes.curve_points)],
        })
    return {"sets": sets, "defects": sizes.defects}


GENERATORS = {"atlas": _atlas_inputs, "certify": _certify_inputs,
            "analysis": _analysis_inputs}


def build(workload: str, seed: int, sizes: Sizes = FULL) -> dict:
    """Inputs of one round; the same seed always gives the same inputs.
    For ``analysis`` this also fills the atom cache (one pull-back per
    parameter set)."""
    inputs = GENERATORS[workload](seed, sizes)
    inputs["digest"] = digest(inputs)
    if workload == "analysis":
        zero = thermo.named_potential("zero")
        for s in inputs["sets"]:
            thermo.pull_back(s["params"], zero, s["memory"])
    return inputs


# ---------------------------------------------------------------------------
# Timed task lists
# ---------------------------------------------------------------------------

class Recorder:
    """Times each task, applies its checks and keeps the outcomes.

    ``intervals[i]`` holds the (start, end) times of every run of task i:
    one for a task, one per pass for a read-only query."""

    def __init__(self):
        self.intervals: list = []
        self.outcomes: list = []
        self.failures: Counter = Counter()
        self.hard_failures: list = []
        self.crashes: list = []
        self._queries: list = []        # (slot, item)
        self._raised: set = set()
        self._passes = 0

    def task(self, kind: str, fn, args: tuple, check=None):
        """Run ``fn(*args)`` once and apply ``check``, which yields
        (name, value, ok, hard) tuples; returns the result or None."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as err:            # noqa: BLE001 - recorded below
            self.intervals.append([(start, time.perf_counter())])
            self._error(kind, err)
            return None
        self.intervals.append([(start, time.perf_counter())])
        self._check(kind, result, check)
        return result

    def add_queries(self, items: list) -> None:
        """Register read-only queries (kind, fn, args, check); each
        ``query_pass`` runs every registered query once more.  A query is
        checked on its first run and not rerun once it raised."""
        for item in items:
            self.intervals.append([])
            self._queries.append((len(self.intervals) - 1, item))

    def query_pass(self) -> None:
        """Run the registered queries once, in a shuffled order, so that
        the runs of one kind spread over the round instead of sharing one
        moment of the machine's speed."""
        order = list(self._queries)
        random.Random(self._passes).shuffle(order)
        self._passes += 1
        for slot, (kind, fn, args, check) in order:
            runs = self.intervals[slot]
            if slot in self._raised:
                continue
            start = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as err:        # noqa: BLE001 - recorded below
                runs.append((start, time.perf_counter()))
                self._raised.add(slot)
                self._error(kind, err)
                continue
            runs.append((start, time.perf_counter()))
            if len(runs) == 1:
                self._check(kind, result, check)

    def _error(self, kind: str, err: Exception) -> None:
        name = type(err).__name__
        if type(err).__module__.startswith("horseshoe."):
            self.failures[f"{kind}:{name}"] += 1
        else:
            self.crashes.append(f"{kind}: {err!r}")
        self.outcomes.append((kind, name))

    def _check(self, kind: str, result, check) -> None:
        checks = list(check(result)) if check is not None else []
        bad = [c for c in checks if not c[2]]
        for name, value, _, hard in bad:
            self.failures[f"{kind}:{name}"] += 1
            if hard:
                self.hard_failures.append(f"{kind}:{name}={value!r}")
        self.outcomes.append((kind, "failed" if bad else "ok", checks))

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o[1] != "ok")


def _variational(measure):
    gap = abs(measure.pressure - measure.entropy - measure.integral)
    return ("variational", gap, gap < TOL, True)


def _pressure0(p, m):
    return thermo.pressure(thermo.pull_back(p, thermo.named_potential("zero"), m))


def _run_atlas(inputs: dict, rec: Recorder) -> None:
    x = thermo.named_potential("x")
    for (fam, is_ref, p, n), lookups in zip(inputs["sets"], inputs["lookups"]):
        m = 2 * n + 1
        rec.task("validate", mc.validate, (p,),
                 lambda r: [("valid", r.verdict, r.valid, True)])
        expected = EXPECTED_WORDS.get((fam, n)) if is_ref else None
        level = rec.task("atoms", coding.atoms, (p, n), lambda r: [
            ("words", len(r), len(r) == expected if expected else len(r) > 0,
             True)])
        rec.task("pressure0", _pressure0, (p, m),
                 lambda r: [("log3", r, abs(r - LOG3) < TOL, True)])
        rec.task("equilibrium", thermo.equilibrium_state, (p, x, m),
                 lambda r: [("mass_defect", r.mass_defect,
                             r.mass_defect < TOL, True),
                            _variational(r.measure)])
        if level is not None:
            rec.add_queries([("lookup", _locate, (level, p, pt, n),
                              _cover_check) for pt in lookups])
        # lookups take microseconds: timing them after every build spreads
        # their runs over the whole round
        rec.query_pass()


def _locate(level: dict, p, pt, n: int):
    """Word of ``pt`` and whether its atom's cover contains the point."""
    w = coding.itinerary(p, pt, n)
    a = level.get(coding.Word(w.symbols, w.center))
    return w.to_string(), a is not None and a.contains(pt)


def _cover_check(located):
    return [("in_cover", located[0], located[1], True)]


def _crossing_checks(r):
    return [("crossing", (r.c0_ok, r.eps0_ok, r.eta_ok),
             r.c0_ok and r.eps0_ok and r.eta_ok, False)]


def _constants_check(c):
    values = (c.C0, c.eps0, c.eta, c.C5)
    return [("constants", values,
             all(math.isfinite(v) and v > 0.0 for v in values), True)]


def _run_certify(inputs: dict, rec: Recorder) -> None:
    for fam, p, fresh in inputs["sets"]:
        cert = rec.task("calibrate", induced.calibrate_certificate,
                        (p, inputs["budget"], inputs["calibration_seed"]),
                        _constants_check)
        if cert is None:
            continue
        for pt in fresh:
            rec.task("crossing", induced.u_crossing_certificate,
                     (p, pt, 1.0, cert), _crossing_checks)


def _curve_point(p, t: float, m: int):
    """Gibbs measure of t*x on the warm atom cache."""
    phi = thermo.Potential(lambda q: t * q[0], holder_C=abs(t),
                           name=f"{t!r}*x")
    return thermo.gibbs_measure(thermo.pull_back(p, phi, m))


def _frame_check(f):
    nu, ns = float(np.linalg.norm(f.e_u)), float(np.linalg.norm(f.e_s))
    return [("unit", (nu, ns),
             abs(nu - 1.0) < TOL and abs(ns - 1.0) < TOL, True)]


def _leaf_check(m):
    def check(curve):
        d = curve.distance_to(m)
        return [("through_base", d, d < 1e-8, False)]
    return check


def _bracket_check(br):
    return [("transverse", br.angle, not br.near_tangent, False)]


def _defect_check(d):
    return [("invariant", d, d <= 1e-6, False)]


def _mixing_check(r):
    return [("times", (r["n_plus"], r["n_minus"]), True, False)]


def _lyapunov_check(p):
    def check(r):
        du = abs(r["chi_u"] - math.log(p.sigma))
        ds = abs(r["chi_s"] - math.log(p.lam))
        return [("chi_u", r["chi_u"], du < TOL, True),
                ("chi_s", r["chi_s"], ds < TOL, True)]
    return check


def _convex(ts, ps) -> float:
    """Smallest difference of successive slopes of P over the t-grid."""
    out = math.inf
    for i in range(1, len(ts) - 1):
        left = (ps[i] - ps[i - 1]) / (ts[i] - ts[i - 1])
        right = (ps[i + 1] - ps[i]) / (ts[i + 1] - ts[i])
        out = min(out, right - left)
    return out


def _curve_check(ts: list, t: float, curve: dict):
    """Checks of one curve point; the last point to arrive also checks
    the convexity of the whole curve."""
    def check(meas):
        curve[t] = meas.pressure
        out = [_variational(meas)]
        if t == 0.0:
            out.append(("log3", meas.pressure,
                        abs(meas.pressure - LOG3) < TOL, True))
        if len(curve) == len(ts):
            low = _convex(ts, [curve[u] for u in ts])
            out.append(("convex", low, low >= -TOL, True))
        return out
    return check


def _run_analysis(inputs: dict, rec: Recorder) -> None:
    items = []
    for s in inputs["sets"]:
        p = s["params"]
        items += [("direction_field", splitting.direction_field, (p, m),
                   _frame_check) for m in s["field"]]
        for m in s["points"]:
            items.append(("local_unstable", manifolds.local_unstable, (p, m),
                          _leaf_check(m)))
            items.append(("local_stable", manifolds.local_stable, (p, m),
                          _leaf_check(m)))
        items += [("bracket", manifolds.bracket, (p, a, b), _bracket_check)
                  for a, b in s["pairs"]]
        for m in s["points"][:inputs["defects"]]:
            items.append(("unstable_defect",
                          manifolds.unstable_invariance_defect, (p, m),
                          _defect_check))
            items.append(("stable_defect", manifolds.stable_invariance_defect,
                          (p, m), _defect_check))
        items += [("mixing", manifolds.mixing_times, (p, disk), _mixing_check)
                  for disk in s["disks"]]
        items += [("lyapunov", _lyapunov, (p, start, symbols),
                   _lyapunov_check(p)) for start, symbols in s["itineraries"]]
        curve: dict = {}
        items += [("pressure_curve", _curve_point, (p, t, s["memory"]),
                   _curve_check(s["ts"], t, curve)) for t in s["ts"]]
    rec.add_queries(items)
    for _ in range(REPEAT):
        rec.query_pass()


def _lyapunov(p, start, symbols):
    return thermo.lyapunov(p, start, len(symbols) - 1, symbols=symbols)


RUNNERS = {"atlas": _run_atlas, "certify": _run_certify,
           "analysis": _run_analysis}


def run(workload: str, inputs: dict) -> Recorder:
    rec = Recorder()
    RUNNERS[workload](inputs, rec)
    return rec

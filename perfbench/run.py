"""Benchmark of the horseshoe laboratory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {atlas,certify,analysis} \
        --seed N --seconds S --trace {0,1}

A run executes rounds of the workload one at a time, each in a fresh
child process (``child.py``), until ``--seconds`` have passed and at
least two untraced rounds are done (one untraced and two traced ones
with ``--trace 1``).  Untraced runs then add set-up-only children until
``MIN_SETUPS`` set-ups were timed.  Fresh processes keep every round
cold: the program caches atoms at module level.  Children get single-threaded BLAS/OpenMP
and a fixed hash seed.  All rounds of a run use the same inputs, made
from ``--seed``; the closed loop runs one task at a time.

The run prints a header line (git revision, Python and numpy versions,
CPU count, seed), one line per round, and last a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
and ``failed`` count the tasks of one round, which all rounds share.  With
``--trace 0`` the metrics are the end-to-end ones, medians over the
untraced rounds:

    setup_s        imports, input generation and the analysis warm-up
                   (median over rounds and set-up-only children)
    wall_s         the timed task list (sum of the task latencies)
    ok_frac        1 - failed / attempted tasks of one round
    peak_rss_mb    peak resident memory of a round's process
    query_p50_ms   median task latency, pooled over the rounds
    query_p90_ms   90th percentile of the same

Times are scaled to a nominal machine speed (see ``speed.py``); each
round line also shows the raw seconds.  Read-only queries are timed in
several passes and count with their median run (see ``workloads.py``).

With ``--trace 1`` the rounds alternate untraced and traced, and the
metrics are the per-layer ones of the traced rounds (see ``tracer.py``):
call counts (every run of a query counts), self times in raw seconds,
output counters, layer self times within the task list
(``<layer>.task_self_s``) and the tracing overhead.

``correct`` is false when a hard check failed (a mathematical identity
such as P(0) = log 3), when a task raised an error that is not one of
the program's typed errors, or when rounds that must agree did not:
inputs, task outcomes, and (traced) call and output counts.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("atlas", "certify", "analysis")
DEADLINE_S = 170.0
MIN_UNTRACED = 2     # untraced rounds of a --trace 0 run
MIN_TRACED = 2       # traced rounds of a --trace 1 run (plus one untraced)
MIN_SETUPS = 5       # timed set-ups of a --trace 0 run

MAP_CORE = ("apply", "apply_inverse", "classify", "jacobian",
            "jacobian_inverse", "in_A")
SPANNED = {
    "coding": ("atoms", "itinerary"),
    "splitting": ("direction_field",),
    "sampling": ("sample_returning_point",),
    "induced": ("u_crossing_certificate", "distortion_probe"),
    "manifolds": ("local_unstable", "local_stable", "graph_transform",
                  "bracket", "global_unstable", "global_stable",
                  "advance_pieces", "retreat_pieces", "mixing_times"),
    "thermo": ("pull_back", "pressure", "gibbs_measure",
               "equilibrium_state", "lyapunov"),
}
LAYERS = ("coding", "splitting", "sampling", "induced", "manifolds", "thermo")


def git_revision() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def header(args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"header": {"git": git_revision(),
                       "python": platform.python_version(),
                       "numpy": numpy_version,
                       "nproc": len(os.sched_getaffinity(0)),
                       "workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace}}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload: str, seed: int, mode: str, timeout: float,
              tiny: bool = False) -> dict:
    """One child process (``mode`` as in ``child.py``); raises SystemExit
    when it fails.  ``tiny`` selects the smoke-test sizes."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           mode] + (["tiny"] if tiny else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} round exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {workload} round exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rounds(args) -> tuple[list, list]:
    """Run rounds until time is up, alternating untraced and traced ones
    when tracing; return them and the set-up times of untraced runs."""
    start = time.perf_counter()
    done = []
    longest = 0.0
    while True:
        n_untraced = sum(not r["traced"] for r in done)
        n_traced = len(done) - n_untraced
        elapsed = time.perf_counter() - start
        enough = n_traced >= MIN_TRACED and n_untraced >= 1 if args.trace \
            else n_untraced >= MIN_UNTRACED
        if enough and (elapsed >= args.seconds
                       or elapsed + 1.5 * longest > DEADLINE_S):
            break
        traced = bool(args.trace) and n_untraced > n_traced // 2
        t0 = time.perf_counter()
        res = run_child(args.workload, args.seed,
                        "trace" if traced else "run",
                        timeout=max(1.0, DEADLINE_S - elapsed))
        longest = max(longest, time.perf_counter() - t0)
        res["traced"] = traced
        done.append(res)
        print(json.dumps({"round": len(done), "traced": traced,
                          "setup_s": res["setup_s"], "wall_s": res["wall_s"],
                          "raw_setup_s": res["raw_setup_s"],
                          "raw_wall_s": res["raw_wall_s"],
                          "attempted": res["attempted"], "failed": res["failed"],
                          "failures": res["failures"]}), flush=True)
    setups = [r["setup_s"] for r in done if not r["traced"]]
    while not args.trace and len(setups) < MIN_SETUPS:
        elapsed = time.perf_counter() - start
        if elapsed > DEADLINE_S - 30.0:
            break
        res = run_child(args.workload, args.seed, "setup",
                        timeout=max(1.0, DEADLINE_S - elapsed))
        setups.append(res["setup_s"])
        print(json.dumps({"setup_only": len(setups), **res}), flush=True)
    return done, setups


def consistency(done: list) -> list:
    """Reasons the rounds disagree or a result is wrong (empty if none)."""
    problems = []
    for r in done:
        problems += [f"hard check failed: {h}" for h in r["hard_failures"]]
        problems += [f"untyped error: {c}" for c in r["crashes"]]
    for key in ("input_digest", "outcome_digest", "attempted", "failed"):
        if len({r[key] for r in done}) > 1:
            problems.append(f"rounds disagree on {key}")
    traced = [r["trace"] for r in done if r["traced"]]
    for key in ("calls", "counts", "errors"):
        if any(t[key] != traced[0][key] for t in traced[1:]):
            problems.append(f"traced rounds disagree on {key}")
    return problems


def end_to_end(done: list, setups: list) -> dict:
    untraced = [r for r in done if not r["traced"]]
    lat = sorted(x for r in untraced for x in r["latencies_ms"])
    attempted, failed = done[0]["attempted"], done[0]["failed"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced),
                        "MB"),
        "query_p50_ms": (statistics.median(lat), "ms"),
        "query_p90_ms": (statistics.quantiles(lat, n=10)[8], "ms"),
    }


def per_layer(done: list) -> dict:
    traced = [r for r in done if r["traced"]]
    first = traced[0]["trace"]
    calls, counts = first["calls"], first["counts"]

    def med(key, name):
        return statistics.median(r["trace"][key].get(name, 0.0) for r in traced)

    out = {}
    for fn in MAP_CORE:
        out[f"map_core.{fn}.calls"] = (calls.get(f"map_core.{fn}", 0), "count")
    for layer, fns in SPANNED.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            out[name + ".calls"] = (calls.get(name, 0), "count")
            out[name + ".self_s"] = (med("self_s", name), "s")
    out["coding.atoms.boxes"] = (counts.get("coding.atoms.boxes", 0), "count")
    out["coding.atoms.words"] = (counts.get("coding.atoms.words", 0), "count")
    out["induced.calibrate_certificate.self_s"] = (
        med("self_s", "induced.calibrate_certificate"), "s")
    crossing = calls.get("induced.u_crossing_certificate", 0)
    out["induced.u_crossing_certificate.pass_frac"] = (
        counts.get("induced.u_crossing_certificate.passed", 0) / crossing
        if crossing else 0.0, "fraction")
    out["induced.chart.calls"] = (calls.get("induced.chart", 0), "count")
    out["manifolds.leaf_iterations"] = (
        counts.get("manifolds.leaf_iterations", 0), "count")
    brackets = calls.get("manifolds.bracket", 0)
    out["manifolds.bracket.fail_frac"] = (
        first["errors"].get("manifolds.bracket", 0) / brackets
        if brackets else 0.0, "fraction")
    out["thermo.pull_back.flagged"] = (
        counts.get("thermo.pull_back.flagged", 0), "count")
    out["thermo.equilibrium_state.reassigned"] = (
        counts.get("thermo.equilibrium_state.reassigned", 0), "count")
    for layer in LAYERS:
        out[f"{layer}.task_self_s"] = (med("task_layer_self_s", layer), "s")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in done
                                      if not r["traced"])
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "fraction")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "horseshoe" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no horseshoe package under {ROOT / 'src'}")
    print(json.dumps(header(args)), flush=True)
    done, setups = rounds(args)
    problems = consistency(done)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    metrics = per_layer(done) if args.trace else end_to_end(done, setups)
    # every round runs the same task list with the same outcomes (checked
    # above), so the counts are one round's: they depend on the seed only,
    # not on how many rounds fitted into --seconds
    print(json.dumps({
        "correct": not problems,
        "attempted": done[0]["attempted"],
        "failed": done[0]["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

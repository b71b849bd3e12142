"""Smoke test of the benchmark at tiny sizes (about half a minute).

Usage, from the root of a checkout:  python3 perfbench/smoke.py

Checks that the input generators are deterministic, that the tracer
rebinds every alias of a wrapped function and puts the originals back,
and that traced and untraced tiny rounds of every workload agree and
yield exactly the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from horseshoe import coding, induced, map_core, sampling, thermo  # noqa: E402


def check_generators() -> None:
    for w in ("atlas", "certify"):
        a = workloads.build(w, 5, workloads.TINY)["digest"]
        b = workloads.build(w, 5, workloads.TINY)["digest"]
        c = workloads.build(w, 6, workloads.TINY)["digest"]
        assert a == b != c, (w, a, b, c)
    rng = workloads._rng(1, "smoke")
    sets, rejected = workloads.param_sweep(rng, map_core.REF_STRICT, 3,
                                           spread=1.0)
    assert len(sets) == 3 and rejected > 0
    assert all(map_core.validate(p).valid for p in sets)
    itin = workloads.affine_itinerary(rng, 200)
    assert all(not (a == 1 and b == 0) for a, b in zip(itin, itin[1:]))


def check_tracer() -> None:
    originals = (map_core.apply, thermo.apply, coding.atoms, induced.chart)
    tracer = Tracer()
    tracer.install()
    try:
        assert map_core.apply is thermo.apply is not originals[0]
        assert coding.atoms is not originals[2]
        rp = sampling.sample_returning_point(map_core.REF_STRICT,
                                             workloads._rng(1, "smoke"))
        coding.itinerary(map_core.REF_STRICT, rp.M, 1)
        cyl = thermo.pull_back(map_core.REF_STRICT,
                               thermo.named_potential("zero"), 1)
        thermo.pressure(cyl)
    finally:
        tracer.uninstall()
    assert (map_core.apply, thermo.apply, coding.atoms, induced.chart) \
        == originals
    snap = tracer.snapshot()
    assert snap["calls"]["coding.itinerary"] >= 1
    assert snap["calls"]["thermo.pressure"] == 1
    assert snap["calls"]["map_core.apply"] > 0
    assert all(v >= 0.0 for v in snap["self_s"].values())


def check_rounds() -> None:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in declared["end_to_end"]}
    layer = {m["name"] for m in declared["per_layer"]}
    for w in workloads.WORKLOADS:
        done = []
        for traced in (False, True, True):
            res = run.run_child(w, 1, "trace" if traced else "run",
                                timeout=120.0, tiny=True)
            res["traced"] = traced
            done.append(res)
        problems = run.consistency(done)
        assert not problems, (w, problems)
        assert done[0]["attempted"] > 0
        setup = run.run_child(w, 1, "setup", timeout=120.0, tiny=True)
        assert set(setup) == {"setup_s", "raw_setup_s"}, w
        assert set(run.end_to_end(done, [setup["setup_s"]])) == e2e, w
        assert set(run.per_layer(done)) == layer, w


def main() -> int:
    check_generators()
    check_tracer()
    check_rounds()
    print("perfbench smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

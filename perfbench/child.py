"""One round of a workload in a fresh process; prints one JSON line.

Usage: python3 perfbench/child.py WORKLOAD SEED MODE [tiny]

MODE is ``run`` (set up, then the timed task list), ``trace`` (the same
under the tracer) or ``setup`` (set up only).  The set-up time runs from
the start of this script through the imports, the input generation and
(for ``analysis``) the cache warm-up.
Times are scaled to the nominal speed of ``speed``; the raw ones are
reported too.  ``src/`` must be importable (``run.py`` puts it on
``PYTHONPATH``).
"""

import time

import speed

SAMPLER = speed.Sampler()
SAMPLER.start()
T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv) -> dict:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    sizes = workloads.TINY if argv[3:] == ["tiny"] else workloads.FULL
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install([vars(workloads)])
    inputs = workloads.build(workload, seed, sizes)
    setup_end = time.perf_counter()
    setup_s = (setup_end - T0) * SAMPLER.factor(T0, setup_end)
    if mode == "setup":
        return {"setup_s": setup_s, "raw_setup_s": setup_end - T0}
    before = tracer.layer_self_s() if tracer else None
    rec = workloads.run(workload, inputs)
    raw_ms = [statistics.median((e - s) * 1e3 for s, e in runs)
              for runs in rec.intervals]
    latencies_ms = [statistics.median((e - s) * 1e3 * SAMPLER.factor(s, e)
                                      for s, e in runs)
                    for runs in rec.intervals]
    out = {
        "setup_s": setup_s,
        "wall_s": sum(latencies_ms) / 1e3,
        "raw_setup_s": setup_end - T0,
        "raw_wall_s": sum(raw_ms) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies_ms": latencies_ms,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": dict(rec.failures),
        "hard_failures": rec.hard_failures,
        "crashes": rec.crashes,
        "input_digest": inputs["digest"],
        "outcome_digest": workloads.digest(rec.outcomes),
        "rejected_draws": inputs.get("rejected", 0),
        "numpy": np.__version__,
        "trace": None,
    }
    if tracer:
        tracer.uninstall()
        snap = tracer.snapshot()
        snap["task_layer_self_s"] = {k: v - before[k]
                                     for k, v in snap["layer_self_s"].items()}
        out["trace"] = snap
    return out


if __name__ == "__main__":
    try:
        result = main(sys.argv[1:])
    finally:
        SAMPLER.stop()
    print(json.dumps(result))

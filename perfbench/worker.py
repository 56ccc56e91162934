"""One pass of one workload in a fresh interpreter.

Started by run.py, one worker at a time. Protocol on stdout, one JSON
object per line after the ``PERFBENCH`` marker:

1. ``{"ready": n}`` once inputs are built (n operations); run.py times
   set-up from spawning this process to this line.
2. ``{"result": ...}`` after the timed operations and their checks.
3. ``{"oracle": ...}`` with ``--oracle 1``: the slow independent checks.

With ``--probe 1`` the worker stops after step 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def emit(obj) -> None:
    sys.stdout.write("PERFBENCH " + json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import numpy as np

    import spinsim
    from spinsim import propagator

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    ops = list(workload.operations())
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    emit({"ready": len(ops)})
    if args.probe:
        return 0

    runs = []
    for op in ops:
        prepared = op.prepare()
        propagator.counters.reset()
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                output = op.run(prepared)
            else:
                with tracer.root("op", op=op.key):
                    output = op.run(prepared)
        except Exception:  # an operation that raises is a failed operation
            output, error = None, traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        runs.append((op, output, error, wall, dataclasses.asdict(propagator.counters)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    threads = threading.active_count()
    if tracer is not None:
        tracer.uninstall()

    records, outputs = [], {}
    for op, output, error, wall, counts in runs:
        problems, digest = [error], None
        if error is None:
            try:
                problems, digest = op.check(output), op.digest(output)
                outputs[op.key] = output
            except Exception:  # a result the checker cannot read is a failed result
                problems = [traceback.format_exc(limit=3)]
        records.append({"key": op.key, "wall_s": wall, "counters": counts,
                        "digest": digest, "problems": problems})
    result = {
        "wall_s": sum(r["wall_s"] for r in records),
        "rss_mb": rss_mb,
        "threads": threads,
        "ops": records,
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "spinsim": spinsim.__version__,
                "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")},
    }
    if tracer is not None:
        totals = {k: sum(r["counters"][k] for r in records) for k in records[0]["counters"]}
        result["layers"] = tracing.layer_metrics(tracer, totals, workload.L)
        result["spans"] = tracer.spans
    emit({"result": result})

    if args.oracle:
        start = time.perf_counter()
        try:
            verdict = workload.oracle(outputs)
        except Exception:
            verdict = {key: [traceback.format_exc(limit=3)] for key in outputs}
        emit({"oracle": verdict, "oracle_s": time.perf_counter() - start})
    return 0


if __name__ == "__main__":
    sys.exit(main())

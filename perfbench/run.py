"""spinsim benchmark: time-to-answer end to end, per-module layers when traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload nmr_table --seed 1 --seconds 15 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

- ``nmr_table``: the 8 NMR search programs through ``spinsim grover``;
- ``allpairs_L20``: one ``symmetrized_step`` at L=20, all pairs, seeded;
- ``driven_chain_L16``: a seeded 16-spin driven chain through ``spinsim run``.

Each sample is one pass of the workload in a fresh interpreter
(worker.py), so a per-process cache is charged what a user pays. Workers
run one at a time, single-threaded, until ``--seconds`` of worker time has
passed and at least MIN_PASSES have run. The last stdout line is the result:

- ``--trace 0``: ``wall_s`` (median pass time of the timed operations),
  ``setup_s`` (median time from spawning a worker to its inputs being
  built, over at least SETUP_SAMPLES workers), ``peak_rss_mb`` (median
  worker peak RSS, read before any untimed check) and ``success_rate``
  (1 minus the error rate).
- ``--trace 1``: untraced and traced workers alternate; per-layer metrics
  are medians over traced workers, plus the tracing overhead.

Every operation is checked untimed (see checks.py), and the first worker's
outputs go through the slow oracle. An operation fails on a nonzero exit
code, an exception, a failed check, or output or kernel counts that differ
from another run of the same operation. The environment is printed as a
JSON line before the result and written, with every worker's record, to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "spinsim"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("nmr_table", "allpairs_L20", "driven_chain_L16")

#: End-to-end metrics reported with --trace 0, and their units.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}

#: Fewest passes a run takes the median of. An nmr_table pass is longer
#: than run_seconds, and contention from other tenants moves a single
#: Python-bound pass by 15-20%.
MIN_PASSES = 2
SETUP_SAMPLES = 5
#: Every worker must end this long after the run starts; the run then exits
#: well inside its 180 s limit.
DEADLINE_S = 165.0
#: BLAS and OpenMP pools capped at one thread: the load is one process, one thread.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    def __init__(self, reason: str, record: dict):
        super().__init__(reason)
        self.record = record


def run_worker(args, workdir, deadline, traced=False, oracle=False, probe=False) -> dict:
    """Run one worker to completion; returns its record with setup_s added."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), "--trace", str(int(traced)),
           "--oracle", str(int(oracle)), "--probe", str(int(probe))]
    env = {k: v for k, v in os.environ.items() if k != "SPINSIM_THREADS"}
    env.update(THREAD_CAPS)
    record = {"traced": traced, "ops": []}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        pending = b""
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise WorkerFailed("worker passed the run's deadline", record)
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            pending += chunk
            *lines, pending = pending.split(b"\n")
            for line in lines:
                if line.startswith(b"PERFBENCH "):
                    msg = json.loads(line[len(b"PERFBENCH "):])
                    if "ready" in msg:
                        record["setup_s"] = time.perf_counter() - start
                        record["planned_ops"] = msg["ready"]
                    elif "result" in msg:
                        record.update(msg["result"])
                        record["worker_s"] = time.perf_counter() - start
                    else:
                        record.update(msg)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}", record)
    if "setup_s" not in record or ("wall_s" not in record and not probe):
        raise WorkerFailed("worker ended without reporting", record)
    return record


def failed_worker(record: dict, reason: str) -> dict:
    """A worker that crashed: each operation it planned (at least one) failed."""
    planned = max(1, record.get("planned_ops", 1))
    return {"traced": record.get("traced", False), "crashed": reason,
            "ops": [{"key": f"op{i}", "problems": [reason]} for i in range(planned)]}


def apply_oracle(workers: list, verdict: dict) -> None:
    """Oracle problems of an operation fail every run whose output matched the checked one."""
    checked = {op["key"]: op.get("digest") for op in workers[0]["ops"]}
    for key, problems in verdict.items():
        if not problems:
            continue
        for worker in workers:
            for op in worker["ops"]:
                if op["key"] == key and op.get("digest") == checked.get(key):
                    op["problems"] = op["problems"] + [f"oracle: {p}" for p in problems]


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(workers: list) -> dict:
    first = next((w["env"] for w in workers if "env" in w), {})
    return {
        "git_sha": git_sha(),
        "source_sha256": source_fingerprint(),
        **first,
        "nproc": os.cpu_count(),
        "blas_threads": int(THREAD_CAPS["OPENBLAS_NUM_THREADS"]),
        "load": "one worker process at a time, single-threaded; SPINSIM_THREADS unset "
                "(it starts no thread)",
        "worker_threads": max((w.get("threads", 0) for w in workers), default=0),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "__init__.py").is_file():
        print(f"perfbench: no spinsim source at {SOURCE}", file=sys.stderr)
        return 2

    begin = time.perf_counter()
    deadline = begin + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    workers, setups, oracle_s = [], [], 0.0
    try:
        busy = 0.0
        while True:
            traced = bool(args.trace) and len(workers) % 2 == 1
            first = not workers
            try:
                record = run_worker(args, workdir, deadline, traced=traced, oracle=first)
            except WorkerFailed as err:
                workers.append(failed_worker(err.record, str(err)))
                break
            if first:
                oracle_s = record.get("oracle_s", 0.0)
            workers.append(record)
            setups.append(record["setup_s"])
            busy += record["worker_s"]
            if busy >= args.seconds and len(workers) >= MIN_PASSES:
                break
            if time.perf_counter() + record["worker_s"] + 10.0 > deadline:
                break
        while len(setups) < SETUP_SAMPLES and time.perf_counter() + 10.0 < deadline:
            try:
                setups.append(run_worker(args, workdir, deadline, probe=True)["setup_s"])
            except WorkerFailed as err:
                workers.append(failed_worker({}, f"set-up probe: {err}"))
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = [w for w in workers if "crashed" not in w]
    checks.check_repeats(ok)
    if ok and "oracle" in ok[0]:
        apply_oracle(ok, ok[0]["oracle"])
    attempted, failed = checks.tally(workers)
    plain = [w for w in ok if not w["traced"]]
    metrics = {}
    if args.trace:
        traced = [w for w in ok if w["traced"]]
        if traced:
            metrics = {name: metric(statistics.median(w["layers"][name] for w in traced), unit)
                       for name, unit in tracing.LAYER_UNITS.items() if name in traced[0]["layers"]}
            if plain:
                overhead = (statistics.median(w["wall_s"] for w in traced)
                            - statistics.median(w["wall_s"] for w in plain))
                metrics["trace.overhead_s"] = metric(overhead, "s")
    elif plain:
        values = {
            "wall_s": statistics.median(w["wall_s"] for w in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(w["rss_mb"] for w in plain),
            "success_rate": 1.0 - failed / attempted,
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    env = environment(ok)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "env": env, "setups_s": setups, "oracle_s": oracle_s,
               "run_s": time.perf_counter() - begin, "workers": workers}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    problems = [p for w in workers for op in w["ops"] for p in op["problems"]]
    for p in problems[:10]:
        print(f"perfbench: failed: {p}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

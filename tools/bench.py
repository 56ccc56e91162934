"""Benchmark trajectory: measure HEAD on a clean copy and write BENCH_<n>.json at the repo root.

Usage, from a git checkout:

    python3 tools/bench.py

It extracts HEAD with ``git archive`` into a temporary directory and, in
that copy:

- runs the unchanged ``perfbench/run.py --trace 0`` on every workload of
  BENCHMARK.json for each of SEEDS, BATCHES times, the workloads
  interleaved, at BENCHMARK.json's ``run_seconds``;
- measures the scale rows in a fresh process with BLAS capped at one
  thread: the time per in-place substep of a z chain with x drives, an
  xy chain with x drives and all pairs on x, y and z, and the time of one
  ``StateVector.observables()`` read, at each of SCALE_SIZES qubits;
- times the tier-1 suite.

The file holds HEAD's SHA (the copy has no ``.git``), the numpy version and
the CPU count; per workload and metric the median, quartiles, count and raw
values over every run; the scale rows summarized the same way; and the
tier-1 wall time. It then prints the change against the newest earlier
BENCH_<k>.json. A metric is marked outside its bound only where its median
is worse by more than BENCHMARK.json's bound (relative to the earlier
median) and the two interquartile ranges do not overlap. Scale rows and
the tier-1 time have no bound.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SEEDS = (1, 2, 3, 4, 5)
BATCHES = 2
SCALE_SIZES = (16, 18, 20, 22)
#: Substeps per timed in-place run and timed repeats per scale row.
SCALE_SUBSTEPS, SCALE_REPEATS = 4, 5
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def summary(values: list) -> dict:
    """Median, quartiles (inclusive method), count and the raw values."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "count": len(values), "values": values}


def parse_run(stdout: str) -> tuple:
    """(env, result) from the last two stdout lines of ``perfbench/run.py``."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"run.py printed {len(lines)} lines, expected an env line and a result line")
    env, result = json.loads(lines[-2]), json.loads(lines[-1])
    if "env" not in env or "metrics" not in result:
        raise ValueError(f"run.py's last two lines are not an env line and a result line: {lines[-2:]}")
    return env["env"], result


def aggregate(results: dict) -> dict:
    """Per workload, the run and correct-run counts and a ``summary`` of each metric over its runs."""
    out = {}
    for workload, runs in results.items():
        values: dict = {}
        for run in runs:
            for name, metric in run["metrics"].items():
                values.setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(metric["value"])
        out[workload] = {
            "runs": len(runs),
            "correct_runs": sum(bool(run["correct"]) for run in runs),
            "metrics": {name: {"unit": v["unit"], **summary(v["values"])} for name, v in values.items()},
        }
    return out


def outside_bound(old: dict, new: dict, better: str, bound: float) -> bool:
    """Whether ``new`` is worse than ``old`` by more than ``bound`` of old's median with no overlap of quartiles."""
    if better == "lower":
        return new["median"] > old["median"] * (1 + bound) and new["q1"] > old["q3"]
    return new["median"] < old["median"] * (1 - bound) and new["q3"] < old["q1"]


def bench_files(root: Path) -> dict:
    """The BENCH_<n>.json files in ``root`` by n."""
    files = {}
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            files[int(match.group(1))] = path
    return files


def newest(root: Path) -> Path | None:
    """The BENCH_<n>.json in ``root`` with the largest n, or None."""
    files = bench_files(root)
    return files[max(files)] if files else None


def _change(old: float, new: float) -> str:
    return f"{new / old - 1:+.1%}" if old else "n/a"


def compare(old: dict, new: dict, bounds: dict) -> list:
    """Lines that give each metric of ``new`` against ``old``; ``bounds`` maps a metric to (better, bound)."""
    lines = []
    for workload, entry in new["workloads"].items():
        before = old.get("workloads", {}).get(workload, {}).get("metrics", {})
        for name, metric in entry["metrics"].items():
            if name not in before:
                lines.append(f"{workload} {name}: {metric['median']:.4g} {metric['unit']} (no earlier value)")
                continue
            was, (better, bound) = before[name], bounds.get(name, (None, None))
            line = (f"{workload} {name}: {was['median']:.4g} -> {metric['median']:.4g} {metric['unit']} "
                    f"({_change(was['median'], metric['median'])}, " + (f"bound {bound:.0%})" if better else "no bound)"))
            if better and outside_bound(was, metric, better, bound):
                line += "  OUTSIDE BOUND: worse beyond the bound and the quartiles do not overlap"
            lines.append(line)
    for row, sizes in new.get("scale", {}).items():
        for size, metric in sizes.items():
            was = old.get("scale", {}).get(row, {}).get(size)
            if was:
                lines.append(f"scale {row} {size}: {was['median']:.4g} -> {metric['median']:.4g} s "
                             f"({_change(was['median'], metric['median'])}, no bound)")
    if "tier1_wall_s" in old:
        lines.append(f"tier-1 wall time: {old['tier1_wall_s']:.1f} -> {new['tier1_wall_s']:.1f} s "
                     f"({_change(old['tier1_wall_s'], new['tier1_wall_s'])}, no bound)")
    return lines


def scale_models(L: int, rng) -> dict:
    """The three scale-row models at L qubits, built with ``SpinModel``."""
    from spinsim.propagator import SpinModel

    z_chain, xy_chain, pairs = SpinModel(L), SpinModel(L), SpinModel(L)
    h0 = 1.0 + rng.uniform(0.0, 1.0, L)
    for j in range(1, L):
        z_chain.set_coupling(j, j + 1, "z", rng.uniform(-0.05, 0.05))
        for ax in "xy":
            xy_chain.set_coupling(j, j + 1, ax, rng.uniform(-0.05, 0.05))
    for j in range(1, L + 1):
        z_chain.set_static(j, "z", h0[j - 1])
        for chain in (z_chain, xy_chain):
            chain.set_rf(j, "x", rng.uniform(0.05, 0.15), h0[j - 1])
        for ax in "xyz":
            pairs.set_static(j, ax, rng.uniform(-1, 1))
            for k in range(j + 1, L + 1):
                pairs.set_coupling(j, k, ax, rng.uniform(-1, 1))
    return {"z_chain": z_chain, "xy_chain": xy_chain, "all_pairs": pairs}


def scale_rows() -> dict:
    """Seconds per in-place substep of each scale model, and per observables read, by L; run in its own process."""
    import numpy as np

    from spinsim.propagator import ElementaryOperation, StepPlan, evolve_eo
    from spinsim.state import StateVector

    rng, tau, rows = np.random.default_rng(0), 0.04, {}
    for L in SCALE_SIZES:
        amp = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
        state = StateVector(L, amp / np.linalg.norm(amp))
        for name, model in scale_models(L, rng).items():
            eo, times = ElementaryOperation(name, model, tau), []
            for _ in range(SCALE_REPEATS):
                start = time.perf_counter()
                evolve_eo(state, eo, 0.0, plan=StepPlan(SCALE_SUBSTEPS, tau))
                times.append((time.perf_counter() - start) / SCALE_SUBSTEPS)
            rows.setdefault(f"{name}.substep_s", {})[f"L{L}"] = summary(times)
        times = []
        for _ in range(SCALE_REPEATS):
            start = time.perf_counter()
            state.observables()
            times.append(time.perf_counter() - start)
        rows.setdefault("observables_s", {})[f"L{L}"] = summary(times)
    return rows


def archive_head(dest: Path) -> None:
    """Extract the committed tree of HEAD into the directory ``dest`` with ``git archive``."""
    archive = subprocess.run(["git", "archive", "--format=tar", "HEAD"], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def _run(cmd: list, cwd: Path, env: dict | None = None) -> str:
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {' '.join(map(str, cmd))} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
    sha = _run(["git", "rev-parse", "HEAD"], ROOT).strip()
    if _run(["git", "status", "--porcelain", "--untracked-files=no"], ROOT).strip():
        print("bench: the work tree has uncommitted changes; measuring HEAD as committed", file=sys.stderr)
    earlier = newest(ROOT)
    out = ROOT / f"BENCH_{max(bench_files(ROOT), default=0) + 1}.json"
    with tempfile.TemporaryDirectory(prefix="spinsim-bench-") as tmp:
        copy = Path(tmp)
        archive_head(copy)
        results, env = {w: [] for w in workloads}, None
        for batch in range(BATCHES):
            for seed in SEEDS:
                for workload in workloads:
                    print(f"bench: batch {batch + 1}/{BATCHES} seed {seed} {workload}", file=sys.stderr)
                    env_line, result = parse_run(_run(
                        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", "0"], copy))
                    env = env or env_line
                    results[workload].append(result)
        print("bench: scale rows", file=sys.stderr)
        capped = {**os.environ, **THREAD_CAPS, "PYTHONPATH": os.pathsep.join([str(copy / "src"), str(HERE)])}
        scale = json.loads(_run([sys.executable, "-c", "import bench, json; print(json.dumps(bench.scale_rows()))"],
                                copy, capped))
        print("bench: tier-1", file=sys.stderr)
        start = time.perf_counter()
        tier1 = subprocess.run([sys.executable, *TIER1], cwd=copy, capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": str(copy / "src")})
        tier1_s = time.perf_counter() - start
    record = {
        "sha": sha,
        "numpy": env["numpy"],
        "python": env["python"],
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "batches": BATCHES,
        "workloads": aggregate(results),
        "scale": scale,
        "scale_setup": {"substeps": SCALE_SUBSTEPS, "repeats": SCALE_REPEATS, "blas_threads": 1},
        "tier1_wall_s": round(tier1_s, 2),
        "tier1_result": (tier1.stdout.strip().splitlines() or ["no output"])[-1],
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"bench: wrote {out.name} for {sha}")
    if earlier is None:
        print("bench: no earlier BENCH_*.json to compare with")
    else:
        print(f"bench: change against {earlier.name}")
        for line in compare(json.loads(earlier.read_text()), record, bounds):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own checker, counters and tracer.

Run with ``python -m pytest perfbench``. The checker tests corrupt a real
result and require the corruption to be counted as a failed operation, so
the checks cannot be vacuous.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from spinsim import cli, propagator  # noqa: E402


def _record(key, problems, counters=None, digest="d"):
    return {"ops": [{"key": key, "problems": problems, "counters": counters or {}, "digest": digest}]}


@pytest.fixture(scope="module")
def nmr_run(tmp_path_factory):
    """One NMR search program run the way the nmr_table workload runs it."""
    table = workloads.NmrTable(0, tmp_path_factory.mktemp("nmr"))
    op = next(op for op in table.operations() if op.key == "grover-nmr-init21-item2")
    output = op.run(op.prepare())
    return op, output, table.workdir / f"{op.key}.csv"


def _rewrite_last_row(path, edit):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[-1].split(",")
    edit(header, row)
    lines[-1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def test_untouched_nmr_result_passes(nmr_run):
    op, output, _ = nmr_run
    assert op.check(output) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda h, r: r.__setitem__(h.index("q1"), repr(1.0 - float(r[h.index("q1")]))),
                     id="q1-flipped"),
        pytest.param(lambda h, r: r.__setitem__(h.index("norm"), "1.00001"), id="norm-drift"),
        pytest.param(None, id="row-dropped"),
    ],
)
def test_corrupted_nmr_result_counts_as_failure(nmr_run, corrupt):
    op, output, path = nmr_run
    original = path.read_text()
    try:
        if corrupt is None:
            path.write_text("\n".join(original.splitlines()[:-2] + original.splitlines()[-1:]) + "\n")
        else:
            _rewrite_last_row(path, corrupt)
        problems = op.check(output)
    finally:
        path.write_text(original)
    assert problems
    attempted, failed = checks.tally([_record(op.key, problems), _record(op.key, [])])
    assert (attempted, failed) == (2, 1)


def test_nonzero_exit_counts_as_failure(nmr_run):
    op, _, _ = nmr_run
    assert op.check((3, "spinsim: error: cannot write"))


def test_count_or_output_drift_between_runs_fails():
    counts = {"diagonal_sweeps": 5}
    workers = [_record("k", [], counts), _record("k", [], {"diagonal_sweeps": 6}),
               _record("k", [], counts, digest="other")]
    checks.check_repeats(workers)
    assert checks.tally(workers) == (3, 2)


def test_oracle_failure_fails_every_matching_run():
    workers = [_record("k", []), _record("k", []), _record("k", [], digest="other")]
    run.apply_oracle(workers, {"k": ["amplitudes vs evolve_eo: max deviation 1e-3"]})
    assert checks.tally(workers) == (3, 2)


def test_expected_samples_follows_the_sampling_rule():
    assert checks.expected_samples([100, 100], 4) == 51
    assert checks.expected_samples([1000], None) == 201  # stride 5
    assert checks.expected_samples([7], 3) == 4  # 3, 6 and the last substep


def test_counts_repeat_and_self_times_cover_the_trace(tmp_path):
    """Kernel counts of one operation repeat exactly; self times add up to the root span."""
    argv = ["grover", "--hardware", "ideal", "--item", "1", "--out", str(tmp_path / "t.csv")]
    snapshots = []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _ in range(2):
            propagator.counters.reset()
            with tracer.root("op"):
                assert workloads._cli(argv)[0] == 0
            snapshots.append(dict(vars(propagator.counters)))
    finally:
        tracer.uninstall()
    assert snapshots[0] == snapshots[1]
    assert snapshots[0]["gate_kernel_calls"] > 0
    layers = tracing.layer_metrics(tracer, snapshots[0], 2)
    assert layers["trace.self_time_coverage"] == pytest.approx(1.0, abs=1e-9)
    assert layers["propagator.substeps"] > 0 and layers["experiments.csv_bytes"] > 0
    assert {s["name"] for s in tracer.spans} >= {"cli.main", "run_grover", "run_sequence",
                                                   "evolve_eo", "write_trajectory_csv"}
    assert set(layers) | {"trace.overhead_s"} == set(tracing.LAYER_UNITS)
    assert not hasattr(cli.main, "__wrapped__")  # uninstall restored the originals


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)

"""Tests of tools/bench.py on canned perfbench/run.py output; the tool itself is not run here."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

ENV = {"env": {"git_sha": None, "numpy": "2.4.6", "python": "3.11.7", "nproc": 2}}


def run_lines(wall_s, rss_mb=37.0, correct=True, noise=()):
    """What run.py prints on stdout for one run: any earlier lines, the env line, then the result line."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"}, "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
               "success_rate": {"value": 1.0 if correct else 0.5, "unit": "ratio"}}
    result = {"correct": correct, "attempted": 16, "failed": 0 if correct else 8, "metrics": metrics}
    return "\n".join([*noise, json.dumps(ENV), json.dumps(result)]) + "\n"


def test_the_last_two_lines_are_parsed():
    env, result = bench.parse_run(run_lines(0.13, noise=["a warning", "{}"]))
    assert env["numpy"] == "2.4.6"
    assert result["metrics"]["wall_s"]["value"] == 0.13


@pytest.mark.parametrize("stdout", ["", json.dumps(ENV) + "\n", "{}\n{}\n"])
def test_output_without_an_env_and_a_result_line_is_refused(stdout):
    with pytest.raises(ValueError):
        bench.parse_run(stdout)


def test_aggregation_over_runs():
    walls = [0.15, 0.11, 0.13, 0.12, 0.14]
    runs = [bench.parse_run(run_lines(w, correct=i != 2))[1] for i, w in enumerate(walls)]
    entry = bench.aggregate({"nmr_table": runs})["nmr_table"]
    assert (entry["runs"], entry["correct_runs"]) == (5, 4)
    wall = entry["metrics"]["wall_s"]
    assert wall["values"] == walls and wall["count"] == 5 and wall["unit"] == "s"
    assert (wall["q1"], wall["median"], wall["q3"]) == pytest.approx((0.12, 0.13, 0.14))
    assert entry["metrics"]["success_rate"]["median"] == 1.0


def test_one_value_is_its_own_quartiles():
    assert bench.summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "count": 1, "values": [2.0]}


def metric(q1, median, q3):
    return {"q1": q1, "median": median, "q3": q3}


@pytest.mark.parametrize("old, new, better, outside", [
    (metric(0.10, 0.11, 0.12), metric(0.15, 0.16, 0.17), "lower", True),   # worse beyond 25%, apart
    (metric(0.10, 0.11, 0.16), metric(0.15, 0.16, 0.17), "lower", False),  # worse beyond 25%, overlapping
    (metric(0.10, 0.11, 0.12), metric(0.125, 0.13, 0.135), "lower", False),  # apart, within 25%
    (metric(0.15, 0.16, 0.17), metric(0.10, 0.11, 0.12), "lower", False),  # better
    (metric(0.99, 1.0, 1.0), metric(0.5, 0.6, 0.7), "higher", True),
    (metric(0.5, 0.6, 0.7), metric(0.99, 1.0, 1.0), "higher", False),
])
def test_the_bound_mark_needs_a_worse_median_and_apart_quartiles(old, new, better, outside):
    assert bench.outside_bound(old, new, better, 0.25) is outside


def test_compare_marks_only_what_is_outside_its_bound():
    def record(walls, rss):
        runs = [bench.parse_run(run_lines(w, r))[1] for w, r in zip(walls, rss)]
        return {"workloads": bench.aggregate({"allpairs_L20": runs}),
                "scale": {"observables_s": {"L16": bench.summary([1e-3])}}, "tier1_wall_s": 20.0}

    old = record([0.10, 0.10, 0.11], [78.0, 78.0, 78.0])
    new = record([0.20, 0.21, 0.22], [78.1, 78.2, 78.3])
    lines = bench.compare(old, new, {"wall_s": ("lower", 0.25), "peak_rss_mb": ("lower", 0.1)})
    marked = [line for line in lines if "OUTSIDE BOUND" in line]
    assert len(marked) == 1 and marked[0].startswith("allpairs_L20 wall_s: 0.1 -> 0.21 s (+110.0%")
    assert any(line.startswith("allpairs_L20 peak_rss_mb: 78 -> 78.2 MB") for line in lines)
    assert any(line.startswith("scale observables_s L16:") for line in lines)
    assert lines[-1].startswith("tier-1 wall time: 20.0 -> 20.0 s")


def test_the_newest_file_is_chosen_by_number(tmp_path):
    assert bench.newest(tmp_path) is None
    for name in ("BENCH_9.json", "BENCH_10.json", "BENCH_2.json", "BENCH_x.json", "BENCH_11.json.bak"):
        (tmp_path / name).write_text("{}")
    assert bench.newest(tmp_path).name == "BENCH_10.json"
    assert sorted(bench.bench_files(tmp_path)) == [2, 9, 10]

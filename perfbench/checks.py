"""Correctness checks the benchmark applies, untimed, to every operation.

Each check returns a list of problems; an operation with any problem counts
as failed. The functions read plain files and numbers, so a test can feed
them a corrupted result directly.
"""

from __future__ import annotations

import csv
import math

#: Largest |norm - 1| allowed in any trajectory row.
CSV_NORM_DRIFT = 1e-9
#: Largest |norm - 1| allowed after one L=20 step.
STEP_NORM_DRIFT = 1e-10
#: symmetrized_step and evolve_eo with one substep apply the same five
#: factors; they agree to about 1e-17 per amplitude, summed in another order.
STEP_PATH_AGREEMENT = 1e-12
#: The driven chain's final Q at 100 substeps per instruction differs from
#: the run at 200 by about 2e-4 (second-order error); a wrong answer is off
#: by order 0.1.
CHAIN_Q_AGREEMENT = 1e-3


def read_trajectory(path):
    """Header and rows of a trajectory CSV, rows as floats."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def final_q(path) -> list:
    """Q_1..Q_L of the last trajectory row."""
    header, rows = read_trajectory(path)
    qcols = [i for i, name in enumerate(header) if name.startswith("q")]
    return [rows[-1][i] for i in qcols]


def expected_samples(substeps, sample_every=None) -> int:
    """Rows run_sequence promises for these per-operation substep counts.

    The initial point, every ``sample_every``-th substep of each operation
    (about 200 per operation when None) and each operation's last substep.
    """
    rows = 1
    for m in substeps:
        stride = sample_every if sample_every is not None else max(1, round(m / 200))
        rows += m // stride + (1 if m % stride else 0)
    return rows


def check_trajectory(path, expected_rows: int) -> list:
    """Row count and norm drift of a trajectory CSV."""
    try:
        header, rows = read_trajectory(path)
    except (OSError, ValueError, StopIteration) as err:
        return [f"unreadable trajectory {path}: {err}"]
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} trajectory rows, expected {expected_rows}")
    norm_col = header.index("norm")
    drift = max((abs(row[norm_col] - 1.0) for row in rows), default=math.inf)
    if not drift < CSV_NORM_DRIFT:
        problems.append(f"norm drift {drift:.3e} exceeds {CSV_NORM_DRIFT:g}")
    return problems


def check_close(what: str, got, want, tol: float) -> list:
    """Every |got - want| must be within tol (NaN fails)."""
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, expected {len(want)}"]
    worst = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
    if not worst <= tol:
        return [f"{what}: max deviation {worst:.3e} exceeds {tol:g}"]
    return []


def check_norm(norm: float, tol: float) -> list:
    drift = abs(norm - 1.0)
    return [] if drift < tol else [f"norm drift {drift:.3e} exceeds {tol:g}"]


def check_repeats(workers: list) -> None:
    """Flag operations whose output digest or kernel counts differ between workers.

    The same operation on the same seed must give bitwise-identical output
    and exactly the same counts in every fresh process, traced or not;
    drift means nondeterminism, not noise. Appends to each op's problems.
    """
    first: dict = {}
    for worker in workers:
        for op in worker["ops"]:
            if op["problems"]:
                continue
            ref = first.setdefault(op["key"], op)
            if op["digest"] != ref["digest"]:
                op["problems"].append("output differs from the first run of this operation")
            if op["counters"] != ref["counters"]:
                op["problems"].append(
                    f"kernel counts {op['counters']} differ from {ref['counters']}"
                )


def tally(workers: list) -> tuple:
    """(attempted, failed) over every operation of every worker."""
    attempted = failed = 0
    for worker in workers:
        for op in worker["ops"]:
            attempted += 1
            failed += bool(op["problems"])
    return attempted, failed

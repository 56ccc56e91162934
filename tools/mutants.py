"""Mutation score of the test suite: run ``tests/`` against each source mutant of MUTANTS.

Usage, from a git checkout:

    python3 tools/mutants.py

It first runs the tests on a clean ``git archive`` copy of HEAD and stops if
they fail, since a failing suite would kill every mutant. Then, for each
entry of MUTANTS, it extracts a fresh copy of HEAD, replaces the entry's
source text, which must occur exactly once in its file, and runs
``python -m pytest -x -q tests`` there with ``PYTHONPATH=src`` and BLAS capped
at one thread. Each entry is printed as killed (the tests fail), survived
(they pass) or stale (its text does not occur exactly once, so nothing ran),
with its time; then the score, killed over all entries. A stale entry counts
against the score and makes the command exit 1; survivors are test gaps and
only lower the score. A pass over the list takes about 5 minutes on 2 cores.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import bench

TESTS = ["-m", "pytest", "-x", "-q", "tests"]


class Mutant(NamedTuple):
    path: str
    text: str
    replacement: str
    note: str


PROPAGATOR, STATE, PULSES = "src/spinsim/propagator.py", "src/spinsim/state.py", "src/spinsim/pulses.py"

# Left out: ``signs[:lo, : 1 << lo]`` changed to ``signs[:lo, -(1 << lo):]`` in
# ``observables_of`` is an equivalent mutant. Bit b < lo repeats with period
# 2^(b+1), which divides 2^lo, so both slices hold the same signs. So is
# moving ``_segment_products``' padding identity to another place inside the
# odd run it pads (its start, or before its last matrix): every product stays
# the same up to rounding, so only a pad that lands in the next run is listed.
MUTANTS = [
    Mutant(PROPAGATOR, "key = (plan, sample_every) if", "key = plan if",
           "kept pieces keyed by the plan alone"),
    Mutant(PROPAGATOR, "if sampled < at.size and n == at[sampled]:", "if sampled < at.size - 1 and n == at[sampled]:",
           "the in-place path drops its last sample"),
    Mutant(PROPAGATOR, "return np.append(np.arange(1, (m - 1) // k + 1, dtype=np.int64) * k, m)",
           "return np.arange(1, (m - 1) // k + 1, dtype=np.int64) * k", "a sample grid without m"),
    Mutant(PROPAGATOR, "if sample_every is not None and sample_every < 1:",
           "if sample_every is not None and sample_every < 0:", "a stride of 0 accepted"),
    Mutant(PROPAGATOR, "        view *= row[:, None]\n        view *= col\n", "        view *= row[:, None]\n",
           "_multiply drops the column factor"),
    Mutant(PROPAGATOR, "tile[n:] *= table[::-1]", "tile[n:] *= table",
           "_multiply's upper half of a tile takes the table unreversed"),
    Mutant(PROPAGATOR, "0.5 * coupling[:lo - 1, lo - 1])", "-0.5 * coupling[:lo - 1, lo - 1])",
           "_multiplier's table takes the top low spin down"),
    Mutant(PROPAGATOR, "@ coupling[lo:, :lo] + field[:lo]", "@ coupling[lo:, :lo]",
           "_multiplier leaves the low fields out of the cross fields"),
    Mutant(STATE, "np.vecdot(view[..., 0, :], view[..., 1, :])", "np.vecdot(view[..., 1, :], view[..., 0, :])",
           "<a1|a0> for <a0|a1> in observables_of, for the qubits read from amp and from the blocks"),
    Mutant(STATE, "else [s + p for s, p in zip(acc, part)]", "else part",
           "observables_of keeps the last block's partial sums only"),
    Mutant(STATE, "_cross(flat, j + r)", "_cross(flat, j + hi)",
           "observables_of splits a transposed block on the whole grid's bit offset"),
    Mutant(STATE, "if abs(nrm - 1.0) > 1e-9:", "if abs(nrm - 1.0) > 1e-3:", "StateVector's norm tolerance 1e-3"),
    Mutant(STATE, 'raise ValueError("amplitudes must be finite")\n                raise ValueError(f"state norm is not '
           'finite: |amp| = {nrm!r}")', 'raise ValueError(f"state norm is not finite: |amp| = {nrm!r}")\n'
           '                raise ValueError("amplitudes must be finite")', "StateVector's two non-finite messages swapped"),
    Mutant(PROPAGATOR, "blk = (g[..., q, :, None, :, None] * blk[..., None, :, None, :])",
           "blk = (blk[..., :, None, :, None] * g[..., q, None, :, None, :])", "Kronecker factors in the wrong order"),
    Mutant(PROPAGATOR, '_ORDER = ((2, 0.5), "Rx+", (1, 0.5), "Rx", "Ry+", (0, 1.0), "Ry", "Rx+", (1, 0.5), "Rx", '
           '(2, 0.5))', '_ORDER = ((2, 1.0), "Rx+", (1, 0.5), "Rx", "Ry+", (0, 1.0), "Ry", "Rx+", (1, 0.5), "Rx")',
           "the factor order loses its symmetry: both z halves first"),
    Mutant(PROPAGATOR, "np.exp(1j * np.stack([phases, -phases], -1))", "np.exp(1j * np.stack([-phases, phases], -1))",
           "_scale_rows' phases flipped in sign"),
    Mutant(PROPAGATOR, "e[0] = np.exp(-0.5j * field[j])", "e[0] = np.exp(0.5j * field[j])",
           "the field phase sign flipped"),
    Mutant(PROPAGATOR, "_ROUNDING = 1e-14", "_ROUNDING = 1e-6", "_split drops imaginary parts up to 1e-6"),
    Mutant(PROPAGATOR, "(np.where(fits, x[0], x[1]) for x in", "(x[1] for x in", "_split never keeps the targets"),
    Mutant(PROPAGATOR, "(np.where(fits, x[0], x[1]) for x in", "(x[0] for x in",
           "_split never takes the gate's own phases"),
    Mutant(PROPAGATOR, "-s * q, s * p", "-q, p", "_split drops the reflection sign"),
    Mutant(PROPAGATOR, "            tile[...] = src\n", "            pass\n",
           "no copy-back after an odd number of blocks"),
    Mutant(PROPAGATOR, "np.linalg.matrix_power(carry, int(power))", "np.linalg.matrix_power(carry, int(power) - 1)",
           "the period rule lifts by U^(q-1)"),
    Mutant(PROPAGATOR, "    if plan.tau != eo.tau:\n", "    if False:\n", "no plan/duration check"),
    Mutant(PROPAGATOR, "if isinstance(factor, str) and pending and pending[-1] == _INVERSE[factor]:",
           "if False:", "adjacent inverse turns are kept, not cancelled"),
    Mutant(PROPAGATOR, "if np.count_nonzero(active) <= 1 and not np.any(model.rf_amp):",
           "if np.count_nonzero(active) <= 1:", "the planner gives a driven one-axis operation one substep"),
    Mutant(PROPAGATOR, "    if j_scale > 0.0:\n", "    if False:\n", "the planner ignores the coupling bound"),
    Mutant(PROPAGATOR, "thetas[a] = theta + (thetas[a] if self.gaps[-1] == a else 0.0)", "thetas[a] = theta",
           "an axis's multiplier met again in one gap replaces the earlier one, not merges with it"),
    Mutant(PROPAGATOR, "held.setdefault(a, need)", "need",
           "_fold's passes target phases that no multiplier holds"),
    Mutant(PROPAGATOR, "not math.isfinite(end * facts.top):", "not math.isfinite(facts.top):",
           "the run check drops its drive-phase bound"),
    Mutant(PROPAGATOR, "np.insert(steps, np.cumsum(lengths)[odd], eye, axis=0)",
           "np.insert(steps, np.cumsum(lengths)[odd] + 1, eye, axis=0)",
           "_segment_products pads an odd run one matrix late, inside the next run"),
    Mutant(PROPAGATOR, "            chunks[i] = out\n        lo += size.bit_length() - 1\n", "            chunks[i] = out\n",
           "_tiled applies every block above the tile at the tile's bit offset"),
    Mutant(STATE, "for j in range(1, n + 1)]).T", "for j in range(n, 0, -1)]).T",
           "_spins lists the qubits in reverse order"),
    Mutant(PROPAGATOR, "np.bincount([item[0] for item in _ORDER", "np.bincount([2 - item[0] for item in _ORDER",
           "the visits per axis counted from the reversed axis column of _ORDER"),
    Mutant(STATE, 'AXES = ("x", "y", "z")', 'AXES = ("x", "z", "y")', "the axis labels out of index order"),
    Mutant(PULSES, "ITEMS = (0, 1, 2, 3)", "ITEMS = (0, 1, 2)", "item 3 left out of the items"),
    Mutant(PULSES, 'INIT_ORDERS = ("12", "21")', 'INIT_ORDERS = ("12",)', "init order 21 left out of the init orders"),
]


def apply(root: Path, mutant: Mutant) -> bool:
    """Replace the mutant's text in its file under ``root``; False, changing nothing, unless it occurs exactly once."""
    path = root / mutant.path
    source = path.read_text() if path.is_file() else ""
    if source.count(mutant.text) != 1:
        return False
    path.write_text(source.replace(mutant.text, mutant.replacement))
    return True


def classify(applied: bool, returncode: int | None) -> str:
    """Stale when not applied; else killed or survived by pytest's exit code, which must be 0, 1 or 2."""
    if not applied:
        return "stale"
    if returncode not in (0, 1, 2):  # 2: a collection error, which the mutant caused
        raise SystemExit(f"mutants: pytest exited {returncode}, so the tests did not run")
    return "survived" if returncode == 0 else "killed"


def score(outcomes: list) -> str:
    """The score line: killed over all entries, with the survived and stale counts."""
    killed = outcomes.count("killed")
    return (f"score: {killed}/{len(outcomes)} killed ({killed / max(1, len(outcomes)):.0%}), "
            f"{outcomes.count('survived')} survived, {outcomes.count('stale')} stale")


def run_tests(copy: Path) -> int:
    """pytest's exit code for ``tests/`` in ``copy``, stopping at the first failure."""
    env = {**os.environ, **bench.THREAD_CAPS, "PYTHONPATH": str(copy / "src")}
    return subprocess.run([sys.executable, *TESTS], cwd=copy, env=env, capture_output=True).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="spinsim-mutants-") as tmp:
        bench.archive_head(Path(tmp))
        if run_tests(Path(tmp)) != 0:
            raise SystemExit("mutants: the tests fail on HEAD itself, so every mutant would count as killed")
    outcomes = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="spinsim-mutant-") as tmp:
            copy = Path(tmp)
            bench.archive_head(copy)
            applied = apply(copy, mutant)
            outcomes.append(classify(applied, run_tests(copy) if applied else None))
        print(f"{outcomes[-1]:8} {time.perf_counter() - start:6.1f} s  {mutant.path}: {mutant.note}", flush=True)
    print(score(outcomes))
    return 1 if "stale" in outcomes else 0


if __name__ == "__main__":
    sys.exit(main())

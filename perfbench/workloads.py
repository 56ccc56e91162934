"""The benchmark's workloads: seeded inputs, timed operations and their checks.

A workload builds its inputs when constructed; that is set-up. Each
operation's ``run`` is the only timed part: ``prepare`` (copying an input)
and ``check`` run outside the timer. ``oracle`` is the slow independent
verification, run once per benchmark run on the first worker's outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from spinsim import cli, experiments, propagator, pulses
from spinsim.propagator import ElementaryOperation, SpinModel, StepPlan
from spinsim.state import StateVector

import checks


@dataclass
class Operation:
    key: str
    run: Callable  # run(prepared) -> output, timed
    check: Callable  # check(output) -> problems
    digest: Callable  # digest(output) -> str, equal across repeats
    prepare: Callable = field(default=lambda: None)


def _cli(argv):
    """spinsim.cli.main with its printout captured; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _exit_problems(output) -> list:
    code, err = output
    return [] if code == 0 else [f"exit code {code}: {err.strip()}"]


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class NmrTable:
    """All 8 NMR search programs at the auto plan, each through the CLI with a CSV."""

    L = 2
    PROGRAMS = [(init, item) for init in ("12", "21") for item in range(4)]

    def __init__(self, seed: int, workdir):
        # the NMR presets are fixed by the paper; the seed changes nothing
        self.workdir = workdir

    def operations(self):
        for init, item in self.PROGRAMS:
            key = f"grover-nmr-init{init}-item{item}"
            path = self.workdir / f"{key}.csv"
            argv = ["grover", "--hardware", "nmr", "--item", str(item), "--init", init, "--out", str(path)]
            yield Operation(
                key=key,
                run=lambda _, argv=argv: _cli(argv),
                check=lambda out, init=init, item=item, path=path: self.check(out, init, item, path),
                digest=lambda out, path=path: _file_digest(path),
            )

    @staticmethod
    def check(output, init: str, item: int, path) -> list:
        problems = _exit_problems(output)
        if problems:
            return problems
        seq = pulses.grover_program(item, pulses.make_profile("nmr"), init).seq
        rows = checks.expected_samples(propagator.auto_substeps(eo).m for eo in seq.eos if eo.tau > 0)
        problems = checks.check_trajectory(path, rows)
        ref = experiments.REFERENCE_Q[("nmr", init, item)]
        return problems + checks.check_close(
            "final (Q1, Q2) vs published", checks.final_q(path), ref, experiments.Q_TOLERANCE
        )

    def oracle(self, outputs) -> dict:
        return {}  # every operation is already checked against the published table


def all_pairs_model(L: int, rng) -> SpinModel:
    """Every pair coupled and every qubit fielded on x, y and z (acceptance 7)."""
    model = SpinModel(L)
    for ax in "xyz":
        for j in range(1, L + 1):
            for k in range(j + 1, L + 1):
                model.set_coupling(j, k, ax, rng.uniform(-1, 1))
        for j in range(1, L + 1):
            model.set_static(j, ax, rng.uniform(-1, 1))
    return model


def random_state(L: int, rng) -> StateVector:
    amp = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    amp /= np.linalg.norm(amp)
    return StateVector(L, amp)


class AllPairsL20:
    """One symmetrized_step at L=20 with all 190 pairs on x, y and z."""

    L = 20
    DELTA = 0.01

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.model = all_pairs_model(self.L, rng)
        self.state = random_state(self.L, rng)

    def operations(self):
        yield Operation(
            key="symmetrized-step-L20",
            prepare=self.state.copy,
            run=lambda state: propagator.symmetrized_step(state, self.model, self.DELTA, 0.0),
            check=lambda state: checks.check_norm(state.norm(), checks.STEP_NORM_DRIFT),
            digest=lambda state: hashlib.sha256(state.amp.tobytes()).hexdigest(),
        )

    def oracle(self, outputs) -> dict:
        """The same step through evolve_eo with one substep, the other integrator path."""
        (key, state), = outputs.items()
        other = self.state.copy()
        eo = ElementaryOperation("step", self.model, self.DELTA)
        propagator.evolve_eo(other, eo, 0.0, plan=StepPlan(1, self.DELTA))
        diff = np.abs(state.amp - other.amp)
        return {key: checks.check_close("amplitudes vs evolve_eo", [float(diff.max())], [0.0],
                                        checks.STEP_PATH_AGREEMENT)}


def driven_chain_config(seed: int, L: int, steps: int, sample_every: int) -> str:
    """Config text: an open chain with J z neighbours, distinct h0 z, resonant drives on x then y."""
    rng = np.random.default_rng(seed)
    h0 = 1.0 + (rng.permutation(L) + rng.uniform(0.1, 0.9, L)) / L  # distinct, in (1, 2)
    coupling = rng.uniform(-0.05, 0.05, L - 1)
    h1 = rng.uniform(0.05, 0.15, L)
    bits = "".join(str(b) for b in rng.integers(0, 2, L))
    lines = [f"L = {L}", ""]
    for name, ax in (("DX", "x"), ("DY", "y")):
        lines += [f"[eo {name}]", "tau_over_2pi = 2.5"]
        lines += [f"J z {j + 1} {j + 2} = {float(coupling[j])!r}" for j in range(L - 1)]
        lines += [f"h0 z {j + 1} = {float(h0[j])!r}" for j in range(L)]
        for j in range(L):
            lines += [f"h1 {ax} {j + 1} = {float(h1[j])!r}", f"f {ax} {j + 1} = {float(h0[j])!r}"]
        lines.append("")
    lines += [
        "[sequence chain]", "eos = DX, DY", "",
        "[run]", f"state = {bits}", "sequence = chain",
        f"sample_every = {sample_every}", f"steps = {steps}", "",
    ]
    return "\n".join(lines)


class DrivenChainL16:
    """A seeded 16-spin driven chain run from config text through the CLI."""

    L = 16
    STEPS = 100  # fixed, so the work does not depend on the step planner
    SAMPLE_EVERY = 4
    INSTRUCTIONS = 2

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.config = workdir / "chain.cfg"
        self.config.write_text(driven_chain_config(seed, self.L, self.STEPS, self.SAMPLE_EVERY))
        self.csv = workdir / "chain.csv"

    def operations(self):
        argv = ["run", "--config", str(self.config), "--out", str(self.csv)]
        yield Operation(
            key="run-chain-L16",
            run=lambda _: _cli(argv),
            check=self.check,
            digest=lambda out: _file_digest(self.csv),
        )

    def check(self, output) -> list:
        problems = _exit_problems(output)
        if problems:
            return problems
        rows = checks.expected_samples([self.STEPS] * self.INSTRUCTIONS, self.SAMPLE_EVERY)
        return checks.check_trajectory(self.csv, rows)

    def oracle(self, outputs) -> dict:
        """Final Q against an untimed run at double the substeps, sampling only the boundaries."""
        (key, _), = outputs.items()
        fine_cfg = self.workdir / "chain-fine.cfg"
        fine_csv = self.workdir / "chain-fine.csv"
        fine_cfg.write_text(driven_chain_config(self.seed, self.L, 2 * self.STEPS, 10**9))
        problems = _exit_problems(_cli(["run", "--config", str(fine_cfg), "--out", str(fine_csv)]))
        if not problems:
            problems = checks.check_close(
                "final Q vs double substeps", checks.final_q(self.csv), checks.final_q(fine_csv),
                checks.CHAIN_Q_AGREEMENT,
            )
        return {key: problems}


WORKLOADS = {
    "nmr_table": NmrTable,
    "allpairs_L20": AllPairsL20,
    "driven_chain_L16": DrivenChainL16,
}

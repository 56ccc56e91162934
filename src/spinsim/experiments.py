"""Preset experiments, reports, trajectory CSV emission and self-tests.

The endpoint references for the bundled hardware presets are embedded as
constants keyed by (hardware, init order, item); reports print the measured
values next to them and flag any entry deviating by more than Q_TOLERANCE.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .propagator import TWO_PI, StepPlan, Trajectory, evolve_eo, run_sequence
from .pulses import grover_program, make_profile
from .reference import (
    dense_propagator,
    global_phase_between,
    grover_iterate_check,
    hamiltonian,
    matrix_of_sequence,
)
from .state import StateVector, new_basis_state

#: Tolerance for flagging deviations from the reference endpoints.
Q_TOLERANCE = 0.03

#: Published final qubit values for the bundled presets, keyed by
#: (hardware, init order, item). Ideal endpoints are exact bit patterns.
REFERENCE_Q = {
    ("ideal", "12", 0): (0.0, 0.0),
    ("ideal", "12", 1): (1.0, 0.0),
    ("ideal", "12", 2): (0.0, 1.0),
    ("ideal", "12", 3): (1.0, 1.0),
    ("ideal", "21", 0): (0.0, 0.0),
    ("ideal", "21", 1): (1.0, 0.0),
    ("ideal", "21", 2): (0.0, 1.0),
    ("ideal", "21", 3): (1.0, 1.0),
    ("nmr", "12", 0): (0.028, 0.163),
    ("nmr", "12", 1): (0.966, 0.171),
    ("nmr", "12", 2): (0.037, 0.836),
    ("nmr", "12", 3): (0.955, 0.830),
    ("nmr", "21", 0): (0.955, 0.031),
    ("nmr", "21", 1): (0.041, 0.026),
    ("nmr", "21", 2): (0.971, 0.971),
    ("nmr", "21", 3): (0.027, 0.972),
}


@dataclass
class RunReport:
    """Everything one run produced; its plans and error estimates are those of ``samples``."""

    title: str
    q: tuple
    norm: float
    wall_time: float
    samples: Trajectory
    final_state: StateVector
    reference: tuple | None = None
    deviations: tuple | None = None
    flagged: bool = False
    tol: float | None = None

    @property
    def estimates(self) -> list | None:
        return self.samples.estimates

    @property
    def substeps(self) -> int:
        return int(self.samples.step[-1])  # the global substep count of the final sample

    @property
    def converged(self) -> bool:
        """Whether every operation's estimate is under ``tol``; True without a tolerance."""
        return self.estimates is None or all(e < self.tol for e in self.estimates)

    def lines(self) -> list:
        out = [
            self.title,
            f"  operations {len(self.samples.plans)}, substeps {self.substeps}, samples {len(self.samples)}",
            "  final " + "   ".join(f"Q{j} = {q if round(q, 6) else 0.0:.6f}" for j, q in enumerate(self.q, 1)),
            f"  norm deviation = {abs(self.norm - 1.0):.3e}",
            f"  wall time = {self.wall_time:.3f} s",
        ]
        if self.reference is not None:
            status = "FLAG: outside tolerance" if self.flagged else "ok"
            ref = "  ".join(f"Q{j} = {r:.3f}" for j, r in enumerate(self.reference, 1))
            dq = "  ".join(f"dQ{j} = {d:.4f}" for j, d in enumerate(self.deviations, 1))
            out += [f"  reference: {ref}", f"  deviation {dq}  [{status}, tol {Q_TOLERANCE}]"]
        if self.estimates is not None:
            out += [f"  operation {i:2d}: m = {p.m}, error estimate = {e:.3e}"
                    for i, (p, e) in enumerate(zip(self.samples.plans, self.estimates), 1)]
            verdict = "every operation under" if self.converged else "NOT every operation under"
            out.append(f"  error estimate = {sum(self.estimates):.3e} (sum); {verdict} tol {self.tol:g}")
        return out


def run_report(
    title: str,
    state: StateVector,
    seq,
    steps="auto",
    sample_every: int | None = None,
    tol: float | None = None,
) -> RunReport:
    """Run ``seq`` from ``state`` and report its final readouts and trajectory.

    ``steps`` is "auto" or an absolute per-operation substep count;
    ``sample_every`` and ``tol`` are those of ``run_sequence``, whose doubling
    trials count in the wall time. ``state`` is not modified.
    """
    plans = None if steps == "auto" else [StepPlan(int(steps), eo.tau) for eo in seq.eos]
    start = time.perf_counter()
    final, samples = run_sequence(state, seq, sample_every, plans, tol)
    wall = time.perf_counter() - start
    q, norm = samples.obs.q[-1], samples.obs.norm[-1]  # the last sample is the final state
    return RunReport(title, tuple(float(qj) for qj in q), float(norm), wall, samples, final, tol=tol)


def run_grover(
    hardware: str,
    item: int,
    init_order: str = "12",
    steps="auto",
    sample_every: int | None = None,
    rotating_frame: bool = False,
    tol: float | None = None,
) -> RunReport:
    """Run one search preset and compare its readouts with the published ones.

    ``steps``, ``sample_every`` and ``tol`` are those of ``run_report``. With
    ``rotating_frame`` the sampled transverse expectations are reported in
    the frame co-rotating at each spin's static z field (z components and
    qubit values are frame independent).
    """
    profile = make_profile(hardware)
    prog = grover_program(item, profile, init_order)
    title = f"grover search: hardware={hardware} item={item} init={init_order}"
    report = run_report(title, new_basis_state(2, [0, 0]), prog.seq, steps, sample_every, tol)
    if rotating_frame:
        omega = [float(profile.eo("Ipi").model.static_field[j, 2]) for j in range(2)]
        _rotate_samples(report.samples, omega)
    ref = REFERENCE_Q.get((hardware, init_order, item))
    if ref is not None:
        report.reference = ref
        report.deviations = tuple(abs(q - r) for q, r in zip(report.q, ref))
        report.flagged = max(report.deviations) > Q_TOLERANCE
    return report


def _rotate_samples(samples: Trajectory, omega) -> None:
    """Replace sampled sx/sy with their rotating-frame values.

    Sampling keeps observables rather than states, so the rotating-frame view
    is reconstructed analytically: the transverse expectation pair (sx, sy)
    rotates rigidly at each spin's static z frequency, while sz and the qubit
    values are frame independent.
    """
    obs = samples.obs
    angle = np.multiply.outer(obs.t, omega)
    c, s = np.cos(angle), np.sin(angle)
    # the lab vector precesses clockwise under a +z static field, so the
    # co-rotating view turns it back counterclockwise
    obs.sx, obs.sy = c * obs.sx - s * obs.sy, s * obs.sx + c * obs.sy


def write_trajectory_csv(path, samples: Trajectory) -> None:
    """CSV schema: step,t,norm,sx1,sy1,sz1,q1,...,sxL,syL,szL,qL,eo_index.

    Values carry 12 significant digits; identical inputs produce byte
    identical files.
    """
    o = samples.obs
    L = o.sx.shape[1]
    header = "step,t,norm," + "".join(f"sx{j},sy{j},sz{j},q{j}," for j in range(1, L + 1)) + "eo_index"
    per_qubit = np.stack([o.sx, o.sy, o.sz, o.q], axis=-1).reshape(len(samples), 4 * L)
    table = np.column_stack([samples.step, o.t, o.norm, per_qubit, samples.eo_index])
    row = ",".join(["%d"] + ["%.12g"] * (4 * L + 2) + ["%d"]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for block in np.split(table, range(512, len(table), 512)):  # the bytes of np.savetxt, a block at a time
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check_conjugation(n_models: int = 100) -> CheckResult:
    """One-axis steps of the step program vs dense exponentials of H_x, H_y, H_z.

    A model confined to one axis is integrated exactly by one step at its
    midpoint, because its factors commute. The x and y steps run through the
    quarter-turns, so this checks Rx Sz Rx+ = Sy and Ry Sz Ry+ = Sx with the
    compile rule and the coupling multipliers, five doubling levels deep at L = 5.
    """
    from .propagator import _ARRAYS, SpinModel, symmetrized_step

    rng = np.random.default_rng(2024)
    worst = 0.0
    for L in [2] * n_models + [5] * (n_models // 5):
        m = SpinModel(L)
        for ax in "xyz":
            for j in range(1, L + 1):
                for k in range(j + 1, L + 1):
                    m.set_coupling(j, k, ax, rng.uniform(-1, 1))
                m.set_static(j, ax, rng.uniform(-1, 1))
                m.set_rf(j, ax, rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.0), rng.uniform(0, TWO_PI))
        delta, t_mid = rng.uniform(0.05, 0.5), rng.uniform(0.0, 10.0)
        starts = np.eye(4) if L == 2 else [[1, 1j] @ rng.normal(size=(2, 32))]
        for a in range(3):
            axis_only = SpinModel(L)
            for name in _ARRAYS:
                getattr(axis_only, name)[..., a] = getattr(m, name)[..., a]
            w, v = np.linalg.eigh(hamiltonian(axis_only, t_mid))
            exact = v @ np.diag(np.exp(-1j * delta * w)) @ v.conj().T
            for psi in starts:
                psi = psi / np.linalg.norm(psi)
                s = symmetrized_step(StateVector(L, psi), axis_only, delta, t_mid - delta / 2)
                worst = max(worst, float(np.max(np.abs(s.amp - exact @ psi))))
    return CheckResult(
        "conjugation identity",
        worst < 1e-12,
        f"max deviation {worst:.3e} over {n_models} two-qubit and {n_models // 5} five-qubit models (tol 1e-12)",
    )


def _check_convergence_order() -> CheckResult:
    """Global l2 error vs the dense oracle drops ~4x per substep doubling."""
    profile = make_profile("nmr")
    eo = profile.eo("X1")
    u = dense_propagator(eo.model, 0.0, eo.tau, tol=3e-9)
    rng = np.random.default_rng(7)
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    amp /= np.linalg.norm(amp)
    psi0 = StateVector(2, amp)
    exact = u @ psi0.amp
    errors = []
    for m in (80, 160, 320, 640, 1280):
        s = psi0.copy()
        evolve_eo(s, eo, 0.0, plan=StepPlan(m, eo.tau))
        errors.append(float(np.linalg.norm(s.amp - exact)))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = all(3.3 < r < 4.7 for r in ratios)
    return CheckResult(
        "second-order convergence",
        ok,
        "error ratios per halving: " + ", ".join(f"{r:.2f}" for r in ratios) + " (band 3.3..4.7)",
    )


def _check_shortening() -> CheckResult:
    from .pulses import full_search_product, sequence_from_product, shortened_search_product

    profile = make_profile("ideal")
    worst = 0.0
    phases_ok = True
    for item in range(4):
        short = matrix_of_sequence(sequence_from_product(profile, shortened_search_product(item)))
        full = matrix_of_sequence(sequence_from_product(profile, full_search_product(item)))
        phase = global_phase_between(short, full, atol=1e-10)
        worst = max(worst, float(np.max(np.abs(short - phase * full))))
        expected = -1.0 if item in (1, 2) else 1.0
        if abs(phase - expected) > 1e-12:
            phases_ok = False
    return CheckResult(
        "shortening identities",
        worst < 1e-12 and phases_ok,
        f"max column deviation {worst:.3e}; relative signs as expected: {phases_ok}",
    )


def _check_iteration_pattern() -> CheckResult:
    bad = [item for item in range(4) if not grover_iterate_check(item).ok]
    return CheckResult(
        "search iteration pattern",
        not bad,
        "pure-state iterations 1, 4, 7, 10 for all items" if not bad else f"failed items: {bad}",
    )


def _check_ideal_eo_exactness() -> CheckResult:
    profile = make_profile("ideal")
    worst = 0.0
    for name in profile.eos:
        u = matrix_of_sequence([name])
        eo = profile.eo(name)
        for n in range(4):
            amp = np.zeros(4, dtype=complex)
            amp[n] = 1.0
            s = StateVector(2, amp)
            evolve_eo(s, eo, 0.0)
            worst = max(worst, float(np.max(np.abs(s.amp - u[:, n]))))
    return CheckResult(
        "idealized instruction exactness",
        worst < 1e-12,
        f"max deviation from exact gates {worst:.3e} (tol 1e-12)",
    )


def self_test() -> list:
    """Run the oracle cross-checks; returns one CheckResult per check."""
    return [
        _check_conjugation(),
        _check_convergence_order(),
        _check_shortening(),
        _check_iteration_pattern(),
        _check_ideal_eo_exactness(),
    ]

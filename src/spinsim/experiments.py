"""Preset experiments, reports, trajectory CSV emission and self-tests.

The endpoint references for the bundled hardware presets are embedded as
constants keyed by (hardware, init order, item); reports print the measured
values next to them and flag any entry deviating by more than Q_TOLERANCE.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .propagator import (
    StepPlan,
    Trajectory,
    auto_substeps,
    evolve_eo,
    run_sequence,
)
from .pulses import grover_program, make_profile
from .reference import (
    dense_propagator_composed,
    global_phase_between,
    grover_iterate_check,
    hamiltonian,
    matrix_of_sequence,
)
from .state import StateVector, new_basis_state

TWO_PI = 2.0 * math.pi

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
    """Everything one search run produced."""

    hardware: str
    item: int
    init_order: str
    q: tuple
    norm: float
    wall_time: float
    substeps: int
    plans: list
    samples: Trajectory
    final_state: StateVector
    reference: tuple | None = None
    deviations: tuple | None = None
    flagged: bool = False

    def lines(self) -> list:
        out = [
            f"grover search: hardware={self.hardware} item={self.item} init={self.init_order}",
            f"  operations {len(self.plans)}, substeps {self.substeps}, samples {len(self.samples)}",
            f"  final Q1 = {self.q[0]:.6f}   Q2 = {self.q[1]:.6f}",
            f"  norm deviation = {abs(self.norm - 1.0):.3e}",
            f"  wall time = {self.wall_time:.3f} s",
        ]
        if self.reference is not None:
            d1, d2 = self.deviations
            status = "FLAG: outside tolerance" if self.flagged else "ok"
            out.append(
                f"  reference ({self.hardware}/init {self.init_order}/item {self.item}): "
                f"Q1 = {self.reference[0]:.3f}  Q2 = {self.reference[1]:.3f}"
            )
            out.append(f"  deviation dQ1 = {d1:.4f}  dQ2 = {d2:.4f}  [{status}, tol {Q_TOLERANCE}]")
        return out


def run_grover(
    hardware: str,
    item: int,
    init_order: str = "12",
    steps="auto",
    sample_every: int | None = None,
    m_multiplier: int = 1,
    rotating_frame: bool = False,
) -> RunReport:
    """Run one search preset and return the full report.

    ``steps`` is "auto" or an absolute per-operation substep count;
    ``m_multiplier`` scales whichever plan results. With ``rotating_frame``
    the sampled transverse expectations are reported in the frame co-rotating
    at each spin's static z field (z components and qubit values are frame
    independent).
    """
    profile = make_profile(hardware)
    prog = grover_program(item, profile, init_order)
    auto = steps in ("auto", None)
    plans = [auto_substeps(eo) if auto else StepPlan(int(steps), eo.tau) for eo in prog.seq.eos]
    if m_multiplier != 1:
        plans = [StepPlan(p.m * m_multiplier, p.tau) for p in plans]
    start = time.perf_counter()
    final, samples = run_sequence(
        new_basis_state(2, [0, 0]), prog.seq, sample_every=sample_every, plans=plans
    )
    wall = time.perf_counter() - start
    if rotating_frame:
        omega = [float(profile.eo("Ipi").model.static_field[j, 2]) for j in range(2)]
        _rotate_samples(samples, omega)
    obs = final.observables(t=prog.seq.total_duration)
    report = RunReport(
        hardware=hardware,
        item=item,
        init_order=init_order,
        q=(float(obs.q[0]), float(obs.q[1])),
        norm=obs.norm,
        wall_time=wall,
        substeps=sum(p.m for p in plans),
        plans=plans,
        samples=samples,
        final_state=final,
    )
    ref = REFERENCE_Q.get((hardware, init_order, item))
    if ref is not None:
        report.reference = ref
        report.deviations = (abs(report.q[0] - ref[0]), abs(report.q[1] - ref[1]))
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
    fmt = ["%d"] + ["%.12g"] * (4 * L + 2) + ["%d"]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")


class ConvergenceFailure(RuntimeError):
    """m-doubling did not stabilize the final qubit values."""


@dataclass
class ConvergeReport:
    hardware: str
    item: int
    init_order: str
    tol: float
    multiplier: int
    q: tuple
    history: list = field(default_factory=list)

    def lines(self) -> list:
        out = [
            f"convergence study: hardware={self.hardware} item={self.item} "
            f"init={self.init_order} tol={self.tol:g}",
        ]
        for mult, q, shift in self.history:
            shift_txt = "-" if shift is None else f"{shift:.3e}"
            out.append(f"  multiplier {mult:5d}: Q = ({q[0]:.9f}, {q[1]:.9f})  shift {shift_txt}")
        out.append(f"  converged at multiplier {self.multiplier}: Q = ({self.q[0]:.6f}, {self.q[1]:.6f})")
        return out


def converge_grover(
    hardware: str,
    item: int,
    init_order: str = "12",
    tol: float = 1e-6,
    max_doublings: int = 10,
) -> ConvergeReport:
    """Double every substep count until the final qubit values stop moving.

    Starts from the automatic plan and reports the first multiplier whose
    doubling shifts every Q_j by less than ``tol``. Raises ConvergenceFailure
    if 2**max_doublings times the automatic plan is still not enough.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    history = []
    prev_q = None
    mult = 1
    for k in range(max_doublings + 1):
        report = run_grover(hardware, item, init_order, m_multiplier=mult, sample_every=10**9)
        q = report.q
        shift = None if prev_q is None else max(abs(q[0] - prev_q[0]), abs(q[1] - prev_q[1]))
        history.append((mult, q, shift))
        if shift is not None and shift < tol:
            return ConvergeReport(
                hardware=hardware,
                item=item,
                init_order=init_order,
                tol=tol,
                multiplier=mult // 2,
                q=q,
                history=history,
            )
        prev_q = q
        mult *= 2
    raise ConvergenceFailure(
        f"final qubit values still shift by {history[-1][2]:.3e} (> {tol:g}) after "
        f"{max_doublings} doublings of the automatic plan"
    )


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check_conjugation(n_models: int = 100, seed: int = 2024) -> CheckResult:
    """One-axis steps of the step program vs dense exponentials of H_x, H_y, H_z.

    A model confined to one axis is integrated exactly by one step at its
    midpoint, because its factors commute. The x and y steps run through the
    quarter-turns, so this checks Rx Sz Rx+ = Sy and Ry Sz Ry+ = Sx together
    with the compile rule and the coupling multipliers.
    """
    from .propagator import SpinModel, symmetrized_step

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        m = SpinModel(2)
        for ax in "xyz":
            m.set_coupling(1, 2, ax, rng.uniform(-1, 1))
            for j in (1, 2):
                m.set_static(j, ax, rng.uniform(-1, 1))
                m.set_rf(j, ax, rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.0), rng.uniform(0, TWO_PI))
        delta = rng.uniform(0.05, 0.5)
        t_mid = rng.uniform(0.0, 10.0)
        for a in range(3):
            axis_only = SpinModel(2)
            for name in ("coupling", "static_field", "rf_amp", "rf_freq", "rf_phase"):
                getattr(axis_only, name)[..., a] = getattr(m, name)[..., a]
            w, v = np.linalg.eigh(hamiltonian(axis_only, t_mid))
            exact = v @ np.diag(np.exp(-1j * delta * w)) @ v.conj().T
            for n in range(4):
                s = symmetrized_step(StateVector(2, np.eye(4)[n]), axis_only, delta, t_mid - delta / 2)
                worst = max(worst, float(np.max(np.abs(s.amp - exact[:, n]))))
    return CheckResult(
        "conjugation identity",
        worst < 1e-12,
        f"max deviation {worst:.3e} over {n_models} random models (tol 1e-12)",
    )


def _check_convergence_order() -> CheckResult:
    """Global l2 error vs the dense oracle drops ~4x per substep doubling."""
    profile = make_profile("nmr")
    eo = profile.eo("X1")
    u = dense_propagator_composed(eo.model, 0.0, eo.tau, segment=TWO_PI, tol=3e-9).mat
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
        short = matrix_of_sequence(sequence_from_product(profile, shortened_search_product(item))).mat
        full = matrix_of_sequence(sequence_from_product(profile, full_search_product(item))).mat
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
        u = matrix_of_sequence([name]).mat
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


def self_test(report_fn=None) -> list:
    """Run the oracle cross-checks; returns one CheckResult per check."""
    checks = [
        _check_conjugation(),
        _check_convergence_order(),
        _check_shortening(),
        _check_iteration_pattern(),
        _check_ideal_eo_exactness(),
    ]
    if report_fn is not None:
        for c in checks:
            report_fn(f"[{'PASS' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
    return checks

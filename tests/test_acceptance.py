"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The endpoint tolerances and runtime budgets are fixed here, not
calibrated elsewhere.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from spinsim.experiments import (
    Q_TOLERANCE,
    REFERENCE_Q,
    run_grover,
)
from spinsim.propagator import (
    ElementaryOperation,
    SpinModel,
    StepPlan,
    auto_substeps,
    evolve_eo,
    run_sequence,
    symmetrized_step,
)
from spinsim.pulses import (
    full_search_product,
    grover_program,
    make_profile,
    sequence_from_product,
    shortened_search_product,
)
from spinsim.reference import (
    dense_propagator,
    global_phase_between,
    grover_iterate_check,
    matrix_of_sequence,
)
from spinsim.state import StateVector, new_basis_state

_norm_ledger = []  # (label, |norm - 1|) from every acceptance run


def _record_norm(label, norm):
    _norm_ledger.append((label, abs(norm - 1.0)))


@pytest.fixture(scope="module")
def ideal_runs():
    runs = {}
    wall = 0.0
    for item in range(4):
        report = run_grover("ideal", item, "12", sample_every=10**9)
        wall += report.wall_time
        runs[item] = report
        _record_norm(f"ideal item {item}", report.norm)
    return runs, wall


def _scaled_plan_run(item, init, k):
    """An NMR search program at k times each operation's automatic plan; its final (q, norm)."""
    seq = grover_program(item, make_profile("nmr"), init).seq
    plans = [StepPlan(k * auto_substeps(eo).m, eo.tau) for eo in seq.eos]
    final, _ = run_sequence(new_basis_state(2, [0, 0]), seq, sample_every=10**9, plans=plans)
    obs = final.observables(t=seq.total_duration)
    return SimpleNamespace(q=tuple(float(qj) for qj in obs.q), norm=obs.norm)


@pytest.fixture(scope="module")
def nmr_runs():
    """Auto-plan and doubled-plan runs for both preparation orders.

    The doubled run demonstrates step convergence; a quadrupled probe run per
    init order verifies the second-order shift scaling that bounds the
    distance to the infinite-m limit.
    """
    runs = {}
    for init in ("12", "21"):
        wall_auto = 0.0
        for item in range(4):
            auto = run_grover("nmr", item, init, sample_every=10**9)
            wall_auto += auto.wall_time
            doubled = _scaled_plan_run(item, init, 2)
            runs[(init, item)] = (auto, doubled)
            _record_norm(f"nmr {init}/{item} auto", auto.norm)
            _record_norm(f"nmr {init}/{item} x2", doubled.norm)
        probe = _scaled_plan_run(0, init, 4)
        runs[(init, "probe4")] = probe
        runs[(init, "wall_auto")] = wall_auto
        _record_norm(f"nmr {init}/0 x4", probe.norm)
    return runs


def _shift(a, b):
    return max(abs(a.q[0] - b.q[0]), abs(a.q[1] - b.q[1]))


class TestAcceptance:
    def test_1_ideal_search_endpoints(self, ideal_runs):
        runs, wall = ideal_runs
        expected = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0), 3: (1.0, 1.0)}
        worst = 0.0
        for item, (q1, q2) in expected.items():
            r = runs[item]
            worst = max(worst, abs(r.q[0] - q1), abs(r.q[1] - q2))
        assert worst < 1e-9, f"ideal endpoint deviation {worst:.2e} exceeds 1e-9"
        assert wall < 1.0, f"ideal runs took {wall:.2f} s (budget 1 s)"
        print(f"\nACCEPTANCE 1 ideal endpoints: PASS (max dev {worst:.2e}, {wall:.2f} s)")

    def test_2_nmr_search_endpoints(self, nmr_runs):
        wall_auto = nmr_runs[("12", "wall_auto")]
        # convergence demonstration: the auto->2x shift scales down by ~4x at
        # 2x->4x, so the remaining distance to the m -> infinity limit is a
        # third of the last shift, far below the acceptance tolerance
        shift1 = _shift(*nmr_runs[("12", 0)])
        shift2 = _shift(nmr_runs[("12", 0)][1], nmr_runs[("12", "probe4")])
        assert shift2 < 0.5 * shift1, "substep doubling is not converging"
        residual_bound = shift2 / (1.0 - 0.25)
        assert residual_bound < 1e-3
        failures = []
        for item in range(4):
            auto, doubled = nmr_runs[("12", item)]
            ref = REFERENCE_Q[("nmr", "12", item)]
            dev = max(abs(doubled.q[0] - ref[0]), abs(doubled.q[1] - ref[1]))
            if dev > Q_TOLERANCE:
                failures.append((item, doubled.q, ref, dev))
        if failures:
            # flagged, never silent: the report text carries the deviation
            msgs = [f"item {i}: Q={q} ref={r} dev={d:.4f}" for i, q, r, d in failures]
            pytest.fail("FLAG nmr endpoints outside +-0.03 at converged m: " + "; ".join(msgs))
        assert wall_auto < 30.0, f"auto-plan runs took {wall_auto:.1f} s (budget 30 s)"
        worst = max(
            max(abs(nmr_runs[("12", i)][1].q[k] - REFERENCE_Q[("nmr", "12", i)][k]) for k in (0, 1))
            for i in range(4)
        )
        print(
            f"\nACCEPTANCE 2 nmr endpoints (W1-first): PASS (max dev {worst:.4f} of "
            f"tol {Q_TOLERANCE}, m-limit residual < {residual_bound:.1e}, auto runs {wall_auto:.1f} s)"
        )

    def test_3_initialization_order_instability(self, nmr_runs):
        failures = []
        for item in range(4):
            _, doubled = nmr_runs[("21", item)]
            ref = REFERENCE_Q[("nmr", "21", item)]
            dev = max(abs(doubled.q[0] - ref[0]), abs(doubled.q[1] - ref[1]))
            if dev > Q_TOLERANCE:
                failures.append((item, doubled.q, ref, dev))
        if failures:
            msgs = [f"item {i}: Q={q} ref={r} dev={d:.4f}" for i, q, r, d in failures]
            pytest.fail("FLAG swapped-init endpoints outside +-0.03: " + "; ".join(msgs))
        # swapping two logically commuting preparation blocks must derail the
        # answer completely for items 0 and 1
        swings = {}
        for item in (0, 1):
            hat = nmr_runs[("12", item)][1]
            tilde = nmr_runs[("21", item)][1]
            swings[item] = max(abs(hat.q[0] - tilde.q[0]), abs(hat.q[1] - tilde.q[1]))
            assert swings[item] > 0.5, f"item {item} swing {swings[item]:.3f} <= 0.5"
        worst = max(
            max(abs(nmr_runs[("21", i)][1].q[k] - REFERENCE_Q[("nmr", "21", i)][k]) for k in (0, 1))
            for i in range(4)
        )
        print(
            f"\nACCEPTANCE 3 init-order instability: PASS (max dev {worst:.4f}, "
            f"swings item0 {swings[0]:.3f} / item1 {swings[1]:.3f} > 0.5)"
        )

    def test_4_second_order_convergence(self):
        profile = make_profile("nmr")
        eo = profile.eo("X1")
        oracle = dense_propagator(eo.model, 0.0, eo.tau, tol=3e-9)
        rng = np.random.default_rng(11)
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        amp /= np.linalg.norm(amp)
        psi0 = StateVector(2, amp)
        exact = oracle @ psi0.amp
        errors = []
        for m in (80, 160, 320, 640, 1280):
            s = psi0.copy()
            evolve_eo(s, eo, 0.0, plan=StepPlan(m, eo.tau))
            errors.append(float(np.linalg.norm(s.amp - exact)))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert len(ratios) >= 3
        for r in ratios:
            assert 3.3 < r < 4.7, f"halving ratio {r:.2f} outside [3.3, 4.7]: all {ratios}"
        print(
            "\nACCEPTANCE 4 second-order convergence: PASS (ratios "
            + ", ".join(f"{r:.2f}" for r in ratios)
            + ")"
        )

    def test_5_oracle_identities(self, self_test_checks):
        # search iteration pattern, exact
        for item in range(4):
            report = grover_iterate_check(item)
            assert report.pure_iterations == [1, 4, 7, 10], report
            assert report.indices_ok
        # shortened programs equal the full products up to a global phase
        profile = make_profile("ideal")
        worst_short = 0.0
        for item in range(4):
            short = matrix_of_sequence(sequence_from_product(profile, shortened_search_product(item)))
            full = matrix_of_sequence(sequence_from_product(profile, full_search_product(item)))
            phase = global_phase_between(short, full, atol=1e-10)
            col_fid = min(abs(np.vdot(short[:, n], phase * full[:, n])) for n in range(4))
            worst_short = max(worst_short, 1.0 - col_fid)
            assert phase == pytest.approx(-1.0 if item in (1, 2) else 1.0, abs=1e-12)
        assert worst_short < 1e-12
        # conjugation identity on 100 random models, as self_test runs it
        conj = self_test_checks["conjugation identity"]
        assert conj.ok and " over 100 two-qubit " in conj.detail, conj.detail
        print(
            f"\nACCEPTANCE 5 oracle identities: PASS (iterations 1,4,7,10; shortening "
            f"1-fid {worst_short:.1e}; {conj.detail})"
        )

    def test_6_unitarity_of_all_runs(self, ideal_runs, nmr_runs):
        assert _norm_ledger, "no runs recorded"
        worst_label, worst = max(_norm_ledger, key=lambda kv: kv[1])
        assert worst < 1e-9, f"norm deviation {worst:.2e} in {worst_label}"
        print(
            f"\nACCEPTANCE 6 unitarity: PASS ({len(_norm_ledger)} runs, "
            f"worst |norm-1| = {worst:.2e} in {worst_label})"
        )

    def test_7_scale_smoke(self):
        L = 20
        rng = np.random.default_rng(20)
        model = SpinModel(L)
        for ax in "xyz":
            for j in range(1, L + 1):
                for k in range(j + 1, L + 1):
                    model.set_coupling(j, k, ax, rng.uniform(-1, 1))
            for j in range(1, L + 1):
                model.set_static(j, ax, rng.uniform(-1, 1))
        amp = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
        amp /= np.linalg.norm(amp)
        state = StateVector(L, amp)
        start = time.perf_counter()
        symmetrized_step(state, model, 0.01, 0.0)
        wall = time.perf_counter() - start
        drift = abs(state.norm() - 1.0)
        assert wall < 60.0, f"L=20 step took {wall:.1f} s (budget 60 s)"
        assert drift < 1e-10, f"norm drift {drift:.2e} exceeds 1e-10"
        print(f"\nACCEPTANCE 7 scale smoke (L=20, all pairs): PASS ({wall:.1f} s, drift {drift:.2e})")

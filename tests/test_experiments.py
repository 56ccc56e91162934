"""Experiment-layer tests: reports, the step-doubling tolerance, CSV, self-test."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsim.experiments import (
    REFERENCE_Q,
    run_grover,
    run_report,
    write_trajectory_csv,
)
from spinsim.propagator import MAX_DOUBLINGS, ElementaryOperation, PulseSequence, SpinModel, Trajectory
from spinsim.pulses import make_profile
from spinsim.reference import dense_propagator
from spinsim.state import Observables, StateVector


def random_state(L, rng):
    amp = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    return StateVector(L, amp / np.linalg.norm(amp))


class TestRunReports:
    def test_ideal_report_matches_reference(self):
        report = run_grover("ideal", 3, "12")
        assert report.q[0] == pytest.approx(1.0, abs=1e-9)
        assert report.q[1] == pytest.approx(1.0, abs=1e-9)
        assert report.reference == (1.0, 1.0)
        assert not report.flagged
        assert abs(report.norm - 1.0) < 1e-9
        text = "\n".join(report.lines())
        assert "Q1 = 1.000000" in text and "ok" in text

    def test_ideal_runs_are_fast(self):
        import time

        start = time.perf_counter()
        for item in range(4):
            run_grover("ideal", item, "12")
        assert time.perf_counter() - start < 1.0

    def test_steps_override(self):
        report = run_grover("ideal", 0, "12", steps=3)
        assert all(p.m == 3 for p in report.samples.plans)
        assert report.substeps == 3 * 16

    def test_rotating_frame_keeps_q(self):
        lab = run_grover("ideal", 1, "12", sample_every=10)
        rot = run_grover("ideal", 1, "12", sample_every=10, rotating_frame=True)
        assert len(lab.samples) == len(rot.samples)
        assert np.allclose(lab.samples.obs.q, rot.samples.obs.q, atol=1e-12)
        assert np.allclose(lab.samples.obs.sz, rot.samples.obs.sz, atol=1e-12)

    def test_rotating_frame_freezes_free_precession(self):
        # a +x spin under its static z field precesses in the lab but must
        # sit still in the co-rotating view
        from spinsim.experiments import _rotate_samples
        from spinsim.propagator import ElementaryOperation, PulseSequence, SpinModel, StepPlan
        from spinsim.propagator import run_sequence as run_seq
        from spinsim.state import StateVector

        amp = np.array([1, 1, 0, 0], dtype=complex) / math.sqrt(2)
        m = SpinModel(2).set_static(1, "z", 1.0).set_static(2, "z", 0.25)
        eo = ElementaryOperation("free", m, 20.0)
        _, traj = run_seq(StateVector(2, amp), PulseSequence([eo]), sample_every=1,
                          plans=[StepPlan(200, 20.0)])
        assert traj.obs.sx[:, 0].min() < -0.4  # lab view precesses
        _rotate_samples(traj, [1.0, 0.25])
        assert traj.obs.sx[:, 0].min() > 0.5 - 1e-9
        assert np.abs(traj.obs.sy[:, 0]).max() < 1e-9

    def test_unknown_hardware(self):
        with pytest.raises(ValueError):
            run_grover("quantum", 0)

    @pytest.mark.parametrize("run", [
        lambda: run_grover("nmr", 2, "21"),
        lambda: run_grover("nmr", 1, "12", rotating_frame=True),
        lambda: run_grover("ideal", 3, "21", rotating_frame=True, tol=1e-6),
        lambda: run_report("empty", StateVector(2, [0.6, 0.8j, 0, 0]), PulseSequence([])),
        lambda: run_report("chain", StateVector(5, np.eye(32)[3]), PulseSequence([ElementaryOperation(
            "e", SpinModel(5).set_coupling(1, 2, "z", 0.7).set_rf(3, "x", 0.4, 1.1), 2.0)]), tol=1e-3),
    ], ids=["nmr", "rotating frame", "tolerance", "empty sequence", "L=5 in place"])
    def test_readouts_are_the_final_state(self, run):
        # the report reads its readouts from the last sample, which is the final state
        report = run()
        obs = report.final_state.observables()
        assert report.q == tuple(float(q) for q in obs.q) and report.norm == float(obs.norm)


class TestTrajectoryCsv(object):
    def test_schema_and_determinism(self, tmp_path):
        report = run_grover("ideal", 2, "12", sample_every=1)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_trajectory_csv(p1, report.samples)
        write_trajectory_csv(p2, report.samples)
        b1 = p1.read_bytes()
        assert b1 == p2.read_bytes()
        lines = b1.decode().splitlines()
        assert lines[0] == "step,t,norm,sx1,sy1,sz1,q1,sx2,sy2,sz2,q2,eo_index"
        assert len(lines) == len(report.samples) + 1
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0
        assert first[-1] == "0"

    @pytest.mark.parametrize("k", [0, 1, 511, 512, 513, 1300])
    def test_writes_the_bytes_of_savetxt(self, tmp_path, k):
        # awkward values in every column, across block edges of 512 rows, at L = 3
        L = 3
        rng = np.random.default_rng(k)
        awkward = np.array([-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 0.1, 1 / 3, -2.5e-7, 123456789.0])
        pick = lambda *shape: rng.choice(awkward, size=shape) * rng.choice([1.0, rng.normal()], size=shape)
        step = np.sort(rng.integers(0, 2**53, size=k))  # float64 holds every step count up to 2**53
        obs = Observables(pick(k, L), pick(k, L), pick(k, L), pick(k, L), pick(k), pick(k))
        samples = Trajectory(step, rng.integers(0, 10**6, size=k), obs)
        path = tmp_path / "new.csv"
        write_trajectory_csv(path, samples)
        per_qubit = np.stack([obs.sx, obs.sy, obs.sz, obs.q], axis=-1).reshape(k, 4 * L)
        table = np.column_stack([samples.step, obs.t, obs.norm, per_qubit, samples.eo_index])
        header = "step,t,norm," + "".join(f"sx{j},sy{j},sz{j},q{j}," for j in range(1, L + 1)) + "eo_index"
        np.savetxt(tmp_path / "old.csv", table, fmt=["%d"] + ["%.12g"] * (4 * L + 2) + ["%d"],
                   delimiter=",", header=header, comments="")
        assert path.read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert len(path.read_bytes().splitlines()) == k + 1

    def test_two_runs_write_the_same_bytes(self, tmp_path):
        # the second run replays the step-matrix pieces the first one built and kept
        blobs = []
        for run in range(2):
            report = run_grover("nmr", 0, "12", steps=8, sample_every=4)
            path = tmp_path / f"run{run}.csv"
            write_trajectory_csv(path, report.samples)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestConvergence:
    """``run_report(..., tol)``: step doubling per operation, checked against the dense oracle."""

    def test_ideal_converges_immediately(self):
        # every ideal instruction is one exact step, so the first doubling agrees
        report = run_grover("ideal", 1, "12", sample_every=10**9, tol=1e-12)
        assert report.converged
        assert len(report.estimates) == 16 and max(report.estimates) < 1e-12
        assert all(p.m == 2 for p in report.samples.plans)
        assert report.q[0] == pytest.approx(1.0, abs=1e-9)
        assert "every operation under tol 1e-12" in "\n".join(report.lines())

    def test_unreachable_tolerance_fails(self):
        # no estimate is below 0: every plan is doubled the most times allowed
        report = run_grover("ideal", 0, "12", sample_every=10**9, tol=0.0)
        assert not report.converged
        assert all(p.m == 2**MAX_DOUBLINGS for p in report.samples.plans)
        assert "NOT every operation under tol 0" in "\n".join(report.lines())

    def test_nmr_estimate_bounds_the_dense_error(self):
        eo = make_profile("nmr").eo("X1")
        psi0 = random_state(2, np.random.default_rng(3))
        report = run_report("X1", psi0, PulseSequence([eo]), sample_every=10**9, tol=1e-6)
        exact = dense_propagator(eo.model, 0.0, eo.tau, tol=1e-8) @ psi0.amp
        err = float(np.linalg.norm(report.final_state.amp - exact))
        assert report.converged and report.samples.plans[0].m > 1
        assert err <= 1.5 * sum(report.estimates) + 1e-9
        assert err >= 0.5 * sum(report.estimates)  # the estimate is not a loose upper bound

    def test_each_operation_starts_from_the_state_it_receives(self):
        eo = make_profile("nmr").eo("X1")
        psi0 = random_state(2, np.random.default_rng(4))
        both = run_report("X1 X1", psi0, PulseSequence([eo, eo]), sample_every=10**9, tol=1e-5)
        first = run_report("X1", psi0, PulseSequence([eo]), sample_every=10**9, tol=1e-5)
        second = run_report("X1", first.final_state, PulseSequence([eo]), sample_every=10**9, tol=1e-5)
        assert both.estimates == pytest.approx(first.estimates + second.estimates, rel=1e-6, abs=0)
        assert both.estimates[0] != pytest.approx(both.estimates[1], rel=1e-6, abs=0)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        L=st.integers(1, 3),
        coupled=st.sets(st.sampled_from("xyz")),
        static=st.sets(st.sampled_from("xyz")),
        rf=st.sets(st.sampled_from("xyz")),
        tau=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_estimate_bounds_the_dense_error_of_random_models(self, L, coupled, static, rf, tau, seed):
        rng = np.random.default_rng(seed)
        model = SpinModel(L)
        for ax in coupled:
            for j in range(1, L + 1):
                for k in range(j + 1, L + 1):
                    model.set_coupling(j, k, ax, rng.uniform(-1, 1))
        for j in range(1, L + 1):
            for ax in static:
                model.set_static(j, ax, rng.uniform(-1, 1))
            for ax in rf:
                model.set_rf(j, ax, rng.uniform(-0.5, 0.5), rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi))
        psi0 = random_state(L, rng)
        eo = ElementaryOperation("random", model, tau)
        report = run_report("random", psi0, PulseSequence([eo]), sample_every=10**9, tol=1e-5)
        exact = dense_propagator(model, 0.0, tau, tol=1e-9) @ psi0.amp
        err = float(np.linalg.norm(report.final_state.amp - exact))
        assert report.converged
        assert err <= 1.5 * sum(report.estimates) + 1e-9

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            run_grover("ideal", 0, "12", tol=tol)

    def test_no_tolerance_leaves_the_run_alone(self):
        plain = run_grover("nmr", 3, "21", sample_every=10**9)
        assert plain.estimates is None and plain.tol is None and plain.converged
        assert not any("estimate" in line for line in plain.lines())


class TestReferenceTable:
    def test_full_preset_coverage(self):
        assert len(REFERENCE_Q) == 16
        for item in range(4):
            assert REFERENCE_Q[("ideal", "12", item)] == REFERENCE_Q[("ideal", "21", item)]

    def test_nmr_flag_on_wrong_values(self):
        # a deliberately coarse run must flag the deviation rather than hide it
        report = run_grover("nmr", 0, "12", steps=2)
        assert report.reference == (0.028, 0.163)
        assert report.flagged
        assert "FLAG" in "\n".join(report.lines())


class TestSelfTest:
    def test_all_checks_pass(self, self_test_checks):
        for c in self_test_checks.values():
            assert c.ok, f"{c.name}: {c.detail}"
        names = list(self_test_checks)
        assert "conjugation identity" in names
        assert "second-order convergence" in names
        assert "shortening identities" in names
        assert "search iteration pattern" in names
        assert "idealized instruction exactness" in names

    def test_conjugation_check_detects_flipped_rotation(self):
        # a wrong rotation sign must blow the conjugation identity wide open
        from spinsim import propagator
        from spinsim.experiments import _check_conjugation

        turn = propagator._TURN
        with mock.patch.dict(turn, {"Rx": turn["Rx+"], "Rx+": turn["Rx"]}):
            check = _check_conjugation(n_models=5)
        assert not check.ok
        assert float(check.detail.split()[2]) > 1e-2  # "max deviation <value> over ..."

    def test_checks_catch_a_wrong_share_of_the_x_factor(self):
        # the self-test runs the step program itself: half an x factor per
        # step must fail the conjugation check and the selftest command
        from spinsim import propagator
        from spinsim.cli import main
        from spinsim.experiments import _check_conjugation

        order = tuple((0, 0.5) if item == (0, 1.0) else item for item in propagator._ORDER)
        assert order != propagator._ORDER
        with mock.patch.object(propagator, "_ORDER", order):
            assert not _check_conjugation(n_models=5).ok
            assert main(["selftest"]) == 2

    def test_shortening_check_detects_a_flipped_relative_sign(self, monkeypatch):
        # four quarter-turns X1 are -I, so every shortened program changes its sign
        from spinsim import experiments

        short = experiments.shortened_search_product
        monkeypatch.setattr(experiments, "shortened_search_product", lambda item: ["X1"] * 4 + short(item))
        check = experiments._check_shortening()
        assert not check.ok
        assert float(check.detail.split()[3].rstrip(";")) < 1e-12  # "max column deviation <value>; ..."
        assert check.detail.endswith("relative signs as expected: False")

    def test_conjugation_check_reaches_deep_doubling_levels(self):
        # E_j and conj(E_j) swapped for j >= 2 is the multiplier of the model with
        # h_j and J_jk (k < j) negated; two-qubit models never reach j = 2
        from spinsim import propagator
        from spinsim.experiments import _check_conjugation

        exact = propagator._axis_multiplier

        def swapped(L, coupling, field):
            coupling, field = coupling.copy(), field.copy()
            for j in range(2, L):
                coupling[j, :j] *= -1
                coupling[:j, j] *= -1
                field[j] *= -1
            return exact(L, coupling, field)

        with mock.patch.object(propagator, "_axis_multiplier", swapped):
            assert _check_conjugation(n_models=4).ok  # no five-qubit model
            check = _check_conjugation(n_models=5)
        assert not check.ok
        assert float(check.detail.split()[2]) > 1e-2

    def test_convergence_check_detects_first_order_stepping(self):
        # sampling the sinusoid at the left endpoint instead of the midpoint
        # degrades the method to first order: error halves instead of quartering
        from spinsim.propagator import symmetrized_step
        from spinsim.pulses import make_profile
        from spinsim.state import Observables, StateVector

        profile = make_profile("nmr")
        eo = profile.eo("X1")
        exact = dense_propagator(eo.model, 0.0, eo.tau, tol=1e-8)
        rng = np.random.default_rng(5)
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        amp /= np.linalg.norm(amp)
        errors = []
        for m in (320, 640, 1280):
            s = StateVector(2, amp)
            delta = eo.tau / m
            for n in range(m):
                # t chosen so the shared midpoint lands on the left endpoint
                symmetrized_step(s, eo.model, delta, n * delta - delta / 2)
            errors.append(np.linalg.norm(s.amp - exact @ amp))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        for r in ratios:
            assert 1.6 < r < 2.4, f"left-endpoint ratio {r:.2f}, expected about 2"

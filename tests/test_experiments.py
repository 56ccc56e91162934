"""Experiment-layer tests: reports, convergence studies, CSV, self-test."""

from unittest import mock

import numpy as np
import pytest

from spinsim.experiments import (
    REFERENCE_Q,
    ConvergenceFailure,
    converge_grover,
    run_grover,
    self_test,
    write_trajectory_csv,
)


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
        assert all(p.m == 3 for p in report.plans)
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
        import math

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

    def test_identical_across_worker_counts(self, tmp_path):
        # every kernel runs in the calling thread: two runs write the same bytes
        blobs = []
        for run in range(2):
            report = run_grover("nmr", 0, "12", steps=8, sample_every=4)
            path = tmp_path / f"run{run}.csv"
            write_trajectory_csv(path, report.samples)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestConvergence:
    def test_ideal_converges_immediately(self):
        report = converge_grover("ideal", 1, "12", tol=1e-9)
        assert report.multiplier == 1
        assert report.q[0] == pytest.approx(1.0, abs=1e-9)

    def test_unreachable_tolerance_fails(self):
        with pytest.raises(ConvergenceFailure, match="doublings"):
            converge_grover("ideal", 0, "12", tol=0.0, max_doublings=2)

    def test_nmr_converges_self_consistently(self):
        # report.q comes from the run at twice the reported multiplier; the
        # doubling after that one must move it, but by less than the tolerance
        report = converge_grover("nmr", 2, "12", tol=1e-4)
        assert report.multiplier >= 1
        follow = run_grover("nmr", 2, "12", m_multiplier=report.multiplier * 4,
                            sample_every=10**9)
        shift = max(abs(a - b) for a, b in zip(report.q, follow.q))
        assert 0.0 < shift < 1e-4


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
    def test_all_checks_pass(self):
        checks = self_test()
        for c in checks:
            assert c.ok, f"{c.name}: {c.detail}"
        names = [c.name for c in checks]
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
            check = _check_conjugation()
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

    def test_convergence_check_detects_first_order_stepping(self):
        # sampling the sinusoid at the left endpoint instead of the midpoint
        # degrades the method to first order: error halves instead of quartering
        from spinsim.propagator import symmetrized_step
        from spinsim.pulses import make_profile
        from spinsim.reference import dense_propagator_composed
        from spinsim.state import StateVector

        profile = make_profile("nmr")
        eo = profile.eo("X1")
        exact = dense_propagator_composed(eo.model, 0.0, eo.tau, segment=2 * np.pi, tol=1e-8)
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

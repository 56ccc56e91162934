"""Oracle tests: exact gates, diffusion iteration, dense propagators."""

import copy
import math

import numpy as np
import pytest

from spinsim.propagator import SpinModel
from spinsim.reference import (
    _SPIN,
    ConvergenceError,
    _hamiltonian_parts,
    _slice_product,
    dense_propagator,
    global_phase_between,
    grover_iterate_check,
    hamiltonian,
    ideal_gate,
    ideal_two_qubit,
    matrix_of_sequence,
)

SQ2 = math.sqrt(2.0)


class TestIdealGates:
    def test_x_is_clockwise_quarter_turn(self):
        g = ideal_gate("X", 1, 1)
        assert np.allclose(g, np.array([[1, 1j], [1j, 1]]) / SQ2)

    def test_y_is_dagger_of_yb(self):
        y = ideal_gate("Y", 1, 1)
        yb = ideal_gate("Yb", 1, 1)
        assert np.allclose(y, yb.conj().T)

    def test_walsh_hadamard(self):
        w = ideal_gate("W", 1, 1)
        assert np.allclose(w, (1j / SQ2) * np.array([[1, 1], [1, -1]]))
        # maps up to i(up + down)/sqrt2
        assert np.allclose(w @ [1, 0], 1j / SQ2 * np.ones(2))

    def test_embedding_respects_bit_order(self):
        x1 = ideal_gate("X", 1, 2)
        x2 = ideal_gate("X", 2, 2)
        g = np.array([[1, 1j], [1j, 1]]) / SQ2
        assert np.allclose(x1, np.kron(np.eye(2), g))
        assert np.allclose(x2, np.kron(g, np.eye(2)))

    def test_diffusion_matrix(self):
        d = ideal_two_qubit("D")
        expected = 0.5 * np.array(
            [[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]], dtype=complex
        )
        assert np.allclose(d, expected)

    def test_item_encodings(self):
        assert np.allclose(ideal_two_qubit("F2"), np.diag([1, 1, -1, 1]))
        assert np.allclose(ideal_two_qubit("F0"), -ideal_two_qubit("P"))

    def test_conditional_phase_from_zz_evolution(self):
        ipi = ideal_two_qubit("Ipi")
        expected = np.diag(np.exp(-1j * np.pi / 4 * np.array([1, -1, -1, 1])))
        assert np.allclose(ipi, expected)

    def test_diffusion_decomposition(self):
        # D = W1 W2 P W1 W2
        w1 = ideal_gate("W", 1, 2)
        w2 = ideal_gate("W", 2, 2)
        p = ideal_two_qubit("P")
        assert np.allclose(w1 @ w2 @ p @ w1 @ w2, ideal_two_qubit("D"), atol=1e-14)

    def test_unknown_names(self):
        with pytest.raises(ValueError):
            ideal_gate("Z", 1, 1)
        with pytest.raises(ValueError):
            ideal_two_qubit("F4")


class TestSequenceReconstruction:
    def test_wh_from_three_rotations(self):
        got = matrix_of_sequence(["Y1b", "X1", "X1"])
        assert np.allclose(got, ideal_gate("W", 1, 2), atol=1e-14)

    def test_empty_sequence_is_identity(self):
        assert np.allclose(matrix_of_sequence([]), np.eye(4))

    def test_unknown_eo_listed(self):
        with pytest.raises(ValueError, match="BOGUS"):
            matrix_of_sequence(["X1", "BOGUS"])

    def test_global_phase_helper(self):
        a = np.exp(0.3j) * ideal_two_qubit("D")
        assert global_phase_between(a, ideal_two_qubit("D")) == pytest.approx(
            np.exp(0.3j), abs=1e-12
        )
        with pytest.raises(ValueError, match="beyond a global phase"):
            global_phase_between(ideal_two_qubit("P"), ideal_two_qubit("D"))


class TestGroverIteration:
    @pytest.mark.parametrize("item", [0, 1, 2, 3])
    def test_pure_state_pattern(self, item):
        report = grover_iterate_check(item)
        assert report.pure_iterations == [1, 4, 7, 10]
        assert report.indices_ok
        assert report.ok

    def test_single_iteration_finds_item_two(self):
        uniform = np.full(4, -0.5, dtype=complex)
        psi = ideal_two_qubit("D") @ (ideal_two_qubit("F2") @ uniform)
        assert abs(psi[2]) == pytest.approx(1.0, abs=1e-12)

    def test_two_iterations_return_to_uniform(self):
        # one search iteration = inversion about the mean, then a fresh query
        uniform = np.full(4, -0.5, dtype=complex)
        d = ideal_two_qubit("D")
        f2 = ideal_two_qubit("F2")
        step = f2 @ d
        psi2 = step @ (step @ (f2 @ uniform))
        assert abs(np.vdot(uniform, psi2)) == pytest.approx(1.0, abs=1e-12)

    def test_three_iterations_negate_encoded_state(self):
        uniform = np.full(4, -0.5, dtype=complex)
        d = ideal_two_qubit("D")
        f2 = ideal_two_qubit("F2")
        psi = f2 @ uniform
        psi3 = np.linalg.matrix_power(f2 @ d, 3) @ psi
        assert np.allclose(psi3, -psi, atol=1e-12)


class TestDensePropagator:
    def test_zero_hamiltonian(self):
        u = dense_propagator(SpinModel(2), 0.0, 5.0)
        assert np.allclose(u, np.eye(4))

    def test_constant_single_axis_rotation(self):
        m = SpinModel(2).set_static(1, "x", 1.0)
        u = dense_propagator(m, 0.0, math.pi / 2)
        assert np.max(np.abs(u - ideal_gate("X", 1, 2))) < 1e-12

    def test_rf_drive_only_approximates_rotation(self):
        # sinusoidal pulse version of the quarter turn: close to but measurably
        # different from the exact gate
        m = SpinModel(2).set_coupling(1, 2, "z", -1e-6)
        m.set_static(1, "z", 1.0).set_static(2, "z", 0.25)
        m.set_rf(1, "y", -0.05, 1.0).set_rf(2, "y", -0.0125, 1.0)
        u = dense_propagator(m, 0.0, 2 * math.pi * 10, tol=1e-7)
        ideal = ideal_gate("X", 1, 2)
        col_fid = [abs(np.vdot(ideal[:, n], u[:, n])) for n in range(4)]
        assert min(col_fid) < 1.0 - 1e-4
        assert min(col_fid) > 0.9

    def test_semigroup_property(self):
        rng = np.random.default_rng(31)
        m = SpinModel(2)
        for ax in "xyz":
            m.set_coupling(1, 2, ax, rng.uniform(-0.5, 0.5))
            for j in (1, 2):
                m.set_static(j, ax, rng.uniform(-0.5, 0.5))
                m.set_rf(j, ax, rng.uniform(-0.3, 0.3), rng.uniform(0.3, 1.5))
        ta, tb = 0.6, 0.9
        whole = dense_propagator(m, 0.2, ta + tb, tol=1e-11)
        left = dense_propagator(m, 0.2 + ta, tb, tol=1e-11)
        right = dense_propagator(m, 0.2, ta, tol=1e-11)
        assert np.max(np.abs(whole - left @ right)) < 1e-10

    def test_refinements_agree_at_return(self):
        # two converged calls starting from different slice counts agree to
        # the declared threshold
        m = SpinModel(1).set_static(1, "z", 0.5).set_rf(1, "x", 0.3, 1.0)
        a = dense_propagator(m, 0.0, 2.0, n_slices=64, tol=1e-10)
        b = dense_propagator(m, 0.0, 2.0, n_slices=96, tol=1e-10)
        assert np.max(np.abs(a - b)) < 5e-10

    def test_fourth_order_per_slice_doubling(self):
        # couplings, static fields and RF drives on every axis, so H(t) fails
        # to commute with itself at other times: the commutator term is what
        # lifts the slices from second to fourth order
        rng = np.random.default_rng(5)
        m = SpinModel(3)
        for ax in "xyz":
            for j in range(1, 4):
                for k in range(j + 1, 4):
                    m.set_coupling(j, k, ax, rng.uniform(-1, 1))
                m.set_static(j, ax, rng.uniform(-1, 1))
                m.set_rf(j, ax, rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))
        const, rf = _hamiltonian_parts(m)
        fine = _slice_product(const, rf, 0.3, 2.0, 4096, 4096)
        errors = [np.max(np.abs(_slice_product(const, rf, 0.3, 2.0, n, 4096) - fine)) for n in (8, 16, 32, 64)]
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(14 < r < 18 for r in ratios), ratios

    def test_circularly_polarised_drive_matches_rotating_frame(self):
        # one spin, static field along z, drive rotating in the xy plane: in
        # the frame turning with the drive H is constant, so
        # U = Rz(w*tau + phi) exp(-i*tau*((w - h0)*Sz - h1*Sy)) Rz(phi)^dagger
        # with Rz(theta) = exp(+i*theta*Sz)
        h0, h1, w, phi, tau = 1.0, 0.3, 1.1, 0.4, 7.0
        m = SpinModel(1).set_static(1, "z", h0)
        m.set_rf(1, "x", h1, w, phi).set_rf(1, "y", h1, w, phi + math.pi / 2)
        _, sy, sz = _SPIN

        def rz(theta):
            return np.diag(np.exp(1j * theta * np.diag(sz)))

        ev, vec = np.linalg.eigh((w - h0) * sz - h1 * sy)
        exact = rz(w * tau + phi) @ vec @ np.diag(np.exp(-1j * tau * ev)) @ vec.conj().T @ rz(phi).conj().T
        u = dense_propagator(m, 0.0, tau, tol=1e-12)
        assert np.max(np.abs(u - exact)) < 1e-12

    def test_every_result_is_unitary(self):
        m = SpinModel(2).set_rf(1, "x", 0.4, 1.0).set_static(2, "z", 0.3)
        u = dense_propagator(m, 0.0, 2.0, tol=1e-10)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_zero_duration_is_the_identity(self):
        m = SpinModel(2).set_static(1, "z", 1.0).set_rf(2, "x", 0.4, 1.3, 0.2)
        assert np.array_equal(dense_propagator(m, 0.7, 0.0), np.eye(4))

    def test_zero_frequency_drive_is_a_static_field(self):
        # a drive of frequency 0 is the static field h1 sin(phi) on its axis
        base = SpinModel(2).set_static(1, "z", 1.0).set_coupling(1, 2, "z", 0.3).set_rf(1, "y", 0.2, 1.3)
        driven = copy.deepcopy(base).set_rf(2, "x", 0.7, 0.0, 0.4)
        static = copy.deepcopy(base).set_static(2, "x", 0.7 * math.sin(0.4))
        assert np.array_equal(dense_propagator(driven, 0.0, 2.0), dense_propagator(static, 0.0, 2.0))

    def test_capacity_limit(self):
        with pytest.raises(ValueError, match="L <= 6"):
            dense_propagator(SpinModel(7), 0.0, 1.0)

    def test_nonconvergence_diagnostic(self):
        m = SpinModel(1).set_static(1, "z", 1.0).set_rf(1, "x", 0.5, 2.0)
        with pytest.raises(ConvergenceError, match="residual"):
            dense_propagator(m, 0.0, 10.0, tol=1e-15, max_slices=2048)

    def test_hamiltonian_assembly(self):
        m = SpinModel(2).set_coupling(1, 2, "z", -1.0).set_static(1, "z", 2.0)
        m.set_rf(2, "x", 0.5, 3.0, 0.1)
        h = hamiltonian(m, 0.7)
        sz = np.diag([0.5, -0.5]).astype(complex)
        sx = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        expected = (
            1.0 * np.kron(sz, sz)
            - 2.0 * np.kron(np.eye(2), sz)
            - 0.5 * math.sin(3.0 * 0.7 + 0.1) * np.kron(sx, np.eye(2))
        )
        assert np.allclose(h, expected, atol=1e-14)

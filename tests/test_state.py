"""Tests for state-vector storage, basis conventions and observables."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsim import state
from spinsim.propagator import SpinModel
from spinsim.reference import hamiltonian
from spinsim.state import (
    CapacityError,
    StateVector,
    UnitarityError,
    fidelity,
    new_basis_state,
    observables_of,
)

SQ2 = np.sqrt(2.0)
GATE_X = np.array([[1, 1j], [1j, 1]]) / SQ2   # clockwise quarter turn about x
GATE_YB = np.array([[1, -1], [1, 1]]) / SQ2   # anticlockwise quarter turn about y


def dense_spins(L):
    """S^a_j as dense matrices from ``reference.hamiltonian``, keyed (j, a): H = -h.S, so a field of -1 is S^a_j."""
    return {(j, a): hamiltonian(SpinModel(L).set_static(j, a, -1.0), 0.0)
            for j in range(1, L + 1) for a in "xyz"}


def expectations(amp, spins):
    """<psi|S^a_j|psi> for every (j, a) in ``spins``, each by a dense matrix-vector product."""
    return {key: np.vdot(amp, op @ amp).real for key, op in spins.items()}


PAULI_HALF = {"x": np.array([[0, 1], [1, 0]]) / 2,
              "y": np.array([[0, -1j], [1j, 0]]) / 2,
              "z": np.array([[1, 0], [0, -1]]) / 2}


def reduced_expectations(amp):
    """tr(rho_j S^a) per qubit j and axis a, and the norm, from each qubit's 2x2 reduced density matrix.

    rho_j contracts the (2,)*L tensor of ``amp`` with its conjugate over every
    axis but qubit j's, which is axis L - j (qubit 1 is the least significant bit).
    """
    L = amp.size.bit_length() - 1
    psi = amp.reshape((2,) * L)
    out = {}
    for j in range(1, L + 1):
        others = [ax for ax in range(L) if ax != L - j]
        rho = np.tensordot(psi, psi.conj(), axes=(others, others))
        for a, op in PAULI_HALF.items():
            out[j, a] = np.trace(rho @ op).real
    out["norm"] = np.sqrt(np.trace(rho).real)  # every qubit's rho has the squared norm as its trace
    return out


def random_registers(rng, shape):
    amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return amp / np.linalg.norm(amp, axis=-1, keepdims=True)


def peak_bytes(call):
    """The tracemalloc peak of ``call()``, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBasisState:
    def test_all_up_is_index_zero(self):
        s = new_basis_state(2, [0, 0])
        assert s.amp[0] == 1.0
        assert np.all(s.amp[1:] == 0.0)

    def test_qubit_one_is_least_significant(self):
        s = new_basis_state(2, [1, 0])
        assert s.amp[1] == 1.0

    def test_three_qubit_index(self):
        s = new_basis_state(3, [0, 1, 1])
        assert s.amp[6] == 1.0  # 0 + 2 + 4

    def test_norm_exactly_one(self):
        s = new_basis_state(4, [1, 0, 1, 0])
        assert np.sum(np.abs(s.amp) ** 2) == 1.0

    def test_capacity_bounds(self):
        for build in (lambda: new_basis_state(0, []), lambda: new_basis_state(27, [0] * 27),
                      lambda: SpinModel(0), lambda: SpinModel(27), lambda: StateVector(0), lambda: StateVector(27)):
            with pytest.raises(CapacityError):
                build()

    def test_wrong_bits(self):
        with pytest.raises(ValueError):
            new_basis_state(2, [0])
        with pytest.raises(ValueError):
            new_basis_state(2, [0, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_amplitudes_rejected(self, bad):
        # NaN compares False against the norm tolerance, so it needs its own check
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            StateVector(1, [bad, 0.0])

    @pytest.mark.parametrize("amp, message", [
        ([1.0, 0.0, 0.0], "amplitude array must have shape (2,), got (3,)"),
        ([[1.0, 0.0]], "amplitude array must have shape (2,), got (1, 2)"),
        ([0.5, 0.5], "state is not normalized: |amp| = 0.7071067811865476"),
        ([1 + 1e-6, 0.0], "state is not normalized: |amp| = 1.000001"),
    ])
    def test_bad_amplitude_arrays_rejected(self, amp, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StateVector(1, amp)

    def test_non_finite_norm_rejected(self):
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="not finite"):
                StateVector(1, [1e200, 0.0])

    def test_huge_amplitudes_raise_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                StateVector(1, [1e200, 0.0])

    def test_a_register_is_copied_once_and_checked_in_place(self):
        # L = 18 is 4 MiB; beside its one copy the constructor holds a few small objects
        amp = random_registers(np.random.default_rng(18), (1 << 18,))
        assert peak_bytes(lambda: StateVector(18, amp)) <= amp.nbytes + 4096
        real = np.abs(amp) / np.linalg.norm(np.abs(amp))  # a float64 input is converted, which is its one copy
        assert peak_bytes(lambda: StateVector(18, real)) <= amp.nbytes + 4096
        s = StateVector(18, real[::-1])
        assert s.amp.flags.c_contiguous and s.amp.flags.owndata and np.array_equal(s.amp, real[::-1])

    def test_norm_holds_no_register_sized_temporary(self):
        s = StateVector(18, random_registers(np.random.default_rng(19), (1 << 18,)))
        assert peak_bytes(s.norm) < s.amp.nbytes / 16


class TestGateApplication:
    def test_identity_leaves_state(self):
        rng = np.random.default_rng(1)
        amp = rng.normal(size=8) + 1j * rng.normal(size=8)
        amp /= np.linalg.norm(amp)
        s = StateVector(3, amp)
        s.apply_gate(2, np.eye(2))
        assert np.allclose(s.amp, amp, atol=1e-15)

    def test_x_gate_on_up(self):
        s = new_basis_state(1, [0]).apply_gate(1, GATE_X)
        assert np.allclose(s.amp, [1 / SQ2, 1j / SQ2], atol=1e-15)

    def test_ybar_gate_on_up(self):
        s = new_basis_state(1, [0]).apply_gate(1, GATE_YB)
        assert np.allclose(s.amp, [1 / SQ2, 1 / SQ2], atol=1e-15)

    def test_non_unitary_rejected_with_deviation(self):
        with pytest.raises(UnitarityError, match="deviation"):
            new_basis_state(1, [0]).apply_gate(1, np.array([[1, 0], [0, 1.1]]))

    def test_gates_on_distinct_qubits_commute(self):
        rng = np.random.default_rng(7)
        amp = rng.normal(size=16) + 1j * rng.normal(size=16)
        amp /= np.linalg.norm(amp)
        a = StateVector(4, amp).apply_gate(1, GATE_X).apply_gate(3, GATE_YB)
        b = StateVector(4, amp).apply_gate(3, GATE_YB).apply_gate(1, GATE_X)
        assert np.allclose(a.amp, b.amp, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        amp = rng.normal(size=32) + 1j * rng.normal(size=32)
        amp /= np.linalg.norm(amp)
        s = StateVector(5, amp)
        for j in (1, 3, 5):
            s.apply_gate(j, GATE_X)
        assert abs(s.norm() - 1.0) < 1e-12


class TestExpectations:
    def test_up_eigenstate(self):
        obs = new_basis_state(2, [0, 0]).observables()
        assert obs.sz[0] == pytest.approx(0.5, abs=1e-12)

    def test_plus_eigenstate_of_x(self):
        obs = new_basis_state(2, [0, 0]).apply_gate(1, np.array([[1, 1], [1, -1]]) / SQ2).observables()
        assert obs.sx[0] == pytest.approx(0.5, abs=1e-12)
        assert obs.sz[1] == pytest.approx(0.5, abs=1e-12)

    def test_equatorial_state(self):
        obs = StateVector(1, np.array([1, 1j]) / SQ2).observables()
        assert obs.sz[0] == pytest.approx(0.0, abs=1e-12)
        assert obs.sy[0] == pytest.approx(0.5, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            amp = rng.normal(size=8) + 1j * rng.normal(size=8)
            amp /= np.linalg.norm(amp)
            obs = StateVector(3, amp).observables()
            for values in (obs.sx, obs.sy, obs.sz):
                assert np.all(np.abs(values) <= 0.5 + 1e-12)


class TestObservables:
    @pytest.mark.parametrize("L", range(1, 7))
    def test_matches_expect_and_norm_on_random_states(self, L):
        # the expectations against dense S^a_j from reference.py, which shares no kernel with observables_of
        rng = np.random.default_rng(300 + L)
        spins = dense_spins(L)
        for _ in range(10):
            amp = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
            amp /= np.linalg.norm(amp)
            s = StateVector(L, amp)
            obs = s.observables(t=1.25)
            expected = expectations(amp, spins)
            for j in range(1, L + 1):
                assert abs(obs.sx[j - 1] - expected[j, "x"]) <= 1e-15
                assert abs(obs.sy[j - 1] - expected[j, "y"]) <= 1e-15
                assert abs(obs.sz[j - 1] - expected[j, "z"]) <= 1e-15
            assert abs(obs.norm - s.norm()) <= 1e-15
            assert np.array_equal(obs.q, 0.5 - obs.sz)
            assert obs.t == 1.25

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(L=st.integers(1, 6), k=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_expect_for_every_state(self, L, k, seed):
        rng = np.random.default_rng(seed)
        amp = rng.normal(size=(k, 1 << L)) + 1j * rng.normal(size=(k, 1 << L))
        amp /= np.linalg.norm(amp, axis=1, keepdims=True)
        t = 0.5 * np.arange(k)
        obs = observables_of(amp, t)
        for name in ("sx", "sy", "sz", "q"):
            assert getattr(obs, name).shape == (k, L)
        assert obs.norm.shape == (k,) and obs.t is t
        spins = dense_spins(L)
        for i in range(k):
            s = StateVector(L, amp[i])
            expected = expectations(amp[i], spins)
            for j in range(1, L + 1):
                assert abs(obs.sx[i, j - 1] - expected[j, "x"]) <= 1e-15
                assert abs(obs.sy[i, j - 1] - expected[j, "y"]) <= 1e-15
                assert abs(obs.sz[i, j - 1] - expected[j, "z"]) <= 1e-15
            assert abs(obs.norm[i] - s.norm()) <= 1e-15
        assert np.array_equal(obs.q, 0.5 - obs.sz)

    @pytest.mark.parametrize("L", range(1, 13))
    @pytest.mark.parametrize("lead", [(), (0,), (3,), (2, 3)])
    def test_matches_reduced_density_matrices(self, L, lead, monkeypatch):
        # an oracle sharing no code with the kernel, past the sizes dense S^a_j reach and at odd L;
        # at a tile of 2^4 amplitudes, L = 5..12 read the grid in many transposed blocks
        amp = random_registers(np.random.default_rng(700 + L), lead + (1 << L,))
        for tile in (state._TILE, 1 << 4):
            monkeypatch.setattr(state, "_TILE", tile)
            obs = observables_of(amp, 0.0)
            for name in ("sx", "sy", "sz", "q"):
                assert getattr(obs, name).shape == lead + (L,)
            assert np.shape(obs.norm) == lead
            for idx in np.ndindex(lead):
                expected = reduced_expectations(amp[idx])
                for j in range(1, L + 1):
                    assert abs(obs.sx[idx][j - 1] - expected[j, "x"]) <= 1e-15
                    assert abs(obs.sy[idx][j - 1] - expected[j, "y"]) <= 1e-15
                    assert abs(obs.sz[idx][j - 1] - expected[j, "z"]) <= 1e-15
                assert abs(obs.norm[idx] - expected["norm"]) <= 1e-15
            assert np.array_equal(obs.q, 0.5 - obs.sz)

    @pytest.mark.parametrize("L", range(1, 12))
    def test_batch_rows_are_bitwise_one_state_calls(self, L, monkeypatch):
        # the in-place path reads amp[None] and StateVector.observables reads amp: both must give the same bytes,
        # also when the grid is read in many transposed blocks (a tile of 2^4 amplitudes)
        amp = random_registers(np.random.default_rng(800 + L), (4, 1 << L))
        for tile in (state._TILE, 1 << 4):
            monkeypatch.setattr(state, "_TILE", tile)
            obs = observables_of(amp, 0.0)
            for i in range(len(amp)):
                one = observables_of(amp[i], 0.0)
                for name in ("sx", "sy", "sz", "q", "norm"):
                    assert np.array_equal(getattr(obs, name)[i], getattr(one, name))

    def test_holds_one_transposed_copy(self):
        # one tile of scratch: the whole register at L = 16, a quarter of it at L = 18
        for L in (16, 18):
            amp = random_registers(np.random.default_rng(L), (1 << L,))
            assert peak_bytes(lambda: observables_of(amp, 0.0)) <= 1.1 * state._TILE * amp.itemsize


class TestQubitValues:
    def test_ground_state(self):
        obs = new_basis_state(2, [0, 0]).observables()
        assert np.allclose(obs.q, [0.0, 0.0], atol=1e-12)

    def test_up_down(self):
        obs = new_basis_state(2, [0, 1]).observables()
        assert np.allclose(obs.q, [0.0, 1.0], atol=1e-12)

    def test_uniform_state(self):
        obs = StateVector(2, np.full(4, 0.5)).observables()
        assert np.allclose(obs.q, [0.5, 0.5], atol=1e-12)

    def test_q_relation_holds(self):
        rng = np.random.default_rng(5)
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        amp /= np.linalg.norm(amp)
        obs = StateVector(2, amp).observables(t=3.5)
        assert np.allclose(obs.q, 0.5 - obs.sz, atol=1e-15)
        assert obs.t == 3.5


class TestInnerProductFidelity:
    def test_self_fidelity(self):
        s = new_basis_state(2, [0, 0])
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(new_basis_state(2, [0, 0]), new_basis_state(2, [1, 1])) == 0.0

    def test_phase_insensitive(self):
        rng = np.random.default_rng(9)
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        amp /= np.linalg.norm(amp)
        a = StateVector(2, amp)
        b = StateVector(2, amp * np.exp(0.7j))
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="qubit counts differ"):
            fidelity(new_basis_state(1, [0]), new_basis_state(2, [0, 0]))

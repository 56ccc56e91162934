"""Integrator tests: factor algebra, step plans, convergence, instrumentation."""

import copy
import dataclasses
import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsim.propagator import (
    ElementaryOperation,
    PulseSequence,
    SpinModel,
    StepPlan,
    auto_substeps,
    counters,
    evolve_eo,
    global_half_pi_rotation,
    run_sequence,
    symmetrized_step,
)
from spinsim import propagator
from spinsim.propagator import _axis_multiplier, _gate_blocks, _global_gate
from spinsim.pulses import grover_program, make_profile
from spinsim.reference import (dense_propagator, embed_single, grover_iterate_check, hamiltonian, ideal_gate,
                               pairs_step_oracle)
from spinsim.state import StateVector, fidelity, new_basis_state, spin_z_values

TWO_PI = 2.0 * math.pi
ROT_X = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)  # exp(+i (pi/2) Sx)
ROT_Y = np.array([[1, -1], [1, 1]]) / math.sqrt(2)  # exp(-i (pi/2) Sy)


def random_state(L, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    amp /= np.linalg.norm(amp)
    return StateVector(L, amp)


def random_two_spin_model(seed, with_rf=True):
    rng = np.random.default_rng(seed)
    m = SpinModel(2)
    for ax in "xyz":
        m.set_coupling(1, 2, ax, rng.uniform(-1, 1))
        for j in (1, 2):
            m.set_static(j, ax, rng.uniform(-1, 1))
            if with_rf:
                m.set_rf(j, ax, rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.0), rng.uniform(0, TWO_PI))
    return m


def random_driven_model(L, seed):
    """Random pairs, static fields and RF drives on all three axes, every drive at its own frequency."""
    rng = np.random.default_rng(seed)
    m = SpinModel(L)
    freqs = iter(rng.permutation(np.linspace(0.3, 2.0, 3 * L)))
    for ax in "xyz":
        for j in range(1, L + 1):
            m.set_static(j, ax, rng.uniform(-1, 1))
            m.set_rf(j, ax, rng.uniform(-0.5, 0.5), float(next(freqs)), rng.uniform(0, TWO_PI))
            for k in range(j + 1, L + 1):
                m.set_coupling(j, k, ax, rng.uniform(-1, 1))
    return m


def layout_model(L, coupled, static, rf, rng):
    """All pairs coupled on the ``coupled`` axes, static fields and RF drives on theirs, random values from ``rng``."""
    m = SpinModel(L)
    for ax in coupled:
        for j in range(1, L + 1):
            for k in range(j + 1, L + 1):
                m.set_coupling(j, k, ax, rng.uniform(-1, 1))
    for j in range(1, L + 1):
        for ax in static:
            m.set_static(j, ax, rng.uniform(-1, 1))
        for ax in rf:
            m.set_rf(j, ax, rng.uniform(-0.5, 0.5), rng.uniform(0.3, 2.0), rng.uniform(0, TWO_PI))
    return m


def z_step(s, m, theta, t):
    """One step of a z-only model over [t - theta/2, t + theta/2]: the diagonal factor at t."""
    return symmetrized_step(s, m, theta, t - 0.5 * theta)


class TestDiagonalFactor:
    """The diagonal z factor, run as one step of a z-only model."""

    def test_all_zero_is_identity(self):
        s = random_state(2, 0)
        ref = s.amp.copy()
        z_step(s, SpinModel(2), 0.7, 3.0)
        assert np.array_equal(s.amp, ref)

    def test_pair_phase_on_uniform(self):
        # J = -1e-6 for a time giving theta*J = -pi: phases -/+ pi/4
        m = SpinModel(2).set_coupling(1, 2, "z", -1e-6)
        s = StateVector(2, np.full(4, 0.5))
        z_step(s, m, math.pi * 1e6, 0.0)
        expected = 0.5 * np.exp(1j * np.pi / 4 * np.array([-1, 1, 1, -1]))
        assert np.allclose(s.amp, expected, atol=1e-12)

    def test_single_field_phase(self):
        m = SpinModel(1).set_static(1, "z", 1.0)
        s = StateVector(1, np.array([1, 1j]) / math.sqrt(2))
        z_step(s, m, math.pi, 0.0)
        # exp(+i*pi*h*s): up gains i, down gains -i
        assert np.allclose(s.amp * math.sqrt(2), [1j, 1j * (-1j)], atol=1e-12)

    def test_sinusoid_uses_midpoint_argument(self):
        m = SpinModel(1).set_rf(1, "z", 0.4, 1.3, 0.2)
        s = StateVector(1)
        t_mid = 2.7
        z_step(s, m, 0.5, t_mid)
        h = 0.4 * math.sin(1.3 * t_mid + 0.2)
        assert s.amp[0] == pytest.approx(np.exp(1j * 0.5 * h * 0.5), abs=1e-15)

    @pytest.mark.parametrize("L", [3, 4, 5, 6])
    def test_z_sweep_matches_reference_diagonal(self, L):
        # qubits 1 and 2 share one (f, phi); every other driven qubit has a
        # frequency of its own
        rng = np.random.default_rng(300 + L)
        m = SpinModel(L)
        for j in range(1, L + 1):
            m.set_static(j, "z", rng.uniform(-1, 1))
            for k in range(j + 1, L + 1):
                if rng.random() < 0.6:
                    m.set_coupling(j, k, "z", rng.uniform(-1, 1))
        m.set_rf(1, "z", 0.3, 1.1, 0.4).set_rf(2, "z", -0.2, 1.1, 0.4)
        for j in range(3, L + 1):
            m.set_rf(j, "z", rng.uniform(-0.5, 0.5), 1.3 + 0.2 * j, rng.uniform(0, TWO_PI))
        theta, t = 0.37, 2.9
        h = hamiltonian(m, t)
        assert np.array_equal(h, np.diag(np.diag(h)))
        s = random_state(L, 310 + L)
        expected = np.exp(-1j * theta * np.diag(h).real) * s.amp
        z_step(s, m, theta, t)
        assert np.max(np.abs(s.amp - expected)) < 1e-13


class TestAxisPhase:
    """The coupling multiplier of ``_axis_multiplier`` against exp(i * the directly summed phase)."""

    @staticmethod
    def direct_sum(L, coupling, field):
        s = [spin_z_values(L, j) for j in range(1, L + 1)]
        phase = np.zeros(1 << L)
        for j in range(L):
            phase += field[j] * s[j]
            for k in range(j + 1, L):
                phase += coupling[j, k] * s[j] * s[k]
        return phase

    def assert_matches_direct_sum(self, L, coupling, field):
        got = _axis_multiplier(L, coupling, field)
        assert got.shape == (1 << L,) and got.dtype == np.complex128
        assert np.max(np.abs(got - np.exp(1j * self.direct_sum(L, coupling, field)))) < 1e-12

    @pytest.mark.parametrize("L", range(1, 11))
    def test_matches_direct_sum_for_random_models(self, L):
        rng = np.random.default_rng(100 + L)
        for _ in range(5):
            # sparse random couplings leave some qubits uncoupled
            mask = np.triu(rng.random((L, L)) < 0.4, 1)
            upper = np.where(mask, rng.uniform(-2, 2, (L, L)), 0.0)
            field = np.where(rng.random(L) < 0.7, rng.uniform(-2, 2, L), 0.0)
            self.assert_matches_direct_sum(L, upper + upper.T, field)

    @pytest.mark.parametrize("L", range(2, 11))
    def test_single_far_pair_without_fields(self, L):
        coupling = np.zeros((L, L))
        coupling[0, L - 1] = coupling[L - 1, 0] = 0.73  # the pair (1, L)
        self.assert_matches_direct_sum(L, coupling, np.zeros(L))

    @pytest.mark.parametrize("L", range(1, 11))
    def test_fields_only_and_all_zero(self, L):
        rng = np.random.default_rng(200 + L)
        self.assert_matches_direct_sum(L, np.zeros((L, L)), rng.uniform(-1, 1, L))
        assert np.array_equal(_axis_multiplier(L, np.zeros((L, L)), np.zeros(L)), np.ones(1 << L))

    @pytest.mark.parametrize("L", [10, 14])
    def test_unit_modulus_with_every_pair_coupled(self, L):
        # a product of unit phase factors per entry drifts off the unit circle only by rounding
        rng = np.random.default_rng(300 + L)
        upper = np.triu(rng.uniform(-2, 2, (L, L)), 1)
        got = _axis_multiplier(L, upper + upper.T, rng.uniform(-2, 2, L))
        assert np.max(np.abs(np.abs(got) - 1.0)) <= 1e-14


class TestFactoredMultiplier:
    """``_multiplier`` above one tile, applied by ``_multiply``, against the flat ``_axis_multiplier``."""

    @staticmethod
    def couplings(L, rng, kind):
        upper = np.triu(rng.uniform(-2, 2, (L, L)), 1)
        if kind == "sparse":  # a chain and one far pair: at L = 18 the last qubit couples to no low qubit
            upper = np.where(np.eye(L, k=1) > 0, upper, 0.0)
            upper[2, 16] = 0.61
        if kind in ("fields", "zero"):
            upper[...] = 0.0
        field = np.zeros(L) if kind == "zero" else rng.uniform(-2, 2, L)
        return upper + upper.T, field

    @pytest.mark.parametrize("kind", ["all pairs", "sparse", "fields", "zero"])
    @pytest.mark.parametrize("L", [17, 18])
    def test_matches_the_flat_multiplier(self, L, kind):
        coupling, field = self.couplings(L, np.random.default_rng(1000 + L), kind)
        mult = propagator._multiplier(L, coupling, field)
        table, rows, cols = mult
        assert table.size == propagator._TILE and rows.shape == cols.shape == (1 << (L - 16), 256)
        got = np.ones(1 << L, dtype=np.complex128)
        propagator._multiply(got, mult)
        if kind == "zero":
            assert np.array_equal(got, np.ones(1 << L))
        assert np.max(np.abs(got - _axis_multiplier(L, coupling, field))) < 1e-13

    @pytest.mark.parametrize("L", [1, 9, 16])
    def test_up_to_one_tile_it_is_the_flat_multiplier(self, L):
        coupling, field = self.couplings(L, np.random.default_rng(1100 + L), "all pairs")
        table, rows, cols = propagator._multiplier(L, coupling, field)
        assert rows is None and cols is None
        assert np.array_equal(table, _axis_multiplier(L, coupling, field))


class TestGlobalRotation:
    def test_rotation_then_inverse(self):
        s = random_state(3, 1)
        ref = s.amp.copy()
        global_half_pi_rotation(s, "x")
        global_half_pi_rotation(s, "x", inverse=True)
        assert np.allclose(s.amp, ref, atol=1e-12)

    def test_x_rotation_on_all_up(self):
        s = new_basis_state(2, [0, 0])
        global_half_pi_rotation(s, "x")
        assert np.allclose(s.amp, 0.5 * np.array([1, 1j, 1j, -1]), atol=1e-12)


class TestGlobalGate:
    """The mixed global gate pass against the dense product of single-qubit embeddings.

    Above the lowest four qubits each gate is split into real blocks and row
    scalings (``_gate_blocks`` with the targets 0), so every case also runs
    the real kernel and, for gates with phases, the row scalings."""

    GATES = {
        "Rx": ROT_X,
        "Rx+": ROT_X.conj().T,
        "Ry": ROT_Y,
        "Ry+": ROT_Y.conj().T,
        "Ry+Rx": ROT_Y.conj().T @ ROT_X,  # the fused gate between the first y and the x factor
    }

    @staticmethod
    def parts(g, L):
        # every gate here is in SU(2), fixed by its first row
        return _gate_blocks(g[0, 0], g[0, 1], L)

    @staticmethod
    def oracle(g, L, amp):
        # every row of amp is a register; applying the factors one by one is
        # applying their product, without building a 2^L x 2^L product at L=10
        rows = amp.reshape(-1, 1 << L)
        for j in range(1, L + 1):
            rows = rows @ embed_single(g, j, L).T
        return rows.reshape(amp.shape)

    @pytest.mark.parametrize("gate", sorted(GATES))
    @pytest.mark.parametrize("L", range(1, 11))  # 1 to 3 blocks, L a multiple of 4 or not
    def test_matches_dense_oracle(self, L, gate):
        g = self.GATES[gate]
        rng = np.random.default_rng(L)
        amp = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
        expected = self.oracle(g, L, amp)
        _global_gate(amp, *self.parts(g, L))
        assert np.max(np.abs(amp - expected)) < 1e-13

    @pytest.mark.parametrize("L", range(1, 11))
    def test_per_qubit_gates_with_one_set_per_register(self, L):
        # random SU(2) gates, different on every qubit: block b must be
        # kron(g_hi-1, ..., g_lo) in bit order
        rng = np.random.default_rng(500 + L)
        q = rng.normal(size=(2, L)) + 1j * rng.normal(size=(2, L))
        alpha, beta = q / np.linalg.norm(q, axis=0)
        amp = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
        expected = amp.copy()
        for j in range(L):
            g = np.array([[alpha[j], beta[j]], [-np.conj(beta[j]), np.conj(alpha[j])]])
            expected = embed_single(g, j + 1, L) @ expected
        _global_gate(amp, *_gate_blocks(alpha, beta, L))
        assert np.max(np.abs(amp - expected)) < 1e-13

    @pytest.mark.parametrize("L", [3, 9])  # one block and three blocks
    def test_updates_the_callers_array_in_place(self, L):
        s = random_state(L, 30 + L)
        amp = s.amp
        expected = self.oracle(ROT_Y, L, amp.copy())
        global_half_pi_rotation(s, "y")
        assert s.amp is amp
        assert np.max(np.abs(amp - expected)) < 1e-13
        # one row of a batch: that row changes, its neighbours do not
        rng = np.random.default_rng(L)
        batch = rng.normal(size=(3, 1 << L)) + 1j * rng.normal(size=(3, 1 << L))
        before = batch.copy()
        _global_gate(batch[1], *self.parts(ROT_X.conj().T, L))
        assert np.array_equal(batch[[0, 2]], before[[0, 2]])
        assert np.max(np.abs(batch[1] - self.oracle(ROT_X.conj().T, L, before[1]))) < 1e-13

    def test_rejects_a_strided_operand(self):
        amp = np.zeros((4, 8), dtype=complex)
        with pytest.raises(ValueError, match="contiguous"):
            _global_gate(amp[:, ::2], *self.parts(ROT_X, 3))

    def test_rejects_a_batch_of_registers(self):
        # a pass acts on one register; a contiguous (3, dim) batch is refused
        amp = np.zeros((3, 8), dtype=complex)
        with pytest.raises(ValueError, match="one C-contiguous register"):
            _global_gate(amp, *self.parts(ROT_X, 3))


class TestTiledGlobalGate(TestGlobalGate):
    """Every ``TestGlobalGate`` case again with tiles of 16 amplitudes.

    From L = 5 a register is many tiles, only the complex block runs inside
    them, every real block runs in place over column chunks (several of them
    from L = 5), and the last block may have fewer than four qubits. The GEMM
    shapes differ from one tile's, so results agree with it to rounding."""

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(propagator, "_TILE", 1 << 4)


def quarter_turn_products(n):
    """(alpha, beta) of every product of up to n of the quarter-turns in _TURN."""
    products = [(1.0 + 0j, 0j)]
    for k in range(n):
        for alpha, beta in products[-4**k:]:  # the products of k turns
            for a, b in propagator._TURN.values():
                products.append((a * alpha - b * np.conj(beta), a * beta + b * np.conj(alpha)))
    return np.array(products).T


def z_phase(w):
    """Z(w) = diag(e^{iw}, e^{-iw}) for each entry of w."""
    zero = np.zeros_like(w)
    return np.stack([np.stack([np.exp(1j * w), zero], -1), np.stack([zero, np.exp(-1j * w)], -1)], -2)


class TestSplit:
    """_split: every SU(2) gate is c Z(u) R Z(v), R real, c in {1, i}, on the targets where g allows."""

    @staticmethod
    def gates(alpha, beta):
        return np.stack([np.stack([alpha, beta], -1), np.stack([-np.conj(beta), np.conj(alpha)], -1)], -2)

    def assert_rebuilds(self, alpha, beta, u0=0.0, v0=0.0):
        c, r, u, v = propagator._split(alpha, beta, u0, v0)
        assert r.dtype == np.float64 and np.all((c == 1) | (c == 1j))
        rebuilt = c[..., None, None] * z_phase(u) @ r @ z_phase(v)
        assert np.max(np.abs(rebuilt - self.gates(alpha, beta))) < 1e-15
        return u, v

    def test_random_gates(self):
        rng = np.random.default_rng(600)
        q = rng.normal(size=(2, 500)) + 1j * rng.normal(size=(2, 500))
        alpha, beta = q / np.linalg.norm(q, axis=0)
        u, v = self.assert_rebuilds(alpha, beta)
        # the targets 0 fit no random gate: u and v are its own phases, reduced mod pi/2
        assert np.all(np.abs(np.concatenate([u, v])) <= np.pi / 4 + 1e-15)
        # targets its own phases moved by quarter turns fit, and are kept
        u0, v0 = u + rng.integers(-1, 2, u.size) * np.pi / 2, v + rng.integers(-1, 2, v.size) * np.pi / 2
        assert all(np.array_equal(x, x0) for x, x0 in zip(self.assert_rebuilds(alpha, beta, u0, v0), (u0, v0)))

    @pytest.mark.parametrize("zero", ["alpha", "beta"])
    def test_diagonal_and_off_diagonal_gates(self, zero):
        w = np.linspace(-4.0, 4.0, 41)
        alpha, beta = (np.zeros(41), np.exp(1j * w)) if zero == "alpha" else (np.exp(1j * w), np.zeros(41))
        self.assert_rebuilds(alpha, beta)
        # the phase that alpha = 0 leaves free is u + v, beta = 0 leaves u - v:
        # any target fits that matches the other one
        u0 = np.full(41, 0.3)
        v0 = u0 - w if zero == "alpha" else w - u0
        u, v = self.assert_rebuilds(alpha, beta, u0, v0)
        assert np.array_equal(u, u0) and np.array_equal(v, v0)

    def test_every_product_of_quarter_turns(self):
        alpha, beta = quarter_turn_products(4)
        assert alpha.size == 1 + 4 + 16 + 64 + 256
        self.assert_rebuilds(alpha, beta)
        # one turn about x or y (or none) is u, v = +-pi/4 or 0 mod pi/2
        u, v = self.assert_rebuilds(alpha[:5], beta[:5])
        for w in (u, v):
            assert np.allclose(np.cos(4 * w) ** 2, 1.0, atol=1e-15)


class TestFoldedPasses:
    """The z phases of the benchmark's passes fold into the multipliers: no vector and no visit is added."""

    L = 8

    @classmethod
    def all_pairs(cls, rng):
        model = SpinModel(cls.L)
        for ax in "xyz":
            for j in range(1, cls.L + 1):
                for k in range(j + 1, cls.L + 1):
                    model.set_coupling(j, k, ax, rng.uniform(-1, 1))
                model.set_static(j, ax, rng.uniform(-1, 1))
        return model

    @classmethod
    def chain(cls, rng, drive):
        model = SpinModel(cls.L)
        for j in range(1, cls.L + 1):
            if j < cls.L:
                model.set_coupling(j, j + 1, "z", rng.uniform(-0.05, 0.05))
            model.set_static(j, "z", 1 + j / cls.L)
            model.set_rf(j, drive, rng.uniform(0.05, 0.15), 1 + j / cls.L)
        return model

    @staticmethod
    def row_scalings(prog, t_mid):
        # each row scaling counts once per substep, also one that does not vary
        return len(t_mid) * sum(w is not None for _, *rows in prog.pass_parts(t_mid) for w in rows)

    @pytest.mark.parametrize("name, vectors, counts", [
        ("all pairs", 3, {"diagonal_sweeps": 5, "global_rotations": 4, "gate_kernel_calls": 32,
                          "pair_terms": 140, "field_terms": 40}),
        ("chain x", 1, {"diagonal_sweeps": 2, "global_rotations": 1, "gate_kernel_calls": 8,
                        "pair_terms": 14, "field_terms": 24}),
        ("chain y", 1, {"diagonal_sweeps": 2, "global_rotations": 1, "gate_kernel_calls": 8,
                        "pair_terms": 14, "field_terms": 32}),
    ])
    def test_vectors_counts_and_no_row_scaling(self, name, vectors, counts):
        rng = np.random.default_rng(700)
        model = self.all_pairs(rng) if name == "all pairs" else self.chain(rng, name[-1])
        prog = propagator._StepProgram(model, 0.01)
        assert len({id(mult) for mult in prog.gaps if mult is not None}) == vectors
        assert prog.counts == counts
        assert self.row_scalings(prog, (np.arange(40) + 0.5) * 0.01) == 0

    def test_a_drive_at_a_zero_of_its_sine_still_folds(self):
        # the chain's x drive phased so that its field is 0 at the first
        # midpoint, where its pass is the identity and fixes no phase
        model = self.chain(np.random.default_rng(720), "x")
        delta = 0.01
        model.rf_phase[:, 0] = -model.rf_freq[:, 0] * delta / 2
        prog = propagator._StepProgram(model, delta)
        assert self.row_scalings(prog, (np.arange(40) + 0.5) * delta) == 0

    def test_varying_phases_are_row_scalings_not_sweeps(self):
        # RF on the coupled z axis: its factors sit in the one pass between the
        # z multipliers with phases that vary, so every substep row-scales on
        # both sides of it; the counters stay logical visits
        model = SpinModel(self.L).set_coupling(1, 2, "z", 0.3)
        for j in range(1, self.L + 1):
            model.set_rf(j, "z", 0.3, 1.1 + 0.1 * j, 0.2)
        prog = propagator._StepProgram(model, 0.01)
        assert self.row_scalings(prog, (np.arange(40) + 0.5) * 0.01) == 80
        counters.reset()
        evolve_eo(random_state(self.L, 710), ElementaryOperation("e", model, 0.4), 0.0, plan=StepPlan(40, 0.4))
        assert (counters.diagonal_sweeps, counters.global_rotations) == (80, 40)

    @pytest.mark.parametrize("amplitude", [1e-3, 1e-5, 1e-7])
    def test_a_weak_drive_above_the_lowest_block_matches_the_dense_propagator(self, amplitude):
        # a z-coupled chain with one weak x drive, on qubit 6: its pass gates lie near their fold
        # targets without meeting them, so they fold only within rounding. The errors are at most
        # 1.7e-11; folding within 1e-6 instead gives 1.6e-9 to 1.6e-5, 16 to 1.6e5 times the bound
        model = SpinModel(6).set_rf(6, "x", amplitude, 1.0)
        for j in range(1, 7):
            model.set_static(j, "z", 1 + j / 6)
            if j < 6:
                model.set_coupling(j, j + 1, "z", 0.05 * j)
        s = random_state(6, 760)
        exact = dense_propagator(model, 0.0, 0.5) @ s.amp
        evolve_eo(s, ElementaryOperation("e", model, 0.5), 0.0, StepPlan(400, 0.5))
        assert np.max(np.abs(s.amp - exact)) < 1e-10

    @pytest.mark.parametrize("L", [5, 6, 17])
    def test_a_chunk_steps_by_index_as_one_substep_at_a_time(self, L):
        # drives on every coupled axis: the chunk's parts vary per substep and
        # hold row scalings; indexing them gives the parts of each substep alone
        prog = propagator._StepProgram(random_driven_model(L, 730 + L), 0.01)
        t_mid = (np.arange(3) + 0.5) * 0.01
        parts = prog.pass_parts(t_mid)
        assert any(w is not None for _, *rows in parts for w in rows)
        by_index, one_at_a_time = random_state(L, 740 + L).amp, random_state(L, 740 + L).amp
        for i, t in enumerate(t_mid):
            prog.apply(by_index, parts, i)
            prog.apply(one_at_a_time, prog.pass_parts([t]), 0)
        assert np.array_equal(by_index, one_at_a_time)


class TestSymmetrizedStep:
    def test_z_only_model_is_exact(self):
        m = SpinModel(2).set_coupling(1, 2, "z", 0.8)
        m.set_static(1, "z", 1.0).set_static(2, "z", 0.25)
        s = random_state(2, 2)
        ref_in = s.copy()
        symmetrized_step(s, m, 7.3, 0.0)
        u = dense_propagator(m, 0.0, 7.3)
        assert np.max(np.abs(s.amp - u @ ref_in.amp)) < 1e-12

    def test_single_axis_constant_is_exact(self):
        # X1 instruction of the idealized table: only h0[1][x] = +1, tau = pi/2
        m = SpinModel(2).set_static(1, "x", 1.0)
        s = new_basis_state(2, [0, 0])
        symmetrized_step(s, m, math.pi / 2, 0.0)
        u = dense_propagator(m, 0.0, math.pi / 2)
        expected = u @ new_basis_state(2, [0, 0]).amp
        assert np.max(np.abs(s.amp - expected)) < 1e-12
        # equals the quarter-turn gate on qubit 1
        gate = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)
        assert np.allclose(s.amp, np.kron(np.eye(2), gate) @ new_basis_state(2, [0, 0]).amp, atol=1e-12)

    def test_local_error_third_order(self):
        # per-step error drops ~8x per delta halving; measured against the oracle
        m = random_two_spin_model(42)
        t0 = 0.4
        psi0 = random_state(2, 5)
        errors = []
        for delta in (0.2, 0.1, 0.05):
            s = psi0.copy()
            symmetrized_step(s, m, delta, t0)
            u = dense_propagator(m, t0, delta)
            errors.append(np.linalg.norm(s.amp - u @ psi0.amp))
        r1 = errors[0] / errors[1]
        r2 = errors[1] / errors[2]
        assert 6.0 < r1 < 10.0
        assert 6.0 < r2 < 10.0

    def test_global_error_second_order(self):
        # fixed interval, halving delta: l2 error vs the oracle drops ~4x
        m = random_two_spin_model(42)
        tau = 0.75
        psi0 = random_state(2, 6)
        u = dense_propagator(m, 0.0, tau, tol=1e-9)
        exact = u @ psi0.amp
        errors = []
        for steps in (8, 16, 32, 64):
            s = psi0.copy()
            delta = tau / steps
            for n in range(steps):
                symmetrized_step(s, m, delta, n * delta)
            errors.append(np.linalg.norm(s.amp - exact))
        for a, b in zip(errors, errors[1:]):
            assert 3.3 < a / b < 4.7


# Passes per substep, derived from the compile rule (module docstring): a
# static field stays in the multiplier Ca of a coupled axis a, and in z's
# even when z is uncoupled; every other field folds into a pass.
# - "-" (none coupled) and z: every turn cancels, so no field: 0 passes;
#   static x and y fields make one pass (Rx+ y Rx Ry+ x Ry Rx+ y Rx), and
#   so does z RF (its two factors merge across the cancelled turns).
# - x and xz: Ry+ before Cx and Ry after it: 2 whatever the fields.
# - y and yz: Rx+ before the first Cy and Rx after the second: 2; a static
#   x field puts Rx Ry+ x Ry Rx+ between the two Cy: 3.
# - xy and xyz: a pass before each of Cy, Cx, Cy and one after: 4.
def passes_table():
    """(coupled axes, field, passes) of each cell of the passes-per-substep table in the module docstring."""
    lines = propagator.__doc__.splitlines()
    head = next(i for i, line in enumerate(lines) if line.split()[:3] == ["field", "/", "coupled"])
    axes, cases = lines[head].split()[3:], []
    for line in lines[head + 1:lines.index("", head)]:
        words = line.split()
        field, cells = " ".join(words[:-len(axes)]), words[-len(axes):]
        cases += [(ax, field, int(n)) for ax, n in zip(axes, cells)]
    return cases


PASSES_TABLE = passes_table()
assert {(c, f) for c, f, _ in PASSES_TABLE} == {(c, f) for c in ("-", "x", "y", "z", "xy", "xz", "yz", "xyz")
                                                 for f in ("none", "static z", "static xyz", "z RF")}


class TestStepLayouts:
    """One step against the dense product of axis factors, and its global passes by coupled axes."""

    @staticmethod
    def axis_factor(model, a, theta, t):
        # exp(-i theta H_a(t)), H_a from the model's parameters on axis a only
        only = SpinModel(model.L)
        for arr, src in ((only.coupling, model.coupling), (only.static_field, model.static_field),
                         (only.rf_amp, model.rf_amp), (only.rf_freq, model.rf_freq),
                         (only.rf_phase, model.rf_phase)):
            arr[..., a] = src[..., a]
        w, v = np.linalg.eigh(hamiltonian(only, t))
        return v @ np.diag(np.exp(-1j * theta * w)) @ v.conj().T

    @classmethod
    def check_step(cls, model, seed):
        """One symmetrized_step against ez ey ex ey ez at the midpoint, within 1e-12."""
        delta, t = 0.23, 1.4
        t_mid = t + delta / 2
        ez, ey = (cls.axis_factor(model, a, delta / 2, t_mid) for a in (2, 1))
        product = ez @ ey @ cls.axis_factor(model, 0, delta, t_mid) @ ey @ ez
        s = random_state(model.L, seed)
        expected = product @ s.amp
        symmetrized_step(s, model, delta, t)
        assert np.max(np.abs(s.amp - expected)) < 1e-12

    # every axis left active is coupled and carries static and RF fields; z
    # always is. In application order z, Rx+, y, Rx, Ry+, x, Ry, Rx+, y, Rx, z
    # a pass sits before each coupled x or y multiplier and after the last
    # one, so x and y give 4; y alone gives 2 (Rx+ | Cy, Rx Ry+ Ry Rx+ cancel
    # to nothing, Cy | Rx), as does x alone (Rx+ Rx cancel, Ry+ | Cx | Ry,
    # Rx+ Rx cancel); with neither, the turns all cancel and z's RF factors
    # merge into the one pass between the two z multipliers.
    @pytest.mark.parametrize("x_active, y_active, passes", [
        (True, True, 4), (False, True, 2), (True, False, 2), (False, False, 1),
    ])
    def test_step_is_the_symmetric_product(self, x_active, y_active, passes):
        L = 3
        model = random_driven_model(L, 400 + 2 * x_active + y_active)
        for a, active in ((0, x_active), (1, y_active)):
            if not active:
                model.coupling[..., a] = model.static_field[..., a] = model.rf_amp[..., a] = 0.0
        counters.reset()
        self.check_step(model, 410)
        assert counters.global_rotations == passes

    @pytest.mark.parametrize("coupled, field, passes", sorted(PASSES_TABLE))
    def test_passes_per_substep_by_coupled_axes(self, coupled, field, passes):
        rng = np.random.default_rng(420)
        model = SpinModel(3)
        for ax in coupled.strip("-"):
            model.set_coupling(1, 2, ax, rng.uniform(-1, 1)).set_coupling(2, 3, ax, rng.uniform(-1, 1))
        for j in range(1, 4):
            for ax in {"static z": "z", "static xyz": "xyz"}.get(field, ""):
                model.set_static(j, ax, rng.uniform(-1, 1))
            if field == "z RF":
                model.set_rf(j, "z", rng.uniform(-0.5, 0.5), rng.uniform(0.3, 2.0), rng.uniform(0, TWO_PI))
        counters.reset()
        self.check_step(model, 430)
        assert counters.global_rotations == passes
        assert counters.gate_kernel_calls == 3 * passes
        prog = propagator._StepProgram(model, 0.23)
        assert (len(prog.passes), len(prog.gaps)) == (passes, passes + 1)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        L=st.integers(1, 6),
        coupled=st.sets(st.sampled_from("xyz")),
        static=st.sets(st.sampled_from("xyz")),
        rf=st.sets(st.sampled_from("xyz")),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_folded_step_property(self, L, coupled, static, rf, seed):
        # any coupled axes and any static and RF fields: one step is the
        # symmetric product of dense axis factors, and up to L = 4 evolve_eo
        # gives the same state by step matrices and in place. At L = 5 and 6
        # a pass has a real block above the lowest four qubits, whose z
        # phases either fold into the multipliers or become row scalings
        model = layout_model(L, coupled, static, rf, np.random.default_rng(seed))
        self.check_step(model, seed)
        if L > 4:
            return
        eo = ElementaryOperation("e", model, 0.5)
        psi0 = random_state(L, seed + 1)
        by_matrices, in_place = psi0.copy(), psi0.copy()
        evolve_eo(by_matrices, eo, 0.0, plan=StepPlan(5, eo.tau))
        with mock.patch.object(propagator, "_BATCH_MAX_DIM", 1):
            evolve_eo(in_place, eo, 0.0, plan=StepPlan(5, eo.tau))
        assert np.max(np.abs(by_matrices.amp - in_place.amp)) < 1e-12


class TestMergedMultipliers:
    """Adjacent multipliers of one axis merge: a gap holds at most one, and a z-only step is one multiply."""

    @staticmethod
    def model(L, axis, seed):
        # all pairs on one axis; the z-only model also has static z fields.
        # Either is a constant Hamiltonian on one axis, which one step
        # integrates exactly
        rng = np.random.default_rng(seed)
        model = SpinModel(L)
        for j in range(1, L + 1):
            for k in range(j + 1, L + 1):
                model.set_coupling(j, k, axis, rng.uniform(-1, 1))
            if axis == "z":
                model.set_static(j, "z", rng.uniform(-1, 1))
        return model

    @pytest.mark.parametrize("axis, gaps", [("z", 1), ("y", 3)])
    def test_step_matrices_match_the_dense_propagator(self, axis, gaps):
        # z: the two z multipliers meet in the step's one gap; y: Rx, Ry+,
        # Ry, Rx+ cancel between the two y multipliers, so they share the
        # middle gap of Rx+ | Cy | Rx
        model, delta = self.model(3, axis, 960), 0.37
        prog = propagator._StepProgram(model, delta)
        assert len(prog.gaps) == gaps and prog.counts["diagonal_sweeps"] == 1
        steps = prog.step_matrices(np.array([0.5 * delta]))
        assert np.max(np.abs(steps[0].T - dense_propagator(model, 0.0, delta))) < 1e-12

    @pytest.mark.parametrize("axis", ["z", "y"])
    def test_in_place_run_matches_the_dense_propagator(self, axis):
        L, tau = 6, 0.9
        model = self.model(L, axis, 970)
        s = random_state(L, 980)
        expected = dense_propagator(model, 0.0, tau) @ s.amp
        evolve_eo(s, ElementaryOperation("e", model, tau), 0.0, plan=StepPlan(4, tau))
        assert np.max(np.abs(s.amp - expected)) < 1e-12

    @pytest.mark.parametrize("L", [3, 6])  # step matrices, in place
    def test_a_z_only_step_is_one_sweep_per_substep(self, L):
        eo = ElementaryOperation("e", self.model(L, "z", 990), 0.9)
        counters.reset()
        evolve_eo(random_state(L, 991), eo, 0.0, plan=StepPlan(7, eo.tau))
        assert (counters.diagonal_sweeps, counters.global_rotations) == (7, 0)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        L=st.integers(1, 6),
        coupled=st.sets(st.sampled_from("xyz")),
        static=st.sets(st.sampled_from("xyz")),
        rf=st.sets(st.sampled_from("xyz")),
    )
    def test_gap_layout_property(self, L, coupled, static, rf):
        # any layout: each gap is one multiplier or None; the interior gaps,
        # between two passes, are never None; the two end gaps are both the
        # z multiplier, where z has one, or both None. One multiplier per
        # multiplied axis, however many gaps it occupies
        model = SpinModel(L)
        for ax in coupled:
            model.coupling[..., "xyz".index(ax)] = 0.3 * (1 - np.eye(L))
        for ax in static:
            model.static_field[:, "xyz".index(ax)] = 0.7
        for ax in rf:
            model.rf_amp[:, "xyz".index(ax)], model.rf_freq[:, "xyz".index(ax)] = 0.2, 1.3
        prog = propagator._StepProgram(model, 0.23)
        multiplied = {ax for ax in coupled if L > 1} | ({"z"} & static)  # one qubit has no pairs
        mults = [gap for gap in prog.gaps if gap is not None]
        assert all(len(mult) == 3 and isinstance(mult[0], np.ndarray) for mult in mults)
        assert None not in prog.gaps[1:-1]
        assert prog.gaps[0] is prog.gaps[-1] and (prog.gaps[0] is not None) == ("z" in multiplied)
        assert len({id(mult) for mult in mults}) == len(multiplied)
        assert prog.counts["diagonal_sweeps"] == len(mults)


class TestAboveTheTile:
    """Registers larger than one tile of ``_TILE`` amplitudes: the pass's tiles and column chunks."""

    @pytest.mark.parametrize("L", range(1, 6))
    def test_step_oracle_is_the_dense_symmetric_product(self, L):
        # all pairs, static and RF fields on every axis, against exp of the
        # per-axis parts of reference.hamiltonian
        model = random_driven_model(L, 900 + L)
        delta, t = 0.23, 1.4
        t_mid = t + delta / 2
        ez, ey = (TestStepLayouts.axis_factor(model, a, delta / 2, t_mid) for a in (2, 1))
        product = ez @ ey @ TestStepLayouts.axis_factor(model, 0, delta, t_mid) @ ey @ ez
        psi = random_state(L, 910 + L).amp
        assert np.max(np.abs(pairs_step_oracle(model, delta, t, psi) - product @ psi)) < 1e-12

    # static fields: every pass folds into real blocks, as in the benchmark's
    # all-pairs step; RF on every axis: the passes also row-scale
    @pytest.mark.parametrize("drive", [False, True], ids=["static", "driven"])
    @pytest.mark.parametrize("L", [17, 18])
    def test_all_pairs_step_above_the_tile_matches_the_oracle(self, L, drive):
        delta, t = 0.01, 0.3
        model = random_driven_model(L, 920)
        if not drive:
            model.rf_amp[...] = 0.0
        s = random_state(L, 930)
        expected = pairs_step_oracle(model, delta, t, s.amp)
        symmetrized_step(s, model, delta, t)
        assert np.max(np.abs(s.amp - expected)) < 1e-12

    @pytest.mark.parametrize("gate", ["Ry", "Rx"])  # real blocks only; row scalings on both sides
    def test_a_pass_holds_one_tile_buffer(self, gate):
        # L = 18 is four tiles (4 MiB); a register-sized scratch would peak at 4 MiB
        L = 18
        amp = random_state(L, 940).amp
        parts = _gate_blocks(*propagator._TURN[gate], L)
        assert (parts[1] is None) == (gate == "Ry")
        tracemalloc.start()
        try:
            _global_gate(amp, *parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * propagator._TILE * amp.itemsize

    def test_an_all_pairs_step_holds_no_register_sized_multiplier(self):
        # L = 18 is four tiles (4 MiB); flat multipliers would hold 12 MiB and
        # their scratch 2 MiB. The step holds a one-tile table per coupled
        # axis, the pass's one-tile buffer and factors of 2^(L-8) entries
        L = 18
        model = random_driven_model(L, 950)
        model.rf_amp[...] = 0.0
        s = random_state(L, 960)
        tracemalloc.start()
        try:
            symmetrized_step(s, model, 0.01, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (3 + 1) * propagator._TILE * s.amp.itemsize  # 4.4 MiB


class TestInstrumentation:
    def test_counts_for_fully_active_model(self):
        m = random_two_spin_model(3)
        s = random_state(2, 7)
        counters.reset()
        symmetrized_step(s, m, 0.1, 0.0)
        # every axis is coupled, so each of the five axis factors is one
        # multiply: z, y, x, y, z
        assert counters.diagonal_sweeps == 5
        # the step z, Rx+, y, Rx, Ry+, x, Ry, Rx+, y, Rx, z holds 6 quarter
        # turns; the fields fold into the passes between the multipliers:
        # Rx+ | Cy | Rx Ry+ | Cx | Ry Rx+ | Cy | Rx, 4 passes of L = 2 gates
        assert counters.global_rotations == 4
        assert counters.gate_kernel_calls == 4 * 2
        # every nonzero pair coupling visited once per sweep of its axis
        pairs = [np.count_nonzero(np.triu(m.coupling[:, :, a], 1)) for a in range(3)]
        assert counters.pair_terms == 2 * pairs[2] + 2 * pairs[1] + pairs[0]

    @pytest.mark.parametrize("with_rf", [True, False])
    def test_evolve_eo_counts_m_logical_steps(self, with_rf, monkeypatch):
        # every run counts per-substep visits: m substeps are m times one
        # step, on step matrices built and kept, replayed (which builds no
        # step program), built over the kept budget for their run alone, and
        # in place
        m = random_two_spin_model(4, with_rf=with_rf)
        counters.reset()
        symmetrized_step(random_state(2, 7), m, 0.1, 0.0)
        one = dict(vars(counters))
        for steps in (1, 7, 5000):
            plan = StepPlan(steps, 0.1 * steps)
            eo, over, in_place = (ElementaryOperation("e", m, plan.tau) for _ in range(3))
            runs = [(eo, {}, 1), (eo, {}, 0), (over, {"_KEPT_ELEMENTS": 0}, 1), (in_place, {"_BATCH_MAX_DIM": 1}, 1)]
            for op, patches, programs in runs:
                with monkeypatch.context() as mp:
                    for name, value in patches.items():
                        mp.setattr(propagator, name, value)
                    built = mock.Mock(wraps=propagator._StepProgram)
                    mp.setattr(propagator, "_StepProgram", built)
                    counters.reset()
                    evolve_eo(random_state(2, 7), op, 0.0, plan=plan)
                assert dict(vars(counters)) == {k: steps * v for k, v in one.items()}
                assert built.call_count == programs and op._derived.counts == one
            assert list(eo._derived.pieces) == [(plan, None)] and not over._derived.pieces
        # the per-substep counts of one operation are those of its model, at every plan
        counts = eo._derived.counts
        evolve_eo(random_state(2, 7), eo, 0.0, plan=StepPlan(3, eo.tau))
        assert eo._derived.counts is not counts and eo._derived.counts == counts

    def test_nmr_program_counts(self):
        # the search for item 2 in the swapped "21" order at the auto plan:
        # 7 X1-family operations of 640 substeps, 4 X2/X2b and 3 Y2/Y2b of
        # 2,520 (10 drive periods) and 2 Ipi of 1, 22,122 substeps. The counts
        # are per logical substep, however the step matrices between two
        # samples are multiplied together and one drive period is lifted to
        # the others. Per substep a rotation has 2 sweeps (z), 1 pass of 2 gate
        # kernels and 2 pair terms; field terms are 8 for an X (z and y fields,
        # z and y visited twice) and 6 for a Y (x visited once); Ipi has 1
        # sweep (its two z multipliers merge), no pass, 2 pair terms and 4
        # field terms
        counters.reset()
        prog = grover_program(2, make_profile("nmr"), "21")
        _, traj = run_sequence(new_basis_state(2, [0, 0]), prog.seq)
        assert len(traj) == 2859
        planned = {"X1": 640, "X1b": 640, "Y1b": 640, "X2": 2520, "Y2b": 2520, "Ipi": 1}
        assert [p.m for p in traj.plans] == [planned[eo.name] for eo in prog.seq.eos]
        assert dict(vars(counters)) == {
            "diagonal_sweeps": 44242,
            "global_rotations": 22120,
            "gate_kernel_calls": 44240,
            "pair_terms": 44244,
            "field_terms": 158008,
        }

    @pytest.mark.parametrize("active, passes", [
        ("y", 2),  # Rx+ | Cy, as Rx, Ry+, Ry, Rx+ cancel between its halves | Rx
        ("x", 2),  # Rx+, Rx cancel, Ry+ | Cx | Ry, Rx+, Rx cancel
        ("z", 0),  # every turn cancels, so the two z multipliers merge
    ])
    def test_global_passes_per_step_by_active_axes(self, active, passes):
        m = SpinModel(3).set_coupling(1, 3, active, 0.7).set_static(2, "z", 0.4)
        counters.reset()
        symmetrized_step(random_state(3, 9), m, 0.1, 0.0)
        # one multiply per gap of the coupled axis plus one per gap of z,
        # which holds the static z field: y 1 + 2 (its two halves merged),
        # x 1 + 2, and z 1 (every turn cancels, so both halves share a gap)
        assert counters.diagonal_sweeps == {"y": 3, "x": 3, "z": 1}[active]
        assert counters.global_rotations == passes
        assert counters.gate_kernel_calls == 3 * passes

    def test_inactive_axes_skip_rotations_and_multiplies(self):
        m = SpinModel(2).set_coupling(1, 2, "z", -1e-6)
        s = random_state(2, 8)
        counters.reset()
        symmetrized_step(s, m, 0.5, 0.0)
        # one z multiplier, the two of the step merged: x and y have no
        # multiplier and no pass
        assert counters.diagonal_sweeps == 1
        assert counters.global_rotations == 0


class TestStepPlans:
    def test_constant_single_axis_gets_one_step(self):
        m = SpinModel(2).set_coupling(1, 2, "z", -1e-6)
        plan = auto_substeps(ElementaryOperation("Ipi", m, TWO_PI * 50e4))
        assert plan.m == 1

    def test_rf_period_bound(self):
        # X1-style NMR drive: tau = 2*pi*10, fastest RF at f = 1 -> 640 substeps
        m = SpinModel(2).set_coupling(1, 2, "z", -1e-6)
        m.set_static(1, "z", 1.0).set_static(2, "z", 0.25)
        m.set_rf(1, "y", -0.05, 1.0).set_rf(2, "y", -0.0125, 1.0)
        plan = auto_substeps(ElementaryOperation("X1", m, TWO_PI * 10))
        assert plan.m == 640

    def test_phase_bound_when_rf_is_slow(self):
        m = SpinModel(1).set_static(1, "z", 2.0).set_rf(1, "x", 0.1, 0.01)
        plan = auto_substeps(ElementaryOperation("slow", m, 10.0))
        # 0.1 rad per step at field scale 2.0 -> delta 0.05 -> 200 steps
        assert plan.m == 200

    def test_coupling_only_fallback(self):
        m = SpinModel(2)
        for ax in "xyz":
            m.set_coupling(1, 2, ax, 0.5)
        plan = auto_substeps(ElementaryOperation("heis", m, 4.0))
        assert plan.m == 20  # 0.1 rad per step at J = 0.5

    def test_couplings_bound_the_step_when_a_field_is_set(self):
        # strong x and z couplings on every pair plus one weak field: the
        # field bound alone would allow one step for the whole instruction
        rng = np.random.default_rng(31)
        m = SpinModel(3).set_static(1, "z", 0.01)
        for j, k in ((1, 2), (1, 3), (2, 3)):
            m.set_coupling(j, k, "x", rng.uniform(4, 5)).set_coupling(j, k, "z", rng.uniform(-5, -4))
        eo = ElementaryOperation("strong", m, 2.0)
        plan = auto_substeps(eo)
        assert plan.m >= 100
        s = random_state(3, 32)
        exact = dense_propagator(m, 0.0, eo.tau) @ s.amp
        evolve_eo(s, eo, 0.0, plan=plan)
        assert np.max(np.abs(s.amp - exact)) < 1e-3

    def test_frequency_without_amplitude_sets_no_bound(self):
        # a stray drive frequency with a zero amplitude drives nothing
        m = SpinModel(2).set_static(1, "z", 1.0).set_static(2, "x", 1.0)
        assert auto_substeps(ElementaryOperation("a", m, TWO_PI)).m == 63
        m.rf_freq[0, 1] = 1000.0
        assert auto_substeps(ElementaryOperation("a", m, TWO_PI)).m == 63
        m.rf_amp[0, 1] = 0.01
        assert auto_substeps(ElementaryOperation("a", m, TWO_PI)).m == 64000

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            StepPlan(0, 1.0)

    def test_plan_counts_fit_in_int64(self):
        # substep numbers are int64 arrays, so a larger count is refused up front
        assert StepPlan(2**63 - 1, 1.0).m == 2**63 - 1
        with pytest.raises(ValueError, match=r"substep count must be in 1\.\.2\*\*63 - 1"):
            StepPlan(2**63, 1.0)
        m = SpinModel(1).set_static(1, "z", 1e200).set_static(1, "x", 1.0)
        with pytest.raises(ValueError, match="operation 'a' needs a substep count that is over 2"):
            auto_substeps(ElementaryOperation("a", m, TWO_PI))

    def test_numpy_integer_counts_are_counts(self):
        # the integer checks take any integral type; a float that is whole is refused
        assert StepPlan(np.int64(3), 1.0).m == 3
        with pytest.raises(ValueError, match="substep count must be an integer"):
            StepPlan(np.float64(3.0), 1.0)
        eo = ElementaryOperation("e", SpinModel(1).set_static(1, "x", 1.0), 1.0)
        _, traj = run_sequence(new_basis_state(1, [0]), PulseSequence([eo]), sample_every=np.int32(2),
                               plans=[StepPlan(np.int64(4), 1.0)])
        assert traj.step.tolist() == [0, 2, 4]

    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
    def test_operation_duration_must_be_finite_and_non_negative(self, tau):
        with pytest.raises(ValueError, match="duration"):
            ElementaryOperation("bad", SpinModel(1), tau)


class TestEvolveEo:
    def test_zero_duration_identity(self):
        s = random_state(2, 9)
        ref = s.amp.copy()
        out, samples = evolve_eo(s, ElementaryOperation("idle", SpinModel(2), 0.0), 5.0)
        assert samples.t.shape == (0,) and samples.q.shape == (0, 2)
        assert np.array_equal(out.amp, ref)

    @pytest.mark.parametrize("L", [2, 5])  # step matrices and in place
    def test_a_drive_of_frequency_zero_is_a_static_field(self, L):
        # the drive h1 sin(0 t + phi) is the static field h1 sin(phi) on its axis
        base = SpinModel(L).set_static(1, "z", 1.0).set_coupling(1, 2, "z", 0.3).set_rf(1, "y", 0.2, 1.3)
        runs = []
        for model in (copy.deepcopy(base).set_rf(2, "x", 0.7, 0.0, 0.4),
                      copy.deepcopy(base).set_static(2, "x", 0.7 * math.sin(0.4))):
            s = random_state(L, 770 + L)
            evolve_eo(s, ElementaryOperation("e", model, 2.0), 0.0, StepPlan(64, 2.0))
            runs.append(s.amp)
        assert np.array_equal(*runs)

    def test_conditional_evolution_phases(self):
        # J_z = -1e-6 held for tau = -pi/J: phases -/+ pi/4 on aligned/anti-aligned
        m = SpinModel(2).set_coupling(1, 2, "z", -1e-6)
        s = StateVector(2, np.full(4, 0.5))
        evolve_eo(s, ElementaryOperation("Ipi", m, TWO_PI * 50e4), 0.0, plan=StepPlan(1, TWO_PI * 50e4))
        expected = 0.5 * np.exp(-1j * np.pi / 4 * np.array([1, -1, -1, 1]))
        assert np.allclose(s.amp, expected, atol=1e-9)

    def test_matches_oracle_for_every_idealized_eo(self):
        # constant single-axis instructions are exact at one step
        configs = [("x", 1, 1.0), ("x", 2, -1.0), ("y", 1, 1.0), ("y", 2, -1.0)]
        for ax, j, h in configs:
            m = SpinModel(2).set_static(j, ax, h)
            u = dense_propagator(m, 0.0, math.pi / 2)
            for n in range(4):
                amp = np.zeros(4, dtype=complex)
                amp[n] = 1.0
                s = StateVector(2, amp)
                evolve_eo(s, ElementaryOperation("rot", m, math.pi / 2), 0.0)
                assert np.max(np.abs(s.amp - u[:, n])) < 1e-12

    def test_action_independent_of_start_time(self):
        # an instruction is its parameter table plus a duration; where it sits
        # on the global clock must not change what it does
        m = random_two_spin_model(12)
        eo = ElementaryOperation("rf", m, 1.6)
        a = random_state(2, 13)
        b = a.copy()
        _, sa = evolve_eo(a, eo, 0.0, plan=StepPlan(64, eo.tau), sample_every=64)
        _, sb = evolve_eo(b, eo, 1234.5, plan=StepPlan(64, eo.tau), sample_every=64)
        assert np.array_equal(a.amp, b.amp)
        assert sa.t == pytest.approx([1.6]) and sb.t == pytest.approx([1236.1])

    def test_plan_for_another_duration_is_rejected(self):
        s = random_state(2, 18)
        ref = s.amp.copy()
        eo = ElementaryOperation("e", random_two_spin_model(19), 1.0)
        with pytest.raises(ValueError, match="duration"):
            evolve_eo(s, eo, 0.0, plan=StepPlan(4, 2.0))
        assert np.array_equal(s.amp, ref)

    @pytest.mark.parametrize("sample_at", [[0], [5], [-1], [2, 2], [3, 1], [1, 4, 5], [1.5, 3]])
    def test_sample_at_must_increase_within_the_plan(self, sample_at):
        # the substep lists once refused for order or range: samples are now
        # a stride, so each list is refused as a stride, before the first substep
        eo = ElementaryOperation("e", random_two_spin_model(14), 0.4)
        psi = random_state(2, 15)
        ref = psi.amp.copy()
        with pytest.raises(ValueError, match=f"^sample_every must be an integer, got {re.escape(repr(sample_at))}$"):
            evolve_eo(psi, eo, 0.0, plan=StepPlan(4, 0.4), sample_every=sample_at)
        assert np.array_equal(psi.amp, ref)

    def test_samples_land_on_every_kth_substep_and_the_last(self, monkeypatch):
        # after substeps k, 2k, ... below m and after m, on step matrices and
        # in place, each the sample of every substep there; None takes none.
        # A stride that is not an integer >= 1 is refused with one text by
        # evolve_eo and by run_sequence, before the first substep
        eo, plan = ElementaryOperation("e", random_driven_model(2, 14), 1.0), StepPlan(10, 1.0)
        grids = [(3, [3, 6, 9, 10]), (5, [5, 10]), (10, [10]), (11, [10]), (None, [])]
        for batch_max_dim in (propagator._BATCH_MAX_DIM, 1):  # 1: in place at L = 2
            monkeypatch.setattr(propagator, "_BATCH_MAX_DIM", batch_max_dim)
            every_substep = evolve_eo(random_state(2, 15), eo, 0.5, plan, sample_every=1)[1]
            assert np.allclose(every_substep.t, 0.5 + 0.1 * np.arange(1, 11))
            for every, at in grids:
                samples = evolve_eo(random_state(2, 15), eo, 0.5, plan, sample_every=every)[1]
                rows = np.array(at, dtype=int) - 1
                assert samples.t.shape == (len(at),) and np.array_equal(samples.t, every_substep.t[rows])
                assert np.max(np.abs(samples.q - every_substep.q[rows]), initial=0.0) < 1e-12
        psi = random_state(2, 15)
        ref = psi.amp.copy()
        for every, message in [(0, "sample_every must be >= 1"), (-1, "sample_every must be >= 1"),
                               (2.5, "sample_every must be an integer, got 2.5"),
                               ("2", "sample_every must be an integer, got '2'")]:
            counters.reset()
            for call in (lambda: evolve_eo(psi, eo, 0.0, plan, sample_every=every),
                         lambda: run_sequence(psi, PulseSequence([eo]), sample_every=every)):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    call()
            assert np.array_equal(psi.amp, ref) and vars(counters) == vars(propagator.KernelCounters())

    @pytest.mark.parametrize("L", [3, 6])  # batched and in place
    def test_sample_equals_the_instruction_cut_to_n_substeps(self, L):
        model = random_driven_model(L, 16 + L)
        m, delta, t0 = 32, 0.03, 2.5
        psi0 = random_state(L, 17 + L)
        at = [5, 10, 15, 20, 25, 30, 32]
        _, samples = evolve_eo(psi0.copy(), ElementaryOperation("e", model, m * delta), t0,
                               plan=StepPlan(m, m * delta), sample_every=5)
        assert samples.t.shape == (len(at),) and samples.q.shape == (len(at), L)
        for i, n in enumerate(at):
            cut, _ = evolve_eo(psi0.copy(), ElementaryOperation("e", model, n * delta), t0,
                               plan=StepPlan(n, n * delta))
            ref = cut.observables(t0 + n * delta)
            for name in ("sx", "sy", "sz", "q", "norm", "t"):
                assert np.max(np.abs(getattr(samples, name)[i] - getattr(ref, name))) < 1e-12

    def test_split_continuity_without_rf(self):
        # for drive-free models all phases are duration-based, so one EO with
        # 2k substeps equals the same EO split in half with k each
        m = SpinModel(2).set_coupling(1, 2, "z", 0.4).set_coupling(1, 2, "x", -0.3)
        m.set_static(1, "z", 0.9).set_static(2, "x", 0.7)
        tau = 1.6
        whole = random_state(2, 13)
        split = whole.copy()
        evolve_eo(whole, ElementaryOperation("c", m, tau), 10.0, plan=StepPlan(64, tau))
        half = ElementaryOperation("c", m, tau / 2)
        evolve_eo(split, half, 10.0, plan=StepPlan(32, tau / 2))
        evolve_eo(split, half, 10.0 + tau / 2, plan=StepPlan(32, tau / 2))
        assert np.max(np.abs(whole.amp - split.amp)) < 1e-10

    def test_rf_drive_rotates_target_spin(self):
        # resonant drive for a quarter turn moves Q1 from 0 to about 1/2
        m = SpinModel(2).set_coupling(1, 2, "z", -1e-6)
        m.set_static(1, "z", 1.0).set_static(2, "z", 0.25)
        m.set_rf(1, "y", -0.05, 1.0).set_rf(2, "y", -0.0125, 1.0)
        s = new_basis_state(2, [0, 0])
        evolve_eo(s, ElementaryOperation("X1", m, TWO_PI * 10), 0.0)
        obs = s.observables()
        assert obs.q[0] == pytest.approx(0.5, abs=0.05)
        assert abs(s.norm() - 1.0) < 1e-12


class TestBatchedSteps:
    """Registers of up to 16 amplitudes step by batched step matrices; both paths must agree."""

    @staticmethod
    def both_paths(monkeypatch, psi0, eo, m, sample_every=None):
        """(state, samples) of the batched path and of the in-place path, from t0 = 3.5."""
        batched = evolve_eo(psi0.copy(), eo, 3.5, plan=StepPlan(m, eo.tau), sample_every=sample_every)
        with monkeypatch.context() as mp:
            mp.setattr(propagator, "_BATCH_MAX_DIM", 1)  # in place at every size
            in_place = evolve_eo(psi0.copy(), eo, 3.5, plan=StepPlan(m, eo.tau), sample_every=sample_every)
        return batched, in_place

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_matches_in_place_path(self, L, monkeypatch):
        model = random_driven_model(L, 40 + L)
        psi0 = random_state(L, 50 + L)
        # chunk lengths of the matrix path (dim**2 entries per substep) and of
        # the in-place path (a bound of 256 entries per qubit)
        chunks = {propagator._BATCH_ELEMENTS // 4**L, propagator._BATCH_ELEMENTS // (256 * L)}
        for m in (1, 3, 293):  # at L=4, 293 is one full chunk of 256 plus 37
            eo = ElementaryOperation("e", model, 0.02 * m)
            (batched, seen), (reference, seen_ref) = self.both_paths(monkeypatch, psi0, eo, m, 1)
            assert np.max(np.abs(batched.amp - reference.amp)) < 1e-12
            assert seen.t.shape == seen_ref.t.shape == (m,)
            for name in ("sx", "sy", "sz", "norm", "t"):
                assert np.max(np.abs(getattr(seen, name) - getattr(seen_ref, name))) < 1e-12
            # the amplitudes after n < m substeps are those of the instruction
            # cut to n substeps, which has the same substep length and midpoints
            for n in ({1, 2, m - 1} | chunks | {c + 1 for c in chunks}) & set(range(1, m)):
                cut = ElementaryOperation("e", model, n * (eo.tau / m))
                (a, _), (b, _) = self.both_paths(monkeypatch, psi0, cut, n)
                assert np.max(np.abs(a.amp - b.amp)) < 1e-12

    def test_small_chunks_match_one_chunk(self, monkeypatch):
        model = random_driven_model(2, 60)
        eo = ElementaryOperation("e", model, 1.3)
        whole = random_state(2, 61)
        chunked = whole.copy()
        evolve_eo(whole, eo, 0.0, plan=StepPlan(50, eo.tau))
        monkeypatch.setattr(propagator, "_BATCH_ELEMENTS", 7 * 16)  # 7 substeps per chunk
        evolve_eo(chunked, eo, 0.0, plan=StepPlan(50, eo.tau))
        assert np.max(np.abs(whole.amp - chunked.amp)) < 1e-12

    def test_a_threshold_above_one_block_is_refused(self, monkeypatch):
        # at L = 5 a pass has a real block above the lowest four qubits, which
        # a stack of step matrices does not apply
        monkeypatch.setattr(propagator, "_BATCH_MAX_DIM", 32)
        eo = ElementaryOperation("e", random_driven_model(5, 64), 0.1)
        with pytest.raises(ValueError, match="step matrices need passes of one block and no row scaling, got L=5"):
            evolve_eo(random_state(5, 65), eo, 0.0, plan=StepPlan(2, eo.tau))

    def test_zero_duration_returns_no_samples_and_leaves_the_state_untouched(self):
        s = random_state(3, 62)
        ref = s.amp.copy()
        eo = ElementaryOperation("idle", random_driven_model(3, 63), 0.0)
        _, samples = evolve_eo(s, eo, 0.0, plan=StepPlan(1, 0.0), sample_every=1)
        assert samples.t.shape == (0,) and np.array_equal(s.amp, ref)

    @pytest.mark.parametrize("L", [4])
    def test_second_order_on_both_sides_of_the_threshold(self, monkeypatch, L):
        # L=4 sits just below the threshold: the largest register stepped by
        # matrices. Stepped in place (threshold 1) and by matrices (the
        # default), the error drops 4x per doubling on both sides and the two
        # agree. L=5, the smallest register stepped in place, is in
        # test_second_order_with_blocked_passes.
        assert 2**L == propagator._BATCH_MAX_DIM
        model = random_driven_model(L, 70 + L)
        tau = 0.6
        psi0 = random_state(L, 80 + L)
        exact = dense_propagator(model, 0.0, tau, tol=1e-8) @ psi0.amp
        errors = {}
        for batch_max_dim in (1, propagator._BATCH_MAX_DIM):
            monkeypatch.setattr(propagator, "_BATCH_MAX_DIM", batch_max_dim)
            for steps in (8, 16, 32):
                s = psi0.copy()
                evolve_eo(s, ElementaryOperation("e", model, tau), 0.0, plan=StepPlan(steps, tau))
                errors.setdefault(batch_max_dim, []).append(np.linalg.norm(s.amp - exact))
        in_place, by_matrices = errors.values()
        assert np.max(np.abs(np.subtract(in_place, by_matrices))) < 1e-12
        for side in (in_place, by_matrices):
            for a, b in zip(side, side[1:]):
                assert 3.3 < a / b < 4.7

    @pytest.mark.parametrize("L", [4, 5, 6, 7])
    def test_second_order_with_blocked_passes(self, L):
        # L=4 steps by matrices, L=5 to 7 in place (both sides of the
        # 16-amplitude threshold), all through fused and blocked global
        # passes: the error against the oracle drops 4x per doubling, and
        # symmetrized_step gives what evolve_eo gives.
        # dense_propagator stops at L=6, so L=7 takes a constant model (all
        # pairs and static fields on every axis), exact by one
        # eigendecomposition of H.
        tau = 0.6
        psi0 = random_state(L, 100 + L)
        model = random_driven_model(L, 90 + L)
        if L <= 6:
            exact = dense_propagator(model, 0.0, tau, tol=1e-7) @ psi0.amp
        else:
            model.rf_amp[:] = 0.0
            w, v = np.linalg.eigh(hamiltonian(model, 0.0))
            exact = v @ (np.exp(-1j * tau * w) * (v.conj().T @ psi0.amp))
        errors = []
        for steps in (8, 16, 32):
            s = psi0.copy()
            evolve_eo(s, ElementaryOperation("e", model, tau), 0.0, plan=StepPlan(steps, tau))
            stepped = psi0.copy()
            delta = tau / steps
            for n in range(steps):
                symmetrized_step(stepped, model, delta, n * delta)
            assert np.max(np.abs(stepped.amp - s.amp)) < 1e-12
            errors.append(np.linalg.norm(s.amp - exact))
        for a, b in zip(errors, errors[1:]):
            assert 3.3 < a / b < 4.7


class TestSmallTileRuns:
    """The dense-oracle run tests again with tiles of 16 amplitudes, as ``TestTiledGlobalGate`` has them.

    At L = 5 and 6 every pass then runs over several tiles and column chunks
    and every multiplier is factored, so the above-tile code is checked end
    to end against the exact solution."""

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(propagator, "_TILE", 1 << 4)

    @pytest.mark.parametrize("L", [5, 6])
    def test_second_order_with_blocked_passes(self, L):
        assert propagator._multiplier(L, np.zeros((L, L)), np.zeros(L))[1] is not None  # factored
        TestBatchedSteps().test_second_order_with_blocked_passes(L)

    @pytest.mark.parametrize("axis", ["z", "y"])
    def test_in_place_run_matches_the_dense_propagator(self, axis):
        TestMergedMultipliers().test_in_place_run_matches_the_dense_propagator(axis)


class TestSampledMatrixPath:
    """Between two samples the matrix path multiplies the step matrices by a
    pairwise tree, and each sample is one vector-matrix product; it must give
    what symmetrized_step gives one substep at a time."""

    @staticmethod
    def check(model, psi0, m, every):
        tau = 0.03 * m
        t0, delta = 2.5, tau / m
        s, samples = evolve_eo(psi0.copy(), ElementaryOperation("e", model, tau), t0,
                               plan=StepPlan(m, tau), sample_every=every)
        at = [n for n in range(1, m + 1) if every and (n % every == 0 or n == m)]
        ref, rows = psi0.copy(), {}
        for n in range(m):
            symmetrized_step(ref, model, delta, n * delta)
            if n + 1 in at:
                rows[n + 1] = ref.observables(t0 + (n + 1) * delta)
        assert np.max(np.abs(s.amp - ref.amp)) < 1e-12
        assert samples.t.shape == (len(at),) and samples.sx.shape == (len(at), model.L)
        for i, n in enumerate(at):
            for name in ("sx", "sy", "sz", "q", "norm", "t"):
                assert np.max(np.abs(getattr(samples, name)[i] - getattr(rows[n], name))) < 1e-12

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        L=st.integers(1, 4),
        m=st.integers(1, 40),
        every=st.none() | st.integers(1, 41),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_substep_at_a_time(self, L, m, every, seed):
        self.check(random_driven_model(L, seed % 1000), random_state(L, seed), m, every)

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    @pytest.mark.parametrize("strides", [[], [1], [37], [1, 2, 9, 10, 31, 37], [3, 36]], ids=str)
    def test_edge_samples(self, L, strides):
        # each stride of the list, at m = 37: every substep, the last alone,
        # last gaps of 1 to 7; the empty list runs unsampled
        for every in strides or [None]:
            self.check(random_driven_model(L, 110 + L), random_state(L, 120 + L), 37, every)

    def test_samples_on_both_sides_of_a_chunk_edge(self, monkeypatch):
        monkeypatch.setattr(propagator, "_BATCH_ELEMENTS", 1 << 8)
        edge = propagator._BATCH_ELEMENTS // 4**2  # 16 substeps per chunk of step matrices at L=2
        for every in (1, 5, 15, 16, 17):  # samples before, on and after the edge
            self.check(random_two_spin_model(130), random_state(2, 131), edge + 7, every)


def one_frequency_model(L, seed, f):
    """Random pairs and static fields on all three axes, and RF drives on about half of the (qubit, axis)
    places (qubit 1 on x always), each at frequency +f or -f with a phase of its own."""
    rng = np.random.default_rng(seed)
    m = SpinModel(L)
    for ax in "xyz":
        for j in range(1, L + 1):
            m.set_static(j, ax, rng.uniform(-1, 1))
            if (ax, j) == ("x", 1) or rng.random() < 0.5:
                m.set_rf(j, ax, rng.uniform(-0.5, 0.5), f * rng.choice([-1.0, 1.0]), rng.uniform(0, TWO_PI))
            for k in range(j + 1, L + 1):
                m.set_coupling(j, k, ax, rng.uniform(-1, 1))
    return m


class TestPeriodicDrives:
    """With one drive frequency and k whole periods in an operation, the matrix path builds the step
    matrices of one period and lifts its prefixes by powers of the period's product; it must give what
    the build over the whole operation (k = 1) gives."""

    @staticmethod
    def evolve(model, tau, m, every, whole=False):
        """(final amplitudes, samples, pieces, kernel counts, step matrices built) of evolve_eo at m
        substeps; with ``whole`` the operation's period count is set to 1, so the period is the whole
        operation."""
        built, step_matrices, s = [], propagator._StepProgram.step_matrices, random_state(model.L, 7)
        matrix_pieces, pieces = propagator._matrix_pieces, []

        def counted(prog, t_mid):
            built.append(len(t_mid))
            return step_matrices(prog, t_mid)

        def recorded(*args):  # the pieces built, kept or not
            for piece in matrix_pieces(*args):
                pieces.append(piece)
                yield piece

        counters.reset()
        with mock.patch.object(propagator._StepProgram, "step_matrices", counted), \
                mock.patch.object(propagator, "_matrix_pieces", recorded):
            eo = ElementaryOperation("e", model, tau)
            if whole:
                eo._derived.facts = eo._derived.facts._replace(k=1)
            samples = evolve_eo(s, eo, 0.3, StepPlan(m, tau), every)[1]
        assert kept_entries(eo) in (0, sum(p.size for p in pieces))  # the operation keeps all or none
        return s.amp, samples, np.concatenate(pieces), dict(vars(counters)), sum(built)

    @staticmethod
    def difference(run, ref):
        """The largest difference of amplitudes, samples and pieces; the kernel counts must be equal."""
        assert run[3] == ref[3]
        return max([np.max(np.abs(run[0] - ref[0])), np.max(np.abs(run[2] - ref[2]))]
                   + [np.max(np.abs(getattr(run[1], n) - getattr(ref[1], n)), initial=0.0)
                      for n in ("sx", "sy", "sz", "q", "norm", "t")])

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(L=st.integers(1, 4), k=st.integers(2, 6), p=st.integers(1, 40), stride=st.integers(1, 40),
           seed=st.integers(0, 999))
    def test_matches_the_whole_operation_build(self, L, k, p, stride, seed):
        f = 0.4 + seed / 500
        model, tau, m = one_frequency_model(L, seed, f), TWO_PI * k / f, k * p
        assert ElementaryOperation("e", model, tau)._derived.facts.k == k
        periodic, whole = self.evolve(model, tau, m, stride), self.evolve(model, tau, m, stride, whole=True)
        assert (periodic[4], whole[4]) == (p, m)  # one period of step matrices against all of them
        assert self.difference(periodic, whole) < 1e-13

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    @pytest.mark.parametrize("every", [1, 16, None], ids=["every substep", "period edges", "end not sampled"])
    def test_samples_on_and_around_period_edges(self, L, every):
        # 3 periods of 16 substeps
        model, tau = one_frequency_model(L, 40 + L, 0.9), TWO_PI * 3 / 0.9
        periodic, whole = self.evolve(model, tau, 48, every), self.evolve(model, tau, 48, every, whole=True)
        assert (periodic[4], whole[4]) == (16, 48)
        assert self.difference(periodic, whole) < 1e-13
        # every kernel counter counts the 48 logical substeps, the lifted ones too
        per_substep = propagator._StepProgram(model, 1.0).counts
        assert periodic[3] == {name: 48 * n for name, n in per_substep.items()}

    @pytest.mark.parametrize("case", ["two frequencies", "plan not a multiple of k", "z only", "pieces over the bound"])
    def test_other_operations_build_the_whole_operation(self, case):
        # the rule fails, so the build is the k = 1 build, bit for bit
        model, tau, m = one_frequency_model(2, 50, 0.8), TWO_PI * 4 / 0.8, 4 * 25
        kept = propagator._KEPT_ELEMENTS
        if case == "two frequencies":
            model.set_rf(2, "z", 0.3, 0.8 * math.sqrt(2))
        elif case == "plan not a multiple of k":
            m = 4 * 25 + 2
        elif case == "z only":  # fields and couplings on z, no drive
            model = SpinModel(2).set_coupling(1, 2, "z", 0.7).set_static(2, "z", 0.4)
        else:  # 25 residue pieces of 4 x 4 entries
            kept = 25 * 16 - 1
        with mock.patch.object(propagator, "_KEPT_ELEMENTS", kept):
            periodic, whole = self.evolve(model, tau, m, 1), self.evolve(model, tau, m, 1, whole=True)
        assert (periodic[4], whole[4]) == (m, m)
        assert self.difference(periodic, whole) == 0.0

    def test_auto_plans_round_up_to_whole_periods(self):
        nmr = make_profile("nmr")
        # X1: 64 substeps per period of f = 1 over 10 periods; X2: the 0.1 rad
        # bound of the z field 1 over 2 pi 40 is 2,514 substeps, rounded up to
        # a multiple of its 10 periods of f = 0.25
        for names, m in ((("X1", "X1b", "Y1", "Y1b"), 640), (("X2", "X2b", "Y2", "Y2b"), 2520)):
            for eo in map(nmr.eo, names):
                assert (eo._derived.facts.k, auto_substeps(eo).m) == (10, m)
        # over 2 pi 40.3, f = 0.25 makes 10.075 periods: the phase bound alone
        eo = ElementaryOperation("X2", nmr.eo("X2").model, TWO_PI * 40.3)
        assert eo._derived.facts.k == 1
        assert auto_substeps(eo).m == math.ceil(eo.tau / 0.1) == 2533


class TestRunSequence:
    def test_empty_sequence(self):
        s = random_state(2, 14)
        out, traj = run_sequence(s, PulseSequence([]))
        assert np.array_equal(out.amp, s.amp)
        assert len(traj) == 1
        assert traj.step[0] == 0

    def test_input_not_modified(self):
        m = SpinModel(2).set_static(1, "x", 1.0)
        s = new_basis_state(2, [0, 0])
        ref = s.amp.copy()
        run_sequence(s, PulseSequence([ElementaryOperation("X1", m, math.pi / 2)]))
        assert np.array_equal(s.amp, ref)

    def test_sampling_includes_boundaries_and_endpoints(self):
        m = SpinModel(1).set_static(1, "x", 1.0).set_rf(1, "z", 0.1, 1.0)
        eo = ElementaryOperation("drive", m, 1.0)
        plan = auto_substeps(eo)
        _, traj = run_sequence(new_basis_state(1, [0]), PulseSequence([eo, eo]), sample_every=3)
        steps = list(traj.step)
        assert steps[0] == 0
        assert plan.m in steps and 2 * plan.m in steps
        assert steps == sorted(set(steps))
        assert traj.obs.t[-1] == pytest.approx(2.0)

    @pytest.mark.parametrize("m", [1, 7, 293])
    @pytest.mark.parametrize("sample_every", [1, 3, None])
    def test_rows_follow_the_stride_rule(self, m, sample_every):
        # every stride-th substep and the last one of each operation, after
        # the initial point; a zero-duration operation adds no row
        eo = ElementaryOperation("e", SpinModel(1).set_static(1, "x", 1.0), 0.01 * m)
        idle = ElementaryOperation("idle", SpinModel(1), 0.0)
        plans = [StepPlan(m, eo.tau), StepPlan(1, 0.0), StepPlan(m, eo.tau)]
        _, traj = run_sequence(new_basis_state(1, [0]), PulseSequence([eo, idle, eo]),
                               sample_every=sample_every, plans=plans)
        stride = sample_every or max(1, round(m / 200))
        per_eo = [n for n in range(1, m + 1) if n % stride == 0 or n == m]
        assert len(traj) == 1 + 2 * len(per_eo)
        assert list(traj.step) == [0] + per_eo + [m + n for n in per_eo]
        assert list(traj.eo_index) == [0] * (1 + len(per_eo)) + [2] * len(per_eo)
        assert traj.obs.sx.shape == (len(traj), 1) and traj.obs.t.shape == (len(traj),)
        assert traj.obs.t[-1] == pytest.approx(2 * eo.tau)

    def test_each_distinct_operation_object_is_planned_once(self):
        # an NMR search program holds 16 positions of 5-7 distinct instructions;
        # each keeps the plan made on its first position
        seq = grover_program(2, make_profile("nmr"), "12").seq
        with mock.patch.object(propagator, "_auto_plan", wraps=propagator._auto_plan) as planner:
            traj = run_sequence(new_basis_state(2, [0, 0]), seq, sample_every=10**9)[1]
        assert planner.call_count == len({id(eo) for eo in seq.eos}) < len(seq)
        assert traj.plans == [auto_substeps(eo) for eo in seq.eos]

    @pytest.mark.parametrize("item", range(4))
    @pytest.mark.parametrize("init", ["12", "21"])
    def test_each_distinct_run_is_checked_once_before_the_first_substep(self, item, init):
        # 16 positions of 5-7 distinct instructions: the pre-check checks
        # every position, then each evolve_eo checks its own run
        seq, counts = grover_program(item, make_profile("nmr"), init).seq, []

        def evolve(*args, **kwargs):
            counts.append(checked.call_count)
            return evolve_eo(*args, **kwargs)

        with mock.patch.object(propagator, "_check_operation", wraps=propagator._check_operation) as checked, \
                mock.patch.object(propagator, "evolve_eo", side_effect=evolve):
            traj = run_sequence(new_basis_state(2, [0, 0]), seq, sample_every=10**9)[1]
        assert 5 <= len({id(eo) for eo in seq.eos}) <= 7 and len(seq) == 16
        assert counts[0] == len(seq) and checked.call_count == 2 * len(seq)
        starts = itertools.accumulate((eo.tau for eo in seq.eos), initial=0.0)
        prechecked = [c.args[:4] for c in checked.call_args_list[:len(seq)]]  # (operation, plan, L, start)
        assert prechecked == list(zip(seq.eos, traj.plans, [2] * len(seq), starts))

    @pytest.mark.parametrize("n_plans", [1, 3])
    def test_plans_must_match_the_sequence(self, n_plans):
        eo = ElementaryOperation("e", SpinModel(1).set_static(1, "x", 1.0), 0.1)
        with pytest.raises(ValueError, match=f"got {n_plans} plans for a sequence of 2 operations"):
            run_sequence(new_basis_state(1, [0]), PulseSequence([eo, eo]), plans=[StepPlan(4, eo.tau)] * n_plans)

    def test_mismatched_width_rejected(self):
        m = SpinModel(2).set_static(1, "x", 1.0)
        with pytest.raises(ValueError):
            run_sequence(new_basis_state(1, [0]), PulseSequence([ElementaryOperation("X1", m, 1.0)]))

    def test_norm_drift_tiny(self):
        m = random_two_spin_model(20)
        eo = ElementaryOperation("rf", m, 8.0)
        out, _ = run_sequence(random_state(2, 21), PulseSequence([eo] * 3))
        assert abs(out.norm() - 1.0) < 1e-9

    def test_per_step_norm_drift(self):
        m = random_two_spin_model(23)
        s = random_state(2, 24)
        for n in range(50):
            before = s.norm()
            symmetrized_step(s, m, 0.05, n * 0.05)
            assert abs(s.norm() - before) < 1e-13


def run_counting_built(*args, **kwargs):
    """run_sequence(*args, **kwargs), its kernel counters and the rows passed to _StepProgram.step_matrices."""
    built, step_matrices = [], propagator._StepProgram.step_matrices

    def counted(prog, t_mid):
        built.append(len(t_mid))
        return step_matrices(prog, t_mid)

    counters.reset()
    with mock.patch.object(propagator._StepProgram, "step_matrices", counted):
        out, traj = run_sequence(*args, **kwargs)
    return out, traj, dict(vars(counters)), sum(built)


def kept_entries(eo):
    """The complex entries of the matrix-path pieces that ``eo`` keeps."""
    return sum(p.size for pieces in eo._derived.pieces.values() for p in pieces)


class TestPieceReuse:
    """An operation keeps its matrix-path pieces per (plan, sample_every) and replays them at every
    later run, in one call or the next; nothing may show it."""

    @staticmethod
    def run(L, shared, kept=propagator._KEPT_ELEMENTS):
        """One sequence in which two operation objects recur, one of them at two plans, sampled with a
        stride, and its operations. ``kept`` bounds the complex entries of the pieces one operation keeps."""
        a = ElementaryOperation("a", random_driven_model(L, 140 + L), 0.9)
        b = ElementaryOperation("b", random_driven_model(L, 150 + L), 0.5)
        idle = ElementaryOperation("idle", SpinModel(L), 0.0)
        eos = [a, b, idle, a, a, b, idle, a]
        ms = [30, 20, 1, 30, 45, 20, 1, 30]
        plans = [StepPlan(m, eo.tau) for m, eo in zip(ms, eos)]
        if not shared:
            eos = [copy.deepcopy(eo) for eo in eos]
        with mock.patch.object(propagator, "_KEPT_ELEMENTS", kept):
            run = run_counting_built(random_state(L, 160 + L), PulseSequence(eos), sample_every=4, plans=plans)
        return (*run, eos)

    @staticmethod
    def assert_same_run(run, ref):
        (out, traj, counts, *_), (ref_out, ref_traj, ref_counts, *_) = run, ref
        assert np.array_equal(out.amp, ref_out.amp)
        assert np.array_equal(traj.step, ref_traj.step) and np.array_equal(traj.eo_index, ref_traj.eo_index)
        for name in ("sx", "sy", "sz", "q", "norm", "t"):
            assert np.array_equal(getattr(traj.obs, name), getattr(ref_traj.obs, name))
        assert counts == ref_counts

    @pytest.mark.parametrize("L, built", [(2, 95), (4, 95), (5, 0)])  # L = 5 is stepped in place
    def test_shared_objects_match_private_copies(self, L, built):
        shared, private = self.run(L, shared=True), self.run(L, shared=False)
        # step matrices are built once for a at m = 30 and 45 and b at m = 20,
        # and for all 175 substeps when every position holds its own copy
        assert (shared[3], private[3]) == (built, 175 if built else 0)
        self.assert_same_run(shared, private)

    @pytest.mark.parametrize("L", [2, 4])
    @pytest.mark.parametrize("pieces, built", [(12, 95), (7, 155), (4, 175)])
    def test_reuse_stays_within_the_memory_bound(self, L, pieces, built):
        # a at m = 30 keeps 8 pieces (one per sample), b at m = 20 keeps 5
        # and a at m = 45 would keep 12, each of 2^L x 2^L entries, within a
        # bound per operation. With room for 12, a at 30 and b are kept, and a
        # at 45 (8 + 12 pieces) is built for its one run; with room for 7, a
        # is built at all four positions and b once; with room for 4, every
        # position builds its own, as private copies do
        shared = self.run(L, shared=True, kept=pieces * 4**L)
        assert shared[3] == built
        assert all(kept_entries(eo) <= pieces * 4**L for eo in shared[4])
        self.assert_same_run(shared, self.run(L, shared=False))

    def test_pieces_outlive_a_call(self):
        # a second call on the same operations replays what the first one built, and builds nothing
        first = self.run(2, shared=True)
        again = run_counting_built(random_state(2, 162), PulseSequence(first[4]), sample_every=4, plans=first[1].plans)
        assert again[3] == 0
        self.assert_same_run(again, first)

    def test_edits_to_the_source_model_never_reach_the_operation(self):
        model = random_driven_model(2, 170)
        eo = ElementaryOperation("e", model, 0.8)
        psi0, plans = random_state(2, 171), [StepPlan(40, 0.8)] * 2
        before = run_sequence(psi0, PulseSequence([eo, eo]), sample_every=3, plans=plans)[0]
        model.static_field[0, 2] += 0.5  # the model given stays writable
        again = run_sequence(psi0, PulseSequence([eo, eo]), sample_every=3, plans=plans)[0]
        assert np.array_equal(again.amp, before.amp)
        edited = ElementaryOperation("e", model, 0.8)
        assert not np.allclose(run_sequence(psi0, PulseSequence([edited] * 2), sample_every=3, plans=plans)[0].amp,
                               before.amp)
        # the operation's own model is read-only, and so is the operation
        for write in (lambda: eo.model.set_static(1, "z", 0.5), lambda: eo.model.coupling.__setitem__((0, 1, 0), 1.0)):
            with pytest.raises(ValueError, match="read-only"):
                write()
        with pytest.raises(dataclasses.FrozenInstanceError):
            eo.model = model

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, copy.copy])
    def test_a_copy_derives_its_own(self, duplicate):
        eo = ElementaryOperation("a", random_driven_model(2, 142), 0.9)
        run = lambda op: run_counting_built(random_state(2, 1), PulseSequence([op]), sample_every=4,
                                            plans=[StepPlan(30, op.tau)])
        first = run(eo)
        auto_substeps(eo)
        dup = duplicate(eo)
        assert (dup.name, dup.tau) == (eo.name, eo.tau) and dup.model is not eo.model
        assert not dup._derived.pieces and dup._derived.plan is None
        assert all(not getattr(dup.model, name).flags.writeable for name in propagator._ARRAYS)
        again = run(dup)
        assert (first[3], again[3]) == (30, 30)  # the copy builds its own pieces
        self.assert_same_run(again, first)


class TestToleranceRuns:
    """run_sequence(..., tol): the accepted doubling trial of each operation is the run."""

    @pytest.mark.parametrize("L, seed, tol", [(2, 21, 1.7e-3), (5, 19, 4.3e-3)])  # L = 5 is stepped in place
    def test_the_accepted_trials_are_the_run(self, L, seed, tol):
        a = ElementaryOperation("a", random_driven_model(L, 300 + seed), 0.9)
        b = ElementaryOperation("b", random_driven_model(L, 400 + seed), 0.5)
        idle = ElementaryOperation("idle", SpinModel(L), 0.0)
        seq = PulseSequence([a, b, idle, a])
        start = [StepPlan(3, a.tau), StepPlan(3, b.tau), StepPlan(1, 0.0), StepPlan(3, a.tau)]
        psi0 = random_state(L, 500 + seed)
        counters.reset()
        out, traj = run_sequence(psi0, seq, sample_every=3, plans=start, tol=tol)
        counts = dict(vars(counters))
        ms = [p.m for p in traj.plans]
        # a starts from two different states, and its two positions keep different plans
        assert ms[0] != ms[3] and all(e < tol for e in traj.estimates)
        assert (traj.plans[2], traj.estimates[2]) == (StepPlan(1, 0.0), 0.0)
        ref, ref_traj = run_sequence(psi0, seq, sample_every=3, plans=traj.plans)
        assert np.array_equal(out.amp, ref.amp)
        assert np.array_equal(traj.step, ref_traj.step) and np.array_equal(traj.eo_index, ref_traj.eo_index)
        for name in ("sx", "sy", "sz", "q", "norm", "t"):
            assert np.array_equal(getattr(traj.obs, name), getattr(ref_traj.obs, name))
        assert ref_traj.plans == traj.plans and ref_traj.estimates is None
        # every trial m0, 2 m0, ..., M of a position runs once: 2 M - m0 substeps, nothing more
        expected = dict.fromkeys(counts, 0)
        for eo, first, kept in zip(seq.eos, start, traj.plans):
            if eo.tau > 0.0:
                for name, per_substep in propagator._StepProgram(eo.model, 1.0).counts.items():
                    expected[name] += (2 * kept.m - first.m) * per_substep
        assert counts == expected

    def test_doubling_trials_replay_the_pieces_of_a_recurring_operation(self):
        a = ElementaryOperation("a", random_driven_model(2, 321), 0.9)
        b = ElementaryOperation("b", random_driven_model(2, 421), 0.5)
        idle = ElementaryOperation("idle", SpinModel(2), 0.0)
        start = [StepPlan(3, a.tau), StepPlan(3, b.tau), StepPlan(1, 0.0), StepPlan(3, a.tau)]
        seqs = [a, b, idle, a], [copy.deepcopy(eo) for eo in (a, b, idle, a)]
        shared, private = (run_counting_built(random_state(2, 521), PulseSequence(eos), sample_every=3, plans=start,
                                              tol=1.7e-3) for eos in seqs)
        # a's trials run at m = 3, 6 and 12 at its first position and at 3 and 6
        # at its second, which replays them; b's at 3 and 6. So 21 + 9 substeps
        # are built, against 21 + 9 + 9 when every position holds its own copy
        assert (shared[3], private[3]) == (30, 39)
        TestPieceReuse.assert_same_run(shared, private)
        assert (shared[1].plans, shared[1].estimates) == (private[1].plans, private[1].estimates)

    @pytest.mark.parametrize("pieces", [1, 3, 7])
    def test_doubling_trials_keep_within_the_memory_bound(self, pieces):
        # a's trials at m = 3, 6 and 12, sampled every third substep, would
        # keep 1, 2 and 4 pieces: an operation keeps the trials that fit, in
        # the order they first run
        a = ElementaryOperation("a", random_driven_model(2, 321), 0.9)
        b = ElementaryOperation("b", random_driven_model(2, 421), 0.5)
        start = [StepPlan(3, a.tau), StepPlan(3, b.tau), StepPlan(3, a.tau)]
        with mock.patch.object(propagator, "_KEPT_ELEMENTS", pieces * 16):
            shared = run_counting_built(random_state(2, 521), PulseSequence([a, b, a]), sample_every=3, plans=start,
                                        tol=1.7e-3)
        assert kept_entries(a) <= pieces * 16 and kept_entries(b) <= pieces * 16
        assert kept_entries(a) == pieces * 16
        private = run_counting_built(random_state(2, 521), PulseSequence([copy.deepcopy(eo) for eo in (a, b, a)]),
                                     sample_every=3, plans=start, tol=1.7e-3)
        TestPieceReuse.assert_same_run(shared, private)

    def test_tolerance_must_be_finite_and_non_negative(self):
        eo = ElementaryOperation("e", SpinModel(1).set_static(1, "x", 1.0), 0.1)
        for tol in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
                run_sequence(new_basis_state(1, [0]), PulseSequence([eo]), tol=tol)


class TestDeterminism:
    def test_repeated_evolution_is_bitwise_identical(self):
        # every kernel is a whole-array pass in the calling thread, so three
        # runs of one wide operation give bitwise identical amplitudes
        m = SpinModel(13)
        m.set_coupling(1, 13, "z", 0.3).set_coupling(2, 7, "x", -0.2)
        for j in (1, 5, 13):
            m.set_static(j, "z", 0.7)
            m.set_rf(j, "x", 0.2, 1.1)
        eo = ElementaryOperation("wide", m, 0.5)
        results = []
        for _ in range(3):
            s = random_state(13, 22)
            evolve_eo(s, eo, 0.0, plan=StepPlan(4, 0.5))
            results.append(s.amp)
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])

    def test_repeated_z_step_is_bitwise_identical(self):
        # a diagonal sweep is one whole-array pass, so three z steps of one
        # model give bitwise identical amplitudes
        m = SpinModel(14)
        m.set_coupling(2, 11, "z", 0.4).set_coupling(3, 14, "z", -0.7)
        m.set_static(5, "z", 1.2)
        m.set_rf(9, "z", 0.3, 0.8, 0.1)
        results = []
        for _ in range(3):
            s = random_state(14, 25)
            z_step(s, m, 0.37, 2.1)
            results.append(s.amp)
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])


def _model_with(**entries):
    """A two-qubit model with the given (array name, index, value) entries set directly, past the setters."""
    m = SpinModel(2)
    for name, (index, value) in entries.items():
        getattr(m, name)[index] = value
    return m


def _strided_state():
    """The one-qubit state |0> over a strided view of amplitudes, which no constructor makes."""
    s = new_basis_state(1, [0])
    s.amp = np.repeat(s.amp, 2)[::2]
    return s


#: (a call, the whole message of the ValueError it raises)
BAD_ARGUMENTS = [
    (lambda: run_sequence(new_basis_state(1, [0]), PulseSequence([]), sample_every=0),
     "sample_every must be >= 1"),
    (lambda: run_sequence(new_basis_state(1, [0]), PulseSequence([]), sample_every=2.5),
     "sample_every must be an integer, got 2.5"),
    (lambda: StepPlan(2.5, 1.0), "substep count must be an integer, got 2.5"),
    (lambda: evolve_eo(new_basis_state(1, [0]), ElementaryOperation("e", SpinModel(3), 1.0), 0.0),
     "model has L=3 but state has L=1"),
    (lambda: symmetrized_step(new_basis_state(1, [0]), SpinModel(2), 0.1, 0.0),
     "model has L=2 but state has L=1"),
    (lambda: symmetrized_step(new_basis_state(1, [0]), SpinModel(1), 0.0, 0.0), "step length must be > 0, got 0.0"),
    (lambda: symmetrized_step(new_basis_state(1, [0]), SpinModel(1), -0.1, 0.0), "step length must be > 0, got -0.1"),
    (lambda: symmetrized_step(new_basis_state(1, [0]), SpinModel(1), math.nan, 0.0), "step length must be finite, got nan"),
    (lambda: symmetrized_step(new_basis_state(1, [0]), SpinModel(1), 0.1, math.inf),
     "step start time must be finite, got inf"),
    (lambda: symmetrized_step(new_basis_state(2, [0, 0]), _model_with(coupling=((0, 1, 2), 1.0)), 0.1, 0.0),
     "coupling must be symmetric in (j, k)"),
    (lambda: run_sequence(new_basis_state(1, [0]), PulseSequence([ElementaryOperation("e", SpinModel(2), 1.0)])),
     "operation 'e': model has L=2 but state has L=1"),
    (lambda: evolve_eo(new_basis_state(1, [0]), ElementaryOperation("e", SpinModel(1), 1.0), 0.0, StepPlan(2, 2.0)),
     "plan is for a duration of 2.0, but the operation lasts 1.0"),
    (lambda: evolve_eo(new_basis_state(1, [0]), ElementaryOperation("e", SpinModel(1), 1.0), math.nan, sample_every=1),
     "the clock must be finite, got nan to nan"),
    (lambda: SpinModel(0), "qubit count must be in 1..26, got 0"),
    (lambda: SpinModel(27), "qubit count must be in 1..26, got 27"),
    (lambda: SpinModel(2).set_static(3, "x", 1.0), "qubit index must be in 1..2, got 3"),
    (lambda: SpinModel(2).set_coupling(0, 1, "z", 1.0), "qubit index must be in 1..2, got 0"),
    (lambda: SpinModel(2).set_coupling(2, 2, "z", 1.0), "self-coupling is not allowed"),
    (lambda: _model_with(rf_amp=((1, 0), math.nan)).validate(), "non-finite entries in rf_amp"),
    (lambda: _model_with(rf_phase=((0, 2), math.inf)).validate(), "non-finite entries in rf_phase"),
    (lambda: _model_with(coupling=((0, 0, 2), 1.0)).validate(), "diagonal couplings must be zero"),
    (lambda: PulseSequence([ElementaryOperation("a", SpinModel(1), 1.0), ElementaryOperation("b", SpinModel(2), 1.0)]),
     "all operations in a sequence must share one qubit count"),
    (lambda: global_half_pi_rotation(new_basis_state(1, [0]), "z"), "rotation axis must be 'x' or 'y', got 'z'"),
    (lambda: SpinModel(1).set_static(1, "w", 1.0), "axis must be 'x', 'y' or 'z', got 'w'"),
    (lambda: new_basis_state(1, [0]).apply_gate(2, np.eye(2)), "qubit index must be in 1..1, got 2"),
    (lambda: new_basis_state(1, [0]).apply_gate(1, np.eye(3)), "gate must be a 2x2 matrix"),
    (lambda: _strided_state().apply_gate(1, np.eye(2)), "amplitude array must be C-contiguous"),
    (lambda: ideal_gate("X", 3, 2), "qubit index 3 out of range for L=2 (L <= 10)"),
    (lambda: grover_iterate_check(4), "item must be 0..3, got 4"),
    (lambda: dense_propagator(SpinModel(1), 0.0, 1.0, n_slices=0), "n_slices must be >= 1"),
    (lambda: symmetrized_step(new_basis_state(2, [0, 0]), SpinModel(2).set_static(1, "z", 1e308), 10.0, 0.0),
     "a substep of length 10 advances a phase that is not finite: field scale 1e+308, coupling scale 0"),
    (lambda: evolve_eo(new_basis_state(5, [0] * 5), ElementaryOperation("e", SpinModel(5).set_coupling(
        1, 2, "x", 1e308), 2.0), 0.0, StepPlan(1, 2.0)),
     "a substep of length 2 advances a phase that is not finite: field scale 0, coupling scale 1e+308"),
    (lambda: run_sequence(new_basis_state(2, [0, 0]), PulseSequence([ElementaryOperation(
        "e", SpinModel(2).set_static(1, "z", 1e308).set_rf(1, "z", 1e308, 1.0), 1.0)]), plans=[StepPlan(4, 1.0)]),
     "operation 'e': a substep of length 0.25 advances a phase that is not finite: field scale inf, coupling scale 0"),
    (lambda: symmetrized_step(new_basis_state(1, [0]), SpinModel(1).set_rf(1, "x", 1.0, 1e308), 0.5, -10.0),
     "a drive of frequency 1e+308 reaches a phase that is not finite within time 10.5"),
    (lambda: evolve_eo(new_basis_state(5, [0] * 5), ElementaryOperation("e", SpinModel(5).set_rf(
        2, "y", 1.0, -1e308), 2.0), 0.0, StepPlan(1, 2.0)),
     "a drive of frequency 1e+308 reaches a phase that is not finite within time 2"),
    (lambda: run_sequence(new_basis_state(2, [0, 0]), PulseSequence([ElementaryOperation(
        "e", SpinModel(2).set_rf(1, "z", 1.0, 2.0).set_rf(2, "x", 1.0, 1e308), 2.0)]), plans=[StepPlan(4, 2.0)]),
     "operation 'e': a drive of frequency 1e+308 reaches a phase that is not finite within time 2"),
    (lambda: run_sequence(new_basis_state(1, [0]), PulseSequence([ElementaryOperation(
        name, SpinModel(1).set_static(1, "z", 1e-300), 1.7e308) for name in "abc"]), plans=[StepPlan(1, 1.7e308)] * 3),
     "operation 'b': the clock must be finite, got 1.7e+308 to inf"),
    (lambda: evolve_eo(new_basis_state(1, [0]), ElementaryOperation("e", SpinModel(1), 1.7e308), 1.7e308),
     "the clock must be finite, got 1.7e+308 to inf"),
    (lambda: symmetrized_step(new_basis_state(1, [0]), SpinModel(1), 1e308, 1e308),
     "the clock must be finite, got 1e+308 to inf"),
    (lambda: evolve_eo(new_basis_state(1, [0]), ElementaryOperation("e", SpinModel(1), 1.0), 0.0, StepPlan(2**62, 1.0),
                       sample_every=1),
     "sample_every 1 takes 4611686018427387904 samples, more than one array holds"),
    (lambda: run_sequence(new_basis_state(1, [0]), PulseSequence([ElementaryOperation(name, SpinModel(1), 1.0)
                                                                   for name in "ab"]),
                          sample_every=1, plans=[StepPlan(4, 1.0), StepPlan(2**63 - 1, 1.0)]),
     "operation 'b': sample_every 1 takes 9223372036854775807 samples, more than one array holds"),
]


class TestBadArguments:
    """Every check of a bad argument raises ValueError with its own message."""

    @pytest.mark.parametrize("call, message", BAD_ARGUMENTS, ids=[message for _, message in BAD_ARGUMENTS])
    def test_message(self, call, message):
        counters.reset()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
        assert vars(counters) == vars(propagator.KernelCounters())  # refused before any substep

    def test_phase_overflow_is_refused_before_any_substep(self):
        # the second operation's one substep overflows, so the first one does not run either
        good = ElementaryOperation("good", SpinModel(2).set_static(1, "x", 1.0), 1.0)
        bad = ElementaryOperation("bad", SpinModel(2).set_static(1, "z", 1e308), 10.0)
        counters.reset()
        with pytest.raises(ValueError, match="^operation 'bad': a substep of length 10 advances a phase"):
            run_sequence(new_basis_state(2, [0, 0]), PulseSequence([good, bad]),
                         plans=[StepPlan(4, 1.0), StepPlan(1, 10.0)])
        assert vars(counters) == vars(propagator.KernelCounters())

    def test_drive_phase_overflow_is_refused_before_any_substep(self):
        # the second operation's drive phase overflows over its duration, though each substep is finite
        good = ElementaryOperation("good", SpinModel(2).set_static(1, "x", 1.0), 1.0)
        bad = ElementaryOperation("bad", SpinModel(2).set_rf(1, "z", 1.0, 1e308).set_static(2, "x", 1.0), 10.0)
        counters.reset()
        with pytest.raises(ValueError, match="^operation 'bad': a drive of frequency 1e\\+308 reaches a phase"):
            run_sequence(new_basis_state(2, [0, 0]), PulseSequence([good, bad]),
                         plans=[StepPlan(4, 1.0), StepPlan(1, 10.0)])
        assert vars(counters) == vars(propagator.KernelCounters())

    def test_plan_for_another_duration_is_refused_before_any_substep(self):
        # the second operation's plan is for the first one's duration
        a = ElementaryOperation("a", SpinModel(2).set_static(1, "x", 1.0), 1.0)
        b = ElementaryOperation("b", SpinModel(2).set_static(1, "x", 1.0), 2.0)
        counters.reset()
        with pytest.raises(ValueError, match="^operation 'b': plan is for a duration of 1.0, but the operation lasts 2.0$"):
            run_sequence(new_basis_state(2, [0, 0]), PulseSequence([a, b]), plans=[StepPlan(50, 1.0)] * 2)
        assert vars(counters) == vars(propagator.KernelCounters())

    def test_clock_overflow_is_refused_before_any_substep(self):
        # the second position ends past the largest float, the third starts there
        eo = ElementaryOperation("a", SpinModel(1).set_static(1, "z", 1e-300), 1.7e308)
        counters.reset()
        message = "the clock must be finite, got 1.7e\\+308 to inf$"
        with pytest.raises(ValueError, match=f"^operation 'a': {message}"):
            run_sequence(new_basis_state(1, [0]), PulseSequence([eo] * 3), plans=[StepPlan(1, eo.tau)] * 3)
        with pytest.raises(ValueError, match=f"^{message}"):
            evolve_eo(new_basis_state(1, [0]), eo, 1.7e308, sample_every=1)
        assert vars(counters) == vars(propagator.KernelCounters())

    @pytest.mark.parametrize("L", [2, 5])  # step matrices, in place
    @pytest.mark.parametrize("defect, message", [
        (lambda m: m.rf_phase.__setitem__((0, 0), math.nan), "non-finite entries in rf_phase"),
        (lambda m: m.coupling.__setitem__((0, 1, 2), 3.0), "coupling must be symmetric in (j, k)"),
        (lambda m: m.coupling.__setitem__((1, 1, 0), 0.5), "diagonal couplings must be zero"),
    ], ids=["nan-phase", "one-sided", "diagonal"])
    def test_model_changed_after_its_operation_was_built(self, L, defect, message):
        # the operation holds a validated copy, so the defect never reaches it;
        # the changed model is refused with one message, before any substep,
        # by symmetrized_step and by building an operation of it
        model = random_driven_model(L, 1100)
        eo = ElementaryOperation("e", model, 0.5)
        defect(model)
        counters.reset()
        for call in (lambda: symmetrized_step(random_state(L, 1101), model, 0.1, 0.0),
                     lambda: ElementaryOperation("e", model, 0.5)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
        assert vars(counters) == vars(propagator.KernelCounters())
        pristine = ElementaryOperation("e", random_driven_model(L, 1100), 0.5)
        runs = [evolve_eo(random_state(L, 1101), op, 0.0, StepPlan(3, 0.5), 2)[1] for op in (eo, pristine)]
        assert all(np.array_equal(getattr(runs[0], n), getattr(runs[1], n)) for n in ("sx", "sy", "sz", "q"))

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        L=st.integers(1, 5),
        coupled=st.sets(st.sampled_from("xyz")),
        static=st.sets(st.sampled_from("xyz")),
        rf=st.sets(st.sampled_from("xyz")),
        defect=st.sampled_from(["nan", "one-sided", "huge"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_check_everywhere(self, L, coupled, static, rf, defect, seed):
        # a valid model with one defect injected: one substep of length tau
        # over [0, tau] is refused with one text, before any substep, by
        # symmetrized_step and, for a model that fails validate, by building
        # its operation, else by evolve_eo and run_sequence on that operation
        rng, tau = np.random.default_rng(seed), 2.0
        model = layout_model(L, coupled, static, rf, rng)
        j, k, a = (int(x) for x in rng.integers(0, (L, L, 3)))
        name = ["coupling", "static_field", "rf_amp", "rf_freq", "rf_phase"][rng.integers(5)]
        if defect == "nan":
            getattr(model, name)[(j, k, a) if name == "coupling" else (j, a)] = math.nan
        elif defect == "one-sided":  # j == k sets a diagonal entry
            model.coupling[j, k, a] += 1.0
        elif name == "coupling" and j != k:  # a huge value, here a symmetric pair
            model.coupling[j, k, a] = model.coupling[k, j, a] = 1e308
        elif name == "rf_freq":  # of a drive with an amplitude
            model.rf_amp[j, a], model.rf_freq[j, a] = 0.5, 1e308
        else:
            model.static_field[j, a] = 1e308
        counters.reset()
        with pytest.raises(ValueError) as refused:
            symmetrized_step(random_state(L, seed % 1000), model, tau, 0.0)
        message = str(refused.value)
        try:
            eo = ElementaryOperation("e", model, tau)
        except ValueError as err:  # validate refuses a NaN or a one-sided coupling
            assert defect != "huge" and str(err) == message
        else:  # a huge value is refused by the checks that depend on the run
            assert defect == "huge"
            for call, where in ((lambda: evolve_eo(random_state(L, seed % 1000), eo, 0.0, StepPlan(1, tau)), ""),
                                (lambda: run_sequence(random_state(L, seed % 1000), PulseSequence([eo]),
                                                      plans=[StepPlan(1, tau)]), "operation 'e': ")):
                with pytest.raises(ValueError, match=f"^{re.escape(where + message)}$"):
                    call()
        assert re.match("non-finite entries in |coupling must be symmetric|diagonal couplings|a substep of|a drive of",
                        message)
        assert vars(counters) == vars(propagator.KernelCounters())

    def test_coupling_must_be_exactly_symmetric(self):
        # the multipliers read the lower triangle and the oracle the upper one,
        # so a difference of 5e-6 (within np.allclose's default rtol) is refused
        m = SpinModel(2)
        m.coupling[0, 1, 2], m.coupling[1, 0, 2] = 1.0, 1.000005
        with pytest.raises(ValueError, match="coupling must be symmetric"):
            ElementaryOperation("e", m, 1.0)

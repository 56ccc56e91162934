"""Pulse-library tests: instruction tables, sequence algebra, search endpoints."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinsim

from spinsim.propagator import PulseSequence, auto_substeps, run_sequence
from spinsim.pulses import (
    EO_NAMES,
    GroverProgram,
    conditional_phase_product,
    execution_order,
    f_oracle_product,
    full_search_product,
    grover_program,
    make_profile,
    sequence_from_product,
    shortened_search_product,
    wh_transform_product,
)
from spinsim.reference import (
    dense_propagator,
    global_phase_between,
    ideal_two_qubit,
    matrix_of_sequence,
)
from spinsim.state import StateVector, fidelity, new_basis_state

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def ideal():
    return make_profile("ideal")


@pytest.fixture(scope="module")
def nmr():
    return make_profile("nmr")


class TestProfiles:
    def test_instruction_set_complete(self, ideal, nmr):
        for profile in (ideal, nmr):
            assert set(profile.eos) == set(EO_NAMES)

    def test_one_read_only_profile_per_kind(self):
        nmr = make_profile("nmr")
        assert make_profile("nmr") is nmr and make_profile("ideal") is not nmr
        with pytest.raises(TypeError):
            nmr.eos["X1"] = nmr.eos["X1b"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            nmr.eos = {}
        with pytest.raises(ValueError, match="read-only"):
            nmr.eo("X1").model.set_static(1, "z", 2.0)

    def test_no_profile_is_built_at_import(self):
        script = "import spinsim.cli; from spinsim.pulses import make_profile; print(make_profile.cache_info().currsize)"
        src = str(Path(spinsim.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr

    def test_ideal_rotations_single_static_field(self, ideal):
        for name in EO_NAMES:
            if name == "Ipi":
                continue
            m = ideal.eo(name).model
            assert np.count_nonzero(m.static_field) == 1
            assert np.max(np.abs(m.static_field)) == 1.0
            assert not np.any(m.rf_amp)
            assert ideal.eo(name).tau == TWO_PI * 0.25

    def test_ideal_x1(self, ideal):
        eo = ideal.eo("X1")
        assert eo.model.static_field[0, 0] == 1.0
        assert eo.tau == pytest.approx(math.pi / 2)

    def test_ideal_inverse_flips_field(self, ideal):
        assert ideal.eo("X2b").model.static_field[1, 0] == -1.0
        assert ideal.eo("Y1b").model.static_field[0, 1] == -1.0

    def test_ipi_parameters(self, ideal, nmr):
        for profile in (ideal, nmr):
            eo = profile.eo("Ipi")
            assert eo.model.coupling[0, 1, 2] == -1e-6
            assert eo.tau == TWO_PI * 50e4
        assert not np.any(ideal.eo("Ipi").model.static_field)

    def test_nmr_background_always_on(self, nmr):
        for name in EO_NAMES:
            m = nmr.eo(name).model
            assert m.coupling[0, 1, 2] == -1e-6
            assert m.static_field[0, 2] == 1.0
            assert m.static_field[1, 2] == 0.25

    def test_nmr_x2b_row(self, nmr):
        eo = nmr.eo("X2b")
        assert eo.tau == TWO_PI * 40
        assert eo.model.rf_amp[0, 1] == +0.05
        assert eo.model.rf_amp[1, 1] == +0.0125
        assert eo.model.rf_freq[0, 1] == 0.25
        assert eo.model.rf_freq[1, 1] == 0.25
        assert not np.any(eo.model.rf_phase)

    def test_nmr_x1_row(self, nmr):
        eo = nmr.eo("X1")
        assert eo.tau == TWO_PI * 10
        assert eo.model.rf_amp[0, 1] == -0.05
        assert eo.model.rf_amp[1, 1] == -0.0125
        assert eo.model.rf_freq[0, 1] == 1.0

    def test_nmr_y2b_row(self, nmr):
        eo = nmr.eo("Y2b")
        assert eo.model.rf_amp[0, 0] == -0.05
        assert eo.model.rf_amp[1, 0] == -0.0125
        assert eo.model.rf_freq[0, 0] == 0.25

    def test_nmr_inverses_flip_both_amplitudes(self, nmr):
        for name in ("X1", "X2", "Y1", "Y2"):
            a = nmr.eo(name).model.rf_amp
            b = nmr.eo(name + "b").model.rf_amp
            assert np.array_equal(a, -b)
            assert np.array_equal(nmr.eo(name).model.rf_freq, nmr.eo(name + "b").model.rf_freq)

    def test_unknown_kind_and_name(self, ideal):
        with pytest.raises(ValueError):
            make_profile("perfect")
        with pytest.raises(ValueError, match="unknown instruction"):
            ideal.eo("Z1")


class TestSequenceConstruction:
    def test_execution_order_reverses_products(self):
        assert execution_order(["A", "B", "C"]) == ["C", "B", "A"]

    def test_wh_executes_inverse_y_first(self, ideal):
        seq = sequence_from_product(ideal, wh_transform_product(1))
        assert [eo.name for eo in seq.eos] == ["Y1b", "X1", "X1"]

    def test_wh_reconstructs_walsh_hadamard(self, ideal):
        got = matrix_of_sequence(sequence_from_product(ideal, wh_transform_product(2)))
        w2 = np.kron((1j / math.sqrt(2)) * np.array([[1, 1], [1, -1]]), np.eye(2))
        assert np.max(np.abs(got - w2)) < 1e-14

    def test_conditional_phase_flips_all_but_ground(self, ideal):
        got = matrix_of_sequence(sequence_from_product(ideal, conditional_phase_product()))
        phase = global_phase_between(got, ideal_two_qubit("P"))
        assert abs(abs(phase) - 1.0) < 1e-12

    def test_f_sequences_reconstruct_encodings(self, ideal):
        for item in range(4):
            got = matrix_of_sequence(sequence_from_product(ideal, f_oracle_product(item)))
            phase = global_phase_between(got, ideal_two_qubit(f"F{item}"))
            assert abs(abs(phase) - 1.0) < 1e-12

    def test_f0_sequence_is_minus_p_sequence(self, ideal):
        # the two products are the same instruction list
        f0 = [eo.name for eo in sequence_from_product(ideal, f_oracle_product(0)).eos]
        p = [eo.name for eo in sequence_from_product(ideal, conditional_phase_product()).eos]
        assert f0 == p
        assert np.array_equal(ideal_two_qubit("F0"), -ideal_two_qubit("P"))

    def test_item_bits_put_bars_on_rightmost_block(self):
        assert shortened_search_product(0)[5:7] == ["X1", "Y1b"]
        assert shortened_search_product(1)[5:9] == ["X1", "Y1b", "X2b", "Y2b"]
        assert shortened_search_product(2)[5:9] == ["X1b", "Y1b", "X2", "Y2b"]
        assert shortened_search_product(3)[5:9] == ["X1b", "Y1b", "X2b", "Y2b"]

    def test_shortening_identity(self, ideal):
        # shortened program equals the full product up to a global phase,
        # which is -1 exactly for items 1 and 2
        for item in range(4):
            short = matrix_of_sequence(sequence_from_product(ideal, shortened_search_product(item)))
            full = matrix_of_sequence(sequence_from_product(ideal, full_search_product(item)))
            phase = global_phase_between(short, full, atol=1e-12)
            expected = -1.0 if item in (1, 2) else 1.0
            assert phase == pytest.approx(expected, abs=1e-12)

    def test_program_shape(self, ideal):
        prog = grover_program(2, ideal, "12")
        assert isinstance(prog, GroverProgram)
        names = [eo.name for eo in prog.seq.eos]
        assert names[:6] == ["Y1b", "X1", "X1", "Y2b", "X2", "X2"]
        assert names[6] == "Ipi"
        assert names[7:11] == ["Y2b", "X2", "Y1b", "X1b"]
        assert names[11] == "Ipi"
        assert names[12:] == ["Y2b", "X2", "Y1b", "X1"]

    def test_init_order_swap(self, ideal):
        names = [eo.name for eo in grover_program(0, ideal, "21").seq.eos]
        assert names[:6] == ["Y2b", "X2", "X2", "Y1b", "X1", "X1"]

    def test_invalid_arguments(self, ideal):
        with pytest.raises(ValueError):
            grover_program(4, ideal)
        with pytest.raises(ValueError):
            grover_program(1, ideal, "013")
        with pytest.raises(ValueError):
            wh_transform_product(3)


class TestIdealExecution:
    def test_uniform_preparation(self, ideal):
        w1, w2 = (sequence_from_product(ideal, wh_transform_product(j)) for j in (1, 2))
        seq = PulseSequence(w1.eos + w2.eos)
        out, _ = run_sequence(new_basis_state(2, [0, 0]), seq)
        uniform = StateVector(2, np.full(4, 0.5))
        assert fidelity(out, uniform) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.amp, -0.5, atol=1e-12)

    def test_wh_twice_returns_up_to_phase(self, ideal):
        # W^2 = -identity on the qubit, so two transforms undo themselves
        w1 = sequence_from_product(ideal, wh_transform_product(1))
        seq = PulseSequence(w1.eos + w1.eos)
        out, _ = run_sequence(new_basis_state(2, [0, 0]), seq)
        assert fidelity(out, new_basis_state(2, [0, 0])) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.observables().q, [0.0, 0.0], atol=1e-9)

    def test_quarter_turn_twice_flips_qubit(self, ideal):
        # X1 X1 = i*sigma_x on qubit 1
        seq = sequence_from_product(ideal, ["X1", "X1"])
        out, _ = run_sequence(new_basis_state(2, [0, 0]), seq)
        assert fidelity(out, new_basis_state(2, [1, 0])) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.observables().q, [1.0, 0.0], atol=1e-9)

    def test_every_ideal_eo_matches_its_gate(self, ideal):
        # simulated action equals the exact gate on all basis states
        for name in EO_NAMES:
            u = matrix_of_sequence([name])
            eo = ideal.eo(name)
            for n in range(4):
                amp = np.zeros(4, dtype=complex)
                amp[n] = 1.0
                s = StateVector(2, amp)
                run_out, _ = run_sequence(s, sequence_from_product(ideal, [name]))
                assert np.max(np.abs(run_out.amp - u[:, n])) < 1e-12

    def test_encoding_sequence_on_uniform_state(self, ideal):
        # the item-2 encoding flips exactly the item-2 amplitude's sign
        w1, w2 = (sequence_from_product(ideal, wh_transform_product(j)) for j in (1, 2))
        prep = PulseSequence(w1.eos + w2.eos)
        uniform, _ = run_sequence(new_basis_state(2, [0, 0]), prep)
        encoded, _ = run_sequence(uniform, sequence_from_product(ideal, f_oracle_product(2)))
        target = StateVector(2, 0.5 * np.array([1, 1, -1, 1], dtype=complex))
        assert fidelity(encoded, target) == pytest.approx(1.0, abs=1e-12)

    def test_conditional_phase_on_uniform_state(self, ideal):
        # sign flip on everything except the all-up amplitude, up to phase
        w1, w2 = (sequence_from_product(ideal, wh_transform_product(j)) for j in (1, 2))
        prep = PulseSequence(w1.eos + w2.eos)
        uniform, _ = run_sequence(new_basis_state(2, [0, 0]), prep)
        flipped, _ = run_sequence(uniform, sequence_from_product(ideal, conditional_phase_product()))
        target = StateVector(2, 0.5 * np.array([1, -1, -1, -1], dtype=complex))
        assert fidelity(flipped, target) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("item,expected", [(0, (0, 0)), (1, (1, 0)), (2, (0, 1)), (3, (1, 1))])
    def test_search_endpoints(self, ideal, item, expected):
        prog = grover_program(item, ideal, "12")
        out, _ = run_sequence(new_basis_state(2, [0, 0]), prog.seq)
        q = out.observables().q
        assert q[0] == pytest.approx(expected[0], abs=1e-9)
        assert q[1] == pytest.approx(expected[1], abs=1e-9)
        bits = [item & 1, (item >> 1) & 1]
        assert fidelity(out, new_basis_state(2, bits)) == pytest.approx(1.0, abs=1e-12)

    def test_init_order_irrelevant_for_ideal(self, ideal):
        for item in range(4):
            a, _ = run_sequence(new_basis_state(2, [0, 0]), grover_program(item, ideal, "12").seq)
            b, _ = run_sequence(new_basis_state(2, [0, 0]), grover_program(item, ideal, "21").seq)
            assert np.max(np.abs(a.observables().q - b.observables().q)) < 1e-9


class TestNmrExecution:
    def test_wh_rotates_first_qubit_halfway(self, nmr):
        out, _ = run_sequence(new_basis_state(2, [0, 0]), sequence_from_product(nmr, wh_transform_product(1)))
        assert out.observables().q[0] == pytest.approx(0.5, abs=0.05)

    def test_duration_accounting(self, nmr):
        # the program lasts 1,000,350 periods of 2 pi
        prog = grover_program(2, nmr, "12")
        assert sum(eo.tau for eo in prog.seq.eos) == pytest.approx(TWO_PI * 1000350.0)

    def test_every_table_eo_matches_dense_oracle(self, ideal):
        # constant instructions: the integrator and the brute-force propagator
        # agree on every basis state
        for name in EO_NAMES:
            eo = ideal.eo(name)
            u = dense_propagator(eo.model, 0.0, eo.tau)
            for n in range(4):
                amp = np.zeros(4, dtype=complex)
                amp[n] = 1.0
                s = StateVector(2, amp)
                from spinsim.propagator import evolve_eo

                evolve_eo(s, eo, 0.0)
                assert np.max(np.abs(s.amp - u[:, n])) < 1e-12

    def test_pulse_approximates_rotation_with_measurable_error(self, nmr):
        # the sinusoidal pulse only approximates the exact quarter turn
        eo = nmr.eo("X1")
        u = dense_propagator(eo.model, 0.0, eo.tau, tol=1e-7)
        from spinsim.reference import ideal_gate

        col_fid = [abs(np.vdot(ideal_gate("X", 1, 2)[:, n], u[:, n])) for n in range(4)]
        assert min(col_fid) > 0.99
        assert min(col_fid) < 1.0 - 1e-4

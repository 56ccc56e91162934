"""Command-line interface tests: subcommands, exit codes, round trips."""

import argparse
import ast
import contextlib
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest

import spinsim
from spinsim import cli, experiments, propagator
from spinsim.cli import main
from spinsim.experiments import run_grover
from spinsim.propagator import KernelCounters, counters
from spinsim.pulses import grover_program, make_profile

PINNED = ["--sample-every", "1000000000"]  # one sample per operation, as in the pinned report
# two zero-duration operations at a fixed plan of 50 substeps each
IDLE_CONFIG = "L = 2\n[eo idle]\ntau_over_2pi = 0\n[sequence s]\neos = idle, idle\n[run]\nsequence = s\nsteps = 50\n"


class TestGroverCommand:
    def test_ideal_run_reports_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["grover", "--hardware", "ideal", "--item", "3", "--init", "12",
                     "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "Q1 = 1.000000" in captured and "Q2 = 1.000000" in captured
        assert "reference" in captured and "ok" in captured
        header = out.read_text().splitlines()[0]
        assert header.startswith("step,t,norm,sx1")

    @pytest.mark.parametrize("init", ["12", "21"])
    @pytest.mark.parametrize("item", range(4))
    def test_ideal_readouts_print_no_negative_zero(self, capsys, item, init):
        # a readout that rounds to zero prints unsigned, as its reference does
        assert main(["grover", "--hardware", "ideal", "--item", str(item), "--init", init]) == 0
        assert "-0.000000" not in capsys.readouterr().out

    def test_wrong_answer_still_exits_zero(self, capsys):
        # the unstable preparation produces wrong answers by design
        code = main(["grover", "--hardware", "ideal", "--item", "0", "--init", "21"])
        assert code == 0

    def test_bad_steps_value(self, capsys):
        code = main(["grover", "--hardware", "ideal", "--item", "0", "--steps", "soon"])
        assert code == 1

    def test_unwritable_output(self, capsys, tmp_path):
        code = main(["grover", "--hardware", "ideal", "--item", "0",
                     "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert code == 3
        # the I/O error wins over an unmet tolerance, with its one stderr line
        capsys.readouterr()
        code = main(["grover", "--hardware", "ideal", "--item", "0", "--tol", "0",
                     "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        err = capsys.readouterr().err
        assert code == 3 and err.count("\n") == 1 and str(tmp_path / "no" / "dir" / "x.csv") in err

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["grover", "--hardware", "warp", "--item", "0"])
        assert err.value.code == 1

    def test_one_parser_serves_every_call(self, capsys):
        # two calls build one parser, and a usage error after a good call still exits 1 with its line
        cli._build_parser.cache_clear()
        assert main(["dump-profile", "ideal"]) == main(["dump-profile", "ideal"]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["grover", "--hardware", "warp", "--item", "0"])
        assert err.value.code == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("spinsim grover: error: argument --hardware: invalid choice: 'warp'")

    @pytest.mark.parametrize("hardware, exit_code", [("ideal", 0), ("nmr", 2)])
    def test_tol_starts_doubling_from_steps(self, capsys, hardware, exit_code):
        # --steps sets the first trial plan, so each operation ends at m = 7 * 2^k,
        # k >= 1; nmr needs more than 10 doublings from 7 for some of them
        code = main(["grover", "--hardware", hardware, "--item", "1", "--steps", "7", "--tol", "1e-6", *PINNED])
        ms = [int(line.split("m = ")[1].split(",")[0]) for line in capsys.readouterr().out.splitlines()
              if line.startswith("  operation ")]
        assert code == exit_code and len(ms) == 16
        assert all(m % 7 == 0 and m // 7 >= 2 and (m // 7) & (m // 7 - 1) == 0 for m in ms)
        assert max(ms) == (7 << 10 if exit_code else 14)

    def test_tol_writes_the_accepted_trajectory(self, tmp_path, capsys):
        # with the default sampling the CSV holds the samples of the accepted
        # trials: the initial point, then every stride-th substep and the end
        # of each operation at its accepted plan
        out = tmp_path / "traj.csv"
        assert main(["grover", "--hardware", "nmr", "--item", "2", "--tol", "1e-4", "--out", str(out)]) == 0
        capsys.readouterr()
        report = run_grover("nmr", 2, tol=1e-4)
        strides = [max(1, round(p.m / 200)) for p in report.samples.plans]
        rows = out.read_text().splitlines()
        assert len(rows) == 2 + sum(len(range(k, p.m, k)) + 1 for k, p in zip(strides, report.samples.plans))
        assert len(rows) == 1 + len(report.samples)
        header, last = rows[0].split(","), rows[-1].split(",")
        assert [float(last[header.index(f"q{j}")]) for j in (1, 2)] == pytest.approx(report.q, abs=1e-11)

    def test_help_names_the_documented_subcommands(self, capsys):
        documented = re.search(r"Subcommands: ([^.]*)\.", cli.__doc__).group(1)
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        listed = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1)
        assert err.value.code == 0
        assert listed.split(",") == [name.strip() for name in documented.split(",")]

    def test_an_nmr_program_does_not_import_numpy_ma(self):
        # a values-only np.unique call imports numpy.ma, about 1.6 MB resident;
        # this guards the np.unique calls of _matrix_pieces
        script = textwrap.dedent("""
            import contextlib, io, sys
            from spinsim import cli
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["grover", "--hardware", "nmr", "--item", "1"]) == 0
            assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
        """)
        src = str(Path(spinsim.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_a_stride_beyond_int64_samples_each_last_substep(self, tmp_path, capsys):
        # a stride that no int64 holds samples like one of m or more
        huge, pinned = tmp_path / "huge.csv", tmp_path / "pinned.csv"
        for stride, out in (("99999999999999999999", huge), (PINNED[1], pinned)):
            assert main(["grover", "--hardware", "nmr", "--item", "0", "--sample-every", stride,
                         "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
        assert huge.read_bytes() == pinned.read_bytes()


class TestSharedProfile:
    """The 8 NMR search programs share one profile, whose instructions keep their step-matrix pieces."""

    PROGRAMS = [(init, item) for init in ("12", "21") for item in range(4)]

    def run_all(self, tmp_path, fresh):
        """Each program's CSV bytes and kernel counts through ``main``, and how many step-matrix pieces
        were built; with ``fresh`` each program runs against a newly built profile."""
        runs = []
        with mock.patch.object(propagator, "_matrix_pieces", wraps=propagator._matrix_pieces) as built:
            for init, item in self.PROGRAMS:
                if fresh:
                    make_profile.cache_clear()
                path = tmp_path / f"{init}-{item}-{fresh}.csv"
                counters.reset()
                assert main(["grover", "--hardware", "nmr", "--item", str(item), "--init", init,
                             "--out", str(path)]) == 0
                runs.append((path.read_bytes(), dict(vars(counters))))
        return runs, built.call_count

    def test_programs_match_runs_on_fresh_profiles(self, tmp_path):
        (shared, shared_builds), (fresh, fresh_builds) = self.run_all(tmp_path, False), self.run_all(tmp_path, True)
        assert shared == fresh
        # one build per instruction the programs use (7 of the 9: neither Y1 nor Y2
        # occurs), against one per instruction of each program on fresh profiles
        programs = [grover_program(item, make_profile("nmr"), init).seq for init, item in self.PROGRAMS]
        assert shared_builds == len({eo.name for seq in programs for eo in seq}) == 7
        assert fresh_builds == sum(len({eo.name for eo in seq}) for seq in programs) == 48

    def test_facts_are_derived_once_per_instruction(self, tmp_path):
        # the programs build one profile of 9 instructions, each of which derives its
        # scales, top frequency and period count when it is built and never in a run
        with mock.patch.object(propagator, "_facts", wraps=propagator._facts) as derived:
            self.run_all(tmp_path, False)
        assert derived.call_count == len(make_profile("nmr").eos) == 9


class TestRunCommand:
    def test_uniform_preparation_from_config(self, tmp_path, capsys):
        profile_path = tmp_path / "ideal.cfg"
        main(["dump-profile", "ideal", "--out", str(profile_path)])
        text = profile_path.read_text()
        text += "\n[sequence both_wh]\neos = Y2b, X2, X2, Y1b, X1, X1\n"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        code = main(["run", "--config", str(cfg_path), "--sequence", "both_wh",
                     "--compare-uniform"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "Q1 = 0.500000" in captured and "Q2 = 0.500000" in captured
        assert "fidelity with uniform superposition = 1.000000000" in captured

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent.cfg"]) == 3

    def test_unknown_eo_named_in_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[eo A]\ntau_over_2pi = 1\n[sequence s]\neos = A, MISSING\n[run]\nsequence = s\n")
        code = main(["run", "--config", str(cfg)])
        assert code == 1
        assert "MISSING" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("L = 2\n[eo A]\ntau_over_2pi = soon\n")
        code = main(["run", "--config", str(cfg), "--sequence", "x"])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["tau_over_2pi = nan", "tau_over_2pi = 1\n[run]\nsteps = 0"])
    def test_non_finite_or_zero_steps_exits_one(self, tmp_path, capsys, bad):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"L = 1\n[eo A]\n{bad}\n[sequence s]\neos = A\n")
        assert main(["run", "--config", str(cfg), "--sequence", "s"]) == 1
        assert "config error: line" in capsys.readouterr().err

    def test_no_sequence_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "no_run.cfg"
        cfg.write_text("L = 1\n[eo A]\ntau_over_2pi = 1\n[sequence s]\neos = A\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "spinsim: config error: no sequence given (use --sequence or a [run] section)\n")

    def test_empty_sequence_yields_single_sample(self, tmp_path, capsys):
        # a [run] with a defined but never-extended sequence cannot exist, so
        # use a zero-duration EO, which is the identity
        cfg = tmp_path / "idle.cfg"
        cfg.write_text("L = 2\n[eo idle]\ntau_over_2pi = 0\n[sequence s]\neos = idle\n"
                       "[run]\nstate = 00\nsequence = s\n")
        out = tmp_path / "t.csv"
        code = main(["run", "--config", str(cfg), "--sequence", "s", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 2  # header + initial sample only

    def test_zero_duration_operations_take_no_substeps(self, tmp_path, capsys):
        cfg = tmp_path / "idle.cfg"
        cfg.write_text(IDLE_CONFIG)
        assert main(["run", "--config", str(cfg)]) == 0
        assert "  operations 2, substeps 0, samples 1" in capsys.readouterr().out.splitlines()

    def test_a_config_stride_beyond_int64_samples_each_last_substep(self, tmp_path, capsys):
        # the [run] section's sample_every, as the --sample-every option
        main(["dump-profile", "nmr", "--out", str(tmp_path / "nmr.cfg")])
        csvs = []
        for stride in ("99999999999999999999", PINNED[1]):
            cfg, out = tmp_path / f"{stride}.cfg", tmp_path / f"{stride}.csv"
            cfg.write_text((tmp_path / "nmr.cfg").read_text() + f"sample_every = {stride}\n")  # ends in [run]
            capsys.readouterr()
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_round_trip_matches_preset(self, tmp_path, capsys):
        # dump the nmr profile, rerun a search program from the config text,
        # and compare against the preset path at full precision
        from spinsim.config import parse_config
        from spinsim.propagator import run_sequence
        from spinsim.state import new_basis_state

        profile_path = tmp_path / "nmr.cfg"
        main(["dump-profile", "nmr", "--out", str(profile_path)])
        capsys.readouterr()
        cfg = parse_config(profile_path.read_text())
        seq = cfg.resolve_sequence("grover2_init12")
        final, _ = run_sequence(new_basis_state(2, [0, 0]), seq, sample_every=10**9)
        preset = run_grover("nmr", 2, "12", sample_every=10**9)
        q = final.observables().q
        assert abs(q[0] - preset.q[0]) < 1e-12
        assert abs(q[1] - preset.q[1]) < 1e-12

    @pytest.mark.parametrize("item,init", [(2, "21"), (1, "12")])
    def test_run_and_grover_share_one_report(self, tmp_path, capsys, item, init):
        # a search program from the dumped profile and the preset write the
        # same CSV and print the same counts and readouts
        profile_path = tmp_path / "nmr.cfg"
        main(["dump-profile", "nmr", "--out", str(profile_path)])
        run_csv, grover_csv = tmp_path / "run.csv", tmp_path / "grover.csv"
        capsys.readouterr()
        assert main(["run", "--config", str(profile_path), "--sequence", f"grover{item}_init{init}",
                     "--out", str(run_csv)]) == 0
        run_lines = capsys.readouterr().out.splitlines()
        assert main(["grover", "--hardware", "nmr", "--item", str(item), "--init", init,
                     "--out", str(grover_csv)]) == 0
        grover_lines = capsys.readouterr().out.splitlines()
        assert run_csv.read_bytes() == grover_csv.read_bytes()
        for prefix in ("  operations ", "  final "):
            shared = [line for line in run_lines if line.startswith(prefix)]
            assert len(shared) == 1
            assert shared == [line for line in grover_lines if line.startswith(prefix)]


class TestOtherCommands:
    def test_selftest_passes(self, capsys, self_test_checks):
        # the session's checks stand in for the five check functions; self_test prints them and
        # _cmd_selftest turns them into the exit code (the closed-stdout test runs the real command)
        names = ("_check_conjugation", "_check_convergence_order", "_check_shortening",
                 "_check_iteration_pattern", "_check_ideal_eo_exactness")
        with contextlib.ExitStack() as stack:
            for name, check in zip(names, self_test_checks.values(), strict=True):
                stack.enter_context(mock.patch.object(experiments, name, return_value=check))
            assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 5
        assert "[FAIL]" not in out

    def test_converge_ideal(self, capsys):
        code = main(["grover", "--hardware", "ideal", "--item", "2", "--init", "12",
                     "--tol", "1e-9", *PINNED])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count(": m = 2, error estimate = ") == 16
        assert "every operation under tol 1e-09" in out

    def test_converge_unreachable(self, capsys):
        code = main(["grover", "--hardware", "ideal", "--item", "2", "--tol", "0", *PINNED])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1 and "convergence failure" in captured.err
        assert "NOT every operation under tol 0" in captured.out

    def test_converge_nmr_meets_its_tolerance(self, capsys):
        code = main(["grover", "--hardware", "nmr", "--item", "2", "--init", "12", "--tol", "1e-4", *PINNED])
        out = capsys.readouterr().out
        estimates = [float(line.rsplit("= ", 1)[1]) for line in out.splitlines() if line.startswith("  operation ")]
        assert code == 0
        assert len(estimates) == 16 and max(estimates) < 1e-4
        assert "every operation under tol 0.0001" in out

    def test_converge_report_is_pinned(self, capsys):
        # the whole report of one NMR preset, its wall-time line left out.
        # One substep integrates Ipi (operations 7 and 12) exactly, so their
        # estimates are |psi_2 - psi_1| / 3 of rounding alone, about 1e-16.
        # X2, X2b, Y2 and Y2b (operations 4-6, 8, 9, 13, 14) last 10 periods of
        # their drive, so their plan is a multiple of 10: 2 x 2,520
        expected = """
        grover search: hardware=nmr item=2 init=12
          operations 16, substeps 44244, samples 17
          final Q1 = 0.035825   Q2 = 0.838009
          norm deviation = 1.976e-11
          reference: Q1 = 0.037  Q2 = 0.836
          deviation dQ1 = 0.0012  dQ2 = 0.0020  [ok, tol 0.03]
          operation  1: m = 1280, error estimate = 1.257e-06
          operation  2: m = 1280, error estimate = 1.257e-06
          operation  3: m = 1280, error estimate = 1.257e-06
          operation  4: m = 5040, error estimate = 1.626e-05
          operation  5: m = 5040, error estimate = 1.626e-05
          operation  6: m = 5040, error estimate = 1.626e-05
          operation  7: m = 2, error estimate = 7.401e-17
          operation  8: m = 5040, error estimate = 1.626e-05
          operation  9: m = 5040, error estimate = 1.626e-05
          operation 10: m = 1280, error estimate = 1.258e-06
          operation 11: m = 1280, error estimate = 1.255e-06
          operation 12: m = 2, error estimate = 8.171e-17
          operation 13: m = 5040, error estimate = 1.626e-05
          operation 14: m = 5040, error estimate = 1.626e-05
          operation 15: m = 1280, error estimate = 1.257e-06
          operation 16: m = 1280, error estimate = 1.259e-06
          error estimate = 1.226e-04 (sum); every operation under tol 0.0001
        """
        code = main(["grover", "--hardware", "nmr", "--item", "2", "--init", "12", "--tol", "1e-4", *PINNED])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [line for line in out if not line.startswith("  wall time = ")] == (
            textwrap.dedent(expected).strip("\n").splitlines())

    def test_dump_profile_stdout(self, capsys):
        assert main(["dump-profile", "nmr"]) == 0
        out = capsys.readouterr().out
        assert "[eo X1]" in out and "[sequence grover3_init21]" in out


class TestBadInput:
    """Bad values exit 1, and a closed stdout exits 3, with a one-line message from a real
    ``spinsim`` process, never a traceback."""

    @staticmethod
    def spinsim(*argv, stdout=subprocess.PIPE):
        src = str(Path(spinsim.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        env.pop("PYTHONUNBUFFERED", None)  # a buffered stdout, as a user's shell gives, is flushed at exit
        return subprocess.run([sys.executable, "-m", "spinsim.cli", *argv], env=env,
                              stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)

    @staticmethod
    def assert_usage_error(proc, fragment):
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and fragment in proc.stderr

    @pytest.mark.parametrize("value", ["0", "-1", "30"])
    def test_qubit_count_out_of_range(self, tmp_path, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"L = {value}\n[eo A]\ntau_over_2pi = 1\n[sequence s]\neos = A\n")
        self.assert_usage_error(self.spinsim("run", "--config", str(cfg), "--sequence", "s"),
                                "config error: line 1: L must be in 1..26")

    def test_empty_section_header(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("L = 1\n[]\n")
        self.assert_usage_error(self.spinsim("run", "--config", str(cfg)),
                                "config error: line 2: unknown section '[]'")

    def test_zero_sample_stride(self):
        proc = self.spinsim("grover", "--hardware", "ideal", "--item", "0", "--sample-every", "0")
        self.assert_usage_error(proc, "--sample-every must be a positive integer")

    def test_sample_grid_overflow(self):
        # 2**62 samples, one after each substep, are more than one array holds
        proc = self.spinsim("grover", "--hardware", "nmr", "--item", "1", "--steps", str(2**62), "--sample-every", "1")
        self.assert_usage_error(proc, "sample_every 1 takes 4611686018427387904 samples, more than one array holds")

    def test_zero_steps(self):
        proc = self.spinsim("grover", "--hardware", "ideal", "--item", "0", "--steps", "0")
        self.assert_usage_error(proc, "--steps must be 'auto' or >= 1")

    def test_duration_overflow(self, tmp_path):
        # 2 pi times the largest finite tau_over_2pi is not finite
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("L = 1\n[eo A]\ntau_over_2pi = 1e308\nh0 z 1 = 1\n[sequence s]\neos = A\n")
        self.assert_usage_error(self.spinsim("run", "--config", str(cfg), "--sequence", "s"),
                                "config error: line 3: tau_over_2pi must be >= 0 and give a finite duration")

    def test_substep_count_overflow(self, tmp_path):
        # 0.1 rad per substep of a 1e308 field over 2 pi is not a finite count
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("L = 1\n[eo A]\ntau_over_2pi = 1\nh0 z 1 = 1e308\nh0 x 1 = 1\n[sequence s]\neos = A\n")
        self.assert_usage_error(self.spinsim("run", "--config", str(cfg), "--sequence", "s"),
                                "operation 'A' needs a substep count that is not finite")

    def test_field_scale_overflow(self, tmp_path):
        # a static and an RF amplitude of 1e308 on one qubit add to infinity
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("L = 1\n[eo A]\ntau_over_2pi = 1\nh0 z 1 = 1e308\nh1 z 1 = 1e308\n[sequence s]\neos = A\n")
        self.assert_usage_error(self.spinsim("run", "--config", str(cfg), "--sequence", "s"),
                                "operation 'A' needs a substep count that is not finite")

    @pytest.mark.parametrize("L", [2, 5])  # step matrices and in place
    def test_fixed_plan_phase_overflow(self, tmp_path, capsys, L):
        # one substep of a 1e308 field over 2 pi * 10 advances a phase that is not finite
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"L = {L}\n[eo A]\ntau_over_2pi = 10\nh0 z 1 = 1e308\nh0 x 2 = 1\n[sequence s]\neos = A\n"
                       "[run]\nsequence = s\nsteps = 1\n")
        message = "operation 'A': a substep of length 62.8319 advances a phase that is not finite"
        self.assert_usage_error(self.spinsim("run", "--config", str(cfg)), message)
        counters.reset()
        assert main(["run", "--config", str(cfg)]) == 1  # in process, where a warning is an error
        assert message in capsys.readouterr().err
        assert vars(counters) == vars(KernelCounters())

    @pytest.mark.parametrize("L", [2, 5])  # step matrices and in place
    def test_fixed_plan_drive_phase_overflow(self, tmp_path, capsys, L):
        # each substep of a 1e308 drive frequency is finite, but its phase over 2 pi * 10 is not
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"L = {L}\n[eo A]\ntau_over_2pi = 10\nh1 z 1 = 1\nf z 1 = 1e308\nh0 x 2 = 1\n"
                       "[sequence s]\neos = A\n[run]\nsequence = s\nsteps = 1\n")
        message = "operation 'A': a drive of frequency 1e+308 reaches a phase that is not finite within time 62.8319"
        self.assert_usage_error(self.spinsim("run", "--config", str(cfg)), message)
        counters.reset()
        assert main(["run", "--config", str(cfg)]) == 1  # in process, where a warning is an error
        assert message in capsys.readouterr().err
        assert vars(counters) == vars(KernelCounters())

    def test_clock_overflow(self, tmp_path, capsys):
        # each operation lasts 2 pi * 1e307; the third position's start and the second's end pass the largest float
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("L = 1\n[eo A]\ntau_over_2pi = 1e307\nh0 z 1 = 1e-300\n"
                       "[sequence s]\neos = A, A, A\n[run]\nsequence = s\nsteps = 1\n")
        message = "operation 'A': the clock must be finite, got 1.25664e+308 to inf"
        self.assert_usage_error(self.spinsim("run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")), message)
        assert not (tmp_path / "t.csv").exists()
        counters.reset()
        assert main(["run", "--config", str(cfg)]) == 1  # in process, where a warning is an error
        assert message in capsys.readouterr().err
        assert vars(counters) == vars(KernelCounters())

    def test_steps_option_overflow(self):
        proc = self.spinsim("grover", "--hardware", "ideal", "--item", "0", "--steps", "99999999999999999999999")
        self.assert_usage_error(proc, "substep count must be in 1..2**63 - 1")

    def test_steps_line_overflow(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("L = 1\n[eo A]\ntau_over_2pi = 1\nh0 z 1 = 1\nh0 x 1 = 1\n[sequence s]\neos = A\n"
                       "[run]\nsequence = s\nsteps = 99999999999999999999999\n")
        self.assert_usage_error(self.spinsim("run", "--config", str(cfg)), "substep count must be in 1..2**63 - 1")

    def test_planned_count_overflow(self, tmp_path):
        # 0.1 rad per substep of a 1e200 field over 2 pi is finite but does not fit in int64
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("L = 1\n[eo A]\ntau_over_2pi = 1\nh0 z 1 = 1e200\nh0 x 1 = 1\n[sequence s]\neos = A\n")
        self.assert_usage_error(self.spinsim("run", "--config", str(cfg), "--sequence", "s"),
                                "operation 'A' needs a substep count that is over 2**63 - 1")

    def test_config_not_utf8(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfeL = 1\n")
        proc = self.spinsim("run", "--config", str(cfg))
        self.assert_usage_error(proc, f"{cfg}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("command", re.search(r"Subcommands: ([^.]*)\.", cli.__doc__).group(1).split(", "))
    def test_closed_stdout_exits_three(self, tmp_path, command):
        cfg = tmp_path / "idle.cfg"
        cfg.write_text(IDLE_CONFIG)
        argv = {"grover": ["grover", "--hardware", "ideal", "--item", "0"], "run": ["run", "--config", str(cfg)],
                "selftest": ["selftest"], "dump-profile": ["dump-profile", "nmr"]}[command]
        r, w = os.pipe()
        os.close(r)  # every write to stdout fails with a broken pipe
        try:
            proc = self.spinsim(*argv, stdout=w)
        finally:
            os.close(w)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("spinsim: error: ")

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tolerance(self, tol):
        proc = self.spinsim("grover", "--hardware", "ideal", "--item", "0", "--tol", tol)
        self.assert_usage_error(proc, "--tol must be a finite number >= 0")

    def test_removed_converge_command(self):
        # the tolerance is grover's --tol; the old subcommand is an unknown choice
        proc = self.spinsim("converge", "--hardware", "nmr", "--item", "2", "--tol", "1e-4")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "invalid choice: 'converge'" in proc.stderr


def test_readme_commands_parse():
    # every command of README's "Command line" block parses, and every option it names exists
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line\n")[1].split("\n## ")[0]
    commands = [line for line in section.split("```sh\n")[1].split("```")[0].splitlines() if line.startswith("spinsim ")]
    parser = cli._build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line, comments=True)[1:])
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for p in sub.choices.values() for a in p._actions for s in a.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    assert len(commands) >= 7 and len(named) >= 8
    assert named <= options


def test_only_main_handles_errors():
    # the commands raise and main alone turns an error into its line and exit code
    tree = ast.parse(Path(cli.__file__).read_text())

    def tries(node):
        return {n.lineno for n in ast.walk(node) if isinstance(n, (ast.Try, getattr(ast, "TryStar", ast.Try)))}

    main_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    assert tries(main_def) and tries(tree) == tries(main_def)

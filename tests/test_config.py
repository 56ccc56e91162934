"""Config format tests: parsing, errors with line numbers, dump round cycle."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinsim.config import ConfigError, dump_profile, parse_config
from spinsim.propagator import ElementaryOperation
from spinsim.pulses import EO_NAMES, HardwareProfile, make_profile

SAMPLE = """
# a two-qubit toy setup
L = 2

[eo X1]
tau_over_2pi = 0.25
h0 x 1 = 1

[eo Ipi]
tau_over_2pi = 500000   # the conditional-phase wait
J z 1 2 = -1e-06

[sequence prep]
eos = X1, X1, Ipi

[run]
state = 01
sequence = prep
sample_every = 7
steps = auto
"""


class TestParsing:
    def test_sample_parses(self):
        cfg = parse_config(SAMPLE)
        assert cfg.L == 2
        assert set(cfg.eos) == {"X1", "Ipi"}
        assert cfg.eos["X1"].tau == pytest.approx(math.pi / 2)
        assert cfg.eos["X1"].model.static_field[0, 0] == 1.0
        assert cfg.eos["Ipi"].model.coupling[0, 1, 2] == -1e-06
        assert cfg.sequences["prep"] == ["X1", "X1", "Ipi"]
        assert cfg.run.state_bits == [0, 1]
        assert cfg.run.sequence == "prep"
        assert cfg.run.sample_every == 7
        assert cfg.run.steps == "auto"

    def test_resolve_sequence(self):
        cfg = parse_config(SAMPLE)
        seq = cfg.resolve_sequence("prep")
        assert [eo.name for eo in seq.eos] == ["X1", "X1", "Ipi"]

    def test_unknown_sequence_listed(self):
        cfg = parse_config(SAMPLE)
        with pytest.raises(ConfigError, match="prep"):
            cfg.resolve_sequence("nope")

    def test_undefined_eo_listed(self):
        cfg = parse_config(SAMPLE + "\n[sequence bad]\neos = X1, GHOST, PHANTOM\n")
        with pytest.raises(ConfigError) as err:
            cfg.resolve_sequence("bad")
        assert "GHOST" in str(err.value) and "PHANTOM" in str(err.value)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# lone comment\n\nL = 1\n[eo A]\ntau_over_2pi = 1 # trailing\n")
        assert cfg.eos["A"].tau == pytest.approx(2 * math.pi)

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("L = two", 1, "integer"),
            ("[eo A]\nJ q 1 2 = 1\ntau_over_2pi = 1", 2, "axis"),
            ("[eo A]\nh0 x 9 = 1\ntau_over_2pi = 1", 2, "out of range"),
            ("[eo A]\ntau_over_2pi = abc", 2, "number"),
            ("[eo A]\nbananas = 3", 2, "unknown EO parameter"),
            ("[misc]", 1, "unknown section"),
            ("[eo A]\ntau_over_2pi = 1\n[eo A]\ntau_over_2pi = 1", 3, "duplicate"),
            ("[run]\nstate = 012", 2, "bitstring"),
            ("[run]\nsample_every = 0", 2, ">= 1"),
            ("stray line", 1, "key = value"),
            ("[eo A]\nh0 x 1 = 1", 1, "tau_over_2pi"),
            ("[eo A]\ntau_over_2pi = nan", 2, "finite"),
            ("[eo A]\ntau_over_2pi = inf", 2, "finite"),
            ("[eo A]\ntau_over_2pi = 1e308", 2, "finite duration"),
            ("[eo A]\ntau_over_2pi = -1", 2, ">= 0"),
            ("[eo A]\ntau_over_2pi = 1\nh1 y 1 = -inf", 3, "finite"),
            ("[run]\nsteps = 0", 2, ">= 1"),
            ("[run]\nsteps = -3", 2, ">= 1"),
            ("L = 0", 1, r"in 1\.\.26"),
            ("L = -1\n[eo A]\ntau_over_2pi = 1", 1, r"in 1\.\.26"),
            ("# register\nL = 30", 2, r"in 1\.\.26"),
            ("[]", 1, "unknown section"),
            ("[ ]", 1, "unknown section"),
            ("[eo A]\n= 3", 2, "unknown EO parameter"),
            ("L = 2\nL = 3", 2, "set once"),
            ("[eo A]\ntau_over_2pi = 1\n[sequence s]\neos = A\n[sequence s]", 5, "duplicate"),
            ("[eo A]\ntau_over_2pi = 1\nJ z 1 1 = 1", 3, "distinct"),
            ("[eo", 1, "unterminated"),
            ("[sequence s]\nnames = A", 2, "only 'eos'"),
            ("x = 1", 1, "unexpected top-level key"),
            ("[run]\nspeed = 3", 2, "unknown run directive"),
            ("[run]\nsteps = soon", 2, "integer"),
            ("[sequence s]\n[sequence s]\n[run]\nsequence = s\n", 2, "duplicate sequence name 's'"),
            ("[run]\nsequence = s\n[run]  # merged, t would win\nsequence = t", 3, r"duplicate \[run\] section"),
            ("[sequence s]\n[run]\nsequence = s", 1, r"\[sequence s\] is missing an eos line"),
            ("[eo A]\ntau_over_2pi = 1\n[sequence s]  # no eos line", 3, "missing an eos line"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(ConfigError, match=fragment) as err:
            parse_config(text)
        assert err.value.line_no == line

    def test_state_length_checked(self):
        with pytest.raises(ConfigError, match="2 bits"):
            parse_config("L = 2\n[run]\nstate = 0\n")


class TestDump:
    @pytest.mark.parametrize("kind", ["ideal", "nmr"])
    def test_dump_reparses_bitwise(self, kind):
        profile = make_profile(kind)
        cfg = parse_config(dump_profile(profile))
        assert set(cfg.eos) == set(EO_NAMES)
        for name in EO_NAMES:
            a = profile.eos[name]
            b = cfg.eos[name]
            assert b.tau == a.tau  # bitwise duration round trip
            assert np.array_equal(a.model.coupling, b.model.coupling)
            assert np.array_equal(a.model.static_field, b.model.static_field)
            assert np.array_equal(a.model.rf_amp, b.model.rf_amp)
            assert np.array_equal(a.model.rf_freq, b.model.rf_freq)
            assert np.array_equal(a.model.rf_phase, b.model.rf_phase)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @example(kind="nmr", edits=[("X1", "rf", "y", 1, [0.0, 2.0, 0.3])])  # a drive with zero amplitude
    @given(
        kind=st.sampled_from(["ideal", "nmr"]),
        edits=st.lists(
            st.tuples(
                st.sampled_from(EO_NAMES),
                st.sampled_from(["J", "h0", "rf", "tau"]),
                st.sampled_from("xyz"),
                st.integers(1, 2),
                st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
            ),
            max_size=8,
        ),
    )
    def test_edited_profiles_reparse_bitwise(self, kind, edits):
        # either bundled profile, with no edits or with random couplings,
        # fields, drives and durations written over copies of its models
        # (the profile's own are read-only) and built into a new profile
        bundled = make_profile(kind)
        models = {name: copy.deepcopy(eo.model) for name, eo in bundled.eos.items()}
        taus = {name: eo.tau for name, eo in bundled.eos.items()}
        for name, what, axis, j, (a, b, c) in edits:
            if what == "J":
                models[name].set_coupling(1, 2, axis, a)
            elif what == "h0":
                models[name].set_static(j, axis, a)
            elif what == "rf":
                models[name].set_rf(j, axis, a, b, c)
            else:
                taus[name] = 2.0 * math.pi * abs(a)
        profile = HardwareProfile(kind, {name: ElementaryOperation(name, models[name], taus[name]) for name in models})
        cfg = parse_config(dump_profile(profile))
        for name in EO_NAMES:
            a, b = profile.eos[name], cfg.eos[name]
            assert b.tau == a.tau
            for arr in ("coupling", "static_field", "rf_amp", "rf_freq", "rf_phase"):
                assert np.array_equal(getattr(a.model, arr), getattr(b.model, arr))

    def test_dump_includes_search_programs(self):
        cfg = parse_config(dump_profile(make_profile("ideal")))
        assert "grover2_init12" in cfg.sequences
        assert "grover1_init21" in cfg.sequences
        seq = cfg.resolve_sequence("grover0_init12")
        assert len(seq) == 16
        assert cfg.run.sequence == "grover0_init12"

"""Line-oriented experiment configuration: parsing and profile dumping.

Format, mirroring the hardware tables cell for cell:

    # comment
    L = 2

    [eo X1]
    tau_over_2pi = 10
    J z 1 2 = -1e-06
    h0 z 1 = 1
    h1 y 1 = -0.05
    f y 1 = 1
    phi y 1 = 0

    [sequence demo]
    eos = Y1b, X1, X1

    [run]
    state = 00
    sequence = demo
    sample_every = 50
    steps = auto

Sections may appear in any order; `#` starts a comment anywhere on a line;
parameters omitted are zero. EO names inside `[sequence]` lists are in
execution order (first name acts first). The `state` bitstring lists qubit 1
first, so "01" prepares qubit 1 up and qubit 2 down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .propagator import ElementaryOperation, PulseSequence, SpinModel
from .pulses import EO_NAMES, HardwareProfile, grover_program
from .state import MAX_QUBITS

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Malformed configuration text; carries the offending line number."""

    def __init__(self, line_no: int | None, message: str):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


@dataclass
class RunDirectives:
    state_bits: list | None = None
    sequence: str | None = None
    sample_every: int | None = None
    steps: str | int = "auto"


@dataclass
class ExperimentConfig:
    L: int = 2
    eos: dict = field(default_factory=dict)
    sequences: dict = field(default_factory=dict)
    run: RunDirectives = field(default_factory=RunDirectives)

    def resolve_sequence(self, name: str) -> PulseSequence:
        """Build the PulseSequence for a named EO list; unknown names are listed."""
        if name not in self.sequences:
            raise ConfigError(None, f"unknown sequence {name!r}; defined: {sorted(self.sequences)}")
        eo_names = self.sequences[name]
        unknown = sorted({n for n in eo_names if n not in self.eos})
        if unknown:
            raise ConfigError(None, f"sequence {name!r} references undefined EOs: {unknown}")
        return PulseSequence([self.eos[n] for n in eo_names])


def _parse_float(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(line_no, f"expected a number, got {token!r}") from None
    if not math.isfinite(value):
        raise ConfigError(line_no, f"expected a finite number, got {token!r}")
    return value


def _parse_qubit(token: str, L: int, line_no: int) -> int:
    try:
        j = int(token)
    except ValueError:
        raise ConfigError(line_no, f"expected a qubit index, got {token!r}") from None
    if not 1 <= j <= L:
        raise ConfigError(line_no, f"qubit index {j} out of range 1..{L}")
    return j


def _parse_axis(token: str, line_no: int) -> str:
    if token not in ("x", "y", "z"):
        raise ConfigError(line_no, f"axis must be x, y or z, got {token!r}")
    return token


class _EoBuilder:
    def __init__(self, name: str, L: int, line_no: int):
        self.name = name
        self.model = SpinModel(L)
        self.tau = None
        self.line_no = line_no

    def finish(self) -> ElementaryOperation:
        if self.tau is None:
            raise ConfigError(self.line_no, f"[eo {self.name}] is missing tau_over_2pi")
        return ElementaryOperation(self.name, self.model, self.tau)


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; raises ConfigError with a line number."""
    cfg = ExperimentConfig()
    section = None  # None | ("eo", builder) | ("sequence", name) | ("run",)
    pending_eos: list = []
    saw_l = False

    def close_eo():
        if section is not None and section[0] == "eo":
            eo = section[1].finish()
            cfg.eos[eo.name] = eo

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(line_no, "unterminated section header")
            head = line[1:-1].split()
            close_eo()
            if head[0] == "eo" and len(head) == 2:
                if head[1] in cfg.eos:
                    raise ConfigError(line_no, f"duplicate EO name {head[1]!r}")
                section = ("eo", _EoBuilder(head[1], cfg.L, line_no))
            elif head[0] == "sequence" and len(head) == 2:
                if head[1] in cfg.sequences:
                    raise ConfigError(line_no, f"duplicate sequence name {head[1]!r}")
                section = ("sequence", head[1])
            elif head == ["run"]:
                section = ("run",)
            else:
                raise ConfigError(line_no, f"unknown section {line!r}")
            continue
        if "=" not in line:
            raise ConfigError(line_no, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key_parts = key.split()
        value = value.strip()
        if section is None:
            if key_parts == ["L"]:
                if cfg.eos or saw_l:
                    raise ConfigError(line_no, "L must be set once, before any section")
                try:
                    cfg.L = int(value)
                except ValueError:
                    raise ConfigError(line_no, f"L must be an integer, got {value!r}") from None
                if not 1 <= cfg.L <= MAX_QUBITS:
                    raise ConfigError(line_no, f"L must be in 1..{MAX_QUBITS}, got {cfg.L}")
                saw_l = True
            else:
                raise ConfigError(line_no, f"unexpected top-level key {key.strip()!r}")
            continue
        if section[0] == "eo":
            b = section[1]
            if key_parts == ["tau_over_2pi"]:
                b.tau = TWO_PI * _parse_float(value, line_no)
                if not 0 <= b.tau < math.inf:  # 2 pi times a finite value may overflow
                    raise ConfigError(line_no, f"tau_over_2pi must be >= 0 and give a finite duration, got {value}")
            elif key_parts[0] == "J" and len(key_parts) == 4:
                ax = _parse_axis(key_parts[1], line_no)
                j = _parse_qubit(key_parts[2], cfg.L, line_no)
                k = _parse_qubit(key_parts[3], cfg.L, line_no)
                if j == k:
                    raise ConfigError(line_no, "J requires two distinct qubits")
                b.model.set_coupling(j, k, ax, _parse_float(value, line_no))
            elif key_parts[0] in ("h0", "h1", "f", "phi") and len(key_parts) == 3:
                ax = _parse_axis(key_parts[1], line_no)
                j = _parse_qubit(key_parts[2], cfg.L, line_no)
                v = _parse_float(value, line_no)
                a = {"x": 0, "y": 1, "z": 2}[ax]
                if key_parts[0] == "h0":
                    b.model.static_field[j - 1, a] = v
                elif key_parts[0] == "h1":
                    b.model.rf_amp[j - 1, a] = v
                elif key_parts[0] == "f":
                    b.model.rf_freq[j - 1, a] = v
                else:
                    b.model.rf_phase[j - 1, a] = v
            else:
                raise ConfigError(line_no, f"unknown EO parameter {key.strip()!r}")
        elif section[0] == "sequence":
            if key_parts != ["eos"]:
                raise ConfigError(line_no, f"sequence sections take only 'eos', got {key.strip()!r}")
            names = [n.strip() for n in value.split(",") if n.strip()]
            if not names:
                raise ConfigError(line_no, "empty EO list")
            cfg.sequences.setdefault(section[1], []).extend(names)
        else:  # run
            if key_parts == ["state"]:
                bits = []
                for ch in value:
                    if ch not in "01":
                        raise ConfigError(line_no, f"state must be a bitstring of 0/1, got {value!r}")
                    bits.append(int(ch))
                if len(bits) != cfg.L:
                    raise ConfigError(line_no, f"state needs {cfg.L} bits, got {len(bits)}")
                cfg.run.state_bits = bits
            elif key_parts == ["sequence"]:
                cfg.run.sequence = value
            elif key_parts == ["sample_every"]:
                try:
                    cfg.run.sample_every = int(value)
                except ValueError:
                    raise ConfigError(line_no, f"sample_every must be an integer, got {value!r}") from None
                if cfg.run.sample_every < 1:
                    raise ConfigError(line_no, "sample_every must be >= 1")
            elif key_parts == ["steps"]:
                if value == "auto":
                    cfg.run.steps = "auto"
                else:
                    try:
                        cfg.run.steps = int(value)
                    except ValueError:
                        raise ConfigError(line_no, f"steps must be 'auto' or an integer, got {value!r}") from None
                    if cfg.run.steps < 1:
                        raise ConfigError(line_no, "steps must be 'auto' or >= 1")
            else:
                raise ConfigError(line_no, f"unknown run directive {key.strip()!r}")
    close_eo()
    # resolve-time validation of sequence contents is deferred to resolve_sequence
    return cfg


def _exact_tau_over_2pi(tau: float) -> float:
    """Value t with TWO_PI * t == tau bitwise, when one exists within 2 ulp."""
    t = tau / TWO_PI
    for cand in (t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)):
        if TWO_PI * cand == tau:
            return cand
    return t


def dump_profile(profile: HardwareProfile) -> str:
    """Render a hardware profile and its search programs as config text.

    Re-parsing the output reconstructs every duration and parameter bitwise,
    so a dumped-and-rerun experiment matches the preset path exactly.
    """
    lines = [f"# spinsim hardware profile: {profile.kind}", "L = 2", ""]
    axes = "xyz"
    for name in EO_NAMES:
        eo = profile.eos[name]
        m = eo.model
        lines.append(f"[eo {name}]")
        lines.append(f"tau_over_2pi = {_exact_tau_over_2pi(eo.tau)!r}")
        for a, ax in enumerate(axes):
            for j in range(m.L):
                for k in range(j + 1, m.L):
                    if m.coupling[j, k, a] != 0.0:
                        lines.append(f"J {ax} {j + 1} {k + 1} = {float(m.coupling[j, k, a])!r}")
        for a, ax in enumerate(axes):
            for j in range(m.L):
                if m.static_field[j, a] != 0.0:
                    lines.append(f"h0 {ax} {j + 1} = {float(m.static_field[j, a])!r}")
        for a, ax in enumerate(axes):
            for j in range(m.L):
                if m.rf_amp[j, a] != 0.0:
                    lines.append(f"h1 {ax} {j + 1} = {float(m.rf_amp[j, a])!r}")
                    lines.append(f"f {ax} {j + 1} = {float(m.rf_freq[j, a])!r}")
                    if m.rf_phase[j, a] != 0.0:
                        lines.append(f"phi {ax} {j + 1} = {float(m.rf_phase[j, a])!r}")
        lines.append("")
    for init_order in ("12", "21"):
        for item in range(4):
            prog = grover_program(item, profile, init_order)
            names = ", ".join(eo.name for eo in prog.seq.eos)
            lines.append(f"[sequence grover{item}_init{init_order}]")
            lines.append(f"eos = {names}")
            lines.append("")
    lines += ["[run]", "state = 00", "sequence = grover0_init12", ""]
    return "\n".join(lines)

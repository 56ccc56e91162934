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
from functools import partial
from itertools import combinations

from .propagator import TWO_PI, ElementaryOperation, PulseSequence, SpinModel
from .pulses import EO_NAMES, INIT_ORDERS, ITEMS, HardwareProfile, grover_program
from .state import AXES, MAX_QUBITS


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


#: EO parameter lines ``key axis qubit... = value``, in dump order: key -> (qubit count, SpinModel array).
EO_KEYS = {
    "J": (2, "coupling"),
    "h0": (1, "static_field"),
    "h1": (1, "rf_amp"),
    "f": (1, "rf_freq"),
    "phi": (1, "rf_phase"),
}


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


def parse_count(value: str, name: str, line_no: int | None = None, auto: bool = False) -> int | str:
    """Parse an integer >= 1 (or "auto", when ``auto`` is set) for the setting ``name``.

    A bad value raises ConfigError at ``line_no``; a value with no line, such
    as a command-line option's, is not config text and raises ValueError.
    """
    if auto and value == "auto":
        return "auto"
    alternative = "'auto' or " if auto else ""
    error = ValueError if line_no is None else partial(ConfigError, line_no)
    try:
        n = int(value)
    except ValueError:
        raise error(f"{name} must be {alternative}an integer, got {value!r}") from None
    if n < 1:
        raise error(f"{name} must be {alternative}>= 1")
    return n


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; raises ConfigError with a line number."""
    cfg = ExperimentConfig()
    section = None  # None | ("eo" | "sequence", name, header line) | ("run",)
    model = tau = None  # parameters of the open [eo] section
    saw_l = False
    headers = set()  # (kind, name) of every [eo] and [sequence] header so far, and ("run",)

    def close_section():
        kind = section and section[0]
        if kind == "eo":
            if tau is None:
                raise ConfigError(section[2], f"[eo {section[1]}] is missing tau_over_2pi")
            cfg.eos[section[1]] = ElementaryOperation(section[1], model, tau)
        elif kind == "sequence" and section[1] not in cfg.sequences:
            raise ConfigError(section[2], f"[sequence {section[1]}] is missing an eos line")

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(line_no, "unterminated section header")
            head = line[1:-1].split()
            named = len(head) == 2 and head[0] in ("eo", "sequence")
            if tuple(head) in headers:  # before the open section closes, which may be the first
                what = f"{'EO' if head[0] == 'eo' else 'sequence'} name {head[1]!r}" if named else "[run] section"
                raise ConfigError(line_no, f"duplicate {what}")
            close_section()
            if named:
                section = (head[0], head[1], line_no)
                model, tau = SpinModel(cfg.L), None
            elif head == ["run"]:
                section = ("run",)
            else:
                raise ConfigError(line_no, f"unknown section {line!r}")
            headers.add(tuple(head))
            continue
        if "=" not in line:
            raise ConfigError(line_no, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key_parts = key.split()
        value = value.strip()
        if section is None:
            if key_parts != ["L"]:
                raise ConfigError(line_no, f"unexpected top-level key {key.strip()!r}")
            if saw_l:
                raise ConfigError(line_no, "L must be set once, before any section")
            try:
                cfg.L = int(value)
            except ValueError:
                raise ConfigError(line_no, f"L must be an integer, got {value!r}") from None
            if not 1 <= cfg.L <= MAX_QUBITS:
                raise ConfigError(line_no, f"L must be in 1..{MAX_QUBITS}, got {cfg.L}")
            saw_l = True
        elif section[0] == "eo":
            param, *args = key_parts or [""]
            if key_parts == ["tau_over_2pi"]:
                tau = TWO_PI * _parse_float(value, line_no)
                if not 0 <= tau < math.inf:  # 2 pi times a finite value may overflow
                    raise ConfigError(line_no, f"tau_over_2pi must be >= 0 and give a finite duration, got {value}")
            elif param in EO_KEYS and len(args) == 1 + EO_KEYS[param][0]:
                if args[0] not in AXES:
                    raise ConfigError(line_no, f"axis must be x, y or z, got {args[0]!r}")
                qubits = [_parse_qubit(token, cfg.L, line_no) - 1 for token in args[1:]]
                if len(set(qubits)) < len(qubits):
                    raise ConfigError(line_no, f"{param} requires two distinct qubits")
                arr, a = getattr(model, EO_KEYS[param][1]), AXES.index(args[0])
                arr[(*qubits, a)] = arr[(*reversed(qubits), a)] = _parse_float(value, line_no)  # J stays symmetric
            else:
                raise ConfigError(line_no, f"unknown EO parameter {key.strip()!r}")
        elif section[0] == "sequence":
            if key_parts != ["eos"]:
                raise ConfigError(line_no, f"sequence sections take only 'eos', got {key.strip()!r}")
            names = [n.strip() for n in value.split(",") if n.strip()]
            if not names:
                raise ConfigError(line_no, "empty EO list")
            cfg.sequences.setdefault(section[1], []).extend(names)
        elif key_parts == ["state"]:
            if not set(value) <= set("01"):
                raise ConfigError(line_no, f"state must be a bitstring of 0/1, got {value!r}")
            if len(value) != cfg.L:
                raise ConfigError(line_no, f"state needs {cfg.L} bits, got {len(value)}")
            cfg.run.state_bits = [int(ch) for ch in value]
        elif key_parts == ["sequence"]:
            cfg.run.sequence = value
        elif key_parts == ["sample_every"]:
            cfg.run.sample_every = parse_count(value, "sample_every", line_no)
        elif key_parts == ["steps"]:
            cfg.run.steps = parse_count(value, "steps", line_no, auto=True)
        else:
            raise ConfigError(line_no, f"unknown run directive {key.strip()!r}")
    close_section()
    # resolve-time validation of sequence contents is deferred to resolve_sequence
    return cfg


def _exact_tau_over_2pi(tau: float) -> float:
    """Value t with TWO_PI * t == tau bitwise, when one exists within 1 ulp of tau / TWO_PI; else
    tau / TWO_PI, whose TWO_PI * t is within one ulp of tau."""
    t = tau / TWO_PI
    for cand in (t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)):
        if TWO_PI * cand == tau:
            return cand
    return t


def dump_profile(profile: HardwareProfile) -> str:
    """Render a hardware profile and its search programs as config text.

    Re-parsing the output reconstructs every parameter bitwise, and every
    duration that is TWO_PI times a float, as every built-in and parsed one
    is, so a dumped-and-rerun experiment matches the preset path exactly. Any
    other duration comes back within one ulp.
    """
    lines = [f"# spinsim hardware profile: {profile.kind}", f"L = {profile.eos[EO_NAMES[0]].model.L}", ""]
    for name in EO_NAMES:
        eo = profile.eos[name]
        lines += [f"[eo {name}]", f"tau_over_2pi = {_exact_tau_over_2pi(eo.tau)!r}"]
        for param, (n_qubits, attr) in EO_KEYS.items():
            arr = getattr(eo.model, attr)
            for a, axis in enumerate(AXES):
                for qubits in combinations(range(eo.model.L), n_qubits):
                    if (v := float(arr[(*qubits, a)])) != 0.0:
                        lines.append(f"{param} {axis} {' '.join(str(j + 1) for j in qubits)} = {v!r}")
        lines.append("")
    for init_order in INIT_ORDERS:
        for item in ITEMS:
            names = ", ".join(eo.name for eo in grover_program(item, profile, init_order).seq.eos)
            lines += [f"[sequence grover{item}_init{init_order}]", f"eos = {names}", ""]
    lines += ["[run]", "state = 00", "sequence = grover0_init12", ""]
    return "\n".join(lines)

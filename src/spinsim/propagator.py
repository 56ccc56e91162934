"""Second-order symmetrized product-formula integrator.

One time step of length delta applies five factors, right to left,

    exp(-i d Hz/2) exp(-i d Hy/2) exp(-i d Hx) exp(-i d Hy/2) exp(-i d Hz/2),

with every sinusoidal field evaluated at the single midpoint time
t + delta/2. Each per-axis Hamiltonian H_a collects the pair couplings and
fields of that axis only. The z factor is diagonal in the computational
basis, so it reduces to an element-by-element phase sweep; the y and x
factors are computed by conjugating the same diagonal sweep (loaded with the
y or x parameters) with a global quarter-turn of all spins:

    exp(-i d Hy) = Rx exp(-i d Hy-as-diagonal) Rx+,   Rx = exp(+i (pi/2) Sx)
    exp(-i d Hx) = Ry exp(-i d Hx-as-diagonal) Ry+,   Ry = exp(-i (pi/2) Sy)

The rotation signs are pinned by Rx Sz Rx+ = Sy and Ry Sz Ry+ = Sx; they are
asserted by the oracle cross-checks rather than trusted.

In application order a step is z, Rx+, y, Rx, Ry+, x, Ry, Rx+, y, Rx, z.
An axis whose parameters are all zero contributes an exactly-identity
factor, so its rotations are dropped (its sweep stays, as a no-op), and
adjacent rotations are multiplied into one gate. That leaves four layouts,
chosen by which of x and y are active:

    x and y   z, Rx+, y, Ry+ Rx, x, Rx+ Ry, y, Rx, z    4 global passes
    y only    z, Rx+, y, x, y, Rx, z                    2
    x only    z, y, Ry+, x, Ry, y, z                    2
    neither   z, y, x, y, z                             0

(With x inactive, the Rx after the first y meets the Rx+ before the second
and cancels exactly.)

A global pass applies its 2x2 gate g to every qubit, _GATE_BLOCK qubits at
a time: each block is one matmul with the 16 x 16 matrix kron(g, g, g, g)
on a reshaped view of the register (fewer factors for the last block),
alternating between the register and one scratch buffer. Milliseconds per
global rotation, one BLAS thread, best of seven, median of five runs (four
for the per-qubit row, the former loop of one copy and four ufunc passes
per qubit), on a 2-core VM shared with other tenants:

    qubits per block     L=16     L=20
    1 (per-qubit loop)   19.9      388
    2                     4.2       74
    3                     1.6       54
    4                     1.4       45
    5                     1.7       45

Four qubits per block is the fastest at L=16 and ties five at L=20; a
single scratch buffer keeps the extra memory to one register.

The Hamiltonian carries an overall minus sign in front of both the coupling
and field sums, so exp(-i*theta*H) multiplies amplitude n by the positive
phase exp(+i*theta*(sum_pairs J*s_j*s_k + sum_j h_j(t)*s_j)) with
s_j = +/- 1/2.

Clock convention: a sequence advances one monotone global clock for
bookkeeping (durations, trajectory timestamps), but the sinusoidal drive of
each operation is referenced to that operation's own start, sin(f*u + phi)
with u in [0, tau]. An instruction's action is therefore fully determined by
its parameter table and duration, never by where it sits in the sequence.
(A drive phase referenced to absolute time would instead be invisible in the
co-rotating frame, and the pulse-order sensitivity this simulator is built
to expose would largely vanish.)

Two operands, one step program. Every kernel acts on an array whose last
axis is the register and whose leading axes are a batch, given a scalar
midpoint time or a vector of them (one per batch row). Registers of more
than 32 amplitudes are stepped in place, one substep at a time. Registers
of up to 32 amplitudes (L <= 5) run the same program on a stack of identity
matrices, one per substep, which yields every step matrix of a chunk of
substeps in one batched pass; each substep is then one vector-matrix
product. Because an instruction's drive clock starts at its own start, all
of its step matrices are known up front. Microseconds per substep, 512
substeps of a driven chain (2-core VM shared with other tenants, median of
three runs of the best of seven):

    L   in place   matrix
    2      44        2.7
    3      43        4.7
    4      45       12.5
    5     103       88
    6     112      257

Matrices win by 3.5x or more up to L = 4 and lose by 2x from L = 6. At
L = 5 they were ahead in nine of nine runs (three sets of three), by 12-20%,
so the threshold is 32 amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .state import MAX_QUBITS, Observables, StateVector, check_axis

_SQ2 = math.sqrt(2.0)

#: Global quarter-turn generators; ROT[axis] = (R, R_dagger).
_ROT_X = np.array([[1, 1j], [1j, 1]]) / _SQ2
_ROT_Y = np.array([[1, -1], [1, 1]]) / _SQ2
_ROT = {"x": (_ROT_X, _ROT_X.conj().T), "y": (_ROT_Y, _ROT_Y.conj().T)}
#: Qubits per matmul of a global gate pass; see the module docstring.
_GATE_BLOCK = 4

#: Largest register stepped by batched step matrices; see the module docstring.
_BATCH_MAX_DIM = 32
#: Complex entries per chunk of step matrices (1 MiB), so memory does not grow with m.
_BATCH_ELEMENTS = 1 << 16

#: auto_substeps: substeps per period of the fastest RF drive, and the
#: largest phase (rad) the strongest field or coupling may advance in one substep.
_RF_SAMPLES_PER_PERIOD = 64
_MAX_PHASE_PER_STEP = 0.1


@dataclass
class KernelCounters:
    """Instrumentation for the operation-count invariants of one run.

    Every count is a logical per-substep visit, whichever operand the step
    program runs on. A substep adds 5 diagonal sweeps, one global rotation
    per global pass left after fusing (4 for a fully active step; see the
    module docstring), L gate kernel calls per pass (the logical single-qubit
    gate applications, although one matmul covers a block of qubits), and,
    per sweep of an active axis, one pair term per nonzero coupling and one
    field term per qubit with a static or RF field on that axis. A batched
    pass over n substeps adds n times these, so the counts are the same on
    both sides of the register-size threshold.
    """

    diagonal_sweeps: int = 0
    global_rotations: int = 0
    gate_kernel_calls: int = 0
    pair_terms: int = 0
    field_terms: int = 0

    def reset(self) -> None:
        self.diagonal_sweeps = 0
        self.global_rotations = 0
        self.gate_kernel_calls = 0
        self.pair_terms = 0
        self.field_terms = 0


counters = KernelCounters()


class SpinModel:
    """All Hamiltonian parameters: couplings, static fields, RF drives.

    Angular-frequency units throughout; qubit indices are 1-based. Parameters
    not set are zero. The coupling array is kept symmetric in (j, k) with a
    zero diagonal.
    """

    __slots__ = ("L", "coupling", "static_field", "rf_amp", "rf_freq", "rf_phase")

    def __init__(self, L: int):
        if not 1 <= L <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {L}")
        self.L = int(L)
        self.coupling = np.zeros((L, L, 3))
        self.static_field = np.zeros((L, 3))
        self.rf_amp = np.zeros((L, 3))
        self.rf_freq = np.zeros((L, 3))
        self.rf_phase = np.zeros((L, 3))

    def copy(self) -> "SpinModel":
        dup = SpinModel(self.L)
        dup.coupling = self.coupling.copy()
        dup.static_field = self.static_field.copy()
        dup.rf_amp = self.rf_amp.copy()
        dup.rf_freq = self.rf_freq.copy()
        dup.rf_phase = self.rf_phase.copy()
        return dup

    def _check_qubit(self, j: int) -> None:
        if not 1 <= j <= self.L:
            raise ValueError(f"qubit index must be in 1..{self.L}, got {j}")

    def set_coupling(self, j: int, k: int, axis: str, value: float) -> "SpinModel":
        self._check_qubit(j)
        self._check_qubit(k)
        if j == k:
            raise ValueError("self-coupling is not allowed")
        a = check_axis(axis)
        self.coupling[j - 1, k - 1, a] = value
        self.coupling[k - 1, j - 1, a] = value
        return self

    def set_static(self, j: int, axis: str, value: float) -> "SpinModel":
        self._check_qubit(j)
        self.static_field[j - 1, check_axis(axis)] = value
        return self

    def set_rf(self, j: int, axis: str, amp: float, freq: float, phase: float = 0.0) -> "SpinModel":
        self._check_qubit(j)
        a = check_axis(axis)
        self.rf_amp[j - 1, a] = amp
        self.rf_freq[j - 1, a] = freq
        self.rf_phase[j - 1, a] = phase
        return self

    def validate(self) -> None:
        for arr, name in (
            (self.coupling, "coupling"),
            (self.static_field, "static_field"),
            (self.rf_amp, "rf_amp"),
            (self.rf_freq, "rf_freq"),
            (self.rf_phase, "rf_phase"),
        ):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
        if not np.allclose(self.coupling, np.transpose(self.coupling, (1, 0, 2)), atol=0.0):
            raise ValueError("coupling must be symmetric in (j, k)")
        if np.any(np.diagonal(self.coupling, axis1=0, axis2=1) != 0.0):
            raise ValueError("diagonal couplings must be zero")


@dataclass
class ElementaryOperation:
    """One hardware instruction: a model held constant for a duration tau."""

    name: str
    model: SpinModel
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"duration must be finite and >= 0, got {self.tau}")
        self.model.validate()


@dataclass
class PulseSequence:
    """Ordered list of operations executed left-to-right on a global clock.

    Operator products in written gate algebra apply right-to-left; sequence
    constructors must reverse product notation before building one of these.
    """

    eos: list
    t0: float = 0.0

    def __post_init__(self):
        if self.eos:
            L = self.eos[0].model.L
            for eo in self.eos:
                if eo.model.L != L:
                    raise ValueError("all operations in a sequence must share one qubit count")

    def __len__(self) -> int:
        return len(self.eos)

    def __iter__(self):
        return iter(self.eos)

    def __add__(self, other: "PulseSequence") -> "PulseSequence":
        return PulseSequence(self.eos + other.eos, t0=self.t0)

    @property
    def total_duration(self) -> float:
        return sum(eo.tau for eo in self.eos)


@dataclass(frozen=True)
class StepPlan:
    """Substep count for one operation; the substep length is derived."""

    m: int
    tau: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"substep count must be >= 1, got {self.m}")

    @property
    def delta(self) -> float:
        return self.tau / self.m


@dataclass
class Trajectory:
    """The k samples of a sequence run: global substep count, operation index
    and observables, each with a leading axis of length k."""

    step: np.ndarray
    eo_index: np.ndarray
    obs: Observables

    def __len__(self) -> int:
        return len(self.step)


def _axis_phase(L: int, coupling: np.ndarray, field: np.ndarray) -> np.ndarray:
    """sum_{j<k} J_jk s_j s_k + sum_j h_j s_j for every basis index, s = +-1/2.

    Built by recursive doubling: qubit j (0-based) is bit j of the index, so
    the phase over qubits 0..j-1 extends to qubit j as [phase + lf/2,
    phase - lf/2] with the local field lf = h_j + sum_{k<j} J_jk s_k. The
    local field is built by the same doubling over the bits up to the last
    coupled one and broadcast over the rest, so an axis costs O(2**L)
    however many pairs are coupled. ``coupling`` must be symmetric.
    """
    phase = np.zeros(1)
    for j in range(L):
        coupled = np.flatnonzero(coupling[j, :j])
        half_lf = np.array([0.5 * float(field[j])])
        for k in range(coupled[-1] + 1 if coupled.size else 0):
            quarter = 0.25 * float(coupling[j, k])
            half_lf = np.concatenate((half_lf + quarter, half_lf - quarter))
        low = phase.reshape(-1, half_lf.size)
        out = np.empty((2,) + low.shape)
        np.add(low, half_lf, out=out[0])
        np.subtract(low, half_lf, out=out[1])
        phase = out.reshape(-1)
    return phase


class _CompiledSweep:
    """The factor of axis ``a`` of a step, loaded from the model and precomputed for a fixed theta.

    Without sinusoids the whole factor is one cached multiplier vector; with
    them, the constant part and the amplitude profile of each drive group
    (the driven qubits sharing one (f, phi), in qubit order) are cached and
    only the sine evaluations remain per substep. Counter increments report
    the logical per-sweep term visits (one per nonzero pair coupling and per
    driven/static qubit), which the caching only makes cheaper, not fewer.
    """

    __slots__ = ("active", "n_pairs", "n_fields", "const_mult", "base_arg", "groups")

    def __init__(self, model: SpinModel, a: int, theta: float):
        L = model.L
        coupling = model.coupling[:, :, a]
        static = model.static_field[:, a]
        amp = model.rf_amp[:, a]
        self.n_pairs = int(np.count_nonzero(coupling)) // 2  # symmetric, zero diagonal
        self.n_fields = int(np.count_nonzero((static != 0.0) | (amp != 0.0)))
        self.active = bool(self.n_pairs or self.n_fields)
        self.const_mult = None
        self.base_arg = None
        self.groups = []
        if not self.active:
            return
        base = _axis_phase(L, theta * coupling, theta * static)
        fields: dict = {}
        for j in np.flatnonzero(amp):
            key = (float(model.rf_freq[j, a]), float(model.rf_phase[j, a]))
            fields.setdefault(key, np.zeros(L))[j] = theta * amp[j]
        uncoupled = np.zeros((L, L))
        self.groups = [(f, phi, _axis_phase(L, uncoupled, field)) for (f, phi), field in fields.items()]
        if self.groups:
            self.base_arg = base
        else:
            self.const_mult = np.exp(1j * base)

    def apply(self, amp: np.ndarray, t_mid) -> None:
        """Multiply ``amp`` by the factor at midpoint time(s) ``t_mid``, in place.

        With a scalar ``t_mid``, ``amp`` is one register or a batch sharing
        that time; with a vector of n times, axis 0 of ``amp`` has length n
        and row i takes the factor at ``t_mid[i]``.
        """
        visits = np.size(t_mid)
        counters.diagonal_sweeps += visits
        if not self.active:
            return
        counters.pair_terms += visits * self.n_pairs
        counters.field_terms += visits * self.n_fields
        if self.const_mult is not None:
            amp *= self.const_mult
            return
        t = np.asarray(t_mid)
        arg = np.broadcast_to(self.base_arg, t.shape + self.base_arg.shape).copy()
        for f, phi, vec in self.groups:
            arg += np.multiply.outer(np.sin(f * t + phi), vec)
        mult = np.exp(1j * arg)
        amp *= mult.reshape(mult.shape[:-1] + (1,) * (amp.ndim - mult.ndim) + mult.shape[-1:])


def apply_diagonal_factor(
    state: StateVector, model: SpinModel, axis: str, delta: float, t_mid: float
) -> StateVector:
    """Apply one diagonal (z-form) factor loaded with the given axis's parameters.

    Pure phase; the norm is untouched.
    """
    _CompiledSweep(model, check_axis(axis), delta).apply(state.amp, t_mid)
    return state


def _kron_powers(g: np.ndarray) -> list:
    """Block matrices of a global pass of g: [g, g (x) g, ...], _GATE_BLOCK of them."""
    powers = [g]
    while len(powers) < _GATE_BLOCK:
        powers.append(np.kron(powers[-1], g))
    return powers


#: Block matrices of the six gates a global pass ever applies: the four
#: quarter-turns and the two fused pairs of the fully active layout.
_PASS = {
    name: _kron_powers(g)
    for name, g in zip(
        ("Rx", "Rx+", "Ry", "Ry+", "Ry+Rx", "Rx+Ry"),
        (*_ROT["x"], *_ROT["y"], _ROT["y"][1] @ _ROT["x"][0], _ROT["x"][1] @ _ROT["y"][0]),
    )
}


def _global_gate(amp: np.ndarray, powers: list, visits: int) -> None:
    """Apply the 2x2 gate powers[0] to every qubit of every register in ``amp``, in place.

    The last axis of ``amp`` is the register; leading axes are a batch that
    counts as ``visits`` logical passes. ``powers`` comes from
    ``_kron_powers``. Qubits are taken _GATE_BLOCK at a time: each block is
    one matmul with kron(g, ..., g) on a reshaped view, from the buffer
    holding the current result into the other of ``amp`` and one scratch
    buffer, and the result is copied back into ``amp`` only after an odd
    number of blocks.
    """
    if not amp.flags.c_contiguous:  # the reshapes below must be views
        raise ValueError("amplitude array must be C-contiguous")
    L = amp.shape[-1].bit_length() - 1
    counters.global_rotations += visits
    counters.gate_kernel_calls += visits * L
    src, dst = amp, np.empty_like(amp)
    for lo in range(0, L, _GATE_BLOCK):
        k = min(_GATE_BLOCK, L - lo)
        if lo == 0:
            np.matmul(src.reshape(-1, 1 << k), powers[k - 1].T, out=dst.reshape(-1, 1 << k))
        else:
            shape = (-1, 1 << k, 1 << lo)
            np.matmul(powers[k - 1], src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
    if src is not amp:
        amp[...] = src


def global_half_pi_rotation(state: StateVector, axis: str, inverse: bool = False) -> StateVector:
    """Rotate every spin by a quarter turn about x or y (or undo it), in place."""
    if axis not in _ROT:
        raise ValueError(f"rotation axis must be 'x' or 'y', got {axis!r}")
    _global_gate(state.amp, _PASS[f"R{axis}+" if inverse else f"R{axis}"], 1)
    return state


class _StepProgram:
    """All five factors of one step, compiled for a fixed substep length.

    The only step implementation: ``symmetrized_step`` runs a one-step
    program and ``evolve_eo`` reuses one program for every substep, on the
    state itself or on a stack of step matrices (see ``_CompiledSweep.apply``
    for the operand and time shapes). ``ops`` lists the sweeps and the fused
    global gates in application order, one of the four layouts in the module
    docstring.
    """

    __slots__ = ("dim", "ops")

    def __init__(self, model: SpinModel, delta: float):
        self.dim = 1 << model.L
        x = _CompiledSweep(model, 0, delta)
        y = _CompiledSweep(model, 1, 0.5 * delta)
        z = _CompiledSweep(model, 2, 0.5 * delta)
        if x.active and y.active:
            self.ops = [z, _PASS["Rx+"], y, _PASS["Ry+Rx"], x, _PASS["Rx+Ry"], y, _PASS["Rx"], z]
        elif y.active:
            self.ops = [z, _PASS["Rx+"], y, x, y, _PASS["Rx"], z]
        elif x.active:
            self.ops = [z, y, _PASS["Ry+"], x, _PASS["Ry"], y, z]
        else:
            self.ops = [z, y, x, y, z]

    def apply(self, amp: np.ndarray, t_mid) -> None:
        visits = np.size(t_mid)
        for op in self.ops:
            if isinstance(op, _CompiledSweep):
                op.apply(amp, t_mid)
            else:
                _global_gate(amp, op, visits)

    def step_matrices(self, t_mid: np.ndarray) -> np.ndarray:
        """Transposed step matrices at the given midpoint times, shape (n, dim, dim).

        Row k of entry i is the step at ``t_mid[i]`` applied to basis state
        k, so a state advances by one substep as ``amp @ result[i]``.
        """
        steps = np.empty((len(t_mid), self.dim, self.dim), dtype=np.complex128)
        steps[:] = np.eye(self.dim)
        self.apply(steps, t_mid)
        return steps


def symmetrized_step(state: StateVector, model: SpinModel, delta: float, t: float) -> StateVector:
    """Advance the state by one product-formula step over [t, t+delta].

    All five factors share the midpoint time t + delta/2.
    """
    if delta <= 0:
        raise ValueError(f"step length must be > 0, got {delta}")
    if model.L != state.L:
        raise ValueError(f"model has L={model.L} but state has L={state.L}")
    _StepProgram(model, delta).apply(state.amp, t + 0.5 * delta)
    return state


def auto_substeps(eo: ElementaryOperation) -> StepPlan:
    """Pick a substep count for which the results no longer depend on it.

    A constant Hamiltonian confined to a single axis is integrated exactly by
    one step. Otherwise the substep length is capped at 1/64 of the fastest
    RF period, and at the times over which the strongest field and the
    strongest coupling each advance a phase by 0.1 rad.
    """
    model = eo.model
    if eo.tau == 0.0:
        return StepPlan(1, 0.0)
    active = [
        a
        for a in range(3)
        if np.any(model.coupling[:, :, a]) or np.any(model.static_field[:, a]) or np.any(model.rf_amp[:, a])
    ]
    if len(active) <= 1 and not np.any(model.rf_amp):
        return StepPlan(1, eo.tau)
    bounds = []
    freqs = np.abs(model.rf_freq[model.rf_freq != 0.0])
    if freqs.size:
        bounds.append(2.0 * math.pi / float(freqs.max()) / _RF_SAMPLES_PER_PERIOD)
    h_scale = float(np.max(np.abs(model.static_field) + np.abs(model.rf_amp)))
    if h_scale > 0.0:
        bounds.append(_MAX_PHASE_PER_STEP / h_scale)
    j_scale = float(np.max(np.abs(model.coupling)))
    if j_scale > 0.0:
        bounds.append(_MAX_PHASE_PER_STEP / j_scale)
    m = max(1, math.ceil(eo.tau / min(bounds) - 1e-9))
    return StepPlan(m, eo.tau)


def evolve_eo(
    state: StateVector,
    eo: ElementaryOperation,
    t0: float,
    plan: StepPlan | None = None,
    sample_at=(),
) -> tuple:
    """Run one operation starting at global time t0; returns (state, samples).

    The state is evolved in place through plan.m symmetrized steps. Sinusoid
    arguments use the operation-local midpoint times (n + 1/2) * delta, so the
    state does not depend on t0. ``samples`` holds
    ``state.observables(t0 + n * delta)`` taken right after substep n, for
    each n in ``sample_at``, which must increase strictly within 1..m; a zero
    duration takes no substeps and returns no samples. Registers of up to 32
    amplitudes build the step matrices of a chunk of substeps in one batched
    pass and apply them one by one; larger ones are stepped in place.
    """
    if eo.model.L != state.L:
        raise ValueError(f"operation has L={eo.model.L} but state has L={state.L}")
    if plan is None:
        plan = auto_substeps(eo)
    wanted = set(sample_at)
    if list(sample_at) != sorted(n for n in wanted if 1 <= n <= plan.m):
        raise ValueError(f"sample_at must be strictly increasing substep numbers in 1..{plan.m}")
    samples: list = []
    if eo.tau == 0.0:
        return state, samples
    delta = eo.tau / plan.m
    prog = _StepProgram(eo.model, delta)
    amp = state.amp
    if state.dim > _BATCH_MAX_DIM:
        for n in range(plan.m):
            prog.apply(amp, (n + 0.5) * delta)
            if n + 1 in wanted:
                samples.append(state.observables(t0 + (n + 1) * delta))
        return state, samples
    chunk = _BATCH_ELEMENTS // (state.dim * state.dim)
    for lo in range(0, plan.m, chunk):
        steps = prog.step_matrices((np.arange(lo, min(lo + chunk, plan.m)) + 0.5) * delta)
        for n, step in enumerate(steps, lo):
            amp[:] = amp @ step
            if n + 1 in wanted:
                samples.append(state.observables(t0 + (n + 1) * delta))
    return state, samples


def run_sequence(
    state: StateVector,
    seq: PulseSequence,
    sample_every: int | None = None,
    plans: list | None = None,
) -> tuple:
    """Execute a sequence on a continuous clock; returns (final state, Trajectory).

    The input state is not modified. Observables are recorded at the initial
    point, after every ``sample_every``-th substep, at each operation boundary
    and at the final point. When ``sample_every`` is None each operation is
    sampled about 200 times (once per substep if it has fewer).
    """
    for eo in seq.eos:
        if eo.model.L != state.L:
            raise ValueError(f"operation {eo.name!r} has L={eo.model.L} but state has L={state.L}")
    if sample_every is not None and sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    out = state.copy()
    samples = [out.observables(t=seq.t0)]
    step, eo_index = [0], [0]
    t = seq.t0
    for i, eo in enumerate(seq.eos):
        plan = plans[i] if plans is not None else auto_substeps(eo)
        if eo.tau == 0.0:
            continue
        stride = sample_every if sample_every is not None else max(1, round(plan.m / 200))
        at = list(range(stride, plan.m, stride)) + [plan.m]
        samples += evolve_eo(out, eo, t, plan=plan, sample_at=at)[1]
        step += [step[-1] + n for n in at]  # step[-1] ended the previous operation
        eo_index += [i] * len(at)
        t += eo.tau
    obs = Observables(*(np.array([getattr(o, f.name) for o in samples]) for f in fields(Observables)))
    return out, Trajectory(np.array(step), np.array(eo_index), obs)

"""Second-order symmetrized product-formula integrator.

One time step of length delta applies five factors, right to left,

    exp(-i d Hz/2) exp(-i d Hy/2) exp(-i d Hx) exp(-i d Hy/2) exp(-i d Hz/2),

with every sinusoidal field evaluated at the single midpoint time
t + delta/2. Each per-axis Hamiltonian H_a collects the pair couplings and
fields of that axis only. The z factor is diagonal in the computational
basis; the y and x factors are diagonal after a global quarter-turn:

    exp(-i d Hy) = Rx exp(-i d Hy-as-diagonal) Rx+,   Rx = exp(+i (pi/2) Sx)
    exp(-i d Hx) = Ry exp(-i d Hx-as-diagonal) Ry+,   Ry = exp(-i (pi/2) Sy)

The rotation signs are pinned by Rx Sz Rx+ = Sy and Ry Sz Ry+ = Sx; they are
asserted by the oracle cross-checks rather than trusted.

In application order a step is z, Rx+, y, Rx, Ry+, x, Ry, Rx+, y, Rx, z.
The field part of an axis factor is diagonal and commutes with that axis's
couplings: exp(-i d (J_a + h_a)) = exp(-i d J_a) (x)_j diag(e^{i d h_j/2},
e^{-i d h_j/2}). So a step compiles into coupling multipliers (one cached
vector per axis, independent of time) and global passes of per-qubit gates.
A multiplier is doubled from unit phase factors (_axis_multiplier): all pairs
coupled, 1.4 and 11 ms per axis at L = 16 and 20 against 4.0 and 54 ms for
an exp over all 2^L entries (one thread, 2-core VM, medians of best-of-7).
Walking the order above, quarter-turns and single-qubit field factors
collect in a pending list; at an axis with a coupling the list is flushed
as one pass and the axis's multiplier is applied, its field factor joining
whichever side already has a pass. Static fields stay in a multiplier that
exists anyway: a coupled axis's, and z's, which needs no rotation. Adjacent
inverse turns cancel, adjacent field factors of one axis merge, and an
empty list is no pass. Passes per substep, by coupled axes:

    coupled axes     none  x   y   z   xy  xz  yz  xyz
    no field          0    2   2   0   4   2   2   4
    static z          0    2   2   0   4   2   2   4
    static x, y, z    1    2   3   1   4   2   3   4
    RF on z           1    2   2   1   4   2   2   4

With couplings on z only (the NMR machine, a driven chain) a substep is a
z multiply, one pass and a z multiply.

A pass applies its per-qubit gates _GATE_BLOCK qubits at a time: each block
is one matmul with a 16 x 16 Kronecker product on a reshaped view of the
register (fewer factors for the last block), alternating between the
register and one scratch buffer. Only the lowest block, kron(g_3, ..., g_0),
is complex: it contracts the contiguous axis, where a real block would save
nothing. Above it each gate splits as g = Z(u) R Z(v) with Z(w) =
diag(e^{iw}, e^{-iw}) and R real (u + v = arg alpha and u - v = arg beta,
mod pi). u and v are reduced mod pi/2: Z(pi/2) = i sigma_z puts its sigma_z
into R and its i into a scalar that the lowest block takes. The blocks of R
are real matmuls on the float64 view of the register, half the arithmetic
of a complex block. The Z phases are diagonal, so they commute with the
multipliers. Where they do not change over an operation (every pass of the
benchmark's workloads: the quarter-turns, a drive on one uncoupled
transverse axis) the multipliers beside a pass hold them as extra field,
built once with the multiplier, and no vector is added. Where they vary
(RF on a coupled axis or on z, RF on two uncoupled transverse axes) or no
multiplier is beside the pass, they are a row scaling of the register
viewed as (2^(L-4), 16), built one substep at a time. Milliseconds per
block, by its lowest bit, one BLAS thread, median of five runs of the
best of seven, on a 2-core VM shared with other tenants:

    lowest bit        0      4      8     12     16
    L=16 complex    0.24   0.34   0.33   0.30
    L=16 real              0.10   0.15   0.17
    L=20 complex    5.8    6.7    6.0    5.9    8.2
    L=20 real              3.3    2.9    4.0    4.6

A pass of random gates whose phases fold takes 0.66 ms at L=16 and 22 ms
at L=20, against 1.74 and 40 ms with every block complex; a row scaling adds
0.25 ms (0.09 ms of it the multiply) and 2.7 ms.

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
axis is the register and whose leading axes are a batch. An instruction's
drive clock starts at its own start, so the gates of a chunk of substeps
are built at once. Registers of up to 16 amplitudes (L <= 4) then get the
chunk's step matrices in one batched pass, and a pairwise tree of batched
matmuls multiplies the matrices between two samples into one piece. A
sample, not a substep, costs one vector-matrix product, and a chunk's
samples are read in one batched call. The pieces depend only on the
operation, its plan and its sample stride, so run_sequence reuses them
within a call. Larger registers are stepped in place, one substep
at a time. The threshold rests on microseconds per substep, 512 substeps, in
place and by matrices with one vector-matrix product per substep (2-core VM
shared with other tenants, median of three runs of the best of seven):

    L    driven chain      all pairs, 4 passes
    2     4.7    1.8        15.6    4.1
    3     5.2    3.6        18.5    8.5
    4     6.5    7.6        26.0   22.0
    5    10.3   19.6        37.9   72.7
    6    11.8   61.9        41.1  313

Matrices win by 1.4x or more up to L = 3 and lose by 1.9x or more from
L = 5; at L = 4 they split, 1.2x either way, and the threshold is 16
amplitudes."""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .state import MAX_QUBITS, Observables, StateVector, check_axis, observables_of

#: The quarter-turns Rx = exp(+i (pi/2) Sx), Ry = exp(-i (pi/2) Sy) and their
#: inverses, each as (alpha, beta) of g = [[alpha, beta], [-conj(beta), conj(alpha)]].
_TURN = {key: (math.sqrt(0.5), b * math.sqrt(0.5)) for key, b in (("Rx", 1j), ("Rx+", -1j), ("Ry", -1), ("Ry+", 1))}
_INVERSE = {"Rx": "Rx+", "Rx+": "Rx", "Ry": "Ry+", "Ry+": "Ry"}
#: One step in application order: (axis, share of delta) for each axis
#: factor in z form, and the quarter-turns that carry the y and x factors there.
_ORDER = ((2, 0.5), "Rx+", (1, 0.5), "Rx", "Ry+", (0, 1.0), "Ry", "Rx+", (1, 0.5), "Rx", (2, 0.5))
#: Qubits per matmul of a global gate pass; see the module docstring.
_GATE_BLOCK = 4
#: Largest imaginary part of a real pass factor that _split drops as rounding.
_ROUNDING = 1e-14

#: Largest register stepped by batched step matrices; see the module docstring.
_BATCH_MAX_DIM = 16
#: Complex entries per chunk of step matrices, or of pass blocks in place
#: (1 MiB), so memory does not grow with m.
_BATCH_ELEMENTS = 1 << 16
#: Most complex entries of matrix-path pieces that run_sequence keeps for
#: reuse at once (16 MiB); an operation whose pieces do not fit streams its own.
_KEPT_ELEMENTS = 16 * _BATCH_ELEMENTS

#: auto_substeps: substeps per period of the fastest RF drive, and the
#: largest phase (rad) the strongest field or coupling may advance in one substep.
_RF_SAMPLES_PER_PERIOD = 64
_MAX_PHASE_PER_STEP = 0.1

#: Most doublings of an operation's substep count that a tolerance may ask for.
MAX_DOUBLINGS = 10

#: Largest substep count of a plan: substep numbers are held as int64.
_MAX_SUBSTEPS = 2**63 - 1


@dataclass
class KernelCounters:
    """Instrumentation for the operation-count invariants of one run.

    Every count is a logical per-substep visit, whichever operand the step
    program runs on. A substep adds one diagonal sweep per coupling
    multiplier it applies, one global rotation per global pass (see the
    module docstring for both), and L gate kernel calls per pass (the
    per-qubit gates, although one matmul covers a block of qubits); a row
    scaling is part of its pass, not a diagonal sweep. Per axis
    factor (z and y twice, x once) it adds one pair term per nonzero coupling
    and one field term per qubit with a static or RF field on that axis,
    whether a multiplier or a pass applies it. A chunk of n substeps adds n
    times these, also when its pieces are replayed, so the counts are the
    same on both sides of the register-size threshold, with or without reuse.
    """

    diagonal_sweeps: int = 0
    global_rotations: int = 0
    gate_kernel_calls: int = 0
    pair_terms: int = 0
    field_terms: int = 0

    def reset(self) -> None:
        self.__init__()


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

    @property
    def total_duration(self) -> float:
        return sum(eo.tau for eo in self.eos)


@dataclass(frozen=True)
class StepPlan:
    """Substep count for one operation; the substep length is derived."""

    m: int
    tau: float

    def __post_init__(self):
        if not 1 <= self.m <= _MAX_SUBSTEPS:
            raise ValueError(f"substep count must be in 1..2**63 - 1, got {self.m}")

    @property
    def delta(self) -> float:
        return self.tau / self.m


@dataclass
class Trajectory:
    """The k samples of a sequence run: global substep count, operation index
    and observables, each with a leading axis of length k; the plan each
    operation ran at, and its error estimate if the run had a tolerance."""

    step: np.ndarray
    eo_index: np.ndarray
    obs: Observables
    plans: list = field(default_factory=list)
    estimates: list | None = None

    def __len__(self) -> int:
        return len(self.step)


def _axis_multiplier(L: int, coupling: np.ndarray, field: np.ndarray) -> np.ndarray:
    """exp(i (sum_{j<k} J_jk s_j s_k + sum_j h_j s_j)) for every basis index, s = +-1/2.

    Recursive doubling of unit phase factors: qubit j (0-based) is bit j of
    the index, so the multiplier over bits 0..j-1 extends to bit j as
    [mult E_j, mult conj(E_j)], E_j = exp(i lf/2) of the local field lf = h_j
    + sum_{k<j} J_jk s_k. E_j doubles likewise by e^{+-i J_jk/4} in one
    scratch, built conjugated, up to the last coupled bit and is broadcast
    over the rest; exp is taken of scalars only. ``coupling`` must be symmetric.
    """
    mult, scratch = np.empty(1 << L, dtype=np.complex128), np.empty(1 << (L - 1), dtype=np.complex128)
    mult[0] = 1.0
    for j in range(L):
        e = scratch[:1 << len(np.trim_zeros(coupling[j, :j], "b"))]
        e[0] = np.exp(-0.5j * field[j])
        for k in range(e.size.bit_length() - 1):
            quarter = np.exp(0.25j * coupling[j, k])
            np.multiply(e[:1 << k], quarter, out=e[1 << k:2 << k])
            e[:1 << k] *= quarter.conjugate()
        low = mult[:1 << j].reshape(-1, e.size)
        np.multiply(low, e, out=mult[1 << j:2 << j].reshape(-1, e.size))
        low *= np.conjugate(e, out=e)
    return mult


def _split(alpha, beta, u0, v0) -> tuple:
    """Each gate g = [[alpha, beta], [-conj(beta), conj(alpha)]] as c Z(u) R Z(v), Z(w) = diag(e^{iw}, e^{-iw}).

    Returns (c, R, u, v): R real with shape (..., 2, 2) and c in {1, i}. Where
    g allows it (u = u0 and v = v0 mod pi/2, up to _ROUNDING) u and v are the
    targets u0 and v0; elsewhere they are g's own phases, u +- v = arg alpha,
    arg beta, reduced mod pi/2. Z(pi/2) = i sigma_z puts its sigma_z into R
    and its i into c.
    """
    alpha, beta, u0, v0 = np.broadcast_arrays(alpha, beta, u0, v0)

    def fit(u, v):  # g's real part R in the frame of Z(u), Z(v), up to c
        p, q = alpha * np.exp(-1j * (u + v)), beta * np.exp(-1j * (u - v))
        c = np.where(np.abs(p.real) + np.abs(q.real) >= np.abs(p.imag) + np.abs(q.imag), 1.0 + 0j, 1j)
        return c, p * np.conj(c), q * np.conj(c)

    c, p, q = fit(u0, v0)
    fits = np.abs(p.imag) + np.abs(q.imag) <= _ROUNDING
    if not fits.all():
        a, b = np.angle(alpha), np.angle(beta)
        own = 0.5 * np.array([a + b, a - b])
        own -= 0.5 * np.pi * np.round(own / (0.5 * np.pi))
        u0, v0 = np.where(fits, u0, own[0]), np.where(fits, v0, own[1])
        c, p, q = fit(u0, v0)
    p, q, s = p.real, q.real, (c * c).real  # s = -1 where c = i: R is then a reflection
    return c, np.stack([np.stack([p, q], -1), np.stack([-s * q, s * p], -1)], -2), u0, v0


def _kron(g: np.ndarray) -> np.ndarray:
    """kron(g[..., n-1, :, :], ..., g[..., 0, :, :]) of per-qubit 2x2 matrices, so its row index counts their bits."""
    blk = g[..., 0, :, :]
    for q in range(1, g.shape[-3]):
        size = 2 * blk.shape[-1]
        blk = (g[..., q, :, None, :, None] * blk[..., None, :, None, :]).reshape(blk.shape[:-2] + (size, size))
    return blk


def _gate_blocks(alpha, beta, L: int, u0=0.0, v0=0.0) -> tuple:
    """One pass of per-qubit gates g_j = [[alpha_j, beta_j], [-conj(beta_j), conj(alpha_j)]], as (blocks, before, after).

    ``alpha`` and ``beta`` broadcast to (..., L); leading axes (one per
    substep) carry into every part. The gate of each qubit j >= _GATE_BLOCK
    splits as c Z(u) R Z(v) (``_split``, targets ``u0`` and ``v0`` per such
    qubit). Block 0 is the complex kron(g_3, ..., g_0) of the lowest qubits
    times the product of the c; each further block is the real
    kron(R_lo+3, ..., R_lo) of the next _GATE_BLOCK qubits (fewer for the last).
    ``before`` and ``after`` are the phases v - v0 and u - u0 of those
    qubits, or None where they are all 0. ``_global_gate`` so applies the
    gates with Z(u0) and Z(v0) taken off, which the multipliers around the
    pass hold; with the default targets 0 it applies the gates themselves.
    """
    shape = np.broadcast_shapes(np.shape(alpha), np.shape(beta), (L,))
    alpha, beta, low = np.broadcast_to(alpha, shape), np.broadcast_to(beta, shape), min(L, _GATE_BLOCK)
    g = np.empty(shape[:-1] + (low, 2, 2), dtype=np.complex128)
    a, b = alpha[..., :low], beta[..., :low]
    g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1] = a, b, -np.conj(b), np.conj(a)
    if L == low:
        return [_kron(g)], None, None
    c, r, u, v = _split(alpha[..., low:], beta[..., low:], u0, v0)
    blocks = [_kron(g) * np.prod(c, axis=-1)[..., None, None]]
    blocks += [_kron(r[..., lo:lo + _GATE_BLOCK, :, :]) for lo in range(0, L - low, _GATE_BLOCK)]
    before, after = v - v0, u - u0
    return blocks, (before if before.any() else None), (after if after.any() else None)


def _scale_rows(amp: np.ndarray, phases) -> None:
    """Multiply every register in ``amp`` by (x)_j Z(phases_j) over the qubits above the lowest block, in place.

    The register is viewed as (2^(L-4), 16) rows and the row scaling is a
    product-form vector of 2^(L-4) entries (``_axis_multiplier``), built one
    register at a time when ``phases`` has a leading axis over axis 0 of
    ``amp``. None does nothing.
    """
    if phases is None:
        return
    if phases.ndim > 1:
        for registers, row in zip(amp, phases):
            _scale_rows(registers, row)
        return
    h = phases.size
    rows = _axis_multiplier(h, np.zeros((h, h)), 2.0 * phases)
    view = amp.reshape(amp.shape[:-1] + (rows.size, -1))
    view *= rows[:, None]


def _global_gate(amp: np.ndarray, blocks: list, before=None, after=None) -> None:
    """Apply one pass of ``_gate_blocks`` to every register in ``amp``, in place.

    The last axis of ``amp`` is the register and leading axes are a batch.
    A part with no leading axes acts on every register, one with a leading
    axis of length n on the n registers (or n stacks) along axis 0. The
    row scaling ``before`` comes first and ``after`` last. Each block is one
    matmul on a reshaped view, from the buffer holding the current result
    into the other of ``amp`` and one scratch buffer: block 0 contracts the
    contiguous complex axis, and each real block acts on the float64 view,
    whose real and imaginary parts it treats alike at half the arithmetic of
    a complex block. The result is copied back into ``amp`` only after an
    odd number of blocks.
    """
    if not amp.flags.c_contiguous:  # the reshapes below must be views
        raise ValueError("amplitude array must be C-contiguous")
    _scale_rows(amp, before)
    src, dst, lo = amp, np.empty_like(amp), 0
    for blk in blocks:
        size, lead = blk.shape[-1], blk.shape[:-2]
        if lo == 0:
            np.matmul(src.reshape(lead + (-1, size)), blk.swapaxes(-1, -2), out=dst.reshape(lead + (-1, size)))
        else:
            shape = lead + (-1, size, 2 << lo)
            np.matmul(blk[..., None, :, :], src.view(np.float64).reshape(shape),
                      out=dst.view(np.float64).reshape(shape))
        lo += size.bit_length() - 1
        src, dst = dst, src
    if src is not amp:
        amp[...] = src
    _scale_rows(amp, after)


def global_half_pi_rotation(state: StateVector, axis: str, inverse: bool = False) -> StateVector:
    """Rotate every spin by a quarter turn about x or y (or undo it), in place.

    The step program applies its quarter-turns inside fused passes and does
    not call this; it stays because ``perfbench/tracing.py`` binds it by name.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"rotation axis must be 'x' or 'y', got {axis!r}")
    _global_gate(state.amp, *_gate_blocks(*_TURN[f"R{axis}+" if inverse else f"R{axis}"], state.L))
    return state


@dataclass
class _Pass:
    """One global pass of a step program: its factors in application order and,
    for the qubits above the lowest block, the phases u0 and v0 of its gates
    that the multipliers after and before it hold (``_gate_blocks``)."""

    factors: list
    u0: np.ndarray | float = 0.0
    v0: np.ndarray | float = 0.0


class _StepProgram:
    """All five factors of one step, compiled for a fixed substep length.

    The only step implementation: ``symmetrized_step`` runs a one-step
    program and ``evolve_eo`` reuses one program for every substep, on the
    state itself or on a stack of step matrices. ``ops`` lists in
    application order the cached multiplier vector of each axis that has one
    and the global passes (``_Pass``) between them, by the compile rule in
    the module docstring. A pass's factors are quarter-turn keys and (axis,
    theta) field factors diag(exp(i theta h_j/2), exp(-i theta h_j/2)), h_j
    being the part of qubit j's field on that axis that no multiplier holds,
    kept per axis in ``fields`` as (static, RF amplitude or None, frequency,
    phase). Each multiplier also holds, as extra field on the qubits above
    the lowest block, the z phases of the passes beside it (``_fold``).
    """

    __slots__ = ("L", "dim", "fields", "ops", "counts")

    def __init__(self, model: SpinModel, delta: float):
        L = self.L = model.L
        self.dim = 1 << L
        coupling, static, rf_amp = model.coupling, model.static_field, model.rf_amp
        # a static field stays in a multiplier that exists anyway: a coupled
        # axis's, or z's, which needs no rotation
        multiplied = [bool(np.any(coupling[:, :, a])) for a in range(3)]
        multiplied[2] = multiplied[2] or bool(np.any(static[:, 2]))
        self.fields = [
            (np.zeros(L) if multiplied[a] else static[:, a], rf_amp[:, a] if np.any(rf_amp[:, a]) else None,
             model.rf_freq[:, a], model.rf_phase[:, a])
            for a in range(3)
        ]
        thetas: dict = {}
        self.ops, pending = [], []

        def push(factor):
            if isinstance(factor, str) and pending and pending[-1] == _INVERSE[factor]:
                pending.pop()
            elif isinstance(factor, tuple) and pending and pending[-1][0] == factor[0]:
                pending[-1] = (factor[0], pending[-1][1] + factor[1])
            else:
                pending.append(factor)

        def flush():
            if pending:
                self.ops.append(_Pass(pending.copy()))
                pending.clear()

        for item in _ORDER:
            if isinstance(item, str):
                push(item)
                continue
            a, share = item
            theta = share * delta
            field = (a, theta) if np.any(self.fields[a][0]) or self.fields[a][1] is not None else None
            # a field factor commutes with its axis's multiplier: it joins the
            # pass before the multiplier if there is one, else the pass after it
            if field and (pending or not multiplied[a]):
                push(field)
                field = None
            if multiplied[a]:
                flush()
                thetas[a] = theta  # an axis's share of delta is the same at each occurrence
                self.ops.append(a)  # the axis's multiplier, built below
                if field:
                    push(field)
        flush()
        extra = self._fold(delta)
        mult = {a: _axis_multiplier(L, theta * coupling[:, :, a], theta * static[:, a] + extra.get(a, 0.0))
                for a, theta in thetas.items()}
        self.ops = [mult[op] if isinstance(op, int) else op for op in self.ops]
        passes = sum(isinstance(op, _Pass) for op in self.ops)
        visits = np.array([1, 2, 2])  # of the x, y and z factors per substep
        self.counts = {
            "diagonal_sweeps": len(self.ops) - passes,
            "global_rotations": passes,
            "gate_kernel_calls": passes * L,
            "pair_terms": int(visits @ np.count_nonzero(coupling, axis=(0, 1))) // 2,  # symmetric
            "field_terms": int(visits @ np.count_nonzero((static != 0.0) | (rf_amp != 0.0), axis=0)),
        }

    def _fold(self, delta: float) -> dict:
        """Set each pass's targets u0, v0; returns the extra field of each axis's multiplier.

        Between two passes (or a pass and the end of the step) lies a gap of
        multipliers. The phases Z(u) of the pass before a gap and Z(v) of the
        pass after it, taken from their gates at the first two midpoints,
        commute with the gap's multipliers, so the first gap an axis occurs in
        sets its multiplier's share of their sum; a gap with no multiplier
        holds nothing. Each pass then targets what its gaps hold. A pass whose
        phases match those targets (mod pi/2) at a substep is a real pass;
        elsewhere ``_gate_blocks`` puts the difference into row scalings.
        """
        low = min(self.L, _GATE_BLOCK)
        if self.L == low:  # no qubit above the lowest block
            return {}
        held, prev, gap, high = {}, None, [], np.arange(self.L - low)
        for op in self.ops:
            if isinstance(op, _Pass):
                alpha, beta = (np.broadcast_to(x, (2, self.L))[:, low:]
                               for x in self.gates(op.factors, [0.5 * delta, 1.5 * delta]))
                # per qubit, the midpoint whose gate fixes both phases better:
                # a drive may be at a zero of its sine at the first
                k = np.argmax(np.minimum(np.abs(alpha), np.abs(beta)), axis=0)
                op.u0, op.v0 = _split(alpha[k, high], beta[k, high], 0.0, 0.0)[2:]
        for op in self.ops + [None]:
            if isinstance(op, int):
                gap.append(op)
                continue
            need = (prev.u0 if prev else 0.0) + (op.v0 if op else 0.0)
            for a in gap:
                held.setdefault(a, need / len(gap))
            total = sum(held[a] for a in gap)
            if prev and not op:
                prev.u0 = total
            if op:
                op.v0 = total - (prev.u0 if prev else 0.0)
            prev, gap = op, []
        return {a: np.concatenate([np.zeros(low), 2.0 * np.broadcast_to(phase, (self.L - low,))])
                for a, phase in held.items()}

    def count(self, n: int) -> None:
        """Add n substeps to the kernel counters."""
        for name, per_substep in self.counts.items():
            setattr(counters, name, getattr(counters, name) + n * per_substep)

    def gates(self, factors: list, t_mid) -> tuple:
        """(alpha, beta) of each qubit's gate of one pass at midpoint time(s) ``t_mid``.

        Every factor is in SU(2), so each qubit's gate is kept as its (alpha,
        beta) and composing is a few elementwise products over all qubits and
        substeps at once. They have no leading axis unless an RF field makes
        them vary.
        """
        t = np.asarray(t_mid)[..., None]
        alpha, beta = 1.0 + 0j, 0j
        for factor in factors:
            if isinstance(factor, str):
                a, b = _TURN[factor]
                alpha, beta = a * alpha - b * np.conj(beta), a * beta + b * np.conj(alpha)
            else:
                axis, theta = factor
                static, amp, freq, phase = self.fields[axis]
                e = np.exp(0.5j * theta * (static if amp is None else static + amp * np.sin(freq * t + phase)))
                alpha, beta = e * alpha, e * beta
        return alpha, beta

    def pass_parts(self, t_mid) -> list:
        """The ``_gate_blocks`` of every pass at midpoint time(s) ``t_mid``."""
        return [_gate_blocks(*self.gates(op.factors, t_mid), self.L, op.u0, op.v0)
                for op in self.ops if isinstance(op, _Pass)]

    def substep_parts(self, t_mid) -> list:
        """The ``_gate_blocks`` of every pass at each of the midpoint times, one list per substep."""
        parts = self.pass_parts(t_mid)

        def at(part, i):
            blocks, *rows = part
            if blocks[0].ndim == 2:
                return part
            return [blk[i] for blk in blocks], *(w if w is None else w[i] for w in rows)

        return [[at(part, i) for part in parts] for i in range(len(t_mid))]

    def apply(self, amp: np.ndarray, parts, ops=None) -> None:
        """Run ``ops`` (all of them by default) on ``amp`` in place, the passes taking ``parts`` in turn."""
        parts = iter(parts)
        for op in self.ops if ops is None else ops:
            if isinstance(op, _Pass):
                _global_gate(amp, *next(parts))
            else:
                amp *= op

    def step_matrices(self, t_mid: np.ndarray) -> np.ndarray:
        """Transposed step matrices at the given midpoint times, shape (n, dim, dim).

        Row k of entry i is the step at ``t_mid[i]`` applied to basis state
        k, so a state advances by one substep as ``amp @ result[i]``. The
        stack starts as diag(multipliers before the first pass), times the
        transposed first pass when that is one block (L <= _GATE_BLOCK).
        """
        parts = self.pass_parts(t_mid)
        first = next((k for k, op in enumerate(self.ops) if isinstance(op, _Pass)), len(self.ops))
        lead = np.prod([np.ones(self.dim)] + self.ops[:first], axis=0)
        steps = np.empty((len(t_mid), self.dim, self.dim), dtype=np.complex128)
        if parts and self.L <= _GATE_BLOCK:
            np.multiply(lead[:, None], parts.pop(0)[0][0].swapaxes(-1, -2), out=steps)
            first += 1
        else:
            steps[...] = np.diag(lead)
        self.apply(steps, parts, self.ops[first:])
        return steps


def symmetrized_step(state: StateVector, model: SpinModel, delta: float, t: float) -> StateVector:
    """Advance the state by one product-formula step over [t, t+delta].

    All five factors share the midpoint time t + delta/2.
    """
    if delta <= 0:
        raise ValueError(f"step length must be > 0, got {delta}")
    if model.L != state.L:
        raise ValueError(f"model has L={model.L} but state has L={state.L}")
    prog = _StepProgram(model, delta)
    prog.count(1)
    prog.apply(state.amp, prog.substep_parts([t + 0.5 * delta])[0])
    return state


def auto_substeps(eo: ElementaryOperation) -> StepPlan:
    """Pick a substep count for which the results no longer depend on it.

    A constant Hamiltonian confined to a single axis is integrated exactly by
    one step. Otherwise the substep length is capped at 1/64 of the period of
    the fastest RF drive with a nonzero amplitude, and at the times over which
    the strongest field and the strongest coupling each advance a phase by 0.1 rad.
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
    freqs = np.abs(model.rf_freq[(model.rf_freq != 0.0) & (model.rf_amp != 0.0)])
    if freqs.size:
        bounds.append(2.0 * math.pi / float(freqs.max()) / _RF_SAMPLES_PER_PERIOD)
    with np.errstate(over="ignore"):  # an infinite scale is reported below
        h_scale = float(np.max(np.abs(model.static_field) + np.abs(model.rf_amp)))
    if h_scale > 0.0:
        bounds.append(_MAX_PHASE_PER_STEP / h_scale)
    j_scale = float(np.max(np.abs(model.coupling)))
    if j_scale > 0.0:
        bounds.append(_MAX_PHASE_PER_STEP / j_scale)
    step = min(bounds)
    count = eo.tau / step if step > 0.0 else math.inf
    if not count <= _MAX_SUBSTEPS:
        size = "over 2**63 - 1" if math.isfinite(count) else "not finite"
        raise ValueError(f"operation {eo.name!r} needs a substep count that is {size}: tau {eo.tau:g} / step bound {step:g}")
    return StepPlan(max(1, math.ceil(count - 1e-9)), eo.tau)


def _segment_products(steps: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The product of each run of consecutive matrices of ``steps``, in order.

    The runs have the given lengths and cover ``steps``. A pairwise tree:
    each level puts one identity after every run of odd length, so that the
    pairs of every run sit at even offsets, and multiplies all pairs in one
    batched matmul, halving every run. A run of n matrices takes
    ceil(log2 n) levels, and a level pads by at most one matrix per run.
    """
    eye = np.eye(steps.shape[-1])
    while len(steps) > len(lengths):
        odd = lengths % 2 == 1
        if odd.any():
            steps = np.insert(steps, np.cumsum(lengths)[odd], eye, axis=0)
            lengths = lengths + odd
        steps, lengths = steps[0::2] @ steps[1::2], lengths // 2
    return steps


def _concatenate(parts: list, dim: int) -> Observables:
    """One ``Observables`` of the samples of ``parts`` in order; no parts give k = 0."""
    if not parts:
        return observables_of(np.empty((0, dim), dtype=np.complex128), np.empty(0))
    return Observables(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(Observables)))


def _matrix_chunk(dim: int) -> int:
    """Substeps per chunk of step matrices of a register of ``dim`` amplitudes."""
    return max(1, _BATCH_ELEMENTS // dim**2)


def _matrix_pieces(model: SpinModel, plan: StepPlan, at: np.ndarray):
    """Yield per chunk of substeps (step program, substep count, sampled substep numbers, pieces):
    the pairwise-tree products of the chunk's step matrices cut at each sample and at its end."""
    prog = _StepProgram(model, plan.delta)
    chunk = _matrix_chunk(prog.dim)
    for lo in range(0, plan.m, chunk):
        hi = min(lo + chunk, plan.m)
        first, last = np.searchsorted(at, (lo, hi), side="right")
        ends = np.union1d(at[first:last] - lo, hi - lo)
        steps = prog.step_matrices((np.arange(lo, hi) + 0.5) * plan.delta)
        yield prog, hi - lo, at[first:last], _segment_products(steps, np.diff(ends, prepend=0))


def _replay(amp: np.ndarray, pieces, t0: float, delta: float) -> list:
    """Advance ``amp`` by each piece of ``_matrix_pieces`` and count its substeps; returns each chunk's samples."""
    parts = []
    for prog, n, at, products in pieces:
        prog.count(n)
        sampled = np.empty((len(at), amp.size), dtype=np.complex128)
        for k, piece in enumerate(products):
            amp[:] = amp @ piece
            if k < len(at):
                sampled[k] = amp
        parts.append(observables_of(sampled, t0 + at * delta))
    return parts


def evolve_eo(
    state: StateVector,
    eo: ElementaryOperation,
    t0: float,
    plan: StepPlan | None = None,
    sample_at=(),
    *,
    pieces: list | None = None,
) -> tuple:
    """Run one operation starting at global time t0; returns (state, samples).

    The state is evolved in place through plan.m symmetrized steps. Sinusoid
    arguments use the operation-local midpoint times (n + 1/2) * delta, so the
    state does not depend on t0. ``samples`` is one ``Observables`` with a
    leading axis over the substep numbers n in ``sample_at``, each taken
    right after substep n at time t0 + n * delta. ``sample_at`` is any
    iterable of integers increasing strictly within 1..m; a zero duration
    takes no substeps and returns no samples. ``plan`` must be for
    ``eo.tau``.

    A register of up to 16 amplitudes ``_replay``s the pieces of
    ``_matrix_pieces``, which depend only on the model, the plan and
    ``sample_at``. They are computed afresh unless ``pieces`` is a list: an
    empty one is filled with them, and a filled one, from an earlier call with
    the same operation, plan and ``sample_at``, is replayed, as run_sequence
    does for a recurring operation. A larger register ignores ``pieces``: it
    builds each chunk's pass blocks in one pass, applies each substep to the
    state and reads each sample as it is taken.
    """
    if eo.model.L != state.L:
        raise ValueError(f"operation has L={eo.model.L} but state has L={state.L}")
    if plan is None:
        plan = auto_substeps(eo)
    if plan.tau != eo.tau:
        raise ValueError(f"plan is for a duration of {plan.tau}, but the operation lasts {eo.tau}")
    at = list(sample_at)
    if at != sorted({int(n) for n in at if 1 <= n <= plan.m}):  # a fractional n differs from int(n)
        raise ValueError(f"sample_at must be strictly increasing substep numbers in 1..{plan.m}")
    if eo.tau == 0.0:
        return state, _concatenate([], state.dim)
    at = np.array(at, dtype=np.int64)
    if state.dim <= _BATCH_MAX_DIM:
        fresh = _matrix_pieces(eo.model, plan, at)  # computes nothing until it is read
        if pieces is None:
            pieces = fresh
        elif not pieces:
            pieces += fresh
        return state, _concatenate(_replay(state.amp, pieces, t0, plan.delta), state.dim)
    delta, prog = plan.delta, _StepProgram(eo.model, plan.delta)
    wanted, parts = set(at.tolist()), []
    chunk = max(1, _BATCH_ELEMENTS // (256 * state.L))  # pass blocks: at most 4 passes of 64 entries per qubit
    for lo in range(0, plan.m, chunk):
        hi = min(lo + chunk, plan.m)
        prog.count(hi - lo)
        for n, substep in enumerate(prog.substep_parts((np.arange(lo, hi) + 0.5) * delta), lo + 1):
            prog.apply(state.amp, substep)
            if n in wanted:
                parts.append(observables_of(state.amp[None], np.array([t0 + n * delta])))
    return state, _concatenate(parts, state.dim)


def run_sequence(
    state: StateVector,
    seq: PulseSequence,
    sample_every: int | None = None,
    plans: list | None = None,
    tol: float | None = None,
) -> tuple:
    """Execute a sequence on a continuous clock from 0; returns (final state, Trajectory).

    The input state is not modified. Observables are recorded at the initial
    point, after every ``sample_every``-th substep, at each operation boundary
    and at the final point. When ``sample_every`` is None each operation is
    sampled about 200 times (once per substep if it has fewer). ``plans``,
    if given, holds one plan per operation (default ``auto_substeps``).

    An operation object that occurs more than once in ``seq`` hands
    ``evolve_eo`` one ``pieces`` list per plan, in plain runs and doubling
    trials alike: its first run at a plan fills it, later ones replay it, and
    it lives until the call returns. A list is made only while all kept
    pieces hold at most _KEPT_ELEMENTS complex entries, counted as one piece
    per sample and per chunk; past that, the operation computes its pieces at
    that plan afresh. With a tolerance ``tol`` (finite, >= 0) each operation
    runs from the state the ones before it leave, at m and 2m substeps, each
    trial sampled. The step is second order, so the 2m trial's error is about
    |psi_2m - psi_m| / (2^2 - 1); m is doubled, at most MAX_DOUBLINGS times,
    until that is under ``tol``, and the last 2m trial is the run. A
    zero-duration operation keeps its plan, with an estimate of 0.
    """
    for eo in seq.eos:
        if eo.model.L != state.L:
            raise ValueError(f"operation {eo.name!r} has L={eo.model.L} but state has L={state.L}")
    if sample_every is not None and sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    if plans is not None and len(plans) != len(seq):
        raise ValueError(f"got {len(plans)} plans for a sequence of {len(seq)} operations")
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    plans = list(plans) if plans is not None else [auto_substeps(eo) for eo in seq.eos]
    recurs, kept, held = collections.Counter(map(id, seq.eos)), {}, 0
    estimates = None if tol is None else [0.0] * len(seq)
    out = state.copy()
    parts = [observables_of(out.amp[None], np.array([0.0]))]
    step, eo_index, t = [0], [0], 0.0

    def advance(psi, eo, plan):  # returns psi, its sampled substep numbers and samples
        nonlocal held
        stride = sample_every or max(1, round(plan.m / 200))
        at = list(range(stride, plan.m, stride)) + [plan.m]
        key, size = (id(eo), plan), (len(at) + -(-plan.m // _matrix_chunk(psi.dim))) * psi.dim**2
        if recurs[id(eo)] > 1 and key not in kept and held + size <= _KEPT_ELEMENTS:
            kept[key], held = [], held + size
        return psi, at, evolve_eo(psi, eo, t, plan=plan, sample_at=at, pieces=kept.get(key))[1]

    for i, eo in enumerate(seq.eos):
        if eo.tau == 0.0:
            continue
        if tol is None:
            out, at, samples = advance(out, eo, plans[i])
        else:
            psi_m = advance(out.copy(), eo, plans[i])[0]
            for _ in range(MAX_DOUBLINGS):
                plans[i] = StepPlan(2 * plans[i].m, eo.tau)
                psi_2m, at, samples = advance(out.copy(), eo, plans[i])
                estimates[i] = float(np.linalg.norm(psi_2m.amp - psi_m.amp)) / 3
                if estimates[i] < tol:
                    break
                psi_m = psi_2m
            out = psi_2m
        parts.append(samples)
        step += [step[-1] + n for n in at]  # step[-1] ended the previous operation
        eo_index += [i] * len(at)
        t += eo.tau
    return out, Trajectory(np.array(step), np.array(eo_index), _concatenate(parts, out.dim), plans, estimates)

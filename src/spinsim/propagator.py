"""Second-order symmetrized product-formula integrator.

Factor order. One step of length delta applies, right to left,

    exp(-i d Hz/2) exp(-i d Hy/2) exp(-i d Hx) exp(-i d Hy/2) exp(-i d Hz/2),

with every sinusoidal field taken at the midpoint t + delta/2; H_a holds the
couplings and fields of axis a only. The z factor is diagonal in the
computational basis; the y and x factors are diagonal after a global
quarter-turn,

    exp(-i d Hy) = Rx exp(-i d Hy-as-diagonal) Rx+,   Rx = exp(+i (pi/2) Sx)
    exp(-i d Hx) = Ry exp(-i d Hx-as-diagonal) Ry+,   Ry = exp(-i (pi/2) Sy)

with signs pinned by Rx Sz Rx+ = Sy and Ry Sz Ry+ = Sx, which the oracle
cross-checks assert. In application order a step is z, Rx+, y, Rx, Ry+, x,
Ry, Rx+, y, Rx, z.

Compile rule. The field part of an axis factor is diagonal and commutes
with the axis's couplings, so a step compiles into coupling multipliers (one
cached diagonal phase per coupled axis, independent of time) and global
passes of per-qubit gates. Walking the order above, quarter-turns and field factors
collect in a pending list; at a coupled axis the list is flushed as one pass
and the axis's multiplier is applied, its field factor joining whichever
side already has a pass. A static field stays in a multiplier that exists
anyway: a coupled axis's, and z's, which needs no rotation. Adjacent inverse
turns cancel, adjacent field factors or multipliers of one axis merge (so a
gap holds at most one multiplier), and an empty list is no pass. Passes per
substep, by field and coupled axes (- for none):

    field / coupled    -   x   y   z   xy  xz  yz  xyz
    none               0   2   2   0   4   2   2   4
    static z           0   2   2   0   4   2   2   4
    static xyz         1   2   3   1   4   2   3   4
    z RF               1   2   2   1   4   2   2   4

Block split and phase folding. A pass applies its gates _GATE_BLOCK qubits
at a time, each block one matmul with their Kronecker product on a reshaped
view of the register. The lowest block, kron(g_3, ..., g_0), is complex: it
contracts the contiguous axis. Above it each gate splits as g = Z(u) R Z(v),
Z(w) = diag(e^{iw}, e^{-iw}), with R real, u + v = arg alpha and u - v =
arg beta, both reduced mod pi/2: Z(pi/2) = i sigma_z puts its sigma_z into R
and its i into a scalar that the lowest block takes. The blocks of R are
real matmuls on the float64 view of the register. The Z phases are diagonal
and commute with the multipliers, which hold as extra field the phases at
the first midpoint, delta/2; where a substep's differ (they vary, or no
multiplier is beside the pass), the difference is a row scaling of the
register viewed as (2^(L-4), 16), built one substep at a time.

Tiles and column chunks. A pass acts on one register through one buffer of
min(2^L, _TILE) amplitudes and never through a register-sized scratch. The
blocks inside a tile run one tile after another, each one matmul from the
tile or the buffer into the other, so a tile and its buffer stay in cache.
Each block above the tile runs in place over column chunks of the float64
view, one buffer's worth at a time, each copied back while still in cache.

Factored multipliers. Up to one tile a multiplier is one vector. Above it,
with lo = log2 _TILE, amplitude n = h 2^lo + l sits at l in tile h, and
its phase sum_{j<k} J_jk s_j s_k + sum_j h_j s_j splits into three parts:
the pairs of the low qubits (a function of l), the pairs and fields of the
high qubits (of h), and a field c_k(h) + h_k on each low qubit k, where
c_k(h) = sum_{j high} J_jk s_j(h) comes from the cross pairs. The low
pairs are even under flipping every low spin, which maps l to 2^lo - 1 - l,
so they are a table of half a tile, for the top low spin up, whose reverse
serves the upper half. Per tile, the low fields take the product form on the
tile viewed as (2^(lo - lo/2), 2^(lo/2)): a row factor, which also holds the
high part, and a column factor. A multiplier is applied tile by tile, three
multiplies of a tile's size each, and nothing of 2^L entries is built.

Operands. A pass and a multiplier act on one register; only step matrices
and observables are batched. Step matrices are for registers of one block,
L <= 4: per chunk of substeps, a stack of step matrices and their products
from the operation's start to each sample (pieces); a run samples after
every k-th substep and the last (``sample_every`` k), or not at all. An
operation cannot change once built, so it keeps its pieces per (plan,
sample_every) for every later run of it, up to _KEPT_ELEMENTS complex
entries; pieces that do not fit are built for their run alone. Larger
registers are stepped in place, one substep at a time.

The period rule decides how much of an operation the step matrices cover. A
drive's clock starts at its operation's start, so when every drive with a
nonzero amplitude has one |frequency| f, k = f tau / 2 pi is an integer to
within a few ulps and m is a multiple of k, the step matrices repeat every
p = m / k substeps. The products are then built over one period, as the
prefixes P_r to each sampled residue r in 1..p, and sample n = q p + r gets
U^q P_r with U = P_p. Otherwise,
or where the residue pieces would pass _KEPT_ELEMENTS, k = 1 and the period
is the whole operation. auto_substeps rounds m up to a multiple of k.

Signs and clock. The Hamiltonian carries an overall minus sign on both the
coupling and the field sums, so exp(-i theta H) multiplies amplitude n by
exp(+i theta (sum_pairs J s_j s_k + sum_j h_j(t) s_j)), s_j = +-1/2. A
sequence advances one monotone global clock for bookkeeping, but each
operation's drive is sin(f u + phi) with u in [0, tau] from its own start,
so an instruction is its parameter table and duration, wherever it sits.
"""

from __future__ import annotations

import copy
import itertools
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .state import _TILE, MAX_QUBITS, CapacityError, Observables, StateVector, _spins, check_axis, observables_of

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

#: Largest register stepped by batched step matrices, one block; see the module docstring.
_BATCH_MAX_DIM = 1 << _GATE_BLOCK
#: Complex entries per chunk of step matrices, or of pass blocks in place
#: (1 MiB), so memory does not grow with m.
_BATCH_ELEMENTS = 1 << 16
#: Most complex entries of matrix-path pieces that one operation keeps for its
#: later runs (16 MiB); pieces that do not fit are built for their run alone.
_KEPT_ELEMENTS = 16 * _BATCH_ELEMENTS

#: auto_substeps: substeps per period of the fastest RF drive, and the
#: largest phase (rad) the strongest field or coupling may advance in one substep.
_RF_SAMPLES_PER_PERIOD = 64
_MAX_PHASE_PER_STEP = 0.1

#: Most doublings of an operation's substep count that a tolerance may ask for.
MAX_DOUBLINGS = 10

#: Largest substep count of a plan: substep numbers are held as int64.
_MAX_SUBSTEPS = 2**63 - 1

TWO_PI = 2.0 * math.pi


@dataclass
class KernelCounters:
    """Operation counts of one run, each a logical per-substep visit.

    A substep adds one diagonal sweep per multiplier it applies, one global
    rotation per pass and L gate kernel calls per pass (a row scaling is part
    of its pass). Per visit of an axis in the step order (``_ORDER``) it adds
    one pair term per nonzero coupling and one field term per qubit with a
    field on that axis. These depend on the model alone. A run of m substeps
    adds m times them once, before its first substep, whatever its operand
    and however its step matrices are built, kept or lifted.
    """

    diagonal_sweeps: int = 0
    global_rotations: int = 0
    gate_kernel_calls: int = 0
    pair_terms: int = 0
    field_terms: int = 0

    def reset(self) -> None:
        self.__init__()


counters = KernelCounters()


def _count(per_substep: dict, n: int) -> None:
    """Add n substeps of the per-substep kernel counts ``per_substep`` to ``counters``."""
    for name, count in per_substep.items():
        setattr(counters, name, getattr(counters, name) + n * count)


#: The parameter arrays of a SpinModel.
_ARRAYS = ("coupling", "static_field", "rf_amp", "rf_freq", "rf_phase")


class SpinModel:
    """All Hamiltonian parameters: couplings, static fields, RF drives.

    Angular-frequency units throughout; qubit indices are 1-based. Parameters
    not set are zero. The coupling array is kept symmetric in (j, k) with a
    zero diagonal.
    """

    __slots__ = ("L", "coupling", "static_field", "rf_amp", "rf_freq", "rf_phase")

    def __init__(self, L: int):
        if not 1 <= L <= MAX_QUBITS:
            raise CapacityError(f"qubit count must be in 1..{MAX_QUBITS}, got {L}")
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
        for name in _ARRAYS:
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite entries in {name}")
        if not np.array_equal(self.coupling, np.transpose(self.coupling, (1, 0, 2))):
            raise ValueError("coupling must be symmetric in (j, k)")
        if self.coupling.diagonal().any():
            raise ValueError("diagonal couplings must be zero")


class _Facts(NamedTuple):
    """What the run check, the planner and the period rule read of a model held for a duration tau:
    the strongest field, max |h0| + |h1|, and the strongest coupling, max |J| (inf where the sum
    overflows); the largest |frequency| of a drive with a nonzero amplitude (None for no drive); and
    the number k of whole drive periods in tau by the period rule of the module docstring (1 where
    the rule does not hold)."""

    h_scale: float
    j_scale: float
    top: float | None
    k: int


def _facts(model: SpinModel, tau: float) -> _Facts:
    """The ``_Facts`` of ``model``, which must pass ``validate``, held for a finite duration ``tau``."""
    with np.errstate(over="ignore"):
        h_scale, j_scale = np.max(np.abs(model.static_field) + np.abs(model.rf_amp)), np.max(np.abs(model.coupling))
    freqs = sorted(set(np.abs(model.rf_freq[model.rf_amp != 0.0]).tolist()))
    turns = freqs[0] * tau / TWO_PI if len(freqs) == 1 else 0.0
    k = round(turns) if math.isfinite(turns) else 1
    k = k if k > 1 and abs(turns - k) <= 4 * math.ulp(turns) else 1
    return _Facts(float(h_scale), float(j_scale), freqs[-1] if freqs else None, k)


@dataclass
class _Derived:
    """What is derived from one operation: the ``_Facts`` of its model and duration, its auto plan, its
    per-substep kernel counts (the same at every plan) and its matrix-path pieces per (plan, sample_every)."""

    facts: _Facts
    plan: StepPlan | None = None
    counts: dict | None = None
    pieces: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ElementaryOperation:
    """One hardware instruction: a model held constant for a duration tau.

    Immutable: ``model`` is a copy of the model given, with read-only
    arrays, validated once here; the model given stays writable and editing
    it changes nothing here. What is derived from the operation is derived
    once: its ``_Facts`` here, its plan by ``auto_substeps`` and its
    matrix-path pieces by ``evolve_eo``. A copy, deep or shallow, is built
    anew and derives its own.
    """

    name: str
    model: SpinModel
    tau: float
    _derived: _Derived = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"duration must be finite and >= 0, got {self.tau}")
        model = copy.copy(self.model)
        for name in _ARRAYS:
            arr = getattr(model, name).copy()
            arr.flags.writeable = False
            setattr(model, name, arr)
        model.validate()
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "_derived", _Derived(_facts(model, self.tau)))

    def __reduce__(self):
        return ElementaryOperation, (self.name, self.model, self.tau)


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


@dataclass(frozen=True)
class StepPlan:
    """Substep count m for one operation of duration tau; a run's substep length is the operation's tau / m."""

    m: int
    tau: float

    def __post_init__(self):
        if not isinstance(self.m, numbers.Integral):
            raise ValueError(f"substep count must be an integer, got {self.m!r}")
        if not 1 <= self.m <= _MAX_SUBSTEPS:
            raise ValueError(f"substep count must be in 1..2**63 - 1, got {self.m}")


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
    ``_multiplier`` calls it for at most one tile of qubits, so the scratch
    holds at most _TILE / 2 entries.
    """
    mult, scratch = np.empty(1 << L, dtype=np.complex128), np.empty(1 << (L - 1), dtype=np.complex128)
    mult[0] = 1.0
    for j in range(L):
        coupled = np.flatnonzero(coupling[j, :j])  # the lower bits that qubit j couples to
        e = scratch[:2 << coupled[-1] if coupled.size else 1]
        e[0] = np.exp(-0.5j * field[j])
        for k in range(e.size.bit_length() - 1):
            quarter = np.exp(0.25j * coupling[j, k])
            np.multiply(e[:1 << k], quarter, out=e[1 << k:2 << k])
            e[:1 << k] *= quarter.conjugate()
        low = mult[:1 << j].reshape(-1, e.size)
        np.multiply(low, e, out=mult[1 << j:2 << j].reshape(-1, e.size))
        low *= np.conjugate(e, out=e)
    return mult


def _multiplier(L: int, coupling: np.ndarray, field: np.ndarray) -> tuple:
    """The ``_axis_multiplier`` of L qubits as (table, rows, cols), factored as in the module docstring.

    Up to one tile, (the flat multiplier, None, None). Above it, with lo =
    log2 _TILE, the table of the low qubits' pairs on the lower half of a
    tile and, per tile h, the row factor rows[h] (which holds the high
    qubits' multiplier) and the column factor cols[h] of the fields c_k(h) +
    h_k, c_k(h) = sum_{j high} J_jk s_j(h), on the low qubits k.
    """
    lo = _TILE.bit_length() - 1
    if L <= lo:
        return _axis_multiplier(L, coupling, field), None, None
    table = _axis_multiplier(lo - 1, coupling[:lo - 1, :lo - 1], 0.5 * coupling[:lo - 1, lo - 1])
    high, half = _axis_multiplier(L - lo, coupling[lo:, lo:], field[lo:]), lo // 2
    cross = _spins(L - lo) @ coupling[lo:, :lo] + field[:lo]  # (2^(L-lo), lo): c_k(h) + h_k
    rows = high[:, None] * np.exp(1j * (cross[:, half:] @ _spins(lo - half).T))
    return table, rows, np.exp(1j * (cross[:, :half] @ _spins(half).T))


def _multiply(amp: np.ndarray, mult: tuple) -> None:
    """Multiply the register ``amp`` by the multiplier ``mult`` of ``_multiplier`` in place, one tile at a time."""
    table, rows, cols = mult
    if rows is None:
        amp *= table
        return
    n = table.size
    for tile, row, col in zip(amp.reshape(len(rows), 2 * n), rows, cols):
        tile[:n] *= table
        tile[n:] *= table[::-1]
        view = tile.reshape(row.size, col.size)
        view *= row[:, None]
        view *= col


def _split(alpha, beta, u0, v0) -> tuple:
    """Each gate g = [[alpha, beta], [-conj(beta), conj(alpha)]] as c Z(u) R Z(v), Z(w) = diag(e^{iw}, e^{-iw}).

    Returns (c, R, u, v): R real with shape (..., 2, 2) and c in {1, i}. Where
    g allows it (u = u0 and v = v0 mod pi/2, up to _ROUNDING) u and v are the
    targets u0 and v0; elsewhere they are g's own phases, u +- v = arg alpha,
    arg beta, reduced mod pi/2. Z(pi/2) = i sigma_z puts its sigma_z into R
    and its i into c.
    """
    shape = np.broadcast_shapes(np.shape(alpha), np.shape(beta), np.shape(u0), np.shape(v0))
    if 0 in shape:  # no gates
        return np.empty(shape, dtype=np.complex128), np.empty(shape + (2, 2)), np.empty(shape), np.empty(shape)
    a, b, w = np.angle(alpha), np.angle(beta), np.empty((2, 2) + shape)  # w[f] = (u, v): f = 0 targets, 1 own
    w[0, 0], w[0, 1], w[1, 0], w[1, 1] = u0, v0, a + b, a - b
    w[1] *= 0.5
    w[1] -= 0.5 * np.pi * np.round(w[1] / (0.5 * np.pi))
    u, v = w[:, 0], w[:, 1]  # g's real part R in each frame of Z(u), Z(v), up to c
    p, q = alpha * np.exp(-1j * (u + v)), beta * np.exp(-1j * (u - v))
    c = np.where(np.abs(p.real) + np.abs(q.real) >= np.abs(p.imag) + np.abs(q.imag), 1.0 + 0j, 1j)
    p, q = p * np.conj(c), q * np.conj(c)
    fits = np.abs(p[0].imag) + np.abs(q[0].imag) <= _ROUNDING
    c, p, q, u, v = (np.where(fits, x[0], x[1]) for x in (c, p.real, q.real, u, v))
    s, r = (c * c).real, np.empty(shape + (2, 2))  # s = -1 where c = i: R is then a reflection
    r[..., 0, 0], r[..., 0, 1], r[..., 1, 0], r[..., 1, 1] = p, q, -s * q, s * p
    return c, r, u, v


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
    c, r, u, v = _split(alpha[..., low:], beta[..., low:], u0, v0)
    blocks = [_kron(g) * np.prod(c, axis=-1)[..., None, None]]
    blocks += [_kron(r[..., lo:lo + _GATE_BLOCK, :, :]) for lo in range(0, L - low, _GATE_BLOCK)]
    before, after = v - v0, u - u0
    return blocks, (before if before.any() else None), (after if after.any() else None)


def _scale_rows(amp: np.ndarray, phases) -> None:
    """Multiply the register ``amp`` by (x)_j Z(phases_j) over the qubits above the lowest block, in place.

    The register is viewed as (2^(L-4), 16) rows and the row scaling is a
    product-form vector of 2^(L-4) entries, one outer product per qubit.
    None does nothing.
    """
    if phases is None:
        return
    z, rows = np.exp(1j * np.stack([phases, -phases], -1)), np.ones(1, dtype=np.complex128)  # Z(w) per qubit
    for j in range(len(phases)):  # qubit j above the block is bit j of the row index
        rows = (z[j, :, None] * rows[None, :]).reshape(-1)
    view = amp.reshape(rows.size, -1)
    view *= rows[:, None]


def _tiled(amp: np.ndarray, blocks: list) -> None:
    """Apply ``blocks`` from bit 0 up to the register ``amp`` in place, through one buffer of at most _TILE amplitudes.

    Tiles and column chunks as in the module docstring; a tile is copied
    back from the buffer after an odd number of blocks.
    """
    buf = np.empty(min(amp.size, _TILE), dtype=np.complex128)
    inner = math.ceil((buf.size.bit_length() - 1) / _GATE_BLOCK)
    for tile in amp.reshape(-1, buf.size):
        src, dst, lo = tile, buf, 0
        for blk in blocks[:inner]:
            size = blk.shape[-1]
            if lo == 0:
                np.matmul(src.reshape(-1, size), blk.T, out=dst.reshape(-1, size))
            else:
                shape = (-1, size, 2 << lo)
                np.matmul(blk, src.view(np.float64).reshape(shape), out=dst.view(np.float64).reshape(shape))
            lo += size.bit_length() - 1
            src, dst = dst, src
        if src is not tile:
            tile[...] = src
    lo, flat = inner * _GATE_BLOCK, buf.view(np.float64)
    for blk in blocks[inner:]:
        size = blk.shape[-1]
        width = min(2 << lo, flat.size // size)
        out = flat[:size * width].reshape(size, width)
        chunks = amp.view(np.float64).reshape(-1, size, (2 << lo) // width, width).swapaxes(1, 2)
        for i in np.ndindex(chunks.shape[:2]):
            np.matmul(blk, chunks[i], out=out)
            chunks[i] = out
        lo += size.bit_length() - 1


def _global_gate(amp: np.ndarray, blocks: list, before=None, after=None) -> None:
    """Apply one pass of ``_gate_blocks``, with no leading axes, to the register ``amp`` in place.

    Row scaling ``before``, then ``_tiled``, then row scaling ``after``.
    Raises ValueError unless ``amp`` is one C-contiguous register.
    """
    if amp.ndim != 1 or not amp.flags.c_contiguous:  # the reshapes in _tiled must be views
        raise ValueError("amplitude array must be one C-contiguous register")
    _scale_rows(amp, before)
    _tiled(amp, blocks)
    _scale_rows(amp, after)


def global_half_pi_rotation(state: StateVector, axis: str) -> StateVector:
    """Rotate every spin by a quarter turn about x or y, in place.

    The step program applies its quarter-turns inside fused passes and does
    not call this; it stays because ``perfbench/tracing.py`` binds it by name.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"rotation axis must be 'x' or 'y', got {axis!r}")
    _global_gate(state.amp, *_gate_blocks(*_TURN[f"R{axis}"], state.L))
    return state


@dataclass
class _Pass:
    """One global pass of a step program: its factors in application order and,
    for the qubits above the lowest block, the phases u0 and v0 of its gates
    that the multipliers after and before it hold (``_gate_blocks``)."""

    factors: list
    u0: np.ndarray | float = 0.0
    v0: np.ndarray | float = 0.0


def _check_run(facts: _Facts, delta: float, end: float, start: float, stop: float, where: str = "") -> None:
    """The run check: raise ValueError, its message prefixed by ``where``, unless a model of these
    ``facts`` may run from time ``start`` to ``stop``.

    In this order: a substep of length ``delta`` (0: none) advances every
    phase by a finite amount; every drive phase f u stays finite for |u| <=
    ``end``; and ``stop`` is finite, so every time a run reports is finite.
    """
    if delta and not math.isfinite(delta * max(facts.h_scale, facts.j_scale)):
        raise ValueError(f"{where}a substep of length {delta:g} advances a phase that is not finite: "
                         f"field scale {facts.h_scale:g}, coupling scale {facts.j_scale:g}")
    if facts.top is not None and not math.isfinite(end * facts.top):
        raise ValueError(f"{where}a drive of frequency {facts.top:g} reaches a phase that is not finite "
                         f"within time {end:g}")
    if not math.isfinite(stop):  # a start that is not finite gives a stop that is not
        raise ValueError(f"{where}the clock must be finite, got {start:g} to {stop:g}")


def _check_operation(eo: ElementaryOperation, plan: StepPlan, L: int, start: float, sample_every,
                     where: str = "") -> None:
    """Raise ValueError unless ``plan`` is for the duration of ``eo``, ``eo`` acts on L qubits, ``_check_run``
    passes for ``eo`` run at ``plan`` from time ``start`` and, for a nonzero duration, one array holds the
    ``_grid`` of ``sample_every`` (passed by ``_check_stride``) in plan.m substeps; ``where`` prefixes the message."""
    if plan.tau != eo.tau:
        raise ValueError(f"{where}plan is for a duration of {plan.tau}, but the operation lasts {eo.tau}")
    if eo.model.L != L:
        raise ValueError(f"{where}model has L={eo.model.L} but state has L={L}")
    delta = eo.tau / plan.m
    _check_run(eo._derived.facts, delta, eo.tau, start, start + plan.m * delta, where)
    samples = (plan.m - 1) // sample_every + 1 if eo.tau and sample_every else 0
    if samples * 8 > _MAX_SUBSTEPS:  # numpy counts an array's bytes in int64
        raise ValueError(f"{where}sample_every {sample_every} takes {samples} samples, more than one array holds")


class _StepProgram:
    """One step compiled for a fixed substep length by the compile rule of the module docstring.

    Every step runs through one. In application order a step is gaps[0],
    passes[0], gaps[1], ..., passes[-1], gaps[-1]: ``passes`` are ``_Pass``es
    and a gap is the multiplier (``_multiplier``) met there or None, only the
    first and the last possibly None. A pass's factors are quarter-turn keys
    and (axis, theta) field factors diag(exp(i theta h_j/2), exp(-i theta
    h_j/2)), h_j the field that no multiplier holds, kept per axis in ``fields`` as
    (static, RF amplitude or None, frequency, phase).
    """

    __slots__ = ("L", "dim", "fields", "passes", "gaps", "counts")

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
        self.gaps, self.passes, pending = [None], [], []

        def push(factor):
            if isinstance(factor, str) and pending and pending[-1] == _INVERSE[factor]:
                pending.pop()
            elif isinstance(factor, tuple) and pending and pending[-1][0] == factor[0]:
                pending[-1] = (factor[0], pending[-1][1] + factor[1])
            else:
                pending.append(factor)

        def flush():
            if pending:
                self.passes.append(_Pass(pending.copy()))
                self.gaps.append(None)
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
                # the axis's multiplier, built below; met again in one gap, it merges
                thetas[a] = theta + (thetas[a] if self.gaps[-1] == a else 0.0)
                self.gaps[-1] = a
                if field:
                    push(field)
        flush()
        extra = self._fold(delta)
        mult = {a: _multiplier(L, theta * coupling[:, :, a], theta * static[:, a] + extra.get(a, 0.0))
                for a, theta in thetas.items()}
        self.gaps = [mult.get(a) for a in self.gaps]
        visits = np.bincount([item[0] for item in _ORDER if isinstance(item, tuple)], minlength=3)  # by axis
        self.counts = {
            "diagonal_sweeps": len(self.gaps) - self.gaps.count(None),
            "global_rotations": len(self.passes),
            "gate_kernel_calls": len(self.passes) * L,
            "pair_terms": int(visits @ np.count_nonzero(coupling, axis=(0, 1))) // 2,  # symmetric
            "field_terms": int(visits @ np.count_nonzero((static != 0.0) | (rf_amp != 0.0), axis=0)),
        }

    def _fold(self, delta: float) -> dict:
        """Set each pass's targets u0, v0; returns the extra field of each axis's multiplier.

        The gaps still hold axes here. The phases Z(u) of the pass before a
        gap and Z(v) of the pass after it (none at either end of the step),
        taken from their gates at the first midpoint, commute with the gap's
        multiplier, so the first gap an axis occurs in sets its multiplier to
        hold their sum; a gap of None holds nothing. Each pass then targets
        what its gaps hold. A pass whose phases match those targets (mod
        pi/2) at a substep is a real pass; elsewhere ``_gate_blocks`` puts
        the difference into row scalings.
        """
        low, held = min(self.L, _GATE_BLOCK), {}
        for op in self.passes:
            alpha, beta = (np.broadcast_to(x, (self.L,))[low:] for x in self.gates(op.factors, 0.5 * delta))
            op.u0, op.v0 = _split(alpha, beta, 0.0, 0.0)[2:]
        for prev, a, op in zip([None] + self.passes, self.gaps, self.passes + [None]):
            need = (prev.u0 if prev else 0.0) + (op.v0 if op else 0.0)
            total = 0.0 if a is None else held.setdefault(a, need)
            if prev and not op:
                prev.u0 = total
            if op:
                op.v0 = total - (prev.u0 if prev else 0.0)
        return {a: np.concatenate([np.zeros(low), 2.0 * np.broadcast_to(phase, (self.L - low,))])
                for a, phase in held.items()}

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
        return [_gate_blocks(*self.gates(op.factors, t_mid), self.L, op.u0, op.v0) for op in self.passes]

    def apply(self, amp: np.ndarray, parts: list, i: int) -> None:
        """Run substep ``i`` of ``parts``, the ``pass_parts`` of a chunk, on the register ``amp`` in place.

        Each gap multiplies the register by its multiplier, then the next pass
        applies entry ``i`` of its part; a part whose blocks have no leading
        axis serves every substep.
        """
        for mult, part in zip(self.gaps, parts + [None]):
            if mult is not None:
                _multiply(amp, mult)
            if part is not None:
                blocks, *rows = part
                if blocks[0].ndim == 3:
                    blocks, rows = [blk[i] for blk in blocks], [w if w is None else w[i] for w in rows]
                _global_gate(amp, blocks, *rows)

    def step_matrices(self, t_mid: np.ndarray) -> np.ndarray:
        """Transposed step matrices at the given midpoint times, shape (n, dim, dim).

        Row k of entry i is the step at ``t_mid[i]`` applied to basis state
        k, so a state advances by one substep as ``amp @ result[i]``. Every
        pass is one block with no row scaling, since it runs at L <= _GATE_BLOCK.
        The stack starts as diag(the multiplier before the first pass) times the
        transposed first pass; each later pass is one matmul of the stack
        with its transposed block, and each multiplier scales every row.
        """
        parts = self.pass_parts(t_mid)
        transposed = [blocks[0].swapaxes(-1, -2) for blocks, _, _ in parts]  # (n,) leading where RF varies
        lead = np.ones(self.dim) if self.gaps[0] is None else self.gaps[0][0]
        steps = np.empty((len(t_mid), self.dim, self.dim), dtype=np.complex128)
        if transposed:
            np.multiply(lead[:, None], transposed[0], out=steps)
        else:
            steps[...] = np.diag(lead)
        for mult, blk in zip(self.gaps[1:], transposed[1:] + [None]):
            if mult is not None:
                steps *= mult[0]
            if blk is not None:  # a block with no leading axis takes the stack as one (n dim, dim) matrix
                steps = np.matmul(steps.reshape(blk.shape[:-2] + (-1, self.dim)), blk).reshape(steps.shape)
        return steps


def symmetrized_step(state: StateVector, model: SpinModel, delta: float, t: float) -> StateVector:
    """Advance the state by one product-formula step over [t, t+delta].

    All five factors share the midpoint time t + delta/2. Raises ValueError
    unless delta is finite and > 0 and t is finite, and, before the substep,
    unless ``model`` acts on the state's L qubits, passes ``validate`` and
    passes the run check (``_check_run``) over [t, t+delta].
    """
    if not math.isfinite(delta):
        raise ValueError(f"step length must be finite, got {delta}")
    if delta <= 0:
        raise ValueError(f"step length must be > 0, got {delta}")
    if not math.isfinite(t):
        raise ValueError(f"step start time must be finite, got {t}")
    if model.L != state.L:
        raise ValueError(f"model has L={model.L} but state has L={state.L}")
    model.validate()
    _check_run(_facts(model, delta), delta, abs(t) + delta, t, t + delta)
    prog = _StepProgram(model, delta)
    _count(prog.counts, 1)
    prog.apply(state.amp, prog.pass_parts([t + 0.5 * delta]), 0)
    return state


def auto_substeps(eo: ElementaryOperation) -> StepPlan:
    """Pick a substep count for which the results no longer depend on it.

    A constant Hamiltonian confined to a single axis is integrated exactly by
    one step. Otherwise the substep length is capped at 1/64 of the period of
    the fastest RF drive with a nonzero amplitude, and at the times over which
    the strongest field and the strongest coupling each advance a phase by 0.1
    rad; m then rounds up to a multiple of the operation's whole drive periods
    (the period rule of the module docstring). The plan is made once per
    operation and kept on it.
    """
    derived = eo._derived
    if derived.plan is None:
        derived.plan = _auto_plan(eo)
    return derived.plan


def _auto_plan(eo: ElementaryOperation) -> StepPlan:
    """The plan of ``auto_substeps``, made anew."""
    model, (h_scale, j_scale, top, k) = eo.model, eo._derived.facts  # an infinite scale is reported below
    if eo.tau == 0.0:
        return StepPlan(1, 0.0)
    active = np.any(model.coupling, axis=(0, 1)) | np.any(model.static_field, axis=0)  # a drive never takes this path
    if np.count_nonzero(active) <= 1 and not np.any(model.rf_amp):
        return StepPlan(1, eo.tau)
    bounds = []
    if top:
        bounds.append(TWO_PI / top / _RF_SAMPLES_PER_PERIOD)
    if h_scale > 0.0:
        bounds.append(_MAX_PHASE_PER_STEP / h_scale)
    if j_scale > 0.0:
        bounds.append(_MAX_PHASE_PER_STEP / j_scale)
    step = min(bounds)
    count = eo.tau / step if step > 0.0 else math.inf
    if math.isfinite(count):
        count = k * max(1, math.ceil(count / k - 1e-9))
    if not count <= _MAX_SUBSTEPS:
        size = "over 2**63 - 1" if math.isfinite(count) else "not finite"
        raise ValueError(f"operation {eo.name!r} needs a substep count that is {size}: tau {eo.tau:g} / step bound {step:g}")
    return StepPlan(count, eo.tau)


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


def _check_stride(sample_every) -> None:
    """Raise ValueError unless ``sample_every`` is None or an integer >= 1."""
    if sample_every is not None and not isinstance(sample_every, numbers.Integral):
        raise ValueError(f"sample_every must be an integer, got {sample_every!r}")
    if sample_every is not None and sample_every < 1:
        raise ValueError("sample_every must be >= 1")


def _grid(m: int, sample_every: int | None) -> np.ndarray:
    """The substeps sampled in m: every ``sample_every``-th one and the last, as int64; none for None.
    A stride of m or more, also one that no int64 holds, samples the last substep only."""
    if sample_every is None:
        return np.empty(0, dtype=np.int64)
    k = min(sample_every, m)
    return np.append(np.arange(1, (m - 1) // k + 1, dtype=np.int64) * k, m)


def _matrix_pieces(eo: ElementaryOperation, prog: _StepProgram, plan: StepPlan, sample_every: int | None):
    """Yield per chunk the pieces of ``eo`` run at ``plan`` by its step program ``prog``: the products
    of the step matrices from the operation's start to each sample of ``_grid``, in order, or to its
    end alone for None.

    Over one drive period (the period rule of the module docstring) a pairwise tree between the cuts
    of a chunk of substeps, then a running product across chunks, gives the prefixes. With k = 1 they
    are the pieces, one chunk of substeps at a time; otherwise each chunk of samples is lifted by one
    batched matmul with the powers U^q of its distinct q.
    """
    chunk, dim, k = max(1, _BATCH_ELEMENTS // prog.dim**2), prog.dim, eo._derived.facts.k
    if plan.m % k:
        k = 1
    ends = _grid(plan.m, sample_every or plan.m)
    q, r = np.divmod(ends - 1, plan.m // k)
    cuts, index = np.unique(r + 1, return_inverse=True)  # the residues 1..p; the end's is p
    if k == 1 or cuts.size * dim**2 > _KEPT_ELEMENTS:
        k, cuts = 1, ends
    p, carry, prefixes = plan.m // k, np.eye(dim), []
    for lo in range(0, p, chunk):
        hi = min(lo + chunk, p)
        first, last = np.searchsorted(cuts, (lo, hi), side="right")
        steps = prog.step_matrices((np.arange(lo, hi) + 0.5) * (eo.tau / plan.m))
        inner = cuts[first:np.searchsorted(cuts, hi)]  # the cuts before hi, which ends the last segment
        products = _segment_products(steps, np.diff(np.append(inner, hi), prepend=lo))
        for j, segment in enumerate(products):
            carry = products[j] = carry @ segment
        piece = products if hi == p else products[:last - first].copy()
        if k == 1:
            yield piece
        else:
            prefixes.append(piece)
    if k == 1:
        return
    prefixes = np.concatenate(prefixes)
    for lo in range(0, ends.size, chunk):
        hi = min(lo + chunk, ends.size)
        qs, inverse = np.unique(q[lo:hi], return_inverse=True)
        lift = np.stack([np.linalg.matrix_power(carry, int(power)) for power in qs])  # carry is U
        yield lift[inverse] @ prefixes[index[lo:hi]]


def evolve_eo(state: StateVector, eo: ElementaryOperation, t0: float, plan: StepPlan | None = None,
              sample_every: int | None = None) -> tuple:
    """Run one operation starting at global time t0; returns (state, samples).

    The state is evolved in place through plan.m symmetrized steps of length
    delta = eo.tau / plan.m. Sinusoid arguments use the operation-local
    midpoint times (n + 1/2) * delta, so the state does not depend on t0.
    ``samples`` is one ``Observables`` with a leading axis over the sampled
    substeps n, each taken right after substep n at time t0 + n * delta:
    with an integer ``sample_every`` k, n = k, 2k, ... below m, and m; with
    None, no samples (``run_sequence`` reads its None as about 200 samples). A zero duration takes no substeps and
    returns no samples. Raises ValueError before the first substep for a
    ``sample_every`` that is not an integer >= 1, a plan for another
    duration, an L that does not match, a run that the run check
    (``_check_run``) refuses (a phase that is not finite, or a ``t0`` or
    sample time that is not finite), or more samples than one array holds.

    On step matrices (module docstring) the operation's pieces for ``plan``
    and ``sample_every`` are built on its first such run and replayed on
    every later one, while the operation's kept pieces hold at most
    _KEPT_ELEMENTS complex entries; pieces that would pass that are built for
    this run alone.
    """
    if plan is None:
        plan = auto_substeps(eo)
    _check_stride(sample_every)
    _check_operation(eo, plan, state.L, t0, sample_every)
    if eo.tau == 0.0:
        return state, _concatenate([], state.dim)
    delta, at, derived = eo.tau / plan.m, _grid(plan.m, sample_every), eo._derived
    key = (plan, sample_every) if state.dim <= _BATCH_MAX_DIM else None  # None: in place, nothing kept
    pieces = derived.pieces.get(key)
    if pieces is None:  # this run steps by a program of its own, which gives the operation's counts
        prog = _StepProgram(eo.model, delta)
        derived.counts = prog.counts
    _count(derived.counts, plan.m)
    if key is not None:
        if pieces is None:
            pieces = _matrix_pieces(eo, prog, plan, sample_every)  # computes nothing until it is read
            entries = max(1, at.size) * state.dim**2  # per sample, or the end's alone
            if sum(p.size for kept in derived.pieces.values() for p in kept) + entries <= _KEPT_ELEMENTS:
                pieces = derived.pieces[key] = list(pieces)
        states = np.concatenate([state.amp @ piece for piece in pieces])  # all read before the write below
        state.amp[:] = states[-1]
        return state, observables_of(states[:at.size], t0 + at * delta)
    parts, sampled = [], 0
    chunk = max(1, _BATCH_ELEMENTS // (256 * state.L))  # pass blocks: at most 4 passes of 64 entries per qubit
    for lo in range(0, plan.m, chunk):
        hi = min(lo + chunk, plan.m)
        chunk_parts = prog.pass_parts((np.arange(lo, hi) + 0.5) * delta)
        for i, n in enumerate(range(lo + 1, hi + 1)):
            prog.apply(state.amp, chunk_parts, i)
            if sampled < at.size and n == at[sampled]:
                parts.append(observables_of(state.amp[None], np.array([t0 + n * delta])))
                sampled += 1
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
    and at the final point; with ``sample_every`` None, about 200 times per
    operation. ``plans`` holds one plan per operation (default
    ``auto_substeps``). Each operation runs through ``evolve_eo``, so one that
    recurs, in ``seq`` or in a later call, replays the pieces it keeps.
    Raises ValueError before the first substep for a bad argument or a run
    that the run check (``_check_run``) refuses; it runs once per position,
    and its message names the operation.

    With a tolerance ``tol`` (finite, >= 0) each operation runs from the
    state the ones before it leave at m and 2m substeps, and m is doubled, at
    most MAX_DOUBLINGS times, until the 2m trial's estimated error
    |psi_2m - psi_m| / (2^2 - 1) is under ``tol``; the last 2m trial is the
    run. A zero-duration operation keeps its plan, with an estimate of 0.
    """
    _check_stride(sample_every)
    if plans is not None and len(plans) != len(seq):
        raise ValueError(f"got {len(plans)} plans for a sequence of {len(seq)} operations")
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    plans = [auto_substeps(eo) for eo in seq.eos] if plans is None else list(plans)
    starts = list(itertools.accumulate((eo.tau for eo in seq.eos), initial=0.0))
    for eo, plan, start in zip(seq.eos, plans, starts):  # before any operation runs; None's ~200 samples fit
        _check_operation(eo, plan, state.L, start, sample_every, f"operation {eo.name!r}: ")
    estimates = None if tol is None else [0.0] * len(seq)
    out = state.copy()
    parts = [observables_of(out.amp[None], np.array([0.0]))]
    step, eo_index = [0], [0]

    def advance(psi, eo, plan, start):  # returns psi, its sampled substep numbers and samples
        every = sample_every or max(1, round(plan.m / 200))
        return psi, _grid(plan.m, every), evolve_eo(psi, eo, start, plan=plan, sample_every=every)[1]

    for i, (eo, start) in enumerate(zip(seq.eos, starts)):
        if eo.tau == 0.0:
            continue
        if tol is None:
            out, at, samples = advance(out, eo, plans[i], start)
        else:
            psi_m = advance(out.copy(), eo, plans[i], start)[0]
            for _ in range(MAX_DOUBLINGS):
                plans[i] = StepPlan(2 * plans[i].m, eo.tau)
                psi_2m, at, samples = advance(out.copy(), eo, plans[i], start)
                estimates[i] = float(np.linalg.norm(psi_2m.amp - psi_m.amp)) / 3
                if estimates[i] < tol:
                    break
                psi_m = psi_2m
            out = psi_2m
        parts.append(samples)
        step += (step[-1] + at).tolist()  # step[-1] ended the previous operation
        eo_index += [i] * len(at)
    return out, Trajectory(np.array(step), np.array(eo_index), _concatenate(parts, out.dim), plans, estimates)

"""State-vector storage and elementary spin-1/2 manipulations.

Basis convention
----------------
A register of L qubits is a normalized vector of 2**L complex amplitudes.
Basis index n encodes the spin configuration with qubit 1 as the least
significant bit,

    n = x_1 + 2*x_2 + ... + 2**(L-1) * x_L,

where x_j = 0 means spin up (|0>) and x_j = 1 means spin down (|1>) on
qubit j. For L = 2 the index order is therefore

    0: |uu>,  1: |du>,  2: |ud>,  3: |dd>

(first arrow = qubit 1). With this ordering the rounded qubit readouts
(Q_1, Q_2) read directly as the reversed-bit binary representation of the
basis index.

Spin operators are S^a = sigma^a / 2, so every expectation value lies in
[-1/2, +1/2] and the qubit value of qubit j is Q_j = 1/2 - <S^z_j>.

Mutation convention: what evolves a register acts on it in place:
``StateVector.apply_gate`` (which returns ``self``) and the propagator's
``symmetrized_step`` and ``evolve_eo``. Use ``copy()`` first when the input
must be kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Largest supported register; 2**26 complex amplitudes is about 1 GiB.
MAX_QUBITS = 26

#: Amplitudes per tile (1 MiB, so a tile and its buffer fit a 2 MiB L2
#: cache): the most scratch that a global pass or an observables read holds.
_TILE = 1 << 16

#: The axis labels, in the order of every per-axis array's last index.
AXES = ("x", "y", "z")
_AXIS_INDEX = {axis: a for a, axis in enumerate(AXES)}


class CapacityError(ValueError):
    """Qubit count outside the supported range 1..MAX_QUBITS."""


class UnitarityError(ValueError):
    """A gate matrix failed its unitarity check."""


def check_axis(axis: str) -> int:
    """Map an axis label 'x'|'y'|'z' to its internal index."""
    try:
        return _AXIS_INDEX[axis]
    except KeyError:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}") from None


def spin_z_values(L: int, j: int) -> np.ndarray:
    """S^z eigenvalue of qubit j for every basis index: +1/2 (up) or -1/2 (down)."""
    idx = np.arange(1 << L, dtype=np.int64)
    return 0.5 - ((idx >> (j - 1)) & 1)


def _spins(n: int) -> np.ndarray:
    """The spin values s_j = +-1/2 of the n qubits of every basis index, shape (2^n, n); its
    transpose, which ``observables_of`` reads row by row, is C-contiguous."""
    return np.array([spin_z_values(n, j) for j in range(1, n + 1)]).T


@dataclass
class Observables:
    """Per-qubit spin expectations and qubit values at one instant.

    q[j-1] = 1/2 - sz[j-1] for every qubit j; all expectations are in
    spin units (range [-1/2, +1/2]); norm is the register's 2-norm. The
    observables of a batch of k states, as sampled by ``evolve_eo`` and in
    a ``Trajectory``, carry a leading sample axis on every field: t and
    norm have shape (k,), the per-qubit fields (k, L).
    """

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    q: np.ndarray
    norm: float | np.ndarray
    t: float | np.ndarray


class StateVector:
    """Complex amplitude array over the 2**L spin basis."""

    __slots__ = ("L", "amp")

    def __init__(self, L: int, amp: np.ndarray | None = None):
        if not 1 <= L <= MAX_QUBITS:
            raise CapacityError(f"qubit count must be in 1..{MAX_QUBITS}, got {L}")
        self.L = int(L)
        dim = 1 << self.L
        if amp is None:
            amp = np.zeros(dim, dtype=np.complex128)
            amp[0] = 1.0
        else:
            amp = np.array(amp, dtype=np.complex128, order="C")  # the register's one copy, checked in place
            if amp.shape != (dim,):
                raise ValueError(f"amplitude array must have shape ({dim},), got {amp.shape}")
            nrm = math.sqrt(np.vdot(amp, amp).real)
            if not math.isfinite(nrm):  # an entry is not finite, or the sum of squares overflowed
                if not np.isfinite(amp).all():
                    raise ValueError("amplitudes must be finite")
                raise ValueError(f"state norm is not finite: |amp| = {nrm!r}")
            if abs(nrm - 1.0) > 1e-9:
                raise ValueError(f"state is not normalized: |amp| = {nrm!r}")
        self.amp = amp

    def copy(self) -> "StateVector":
        dup = StateVector.__new__(StateVector)
        dup.L = self.L
        dup.amp = self.amp.copy()
        return dup

    @property
    def dim(self) -> int:
        return self.amp.size

    def norm(self) -> float:
        """2-norm by one ``np.vdot``, no temporaries; the same bits for one input, BLAS build and thread count."""
        return math.sqrt(np.vdot(self.amp, self.amp).real)

    def apply_gate(self, j: int, g: np.ndarray) -> "StateVector":
        """Apply a 2x2 unitary to qubit j, in place.

        Every amplitude pair (n0, n1) differing only in bit j-1 is multiplied
        by g. Rejects non-unitary matrices. The step program does not call
        this; it stays because ``perfbench/tracing.py`` binds it by name.
        """
        if not 1 <= j <= self.L:
            raise ValueError(f"qubit index must be in 1..{self.L}, got {j}")
        g = np.asarray(g, dtype=np.complex128)
        if g.shape != (2, 2):
            raise ValueError("gate must be a 2x2 matrix")
        dev = float(np.max(np.abs(g.conj().T @ g - np.eye(2))))
        if dev > 1e-12:
            raise UnitarityError(f"gate is not unitary (max deviation {dev:.3e})")
        if not self.amp.flags.c_contiguous:  # the split on bit j-1 must be a view
            raise ValueError("amplitude array must be C-contiguous")
        view = self.amp.reshape(1 << (self.L - j), 2, 1 << (j - 1))  # split on bit j-1
        a0, a1 = view[:, 0, :], view[:, 1, :]
        t0 = a0.copy()
        a0 *= g[0, 0]
        a0 += g[0, 1] * a1
        a1 *= g[1, 1]
        a1 += g[1, 0] * t0
        return self

    def observables(self, t: float = 0.0) -> Observables:
        """All per-qubit expectations, qubit values Q_j = 1/2 - <S^z_j>, and the norm."""
        return observables_of(self.amp, t)


def _cross(amp: np.ndarray, k: int) -> np.ndarray:
    """<a0|a1> over the halves of every register in ``amp`` (its last axis) split on bit k."""
    view = amp.reshape(amp.shape[:-1] + (amp.shape[-1] >> (k + 1), 2, 1 << k))
    return np.vecdot(view[..., 0, :], view[..., 1, :]).sum(-1)


def observables_of(amp: np.ndarray, t) -> Observables:
    """The observables of every register in ``amp`` at time(s) ``t``.

    The last axis of ``amp`` is the register and leading axes are a batch,
    which every field but ``t`` (stored as given) carries in front. Per
    qubit j, with c = <a0|a1> over the halves split on bit j: <S^x> = Re c
    and <S^y> = Im c; <S^z> is the mean of +-1/2 over the populations.

    With lo = L // 2 and hi = L - lo, the register is a (2^hi, 2^lo) grid.
    For j >= lo, the halves of qubit j lie along a contiguous axis of at
    least 2^lo entries of a strided view of ``amp``, and c is a row-wise
    ``vecdot`` summed over the rows. For j < lo, the grid is read in blocks
    of 2^r rows, one tile (_TILE amplitudes) at most: ``tr`` holds one block
    transposed, in which bit j of ``amp`` is bit j + r, and gives the
    block's partial c the same way; its row norms are the block's partial
    marginal of the low bits. The partials are summed over the blocks, and
    at one tile (every L <= 16) the loop runs once. The row norms of the
    grid are the marginal of the high bits; <S^z> is a ``vecdot`` of each
    marginal with a +-1/2 sign table, and the norm is the square root of
    the high marginal's sum. Every reduction runs per row, so a row of a
    batch is bitwise the call on that row alone.
    """
    lead, dim = amp.shape[:-1], amp.shape[-1]
    L = dim.bit_length() - 1
    lo = L // 2
    hi = L - lo
    grid = amp.reshape(lead + (1 << hi, 1 << lo))
    rows = min(1 << hi, max(1, _TILE >> lo))
    r = rows.bit_length() - 1
    tr = np.empty(lead + (1 << lo, rows), dtype=amp.dtype)
    flat = tr.reshape(lead + (rows << lo,))  # a view of tr, where bit j < lo of amp is bit j + r
    for h0 in range(0, 1 << hi, rows):
        np.copyto(tr, np.swapaxes(grid[..., h0:h0 + rows, :], -1, -2))
        part = [_cross(flat, j + r) for j in range(lo)] + [np.vecdot(tr, tr)]
        acc = part if h0 == 0 else [s + p for s, p in zip(acc, part)]
    *cross, low = acc
    c = np.stack(cross + [_cross(amp, j) for j in range(lo, L)], axis=-1)
    signs = _spins(hi).T  # signs[b]: +-1/2 on bit b
    high = np.vecdot(grid, grid).real
    sz = np.concatenate([np.vecdot(low.real[..., None, :], signs[:lo, : 1 << lo]),
                         np.vecdot(high[..., None, :], signs)], axis=-1)
    return Observables(sx=c.real, sy=c.imag, sz=sz, q=0.5 - sz, norm=np.sqrt(high.sum(-1)), t=t)


def new_basis_state(L: int, bits) -> StateVector:
    """Computational basis state |x_1 x_2 ... x_L> with qubit 1 first.

    The amplitude is exactly 1 at index sum_j bits[j-1] * 2**(j-1).
    """
    bits = list(bits)
    if len(bits) != L:
        raise ValueError(f"expected {L} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    n = sum(b << (j) for j, b in enumerate(bits))
    state = StateVector(L)
    state.amp[0] = 0.0
    state.amp[n] = 1.0
    return state


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|, insensitive to global phase; both states must have the same qubit count."""
    if a.L != b.L:
        raise ValueError(f"qubit counts differ: {a.L} vs {b.L}")
    return abs(complex(np.vdot(a.amp, b.amp)))

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

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


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
    norm: float
    t: float


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
            amp = np.asarray(amp, dtype=np.complex128)
            if amp.shape != (dim,):
                raise ValueError(f"amplitude array must have shape ({dim},), got {amp.shape}")
            if not np.all(np.isfinite(amp)):
                raise ValueError("amplitudes must be finite")
            with np.errstate(over="ignore"):  # huge finite amplitudes: inf norm, rejected below
                nrm = math.sqrt(float(np.sum(np.abs(amp) ** 2)))
            if not math.isfinite(nrm):
                raise ValueError(f"state norm is not finite: |amp| = {nrm!r}")
            if abs(nrm - 1.0) > 1e-9:
                raise ValueError(f"state is not normalized: |amp| = {nrm!r}")
            amp = amp.copy()
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
        """2-norm, accumulated with numpy's pairwise summation (deterministic)."""
        return math.sqrt(float(np.sum(self.amp.real**2 + self.amp.imag**2)))

    def _check_qubit(self, j: int) -> None:
        if not 1 <= j <= self.L:
            raise ValueError(f"qubit index must be in 1..{self.L}, got {j}")

    def _bit_views(self, j: int):
        """Views of the amplitude array split on bit j-1: (bit=0 part, bit=1 part)."""
        view = self.amp.reshape(1 << (self.L - j), 2, 1 << (j - 1))
        return view[:, 0, :], view[:, 1, :]

    def apply_gate(self, j: int, g: np.ndarray) -> "StateVector":
        """Apply a 2x2 unitary to qubit j, in place.

        Every amplitude pair (n0, n1) differing only in bit j-1 is multiplied
        by g. Rejects non-unitary matrices. The step program does not call
        this; it stays because ``perfbench/tracing.py`` binds it by name.
        """
        self._check_qubit(j)
        g = np.asarray(g, dtype=np.complex128)
        if g.shape != (2, 2):
            raise ValueError("gate must be a 2x2 matrix")
        dev = float(np.max(np.abs(g.conj().T @ g - np.eye(2))))
        if dev > 1e-12:
            raise UnitarityError(f"gate is not unitary (max deviation {dev:.3e})")
        if not self.amp.flags.c_contiguous:  # the split on bit j-1 must be a view
            raise ValueError("amplitude array must be C-contiguous")
        a0, a1 = self._bit_views(j)
        t0 = a0.copy()
        a0 *= g[0, 0]
        a0 += g[0, 1] * a1
        a1 *= g[1, 1]
        a1 += g[1, 0] * t0
        return self

    def expect(self, j: int, axis: str) -> float:
        """<S^a_j> for a in {x, y, z}; the imaginary residue must be < 1e-10."""
        self._check_qubit(j)
        ax = check_axis(axis)
        if ax == 2:
            a0, a1 = self._bit_views(j)
            val = complex(0.5 * (np.sum(np.abs(a0) ** 2) - np.sum(np.abs(a1) ** 2)))
        else:
            a0, a1 = self._bit_views(j)
            cross = np.sum(a0.conj() * a1)
            if ax == 0:
                val = 0.5 * (cross + np.sum(a1.conj() * a0))
            else:
                val = 0.5 * (-1j * cross + 1j * np.sum(a1.conj() * a0))
        if abs(val.imag) >= 1e-10:
            raise ArithmeticError(
                f"expectation <S^{axis}_{j}> has imaginary residue {val.imag:.3e}"
            )
        return float(val.real)

    def observables(self, t: float = 0.0) -> Observables:
        """All per-qubit expectations, qubit values Q_j = 1/2 - <S^z_j>, and the norm."""
        return observables_of(self.amp, t)


def observables_of(amp: np.ndarray, t) -> Observables:
    """The observables of every register in ``amp`` at time(s) ``t``.

    The last axis of ``amp`` is the register and leading axes are a batch,
    which every field but ``t`` (stored as given) carries in front. Per
    qubit, with c = <a0|a1> over the bit-split halves: <S^x> = Re c,
    <S^y> = Im c and <S^z> = (<a0|a0> - <a1|a1>) / 2, the same values
    ``StateVector.expect`` returns (without its residue check), in three
    dot products over the last axis of each half, a strided view where the
    layout allows one and a copy otherwise. The norm is sqrt(<a0|a0> +
    <a1|a1>) of the last split.
    """
    lead, dim = amp.shape[:-1], amp.shape[-1]
    L = dim.bit_length() - 1
    sx, sy, sz = np.empty(lead + (L,)), np.empty(lead + (L,)), np.empty(lead + (L,))
    for j in range(L):
        view = amp.reshape(lead + (dim >> (j + 1), 2, 1 << j))
        a0 = view[..., 0, :].reshape(lead + (dim >> 1,))
        a1 = view[..., 1, :].reshape(lead + (dim >> 1,))
        c = np.vecdot(a0, a1)
        n0 = np.vecdot(a0, a0).real
        n1 = np.vecdot(a1, a1).real
        sx[..., j] = c.real
        sy[..., j] = c.imag
        sz[..., j] = 0.5 * (n0 - n1)
    return Observables(sx=sx, sy=sy, sz=sz, q=0.5 - sz, norm=np.sqrt(n0 + n1), t=t)


def new_basis_state(L: int, bits) -> StateVector:
    """Computational basis state |x_1 x_2 ... x_L> with qubit 1 first.

    The amplitude is exactly 1 at index sum_j bits[j-1] * 2**(j-1).
    """
    if not 1 <= L <= MAX_QUBITS:
        raise CapacityError(f"qubit count must be in 1..{MAX_QUBITS}, got {L}")
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


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>; both states must have the same qubit count."""
    if a.L != b.L:
        raise ValueError(f"qubit counts differ: {a.L} vs {b.L}")
    return complex(np.vdot(a.amp, b.amp))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|, insensitive to global phase."""
    return abs(inner_product(a, b))

"""Ground-truth machinery: exact gate algebra and dense propagators.

Everything here is deliberately independent of the product-formula
integrator: gates are written down as explicit matrices, and time-ordered
evolution is computed by slicing the interval and exponentiating the full
2**L x 2**L Hamiltonian of each slice through a Hermitian eigendecomposition.
The integrator is validated against this module, never the other way around.

Gate mnemonics (single qubit): "X" and "Y" are clockwise quarter turns about
the x and y axes, exp(+i*(pi/2)*S^a); a trailing "b" marks the inverse
("bar"), e.g. "Xb" = X^dagger. "W" is the Walsh-Hadamard transform built from
three quarter turns, W = X X Yb = (i/sqrt2)[[1, 1], [1, -1]].

Two-qubit mnemonics: "Ipi" is free evolution under the z-z coupling producing
conditional phases -/+ pi/4 on aligned/anti-aligned configurations; "P" is
the conditional phase shift diag(1,-1,-1,-1); "F0".."F3" encode a four-item
database by flipping the sign of one basis amplitude (F0 = -P); "D" is the
inversion-about-the-mean (diffusion) operator D = W1 W2 P W1 W2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .propagator import SpinModel

_SQ2 = math.sqrt(2.0)

_SINGLE = {
    "X": np.array([[1, 1j], [1j, 1]]) / _SQ2,
    "Yb": np.array([[1, -1], [1, 1]]) / _SQ2,
}
_SINGLE["Xb"] = _SINGLE["X"].conj().T
_SINGLE["Y"] = _SINGLE["Yb"].conj().T
_SINGLE["W"] = _SINGLE["X"] @ _SINGLE["X"] @ _SINGLE["Yb"]

# Pauli/2 operators used to assemble dense Hamiltonians.
_SPIN = (
    np.array([[0, 1], [1, 0]], dtype=complex) / 2,
    np.array([[0, -1j], [1j, 0]]) / 2,
    np.array([[1, 0], [0, -1]], dtype=complex) / 2,
)


class ConvergenceError(RuntimeError):
    """Slice refinement failed to reach the requested tolerance."""


class GateMatrix:
    """Small dense unitary; unitarity is checked on construction."""

    __slots__ = ("mat",)

    def __init__(self, mat, check: bool = True):
        mat = np.asarray(mat, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("gate matrix must be square")
        if check:
            dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))))
            if dev > 1e-12:
                raise ValueError(f"matrix is not unitary (max deviation {dev:.3e})")
        self.mat = mat

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dag(self) -> "GateMatrix":
        return GateMatrix(self.mat.conj().T, check=False)

    def __matmul__(self, other: "GateMatrix") -> "GateMatrix":
        return GateMatrix(self.mat @ other.mat, check=False)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.mat, dtype=dtype)


def embed_single(g: np.ndarray, j: int, L: int) -> np.ndarray:
    """Place a 2x2 operator on qubit j of an L-qubit register (qubit 1 = LSB)."""
    return np.kron(np.eye(1 << (L - j)), np.kron(g, np.eye(1 << (j - 1))))


def ideal_gate(name: str, j: int, L: int) -> GateMatrix:
    """Exact single-qubit gate ("X", "Xb", "Y", "Yb", "W") embedded at qubit j."""
    if name not in _SINGLE:
        raise ValueError(f"unknown single-qubit gate {name!r}; known: {sorted(_SINGLE)}")
    if not 1 <= j <= L or L > 10:
        raise ValueError(f"qubit index {j} out of range for L={L} (L <= 10)")
    return GateMatrix(embed_single(_SINGLE[name], j, L), check=False)


def ideal_two_qubit(name: str) -> GateMatrix:
    """Exact 4x4 gate for the two-qubit mnemonics Ipi, F0..F3, P, D."""
    if name == "Ipi":
        # exp(-i*pi*S1z*S2z): s1*s2 = +1/4 on aligned, -1/4 on anti-aligned.
        s1s2 = np.array([0.25, -0.25, -0.25, 0.25])
        return GateMatrix(np.diag(np.exp(-1j * np.pi * s1s2)), check=False)
    if name == "P":
        return GateMatrix(np.diag([1, -1, -1, -1]).astype(complex), check=False)
    if name in ("F0", "F1", "F2", "F3"):
        d = np.ones(4, dtype=complex)
        d[int(name[1])] = -1.0
        return GateMatrix(np.diag(d), check=False)
    if name == "D":
        return GateMatrix(
            0.5 * np.array([[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]], dtype=complex),
            check=False,
        )
    raise ValueError(f"unknown two-qubit gate {name!r}")


# EO names as used by the pulse library, mapped onto ideal gates for L = 2.
_EO_GATE = {
    "X1": ("X", 1), "X1b": ("Xb", 1), "X2": ("X", 2), "X2b": ("Xb", 2),
    "Y1": ("Y", 1), "Y1b": ("Yb", 1), "Y2": ("Y", 2), "Y2b": ("Yb", 2),
}


def matrix_of_sequence(seq) -> GateMatrix:
    """Reconstruct the exact unitary of an execution-ordered EO sequence (L = 2).

    Accepts a PulseSequence or an iterable of EO names; the first element acts
    first, so the result is the right-to-left matrix product of the
    corresponding ideal gates.
    """
    names = [eo.name for eo in seq.eos] if hasattr(seq, "eos") else list(seq)
    total = np.eye(4, dtype=complex)
    unknown = [n for n in names if n not in _EO_GATE and n != "Ipi"]
    if unknown:
        raise ValueError(f"sequence contains EOs with no ideal-gate mapping: {unknown}")
    for name in names:
        if name == "Ipi":
            m = ideal_two_qubit("Ipi").mat
        else:
            gate, j = _EO_GATE[name]
            m = ideal_gate(gate, j, 2).mat
        total = m @ total
    return GateMatrix(total, check=False)


def global_phase_between(a: np.ndarray, b: np.ndarray, atol: float = 1e-10) -> complex:
    """Phase c with a == c*b; raises if the matrices differ beyond a phase."""
    a = np.asarray(a)
    b = np.asarray(b)
    k = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    c = a[k] / b[k]
    dev = float(np.max(np.abs(a - c * b)))
    if dev > atol:
        raise ValueError(f"matrices differ beyond a global phase (max deviation {dev:.3e})")
    return complex(c)


@dataclass
class IterateReport:
    """Diffusion-operator iteration pattern for one database item."""

    item: int
    pure_iterations: list = field(default_factory=list)
    expected_iterations: list = field(default_factory=list)
    indices_ok: bool = True

    @property
    def ok(self) -> bool:
        return self.pure_iterations == self.expected_iterations and self.indices_ok


def grover_iterate_check(item: int) -> IterateReport:
    """Iterate the search loop on the encoded state and find the pure-state hits.

    Starts from the encoded state F_item |U| and applies one search iteration
    at a time: the inversion about the mean followed by a fresh database
    query. (The inversion alone is an involution, D^2 = identity, so repeated
    bare D would just flip between two states; re-querying after each
    inversion is what advances the search cycle.) Records, over iterations
    1 to 10, the counts at which the register is a pure basis state, the
    period-3 pattern 1, 4, 7, 10, and checks that the basis state is the
    searched item.
    """
    if item not in (0, 1, 2, 3):
        raise ValueError(f"item must be 0..3, got {item}")
    uniform = np.full(4, -0.5, dtype=complex)  # W2 W1 |uu>
    fmat = ideal_two_qubit(f"F{item}").mat
    d = ideal_two_qubit("D").mat
    psi = fmat @ uniform
    report = IterateReport(item=item, expected_iterations=[1, 4, 7, 10])
    for k in range(1, 11):
        psi = fmat @ (d @ psi)
        peak = np.abs(psi).max()
        if peak >= 1.0 - 1e-12:
            report.pure_iterations.append(k)
            if int(np.argmax(np.abs(psi))) != item:
                report.indices_ok = False
    return report


def hamiltonian(model: SpinModel, t: float) -> np.ndarray:
    """Dense 2**L x 2**L Hamiltonian built literally from the model at time t."""
    const, rf = _hamiltonian_parts(model)
    h = const.copy()
    for f, phi, b in rf:
        h += math.sin(f * t + phi) * b
    return h


def _hamiltonian_parts(model: SpinModel):
    """Split H(t) into a constant matrix and sinusoidal terms (f, phi, matrix)."""
    L = model.L
    dim = 1 << L
    const = np.zeros((dim, dim), dtype=complex)
    spins = [[embed_single(_SPIN[a], j, L) for a in range(3)] for j in range(1, L + 1)]
    for a in range(3):
        for j in range(L):
            for k in range(j + 1, L):
                cjk = model.coupling[j, k, a]
                if cjk != 0.0:
                    const -= cjk * (spins[j][a] @ spins[k][a])
        for j in range(L):
            h0 = model.static_field[j, a]
            if h0 != 0.0:
                const -= h0 * spins[j][a]
    rf = []
    for a in range(3):
        for j in range(L):
            h1 = model.rf_amp[j, a]
            if h1 == 0.0:
                continue
            f = model.rf_freq[j, a]
            phi = model.rf_phase[j, a]
            if f == 0.0:
                const -= h1 * math.sin(phi) * spins[j][a]  # constant sinusoid
            else:
                rf.append((f, phi, -h1 * spins[j][a]))
    return const, rf


def _closest_unitary(mat: np.ndarray) -> np.ndarray:
    """Polar projection; removes the float drift of long unitary products."""
    u, _, vt = np.linalg.svd(mat)
    return u @ vt


def _slice_product(const, rf, t0: float, tau: float, n: int, chunk: int) -> np.ndarray:
    """Product of midpoint-sampled slice exponentials over [t0, t0+tau], n slices."""
    dim = const.shape[0]
    dt = tau / n
    total = np.eye(dim, dtype=complex)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        mids = t0 + (np.arange(lo, hi) + 0.5) * dt
        hs = np.broadcast_to(const, (hi - lo, dim, dim)).copy()
        for f, phi, b in rf:
            hs += np.sin(f * mids + phi)[:, None, None] * b
        w, v = np.linalg.eigh(hs)
        phases = np.exp(-1j * dt * w)
        us = np.einsum("sij,sj,skj->sik", v, phases, v.conj())
        # ordered pairwise product: us[0] acts first
        while us.shape[0] > 1:
            if us.shape[0] % 2:
                us = np.concatenate([us, np.eye(dim, dtype=complex)[None]])
            us = np.einsum("sij,sjk->sik", us[1::2], us[0::2])
        total = us[0] @ total
    return total


def dense_propagator(
    model: SpinModel,
    t0: float,
    tau: float,
    n_slices: int = 1,
    tol: float = 1e-12,
    max_slices: int = 1 << 20,
) -> GateMatrix:
    """Time-ordered propagator over [t0, t0+tau] by brute-force slicing.

    Each slice is exponentiated exactly through the Hermitian spectral
    decomposition of the full Hamiltonian sampled at the slice midpoint. For a
    constant Hamiltonian a single slice is exact; otherwise the slice count is
    doubled from ``n_slices`` until two successive refinements agree to ``tol``
    in max norm. Raises ConvergenceError with the achieved residual if the cap
    is hit first.
    """
    if model.L > 6:
        raise ValueError(f"dense propagator is limited to L <= 6, got L={model.L}")
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    const, rf = _hamiltonian_parts(model)
    dim = const.shape[0]
    chunk = max(1, (1 << 22) // (dim * dim))
    if tau == 0.0:
        return GateMatrix(np.eye(dim, dtype=complex), check=False)
    if not rf:
        # constant H: exact at any slice count
        return GateMatrix(_slice_product(const, rf, t0, tau, n_slices, chunk), check=False)
    # Refinement must start fine enough to resolve every sinusoid: when tau is
    # commensurate with an RF period, coarse midpoint grids can alias the drive
    # to zero and fake a converged doubling.
    f_max = max(abs(f) for f, _, _ in rf)
    n = max(n_slices, math.ceil(16.0 * tau * f_max / (2.0 * math.pi)), 1)
    u_n = _slice_product(const, rf, t0, tau, n, chunk)
    residual = math.inf
    while n <= max_slices // 2:
        u_2n = _slice_product(const, rf, t0, tau, 2 * n, chunk)
        residual = float(np.max(np.abs(u_2n - u_n)))
        if residual < tol:
            return GateMatrix(_closest_unitary(u_2n), check=False)
        u_n = u_2n
        n *= 2
    raise ConvergenceError(
        f"slice refinement hit the cap of {max_slices} slices "
        f"(last doubling residual {residual:.3e}, tolerance {tol:.1e})"
    )


def dense_propagator_composed(
    model: SpinModel,
    t0: float,
    tau: float,
    segment: float = 1.0,
    tol: float = 1e-12,
) -> GateMatrix:
    """Dense propagator over a long interval, composed from short segments.

    Uses the semi-group property U(t0+tau, t0) = prod of U over consecutive
    sub-intervals of length <= ``segment``. Short segments converge far faster
    under slice doubling than one long interval; the total error is about the
    number of segments times the per-segment tolerance.
    """
    n_seg = max(1, math.ceil(tau / segment - 1e-12))
    dt = tau / n_seg
    dim = 1 << model.L
    total = np.eye(dim, dtype=complex)
    for i in range(n_seg):
        total = dense_propagator(model, t0 + i * dt, dt, tol=tol).mat @ total
    return GateMatrix(_closest_unitary(total), check=False)

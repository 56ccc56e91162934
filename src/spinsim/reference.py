"""Ground-truth machinery: exact gate algebra and a dense propagator.

Everything here is deliberately independent of the product-formula
integrator: gates are written down as explicit matrices, and time-ordered
evolution is a product of fourth-order Magnus slices (two-point Gauss-Legendre;
Iserles & Norsett, Phil. Trans. R. Soc. A 357, 983 (1999); Blanes, Casas, Oteo
& Ros, Phys. Rep. 470, 151 (2009)), each the exact exponential of a Hermitian
2**L x 2**L matrix. The integrator is validated against this module, never
the other way around.

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

from .propagator import TWO_PI, SpinModel
from .state import spin_z_values

_SQ2 = math.sqrt(2.0)
# offset of the two-point Gauss-Legendre nodes from a slice midpoint, per dt
_GL_NODE = math.sqrt(3.0) / 6

_SINGLE = {
    "X": np.array([[1, 1j], [1j, 1]]) / _SQ2,
    "Yb": np.array([[1, -1], [1, 1]], dtype=complex) / _SQ2,
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


def embed_single(g: np.ndarray, j: int, L: int) -> np.ndarray:
    """Place a 2x2 operator on qubit j of an L-qubit register (qubit 1 = LSB)."""
    return np.kron(np.eye(1 << (L - j)), np.kron(g, np.eye(1 << (j - 1))))


def ideal_gate(name: str, j: int, L: int) -> np.ndarray:
    """Exact single-qubit gate ("X", "Xb", "Y", "Yb", "W") embedded at qubit j."""
    if name not in _SINGLE:
        raise ValueError(f"unknown single-qubit gate {name!r}; known: {sorted(_SINGLE)}")
    if not 1 <= j <= L or L > 10:
        raise ValueError(f"qubit index {j} out of range for L={L} (L <= 10)")
    return embed_single(_SINGLE[name], j, L)


def ideal_two_qubit(name: str) -> np.ndarray:
    """Exact 4x4 gate for the two-qubit mnemonics Ipi, F0..F3, P, D."""
    if name == "Ipi":
        # exp(-i*pi*S1z*S2z): s1*s2 = +1/4 on aligned, -1/4 on anti-aligned.
        s1s2 = np.array([0.25, -0.25, -0.25, 0.25])
        return np.diag(np.exp(-1j * np.pi * s1s2))
    if name == "P":
        return np.diag([1, -1, -1, -1]).astype(complex)
    if name in ("F0", "F1", "F2", "F3"):
        d = np.ones(4, dtype=complex)
        d[int(name[1])] = -1.0
        return np.diag(d)
    if name == "D":
        return 0.5 * np.array([[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]], dtype=complex)
    raise ValueError(f"unknown two-qubit gate {name!r}")


# EO names as used by the pulse library, mapped onto ideal gates for L = 2.
_EO_GATE = {
    "X1": ("X", 1), "X1b": ("Xb", 1), "X2": ("X", 2), "X2b": ("Xb", 2),
    "Y1": ("Y", 1), "Y1b": ("Yb", 1), "Y2": ("Y", 2), "Y2b": ("Yb", 2),
}


def matrix_of_sequence(seq) -> np.ndarray:
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
            m = ideal_two_qubit("Ipi")
        else:
            gate, j = _EO_GATE[name]
            m = ideal_gate(gate, j, 2)
        total = m @ total
    return total


def global_phase_between(a: np.ndarray, b: np.ndarray, atol: float = 1e-10) -> complex:
    """Phase c with a == c*b; raises if the matrices differ beyond a phase."""
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
    fmat = ideal_two_qubit(f"F{item}")
    d = ideal_two_qubit("D")
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


def pairs_step_oracle(model: SpinModel, delta: float, t: float, amp: np.ndarray) -> np.ndarray:
    """One symmetrized product-formula step over [t, t + delta], returned as new amplitudes.

    The step is exp(-i d Hz/2) exp(-i d Hy/2) exp(-i d Hx) exp(-i d Hy/2)
    exp(-i d Hz/2) at the midpoint t + delta/2, with the y and x factors
    carried to z form by the quarter turns X = exp(+i (pi/2) Sx) and Yb =
    exp(-i (pi/2) Sy). Each z-form factor is a phase vector summed directly
    over the pairs and fields of its axis, and each quarter turn is one 2x2
    gate per qubit, applied one qubit at a time; no kernel of the integrator
    is used.
    """
    L, t_mid = model.L, t + delta / 2
    s = [spin_z_values(L, j) for j in range(1, L + 1)]
    amp = amp.copy()

    def axis_sum(a):  # sum_j s_j (h_j(t_mid) + sum_{k>j} J_jk s_k): -H_a as a diagonal
        total = np.zeros(1 << L)
        for j in range(L):
            rf = model.rf_amp[j, a] * math.sin(model.rf_freq[j, a] * t_mid + model.rf_phase[j, a])
            local = np.full(1 << L, model.static_field[j, a] + rf)
            for k in range(j + 1, L):
                local += model.coupling[j, k, a] * s[k]
            total += local * s[j]
        return total

    def turn(g):
        for j in range(L):
            view = amp.reshape(1 << (L - j - 1), 2, 1 << j)
            up, down = view[:, 0].copy(), view[:, 1].copy()
            view[:, 0], view[:, 1] = g[0, 0] * up + g[0, 1] * down, g[1, 0] * up + g[1, 1] * down

    sums, rx, ry = [axis_sum(a) for a in range(3)], _SINGLE["X"], _SINGLE["Yb"]
    for factor in ((2, 0.5), rx.conj().T, (1, 0.5), rx, ry.conj().T, (0, 1.0), ry, rx.conj().T, (1, 0.5), rx, (2, 0.5)):
        if isinstance(factor, tuple):  # exp(-i theta H_a) with H_a diagonal
            amp *= np.exp(1j * factor[1] * delta * sums[factor[0]])
        else:
            turn(factor)
    return amp


def _closest_unitary(mat: np.ndarray) -> np.ndarray:
    """Polar projection; removes the float drift of long unitary products."""
    u, _, vt = np.linalg.svd(mat)
    return u @ vt


def _slice_product(const, rf, t0: float, tau: float, n: int, chunk: int) -> np.ndarray:
    """Time-ordered product of n fourth-order Magnus slices over [t0, t0+tau].

    A slice is exp(-i*G), G = dt*(H1 + H2)/2 - i*(sqrt(3)/12)*dt**2*[H2, H1],
    with H1 and H2 sampled at t_mid -/+ (sqrt(3)/6)*dt.
    """
    dim = const.shape[0]
    dt = tau / n
    total = np.eye(dim, dtype=complex)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        mids = t0 + (np.arange(lo, hi) + 0.5) * dt
        h1, h2 = (np.broadcast_to(const, (hi - lo, dim, dim)).copy() for _ in range(2))
        for f, phi, b in rf:
            h1 += np.sin(f * (mids - _GL_NODE * dt) + phi)[:, None, None] * b
            h2 += np.sin(f * (mids + _GL_NODE * dt) + phi)[:, None, None] * b
        g = (dt / 2) * (h1 + h2) - (0.5j * _GL_NODE * dt * dt) * (h2 @ h1 - h1 @ h2)
        del h1, h2
        w, v = np.linalg.eigh(g)
        us = np.einsum("sij,sj,skj->sik", v, np.exp(-1j * w), v.conj())
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
) -> np.ndarray:
    """Time-ordered propagator over [t0, t0+tau] by brute-force slicing.

    Each slice is a fourth-order Magnus step: the Hermitian exponent built from
    the full Hamiltonian at two Gauss-Legendre nodes and their commutator is
    exponentiated exactly through its spectral decomposition. For a constant
    Hamiltonian a single slice is exact; otherwise the slice count is doubled
    from ``n_slices`` until two successive refinements agree to ``tol`` in max
    norm. The error falls 16x per doubling, so the result is about tol/15 off.
    Raises ConvergenceError with the achieved residual if the cap is hit first.
    """
    if model.L > 6:
        raise ValueError(f"dense propagator is limited to L <= 6, got L={model.L}")
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    const, rf = _hamiltonian_parts(model)
    dim = const.shape[0]
    # a chunk peaks at about five complex (chunk, dim, dim) stacks: 160 MiB
    chunk = max(1, (1 << 21) // (dim * dim))
    if tau == 0.0:
        return np.eye(dim, dtype=complex)
    if not rf:
        # constant H: exact at any slice count
        return _slice_product(const, rf, t0, tau, n_slices, chunk)
    # Refinement must start fine enough to resolve every sinusoid: when tau is
    # commensurate with an RF period, coarse node grids can alias the drive to
    # zero and fake a converged doubling.
    f_max = max(abs(f) for f, _, _ in rf)
    n = max(n_slices, math.ceil(16.0 * tau * f_max / TWO_PI), 1)
    u_n = _slice_product(const, rf, t0, tau, n, chunk)
    residual = math.inf
    while n <= max_slices // 2:
        u_2n = _slice_product(const, rf, t0, tau, 2 * n, chunk)
        residual = float(np.max(np.abs(u_2n - u_n)))
        if residual < tol:
            return _closest_unitary(u_2n)
        u_n = u_2n
        n *= 2
    raise ConvergenceError(
        f"slice refinement hit the cap of {max_slices} slices "
        f"(last doubling residual {residual:.3e}, tolerance {tol:.1e})"
    )

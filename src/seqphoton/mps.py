"""Matrix product states for the target photonic states and the ideal
(noise-free) sequential generation oracle.

An n-site MPS with bond dimension D and physical dimension d is stored as a
per-site family of D x D matrices V[k][i] (site k, physical index i) plus
boundary vectors phi_I, phi_F.  Amplitudes are
    <phi_F| V[n]^{i_n} ... V[1]^{i_1} |phi_I>.
All comparisons are phase-free: fidelity = |<a|b>|^2 / (<a|a><b|b>).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DENSE_STATE_LEVEL_GUARD = 24  # max n*log2(d) for dense state vectors


@dataclass(frozen=True)
class MatrixProductState:
    n: int
    d: int
    D: int
    tensors: tuple[np.ndarray, ...]  # per site, shape (d, D, D)
    phi_I: np.ndarray
    phi_F: np.ndarray

    def __post_init__(self):
        if len(self.tensors) != self.n:
            raise ValueError("tensor count must equal site count")
        for V in self.tensors:
            if V.shape != (self.d, self.D, self.D):
                raise ValueError("site tensor shape mismatch")
        if self.phi_I.shape != (self.D,) or self.phi_F.shape != (self.D,):
            raise ValueError("boundary vector shape mismatch")


@dataclass(frozen=True)
class IsometryTarget:
    """Target isometry for pulse synthesis: the (d*D, D) matrix V_hat and
    the indices of the source-space basis states inside a FockBasis (row
    order matching V_hat)."""

    V_hat: np.ndarray
    source_rows: tuple[int, ...]

    def __post_init__(self):
        V = np.asarray(self.V_hat, dtype=complex)
        rows, D = V.shape
        if rows % D != 0:
            raise ValueError("V_hat row count must be a multiple of D")
        dev = np.abs(V.conj().T @ V - np.eye(D)).max()
        if dev > 1e-10:
            raise ValueError(f"V_hat violates the isometry condition (dev {dev:.2e})")
        if len(set(self.source_rows)) != len(self.source_rows):
            raise ValueError("source_rows must be distinct")
        object.__setattr__(self, "V_hat", V)

    @property
    def D(self) -> int:
        return self.V_hat.shape[1]

    @property
    def d(self) -> int:
        return self.V_hat.shape[0] // self.V_hat.shape[1]


def isometry_check(mps: MatrixProductState) -> float:
    """Max over sites of || sum_i V^i+ V^i - I ||_max."""
    dev = 0.0
    eye = np.eye(mps.D)
    for V in mps.tensors:
        gram = sum(V[i].conj().T @ V[i] for i in range(mps.d))
        dev = max(dev, float(np.abs(gram - eye).max()))
    return dev


def amplitude(mps: MatrixProductState, outcome) -> complex:
    """Amplitude of the outcome digit sequence (i_1, ..., i_n), site order."""
    digits = [int(c) for c in outcome]
    if len(digits) != mps.n:
        raise ValueError("outcome length must equal site count")
    vec = mps.phi_I.astype(complex)
    for k, i in enumerate(digits):
        if not 0 <= i < mps.d:
            raise ValueError(f"digit {i} out of range for d={mps.d}")
        vec = mps.tensors[k][i] @ vec
    return complex(mps.phi_F.conj() @ vec)


def dense_state(mps: MatrixProductState) -> np.ndarray:
    """Dense state vector with site 1 as the slowest index; oracle use only."""
    if mps.n * np.log2(mps.d) > DENSE_STATE_LEVEL_GUARD:
        raise ValueError("state too large for dense construction")
    psi = np.zeros((mps.d,) * mps.n, dtype=complex)
    for idx in np.ndindex(*psi.shape):
        psi[idx] = amplitude(mps, idx)
    return psi.ravel()


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Phase-free fidelity |<a|b>|^2 between (possibly unnormalized) vectors."""
    na = np.vdot(a, a).real
    nb = np.vdot(b, b).real
    if na <= 0 or nb <= 0:
        raise ValueError("zero-norm state")
    return float(abs(np.vdot(a, b)) ** 2 / (na * nb))


# Paper tensor families -----------------------------------------------------

CLUSTER_INTERIOR = np.array(
    [[[1.0, 0.0], [1.0, 0.0]],
     [[0.0, 1.0], [0.0, -1.0]]],
) / np.sqrt(2.0)

CLUSTER_FINAL = np.array(
    [[[1.0, 0.0], [0.0, 0.0]],
     [[0.0, 1.0], [0.0, 0.0]]],
)


def build_cluster(n: int) -> MatrixProductState:
    """1D cluster state: interior tensors (|0><+| type, Hadamard structure)
    and a disentangling final-site tensor; phi_I = |+>, phi_F = |0>."""
    if n < 1:
        raise ValueError("n >= 1 required")
    tensors = [CLUSTER_INTERIOR.astype(complex)] * (n - 1)
    tensors.append(CLUSTER_FINAL.astype(complex))
    phi_I = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    phi_F = np.array([1.0, 0.0], dtype=complex)
    return MatrixProductState(n, 2, 2, tuple(tensors), phi_I, phi_F)


def ghz_interior_tensor(d: int) -> np.ndarray:
    """V^j = E(d, j+1): single unit entry at diagonal position j."""
    V = np.zeros((d, d, d), dtype=complex)
    for j in range(d):
        V[j, j, j] = 1.0
    return V


def ghz_final_tensor(d: int) -> np.ndarray:
    """V^j = |0><j|: records the branch and resets the ancilla."""
    V = np.zeros((d, d, d), dtype=complex)
    for j in range(d):
        V[j, 0, j] = 1.0
    return V


def build_ghz(n: int, d: int) -> MatrixProductState:
    if n < 1 or d < 2:
        raise ValueError("n >= 1 and d >= 2 required")
    tensors = [ghz_interior_tensor(d)] * (n - 1) + [ghz_final_tensor(d)]
    phi_I = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    phi_F = np.zeros(d, dtype=complex)
    phi_F[0] = 1.0
    return MatrixProductState(n, d, d, tuple(tensors), phi_I, phi_F)


# Ideal sequential protocol -------------------------------------------------

def _as_isometry(step, d: int, D: int) -> np.ndarray:
    """Accept a (d, D, D) tensor stack or a (d*D, D) matrix; return (d*D, D)
    with row order (physical index major, bond index minor)."""
    arr = np.asarray(step, dtype=complex)
    if arr.shape == (d, D, D):
        return arr.reshape(d * D, D)
    if arr.shape == (d * D, D):
        return arr
    raise ValueError(f"round map shape {arr.shape} not understood")


def ideal_sequential_simulate(isometries, phi_I, phi_F,
                              d: int | None = None,
                              norm_tol: float = 1e-8,
                              ) -> tuple[np.ndarray, float]:
    """Run the noise-free protocol: each round applies its isometry to the
    ancilla and moves the emitted quantum onto a fresh photon index
    (perfect emission, p_em = 1).

    Returns (photonic state vector with photon 1 slowest, closing norm).
    The closing norm must be 1 when the final round disentangles the source.
    """
    phi_I = np.asarray(phi_I, dtype=complex)
    phi_F = np.asarray(phi_F, dtype=complex)
    D = phi_I.shape[0]
    if d is None:
        step0 = np.asarray(isometries[0])
        d = step0.shape[0] if step0.ndim == 3 else step0.shape[0] // D
    n = len(isometries)
    if n * np.log2(d) > DENSE_STATE_LEVEL_GUARD:
        raise ValueError("photon register too large for the dense oracle")
    # state shape (D, M): ancilla index first, photons flattened row-major
    # with photon 1 slowest; each round appends the new photon as the
    # fastest index.
    state = phi_I.reshape(D, 1)
    for step in isometries:
        V = _as_isometry(step, d, D).reshape(d, D, D)
        gram = np.einsum("iba,ibc->ac", V.conj(), V)
        if np.abs(gram - np.eye(D)).max() > 1e-8:
            raise ValueError("round map violates the isometry condition")
        state = np.einsum("iba,am->bmi", V, state).reshape(D, -1)
    closed = (phi_F.conj() @ state).ravel()
    norm = float(np.linalg.norm(closed))
    if abs(norm - 1.0) > norm_tol:
        import warnings
        warnings.warn(f"final round does not disentangle: closing norm {norm}")
    return closed, norm


def superposed_simulate(branch_isometries, alphas, boundaries,
                        d: int | None = None) -> np.ndarray:
    """Superposed generation controlled by an m-level ancilla.

    branch_isometries: per-branch list of round maps; boundaries: per-branch
    (phi_I, phi_F).  Returns sum_i alpha_i |i>_m (x) |psi_i> with the m-ancilla
    index slowest.
    """
    m = len(branch_isometries)
    if len(alphas) != m or len(boundaries) != m:
        raise ValueError("branch count mismatch")
    branches = []
    for maps, (phi_I, phi_F) in zip(branch_isometries, boundaries):
        psi, norm = ideal_sequential_simulate(maps, phi_I, phi_F, d=d)
        branches.append(psi / norm)
    dim = branches[0].shape[0]
    joint = np.zeros((m, dim), dtype=complex)
    for i, (alpha, psi) in enumerate(zip(alphas, branches)):
        if psi.shape[0] != dim:
            raise ValueError("branch photon-register dimension mismatch")
        joint[i] = alpha * psi
    return joint.ravel()


# Text import/export --------------------------------------------------------

def save_mps(mps: MatrixProductState, path) -> None:
    """Structured text: header (n, d, D), then boundary vectors and row-major
    tensor entries as 're im' pairs with 17 significant digits."""
    lines = [f"n {mps.n}", f"d {mps.d}", f"D {mps.D}"]

    def fmt(z: complex) -> str:
        return f"{z.real:.17g} {z.imag:.17g}"

    lines.append("phi_I " + " ".join(fmt(z) for z in mps.phi_I))
    lines.append("phi_F " + " ".join(fmt(z) for z in mps.phi_F))
    for k, V in enumerate(mps.tensors):
        for i in range(mps.d):
            row = " ".join(fmt(z) for z in V[i].ravel())
            lines.append(f"tensor {k} {i} " + row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mps(path) -> MatrixProductState:
    with open(path) as fh:
        tokens = {}
        tensor_rows = {}
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "tensor":
                k, i = int(parts[1]), int(parts[2])
                vals = np.array([float(x) for x in parts[3:]])
                tensor_rows[(k, i)] = vals[0::2] + 1j * vals[1::2]
            else:
                tokens[parts[0]] = parts[1:]
    n, d, D = (int(tokens[k][0]) for k in ("n", "d", "D"))

    def vec(key):
        vals = np.array([float(x) for x in tokens[key]])
        return vals[0::2] + 1j * vals[1::2]

    tensors = []
    for k in range(n):
        V = np.zeros((d, D, D), dtype=complex)
        for i in range(d):
            V[i] = tensor_rows[(k, i)].reshape(D, D)
        tensors.append(V)
    return MatrixProductState(n, d, D, tuple(tensors), vec("phi_I"), vec("phi_F"))

"""Open-system propagation of the photon source.

Two models of the same physics:

* the effective collective model: coherent modes (r, q, l) plus mixed modes
  (M_r, M_q, M_l) carrying decohered excitations, with the Rydberg
  decay/dephasing jump operators acting between the sectors; and
* an exact few-atom master equation on the many-body space with up to two
  excitations (dim 2N^2 + 1), used to benchmark the effective model through
  a cyclic Raman transfer sequence.

Decay channels that leave the modeled level structure (r -> l when no l level
exists) are routed to a single absorbing state in both models, keeping the
loss accounting identical and both maps trace preserving.  Vectorization is
column-stacking throughout.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .collective import (ControlChannels, FockBasis, TruncationSpec,
                         affine_hamiltonian, control_pieces, drift_diagonal,
                         mode_operators)

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


@dataclass(frozen=True)
class RateSpec:
    """Decoherence rates and blockade shift, in units of Omega_max."""

    gamma_r: float      # Rydberg decay rate per channel
    gamma_phi: float    # Rydberg dephasing rate
    U: float | None = None
    omega_max: float = 1.0

    def __post_init__(self):
        if self.gamma_r < 0 or self.gamma_phi < 0:
            raise ValueError("rates must be nonnegative")

    @property
    def strong_driving(self) -> bool:
        gamma = 3.0 * self.gamma_r + self.gamma_phi
        return gamma < 0.1 * self.omega_max

    @property
    def good_blockade(self) -> bool:
        return self.U is None or abs(self.U) > 3.0 * self.omega_max


@dataclass
class LindbladModel:
    """Effective Lindblad model: basis, jump operators, and an optional
    absorbing state for out-of-model decay (appended as the last index)."""

    basis: FockBasis
    rates: RateSpec
    jumps: list[np.ndarray]
    loss_rate: float = 0.0          # rate per Rydberg quantum to the absorber
    n_r_diag: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.basis.dim + (1 if self.loss_rate > 0.0 else 0)

    @property
    def absorber_index(self) -> int | None:
        return self.basis.dim if self.loss_rate > 0.0 else None

    def hamiltonian(self, channels: ControlChannels, t: float) -> np.ndarray:
        return affine_hamiltonian(channels, t, self.pieces, self.n_r_diag)

    def __post_init__(self):
        occ = self.basis.occupations
        self.n_r_diag = (occ[:, 0] + occ[:, 3]).astype(float)
        self.pieces = control_pieces(self.basis)
        if self.loss_rate > 0.0:
            self.jumps = [_pad(C) for C in self.jumps]
            self.pieces = _pad(self.pieces)
            self.n_r_diag = np.append(self.n_r_diag, 0.0)

    @cached_property
    def liouvillian_pieces(self) -> tuple[sparse.csr_matrix, np.ndarray]:
        """Column-stacked Liouvillian pieces on one shared sparsity pattern.

        Returns the pattern as a CSR matrix and data (7, nnz): data[0] is the
        dissipator with the absorber, data[1 + k] the commutator
        -i[pieces[k], .], so that L(t) without the diagonal drift has data
        data[0] + drive(t) @ data[1:].  Built on first use.
        """
        dim = self.dim
        n = dim * dim
        eye = sparse.identity(dim, dtype=complex, format="csr")
        jumps = [sparse.csr_matrix(C) for C in self.jumps]
        loss = self.loss_rate * self.n_r_diag
        K = sparse.diags(loss.astype(complex), format="csr")
        dissipator = sparse.csr_matrix((n, n), dtype=complex)
        for C in jumps:
            K = K + C.conj().T @ C
            dissipator = dissipator + sparse.kron(C.conj(), C)
        dissipator = dissipator - 0.5 * (sparse.kron(eye, K)
                                         + sparse.kron(K.T, eye))
        if self.loss_rate > 0.0:
            diag = np.arange(dim) * (dim + 1)      # vec index of |i><i|
            a = self.absorber_index
            dissipator = dissipator + sparse.csr_matrix(
                (loss, (np.full(dim, diag[a]), diag)), shape=(n, n))
        terms = [dissipator] + [
            -1j * (sparse.kron(eye, P) - sparse.kron(P.T, eye))
            for P in map(sparse.csr_matrix, self.pieces)]
        terms = [T.tocoo() for T in terms]
        for T in terms:
            T.sum_duplicates()
        keys = [T.row.astype(np.int64) * n + T.col for T in terms]
        pattern = np.unique(np.concatenate(keys))
        data = np.zeros((len(terms), len(pattern)), dtype=complex)
        for k, (T, key) in enumerate(zip(terms, keys)):
            data[k, np.searchsorted(pattern, key)] = T.data
        rows, cols = np.divmod(pattern, n)
        matrix = sparse.csr_matrix(
            (data[0], cols, np.searchsorted(rows, np.arange(n + 1))),
            shape=(n, n))
        return matrix, data


def _pad(M: np.ndarray) -> np.ndarray:
    """Append a zero row and column (the absorber) to a matrix or a stack."""
    return np.pad(M.astype(complex), [(0, 0)] * (M.ndim - 2) + [(0, 1)] * 2)


def build_effective_model(trunc: TruncationSpec, rates: RateSpec,
                          include_l: bool = True,
                          lost_channels: int = 0) -> LindbladModel:
    """Assemble the effective model's jump list.

    Decay: sqrt(G_r) a_r and sqrt(G_r) a_Mr (to the ground sector), plus
    sqrt(G_r) a_r sigma_Ma^dag and sqrt(G_r) a_Mr sigma_Ma^dag for each
    modeled channel a in (q, l).  Dephasing: sqrt(G_phi) sigma_phi
    sigma_Mr^dag a_r (a coherent Rydberg quantum collapses into the mixed
    Rydberg mode, weighted by sigma_phi so that the transfer rate grows with
    the total Rydberg occupation) and the diagonal sqrt(G_phi) sigma_phi.
    `lost_channels` decay channels without a modeled destination are routed
    to the absorber.
    """
    basis = FockBasis(trunc)
    ops = mode_operators(basis)
    jumps: list[np.ndarray] = []
    gr = np.sqrt(rates.gamma_r)
    if rates.gamma_r > 0.0:
        jumps.append(gr * ops["a_r"])
        jumps.append(gr * ops["a_Mr"])
        channels = ["q", "l"] if include_l else ["q"]
        for alpha in channels:
            sig = ops["sigma_M" + alpha]
            jumps.append(gr * sig @ ops["a_r"])
            jumps.append(gr * sig @ ops["a_Mr"])
    if rates.gamma_phi > 0.0:
        gp = np.sqrt(rates.gamma_phi)
        jumps.append(gp * ops["sigma_phi"] @ ops["sigma_Mr"] @ ops["a_r"])
        jumps.append(gp * ops["sigma_phi"])
    loss = lost_channels * rates.gamma_r
    return LindbladModel(basis, rates, jumps, loss_rate=loss)


def propagate_rho(model: LindbladModel, channels: ControlChannels,
                  rho0: np.ndarray, T: float, t0: float = 0.0,
                  rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                  ) -> np.ndarray:
    """Propagate a density matrix for duration T under the given drives."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (model.dim, model.dim):
        raise ValueError("density matrix dimension mismatch")
    rho = propagate_stack(model, channels, rho0[None], T, t0, rtol, atol)[0]
    return 0.5 * (rho + rho.conj().T)


def liouvillian_matrix(model: LindbladModel, channels: ControlChannels,
                       t: float) -> np.ndarray:
    """Dense column-stacked Liouvillian at time t (constant-drive use)."""
    dim = model.dim
    if dim > 64:
        raise ValueError("Liouvillian matrix guarded to dim <= 64")
    eye = np.eye(dim)
    H = model.hamiltonian(channels, t)
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for C in model.jumps:
        Cd = C.conj().T
        CdC = Cd @ C
        L += np.kron(C.conj(), C)
        L -= 0.5 * (np.kron(eye, CdC) + np.kron(CdC.T, eye))
    if model.loss_rate > 0.0:
        loss = model.loss_rate * model.n_r_diag
        L -= 0.5 * (np.kron(eye, np.diag(loss)) + np.kron(np.diag(loss), eye))
        a = model.absorber_index
        row = np.zeros(dim * dim)
        row[np.arange(dim) * dim + np.arange(dim)] = loss
        L[a * dim + a, :] += row
    return L


@dataclass(frozen=True)
class Superoperator:
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return int(np.sqrt(self.matrix.shape[0]))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        d = self.dim
        return (self.matrix @ rho.reshape(d * d, order="F")).reshape(
            (d, d), order="F")

    def trace_preservation_defect(self) -> float:
        d = self.dim
        tr_row = np.zeros(d * d)
        tr_row[np.arange(d) * d + np.arange(d)] = 1.0
        return float(np.abs(tr_row @ self.matrix - tr_row).max())


def _drift(model: LindbladModel, channels: ControlChannels) -> np.ndarray:
    """Column-stacked diagonal -i(h_i - h_j) of the drift commutator."""
    h = drift_diagonal(channels, model.n_r_diag)
    return (-1j * (h[:, None] - h[None, :])).ravel(order="F")


def constant_liouvillian(model: LindbladModel, channels: ControlChannels,
                         ) -> sparse.csr_matrix:
    """Sparse column-stacked Liouvillian L of drives that do not depend on
    time: the model's Liouvillian pieces at drive(0) plus the diagonal
    drift.  Raises on a non-finite drive or an invalid blockade shift."""
    pattern, data = model.liouvillian_pieces
    L = pattern.copy()
    L.data = data[0] + channels.drive(0.0) @ data[1:]
    return (L + sparse.diags(_drift(model, channels))).tocsr()


def constant_propagator(model: LindbladModel, channels: ControlChannels,
                        T: float) -> Superoperator:
    """Propagator W = exp(T L) for drives that do not depend on time: one
    exponential of the Liouvillian, exact at any blockade shift.  Guarded
    to small effective bases."""
    dim = model.dim
    if dim > 40:
        raise ValueError("propagator guarded to dim <= 40")
    return Superoperator(expm(T * constant_liouvillian(model,
                                                       channels).toarray()))


def liouvillian_propagator(model: LindbladModel, channels: ControlChannels,
                           T: float, rtol: float = DEFAULT_RTOL,
                           atol: float = DEFAULT_ATOL) -> Superoperator:
    """Full propagator W: columns are propagated matrix units (column
    stacking).  Guarded to small effective bases."""
    dim = model.dim
    if dim > 40:
        raise ValueError("propagator guarded to dim <= 40")
    n = dim * dim
    units = np.eye(n, dtype=complex).reshape(n, dim, dim).transpose(0, 2, 1)
    out = propagate_stack(model, channels, units, T, rtol=rtol, atol=atol)
    return Superoperator(out.transpose(0, 2, 1).reshape(n, n).T)


def propagate_stack(model: LindbladModel, channels: ControlChannels,
                    rhos: np.ndarray, T: float, t0: float = 0.0,
                    rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                    ) -> np.ndarray:
    """Propagate a batch of matrices (k, dim, dim) through the master
    equation in a single solver call; the batch need not be physical
    density matrices (matrix units are the intended use)."""
    rhos = np.asarray(rhos, dtype=complex)
    dim = model.dim
    if rhos.ndim != 3 or rhos.shape[1:] != (dim, dim):
        raise ValueError("expected a (k, dim, dim) batch")
    if T == 0.0:
        return rhos.copy()
    k = rhos.shape[0]
    pattern, data = model.liouvillian_pieces
    L = pattern.copy()
    drift = _drift(model, channels)[:, None]

    def rhs(t, y):
        L.data = data[0] + channels.drive(t) @ data[1:]
        Y = y.reshape(dim * dim, k)
        return (L @ Y + drift * Y).ravel()

    # State: column j of the (dim^2, k) matrix is the column-stacked rhos[j].
    y0 = rhos.transpose(2, 1, 0).reshape(dim * dim, k)
    sol = solve_ivp(rhs, (t0, t0 + T), y0.ravel(), method="DOP853",
                    rtol=rtol, atol=atol)
    # The finished solver keeps its stage arrays (16 vectors of the state's
    # size) in a reference cycle.  The RHS allocates too few objects to
    # trigger the collector, so without this dead solvers pile up in memory.
    gc.collect(0)
    if not sol.success:
        raise RuntimeError(f"stack propagation failed: {sol.message}")
    out = sol.y[:, -1].reshape(dim, dim, k).transpose(2, 1, 0)
    return np.ascontiguousarray(out)


# Exact few-atom benchmark ---------------------------------------------------

EXACT_N_GUARD = 20


class ExactBasis:
    """Many-body (g, q, r) basis with at most two excitations plus an
    absorbing state: |g..g>, |q_i>, |r_i>, |r_i q_j> (i != j),
    |r_i r_j>, |q_i q_j> (i < j), |A>.  dim = 2N^2 + 2."""

    def __init__(self, N: int):
        if N < 1 or N > EXACT_N_GUARD:
            raise ValueError(f"N must be in [1, {EXACT_N_GUARD}]")
        self.N = N
        states: list[tuple] = [("g",)]
        states += [("q", i) for i in range(N)]
        states += [("r", i) for i in range(N)]
        states += [("rq", i, j) for i in range(N) for j in range(N) if i != j]
        states += [("rr", i, j) for i in range(N) for j in range(i + 1, N)]
        states += [("qq", i, j) for i in range(N) for j in range(i + 1, N)]
        states.append(("A",))
        self.states = states
        self._index = {s: k for k, s in enumerate(states)}

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, state: tuple) -> int:
        return self._index[state]

    def occupations(self, state: tuple) -> dict[int, str]:
        kind = state[0]
        if kind == "g" or kind == "A":
            return {}
        if kind in ("q", "r"):
            return {state[1]: kind}
        if kind == "rq":
            return {state[1]: "r", state[2]: "q"}
        if kind == "rr":
            return {state[1]: "r", state[2]: "r"}
        if kind == "qq":
            return {state[1]: "q", state[2]: "q"}
        raise ValueError(state)

    def from_occupations(self, occ: dict[int, str]) -> tuple | None:
        rs = sorted(i for i, a in occ.items() if a == "r")
        qs = sorted(i for i, a in occ.items() if a == "q")
        if len(rs) + len(qs) > 2:
            return None
        if not occ:
            return ("g",)
        if len(rs) == 1 and not qs:
            return ("r", rs[0])
        if len(qs) == 1 and not rs:
            return ("q", qs[0])
        if len(rs) == 1 and len(qs) == 1:
            return ("rq", rs[0], qs[0])
        if len(rs) == 2:
            return ("rr", rs[0], rs[1])
        if len(qs) == 2:
            return ("qq", qs[0], qs[1])
        return None

    def raise_atom(self, state: tuple, i: int, level: str) -> tuple | None:
        """sigma^i_{level, g}: excite atom i from g."""
        occ = self.occupations(state)
        if state[0] == "A" or i in occ:
            return None
        occ = dict(occ)
        occ[i] = level
        return self.from_occupations(occ)

    def move_atom(self, state: tuple, i: int, src: str, dst: str | None,
                  ) -> tuple | None:
        """sigma^i_{dst, src} (dst None: back to g)."""
        occ = self.occupations(state)
        if occ.get(i) != src:
            return None
        occ = dict(occ)
        if dst is None:
            del occ[i]
        else:
            occ[i] = dst
        return self.from_occupations(occ)

    def n_r(self, state: tuple) -> int:
        return sum(1 for a in self.occupations(state).values() if a == "r")


@dataclass
class ExactModel:
    basis: ExactBasis
    rates: RateSpec
    u: np.ndarray                # laser/profile weights, plane wave default
    H_rg: np.ndarray = field(init=False)
    H_rq: np.ndarray = field(init=False)
    H_block: np.ndarray = field(init=False)
    jumps: list = field(init=False)
    n_r_diag: np.ndarray = field(init=False)

    def __post_init__(self):
        from scipy.sparse import lil_matrix
        b = self.basis
        N, dim = b.N, b.dim
        # Per-atom drive weight of the profiled laser: Omega_rg is the
        # collective Rabi frequency, so atom i couples with u_i Omega_rg.
        self.H_rg = _collective_raising(b, self.u, "r")
        Hq = lil_matrix((dim, dim), dtype=complex)
        for k, s in enumerate(b.states):
            for i in range(N):
                mv = b.move_atom(s, i, "q", "r")
                if mv is not None:
                    Hq[b.index_of(mv), k] += 1.0
        self.H_rq = Hq.tocsr()
        self.n_r_diag = np.array([b.n_r(s) for s in b.states], dtype=float)
        block = np.zeros(dim)
        for k, s in enumerate(b.states):
            if s[0] == "rr":
                block[k] = 1.0
        self.H_block = block
        # jumps: per atom, r -> g and r -> q at gamma_r; dephasing sigma_rr
        jumps = []
        gr = np.sqrt(self.rates.gamma_r)
        gp = np.sqrt(self.rates.gamma_phi)
        for i in range(N):
            for dst, rate in (((None), gr), (("q"), gr)):
                if rate == 0.0:
                    continue
                C = lil_matrix((dim, dim), dtype=complex)
                for k, s in enumerate(b.states):
                    mv = b.move_atom(s, i, "r", dst)
                    if mv is not None:
                        C[b.index_of(mv), k] = rate
                jumps.append(C.tocsr())
            if gp > 0.0:
                C = lil_matrix((dim, dim), dtype=complex)
                for k, s in enumerate(b.states):
                    if "r" == b.occupations(s).get(i):
                        C[k, k] = gp
                jumps.append(C.tocsr())
        self.jumps = jumps

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def recycle(self) -> sparse.csr_matrix:
        """Recycle term sum_k C rho C^dag as one sparse map on the row-major
        vectorization, vec(C rho C^dag) = (C kron conj(C)) vec(rho); the
        jumps are few-element sparse, so it stays tiny.  Built on first use."""
        n = self.dim * self.dim
        return sum((sparse.kron(C, C.conj(), format="csr") for C in self.jumps),
                   sparse.csr_matrix((n, n), dtype=complex))


def build_exact_model(N: int, rates: RateSpec,
                      u: np.ndarray | None = None) -> ExactModel:
    if u is None:
        u = np.full(N, 1.0 / np.sqrt(N))
    u = np.asarray(u, dtype=complex)
    if u.shape != (N,):
        raise ValueError("profile length mismatch")
    return ExactModel(ExactBasis(N), rates, u)


def propagate_exact(model: ExactModel, omega_rg: complex, omega_rq: complex,
                    rho0: np.ndarray, T: float,
                    rtol: float = 1e-8, atol: float = 1e-10) -> np.ndarray:
    """Propagate the exact model under constant drives for duration T.

    Without decay or dephasing the map is rho -> V rho V^dag with
    V = exp(-iHT), exact at any blockade shift; otherwise the master
    equation is integrated with DOP853 at the given tolerances.
    """
    U = model.rates.U if model.rates.U is not None else 0.0
    A = 0.5 * (omega_rg * model.H_rg + omega_rq * model.H_rq)
    H = A + A.conj().T + sparse.diags(U * model.H_block)
    loss = model.rates.gamma_r * model.n_r_diag  # l-channel to the absorber
    rho0 = np.asarray(rho0, dtype=complex)
    if not model.jumps and not loss.any():
        V = expm(-1j * T * H.toarray())
        rho = V @ rho0 @ V.conj().T
        return 0.5 * (rho + rho.conj().T)
    half_width = 0.5 * (model.rates.gamma_r * 2.0 + model.rates.gamma_phi
                        ) * model.n_r_diag + 0.5 * loss
    # Non-Hermitian K = H - i half_width: -i K rho plus its adjoint gives the
    # commutator and the jump anticommutators of a Hermitian rho.
    K = (H - 1j * sparse.diags(half_width)).tocsr()
    a_idx = model.basis.index_of(("A",))
    dim = model.dim
    recycle = model.recycle

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        M = -1j * (K @ rho)
        out = M + M.conj().T
        out += (recycle @ y).reshape(dim, dim)
        out[a_idx, a_idx] += loss @ np.diag(rho)
        return out.ravel()

    sol = solve_ivp(rhs, (0.0, T), rho0.ravel(), method="DOP853",
                    rtol=rtol, atol=atol)
    gc.collect(0)      # drop the finished solver, as in propagate_stack
    if not sol.success:
        raise RuntimeError(f"exact-model integration failed: {sol.message}")
    rho = sol.y[:, -1].reshape(dim, dim)
    return 0.5 * (rho + rho.conj().T)


# Effective-state embedding and the cyclic Raman benchmark -------------------

def _collective_raising(basis: ExactBasis, u: np.ndarray, level: str):
    """Sparse collective creation sum_i u_i sigma^i_{level,g} on the exact
    many-body basis."""
    from scipy.sparse import lil_matrix
    op = lil_matrix((basis.dim, basis.dim), dtype=complex)
    for k, s in enumerate(basis.states):
        for i in range(basis.N):
            up = basis.raise_atom(s, i, level)
            if up is not None:
                op[basis.index_of(up), k] += u[i]
    return op.tocsr()


def _site_assignments(N: int, n_mixed: int) -> list[tuple[int, ...]]:
    """Ordered tuples of distinct sites hosting the mixed excitations."""
    if n_mixed == 0:
        return [()]
    if n_mixed == 1:
        return [(i,) for i in range(N)]
    if n_mixed == 2:
        return [(i, j) for i in range(N) for j in range(N) if i != j]
    raise ValueError("at most two mixed excitations supported")


_EMBED_SPECIES = {0: "r", 1: "q", 3: "r", 4: "q"}  # eff mode -> atomic level


def embed_effective(rho_eff: np.ndarray, model_eff: LindbladModel,
                    model_exact: ExactModel, tol: float = 1e-12) -> np.ndarray:
    """Reconstruct the many-body density matrix predicted by the effective
    model.

    Each effective basis state is a product of coherent collective creations
    (phase-patterned, weight u_i) on top of mixed excitations pinned to
    individual sites.  A mixed occupation pattern maps to a classical mixture
    over site assignments with weight prod |u_site|^2; coherences between
    states of equal mixed-excitation number share the site assignment
    (mixed species paired in sorted order), while coherences between
    different mixed numbers vanish.  Absorber population carries over
    one-to-one.
    """
    b_eff = model_eff.basis
    b_ex = model_exact.basis
    N = b_ex.N
    u = model_exact.u
    dim_eff = model_eff.dim
    rho_eff = np.asarray(rho_eff, dtype=complex)
    if rho_eff.shape != (dim_eff, dim_eff):
        raise ValueError("effective density matrix dimension mismatch")
    raising = {"r": _collective_raising(b_ex, u, "r"),
               "q": _collective_raising(b_ex, u, "q")}

    # Per effective state: mixed species (sorted) and coherent content.
    specs = []
    for k, s in enumerate(b_eff.states):
        if s[2] != 0 or s[5] != 0:   # l modes have no counterpart here
            if np.abs(rho_eff[k]).max() > tol or np.abs(rho_eff[:, k]).max() > tol:
                raise ValueError("cannot embed states carrying l excitations")
            specs.append(None)
            continue
        mixed = sorted("r" * s[3] + "q" * s[4])
        coherent = "r" * s[0] + "q" * s[1]
        specs.append((tuple(mixed), coherent))

    weights = {n: np.array([np.prod([np.abs(u[i]) ** 2 for i in sig]) if sig
                            else 1.0 for sig in _site_assignments(N, n)])
               for n in (0, 1, 2)}

    def state_columns(spec) -> np.ndarray:
        mixed, coherent = spec
        sigmas = _site_assignments(N, len(mixed))
        cols = np.zeros((b_ex.dim, len(sigmas)), dtype=complex)
        for c, sig in enumerate(sigmas):
            placed = b_ex.from_occupations(dict(zip(sig, mixed)))
            if placed is None:
                continue
            v = np.zeros(b_ex.dim, dtype=complex)
            v[b_ex.index_of(placed)] = 1.0
            for level in coherent:
                v = raising[level] @ v
            cols[:, c] = v
        return cols * np.sqrt(weights[len(mixed)])[None, :]

    columns = [state_columns(sp) if sp is not None else None for sp in specs]
    norms = [np.linalg.norm(V) ** 2 if V is not None else 0.0 for V in columns]

    rho_mb = np.zeros((b_ex.dim, b_ex.dim), dtype=complex)
    for m in range(len(b_eff.states)):
        if specs[m] is None or norms[m] <= tol:
            if specs[m] is not None and abs(rho_eff[m, m]) > tol:
                raise ValueError("unmappable effective state is populated")
            continue
        for n in range(len(b_eff.states)):
            if specs[n] is None or norms[n] <= tol:
                continue
            if len(specs[m][0]) != len(specs[n][0]):
                continue
            c = rho_eff[m, n]
            if abs(c) <= tol:
                continue
            rho_mb += (c / np.sqrt(norms[m] * norms[n])) * (
                columns[m] @ columns[n].conj().T)
    a_eff = model_eff.absorber_index
    if a_eff is not None:
        rho_mb[-1, -1] += np.real(rho_eff[a_eff, a_eff])
    return rho_mb


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray,
                     psd_tol: float = 1e-8) -> float:
    """F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 via eigendecompositions."""
    for M in (rho, sigma):
        if np.abs(M - M.conj().T).max() > 1e-8:
            raise ValueError("fidelity inputs must be Hermitian")
    w, V = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    if w.min() < -psd_tol:
        raise ValueError(f"state not PSD: min eigenvalue {w.min():.3e}")
    sqrt_rho = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    inner = sqrt_rho @ (0.5 * (sigma + sigma.conj().T)) @ sqrt_rho
    ev = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    if ev.min() < -psd_tol:
        raise ValueError(f"fidelity kernel not PSD: {ev.min():.3e}")
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)


def embed_and_compare(rho_eff: np.ndarray, model_eff: LindbladModel,
                      rho_exact: np.ndarray, model_exact: ExactModel) -> float:
    """Uhlmann fidelity between the embedded effective state and the exact
    many-body state."""
    rho_mb = embed_effective(rho_eff, model_eff, model_exact)
    return uhlmann_fidelity(rho_exact, rho_mb)


POPULATION_KEYS = ("p_g", "p_q", "p_r", "p_rr", "p_lost")


def effective_populations(model: LindbladModel, rho: np.ndarray) -> dict:
    """Classify population by total Rydberg number (coherent + mixed):
    p_g (no excitation), p_q (q excitations only), p_r (one Rydberg),
    p_rr (two Rydberg), p_lost (absorber)."""
    occ = model.basis.occupations
    n_r = occ[:, 0] + occ[:, 3]
    n_other = occ[:, 1] + occ[:, 2] + occ[:, 4] + occ[:, 5]
    diag = np.real(np.diag(rho))[:model.basis.dim]
    pops = {
        "p_g": float(diag[(n_r == 0) & (n_other == 0)].sum()),
        "p_q": float(diag[(n_r == 0) & (n_other > 0)].sum()),
        "p_r": float(diag[n_r == 1].sum()),
        "p_rr": float(diag[n_r == 2].sum()),
        "p_lost": 0.0,
    }
    if model.absorber_index is not None:
        pops["p_lost"] = float(np.real(rho[-1, -1]))
    return pops


def exact_populations(model: ExactModel, rho: np.ndarray) -> dict:
    diag = np.real(np.diag(rho))
    pops = dict.fromkeys(POPULATION_KEYS, 0.0)
    for k, s in enumerate(model.basis.states):
        if s[0] == "A":
            pops["p_lost"] += diag[k]
            continue
        n_r = model.basis.n_r(s)
        if n_r == 2:
            pops["p_rr"] += diag[k]
        elif n_r == 1:
            pops["p_r"] += diag[k]
        elif s[0] == "g":
            pops["p_g"] += diag[k]
        else:
            pops["p_q"] += diag[k]
    return pops


BENCHMARK_TRUNCATION = TruncationSpec(2, 2, 0, 2, 2, 0, total_max=2)


@dataclass
class RamanBenchmarkResult:
    """Population traces and per-transfer infidelity of the cyclic Raman
    transfer |0> -> |1_r> -> |1_q> -> |1_r> -> |0> -> ..."""

    times: np.ndarray
    populations_eff: dict[str, np.ndarray]
    populations_exact: dict[str, np.ndarray]
    transfer_times: np.ndarray
    infidelities: np.ndarray

    @property
    def final_infidelity(self) -> float:
        return float(self.infidelities[-1])

    def max_population_deviation(self) -> float:
        return max(np.abs(self.populations_eff[k] - self.populations_exact[k]
                          ).max() for k in POPULATION_KEYS)

    def rows(self, model: str) -> list[tuple]:
        """CSV rows (transfer index, p_g, p_q, p_r, p_rr, infidelity)."""
        pops = self.populations_eff if model == "eff" else self.populations_exact
        per = len(self.times) // len(self.transfer_times)
        out = []
        for k, _ in enumerate(self.transfer_times):
            i = (k + 1) * per - 1 + 1  # boundary sample of transfer k
            out.append((k + 1, pops["p_g"][i], pops["p_q"][i],
                        pops["p_r"][i], pops["p_rr"][i],
                        float(self.infidelities[k])))
        return out


def raman_benchmark(N: int, rates: RateSpec, n_transfers: int,
                    samples_per_pulse: int = 2,
                    rtol_exact: float = 1e-8, atol_exact: float = 1e-10,
                    ) -> RamanBenchmarkResult:
    """Run the cyclic Raman transfer on the effective and exact models.

    One transfer is a two-pulse move between |0> and |1_q>: a resonant pi
    pulse on the rg channel followed by one on the rq channel (order reversed
    on the way back).  Both channels run at the reference Rabi frequency, so
    t_rg = t_rq = pi / Omega_max.  Every pulse is constant, so the effective
    model steps by one `constant_propagator` per channel.
    """
    if n_transfers < 1:
        raise ValueError("need at least one transfer")
    omega = rates.omega_max
    model_eff = build_effective_model(BENCHMARK_TRUNCATION, rates,
                                      include_l=False, lost_channels=1)
    model_exact = build_exact_model(N, rates)

    rho_eff = np.zeros((model_eff.dim, model_eff.dim), dtype=complex)
    rho_eff[model_eff.basis.vacuum_index(),
            model_eff.basis.vacuum_index()] = 1.0
    rho_ex = np.zeros((model_exact.dim, model_exact.dim), dtype=complex)
    rho_ex[model_exact.basis.index_of(("g",)),
           model_exact.basis.index_of(("g",))] = 1.0

    times = [0.0]
    pops_eff = {k: [v] for k, v in
                effective_populations(model_eff, rho_eff).items()}
    pops_ex = {k: [v] for k, v in
               exact_populations(model_exact, rho_ex).items()}
    transfer_times, infidelities = [], []
    t = 0.0
    t_pulse = np.pi / omega
    dt = t_pulse / samples_per_pulse
    steps = {}
    for channel in ("rg", "rq"):
        ch_eff = ControlChannels(U=rates.U)
        setattr(ch_eff, "omega_" + channel, omega)
        steps[channel] = constant_propagator(model_eff, ch_eff, dt)
    for transfer in range(n_transfers):
        pulses = ("rg", "rq") if transfer % 2 == 0 else ("rq", "rg")
        for channel in pulses:
            w_g = omega if channel == "rg" else 0.0
            w_q = omega if channel == "rq" else 0.0
            for _ in range(samples_per_pulse):
                rho_eff = steps[channel].apply(rho_eff)
                rho_eff = 0.5 * (rho_eff + rho_eff.conj().T)
                rho_ex = propagate_exact(model_exact, w_g, w_q, rho_ex, dt,
                                         rtol=rtol_exact, atol=atol_exact)
                t += dt
                times.append(t)
                for k, v in effective_populations(model_eff, rho_eff).items():
                    pops_eff[k].append(v)
                for k, v in exact_populations(model_exact, rho_ex).items():
                    pops_ex[k].append(v)
        transfer_times.append(t)
        infidelities.append(
            1.0 - embed_and_compare(rho_eff, model_eff, rho_ex, model_exact))
    return RamanBenchmarkResult(
        np.array(times),
        {k: np.array(v) for k, v in pops_eff.items()},
        {k: np.array(v) for k, v in pops_ex.items()},
        np.array(transfer_times), np.array(infidelities))

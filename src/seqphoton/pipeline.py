"""Per-round process maps and the photon-number budget of the source.

A round of the protocol is an open-system evolution of the source under a
drive pulse (the round map W_L) followed by photon emission (the map W_P,
binomial in the emission-mode occupation).  Contracting n rounds against the
target matrix product state yields the photonic fidelity F_ph = e^{-xi n};
this module extracts the error-per-photon xi, decomposes it into
coefficients for each noise channel, and optimizes the drive strength and
array geometry to obtain the entanglement length N_ph = log 2 / xi_opt of
each photon retrieval scheme.

Internal layout conventions: source operators are restricted to the
post-emission subspace (only the storage modes q and M_q occupied); round
maps N^{ij} are stored as (d_max, d_max, S, S, S, S) arrays acting on S x S
source density matrices, photon ket index i first.
"""

from __future__ import annotations

import gc
import math
import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.stats import linregress

from . import goat
from .collective import (ControlChannels, FockBasis, TruncationSpec,
                         finite_drive, vdw_shift)
from .geometry import ArrayGeometry
from .lindblad import (LindbladModel, RateSpec, build_effective_model,
                       constant_liouvillian, propagate_stack)
from .mps import (CLUSTER_FINAL, CLUSTER_INTERIOR, MatrixProductState,
                  build_cluster, dense_state)
from .retrieval import DetectionMode, default_waists, retrieval_report

__all__ = [
    "EmissionSpec", "PhotonEmissionMap", "RoundMaps", "RoundKernel",
    "ProtocolConfig", "XiFit", "BetaAxis", "ErrorBudget", "OmegaOptimum",
    "RetrievalCache", "GeometryOptimum", "PowerLawFit", "ScalingStudy",
    "emission_map", "round_maps", "photonic_fidelity", "fidelity_curve",
    "dense_photonic_fidelity", "fit_xi", "fit_betas", "optimize_omega",
    "geometry_optimize", "scaling_exponents", "dim_scaling_estimate",
    "geometric_factor", "entanglement_lengths", "resource_parameter",
]

# Experimental reference point: |C6| = 862.69 GHz um^6, Gamma_r = 19.6 kHz,
# Gamma_phi = 21.3 kHz; with the weighted total decoherence rate this gives
# |C6| / (Gamma d0^6) = 7.9e7.
REFERENCE_RESOURCE = 7.9e7
DEFAULT_SPACING = 0.6          # lattice constant in wavelengths
DEFAULT_FINESSE = 50.0

DEFAULT_L_V = (4, 6, 8, 10, 12, 14)
DEFAULT_L_Z = (1, 2, 3, 4, 6, 8)

SCHEMES = ("uni", "two-directional", "cavity", "two-port")


def resource_parameter(c6: float, gamma: float, d0: float) -> float:
    """Dimensionless resource x = |C6| / (Gamma d0^6)."""
    if gamma <= 0 or d0 <= 0:
        raise ValueError("gamma and d0 must be positive")
    return abs(c6) / (gamma * d0 ** 6)


# Emission -------------------------------------------------------------------

@dataclass(frozen=True)
class EmissionSpec:
    """Photon emission parameters.

    p_em is the single-photon retrieval efficiency; for an N-atom source
    generating bond dimension D and physical dimension d, the worst-case
    multi-excitation efficiency is
        p' = (1 - (D+d-2)(D+d-3)/(2N))^{1/(d-1)} * p_em.
    N = None disables the multi-excitation bound (p' = p_em).  d_max is the
    photon-number cutoff of the emission register (emission-mode cap + 1).
    """

    p_em: float
    D: int = 2
    d: int = 2
    d_max: int = 3
    N: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.p_em <= 1.0:
            raise ValueError("p_em must lie in [0, 1]")
        if self.D < 1 or self.d < 2:
            raise ValueError("D >= 1 and d >= 2 required")
        if self.d_max < self.d:
            raise ValueError("d_max must be at least d")
        if self.N is not None and self._excess() >= 1.0:
            raise ValueError("atom count too small for the requested (D, d)")

    def _excess(self) -> float:
        return ((self.D + self.d - 2) * (self.D + self.d - 3)
                / (2.0 * self.N))

    @property
    def p_prime(self) -> float:
        """Lower bound on the multi-excitation retrieval efficiency."""
        if self.N is None:
            return self.p_em
        return (1.0 - self._excess()) ** (1.0 / (self.d - 1)) * self.p_em


def source_subspace(basis: FockBasis) -> tuple[int, ...]:
    """Basis indices of the post-emission states (only q and M_q occupied)."""
    idx = [i for i, s in enumerate(basis.states)
           if s[0] == s[2] == s[3] == s[5] == 0]
    return tuple(idx)


@dataclass(frozen=True)
class PhotonEmissionMap:
    """The emission map W_P in factored (Kraus) form.

    factors[i][e] is the (S, N) ket-side amplitude matrix emitting i photons
    into environment label e; the map on density matrices is
        rho -> sum_e F_i[e] rho F_j[e]^T   (amplitudes are real),
    with the output restricted to the post-emission subspace listed in
    source_states.
    """

    spec: EmissionSpec
    source_states: tuple[int, ...]
    source_occ: tuple[tuple[int, int], ...]   # (m_q, m_Mq) per subspace state
    factors: np.ndarray                       # (d_max, n_env, S, N)

    @property
    def d_max(self) -> int:
        return self.spec.d_max


def emission_map(spec: EmissionSpec, basis: FockBasis) -> PhotonEmissionMap:
    """Build W_P on the given effective basis.

    n_l quanta emit j photons with probability C(n_l, j) p'^j (1-p')^{n_l-j};
    the Rydberg and mixed-emission occupations (r, M_r, M_l) and the
    unemitted remainder are traced into environments, q and M_q are kept.
    """
    src = source_subspace(basis)
    src_pos = {basis.states[i]: k for k, i in enumerate(src)}
    occ = tuple((basis.states[i][1], basis.states[i][4]) for i in src)
    p = spec.p_prime
    envs: dict[tuple[int, int, int, int], int] = {}
    entries = []  # (i, env, c, a, amplitude)
    for a, state in enumerate(basis.states):
        s_r, m_q, n_l, s_mr, m_mq, n_ml = state
        out = src_pos.get((0, m_q, 0, 0, m_mq, 0))
        if out is None:
            raise ValueError("basis lacks the post-emission state for "
                             f"{state}")
        for i in range(min(n_l, spec.d_max - 1) + 1):
            env = (s_r, s_mr, n_ml, n_l - i)
            e = envs.setdefault(env, len(envs))
            amp = math.sqrt(comb(n_l, i) * p ** i * (1.0 - p) ** (n_l - i))
            if amp != 0.0:
                entries.append((i, e, out, a, amp))
    factors = np.zeros((spec.d_max, len(envs), len(src), basis.dim))
    for i, e, c, a, amp in entries:
        factors[i, e, c, a] = amp
    return PhotonEmissionMap(spec, src, occ, factors)


# Round maps -----------------------------------------------------------------

@dataclass(frozen=True)
class RoundKernel:
    """The drive-stage channel W_L of one round, tabulated on matrix units
    of the post-emission subspace: propagated[a, b] = W_L(|a><b|)."""

    basis: FockBasis
    source_states: tuple[int, ...]
    propagated: np.ndarray    # (S, S, N, N)


@dataclass(frozen=True)
class RoundMaps:
    """Per photon-index pair (i, j), the composed map N^{ij} = W_P^{ij} W_L
    restricted to the post-emission subspace."""

    source_occ: tuple[tuple[int, int], ...]
    blocks: np.ndarray        # (d_max, d_max, S, S, S, S)

    @property
    def d_max(self) -> int:
        return self.blocks.shape[0]

    @property
    def dim(self) -> int:
        return self.blocks.shape[2]

    def apply(self, i: int, j: int, rho: np.ndarray) -> np.ndarray:
        return np.einsum("csab,ab->cs", self.blocks[i, j], rho)

    def trace_defect(self) -> float:
        """Deviation of sum_i N^{ii} from trace preservation."""
        diag = np.einsum("iiccab->ab", self.blocks)
        return float(np.abs(diag - np.eye(self.dim)).max())

    def ancilla_position(self, alpha: int) -> int:
        return self.source_occ.index((alpha, 0))


def round_maps(kernel: RoundKernel, emission: PhotonEmissionMap) -> RoundMaps:
    """Compose the drive channel with the emission map."""
    if emission.source_states != kernel.source_states:
        raise ValueError("emission map and kernel use different subspaces")
    F = emission.factors
    # N^{ij}[c,s,a,b] = sum_e (F_i[e] W_L(|a><b|) F_j[e]^T)[c,s], one factor
    # at a time: as one three-operand einsum it runs as a single 9-index loop.
    half = np.einsum("iecn,abnm->abiecm", F, kernel.propagated,
                     optimize=True)
    blocks = np.einsum("abiecm,jesm->ijcsab", half, F, optimize=True)
    return RoundMaps(emission.source_occ, np.ascontiguousarray(blocks))


# Drive-stage kernels --------------------------------------------------------

def _source_units(basis: FockBasis) -> tuple[tuple[int, ...], np.ndarray]:
    src = source_subspace(basis)
    S, N = len(src), basis.dim
    units = np.zeros((S * S, N, N), dtype=complex)
    for a, ia in enumerate(src):
        for b, ib in enumerate(src):
            units[a * S + b, ia, ib] = 1.0
    return src, units


def _closed(model: LindbladModel) -> bool:
    """True when the model has neither jumps nor loss (unitary evolution)."""
    return not model.jumps and model.loss_rate == 0.0


def _propagate_unitary(model: LindbladModel, channels: ControlChannels,
                       T: float, rtol: float = 1e-10,
                       atol: float = 1e-12) -> np.ndarray:
    """The source columns U(T)[:, src] (N, S) of the propagator: only the
    columns the round kernel reads are integrated."""
    dim = model.dim
    src = list(source_subspace(model.basis))
    k = len(src)

    def rhs(t, y):
        return (-1j * model.hamiltonian(channels, t)
                @ y.reshape(dim, k)).ravel()

    y0 = np.eye(dim, dtype=complex)[:, src]
    sol = solve_ivp(rhs, (0.0, T), y0.ravel(), method="DOP853",
                    rtol=rtol, atol=atol)
    gc.collect(0)      # drop the finished solver, as in propagate_stack
    if not sol.success:
        raise RuntimeError(f"unitary propagation failed: {sol.message}")
    return sol.y[:, -1].reshape(dim, k)


def _kernel_from_unitary(basis: FockBasis, cols: np.ndarray) -> RoundKernel:
    """Kernel of rho -> U rho U^dag from the source columns U[:, src]."""
    src = source_subspace(basis)
    prop = np.einsum("na,mb->abnm", cols, cols.conj())
    return RoundKernel(basis, src, np.ascontiguousarray(prop))


@dataclass
class PulseChannels(ControlChannels):
    """A synthesized pulse as channel drives, held at its t = T value beyond
    the pulse window."""

    pulse: goat.PulseParams = field(kw_only=True)

    def drive(self, t: float) -> np.ndarray:
        p = self.pulse
        return finite_drive(goat.component_values(p, min(t, p.T)), t)


def pulse_kernel(model: LindbladModel, pulse: goat.PulseParams,
                 rtol: float = 1e-8, atol: float = 1e-10) -> RoundKernel:
    """Round kernel for a synthesized drive pulse under the model's noise
    and blockade shift."""
    basis = model.basis
    channels = PulseChannels(U=model.rates.U, pulse=pulse)
    if _closed(model):
        cols = _propagate_unitary(model, channels, pulse.T,
                                  rtol=rtol, atol=atol)
        return _kernel_from_unitary(basis, cols)
    src, units = _source_units(basis)
    out = propagate_stack(model, channels, units, pulse.T,
                          rtol=rtol, atol=atol)
    S = len(src)
    return RoundKernel(basis, src, out.reshape(S, S, basis.dim, basis.dim))


CLOSING_SEGMENTS = (("rq", 1.0), ("rl", -1.0))   # pi-area pulses, net +1


def closing_kernel(model: LindbladModel) -> RoundKernel:
    """Final-round kernel: an analytic q -> l transfer (the two constant
    pi-area pulses of CLOSING_SEGMENTS) that realizes the disentangling
    tensor V^i = |0><i| on a single quantum, under the model's noise and
    blockade shift.

    Each pulse is one exponential, exact at any blockade shift: without
    jumps or loss exp(-i pi H) acts on the source columns of the identity;
    otherwise exp(pi L) of the sparse Liouvillian acts on the S^2 source
    matrix units (expm_multiply, no dense exponential of L).
    """
    basis = model.basis
    segments = [ControlChannels(**{"omega_" + name: amp}, U=model.rates.U)
                for name, amp in CLOSING_SEGMENTS]
    if _closed(model):
        src = list(source_subspace(basis))
        cols = np.eye(model.dim, dtype=complex)[:, src]
        for channels in segments:
            V = expm(-1j * math.pi * model.hamiltonian(channels, 0.0))
            cols = V @ cols
        return _kernel_from_unitary(basis, cols)
    src, units = _source_units(basis)
    N, S = basis.dim, len(src)
    # Column j of the (N^2, S^2) state is the column-stacked units[j].
    vecs = units.transpose(2, 1, 0).reshape(N * N, S * S)
    # expm_multiply's norm estimate (onenormest) draws from numpy's global
    # RNG; put its state back so a kernel leaves the caller's draws alone.
    rng_state = np.random.get_state()
    try:
        for channels in segments:
            vecs = expm_multiply(
                math.pi * constant_liouvillian(model, channels), vecs)
    finally:
        np.random.set_state(rng_state)
    out = vecs.reshape(N, N, S * S).transpose(2, 1, 0)
    return RoundKernel(basis, src,
                       np.ascontiguousarray(out).reshape(S, S, N, N))


def embedding_unitary(basis: FockBasis, V_hat: np.ndarray,
                      rows: tuple[int, ...]) -> np.ndarray:
    """A unitary on the basis acting as the isometry V_hat from the ancilla
    columns (rows[:D]) onto the listed rows; the orthogonal complement is
    completed arbitrarily."""
    V = np.asarray(V_hat, dtype=complex)
    D = V.shape[1]
    N = basis.dim
    W = np.zeros((N, D), dtype=complex)
    W[list(rows), :] = V
    proj = np.eye(N) - W @ W.conj().T
    vals, vecs = np.linalg.eigh(proj)
    comp = vecs[:, vals > 0.5]                    # orthonormal complement
    U = np.zeros((N, N), dtype=complex)
    cols = list(rows[:D])
    U[:, cols] = W
    rest = [i for i in range(N) if i not in cols]
    U[:, rest] = comp[:, :len(rest)]
    if np.abs(U.conj().T @ U - np.eye(N)).max() > 1e-10:
        raise ValueError("unitary completion failed")
    return U


def exact_kernel(basis: FockBasis, tensor: np.ndarray, D: int) -> RoundKernel:
    """Noise-free kernel realizing the (d, D, D) round tensor exactly."""
    arr = np.asarray(tensor, dtype=complex)
    d = arr.shape[0]
    rows = goat.source_space_rows(basis, d, D)
    U = embedding_unitary(basis, arr.reshape(d * D, D), rows)
    return _kernel_from_unitary(basis, U[:, list(source_subspace(basis))])


# Protocol configuration -----------------------------------------------------

@dataclass(frozen=True)
class ProtocolConfig:
    """One noise setting of the sequential generation protocol for the
    cluster family (D = d = 2).

    Rates and the blockade shift U are in units of the peak Rabi frequency;
    U = None is the ideal-blockade limit.  pulse = None replaces the drive
    stage by the exact isometry embedding (noise-free oracle)."""

    pulse: goat.PulseParams | None = None
    gamma_r: float = 0.0
    gamma_phi: float = 0.0
    U: float | None = None
    p_em: float = 1.0
    N_atoms: int | None = None
    slack: int = 1
    rtol: float = 1e-8
    atol: float = 1e-10

    @property
    def noisy(self) -> bool:
        return self.gamma_r > 0.0 or self.gamma_phi > 0.0

    @property
    def d_max(self) -> int:
        return 2 + self.slack

    def truncation(self) -> TruncationSpec:
        n_r = 1 if self.U is None else 2
        mixed = 1 if self.noisy else 0
        cap = 1 + self.slack
        return TruncationSpec(
            n_r, cap, cap, mixed, mixed, mixed,
            mixed_total_max=1 if mixed else None,
            rydberg_total_max=1 if self.U is None else 2)

    def emission_spec(self) -> EmissionSpec:
        return EmissionSpec(self.p_em, d_max=self.d_max, N=self.N_atoms)


def protocol_round_maps(config: ProtocolConfig,
                        ) -> tuple[RoundMaps, RoundMaps, FockBasis]:
    """Interior and closing round maps for the configured protocol."""
    basis = FockBasis(config.truncation())
    interior_k, closing_k = protocol_kernels(config, basis)
    emis = emission_map(config.emission_spec(), basis)
    return round_maps(interior_k, emis), round_maps(closing_k, emis), basis


def protocol_kernels(config: ProtocolConfig, basis: FockBasis,
                     ) -> tuple[RoundKernel, RoundKernel]:
    """Interior and closing drive-stage kernels; with a pulse, both act on
    one effective model built for the configured noise."""
    if config.pulse is None:
        if config.noisy:
            raise ValueError("noisy protocol requires a drive pulse")
        return (exact_kernel(basis, CLUSTER_INTERIOR, 2),
                exact_kernel(basis, CLUSTER_FINAL, 2))
    model = build_effective_model(
        basis.trunc, RateSpec(config.gamma_r, config.gamma_phi, U=config.U))
    return (pulse_kernel(model, config.pulse, config.rtol, config.atol),
            closing_kernel(model))


# Fidelity contraction -------------------------------------------------------

def _initial_tensor(maps0: RoundMaps, mps: MatrixProductState) -> np.ndarray:
    S = maps0.dim
    D = mps.D
    phi = np.zeros(S, dtype=complex)
    for alpha in range(D):
        phi[maps0.ancilla_position(alpha)] = mps.phi_I[alpha]
    B = np.outer(mps.phi_I, mps.phi_F.conj())
    X = np.einsum("a,b,zx,wy->abzxwy", phi, phi.conj(), B, B.conj())
    return X


def _contract_round(X: np.ndarray, maps: RoundMaps, V: np.ndarray,
                    d: int) -> np.ndarray:
    blocks = maps.blocks[:d, :d]
    return np.einsum("ijcsab,abzxwy,jpz,iqw->cspxqy",
                     blocks, X, V, V.conj(), optimize=True)


def _closed_fidelity(X: np.ndarray, imag_tol: float = 1e-7) -> float:
    """F from a fully contracted transfer object, audited: an imaginary
    residue above imag_tol or F outside [0, 1] (beyond 1e-9) raises."""
    val = complex(np.einsum("aappqq->", X))
    if abs(val.imag) > imag_tol:
        raise RuntimeError(f"fidelity has imaginary residue {val.imag:.2e}")
    F = val.real
    if not -1e-9 <= F <= 1.0 + 1e-9:
        raise RuntimeError(f"fidelity {F} outside [0, 1]")
    return max(F, 0.0)


def photonic_fidelity(rounds, mps: MatrixProductState,
                      imag_tol: float = 1e-7) -> float:
    """Fidelity of the generated n-photon state with the target MPS.

    rounds: one RoundMaps per site.  Contracts the joint (source transfer)
    x (bond transfer) object sequentially, summing photon index pairs below
    the physical dimension d; indices d..d_max-1 contribute only to
    normalization and never to the target overlap.
    """
    rounds = list(rounds)
    if len(rounds) != mps.n:
        raise ValueError("need one round map per MPS site")
    X = _initial_tensor(rounds[0], mps)
    for maps, V in zip(rounds, mps.tensors):
        if maps.d_max < mps.d:
            raise ValueError("round photon cutoff below the MPS dimension")
        X = _contract_round(X, maps, V, mps.d)
    return _closed_fidelity(X, imag_tol)


def fidelity_curve(config: ProtocolConfig,
                   n_max: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """F_ph for n = 1..n_max photons: n-1 interior rounds plus the closing
    round, contracted against the n-photon cluster state."""
    interior, closing, _ = protocol_round_maps(config)
    ns = np.arange(1, n_max + 1)
    Fs = np.empty(n_max)
    ref = build_cluster(2)
    interior_V, final_V = ref.tensors[0], ref.tensors[-1]
    X = _initial_tensor(interior, ref)
    for n in ns:
        # X holds n-1 contracted interior rounds; close with the final-site
        # tensor, then absorb one more interior round for the next n.
        Fs[n - 1] = _closed_fidelity(
            _contract_round(X, closing, final_V, ref.d))
        X = _contract_round(X, interior, interior_V, ref.d)
    return ns, Fs


def dense_photonic_fidelity(kernels, spec: EmissionSpec,
                            mps: MatrixProductState) -> float:
    """Brute-force oracle: evolve the full source (x) photon-register density
    matrix round by round and project on the dense target state."""
    kernels = list(kernels)
    if len(kernels) != mps.n:
        raise ValueError("need one kernel per MPS site")
    basis = kernels[0].basis
    emis = emission_map(spec, basis)
    S = len(emis.source_states)
    if S * spec.d_max ** mps.n > 4000:
        raise ValueError("photon register too large for the dense oracle")
    pos = {occ: k for k, occ in enumerate(emis.source_occ)}
    phi = np.zeros(S, dtype=complex)
    for alpha in range(mps.D):
        phi[pos[(alpha, 0)]] = mps.phi_I[alpha]
    rho = np.einsum("a,b->ab", phi, phi.conj())[:, None, :, None]
    F = emis.factors
    for kernel in kernels:
        full = np.einsum("apbq,abnm->npmq", rho, kernel.propagated,
                         optimize=True)
        rho6 = np.einsum("iecn,npmq,jesm->cipsjq", F, full, F,
                         optimize=True)
        P = rho.shape[1] * spec.d_max
        rho = rho6.transpose(0, 2, 1, 3, 5, 4).reshape(S, P, S, P)
    rho_ph = np.einsum("apaq->pq", rho)
    psi = dense_state(mps).reshape((mps.d,) * mps.n)
    psi = psi / np.linalg.norm(psi)
    pad = np.zeros((spec.d_max,) * mps.n, dtype=complex)
    pad[tuple(slice(0, mps.d) for _ in range(mps.n))] = psi
    v = pad.ravel()
    return float(np.real(v.conj() @ rho_ph @ v))


# xi extraction --------------------------------------------------------------

@dataclass(frozen=True)
class XiFit:
    xi: float
    intercept: float
    r_squared: float


def fit_xi(ns, fidelities, r2_threshold: float = 0.999) -> XiFit:
    """Least-squares error per photon from F_ph = e^{-xi n - c}."""
    ns = np.asarray(ns, dtype=float)
    F = np.asarray(fidelities, dtype=float)
    if np.any(F <= 0.0):
        raise ValueError("fidelities must be positive for the log fit")
    y = -np.log(F)
    if np.ptp(y) == 0.0:
        return XiFit(0.0, float(y[0]), 1.0)
    res = linregress(ns, y)
    r2 = float(res.rvalue ** 2)
    if r2 < r2_threshold:
        warnings.warn(f"-ln F_ph vs n deviates from linearity (R^2 = {r2})")
    return XiFit(float(res.slope), float(res.intercept), r2)


@dataclass(frozen=True)
class BetaAxis:
    name: str
    values: np.ndarray
    xis: np.ndarray
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class ErrorBudget:
    """Linear decomposition xi = beta_0 + (beta_r G_r + beta_phi G_phi)/Omega
    + beta_U Omega^2/U^2 - beta_em log p_em."""

    beta_0: float
    beta_r: float
    beta_phi: float
    beta_U: float
    beta_em: float
    axes: tuple[BetaAxis, ...] = ()

    def gamma_total(self, gamma_r: float, gamma_phi: float) -> float:
        return self.beta_r * gamma_r + self.beta_phi * gamma_phi

    def xi(self, gamma_r: float, gamma_phi: float, omega: float,
           U: float, p_em: float) -> float:
        return (self.beta_0
                + self.gamma_total(gamma_r, gamma_phi) / omega
                + self.beta_U * omega ** 2 / U ** 2
                - self.beta_em * math.log(p_em))


DEFAULT_BETA_GRIDS = {
    "gamma_r": np.geomspace(2e-4, 2e-3, 5),
    "gamma_phi": np.geomspace(5e-4, 5e-3, 5),
    "blockade": np.geomspace(2e-4, 4e-3, 5),    # Omega^2 / U^2
    "log_p": np.geomspace(5e-3, 5e-2, 5),       # -log p_em
}


def fit_betas(pulse: goat.PulseParams, grids: dict | None = None,
              n_max: int = 10, rtol: float = 1e-8, atol: float = 1e-10,
              ) -> ErrorBudget:
    """Extract the noise coefficients by univariate scans, others ideal."""
    grids = {**DEFAULT_BETA_GRIDS, **(grids or {})}

    def xi_at(**kw) -> float:
        cfg = ProtocolConfig(pulse=pulse, rtol=rtol, atol=atol, **kw)
        ns, Fs = fidelity_curve(cfg, n_max=n_max)
        return fit_xi(ns, Fs).xi

    beta_0 = xi_at()
    axes = []

    def scan(name, values, runner):
        xis = np.array([runner(v) for v in values])
        res = linregress(values, xis)
        axes.append(BetaAxis(name, np.asarray(values, float), xis,
                             float(res.slope), float(res.intercept),
                             float(res.rvalue ** 2)))
        return float(res.slope)

    beta_r = scan("gamma_r", grids["gamma_r"],
                  lambda v: xi_at(gamma_r=v))
    beta_phi = scan("gamma_phi", grids["gamma_phi"],
                    lambda v: xi_at(gamma_phi=v))
    beta_U = scan("blockade", grids["blockade"],
                  lambda v: xi_at(U=1.0 / math.sqrt(v)))
    beta_em = scan("log_p", grids["log_p"],
                   lambda v: xi_at(p_em=math.exp(-v)))
    return ErrorBudget(beta_0, beta_r, beta_phi, beta_U, beta_em,
                       tuple(axes))


# Drive-strength optimization ------------------------------------------------

@dataclass(frozen=True)
class OmegaOptimum:
    omega_opt: float
    xi_opt: float
    n_ph: float


def optimize_omega(budget: ErrorBudget, gamma_r: float, gamma_phi: float,
                   U: float, p_prime: float = 1.0) -> OmegaOptimum:
    """Closed-form optimum Omega = [Gamma U^2 / (2 beta_U)]^{1/3} of the
    fitted xi(Omega) and the resulting error per photon."""
    gamma = budget.gamma_total(gamma_r, gamma_phi)
    if gamma <= 0 or budget.beta_U <= 0 or U == 0:
        raise ValueError("positive decoherence, beta_U, and U required")
    if not 0.0 < p_prime <= 1.0:
        raise ValueError("p_prime must lie in (0, 1]")
    omega = (gamma * U ** 2 / (2.0 * budget.beta_U)) ** (1.0 / 3.0)
    xi = (budget.beta_0
          + 3.0 * budget.beta_U ** (1.0 / 3.0)
          * (gamma / (2.0 * abs(U))) ** (2.0 / 3.0)
          - budget.beta_em * math.log(p_prime))
    return OmegaOptimum(omega, xi, math.log(2.0) / xi)


# Geometry optimization ------------------------------------------------------

@lru_cache(maxsize=None)
def geometric_factor(L_v: int, L_z: int) -> float:
    """Blockade geometric factor f of an L_v x L_v x L_z lattice (see
    collective.vdw_shift); the effective blockade shift is
    U = f |C6| / d0^6."""
    return vdw_shift(ArrayGeometry(L_v, L_v, L_z, 1.0), 1.0, 1.0)[1]


@dataclass
class RetrievalCache:
    """Retrieval-error table keyed by (scheme, L_v, L_z); missing entries
    are computed on demand and (optionally) persisted atomically to CSV."""

    path: str | None = None
    profile: str = "optimal"          # spin-wave profile: optimal | gaussian
    spacing: float = DEFAULT_SPACING
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.profile not in ("optimal", "gaussian"):
            raise ValueError("profile must be 'optimal' or 'gaussian'")
        if self.path is not None and os.path.exists(self.path):
            with open(self.path) as fh:
                header = fh.readline()
                for line in fh:
                    scheme, lv, lz, err = line.strip().split(",")
                    self.entries[(scheme, int(lv), int(lz))] = float(err)

    def error(self, scheme: str, L_v: int, L_z: int) -> float:
        kind = {"uni": "uni", "cavity": "uni",
                "two-directional": "two-directional",
                "two-port": "two-port"}[scheme]
        key = (kind, L_v, L_z)
        if key not in self.entries:
            self.entries[key] = self._compute(kind, L_v, L_z)
            self._save()
        return self.entries[key]

    def _compute(self, kind: str, L_v: int, L_z: int) -> float:
        geo = ArrayGeometry(L_v, L_v, L_z, self.spacing)
        if kind == "two-port":
            if L_z != 1:
                raise ValueError("the two-port scheme requires L_z = 1")
            # tilted pairs at the beam divergence angle 1/(pi w0)
            modes = [DetectionMode("tilted-pair", float(w0),
                                   1.0 / (math.pi * w0))
                     for w0 in default_waists(geo)]
        else:
            modes = [DetectionMode(kind, w0) for w0 in default_waists(geo)]
        rep = retrieval_report(geo, modes)
        return float(rep.eps_opt if self.profile == "optimal"
                     else rep.eps_gauss)

    def _save(self) -> None:
        if self.path is None:
            return
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write("scheme,L_v,L_z,error\n")
            for (scheme, lv, lz), err in sorted(self.entries.items()):
                fh.write(f"{scheme},{lv},{lz},{err:.17g}\n")
        os.replace(tmp, self.path)


@dataclass(frozen=True)
class GeometryOptimum:
    scheme: str
    x: float
    L_v: int
    L_z: int
    xi_opt: float
    n_ph: float
    p_em: float
    f_geom: float
    at_boundary: bool


def geometry_optimize(scheme: str, x: float, budget: ErrorBudget,
                      cache: RetrievalCache, finesse: float | None = None,
                      L_v_grid=DEFAULT_L_V, L_z_grid=DEFAULT_L_Z,
                      D: int = 2, d: int = 2) -> GeometryOptimum:
    """Exhaustive (L_v, L_z) scan minimizing
    xi = beta_0 + (27 beta_U / 4 f^2)^{1/3} x^{-2/3} - beta_em log p'."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "cavity":
        if finesse is None or finesse <= 1.0:
            raise ValueError("the cavity scheme requires finesse > 1")
    if scheme == "two-port":
        L_z_grid = (1,)
    best = None
    for L_z in L_z_grid:
        for L_v in L_v_grid:
            eps = cache.error(scheme, L_v, L_z)
            if scheme == "cavity":
                eps = eps / finesse
            p_em = 1.0 - eps
            if p_em <= 0.0:
                continue
            N = L_v * L_v * L_z
            spec = EmissionSpec(p_em, D, d, d, N)
            if spec.p_prime <= 0.0:
                continue
            f = geometric_factor(L_v, L_z)
            xi = (budget.beta_0
                  + (27.0 * budget.beta_U / (4.0 * f * f)) ** (1.0 / 3.0)
                  * x ** (-2.0 / 3.0)
                  - budget.beta_em * math.log(spec.p_prime))
            if best is None or xi < best[0]:
                best = (xi, L_v, L_z, p_em, f)
    if best is None:
        raise RuntimeError("no feasible geometry on the grid")
    xi, L_v, L_z, p_em, f = best
    boundary = L_v in (min(L_v_grid), max(L_v_grid))
    if scheme != "two-port":
        boundary = boundary or L_z in (min(L_z_grid), max(L_z_grid))
    if boundary:
        warnings.warn(f"{scheme}: optimum at the grid boundary "
                      f"(L_v={L_v}, L_z={L_z}); it may lie outside")
    return GeometryOptimum(scheme, x, L_v, L_z, xi, math.log(2.0) / xi,
                           p_em, f, boundary)


def entanglement_lengths(budget: ErrorBudget, x: float,
                         cache: RetrievalCache,
                         finesse: float = DEFAULT_FINESSE,
                         L_v_grid=DEFAULT_L_V, L_z_grid=DEFAULT_L_Z,
                         ) -> dict[str, GeometryOptimum]:
    """Optimal geometry and N_ph of every retrieval scheme at resource x."""
    out = {}
    for scheme in SCHEMES:
        fin = finesse if scheme == "cavity" else None
        out[scheme] = geometry_optimize(scheme, x, budget, cache, fin,
                                        L_v_grid, L_z_grid)
    return out


# Resource scaling -----------------------------------------------------------

@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    stderr: float
    r_squared: float
    prefactor: float


def _power_law(xs: np.ndarray, ys: np.ndarray) -> PowerLawFit:
    if np.ptp(ys) == 0.0:
        return PowerLawFit(0.0, 0.0, 1.0, float(ys[0]))
    res = linregress(np.log(xs), np.log(ys))
    return PowerLawFit(float(res.slope), float(res.stderr),
                       float(res.rvalue ** 2), float(np.exp(res.intercept)))


@dataclass(frozen=True)
class ScalingStudy:
    scheme: str
    xs: np.ndarray
    optima: tuple[GeometryOptimum, ...]
    n_ph: PowerLawFit
    l_v: PowerLawFit
    l_z: PowerLawFit
    xi_strictly_decreasing: bool


def scaling_exponents(scheme: str, xs, budget: ErrorBudget,
                      cache: RetrievalCache, finesse: float | None = None,
                      L_v_grid=DEFAULT_L_V, L_z_grid=DEFAULT_L_Z,
                      ) -> ScalingStudy:
    """Power-law exponents of N_ph and the optimal geometry over a resource
    grid spanning at least three decades with at least six points."""
    xs = np.sort(np.asarray(xs, dtype=float))
    if len(xs) < 6:
        raise ValueError("need at least 6 resource grid points")
    if xs[-1] / xs[0] < 1e3:
        raise ValueError("resource grid must span at least 3 decades")
    optima = tuple(geometry_optimize(scheme, x, budget, cache, finesse,
                                     L_v_grid, L_z_grid) for x in xs)
    n_ph = _power_law(xs, np.array([o.n_ph for o in optima]))
    l_v = _power_law(xs, np.array([o.L_v for o in optima], dtype=float))
    l_z = _power_law(xs, np.array([o.L_z for o in optima], dtype=float))
    if n_ph.r_squared < 0.95:
        warnings.warn(f"{scheme}: poor N_ph power-law fit "
                      f"(R^2 = {n_ph.r_squared})")
    xi_vals = np.array([o.xi_opt for o in optima])
    return ScalingStudy(scheme, xs, optima, n_ph, l_v, l_z,
                        bool(np.all(np.diff(xi_vals) < 0.0)))


# Bond/physical-dimension scaling -------------------------------------------

def dim_scaling_estimate(D: int, d: int, budget: ErrorBudget, f_geom: float,
                         x: float, N: int, t_cost: float | None = None,
                         ) -> float:
    """Worst-case error per photon for bond dimension D and physical
    dimension d: the coherent term grows with the unitary time cost
    T_{D,d} ~ (Dd)^2 (normalized to 1 at D = d = 2) and the retrieval bound
    adds beta_em (D+d-2)(D+d-3) / (2(d-1)N)."""
    if D < 2 or d < 2:
        raise ValueError("D >= 2 and d >= 2 required")
    if D + d - 2 > 0.05 * N:
        warnings.warn("D + d - 2 not small against N; the worst-case "
                      "estimate is unreliable")
    T = t_cost if t_cost is not None else (D * d / 4.0) ** 2
    coherent = (T * (27.0 * budget.beta_U / (4.0 * f_geom ** 2))
                ** (1.0 / 3.0) * x ** (-2.0 / 3.0))
    retrieval = (budget.beta_em * (D + d - 2) * (D + d - 3)
                 / (2.0 * (d - 1) * N))
    return coherent + retrieval

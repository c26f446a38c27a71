"""Truncated collective-mode Hilbert spaces for the photon source.

The source is described by three collective bosonic modes: a Rydberg mode r
(capped at two quanta by the blockade projector), a storage mode q carrying
the bond-space ancilla, and an emission mode l.  Decoherence populates
"mixed" counterparts M_r, M_q, M_l that carry no spatial phase coherence;
their creation operators raise occupation with unit matrix element.

Basis states are occupation tuples (s_r, m_q, n_l, s_Mr, m_Mq, n_Ml) in
lexicographic order with mode order (r, q, l, M_r, M_q, M_l).  The combined
Rydberg occupation s_r + s_Mr never exceeds 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import ArrayGeometry

MODE_NAMES = ("r", "q", "l", "Mr", "Mq", "Ml")


@dataclass(frozen=True)
class TruncationSpec:
    """Per-mode occupation caps; mixed caps of 0 disable the mixed sector."""

    n_r_max: int
    n_q_max: int
    n_l_max: int
    m_r_max: int = 0
    m_q_max: int = 0
    m_l_max: int = 0
    total_max: int | None = None  # optional cap on the total excitation number
    mixed_total_max: int | None = None  # optional cap on the mixed-sector total
    rydberg_total_max: int = 2    # cap on s_r + s_Mr (1 = ideal blockade)

    def __post_init__(self):
        caps = (self.n_r_max, self.n_q_max, self.n_l_max,
                self.m_r_max, self.m_q_max, self.m_l_max)
        if any(c < 0 for c in caps):
            raise ValueError("occupation caps must be nonnegative")
        if self.n_r_max > 2 or self.m_r_max > 2:
            raise ValueError("Rydberg caps above 2 violate the blockade projector")
        if not 1 <= self.rydberg_total_max <= 2:
            raise ValueError("rydberg_total_max must be 1 or 2")

    @property
    def caps(self) -> tuple[int, ...]:
        return (self.n_r_max, self.n_q_max, self.n_l_max,
                self.m_r_max, self.m_q_max, self.m_l_max)


class FockBasis:
    """Deterministic enumeration of allowed occupation tuples."""

    def __init__(self, trunc: TruncationSpec):
        self.trunc = trunc
        states = []
        c = trunc.caps
        for s_r in range(c[0] + 1):
            for m_q in range(c[1] + 1):
                for n_l in range(c[2] + 1):
                    for s_mr in range(c[3] + 1):
                        if s_r + s_mr > trunc.rydberg_total_max:
                            continue
                        for m_mq in range(c[4] + 1):
                            for n_ml in range(c[5] + 1):
                                tup = (s_r, m_q, n_l, s_mr, m_mq, n_ml)
                                if (trunc.total_max is not None
                                        and sum(tup) > trunc.total_max):
                                    continue
                                if (trunc.mixed_total_max is not None
                                        and s_mr + m_mq + n_ml
                                        > trunc.mixed_total_max):
                                    continue
                                states.append(tup)
        self.states: tuple[tuple[int, ...], ...] = tuple(states)
        self._index = {s: i for i, s in enumerate(self.states)}
        self.occupations = np.array(self.states, dtype=np.int64)

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, state: tuple[int, ...]) -> int:
        return self._index[tuple(state)]

    def __contains__(self, state) -> bool:
        return tuple(state) in self._index

    def vacuum_index(self) -> int:
        return self.index_of((0, 0, 0, 0, 0, 0))

    def state_vector(self, state: tuple[int, ...]) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index_of(state)] = 1.0
        return v


def _ladder(basis: FockBasis, mode: int, bosonic: bool) -> np.ndarray:
    """Annihilator for `mode`; sqrt(n) elements if bosonic, else returns the
    adjoint structure used to build the unit-element raising operator."""
    dim = basis.dim
    op = np.zeros((dim, dim), dtype=complex)
    for i, s in enumerate(basis.states):
        n = s[mode]
        if n == 0:
            continue
        lowered = list(s)
        lowered[mode] = n - 1
        j = basis._index.get(tuple(lowered))
        if j is None:
            continue
        op[j, i] = np.sqrt(n) if bosonic else 1.0
    return op


def mode_operators(basis: FockBasis) -> dict[str, np.ndarray]:
    """Annihilators a_*, unit-element raising operators sigma_M*, and the
    dephasing operator sigma_phi = diag(0, 1, sqrt(2)) on the M_r occupation."""
    ops: dict[str, np.ndarray] = {}
    for mode, name in enumerate(MODE_NAMES):
        ops["a_" + name] = _ladder(basis, mode, bosonic=True)
    for mode, name in ((3, "Mr"), (4, "Mq"), (5, "Ml")):
        ops["sigma_" + name] = _ladder(basis, mode, bosonic=False).conj().T
    weights = np.array([0.0, 1.0, np.sqrt(2.0)])
    ops["sigma_phi"] = np.diag(weights[basis.occupations[:, 3]]).astype(complex)
    return ops


def number_operator(basis: FockBasis, modes: tuple[int, ...]) -> np.ndarray:
    return np.diag(basis.occupations[:, list(modes)].sum(axis=1)).astype(complex)


CHANNELS = ("rg", "rq", "rl")


def finite_drive(values: np.ndarray, t: float) -> np.ndarray:
    """Return the six drive coefficients unchanged; ValueError naming the
    channel if any of them is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        channel = CHANNELS[int(np.argmin(finite)) // 2]
        raise ValueError(f"non-finite amplitude on channel {channel} at t={t}")
    return values


@dataclass
class ControlChannels:
    """Complex Rabi amplitudes per laser channel, constants or callables of t.

    Units: amplitudes and rates in the reference Omega_max, time in
    1/Omega_max.  Detunings are additive on the Rydberg number operator
    (drive-frame convention): H += -delta * n_r for the detuned channel.
    U = None encodes the ideal-blockade limit (requires n_r_max + m_r_max <= 1).
    """

    omega_rg: complex | Callable[[float], complex] = 0.0
    omega_rq: complex | Callable[[float], complex] = 0.0
    omega_rl: complex | Callable[[float], complex] = 0.0
    delta_rg: float = 0.0
    delta_rq: float = 0.0
    delta_rl: float = 0.0
    U: float | None = 0.0

    def drive(self, t: float) -> np.ndarray:
        """The six real drive coefficients at t, (Re, Im) of each channel's
        amplitude in CHANNELS order: the weights of control_pieces."""
        values = np.empty(2 * len(CHANNELS))
        for k, channel in enumerate(CHANNELS):
            val = getattr(self, "omega_" + channel)
            amp = complex(val(t) if callable(val) else val)
            values[2 * k] = amp.real
            values[2 * k + 1] = amp.imag
        return finite_drive(values, t)


def coupling_operators(basis: FockBasis) -> dict[str, np.ndarray]:
    """Lowering-type coupling operators per channel (the h.c. is added by the
    Hamiltonian builder).

    rg: a_r (drives vacuum <-> Rydberg on the coherent sector only; mixed
    Rydberg excitations are frozen under L_g).
    rq/rl: a_alpha a_r^dag + a_Malpha a_Mr^dag (transfers alpha -> r in both
    the coherent and mixed sectors).
    """
    ops = mode_operators(basis)
    couplings = {"rg": ops["a_r"]}
    for alpha in ("q", "l"):
        coherent = ops["a_r"].conj().T @ ops["a_" + alpha]
        mixed = ops["a_Mr"].conj().T @ ops["a_M" + alpha]
        couplings["r" + alpha] = (coherent + mixed).conj().T
    return couplings


def control_pieces(basis: FockBasis) -> np.ndarray:
    """Hermitian drive pieces (6, dim, dim): X_c = (C_c^dag + C_c)/2 and
    Y_c = i(C_c^dag - C_c)/2 per channel in CHANNELS order, so that the
    drive term of H is sum_k drive[k] * pieces[k] and dH/d(drive[k]) is
    pieces[k]."""
    couplings = coupling_operators(basis)
    pieces = []
    for channel in CHANNELS:
        C = couplings[channel]
        Cd = C.conj().T
        pieces.append(0.5 * (Cd + C))
        pieces.append(0.5j * (Cd - C))
    return np.array(pieces)


def drift_diagonal(channels: ControlChannels, n_r: np.ndarray) -> np.ndarray:
    """Diagonal of the drift -sum_c delta_c n_r + (U/2) n_r (n_r - 1), given
    the total Rydberg occupation n_r of each basis state."""
    if channels.U is None:
        if n_r.max(initial=0) > 1:
            raise ValueError("ideal blockade (U=None) requires no double-Rydberg states")
        U = 0.0
    elif not np.isfinite(channels.U):
        raise ValueError("non-finite blockade shift U")
    else:
        U = channels.U
    delta = channels.delta_rg + channels.delta_rq + channels.delta_rl
    return -delta * n_r + 0.5 * U * n_r * (n_r - 1)


def affine_hamiltonian(channels: ControlChannels, t: float,
                       pieces: np.ndarray, n_r: np.ndarray) -> np.ndarray:
    """H(t) = sum_k drive[k](t) pieces[k] + diag(drift), given the control
    pieces and the total Rydberg occupation n_r of each basis state."""
    dim = len(n_r)
    H = (channels.drive(t) @ pieces.reshape(len(pieces), -1)).reshape(dim, dim)
    H[np.diag_indices(dim)] += drift_diagonal(channels, n_r)
    return H


def build_hamiltonian(channels: ControlChannels, t: float,
                      basis: FockBasis) -> np.ndarray:
    """Rotating-frame control Hamiltonian H(t) on the truncated basis.

    H = sum_c Omega_c(t)/2 * C_c^dag + h.c.  - delta_c * n_r
        + (U/2) n_r (n_r - 1),   n_r = coherent + mixed Rydberg occupation.
    """
    n_r = basis.occupations[:, 0] + basis.occupations[:, 3]
    return affine_hamiltonian(channels, t, control_pieces(basis), n_r)


def vdw_shift(geometry: ArrayGeometry, C6: float, d0: float) -> tuple[float, float]:
    """Effective uniform blockade shift U = f * C6 / d0^6.

    f = sqrt(N(N-1) / sum_{i != j} |i - j|^12) over ordered pairs of occupied
    integer lattice vectors, i.e. the power mean that reproduces the pairwise
    van der Waals energy spread as a single shift.
    """
    vecs = geometry.lattice_vectors()
    n = len(vecs)
    if n < 2:
        raise ValueError("vdw_shift needs at least 2 occupied sites")
    diff = vecs[:, None, :] - vecs[None, :, :]
    dist2 = (diff ** 2).sum(axis=2)
    sum12 = dist2 ** 6  # |i - j|^12 over ordered pairs; diagonal is zero
    total = sum12.sum()
    f = float(np.sqrt(n * (n - 1) / total))
    return f * C6 / d0 ** 6, f

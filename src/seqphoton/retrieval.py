"""Photon retrieval efficiency of 3D atomic arrays.

The emitted photon is rescattered by dipole-dipole interactions before it
leaves the array.  Starting from a single collective excitation with profile
u, the probability to emit into a chosen detection mode is

    p_em = (S_lambda / 4 F_det) * sum_jl u_j K_jl u_l*,

where S_lambda = (3/2pi) lambda_eg^2 is the resonant cross-section, F_det
normalizes the detection mode, and the Hermitian matrix K is assembled from
the dipole-dipole coupling matrix M and the detection field: it solves the
Sylvester equation M^dag K - K M = -i E E^dag, from one complex Schur form
of M per array (Bartels-Stewart).

Units: lengths in lambda_eg (k0 = 2*pi), rates in Gamma_em.  The detection
modes are vector Gaussian beams built from angular-spectrum integrals over
b in [0, 1]; two-directional and tilted-pair modes are symmetric
superpositions of two such beams.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import schur
from scipy.linalg.lapack import ztrsyl
from scipy.special import j0, j1

from .geometry import K0, ArrayGeometry

S_LAMBDA = 3.0 / (2.0 * np.pi)  # resonant optical cross-section, lambda_eg = 1

MODE_KINDS = ("uni", "two-directional", "tilted-pair")


# ---------------------------------------------------------------------------
# Dipole-dipole coupling
# ---------------------------------------------------------------------------

def green_tensor(r_j: np.ndarray, r_l: np.ndarray, k0: float = K0) -> np.ndarray:
    """Free-space dyadic Green's tensor G0(r_j, r_l) at wavenumber k0."""
    R_vec = np.asarray(r_j, dtype=float) - np.asarray(r_l, dtype=float)
    R = np.linalg.norm(R_vec)
    if R == 0.0:
        raise ValueError("green_tensor requires distinct points")
    kR = k0 * R
    outer = np.outer(R_vec, R_vec) / R**2
    pref = np.exp(1j * kR) / (4.0 * np.pi * k0**2 * R**3)
    return pref * (
        (kR**2 + 1j * kR - 1.0) * np.eye(3)
        + (-(kR**2) - 3j * kR + 3.0) * outer
    )


def _pairwise_green_xx(positions: np.ndarray, d: np.ndarray, k0: float) -> np.ndarray:
    """d*.G0.d for all pairs of positions (vectorized, diagonal left zero)."""
    diff = positions[:, None, :] - positions[None, :, :]
    R = np.linalg.norm(diff, axis=-1)
    np.fill_diagonal(R, 1.0)  # placeholder; diagonal zeroed below
    kR = k0 * R
    proj = (diff @ d) / R  # (R_hat . d) per pair
    pref = np.exp(1j * kR) / (4.0 * np.pi * k0**2 * R**3)
    # d*.[a I + b Rhat Rhat].d with unit real d
    a = kR**2 + 1j * kR - 1.0
    b = -(kR**2) - 3j * kR + 3.0
    G = pref * (a + b * proj**2)
    np.fill_diagonal(G, 0.0)
    return G


def _array_sites(geometry, positions: np.ndarray | None = None):
    """(positions, unit dipole polarization) of an ArrayGeometry (its own
    positions, drawn without jitter, unless `positions` is given) or of an
    explicit (N, 3) position array of x-polarized dipoles."""
    if isinstance(geometry, ArrayGeometry):
        pol = geometry.polarization
        if positions is None:
            positions = geometry.positions()
    else:
        positions, pol = geometry, (1.0, 0.0, 0.0)
    pol = np.asarray(pol, dtype=float)
    return np.asarray(positions, dtype=float), pol / np.linalg.norm(pol)


def coupling_matrix(geometry, positions: np.ndarray | None = None,
                    k0: float = K0) -> np.ndarray:
    """Complex symmetric coupling matrix M_jl = 3 pi k0^-1 d*.G0.d, M_jj = i/2.

    The self-term i/2 fixes an isolated atom's decay rate to Gamma_em; the
    single-atom Lamb shift is dropped.  `geometry` may be an ArrayGeometry
    (positions drawn without jitter) or an explicit (N, 3) position array.
    """
    positions, pol = _array_sites(geometry, positions)
    M = 3.0 * np.pi / k0 * _pairwise_green_xx(positions, pol, k0)
    M[np.diag_indices_from(M)] = 0.5j
    return M


# ---------------------------------------------------------------------------
# Vector Gaussian detection modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionMode:
    """Detection mode for the retrieved photon.

    kind: "uni" (single beam along +z), "two-directional" (symmetric
    superposition of the +z and -z beams), or "tilted-pair" (beam tilted by
    `theta` about the y-axis plus its mirror image about the z=0 plane).
    w0 is the beam waist in units of lambda_eg.
    """

    kind: str
    w0: float
    theta: float = 0.0
    E0: float = 1.0

    def __post_init__(self):
        if self.kind not in MODE_KINDS:
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if self.w0 <= 0.0:
            raise ValueError("waist w0 must be positive")
        if self.kind != "tilted-pair" and self.theta != 0.0:
            raise ValueError("tilt angle only applies to tilted-pair modes")
        if abs(self.theta) >= np.pi / 3:
            raise ValueError("tilt angle guard: |theta| < pi/3")


@lru_cache(maxsize=None)
def _gauss_nodes(n: int):
    """n-point Gauss-Legendre rule on (0, pi/2), built once per n and
    returned read-only (the quadratures use n = 64 ... 4096)."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (np.pi / 2)
    u, w = half * x + half, half * w
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def _beam_integrals(rho: np.ndarray, z: np.ndarray, w0: float,
                    tol: float = 1e-8):
    """Angular-spectrum integrals of the vector Gaussian beam.

    Returns (X, Z) with E^x = E0*X and E^z = -i E0 (x/rho) Z:
        X = int_0^1 db b e^{-b^2 k0^2 w0^2/4} e^{i k0 z sqrt(1-b^2)} J0(b k0 rho)
        Z = int_0^1 db b^2/sqrt(1-b^2) e^{...} J1(b k0 rho)
    computed after the substitution b = sin(u), which removes the b -> 1
    endpoint singularity, with a node-doubling Gauss-Legendre rule.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float)).ravel()
    z = np.broadcast_to(np.asarray(z, dtype=float), rho.shape).ravel()
    X = np.zeros(rho.size, dtype=complex)
    Z = np.zeros(rho.size, dtype=complex)
    chunk = 4096
    for lo in range(0, rho.size, chunk):
        sl = slice(lo, min(lo + chunk, rho.size))
        X[sl], Z[sl] = _beam_integrals_chunk(rho[sl], z[sl], w0, tol)
    return X, Z


def _beam_integrals_chunk(rho, z, w0, tol):
    def eval_rule(n):
        u, w = _gauss_nodes(n)
        b, c = np.sin(u), np.cos(u)
        g = np.exp(-((b * K0 * w0 / 2.0) ** 2))
        phase = np.exp(1j * K0 * np.outer(z, c))
        arg = K0 * np.outer(rho, b)
        X = (phase * j0(arg)) @ (w * c * b * g)
        Z = (phase * j1(arg)) @ (w * b * b * g)
        return X, Z

    n = 64
    X_prev, Z_prev = eval_rule(n)
    while n < 4096:
        n *= 2
        X, Z = eval_rule(n)
        scale = max(np.abs(X).max(), np.abs(Z).max(), 1e-30)
        err = max(np.abs(X - X_prev).max(), np.abs(Z - Z_prev).max())
        X_prev, Z_prev = X, Z
        if err <= tol * scale:
            return X, Z
    raise RuntimeError("beam quadrature did not converge")


def _base_field(points: np.ndarray, w0: float, tol: float = 1e-8) -> np.ndarray:
    """Vector Gaussian beam along +z, focus at the origin; (N, 3) complex."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    rho = np.hypot(x, y)
    X, Z = _beam_integrals(rho, z, w0, tol)
    cos_phi = np.divide(x, rho, out=np.zeros_like(x), where=rho > 0)
    field = np.zeros((points.shape[0], 3), dtype=complex)
    field[:, 0] = X
    field[:, 2] = -1j * cos_phi * Z
    return field


def _rotation_y(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


_MIRROR_Z = np.diag([1.0, 1.0, -1.0])


def detection_field(mode: DetectionMode, points: np.ndarray,
                    tol: float = 1e-8) -> np.ndarray:
    """Detection-mode field at the given points (shape (..., 3))."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if mode.kind == "uni":
        field = _base_field(pts, mode.w0, tol)
    else:
        # beam tilted by theta about y, plus its mirror image about z = 0:
        # E(r) = R E_base(R^T r) + sigma_z [R E_base(R^T sigma_z r)]
        R = _rotation_y(mode.theta)
        field = _base_field(pts @ R, mode.w0, tol) @ R.T
        field = field + (_base_field((pts @ _MIRROR_Z) @ R, mode.w0, tol)
                         @ R.T) @ _MIRROR_Z
    out = mode.E0 * field
    return out[0] if single else out


def mode_norm(mode: DetectionMode, tol: float = 1e-6) -> float:
    """F_det: photon-flux normalization of the detection mode, per beam.

    In the angular-spectrum representation the full transversal vector beam
    (A_z = -k_x A_x / k_z enforced by Maxwell) carries the photon flux

        F = (2 pi E0^2 / k0^2) int_0^1 db b g(b)^2 (1 - b^2/2)/sqrt(1-b^2),

    with g(b) = exp(-b^2 k0^2 w0^2 / 4).  This equals the transverse-plane
    norm of the beam to O(b^4) but weights each plane wave by its axial
    flux, which keeps every retrieval efficiency below one.  For the
    two-beam modes the detectors sit on both sides, so F_det is the sum of
    the two single-beam norms.
    """

    def rule(n):
        u, w = _gauss_nodes(n)
        b, c = np.sin(u), np.cos(u)
        g2 = np.exp(-(b * K0 * mode.w0) ** 2 / 2.0)
        # db b (1 - b^2/2)/sqrt(1-b^2) -> du sin(u) (1 - sin(u)^2/2)
        return float(2.0 * np.pi / K0**2
                     * (w @ (b * (1.0 - 0.5 * b * b) * g2)))

    F = _doubling_limit(rule, 64, 4096, tol)
    if mode.kind != "uni":
        F *= 2.0
    F *= mode.E0**2
    if not F > 0.0:
        raise ValueError("detection-mode normalization is not positive")
    return F


def _doubling_limit(rule, n0: int, n_max: int, tol: float) -> float:
    prev = rule(n0)
    n = n0
    while n < n_max:
        n *= 2
        cur = rule(n)
        if abs(cur - prev) <= tol * max(abs(cur), 1e-30):
            return cur
        prev = cur
    raise RuntimeError("mode_norm quadrature did not converge")


# ---------------------------------------------------------------------------
# Retrieval efficiency
# ---------------------------------------------------------------------------

def _schur_form(M: np.ndarray):
    """Complex Schur form M = Z T Z^dag of a coupling matrix, as (T, Z).

    diag T holds the eigenvalues lam_xi of M, so the collective decay rates
    in the denominators of K are checked here, once per matrix.
    """
    T, Z = schur(M, output="complex")
    if np.abs(np.diag(T).imag).min() <= 1e-12:
        raise ValueError("vanishing collective decay rate in K denominator")
    return T, Z


def _k_from_schur(schur_form, E_site: np.ndarray) -> np.ndarray:
    """Time-integrated emission overlap matrix K for a factored M = Z T Z^dag.

    K equals the collective-mode double sum
    i sum_{xi,xi'} v_{xi,j} v_{xi',l}* E_xi* E_xi' / (lam_xi - lam_xi'*),
    which is the unique solution of the Sylvester equation
    M^dag K - K M = -i E E^dag.  With e = Z^dag E, Y = Z^dag K Z solves the
    triangular T^dag Y - Y T = -i e e^dag (LAPACK ztrsyl, Bartels-Stewart);
    working in the unitary Schur basis avoids amplifying eigenvector error
    on strongly subradiant (nearly dark) modes.
    """
    T, Z = schur_form
    e = np.conj(Z).T @ E_site
    Y, scale, info = ztrsyl(T, T, -1j * np.outer(e, np.conj(e)),
                            trana="C", isgn=-1)
    if info != 0:
        raise ValueError(f"triangular Sylvester solve failed (info {info})")
    K = Z @ (Y / scale) @ np.conj(Z).T
    herm = np.abs(K - np.conj(K).T).max()
    if herm > 1e-10 * max(np.abs(K).max(), 1e-30):
        raise ValueError(f"K failed the Hermiticity audit: {herm:.2e}")
    return 0.5 * (K + np.conj(K).T)


def _unit_profile(E_site: np.ndarray) -> np.ndarray:
    """Gaussian profile u = E / |E| of the detection field on the sites."""
    norm = np.linalg.norm(E_site)
    if not norm >= 1e-300:
        raise ValueError("detection mode has zero overlap with the array")
    return E_site / norm


def k_matrix(geometry, mode: DetectionMode,
             positions: np.ndarray | None = None) -> np.ndarray:
    """Hermitian retrieval matrix K for the array and detection mode."""
    positions, pol = _array_sites(geometry, positions)
    M = coupling_matrix(geometry, positions)
    return _k_from_schur(_schur_form(M), detection_field(mode, positions) @ pol)


def retrieval_efficiency(u: np.ndarray, K: np.ndarray, F_det: float) -> float:
    """p_em = (S_lambda / 4 F_det) u^dag K u for a normalized profile u."""
    u = np.asarray(u, dtype=complex)
    if not abs(np.linalg.norm(u) - 1.0) <= 1e-8:
        raise ValueError("profile u must be normalized")
    p = S_LAMBDA / (4.0 * F_det) * float(np.real(np.conj(u) @ K @ u))
    if not -1e-9 <= p <= 1.0 + 1e-9:
        raise ValueError(f"retrieval efficiency {p} outside [0, 1]")
    return p


def optimal_profile(K: np.ndarray, F_det: float):
    """Profile maximizing p_em: top eigenvector of K; returns (u_opt, p_opt)."""
    vals, vecs = np.linalg.eigh(K)
    if vals[0] < -1e-9 * max(vals[-1], 1e-30):
        raise ValueError(f"K failed the positivity audit: min eig {vals[0]:.2e}")
    u = vecs[:, -1]
    p = S_LAMBDA / (4.0 * F_det) * float(vals[-1])
    if p > 1.0 + 1e-9:
        raise ValueError(f"optimal efficiency {p} above 1")
    return u, min(p, 1.0)


def gaussian_profile(geometry, mode: DetectionMode,
                     positions: np.ndarray | None = None) -> np.ndarray:
    """Excitation profile imprinted by the mode: u_j prop E^x_det(r_j).

    This is the phase-matched profile for emission into the mode under the
    amplitude convention of `k_matrix` (overlap amplitude E^dag c(t)).
    """
    positions, pol = _array_sites(geometry, positions)
    return _unit_profile(detection_field(mode, positions) @ pol)


# ---------------------------------------------------------------------------
# Reports and scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetrievalReport:
    """Retrieval efficiencies of one array over a scan of detection modes.

    Each profile is quoted at its own best mode from the scan: kind, theta
    and w0 are those of the mode that minimizes the Gaussian-profile error
    (K and F_det are stored for it), and w0_opt is the waist of the mode
    that minimizes the optimal-profile error.
    """

    kind: str
    theta: float
    w0: float
    w0_opt: float
    F_det: float
    K: np.ndarray
    p_opt: float
    p_gauss: float
    u_opt: np.ndarray
    u_gauss: np.ndarray

    @property
    def eps_opt(self) -> float:
        return 1.0 - self.p_opt

    @property
    def eps_gauss(self) -> float:
        return 1.0 - self.p_gauss


def default_waists(geometry: ArrayGeometry) -> np.ndarray:
    """Waist scan w0/d0 in {1.0, 1.25, ..., 0.45 L_v} (at least one value)."""
    L_v = min(geometry.L_x, geometry.L_y)
    upper = max(0.45 * L_v, 1.0)
    return geometry.d0 * np.arange(1.0, upper + 1e-9, 0.25)


def retrieval_report(geometry: ArrayGeometry, modes,
                     positions: np.ndarray | None = None) -> RetrievalReport:
    """Full retrieval report over a scan of detection modes.

    M is built and Schur-factored once; each profile takes the mode that
    minimizes its own error over the scan.
    """
    positions, pol = _array_sites(geometry, positions)
    schur_form = _schur_form(coupling_matrix(geometry, positions))
    best_g = best_o = None
    for mode in modes:
        F = mode_norm(mode)
        E_site = detection_field(mode, positions) @ pol
        K = _k_from_schur(schur_form, E_site)
        u_g = _unit_profile(E_site)
        p_g = retrieval_efficiency(u_g, K, F)
        if best_g is None or p_g > best_g[0]:
            best_g = (p_g, mode, F, K, u_g)
        u_o, p_o = optimal_profile(K, F)
        if best_o is None or p_o > best_o[0]:
            best_o = (p_o, mode.w0, u_o)
    if best_g is None:
        raise ValueError("retrieval_report needs at least one detection mode")
    p_g, mode, F, K, u_g = best_g
    p_o, w_o, u_o = best_o
    return RetrievalReport(kind=mode.kind, theta=mode.theta, w0=mode.w0,
                           w0_opt=w_o, F_det=F, K=K, p_opt=p_o, p_gauss=p_g,
                           u_opt=u_o, u_gauss=u_g)


def _gaussian_efficiency(geometry: ArrayGeometry, positions: np.ndarray | None,
                         mode: DetectionMode, F_det: float) -> float:
    """Gaussian-profile p_em at the given (or the array's own) positions,
    for the defect/thermal loops."""
    positions, pol = _array_sites(geometry, positions)
    E_site = detection_field(mode, positions) @ pol
    K = _k_from_schur(_schur_form(coupling_matrix(geometry, positions)), E_site)
    return retrieval_efficiency(_unit_profile(E_site), K, F_det)


@dataclass(frozen=True)
class DefectStudy:
    """Monte Carlo of random unoccupied sites.

    points: (overlap fraction sum_def |E_j|^2 / sum_all |E_l|^2, relative
    efficiency drop) per realization; binned means over equal-width overlap
    intervals; alpha_def from a least-squares fit drop = alpha * overlap.
    """

    points: np.ndarray
    binned: np.ndarray
    alpha_def: float
    r_squared: float


def defect_study(geometry: ArrayGeometry, mode: DetectionMode,
                 fractions=(0.02, 0.04, 0.06, 0.08, 0.10,
                            0.12, 0.14, 0.16, 0.18, 0.20),
                 n_realizations: int = 100, seed: int = 0,
                 n_bins: int = 8) -> DefectStudy:
    """Relative efficiency drop vs detection-mode weight on empty sites."""
    fractions = np.asarray(fractions, dtype=float)
    if fractions.max() > 0.2 + 1e-12:
        raise ValueError("defect fractions above the 0.2 guard")
    full_pos, pol = _array_sites(geometry)
    F_det = mode_norm(mode)
    E_full = np.abs(detection_field(mode, full_pos) @ pol) ** 2
    p0 = _gaussian_efficiency(geometry, full_pos, mode, F_det)
    pts = []
    for fi, frac in enumerate(fractions):
        for k in range(n_realizations):
            rng = np.random.default_rng([seed, fi, k])
            damaged = geometry.with_defects(frac, rng)
            mask = damaged.occupied
            overlap = E_full[~mask].sum() / E_full.sum()
            p = _gaussian_efficiency(geometry, full_pos[mask], mode, F_det)
            pts.append((overlap, (p0 - p) / p0))
    pts = np.array(pts)
    edges = np.linspace(0.0, pts[:, 0].max() * (1 + 1e-12), n_bins + 1)
    which = np.clip(np.digitize(pts[:, 0], edges) - 1, 0, n_bins - 1)
    binned = np.array([pts[which == b].mean(axis=0)
                       for b in range(n_bins) if np.any(which == b)])
    x, y = pts[:, 0], pts[:, 1]
    alpha = float((x @ y) / (x @ x))
    bx, by = binned[:, 0], binned[:, 1]
    ss_res = float(np.sum((by - alpha * bx) ** 2))
    ss_tot = float(np.sum((by - by.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DefectStudy(points=pts, binned=binned, alpha_def=alpha, r_squared=r2)


@dataclass(frozen=True)
class ThermalStudy:
    """Monte Carlo of Gaussian positional disorder.

    delta_p[i] is the mean efficiency drop at sigmas[i]; (exponent,
    prefactor) fit delta_p = prefactor * (sigma/d0)^exponent.
    """

    sigmas: np.ndarray
    delta_p: np.ndarray
    exponent: float
    prefactor: float


def thermal_study(geometry: ArrayGeometry, mode: DetectionMode,
                  sigmas=(0.02, 0.04, 0.07, 0.10, 0.15),
                  n_realizations: int = 50, seed: int = 0) -> ThermalStudy:
    """Efficiency drop vs positional-disorder strength sigma_th/d0."""
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.max() > 0.25:
        raise ValueError("sigma_th/d0 above the 0.25 guard")
    F_det = mode_norm(mode)
    p0 = _gaussian_efficiency(geometry, None, mode, F_det)
    delta = np.zeros(sigmas.size)
    for si, sig in enumerate(sigmas):
        if sig <= 0.0:
            continue     # no jitter: every realization repeats p0
        jittered = dataclasses.replace(geometry, jitter_sigma=float(sig))
        drops = []
        for k in range(n_realizations):
            rng = np.random.default_rng([seed, si, k])
            pos = jittered.positions(rng)
            drops.append(p0 - _gaussian_efficiency(geometry, pos, mode, F_det))
        delta[si] = np.mean(drops)
    fit = sigmas > 0  # sigma = 0 contributes delta_p = 0 but no log-log point
    slope, intercept = np.polyfit(np.log(sigmas[fit]), np.log(delta[fit]), 1)
    return ThermalStudy(sigmas=sigmas, delta_p=delta,
                        exponent=float(slope),
                        prefactor=float(np.exp(intercept)))


def multiport_scan(geometry: ArrayGeometry, angles, w0: float) -> np.ndarray:
    """Gaussian-profile retrieval error of tilted-pair modes vs tilt angle.

    Returns rows (theta, eps_gauss).  theta = 0 is exactly the
    two-directional scheme (same code path).  Single-layer arrays only.
    """
    if geometry.L_z != 1:
        raise ValueError("multiport scan is defined for single-layer arrays")
    angles = np.asarray(angles, dtype=float)
    if np.abs(angles).max() >= np.pi / 3:
        raise ValueError("tilt angle guard: |theta| < pi/3")
    positions, pol = _array_sites(geometry)
    schur_form = _schur_form(coupling_matrix(geometry, positions))
    rows = []
    for theta in angles:
        mode = DetectionMode("tilted-pair", w0, float(theta))
        E_site = detection_field(mode, positions) @ pol
        K = _k_from_schur(schur_form, E_site)
        p = retrieval_efficiency(_unit_profile(E_site), K, mode_norm(mode))
        rows.append((float(theta), 1.0 - p))
    return np.array(rows)

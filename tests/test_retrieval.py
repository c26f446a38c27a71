"""Photon retrieval: Green's tensor, collective modes, detection modes, K."""

import math
from importlib import resources

import numpy as np
import pytest
from scipy.linalg import solve_sylvester

from seqphoton import pipeline as pl
from seqphoton import retrieval as rt
from seqphoton.geometry import K0, ArrayGeometry


def test_green_tensor_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(5):
        r1, r2 = rng.normal(size=3), rng.normal(size=3)
        G12 = rt.green_tensor(r1, r2)
        G21 = rt.green_tensor(r2, r1)
        assert np.abs(G12 - G21.T).max() < 1e-14


def test_green_tensor_coincident_points_rejected():
    r = np.array([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        rt.green_tensor(r, r)


def test_green_tensor_far_field():
    R = 200.0 / K0
    G = rt.green_tensor(np.array([0.0, 0.0, R]), np.zeros(3))
    lead = np.exp(1j * 200.0) / (4 * np.pi * R) * np.diag([1.0, 1.0, 0.0])
    assert np.linalg.norm(G - lead) / np.linalg.norm(lead) < 0.01


def test_green_tensor_imaginary_short_distance_limit():
    G = rt.green_tensor(np.array([1e-3 / K0, 0.0, 0.0]), np.zeros(3))
    limit = K0 / (6 * np.pi)
    assert abs(np.imag(G[0, 0]) - limit) / limit < 1e-4


def test_coupling_matrix_single_atom():
    M = rt.coupling_matrix(np.zeros((1, 3)))
    assert M.shape == (1, 1)
    assert M[0, 0] == 0.5j  # decay rate Gamma_em = 2 Im(lambda) = 1


def test_coupling_matrix_symmetric_and_cross_checked():
    geo = ArrayGeometry(3, 2, 2, 0.6)
    M = rt.coupling_matrix(geo)
    assert np.abs(M - M.T).max() <= 1e-12
    pos = geo.positions()
    x = np.array([1.0, 0.0, 0.0])
    expected = 3 * np.pi / K0 * (x @ rt.green_tensor(pos[0], pos[1]) @ x)
    assert abs(M[0, 1] - expected) < 1e-12


def test_collective_decay_rates_nonnegative():
    for geo in (ArrayGeometry(4, 4, 1, 0.6), ArrayGeometry(3, 3, 2, 0.6)):
        lam = np.linalg.eigvals(rt.coupling_matrix(geo))
        assert lam.imag.min() >= -1e-9


def test_detection_mode_validation():
    with pytest.raises(ValueError):
        rt.DetectionMode("sideways", 1.0)
    with pytest.raises(ValueError):
        rt.DetectionMode("uni", -1.0)
    with pytest.raises(ValueError):
        rt.DetectionMode("uni", 1.0, theta=0.3)
    with pytest.raises(ValueError):
        rt.DetectionMode("tilted-pair", 1.0, theta=1.1)


def test_detection_field_on_axis_no_longitudinal():
    mode = rt.DetectionMode("uni", 0.9)
    E = rt.detection_field(mode, np.array([0.0, 0.0, 0.7]))
    assert E[2] == 0.0 and E[1] == 0.0
    assert abs(E[0]) > 0.0


def test_detection_field_paraxial_limit():
    w0 = 40.0 / K0
    mode = rt.DetectionMode("uni", w0)
    z_R = K0 * w0**2 / 2
    E_axis = abs(rt.detection_field(mode, np.zeros(3))[0])
    for rho, z in [(w0, 0.0), (0.5 * w0, 0.5 * z_R), (w0, z_R)]:
        E = abs(rt.detection_field(mode, np.array([rho, 0.0, z]))[0])
        w_z = w0 * np.sqrt(1 + (z / z_R) ** 2)
        envelope = (w0 / w_z) * np.exp(-(rho / w_z) ** 2)
        assert abs(E / E_axis - envelope) / envelope < 0.02


def test_mode_norm_positive_and_independent_quadrature():
    from scipy.integrate import quad
    w0 = 1.1
    F = rt.mode_norm(rt.DetectionMode("uni", w0))
    assert F > 0

    def integrand(b):
        g2 = np.exp(-(b * K0 * w0) ** 2 / 2)
        return b * (1 - b * b / 2) / np.sqrt(1 - b * b) * g2

    ref, _ = quad(integrand, 0.0, 1.0)
    ref *= 2 * np.pi / K0**2
    assert abs(F - ref) / ref < 1e-6
    # a pair mode carries one transverse plane per beam
    F2 = rt.mode_norm(rt.DetectionMode("two-directional", w0))
    assert abs(F2 - 2 * F) / F < 1e-12


def test_k_matrix_single_atom_closed_form():
    mode = rt.DetectionMode("uni", 1.2)
    K = rt.k_matrix(np.zeros((1, 3)), mode)
    E1 = rt.detection_field(mode, np.zeros(3))[0]
    # lambda = i/2: K = |E_1|^2 / (2 Im lambda) = |E_1|^2
    assert abs(K[0, 0] - abs(E1) ** 2) < 1e-12 * abs(E1) ** 2
    F = rt.mode_norm(mode)
    p = rt.retrieval_efficiency(np.array([1.0 + 0j]), K, F)
    assert abs(p - rt.S_LAMBDA / (4 * F) * abs(E1) ** 2) < 1e-12


def test_k_matrix_hermitian_psd():
    geo = ArrayGeometry(4, 4, 1, 0.6)
    K = rt.k_matrix(geo, rt.DetectionMode("two-directional", 0.9))
    assert np.abs(K - np.conj(K).T).max() <= 1e-10 * np.abs(K).max()
    vals = np.linalg.eigvalsh(K)
    assert vals.min() >= -1e-9 * vals.max()


def test_k_trace_grows_with_mode_array_overlap():
    geo = ArrayGeometry(4, 4, 1, 0.6)
    traces = []
    for w0 in (0.3, 0.6, 0.9):  # widening up to the array half-size 1.2
        mode = rt.DetectionMode("uni", w0)
        K = rt.k_matrix(geo, mode)
        traces.append(np.trace(K).real / (4 * rt.mode_norm(mode) / rt.S_LAMBDA))
    assert traces[0] < traces[1] < traces[2]


def test_efficiency_invariant_under_field_scale():
    geo = ArrayGeometry(3, 3, 1, 0.6)
    ps = []
    for E0 in (1.0, 3.7):
        mode = rt.DetectionMode("two-directional", 0.9, E0=E0)
        K = rt.k_matrix(geo, mode)
        F = rt.mode_norm(mode)
        u = rt.gaussian_profile(geo, mode)
        ps.append(rt.retrieval_efficiency(u, K, F))
    assert abs(ps[0] - ps[1]) < 1e-12


def test_efficiency_requires_normalized_profile():
    K = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        rt.retrieval_efficiency(np.array([1.0, 1.0]), K, 1.0)


def test_efficiency_rejects_nan_profile():
    K = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        rt.retrieval_efficiency(np.array([np.nan, 0.0]), K, 1.0)


def _solver_cases():
    rng = np.random.default_rng(4)
    w0 = 0.9
    tilted = rt.DetectionMode("tilted-pair", w0, 1.0 / (math.pi * w0))
    damaged = ArrayGeometry(6, 6, 1, 0.6).with_defects(0.1, rng)
    jittered = ArrayGeometry(5, 5, 1, 0.6, jitter_sigma=0.05)
    return [
        (ArrayGeometry(4, 4, 2, 0.6), rt.DetectionMode("uni", w0), None),
        (ArrayGeometry(8, 8, 1, 0.6),
         rt.DetectionMode("two-directional", 1.2), None),
        (ArrayGeometry(6, 6, 1, 0.6), tilted, None),
        (damaged, rt.DetectionMode("two-directional", w0), None),
        (jittered, rt.DetectionMode("two-directional", w0),
         jittered.positions(rng)),
        # M and E both use the array's own dipole orientation
        (ArrayGeometry(4, 4, 1, 0.6, polarization=(1.0, 1.0, 0.0)),
         rt.DetectionMode("two-directional", w0), None),
    ]


@pytest.mark.parametrize("case", range(6))
def test_schur_k_matches_solve_sylvester(case):
    geo, mode, pos = _solver_cases()[case]
    if pos is None:
        pos = geo.positions()
    M = rt.coupling_matrix(geo, pos)
    pol = np.asarray(geo.polarization) / np.linalg.norm(geo.polarization)
    E = rt.detection_field(mode, pos) @ pol
    oracle = solve_sylvester(np.conj(M).T, -M, -1j * np.outer(E, np.conj(E)))
    K = rt.k_matrix(geo, mode, pos)
    assert np.abs(K - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_vanishing_decay_rate_guard():
    with pytest.raises(ValueError, match="vanishing collective decay"):
        rt._schur_form(np.diag([0.5j, 1.0]).astype(complex))


def test_two_port_builds_one_coupling_matrix(monkeypatch):
    calls = []
    build = rt.coupling_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(rt, "coupling_matrix", counting)
    data = resources.files("seqphoton") / "data"
    for profile in ("optimal", "gaussian"):
        table = pl.RetrievalCache(
            path=str(data / f"retrieval_{profile}.csv")).entries
        calls.clear()
        eps = pl.RetrievalCache(path=None, profile=profile).error(
            "two-port", 4, 1)
        assert len(calls) == 1
        assert abs(eps - table[("two-port", 4, 1)]) <= 1e-10


def test_gauss_rule_built_once_per_node_count(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        built.append(n)
        return leggauss(n)

    rt._gauss_nodes.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    pos = ArrayGeometry(3, 3, 2, 0.6).positions()
    for _ in range(2):
        for w0 in (0.6, 0.9, 1.2):
            mode = rt.DetectionMode("two-directional", w0)
            rt.mode_norm(mode)
            rt.detection_field(mode, pos)
    assert built and len(built) == len(set(built))
    u, w = rt._gauss_nodes(built[0])
    assert not u.flags.writeable and not w.flags.writeable


def test_bounds_optimality_and_scheme_ordering():
    geo = ArrayGeometry(5, 5, 1, 0.6)
    rep_uni = rt.retrieval_report(geo, [rt.DetectionMode("uni", 0.9)])
    rep_two = rt.retrieval_report(
        geo, [rt.DetectionMode("two-directional", 0.9)])
    for rep in (rep_uni, rep_two):
        assert 0.0 <= rep.p_gauss <= rep.p_opt <= 1.0
    # the uni mode discards the backward field
    assert rep_two.eps_gauss <= rep_uni.eps_gauss
    assert rep_two.eps_opt <= rep_uni.eps_opt


def test_gaussian_profile_plane_wave_limit():
    geo = ArrayGeometry(4, 4, 1, 0.6)
    u = rt.gaussian_profile(geo, rt.DetectionMode("uni", 50.0))
    assert np.abs(u).max() / np.abs(u).min() < 1.01


def test_gaussian_profile_layer_symmetry():
    geo = ArrayGeometry(4, 4, 2, 0.6)
    u = rt.gaussian_profile(geo, rt.DetectionMode("two-directional", 0.9))
    layer = geo.positions()[:, 2]
    front, back = u[layer < 0], u[layer > 0]
    assert np.abs(front - back).max() < 1e-10


def test_two_directional_equals_tilted_pair_at_zero_angle():
    geo = ArrayGeometry(4, 4, 1, 0.6)
    pos = geo.positions()
    E_two = rt.detection_field(rt.DetectionMode("two-directional", 0.9), pos)
    E_tilt = rt.detection_field(rt.DetectionMode("tilted-pair", 0.9, 0.0), pos)
    assert np.abs(E_two - E_tilt).max() <= 1e-12
    scan = rt.multiport_scan(geo, [0.0], 0.9)
    rep = rt.retrieval_report(
        geo, [rt.DetectionMode("two-directional", 0.9)])
    assert abs(scan[0, 1] - rep.eps_gauss) <= 1e-12


def test_multiport_error_nondecreasing_with_angle():
    geo = ArrayGeometry(5, 5, 1, 0.6)
    angles = [0.0, 0.1, 0.2, 0.3, 0.4]
    scan = rt.multiport_scan(geo, angles, 0.9)
    eps = scan[:, 1]
    assert np.all(np.diff(eps) >= -1e-12)


def test_multiport_guards():
    with pytest.raises(ValueError):
        rt.multiport_scan(ArrayGeometry(4, 4, 2, 0.6), [0.0], 0.9)
    with pytest.raises(ValueError):
        rt.multiport_scan(ArrayGeometry(4, 4, 1, 0.6), [1.1], 0.9)


def test_defect_study_zero_fraction_and_guards():
    geo = ArrayGeometry(4, 4, 1, 0.6)
    mode = rt.DetectionMode("two-directional", 0.9)
    study = rt.defect_study(geo, mode, fractions=(0.0, 0.125),
                            n_realizations=4, seed=3, n_bins=2)
    zero = study.points[study.points[:, 0] == 0.0]
    assert len(zero) == 4 and np.abs(zero[:, 1]).max() < 1e-12
    assert study.alpha_def > 0.0
    with pytest.raises(ValueError):
        rt.defect_study(geo, mode, fractions=(0.3,))


def test_defect_study_reproducible():
    geo = ArrayGeometry(4, 4, 1, 0.6)
    mode = rt.DetectionMode("two-directional", 0.9)
    a = rt.defect_study(geo, mode, fractions=(0.1,), n_realizations=3, seed=7)
    b = rt.defect_study(geo, mode, fractions=(0.1,), n_realizations=3, seed=7)
    assert np.array_equal(a.points, b.points)


def test_thermal_study_zero_sigma_and_guard():
    geo = ArrayGeometry(4, 4, 1, 0.6)
    mode = rt.DetectionMode("two-directional", 0.9)
    study = rt.thermal_study(geo, mode, sigmas=(0.0, 0.05, 0.1),
                             n_realizations=4, seed=1)
    assert study.delta_p[0] == 0.0
    assert study.delta_p[1] < study.delta_p[2]
    with pytest.raises(ValueError):
        rt.thermal_study(geo, mode, sigmas=(0.3,))


def test_thermal_study_skips_zero_sigma_solves(monkeypatch):
    """sigma = 0 needs no realization: one p0 solve plus 4 per nonzero
    sigma."""
    calls = []
    solve = rt._gaussian_efficiency

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(rt, "_gaussian_efficiency", counted)
    rt.thermal_study(ArrayGeometry(4, 4, 1, 0.6),
                     rt.DetectionMode("two-directional", 0.9),
                     sigmas=(0.0, 0.05, 0.1), n_realizations=4, seed=1)
    assert len(calls) == 9


@pytest.mark.slow
def test_thermal_exponent_small_array():
    geo = ArrayGeometry(6, 6, 1, 0.6)
    mode = rt.DetectionMode("two-directional", 1.2)
    study = rt.thermal_study(geo, mode, sigmas=(0.02, 0.04, 0.07, 0.10, 0.15),
                             n_realizations=20, seed=2)
    assert abs(study.exponent - 2.0) <= 0.4


def test_geometry_defect_guard():
    with pytest.raises(ValueError):
        ArrayGeometry(2, 2, 1, 0.6, occupied=np.zeros(4, dtype=bool))

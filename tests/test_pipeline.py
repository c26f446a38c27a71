"""Round maps, photonic fidelity, error budget, and geometry optimization."""

import math

import numpy as np
import pytest

from seqphoton import pipeline as pl
from seqphoton.collective import FockBasis
from seqphoton.lindblad import RateSpec, build_effective_model
from seqphoton.mps import (CLUSTER_FINAL, CLUSTER_INTERIOR,
                           MatrixProductState, build_cluster)


IDEAL = pl.ProtocolConfig()


@pytest.fixture(scope="module")
def ideal_maps():
    return pl.protocol_round_maps(IDEAL)


def swap_mps(n):
    """Target of the repeated q -> l transfer protocol: photon 1 carries the
    ancilla superposition, later photons are vacuum."""
    phi_I = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    phi_F = np.array([1.0, 0.0], dtype=complex)
    return MatrixProductState(n, 2, 2, (CLUSTER_FINAL.astype(complex),) * n,
                              phi_I, phi_F)


# EmissionSpec ---------------------------------------------------------------

def test_emission_spec_validation():
    with pytest.raises(ValueError):
        pl.EmissionSpec(1.2)
    with pytest.raises(ValueError):
        pl.EmissionSpec(0.9, d_max=1)
    with pytest.raises(ValueError):
        pl.EmissionSpec(0.9, D=4, d=4, d_max=4, N=10)


def test_p_prime_renormalization():
    # D = 2, d = 2: p' = (1 - 1/N) p_em
    spec = pl.EmissionSpec(0.5, D=2, d=2, d_max=2, N=100)
    assert abs(spec.p_prime - 0.99 * 0.5) < 1e-15
    assert pl.EmissionSpec(0.5).p_prime == 0.5


def test_emission_binomial_distribution():
    basis = FockBasis(IDEAL.truncation())
    em = pl.emission_map(pl.EmissionSpec(0.9, d_max=3), basis)
    a = basis.index_of((0, 0, 2, 0, 0, 0))
    probs = [float((em.factors[i][:, :, a] ** 2).sum()) for i in range(3)]
    assert np.allclose(probs, [0.01, 0.18, 0.81])


def test_emission_perfect_single_photon():
    basis = FockBasis(IDEAL.truncation())
    em = pl.emission_map(pl.EmissionSpec(1.0), basis)
    a = basis.index_of((0, 1, 1, 0, 0, 0))
    dist = [float((em.factors[i][:, :, a] ** 2).sum()) for i in range(3)]
    assert np.allclose(dist, [0.0, 1.0, 0.0])
    # the storage quantum is retained
    c = em.source_occ.index((1, 0))
    assert float((em.factors[1][:, c, a] ** 2).sum()) == pytest.approx(1.0)


# Ideal protocol -------------------------------------------------------------

def test_ideal_cluster_fidelity_is_one(ideal_maps):
    interior, closing, _ = ideal_maps
    for n in (1, 3, 6):
        F = pl.photonic_fidelity([interior] * (n - 1) + [closing],
                                 build_cluster(n))
        assert abs(F - 1.0) < 1e-8


def test_round_maps_trace_preserving(ideal_maps):
    interior, closing, _ = ideal_maps
    assert interior.trace_defect() < 1e-12
    assert closing.trace_defect() < 1e-12


def test_lossy_round_maps_trace_preserving():
    cfg = pl.ProtocolConfig(gamma_r=2e-3, gamma_phi=1e-3, p_em=0.8,
                            pulse=None)
    basis = FockBasis(cfg.truncation())
    ck = pl.closing_kernel(build_effective_model(
        basis.trunc, RateSpec(cfg.gamma_r, cfg.gamma_phi)))
    maps = pl.round_maps(ck, pl.emission_map(cfg.emission_spec(), basis))
    assert maps.trace_defect() < 1e-9


def test_fidelity_monotone_in_n():
    cfg = pl.ProtocolConfig(p_em=0.95)
    ns, Fs = pl.fidelity_curve(cfg, n_max=8)
    assert np.all(np.diff(Fs) < 0.0)
    assert np.all((Fs > 0.0) & (Fs <= 1.0 + 1e-9))


@pytest.mark.parametrize("corrupt", [lambda X: X * np.exp(0.1j),
                                     lambda X: -X],
                         ids=["imaginary-residue", "negative"])
def test_fidelity_curve_audits_every_value(corrupt, monkeypatch):
    contract = pl._contract_round
    monkeypatch.setattr(pl, "_contract_round",
                        lambda *args: corrupt(contract(*args)))
    with pytest.raises(RuntimeError, match="fidelity"):
        pl.fidelity_curve(IDEAL, n_max=3)


@pytest.mark.parametrize("gamma_r, U", [(0.0, 10.0), (2e-3, None)],
                         ids=["unitary", "open-system"])
def test_one_pulse_evaluation_per_rhs_evaluation(gamma_r, U, monkeypatch):
    from seqphoton import goat, lindblad
    rng = np.random.default_rng(5)
    pulse = goat.PulseParams(rng.normal(scale=0.4, size=(goat.N_COMP, 3)),
                             rng.uniform(0.2, 1.0, goat.N_COMP), T=1.5)
    counts = {"pulse": 0, "nfev": 0}
    values = goat.component_values

    def counted_values(*args):
        counts["pulse"] += 1
        return values(*args)

    def counted_solver(solver):
        def run(*args, **kwargs):
            sol = solver(*args, **kwargs)
            counts["nfev"] += sol.nfev
            return sol
        return run

    monkeypatch.setattr(goat, "component_values", counted_values)
    for module in (pl, lindblad):
        monkeypatch.setattr(module, "solve_ivp",
                            counted_solver(module.solve_ivp))
    cfg = pl.ProtocolConfig(pulse=pulse, gamma_r=gamma_r, U=U, slack=0)
    basis = FockBasis(cfg.truncation())
    pl.pulse_kernel(build_effective_model(basis.trunc,
                                          RateSpec(gamma_r, 0.0, U=U)), pulse)
    assert counts["nfev"] > 0
    assert counts["pulse"] == counts["nfev"]


def test_round_count_mismatch(ideal_maps):
    interior, closing, _ = ideal_maps
    with pytest.raises(ValueError):
        pl.photonic_fidelity([interior], build_cluster(3))


# Dense oracle ---------------------------------------------------------------

def test_transfer_contraction_matches_dense_oracle_emission():
    cfg = pl.ProtocolConfig(p_em=0.9)
    interior, closing, basis = pl.protocol_round_maps(cfg)
    ik = pl.exact_kernel(basis, CLUSTER_INTERIOR, 2)
    ck = pl.exact_kernel(basis, CLUSTER_FINAL, 2)
    for n in (2, 4):
        mps = build_cluster(n)
        F = pl.photonic_fidelity([interior] * (n - 1) + [closing], mps)
        Fd = pl.dense_photonic_fidelity([ik] * (n - 1) + [ck],
                                        cfg.emission_spec(), mps)
        assert abs(F - Fd) < 1e-10


def test_transfer_contraction_matches_dense_oracle_noisy():
    cfg = pl.ProtocolConfig(gamma_r=1e-3, gamma_phi=5e-4, p_em=0.9)
    basis = FockBasis(cfg.truncation())
    rates = RateSpec(cfg.gamma_r, cfg.gamma_phi)
    ck = pl.closing_kernel(build_effective_model(basis.trunc, rates))
    spec = cfg.emission_spec()
    maps = pl.round_maps(ck, pl.emission_map(spec, basis))
    for n in (1, 3):
        mps = swap_mps(n)
        F = pl.photonic_fidelity([maps] * n, mps)
        Fd = pl.dense_photonic_fidelity([ck] * n, spec, mps)
        assert abs(F - Fd) < 1e-10


def test_closing_pulse_realizes_final_tensor():
    basis = FockBasis(IDEAL.truncation())
    ck = pl.closing_kernel(build_effective_model(basis.trunc,
                                                 RateSpec(0.0, 0.0)))
    i1q = basis.index_of((0, 1, 0, 0, 0, 0))
    i1l = basis.index_of((0, 0, 1, 0, 0, 0))
    i0 = basis.index_of((0, 0, 0, 0, 0, 0))
    src = ck.source_states
    rho = ck.propagated[src.index(i1q), src.index(i1q)]
    assert abs(rho[i1l, i1l] - 1.0) < 1e-8
    coh = ck.propagated[src.index(i1q), src.index(i0)]
    assert abs(coh[i1l, i0] - 1.0) < 1e-8   # +1 transfer phase


def closing_model(gamma_r, gamma_phi, U):
    cfg = pl.ProtocolConfig(gamma_r=gamma_r, gamma_phi=gamma_phi, U=U,
                            slack=1)
    return build_effective_model(cfg.truncation(),
                                 RateSpec(gamma_r, gamma_phi, U=U))


@pytest.mark.parametrize("gamma_r, gamma_phi, U",
                         [(2e-3, 1e-3, None), (0.0, 0.0, 10.0)],
                         ids=["noisy-ideal-blockade", "coherent-finite-U"])
def test_closing_kernel_exponential_matches_ode(gamma_r, gamma_phi, U):
    """The exponential closing transfer against DOP853 on the source
    matrix units, segment by segment, at rtol 1e-12."""
    model = closing_model(gamma_r, gamma_phi, U)
    ck = pl.closing_kernel(model)
    src, out = pl._source_units(model.basis)
    for name, amp in pl.CLOSING_SEGMENTS:
        channels = pl.ControlChannels(**{"omega_" + name: amp}, U=U)
        out = pl.propagate_stack(model, channels, out, math.pi,
                                 rtol=1e-12, atol=1e-14)
    S, N = len(src), model.dim
    assert ck.source_states == src
    assert np.abs(ck.propagated - out.reshape(S, S, N, N)).max() < 1e-9


def test_noisy_closing_kernel_leaves_global_rng():
    """expm_multiply draws from numpy's global RNG; the noisy closing
    kernel puts its state back, so the caller's next draws are unchanged."""
    model = closing_model(2e-3, 1e-3, None)
    np.random.seed(7)
    expected = np.random.random(3)
    np.random.seed(7)
    pl.closing_kernel(model)
    assert np.array_equal(np.random.random(3), expected)


@pytest.mark.parametrize("gamma_r, gamma_phi", [(2e-3, 1e-3), (0.0, 0.0)],
                         ids=["noisy", "coherent"])
def test_closing_kernel_rejects_bad_drives(gamma_r, gamma_phi, monkeypatch):
    # a double-Rydberg basis (built for finite U) under U = None
    with pytest.raises(ValueError, match="ideal blockade"):
        pl.closing_kernel(build_effective_model(
            closing_model(gamma_r, gamma_phi, 10.0).basis.trunc,
            RateSpec(gamma_r, gamma_phi, U=None)))
    monkeypatch.setattr(pl, "CLOSING_SEGMENTS", (("rq", np.nan),))
    with pytest.raises(ValueError, match="non-finite"):
        pl.closing_kernel(closing_model(gamma_r, gamma_phi, None))


def test_round_maps_two_step_matches_single_einsum():
    cfg = pl.ProtocolConfig(U=10.0, p_em=0.9, slack=1)
    basis = FockBasis(cfg.truncation())
    em = pl.emission_map(cfg.emission_spec(), basis)
    src = em.source_states
    rng = np.random.default_rng(3)
    shape = (len(src), len(src), basis.dim, basis.dim)
    prop = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    maps = pl.round_maps(pl.RoundKernel(basis, src, prop), em)
    F = em.factors
    ref = np.einsum("iecn,abnm,jesm->ijcsab", F, prop, F, optimize=True)
    assert np.abs(maps.blocks - ref).max() < 1e-13


def test_pulse_kernel_source_columns_match_full_unitary():
    from scipy.integrate import solve_ivp
    from seqphoton import goat
    rng = np.random.default_rng(11)
    pulse = goat.PulseParams(rng.normal(scale=0.4, size=(goat.N_COMP, 3)),
                             rng.uniform(0.2, 1.0, goat.N_COMP), T=3.0)
    model = closing_model(0.0, 0.0, 10.0)
    channels = pl.PulseChannels(U=10.0, pulse=pulse)
    N = model.dim

    def rhs(t, y):
        return (-1j * model.hamiltonian(channels, t)
                @ y.reshape(N, N)).ravel()

    sol = solve_ivp(rhs, (0.0, pulse.T), np.eye(N, dtype=complex).ravel(),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    full = sol.y[:, -1].reshape(N, N)
    src = list(pl.source_subspace(model.basis))
    ref = pl._kernel_from_unitary(model.basis, full[:, src])
    got = pl.pulse_kernel(model, pulse, rtol=1e-12, atol=1e-14)
    assert np.abs(got.propagated - ref.propagated).max() < 1e-9


def test_protocol_kernels_build_one_model(monkeypatch):
    from seqphoton import goat
    rng = np.random.default_rng(2)
    pulse = goat.PulseParams(rng.normal(scale=0.4, size=(goat.N_COMP, 3)),
                             rng.uniform(0.2, 1.0, goat.N_COMP), T=0.5)
    calls = []
    build = pl.build_effective_model

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(pl, "build_effective_model", counted)
    cfg = pl.ProtocolConfig(pulse=pulse, gamma_r=2e-3, gamma_phi=1e-3,
                            slack=0)
    pl.protocol_kernels(cfg, FockBasis(cfg.truncation()))
    assert len(calls) == 1


# xi fitting -----------------------------------------------------------------

def test_fit_xi_exact_exponential():
    ns = np.arange(1, 13)
    fit = pl.fit_xi(ns, np.exp(-0.01 * ns))
    assert abs(fit.xi - 0.01) < 1e-12
    assert fit.r_squared > 1.0 - 1e-12


def test_fit_xi_flags_nonlinearity():
    ns = np.arange(1, 13)
    with pytest.warns(UserWarning):
        pl.fit_xi(ns, np.exp(-0.01 * ns ** 2))
    with pytest.raises(ValueError):
        pl.fit_xi(ns, np.linspace(1.0, -0.1, 12))


def test_emission_only_xi_matches_analytic():
    # pure-emission error: the cluster interior writes |1_l> with weight 1/2,
    # so F per round loses about (1 - p)/2 at amplitude level
    cfg = pl.ProtocolConfig(p_em=0.99)
    ns, Fs = pl.fidelity_curve(cfg, n_max=10)
    fit = pl.fit_xi(ns, Fs)
    beta_em = fit.xi / (-math.log(0.99))
    assert 0.3 < beta_em < 0.7


def test_xi_additivity_emission_axes():
    # xi(p1 * p2) = xi(p1) + xi(p2) for the emission channel
    xi = {}
    for p in (0.98, 0.96, 0.98 * 0.96):
        ns, Fs = pl.fidelity_curve(pl.ProtocolConfig(p_em=p), n_max=8)
        xi[p] = pl.fit_xi(ns, Fs).xi
    combined = xi[0.98] + xi[0.96]
    assert abs(xi[0.98 * 0.96] - combined) / combined < 0.1


# Omega optimization ---------------------------------------------------------

BUDGET = pl.ErrorBudget(5e-4, 17.1, 6.7, 1.9, 0.48)


def test_optimize_omega_closed_form_and_grid():
    g_r, g_phi, U = 19.6e3, 21.3e3, 30e6
    opt = pl.optimize_omega(BUDGET, g_r, g_phi, U)
    gamma = BUDGET.gamma_total(g_r, g_phi)
    omegas = np.geomspace(opt.omega_opt / 10, opt.omega_opt * 10, 4001)
    xis = np.array([BUDGET.xi(g_r, g_phi, w, U, 1.0) for w in omegas])
    best = omegas[np.argmin(xis)]
    assert abs(best - opt.omega_opt) / opt.omega_opt < 0.01
    assert abs(xis.min() - opt.xi_opt) / opt.xi_opt < 1e-4
    assert opt.n_ph == pytest.approx(math.log(2.0) / opt.xi_opt)


def test_optimize_omega_is_stationary():
    opt = pl.optimize_omega(BUDGET, 19.6e3, 21.3e3, 30e6)
    w, eps = opt.omega_opt, opt.omega_opt * 1e-5
    d = (BUDGET.xi(19.6e3, 21.3e3, w + eps, 30e6, 1.0)
         - BUDGET.xi(19.6e3, 21.3e3, w - eps, 30e6, 1.0)) / (2 * eps)
    assert abs(d * w / opt.xi_opt) < 1e-6


def test_optimize_omega_blockade_dominates():
    heavy = pl.ErrorBudget(5e-4, 17.1, 6.7, 1.9e6, 0.48)
    light = pl.ErrorBudget(5e-4, 17.1, 6.7, 1.9, 0.48)
    assert (pl.optimize_omega(heavy, 1e3, 1e3, 1e6).omega_opt
            < pl.optimize_omega(light, 1e3, 1e3, 1e6).omega_opt)


def test_optimize_omega_validation():
    with pytest.raises(ValueError):
        pl.optimize_omega(BUDGET, 0.0, 0.0, 1e6)
    with pytest.raises(ValueError):
        pl.optimize_omega(BUDGET, 1e3, 1e3, 1e6, p_prime=0.0)


# Geometry optimization ------------------------------------------------------

def test_geometric_factor_pair():
    # 2 x 2 plaquette: 4 edge pairs at distance 1, 2 diagonals at sqrt(2)
    assert pl.geometric_factor(2, 1) == pytest.approx(
        math.sqrt(4 * 3 / (2 * (4 * 1 + 2 * 2 ** 6))), rel=1e-12)
    assert pl.geometric_factor(3, 1) < pl.geometric_factor(2, 1)


def synthetic_cache():
    """Cache pre-seeded with a smooth retrieval model so the scan is cheap:
    uni errors ~ 1/L_z, two-directional ~ (log Lv)^2/Lv^4."""
    cache = pl.RetrievalCache()
    for lv in pl.DEFAULT_L_V:
        for lz in pl.DEFAULT_L_Z:
            cache.entries[("uni", lv, lz)] = 0.6 / (lz + 1.2)
            cache.entries[("two-directional", lv, lz)] = (
                1.2 * math.log(lv) ** 2 / lv ** 4 + 0.3 / (lv * lv * lz))
        cache.entries[("two-port", lv, 1)] = (
            2.0 * math.log(lv) ** 2 / lv ** 4)
    return cache


def test_geometry_optimize_prefers_better_scheme():
    cache = synthetic_cache()
    with pytest.warns(UserWarning):
        uni = pl.geometry_optimize("uni", 1e7, BUDGET, cache)
    with pytest.warns(UserWarning):
        two = pl.geometry_optimize("two-directional", 1e7, BUDGET, cache)
    assert two.n_ph > uni.n_ph
    assert uni.xi_opt > 0 and two.xi_opt > 0


def test_geometry_optimize_cavity_divides_error():
    cache = synthetic_cache()
    with pytest.warns(UserWarning):
        uni = pl.geometry_optimize("uni", 1e7, BUDGET, cache)
        cav = pl.geometry_optimize("cavity", 1e7, BUDGET, cache,
                                   finesse=50.0)
    assert cav.n_ph > uni.n_ph
    with pytest.raises(ValueError):
        pl.geometry_optimize("cavity", 1e7, BUDGET, cache)


def test_geometry_optimize_interior_optimum_no_warning():
    # retrieval error with an interior minimum at (8, 2); huge x so the
    # blockade term is negligible and the optimum follows the retrieval table
    cache = pl.RetrievalCache()
    for lv in (6, 8, 10):
        for lz in (1, 2, 3):
            cache.entries[("uni", lv, lz)] = 0.01 * (
                (lv - 8) ** 2 + 1) * (1 + (lz - 2) ** 2)
    import warnings as w
    with w.catch_warnings():
        w.simplefilter("error")
        res = pl.geometry_optimize("uni", 1e12, BUDGET, cache,
                                   L_v_grid=(6, 8, 10), L_z_grid=(1, 2, 3))
        assert not res.at_boundary
        assert (res.L_v, res.L_z) == (8, 2)


def test_two_port_scans_single_layer():
    cache = synthetic_cache()
    with pytest.warns(UserWarning):
        res = pl.geometry_optimize("two-port", 1e7, BUDGET, cache)
    assert res.L_z == 1


def test_retrieval_cache_roundtrip(tmp_path):
    path = str(tmp_path / "table.csv")
    cache = pl.RetrievalCache(path=path)
    cache.entries[("uni", 4, 1)] = 0.123456
    cache._save()
    again = pl.RetrievalCache(path=path)
    assert again.entries[("uni", 4, 1)] == pytest.approx(0.123456, rel=1e-12)


def test_retrieval_cache_computes_small_geometry(tmp_path):
    cache = pl.RetrievalCache(path=str(tmp_path / "t.csv"))
    eps = cache.error("two-directional", 4, 1)
    assert 0.0 < eps < 0.5
    # second call hits the cache (same object) and the persisted file
    assert cache.error("two-directional", 4, 1) == eps
    again = pl.RetrievalCache(path=str(tmp_path / "t.csv"))
    assert again.entries[("two-directional", 4, 1)] == pytest.approx(eps)


def test_two_port_requires_single_layer():
    cache = pl.RetrievalCache()
    with pytest.raises(ValueError):
        cache._compute("two-port", 4, 2)


# Scaling --------------------------------------------------------------------

def test_scaling_exponents_synthetic():
    cache = synthetic_cache()
    xs = np.geomspace(1e5, 1e9, 9)
    with pytest.warns(UserWarning):
        study = pl.scaling_exponents("two-directional", xs, BUDGET, cache)
    assert study.xi_strictly_decreasing
    assert study.n_ph.exponent > 0.0
    assert study.n_ph.r_squared > 0.9


def test_scaling_exponents_validation():
    cache = synthetic_cache()
    with pytest.raises(ValueError):
        pl.scaling_exponents("uni", np.geomspace(1e5, 1e6, 8), BUDGET, cache)
    with pytest.raises(ValueError):
        pl.scaling_exponents("uni", np.geomspace(1e5, 1e9, 4), BUDGET, cache)


# Dimension scaling ----------------------------------------------------------

def test_dim_scaling_baseline_and_growth():
    f = pl.geometric_factor(8, 2)
    base = pl.dim_scaling_estimate(2, 2, BUDGET, f, 1e7, 8 * 8 * 2)
    coh = base - BUDGET.beta_em * 2 * 1 / (2 * 1 * 128)
    big = pl.dim_scaling_estimate(4, 4, BUDGET, f, 1e7, 8 * 8 * 2)
    coh_big = big - BUDGET.beta_em * 6 * 5 / (2 * 3 * 128)
    assert coh_big == pytest.approx(16.0 * coh, rel=1e-12)


def test_dim_scaling_retrieval_term():
    f = pl.geometric_factor(8, 2)
    N = 128
    got = pl.dim_scaling_estimate(3, 2, BUDGET, f, 1e7, N)
    t = (3 * 2 / 4.0) ** 2
    coh = t * (27 * BUDGET.beta_U / (4 * f * f)) ** (1 / 3) * 1e7 ** (-2 / 3)
    assert got - coh == pytest.approx(BUDGET.beta_em * 3 * 2 / (2 * 1 * N),
                                      rel=1e-12)


def test_dim_scaling_warns_when_crowded():
    f = pl.geometric_factor(4, 1)
    with pytest.warns(UserWarning):
        pl.dim_scaling_estimate(4, 4, BUDGET, f, 1e7, 16)


def test_resource_parameter():
    gamma = BUDGET.gamma_total(19.6e3, 21.3e3)
    d0 = (862.69e9 / (gamma * pl.REFERENCE_RESOURCE)) ** (1 / 6)
    assert pl.resource_parameter(-862.69e9, gamma, d0) == pytest.approx(
        pl.REFERENCE_RESOURCE, rel=1e-9)

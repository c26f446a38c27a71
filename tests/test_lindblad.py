"""Effective Lindblad model, exact benchmark model, embedding, and the
cyclic Raman transfer comparison."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from seqphoton import lindblad as lb
from seqphoton.collective import ControlChannels, TruncationSpec


DECAY_TRUNC = TruncationSpec(1, 1, 1, 1, 1, 1)
DEPH_TRUNC = TruncationSpec(2, 0, 0, m_r_max=2)


def _pure_state(model, state):
    rho = np.zeros((model.dim, model.dim), dtype=complex)
    i = model.basis.index_of(state)
    rho[i, i] = 1.0
    return rho


def test_rate_spec_validation_and_flags():
    with pytest.raises(ValueError):
        lb.RateSpec(gamma_r=-0.1, gamma_phi=0.0)
    r = lb.RateSpec(gamma_r=0.016, gamma_phi=0.016, U=5.0)
    assert r.strong_driving and r.good_blockade
    assert not lb.RateSpec(0.2, 0.2, U=1.0).strong_driving
    assert not lb.RateSpec(0.0, 0.0, U=1.0).good_blockade


def test_jump_count_full_model():
    model = lb.build_effective_model(
        DECAY_TRUNC, lb.RateSpec(0.01, 0.02, U=5.0), include_l=True)
    assert len(model.jumps) == 8


def test_pure_decay_analytic_five_points():
    """From one coherent Rydberg quantum with three decay channels:
    coherent weight e^{-3 G t}, one third of the rest in each of vacuum,
    mixed-q, mixed-l."""
    gr = 0.11
    model = lb.build_effective_model(
        DECAY_TRUNC, lb.RateSpec(gr, 0.0, U=0.0), include_l=True)
    b = model.basis
    rho0 = _pure_state(model, (1, 0, 0, 0, 0, 0))
    ch = ControlChannels(U=0.0)
    for t in (0.3, 0.8, 1.5, 2.4, 4.0):
        rho = lb.propagate_rho(model, ch, rho0, t)
        coh = np.exp(-3.0 * gr * t)
        third = (1.0 - coh) / 3.0
        i1 = b.index_of((1, 0, 0, 0, 0, 0))
        assert abs(rho[i1, i1].real - coh) < 1e-6
        for state in ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0),
                      (0, 0, 0, 0, 0, 1)):
            i = b.index_of(state)
            assert abs(rho[i, i].real - third) < 1e-6
        assert abs(np.trace(rho).real - 1.0) < 1e-9


def test_pure_dephasing_analytic_five_points():
    """From two coherent Rydberg quanta under dephasing only: weights
    e^{-2 G t}, 2 G t e^{-2 G t}, and the remainder over the coherent pair,
    the half-collapsed pair, and the fully mixed pair."""
    gp = 0.13
    model = lb.build_effective_model(
        DEPH_TRUNC, lb.RateSpec(0.0, gp, U=0.0), include_l=False)
    b = model.basis
    rho0 = _pure_state(model, (2, 0, 0, 0, 0, 0))
    ch = ControlChannels(U=0.0)
    for t in (0.3, 0.9, 1.5, 2.1, 3.5):
        rho = lb.propagate_rho(model, ch, rho0, t)
        w2 = np.exp(-2.0 * gp * t)
        w1 = 2.0 * gp * t * np.exp(-2.0 * gp * t)
        w0 = 1.0 - w2 - w1
        assert abs(rho[b.index_of((2, 0, 0, 0, 0, 0)),
                       b.index_of((2, 0, 0, 0, 0, 0))].real - w2) < 1e-6
        assert abs(rho[b.index_of((1, 0, 0, 1, 0, 0)),
                       b.index_of((1, 0, 0, 1, 0, 0))].real - w1) < 1e-6
        assert abs(rho[b.index_of((0, 0, 0, 2, 0, 0)),
                       b.index_of((0, 0, 0, 2, 0, 0))].real - w0) < 1e-6


def test_single_quantum_dephasing_transfer():
    gp = 0.2
    model = lb.build_effective_model(
        TruncationSpec(1, 0, 0, m_r_max=1), lb.RateSpec(0.0, gp, U=0.0),
        include_l=False)
    b = model.basis
    rho = lb.propagate_rho(model, ControlChannels(U=0.0),
                           _pure_state(model, (1, 0, 0, 0, 0, 0)), 1.7)
    i1 = b.index_of((1, 0, 0, 0, 0, 0))
    im = b.index_of((0, 0, 0, 1, 0, 0))
    assert abs(rho[i1, i1].real - np.exp(-gp * 1.7)) < 1e-8
    assert abs(rho[im, im].real - (1 - np.exp(-gp * 1.7))) < 1e-8


def test_dephasing_conserves_rydberg_population():
    """With drive off, dephasing only moves coherent quanta into the mixed
    Rydberg mode; total Rydberg occupation stays put."""
    gp = 0.3
    model = lb.build_effective_model(
        DEPH_TRUNC, lb.RateSpec(0.0, gp, U=0.0), include_l=False)
    n_r = model.n_r_diag
    rho0 = _pure_state(model, (2, 0, 0, 0, 0, 0))
    for t in (0.5, 2.0):
        rho = lb.propagate_rho(model, ControlChannels(U=0.0), rho0, t)
        total = float(n_r @ np.real(np.diag(rho)))
        assert abs(total - 2.0) < 1e-9


def test_resonant_pi_pulse():
    model = lb.build_effective_model(
        TruncationSpec(1, 0, 0), lb.RateSpec(0.0, 0.0, U=None))
    ch = ControlChannels(omega_rg=1.0, U=None)
    rho = lb.propagate_rho(model, ch,
                           _pure_state(model, (0, 0, 0, 0, 0, 0)), np.pi)
    i1 = model.basis.index_of((1, 0, 0, 0, 0, 0))
    assert abs(rho[i1, i1].real - 1.0) < 1e-8


def test_closed_system_preserves_purity():
    model = lb.build_effective_model(
        TruncationSpec(2, 2, 1, total_max=2), lb.RateSpec(0.0, 0.0, U=8.0))
    ch = ControlChannels(omega_rg=1.0, omega_rq=0.7, U=8.0)
    rho = lb.propagate_rho(model, ch,
                           _pure_state(model, (0, 0, 0, 0, 0, 0)), 2.0)
    purity = np.trace(rho @ rho).real
    assert abs(purity - 1.0) < 1e-10


def test_cptp_audit_under_drive_and_decoherence():
    model = lb.build_effective_model(
        lb.BENCHMARK_TRUNCATION, lb.RateSpec(0.02, 0.03, U=5.0),
        include_l=False, lost_channels=1)
    ch = ControlChannels(omega_rg=1.0, U=5.0)
    rho = lb.propagate_rho(model, ch,
                           _pure_state(model, (0, 0, 0, 0, 0, 0)), 3.0)
    assert abs(np.trace(rho).real - 1.0) < 1e-9
    assert np.abs(rho - rho.conj().T).max() < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-9


def test_liouvillian_propagator_identity_at_t0():
    model = lb.build_effective_model(
        TruncationSpec(1, 1, 0), lb.RateSpec(0.01, 0.01, U=None))
    W = lb.liouvillian_propagator(model, ControlChannels(U=None), 0.0)
    assert np.abs(W.matrix - np.eye(model.dim ** 2)).max() == 0.0


def test_liouvillian_propagator_matches_direct_propagation():
    model = lb.build_effective_model(
        TruncationSpec(1, 1, 0, 1, 1, 0), lb.RateSpec(0.02, 0.05, U=0.0),
        include_l=False)
    ch = ControlChannels(omega_rg=0.9, omega_rq=0.6, U=0.0)
    T = 1.3
    W = lb.liouvillian_propagator(model, ch, T)
    assert W.trace_preservation_defect() < 1e-9
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = rng.normal(size=(model.dim, model.dim)) + \
            1j * rng.normal(size=(model.dim, model.dim))
        rho0 = A @ A.conj().T
        rho0 /= np.trace(rho0)
        direct = lb.propagate_rho(model, ch, rho0, T)
        assert np.abs(W.apply(rho0) - direct).max() < 1e-8


def test_liouvillian_matrix_consistent_with_propagator():
    model = lb.build_effective_model(
        TruncationSpec(1, 0, 0, 1, 0, 0), lb.RateSpec(0.1, 0.2, U=0.0),
        include_l=False, lost_channels=1)
    ch = ControlChannels(omega_rg=1.1, U=0.0)
    T = 0.8
    L = lb.liouvillian_matrix(model, ch, 0.0)
    W = lb.liouvillian_propagator(model, ch, T)
    assert np.abs(expm(L * T) - W.matrix).max() < 1e-8


class _Captured(Exception):
    pass


def stack_generator(model, channels, t, monkeypatch):
    """The column-stacked L(t) that propagate_stack integrates: its
    right-hand side evaluated on the matrix units, which are the identity
    in the solver's state layout."""
    def capture(fun, t_span, y0, **kwargs):
        raise _Captured(fun, y0)

    n = model.dim ** 2
    units = np.eye(n, dtype=complex).reshape(n, model.dim, model.dim)
    with monkeypatch.context() as m:
        m.setattr(lb, "solve_ivp", capture)
        with pytest.raises(_Captured) as info:
            lb.propagate_stack(model, channels, units.transpose(0, 2, 1), 1.0)
    fun, y0 = info.value.args
    assert np.array_equal(y0, np.eye(n).ravel())
    return fun(t, y0).reshape(n, n)


@pytest.mark.parametrize("trunc, rates, channels, lost", [
    (TruncationSpec(2, 1, 1, 1, 1, 1, total_max=2, mixed_total_max=1),
     lb.RateSpec(0.03, 0.05, U=4.0),
     ControlChannels(omega_rg=0.3 + 0.2j, omega_rq=lambda t: -0.5 + 0.7j * t,
                     omega_rl=0.4 - 0.6j, delta_rq=0.35, U=4.0), 1),
    (TruncationSpec(1, 1, 1, 1, 1, 1, mixed_total_max=1,
                    rydberg_total_max=1),
     lb.RateSpec(0.02, 0.04, U=None),
     ControlChannels(omega_rg=0.7j, omega_rq=0.2 + 0.9j,
                     omega_rl=lambda t: 0.5 * t - 0.1j, U=None), 0),
], ids=["finite-U-absorber", "ideal-blockade"])
def test_sparse_generator_matches_dense_liouvillian(trunc, rates, channels,
                                                    lost, monkeypatch):
    model = lb.build_effective_model(trunc, rates, include_l=not lost,
                                     lost_channels=lost)
    assert (model.absorber_index is not None) == bool(lost)
    t = 0.7
    L = stack_generator(model, channels, t, monkeypatch)
    assert np.abs(L - lb.liouvillian_matrix(model, channels, t)).max() < 1e-12


@pytest.mark.parametrize("channels", [
    ControlChannels(omega_rq=lambda t: np.nan, U=0.0),
    ControlChannels(omega_rg=1.0, U=np.inf),
    ControlChannels(omega_rg=1.0, U=None),
], ids=["nan-amplitude", "non-finite-U", "ideal-blockade-guard"])
def test_propagation_rejects_bad_drives(channels):
    model = lb.build_effective_model(
        TruncationSpec(2, 1, 0, 1, 1, 0), lb.RateSpec(0.01, 0.01, U=0.0),
        include_l=False)
    with pytest.raises(ValueError):
        lb.propagate_rho(model, channels,
                         _pure_state(model, (0, 0, 0, 0, 0, 0)), 0.5)
    with pytest.raises(ValueError):
        lb.constant_propagator(model, channels, 0.5)


def test_constant_drive_exponential_matches_ode():
    """One Liouvillian exponential against the DOP853 path: complex
    amplitudes, a detuning, finite U, decay, dephasing and the absorber."""
    model = lb.build_effective_model(lb.BENCHMARK_TRUNCATION,
                                     lb.RateSpec(0.03, 0.05, U=4.0),
                                     include_l=False, lost_channels=1)
    channels = ControlChannels(omega_rg=0.8 + 0.3j, omega_rq=-0.4 + 0.6j,
                               delta_rq=0.35, U=4.0)
    W = lb.constant_propagator(model, channels, 2.3)
    ref = lb.liouvillian_propagator(model, channels, 2.3, rtol=1e-12,
                                    atol=1e-14)
    assert np.abs(W.matrix - ref.matrix).max() < 1e-9


def test_exact_closed_exponential_matches_ode():
    """Without rates propagate_exact exponentiates H; a decay rate of 1e-14
    switches it to the DOP853 path while changing rho by far less than the
    1e-9 tolerance."""
    U, T = 5.0, 2.3
    closed = lb.build_exact_model(3, lb.RateSpec(0.0, 0.0, U=U))
    open_ = lb.build_exact_model(3, lb.RateSpec(1e-14, 0.0, U=U))
    assert not closed.jumps and open_.jumps
    psi = np.zeros(closed.dim, dtype=complex)
    psi[closed.basis.index_of(("g",))] = 0.6
    psi[closed.basis.index_of(("q", 1))] = 0.8j
    rho0 = np.outer(psi, psi.conj())
    got = lb.propagate_exact(closed, 0.7 + 0.3j, -0.4 + 0.5j, rho0, T)
    ref = lb.propagate_exact(open_, 0.7 + 0.3j, -0.4 + 0.5j, rho0, T,
                             rtol=1e-12, atol=1e-14)
    assert lb.exact_populations(closed, got)["p_rr"] > 1e-3
    assert np.abs(got - ref).max() < 1e-9


def test_exact_basis_dimension_and_roundtrip():
    b = lb.ExactBasis(20)
    assert b.dim == 2 * 20 * 20 + 2          # 801 physical + absorber
    assert len([s for s in b.states if s[0] != "A"]) == 801
    for s in (("g",), ("q", 3), ("rq", 2, 5), ("rr", 1, 4)):
        assert b.states[b.index_of(s)] == s
        assert b.from_occupations(b.occupations(s)) == s
    with pytest.raises(ValueError):
        lb.ExactBasis(21)


def test_exact_single_atom_matches_three_level_oracle():
    """N=1: the exact model is a driven dissipative three-level atom with
    one loss channel; integrate the 4x4 master equation directly."""
    gr, gp, om = 0.07, 0.05, 1.0
    model = lb.build_exact_model(1, lb.RateSpec(gr, gp, U=0.0))
    rho0 = np.zeros((model.dim, model.dim), dtype=complex)
    rho0[model.basis.index_of(("g",)), model.basis.index_of(("g",))] = 1.0
    T = 2.6
    got = lb.propagate_exact(model, om, 0.0, rho0, T, rtol=1e-10, atol=1e-12)

    # oracle basis (g, q, r, lost)
    H = np.zeros((4, 4), dtype=complex)
    H[0, 2] = H[2, 0] = om / 2.0
    jumps = [np.sqrt(gr) * np.outer(np.eye(4)[0], np.eye(4)[2]),
             np.sqrt(gr) * np.outer(np.eye(4)[1], np.eye(4)[2]),
             np.sqrt(gr) * np.outer(np.eye(4)[3], np.eye(4)[2]),
             np.sqrt(gp) * np.diag([0.0, 0.0, 1.0, 0.0])]

    def rhs(t, y):
        rho = y.reshape(4, 4)
        out = -1j * (H @ rho - rho @ H)
        for C in jumps:
            CdC = C.conj().T @ C
            out += C @ rho @ C.conj().T - 0.5 * (CdC @ rho + rho @ CdC)
        return out.ravel()

    r0 = np.zeros((4, 4), dtype=complex)
    r0[0, 0] = 1.0
    sol = solve_ivp(rhs, (0, T), r0.ravel(), method="DOP853",
                    rtol=1e-10, atol=1e-12)
    ora = sol.y[:, -1].reshape(4, 4)
    order = [("g",), ("q", 0), ("r", 0), ("A",)]
    idx = [model.basis.index_of(s) for s in order]
    assert np.abs(got[np.ix_(idx, idx)] - ora).max() < 1e-8


def test_exact_blockade_limit_suppresses_double_excitation():
    model = lb.build_exact_model(5, lb.RateSpec(0.0, 0.0, U=4000.0))
    rho0 = np.zeros((model.dim, model.dim), dtype=complex)
    rho0[0, 0] = 1.0
    rho = lb.propagate_exact(model, 1.0, 0.0, rho0, 4.0,
                             rtol=1e-10, atol=1e-12)
    assert lb.exact_populations(model, rho)["p_rr"] < 1e-6


def test_embedding_vacuum_and_t0():
    rates = lb.RateSpec(0.016, 0.016, U=5.0)
    me = lb.build_effective_model(lb.BENCHMARK_TRUNCATION, rates,
                                  include_l=False, lost_channels=1)
    mx = lb.build_exact_model(6, rates)
    rho_e = _pure_state(me, (0, 0, 0, 0, 0, 0))
    rho_x = np.zeros((mx.dim, mx.dim), dtype=complex)
    rho_x[mx.basis.index_of(("g",)), mx.basis.index_of(("g",))] = 1.0
    assert abs(lb.embed_and_compare(rho_e, me, rho_x, mx) - 1.0) < 1e-12


def test_embedding_collective_state_structure():
    """One coherent Rydberg quantum embeds as u_i u_j* |r_i><r_j|; one mixed
    quantum embeds as the diagonal |u_i|^2 |r_i><r_i|."""
    rates = lb.RateSpec(0.01, 0.01, U=5.0)
    me = lb.build_effective_model(lb.BENCHMARK_TRUNCATION, rates,
                                  include_l=False, lost_channels=1)
    N = 4
    mx = lb.build_exact_model(N, rates)
    u = mx.u
    for state, expect in (
        ((1, 0, 0, 0, 0, 0),
         lambda i, j: u[i] * np.conj(u[j])),
        ((0, 0, 0, 1, 0, 0),
         lambda i, j: (abs(u[i]) ** 2 if i == j else 0.0)),
    ):
        rho_mb = lb.embed_effective(_pure_state(me, state), me, mx)
        for i in range(N):
            for j in range(N):
                got = rho_mb[mx.basis.index_of(("r", i)),
                             mx.basis.index_of(("r", j))]
                assert abs(got - expect(i, j)) < 1e-12


def test_embedding_pi_pulse_fidelity_n8():
    rates = lb.RateSpec(0.016, 0.0, U=5.0)
    me = lb.build_effective_model(lb.BENCHMARK_TRUNCATION, rates,
                                  include_l=False, lost_channels=1)
    mx = lb.build_exact_model(8, rates)
    ch = ControlChannels(omega_rg=1.0, U=5.0)
    rho_e = lb.propagate_rho(me, ch, _pure_state(me, (0, 0, 0, 0, 0, 0)),
                             np.pi)
    rho_x = np.zeros((mx.dim, mx.dim), dtype=complex)
    rho_x[mx.basis.index_of(("g",)), mx.basis.index_of(("g",))] = 1.0
    rho_x = lb.propagate_exact(mx, 1.0, 0.0, rho_x, np.pi)
    assert 1.0 - lb.embed_and_compare(rho_e, me, rho_x, mx) <= 1e-2


def test_uhlmann_fidelity_properties():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = A @ A.conj().T
    rho /= np.trace(rho)
    assert abs(lb.uhlmann_fidelity(rho, rho) - 1.0) < 1e-10
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    pure = np.outer(psi, psi.conj())
    overlap = float(np.real(psi.conj() @ rho @ psi))
    assert abs(lb.uhlmann_fidelity(pure, rho) - overlap) < 1e-7
    with pytest.raises(ValueError):
        lb.uhlmann_fidelity(np.diag([1.5, -0.5]).astype(complex),
                            np.eye(2, dtype=complex) / 2)


def test_raman_benchmark_ideal_transfers():
    rates = lb.RateSpec(0.0, 0.0, U=4000.0)
    res = lb.raman_benchmark(5, rates, 4, samples_per_pulse=1,
                             rtol_exact=1e-10, atol_exact=1e-12)
    assert res.final_infidelity <= 1e-6
    assert res.max_population_deviation() <= 1e-6
    # after an odd transfer the population sits on q, after an even one on g
    assert res.populations_exact["p_q"][2] > 0.999
    assert res.populations_exact["p_g"][4] > 0.999


def test_raman_benchmark_small_lossy():
    rates = lb.RateSpec(0.016, 0.016, U=5.0)
    res = lb.raman_benchmark(6, rates, 2, samples_per_pulse=1)
    assert res.final_infidelity <= 0.05
    # finite-size corrections scale as 1/N; at N=6 the agreement is looser
    # than the N=20 figure exercised by the acceptance suite
    assert res.max_population_deviation() <= 0.05
    assert len(res.infidelities) == 2
    rows = res.rows("eff")
    assert rows[0][0] == 1 and len(rows[0]) == 6


@pytest.mark.slow
def test_raman_benchmark_degrades_monotonically_with_rates():
    # the trend holds in the strong-driving operating regime; at rates
    # approaching the drive the absorber swallows both models identically
    # and the discrepancy saturates
    finals = []
    for scale in (0.002, 0.008, 0.032):
        rates = lb.RateSpec(scale, scale, U=5.0)
        res = lb.raman_benchmark(6, rates, 2, samples_per_pulse=1)
        finals.append(res.final_infidelity)
    assert finals[0] < finals[1] < finals[2]


def test_raman_benchmark_argument_guard():
    with pytest.raises(ValueError):
        lb.raman_benchmark(4, lb.RateSpec(0.0, 0.0, U=5.0), 0)

"""Optimal-control pulse synthesis: ansatz, gradients, cost, references."""

import numpy as np
import pytest

from seqphoton import goat
from seqphoton.collective import FockBasis, TruncationSpec
from seqphoton.mps import IsometryTarget


SMALL_BASIS = FockBasis(TruncationSpec(1, 1, 1))


def _random_params(rng, j_max=2, T=6.0):
    amps = rng.normal(scale=0.5, size=(goat.N_COMP, j_max))
    freqs = rng.uniform(0.3, 1.5, size=goat.N_COMP)
    return goat.PulseParams(amps, freqs, T=T)


def test_pulse_params_validation():
    with pytest.raises(ValueError):
        goat.PulseParams(np.zeros((3, 2)), np.ones(6))
    with pytest.raises(ValueError):
        goat.PulseParams(np.zeros((6, 2)), np.ones(6), T=-1.0)


def test_component_amplitude_bound_and_envelope():
    rng = np.random.default_rng(0)
    p = _random_params(rng)
    ts = np.linspace(0.0, p.T, 200)
    vals = np.array([goat.component_values(p, t) for t in ts])
    assert np.abs(vals).max() <= p.b + 1e-12
    # switch-off envelope: the pulse vanishes at t = T
    assert np.abs(goat.component_values(p, p.T)).max() < 1e-12


def test_pulse_eval_zero_and_window():
    p = goat.PulseParams(np.zeros((goat.N_COMP, 3)), np.ones(goat.N_COMP))
    amps = goat.pulse_eval(p, 1.0)
    assert all(v == 0.0 for v in amps.values())
    assert set(amps) == {"rg", "rq", "rl"}
    with pytest.raises(ValueError):
        goat.pulse_eval(p, p.T + 0.1)


def test_component_grads_match_finite_differences():
    rng = np.random.default_rng(1)
    p = _random_params(rng)
    t = 2.37
    vals, dv = goat.component_values_and_grads(p, t)
    dv_dA, dv_dw = dv[:, :p.j_max], dv[:, p.j_max]
    assert np.allclose(vals, goat.component_values(p, t))
    eps = 1e-7
    for c in (0, 3):
        for k in range(p.j_max):
            dA = np.zeros_like(p.amplitudes)
            dA[c, k] = eps
            plus = goat.component_values(
                goat.PulseParams(p.amplitudes + dA, p.freqs, T=p.T), t)
            minus = goat.component_values(
                goat.PulseParams(p.amplitudes - dA, p.freqs, T=p.T), t)
            fd = (plus - minus)[c] / (2 * eps)
            assert abs(fd - dv_dA[c, k]) < 1e-6
        dw = np.zeros_like(p.freqs)
        dw[c] = eps
        fd = (goat.component_values(
            goat.PulseParams(p.amplitudes, p.freqs + dw, T=p.T), t)
            - goat.component_values(
                goat.PulseParams(p.amplitudes, p.freqs - dw, T=p.T), t)
        )[c] / (2 * eps)
        assert abs(fd - dv_dw[c]) < 1e-6


def test_propagator_unitarity():
    rng = np.random.default_rng(2)
    p = _random_params(rng)
    U, dU = goat.propagate_with_gradient(p, SMALL_BASIS)
    dim = SMALL_BASIS.dim
    assert np.abs(U.conj().T @ U - np.eye(dim)).max() < 1e-9
    assert dU.shape == (p.n_params, dim, dim)


def test_propagator_gradient_vs_central_differences():
    """Directional derivative of the cost via the analytic gradient vs
    central finite differences, 20 random draws."""
    basis = SMALL_BASIS
    rows = goat.source_space_rows(basis, 2, 2)
    V = np.zeros((4, 2), dtype=complex)
    V[0, 0] = V[1, 1] = 1.0   # identity embedding as a nontrivial target
    target = IsometryTarget(V, rows)
    rng = np.random.default_rng(3)
    template = _random_params(rng, j_max=2, T=4.0)
    eps = 1e-6
    worst = 0.0
    for _ in range(20):
        p = _random_params(rng, j_max=2, T=4.0)
        x = goat._pack(p)
        U, dU = goat.propagate_with_gradient(p, basis, rtol=1e-10, atol=1e-12)
        cost = goat.cost_and_gradient(U, dU, target, basis, penalty=0.7)
        direction = rng.normal(size=x.size)
        direction /= np.linalg.norm(direction)
        analytic = float(cost.gradient @ direction)

        def g_at(xv):
            pp = goat._unpack(xv, template)
            Uv, _ = goat.propagate_with_gradient(pp, basis,
                                                 rtol=1e-10, atol=1e-12)
            return goat.cost_and_gradient(Uv, None, target, basis,
                                          penalty=0.7).g

        fd = (g_at(x + eps * direction) - g_at(x - eps * direction)) / (2 * eps)
        rel = abs(analytic - fd) / max(abs(fd), 1e-10)
        worst = max(worst, rel)
    assert worst <= 1e-5


def test_cost_perfect_and_leakage():
    basis = SMALL_BASIS
    rows = goat.source_space_rows(basis, 2, 2)
    V = np.zeros((4, 2), dtype=complex)
    V[0, 0] = V[1, 1] = 1.0
    target = IsometryTarget(V, rows)
    # identity propagator realizes the identity embedding exactly
    cost = goat.cost_and_gradient(np.eye(basis.dim), None, target, basis)
    assert abs(cost.g) < 1e-12 and abs(cost.F_O) < 1e-15
    assert goat.g_v(np.eye(basis.dim), target, basis) < 1e-12
    # a permutation moving source columns out of the source space leaks fully
    P = np.eye(basis.dim)[np.random.default_rng(0).permutation(basis.dim)]
    cols = rows[:2]
    comp = [i for i in range(basis.dim) if i not in rows]
    leak = goat.cost_and_gradient(P.astype(complex), None, target, basis,
                                  penalty=1.0)
    expected_leak = sum(np.abs(P[np.ix_(comp, cols)]) ** 2)
    assert abs(leak.F_O - float(np.sum(expected_leak))) < 1e-12


def test_cost_gradient_matches_block_loop():
    """The contracted cost and gradient against the block formulas evaluated
    one parameter at a time, on a random U and dU of the GHZ d=3 problem."""
    basis, target = goat.ghz_synthesis_problem(3)
    rng = np.random.default_rng(4)
    N, P = basis.dim, 12

    def crandn(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    U, dU = crandn(N, N), crandn(P, N, N)
    cost = goat.cost_and_gradient(U, dU, target, basis, penalty=0.7)
    rows = list(target.source_rows)
    cols = rows[:target.D]
    comp = [i for i in range(N) if i not in rows]
    Vh = target.V_hat.conj().T
    F_V = np.trace(Vh @ U[np.ix_(rows, cols)])
    Op = U[np.ix_(comp, cols)]
    expected = [
        -np.real(np.conj(F_V) * np.trace(Vh @ dUp[np.ix_(rows, cols)]))
        / (target.D * abs(F_V))
        + 1.4 * np.real(np.trace(Op.conj().T @ dUp[np.ix_(comp, cols)]))
        / target.D
        for dUp in dU]
    assert abs(cost.F_V - F_V) <= 1e-12 * abs(F_V)
    assert abs(cost.F_O - np.sum(np.abs(Op) ** 2)) <= 1e-12 * cost.F_O
    assert np.allclose(cost.gradient, expected, rtol=1e-12, atol=0.0)


def test_zero_pulse_shortcut():
    basis = SMALL_BASIS
    rows = (basis.vacuum_index(),)
    target = IsometryTarget(np.eye(1, dtype=complex), rows)
    res = goat.synthesize(target, basis, goat.GoatConfig(restarts=2))
    assert res.converged and res.n_restarts_used == 0
    assert res.g_v <= 1e-12


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    p = _random_params(rng, j_max=4, T=17.0)
    path = tmp_path / "pulse.txt"
    goat.save_pulse(p, path)
    q = goat.load_pulse(path)
    assert np.array_equal(p.amplitudes, q.amplitudes)
    assert np.array_equal(p.freqs, q.freqs)
    assert q.T == p.T and q.b == p.b and q.g1 == p.g1
    assert q.g2 == p.g2_value


def test_synthesis_problem_shapes():
    basis, target = goat.cluster_synthesis_problem()
    assert basis.dim == 18
    assert target.d == 2 and target.D == 2
    basis3, target3 = goat.ghz_synthesis_problem(3)
    assert basis3.dim == 32
    assert target3.d == 3 and target3.D == 3


@pytest.mark.slow
def test_reference_pulse_cluster_quality():
    basis, target = goat.cluster_synthesis_problem()
    p = goat.reference_pulse("cluster")
    U, _ = goat.propagate_with_gradient(p, basis, rtol=1e-9, atol=1e-11)
    assert goat.g_v(U, target, basis) <= 1e-3


@pytest.mark.slow
def test_reference_pulse_ghz_quality():
    basis, target = goat.ghz_synthesis_problem(3)
    p = goat.reference_pulse("ghz_d3")
    U, _ = goat.propagate_with_gradient(p, basis, rtol=1e-9, atol=1e-11)
    assert goat.g_v(U, target, basis) <= 5e-3

"""Release acceptance suite: one test per acceptance criterion, each at its
stated tolerance, each emitting a single PASS/FAIL line.

Several criteria are computationally heavy (tens of minutes); they share
session-scoped fixtures.  Criteria that consume the shipped reference pulse
or the shipped retrieval-error tables fail honestly when those artifacts are
missing or stale (each table is spot-checked against a live recomputation).
"""

import math
import time
from importlib import resources

import numpy as np
import pytest
import yaml

from seqphoton import gates, goat
from seqphoton import lindblad as lb
from seqphoton import pipeline as pl
from seqphoton import retrieval as rt
from seqphoton.cli import run as cli_run
from seqphoton.collective import ControlChannels, FockBasis, TruncationSpec
from seqphoton.gates import StarkPulseSpec
from seqphoton.geometry import ArrayGeometry
from seqphoton.lindblad import RateSpec
from seqphoton.mps import (CLUSTER_FINAL, CLUSTER_INTERIOR, IsometryTarget,
                           build_cluster, build_ghz, dense_state,
                           ideal_sequential_simulate, state_fidelity)

pytestmark = pytest.mark.acceptance


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}"
          f"{' [' + detail + ']' if detail else ''}")
    assert ok, f"criterion {num}: {description} {detail}"


def _data_path(name: str):
    return resources.files("seqphoton") / "data" / name


# ---------------------------------------------------------------------------
# Shared heavy fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def cluster_pulse():
    try:
        return goat.reference_pulse("cluster")
    except FileNotFoundError:
        pytest.fail("shipped reference pulse 'cluster' is missing")


@pytest.fixture(scope="session")
def fitted_budget(cluster_pulse):
    """Noise coefficients of the shipped pulse (minutes of runtime)."""
    return pl.fit_betas(cluster_pulse)


def _load_table(name: str) -> dict:
    path = _data_path(name)
    if not path.is_file():
        pytest.fail(f"shipped retrieval table {name} is missing")
    entries = {}
    with open(path) as fh:
        fh.readline()
        for line in fh:
            scheme, lv, lz, err = line.strip().split(",")
            entries[(scheme, int(lv), int(lz))] = float(err)
    return entries


@pytest.fixture(scope="session")
def optimal_table():
    return _load_table("retrieval_optimal.csv")


@pytest.fixture(scope="session")
def gaussian_table():
    return _load_table("retrieval_gaussian.csv")


# ---------------------------------------------------------------------------
# 1. Ideal-protocol oracle
# ---------------------------------------------------------------------------

def test_criterion_01_ideal_protocol_oracle():
    t0 = time.time()
    worst = 1.0
    for mps in (build_cluster(3), build_ghz(4, 3)):
        psi, norm = ideal_sequential_simulate(mps.tensors, mps.phi_I,
                                              mps.phi_F)
        worst = min(worst, state_fidelity(psi, dense_state(mps)))
        assert abs(norm - 1.0) < 1e-10
    elapsed = time.time() - t0
    report(1, "ideal sequential protocol reproduces cluster(3) and "
           "GHZ(4,3)", worst >= 1.0 - 1e-10 and elapsed < 1.0,
           f"min fidelity {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Gate identities
# ---------------------------------------------------------------------------

def test_criterion_02_gate_identities():
    t0 = time.time()
    leak_swap = gates.leakage(gates.compose_swap())
    leak_cnot = gates.leakage(gates.compose_cnot())
    ratios = np.array([10.0, 20.0, 40.0, 80.0, 100.0])
    errs = [gates.stark_residual_error(StarkPulseSpec(1.0, r, np.pi / 2))
            for r in ratios]
    slope = float(np.polyfit(np.log(ratios), np.log(errs), 1)[0])
    elapsed = time.time() - t0
    ok = (leak_swap <= 1e-12 and leak_cnot <= 1e-12
          and abs(slope + 2.0) <= 0.1 and elapsed < 60.0)
    report(2, "SWAP/CNOT leakage and Stark residual scaling", ok,
           f"leakage {max(leak_swap, leak_cnot):.2e}, slope {slope:.3f}")


# ---------------------------------------------------------------------------
# 3. Optimal control: gradients and shipped pulse quality
# ---------------------------------------------------------------------------

def test_criterion_03a_analytic_gradient():
    basis = FockBasis(TruncationSpec(1, 1, 1))
    rows = goat.source_space_rows(basis, 2, 2)
    V = np.zeros((4, 2), dtype=complex)
    V[0, 0] = V[1, 1] = 1.0
    target = IsometryTarget(V, rows)
    rng = np.random.default_rng(11)

    def draw():
        return goat.PulseParams(rng.normal(scale=0.5, size=(goat.N_COMP, 2)),
                                rng.uniform(0.3, 1.5, size=goat.N_COMP),
                                T=5.0)

    template = draw()
    eps = 1e-6
    worst = 0.0
    for _ in range(20):
        p = draw()
        x = goat._pack(p)
        U, dU = goat.propagate_with_gradient(p, basis, rtol=1e-10,
                                             atol=1e-12)
        cost = goat.cost_and_gradient(U, dU, target, basis, penalty=0.7)
        direction = rng.normal(size=x.size)
        direction /= np.linalg.norm(direction)
        analytic = float(cost.gradient @ direction)

        def value(xv):
            pp = goat._unpack(xv, template)
            Uv, _ = goat.propagate_with_gradient(pp, basis, rtol=1e-10,
                                                 atol=1e-12)
            return goat.cost_and_gradient(Uv, None, target, basis,
                                          penalty=0.7).g

        fd = (value(x + eps * direction)
              - value(x - eps * direction)) / (2 * eps)
        worst = max(worst, abs(analytic - fd) / max(abs(fd), 1e-10))
    report(3, "analytic gradient vs central differences (20 draws)",
           worst <= 1e-5, f"worst relative error {worst:.2e}")


@pytest.mark.slow
def test_criterion_03b_shipped_pulse_quality(cluster_pulse):
    basis, target = goat.cluster_synthesis_problem()
    U, _ = goat.propagate_with_gradient(cluster_pulse, basis, 1e-10, 1e-12)
    g_cl = goat.g_v(U, target, basis)
    try:
        ghz_pulse = goat.reference_pulse("ghz_d3")
    except FileNotFoundError:
        pytest.fail("shipped reference pulse 'ghz_d3' is missing")
    basis_g, target_g = goat.ghz_synthesis_problem(3)
    Ug, _ = goat.propagate_with_gradient(ghz_pulse, basis_g, 1e-10, 1e-12)
    g_ghz = goat.g_v(Ug, target_g, basis_g)
    report(3, "shipped pulses reach the target isometries",
           g_cl <= 1e-3 and g_ghz <= 5e-3,
           f"cluster g_V {g_cl:.2e}, ghz(d=3) g_V {g_ghz:.2e}")


# ---------------------------------------------------------------------------
# 4. Effective-model closed forms
# ---------------------------------------------------------------------------

def test_criterion_04_effective_model_closed_forms():
    t0 = time.time()
    worst = 0.0
    # pure decay from one coherent Rydberg quantum, three equal channels
    gr = 0.11
    model = lb.build_effective_model(TruncationSpec(1, 1, 1, 1, 1, 1),
                                     RateSpec(gr, 0.0, U=0.0))
    b = model.basis
    rho0 = np.zeros((model.dim, model.dim), dtype=complex)
    rho0[b.index_of((1, 0, 0, 0, 0, 0)), b.index_of((1, 0, 0, 0, 0, 0))] = 1
    for t in (0.3, 0.8, 1.5, 2.4, 4.0):
        rho = lb.propagate_rho(model, ControlChannels(U=0.0), rho0, t)
        coh = math.exp(-3.0 * gr * t)
        third = (1.0 - coh) / 3.0
        worst = max(worst, abs(rho[b.index_of((1, 0, 0, 0, 0, 0)),
                                   b.index_of((1, 0, 0, 0, 0, 0))].real - coh))
        for state in ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0),
                      (0, 0, 0, 0, 0, 1)):
            i = b.index_of(state)
            worst = max(worst, abs(rho[i, i].real - third))
    # pure dephasing from two coherent Rydberg quanta
    gp = 0.13
    model = lb.build_effective_model(TruncationSpec(2, 0, 0, m_r_max=2),
                                     RateSpec(0.0, gp, U=0.0),
                                     include_l=False)
    b = model.basis
    rho0 = np.zeros((model.dim, model.dim), dtype=complex)
    rho0[b.index_of((2, 0, 0, 0, 0, 0)), b.index_of((2, 0, 0, 0, 0, 0))] = 1
    for t in (0.3, 0.9, 1.5, 2.1, 3.5):
        rho = lb.propagate_rho(model, ControlChannels(U=0.0), rho0, t)
        w2 = math.exp(-2.0 * gp * t)
        w1 = 2.0 * gp * t * math.exp(-2.0 * gp * t)
        for state, w in (((2, 0, 0, 0, 0, 0), w2),
                         ((1, 0, 0, 1, 0, 0), w1),
                         ((0, 0, 0, 2, 0, 0), 1.0 - w2 - w1)):
            i = b.index_of(state)
            worst = max(worst, abs(rho[i, i].real - w))
    elapsed = time.time() - t0
    report(4, "pure-decay and pure-dephasing closed forms (5 points each)",
           worst <= 1e-6 and elapsed < 10.0,
           f"worst deviation {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. N = 20 Raman-transfer benchmark
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_05_raman_benchmark_n20():
    t0 = time.time()
    result = lb.raman_benchmark(20, RateSpec(0.016, 0.016, U=5.0), 10)
    dev = result.max_population_deviation()
    infid = result.final_infidelity
    elapsed = time.time() - t0
    report(5, "N=20 effective vs exact Raman benchmark",
           dev <= 0.02 and infid <= 0.05 and elapsed < 1200.0,
           f"max pop. deviation {dev:.4f}, final infidelity {infid:.4f}, "
           f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Error-per-photon scaling with the shipped pulse
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_06a_beta_fit(fitted_budget):
    budget = fitted_budget
    r2_ok = all(ax.r_squared >= 0.98 for ax in budget.axes)
    bands = {"beta_r": (budget.beta_r, 17.1), "beta_phi": (budget.beta_phi,
             6.7), "beta_U": (budget.beta_U, 1.9),
             "beta_em": (budget.beta_em, 0.48)}
    in_band = all(abs(v - ref) <= 0.3 * ref for v, ref in bands.values())
    detail = ", ".join(f"{k} {v:.3g} (ref {ref})"
                       for k, (v, ref) in bands.items())
    report(6, "xi linear per noise axis; coefficients in the +-30% bands",
           r2_ok and in_band and budget.beta_0 <= 2e-3,
           detail + f", beta_0 {budget.beta_0:.2e}, min R^2 "
           f"{min(ax.r_squared for ax in budget.axes):.4f}")


@pytest.mark.slow
def test_criterion_06b_mpdo_vs_dense_with_pulse(cluster_pulse):
    cfg = pl.ProtocolConfig(pulse=cluster_pulse, gamma_r=1e-3,
                            gamma_phi=5e-4, U=30.0, p_em=0.9)
    interior, closing, basis = pl.protocol_round_maps(cfg)
    ik, ck = pl.protocol_kernels(cfg, basis)
    mps = build_cluster(4)
    F = pl.photonic_fidelity([interior] * 3 + [closing], mps)
    Fd = pl.dense_photonic_fidelity([ik] * 3 + [ck], cfg.emission_spec(),
                                    mps)
    report(6, "MPDO contraction equals dense simulation at n = 4",
           abs(F - Fd) <= 1e-10, f"|F - F_dense| = {abs(F - Fd):.2e}")


# ---------------------------------------------------------------------------
# 7. Retrieval scalings (shipped tables, spot-checked live)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_07_retrieval_scalings(optimal_table, gaussian_table):
    # spot-check one shipped entry against a live recomputation
    geo = ArrayGeometry(6, 6, 2, 0.6)
    rep = rt.retrieval_report(geo, [rt.DetectionMode("uni", w0)
                                    for w0 in rt.default_waists(geo)])
    ok_spot = (abs(rep.eps_opt - optimal_table[("uni", 6, 2)]) <= 1e-10
               and abs(rep.eps_gauss - gaussian_table[("uni", 6, 2)])
               <= 1e-10)
    # two-directional single layer: eps_opt = a (log L)^2 / L^4
    lvs = np.array([6, 8, 10, 12, 14], dtype=float)
    eps2 = np.array([optimal_table[("two-directional", int(l), 1)]
                     for l in lvs])
    g = np.log(lvs) ** 2 / lvs ** 4
    a = float((g @ eps2) / (g @ g))
    r2_2dir = 1.0 - float(np.sum((eps2 - a * g) ** 2)
                          / np.sum((eps2 - eps2.mean()) ** 2))
    # uni-directional Gaussian error vs array depth at L_v = 10
    lzs = np.array([2, 4, 6, 8], dtype=float)
    eps_u = np.array([gaussian_table[("uni", 10, int(z))] for z in lzs])
    slope, intercept = np.polyfit(np.log(lzs), np.log(eps_u), 1)
    prefactor = float(np.exp(intercept))
    # error decomposition: eps_uni ~ 0.84 / L_z + eps_two-directional
    eps_2 = np.array([gaussian_table[("two-directional", 10, int(z))]
                      for z in lzs])
    decomp = np.abs(eps_u - (0.84 / lzs + eps_2)) / eps_u
    ok = (ok_spot and r2_2dir >= 0.98
          and abs(slope + 1.0) <= 0.15
          and abs(prefactor - 0.84) <= 0.3 * 0.84
          and decomp.max() <= 0.2)
    report(7, "retrieval-error scalings in L_v and L_z", ok,
           f"a {a:.3f} (R^2 {r2_2dir:.4f}), L_z exponent {slope:.3f}, "
           f"prefactor {prefactor:.3f}, decomposition worst "
           f"{decomp.max():.1%}, spot check {'ok' if ok_spot else 'STALE'}")


# ---------------------------------------------------------------------------
# 8. Disorder robustness
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_08_disorder():
    mode = rt.DetectionMode("two-directional", 1.2)
    small = rt.defect_study(ArrayGeometry(6, 6, 1, 0.6), mode,
                            n_realizations=50, seed=5)
    large = rt.defect_study(ArrayGeometry(10, 10, 1, 0.6), mode,
                            n_realizations=50, seed=5)
    thermal = rt.thermal_study(ArrayGeometry(6, 6, 1, 0.6), mode,
                               n_realizations=50, seed=5)
    ok = (small.r_squared >= 0.9 and large.r_squared >= 0.9
          and large.alpha_def < small.alpha_def
          and abs(thermal.exponent - 2.0) <= 0.3)
    report(8, "defect-drop linearity and thermal disorder exponent", ok,
           f"R^2 {small.r_squared:.3f}/{large.r_squared:.3f}, alpha "
           f"{small.alpha_def:.3f} -> {large.alpha_def:.3f}, thermal "
           f"exponent {thermal.exponent:.3f}")


# ---------------------------------------------------------------------------
# 9. Multi-port retrieval
# ---------------------------------------------------------------------------

def test_criterion_09_multiport():
    geo = ArrayGeometry(6, 6, 1, 0.6)
    w0 = 1.8
    theta0 = 1.0 / (math.pi * w0)
    angles = [0.0, 0.5 * theta0, theta0, 1.5 * theta0, 2.0 * theta0]
    scan = rt.multiport_scan(geo, angles, w0)
    rep = rt.retrieval_report(geo, [rt.DetectionMode("two-directional", w0)])
    match = abs(scan[0, 1] - rep.eps_gauss)
    nondecreasing = bool(np.all(np.diff(scan[:, 1]) >= -1e-12))
    report(9, "multi-port error nondecreasing; theta = 0 matches the "
           "two-directional scheme", nondecreasing and match <= 1e-12,
           f"|eps(0) - eps_2dir| = {match:.2e}")


# ---------------------------------------------------------------------------
# 10. End-to-end entanglement lengths and resource scaling
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_10_end_to_end(fitted_budget):
    cache = pl.RetrievalCache(path=str(_data_path("retrieval_optimal.csv")))
    x_ref = 7.9e7
    optima = pl.entanglement_lengths(fitted_budget, x_ref, cache,
                                     finesse=50.0)
    bands = {"uni": (6, 13), "two-directional": (30, 65),
             "cavity": (50, 100), "two-port": (18, 40)}
    in_band = {s: lo <= optima[s].n_ph <= hi
               for s, (lo, hi) in bands.items()}
    xs = np.geomspace(1e6, 1e9, 7)
    with pytest.warns(UserWarning):
        # small-x optima sit at the grid boundary; the fit uses all points
        two_dir = pl.scaling_exponents("two-directional", xs, fitted_budget,
                                       cache)
        two_port = pl.scaling_exponents("two-port", xs, fitted_budget, cache)
    ok = (all(in_band.values())
          and abs(two_dir.n_ph.exponent - 0.23) <= 0.05
          and abs(two_port.n_ph.exponent - 0.24) <= 0.05
          and two_dir.xi_strictly_decreasing)
    detail = ", ".join(f"{s} N_ph {optima[s].n_ph:.1f}" for s in bands)
    report(10, "entanglement lengths and resource exponents", ok,
           detail + f"; exponents {two_dir.n_ph.exponent:.3f} / "
           f"{two_port.n_ph.exponent:.3f}")


# ---------------------------------------------------------------------------
# 11. Reproducibility of the command set
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_11_reproducible_artifacts(tmp_path):
    cache = tmp_path / "cache.csv"
    with open(cache, "w") as fh:
        fh.write("scheme,L_v,L_z,error\n")
        for lv in (4, 6):
            for lz in (1, 2):
                fh.write(f"uni,{lv},{lz},{0.3 / lz:.17g}\n")
    configs = {
        "benchmark": {"command": "benchmark", "seed": 1,
                      "benchmark": {"N_atoms": 3, "n_transfers": 2}},
        "protocol-fidelity": {"command": "protocol-fidelity",
                              "protocol": {"n_max": 4, "p_em": 0.95}},
        "retrieval": {"command": "retrieval",
                      "retrieval": {"kind": "uni", "L_v": 3, "L_z": 1,
                                    "w0": "2400 nm"}},
        "geometry-opt": {"command": "geometry-opt",
                         "geometry": {"schemes": "uni", "x": 1e8,
                                      "L_v": [4, 6], "L_z": [1, 2],
                                      "cache": str(cache)}},
        "multiport": {"command": "multiport",
                      "multiport": {"L_v": 3, "w0": "1800 nm"}},
        "synthesize": {"command": "synthesize", "seed": 3,
                       "synthesize": {"j_max": 2, "restarts": 1,
                                      "max_iters": 3, "tolerance": 10.0,
                                      "rtol": 1e-6, "atol": 1e-8}},
    }
    mismatched = []
    for name, doc in configs.items():
        cfg_path = tmp_path / f"{name}.yaml"
        cfg_path.write_text(yaml.safe_dump(doc))
        blobs = []
        for attempt in ("a", "b"):
            outdir = tmp_path / f"{name}_{attempt}"
            code = cli_run(str(cfg_path), out=str(outdir))
            assert code == 0, f"{name} exited {code}"
            data = {}
            for f in sorted(outdir.iterdir()):
                if f.suffix in (".csv", ".txt"):
                    data[f.name] = f.read_bytes()
            blobs.append(data)
        if blobs[0] != blobs[1]:
            mismatched.append(name)
    report(11, "identical configs re-run to byte-identical artifacts",
           not mismatched, "mismatches: " + (", ".join(mismatched) or
                                             "none"))

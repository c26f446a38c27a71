"""Workloads of the seqphoton benchmark: input pools, run schedules, the
operations themselves and the checks on their outputs.

Every workload draws its inputs from a pool that `make_reference.py` wrote
to `reference.json`, together with the outputs the library gave for them
and the solver work (right-hand-side evaluations) each one took when the
benchmark was defined.  The run seed only chooses which pool entries are
used and in which order, so any seed can be checked against recorded
values.  The pool is split into strata of similar recorded work, and ops
visit the strata along a golden-ratio sequence, which spreads any number
of consecutive ops evenly over them.  This keeps the cost mix of a run the
same for every seed and run length, which is what makes the latency
figures comparable between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from seqphoton import goat
from seqphoton import pipeline as pl

POOL_SEED = 20201106

# Pulse ansatz shared by the protocol and gradient workloads: the default
# GoatConfig basis size and the random start distribution of
# goat.synthesize (Fourier amplitudes ~ N(0, 0.4), base frequencies in
# [0.2, 1.0]).
J_MAX = 6
N_MAX = 12
GRIDS = pl.DEFAULT_BETA_GRIDS

# Solver tolerances of the operations; the checks scale with them.
PROTOCOL_RTOL = pl.ProtocolConfig.rtol
GOAT_RTOL = goat.GoatConfig.rtol
GOAT_ATOL = goat.GoatConfig.atol
# Outputs move by at most ~1 rtol (relative) when the solver tolerance is
# tightened 100-fold, so a change that keeps the tolerances but reorders the
# arithmetic stays well inside this factor.
TOL_FACTOR = 1e2
RETRIEVAL_TOL = 1e-10   # tolerance of the acceptance suite on the table

RETRIEVAL_MAX_N = 100
RETRIEVAL_L_V = (4, 6, 8)
RETRIEVAL_L_Z = (1, 2, 3, 4, 6, 8)


# Input generation -------------------------------------------------------------

def random_pulse(rng: np.random.Generator, t_range: tuple[float, float]) -> dict:
    return {"amplitudes": rng.normal(scale=0.4, size=(goat.N_COMP, J_MAX)).tolist(),
            "freqs": rng.uniform(0.2, 1.0, size=goat.N_COMP).tolist(),
            "T": float(rng.uniform(*t_range))}


def pulse_params(spec: dict) -> goat.PulseParams:
    return goat.PulseParams(np.array(spec["amplitudes"]),
                            np.array(spec["freqs"]), T=spec["T"])


def _log_uniform(rng: np.random.Generator, grid) -> float:
    lo, hi = float(np.min(grid)), float(np.max(grid))
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def noisy_pool(rng: np.random.Generator, size: int = 97) -> list[dict]:
    """Noisy ideal-blockade curves: decay and dephasing rates and p_em
    log-uniform over the DEFAULT_BETA_GRIDS ranges, T in [0.5, 2]."""
    return [{"group": 0,
             "pulse": random_pulse(rng, (0.5, 2.0)),
             "gamma_r": _log_uniform(rng, GRIDS["gamma_r"]),
             "gamma_phi": _log_uniform(rng, GRIDS["gamma_phi"]),
             "U": None,
             "p_em": math.exp(-_log_uniform(rng, GRIDS["log_p"])),
             "slack": 0}
            for _ in range(size)]


# The two-valued workloads below mix their groups 1:3 (group 0 holds a
# quarter of the pool and of the strata), so that the median and the tail
# latency both fall inside the slower group's range instead of on the gap
# between the two groups, where they would jump from run to run.

def coherent_pool(rng: np.random.Generator, size: int = 129) -> list[dict]:
    """Noise-free finite-blockade curves with the blockade shift from the
    shared set {10, 30}: U = 10 with T in [10, 20], U = 30 with T in
    [5, 10]."""
    pool = []
    for i in range(size):
        g = int(i % 4 != 0)
        pool.append({"group": g,
                     "pulse": random_pulse(rng, ((10.0, 20.0), (5.0, 10.0))[g]),
                     "gamma_r": 0.0,
                     "gamma_phi": 0.0,
                     "U": (10.0, 30.0)[g],
                     "p_em": math.exp(-_log_uniform(rng, GRIDS["log_p"])),
                     "slack": 1})
    return pool


def gradient_pool(rng: np.random.Generator, size: int = 129) -> list[dict]:
    """Propagator-gradient evaluations for the cluster problem (T in
    [2, 4]) and the GHZ d=3 problem (T in [2, 3])."""
    pool = []
    for i in range(size):
        g = int(i % 4 != 0)
        pool.append({"group": g,
                     "problem": ("cluster", "ghz_d3")[g],
                     "pulse": random_pulse(rng, ((2.0, 4.0), (2.0, 3.0))[g])})
    return pool


def retrieval_keys() -> list[tuple[str, int, int]]:
    keys = []
    for L_v in RETRIEVAL_L_V:
        for L_z in RETRIEVAL_L_Z:
            if L_v * L_v * L_z > RETRIEVAL_MAX_N:
                continue
            keys += [("uni", L_v, L_z), ("two-directional", L_v, L_z)]
            if L_z == 1:
                keys.append(("two-port", L_v, L_z))
    return keys


def retrieval_pool(rng: np.random.Generator | None = None) -> list[dict]:
    """Every shipped-table key up to RETRIEVAL_MAX_N atoms, once per
    spin-wave profile, in one group.  Each entry is its own stratum, ordered
    by the op time recorded for it (retrieval runs no solver whose work
    could be counted), so every entry recurs once in about 37 ops."""
    return [{"group": 0, "scheme": scheme, "L_v": L_v, "L_z": L_z,
             "profile": profile}
            for scheme, L_v, L_z in retrieval_keys()
            for profile in ("optimal", "gaussian")]


# Operations -------------------------------------------------------------------

def protocol_config(entry: dict) -> pl.ProtocolConfig:
    return pl.ProtocolConfig(pulse=pulse_params(entry["pulse"]),
                             gamma_r=entry["gamma_r"],
                             gamma_phi=entry["gamma_phi"], U=entry["U"],
                             p_em=entry["p_em"], slack=entry["slack"])


def protocol_op(entry: dict, problems: dict) -> dict:
    ns, Fs = pl.fidelity_curve(protocol_config(entry), n_max=N_MAX)
    fit = pl.fit_xi(ns, Fs)
    return {"F": Fs.tolist(), "xi": fit.xi}


def gradient_problems() -> dict:
    return {"cluster": goat.cluster_synthesis_problem(),
            "ghz_d3": goat.ghz_synthesis_problem(3)}


def gradient_op(entry: dict, problems: dict) -> dict:
    basis, target = problems[entry["problem"]]
    U, dU = goat.propagate_with_gradient(pulse_params(entry["pulse"]), basis,
                                         rtol=GOAT_RTOL, atol=GOAT_ATOL)
    cost = goat.cost_and_gradient(U, dU, target, basis)
    unitarity = float(np.abs(U.conj().T @ U - np.eye(basis.dim)).max())
    return {"g": cost.g, "gradient": cost.gradient.tolist(),
            "unitarity": unitarity}


def retrieval_op(entry: dict, problems: dict) -> dict:
    cache = pl.RetrievalCache(path=None, profile=entry["profile"])
    return {"eps": cache.error(entry["scheme"], entry["L_v"], entry["L_z"])}


# Checks -----------------------------------------------------------------------

def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def check_protocol(out: dict, ref: dict) -> list[str]:
    """Physical bounds and agreement with the recorded curve and error per
    photon.  F is not checked for monotone decay in n: for a pulse that does
    not realise the target isometry it can rise between photon numbers."""
    F = np.asarray(out["F"], dtype=float)
    F_ref = np.asarray(ref["F"], dtype=float)
    tol = TOL_FACTOR * PROTOCOL_RTOL
    errors = []
    if F.shape != F_ref.shape or not _finite(F) or not _finite([out["xi"]]):
        return ["curve has the wrong shape or non-finite values"]
    if F.min() < 0.0 or F.max() > 1.0:
        errors.append("fidelity outside [0, 1]")
    if np.any(np.abs(F - F_ref) > tol * F_ref):
        errors.append("fidelity curve differs from the reference")
    if abs(out["xi"] - ref["xi"]) > tol * max(abs(ref["xi"]), 1.0):
        errors.append("error per photon differs from the reference")
    return errors


def check_gradient(out: dict, ref: dict) -> list[str]:
    """Unitarity of the propagator and agreement of the cost and its
    gradient with the recorded values."""
    tol = TOL_FACTOR * GOAT_RTOL
    g = np.asarray(out["gradient"], dtype=float)
    g_ref = np.asarray(ref["gradient"], dtype=float)
    if g.shape != g_ref.shape or not _finite(g) or not _finite([out["g"]]):
        return ["gradient has the wrong shape or non-finite values"]
    errors = []
    if not out["unitarity"] <= tol:
        errors.append("propagator is not unitary")
    if abs(out["g"] - ref["g"]) > tol:
        errors.append("cost differs from the reference")
    if np.abs(g - g_ref).max() > tol * max(np.abs(g_ref).max(), 1.0):
        errors.append("gradient differs from the reference")
    return errors


def check_retrieval(out: dict, ref: dict) -> list[str]:
    if not _finite([out["eps"]]):
        return ["retrieval error is not finite"]
    if abs(out["eps"] - ref["eps"]) > RETRIEVAL_TOL:
        return ["retrieval error differs from the shipped table"]
    return []


def gradient_spot_check(results: list[tuple[int, dict, dict]], problems: dict,
                        rng: np.random.Generator) -> tuple[int, list[str]]:
    """Central finite difference of the cost along one random pulse
    parameter, solved at a 100-fold tighter tolerance, against the analytic
    gradient of the run's first cluster op.  Returns that op's index and
    the errors found."""
    found = next((r for r in results if r[1]["problem"] == "cluster"), None)
    if found is None:
        return -1, ["no checked cluster op to compare against"]
    i, entry, out = found
    basis, target = problems[entry["problem"]]
    p = int(rng.integers(goat.N_COMP * (J_MAX + 1)))
    c, k = divmod(p, J_MAX + 1)      # goat's packing: amplitudes, then freq
    h = 1e-4

    def cost(delta):
        amps = np.array(entry["pulse"]["amplitudes"])
        freqs = np.array(entry["pulse"]["freqs"])
        if k < J_MAX:
            amps[c, k] += delta
        else:
            freqs[c] += delta
        params = goat.PulseParams(amps, freqs, T=entry["pulse"]["T"])
        U, _ = goat.propagate_with_gradient(params, basis,
                                            rtol=1e-2 * GOAT_RTOL,
                                            atol=1e-2 * GOAT_ATOL)
        return goat.cost_and_gradient(U, None, target, basis).g

    fd = (cost(h) - cost(-h)) / (2.0 * h)
    analytic = out["gradient"][p]
    if abs(fd - analytic) > 1e-5 + 1e-4 * abs(analytic):
        return i, [f"finite-difference gradient {fd} disagrees with "
                   f"{analytic} at parameter {p}"]
    return i, []


# Workload table ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_pool: Callable
    op: Callable
    check: Callable
    strata_per_group: dict     # group -> strata; groups not listed get 1
    problems: Callable = dict
    spot_check: Callable | None = None


WORKLOADS = {
    "protocol-noisy": Workload("protocol-noisy", noisy_pool, protocol_op,
                               check_protocol, strata_per_group={0: 32}),
    "protocol-coherent": Workload("protocol-coherent", coherent_pool,
                                  protocol_op, check_protocol,
                                  strata_per_group={0: 8, 1: 24}),
    "pulse-gradient": Workload("pulse-gradient", gradient_pool, gradient_op,
                               check_gradient, strata_per_group={0: 8, 1: 24},
                               problems=gradient_problems,
                               spot_check=gradient_spot_check),
    "retrieval-scan": Workload("retrieval-scan", retrieval_pool, retrieval_op,
                               check_retrieval,
                               # one stratum per timed entry (all but the warm-up)
                               strata_per_group={0: 2 * len(retrieval_keys()) - 1}),
}


def strata(pool: list[dict], work: list[float],
           per_group: dict) -> list[list[int]]:
    """Indices of the pool split by group, then into `per_group[group]`
    strata of consecutive recorded work within each group."""
    groups: dict[int, list[int]] = {}
    for i, entry in enumerate(pool):
        groups.setdefault(entry["group"], []).append(i)
    out = []
    for g in sorted(groups):
        ranked = sorted(groups[g], key=lambda i: (work[i], i))
        parts = np.array_split(ranked, per_group.get(g, 1))
        out += [[int(i) for i in part] for part in parts]
    return out


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def sequence(bins: list[list[int]], seed: int):
    """Endless seeded sequence of pool indices.

    Op i draws from stratum floor(K frac(u + i GOLDEN)) of the K strata in
    `bins` (lists of pool indices, ordered by work), with
    a seeded offset u.  The golden-ratio sequence is equidistributed with
    low discrepancy, so any run of consecutive ops, or every other op of
    one, draws from each stratum about as often as from any other.  Within
    a stratum entries are drawn without replacement; only after a stratum
    is used up does it start again in a fresh order."""
    rng = np.random.default_rng(seed)
    position = rng.uniform()
    queues: list[list[int]] = [[] for _ in bins]
    while True:
        s = int(len(bins) * position)
        if not queues[s]:
            queues[s] = [int(i) for i in rng.permutation(bins[s])]
        yield queues[s].pop()
        position = (position + GOLDEN) % 1.0

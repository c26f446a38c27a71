"""Analytic-pulse optimal control for isometry-embedding unitaries.

Each of the three laser channels (rg, rq, rl) gets independently synthesized
real and imaginary amplitude components.  A component is a bounded Fourier
series S1(f(t)) * S2(t, T) with f = sum_j A_j sin(j w t); the sigmoid S1
enforces |amplitude| <= b, S2 switches the pulse off smoothly at t = T.  The
propagator and its exact parameter gradient are integrated jointly via the
block-triangular equation of motion, and the cost

    g = 1 - |F_V|/D + (w_pen/D) ||O'||_F^2

rewards reproducing the target isometry block V' and suppressing the leakage
block O' out of the source space.

Parameter layout: an (N_COMP, j_max + 1) array, one row per component in
COMPONENTS order holding the j_max Fourier amplitudes and then the base
frequency.  The flat parameter vector and every gradient are that array
raveled in C order.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import Bounds, minimize
from scipy.special import expit

from .collective import FockBasis, control_pieces
from .mps import IsometryTarget

COMPONENTS = ("rg_re", "rg_im", "rq_re", "rq_im", "rl_re", "rl_im")
N_COMP = len(COMPONENTS)


@dataclass(frozen=True)
class PulseParams:
    """Fourier amplitudes (n_comp, j_max), base frequencies (n_comp,), and
    the shared envelope parameters."""

    amplitudes: np.ndarray
    freqs: np.ndarray
    b: float = 1.0
    g1: float = 4.0
    g2: float | None = None   # None -> 8/T
    T: float = 20.0

    def __post_init__(self):
        amps = np.atleast_2d(np.asarray(self.amplitudes, dtype=float))
        freqs = np.asarray(self.freqs, dtype=float)
        if amps.shape[0] != N_COMP or freqs.shape != (N_COMP,):
            raise ValueError("expected one amplitude row and frequency per component")
        if self.b <= 0 or self.T <= 0:
            raise ValueError("b and T must be positive")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "freqs", freqs)

    @property
    def j_max(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def g2_value(self) -> float:
        return self.g2 if self.g2 is not None else 8.0 / self.T

    @property
    def n_params(self) -> int:
        return N_COMP * (self.j_max + 1)


def _ansatz(params: PulseParams, t: float):
    """The pieces every component evaluation at t shares: the phases
    w_c j t, their sines, the logistic S1 of f and the envelope S2."""
    phase = np.outer(params.freqs, np.arange(1, params.j_max + 1)) * t
    sin = np.sin(phase)
    s = expit(params.g1 * (params.amplitudes * sin).sum(axis=1) / params.b)
    s2 = 1.0 - 2.0 / (1.0 + np.exp(params.g2_value * (params.T - t)))
    return phase, sin, s, s2


def component_values(params: PulseParams, t: float) -> np.ndarray:
    """All six component amplitudes at time t."""
    _, _, s, s2 = _ansatz(params, t)
    return params.b * (2.0 * s - 1.0) * s2


def component_values_and_grads(params: PulseParams, t: float):
    """Component values and their parameter derivatives dv, shaped
    (N_COMP, j_max + 1) in the parameter layout: d/dA_j, then d/dw."""
    phase, sin, s, s2 = _ansatz(params, t)
    vals = params.b * (2.0 * s - 1.0) * s2
    slope = 2.0 * params.g1 * s * (1.0 - s) * s2          # dv/df
    j = np.arange(1, params.j_max + 1)
    df_dw = (params.amplitudes * j * t * np.cos(phase)).sum(axis=1)
    return vals, slope[:, None] * np.column_stack((sin, df_dw))


def channel_amplitudes(params: PulseParams, t: float) -> dict[str, complex]:
    v = component_values(params, t)
    return {"rg": v[0] + 1j * v[1], "rq": v[2] + 1j * v[3],
            "rl": v[4] + 1j * v[5]}


def pulse_eval(params: PulseParams, t: float) -> dict[str, complex]:
    """Complex channel amplitudes at t; errors outside [0, T]."""
    if not 0.0 <= t <= params.T:
        raise ValueError(f"t = {t} outside the pulse window [0, {params.T}]")
    return channel_amplitudes(params, t)


def propagate_with_gradient(params: PulseParams, basis: FockBasis,
                            rtol: float = 1e-9, atol: float = 1e-11,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Propagator U(T) and its derivatives dU/d(param) on the truncated basis.

    Resonant channels only (drive-frame H = sum_c v_c(t) * M_c with the
    constant control pieces M_c of collective.control_pieces).  Returns
    (U, dU) with dU shaped (n_params, N, N), parameters in the layout of the
    module docstring.
    """
    N = basis.dim
    mats = -1j * control_pieces(basis)      # -i M_c: no final -i in the RHS
    flat = mats.reshape(N_COMP, -1)
    P = params.n_params

    def rhs(t, y):
        Y = y.reshape(P + 1, N, N)
        vals, dv = component_values_and_grads(params, t)
        H = (vals @ flat).reshape(N, N)
        out = np.empty_like(Y)
        stacked = H @ Y.transpose(1, 0, 2).reshape(N, -1)
        out[:] = stacked.reshape(N, P + 1, N).transpose(1, 0, 2)
        # d(-iHU)/dp adds dv_p (-i M_c) U for the component c owning p.
        derivs = out[1:].reshape(N_COMP, -1, N, N)
        derivs += dv[:, :, None, None] * (mats @ Y[0])[:, None]
        return out.ravel()

    y0 = np.zeros((P + 1, N, N), dtype=complex)
    y0[0] = np.eye(N)
    sol = solve_ivp(rhs, (0.0, params.T), y0.ravel(), method="DOP853",
                    rtol=rtol, atol=atol, dense_output=False)
    # The finished solver keeps its stage arrays (16 vectors of the
    # (P+1) N^2 state) in a reference cycle; collect it now rather than
    # letting dead solvers pile up until the collector next runs.
    gc.collect(0)
    if not sol.success:
        raise RuntimeError(f"propagator integration failed: {sol.message}")
    Y = sol.y[:, -1].reshape(P + 1, N, N)
    return Y[0], Y[1:]


@dataclass(frozen=True)
class GoatCost:
    F_V: complex
    F_O: float
    g: float
    gradient: np.ndarray


def cost_and_gradient(U: np.ndarray, dU: np.ndarray | None,
                      target: IsometryTarget, basis: FockBasis,
                      penalty: float = 1.0) -> GoatCost:
    """Block cost g = 1 - |F_V|/D + (penalty/D)*||O'||_F^2 and its exact
    parameter gradient (None gradient when dU is None).

    Both blocks live in the D source columns: V' in the source rows, O' in
    the rest.  W holds V_hat in the source rows and O the leakage entries,
    so F_V = <W, U_cols> and ||O'||^2 = <O, O>, and their derivatives are
    the same contractions against dU."""
    rows = list(target.source_rows)
    D = target.D
    cols = rows[:D]              # ancilla inputs: photon-0 block of the rows
    U_cols = U[:, cols]
    W = np.zeros(U_cols.shape, dtype=complex)
    W[rows] = target.V_hat
    O = U_cols.copy()
    O[rows] = 0.0
    F_V = complex(np.vdot(W, U_cols))
    F_O = float(np.vdot(O, O).real)
    g = 1.0 - abs(F_V) / D + penalty * F_O / D
    grad = None
    if dU is not None:
        dU_cols = dU[:, :, cols]
        dF_O = np.einsum("na,pna->p", O.conj(), dU_cols).real
        grad = 2.0 * penalty * dF_O / D
        if abs(F_V) > 0:
            dF_V = np.einsum("na,pna->p", W.conj(), dU_cols)
            grad -= np.real(np.conj(F_V) * dF_V) / (D * abs(F_V))
    return GoatCost(F_V, F_O, g, grad)


def g_v(U: np.ndarray, target: IsometryTarget, basis: FockBasis) -> float:
    """Quality metric: the cost with the leakage penalty switched off."""
    return cost_and_gradient(U, None, target, basis, penalty=0.0).g


# Synthesis ------------------------------------------------------------------

@dataclass(frozen=True)
class GoatConfig:
    j_max: int = 6
    penalty: float = 1.0
    b: float = 1.0
    g1: float = 4.0
    T: float = 20.0
    restarts: int = 8
    seed: int = 2024
    max_iters: int = 200
    tolerance: float = 1e-4    # stop restarts once g_V falls below this
    rtol: float = 1e-8
    atol: float = 1e-10


@dataclass(frozen=True)
class SynthesisResult:
    params: PulseParams
    g_v: float
    cost: float
    converged: bool
    n_restarts_used: int


def _pack(params: PulseParams) -> np.ndarray:
    return np.column_stack((params.amplitudes, params.freqs)).ravel()


def _unpack(x: np.ndarray, template: PulseParams) -> PulseParams:
    layout = np.array(x, dtype=float).reshape(N_COMP, template.j_max + 1)
    return replace(template, amplitudes=layout[:, :-1], freqs=layout[:, -1])


def synthesize(target: IsometryTarget, basis: FockBasis,
               config: GoatConfig = GoatConfig()) -> SynthesisResult:
    """Multi-start quasi-Newton search over the analytic pulse parameters.

    Deterministic given config.seed.  Returns the best parameters found,
    flagged non-converged when no restart reaches config.tolerance.
    """
    rng = np.random.default_rng(config.seed)
    template = PulseParams(np.zeros((N_COMP, config.j_max)),
                           np.full(N_COMP, 1.0), b=config.b, g1=config.g1,
                           T=config.T)
    # zero-pulse shortcut: if the identity already realizes the target
    zero_cost = cost_and_gradient(np.eye(basis.dim), None, target, basis,
                                  config.penalty)
    if zero_cost.g <= 1e-12:
        return SynthesisResult(template, zero_cost.g, zero_cost.g, True, 0)

    # Bounds and starts in the parameter layout; only the frequencies are
    # bounded.
    shape = (N_COMP, config.j_max + 1)
    lower, upper = np.full(shape, -np.inf), np.full(shape, np.inf)
    lower[:, -1], upper[:, -1] = 0.05, 4.0
    bounds = Bounds(lower.ravel(), upper.ravel())

    def objective(x):
        p = _unpack(x, template)
        U, dU = propagate_with_gradient(p, basis, config.rtol, config.atol)
        cost = cost_and_gradient(U, dU, target, basis, config.penalty)
        return cost.g, cost.gradient

    best = None
    used = 0
    for restart in range(config.restarts):
        used = restart + 1
        x0 = np.empty(shape)
        for row in x0:           # per component: amplitudes, then frequency
            row[:-1] = rng.normal(scale=0.4, size=config.j_max)
            row[-1] = rng.uniform(0.2, 1.0)
        res = minimize(objective, x0.ravel(), jac=True, method="L-BFGS-B",
                       bounds=bounds,
                       options={"maxiter": config.max_iters, "ftol": 1e-14,
                                "gtol": 1e-10})
        p = _unpack(res.x, template)
        U, _ = propagate_with_gradient(p, basis, config.rtol, config.atol)
        quality = g_v(U, target, basis)
        if best is None or res.fun < best[1]:
            best = (p, res.fun, quality)
        if quality <= config.tolerance:
            break
    params, cost, quality = best
    return SynthesisResult(params, quality, cost, quality <= config.tolerance,
                           used)


# Target constructors --------------------------------------------------------

def source_space_rows(basis: FockBasis, d: int, D: int) -> tuple[int, ...]:
    """Indices of |j_l, alpha_q> (photon major, bond minor) in the basis."""
    rows = []
    for j in range(d):
        for alpha in range(D):
            rows.append(basis.index_of((0, alpha, j, 0, 0, 0)))
    return tuple(rows)


def cluster_synthesis_problem(slack: int = 1):
    """Basis (with leakage slack) and target for one interior cluster round."""
    from .collective import TruncationSpec
    from .mps import CLUSTER_INTERIOR
    basis = FockBasis(TruncationSpec(1, 1 + slack, 1 + slack))
    rows = source_space_rows(basis, 2, 2)
    target = IsometryTarget(CLUSTER_INTERIOR.reshape(4, 2), rows)
    return basis, target


def ghz_synthesis_problem(d: int = 3, slack: int = 1):
    """Basis and target for one interior round of the d-level GHZ family."""
    from .collective import TruncationSpec
    from .mps import ghz_interior_tensor
    basis = FockBasis(TruncationSpec(1, d - 1 + slack, d - 1 + slack))
    rows = source_space_rows(basis, d, d)
    target = IsometryTarget(ghz_interior_tensor(d).reshape(d * d, d), rows)
    return basis, target


# Pulse import/export --------------------------------------------------------

def save_pulse(params: PulseParams, path) -> None:
    lines = [f"T {params.T:.17g}", f"b {params.b:.17g}",
             f"g1 {params.g1:.17g}", f"g2 {params.g2_value:.17g}",
             f"j_max {params.j_max}"]
    for c, name in enumerate(COMPONENTS):
        amps = " ".join(f"{a:.17g}" for a in params.amplitudes[c])
        lines.append(f"{name} {params.freqs[c]:.17g} {amps}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_pulse(path) -> PulseParams:
    tokens = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts:
                tokens[parts[0]] = parts[1:]
    j_max = int(tokens["j_max"][0])
    amps = np.empty((N_COMP, j_max))
    freqs = np.empty(N_COMP)
    for c, name in enumerate(COMPONENTS):
        vals = [float(x) for x in tokens[name]]
        freqs[c] = vals[0]
        amps[c] = vals[1:]
    return PulseParams(amps, freqs, b=float(tokens["b"][0]),
                       g1=float(tokens["g1"][0]), g2=float(tokens["g2"][0]),
                       T=float(tokens["T"][0]))


def reference_pulse(name: str) -> PulseParams:
    """Shipped synthesized pulses: 'cluster' or 'ghz_d3'."""
    fname = {"cluster": "pulse_cluster.txt", "ghz_d3": "pulse_ghz_d3.txt"}[name]
    ref = resources.files("seqphoton") / "data" / fname
    with resources.as_file(ref) as path:
        return load_pulse(path)

"""Batch front-end: parse a structured run configuration, dispatch the
simulation pipelines, and emit deterministic CSV/JSON artifacts.

Configuration files are YAML with nested sections.  Physical quantities
accept unit suffixes ("19.6 kHz", "532 nm", "0.532 um"); plain numbers are
interpreted in the canonical units (rates in kHz, lengths in nm).  Every run
writes a ``manifest.json`` recording the fully resolved configuration (in
canonical units), its hash, the seed, and library versions; feeding the
manifest's ``config`` block back as a configuration reproduces the run
byte-for-byte.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 guard exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from . import __version__ as _pkg_version
from . import goat
from .geometry import ArrayGeometry
from .lindblad import RateSpec, raman_benchmark
from .pipeline import (DEFAULT_FINESSE, ErrorBudget, ProtocolConfig,
                       RetrievalCache, fidelity_curve, fit_xi,
                       geometry_optimize, scaling_exponents)
from .retrieval import (DetectionMode, default_waists, multiport_scan,
                        retrieval_report)

log = logging.getLogger("seqphoton.cli")

COMMANDS = ("synthesize", "protocol-fidelity", "retrieval", "geometry-opt",
            "benchmark", "multiport")

# Unit conversion factors to the canonical units (kHz for rates, nm for
# lengths).
_RATE_UNITS = {"Hz": 1e-3, "kHz": 1.0, "MHz": 1e3, "GHz": 1e6}
_LENGTH_UNITS = {"nm": 1.0, "um": 1e3}

# Reference values of the error-per-photon coefficients; overridable through
# the `budget` section once a pulse-specific fit is available.
DEFAULT_BUDGET = {"beta_0": 0.0, "beta_r": 17.1, "beta_phi": 6.7,
                  "beta_U": 1.9, "beta_em": 0.48}

DEFAULT_CONSTANTS = {"C6": -862.69,    # GHz um^6
                     "gamma_r": 19.6,  # kHz
                     "gamma_phi": 21.3,  # kHz
                     "d0": 532.0}      # nm; lambda_eg defaults to d0 / 0.6


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


def _parse_quantity(value, units: dict[str, float], key: str) -> float:
    """Number in canonical units from a plain number or 'VALUE UNIT' string."""
    if isinstance(value, bool):
        raise ConfigError(f"key '{key}': expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        parts = value.split()
        if len(parts) == 2:
            try:
                number = float(parts[0])
            except ValueError:
                raise ConfigError(f"key '{key}': bad number {parts[0]!r}")
            if parts[1] not in units:
                raise ConfigError(
                    f"key '{key}': unit {parts[1]!r} not accepted here "
                    f"(expected one of {sorted(units)})")
            return number * units[parts[1]]
        if len(parts) == 1:
            try:
                return float(parts[0])
            except ValueError:
                pass
    raise ConfigError(f"key '{key}': cannot parse quantity {value!r}")


class Section:
    """Typed access to one nested configuration mapping."""

    def __init__(self, name: str, data):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"section '{name}' must be a mapping")
        self.name = name
        self.data = data

    def _path(self, key: str) -> str:
        return f"{self.name}.{key}" if self.name else key

    def require(self, key: str):
        if key not in self.data or self.data[key] is None:
            raise ConfigError(f"missing required key '{self._path(key)}'")
        return self.data[key]

    def rate(self, key: str, default=None) -> float:
        val = self.data.get(key, default)
        if val is None:
            val = self.require(key)
        return _parse_quantity(val, _RATE_UNITS, self._path(key))

    def length(self, key: str, default=None) -> float:
        val = self.data.get(key, default)
        if val is None:
            val = self.require(key)
        return _parse_quantity(val, _LENGTH_UNITS, self._path(key))

    def number(self, key: str, default=None) -> float:
        val = self.data.get(key, default)
        if val is None:
            val = self.require(key)
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"key '{self._path(key)}': expected a number, "
                              f"got {val!r}")
        return float(val)

    def integer(self, key: str, default=None) -> int:
        val = self.data.get(key, default)
        if val is None:
            val = self.require(key)
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"key '{self._path(key)}': expected an "
                              f"integer, got {val!r}")
        return int(val)

    def string(self, key: str, default=None) -> str:
        val = self.data.get(key, default)
        if val is None:
            val = self.require(key)
        if not isinstance(val, str):
            raise ConfigError(f"key '{self._path(key)}': expected a string, "
                              f"got {val!r}")
        return val

    def optional(self, key: str):
        return self.data.get(key)

    def int_list(self, key: str, default=None) -> list[int]:
        val = self.data.get(key, default)
        if val is None:
            val = self.require(key)
        if isinstance(val, int) and not isinstance(val, bool):
            return [val]
        if (not isinstance(val, (list, tuple)) or not val
                or any(isinstance(v, bool) or not isinstance(v, int)
                       for v in val)):
            raise ConfigError(f"key '{self._path(key)}': expected an integer "
                              f"or a non-empty list of integers")
        return [int(v) for v in val]

    def number_list(self, key: str, default=None) -> list[float]:
        val = self.data.get(key, default)
        if val is None:
            val = self.require(key)
        if isinstance(val, (int, float)) and not isinstance(val, bool):
            return [float(val)]
        if (not isinstance(val, (list, tuple)) or not val
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in val)):
            raise ConfigError(f"key '{self._path(key)}': expected a number "
                              f"or a non-empty list of numbers")
        return [float(v) for v in val]


@dataclass(frozen=True)
class Constants:
    """Physical constants in canonical units (kHz, nm; C6 in GHz um^6)."""

    c6: float
    gamma_r: float
    gamma_phi: float
    d0: float
    lambda_eg: float

    @property
    def spacing(self) -> float:
        """Lattice spacing in units of lambda_eg."""
        return self.d0 / self.lambda_eg

    def as_dict(self) -> dict:
        return {"C6": self.c6, "gamma_r": self.gamma_r,
                "gamma_phi": self.gamma_phi, "d0": self.d0,
                "lambda_eg": self.lambda_eg}


def _parse_constants(section: Section) -> Constants:
    c6 = section.number("C6", DEFAULT_CONSTANTS["C6"])
    gamma_r = section.rate("gamma_r", DEFAULT_CONSTANTS["gamma_r"])
    gamma_phi = section.rate("gamma_phi", DEFAULT_CONSTANTS["gamma_phi"])
    d0 = section.length("d0", DEFAULT_CONSTANTS["d0"])
    lam = section.length("lambda_eg", d0 / 0.6)
    if d0 <= 0 or lam <= 0:
        raise ConfigError("lengths d0 and lambda_eg must be positive")
    if gamma_r < 0 or gamma_phi < 0:
        raise ConfigError("decay and dephasing rates must be nonnegative")
    return Constants(c6, gamma_r, gamma_phi, d0, lam)


def _parse_budget(section: Section) -> ErrorBudget:
    vals = {k: section.number(k, v) for k, v in DEFAULT_BUDGET.items()}
    if any(vals[k] < 0 for k in vals):
        raise ConfigError("error-budget coefficients must be nonnegative")
    return ErrorBudget(vals["beta_0"], vals["beta_r"], vals["beta_phi"],
                       vals["beta_U"], vals["beta_em"])


@dataclass(frozen=True)
class ResourceReport:
    """x = |C6| / (Gamma d0^6) with explicit unit bookkeeping."""

    beta_r: float
    beta_phi: float
    gamma_khz: float            # Gamma = beta_r Gamma_r + beta_phi Gamma_phi
    c6_khz_nm6: float
    d0_nm: float
    x: float


def derive_resource(constants: Constants, beta_r: float, beta_phi: float,
                    ) -> ResourceReport:
    """Dimensionless resource parameter from physical constants.

    Gamma aggregates decay and dephasing with the fitted per-photon weights;
    C6 (GHz um^6) converts to kHz nm^6 by 1e24.
    """
    gamma = beta_r * constants.gamma_r + beta_phi * constants.gamma_phi
    if gamma <= 0.0:
        raise ConfigError("total decoherence rate Gamma = beta_r*gamma_r + "
                          "beta_phi*gamma_phi must be positive")
    c6_khz_nm6 = abs(constants.c6) * 1e24
    x = c6_khz_nm6 / (gamma * constants.d0 ** 6)
    log.info("derive_resource: Gamma = %.6g kHz, |C6| = %.6g kHz nm^6, "
             "d0 = %.6g nm -> x = %.6g", gamma, c6_khz_nm6, constants.d0, x)
    return ResourceReport(beta_r, beta_phi, gamma, c6_khz_nm6,
                          constants.d0, x)


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """One fully resolved run: command, seed, and the per-command
    parameters in canonical units.  `resolved` is a plain mapping that can be
    fed back as a configuration file to reproduce the run."""

    command: str
    seed: int
    outdir: str
    constants: Constants
    budget: ErrorBudget
    params: dict
    resolved: dict

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.resolved, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def load_config(path: str, out: str | None = None,
                seed: int | None = None) -> RunConfig:
    """Parse and validate a YAML configuration (or a run manifest)."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config {path}: {exc}")
    if isinstance(raw, dict) and isinstance(raw.get("config"), dict):
        raw = raw["config"]      # a manifest round-trips as a config
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of sections")

    top = Section("", raw)
    command = top.string("command", None) if "command" in raw else None
    if command is None:
        raise ConfigError("missing required key 'command'")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of "
                          f"{COMMANDS}")
    cfg_seed = seed if seed is not None else top.integer("seed", 0)
    outdir = out if out is not None else top.string("output", "out")

    constants = _parse_constants(Section("constants", raw.get("constants")))
    budget = _parse_budget(Section("budget", raw.get("budget")))

    parser = _SECTION_PARSERS[command]
    params = parser(Section(_SECTION_NAMES[command],
                            raw.get(_SECTION_NAMES[command])), constants)

    resolved = {
        "command": command,
        "seed": cfg_seed,
        "output": outdir,
        "constants": constants.as_dict(),
        "budget": {"beta_0": budget.beta_0, "beta_r": budget.beta_r,
                   "beta_phi": budget.beta_phi, "beta_U": budget.beta_U,
                   "beta_em": budget.beta_em},
        _SECTION_NAMES[command]: params,
    }
    return RunConfig(command, cfg_seed, outdir, constants, budget, params,
                     resolved)


# Per-command section parsers.  Each returns a plain dict of canonical-unit
# values with all defaults applied (so the resolved config is re-runnable).

def _parse_synthesize(sec: Section, constants: Constants) -> dict:
    target = sec.string("target", "cluster")
    if target not in ("cluster", "ghz-d3"):
        raise ConfigError(f"synthesize.target must be 'cluster' or 'ghz-d3', "
                          f"got {target!r}")
    return {
        "target": target,
        "j_max": sec.integer("j_max", 6),
        "T": sec.number("T", 20.0),
        "restarts": sec.integer("restarts", 8),
        "max_iters": sec.integer("max_iters", 200),
        "tolerance": sec.number("tolerance",
                                1e-3 if target == "cluster" else 5e-3),
        "rtol": sec.number("rtol", 1e-8),
        "atol": sec.number("atol", 1e-10),
    }


def _parse_protocol(sec: Section, constants: Constants) -> dict:
    family = sec.string("family", "cluster")
    if family != "cluster":
        raise ConfigError("protocol.family: only 'cluster' is supported")
    u = sec.optional("U")
    params = {
        "family": family,
        "pulse": sec.optional("pulse"),           # path | 'reference:NAME' | None
        "n_max": sec.integer("n_max", 12),
        "gamma_r": sec.number("gamma_r", 0.0),    # units of Omega_max
        "gamma_phi": sec.number("gamma_phi", 0.0),
        "U": None if u is None else sec.number("U"),
        "p_em": sec.number("p_em", 1.0),
        "N_atoms": (sec.integer("N_atoms")
                    if sec.optional("N_atoms") is not None else None),
        "rtol": sec.number("rtol", 1e-8),
        "atol": sec.number("atol", 1e-10),
    }
    if params["pulse"] is not None and not isinstance(params["pulse"], str):
        raise ConfigError("protocol.pulse must be a file path or "
                          "'reference:NAME'")
    if not 0.0 < params["p_em"] <= 1.0:
        raise ConfigError("protocol.p_em must lie in (0, 1]")
    return params


def _parse_retrieval(sec: Section, constants: Constants) -> dict:
    kind = sec.string("kind", "uni")
    if kind not in ("uni", "two-directional", "tilted-pair"):
        raise ConfigError(f"retrieval.kind must be 'uni', 'two-directional' "
                          f"or 'tilted-pair', got {kind!r}")
    w0 = sec.optional("w0")
    return {
        "kind": kind,
        "L_v": sec.int_list("L_v"),
        "L_z": sec.int_list("L_z", 1),
        # waist in nm; None scans the default waist grid
        "w0": None if w0 is None else sec.length("w0"),
        "theta": sec.number("theta", 0.0),        # tilt angle in rad
    }


def _parse_geometry(sec: Section, constants: Constants) -> dict:
    schemes = sec.optional("schemes")
    if schemes is None:
        schemes = ["uni", "two-directional", "cavity", "two-port"]
    if isinstance(schemes, str):
        schemes = [schemes]
    if (not isinstance(schemes, list) or not schemes
            or any(not isinstance(s, str) for s in schemes)):
        raise ConfigError("geometry.schemes must be a scheme name or a "
                          "non-empty list of scheme names")
    x = sec.optional("x")
    x_grid = sec.optional("x_grid")
    return {
        "schemes": schemes,
        # resource parameter: explicit value/grid, or derived from constants
        "x": None if x is None else sec.number("x"),
        "x_grid": None if x_grid is None else sec.number_list("x_grid"),
        "finesse": sec.number("finesse", DEFAULT_FINESSE),
        "L_v": sec.int_list("L_v", [4, 6, 8, 10, 12, 14]),
        "L_z": sec.int_list("L_z", [1, 2, 3, 4, 6, 8]),
        "profile": sec.string("profile", "optimal"),
        "cache": sec.optional("cache"),           # CSV path or None
    }


def _parse_benchmark(sec: Section, constants: Constants) -> dict:
    return {
        "N_atoms": sec.integer("N_atoms", 20),
        "gamma_r": sec.number("gamma_r", 0.016),  # units of Omega_max
        "gamma_phi": sec.number("gamma_phi", 0.016),
        "U": sec.number("U", 5.0),
        "n_transfers": sec.integer("n_transfers", 10),
        "samples_per_pulse": sec.integer("samples_per_pulse", 2),
    }


def _parse_multiport(sec: Section, constants: Constants) -> dict:
    angles = sec.optional("angles")
    params = {
        "L_v": sec.integer("L_v"),
        "w0": sec.length("w0"),                   # nm
        "angles": (None if angles is None
                   else sec.number_list("angles")),  # rad
    }
    if params["w0"] <= 0:
        raise ConfigError("multiport.w0 must be positive")
    return params


_SECTION_NAMES = {
    "synthesize": "synthesize",
    "protocol-fidelity": "protocol",
    "retrieval": "retrieval",
    "geometry-opt": "geometry",
    "benchmark": "benchmark",
    "multiport": "multiport",
}

_SECTION_PARSERS = {
    "synthesize": _parse_synthesize,
    "protocol-fidelity": _parse_protocol,
    "retrieval": _parse_retrieval,
    "geometry-opt": _parse_geometry,
    "benchmark": _parse_benchmark,
    "multiport": _parse_multiport,
}


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

def format_value(value) -> str:
    """CSV cell: scientific notation with 17 significant digits for floats,
    plain text for integers and strings."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f"{float(value):.16e}"


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def write_manifest(config: RunConfig, artifacts: list[str],
                   extras: dict | None = None) -> str:
    doc = {
        "command": config.command,
        "config": config.resolved,
        "config_sha256": config.config_hash,
        "seed": config.seed,
        "versions": {
            "seqphoton": _pkg_version,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "artifacts": sorted(artifacts),
        "extras": extras or {},
    }
    path = os.path.join(config.outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Command runners
# ---------------------------------------------------------------------------

def _run_synthesize(config: RunConfig) -> tuple[list[str], dict]:
    p = config.params
    if p["target"] == "cluster":
        basis, target = goat.cluster_synthesis_problem()
    else:
        basis, target = goat.ghz_synthesis_problem(3)
    goat_cfg = goat.GoatConfig(j_max=p["j_max"], T=p["T"],
                               restarts=p["restarts"], seed=config.seed,
                               max_iters=p["max_iters"],
                               tolerance=p["tolerance"],
                               rtol=p["rtol"], atol=p["atol"])
    result = goat.synthesize(target, basis, goat_cfg)
    pulse_name = f"pulse_{p['target'].replace('-', '_')}.txt"
    goat.save_pulse(result.params, os.path.join(config.outdir, pulse_name))
    write_csv(os.path.join(config.outdir, "synthesize.csv"),
              ["target", "g_v (1)", "cost (1)", "converged (1)",
               "restarts (1)"],
              [(p["target"], result.g_v, result.cost, result.converged,
                result.n_restarts_used)])
    if not result.converged:
        raise RuntimeError(f"pulse synthesis did not reach tolerance "
                           f"{p['tolerance']} (best g_V = {result.g_v:.3e})")
    return [pulse_name, "synthesize.csv"], {"g_v": result.g_v}


def _load_pulse_ref(spec: str | None) -> goat.PulseParams | None:
    if spec is None:
        return None
    if spec.startswith("reference:"):
        return goat.reference_pulse(spec.split(":", 1)[1])
    try:
        return goat.load_pulse(spec)
    except OSError as exc:
        raise ConfigError(f"cannot read pulse file {spec}: {exc}")


def _run_protocol_fidelity(config: RunConfig) -> tuple[list[str], dict]:
    p = config.params
    proto = ProtocolConfig(pulse=_load_pulse_ref(p["pulse"]),
                           gamma_r=p["gamma_r"], gamma_phi=p["gamma_phi"],
                           U=p["U"], p_em=p["p_em"], N_atoms=p["N_atoms"],
                           rtol=p["rtol"], atol=p["atol"])
    ns, fs = fidelity_curve(proto, n_max=p["n_max"])
    fit = fit_xi(ns, fs) if np.all(fs > 0) else None
    write_csv(os.path.join(config.outdir, "protocol_fidelity.csv"),
              ["n (photons)", "F_ph (1)"], list(zip(ns, fs)))
    extras = {}
    if fit is not None:
        extras = {"xi": fit.xi, "intercept": fit.intercept,
                  "r_squared": fit.r_squared}
    return ["protocol_fidelity.csv"], extras


def _run_retrieval(config: RunConfig) -> tuple[list[str], dict]:
    p = config.params
    lam = config.constants.lambda_eg
    spacing = config.constants.spacing
    w0 = None if p["w0"] is None else p["w0"] / lam
    rows = []
    for L_z in p["L_z"]:
        for L_v in p["L_v"]:
            geo = ArrayGeometry(L_v, L_v, L_z, spacing)
            waists = default_waists(geo) if w0 is None else [w0]
            modes = [DetectionMode(p["kind"], w, p["theta"]) for w in waists]
            rep = retrieval_report(geo, modes)
            rows.append((L_v, L_z, rep.w0 * lam, rep.w0_opt * lam,
                         rep.eps_gauss, rep.eps_opt))
    write_csv(os.path.join(config.outdir, "retrieval.csv"),
              ["L_v (sites)", "L_z (layers)", "w0_gauss (nm)",
               "w0_opt (nm)", "eps_gauss (1)", "eps_opt (1)"], rows)
    return ["retrieval.csv"], {}


def _run_geometry_opt(config: RunConfig) -> tuple[list[str], dict]:
    p = config.params
    if p["x_grid"] is not None:
        xs = p["x_grid"]
        resource = None
    elif p["x"] is not None:
        xs = [p["x"]]
        resource = None
    else:
        resource = derive_resource(config.constants, config.budget.beta_r,
                                   config.budget.beta_phi)
        xs = [resource.x]
    cache = RetrievalCache(path=p["cache"], profile=p["profile"],
                           spacing=config.constants.spacing)
    rows = []
    extras: dict = {}
    if resource is not None:
        extras["resource"] = {"Gamma_kHz": resource.gamma_khz,
                              "x": resource.x}
    for scheme in p["schemes"]:
        fin = p["finesse"] if scheme == "cavity" else None
        for x in xs:
            opt = geometry_optimize(scheme, x, config.budget, cache, fin,
                                    tuple(p["L_v"]), tuple(p["L_z"]))
            rows.append((scheme, x, opt.L_v, opt.L_z, opt.xi_opt, opt.n_ph,
                         opt.p_em, opt.f_geom, opt.at_boundary))
        if len(xs) >= 6 and max(xs) / min(xs) >= 1e3:
            study = scaling_exponents(scheme, xs, config.budget, cache, fin,
                                      tuple(p["L_v"]), tuple(p["L_z"]))
            extras[scheme] = {
                "n_ph_exponent": study.n_ph.exponent,
                "n_ph_r_squared": study.n_ph.r_squared,
                "l_v_exponent": study.l_v.exponent,
                "l_z_exponent": study.l_z.exponent,
                "xi_strictly_decreasing": study.xi_strictly_decreasing,
            }
    write_csv(os.path.join(config.outdir, "geometry.csv"),
              ["scheme", "x (1)", "L_v (sites)", "L_z (layers)",
               "xi_opt (1)", "N_ph (photons)", "p_em (1)", "f_geom (1)",
               "at_boundary (1)"], rows)
    return ["geometry.csv"], extras


def _run_benchmark(config: RunConfig) -> tuple[list[str], dict]:
    p = config.params
    rates = RateSpec(gamma_r=p["gamma_r"], gamma_phi=p["gamma_phi"],
                     U=p["U"], omega_max=1.0)
    result = raman_benchmark(p["N_atoms"], rates, p["n_transfers"],
                             samples_per_pulse=p["samples_per_pulse"])
    rows = []
    for model in ("eff", "exact"):
        for row in result.rows(model):
            rows.append((model,) + tuple(row))
    write_csv(os.path.join(config.outdir, "benchmark.csv"),
              ["model", "transfer (1)", "p_g (1)", "p_q (1)", "p_r (1)",
               "p_rr (1)", "infidelity (1)"], rows)
    return ["benchmark.csv"], {
        "final_infidelity": result.final_infidelity,
        "max_population_deviation": result.max_population_deviation(),
    }


def _run_multiport(config: RunConfig) -> tuple[list[str], dict]:
    p = config.params
    lam = config.constants.lambda_eg
    w0 = p["w0"] / lam
    geo = ArrayGeometry(p["L_v"], p["L_v"], 1, config.constants.spacing)
    if p["angles"] is None:
        theta0 = 1.0 / (math.pi * w0)      # beam divergence angle
        angles = [0.0, 0.5 * theta0, theta0, 1.5 * theta0, 2.0 * theta0]
    else:
        angles = p["angles"]
    scan = multiport_scan(geo, angles, w0)
    write_csv(os.path.join(config.outdir, "multiport.csv"),
              ["theta (rad)", "eps_gauss (1)"],
              [tuple(row) for row in scan])
    return ["multiport.csv"], {}


_RUNNERS = {
    "synthesize": _run_synthesize,
    "protocol-fidelity": _run_protocol_fidelity,
    "retrieval": _run_retrieval,
    "geometry-opt": _run_geometry_opt,
    "benchmark": _run_benchmark,
    "multiport": _run_multiport,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(config_path: str, out: str | None = None, seed: int | None = None,
        verbose: bool = False) -> int:
    """Execute one configured command; returns the process exit code."""
    logging.basicConfig(stream=sys.stderr,
                        level=logging.INFO if verbose else logging.WARNING,
                        format="%(name)s: %(message)s")
    try:
        config = load_config(config_path, out=out, seed=seed)
        os.makedirs(config.outdir, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        artifacts, extras = _RUNNERS[config.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 4
    except (RuntimeError, ArithmeticError, NotImplementedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    manifest = write_manifest(config, artifacts, extras)
    log.info("wrote %s and %d artifact(s) to %s", os.path.basename(manifest),
             len(artifacts), config.outdir)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="seqphoton",
        description="Sequential photonic MPS generation: batch pipelines.")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="YAML run configuration (or a run manifest)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="random seed (overrides the config)")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")
    args = parser.parse_args(argv)
    return run(args.config, out=args.out, seed=args.seed,
               verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front-end: configuration parsing, unit handling, artifact
determinism, manifest round-trips, and exit codes."""

import json
import math
import os

import numpy as np
import pytest
import yaml

from seqphoton.cli import (ConfigError, Constants, derive_resource,
                           format_value, load_config, run)
from seqphoton.lindblad import RateSpec, raman_benchmark


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    return header, rows


PAPER_CONSTANTS = Constants(c6=-862.69, gamma_r=19.6, gamma_phi=21.3,
                            d0=532.0, lambda_eg=532.0 / 0.6)


# ---------------------------------------------------------------------------
# Quantity and config parsing
# ---------------------------------------------------------------------------

class TestQuantities:
    def test_rate_suffixes_agree(self, tmp_path):
        doc = {"command": "benchmark",
               "constants": {"gamma_r": "19.6 kHz", "gamma_phi": "21300 Hz"}}
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.constants.gamma_r == pytest.approx(19.6)
        assert cfg.constants.gamma_phi == pytest.approx(21.3)

    def test_length_suffixes_agree(self, tmp_path):
        doc = {"command": "benchmark",
               "constants": {"d0": "0.532 um", "lambda_eg": "886.6 nm"}}
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.constants.d0 == pytest.approx(532.0)
        assert cfg.constants.lambda_eg == pytest.approx(886.6)

    def test_plain_numbers_are_canonical_units(self, tmp_path):
        doc = {"command": "benchmark", "constants": {"d0": 532}}
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.constants.d0 == pytest.approx(532.0)

    def test_wrong_unit_class_rejected(self, tmp_path):
        doc = {"command": "benchmark", "constants": {"gamma_r": "19.6 nm"}}
        with pytest.raises(ConfigError, match="gamma_r"):
            load_config(write_config(tmp_path, doc))

    def test_unknown_command_rejected(self, tmp_path):
        doc = {"command": "frobnicate"}
        with pytest.raises(ConfigError, match="frobnicate"):
            load_config(write_config(tmp_path, doc))

    def test_missing_command_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="'command'"):
            load_config(write_config(tmp_path, {"seed": 1}))


class TestExitCodes:
    def test_missing_required_key_exits_2_naming_key(self, tmp_path, capsys):
        doc = {"command": "multiport",
               "multiport": {"L_v": 4}}          # w0 missing
        code = run(write_config(tmp_path, doc), out=str(tmp_path / "out"))
        assert code == 2
        assert "multiport.w0" in capsys.readouterr().err

    def test_unreadable_config_exits_2(self, tmp_path):
        assert run(str(tmp_path / "nope.yaml")) == 2

    def test_guard_violation_exits_4(self, tmp_path, capsys):
        doc = {"command": "multiport",
               "multiport": {"L_v": 4, "w0": "1800 nm",
                             "angles": [0.0, 1.5]}}  # above the pi/3 guard
        code = run(write_config(tmp_path, doc), out=str(tmp_path / "out"))
        assert code == 4
        assert "guard" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Resource derivation
# ---------------------------------------------------------------------------

class TestDeriveResource:
    def test_reference_constants_give_reference_resource(self):
        rep = derive_resource(PAPER_CONSTANTS, beta_r=17.1, beta_phi=6.7)
        assert rep.x == pytest.approx(7.9e7, rel=0.05)

    def test_zero_rates_rejected(self):
        consts = Constants(c6=-862.69, gamma_r=0.0, gamma_phi=0.0,
                           d0=532.0, lambda_eg=886.0)
        with pytest.raises(ConfigError, match="Gamma"):
            derive_resource(consts, 17.1, 6.7)

    def test_doubling_spacing_divides_by_64(self):
        doubled = Constants(c6=-862.69, gamma_r=19.6, gamma_phi=21.3,
                            d0=1064.0, lambda_eg=886.0)
        rep = derive_resource(PAPER_CONSTANTS, 17.1, 6.7)
        rep2 = derive_resource(doubled, 17.1, 6.7)
        assert rep.x / rep2.x == pytest.approx(64.0, rel=1e-12)


# ---------------------------------------------------------------------------
# CSV formatting
# ---------------------------------------------------------------------------

class TestFormatting:
    def test_float_has_17_significant_digits(self):
        assert format_value(math.pi) == "3.1415926535897931e+00"

    def test_value_roundtrip_is_exact(self):
        for v in (1.0 / 3.0, 7.9e7, 1e-300, -2.5e-13):
            assert float(format_value(v)) == v

    def test_int_bool_str_passthrough(self):
        assert format_value(12) == "12"
        assert format_value(True) == "1"
        assert format_value("uni") == "uni"


# ---------------------------------------------------------------------------
# Command runs (small instances)
# ---------------------------------------------------------------------------

def run_twice(tmp_path, doc):
    """Run the same config into two directories; return both CSV bodies."""
    cfg = write_config(tmp_path, doc)
    outs = []
    for sub in ("out_a", "out_b"):
        outdir = str(tmp_path / sub)
        assert run(cfg, out=outdir) == 0
        blobs = {}
        for name in sorted(os.listdir(outdir)):
            if name.endswith(".csv"):
                with open(os.path.join(outdir, name), "rb") as fh:
                    blobs[name] = fh.read()
        outs.append((outdir, blobs))
    return outs


class TestBenchmarkCommand:
    DOC = {"command": "benchmark", "seed": 1,
           "benchmark": {"N_atoms": 3, "n_transfers": 2}}

    def test_matches_direct_oracle_and_reruns_identically(self, tmp_path):
        (out_a, blobs_a), (out_b, blobs_b) = run_twice(tmp_path, self.DOC)
        assert blobs_a == blobs_b                 # byte-identical rerun
        rates = RateSpec(gamma_r=0.016, gamma_phi=0.016, U=5.0)
        result = raman_benchmark(3, rates, 2)
        golden = ["model,transfer (1),p_g (1),p_q (1),p_r (1),p_rr (1),"
                  "infidelity (1)"]
        for model in ("eff", "exact"):
            for row in result.rows(model):
                golden.append(",".join([model] + [format_value(v)
                                                  for v in row]))
        assert blobs_a["benchmark.csv"].decode().splitlines() == golden

    def test_manifest_roundtrips_to_rerunnable_config(self, tmp_path):
        cfg = write_config(tmp_path, self.DOC)
        out1 = str(tmp_path / "m1")
        assert run(cfg, out=out1) == 0
        with open(os.path.join(out1, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["config_sha256"]
        assert manifest["versions"]["seqphoton"]
        # the manifest itself is accepted as a config and reproduces the CSV
        cfg2 = write_config(tmp_path, manifest, name="from_manifest.yaml")
        out2 = str(tmp_path / "m2")
        assert run(cfg2, out=out2) == 0
        a = open(os.path.join(out1, "benchmark.csv"), "rb").read()
        b = open(os.path.join(out2, "benchmark.csv"), "rb").read()
        assert a == b


class TestProtocolFidelityCommand:
    def test_ideal_curve_is_unity_and_xi_zero(self, tmp_path):
        doc = {"command": "protocol-fidelity",
               "protocol": {"n_max": 6}}
        cfg = write_config(tmp_path, doc)
        outdir = str(tmp_path / "out")
        assert run(cfg, out=outdir) == 0
        header, rows = read_csv(os.path.join(outdir, "protocol_fidelity.csv"))
        assert header == ["n (photons)", "F_ph (1)"]
        assert len(rows) == 6
        fs = [float(r[1]) for r in rows]
        assert np.allclose(fs, 1.0, atol=1e-8)
        with open(os.path.join(outdir, "manifest.json")) as fh:
            extras = json.load(fh)["extras"]
        assert abs(extras["xi"]) < 1e-8

    def test_emission_loss_curve_decays(self, tmp_path):
        doc = {"command": "protocol-fidelity",
               "protocol": {"n_max": 5, "p_em": 0.9}}
        outdir = str(tmp_path / "out")
        assert run(write_config(tmp_path, doc), out=outdir) == 0
        _, rows = read_csv(os.path.join(outdir, "protocol_fidelity.csv"))
        fs = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(fs) < 0.0)
        with open(os.path.join(outdir, "manifest.json")) as fh:
            assert json.load(fh)["extras"]["xi"] > 0.0

    def test_missing_pulse_file_exits_2(self, tmp_path, capsys):
        doc = {"command": "protocol-fidelity",
               "protocol": {"pulse": str(tmp_path / "absent.txt")}}
        assert run(write_config(tmp_path, doc),
                   out=str(tmp_path / "out")) == 2


class TestRetrievalCommand:
    def test_rows_and_bounds(self, tmp_path):
        doc = {"command": "retrieval",
               "retrieval": {"kind": "uni", "L_v": [3, 4], "L_z": 1,
                             "w0": "2400 nm"}}
        outdir = str(tmp_path / "out")
        assert run(write_config(tmp_path, doc), out=outdir) == 0
        header, rows = read_csv(os.path.join(outdir, "retrieval.csv"))
        assert header[:2] == ["L_v (sites)", "L_z (layers)"]
        assert [int(r[0]) for r in rows] == [3, 4]
        for r in rows:
            eps_g, eps_o = float(r[4]), float(r[5])
            assert 0.0 <= eps_o <= eps_g <= 1.0

    def test_rerun_byte_identical(self, tmp_path):
        doc = {"command": "retrieval",
               "retrieval": {"kind": "two-directional", "L_v": 3,
                             "L_z": 1, "w0": "2400 nm"}}
        (_, blobs_a), (_, blobs_b) = run_twice(tmp_path, doc)
        assert blobs_a == blobs_b


class TestGeometryOptCommand:
    @staticmethod
    def seed_cache(path, l_vs, l_zs):
        """Synthetic retrieval table so the scan needs no eigenproblems."""
        with open(path, "w") as fh:
            fh.write("scheme,L_v,L_z,error\n")
            for lz in l_zs:
                for lv in l_vs:
                    fh.write(f"uni,{lv},{lz},{0.6 / (lz + 1.2):.17g}\n")
                    err2 = 1.2 * math.log(lv) ** 2 / lv ** 4 \
                        + 0.3 / (lv * lv * lz)
                    fh.write(f"two-directional,{lv},{lz},{err2:.17g}\n")
                    if lz == 1:
                        err_p = 2.0 * math.log(lv) ** 2 / lv ** 4
                        fh.write(f"two-port,{lv},{lz},{err_p:.17g}\n")

    def test_derived_resource_and_all_schemes(self, tmp_path):
        cache = str(tmp_path / "cache.csv")
        self.seed_cache(cache, (4, 6, 8, 10, 12, 14), (1, 2, 3, 4, 6, 8))
        doc = {"command": "geometry-opt",
               "geometry": {"cache": cache}}
        outdir = str(tmp_path / "out")
        with pytest.warns(UserWarning):       # synthetic table -> boundary
            assert run(write_config(tmp_path, doc), out=outdir) == 0
        header, rows = read_csv(os.path.join(outdir, "geometry.csv"))
        assert [r[0] for r in rows] == ["uni", "two-directional", "cavity",
                                        "two-port"]
        for r in rows:
            assert float(r[1]) == pytest.approx(7.9e7, rel=0.05)
            assert float(r[5]) > 0.0          # N_ph
            assert 0.0 < float(r[6]) <= 1.0   # p_em
        n_ph = {r[0]: float(r[5]) for r in rows}
        assert n_ph["cavity"] > n_ph["uni"]   # finesse divides the error

    def test_resource_grid_reports_exponents(self, tmp_path):
        cache = str(tmp_path / "cache.csv")
        self.seed_cache(cache, (4, 6, 8, 10, 12, 14), (1, 2, 3, 4, 6, 8))
        xs = [float(x) for x in np.geomspace(1e6, 1e10, 7)]
        doc = {"command": "geometry-opt",
               "geometry": {"schemes": "two-directional", "cache": cache,
                            "x_grid": xs}}
        outdir = str(tmp_path / "out")
        with pytest.warns(UserWarning):
            assert run(write_config(tmp_path, doc), out=outdir) == 0
        _, rows = read_csv(os.path.join(outdir, "geometry.csv"))
        assert len(rows) == 7
        with open(os.path.join(outdir, "manifest.json")) as fh:
            extras = json.load(fh)["extras"]["two-directional"]
        assert extras["n_ph_exponent"] > 0.0
        assert extras["xi_strictly_decreasing"] is True


class TestMultiportCommand:
    def test_default_angle_grid_and_determinism(self, tmp_path):
        doc = {"command": "multiport",
               "multiport": {"L_v": 3, "w0": "1800 nm"}}
        (out_a, blobs_a), (_, blobs_b) = run_twice(tmp_path, doc)
        assert blobs_a == blobs_b
        header, rows = read_csv(os.path.join(out_a, "multiport.csv"))
        assert header == ["theta (rad)", "eps_gauss (1)"]
        assert len(rows) == 5
        assert float(rows[0][0]) == 0.0
        for r in rows:
            assert 0.0 <= float(r[1]) <= 1.0


class TestSynthesizeConfig:
    def test_unknown_target_rejected(self, tmp_path):
        doc = {"command": "synthesize", "synthesize": {"target": "w-state"}}
        assert run(write_config(tmp_path, doc),
                   out=str(tmp_path / "out")) == 2

    def test_defaults_resolve(self, tmp_path):
        doc = {"command": "synthesize"}
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.params["target"] == "cluster"
        assert cfg.params["tolerance"] == pytest.approx(1e-3)

import argparse
import contextlib
import copy
import csv
import gc
import io
import json
import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavestring.cli import main, resolve_config
from wavestring.errors import ConfigError

MF = {"num": [4 / 3, 4 / 3], "den": [0, 0, 1, 1 / 3]}
MR_SCALED = {"num": [2.5 / 3, 2.5 / 3], "den": [0, 0, 1, 1 / 3]}
MR_VEL = {"num": [4 / 3, 2.5 / 3], "den": [0, 0, 1, 1 / 3]}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def base_config(mr=MR_SCALED, **overrides):
    cfg = {
        "dynamics": {"mf": MF, "mr": mr},
        "topology": {"kind": "path", "n": 6},
        "sim": {"t_final": 20.0, "dt": 0.01},
        "analysis": {"points": 400},
    }
    cfg.update(overrides)
    return cfg


class TestResolve:
    def test_defaults_filled(self):
        cfg = resolve_config({"dynamics": {"mf": MF, "mr": MR_SCALED}})
        assert cfg["sim"]["t_final"] == 100.0
        assert cfg["sim"]["dt"] == pytest.approx(1e-3)
        assert cfg["analysis"]["tolerances"]["tol_norm"] == 1e-3
        assert cfg["topology"] == {"kind": "path", "n": 20}

    def test_idempotent(self):
        once = resolve_config(base_config())
        assert resolve_config(once) == once

    def test_factored_dynamics(self):
        cfg = resolve_config(
            {
                "dynamics": {
                    "plant": {"num": [1 / 3], "den": [0, 0, 1, 1 / 3]},
                    "cf": {"num": [4, 4], "den": [1]},
                    "cr": {"num": [2.5, 2.5], "den": [1]},
                }
            }
        )
        from wavestring.cli import build_dynamics

        d = build_dynamics(cfg)
        assert d.Mf.p == 2
        assert d.Mf.num.coeffs == pytest.approx((4 / 3, 4 / 3))
        assert d.Mr.num.coeffs == pytest.approx((2.5 / 3, 2.5 / 3))

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"dynamics": {"mf": MF, "mr": MF}, "bogus": 1})

    def test_missing_dynamics_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({})


class TestAnalyze:
    def test_asymmetric_verdict(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert main(["analyze", "--config", cfg_path, "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert payload["verdict"] == "unstable"
        assert payload["theorem2_triggered"] is True
        assert payload["kappa"] == pytest.approx(1.6)
        assert payload["dc_gains"] == {"g_plus": 1.0, "g_minus": 0.625}
        assert payload["hinf"]["g_plus"]["value"] > 1.0

    def test_symmetric_verdict(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(mr=MF))
        out = str(tmp_path / "out")
        assert main(["analyze", "--config", cfg_path, "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert payload["verdict"] == "stable"
        assert payload["kappa"] == pytest.approx(1.0)

    def test_round_trip_bit_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out1 = str(tmp_path / "o1")
        out2 = str(tmp_path / "o2")
        assert main(["analyze", "--config", cfg_path, "--out", out1]) == 0
        payload = json.loads((tmp_path / "o1" / "analysis.json").read_text())
        embedded = write_config(tmp_path, payload["config"], "embedded.json")
        assert main(["analyze", "--config", embedded, "--out", out2]) == 0
        assert (tmp_path / "o1" / "analysis.json").read_bytes() == (
            tmp_path / "o2" / "analysis.json"
        ).read_bytes()

    def test_invalid_config_exit_1(self, tmp_path):
        cfg_path = write_config(tmp_path, {"dynamics": {"mf": MF}})
        assert main(["analyze", "--config", cfg_path, "--out", str(tmp_path)]) == 1

    def test_integrator_mismatch_exit_2(self, tmp_path):
        cfg = {
            "dynamics": {
                "mf": {"num": [1], "den": [0, 1]},
                "mr": {"num": [1], "den": [0, 0, 1]},
            }
        }
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["analyze", "--config", cfg_path, "--out", out]) == 2
        payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert payload["assumption"]["passed"] is False
        assert payload["verdict"] is None

    def test_headway_term_reported(self, tmp_path):
        cfg = base_config()
        cfg["dynamics"]["h"] = 0.5
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["analyze", "--config", cfg_path, "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert payload["headway_dominant_term"] == pytest.approx(
            1.2 * 0.36 - 0.25 * 2.56
        )

    def test_config_tolerances_reach_the_verdict(self, tmp_path):
        # kappa = 1.05 is positionally symmetric under tol_dc = 0.1, so the
        # two-integrator fast path must not fire
        cfg = base_config(mr={"num": [1.0, 1.0], "den": [0, 0, 1, 0.3]})
        cfg["dynamics"]["mf"] = {"num": [1.05, 1.0], "den": [0, 0, 1, 0.3]}
        cfg["analysis"]["tolerances"] = {"tol_dc": 0.1}
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["analyze", "--config", cfg_path, "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert payload["positional_symmetry"] is True
        assert payload["theorem2_triggered"] is False
        assert not any("asymmetric positional" in n for n in payload["notes"])

    def test_seed_and_grid_points_flags(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        rc = main(["analyze", "--config", cfg_path, "--out", out,
                   "--grid-points", "256", "--seed", "7"])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert payload["config"]["analysis"]["points"] == 256


class TestSimulate:
    def test_csv_layout(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
        with open(tmp_path / "out" / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t"] + [f"x_{n}" for n in range(7)]
        assert float(rows[1][0]) == 0.0
        assert float(rows[1][1]) == 1.0  # leader step applied at t=0
        assert len(rows) == 2 + int(20.0 / 0.01)
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert len(metrics["per_agent"]) == 7
        assert "config" in metrics

    def test_metrics_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", cfg_path, "--out", out1]) == 0
        payload = json.loads((tmp_path / "a" / "metrics.json").read_text())
        embedded = write_config(tmp_path, payload["config"], "emb.json")
        assert main(["simulate", "--config", embedded, "--out", out2]) == 0
        for name in ("metrics.json", "trajectory.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_symmetric_long_run_tracks_to_microns(self, tmp_path):
        # two integrators give zero steady-state error; the symmetric
        # transient is very slow, hence the long horizon and coarser step
        cfg = {
            "dynamics": {"mf": MF, "mr": MF},
            "topology": {"kind": "path", "n": 20},
            "sim": {"t_final": 6000.0, "dt": 0.02},
        }
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        with open(tmp_path / "out" / "trajectory.csv") as fh:
            last = fh.readlines()[-1].split(",")
        assert abs(float(last[-1]) - 1.0) <= 1e-6

    def test_tree_topology_config(self, tmp_path):
        cfg = base_config()
        cfg["topology"] = {
            "kind": "tree",
            "n": 3,
            "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [3, 5]],
        }
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
        with open(tmp_path / "out" / "trajectory.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["t"] + [f"x_{n}" for n in range(6)]

    def test_tree_without_edges_exit_1(self, tmp_path):
        cfg = base_config()
        cfg["topology"] = {"kind": "tree", "n": 3, "edges": []}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path)]) == 1

    def test_disturbance_on_missing_agent_exit_1(self, tmp_path):
        cfg = base_config()
        cfg["sim"]["disturbances"] = [{"agent": 99}]
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
        assert not out.exists()

    def test_step_outside_stability_region_exit_3(self, tmp_path, capsys):
        cfg = base_config()
        cfg["topology"]["n"] = 3
        cfg["sim"]["t_final"] = 100.0
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        argv = ["simulate", "--config", cfg_path, "--out", str(out), "--dt", "5"]
        assert main(argv) == 3
        assert "dt=5 " in capsys.readouterr().err
        assert not out.exists()


class TestWaves:
    def test_waves_csv(self, tmp_path):
        cfg = base_config(mr=MR_VEL)
        cfg["topology"]["n"] = 8
        cfg["waves"] = {"agent": 4, "t_final": 12.0, "samples": 2048}
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["waves", "--config", cfg_path, "--out", out]) == 0
        with open(tmp_path / "out" / "waves.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x_n_sim", "x_n_wave", "a_n", "b_n"]
        data = np.array([[float(v) for v in r] for r in rows[1:]])
        assert np.max(np.abs(data[:, 1] - data[:, 2])) <= 2e-2

    def test_agent_out_of_range_exit_1(self, tmp_path):
        cfg = base_config()
        cfg["waves"] = {"agent": 99}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["waves", "--config", cfg_path, "--out", str(tmp_path)]) == 1

    def test_tree_topology_rejected(self, tmp_path):
        cfg = base_config()
        cfg["topology"] = {
            "kind": "tree", "n": 3,
            "edges": [[0, 1], [1, 2], [2, 3], [3, 4]],
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["waves", "--config", cfg_path, "--out", str(tmp_path)]) == 1

    def test_bad_samples_exit_1(self, tmp_path):
        cfg = base_config()
        cfg["waves"] = {"agent": 3, "samples": 1000}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["waves", "--config", cfg_path, "--out", str(tmp_path)]) == 1


class TestSweep:
    def test_mu_flips_exactly_at_symmetry(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(mr=MF))
        out = str(tmp_path / "out")
        rc = main(["sweep", "--config", cfg_path, "--out", out,
                   "--parameter", "mu", "--values", "0.5,0.75,1.0,1.25,1.5"])
        assert rc == 0
        with open(tmp_path / "out" / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            mu = float(row["value"])
            if mu == 1.0:
                assert row["verdict"] == "stable"
                assert row["theorem2_triggered"] == "False"
            else:
                assert row["verdict"] == "unstable"
                assert row["theorem2_triggered"] == "True"

    def test_headway_sweep_sign_change(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        rc = main(["sweep", "--config", cfg_path, "--out", out,
                   "--parameter", "h", "--range", "0.0:1.0:5"])
        assert rc == 0
        with open(tmp_path / "out" / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        terms = [float(r["headway_dominant_term"]) for r in rows]
        assert terms[0] > 0 > terms[-1]

    def test_chain_length_sweep_overshoot_monotone(self, tmp_path):
        cfg = base_config()
        cfg["sim"] = {"t_final": 60.0, "dt": 0.01}
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        rc = main(["sweep", "--config", cfg_path, "--out", out,
                   "--parameter", "N", "--values", "10,20,40"])
        assert rc == 0
        with open(tmp_path / "out" / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        overshoots = [float(r["last_agent_overshoot"]) for r in rows]
        assert overshoots[0] < overshoots[1] < overshoots[2]

    def test_parallel_rows_deterministic(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, base_config())
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        monkeypatch.delenv("WAVESTRING_THREADS", raising=False)
        assert main(["sweep", "--config", cfg_path, "--out", out1,
                     "--parameter", "h", "--values", "0.1,0.4,0.8"]) == 0
        monkeypatch.setenv("WAVESTRING_THREADS", "3")
        assert main(["sweep", "--config", cfg_path, "--out", out2,
                     "--parameter", "h", "--values", "0.1,0.4,0.8"]) == 0
        assert (tmp_path / "s1" / "sweep.csv").read_bytes() == (
            tmp_path / "s2" / "sweep.csv"
        ).read_bytes()
        # the variable is accepted and ignored, whatever its value
        out3 = str(tmp_path / "s3")
        monkeypatch.setenv("WAVESTRING_THREADS", "abc")
        assert main(["sweep", "--config", cfg_path, "--out", out3,
                     "--parameter", "h", "--values", "0.1,0.4,0.8"]) == 0
        assert (tmp_path / "s1" / "sweep.csv").read_bytes() == (
            tmp_path / "s3" / "sweep.csv"
        ).read_bytes()

    @pytest.mark.parametrize("parameter", ["h", "mu", "N"])
    def test_non_finite_values_exit_1(self, tmp_path, parameter):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg_path, "--out", str(out),
                     "--parameter", parameter, "--values", "1,nan"]) == 1
        assert not out.exists()

    def test_missing_values_exit_1(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--parameter", "h"]) == 1


MALFORMED = {
    "points-not-number": ("analysis", "points", "x"),
    "tolerances-not-object": ("analysis", "tolerances", "x"),
    "tol-norm-not-number": ("analysis", "tolerances", {"tol_norm": "x"}),
    "tol-crhp-not-number": ("analysis", "tolerances", {"tol_crhp": "x"}),
    "t-final-not-number": ("sim", "t_final", "abc"),
    "step-amplitude-not-number": ("sim", "step_amplitude", "x"),
    "disturbance-agent-not-number": ("sim", "disturbances", [{"agent": "a"}]),
    "disturbance-amplitude-not-number": (
        "sim", "disturbances", [{"agent": 2, "amplitude": "x"}]),
    "waves-agent-not-number": ("waves", "agent", "x"),
    "nan-coefficient": (
        "dynamics", "mf", {"num": [float("nan"), 1.0], "den": [0, 0, 1, 1 / 3]}),
    "infinite-headway": ("dynamics", "h", float("inf")),
}


def all_commands_config(**overrides):
    """A config each of analyze, simulate and waves runs to exit 0."""
    return base_config(waves={"agent": 3, "t_final": 5.0, "samples": 1024},
                       **overrides)


class TestMalformedConfig:
    @pytest.mark.parametrize("section, key, value", MALFORMED.values(),
                             ids=list(MALFORMED))
    def test_exit_1_without_output(self, tmp_path, capsys, section, key, value):
        cfg = all_commands_config()
        cfg[section][key] = value
        cfg_path = write_config(tmp_path, cfg)
        for command in ("analyze", "simulate", "waves"):
            out = tmp_path / command
            assert main([command, "--config", cfg_path, "--out", str(out)]) == 1
            assert "config error" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "simulate", "waves"])
    def test_overflowing_headway_exit_3_without_warning(self, tmp_path, command):
        cfg = all_commands_config()
        cfg["dynamics"]["h"] = 1e308
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg_path, "--out", str(out)]) == 3
        assert not out.exists()


class TestUsageErrors:
    def test_missing_required_flag_is_config_error(self, capsys):
        assert main(["analyze", "--out", "somewhere"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_parameter_choice_is_config_error(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--parameter", "bogus", "--values", "1"]) == 1

    @pytest.mark.parametrize("text, flags", [
        ("{not json", ["--grid-points", "64"]),
        ("[1, 2]", ["--dt", "0.01"]),
        (json.dumps(base_config(sim="x")), ["--dt", "0.01"]),
    ], ids=["not-json", "json-list", "sim-not-object"])
    def test_override_flags_on_malformed_config_exit_1(
        self, tmp_path, monkeypatch, capsys, text, flags
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]
                    + flags) == 1
        assert "config error" in capsys.readouterr().err
        assert list(scratch.iterdir()) == []
        assert not out.exists()


NEGATIVE_KAPPA = {"mf": {"num": [-1], "den": [0, 0, 1, 1]},
                  "mr": {"num": [1], "den": [0, 0, 1, 1]}}


class TestNegativeKappa:
    """A pair whose numerators differ in sign at s = 0 violates the assumption."""

    def config(self):
        return all_commands_config(dynamics=copy.deepcopy(NEGATIVE_KAPPA))

    def test_analyze_reports_the_violation(self, tmp_path):
        cfg_path = write_config(tmp_path, self.config())
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg_path, "--out", str(out)]) == 2
        payload = json.loads((out / "analysis.json").read_text())
        assert payload["assumption"] == {
            "equal_integrators": True,
            "both_proper": True,
            "no_crhp_roots": True,
            "passed": False,
            "violations": ["DC gain ratio kappa = -1 is not positive"],
        }
        assert payload["kappa"] == -1.0
        assert payload["verdict"] is None

    @pytest.mark.parametrize("command", ["simulate", "waves"])
    def test_simulating_commands_exit_2(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, self.config())
        out = tmp_path / "out"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
        assert "kappa = -1 is not positive" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_mu_sweep_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(mr=MF))
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg_path, "--out", str(out),
                     "--parameter", "mu", "--values=1,-0.5"]) == 2
        assert "kappa = -2 is not positive" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    def test_main_leaves_no_parser_cycles(self, tmp_path):
        # argparse parsers hold reference cycles; one built per call left
        # about 260 objects for the cyclic collector after every main()
        cfg_path = write_config(tmp_path, base_config())
        argv = ["analyze", "--config", cfg_path, "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == 0
            gc.collect()
            parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert parsers == []


class TestUnrepresentableLowOrderCoefficient:
    @pytest.mark.parametrize("nr0", [1e300, 1e-300])
    def test_analyze_exits_3_naming_the_coefficient(self, tmp_path, capsys, nr0):
        mr = {"num": [nr0, 4 / 3], "den": [0, 0, 1, 1 / 3]}
        cfg_path = write_config(tmp_path, base_config(mr=mr))
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg_path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"Mr's numerator constant {nr0:.6g}" in err
        assert not out.exists()


# command, (section, key, value) or None, extra flags
REFUSED = {
    "dt-1e-12": ("simulate", ("sim", "dt", 1e-12), []),
    "t-final-1e300": ("simulate", ("sim", "t_final", 1e300), []),
    "t-final-1e308": ("simulate", ("sim", "t_final", 1e308), []),
    "waves-t-final-1e300": ("waves", ("waves", "t_final", 1e300), []),
    "points-1e15": ("analyze", ("analysis", "points", 1e15), []),
    "samples-2**50": ("waves", ("waves", "samples", 2**50), []),
    "far-tree-edge": ("simulate", ("topology", "edges", [[0, 1], [1, 2], [2, 3],
                                                         [3, 10**15]]), []),
    "zero-step-amplitude": ("simulate", ("sim", "step_amplitude", 0), []),
    "sweep-N-1e6": ("sweep", None, ["--parameter", "N", "--values", "1e6"]),
    "sweep-N-2": ("sweep", None, ["--parameter", "N", "--values", "2"]),
    "sweep-h-negative": ("sweep", None, ["--parameter", "h", "--values=-1"]),
    "sweep-range-1e12-values": ("sweep", None, ["--parameter", "h",
                                                "--range", "0:1:1000000000000"]),
}


class TestRefusedUpFront:
    @pytest.mark.parametrize("command, change, flags", REFUSED.values(),
                             ids=list(REFUSED))
    def test_exit_1_without_allocating(self, tmp_path, capsys, command, change, flags):
        cfg = all_commands_config()
        if change is not None:
            section, key, value = change
            if section == "topology":
                cfg["topology"] = {"kind": "tree", "n": 3}
            cfg[section][key] = value
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            rc = main([command, "--config", cfg_path, "--out", str(out)] + flags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 8 * 2**20


# Replacement values for one config field or sweep value at a time.
POOL = ["x", True, None, [], [1.0], {}, {"a": 1}, -1, -1e300, 0, math.nan,
        1e-12, 1e300, 1e308, 10**400]
COMMANDS = [["analyze"], ["simulate"], ["waves"],
            ["sweep", "--parameter", "h", "--values=0.3"],
            ["sweep", "--parameter", "mu", "--values=0.8"],
            ["sweep", "--parameter", "N", "--values=4"]]


def contract_base() -> dict:
    cfg = all_commands_config()
    cfg["sim"]["disturbances"] = [{"agent": 2, "signal": "pulse", "amplitude": 0.1,
                                   "start": 1.0, "duration": 1.0}]
    return resolve_config(cfg)


def field_paths(node, prefix=()):
    """Every key and list index below node, as a path from it."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


CONTRACT_BASE = contract_base()
FIELD_PATHS = list(field_paths(CONTRACT_BASE))


@st.composite
def mutated_calls(draw):
    argv = list(draw(st.sampled_from(COMMANDS)))
    value = draw(st.sampled_from(POOL))
    cfg = copy.deepcopy(CONTRACT_BASE)
    if argv[0] == "sweep" and draw(st.booleans()):
        argv[-1] = f"--values={json.dumps(value)}"
    else:
        *parents, key = draw(st.sampled_from(FIELD_PATHS))
        node = cfg
        for parent in parents:
            node = node[parent]
        node[key] = copy.deepcopy(value)
    return argv, cfg


def non_finite_numbers(out_dir: str) -> list:
    bad = []
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name)) as fh:
            text = fh.read()
        if name.endswith(".json"):
            json.loads(text, parse_constant=bad.append)
            continue
        for cell in text.replace("\n", ",").split(","):
            try:
                if not math.isfinite(float(cell)):
                    bad.append(cell)
            except ValueError:
                pass  # a header, bool or verdict cell
    return bad


class TestExitCodeContract:
    @settings(max_examples=800, deadline=None, derandomize=True, database=None)
    @given(call=mutated_calls())
    def test_main_returns_0_to_3_and_writes_only_finite_numbers(self, call):
        argv, cfg = call
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = os.path.join(tmp, "cfg.json")
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            out = os.path.join(tmp, "out")
            sink = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                warnings.simplefilter("always")
                rc = main(argv + ["--config", cfg_path, "--out", out])
            assert [str(w.message) for w in caught] == []
            assert rc in (0, 1, 2, 3)
            if rc in (1, 3):
                assert not os.path.exists(out)
            if rc == 0:
                assert non_finite_numbers(out) == []

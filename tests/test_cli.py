import argparse
import contextlib
import copy
import csv
import gc
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavestring
from wavestring import (AgentDynamics, FrequencyGrid, RationalTF, SimConfig, Topology,
                        build_network, local_string_verdict)
from wavestring import cli
from wavestring.cli import main, resolve_config
from wavestring.errors import ConfigError
from conftest import expm_reference

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

    def test_config_tol_norm_reaches_the_marginal_band(self, tmp_path):
        # g_minus peaks at 1.012188 near omega = 0.5778: marginal within
        # tol_norm = 0.02, unstable under the default 1e-3
        den = [0, 1, 0.5]
        cfg = base_config(mr={"num": [2.0], "den": den})
        cfg["dynamics"]["mf"] = {"num": [0.5, 0.25], "den": den}
        for tol_norm, verdict in ((0.02, "marginal"), (None, "unstable")):
            tolerances = {} if tol_norm is None else {"tol_norm": tol_norm}
            cfg["analysis"]["tolerances"] = tolerances
            cfg_path = write_config(tmp_path, cfg)
            out = tmp_path / verdict
            assert main(["analyze", "--config", cfg_path, "--out", str(out)]) == 0
            payload = json.loads((out / "analysis.json").read_text())
            assert payload["verdict"] == verdict
            marginal_note = any("sits on the |G|=1 boundary" in n for n in payload["notes"])
            assert marginal_note is (verdict == "marginal")

    def test_seed_and_grid_points_flags(self, tmp_path):
        cfg = base_config()
        cfg["analysis"]["points"] = 256
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        rc = main(["analyze", "--config", cfg_path, "--out", out])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert payload["config"]["analysis"]["points"] == 256
        # --seed was accepted and ignored; it is gone
        rc = main(["analyze", "--config", cfg_path, "--out", str(tmp_path / "o2"),
                   "--seed", "7"])
        assert rc == 1


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

    @pytest.mark.parametrize("topology", [
        {"n": 3.9}, {"n": "3"},
        {"edges": [["0", "1"], ["1", "2"], ["2", "3"], ["3", "4"]]},
        {"edges": [[0.5, 1], [1, 2.9], [2, 3], [3, 4]]},
        {"edges": [[False, True], [True, 2], [2, 3], [3, 4]]},
        {"edges": ["01", "12", "23", "34"]},
        {"edges": [[0, 1], [1, 2], [2, 3], [3, 4, 5]]},
    ], ids=["n-float", "n-string", "string-ends", "float-ends", "bool-ends",
            "string-edges", "three-ends"])
    def test_tree_config_is_not_coerced(self, tmp_path, capsys, topology):
        # int() would make each of these but the last the path 0-1-2-3-4
        cfg = base_config()
        cfg["topology"] = {"kind": "tree", "n": 3,
                           "edges": [[0, 1], [1, 2], [2, 3], [3, 4]], **topology}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_disturbance_on_missing_agent_exit_1(self, tmp_path):
        cfg = base_config()
        cfg["sim"]["disturbances"] = [{"agent": 99}]
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
        assert not out.exists()

    def test_long_step_exit_0(self, tmp_path, gain_asym_dyn):
        # the step map is exact, so dt = 5 s writes the exact solution on
        # its 5 s grid
        cfg = base_config()
        cfg["topology"]["n"] = 3
        cfg["sim"].update(t_final=100.0, dt=5.0)
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        argv = ["simulate", "--config", cfg_path, "--out", str(out)]
        assert main(argv) == 0
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], np.arange(21) * 5.0)
        net = build_network(Topology.path(3), gain_asym_dyn)
        want = expm_reference(net, SimConfig(dt=5.0, T_final=100.0))
        assert np.max(np.abs(rows[:, 1:].T - want)) <= 1e-10 * np.max(np.abs(want))

    def test_absurd_step_exit_3(self, tmp_path, capsys):
        # dt ||A||_1 = 3.5e17 on the symmetric path-3 needs 60 doublings of
        # the step map, more than the 40 that simulate accepts
        cfg = base_config(mr=MF)
        cfg["topology"]["n"] = 3
        cfg["sim"].update(t_final=1e17, dt=1e16)
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        argv = ["simulate", "--config", cfg_path, "--out", str(out)]
        assert main(argv) == 3
        assert "dt*||A||_1 = 3.5e+17 needs s = 60 doublings" in capsys.readouterr().err
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

    def test_rows_deterministic(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        for out in ("s1", "s2"):
            assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / out),
                         "--parameter", "h", "--values", "0.1,0.4,0.8"]) == 0
        assert (tmp_path / "s1" / "sweep.csv").read_bytes() == (
            tmp_path / "s2" / "sweep.csv"
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

    @pytest.mark.parametrize("values, named", [
        (["--values", "5.9,7.2"], "N = 5.9"),
        (["--values", "5,7.2"], "N = 7.2"),
        (["--range", "10:50:4"], "N = 23.333333333333336"),
    ], ids=["values", "second-value", "range"])
    def test_fractional_chain_length_exit_1(self, tmp_path, capsys, values, named):
        # int() would simulate N = 5 and 7 on rows labelled 5.9 and 7.2
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg_path, "--out", str(out),
                     "--parameter", "N"] + values) == 1
        assert f"{named} is not a whole number" in capsys.readouterr().err
        assert not out.exists()


def assert_no_child_and_no_tmp(directory):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(directory.rglob("*.tmp")) == []


class TestCsvWorkers:
    """A large CSV is formatted by forked workers, one row range each; the
    bytes never depend on their number, and none outlives the call."""

    # path-6 over 200 s at dt 0.01: 20,001 rows of 8 cells, enough for three
    # workers; over 0.1 s, 11 rows, fewer than 16 workers
    LARGE, TINY = 200.0, 0.1

    @pytest.fixture
    def cpus(self, monkeypatch):
        def set_cpus(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return set_cpus

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of this process's os.fork calls, in order."""
        calls, fork = [], os.fork

        def counted():
            calls.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return calls

    @staticmethod
    def simulate(tmp_path, name, t_final=LARGE):
        cfg = base_config()
        cfg["sim"]["t_final"] = t_final
        out = tmp_path / name
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        return (out / "trajectory.csv").read_bytes()

    @pytest.fixture
    def serial(self, tmp_path, cpus):
        """The one-worker trajectory.csv of the large run."""
        cpus(1)
        return self.simulate(tmp_path, "serial")

    @pytest.mark.parametrize("t_final, rows, counts", [
        (LARGE, 20001, (1, 2, 3)), (TINY, 11, (1, 3, 16))],
        ids=["large", "fewer-rows-than-workers"])
    def test_bytes_do_not_depend_on_workers(self, tmp_path, monkeypatch, cpus, forks,
                                            t_final, rows, counts):
        if t_final == self.TINY:
            monkeypatch.setattr(cli, "FORK_MIN_CELLS", 1)
        outputs = []
        for n in counts:
            cpus(n)
            del forks[:]
            outputs.append(self.simulate(tmp_path, f"w{n}", t_final))
            assert len(forks) == min(n, rows) - 1
            assert_no_child_and_no_tmp(tmp_path)
        assert outputs[0].count(b"\n") == 1 + rows
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("fail", ["raises", "missing"])
    def test_unforkable_range_formatted_here(self, tmp_path, monkeypatch, cpus, serial,
                                             fail):
        def refused():
            raise OSError("Resource temporarily unavailable")

        if fail == "missing":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", refused)
        cpus(2)
        assert self.simulate(tmp_path, "out") == serial
        assert_no_child_and_no_tmp(tmp_path)

    @pytest.mark.parametrize("death", ["exit-1", "killed"])
    def test_failed_worker_range_formatted_here(self, tmp_path, monkeypatch, cpus,
                                                serial, death):
        parent, rows = os.getpid(), cli._csv_rows

        def failing(columns, a, b):
            if os.getpid() != parent:
                if death == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("worker fails")
            return rows(columns, a, b)

        monkeypatch.setattr(cli, "_csv_rows", failing)
        cpus(3)
        assert self.simulate(tmp_path, "out") == serial
        assert_no_child_and_no_tmp(tmp_path)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_parent_error_kills_and_reaps_workers(self, tmp_path, monkeypatch, cpus,
                                                  error):
        parent = os.getpid()

        def stalling(columns, a, b):
            if os.getpid() != parent:
                time.sleep(60)  # still running when the parent fails
            raise error("parent fails mid-format")

        monkeypatch.setattr(cli, "_csv_rows", stalling)
        cpus(3)
        start = time.monotonic()
        with pytest.raises(error):
            self.simulate(tmp_path, "out")
        assert time.monotonic() - start < 30
        assert_no_child_and_no_tmp(tmp_path)
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_waves_and_sweeps_stay_in_process(self, tmp_path, monkeypatch, cpus):
        # the bench's waves call and sweep shapes, on as many CPUs as one may have
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        cpus(256)
        cfg = base_config(mr=MR_VEL)
        cfg["topology"]["n"] = 20
        cfg["sim"] = {"t_final": 40.0, "dt": 0.01}
        cfg["waves"] = {"agent": 10, "t_final": 40.0, "samples": 16384}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["waves", "--config", cfg_path, "--out", str(tmp_path / "w")]) == 0
        for parameter, values in (("h", "0:2:20"), ("mu", "0.5:1.5:21"), ("N", "10:50:5")):
            assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / parameter),
                         "--parameter", parameter, "--range", values]) == 0
        assert_no_child_and_no_tmp(tmp_path)

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_outputs_take_the_umask_mode(self, tmp_path, umask):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            for command in ("analyze", "simulate"):
                assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
            with open(out / "plain", "w"):
                pass
        finally:
            os.umask(old)
        want = os.stat(out / "plain").st_mode
        assert want & 0o777 == 0o666 & ~umask
        for name in ("analysis.json", "trajectory.csv", "metrics.json"):
            assert os.stat(out / name).st_mode == want


class TestSharedGrid:
    """A sweep call builds one FrequencyGrid for its rows, which share its
    omegas and nothing else: each row's verdict equals one from the row's
    own dynamics objects and a fresh grid, and no call reads another
    call's."""

    @staticmethod
    def fresh_rows(cfg, parameter, values):
        """The verdict columns of each row, from its own dynamics objects
        and a fresh grid, as sweep.csv writes them."""
        cfg = resolve_config(cfg)
        ana = cfg["analysis"]
        rows = []
        for v in values:
            d = cli.build_dynamics(cfg)
            if parameter == "h":
                d = AgentDynamics(d.Mf, d.Mr, h=v)
            else:
                d = AgentDynamics(d.Mf, RationalTF(d.Mr.num.scaled(v), d.Mr.den, d.Mr.p))
            grid = FrequencyGrid(ana["omega_min"], ana["omega_max"], ana["points"])
            verdict = local_string_verdict(d, grid)
            rows.append([str(x) for x in (
                verdict.awtf_stable, verdict.locally_string_stable,
                verdict.norm_gp.value, verdict.norm_gm.value)])
        return rows

    @pytest.mark.parametrize("parameter, values, mr", [
        ("mu", [1.25, 0.5, 1.0, 0.5, 1.25], MF),
        ("h", [0.8, 0.0, 0.4, 0.8, 0.0], MR_SCALED),
    ])
    def test_rows_equal_fresh_grids(self, tmp_path, parameter, values, mr):
        cfg = base_config(mr=mr)
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--parameter", parameter,
                     "--values", ",".join(map(str, values))]) == 0
        with open(out / "sweep.csv") as fh:
            got = [[r[c] for c in ("awtf_stable", "verdict", "norm_g_plus", "norm_g_minus")]
                   for r in csv.DictReader(fh)]
        assert got == self.fresh_rows(cfg, parameter, values)

    def test_calls_in_either_order(self, tmp_path):
        calls = {
            "mu": (base_config(mr=MF), ["sweep", "--parameter", "mu", "--values", "0.7,1.0"]),
            "h": (base_config(), ["sweep", "--parameter", "h", "--values", "0.5,0.1"]),
            "analyze": (base_config(mr=MR_VEL), ["analyze"]),
        }
        outputs = {}
        for order in (["mu", "h", "analyze"], ["analyze", "h", "mu"]):
            for name in order:
                cfg, argv = calls[name]
                out = tmp_path / f"{name}-{order[0]}"
                cfg_path = write_config(tmp_path, cfg, name=f"{name}.json")
                assert main(argv + ["--config", cfg_path, "--out", str(out)]) == 0
                outputs.setdefault(name, []).append(
                    {f: (out / f).read_bytes() for f in sorted(os.listdir(out))})
        for name, (first, second) in outputs.items():
            assert first == second, name


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


# A count or an agent index that is not a JSON integer: (section, key, value)
# and the field the error names.
NON_INTEGER = {
    "points-300.7": (("analysis", "points", 300.7), "analysis.points"),
    "points-2000.0": (("analysis", "points", 2000.0), "analysis.points"),
    "samples-2048.9": (("waves", "samples", 2048.9), "waves.samples"),
    "waves-agent-4.7": (("waves", "agent", 4.7), "waves.agent"),
    "disturbance-agent-2.9": (("sim", "disturbances", [{"agent": 2.9}]),
                              "disturbance.agent"),
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

    @pytest.mark.parametrize("change, field", NON_INTEGER.values(), ids=list(NON_INTEGER))
    def test_non_integer_count_exit_1(self, tmp_path, capsys, change, field):
        # int() would run 300 points, agent 4, ... under a config saying 300.7, 4.7
        section, key, value = change
        cfg = all_commands_config()
        cfg[section][key] = value
        cfg_path = write_config(tmp_path, cfg)
        for command in ("analyze", "simulate", "waves"):
            out = tmp_path / command
            assert main([command, "--config", cfg_path, "--out", str(out)]) == 1
            assert f"config error: {field} must be an integer" in capsys.readouterr().err
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

    @pytest.mark.parametrize("text", [
        "{not json", "[1, 2]", json.dumps(base_config(sim="x")),
        '{"analysis": {"points": 1' + "0" * 5000 + "}}",
    ], ids=["not-json", "json-list", "sim-not-object", "int-of-5001-digits"])
    def test_override_flags_on_malformed_config_exit_1(
        self, tmp_path, monkeypatch, capsys, text
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert list(scratch.iterdir()) == []
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--dt", "0.01"], ["--grid-points", "64"]],
                             ids=["dt", "grid-points"])
    def test_removed_override_flags_exit_1(self, tmp_path, capsys, flags):
        # sim.dt and analysis.points are set in the config, the one input
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)] + flags) == 1
        assert "config error: unrecognized arguments" in capsys.readouterr().err
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


UNFORMABLE_POLES = {"mf": {"num": [4 / 3, 4 / 3], "den": [0, 0, 1e308, 0, 1, 1 / 3]},
                    "mr": MF}
UNFORMABLE = "Mf poles: roots of (1.0, 0.0, 1e-308, 3.33333333333333e-309) cannot be formed"


class TestUnformablePoles:
    """Poles that cannot be formed violate the assumption; with no sim.dt
    there is no default step either, and every command still exits 2."""

    def config(self, tmp_path, dt):
        cfg = all_commands_config(dynamics=copy.deepcopy(UNFORMABLE_POLES))
        del cfg["sim"]["dt"]
        if dt is not None:
            cfg["sim"]["dt"] = dt
        return write_config(tmp_path, cfg)

    @pytest.mark.parametrize("dt", [None, 0.001])
    def test_analyze_reports_the_violation(self, tmp_path, dt):
        cfg_path = self.config(tmp_path, dt)
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg_path, "--out", str(out)]) == 2
        payload = json.loads((out / "analysis.json").read_text())
        assert payload["assumption"]["passed"] is False
        assert payload["assumption"]["no_crhp_roots"] is False
        assert [v.startswith(UNFORMABLE) for v in payload["assumption"]["violations"]] \
            == [True]
        assert payload["config"]["sim"]["dt"] == dt
        assert payload["verdict"] is None

    @pytest.mark.parametrize("dt", [None, 0.001])
    @pytest.mark.parametrize("command", [
        ["simulate"], ["waves"],
        ["sweep", "--parameter", "mu", "--values", "1"],
        ["sweep", "--parameter", "N", "--values", "5"],
    ], ids=["simulate", "waves", "sweep-mu", "sweep-N"])
    def test_other_commands_exit_2(self, tmp_path, capsys, command, dt):
        cfg_path = self.config(tmp_path, dt)
        out = tmp_path / "out"
        assert main(command + ["--config", cfg_path, "--out", str(out)]) == 2
        assert "assumption violated" in capsys.readouterr().err
        assert not out.exists()

    def test_resolve_leaves_dt_unset_and_is_idempotent(self, tmp_path):
        cfg = all_commands_config(dynamics=copy.deepcopy(UNFORMABLE_POLES))
        del cfg["sim"]["dt"]
        once = resolve_config(cfg)
        assert once["sim"]["dt"] is None
        assert resolve_config(once) == once


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

    def test_readme_names_the_parser_flags(self):
        # a flag the parser dropped cannot stay advertised, nor a new one go unlisted
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md")) as fh:
            section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        subparsers = next(a for a in cli._parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {opt for p in subparsers.choices.values() for a in p._actions
                   for opt in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", section)) == options


class TestOverflowingGrid:
    def test_analyze_exits_3_naming_the_frequency(self, tmp_path, capsys):
        cfg = base_config()
        cfg["analysis"]["omega_max"] = 1e200
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg_path, "--out", str(out)]) == 3
        assert "at s=1e+200j" in capsys.readouterr().err
        assert not out.exists()


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


class TestHugeNumeratorConstant:
    """Mf's or Mr's numerator constant at 1e100 under a 0.7 s headway. The
    axis and level-set polynomials are quartic in the coefficients of the
    wave quadratic, which overflowed at these values; scaled by one power of
    two they decide. The front (or rear) coupling dominates, and g = 1/(1 +
    h s) in the limit, so the verdict is stable."""

    @pytest.mark.parametrize("side", ["mf", "mr"])
    def test_analyze_decides(self, tmp_path, side):
        cfg = copy.deepcopy(base_config())
        cfg["dynamics"]["h"] = 0.7
        cfg["dynamics"][side]["num"][0] = 1e100
        out = tmp_path / "out"
        assert main(["analyze", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["verdict"] == "stable"
        assert max(est["value"] for est in report["hinf"].values()) <= 1.0


class TestExtremeTolNorm:
    """tol_norm far from its default on the two stable canonical designs.
    The level set at rho = 1 + tol_norm must stay finite for every finite
    rho (rho**4 overflows from rho = 1e100 on); only a rho below the norm,
    as at tol_norm = -0.5, makes the verdict unstable."""

    @pytest.mark.parametrize("mr", [MR_VEL, MF], ids=["vel-asym", "sym"])
    @pytest.mark.parametrize("tol_norm", [0.02, 10, 1e100, 1e300, -0.5, 1e-300])
    def test_analyze_decides(self, tmp_path, mr, tol_norm):
        cfg = base_config(mr=mr)
        cfg["analysis"]["tolerances"] = {"tol_norm": tol_norm}
        out = tmp_path / "out"
        assert main(["analyze", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["verdict"] == ("unstable" if tol_norm < 0 else "stable")
        assert report["notes"] == []


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


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only; the runtime needs numpy alone
    src = os.path.dirname(os.path.dirname(wavestring.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, wavestring.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_process_pools_out():
    # the CSV workers are forked with os.fork; a pool module's import would
    # land in every call's start-up
    src = os.path.dirname(os.path.dirname(wavestring.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, wavestring.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"

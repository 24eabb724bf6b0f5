"""Command-line frontend: analyze | simulate | waves | sweep.

Scenario configs are JSON; coefficient lists are ascending-power to match
Polynomial. Every emitted JSON embeds the fully resolved config (defaults
filled in), so re-running a command on that embedded config reproduces the
output byte for byte. Output files are written atomically (temp + rename).

Exit codes: 0 success, 1 invalid config, 2 assumption violated, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import tempfile
from typing import Any, Optional

import numpy as np

from .errors import (
    AssumptionViolated,
    ConfigError,
    ImproperTF,
    NumericalError,
    WavestringError,
)
from .platoon import (
    Disturbance,
    LeaderStep,
    SimConfig,
    Topology,
    build_network,
    default_dt,
    overshoot_metrics,
    simulate,
)
from .poly import Polynomial
from .stability import (
    FrequencyGrid,
    headway_dominant_term,
    local_string_verdict,
)
from .tf import (
    AgentDynamics,
    RationalTF,
    check_assumption1,
    low_order_coeffs,
    positional_symmetry,
    tf_normalize,
)
from .waveresponse import InverseLaplaceConfig, wave_components
from .waves import awtf_dc

_ANALYSIS_DEFAULTS = {
    "omega_min": 1e-4,
    "omega_max": 1e3,
    "points": 2000,
    "tolerances": {"tol_norm": 1e-3, "tol_crhp": 1e-9, "tol_dc": 1e-9},
}
_SIM_DEFAULTS = {
    "dt": None,  # resolved to default_dt(dynamics)
    "t_final": 100.0,
    "step_amplitude": 1.0,
    "step_start": 0.0,
    "disturbances": [],
}
_WAVES_DEFAULTS = {
    "agent": 10,
    "t_final": 40.0,
    "samples": 4096,
    "sigma": None,
    "window": 0.1,
}
_DISTURBANCE_DEFAULTS = {
    "signal": "step",
    "amplitude": 1.0,
    "start": 0.0,
    "duration": 1.0,
}


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _coeff_list(obj: Any, where: str) -> list[float]:
    _require(isinstance(obj, list) and len(obj) >= 1, f"{where} must be a list")
    out = []
    for x in obj:
        _require(isinstance(x, (int, float)) and not isinstance(x, bool),
                 f"{where} entries must be numbers")
        out.append(float(x))
    return out


def _tf_from_entry(entry: Any, where: str) -> tuple[Polynomial, Polynomial]:
    _require(isinstance(entry, dict), f"{where} must be an object")
    _require("num" in entry and "den" in entry, f"{where} needs num and den")
    return (
        Polynomial(_coeff_list(entry["num"], f"{where}.num")),
        Polynomial(_coeff_list(entry["den"], f"{where}.den")),
    )


def resolve_config(raw: dict) -> dict:
    """Fill defaults and normalize a raw config dict. Idempotent."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - {"dynamics", "topology", "sim", "analysis", "waves"}
    _require(not unknown, f"unknown config sections: {sorted(unknown)}")
    cfg = copy.deepcopy(raw)

    dyn = cfg.get("dynamics")
    _require(isinstance(dyn, dict), "config needs a dynamics object")
    has_direct = "mf" in dyn or "mr" in dyn
    has_factored = "plant" in dyn or "cf" in dyn or "cr" in dyn
    _require(not (has_direct and has_factored),
             "dynamics mixes mf/mr with plant/cf/cr forms")
    if has_factored:
        _require(all(k in dyn for k in ("plant", "cf", "cr")),
                 "factored dynamics needs plant, cf and cr")
    else:
        _require("mf" in dyn and "mr" in dyn, "dynamics needs mf and mr")
    dyn.setdefault("h", 0.0)
    _require(isinstance(dyn["h"], (int, float)) and dyn["h"] >= 0,
             "dynamics.h must be a non-negative number")
    dyn["h"] = float(dyn["h"])

    d = build_dynamics(cfg)  # validates the transfer functions themselves

    topo = cfg.setdefault("topology", {"kind": "path", "n": 20})
    _require(isinstance(topo, dict), "topology must be an object")
    topo.setdefault("kind", "path")
    _require(topo["kind"] in ("path", "tree"), "topology.kind must be path|tree")
    if topo["kind"] == "path":
        topo.setdefault("n", 20)
        _require(isinstance(topo["n"], int) and topo["n"] >= 3,
                 "topology.n must be an integer >= 3")
    else:
        _require("edges" in topo and "n" in topo,
                 "tree topology needs n (spine length) and edges")
        _require(isinstance(topo["edges"], list), "topology.edges must be a list")

    sim = cfg.setdefault("sim", {})
    _require(isinstance(sim, dict), "sim must be an object")
    for key, val in _SIM_DEFAULTS.items():
        sim.setdefault(key, copy.deepcopy(val))
    if sim["dt"] is None:
        sim["dt"] = default_dt(d)
    _require(isinstance(sim["dt"], (int, float)) and sim["dt"] > 0,
             "sim.dt must be positive")
    sim["dt"] = float(sim["dt"])
    sim["t_final"] = float(sim["t_final"])
    dists = sim["disturbances"]
    _require(isinstance(dists, list), "sim.disturbances must be a list")
    for dist in dists:
        _require(isinstance(dist, dict) and "agent" in dist,
                 "each disturbance needs an agent index")
        for key, val in _DISTURBANCE_DEFAULTS.items():
            dist.setdefault(key, val)
        _require(dist["signal"] in ("step", "pulse"),
                 "disturbance signal must be step|pulse")

    ana = cfg.setdefault("analysis", {})
    _require(isinstance(ana, dict), "analysis must be an object")
    for key, val in _ANALYSIS_DEFAULTS.items():
        ana.setdefault(key, copy.deepcopy(val))
    for key, val in _ANALYSIS_DEFAULTS["tolerances"].items():
        ana["tolerances"].setdefault(key, val)
    _require(ana["points"] >= 16, "analysis.points must be >= 16")

    wav = cfg.setdefault("waves", {})
    _require(isinstance(wav, dict), "waves must be an object")
    for key, val in _WAVES_DEFAULTS.items():
        wav.setdefault(key, val)

    return cfg


def build_dynamics(cfg: dict) -> AgentDynamics:
    dyn = cfg["dynamics"]
    try:
        if "plant" in dyn:
            p_num, p_den = _tf_from_entry(dyn["plant"], "dynamics.plant")
            cf_num, cf_den = _tf_from_entry(dyn["cf"], "dynamics.cf")
            cr_num, cr_den = _tf_from_entry(dyn["cr"], "dynamics.cr")
            mf = tf_normalize(cf_num * p_num, cf_den * p_den)
            mr = tf_normalize(cr_num * p_num, cr_den * p_den)
        else:
            mf = tf_normalize(*_tf_from_entry(dyn["mf"], "dynamics.mf"))
            mr = tf_normalize(*_tf_from_entry(dyn["mr"], "dynamics.mr"))
    except WavestringError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad dynamics: {exc}") from exc
    return AgentDynamics(Mf=mf, Mr=mr, h=float(dyn.get("h", 0.0)))


def build_topology(cfg: dict) -> Topology:
    topo = cfg["topology"]
    if topo["kind"] == "path":
        return Topology.path(int(topo["n"]))
    try:
        edges = tuple((int(a), int(b)) for a, b in topo["edges"])
        nodes = 1 + max(max(a, b) for a, b in edges)
        return Topology(nodes, edges, int(topo["n"]))
    except ValueError as exc:
        raise ConfigError(f"bad topology: {exc}") from exc


def build_grid(cfg: dict) -> FrequencyGrid:
    ana = cfg["analysis"]
    try:
        return FrequencyGrid(
            omega_min=float(ana["omega_min"]),
            omega_max=float(ana["omega_max"]),
            points=int(ana["points"]),
        )
    except ValueError as exc:
        raise ConfigError(f"bad analysis grid: {exc}") from exc


def build_sim_config(cfg: dict, num_agents: int) -> SimConfig:
    sim = cfg["sim"]
    dists = tuple(
        Disturbance(
            agent=int(d["agent"]),
            signal=d["signal"],
            amplitude=float(d["amplitude"]),
            start=float(d["start"]),
            duration=float(d["duration"]),
        )
        for d in sim["disturbances"]
    )
    for dist in dists:
        _require(1 <= dist.agent <= num_agents,
                 f"disturbance targets missing agent {dist.agent}")
    try:
        return SimConfig(
            dt=sim["dt"],
            T_final=sim["t_final"],
            leader=LeaderStep(
                amplitude=float(sim["step_amplitude"]),
                start=float(sim["step_start"]),
            ),
            disturbances=dists,
        )
    except ValueError as exc:
        raise ConfigError(f"bad sim config: {exc}") from exc


def build_waves_config(cfg: dict) -> InverseLaplaceConfig:
    wav = cfg["waves"]
    try:
        return InverseLaplaceConfig(
            T_final=float(wav["t_final"]),
            samples=int(wav["samples"]),
            sigma=None if wav["sigma"] is None else float(wav["sigma"]),
            window=float(wav["window"]),
        )
    except ValueError as exc:
        raise ConfigError(f"bad waves config: {exc}") from exc


def _json_ready(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_atomic(path: str, data: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload: dict):
    _write_atomic(path, json.dumps(_json_ready(payload), sort_keys=True, indent=2) + "\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def load_config(path: str, overrides: Optional[dict] = None) -> dict:
    """Read, override and resolve a config file.

    overrides maps a section name to the keys set in it before resolution
    (the --grid-points and --dt flags).
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if overrides:
        _require(isinstance(raw, dict), "config must be a JSON object")
        for section, values in overrides.items():
            target = raw.setdefault(section, {})
            _require(isinstance(target, dict), f"{section} must be an object")
            target.update(values)
    return resolve_config(raw)


def cmd_analyze(config_path: str, out_dir: str,
                overrides: Optional[dict] = None) -> int:
    cfg = load_config(config_path, overrides)
    d = build_dynamics(cfg)
    tols = cfg["analysis"]["tolerances"]
    report = check_assumption1(d, tol_crhp=tols["tol_crhp"])
    coeffs = low_order_coeffs(d)

    payload: dict[str, Any] = {
        "config": cfg,
        "assumption": {
            "equal_integrators": report.equal_integrators,
            "both_proper": report.both_proper,
            "no_crhp_roots": report.no_crhp_roots,
            "passed": report.passed,
            "violations": list(report.violations),
        },
        "kappa": coeffs.kappa,
        "positional_symmetry": positional_symmetry(d, tol_dc=tols["tol_dc"]),
    }
    out_path = os.path.join(out_dir, "analysis.json")
    if not report.passed:
        payload.update({"verdict": None, "notes": ["assumption check failed"]})
        _write_json(out_path, payload)
        print(f"analysis written to {out_path} (assumption violated)")
        return 2

    grid = build_grid(cfg)
    payload["dc_gains"] = None
    if d.p >= 1:
        gp_dc, gm_dc = awtf_dc(d)
        payload["dc_gains"] = {"g_plus": gp_dc, "g_minus": gm_dc}
    verdict = local_string_verdict(d, grid, tol_norm=tols["tol_norm"])
    payload.update(
        {
            "nyquist": {"pass": verdict.awtf_stable,
                        "crossings": list(verdict.crossings)},
            "hinf": {
                "g_plus": {
                    "value": verdict.norm_gp.value,
                    "argmax_omega": verdict.norm_gp.argmax_omega,
                    "refined": verdict.norm_gp.refined,
                },
                "g_minus": {
                    "value": verdict.norm_gm.value,
                    "argmax_omega": verdict.norm_gm.argmax_omega,
                    "refined": verdict.norm_gm.refined,
                },
            },
            "verdict": verdict.locally_string_stable,
            "theorem2_triggered": verdict.theorem2_triggered,
            "notes": list(verdict.notes),
        }
    )
    if d.h > 0:
        payload["headway_dominant_term"] = headway_dominant_term(d)
    _write_json(out_path, payload)
    print(f"analysis written to {out_path} (verdict: {verdict.locally_string_stable})")
    return 0


def cmd_simulate(config_path: str, out_dir: str,
                 overrides: Optional[dict] = None) -> int:
    cfg = load_config(config_path, overrides)
    d = build_dynamics(cfg)
    topo = build_topology(cfg)
    sim_cfg = build_sim_config(cfg, topo.num_nodes - 1)
    net = build_network(topo, d)
    traj = simulate(net, sim_cfg)

    n_agents = net.num_agents
    header = "t," + ",".join(f"x_{n}" for n in range(n_agents + 1))
    lines = [header]
    for i, t in enumerate(traj.times):
        row = [_fmt(t)] + [_fmt(traj.positions[n, i]) for n in range(n_agents + 1)]
        lines.append(",".join(row))
    csv_path = os.path.join(out_dir, "trajectory.csv")
    _write_atomic(csv_path, "\n".join(lines) + "\n")

    metrics = overshoot_metrics(traj, cfg["sim"]["step_amplitude"])
    payload = {
        "config": cfg,
        "per_agent": [
            {
                "agent": m.agent,
                "peak": m.peak,
                "peak_time": m.peak_time,
                "overshoot": m.overshoot,
            }
            for m in metrics
        ],
    }
    _write_json(os.path.join(out_dir, "metrics.json"), payload)
    print(f"trajectory written to {csv_path} ({n_agents} agents, "
          f"{len(traj.times)} samples)")
    return 0


def cmd_waves(config_path: str, out_dir: str,
              overrides: Optional[dict] = None) -> int:
    cfg = load_config(config_path, overrides)
    if cfg["topology"]["kind"] != "path":
        raise ConfigError("waves command needs a path topology")
    d = build_dynamics(cfg)
    topo = build_topology(cfg)
    n = int(cfg["waves"]["agent"])
    N = int(cfg["topology"]["n"])
    _require(1 <= n <= N, f"waves.agent must be in 1..{N}")

    il_cfg = build_waves_config(cfg)
    amp = float(cfg["sim"]["step_amplitude"])
    wc = wave_components(d, N=N, n=n, cfg=il_cfg, step_amplitude=amp)

    net = build_network(topo, d)
    sim_cfg = SimConfig(
        dt=cfg["sim"]["dt"],
        T_final=il_cfg.T_final,
        leader=LeaderStep(amplitude=amp, start=0.0),
    )
    traj = simulate(net, sim_cfg)
    sim_n = np.interp(wc.times, traj.times, traj.agent(n))

    lines = ["t,x_n_sim,x_n_wave,a_n,b_n"]
    for i, t in enumerate(wc.times):
        lines.append(
            ",".join(_fmt(v) for v in (t, sim_n[i], wc.x[i], wc.a[i], wc.b[i]))
        )
    csv_path = os.path.join(out_dir, "waves.csv")
    _write_atomic(csv_path, "\n".join(lines) + "\n")
    _write_json(os.path.join(out_dir, "waves_meta.json"), {"config": cfg})
    dev = float(np.max(np.abs(sim_n - wc.x)))
    print(f"wave traces written to {csv_path} (max |sim - wave| = {dev:.3e})")
    return 0


def _sweep_value_row(cfg: dict, parameter: str, value: float) -> dict:
    cfg = copy.deepcopy(cfg)
    if parameter == "h":
        cfg["dynamics"]["h"] = float(value)
    elif parameter == "mu":
        if value == 0:
            raise ConfigError("mu must be nonzero")
        d0 = build_dynamics(cfg)
        scaled = RationalTF(d0.Mr.num.scaled(float(value)), d0.Mr.den, d0.Mr.p)
        cfg["dynamics"] = {
            "mf": {"num": list(d0.Mf.num.coeffs), "den": _shifted(d0.Mf)},
            "mr": {"num": list(scaled.num.coeffs), "den": _shifted(scaled)},
            "h": cfg["dynamics"]["h"],
        }
    elif parameter == "N":
        cfg["topology"] = {"kind": "path", "n": int(value)}
    else:
        raise ConfigError(f"unknown sweep parameter {parameter!r}")

    d = build_dynamics(cfg)
    if parameter == "N":
        net = build_network(build_topology(cfg), d)
        traj = simulate(net, build_sim_config(cfg, net.num_agents))
        metric = overshoot_metrics(traj, cfg["sim"]["step_amplitude"])[net.num_agents]
        return {
            "parameter": parameter,
            "value": float(value),
            "last_agent_peak": metric.peak,
            "last_agent_peak_time": metric.peak_time,
            "last_agent_overshoot": metric.overshoot,
        }

    grid = build_grid(cfg)
    tols = cfg["analysis"]["tolerances"]
    verdict = local_string_verdict(d, grid, tol_norm=tols["tol_norm"])
    return {
        "parameter": parameter,
        "value": float(value),
        "kappa": low_order_coeffs(d).kappa,
        "awtf_stable": verdict.awtf_stable,
        "verdict": verdict.locally_string_stable,
        "norm_g_plus": verdict.norm_gp.value,
        "norm_g_minus": verdict.norm_gm.value,
        "theorem2_triggered": verdict.theorem2_triggered,
        "headway_dominant_term": headway_dominant_term(d),
    }


def _shifted(tf: RationalTF) -> list[float]:
    """Denominator coefficient list with the origin poles written back out."""
    return [0.0] * tf.p + list(tf.den.coeffs)


def cmd_sweep(config_path: str, out_dir: str, parameter: str,
              values: list[float], overrides: Optional[dict] = None) -> int:
    cfg = load_config(config_path, overrides)
    _require(parameter in ("h", "mu", "N"), "sweep parameter must be h, mu or N")
    _require(len(values) >= 1, "sweep needs at least one value")

    rows = [_sweep_value_row(cfg, parameter, v) for v in values]

    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row[col]
            cells.append(_fmt(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    csv_path = os.path.join(out_dir, "sweep.csv")
    _write_atomic(csv_path, "\n".join(lines) + "\n")
    _write_json(os.path.join(out_dir, "sweep_meta.json"), {"config": cfg})
    print(f"sweep written to {csv_path} ({len(rows)} rows)")
    return 0


def _parse_values(args: argparse.Namespace) -> list[float]:
    if args.values:
        try:
            return [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --values list: {exc}") from exc
    if args.range:
        try:
            start, stop, count = args.range.split(":")
            return list(np.linspace(float(start), float(stop), int(count)))
        except ValueError as exc:
            raise ConfigError(f"bad --range (want start:stop:count): {exc}") from exc
    raise ConfigError("sweep needs --values or --range")


class _Parser(argparse.ArgumentParser):
    """Argument errors map to the config exit code, not argparse's own 2."""

    def error(self, message):
        raise ConfigError(message)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _Parser(
        prog="wavestring",
        description="Wave-based string stability analysis and platoon simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "simulate", "waves", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--grid-points", type=int, default=None)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="accepted for interface compatibility; ignored")
        if name == "sweep":
            p.add_argument("--parameter", required=True, choices=["h", "mu", "N"])
            p.add_argument("--values", default=None,
                           help="comma-separated parameter values")
            p.add_argument("--range", default=None,
                           help="start:stop:count linspace")
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    overrides: dict = {}
    if args.grid_points is not None:
        overrides["analysis"] = {"points": args.grid_points}
    if args.dt is not None:
        overrides["sim"] = {"dt": args.dt}
    try:
        if args.command == "analyze":
            return cmd_analyze(args.config, args.out, overrides)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out, overrides)
        if args.command == "waves":
            return cmd_waves(args.config, args.out, overrides)
        return cmd_sweep(args.config, args.out, args.parameter,
                         _parse_values(args), overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (AssumptionViolated, ImproperTF) as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, WavestringError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

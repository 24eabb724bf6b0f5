"""Command-line frontend: analyze | simulate | waves | sweep.

Scenario configs are JSON; coefficient lists are ascending-power to match
Polynomial. Every emitted JSON embeds the fully resolved config (defaults
filled in), so re-running a command on that embedded config reproduces the
output byte for byte. Output files are written atomically (temp + rename),
with the mode the umask gives a new file.

Exit codes: 0 success, 1 invalid config, 2 assumption violated, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from typing import Any, Callable, Iterable, Optional

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

# Size bounds, checked before anything is allocated: output steps of a run,
# inverse-Laplace samples, frequency grid points and sweep values; agents.
MAX_SAMPLES = 10**7
MAX_AGENTS = 1000

_INF = float("inf")

# Every numeric config field: section -> key -> default, or (default, low,
# high) for a field with a closed range. A float default marks a required
# finite number, an int default a required JSON integer (a count or an agent
# index), a None default a nullable number (sim.dt: None resolves to
# default_dt of the dynamics, and stays None when their poles cannot be
# formed, which check_assumption1 reports as a violation).
_TABLE = {
    "dynamics": {"h": (0.0, 0.0, _INF)},
    "sim": {
        "dt": (None, math.ulp(0.0), _INF),  # positive
        "t_final": 100.0,
        "step_amplitude": 1.0,
        "step_start": 0.0,
    },
    "analysis": {
        "omega_min": 1e-4,
        "omega_max": 1e3,
        "points": (2000, 16, MAX_SAMPLES),
    },
    "analysis.tolerances": {"tol_norm": 1e-3, "tol_crhp": 1e-9, "tol_dc": 1e-9},
    "waves": {
        "agent": 10,
        "t_final": 40.0,
        "samples": (4096, -_INF, MAX_SAMPLES),
        "sigma": None,
        "window": 0.1,
    },
}
_DISTURBANCE = {"amplitude": 1.0, "start": 0.0, "duration": 1.0}  # besides agent


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _integer(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _finite(x: Any) -> bool:
    """x is an int or float (not a bool) within the float range."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _fill(section: dict, where: str, fields: dict):
    """Set the missing defaults of one section and check its numbers."""
    for key, spec in fields.items():
        default, low, high = spec if isinstance(spec, tuple) else (spec, -_INF, _INF)
        val = section.setdefault(key, default)
        if val is None and default is None:
            continue
        _require(_finite(val), f"{where}.{key} must be a finite number")
        if _integer(default):
            _require(_integer(val), f"{where}.{key} must be an integer")
        _require(low <= val <= high, f"{where}.{key} must lie in [{low:g}, {high:g}]")


def _section(cfg: dict, path: str) -> dict:
    """The object at a dotted path, created empty when missing."""
    node = cfg
    for key in path.split("."):
        node = node.setdefault(key, {})
        _require(isinstance(node, dict), f"{path} must be an object")
    return node


def _coeff_list(obj: Any, where: str) -> list[float]:
    _require(isinstance(obj, list) and len(obj) >= 1, f"{where} must be a list")
    _require(all(_finite(x) for x in obj), f"{where} entries must be finite numbers")
    return [float(x) for x in obj]


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
    _require(isinstance(raw.get("dynamics"), dict), "config needs a dynamics object")
    cfg = copy.deepcopy(raw)
    for path, fields in _TABLE.items():
        _fill(_section(cfg, path), path, fields)

    dyn = cfg["dynamics"]
    has_direct = "mf" in dyn or "mr" in dyn
    has_factored = "plant" in dyn or "cf" in dyn or "cr" in dyn
    _require(not (has_direct and has_factored),
             "dynamics mixes mf/mr with plant/cf/cr forms")
    if has_factored:
        _require(all(k in dyn for k in ("plant", "cf", "cr")),
                 "factored dynamics needs plant, cf and cr")
    else:
        _require("mf" in dyn and "mr" in dyn, "dynamics needs mf and mr")
    dyn["h"] = float(dyn["h"])
    d = build_dynamics(cfg)  # validates the transfer functions themselves

    topo = cfg.setdefault("topology", {"kind": "path", "n": 20})
    _require(isinstance(topo, dict), "topology must be an object")
    topo.setdefault("kind", "path")
    _require(topo["kind"] in ("path", "tree"), "topology.kind must be path|tree")
    if topo["kind"] == "path":
        topo.setdefault("n", 20)
        _require(_integer(topo["n"]) and topo["n"] >= 3,
                 "topology.n must be an integer >= 3")
    else:
        _require("edges" in topo and "n" in topo,
                 "tree topology needs n (spine length) and edges")
        _require(_integer(topo["n"]), "topology.n must be an integer")
        _require(isinstance(topo["edges"], list) and all(
            isinstance(e, list) and len(e) == 2 and all(map(_integer, e))
            for e in topo["edges"]), "topology.edges must be a list of integer pairs")

    sim = cfg["sim"]
    if sim["dt"] is None:
        with contextlib.suppress(NumericalError):
            sim["dt"] = default_dt(d)
    if sim["dt"] is not None:
        sim["dt"] = float(sim["dt"])
    sim["t_final"] = float(sim["t_final"])
    dists = sim.setdefault("disturbances", [])
    _require(isinstance(dists, list), "sim.disturbances must be a list")
    for dist in dists:
        _require(isinstance(dist, dict) and _finite(dist.get("agent"))
                 and _integer(dist["agent"]), "disturbance.agent must be an integer")
        dist.setdefault("signal", "step")
        _require(dist["signal"] in ("step", "pulse"),
                 "disturbance signal must be step|pulse")
        _fill(dist, "disturbance", _DISTURBANCE)
    return cfg


def _build(what: str, ctor, *args, **kwargs):
    """ctor(*args, **kwargs), its ValueError or TypeError as a ConfigError."""
    try:
        return ctor(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def build_dynamics(cfg: dict) -> AgentDynamics:
    dyn = cfg["dynamics"]
    if "plant" in dyn:
        (p_num, p_den), (f_num, f_den), (r_num, r_den) = (
            _tf_from_entry(dyn[k], f"dynamics.{k}") for k in ("plant", "cf", "cr"))
        pairs = ((f_num * p_num, f_den * p_den), (r_num * p_num, r_den * p_den))
    else:
        pairs = (_tf_from_entry(dyn["mf"], "dynamics.mf"),
                 _tf_from_entry(dyn["mr"], "dynamics.mr"))
    mf, mr = (_build("dynamics", tf_normalize, num, den) for num, den in pairs)
    return _build("dynamics", AgentDynamics, Mf=mf, Mr=mr, h=float(dyn.get("h", 0.0)))


def _tree(topo: dict) -> Topology:
    edges = tuple(map(tuple, topo["edges"]))
    nodes = 1 + max(map(max, edges))
    _require(nodes - 1 <= MAX_AGENTS, f"topology has more than {MAX_AGENTS} agents")
    return Topology(nodes, edges, topo["n"])


def build_topology(cfg: dict) -> Topology:
    """The path or tree of the config; the agent bound is checked first."""
    topo = cfg["topology"]
    if topo["kind"] == "tree":
        return _build("topology", _tree, topo)
    _require(topo["n"] <= MAX_AGENTS, f"topology has more than {MAX_AGENTS} agents")
    return _build("topology", Topology.path, topo["n"])


def build_grid(cfg: dict) -> FrequencyGrid:
    ana = cfg["analysis"]
    return _build("analysis grid", FrequencyGrid, omega_min=float(ana["omega_min"]),
                  omega_max=float(ana["omega_max"]), points=ana["points"])


def _sim_config(dt: Optional[float], t_final: float, **inputs) -> SimConfig:
    if dt is None:
        raise AssumptionViolated("sim.dt has no default: the poles of the dynamics "
                                 "cannot be formed")
    _require(t_final <= MAX_SAMPLES * dt,
             f"a {t_final:g} s run is more than {MAX_SAMPLES} steps of dt = {dt:g} s")
    return _build("sim config", SimConfig, dt=dt, T_final=t_final, **inputs)


def build_sim_config(cfg: dict, num_agents: int) -> SimConfig:
    sim = cfg["sim"]
    dists = tuple(
        Disturbance(agent=d["agent"], signal=d["signal"],
                    amplitude=float(d["amplitude"]), start=float(d["start"]),
                    duration=float(d["duration"]))
        for d in sim["disturbances"]
    )
    for dist in dists:
        _require(1 <= dist.agent <= num_agents,
                 f"disturbance targets missing agent {dist.agent}")
    _require(sim["step_amplitude"] != 0,
             "sim.step_amplitude must be nonzero: overshoot is relative to it")
    leader = LeaderStep(amplitude=float(sim["step_amplitude"]),
                        start=float(sim["step_start"]))
    return _sim_config(sim["dt"], sim["t_final"], leader=leader, disturbances=dists)


def build_waves_config(cfg: dict) -> InverseLaplaceConfig:
    wav = cfg["waves"]
    return _build("waves config", InverseLaplaceConfig, T_final=float(wav["t_final"]),
                  samples=wav["samples"],
                  sigma=None if wav["sigma"] is None else float(wav["sigma"]),
                  window=float(wav["window"]))


def _umask() -> int:
    # The umask can only be read by setting it; the most restrictive value in
    # between keeps a file another thread creates meanwhile private.
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def _write_atomic(path: str, parts: Iterable[bytes]):
    """Write the concatenated parts to path through a temporary file and a
    rename, with the mode open() would give a new file (mkstemp's is 0600)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(parts)
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload: dict):
    _write_atomic(path, [(json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()])


# A CSV is split among forked workers only so far as each gets this many
# cells: a fork, pipe and reap round trip costs about 2.3 ms at the bench's
# resident size and repr about 1 us per cell, so a smaller share does not pay
# for its worker. This keeps waves.csv and sweep.csv in-process.
FORK_MIN_CELLS = 50_000
CSV_CHUNK_ROWS = 1024  # rows per tolist() chunk: bounds the floats alive at once


def _csv_rows(columns: list[np.ndarray], a: int, b: int) -> list[bytes]:
    """Rows a..b-1 of the table as CSV lines, in chunks. A cell is str of its
    tolist() value, which for a float is its repr, the shortest round trip."""
    chunks = []
    for lo in range(a, b, CSV_CHUNK_ROWS):
        rows = zip(*(c[lo:min(lo + CSV_CHUNK_ROWS, b)].tolist() for c in columns))
        chunks.append(("\n".join([",".join(map(str, row)) for row in rows]) + "\n").encode())
    return chunks


def _fork_rows(columns: list[np.ndarray], a: int, b: int) -> Optional[list[int]]:
    """Fork a worker that writes rows a..b-1 to a pipe and exits: [pid, read
    end], or None where this process cannot fork."""
    if not hasattr(os, "fork"):
        return None
    import warnings

    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        # Python 3.12+ warns that forking a multi-threaded process (OpenBLAS
        # may have started threads) can deadlock the child on a lock another
        # thread held. This child calls no BLAS routine: it only formats
        # floats, writes the pipe and leaves through os._exit.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as fh:
                fh.writelines(_csv_rows(columns, a, b))
            code = 0
        finally:
            # Never return into the caller: no atexit hooks, no inherited
            # stdio flushed.
            os._exit(code)
    os.close(w)
    return [pid, r]


def _join_worker(worker: list[int]) -> Optional[list[bytes]]:
    """Read a worker's pipe to EOF, then reap it: the bytes it wrote, or None
    when it failed. Marks the pipe closed (-1) and the worker reaped (0)."""
    pid, fd = worker
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    worker[1] = -1  # marked first: a leaked fd is harmless, a second close is not
    os.close(fd)
    _, status = os.waitpid(pid, 0)
    worker[0] = 0
    return chunks if status == 0 else None


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]):
    """Write a table given as equal-length 1-D columns, one line per row.

    The rows are split into contiguous ranges, one per CPU this process may
    use, as far as each range keeps FORK_MIN_CELLS cells. A forked child
    formats each range but the last, which this process formats, so the
    bytes never depend on the worker count; one worker forks nothing. A
    range whose worker cannot be forked or fails is formatted here. No child
    outlives the call.
    """
    rows = len(columns[0])
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = max(1, min(cpus, rows * len(columns) // FORK_MIN_CELLS, rows))
    bounds = [rows * k // workers for k in range(workers + 1)]
    forked = []  # [pid, read end] of each range but the last, or None
    try:
        for a, b in zip(bounds[:-2], bounds[1:-1]):
            forked.append(_fork_rows(columns, a, b))
        last = _csv_rows(columns, bounds[-2], bounds[-1])
        parts = [(",".join(header) + "\n").encode()]
        for k, worker in enumerate(forked):
            chunks = _join_worker(worker) if worker else None
            parts += _csv_rows(columns, bounds[k], bounds[k + 1]) if chunks is None else chunks
    finally:
        for pid, fd in filter(None, forked):
            if fd >= 0:
                os.close(fd)
            if pid:
                import signal

                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    _write_atomic(path, parts + last)


def load_config(path: str) -> dict:
    """Read and resolve a config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an int past 4300 digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return resolve_config(raw)


def cmd_analyze(cfg: dict, out_dir: str) -> int:
    d = build_dynamics(cfg)
    tols = cfg["analysis"]["tolerances"]
    report = check_assumption1(d, tol_crhp=tols["tol_crhp"])

    payload: dict[str, Any] = {
        "config": cfg,
        "assumption": {**dataclasses.asdict(report), "passed": report.passed},
        "kappa": low_order_coeffs(d).kappa,
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
    verdict = local_string_verdict(d, grid, tol_norm=tols["tol_norm"],
                                   tol_dc=tols["tol_dc"], tol_crhp=tols["tol_crhp"])
    payload.update(
        {
            "nyquist": {"pass": verdict.awtf_stable,
                        "crossings": list(verdict.crossings)},
            "hinf": {"g_plus": dataclasses.asdict(verdict.norm_gp),
                     "g_minus": dataclasses.asdict(verdict.norm_gm)},
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


def cmd_simulate(cfg: dict, out_dir: str) -> int:
    d = build_dynamics(cfg)
    topo = build_topology(cfg)
    sim_cfg = build_sim_config(cfg, topo.num_nodes - 1)
    net = build_network(topo, d)
    traj = simulate(net, sim_cfg)

    metrics = overshoot_metrics(traj, cfg["sim"]["step_amplitude"])
    n_agents = net.num_agents
    csv_path = os.path.join(out_dir, "trajectory.csv")
    _write_csv(csv_path, ["t"] + [f"x_{n}" for n in range(n_agents + 1)],
               [traj.times, *traj.positions])
    _write_json(os.path.join(out_dir, "metrics.json"),
                {"config": cfg, "per_agent": [dataclasses.asdict(m) for m in metrics]})
    print(f"trajectory written to {csv_path} ({n_agents} agents, "
          f"{len(traj.times)} samples)")
    return 0


def cmd_waves(cfg: dict, out_dir: str) -> int:
    _require(cfg["topology"]["kind"] == "path", "waves command needs a path topology")
    d = build_dynamics(cfg)
    topo = build_topology(cfg)
    n, N = cfg["waves"]["agent"], topo.spine_n
    _require(1 <= n <= N, f"waves.agent must be in 1..{N}")
    il_cfg = build_waves_config(cfg)
    amp = float(cfg["sim"]["step_amplitude"])
    sim_cfg = _sim_config(cfg["sim"]["dt"], il_cfg.T_final,
                          leader=LeaderStep(amplitude=amp, start=0.0))
    net = build_network(topo, d)

    wc = wave_components(d, N=N, n=n, cfg=il_cfg, step_amplitude=amp)
    traj = simulate(net, sim_cfg, agents=(n,))
    sim_n = np.interp(wc.times, traj.times, traj.agent(n))

    csv_path = os.path.join(out_dir, "waves.csv")
    _write_csv(csv_path, ["t", "x_n_sim", "x_n_wave", "a_n", "b_n"],
               [wc.times, sim_n, wc.x, wc.a, wc.b])
    _write_json(os.path.join(out_dir, "waves_meta.json"), {"config": cfg})
    dev = float(np.max(np.abs(sim_n - wc.x)))
    print(f"wave traces written to {csv_path} (max |sim - wave| = {dev:.3e})")
    return 0


def _sweep_row(cfg: dict, d0: AgentDynamics, parameter: str, value: float,
               grid: Callable[[], FrequencyGrid]) -> dict:
    row = {"parameter": parameter, "value": float(value)}
    if parameter == "N":
        topo = build_topology({"topology": {"kind": "path", "n": int(value)}})
        net = build_network(topo, d0)
        last = net.num_agents
        traj = simulate(net, build_sim_config(cfg, last), agents=(last,))
        metric = overshoot_metrics(traj, cfg["sim"]["step_amplitude"])[-1]
        return {**row, "last_agent_peak": metric.peak,
                "last_agent_peak_time": metric.peak_time,
                "last_agent_overshoot": metric.overshoot}

    if parameter == "h":
        d = _build("dynamics", dataclasses.replace, d0, h=float(value))
    else:
        mr = RationalTF(d0.Mr.num.scaled(float(value)), d0.Mr.den, d0.Mr.p)
        d = dataclasses.replace(d0, Mr=mr)
    tols = cfg["analysis"]["tolerances"]
    verdict = local_string_verdict(d, grid(), tol_norm=tols["tol_norm"],
                                   tol_dc=tols["tol_dc"], tol_crhp=tols["tol_crhp"])
    return {
        **row,
        "kappa": low_order_coeffs(d).kappa,
        "awtf_stable": verdict.awtf_stable,
        "verdict": verdict.locally_string_stable,
        "norm_g_plus": verdict.norm_gp.value,
        "norm_g_minus": verdict.norm_gm.value,
        "theorem2_triggered": verdict.theorem2_triggered,
        "headway_dominant_term": headway_dominant_term(d),
    }


def cmd_sweep(cfg: dict, out_dir: str, parameter: str, values: list[float]) -> int:
    _require(parameter in ("h", "mu", "N"), "sweep parameter must be h, mu or N")
    _require(len(values) >= 1, "sweep needs at least one value")
    _require(all(_finite(v) for v in values), "sweep values must be finite")
    for v in values if parameter == "N" else ():
        _require(float(v).is_integer(), f"N = {float(v)!r} is not a whole number")

    d0 = build_dynamics(cfg)
    # One grid for the call, whose rows share its omegas. It is built when
    # the first h or mu row needs it, after that row's dynamics, so an N
    # sweep never reads the grid config and a bad sweep value is reported
    # before a bad grid.
    grid = functools.cache(lambda: build_grid(cfg))
    rows = [_sweep_row(cfg, d0, parameter, v, grid) for v in values]
    columns = list(rows[0])
    csv_path = os.path.join(out_dir, "sweep.csv")
    _write_csv(csv_path, columns,
               [np.array([row[c] for row in rows], dtype=object) for c in columns])
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
            count = int(count)
            _require(count <= MAX_SAMPLES,
                     f"--range has more than {MAX_SAMPLES} values")
            return list(np.linspace(float(start), float(stop), count))
        except ValueError as exc:
            raise ConfigError(f"bad --range (want start:stop:count): {exc}") from exc
    raise ConfigError("sweep needs --values or --range")


class _Parser(argparse.ArgumentParser):
    """Argument errors map to the config exit code, not argparse's own 2."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built once per process: argparse parsers hold
    reference cycles, and one built per call leaves garbage that only the
    cyclic collector frees (about 260 objects per main() call)."""
    parser = _Parser(
        prog="wavestring",
        description="Wave-based string stability analysis and platoon simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "simulate", "waves", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", required=True, help="output directory")
        if name == "sweep":
            p.add_argument("--parameter", required=True, choices=["h", "mu", "N"])
            p.add_argument("--values", default=None,
                           help="comma-separated parameter values")
            p.add_argument("--range", default=None,
                           help="start:stop:count linspace")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # Floating-point overflow, division by zero and invalid operations in
    # numpy raise instead of warning; like Python's own ArithmeticErrors and
    # a LinAlgError on non-finite input, they are numerical failures.
    try:
        args = _parser().parse_args(argv)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            cfg = load_config(args.config)
            if args.command == "analyze":
                return cmd_analyze(cfg, args.out)
            if args.command == "simulate":
                return cmd_simulate(cfg, args.out)
            if args.command == "waves":
                return cmd_waves(cfg, args.out)
            return cmd_sweep(cfg, args.out, args.parameter, _parse_values(args))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (AssumptionViolated, ImproperTF) as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return 2
    except (WavestringError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

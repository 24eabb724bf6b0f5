"""Workload definitions: scenario configs, CLI calls and their output checks.

The dynamics are the canonical comparison set of the test suite: the front
coupling (4s+4)/(3s^2(s/3+1)) and three rear couplings (gain-asymmetric,
velocity-asymmetric, symmetric). The seed drives only the random PI pairs of
the `spectral` workload; every other input is fixed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

DEN = [0.0, 0.0, 1.0, 1.0 / 3.0]
FRONT = {"num": [4.0 / 3.0, 4.0 / 3.0], "den": DEN}
REAR = {
    "gain-asym": {"num": [c * (2.5 / 4.0) for c in FRONT["num"]], "den": DEN},
    "vel-asym": {"num": [4.0 / 3.0, 2.5 / 3.0], "den": DEN},
    "sym": FRONT,
}

# Every REFERENCE_STRIDE-th sample of the last agent's simulate_csv trajectory
# is compared against bench/reference.json (see record_reference.py).
REFERENCE_STRIDE = 20
REFERENCE_TOL = 1e-6
WAVES_TOL = 2e-2          # acceptance criterion 5's sim-vs-wave bound
RANDOM_PAIRS = 12

WORKLOADS = ("simulate_csv", "sweep_chain", "spectral")


@dataclass
class Call:
    """One CLI invocation: `wavestring <argv> --config <name>.json --out <name>/`."""

    name: str
    argv: list[str]
    config: dict
    check: Callable[[str, dict], Optional[str]]
    fixed: bool = True          # outputs independent of the seed (digests apply)
    agent_steps: int = 0        # agents x RK4 steps the call integrates
    verdicts: int = 0           # stability verdicts the call produces
    out_dir: str = field(default="", init=False)


def scenario(rear: str, n: int = 20, h: float = 0.0, **sections) -> dict:
    cfg = {
        "dynamics": {"mf": FRONT, "mr": REAR[rear], "h": h},
        "topology": {"kind": "path", "n": n},
    }
    cfg.update(sections)
    return cfg


def random_pi_pair(rng: np.random.Generator) -> dict:
    """A PI-over-double-integrator pair drawn like the test suite's generator.

    Positive coefficients, left-half-plane zeros and poles, and a DC gain
    ratio at least 0.1 away from 1, so the verdict is always `unstable`.
    """
    tau = rng.uniform(0.1, 1.0)
    den = [0.0, 0.0, 1.0, tau]
    while True:
        kif = rng.uniform(0.5, 4.0)
        kir = rng.uniform(0.5, 4.0)
        if abs(kif / kir - 1.0) >= 0.1:
            break
    kpf = rng.uniform(0.5, 4.0)
    kpr = rng.uniform(0.5, 4.0)
    return {
        "dynamics": {
            "mf": {"num": [kif, kpf], "den": den},
            "mr": {"num": [kir, kpr], "den": den},
        }
    }


# ---------------------------------------------------------------- checks
# Each check returns None when the outputs are right, else a reason.


def _read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _read_rows(out_dir: str, name: str) -> list[dict]:
    with open(os.path.join(out_dir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def expect_verdict(verdict: str, theorem2: Optional[bool] = None):
    def check(out_dir: str, ref: dict) -> Optional[str]:
        report = _read_json(out_dir, "analysis.json")
        if report.get("verdict") != verdict:
            return f"verdict {report.get('verdict')!r}, want {verdict!r}"
        if theorem2 is not None and report.get("theorem2_triggered") != theorem2:
            return f"theorem2_triggered {report.get('theorem2_triggered')}, want {theorem2}"
        return None
    return check


def check_mu_sweep(out_dir: str, ref: dict) -> Optional[str]:
    rows = _read_rows(out_dir, "sweep.csv")
    stable = [float(r["value"]) for r in rows if r["verdict"] == "stable"]
    if stable != [1.0]:
        return f"stable at mu={stable}, want only mu=1.0"
    return None


def check_h_sweep(out_dir: str, ref: dict) -> Optional[str]:
    terms = [float(r["headway_dominant_term"]) for r in _read_rows(out_dir, "sweep.csv")]
    if not (min(terms) < 0.0 < max(terms)):
        return f"headway_dominant_term keeps one sign over {min(terms)}..{max(terms)}"
    return None


def check_rows(n: int):
    def check(out_dir: str, ref: dict) -> Optional[str]:
        got = len(_read_rows(out_dir, "sweep.csv"))
        return None if got == n else f"{got} sweep rows, want {n}"
    return check


def check_n_sweep(calls: list[Call]):
    """Last-agent overshoot increases strictly with N, over one call per N."""
    def check(out_dir: str, ref: dict) -> Optional[str]:
        over = [float(r["last_agent_overshoot"])
                for c in calls for r in _read_rows(c.out_dir, "sweep.csv")]
        if len(over) != len(calls) or any(b <= a for a, b in zip(over, over[1:])):
            return f"last-agent overshoot not strictly increasing in N: {over}"
        return None
    return check


def last_column(path: str, stride: int) -> list[float]:
    """Every stride-th value of the CSV's last column, streamed row by row."""
    out = []
    with open(path) as fh:
        next(fh)
        for i, line in enumerate(fh):
            if i % stride == 0:
                out.append(float(line.rsplit(",", 1)[1]))
    return out


def check_simulate(out_dir: str, ref: dict) -> Optional[str]:
    peaks = [a["peak"] for a in _read_json(out_dir, "metrics.json")["per_agent"]]
    for i in range(3, len(peaks) - 1):
        if peaks[i + 1] < peaks[i] - 1e-6:
            return f"peak of agent {i + 1} below agent {i}"
    want = ref.get("last_agent")
    if want is None:
        return None  # recording the reference
    got = last_column(os.path.join(out_dir, "trajectory.csv"), REFERENCE_STRIDE)
    if len(got) != len(want):
        return f"last column has {len(got)} reference samples, want {len(want)}"
    dev = max(abs(a - b) for a, b in zip(got, want))
    if not dev <= REFERENCE_TOL:
        return f"last column deviates from the reference by {dev:.3g}"
    return None


def check_waves(out_dir: str, ref: dict) -> Optional[str]:
    rows = _read_rows(out_dir, "waves.csv")
    dev = max(abs(float(r["x_n_sim"]) - float(r["x_n_wave"])) for r in rows)
    if not dev <= WAVES_TOL:
        return f"max |sim - wave| = {dev:.3g} > {WAVES_TOL}"
    return None


# ------------------------------------------------------------- workloads


def _steps(t_final: float, dt: float) -> int:
    return int(round(t_final / dt))


def build_calls(workload: str, seed: int) -> list[Call]:
    """The CLI calls of one pass of `workload`, in order."""
    analyze_gain = Call("analyze-gain-asym", ["analyze"], scenario("gain-asym"),
                        expect_verdict("unstable", theorem2=True), verdicts=1)
    if workload == "simulate_csv":
        sim = {"dt": 0.005, "t_final": 100.0}
        return [
            analyze_gain,
            Call("simulate", ["simulate"], scenario("gain-asym", sim=sim),
                 check_simulate, agent_steps=20 * _steps(100.0, 0.005)),
        ]
    if workload == "sweep_chain":
        # One call per N, so each timed call is short (see run.py); the last
        # call checks the overshoot trend over all of them.
        sim = {"dt": 0.01, "t_final": 150.0}
        sweeps = [Call(f"sweep-N{n}", ["sweep", "--parameter", "N", "--values", str(n)],
                       scenario("gain-asym", sim=sim), check_rows(1),
                       agent_steps=n * _steps(150.0, 0.01))
                  for n in (10, 20, 30, 40, 50)]
        sweeps[-1].check = check_n_sweep(sweeps)
        return [analyze_gain] + sweeps
    if workload == "spectral":
        calls = [
            analyze_gain,
            Call("analyze-vel-asym", ["analyze"], scenario("vel-asym"),
                 expect_verdict("stable"), verdicts=1),
            Call("analyze-sym", ["analyze"], scenario("sym"),
                 expect_verdict("stable"), verdicts=1),
            Call("analyze-gain-asym-h0.5", ["analyze"],
                 scenario("gain-asym", h=0.5),
                 expect_verdict("unstable", theorem2=False), verdicts=1),
        ]
        rng = np.random.default_rng(seed)
        for k in range(RANDOM_PAIRS):
            calls.append(Call(f"analyze-random-{k:02d}", ["analyze"],
                              random_pi_pair(rng), expect_verdict("unstable"),
                              fixed=False, verdicts=1))
        calls += [
            Call("sweep-mu", ["sweep", "--parameter", "mu", "--range", "0.5:1.5:41"],
                 scenario("sym"), check_mu_sweep, verdicts=41),
            Call("sweep-h", ["sweep", "--parameter", "h", "--range", "0:2:20"],
                 scenario("gain-asym"), check_h_sweep, verdicts=20),
            Call("waves", ["waves"],
                 scenario("vel-asym", sim={"dt": 0.01},
                          waves={"agent": 10, "t_final": 40.0, "samples": 16384}),
                 check_waves, agent_steps=20 * _steps(40.0, 0.01)),
        ]
        return calls
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(calls: list[Call], root: str) -> None:
    """Write each call's scenario JSON and fix its output directory."""
    os.makedirs(root, exist_ok=True)
    for call in calls:
        call.out_dir = os.path.join(root, call.name)
        with open(call.out_dir + ".json", "w") as fh:
            json.dump(call.config, fh)


def cli_args(call: Call) -> list[str]:
    return call.argv + ["--config", call.out_dir + ".json", "--out", call.out_dir]


"""Compare stability verdicts at a parent revision and at the working tree.

    python3 tools/verdict_pair.py --parent REV

The parent's committed files are exported with `git archive` into a
temporary directory, as tools/bench_pair.py does; the change side is the
working tree. On each side this script runs itself as a subprocess
(`--worker`) with that side's src/ first on PYTHONPATH, so each side is
judged by its own library, and records three sets, defined once here:

- DYNAMICS, 230 dynamics: the canonical six (gain-asym, vel-asym and sym at
  h = 0 and 0.5), the 12 seed-1 PI pairs of the bench's spectral workload,
  the undamped 1/s**2 pair, the 41 rows of that workload's mu sweep and the
  20 rows of its h sweep, and the 100 property and 50 headway cases of the
  test suite. Each records local_string_verdict on the default grid: the
  verdict, awtf_stable, both norm estimates, the theorem-2 flag, the notes
  and the crossings, or the class and message of what it raises. Each is
  recorded twice: at the default tol_norm, and at RELAXED, where a peak
  just above 1 is marginal.
- EXTREME, 386 `wavestring analyze` configs: the gain-asym path-6 config at
  400 points with one change, at h = 0 and at h = 0.7. The change sets one
  entry of mf.num, mr.num, mf.den or mr.den to one of VALUES, or
  omega_max to one of OMEGA_MAXES (1e200 and 1e300 overflow s**2 on the
  grid), or omega_min to 1e-30 or 1e-100, or tol_norm to one of
  TOL_NORMS, the last also with the vel-asym and sym rears. Each records
  the exit code, what the CLI wrote to stderr (the message of a refusal)
  and the verdict in analysis.json (None if none is written).
- COUPLINGS, the couplings g_plus and g_minus of each DYNAMICS entry on two
  lines: awtf_axis_sweep on the default grid, and wave_sweep on the
  bench's Bromwich line (T_final 40 s, 16384 samples), given top
  frequency first. A sweep raises at its bad entry of largest |s|, the
  line's top frequency; libraries older than that rule raised at the first
  bad entry in the order given, so both sides raise at the same entry.
  Each records the class and message of what it raises (None if nothing),
  and the arrays go to one .npy file per entry and line.

Every difference is printed by field. Crossings are compared as ascending
lists; their digits are summarised as the largest relative move, and a
change of their order alone is reported as such. The value and argmax_omega
of norm_gp and norm_gm are summarised the same way. Each summary counts the
cases that moved up and those that moved down, each beside its largest
relative move (a case's crossings count by the direction of their largest
move). The refined flag, the verdict, the other flags, the notes, the
exceptions, the exit codes and the stderr texts are printed in full. For the couplings, each
entry and line whose arrays differ (NaN equal to NaN) prints the count of
samples that moved and the largest relative move, per coupling. The script
exits 0 once both sides have run, whatever the differences.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
from bench_pair import export  # noqa: E402

VALUES = (1e-300, 1e-150, 1e-100, 1e-30, 1e30, 1e75, 1e100, 1e150, 1e200, 1e300,
          -1.0, 0.5, 3.0, 1e-12)
TOL_NORMS = (0.02, 10.0, 1e100, 1e300, -0.5, 1e-300)
OMEGA_MAXES = (1e10, 1e50, 1e150, 1e200, 1e300)
RELAXED = 0.02  # the second tol_norm of DYNAMICS
DEN = [0.0, 0.0, 1.0, 1.0 / 3.0]
MF = {"num": [4.0 / 3.0, 4.0 / 3.0], "den": DEN}
MR = {"num": [2.5 / 3.0, 2.5 / 3.0], "den": DEN}  # gain-asym: MF scaled by 2.5/4
REARS = {"gain-asym": MR, "vel-asym": {"num": [4.0 / 3.0, 2.5 / 3.0], "den": DEN},
         "sym": MF}
NORMS = ("norm_gp", "norm_gm")
NORM_PARTS = ("value", "argmax_omega")  # the NormEstimate fields summarised by digits


# ------------------------------------------------------------ the case sets
# Each builder below runs in a worker, against that side's wavestring.


def _random_pi_pair(w, rng):
    """tests/conftest.py's random_pi_pair: a PI pair over s**2 (1 + tau s)."""
    tau = rng.uniform(0.1, 1.0)
    den = w.Polynomial([0.0, 0.0, 1.0, tau])
    while True:
        kif, kir = rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)
        if abs(kif / kir - 1.0) >= 0.1:
            break
    kpf, kpr = rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)
    return w.AgentDynamics(w.tf_normalize(w.Polynomial([kif, kpf]), den),
                           w.tf_normalize(w.Polynomial([kir, kpr]), den))


def _random_dynamics(w, rng):
    """tests/test_properties.py's random_dynamics, draw for draw."""
    p = int(rng.integers(1, 3))
    den = w.Polynomial([1.0])
    for r in -rng.uniform(0.3, 5.0, size=rng.integers(1, 3)):
        den = den * w.Polynomial([1.0, 1.0 / abs(r)])
    num_f = w.Polynomial(rng.uniform(0.3, 3.0, size=rng.integers(1, 3)))
    num_r = w.Polynomial(rng.uniform(0.3, 3.0, size=rng.integers(1, 3)))
    full = w.Polynomial([0.0] * p + list(den.coeffs))
    return w.AgentDynamics(w.tf_normalize(num_f, full), w.tf_normalize(num_r, full))


def dynamics_set() -> dict:
    """DYNAMICS: name -> AgentDynamics, 230 entries."""
    import dataclasses

    import numpy as np
    import wavestring as w
    from wavestring.cli import build_dynamics

    front = w.tf_normalize(w.Polynomial(MF["num"]), w.Polynomial(DEN))
    rears = {"gain-asym": w.RationalTF(front.num.scaled(2.5 / 4), front.den, front.p),
             "vel-asym": w.tf_normalize(w.Polynomial([4 / 3, 2.5 / 3]), w.Polynomial(DEN)),
             "sym": front}
    out = {f"canonical-{name}-h{h}": w.AgentDynamics(front, rear, h=h)
           for name, rear in rears.items() for h in (0.0, 0.5)}
    rng = np.random.default_rng(1)
    out.update({f"pair-{k:02d}": _random_pi_pair(w, rng) for k in range(12)})
    m = w.RationalTF(w.Polynomial([1.0]), w.Polynomial([1.0]), p=2)
    out["undamped"] = w.AgentDynamics(m, m)
    sym = build_dynamics({"dynamics": {"mf": MF, "mr": MF}})
    for k, mu in enumerate(np.linspace(0.5, 1.5, 41)):
        mr = w.RationalTF(sym.Mr.num.scaled(float(mu)), sym.Mr.den, sym.Mr.p)
        out[f"mu-{k:02d}"] = dataclasses.replace(sym, Mr=mr)
    gain = build_dynamics({"dynamics": {"mf": MF, "mr": MR}})
    for k, h in enumerate(np.linspace(0.0, 2.0, 20)):
        out[f"h-{k:02d}"] = dataclasses.replace(gain, h=float(h))
    rng = np.random.default_rng(20240817)
    for k in range(100):
        out[f"property-{k:02d}"] = _random_dynamics(w, rng)
        rng.uniform(size=42)  # the case's 21 sample points
    rng = np.random.default_rng(20261020)
    for k in range(50):
        d = _random_dynamics(w, rng)
        out[f"headway-{k:02d}"] = w.AgentDynamics(d.Mf, d.Mr, h=float(rng.uniform(0.05, 1.5)))
    return out


def extreme_set() -> dict:
    """EXTREME: name -> analyze config, 386 entries."""
    out = {}
    for h in (0.0, 0.7):
        def config(**analysis):
            return {"dynamics": {"mf": json.loads(json.dumps(MF)),
                                 "mr": json.loads(json.dumps(MR)), "h": h},
                    "topology": {"kind": "path", "n": 6},
                    "analysis": {"points": 400, **analysis}}
        for side in ("mf", "mr"):
            for part in ("num", "den"):
                for i in range(len({"mf": MF, "mr": MR}[side][part])):
                    for v in VALUES:
                        cfg = config()
                        cfg["dynamics"][side][part][i] = v
                        out[f"h{h}-{side}.{part}[{i}]={v:g}"] = cfg
        for key, values in (("omega_max", OMEGA_MAXES),
                            ("omega_min", (1e-30, 1e-100))):
            for v in values:
                out[f"h{h}-{key}={v:g}"] = config(**{key: v})
        for rear, mr in REARS.items():
            for v in TOL_NORMS:
                cfg = config(tolerances={"tol_norm": v})
                cfg["dynamics"]["mr"] = json.loads(json.dumps(mr))
                out[f"h{h}-{rear}-tol_norm={v:g}"] = cfg
    return out


def _verdict_record(d, **tolerances) -> dict:
    import dataclasses

    from wavestring import local_string_verdict
    try:
        v = local_string_verdict(d, **tolerances)
    except Exception as exc:  # recorded and compared, not swallowed
        return {"raised": f"{type(exc).__name__}: {exc}"}
    return {"verdict": v.locally_string_stable, "awtf_stable": v.awtf_stable,
            "norm_gp": list(dataclasses.astuple(v.norm_gp)),
            "norm_gm": list(dataclasses.astuple(v.norm_gm)),
            "theorem2": v.theorem2_triggered, "notes": list(v.notes),
            "crossings": list(v.crossings)}


def _analyze_record(cfg: dict, tmp: str, name: str) -> dict:
    from wavestring.cli import main

    path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, name)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["analyze", "--config", path, "--out", out])
    report = os.path.join(out, "analysis.json")
    verdict = None
    if os.path.exists(report):
        with open(report) as fh:
            verdict = json.load(fh).get("verdict")
    # the temporary directory differs between the sides
    return {"exit": code, "stderr": err.getvalue().replace(tmp, "<tmp>"), "verdict": verdict}


def _coupling_record(d, out: str, name: str) -> dict:
    """COUPLINGS for one entry: each line's exception (None if none); the
    arrays [g_plus, g_minus] are saved as out/<name> <line>.npy."""
    import numpy as np
    from wavestring import FrequencyGrid
    from wavestring.waveresponse import InverseLaplaceConfig, bromwich_line
    from wavestring.waves import awtf_axis_sweep, wave_sweep

    lines = {"axis": lambda: awtf_axis_sweep(d, FrequencyGrid().omegas()),
             "line": lambda: wave_sweep(d, bromwich_line(InverseLaplaceConfig(40.0, 16384))[::-1])}
    record = {}
    for line, run in lines.items():
        try:
            sweep = run()
        except Exception as exc:  # recorded and compared, not swallowed
            record[line] = f"{type(exc).__name__}: {exc}"
            continue
        record[line] = None
        np.save(os.path.join(out, f"{name} {line}.npy"), np.stack([sweep.g_plus, sweep.g_minus]))
    return record


def worker(couplings: str) -> None:
    dynamics = dynamics_set()
    records = {"dynamics": {k: _verdict_record(d) for k, d in dynamics.items()},
               f"dynamics at tol_norm {RELAXED}":
               {k: _verdict_record(d, tol_norm=RELAXED) for k, d in dynamics.items()},
               "couplings": {k: _coupling_record(d, couplings, k) for k, d in dynamics.items()}}
    with tempfile.TemporaryDirectory() as tmp:
        records["extreme"] = {k: _analyze_record(cfg, tmp, f"out{i}")
                              for i, (k, cfg) in enumerate(extreme_set().items())}
    json.dump(records, sys.stdout)


# --------------------------------------------------------------- comparing


def run_side(root: str, couplings: str) -> dict:
    """The side's records; its coupling arrays go to the directory couplings."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    os.makedirs(couplings)
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", couplings],
                              cwd=cwd, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def _relative(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / abs(a) if a else float("inf")


def compare_couplings(parent: dict, change: dict, old_dir: str, new_dir: str) -> None:
    """Each entry and line whose coupling arrays differ: per coupling, the
    count of samples that moved and the largest relative move. A line that
    raised on either side is compared by its exception only (above)."""
    import numpy as np

    moved = []
    for name, old in parent.items():
        for line in old:
            if old[line] is not None or change[name][line] is not None:
                continue
            path = f"{name} {line}.npy"
            a, b = np.load(os.path.join(old_dir, path)), np.load(os.path.join(new_dir, path))
            for coupling, x, y in zip(("g_plus", "g_minus"), a, b):
                diff = ~((x == y) | (np.isnan(x) & np.isnan(y)))
                if diff.any():
                    with np.errstate(all="ignore"):
                        rel = np.abs(y[diff] - x[diff]) / np.abs(x[diff])
                    print(f"couplings/{name}: {line} {coupling}: {int(diff.sum())} of {len(x)} "
                          f"samples moved (largest relative move {np.nanmax(rel):.2g})")
                    moved.append(name)
    print(f"couplings: {len(parent)} cases, moves on {len(set(moved))}: "
          f"{', '.join(sorted(set(moved))) or '-'}")


def compare(parent: dict, change: dict, coupling_dirs: tuple[str, str]) -> None:
    for group in parent:
        diffs = 0
        # summarised field -> {"up": [cases, (largest move, case)], "down": ...}
        moves: dict = {}

        def move(key: str, old: list, new: list, name: str) -> None:
            """One case's moves, old -> new entry by entry; the case counts
            up or down by the direction of its largest relative move."""
            way = moves.setdefault(key, {"up": [0, (0.0, None)], "down": [0, (0.0, None)]})
            rel, x, y = max(((_relative(x, y), x, y) for x, y in zip(old, new)),
                            default=(0.0, 0.0, 0.0))
            if rel > 0:
                tally = way["up" if y > x else "down"]
                tally[0] += 1
                tally[1] = max(tally[1], (rel, name), key=lambda t: t[0])

        for name, old in parent[group].items():
            new = change[group][name]
            for field in sorted(set(old) | set(new)):
                a, b = old.get(field), new.get(field)
                if field == "crossings" and a is not None and b is not None:
                    if sorted(a) != a or sorted(b) != b:
                        if a != b:
                            print(f"{group}/{name}: crossings order {a} -> {b}")
                    a, b = sorted(a), sorted(b)
                    if len(a) == len(b):
                        move("crossings", a, b, name)
                        continue
                if field in NORMS and a is not None and b is not None:
                    # value and argmax_omega are summarised; refined is compared
                    for part, x, y in zip(NORM_PARTS, a, b):
                        move(f"{field}.{part}", [x], [y], name)
                    a, b = a[len(NORM_PARTS):], b[len(NORM_PARTS):]
                if a != b:
                    diffs += 1
                    print(f"{group}/{name}: {field}: {a!r} -> {b!r}")
        print(f"{group}: {len(parent[group])} cases, {diffs} field differences")
        for key, way in moves.items():
            print(f"{group}: {key} moved " + " and ".join(
                f"{d} on {n} cases (largest relative move {rel:.2g}, {name})"
                for d, (n, (rel, name)) in way.items()))
    compare_couplings(parent["couplings"], change["couplings"], *coupling_dirs)
    ext_p, ext_c = parent["extreme"], change["extreme"]
    freed = [k for k in ext_p if ext_p[k]["exit"] == 3 and ext_c[k]["exit"] == 0]
    lost = [k for k in ext_p if ext_p[k]["exit"] == 0 and ext_c[k]["exit"] != 0]
    print(f"extreme: exit 3 -> 0 on {len(freed)}: {', '.join(freed) or '-'}")
    print(f"extreme: exit 0 -> other on {len(lost)}: {', '.join(lost) or '-'}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="revision to compare the working tree against")
    ap.add_argument("--worker", metavar="COUPLINGS", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    with tempfile.TemporaryDirectory() as tmp:
        dirs = os.path.join(tmp, "parent-couplings"), os.path.join(tmp, "couplings")
        tree = os.path.join(tmp, "tree")
        os.makedirs(tree)
        export(args.parent, tree)
        parent = run_side(tree, dirs[0])
        compare(parent, run_side(ROOT, dirs[1]), dirs)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the wavestring CLI: one closed-loop client, in process.

    python3 bench/run.py --workload simulate_csv --seed 1 --seconds 40 --trace 0

One pass runs the workload's CLI calls one after another through
`wavestring.cli.main` (see scenarios.py), then checks every output. Passes
repeat until `--seconds` is used up; timings are medians over passes.

The host's speed, shared with other tenants, drifts by tens of percent from
one minute to the next. So a fixed reference loop (bench code, never the
program's) is timed before every call and after the last one, and each
call's time is scaled by REF_LOOP_S / (mean of the loop times around it):
`run_s` and `cpu_s` are in `s_ref`, seconds on a host where the loop takes
REF_LOOP_S. A slower program still reads slower; a slower host does not.
The raw median pass time and loop time are printed beside them.

--trace 0 reports the end-to-end metrics; set-up time is the median over
several fresh interpreters that import wavestring and write the configs,
spread over the run. --trace 1 alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (see spans.py); the spans
are written to .bench_run/trace-<workload>-<seed>.json when the run ends.

The library is imported from src/ next to this directory, never from an
installed copy. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
REFERENCE = os.path.join(BENCH, "reference.json")
SETUP_REPEATS = 9
REF_LOOP_S = 0.010     # about the loop's median time on the 2-vCPU host of record
REF_LOOP_ITERS = 1400
THREAD_VARS = ("WAVESTRING_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")

# One BLAS thread unless the caller says otherwise: a second thread would time
# the other core's neighbours too. Set before numpy is first imported.
for var in THREAD_VARS[1:]:
    os.environ.setdefault(var, "1")

sys.path.insert(0, BENCH)
from scenarios import WORKLOADS, build_calls, cli_args, write_configs  # noqa: E402
from spans import Tracer  # noqa: E402


def import_wavestring():
    """Import the package from the checkout's src/ or exit with a nonzero status."""
    if not os.path.isfile(os.path.join(SRC, "wavestring", "__init__.py")):
        sys.exit(f"bench: no wavestring sources under {SRC}")
    sys.path.insert(0, SRC)
    import wavestring
    import wavestring.cli

    if not os.path.abspath(wavestring.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported wavestring from {wavestring.__file__}, not {SRC}")
    return wavestring


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of one interpreter start + import + config generation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def reference_loop() -> float:
    """Wall time of a fixed mix of interpreter work and 60- and 240-wide matvecs.

    About 10 ms; the sizes bracket the state dimensions the workloads integrate.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((60, 60)) / 60.0
    big = rng.standard_normal((240, 240)) / 240.0
    v, w = np.ones(60), np.ones(240)
    acc = 0.0
    t0 = time.perf_counter()
    for k in range(REF_LOOP_ITERS):
        v = small @ v + 1.0
        if k % 4 == 0:
            w = big @ w + 1.0
        acc += float(v[k % 60]) * 0.5
    return time.perf_counter() - t0


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digests(workload: str, calls) -> dict:
    """sha256 of every output file of the seed-independent calls that wrote any."""
    out = {}
    for call in calls:
        if call.fixed and os.path.isdir(call.out_dir):
            for name in sorted(os.listdir(call.out_dir)):
                out[f"{workload}/{call.name}/{name}"] = file_digest(
                    os.path.join(call.out_dir, name))
    return out


def run_pass(ws, workload: str, calls, ref: dict, tracer=None) -> dict:
    """Run every call once, timed, then check the outputs untimed."""
    for call in calls:
        shutil.rmtree(call.out_dir, ignore_errors=True)
    sink = io.StringIO()
    outcomes = []
    traced = tracer.installed(ws) if tracer else contextlib.nullcontext()
    walls, cpus, loops = [], [], [reference_loop()]
    with traced, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for call in calls:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                outcomes.append(ws.cli.main(cli_args(call)))
            except Exception as exc:  # a traceback out of main() is a failed call
                traceback.print_exc()
                outcomes.append(f"raised {type(exc).__name__}: {exc}")
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            loops.append(reference_loop())
    # Scale each call to REF_LOOP_S host speed, judged by the loops on either side.
    scale = [2 * REF_LOOP_S / (a + b) for a, b in zip(loops, loops[1:])]

    failures = []
    for call, code in zip(calls, outcomes):
        reason = None if code == 0 else f"exit {code}"
        if reason is None:
            try:
                reason = call.check(call.out_dir, ref)
            except (OSError, ValueError, KeyError) as exc:
                reason = f"unreadable output: {exc}"
        if reason:
            failures.append(f"{call.name}: {reason}")
    if failures:
        print("failed calls:\n  " + "\n  ".join(failures), file=sys.stderr)
        print(sink.getvalue(), file=sys.stderr)
    digests = output_digests(workload, calls)
    want = ref.get("digests", {})
    return {
        "wall": sum(walls),
        "wall_ref": sum(w * k for w, k in zip(walls, scale)),
        "cpu_ref": sum(c * k for c, k in zip(cpus, scale)),
        "loop": statistics.median(loops),
        "failed": len(failures),
        "digests": digests,
        "identical": sum(want.get(k) == v for k, v in digests.items()),
    }


def layer_metrics(tracer, result: dict) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    total, own, count = tracer.totals()
    work, calls_n = tracer.work, tracer.calls
    agent_steps = work["platoon.agent_steps"]
    steps = work["platoon.rk4_steps"]
    m = {
        "platoon.simulate_s": (total["platoon.simulate"], "s"),
        "platoon.rk4_steps": (steps, "count"),
        "platoon.agent_steps": (agent_steps, "count"),
        "platoon.ns_per_agent_step": (
            1e9 * total["platoon.simulate"] / agent_steps if agent_steps else 0.0, "ns"),
        "platoon.build_network_s": (total["platoon.build_network"], "s"),
        "platoon.build_network_calls": (count["platoon.build_network"], "count"),
        "platoon.state_dim": (work["platoon.state_dim"], "count"),
        "platoon.flops_per_step": (
            work["platoon.flops"] / steps if steps else 0.0, "flop_computed"),
        "platoon.matrix_bytes_per_step": (
            work["platoon.matrix_bytes"] / steps if steps else 0.0, "B_computed"),
        "cli.format_s": (sum(v for k, v in own.items() if k.startswith("cli.cmd_")), "s"),
        "cli.write_s": (total["cli._write_atomic"], "s"),
        "cli.bytes_written": (work["cli.bytes_written"], "B"),
        "cli.load_config_s": (total["cli.load_config"], "s"),
        "cli.outputs_identical": (result["identical"], "count"),
        "cli.outputs_total": (len(result["digests"]), "count"),
        "stability.local_string_verdict_s": (total["stability.local_string_verdict"], "s"),
        "stability.verdict_calls": (count["stability.local_string_verdict"], "count"),
        "stability.nyquist_axis_test_s": (total["stability.nyquist_axis_test"], "s"),
        "stability.nyquist_calls": (count["stability.nyquist_axis_test"], "count"),
        "stability.awtf_norm_estimates_s": (total["stability.awtf_norm_estimates"], "s"),
        "stability.hinf_estimate_s": (total["stability.hinf_estimate"], "s"),
        "stability.hinf_calls": (count["stability.hinf_estimate"], "count"),
        "waves.awtf_axis_sweep_s": (total["waves.awtf_axis_sweep"], "s"),
        "waves.axis_samples": (work["waves.axis_samples"], "count"),
        "waves.awtf_eval_calls": (calls_n["waves.awtf_eval"], "count"),
        "waves.t_g_eval_calls": (calls_n["waves.t_g_eval"], "count"),
        "tf.tf_eval_calls": (calls_n["tf.tf_eval"], "count"),
        "waveresponse.wave_components_s": (total["waveresponse.wave_components"], "s"),
        "waveresponse.inverse_laplace_s": (total["waveresponse.inverse_laplace"], "s"),
        "waveresponse.spectrum_samples": (work["waveresponse.spectrum_samples"], "count"),
    }
    for mod in ("cli", "platoon", "stability", "waves", "waveresponse"):
        m[f"{mod}.self_s"] = (sum(v for k, v in own.items()
                                  if k.startswith(mod + ".")), "s")
    m["trace.run_s"] = (result["wall"], "s")
    m["host.ref_loop_s"] = (result["loop"], "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


def run_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    rev = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_rev": rev or "unknown",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    ws = import_wavestring()
    calls = build_calls(args.workload, args.seed)
    if args.setup_probe:
        write_configs(calls, os.path.join(RUN_DIR, "setup", args.workload))
        return 0

    record = run_record()
    os.environ.pop("WAVESTRING_THREADS", None)  # the CLI's default: one row at a time
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    write_configs(calls, os.path.join(RUN_DIR, args.workload))

    plain, traced, setups = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if not args.trace and len(setups) * args.seconds <= elapsed * SETUP_REPEATS:
            setups.append(setup_probe(args.workload, args.seed))
        if args.trace and len(plain) > len(traced):
            tracer = Tracer()
            result = run_pass(ws, args.workload, calls, ref, tracer)
            traced.append((tracer, result))
        else:
            result = run_pass(ws, args.workload, calls, ref)
            plain.append(result)
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if (traced or not args.trace) and elapsed * (done + 1) / done > args.seconds:
            break
    while not args.trace and len(setups) < SETUP_REPEATS:
        setups.append(setup_probe(args.workload, args.seed))

    results = plain + [r for _, r in traced]
    attempted = len(calls) * len(results)
    failed = sum(r["failed"] for r in results)
    median_pass_s = statistics.median(r["wall"] for r in plain)
    if args.trace:
        per_pass = [layer_metrics(t, r) for t, r in traced]
        metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
                   for name, (_, unit) in per_pass[0].items()}
        metrics["trace.overhead_s"] = (metrics["trace.run_s"][0] - median_pass_s, "s")
        trace_path = os.path.join(RUN_DIR, f"trace-{args.workload}-{args.seed}.json")
        meta = {"workload": args.workload, "seed": args.seed, "record": record,
                "untraced_run_s": [r["wall"] for r in plain]}
        with open(trace_path, "w") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent"],
                       "passes": [t.spans for t, _ in traced]}, fh)
    else:
        run_s = statistics.median(r["wall_ref"] for r in plain)
        agent_steps = sum(c.agent_steps for c in calls)
        verdicts = sum(c.verdicts for c in calls)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (run_s, "s_ref"),
            "cpu_s": (statistics.median(r["cpu_ref"] for r in plain), "s_ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_rate": (1.0 - failed / attempted, "ratio"),
            "agent_steps_per_s": (agent_steps / run_s, "1/s_ref"),
            "verdicts_per_s": (verdicts / run_s, "1/s_ref"),
        }

    print(f"record {json.dumps(record, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(calls)} calls; "
          f"error_rate {failed / attempted:.4g} ({failed}/{attempted})")
    print("  pass wall s: untraced " + " ".join(f"{r['wall']:.3f}" for r in plain)
          + "; traced " + " ".join(f"{r['wall']:.3f}" for _, r in traced))
    print(f"  median untraced pass wall {median_pass_s:.4f} s; median reference loop "
          f"{statistics.median(r['loop'] for r in results) * 1e3:.3f} ms "
          f"(REF_LOOP_S {REF_LOOP_S * 1e3:g} ms)")
    if setups:
        print("  set-up probes s: " + " ".join(f"{t:.3f}" for t in setups))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record a BENCH_<n>.json: bench/run.py at a parent revision and at the tree.

    python3 tools/bench_pair.py --parent REV --out BENCH_7.json

The parent's committed files are exported with `git archive` into a
temporary directory; the change is this checkout's working tree. Each side
runs `bench/run.py` from its own directory, so each benchmarks its own
src/. Every run is seed 1, 40 s. Every workload runs once per side,
untraced, the side that goes first alternating between workloads. Then
PAIRS more alternating pairs of the spectral workload are summarised as
per-side median and quartiles of `run_s` and the count of pairs the change
wins, and one traced (`--trace 1`) spectral pair follows. The file keeps
each run's final JSON line ('result') and its median reference-loop time
('host.ref_loop_s').
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("simulate_csv", "sweep_chain", "spectral")
SEED, SECONDS = 1, 40
PAIRS = 10
PAIRED = "spectral"  # the workload of the pairs and of the traced pair
COMMAND = f"python3 bench/run.py --workload <workload> --seed {SEED} --seconds {SECONDS} --trace "


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    archive = os.path.join(dest, "tree.tar")
    git("archive", "--format=tar", "-o", archive, rev)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    os.remove(archive)


def worktree_src_tree() -> str:
    """Tree hash of the working tree's src/, through a throwaway index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        subprocess.run(["git", "add", "src"], cwd=ROOT, env=env, check=True)
        return subprocess.run(["git", "write-tree", "--prefix=src/"], cwd=ROOT, env=env,
                              check=True, text=True, capture_output=True).stdout.strip()


def run(root: str, workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, check=True, text=True, capture_output=True).stdout
    lines = out.strip().splitlines()
    loop_ms = float(re.search(r"median reference loop ([0-9.]+) ms", out).group(1))
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[7:])
    print(f"  {workload} trace={trace} {root}: {lines[-1][:120]}", file=sys.stderr)
    return {"host.ref_loop_s": loop_ms / 1e3, "result": json.loads(lines[-1]),
            "_host": {k: v for k, v in record.items() if k != "git_rev"}}


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    parent_rev = git("rev-parse", args.parent)
    sides = {
        "parent": {"rev": parent_rev, "src_tree": git("rev-parse", f"{parent_rev}:src")},
        "change": {"rev": f"uncommitted change on {git('rev-parse', 'HEAD')}",
                   "src_tree": worktree_src_tree()},
    }
    with tempfile.TemporaryDirectory() as parent_root:
        export(parent_rev, parent_root)
        roots = {"parent": parent_root, "change": ROOT}

        def pair(workload: str, k: int, trace: int = 0) -> dict:
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            return {side: run(roots[side], workload, trace)
                    for side in order}

        for side in sides.values():
            side["workloads"] = {}
        for k, workload in enumerate(WORKLOADS):
            for side, res in pair(workload, k).items():
                sides[side]["host"] = res.pop("_host")
                sides[side]["workloads"][workload] = res
        doc = {
            "description": (
                f"Untraced bench/run.py results, seed {SEED}, --seconds {SECONDS}, "
                "one run per side and workload, parent and change "
                "alternating which ran first. 'result' is the harness's final JSON "
                "line; 'host.ref_loop_s' is the median reference-loop time the "
                "harness printed for that run. Written by tools/bench_pair.py."),
            "command": COMMAND + "0",
            **sides,
        }
        runs = [pair(PAIRED, k) for k in range(PAIRS)]
        run_s = {side: [r[side]["result"]["metrics"]["run_s"]["value"] for r in runs]
                 for side in ("parent", "change")}
        doc["pairs"] = {
            "workload": PAIRED,
            "metric": "run_s (s_ref)",
            "run_s": run_s,
            "peak_rss_mb": {side: [r[side]["result"]["metrics"]["peak_rss_mb"]["value"]
                                   for r in runs] for side in ("parent", "change")},
            "change_wins": sum(c < p for p, c in zip(run_s["parent"], run_s["change"])),
            "parent": quartiles(run_s["parent"]),
            "change": quartiles(run_s["change"]),
        }
        traced = pair(PAIRED, 0, trace=1)
        doc["traced"] = {
            "command": (COMMAND + "1").replace("<workload>", PAIRED),
            **{side: {k: v for k, v in res.items() if k != "_host"}
               for side, res in traced.items()},
        }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

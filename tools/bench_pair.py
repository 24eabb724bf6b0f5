"""Record a BENCH_<n>.json: bench/run.py at a parent revision and at the tree.

    python3 tools/bench_pair.py --parent REV --paired WORKLOAD --out BENCH_9.json
    python3 tools/bench_pair.py --parent REV --paired sweep_chain --paired spectral \
        --out BENCH_18.json

The parent's committed files are exported with `git archive` into a
temporary directory, and the change's working tree (tracked files and the
untracked ones git does not ignore) is copied into another. Both sides thus
run from the same kind of directory: the reference loop behind s_ref has
read about 14% apart for the same code checked out under a temporary
directory and elsewhere. Each side runs `bench/run.py` from its own
directory, so each benchmarks its own src/. Every run is seed 1, 40 s.
Every workload runs once per side, untraced, the side that goes first
alternating between workloads. Then PAIRS more alternating pairs of the
--paired workload (the one whose gain is claimed) are summarised as
per-side median and quartiles of `run_s` and the count of pairs the change
wins (each run's `cpu_s` and `peak_rss_mb` are kept beside it), and one
traced (`--trace 1`) pair of the same workload follows. 's_ref_against_raw'
sets the pairs won and the median change/parent ratio of `run_s` beside
those of the raw pass wall, and the script prints both: s_ref divides by a
reference loop timed in each side's own process, so a gain or loss in
`run_s` that the raw walls do not show is the loop's, not the code's. The file keeps
each run's final JSON line ('result'), its median reference-loop time
('host.ref_loop_s') and its median untraced pass wall in raw seconds
('pass_wall_s'), the unscaled time beside the s_ref metrics. Each run also
keeps the sha256 of every output file its last pass wrote ('output_sha256'),
and 'outputs_identical' counts, per workload, the parent's files whose
digest the change's first run reproduces: a check of the outputs against
each other that does not lean on bench/reference.json.

Each side also keeps 'src_lines' beside its 'rev' and 'src_tree': the line
count of src/**/*.py in its directory (the parent's export, the change's
copy), so the line count a simplicity change reports can be checked in its
BENCH file.

The harness's `cpu_s` and `peak_rss_mb` count only the harness process, so
the CPU of a worker it forks (the CLI formats large CSVs on forked workers)
shows in neither. Each run therefore also keeps 'tree_cpu_s', the user+sys
CPU of the whole process tree: the `resource.getrusage(RUSAGE_CHILDREN)`
delta around the `bench/run.py` subprocess, which covers the run, its set-up
probes and every worker it reaped. 'passes' is the run's pass count (untraced
plus traced), and the pairs' summary sets 'tree_cpu_per_pass_s' beside
`cpu_s`.

--paired may be given more than once. The single runs are still made once
per workload and side; then each named workload, in the order given, has
its PAIRS pairs and its traced pair. With one --paired workload, 'pairs'
and 'traced' hold that workload's summary and traced pair. With several,
each of 'pairs' and 'traced' maps every named workload to that same
summary and traced pair.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("simulate_csv", "sweep_chain", "spectral")
SEED, SECONDS = 1, 40
PAIRS = 10
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


def copy_worktree(dest: str) -> None:
    """Copy the working tree's tracked files and its untracked files that git
    does not ignore into dest (a tracked file deleted in the tree is left out)."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        if os.path.isfile(os.path.join(ROOT, name)):
            os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, name), os.path.join(dest, name))


def src_lines(root: str) -> int:
    """Lines of every src/**/*.py under root, as wc -l counts them."""
    total = 0
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def worktree_src_tree() -> str:
    """Tree hash of the working tree's src/, through a throwaway index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        subprocess.run(["git", "add", "src"], cwd=ROOT, env=env, check=True)
        return subprocess.run(["git", "write-tree", "--prefix=src/"], cwd=ROOT, env=env,
                              check=True, text=True, capture_output=True).stdout.strip()


def output_digests(root: str, workload: str) -> dict:
    """sha256 of every file the last pass wrote under .bench_run/<workload>/,
    keyed by call and file name (the scenario configs beside them are inputs)."""
    base = os.path.join(root, ".bench_run", workload)
    out = {}
    for call in sorted(os.listdir(base)):
        if os.path.isdir(os.path.join(base, call)):
            for name in sorted(os.listdir(os.path.join(base, call))):
                with open(os.path.join(base, call, name), "rb") as fh:
                    out[f"{call}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run(root: str, workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run(cmd, cwd=root, check=True, text=True, capture_output=True).stdout
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    tree_cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    lines = out.strip().splitlines()
    loop_ms = float(re.search(r"median reference loop ([0-9.]+) ms", out).group(1))
    wall_s = float(re.search(r"median untraced pass wall ([0-9.]+) s", out).group(1))
    passes = sum(map(int, re.search(r"(\d+) untraced and (\d+) traced passes", out).groups()))
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[7:])
    print(f"  {workload} trace={trace} {root}: {lines[-1][:120]}", file=sys.stderr)
    return {"host.ref_loop_s": loop_ms / 1e3, "pass_wall_s": wall_s,
            "tree_cpu_s": tree_cpu_s, "passes": passes,
            "result": json.loads(lines[-1]),
            "output_sha256": output_digests(root, workload),
            "_host": {k: v for k, v in record.items() if k != "git_rev"}}


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def scaled_against_raw(pairs: dict) -> dict:
    """Per metric, run_s (s_ref) and pass_wall_s (raw seconds): the pairs the
    change wins and the median change/parent ratio. Where the two disagree,
    the reference loop moved between the sides, not only the code."""
    out = {}
    for metric in ("run_s", "pass_wall_s"):
        parent, change = pairs[metric]["parent"], pairs[metric]["change"]
        out[metric] = {
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "median_ratio": statistics.median(c / p for p, c in zip(parent, change)),
        }
    print(f"  {pairs['workload']}: change lower in "
          + ", ".join(f"{m} {v['change_wins']}/{len(pairs[m]['parent'])} pairs "
                      f"(median ratio {v['median_ratio']:.4f})" for m, v in out.items()),
          file=sys.stderr)
    return out


def paired(pair, workload: str) -> tuple[dict, dict]:
    """PAIRS alternating pairs of workload, summarised, and one traced pair."""
    runs = [pair(workload, k) for k in range(PAIRS)]
    run_s = {side: [r[side]["result"]["metrics"]["run_s"]["value"] for r in runs]
             for side in ("parent", "change")}
    summary = {
        "workload": workload,
        "metric": "run_s (s_ref)",
        "run_s": run_s,
        **{metric: {side: [r[side]["result"]["metrics"][metric]["value"] for r in runs]
                    for side in ("parent", "change")}
           for metric in ("cpu_s", "peak_rss_mb")},
        "pass_wall_s": {side: [r[side]["pass_wall_s"] for r in runs]
                        for side in ("parent", "change")},
        "tree_cpu_per_pass_s": {side: [r[side]["tree_cpu_s"] / r[side]["passes"]
                                       for r in runs]
                                for side in ("parent", "change")},
        "host.ref_loop_s": {side: [r[side]["host.ref_loop_s"] for r in runs]
                            for side in ("parent", "change")},
        "change_wins": sum(c < p for p, c in zip(run_s["parent"], run_s["change"])),
        "parent": quartiles(run_s["parent"]),
        "change": quartiles(run_s["change"]),
    }
    summary["s_ref_against_raw"] = scaled_against_raw(summary)
    traced = {
        "command": (COMMAND + "1").replace("<workload>", workload),
        **{side: {k: v for k, v in res.items() if k != "_host"}
           for side, res in pair(workload, 0, trace=1).items()},
    }
    return summary, traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--paired", required=True, choices=WORKLOADS, action="append",
                    help="workload of ten pairs and a traced pair (repeatable)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    parent_rev = git("rev-parse", args.parent)
    sides = {
        "parent": {"rev": parent_rev, "src_tree": git("rev-parse", f"{parent_rev}:src")},
        "change": {"rev": f"uncommitted change on {git('rev-parse', 'HEAD')}",
                   "src_tree": worktree_src_tree()},
    }
    with tempfile.TemporaryDirectory() as parent_root, \
            tempfile.TemporaryDirectory() as change_root:
        export(parent_rev, parent_root)
        copy_worktree(change_root)
        roots = {"parent": parent_root, "change": change_root}
        for side, root in roots.items():
            sides[side]["src_lines"] = src_lines(root)

        def pair(workload: str, k: int, trace: int = 0) -> dict:
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            return {side: run(roots[side], workload, trace)
                    for side in order}

        for side in sides.values():
            side["workloads"] = {}
        outputs = {}
        for k, workload in enumerate(WORKLOADS):
            for side, res in pair(workload, k).items():
                sides[side]["host"] = res.pop("_host")
                sides[side]["workloads"][workload] = res
            parent, change = (sides[side]["workloads"][workload]["output_sha256"]
                              for side in ("parent", "change"))
            outputs[workload] = {
                "parent_files": len(parent), "change_files": len(change),
                "identical": sum(change.get(name) == digest
                                 for name, digest in parent.items()),
            }
        doc = {
            "description": (
                f"Untraced bench/run.py results, seed {SEED}, --seconds {SECONDS}, "
                "one run per side and workload, parent and change "
                "alternating which ran first. 'result' is the harness's final JSON "
                "line; 'host.ref_loop_s' is the median reference-loop time and "
                "'pass_wall_s' the median untraced pass wall (raw seconds) the "
                "harness printed for that run; 'tree_cpu_s' is the user+sys CPU of "
                "the run's whole process tree (its set-up probes and forked workers "
                "included) over its 'passes'. The parent ran from a `git archive` "
                "export of its revision, the change from a copy of the working tree "
                "(tracked files and untracked files git does not ignore), each in its "
                "own temporary directory. Written by tools/bench_pair.py."),
            "command": COMMAND + "0",
            **sides,
            "outputs_identical": outputs,
        }
        pairs, traced = {}, {}
        for workload in dict.fromkeys(args.paired):
            pairs[workload], traced[workload] = paired(pair, workload)
        if len(pairs) == 1:
            (pairs,), (traced,) = pairs.values(), traced.values()
        doc["pairs"], doc["traced"] = pairs, traced
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

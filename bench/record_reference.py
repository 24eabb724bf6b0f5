"""Record bench/reference.json from the program as it stands.

    python3 bench/record_reference.py

The reference holds the sha256 of every seed-independent output file and
every 100th sample of the last agent's simulate_csv trajectory: the outputs
the benchmark's checks and `cli.outputs_identical` compare against. Record
it only at a commit whose outputs are meant to be that reference; the file
in the repository was recorded before any optimisation was measured.
"""

import json
import os
import sys

import run
from scenarios import REFERENCE_STRIDE, WORKLOADS, build_calls, last_column, write_configs


def main() -> int:
    ws = run.import_wavestring()
    digests, last_agent = {}, None
    for workload in WORKLOADS:
        calls = build_calls(workload, seed=0)
        write_configs(calls, os.path.join(run.RUN_DIR, "reference", workload))
        result = run.run_pass(ws, workload, calls, ref={})
        if result["failed"]:
            return 1
        print(f"{workload}: pass took {result['wall']:.2f} s")
        digests.update(result["digests"])
        for call in calls:
            if call.name == "simulate":
                last_agent = last_column(
                    os.path.join(call.out_dir, "trajectory.csv"), REFERENCE_STRIDE)
    with open(run.REFERENCE, "w") as fh:
        json.dump({"digests": digests, "last_agent": last_agent}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

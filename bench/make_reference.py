"""Write reference.json: per-item output digests of pass 0 of seeds 0-19.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are known to be right; the benchmark
then counts every item whose digest differs as failed.  Each pass runs in
its own worker, exactly as in a benchmark run.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SEEDS = range(20)


def main() -> None:
    reference = {}
    for workload in run.WORKLOADS:
        reference[workload] = {}
        for seed in SEEDS:
            rec = run.spawn_pass(workload, f"{seed}:0", 1.0, False)
            if rec["problems"]:
                raise SystemExit(f"{workload} seed {seed} fails its checks: "
                                 f"{rec['problems']}")
            reference[workload][f"{seed}:0"] = rec["digests"]
        print(f"{workload}: {len(SEEDS)} passes", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Record perfbench/reference.json from traced runs of this checkout.

    python3 perfbench/record.py [--seeds 0 7]

Stores, per seed and workload, every sample's values, the fits, the
sha256 of every artifact and the exact per-layer counts. Record only at
a commit whose outputs are trusted; every later run is checked against
these values.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from run import DEFAULT_SEED, REFERENCE, environment, launch
from spans import EXACT_COUNTS
from workloads import WORKLOADS

HELD_OUT_SEED = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[DEFAULT_SEED, HELD_OUT_SEED])
    args = parser.parse_args(argv)
    seeds = {}
    for seed in args.seeds:
        for workload in WORKLOADS:
            res = launch(workload, seed, "record", time.monotonic() + 600, trace=True)
            if res is None or res["error"] is not None:
                print(f"error: {workload} seed {seed} failed", file=sys.stderr)
                return 1
            seeds.setdefault(str(seed), {})[workload] = {
                "samples": res["samples"],
                "fits": res["fits"],
                "artifacts": res["artifacts"],
                "counts": {k: res["layers"][k] for k in EXACT_COUNTS},
            }
    with open(REFERENCE, "w") as fh:
        json.dump({"env": environment(), "seeds": seeds}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Summarize the saved results of many benchmark runs into one baseline.

    python3 perfbench/summarize.py --out BENCH_n.json

Reads every `.bench_out/<workload>-seed<n>-trace<0|1>.json` that
perfbench/run.py wrote, and reports per workload and metric the values
over seeds, their median and quartiles and the spread (interquartile
range over median). Traced runs contribute their per-layer metrics.
Runs made outside a git repository carry no commit; when their sources
match the ones reference.json was recorded from, they take its commit.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

from run import OUT, REFERENCE


def summarize(values):
    out = {"n": len(values), "median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    pattern = re.compile(r"(?P<w>.+)-seed(?P<seed>-?\d+)-trace(?P<t>[01])\.json$")
    runs = {}
    env = None
    for path in sorted(glob.glob(os.path.join(OUT, "*-trace[01].json"))):
        m = pattern.match(os.path.basename(path))
        with open(path) as fh:
            res = json.load(fh)
        env = res.get("env", env)
        runs.setdefault(m["w"], {}).setdefault(m["t"], {})[int(m["seed"])] = res
    if not runs:
        print(f"error: no results under {OUT}", file=sys.stderr)
        return 1
    with open(REFERENCE) as fh:
        ref_env = json.load(fh)["env"]
    if env["git_commit"] is None and env["src_sha256"] == ref_env["src_sha256"]:
        env["git_commit"] = ref_env["git_commit"]
    doc = {"env": env, "workloads": {}}
    for workload, by_trace in sorted(runs.items()):
        entry = {}
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            results = by_trace.get(trace, {})
            if not results:
                continue
            names = next(iter(results.values()))["metrics"]
            entry[key] = {
                "seeds": sorted(results),
                "correct": all(r["correct"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "metrics": {
                    name: dict(summarize([results[s]["metrics"][name]["value"]
                                          for s in sorted(results)]),
                               unit=names[name]["unit"])
                    for name in names
                },
            }
        doc["workloads"][workload] = entry
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

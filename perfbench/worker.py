"""One run of one benchmark workload, in a fresh interpreter.

Writes the workload's config file and runs it through `srlab.cli.run`,
the same handler the `srlab` command calls, with the CLI's default
thread setting. Set-up ends when `build_system` returns; a timestamp
wrapper on the CLI's binding of it marks that moment without touching
the package. The checked values are read back from the artifacts the
handler writes. Writes `result.json` into the run's output directory:
timings on the monotonic clock, peak RSS, every sample's values, the
fits, artifact digests and, with --trace, per-layer totals.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR \
        --launch T [--trace] [--setup-only]
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import sys
import time
import traceback

from spans import Tracer
from workloads import SUBCOMMAND, WORKLOADS, config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
VALUES = ("C_pressure", "C_velocity", "C_gradient")


class SetupDone(Exception):
    """Raised by the set-up timer to stop a --setup-only run."""


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_sweep(out, cfg):
    """Samples and fits of a sweep, read back from its CSV and JSON artifacts."""
    samples, fits = [], []
    for k in range(len(cfg["lambda"]["rays"])):
        stem = os.path.join(out, f"{cfg['experiment']}_ray{k}")
        with open(stem + ".csv") as fh:
            next(fh)  # the comment line
            for row in csv.DictReader(fh):
                samples.append({"step": cfg["experiment"], "ray": k,
                                "abs_lambda": float(row["abs_lambda"]),
                                "values": {c: float(row[c]) for c in VALUES if row[c]}})
        with open(stem + "_fit.json") as fh:
            next(fh)
            fit = json.load(fh)
        fits.append({"step": cfg["experiment"], "ray": k,
                     "values": {"alpha_hat": fit["alpha_hat"], "r2": fit["r2"]}})
    return samples, fits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launch", type=float, required=True,
                        help="monotonic clock reading just before this process started")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "srlab", "__init__.py")):
        print(f"error: no srlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(args.out, exist_ok=True)

    tracer = Tracer()
    with tracer.span("python.import"):
        import srlab
        from srlab import cli
    if not os.path.abspath(srlab.__file__).startswith(SRC + os.sep):
        print(f"error: imported srlab from {srlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        tracer.install()

    setup_end = []
    build_system = cli.build_system

    def timed_build_system(*a, **kw):
        system = build_system(*a, **kw)
        setup_end.append(time.monotonic())
        if args.setup_only:
            raise SetupDone
        return system

    cli.build_system = timed_build_system

    cfg = config(args.workload, args.seed)
    cfg_path = os.path.join(args.out, f"{cfg['experiment']}.config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    error = None
    try:
        with tracer.span("cli.load_config"):
            ecfg = cli.load_config(cfg_path, SUBCOMMAND, out_override=args.out)
        with tracer.span("cli.run"):
            code = cli.run(SUBCOMMAND, ecfg, threads=cli._resolve_threads(None))
        if code != 0:
            error = f"cli.run returned {code}"
    except SetupDone:
        pass
    except Exception:
        error = traceback.format_exc()
    t_end = time.monotonic()
    cli.build_system = build_system

    samples, fits = [], []
    if error is None and not args.setup_only:
        try:
            samples, fits = read_sweep(args.out, cfg)
        except Exception:
            error = traceback.format_exc()
    prefix = cfg["experiment"] + "_"
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_end[0] - args.launch if setup_end else None,
        "wall_s": t_end - args.launch,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": samples,
        "fits": fits,
        "error": error,
        "artifacts": {name: _sha256(os.path.join(args.out, name))
                      for name in sorted(os.listdir(args.out)) if name.startswith(prefix)},
    }
    if args.trace:
        tracer.restore()
        result.update(tracer.layer_metrics(args.launch, t_end))
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qproj benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout; the benchmark imports qproj
from ``src/`` and starts the command line front end as
``python -m qproj.cli``.  With ``--trace 0`` it times the workload for about
S seconds and prints the end-to-end metrics; with ``--trace 1`` it runs the
workload once untraced and once traced in process and prints the
per-layer metrics, writing the spans to ``perfbench/out/``.  The last line
of stdout is always the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed / attempted`` is the workload's error rate.  See README.md for
the workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common

WORKLOADS = ("verify-all", "verify-all-jobs2", "groupoid-edge", "calculator")


def workload_module(name):
    if name in ("verify-all", "verify-all-jobs2"):
        import wl_verify_all as mod
    elif name == "groupoid-edge":
        import wl_groupoid_edge as mod
    else:
        import wl_calculator as mod
    return mod


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up in this interpreter and print it")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        common.require_checkout()
    except common.MissingCheckout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from layers import END_TO_END, PER_LAYER

    mod = workload_module(args.workload)
    if args.setup_probe:
        start = time.perf_counter()
        mod.setup(args.workload, args.seed)
        print(time.perf_counter() - start)
        return 0

    if args.trace:
        inputs = mod.setup(args.workload, args.seed)
        spans = common.OUT / f"trace-{args.workload}-seed{args.seed}.json"
        outcome = mod.trace(inputs, spans)
        units = PER_LAYER
    else:
        setup_s = common.median_setup_s(args.workload, args.seed)
        inputs = mod.setup(args.workload, args.seed)
        outcome = mod.measure(inputs, args.seconds)
        outcome.metrics["setup_s"] = setup_s
        units = END_TO_END
    if set(outcome.metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(outcome.metrics)} != {sorted(units)}")
    metrics = {name: {"value": int(outcome.metrics[name]) if unit == "count"
                      else outcome.metrics[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": outcome.unexpected == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

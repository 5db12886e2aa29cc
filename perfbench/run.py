#!/usr/bin/env python3
"""End-to-end benchmark of the mfu tools.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

It builds tables.exe, sweep.exe and serve.exe with dune, runs the chosen
workload (see workloads.py) for about --seconds, checks every output, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, and the spans of the run are written to
.perfbench/trace-<workload>-<seed>.json (Chrome trace-event format).
Exits 2 without a result when the checkout cannot be built.
"""

import argparse
import json
import os
import random
import shutil
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/

import harness  # noqa: E402
import workloads  # noqa: E402


class Context:
    """What a workload runs with: the programs, the tracer, the seeded
    input generator and the time to measure for."""

    def __init__(self, progs, tracer, seed, seconds):
        self.work = harness.WORK_DIR
        self.progs = progs
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.started = time.perf_counter()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        paths = harness.build(root)
    except harness.SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    shutil.rmtree(harness.WORK_DIR, ignore_errors=True)
    os.makedirs(harness.WORK_DIR)

    tracer = harness.Tracer(bool(args.trace))
    ctx = Context(harness.Programs(paths, root, tracer), tracer, args.seed,
                  args.seconds)
    run = workloads.Run(ctx)
    try:
        workloads.WORKLOADS[args.workload](ctx, run)
    except Exception as e:  # a broken program fails the run, with a result
        run.check(False, f"{args.workload} stopped: {e!r}")
    tracer.write(os.path.join(harness.WORK_DIR,
                              f"trace-{args.workload}-{args.seed}.json"))
    print(f"perfbench: {args.workload}: {run.summary()}", file=sys.stderr)
    for problem in run.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems and run.attempted > 0,
        "attempted": max(1, run.attempted),
        "failed": max(run.failed, 0 if run.attempted else 1),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.metrics(args.trace).items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

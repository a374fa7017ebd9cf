"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flag-read --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
runs the same workload with the per-layer probes and prints the
per-layer metrics instead.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Catalog roots live under ``.bench_build/perfbench`` in the checkout and
are removed on exit.  Problems found by the correctness checks and
failed operations are listed on standard error; either makes the exit
status 1 (the JSON line is printed all the same).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SOURCE = CHECKOUT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no program sources at {SOURCE}; run from a full checkout", file=sys.stderr)
        return 2
    # Keep the checkout free of bytecode caches, and keep their writes
    # out of the bytes-written count.
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SOURCE), str(CHECKOUT)]

    from perfbench.layers import Probe, per_layer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = CHECKOUT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with Probe(traced=bool(args.trace)) as probe:
            run = workload(args.seed, args.seconds, probe, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for error in run.errors:
        print(f"operation failed: {error}", file=sys.stderr)
    metrics = per_layer(run, probe) if args.trace else run.end_to_end()
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if run.problems or run.failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Measure how steady the benchmark is: repeated runs, quartiles, spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--runs 10] [--sets 2]
        [--workloads flag-read,flag-churn] [--trace-overhead]

Makes ``--sets`` sets of runs, one after another.  In each set every
workload runs ``--runs`` times in turn, for ``run_seconds`` of
``BENCHMARK.json``, with its own seeds (set 1: 1, 2, ...; set 2 goes on
from where set 1 stopped).  For every end-to-end metric of every set it
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread — the quartile
distance as a share of the median — next to the metric's bound in
``BENCHMARK.json``, and for every later set the shift of the median
from the first set's, in the worse direction.  A spread above a third
of its bound, a shift above the bound, a failed check, or a share of
failed operations that differs between runs makes the verdict
"NOT steady" (exit status 1).

``--trace-overhead`` also makes a traced run per seed of the first set
and reports the tracing overhead as traced ÷ untraced query p50 − 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

CHECKOUT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}"
        )
    return json.loads(lines[-1])


def summarize(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    spread = (q3 - q1) / middle if middle else 0.0
    return {"median": middle, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None) -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--trace-overhead", action="store_true")
    args = parser.parse_args(argv)
    metrics = spec["end_to_end"]
    workloads = args.workloads.split(",")

    steady = True
    first_medians: Dict[tuple, float] = {}
    for number in range(args.sets):
        seeds = range(number * args.runs + 1, (number + 1) * args.runs + 1)
        for workload in workloads:
            results = [run_once(workload, seed, spec["run_seconds"], 0) for seed in seeds]
            shares = {r["failed"] / r["attempted"] for r in results}
            incorrect = [seed for seed, r in zip(seeds, results) if not r["correct"]]
            steady = steady and len(shares) == 1 and not incorrect
            print(f"== set {number + 1}, {workload}: seeds {seeds.start}-{seeds.stop - 1}")
            print(f"   failed share {sorted(shares)}; incorrect seeds {incorrect or 'none'}")
            for metric in metrics:
                name, bound = metric["name"], metric["bound"]
                values = [r["metrics"][name]["value"] for r in results]
                row = summarize(values)
                notes = []
                if row["spread"] > bound / 3:
                    notes.append("spread above a third of its bound")
                key = (workload, name)
                shift = ""
                if number == 0:
                    first_medians[key] = row["median"]
                else:
                    worse = row["median"] / first_medians[key] - 1.0
                    if metric["better"] == "higher":
                        worse = -worse
                    shift = f"  shift {worse:+7.2%}"
                    if worse > bound:
                        notes.append("median worse than set 1 by more than its bound")
                steady = steady and not notes
                print(
                    f"   {name:16s} median {row['median']:12.5g}  q1 {row['q1']:12.5g}  "
                    f"q3 {row['q3']:12.5g}  spread {row['spread']:7.2%}  bound {bound:.0%}"
                    + shift + "".join(f"  <-- {note}" for note in notes)
                )
                print("      runs " + " ".join(f"{value:.5g}" for value in values))
            if args.trace_overhead and number == 0:
                traced = [run_once(workload, seed, spec["run_seconds"], 1) for seed in seeds]
                overheads = [
                    t["metrics"]["traced.query_p50_ms"]["value"]
                    / r["metrics"]["query_p50_ms"]["value"] - 1.0
                    for t, r in zip(traced, results)
                ]
                print(
                    f"   tracing overhead on query p50: median "
                    f"{statistics.median(overheads):+.1%} over {len(overheads)} pairs"
                )
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""A/A check: do two sets of runs of the same code agree?

    python3 benchmarks/ledger/aa_check.py [--runs 5] [--seed 100]

Runs every workload of ``BENCHMARK.json`` ``2 x --runs`` times, each with
its own ``--seed``, the runs dealt alternately to set A and set B (ABAB...).
For every end-to-end metric it compares the two set medians against the
metric's bound and takes the spread over all runs (distance between the
first and third quartile as a share of the median, the driver's measure).
Writes ``results/AA_REPORT.json`` and exits 1 when a cell fails: an A/A
difference above half its bound, or a spread above a third of it
(``setup_s`` is exempt from the spread rule, as in the driver).  A failing
metric is to be redesigned - longer phase, lower percentile, more segments -
not given a wider bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(declared: Dict[str, Any], workload: str, seed: int
             ) -> Dict[str, float]:
    """One untraced run; returns metric name -> value."""
    done = subprocess.run(
        declared["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(declared["run_seconds"]),
                               "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"aa_check: {workload} seed {seed} exited "
                         f"{done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"aa_check: {workload} seed {seed}: {result}")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def spread(values: List[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set and workload")
    parser.add_argument("--seed", type=int, default=100,
                        help="first seed; run i of a workload uses seed + i")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    report: Dict[str, Any] = {"runs_per_set": args.runs,
                              "first_seed": args.seed, "cells": []}
    failed = 0
    for workload in (w["name"] for w in declared["workloads"]):
        runs = []
        for index in range(2 * args.runs):
            runs.append(run_once(declared, workload, args.seed + index))
            print(f"{workload} {'AB'[index % 2]} seed {args.seed + index} "
                  + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()),
                  flush=True)
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [run[name] for run in runs]
            a, b = (statistics.median(values[side::2]) for side in (0, 1))
            worse = (b - a) / a if metric["better"] == "lower" \
                else (a - b) / a
            cell = {"workload": workload, "metric": name, "bound": bound,
                    "median_a": a, "median_b": b,
                    "difference": abs(worse), "spread": spread(values),
                    "values": values}
            cell["ok"] = cell["difference"] <= bound / 2 and (
                name == "setup_s" or cell["spread"] <= bound / 3)
            failed += not cell["ok"]
            report["cells"].append(cell)
            print(f"  {workload}/{name}: A {a:.4g} B {b:.4g} "
                  f"diff {cell['difference']:.3f} spread "
                  f"{cell['spread']:.3f} bound {bound} "
                  f"{'ok' if cell['ok'] else 'FAIL'}", flush=True)
    report["failed_cells"] = failed
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "AA_REPORT.json"), "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

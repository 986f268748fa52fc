"""The perf ledger's one command.

    python3 benchmarks/ledger/run.py --workload <name> --seed <n>
        [--seconds <s>] [--trace 0|1] [--scale full|smoke]
    python3 benchmarks/ledger/run.py --all [--seed <n>] [--seconds <s>]

One run sets the system up, measures one workload for ``--seconds``, checks
its outputs and prints, as the last line of stdout, one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  A failed
output check prints no result and exits 1.  ``--all`` runs every workload
untraced and traced, each in its own process, and writes
``results/BENCH_13.json``.  See README.md beside this file.
"""

from __future__ import annotations

import os
import sys
import time

STARTED = time.perf_counter()
# One BLAS thread: the host process and the loader each own one CPU, and a
# second BLAS thread would wander between them.  Set before numpy loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"run.py: no program to measure under {ROOT}/src")
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

import numpy  # noqa: E402


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    """What a number needs beside it to be compared later."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"          # a bare checkout is not a repository
    cpus = len(os.sched_getaffinity(0))
    # The TCP workloads pin host and loader apart whenever there are two.
    return {"commit": commit, "cpus": cpus, "pinned": cpus >= 2,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": args.seed,
            "seconds": args.seconds, "scale": args.scale}


def write_json(name: str, payload: Dict[str, Any]) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, name), "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_one(args: argparse.Namespace) -> int:
    """Measure one workload in this process and print its result line."""
    import sut
    import workloads

    try:
        outcome = workloads.WORKLOADS[args.workload](
            sut.SCALES[args.scale], args.seed, args.seconds,
            bool(args.trace), STARTED)
    except workloads.CheckFailed as error:
        print(f"run.py: {args.workload}: check failed: {error}",
              file=sys.stderr)
        return 1
    units = workloads.LAYER_UNITS if args.trace else workloads.E2E_UNITS
    values = outcome.per_layer if args.trace else outcome.end_to_end
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    record = {"workload": args.workload, "trace": bool(args.trace),
              "provenance": provenance(args),
              "attempted": outcome.attempted, "failed": outcome.failed,
              "end_to_end": outcome.end_to_end,
              "per_layer": outcome.per_layer if args.trace else {},
              "detail": outcome.detail}
    suffix = "_trace" if args.trace else ""
    write_json(f"run_{args.workload}{suffix}.json", record)
    if args.trace:
        write_json(f"trace_{args.workload}.json", outcome.trace)
    print(json.dumps({"correct": True, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, one process each."""
    import workloads

    ledger: Dict[str, Any] = {"provenance": provenance(args),
                              "workloads": {}}
    for name in workloads.WORKLOADS:
        row: Dict[str, Any] = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace), "--scale",
                 args.scale], stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                return done.returncode
            line = done.stdout.strip().splitlines()[-1]
            print(f"{name} trace={trace} {line}")
            result = json.loads(line)
            row["per_layer" if trace else "end_to_end"] = {
                key: metric["value"]
                for key, metric in result["metrics"].items()}
            row.setdefault("attempted", result["attempted"])
            row.setdefault("failed", result["failed"])
        ledger["workloads"][name] = row
    write_json("BENCH_13.json", ledger)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(
        "serve-hot", "serve-cold", "train", "ingest-serve"))
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

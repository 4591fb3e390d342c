"""Measure a baseline: two sets of runs of every workload, written to perfbench/baseline.json.

Usage, from the repository root:

    python3 perfbench/baseline.py

Each of two sets runs every workload on seeds 101 to 110.  Prints, per set, workload
and end-to-end metric, the median and the spread (distance between the first
and third quartile over the median), and, from the second set on, how far
the set's median lies from the first set's, as a share of it.  The spread
of every metric but ``setup_s`` must stay within its bound in BENCHMARK.json,
and so must every metric's drift between sets, for the benchmark to resolve
a change of that size.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np
import scipy

from compare import HERE, run_side

FIRST_SEED = 101
SEEDS = 10
SETS = 2


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    out = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(FIRST_SEED, FIRST_SEED + SEEDS)),
        "sets": [],
    }
    for index in range(SETS):
        out["sets"].append(measure_set(bench, out["seeds"], out["sets"][:1], index))
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


def measure_set(bench: dict, seeds: list[int], first: list[dict], index: int) -> dict:
    """One set: every workload on every seed; drift is against the first set, if any."""
    out = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_side(HERE.parent, workload, seed, bench["run_seconds"]) for seed in seeds]
        rows = {}
        for spec in bench["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            row = {"unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                   "spread": (q3 - q1) / med, "bound": spec["bound"], "values": values}
            line = (f"set {index} {workload:10s} {spec['name']:22s} median {med:14.6g} "
                    f"{spec['unit']:4s} spread {row['spread']:.4f}")
            if first:
                base = first[0][workload]["metrics"][spec["name"]]["median"]
                sign = 1.0 if spec["better"] == "lower" else -1.0
                row["drift"] = sign * (med - base) / base
                line += f" drift {row['drift']:+.4f}"
            rows[spec["name"]] = row
            print(f"{line} (bound {spec['bound']})", flush=True)
        failed = sum(r["failed"] for r in runs)
        print(f"set {index} {workload:10s} failed invocations: {failed} of "
              f"{sum(r['attempted'] for r in runs)}", flush=True)
        out[workload] = {"metrics": rows, "failed": failed, "sha256": runs[0]["sha256"]}
    return out


if __name__ == "__main__":
    sys.exit(main())

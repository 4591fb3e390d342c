"""Compare two checkouts (parent and change) on the seqquant benchmark.

Usage:

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--pairs 10] [--first-seed 1]

Both checkouts must hold the same ``BENCHMARK.json`` and ``perfbench/``
(scratch files aside); otherwise nothing is run.  For every workload of
BENCHMARK.json, each pair runs ``perfbench/run.py`` once in each checkout
with the same seed and the run length of BENCHMARK.json, alternating which
side runs first; use a ``--first-seed`` not used while writing the change.
Prints one row per (workload, end-to-end metric) with a verdict:

- failed: the change has more failed invocations than the parent on this
  workload, or a run of the change reported ``correct: false``; a gain does
  not count when more operations fail;

- improved: the change is better in at least 9 of every 10 pairs (ties count
  for neither side) and the medians differ by more than the parent's IQR;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: the parent's own spread (IQR / median) is wider than the
  bound, unless every run of the change is better than every run of the
  parent;
- unchanged: otherwise.

A metric missing from any run is reported as missing, with no verdict.

Differences in any invocation's output sha256 between the two sides are
listed, and every raw result is saved to ``perfbench/.work/compare.json``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900
SCRATCH = {".work", "__pycache__"}


def benchmark_files(checkout: Path) -> dict[str, Path]:
    """BENCHMARK.json and every file under perfbench/ but scratch, by relative path."""
    files = {"BENCHMARK.json": checkout / "BENCHMARK.json"}
    for path in sorted((checkout / "perfbench").rglob("*")):
        rel = path.relative_to(checkout)
        if path.is_file() and not SCRATCH.intersection(rel.parts):
            files[rel.as_posix()] = path
    return files


def benchmark_differences(parent: Path, change: Path) -> list[str]:
    """Benchmark files that are missing on one side or differ between the two."""
    a, b = benchmark_files(parent), benchmark_files(change)
    out = sorted(set(a) ^ set(b))
    out += [rel for rel in sorted(set(a) & set(b))
            if not filecmp.cmp(a[rel], b[rel], shallow=False)]
    return out


def run_side(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    record = json.loads((checkout / "perfbench/.work/result.json").read_text(encoding="utf-8"))
    result["sha256"] = record["sha256"]
    return result


def iqr(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Verdict for one (workload, metric) from paired runs, parent[i] with change[i]."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    gain = sign * (med_c - med_p)
    improved = wins >= 0.9 * len(parent) and gain > iqr(parent)
    if iqr(parent) / abs(med_p) > bound:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        if not all_better:
            return "unresolved"
        return "improved" if improved else "unchanged"
    if improved:
        return "improved"
    if -gain > bound * abs(med_p):
        return "worse"
    return "unchanged"


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("the verdict rule needs at least 10 pairs")
    differ = benchmark_differences(args.parent, args.change)
    if differ:
        print("error: the two checkouts hold different benchmarks; a change that claims a "
              "gain may not edit it: " + ", ".join(differ), file=sys.stderr)
        return 2
    raw: dict = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sides: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                sides[side].append(run_side(checkout.resolve(), workload, seed,
                                            bench["run_seconds"]))
            print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
        raw[workload] = sides
    (HERE / ".work").mkdir(exist_ok=True)
    (HERE / ".work" / "compare.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")

    print(f"{'workload':10s} {'metric':22s} {'unit':5s} {'parent median':>15s} "
          f"{'[q1, q3]':>27s} {'change median':>15s} {'[q1, q3]':>27s} verdict")
    for workload, sides in raw.items():
        failed = [sum(r["failed"] for r in sides[s]) for s in ("parent", "change")]
        change_failed = (failed[1] > failed[0]
                         or not all(r["correct"] for r in sides["change"]))
        for spec in bench["end_to_end"]:
            name = spec["name"]
            runs = sides["parent"] + sides["change"]
            if not all(name in r["metrics"] for r in runs):
                print(f"{workload:10s} {name:22s} {spec['unit']:5s} missing from "
                      f"{sum(name not in r['metrics'] for r in runs)} runs")
                continue
            p = [r["metrics"][name]["value"] for r in sides["parent"]]
            c = [r["metrics"][name]["value"] for r in sides["change"]]
            qp, qc = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
            label = "failed" if change_failed else verdict(p, c, spec["better"], spec["bound"])
            print(f"{workload:10s} {name:22s} {spec['unit']:5s} {statistics.median(p):15.6g} "
                  f"[{qp[0]:12.6g}, {qp[2]:12.6g}] {statistics.median(c):15.6g} "
                  f"[{qc[0]:12.6g}, {qc[2]:12.6g}] {label}")
        print(f"{workload:10s} failed invocations: parent {failed[0]}, change {failed[1]}")
        for rp, rc in zip(sides["parent"], sides["change"]):
            for inv, digest in rp["sha256"].items():
                if rc["sha256"].get(inv) != digest:
                    print(f"{workload:10s} output of {inv} differs between parent and change")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""seqquant benchmark: seeded CLI workloads, checked outputs, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

One pass runs the workload's fixed list of ``seqquant.cli.main`` invocations,
each in a fresh interpreter (``child.py``), one after another.  Passes repeat
until ``--seconds`` is used up; every timing reported is a median over passes,
scaled to a nominal host speed: each child also times a fixed reference
kernel before the invocation, between its input lines and after it, and the
invocation's end-to-end times are multiplied by the nominal over its median
reference time (``host_scale``), so that the shared host's slow and fast
spells do not show as changes of the program.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record, with
the sha256 of every invocation's output, is written to
``perfbench/.work/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD_TIMEOUT_S = 120.0

def child_env() -> dict:
    # Bytecode writing stays on, so the untimed warm-up compiles src/ once and
    # timed imports load bytecode, as an installed package does.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SEQQUANT_SEED", "PYTHONSTARTUP",
                        "PYTHONDONTWRITEBYTECODE")}
    # One process, no extra threads: keep numpy's BLAS pools single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(spec: dict, spec_path: Path, env: dict) -> dict:
    """Run one invocation; returns its result record, with 'error' set on failure."""
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path = Path(spec["result"])
    if result_path.exists():
        result_path.unlink()
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return {"error": f"exit code {proc.returncode}: {' | '.join(tail)}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["imported_at"] - spawned
    return result


def host_scale(reference: list[float]) -> float:
    """Nominal over measured reference-kernel time.

    Multiplying a time by it gives the time at the nominal host speed, so
    invocations that ran while the shared host was fast or slow read alike.
    """
    return child.REFERENCE_S / statistics.median(reference)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    def __init__(self, workload: str, seed: int):
        self.invocations = workloads.invocations(workload, seed)
        self.inputs = workloads.make_inputs(seed, WORK)
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # passes in which each invocation produced its pass-0 output
        self.reproduced: dict[str, int] = {inv.name: 0 for inv in self.invocations}
        self.reference: list[float] = []
        self.sha256: dict[str, str] = {}
        self.setup_samples: list[float] = []
        self.obs = 0.0

    def run_pass(self, index: int, trace: bool) -> dict | None:
        """One pass over the invocation list; None if any invocation failed.

        The outputs of pass 0 are kept for ``check_outputs``; every later
        pass must reproduce them byte for byte.
        """
        records = []
        for k, inv in enumerate(self.invocations):
            self.attempted += 1
            stem = WORK / f"p{index}-{k}"
            spec = {
                "src": str(SRC),
                "argv": list(inv.argv),
                "input": str(WORK / inv.input) if inv.input else None,
                "output": f"{stem}.out",
                "result": f"{stem}.json",
                "spans": f"{stem}.npz",
                "latency": inv.latency,
                "trace": trace,
            }
            rec = run_child(spec, Path(f"{stem}.spec.json"), self.env)
            if "error" in rec:
                self.fail(f"pass {index} {inv.name}: {rec['error']}")
                continue
            output = Path(spec["output"])
            digest = hashlib.sha256(output.read_bytes()).hexdigest()
            if index == 0:
                self.sha256[inv.name] = digest
            else:
                output.unlink()
                if digest != self.sha256.get(inv.name):
                    self.fail(f"pass {index} {inv.name}: output differs from pass 0")
                    continue
            self.reproduced[inv.name] += 1
            self.reference.extend(rec["reference_s"])
            rec["name"] = inv.name
            scale = host_scale(rec["reference_s"])
            # A simulation reads no lines: its one latency sample is the time
            # from the call of main to its first row.
            samples = rec["latency_s"] if inv.input else [rec["first_row_s"]]
            rec["samples"] = [x * scale for x in samples]
            if trace:
                rec["summary"] = spans.summarize(spec["spans"])
                Path(spec["spans"]).unlink()
            else:
                self.setup_samples.append(rec["setup_s"] * scale)
            rec["scaled_wall_s"] = rec["wall_s"] * scale
            records.append(rec)
        if len(records) != len(self.invocations):
            return None
        out = {"trace": trace,
               "wall_s": {r["name"]: r["scaled_wall_s"] for r in records},
               "raw_wall_s": {r["name"]: r["wall_s"] for r in records},
               "reference_s": {r["name"]: r["reference_s"] for r in records}}
        if trace:
            out["layers"] = spans.layer_metrics([r["summary"] for r in records],
                                                [r["counters"] for r in records])
            return out
        out["latency_s"] = {r["name"]: r["samples"] for r in records}
        out["peak_rss_mb"] = max(r["maxrss_kb"] for r in records) / 1024.0
        return out

    def fail(self, problem: str, count: int = 1) -> None:
        self.failures.append(problem)
        self.failed += count

    def check_outputs(self) -> None:
        """Check the outputs of pass 0 against the oracles.

        Every later pass reproduced pass 0's output byte for byte, so a wrong
        output fails once for each pass that produced it.
        """
        import oracles

        for k, inv in enumerate(self.invocations):
            output = WORK / f"p0-{k}.out"
            if inv.name not in self.sha256 or not output.exists():
                continue
            text = output.read_text(encoding="utf-8")
            lines = self.inputs[inv.input] if inv.input else []
            problems = oracles.CHECKS[inv.check](list(inv.argv), lines, text)
            if problems:
                self.fail(f"{inv.name}: " + "; ".join(problems), self.reproduced[inv.name])
            if inv.check == "bai":
                self.obs += oracles.pulls(text)
            elif inv.input:
                self.obs += len(lines)

    def wall_s(self, passes: list[dict], key: str = "wall_s") -> float:
        """Sum over invocations of each invocation's median wall time over passes."""
        return sum(statistics.median(p[key][inv.name] for p in passes)
                   for inv in self.invocations)


def warm_up(env: dict) -> None:
    """Import the program once untimed, so bytecode is compiled before any timing."""
    spec = {"src": str(SRC), "argv": [], "input": None, "output": "", "result": "",
            "spans": "", "latency": False, "trace": False}
    spec_path = WORK / "warmup.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)], env=env,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=True)


def measure(runner: Runner, seconds: float, trace: bool) -> list[dict]:
    """Run passes until the time is used up: at least one (two when tracing)."""
    passes: list[dict] = []
    start = time.monotonic()
    durations: list[float] = []
    index = 0
    while True:
        traced = trace and index % 2 == 1
        t0 = time.monotonic()
        result = runner.run_pass(index, traced)
        durations.append(time.monotonic() - t0)
        index += 1
        if result is None:
            break
        passes.append(result)
        minimum = 2 if trace else 1
        elapsed = time.monotonic() - start
        if len(passes) >= minimum and elapsed + max(durations[-2:]) > seconds:
            break
    return passes


def latency_samples(runner: Runner, passes: list[dict]) -> list[float]:
    """Per-row latency: the median over passes of the same row's latency.

    Every pass feeds the same lines, so row i of an invocation is the same
    work in each pass; the median over passes removes bursts of machine
    noise.
    """
    out: list[float] = []
    for inv in runner.invocations:
        per_pass = [p["latency_s"][inv.name] for p in passes]
        out.extend(statistics.median(row) for row in zip(*per_pass))
    return out


def end_to_end(runner: Runner, passes: list[dict]) -> dict:
    if not passes or not runner.setup_samples:
        return {}
    wall = runner.wall_s(passes)
    samples = latency_samples(runner, passes)
    return {
        "setup_s": statistics.median(runner.setup_samples),
        "wall_s": wall,
        "throughput_obs_per_s": runner.obs / wall,
        "latency_p50_us": quantile(samples, 50) * 1e6,
        "latency_p99_us": quantile(samples, 99) * 1e6,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(runner: Runner, passes: list[dict]) -> dict:
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]
    if not traced or not plain:
        return {}
    names = traced[0]["layers"].keys()
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    out["trace.overhead_s"] = (runner.wall_s(traced, "raw_wall_s")
                               - runner.wall_s(plain, "raw_wall_s"))
    return out


def report(args, runner: Runner, passes: list[dict]) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        values = per_layer(runner, passes)
        specs = bench["per_layer"]
    else:
        values = end_to_end(runner, passes)
        specs = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs if m["name"] in values}
    failed = runner.failed
    if len(metrics) != len(specs):
        failed = max(failed, 1)
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def print_human(args, runner: Runner, passes: list[dict], result: dict) -> None:
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={len(passes)}")
    for problem in runner.failures:
        print(f"FAILED {problem}")
    for name, digest in runner.sha256.items():
        print(f"sha256 {name} {digest}")
    plain = [p for p in passes if not p["trace"]]
    if plain:
        walls = {inv.name: round(statistics.median(p["raw_wall_s"][inv.name] for p in plain), 6)
                 for inv in runner.invocations}
        print(f"latency samples: {len(latency_samples(runner, plain))} rows, each the "
              f"median over {len(plain)} passes; median invocation wall (s, as "
              f"measured): {walls}")
    if runner.reference:
        print(f"host scale {host_scale(runner.reference):.6f} (reference kernel median "
              f"{statistics.median(runner.reference) * 1e3:.4f} ms over "
              f"{len(runner.reference)} runs, nominal {child.REFERENCE_S * 1e3:g} ms)")
    print(f"failed_frac {runner.failed / max(runner.attempted, 1):.6g} "
          f"({runner.failed} of {runner.attempted} invocations)")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6f} {m['unit']}")
    if args.trace and result["metrics"]:
        selfs = {k[:-len(".self_s")]: m["value"] for k, m in result["metrics"].items()
                 if k.endswith(".self_s")}
        total = sum(selfs.values()) or 1.0
        split = ", ".join(f"{k} {v / total:.1%}" for k, v in
                          sorted(selfs.items(), key=lambda kv: -kv[1]))
        print(f"self-time split: {split}; dominant layer: {max(selfs, key=selfs.get)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; valid: {', '.join(workloads.WORKLOADS)}")
    if not (SRC / "seqquant" / "cli.py").is_file():
        print(f"error: the program under test is missing: {SRC / 'seqquant' / 'cli.py'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()
    runner = Runner(args.workload, args.seed)
    warm_up(runner.env)
    passes = measure(runner, args.seconds, bool(args.trace))
    runner.check_outputs()
    result = report(args, runner, passes)
    print_human(args, runner, passes, result)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, failures=runner.failures, sha256=runner.sha256,
                  passes=passes)
    (WORK / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

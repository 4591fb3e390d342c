"""Run one seqquant CLI invocation in this fresh interpreter and time it.

Usage: python3 child.py SPEC.json

SPEC holds the source directory, the CLI arguments, the input file (fed to
the CLI as its stdin, one line at a time from memory), the output file, the
result file, and whether to trace.  The result file receives the monotonic
time at which ``import seqquant.cli`` finished, the wall time of
``seqquant.cli.main`` (less the probes below), the per-line latencies, the
exit code, the peak resident set size, and the times of a fixed reference
kernel run before ``main``, between input lines while it runs, and after
it: the parent scales the invocation's times by them to a nominal host
speed.
"""

from __future__ import annotations

import bisect
import json
import math
import resource
import sys
import time

REFERENCE_REPS = 5
PROBE_EVERY_S = 0.2
# Nominal time of one reference_kernel run: about the median measured on
# the machine the benchmark was sized on (2-vCPU x86_64 VM, Python 3.11.7;
# the median of a 40 s run was mostly 3.1 to 4.1 ms).
REFERENCE_S = 0.004


def reference_kernel() -> int:
    """A fixed piece of interpreted work, mixed like the program's own.

    Float math with dict and list traffic, inserts into a binary search tree
    of small lists (allocation and pointer chasing, as in an ordered
    multiset), and float formatting (as in the CSV rows).
    """
    acc = 0.0
    table = {}
    root = None
    parts = []
    for i in range(1800):
        x = (i * 2654435761 % 1000003) / 1000003.0
        table[i & 255] = x
        acc += math.log1p(x) * table.get((i * 7) & 255, 0.0)
        node = [x, None, None]
        if root is None:
            root = node
        else:
            cur = root
            while True:
                side = 1 if x < cur[0] else 2
                if cur[side] is None:
                    cur[side] = node
                    break
                cur = cur[side]
        if i % 10 == 0:
            parts.append(f"{x:.6g},{acc!r}")
    return len(",".join(parts))


def reference_times() -> list[float]:
    """Seconds each of a few runs of ``reference_kernel`` took on this host now."""
    out = []
    for _ in range(REFERENCE_REPS):
        t0 = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - t0)
    return out


class LineFeeder:
    """Stands in for stdin: hands the CLI one preloaded line per ``next``.

    With ``probe_every_s`` set, before handing a line it runs the reference
    kernel once whenever that much time has passed since the last run, so
    the host's speed is also sampled while the CLI works.  A probe runs
    before the line is stamped as handed, so it is outside every latency;
    its time is in ``probes`` and is taken off the invocation's wall time.
    """

    def __init__(self, lines: list[str], probe_every_s: float | None):
        self._lines = lines
        self._i = 0
        self._every = probe_every_s
        self._last = time.perf_counter()
        self.handed: list[float] = []
        self.probes: list[float] = []

    def __iter__(self):
        return self

    def __next__(self) -> str:
        if self._i >= len(self._lines):
            raise StopIteration
        line = self._lines[self._i]
        self._i += 1
        now = time.perf_counter()
        if self._every is not None and now - self._last >= self._every:
            reference_kernel()
            self._last = time.perf_counter()
            self.probes.append(self._last - now)
            now = self._last
        self.handed.append(now)
        return line


class RowSink:
    """Stands in for stdout: keeps every write and the time it was made."""

    def __init__(self):
        self.parts: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> int:
        self.times.append(time.perf_counter())
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def row_latencies(handed: list[float], sink: RowSink) -> list[float]:
    """Seconds from handing a line to the first row written before the next line."""
    out = []
    seen = set()
    for t_w, text in zip(sink.times, sink.parts):
        if text.startswith("#"):
            continue
        i = bisect.bisect_right(handed, t_w) - 1
        if i >= 0 and i not in seen:
            seen.add(i)
            out.append(t_w - handed[i])
    return out


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import seqquant.cli as cli

    imported_at = time.monotonic()
    reference = reference_times()
    if not spec["argv"]:
        return 0
    lines: list[str] = []
    if spec["input"]:
        with open(spec["input"], encoding="utf-8") as fh:
            lines = fh.readlines()
    tracer = None
    run = cli.main
    if spec["trace"]:
        import seqquant
        import spans

        tracer = spans.Tracer()
        tracer.install(seqquant)
        run = tracer.wrap(cli.main, "cli.main")
    # Probes would land in the traced spans, so traced runs take none.
    feeder = LineFeeder(lines, None if tracer else PROBE_EVERY_S)
    sink = RowSink()
    real_stdin, real_stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = feeder, sink
    try:
        t0 = time.perf_counter()
        rc = run(list(spec["argv"]))
        t1 = time.perf_counter()
    finally:
        sys.stdin, sys.stdout = real_stdin, real_stdout
    reference += feeder.probes + reference_times()
    with open(spec["output"], "w", encoding="utf-8") as fh:
        fh.write("".join(sink.parts))
    data_writes = [t for t, text in zip(sink.times, sink.parts) if not text.startswith("#")]
    result = {
        "rc": rc,
        "imported_at": imported_at,
        "wall_s": t1 - t0 - sum(feeder.probes),
        # host speed around and during this invocation: times of the
        # reference kernel, run before main, between lines and after main
        "reference_s": reference,
        "lines": len(lines),
        # time from the call of main to the first row (the first write after
        # the header); -1 when the CLI wrote no row
        "first_row_s": data_writes[1] - t0 if len(data_writes) > 1 else -1.0,
        "latency_s": row_latencies(feeder.handed, sink) if spec["latency"] else [],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.save(spec["spans"])
        result["counters"] = tracer.counters
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

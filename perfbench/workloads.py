"""Seeded inputs and the fixed list of CLI invocations of each workload.

Every input is drawn from ``numpy.random.default_rng`` seeded by
``SeedSequence((seed, stream_index))`` and written as one value per line with
``repr(float)``, so the same seed gives byte-identical files.  The program
under test sees only these files (on stdin) and its command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Sizes.  Stream: the beta-binomial lines are N_BB / (3 N_TRACK + N_BB), about
# 4% of the timed rows, so latency_p99_us sits inside the slow beta-binomial
# part and not on the edge between slow and fast lines.  Abtest: the one-sided
# and global rows cost several ms each and are about 10% of the rows, the KS
# rows are cheap and about three quarters, so p50 and p99 each fall well inside
# one part of the distribution.
N_TRACK = 3000
N_BB = 375
N_BAND = 30000
BAND_CHECKPOINTS = "1000,10000,30000"
N_AB2_TWO_SIDED = 400
N_AB2_ONE_SIDED = 160
N_AB3 = 120
N_KS_PAIRS = 1000
SHIFT = 0.25
BAI_RUNS = 32
SIM_RUNS = 16


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its arguments, the input file fed on stdin, and its oracle."""

    name: str
    argv: tuple[str, ...]
    input: str | None
    # True when each input line yields at most one row, right after the line
    # is read, so line-to-row latency is defined for every row.
    latency: bool
    check: str


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def _values(xs) -> list[str]:
    return [repr(float(x)) for x in xs]


def _labeled(labels: list[str], shifts: list[float], n: int, rng) -> list[str]:
    """Round-robin labels; arm k is standard Cauchy plus shifts[k]."""
    x = rng.standard_cauchy(n)
    out = []
    for i in range(n):
        k = i % len(labels)
        out.append(f"{labels[k]},{float(x[i] + shifts[k])!r}")
    return out


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def make_inputs(seed: int, workdir: Path) -> dict[str, list[str]]:
    """Write every input file of every workload; returns the lines by file name."""
    cauchy = _values(_rng(seed, 0).standard_cauchy(N_BAND))
    ties = _values(np.round(_rng(seed, 1).standard_cauchy(N_BAND), 1))
    ab2 = _labeled(["A", "B"], [0.0, SHIFT], N_AB2_TWO_SIDED, _rng(seed, 2))
    ab3 = _labeled(["C", "T1", "T2"], [0.0, 0.0, SHIFT], N_AB3, _rng(seed, 3))
    ks = _labeled(["A", "B"], [0.0, SHIFT], 2 * N_KS_PAIRS, _rng(seed, 4))
    files = {
        "track.txt": cauchy[:N_TRACK],
        "track_bb.txt": cauchy[:N_BB],
        "band.txt": cauchy,
        "band_ties.txt": ties,
        "ab2.txt": ab2,
        "ab2_one_sided.txt": ab2[:N_AB2_ONE_SIDED],
        "ab3.txt": ab3,
        "ks.txt": ks,
    }
    for name, lines in files.items():
        _write(workdir / name, lines)
    return files


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The fixed invocation list that one pass of a workload runs, in order."""
    if workload == "stream":
        return [
            # p = 0.25 on the stitched method, whose radius is asymmetric in
            # the level, so the mirrored-level logic of the bounds is exercised.
            Invocation("track-stitched", ("track", "--p", "0.25", "--method", "stitched"),
                       "track.txt", True, "track"),
            Invocation("track-stitched_simple",
                       ("track", "--p", "0.5", "--method", "stitched_simple", "--intersect"),
                       "track.txt", True, "track"),
            Invocation("track-normal_mixture",
                       ("track", "--p", "0.9", "--method", "normal_mixture"),
                       "track.txt", True, "track"),
            Invocation("track-beta_binomial",
                       ("track", "--p", "0.5", "--method", "beta_binomial"),
                       "track_bb.txt", True, "track"),
            Invocation("band-continuous", ("band", "--checkpoints", BAND_CHECKPOINTS),
                       "band.txt", False, "band"),
            Invocation("band-ties", ("band", "--checkpoints", BAND_CHECKPOINTS),
                       "band_ties.txt", False, "band"),
        ]
    if workload == "abtest":
        return [
            Invocation("abtest-two_sided", ("abtest", "--mode", "two_sided"),
                       "ab2.txt", True, "abtest"),
            Invocation("abtest-one_sided", ("abtest", "--mode", "one_sided"),
                       "ab2_one_sided.txt", True, "abtest"),
            Invocation("abtest-global", ("abtest", "--mode", "global"),
                       "ab3.txt", True, "abtest"),
            Invocation("ks-two_sample", ("ks", "--mode", "two_sample"),
                       "ks.txt", True, "ks"),
            Invocation("ks-dominance", ("ks", "--mode", "dominance"),
                       "ks.txt", True, "ks"),
        ]
    if workload == "simulate":
        return [
            Invocation("bai",
                       ("bai", "--scenario", "uniform_shift", "--pi", "0.5", "--eps", "0.05",
                        "--k-arms", "4", "--runs", str(BAI_RUNS), "--cs-kinds",
                        "stitched_qlucb,beta_binomial_one_sided,dkw_union_baseline",
                        "--seed", str(seed)),
                       None, False, "bai"),
            Invocation("abtest-simulate",
                       ("abtest", "--simulate", "--scenario", "uniform_shift", "--p", "0.5",
                        "--eps", "0.05", "--runs", str(SIM_RUNS), "--seed", str(seed)),
                       None, False, "abtest_simulate"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("stream", "abtest", "simulate")

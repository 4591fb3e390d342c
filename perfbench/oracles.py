"""Output checks: each CLI output is compared with an independent recomputation.

- track: order statistics of the sorted prefix at the ``_level_floor`` /
  ``_level_ceil`` ranks of the shifted levels (every row, or a spread of rows
  for the slow beta-binomial radius), and the running intersection.
- band: the distinct values, ECDF and clamped band of the sorted prefix at
  every checkpoint.
- abtest: the statistic recomputed by a brute-force minimum over every
  pooled observation, every gap between them and both tails, with the public
  ``GEvaluator``, at a spread of rows; p-value and rejection at every row.
- ks: the supremum of the numpy ECDF difference at every row.
- bai and abtest --simulate: the row structure and its internal identities.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from seqquant import boundaries, seqtest
from seqquant.boundaries import StitchConfig
from seqquant.empdist import OrderedMultiset, _level_ceil, _level_floor

SPOT_ROWS = 8
REL_TOL = 1e-9


def parse_csv(text: str) -> tuple[dict, list[list[str]]]:
    """The ``# key=value`` metadata and the data rows (the header is skipped)."""
    meta, lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            meta[key] = val
        else:
            lines.append(line.split(","))
    return meta, lines[1:]


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _spread(n: int, k: int = SPOT_ROWS) -> list[int]:
    return sorted({int(round(i)) for i in np.linspace(0, n - 1, min(k, n))})


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _order_stat(sorted_vals: list[float], k: int) -> float:
    if k < 1:
        return -math.inf
    if k > len(sorted_vals):
        return math.inf
    return sorted_vals[k - 1]


def _track_radius(argv, meta):
    method = _arg(argv, "--method", "stitched")
    alpha = 0.05
    if method == "stitched":
        cfg = StitchConfig(eta=2.04, s_exp=1.4, m_start=1.0, alpha=alpha)
        return lambda t, level: boundaries.stitched_radius(t, level, cfg)
    if method == "stitched_simple":
        return lambda t, level: boundaries.stitched_radius_simple(t, level, alpha)
    if method == "normal_mixture":
        r = 32.0 / 8.0 / boundaries.tuning_denominator(alpha)
        return lambda t, level: boundaries.normal_mixture_radius(t, r, alpha)
    r = float(meta["r"])
    return lambda t, level: boundaries.beta_binomial_radius(t, level, r, alpha)


def check_track(argv, lines, text) -> list[str]:
    meta, rows = parse_csv(text)
    values = [float(x) for x in lines]
    if len(rows) != len(values):
        return [f"{len(rows)} rows for {len(values)} lines"]
    p = float(_arg(argv, "--p"))
    intersect = "--intersect" in argv
    radius = _track_radius(argv, meta)
    checked = set(range(len(values))) if intersect or meta.get("method") != "beta_binomial" \
        else set(_spread(len(values), 4 * SPOT_ROWS))
    problems = []
    prefix: list[float] = []
    run_lo, run_hi = -math.inf, math.inf
    for i, x in enumerate(values):
        bisect.insort(prefix, x)
        t = i + 1
        row = rows[i]
        if int(row[0]) != t or float(row[1]) != x:
            problems.append(f"row {t}: t/x are {row[:2]}")
            continue
        if i not in checked:
            continue
        lo = _order_stat(prefix, _level_floor(t, p - radius(t, 1.0 - p)) + 1)
        hi = _order_stat(prefix, _level_ceil(t, p + radius(t, p)))
        point = _order_stat(prefix, _level_floor(t, p) + 1)
        expect = [lo, hi, point]
        if intersect:
            run_lo, run_hi = max(run_lo, lo), min(run_hi, hi)
            expect = [run_lo, run_hi, point]
        got = [float(c) for c in row[2:5]]
        if got != expect:
            problems.append(f"row {t}: bounds {got} != {expect}")
        if intersect and row[5] != ("true" if run_lo > run_hi else "false"):
            problems.append(f"row {t}: empty flag {row[5]}")
    return problems[:5]


def check_band(argv, lines, text) -> list[str]:
    _, rows = parse_csv(text)
    values = np.array([float(x) for x in lines])
    checkpoints = sorted({int(c) for c in _arg(argv, "--checkpoints").split(",")})
    a_mult, alpha = 0.85, 0.05
    expect = []
    for t in checkpoints:
        if t > len(values):
            continue
        u, c = np.unique(values[:t], return_counts=True)
        f = np.cumsum(c) / t
        w = boundaries.lil_radius(t, a_mult, boundaries.lil_C(a_mult, alpha), 1.0)
        lo, hi = np.maximum(0.0, f - w), np.minimum(1.0, f + w)
        expect.extend(zip([t] * len(u), u.tolist(), f.tolist(), lo.tolist(), hi.tolist()))
    if len(rows) != len(expect):
        return [f"{len(rows)} rows, expected {len(expect)}"]
    for row, exp in zip(rows, expect):
        got = (int(row[0]),) + tuple(float(c) for c in row[1:])
        if got != exp:
            return [f"row {got} != {exp}"]
    return []


def _arms(lines, n):
    """Per-label values of the first n lines, labels in order of appearance."""
    arms: dict[str, list[float]] = {}
    for line in lines[:n]:
        label, value = line.strip().split(",")
        arms.setdefault(label, []).append(float(value))
    return list(arms.values())


def _candidates(arms) -> list[float]:
    u = np.unique(np.concatenate([np.asarray(a) for a in arms]))
    gaps = (u[:-1] + u[1:]) / 2.0
    return [float(u[0] - 1.0)] + u.tolist() + gaps.tolist() + [float(u[-1] + 1.0)]


def _brute_two_sided(ev1, ev2, xs) -> float:
    return min(ev1.two_sided(x) + ev2.two_sided(x) for x in xs)


def _brute_one_sided(ev1, ev2, xs) -> float:
    return min(ev1.one_sided_plus(x) + ev2.one_sided_minus(x) for x in xs)


def check_abtest(argv, lines, text) -> list[str]:
    meta, rows = parse_csv(text)
    mode = meta["mode"]
    p, r, alpha = float(meta["p"]), float(meta["r"]), float(meta["alpha"])
    problems = []
    for row in rows:
        stat, pval, reject = float(row[1]), float(row[2]), row[3] == "true"
        if mode == "global":
            n_treat = len(_arms(lines, int(row[0]))) - 1
            want_p = 1.0 if stat <= 0.0 else min(1.0, n_treat * math.exp(-stat))
            want_reject = want_p <= alpha
        else:
            want_p = 1.0 if stat <= 0.0 else min(1.0, math.exp(-stat))
            want_reject = stat >= math.log(1.0 / alpha)
        if not _close(pval, want_p) or reject != want_reject:
            problems.append(f"row t={row[0]}: pvalue/reject {row[2:]} for stat {stat}")
    if problems:
        return problems[:5]
    for i in _spread(len(rows)):
        t = int(rows[i][0])
        arms = [OrderedMultiset(a) for a in _arms(lines, t)]
        evs = [seqtest.GEvaluator(a, p, r) for a in arms]
        xs = _candidates(_arms(lines, t))
        if mode == "two_sided":
            want = _brute_two_sided(evs[0], evs[1], xs)
        elif mode == "one_sided":
            want = _brute_one_sided(evs[0], evs[1], xs)
        else:
            want = max(_brute_one_sided(evs[0], ev, xs) for ev in evs[1:])
        got = float(rows[i][1])
        if not _close(got, want):
            problems.append(f"row t={t}: stat {got!r} != brute force {want!r}")
    return problems


def check_ks(argv, lines, text) -> list[str]:
    meta, rows = parse_csv(text)
    mode, a_mult, alpha = meta["mode"], 0.85, 0.05
    first, second = _arms(lines, len(lines))
    if len(rows) != len(first):
        return [f"{len(rows)} rows for {len(first)} pairs"]
    c = boundaries.lil_C(a_mult, alpha / 2.0 if mode == "two_sample" else alpha)
    problems = []
    for i, row in enumerate(rows):
        t = i + 1
        a, b = np.sort(first[:t]), np.sort(second[:t])
        pooled = np.union1d(a, b)
        diff = (np.searchsorted(a, pooled, side="right") / t
                - np.searchsorted(b, pooled, side="right") / t)
        if mode == "two_sample":
            stat = float(np.max(np.abs(diff)))
        else:
            stat = max(0.0, float(np.max(diff)))
        thr = 2.0 * boundaries.lil_radius(t, a_mult, c, 1.0)
        got = (int(row[0]), float(row[1]), float(row[2]), row[3])
        want = (t, stat, thr, "true" if stat > thr else "false")
        if got != want:
            problems.append(f"row {t}: {got} != {want}")
            if len(problems) >= 5:
                break
    return problems


def check_bai(argv, lines, text) -> list[str]:
    meta, rows = parse_csv(text)
    kinds = _arg(argv, "--cs-kinds").split(",")
    runs, k_arms = int(_arg(argv, "--runs")), int(_arg(argv, "--k-arms"))
    if [row[2] for row in rows] != kinds:
        return [f"cs kinds {[row[2] for row in rows]} != {kinds}"]
    problems = []
    for row in rows:
        mean_t, median_t, rate, capped = float(row[4]), float(row[5]), float(row[6]), int(row[7])
        pulls = mean_t * runs
        if int(row[3]) != runs or mean_t < k_arms or median_t < k_arms or capped != 0:
            problems.append(f"row {row}: runs, sample sizes or cap out of range")
        if abs(pulls - round(pulls)) > 1e-6 * pulls or not 0.0 <= rate <= 1.0:
            problems.append(f"row {row}: mean_T x runs not whole or rate out of [0, 1]")
    if meta.get("seed") != _arg(argv, "--seed"):
        problems.append(f"seed {meta.get('seed')} echoed for {_arg(argv, '--seed')}")
    return problems


def check_abtest_simulate(argv, lines, text) -> list[str]:
    _, rows = parse_csv(text)
    if len(rows) != 1:
        return [f"{len(rows)} rows"]
    row = rows[0]
    runs = int(_arg(argv, "--runs"))
    mean_test, mean_naive, ratio = float(row[3]), float(row[4]), float(row[5])
    problems = []
    if int(row[2]) != runs or not (mean_test >= 2 and mean_naive >= 2):
        problems.append(f"row {row}: runs or stopping times out of range")
    if ratio != mean_test / mean_naive:
        problems.append(f"row {row}: ratio is not mean_t_test / mean_t_naive")
    if not (0 <= int(row[6]) <= runs and 0 <= int(row[7]) <= runs):
        problems.append(f"row {row}: capped counts out of range")
    return problems


CHECKS = {
    "track": check_track,
    "band": check_band,
    "abtest": check_abtest,
    "ks": check_ks,
    "bai": check_bai,
    "abtest_simulate": check_abtest_simulate,
}


def pulls(text: str) -> float:
    """QLUCB arm pulls of a bai output: mean_T x runs summed over its rows."""
    _, rows = parse_csv(text)
    return sum(float(row[4]) * int(row[3]) for row in rows)

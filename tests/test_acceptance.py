"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The Monte Carlo criteria state their tolerances inline; every
tolerance is fixed here, nothing is calibrated at run time.
"""

import math
import time
from bisect import bisect_left, bisect_right
from functools import partial

import numpy as np
import pytest

from seqquant import bandit, boundaries, seqtest
from seqquant.bandit import QlucbConfig, bai_benchmark, qlucb_run, scenario_arms
from seqquant.boundaries import (
    DoubleStitchConfig,
    baseline_radius,
    beta_binomial_log_mixture,
    beta_binomial_radius,
    double_stitch_log_constant,
    double_stitch_radius,
    lil_C,
    lil_C_closed_form,
    lil_radius,
    one_sided_log_mixture,
    stitched_radius_simple,
    tune_r,
)
from seqquant.confseq import FixedQuantileCS
from seqquant.empdist import OrderedMultiset, _level_ceil, _level_floor
from seqquant.specfun import expit, logit

from test_cli import GOLDEN, GOLDEN_CASES, run_cli
from test_seqtest import _brute_two_sided, _random_state


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_constant_reproduction():
    start = time.monotonic()
    c = lil_C(0.85, 0.05)
    closed = lil_C_closed_form(0.05)
    elapsed = time.monotonic() - start
    ok = 8.02 <= c <= 8.22 and 8.29 <= closed <= 8.32 and elapsed < 1.0
    _report("C1 constant reproduction",
            ok, f"lil_C={c:.4f} (want [8.02,8.22]), closed={closed:.4f} "
                f"(want [8.29,8.32]), {elapsed:.2f}s")


def test_criterion_02_tuning_reproduction():
    start = time.monotonic()
    r_med = tune_r(32, 0.5, 0.05)
    r_tail = tune_r(32, 0.05, 0.05)
    elapsed = time.monotonic() - start
    ok = abs(r_med - 0.758) <= 1e-3 and abs(r_tail - 0.145) <= 1e-3 and elapsed < 1.0
    _report("C2 tuning reproduction",
            ok, f"r(32,0.5)={r_med:.5f} (want 0.758±0.001), "
                f"r(32,0.05)={r_tail:.5f} (want 0.145±0.001), {elapsed:.2f}s")


def test_criterion_03_baseline_reproduction():
    start = time.monotonic()
    dkw = baseline_radius("dkw_fixed", 100, alpha=0.05) * math.sqrt(100)
    const = double_stitch_log_constant(DoubleStitchConfig.default_preset(0.05))
    elapsed = time.monotonic() - start
    ok = abs(dkw - 1.358) <= 1e-3 and abs(const - 72.0) <= 0.3 and elapsed < 1.0
    _report("C3 baseline reproduction",
            ok, f"sqrt(t)*dkw={dkw:.5f} (want 1.358±0.001), "
                f"double-stitch constant={const:.3f} (want 72±0.3), {elapsed:.2f}s")


def _miscoverage_indices(p, lows, highs):
    """Exact order-statistic thresholds per time for the rank shortcut."""
    t_grid = np.arange(1, len(lows) + 1)
    k_lo = np.array([_level_floor(int(t), p - l) + 1 for t, l in zip(t_grid, lows)])
    k_hi = np.array([_level_ceil(int(t), p + u) for t, u in zip(t_grid, highs)])
    return k_lo, k_hi


def test_criterion_04_coverage():
    # Ever-miscoverage of the true quantile over 2000 uniform streams to 1e4,
    # per method and per p, at most 0.05 + 3 sqrt(0.05*0.95/2000) = 0.0646.
    horizon = 10 ** 4
    n_streams = 2000
    alpha = 0.05
    bound = alpha + 3 * math.sqrt(alpha * (1 - alpha) / n_streams)
    t_grid = np.arange(1, horizon + 1, dtype=float)

    # the rank shortcut must agree with the real tracker, stream by stream
    for method, p in ((partial(stitched_radius_simple, alpha=alpha), 0.5),
                      (partial(beta_binomial_radius, r=tune_r(32, 0.5, alpha), alpha=alpha), 0.5)):
        rng = np.random.default_rng(2024)
        lows = np.array([method(t, 1 - p) for t in range(1, 301)])
        highs = np.array([method(t, p) for t in range(1, 301)])
        k_lo, k_hi = _miscoverage_indices(p, lows, highs)
        for _ in range(8):
            xs = rng.random(300)
            fast = (np.cumsum(xs <= p) < k_lo) | (np.cumsum(xs < p) >= k_hi)
            cs = FixedQuantileCS(p, method)
            slow = np.array([(lambda b: (b[0] > p) or (b[1] < p))(cs.update(float(x)))
                             for x in xs])
            assert np.array_equal(fast, slow), "rank shortcut diverged from tracker"

    details = []
    ok = True
    for p in (0.1, 0.5, 0.9):
        radii = {
            "stitched_simple": (stitched_radius_simple(t_grid, 1 - p, alpha),
                                stitched_radius_simple(t_grid, p, alpha)),
            "beta_binomial": (beta_binomial_radius(t_grid, 1 - p, tune_r(32, p, alpha), alpha),
                              beta_binomial_radius(t_grid, p, tune_r(32, p, alpha), alpha)),
        }
        thresholds = {name: _miscoverage_indices(p, lo, hi) for name, (lo, hi) in radii.items()}
        missed = {name: 0 for name in radii}
        rng = np.random.default_rng(round(1000 * p))
        for _ in range(n_streams // 250):
            block = rng.random((250, horizon))
            s_le = np.cumsum(block <= p, axis=1)
            s_lt = np.cumsum(block < p, axis=1)
            for name, (k_lo, k_hi) in thresholds.items():
                bad = np.any((s_le < k_lo) | (s_lt >= k_hi), axis=1)
                missed[name] += int(np.sum(bad))
        for name, count in missed.items():
            rate = count / n_streams
            details.append(f"{name}@p={p}: {rate:.4f}")
            ok = ok and rate <= bound
    _report("C4 coverage", ok, f"ever-miscoverage <= {bound:.4f}: " + ", ".join(details))


def test_criterion_05_oracle_equivalence():
    start = time.monotonic()
    # A/B candidate-point minimization == dense-breakpoint brute force
    rng = np.random.default_rng(20240104)
    worst = 0.0
    for trial in range(200):
        state = _random_state(rng, trial)
        worst = max(worst, abs(state.two_sided().stat - _brute_two_sided(state)))
    ab_ok = worst <= 1e-9

    # empdist queries == sorted-array oracle on 500 instances
    rng = np.random.default_rng(20240105)
    emp_ok = True
    for trial in range(500):
        n = int(rng.integers(1, 1001))
        if trial % 2:
            values = [float(v) for v in rng.integers(-20, 21, size=n)]
        else:
            values = [float(v) for v in rng.normal(size=n)]
        ms = OrderedMultiset(values)
        xs = sorted(values)

        def expect(k):
            return -math.inf if k < 1 else math.inf if k > n else xs[k - 1]

        for k in rng.integers(-1, n + 2, size=8):
            k = int(k)
            emp_ok = emp_ok and ms.order_stat(k) == expect(k)
        for p in rng.uniform(-0.1, 1.1, size=8):
            p = float(p)
            pn, pd = p.as_integer_ratio()
            k_up = (n * pn) // pd + 1
            k_lo = -((n * -pn) // pd)
            emp_ok = emp_ok and ms.upper_quantile(p) == expect(k_up)
            emp_ok = emp_ok and ms.lower_quantile(p) == expect(k_lo)
        for x in rng.normal(scale=2, size=4):
            x = float(x)
            emp_ok = emp_ok and ms.count_le(x) == bisect_right(xs, x)
            emp_ok = emp_ok and ms.count_lt(x) == bisect_left(xs, x)
    elapsed = time.monotonic() - start
    ok = ab_ok and emp_ok and elapsed < 60.0
    _report("C5 oracle equivalence",
            ok, f"ab worst diff={worst:.2e} (want <=1e-9), empdist oracle "
                f"{'ok' if emp_ok else 'FAILED'}, {elapsed:.1f}s (want <60s)")


def test_criterion_06_root_property():
    start = time.monotonic()
    worst = 0.0
    points = 0
    for t in (10, 10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5):
        for p in (0.1, 0.3, 0.5, 0.8):
            for r in (0.3, 1.0, 3.0):
                for alpha in (0.01, 0.05, 0.2):
                    rad = beta_binomial_radius(t, p, r, alpha)
                    v = p * (1 - p) * t
                    got = beta_binomial_log_mixture(rad * t, v, p, r)
                    target = math.log(1 / alpha)
                    worst = max(worst, abs(got - target) / target)
                    points += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and points >= 100 and elapsed < 60.0
    _report("C6 root property",
            ok, f"{points} grid points, worst relative error {worst:.2e} "
                f"(want <=1e-6), {elapsed:.1f}s")


def test_criterion_07_qlucb_correctness():
    runs = 64
    delta = 0.05
    sigma = math.sqrt(delta * (1 - delta) / runs)
    want = (1 - delta) - 3 * sigma
    arms = scenario_arms("uniform_shift", 10, 0.025, 0.5)
    cfg = QlucbConfig(pi_target=0.5, eps=0.025, delta_err=delta,
                      cs_kind="beta_binomial_one_sided", k_arms=10, max_rounds=10 ** 7)
    correct = 0
    capped = 0
    for i_run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((20240107, i_run)))
        res = qlucb_run(arms, cfg, rng=rng)
        correct += 1 if res.eps_optimal else 0
        capped += 1 if res.stopped_by_cap else 0
    rate = correct / runs
    ok = rate >= want and capped == 0
    _report("C7 qlucb correctness",
            ok, f"eps-optimal rate {rate:.3f} (want >= {want:.3f}), capped={capped} (want 0)")


def test_criterion_08_cs_ablation():
    runs = 16
    arms = scenario_arms("uniform_shift", 10, 0.025, 0.5)
    means = {}
    for kind in ("beta_binomial_one_sided", "dkw_union_baseline"):
        cfg = QlucbConfig(pi_target=0.5, eps=0.025, delta_err=0.05, cs_kind=kind,
                          k_arms=10, max_rounds=10 ** 7)
        totals = []
        for i_run in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence((20240108, i_run)))
            totals.append(qlucb_run(arms, cfg, rng=rng).total_samples)
        means[kind] = float(np.mean(totals))
    ratio = means["beta_binomial_one_sided"] / means["dkw_union_baseline"]
    ok = ratio <= 0.5
    _report("C8 cs ablation",
            ok, f"mean T bb={means['beta_binomial_one_sided']:.0f}, "
                f"dkw={means['dkw_union_baseline']:.0f}, ratio={ratio:.3f} (want <=0.5)")


def test_criterion_09_ab_efficiency():
    row = seqtest.ab_vs_naive_benchmark(scenario="uniform_shift", pi=0.5, alpha=0.05,
                                        runs=32, seed=20240109, max_pairs=200_000)
    ok = row.ratio <= 0.9 and row.capped_test == 0 and row.capped_naive == 0
    _report("C9 ab efficiency",
            ok, f"mean test={row.mean_t_test:.0f}, naive={row.mean_t_naive:.0f}, "
                f"ratio={row.ratio:.3f} (want <=0.9)")


def test_criterion_10_boundary_ordering():
    t_tail = 10 ** 5
    ds = double_stitch_radius(t_tail, 0.95, DoubleStitchConfig.default_preset(0.05, m_start=32.0))
    lil = lil_radius(t_tail, 0.85, lil_C(0.85, 0.05), 32.0)
    szor = baseline_radius("szorenyi", t_tail, alpha=0.05)
    t_med = 10 ** 6
    bb = beta_binomial_radius(t_med, 0.5, tune_r(32, 0.5, 0.05), 0.05)
    stitched = stitched_radius_simple(t_med, 0.5, 0.05)
    ok = ds < lil < szor and bb < stitched
    _report("C10 boundary ordering",
            ok, f"p=.95,t=1e5: double_stitch={ds:.5f} < lil={lil:.5f} < szorenyi={szor:.5f}; "
                f"p=.5,t=1e6: bb={bb:.6f} < stitched={stitched:.6f}")


def test_criterion_11_invariant_suites():
    # Lemma A p-spacing grid
    spacing_ok = True
    for a in np.linspace(1e-3, 3.0, 40):
        for p in np.linspace(0.5, 1 - 1e-9, 40):
            q = expit(logit(p) + a)
            spacing_ok = spacing_ok and q - p <= a / 2 * math.sqrt(p * (1 - p)) + 1e-12

    # one-sided mixture monotonicity in s
    mono_ok = True
    rng = np.random.default_rng(20240111)
    for _ in range(25):
        p = float(rng.uniform(0.1, 0.9))
        r = float(rng.uniform(0.2, 2.0))
        v = float(rng.uniform(1.0, 300.0))
        grid = np.linspace(-v / (1 - p) * 0.99, v / p * 0.99, 300)
        vals = one_sided_log_mixture(grid, v, p, r)
        mono_ok = mono_ok and bool(np.all(np.diff(vals) >= -1e-9))

    # implication-table laws on random multisets
    from test_empdist import TestImplicationTable

    table_ok = True
    for trial in range(100):
        t = int(rng.integers(1, 65))
        if trial % 2:
            values = [float(v) for v in rng.integers(-5, 6, size=t)]
        else:
            values = [float(v) for v in np.round(rng.normal(size=t), 2)]
        try:
            TestImplicationTable._check(OrderedMultiset(values))
        except AssertionError:
            table_ok = False
            break

    # determinism golden files: byte-for-byte reproduction
    golden_ok = True
    for name in ("track.csv", "bai.csv"):
        rc, out, _ = run_cli(GOLDEN_CASES[name])
        golden_ok = golden_ok and rc == 0 and out == (GOLDEN / name).read_text()

    ok = spacing_ok and mono_ok and table_ok and golden_ok
    _report("C11 invariant suites",
            ok, f"p-spacing={'ok' if spacing_ok else 'FAIL'}, "
                f"one-sided monotonicity={'ok' if mono_ok else 'FAIL'}, "
                f"implication table={'ok' if table_ok else 'FAIL'}, "
                f"golden determinism={'ok' if golden_ok else 'FAIL'}")

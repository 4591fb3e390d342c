"""Sequential tests: evidence functions against brute-force oracles, candidate
minimization against dense enumeration, Monte Carlo null validity, and the
KS family."""

import math

import numpy as np
import pytest

from seqquant.boundaries import (
    beta_binomial_log_mixture,
    lil_C,
    lil_radius,
    one_sided_log_mixture,
    tune_r,
)
from seqquant.empdist import OrderedMultiset
from seqquant.errors import PairingError, StateError
from seqquant.seqtest import (
    AbTestState,
    GEvaluator,
    KsTestState,
    _astar,
    _sorted_two_sided_stat,
    ab_vs_naive_benchmark,
    global_null_pvalue,
)
from seqquant.specfun import golden_section_min


def _rand_arm(rng, n, discrete=False):
    if discrete:
        return OrderedMultiset(float(v) for v in rng.integers(-4, 5, size=n))
    return OrderedMultiset(float(v) for v in rng.normal(size=n))


class TestGEvaluator:
    def test_empty_history_is_zero(self):
        ev = GEvaluator(OrderedMultiset(), 0.4, 1.0)
        assert ev.two_sided(3.0) == 0.0
        assert ev.one_sided_plus(3.0) == 0.0
        assert ev.one_sided_minus(3.0) == 0.0

    def test_far_below_data_hits_a_zero_branch(self):
        rng = np.random.default_rng(1)
        arm = _rand_arm(rng, 25)
        p, r = 0.3, 0.8
        ev = GEvaluator(arm, p, r)
        n = len(arm)
        expect = beta_binomial_log_mixture((0.0 - p) * n, p * (1 - p) * n, p, r)
        assert ev.two_sided(-1e9) == pytest.approx(expect, rel=1e-12)

    def test_oracle_equivalence_against_a_grid(self):
        # dense grid over the feasible level interval D(x) = [F^-(x), F(x)]
        rng = np.random.default_rng(2)
        for trial in range(50):
            n = int(rng.integers(1, 41))
            arm = _rand_arm(rng, n, discrete=bool(trial % 2))
            p = float(rng.uniform(0.1, 0.9))
            r = float(rng.uniform(0.2, 2.0))
            ev = GEvaluator(arm, p, r)
            v = p * (1 - p) * n
            values = sorted(set(val for val, _ in arm.items()))
            probes = values + [a + 0.5 for a in values] + [values[0] - 1, values[-1] + 1]
            for x in probes:
                f_minus, f = arm.cdf_at(x)
                grid = np.linspace(f_minus, f, 10_000)
                brute = float(np.min(beta_binomial_log_mixture((grid - p) * n, v, p, r)))
                got = ev.two_sided(x)
                assert got <= brute + 1e-12
                assert got >= brute - 1e-6

    def test_shape_around_argmin_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            arm = _rand_arm(rng, n)
            p = float(rng.uniform(0.2, 0.8))
            ev = GEvaluator(arm, p, 0.758)
            lo_q = arm.lower_quantile(ev.astar)
            hi_q = arm.upper_quantile(ev.astar)
            values = sorted(set(v for v, _ in arm.items()))
            probes = values + [a + 0.25 for a in values]
            below = sorted(x for x in probes if x < lo_q)
            above = sorted(x for x in probes if x > hi_q)
            g_below = [ev.two_sided(x) for x in below]
            g_above = [ev.two_sided(x) for x in above]
            assert all(a >= b - 1e-12 for a, b in zip(g_below, g_below[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(g_above, g_above[1:]))

    def test_one_sided_monotonicity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            arm = _rand_arm(rng, n)
            p = float(rng.uniform(0.15, 0.85))
            ev = GEvaluator(arm, p, 1.0)
            values = sorted(set(v for v, _ in arm.items()))
            probes = ([values[0] - 1] + values
                      + [0.5 * (a + b) for a, b in zip(values, values[1:])]
                      + [values[-1] + 1])
            probes.sort()
            plus = [ev.one_sided_plus(x) for x in probes]
            minus = [ev.one_sided_minus(x) for x in probes]
            assert all(a <= b + 1e-12 for a, b in zip(plus, plus[1:]))
            assert all(a >= b - 1e-12 for a, b in zip(minus, minus[1:]))

    def test_one_sided_spot_value_at_median(self):
        rng = np.random.default_rng(5)
        xs = np.sort(rng.normal(size=20))
        arm = OrderedMultiset(float(v) for v in xs)
        x = arm.upper_quantile(0.5)
        n, p, r = 20, 0.5, 0.758
        f_minus = float(np.searchsorted(xs, x, side="left")) / n
        expect = one_sided_log_mixture((f_minus - p) * n, p * (1 - p) * n, p, r)
        ev = GEvaluator(arm, p, r)
        assert ev.one_sided_plus(x) == pytest.approx(expect, rel=1e-12)


def _breakpoint_pairs(state):
    d = state.delta_star
    vals1 = sorted(set(v for v, _ in state.arm1.items()))
    vals2 = sorted(set(v for v, _ in state.arm2.items()))
    pairs = [(v, v + d) for v in vals1] + [(w - d, w) for w in vals2]
    pairs.sort()
    return pairs


def _brute_two_sided(state):
    """Dense enumeration: all breakpoints plus flat-region midpoints."""
    ev1 = GEvaluator(state.arm1, state.p, state.r)
    ev2 = GEvaluator(state.arm2, state.p, state.r)
    d = state.delta_star
    pairs = _breakpoint_pairs(state)
    xs = [pairs[0][0] - 1.0]
    xs += [0.5 * (a[0] + b[0]) for a, b in zip(pairs, pairs[1:])]
    xs.append(pairs[-1][0] + 1.0)
    cands = [ev1.two_sided(x) + ev2.two_sided(x + d) for x in xs]
    cands += [ev1.two_sided(x1) + ev2.two_sided(x2) for x1, x2 in pairs]
    return min(cands)


def _brute_one_sided(state):
    ev1 = GEvaluator(state.arm1, state.p, state.r)
    ev2 = GEvaluator(state.arm2, state.p, state.r)
    d = state.delta_star
    pairs = _breakpoint_pairs(state)
    xs = [pairs[0][0] - 1.0]
    xs += [0.5 * (a[0] + b[0]) for a, b in zip(pairs, pairs[1:])]
    xs.append(pairs[-1][0] + 1.0)
    cands = [ev1.one_sided_plus(x) + ev2.one_sided_minus(x + d) for x in xs]
    cands += [ev1.one_sided_plus(x1) + ev2.one_sided_minus(x2) for x1, x2 in pairs]
    return min(cands)


def _random_state(rng, trial):
    p = float(rng.uniform(0.1, 0.9))
    r = float(rng.uniform(0.2, 2.0))
    d = float(rng.uniform(-1.0, 1.0))
    state = AbTestState(p, r, d, 0.05)
    n1 = int(rng.integers(1, 51))
    n2 = int(rng.integers(1, 51))
    discrete = trial % 4 >= 2
    for _ in range(n1):
        x = float(rng.normal())
        state.add(1, round(x, 1) if discrete else x)
    for _ in range(n2):
        x = float(rng.normal(0.3))
        state.add(2, round(x, 1) if discrete else x)
    return state


def _scan_two_sided(state):
    """The two-sided candidate scan with per-x evaluators, in scalar arithmetic."""
    evs = [GEvaluator(state.arm1, state.p, state.r), GEvaluator(state.arm2, state.p, state.r)]
    shift = state.delta_star
    if evs[0].arm.upper_quantile(evs[0].astar) > evs[1].arm.upper_quantile(evs[1].astar) - shift:
        evs.reverse()
        shift = -shift
    ev_a, ev_b = evs
    x_minus = ev_a.arm.upper_quantile(ev_a.astar)
    b_hi = ev_b.arm.lower_quantile(ev_b.astar)
    best = ev_a.two_sided(x_minus) + ev_b.two_sided(x_minus + shift)
    if b_hi - shift < x_minus:
        return best
    cands = [ev_a.two_sided(b_hi - shift) + ev_b.two_sided(b_hi)]
    cands += [ev_a.two_sided(w - shift) + ev_b.two_sided(w)
              for w, _ in ev_b.arm.items_between(x_minus + shift, b_hi)]
    return min([best] + cands)


def _scan_one_sided(state):
    ev1 = GEvaluator(state.arm1, state.p, state.r)
    ev2 = GEvaluator(state.arm2, state.p, state.r)
    d = state.delta_star
    cands = [ev1.one_sided_plus(-math.inf) + ev2.one_sided_minus(-math.inf)]
    cands += [ev1.one_sided_plus(w - d) + ev2.one_sided_minus(w) for w, _ in state.arm2.items()]
    return min(cands)


class TestKernelBits:
    def test_kernels_equal_per_x_scans_bit_for_bit(self):
        # the sorted-array kernels evaluate the same candidates with the same
        # float operations as a scan with the public per-x evaluators
        rng = np.random.default_rng(20240104)
        for trial in range(120):
            state = _random_state(rng, trial)
            assert state.two_sided().stat == _scan_two_sided(state)
            assert state.one_sided().stat == _scan_one_sided(state)


class TestAbTwoSided:
    def test_candidate_points_match_brute_force(self):
        rng = np.random.default_rng(20240102)
        for trial in range(200):
            state = _random_state(rng, trial)
            assert state.two_sided().stat == pytest.approx(
                _brute_two_sided(state), abs=1e-9
            )

    def test_pvalue_clamped_at_one(self):
        state = AbTestState(0.5, 0.758)
        state.add(1, 1.0)
        state.add(2, 2.0)
        res = state.two_sided()
        assert res.pvalue <= 1.0
        assert res.pvalue == pytest.approx(min(1.0, math.exp(-res.stat)))

    def test_requires_both_arms(self):
        state = AbTestState(0.5, 0.758)
        state.add(1, 1.0)
        with pytest.raises(StateError):
            state.two_sided()

    def test_sorted_evaluator_equivalence(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            p = float(rng.uniform(0.15, 0.85))
            r = float(rng.uniform(0.3, 2.0))
            d = float(rng.uniform(-0.5, 0.5))
            n1 = int(rng.integers(2, 60))
            n2 = int(rng.integers(2, 60))
            x1 = rng.normal(size=n1)
            x2 = rng.normal(0.2, size=n2)
            state = AbTestState(p, r, d, 0.05)
            for v in x1:
                state.add(1, float(v))
            for v in x2:
                state.add(2, float(v))
            assert _sorted_two_sided_stat(np.sort(x1), np.sort(x2), p, r, d) == pytest.approx(
                state.two_sided().stat, abs=1e-12
            )


class TestAstar:
    def test_table_equals_scalar_search_bit_for_bit(self):
        # past the first table chunk too (n > 1023), and at n = 0
        ns = list(range(0, 30)) + [1023, 1024, 1025, 2100]
        for p, r in ((0.5, 0.758), (0.1, 0.3), (0.9, 2.0)):
            vector = _astar(np.array(ns, dtype=float), p, r)
            for n, from_vector in zip(ns, vector):
                v = p * (1 - p) * n
                want = golden_section_min(
                    lambda a: beta_binomial_log_mixture((a - p) * n, v, p, r), 0.0, 1.0,
                    tol=1e-10,
                )
                assert GEvaluator(OrderedMultiset([0.0] * n), p, r).astar == want
                assert from_vector == want

    @pytest.mark.parametrize("astars", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
    def test_levels_at_the_unit_interval_edges(self, astars):
        # a* = 1 asks for the (n + 1)-th order statistic and a* = 0 for the
        # 0-th; both read as infinities instead of indexing out of range
        rng = np.random.default_rng(91)
        x1 = np.sort(rng.normal(size=7))
        x2 = np.sort(rng.normal(size=5))
        for d in (-0.5, 0.0, 0.5):
            stat = _sorted_two_sided_stat(x1, x2, 0.5, 0.758, d, astars)
            assert isinstance(stat, float) and math.isfinite(stat)


class TestAbOneSided:
    def test_candidate_points_match_brute_force(self):
        rng = np.random.default_rng(20240103)
        for trial in range(200):
            state = _random_state(rng, trial)
            assert state.one_sided().stat == pytest.approx(
                _brute_one_sided(state), abs=1e-9
            )

    def test_directional_power_grows(self):
        rng = np.random.default_rng(11)
        state = AbTestState(0.5, 0.758, 0.0, 0.05)
        stat_at = {}
        for i in range(250):
            state.add(1, float(rng.random()))
            state.add(2, float(rng.random()) + 0.3)
            n = 2 * (i + 1)
            if n in (50, 500):
                stat_at[n] = state.one_sided().stat
        assert stat_at[500] > stat_at[50]

    def test_requires_both_arms(self):
        state = AbTestState(0.5, 0.758)
        state.add(2, 1.0)
        with pytest.raises(StateError):
            state.one_sided()


class TestGlobalNull:
    def test_k2_reduces_to_one_sided(self):
        rng = np.random.default_rng(21)
        state = AbTestState(0.5, 0.758, 0.0, 0.05)
        control = OrderedMultiset()
        treatment = OrderedMultiset()
        for _ in range(40):
            a = float(rng.random())
            b = float(rng.random())
            state.add(1, a)
            state.add(2, b)
            control.insert(a)
            treatment.insert(b)
        assert global_null_pvalue(control, [treatment], 0.5, 0.758) == pytest.approx(
            state.one_sided().pvalue, rel=1e-12
        )

    def test_identical_treatments_share_the_max(self):
        rng = np.random.default_rng(22)
        control = OrderedMultiset(float(v) for v in rng.random(30))
        arm = OrderedMultiset(float(v) for v in rng.random(30))
        single = -math.log(
            max(global_null_pvalue(control, [arm], 0.5, 0.758), 1e-300)
        )
        triple = global_null_pvalue(control, [arm.copy(), arm.copy(), arm.copy()], 0.5, 0.758)
        if triple < 1.0:
            assert -math.log(triple / 3.0) == pytest.approx(single, rel=1e-9)

    def test_clamped_at_tiny_t(self):
        control = OrderedMultiset([1.0])
        arms = [OrderedMultiset([2.0]), OrderedMultiset([0.5])]
        assert global_null_pvalue(control, arms, 0.5, 0.758) == 1.0

    def test_requires_a_treatment(self):
        with pytest.raises(ValueError):
            global_null_pvalue(OrderedMultiset([1.0]), [], 0.5, 0.758)


class TestNullValidityMonteCarlo:
    def test_two_sided_ever_rejection_rate(self):
        # both arms uniform(0,1), delta*=0: the product supermartingale exceeds
        # 1/alpha somewhere before t=5000 in at most alpha + 3 sigma of runs
        alpha = 0.05
        p, r = 0.5, 0.758
        reps = 1000
        max_pairs = 2500
        checks = sorted(set(list(range(1, 51)) + [int(round(50 * 1.08 ** k))
                                                  for k in range(1, 100)
                                                  if 50 * 1.08 ** k <= max_pairs]))
        log_thresh = math.log(1 / alpha)
        crossed_2000 = 0
        crossed_5000 = 0
        rng = np.random.default_rng(987)
        for _ in range(reps):
            x1 = rng.random(max_pairs)
            x2 = rng.random(max_pairs)
            first_cross = None
            for n in checks:
                s1 = np.sort(x1[:n])
                s2 = np.sort(x2[:n])
                if _sorted_two_sided_stat(s1, s2, p, r, 0.0) >= log_thresh:
                    first_cross = 2 * n
                    break
            if first_cross is not None:
                crossed_5000 += 1
                if first_cross <= 2000:
                    crossed_2000 += 1
        sigma = math.sqrt(alpha * (1 - alpha) / reps)
        assert crossed_2000 / reps <= alpha + 3 * sigma
        assert crossed_5000 / reps <= alpha + 3 * sigma

    # The checks below evaluate the streaming test after every pair (every
    # round of three for the global null), so a crossing at any step counts.

    @staticmethod
    def _assert_ever_rate_valid(crossed, reps, alpha=0.05):
        sigma = math.sqrt(alpha * (1 - alpha) / reps)
        assert crossed / reps <= alpha + 3 * sigma

    def test_one_sided_ever_rejection_rate_every_pair(self):
        # both arms uniform(0,1): H0 Q_2 - Q_1 <= 0 holds on its boundary
        reps, horizon = 200, 120
        rng = np.random.default_rng(1201)
        crossed = 0
        for _ in range(reps):
            state = AbTestState(0.5, 0.758, 0.0, 0.05)
            for x1, x2 in rng.random((horizon, 2)).tolist():
                state.add(1, x1)
                state.add(2, x2)
                if state.one_sided().reject:
                    crossed += 1
                    break
        self._assert_ever_rate_valid(crossed, reps)

    def test_global_null_ever_rejection_rate_every_round(self):
        # control and two treatments uniform(0,1): every treatment's quantile
        # equals the control's, the boundary of H0
        from seqquant.seqtest import global_null_result

        reps, horizon = 120, 100
        rng = np.random.default_rng(1202)
        crossed = 0
        for _ in range(reps):
            arms = [OrderedMultiset() for _ in range(3)]
            for row in rng.random((horizon, 3)).tolist():
                for arm, x in zip(arms, row):
                    arm.insert(x)
                if global_null_result(arms[0], arms[1:], 0.5, 0.758, alpha=0.05).reject:
                    crossed += 1
                    break
        self._assert_ever_rate_valid(crossed, reps)

    @pytest.mark.parametrize("mode", ["two_sample", "dominance"])
    def test_ks_ever_rejection_rate_every_pair(self, mode):
        # equal distributions: both the two-sample and the dominance null hold
        reps, horizon = 200, 300
        rng = np.random.default_rng(1203)
        crossed = 0
        for _ in range(reps):
            state = KsTestState(mode, alpha=0.05)
            for x1, x2 in rng.random((horizon, 2)).tolist():
                state.add(x1, 1)
                state.add(x2, 2)
                if state.evaluate().reject:
                    crossed += 1
                    break
        self._assert_ever_rate_valid(crossed, reps)

    def test_running_min_pvalue_is_monotone_and_valid(self):
        rng = np.random.default_rng(31)
        state = AbTestState(0.5, 0.758, 0.0, 0.05)
        running = 1.0
        seq = []
        for _ in range(100):
            state.add(1, float(rng.random()))
            state.add(2, float(rng.random()))
            pv = state.two_sided().pvalue
            assert 0.0 < pv <= 1.0
            running = min(running, pv)
            seq.append(running)
        assert all(a >= b for a, b in zip(seq, seq[1:]))
        assert 0.0 < seq[-1] <= 1.0


class TestKs:
    def test_one_sample_exact_statistic(self):
        state = KsTestState("one_sample", f0=lambda x: min(1.0, max(0.0, x / 4.0)))
        for v in (1.0, 2.0, 3.0, 4.0):
            state.add(v)
        res = state.evaluate()
        assert res.stat == pytest.approx(0.25)

    def test_two_sample_identical_never_rejects(self):
        rng = np.random.default_rng(41)
        state = KsTestState("two_sample", alpha=0.05)
        for v in rng.normal(size=300):
            state.add(float(v), sample=1)
            state.add(float(v), sample=2)
        res = state.evaluate()
        assert res.stat == 0.0
        assert not res.reject

    def test_two_sample_stat_matches_direct_computation(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=80)
        y = rng.normal(0.4, size=80)
        state = KsTestState("two_sample")
        for a, b in zip(x, y):
            state.add(float(a), 1)
            state.add(float(b), 2)
        xs = np.sort(x)
        ys = np.sort(y)
        pooled = np.unique(np.concatenate([xs, ys]))
        f1 = np.searchsorted(xs, pooled, side="right") / 80
        f2 = np.searchsorted(ys, pooled, side="right") / 80
        assert state.evaluate().stat == pytest.approx(float(np.max(np.abs(f1 - f2))), rel=1e-12)

    def test_threshold_uses_lil_constant(self):
        state = KsTestState("two_sample", a_mult=0.85, alpha=0.05, m_start=1.0)
        c = lil_C(0.85, 0.025)
        for t in (10, 100, 1000):
            assert state.threshold(t) == pytest.approx(
                2 * lil_radius(t, 0.85, c, 1.0), rel=1e-12
            )

    def test_threshold_decreasing_in_t(self):
        state = KsTestState("one_sample", f0=lambda x: x, m_start=4.0)
        ts = [4, 8, 16, 64, 256, 2048]
        vals = [state.threshold(t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_pairing_error(self):
        state = KsTestState("two_sample")
        state.add(1.0, 1)
        state.add(2.0, 1)
        state.add(1.0, 2)
        with pytest.raises(PairingError):
            state.evaluate()

    def test_dominance_separated_samples_reject_eventually(self):
        # sample 1 concentrated well below sample 2: F1 - F2 ~ 1 in between
        state = KsTestState("dominance", alpha=0.05, m_start=1.0)
        rng = np.random.default_rng(43)
        rejected = False
        for i in range(4000):
            state.add(float(rng.random()), 1)
            state.add(float(rng.random()) + 5.0, 2)
            if (i + 1) % 200 == 0 and state.evaluate().reject:
                rejected = True
                break
        assert rejected

    def test_dominance_identical_never_rejects(self):
        state = KsTestState("dominance")
        rng = np.random.default_rng(44)
        for v in rng.normal(size=500):
            state.add(float(v), 1)
            state.add(float(v), 2)
        res = state.evaluate()
        assert res.stat == 0.0
        assert not res.reject


class TestAbVsNaive:
    def test_small_benchmark_runs_and_reports(self):
        row = ab_vs_naive_benchmark(scenario="uniform_shift", pi=0.5, alpha=0.05,
                                    runs=2, seed=5, max_pairs=50_000)
        assert row.runs == 2
        assert row.capped_test == 0 and row.capped_naive == 0
        assert row.mean_t_test > 0 and row.mean_t_naive > 0
        assert row.ratio == pytest.approx(row.mean_t_test / row.mean_t_naive)

    def test_deterministic_given_seed(self):
        a = ab_vs_naive_benchmark(runs=2, seed=9, max_pairs=50_000)
        b = ab_vs_naive_benchmark(runs=2, seed=9, max_pairs=50_000)
        assert a == b


class TestGlobalNullResult:
    def test_result_matches_pvalue_and_exposes_stat(self):
        from seqquant.seqtest import global_null_result

        rng = np.random.default_rng(55)
        control = OrderedMultiset(float(v) for v in rng.random(60))
        arms = [OrderedMultiset(float(v) + 0.4 for v in rng.random(60)) for _ in range(2)]
        res = global_null_result(control, arms, 0.5, 0.758, alpha=0.05)
        assert res.pvalue == global_null_pvalue(control, arms, 0.5, 0.758)
        if res.pvalue < 1.0:
            assert res.pvalue == pytest.approx(2 * math.exp(-res.stat))
        assert res.reject == (res.pvalue <= 0.05)

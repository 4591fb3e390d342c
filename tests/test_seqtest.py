"""Sequential tests: evidence functions against brute-force oracles, candidate
minimization against dense enumeration, Monte Carlo null validity, and the
KS family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqquant import bandit, boundaries, cli
from seqquant.boundaries import (
    beta_binomial_log_mixture,
    lil_C,
    lil_radius,
    one_sided_log_mixture,
    tune_r,
)
from seqquant.empdist import (OrderedMultiset, _level_ceil, _level_floor, insert_sorted,
                              lower_ranks, upper_ranks)
from seqquant.errors import ConfigurationError, DomainError, PairingError, StateError
from seqquant.seqtest import (
    _SIM_BLOCK,
    AbBenchmarkRow,
    AbTestState,
    GEvaluator,
    KsTestState,
    _astar,
    _astar_table,
    _check_schedule,
    _naive_disjoint,
    _one_sided_stats,
    _two_sided_candidates,
    _two_sided_stats,
    ab_vs_naive_benchmark,
    global_null_pvalue,
    global_null_result,
)
from seqquant.specfun import golden_section_min


def _two_sided_stat(x1, x2, p, r, d, astars=None):
    """The two-sided kernel on one pair of sorted arms, a* read from the table when omitted."""
    if astars is None:
        table = _astar_table(p, r)
        astars = (table.at(len(x1) + 1), table.at(len(x2) + 1))
    return _two_sided_stats([_two_sided_candidates(x1, x2, *astars, d)], p, r)[0]


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


def _evaluators(state):
    """The per-x GEvaluator oracle of each arm, on an OrderedMultiset of its values."""
    return [GEvaluator(OrderedMultiset(arm.tolist()), state.p, state.r)
            for arm in state.arms]


def _breakpoint_pairs(state):
    d = state.delta_star
    vals1, vals2 = (sorted(set(arm.tolist())) for arm in state.arms)
    pairs = [(v, v + d) for v in vals1] + [(w - d, w) for w in vals2]
    pairs.sort()
    return pairs


def _brute_two_sided(state):
    """Dense enumeration: all breakpoints plus flat-region midpoints."""
    ev1, ev2 = _evaluators(state)
    d = state.delta_star
    pairs = _breakpoint_pairs(state)
    xs = [pairs[0][0] - 1.0]
    xs += [0.5 * (a[0] + b[0]) for a, b in zip(pairs, pairs[1:])]
    xs.append(pairs[-1][0] + 1.0)
    cands = [ev1.two_sided(x) + ev2.two_sided(x + d) for x in xs]
    cands += [ev1.two_sided(x1) + ev2.two_sided(x2) for x1, x2 in pairs]
    return min(cands)


def _brute_one_sided(state):
    ev1, ev2 = _evaluators(state)
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
    evs = _evaluators(state)
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
    ev1, ev2 = _evaluators(state)
    d = state.delta_star
    cands = [ev1.one_sided_plus(-math.inf) + ev2.one_sided_minus(-math.inf)]
    cands += [ev1.one_sided_plus(w - d) + ev2.one_sided_minus(w) for w, _ in ev2.arm.items()]
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

    @staticmethod
    def _scan_case(x1, x2, a1, a2, d):
        """(whether arm 1 is scanned from, whether x_plus < x_minus) for one pair."""
        def q(x, k):
            return -math.inf if k < 1 else math.inf if k > len(x) else float(x[k - 1])

        q1 = q(x1, _level_floor(len(x1), a1) + 1)
        q2 = q(x2, _level_floor(len(x2), a2) + 1)
        from_1 = q1 <= q2 - d
        x_minus, b, b_star, shift = (q1, x2, a2, d) if from_1 else (q2, x1, a1, -d)
        return from_1, q(b, _level_ceil(len(b), b_star)) - shift < x_minus

    @staticmethod
    def _pairs(rng):
        """Sorted arm pairs of mixed sizes with a* from the table, at 0.5 and at the edges."""
        sizes = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 8), (8, 3), (20, 41), (41, 20), (16, 16)]
        arms = []
        for n1, n2 in sizes:
            arms.append((np.sort(rng.standard_cauchy(n1)), np.sort(rng.standard_cauchy(n2))))
            # ties from rounded Cauchy data
            arms.append((np.sort(np.round(rng.standard_cauchy(n1), 0)),
                         np.sort(np.round(rng.standard_cauchy(n2), 0))))
        arms.append((np.array([-0.0, -0.0, 0.0, 1.0]), np.array([0.0, -0.0])))
        arms.append((np.array([-1.0, 0.0, -0.0, 0.0]), np.array([-0.0, 0.0, 0.0, 2.0])))
        for x1, x2 in arms:
            for astars in (None, (0.5, 0.5), (0.0, 1.0), (1.0, 0.0)):
                for d in (0.0, 0.75, -0.75):
                    yield x1, x2, astars, d

    def test_batch_entries_equal_one_entry_calls_bit_for_bit(self):
        rng = np.random.default_rng(20241015)
        for p, r in ((0.5, 0.758), (0.2, 0.4), (0.85, 1.7)):
            table = _astar_table(p, r)
            cases, entries = set(), []
            for x1, x2, astars, d in self._pairs(rng):
                a1, a2 = astars or (table.at(len(x1) + 1), table.at(len(x2) + 1))
                cases.add(self._scan_case(x1, x2, a1, a2, d))
                entries.append(_two_sided_candidates(x1, x2, a1, a2, d))
            assert cases == {(True, True), (True, False), (False, True), (False, False)}
            batch = _two_sided_stats(entries, p, r)
            assert len(batch) == len(entries)
            for entry, stat in zip(entries, batch):
                assert stat == _two_sided_stats([entry], p, r)[0]

    def test_batch_entries_equal_per_x_scans_bit_for_bit(self):
        rng = np.random.default_rng(20241016)
        states = [_random_state(rng, trial) for trial in range(24)]
        p, r = 0.4, 0.9
        table = _astar_table(p, r)
        for state in states:
            state.p, state.r = p, r
        batch = _two_sided_stats([_two_sided_candidates(
            *s.arms, *(table.at(len(arm) + 1) for arm in s.arms), s.delta_star)
            for s in states], p, r)
        assert batch == [_scan_two_sided(s) for s in states]


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
            assert _two_sided_stat(np.sort(x1), np.sort(x2), p, r, d) == pytest.approx(
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
            stat = _two_sided_stat(x1, x2, 0.5, 0.758, d, astars)
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
        control = np.empty(0)
        treatment = np.empty(0)
        for _ in range(40):
            a = float(rng.random())
            b = float(rng.random())
            state.add(1, a)
            state.add(2, b)
            control = insert_sorted(control, a)
            treatment = insert_sorted(treatment, b)
        assert global_null_pvalue(control, [treatment], 0.5, 0.758) == pytest.approx(
            state.one_sided().pvalue, rel=1e-12
        )

    def test_identical_treatments_share_the_max(self):
        rng = np.random.default_rng(22)
        control = np.sort(rng.random(30))
        arm = np.sort(rng.random(30))
        single = -math.log(
            max(global_null_pvalue(control, [arm], 0.5, 0.758), 1e-300)
        )
        triple = global_null_pvalue(control, [arm] * 3, 0.5, 0.758)
        if triple < 1.0:
            assert -math.log(triple / 3.0) == pytest.approx(single, rel=1e-9)

    def test_clamped_at_tiny_t(self):
        control = np.array([1.0])
        arms = [np.array([2.0]), np.array([0.5])]
        assert global_null_pvalue(control, arms, 0.5, 0.758) == 1.0

    def test_requires_a_treatment(self):
        with pytest.raises(ValueError):
            global_null_pvalue(np.array([1.0]), [], 0.5, 0.758)

    def test_fused_statistic_equals_per_treatment_kernels_bit_for_bit(self):
        # one mixture call per level for every treatment gives each treatment's
        # one-pair statistic, and the max of those is the per-x scan's
        rng = np.random.default_rng(20261019)
        for trial in range(40):
            p = float(rng.uniform(0.1, 0.9))
            r = float(rng.uniform(0.2, 2.0))
            draw = ((lambda n: np.round(rng.standard_cauchy(n), 0)) if trial % 2
                    else rng.standard_cauchy)
            control, *treatments = [np.sort(draw(int(rng.integers(1, 30))))
                                    for _ in range(int(rng.integers(2, 6)))]
            stat = global_null_result(control, treatments, p, r).stat
            singles = [_one_sided_stats(control, [b], p, r, 0.0)[0] for b in treatments]
            assert _one_sided_stats(control, treatments, p, r, 0.0) == singles
            assert stat == max(singles)
            if trial < 8:
                scans = []
                for b in treatments:
                    state = AbTestState(p, r, 0.0, 0.05)
                    state.arms = [control, b]
                    scans.append(_scan_one_sided(state))
                assert stat == max(scans)
        # signed zeros shared between arms
        control = np.array([-0.0, 0.0, 1.0])
        treatments = [np.array([0.0, -0.0]), np.array([-1.0, -0.0, 0.0, 2.0])]
        assert (global_null_result(control, treatments, 0.5, 0.758).stat
                == max(_one_sided_stats(control, [b], 0.5, 0.758, 0.0)[0] for b in treatments))


class TestAbArms:
    """`AbTestState.arms` holds K >= 2 arms; `add(len(arms) + 1, x)` opens the next."""

    @staticmethod
    def _state(k):
        state = AbTestState(0.5, 0.758)
        for arm in range(1, k + 1):
            state.add(arm, float(arm))
        return state

    def test_global_null_equals_the_function_on_a_stream_that_opens_arms_late(self):
        # values rounded to 0.1 (ties, -0.0 and 0.0); arm 3 opens at step 30 and
        # arm 4 at step 70, after the statistic is defined
        rng = np.random.default_rng(2202)
        p, r = 0.5, 0.758
        state = AbTestState(p, r)
        lists = [[], []]
        for step in range(1, 161):
            arm = {1: 1, 2: 2, 30: 3, 70: 4}.get(step, int(rng.integers(1, len(lists) + 1)))
            x = round(float(rng.standard_normal()) + (arm == 4), 1)
            state.add(arm, x)
            if arm > len(lists):
                lists.append([])
            lists[arm - 1].append(x)
            # a stable sort keeps equal values, -0.0 and 0.0 too, in insertion order
            oracle = [np.array(sorted(values)) for values in lists]
            assert list(map(repr, state.arms)) == list(map(repr, oracle))
            if step == 1:
                with pytest.raises(StateError):
                    state.global_null()
            else:
                assert state.global_null() == global_null_result(oracle[0], oracle[1:], p, r)
        assert len(state.arms) == 4
        assert any(x == 0.0 and math.copysign(1.0, x) < 0 for x in np.concatenate(state.arms))

    @pytest.mark.parametrize("k", [2, 3])
    def test_an_arm_outside_one_to_k_plus_one_is_a_state_error(self, k):
        state = self._state(k)
        before = list(map(repr, state.arms))
        for arm in (0, -1, k + 2):
            with pytest.raises(StateError):
                state.add(arm, 1.0)
            assert list(map(repr, state.arms)) == before

    @pytest.mark.parametrize("test", ["two_sided", "one_sided"])
    def test_three_arms_refuse_the_two_arm_tests(self, test):
        with pytest.raises(StateError):
            getattr(self._state(3), test)()

    def test_global_null_tests_a_zero_shift(self):
        state = AbTestState(0.5, 0.758, delta_star=0.5)
        state.add(1, 1.0)
        state.add(2, 2.0)
        with pytest.raises(ConfigurationError):
            state.global_null()


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
        table = _astar_table(p, r)
        blocks = [[(n, table.at(n + 1)) for n in checks[i:i + _SIM_BLOCK]]
                  for i in range(0, len(checks), _SIM_BLOCK)]
        crossed_2000 = 0
        crossed_5000 = 0
        rng = np.random.default_rng(987)
        for _ in range(reps):
            x1 = rng.random(max_pairs)
            x2 = rng.random(max_pairs)
            first_cross = None
            # a block of checkpoints per kernel call; the first crossing is the
            # one a check after every checkpoint finds
            for block in blocks:
                stats = _two_sided_stats([_two_sided_candidates(
                    np.sort(x1[:n]), np.sort(x2[:n]), a_star, a_star, 0.0)
                    for n, a_star in block], p, r)
                crossed = [n for (n, _), stat in zip(block, stats) if stat >= log_thresh]
                if crossed:
                    first_cross = 2 * crossed[0]
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

    def test_two_sided_ever_rejection_rate_every_pair(self):
        # both arms uniform(0,1), delta*=0: every pair is checked, a block of
        # pairs per kernel call as in the grid test above
        p, r = 0.5, 0.758
        reps, horizon = 200, 120
        table = _astar_table(p, r)
        log_thresh = math.log(1 / 0.05)
        rng = np.random.default_rng(1204)
        crossed = 0
        for _ in range(reps):
            x1, x2 = rng.random((2, horizon))
            for start in range(1, horizon + 1, _SIM_BLOCK):
                block = range(start, min(start + _SIM_BLOCK, horizon + 1))
                stats = _two_sided_stats([_two_sided_candidates(
                    np.sort(x1[:n]), np.sort(x2[:n]), table.at(n + 1), table.at(n + 1), 0.0)
                    for n in block], p, r)
                if max(stats) >= log_thresh:
                    crossed += 1
                    break
        self._assert_ever_rate_valid(crossed, reps)

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
            arms = [np.empty(0)] * 3
            for row in rng.random((horizon, 3)).tolist():
                arms = [insert_sorted(arm, x) for arm, x in zip(arms, row)]
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


def _ks_paired_reference(x1, x2, mode):
    """The paired KS statistic from `searchsorted` counts of both samples at every value."""
    t = len(x1)
    gaps = [np.searchsorted(x1, x, side="right") / t - np.searchsorted(x2, x, side="right") / t
            for x in (x1, x2)]
    if mode == "two_sample":
        gaps = [np.abs(gap) for gap in gaps]
    return max(0.0, *(float(np.max(gap)) for gap in gaps))


# ties, both zeros, rounded Cauchy values and ints
_KS_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    st.floats(0.02, 0.98).map(lambda u: round(math.tan(math.pi * (u - 0.5)), 0)),
    st.integers(-3, 3),
)


class TestKs:
    @settings(max_examples=300, deadline=None)
    @given(mode=st.sampled_from(["two_sample", "dominance"]),
           adds=st.lists(st.tuples(st.sampled_from([1, 2]), _KS_VALUES), max_size=60))
    def test_paired_stat_equals_the_searchsorted_reference(self, mode, adds):
        # any interleaving of the two samples, evaluated whenever the counts are equal
        state = KsTestState(mode)
        ref = {1: np.empty(0), 2: np.empty(0)}
        for sample, x in adds:
            state.add(x, sample)
            ref[sample] = insert_sorted(ref[sample], x)
            assert (state.n1, state.n2) == (len(ref[1]), len(ref[2]))
            for got, want in ((state.sample1, ref[1]), (state.sample2, ref[2])):
                assert got.dtype == np.float64
                assert list(map(repr, got.tolist())) == list(map(repr, want.tolist()))
            if state.n1 == state.n2 > 0:
                assert state.evaluate().stat == _ks_paired_reference(ref[1], ref[2], mode)

    def test_paired_stat_on_long_tied_streams(self):
        rng = np.random.default_rng(47)
        for mode in ("two_sample", "dominance"):
            state = KsTestState(mode)
            x = np.round(rng.standard_cauchy((400, 2)), 0)
            x[rng.random(x.shape) < 0.2] *= -1.0  # -0.0 beside 0.0
            for t, (a, b) in enumerate(x.tolist(), start=1):
                state.add(a, 1)
                state.add(b, 2)
                if t % 10 == 0:
                    got = state.evaluate()
                    assert got.t == t
                    assert got.stat == _ks_paired_reference(state.sample1, state.sample2, mode)

    @pytest.mark.parametrize("mode", KsTestState.MODES)
    def test_samples_are_read_only_copies(self, mode):
        state = KsTestState(mode, f0=(lambda x: 0.5) if mode == "one_sample" else None)
        state.add(1.0, 1)
        if mode != "one_sample":
            state.add(2.0, 2)
        with pytest.raises(AttributeError):
            state.sample1 = np.empty(0)
        state.sample1[0] = 99.0
        state.sample2[:] = 99.0
        assert state.sample1.tolist() == [1.0]
        assert state.sample2.tolist() == ([] if mode == "one_sample" else [2.0])

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5, "raise"])
    def test_one_sample_rejects_a_bad_reference_value_before_storing(self, bad):
        def f0(x):
            if x == 9.0:
                if bad == "raise":
                    raise ZeroDivisionError("reference failed")
                return bad
            return min(1.0, max(0.0, x / 4.0))

        state = KsTestState("one_sample", f0=f0)
        for v in (1.0, 3.0):
            state.add(v)
        before = state.evaluate()
        with pytest.raises(ZeroDivisionError if bad == "raise" else DomainError):
            state.add(9.0)
        assert state.n1 == 2 and state.sample1.tolist() == [1.0, 3.0]
        assert state.evaluate() == before
        state.add(2.0)
        assert state.evaluate().t == 3

    def test_one_sample_accepts_reference_values_zero_and_one(self):
        state = KsTestState("one_sample", f0=lambda x: 0.0 if x < 0 else 1.0)
        for v in (-1.0, 1.0):
            state.add(v)
        assert state.evaluate().stat == 0.5

    def test_one_sample_exact_statistic(self):
        state = KsTestState("one_sample", f0=lambda x: min(1.0, max(0.0, x / 4.0)))
        for v in (1.0, 2.0, 3.0, 4.0):
            state.add(v)
        res = state.evaluate()
        assert res.stat == pytest.approx(0.25)

    def test_one_sample_calls_f0_once_per_line(self):
        calls = []

        def f0(x):
            calls.append(x)
            return 0.5 + math.atan(x) / math.pi

        state = KsTestState("one_sample", f0=f0)
        for t, x in enumerate([0.5, -1.0, 0.5, 0.0, -0.0, 2.0], start=1):
            state.add(x)
            state.evaluate()
            assert len(calls) == t

    def test_one_sample_stat_equals_the_distinct_value_formula_on_ties(self):
        # the reference calls F0 once per distinct value and reads F and F^-
        # at that value; stored per observation, F0 is equal across a run of ties
        def f0(x):
            return 0.5 + math.atan(x) / math.pi

        rng = np.random.default_rng(46)
        state = KsTestState("one_sample", f0=f0)
        for x in np.round(rng.standard_cauchy(300), 1).tolist():  # ties, 0.0 and -0.0
            state.add(x)
            data, t = state.sample1, len(state.sample1)
            v = data[np.concatenate(([True], data[1:] != data[:-1]))]
            ref = np.array([f0(w) for w in v.tolist()])
            gap = np.maximum(np.searchsorted(data, v, side="right") / t - ref,
                             ref - np.searchsorted(data, v, side="left") / t)
            assert state.evaluate().stat == max(0.0, float(np.max(gap)))

    @pytest.mark.parametrize("f0", [
        cli._reference_cdf("uniform:0,1"),
        lambda x: sum(x >= jump for jump in (-0.5, 0.5, 1.5)) / 3,  # a step CDF
    ], ids=["uniform", "step"])
    def test_one_sample_stat_where_f0_is_flat_across_distinct_values(self, f0):
        # F0 equals 0 or 1 on the values outside [0, 1] and is flat between the
        # steps, and continuous at every value, so sup |F_t - F0| is reached at
        # a value or at its left limit; compared with every count taken by brute force
        rng = np.random.default_rng(48)
        state = KsTestState("one_sample", f0=f0)
        values = rng.choice([-3.0, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0, 7.0], size=150)
        for t, x in enumerate(values.tolist(), start=1):
            state.add(x)
            data = values[:t]
            gaps = [abs(count / t - f0(v)) for v in data.tolist()
                    for count in ((data <= v).sum(), (data < v).sum())]
            assert state.evaluate().stat == max(gaps)

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

    @pytest.mark.parametrize("a_mult, alpha, m_start", [
        (0.85, 0.05, 1.0), (0.85, 0.05, 1e308), (0.85, 1e-200, 1.0), (1e200, 0.05, 1.0),
        (3.0, 0.3, 50.0),
    ])
    def test_threshold_uses_lil_constant(self, a_mult, alpha, m_start):
        # thresholds are read from a table filled by vectorized radius calls;
        # each equals the scalar radius bit for bit, past the first table chunk too
        for mode, width, level in (("one_sample", 1, alpha), ("two_sample", 2, alpha / 2)):
            state = KsTestState(mode, f0=(lambda x: x) if mode == "one_sample" else None,
                                a_mult=a_mult, alpha=alpha, m_start=m_start)
            c = lil_C(a_mult, level)
            for t in [*range(1, 2100), 10 ** 5]:
                assert state.threshold(t) == width * lil_radius(t, a_mult, c, m_start), t

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


def _ab_vs_naive_reference(scenario, pi, alpha, runs, seed, eps, max_pairs, tune_m=32.0):
    """ab_vs_naive_benchmark with the two-sided statistic checked after every checkpoint."""
    arms = bandit.scenario_arms(scenario, 2, eps, pi)
    r_test = boundaries.tune_r(tune_m, pi, alpha)
    r_naive = boundaries.tune_r(tune_m, pi, alpha / 2.0)
    schedule = _check_schedule(max_pairs)
    grid = np.asarray(schedule, dtype=float)
    naive_lo_ranks = upper_ranks(
        grid, pi - boundaries.beta_binomial_radius(grid, 1.0 - pi, r_naive, alpha / 2.0)).tolist()
    naive_hi_ranks = lower_ranks(
        grid, pi + boundaries.beta_binomial_radius(grid, pi, r_naive, alpha / 2.0)).tolist()
    astars = _astar(grid, pi, r_test).tolist()

    log_thresh = math.log(1.0 / alpha)
    stops_test = []
    stops_naive = []
    capped_test = capped_naive = 0
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        x1_all = arms[0].sample(rng, max_pairs)
        x2_all = arms[1].sample(rng, max_pairs)
        stop_test = stop_naive = None
        for n, a_star, k_lo, k_hi in zip(schedule, astars, naive_lo_ranks, naive_hi_ranks):
            x1 = np.sort(x1_all[:n])
            x2 = np.sort(x2_all[:n])
            if stop_test is None:
                stat = _two_sided_stat(x1, x2, pi, r_test, 0.0, (a_star, a_star))
                if stat >= log_thresh:
                    stop_test = 2 * n
            if stop_naive is None and _naive_disjoint(x1, x2, k_lo, k_hi):
                stop_naive = 2 * n
            if stop_test is not None and stop_naive is not None:
                break
        if stop_test is None:
            stop_test = 2 * max_pairs
            capped_test += 1
        if stop_naive is None:
            stop_naive = 2 * max_pairs
            capped_naive += 1
        stops_test.append(stop_test)
        stops_naive.append(stop_naive)
    mean_test = float(np.mean(stops_test))
    mean_naive = float(np.mean(stops_naive))
    return AbBenchmarkRow(scenario=scenario, pi=pi, runs=runs, mean_t_test=mean_test,
                          mean_t_naive=mean_naive, ratio=mean_test / mean_naive,
                          capped_test=capped_test, capped_naive=capped_naive)


class TestAbVsNaiveBlocks:
    """The block-batched simulation stops where a check after every checkpoint does."""

    @pytest.mark.parametrize("scenario", bandit.SCENARIOS)
    @pytest.mark.parametrize("pi", [0.1, 0.5, 0.9])
    def test_rows_equal_per_checkpoint_reference(self, scenario, pi):
        kwargs = dict(scenario=scenario, pi=pi, alpha=0.05, runs=3, seed=17, eps=0.05,
                      max_pairs=3000)
        assert ab_vs_naive_benchmark(**kwargs) == _ab_vs_naive_reference(**kwargs)

    @pytest.mark.parametrize("max_pairs, eps", [(32, 0.02), (40, 0.2), (63, 0.2), (300, 0.1)])
    def test_capped_runs_and_short_schedules(self, max_pairs, eps):
        kwargs = dict(scenario="uniform_shift", pi=0.5, alpha=0.05, runs=6, seed=3, eps=eps,
                      max_pairs=max_pairs)
        row = ab_vs_naive_benchmark(**kwargs)
        assert row == _ab_vs_naive_reference(**kwargs)
        assert row.capped_test > 0 and row.capped_naive > 0

    @pytest.mark.parametrize("scenario, pi", [("uniform_shift", 0.5), ("cauchy_shift", 0.5),
                                              ("normal_scale", 0.75)])
    def test_rows_at_the_default_cap_equal_up_front_draws(self, scenario, pi):
        # the runs stop at 269-2122 pairs, and arm 2's values start 200,000 draws
        # into the run's stream; the reference draws both arms up front
        kwargs = dict(scenario=scenario, pi=pi, alpha=0.05, runs=3, seed=17, eps=0.05,
                      max_pairs=200_000)
        row = ab_vs_naive_benchmark(**kwargs)
        assert row == _ab_vs_naive_reference(**kwargs)
        assert row.capped_test == row.capped_naive == 0

    def test_draws_only_the_values_the_blocks_read(self, monkeypatch):
        # work-count gate: both arms up front were 2 * 4 * 200,000 = 1,600,000
        # values; drawn block by block they are 75,020 (each run to the end of
        # the block where its later rule stops); the bound leaves about 10%
        drawn = []
        sample = bandit.ArmSpec.sample
        monkeypatch.setattr(bandit.ArmSpec, "sample",
                            lambda arm, rng, size: (drawn.append(size), sample(arm, rng, size))[1])
        row = ab_vs_naive_benchmark(runs=4, seed=7)
        assert row.capped_test == row.capped_naive == 0
        assert 0 < sum(drawn) <= 82_000

    def test_schedules_cover_partial_and_whole_blocks(self):
        assert len(_check_schedule(32)) % _SIM_BLOCK == 0
        for max_pairs in (40, 63, 300, 3000):
            assert len(_check_schedule(max_pairs)) % _SIM_BLOCK != 0


class TestGlobalNullResult:
    def test_result_matches_pvalue_and_exposes_stat(self):
        from seqquant.seqtest import global_null_result

        rng = np.random.default_rng(55)
        control = np.sort(rng.random(60))
        arms = [np.sort(rng.random(60)) + 0.4 for _ in range(2)]
        res = global_null_result(control, arms, 0.5, 0.758, alpha=0.05)
        assert res.pvalue == global_null_pvalue(control, arms, 0.5, 0.758)
        if res.pvalue < 1.0:
            assert res.pvalue == pytest.approx(2 * math.exp(-res.stat))
        assert res.reject == (res.pvalue <= 0.05)


class TestParameterChecks:
    """p and r are checked by `boundaries`, as the mixture functions check them."""

    @pytest.mark.parametrize("build", [
        lambda p, r: AbTestState(p, r),
        lambda p, r: GEvaluator(OrderedMultiset([1.0]), p, r),
        lambda p, r: global_null_pvalue(np.array([1.0]), [np.array([2.0])], p, r),
    ])
    def test_level_outside_the_unit_interval_is_a_domain_error(self, build):
        with pytest.raises(DomainError):
            build(1.5, 1.0)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.inf])
    def test_bad_r_is_a_configuration_error(self, r):
        with pytest.raises(ConfigurationError):
            AbTestState(0.5, r)
        with pytest.raises(ConfigurationError):
            GEvaluator(OrderedMultiset(), 0.5, r)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, math.nan])
    def test_bad_alpha_is_a_configuration_error(self, alpha):
        with pytest.raises(ConfigurationError):
            AbTestState(0.5, 1.0, alpha=alpha)
        with pytest.raises(ConfigurationError):
            KsTestState("two_sample", alpha=alpha)

    @pytest.mark.parametrize("mode", ["two_sample", "dominance"])
    def test_paired_mode_with_a_reference_cdf_is_a_configuration_error(self, mode):
        # the paired modes compare two samples, so an f0 would go unread
        with pytest.raises(ConfigurationError, match="reads no f0"):
            KsTestState(mode, f0=lambda x: 0.5)

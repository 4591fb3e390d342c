"""QLUCB and its diagnostics: confidence-bound wiring, stopping behavior,
gap computations on analytic scenarios, and benchmark determinism."""

import math

import numpy as np
import pytest

from seqquant import bandit, empdist
from seqquant.bandit import (
    QlucbConfig,
    RunResult,
    bai_benchmark,
    cauchy_arm,
    custom_arm,
    eps_optimal_set,
    gap_deltas,
    normal_arm,
    qlucb_confidence_bounds,
    qlucb_run,
    scenario_arms,
    tau_bound,
    uniform_arm,
)
from seqquant.empdist import OrderedMultiset, RankTracker, _level_ceil, _level_floor
from seqquant.errors import ConfigurationError, DomainError


class TestArms:
    def test_quantile_transforms(self):
        u = uniform_arm(2.0, 5.0)
        assert u.quantile(0.5) == pytest.approx(3.5)
        c = cauchy_arm(0.0, 1.0)
        assert c.quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert c.quantile(0.75) == pytest.approx(1.0, rel=1e-12)
        n = normal_arm(1.0, 2.0)
        assert float(n.quantile(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_sampling_matches_quantiles(self):
        rng = np.random.default_rng(1)
        arm = uniform_arm(0.0, 1.0)
        xs = arm.sample(rng, 10_000)
        assert 0.0 < xs.min() and xs.max() < 1.0
        assert np.mean(xs) == pytest.approx(0.5, abs=0.02)

    def test_cauchy_scenario_location(self):
        # location 2 (Q(pi+eps) - Q(pi)) at pi = 0.5: 2 tan(0.025 pi)
        arms = scenario_arms("cauchy_shift", 10, 0.025, 0.5)
        expect = 2.0 * math.tan(math.pi * 0.025)
        assert arms[-1].params[0] == pytest.approx(expect, rel=1e-12)

    def test_uniform_scenario_parameters(self):
        arms = scenario_arms("uniform_shift", 10, 0.025, 0.5)
        assert len(arms) == 10
        assert arms[0].params == (0.0, 1.0)
        assert arms[-1].params == (0.05, 1.05)

    @pytest.mark.parametrize("scenario", bandit.SCENARIOS)
    @pytest.mark.parametrize("pi, eps", [(0.5, math.nan), (0.5, math.inf), (0.5, 0.6),
                                         (0.5, 0.5), (0.5, -0.1), (0.9, 0.1), (0.1, 0.2)])
    def test_scenario_eps_is_checked_as_qlucb_checks_it(self, scenario, pi, eps):
        with pytest.raises(ConfigurationError, match="eps must lie in"):
            QlucbConfig(pi_target=pi, eps=eps)
        with pytest.raises(ConfigurationError, match="eps must lie in"):
            scenario_arms(scenario, 2, eps, pi)


class TestConfig:
    def test_eps_cap(self):
        with pytest.raises(ConfigurationError):
            QlucbConfig(pi_target=0.9, eps=0.2)
        QlucbConfig(pi_target=0.9, eps=0.05)

    def test_kind_validation(self):
        with pytest.raises(ConfigurationError):
            QlucbConfig(pi_target=0.5, eps=0.1, cs_kind="bogus")


class TestConfidenceBounds:
    def test_single_observation_is_usually_unbounded(self):
        cfg = QlucbConfig(pi_target=0.5, eps=0.025, delta_err=0.05,
                          cs_kind="stitched_qlucb", k_arms=10)
        data = OrderedMultiset([0.7])
        lo, hi = qlucb_confidence_bounds(data, cfg)
        assert lo == -math.inf and hi == math.inf

    def test_stitched_log_term_value(self):
        # (1.4 log log 2100 + log 1000) / 1000
        ell = (1.4 * math.log(math.log(2.1 * 1000)) + math.log(5 * 10 / 0.05)) / 1000
        assert ell == pytest.approx(0.009756, abs=1e-6)

    def test_bounds_may_cross(self):
        # L >= U is the stopping signal, not an error
        cfg = QlucbConfig(pi_target=0.5, eps=0.1, delta_err=0.3,
                          cs_kind="stitched_qlucb", k_arms=2)
        data = OrderedMultiset([1.0] * 2000)
        lo, hi = qlucb_confidence_bounds(data, cfg)
        assert lo == 1.0 and hi == 1.0


class TestRankTables:
    """Each CS kind's pair of rank tables equals the scalar rank rule at the
    shifted levels (pi+eps) - l_n and (pi-eps) + u_n, at every n in 1..3000."""

    @pytest.mark.parametrize("cs_kind", bandit.CS_KINDS)
    def test_tables_equal_scalar_rank_rule(self, cs_kind):
        pi, eps, delta, k_arms = 0.3, 0.025, 0.05, 10
        lower, upper = bandit._rank_schedules(cs_kind, pi, eps, delta, k_arms)
        lower_radius, upper_radius = bandit._radii(cs_kind, pi, eps, delta, k_arms)
        counts = range(1, 3001)
        n = np.arange(1.0, 3001.0)
        k_lo = [_level_floor(m, (pi + eps) - r) + 1 for m, r in zip(counts, lower_radius(n))]
        k_hi = [_level_ceil(m, (pi - eps) + r) for m, r in zip(counts, upper_radius(n))]
        assert [lower.at(m) for m in counts] == k_lo
        assert [upper.at(m) for m in counts] == k_hi

    def test_infinite_baseline_radius_reads_sentinels(self):
        # the DKW union baseline has an infinite radius below 32 samples
        cfg = QlucbConfig(pi_target=0.5, eps=0.025, cs_kind="dkw_union_baseline", k_arms=3)
        lo, hi = qlucb_confidence_bounds(OrderedMultiset([0.0]), cfg)
        assert type(lo) is float and type(hi) is float
        data = OrderedMultiset([float(v) for v in range(31)])
        lo, hi = qlucb_confidence_bounds(data, cfg)
        assert lo == -math.inf and hi == math.inf
        data.insert(31.0)
        lo, hi = qlucb_confidence_bounds(data, cfg)
        assert lo != -math.inf or hi != math.inf

    @pytest.mark.parametrize("cs_kind", bandit.CS_KINDS)
    def test_run_trackers_equal_the_multiset_bounds(self, cs_kind):
        # qlucb_run reads L and U from two RankTrackers per arm;
        # qlucb_confidence_bounds is their OrderedMultiset reference
        cfg = QlucbConfig(pi_target=0.3, eps=0.025, cs_kind=cs_kind, k_arms=3)
        lower_rank, upper_rank = bandit._schedules(cfg)
        rng = np.random.default_rng(9)
        draws = np.round(rng.normal(size=3000), 1)  # ties, 0.0 and -0.0
        lo_tracker, hi_tracker = RankTracker(), RankTracker()
        data = OrderedMultiset()
        for n, x in enumerate(draws.tolist(), start=1):
            data.insert(x)
            got = (lo_tracker.add(x, lower_rank.at(n)), hi_tracker.add(x, upper_rank.at(n)))
            assert got == qlucb_confidence_bounds(data, cfg)

    def test_run_uses_no_sorted_list(self, monkeypatch):
        monkeypatch.setattr(empdist, "SortedList", None)
        arms = scenario_arms("uniform_shift", 3, 0.05, 0.5)
        cfg = QlucbConfig(pi_target=0.5, eps=0.05, cs_kind="stitched_qlucb", k_arms=3,
                          max_rounds=200)
        assert qlucb_run(arms, cfg).rounds >= 1


def _point_mass(value: float):
    return custom_arm(lambda u, v=value: np.full_like(np.asarray(u, dtype=float), v))


class TestQlucbRun:
    def test_degenerate_point_masses_select_the_larger(self):
        arms = [_point_mass(0.0), _point_mass(1.0)]
        cfg = QlucbConfig(pi_target=0.5, eps=0.1, delta_err=0.05,
                          cs_kind="stitched_qlucb", k_arms=2, seed=3)
        res = qlucb_run(arms, cfg)
        assert res.chosen_arm == 1
        assert not res.stopped_by_cap
        assert res.total_samples == sum(res.per_arm_counts)

    def test_identical_arms_tie_sampling(self):
        # identical finite samples force equal upper bounds: all of them are
        # sampled each round, so counts stay balanced
        arms = [_point_mass(1.0), _point_mass(1.0), _point_mass(1.0)]
        cfg = QlucbConfig(pi_target=0.5, eps=0.1, delta_err=0.05,
                          cs_kind="stitched_qlucb", k_arms=3, seed=4, max_rounds=50)
        res = qlucb_run(arms, cfg)
        counts = res.per_arm_counts
        assert max(counts) - min(counts) <= 1

    def test_cap_is_reported(self):
        arms = [uniform_arm(0.0, 1.0), uniform_arm(0.0, 1.0)]
        cfg = QlucbConfig(pi_target=0.5, eps=0.01, delta_err=0.05,
                          cs_kind="stitched_qlucb", k_arms=2, seed=5, max_rounds=10)
        res = qlucb_run(arms, cfg)
        assert res.stopped_by_cap
        assert res.rounds == 10

    def test_deterministic_given_seed(self):
        arms = scenario_arms("uniform_shift", 4, 0.05, 0.5)
        cfg = QlucbConfig(pi_target=0.5, eps=0.05, delta_err=0.1,
                          cs_kind="stitched_qlucb", k_arms=4, seed=11)
        a = qlucb_run(arms, cfg)
        b = qlucb_run(arms, cfg)
        assert a == b
        assert repr(a) == repr(b)

    def test_array_only_quantiles_get_an_eps_optimality_verdict(self):
        # a quantile callable that only accepts arrays (the ArmSpec contract)
        def shifted(shift):
            return custom_arm(lambda u: np.array([float(v) + shift for v in u]))

        arms = [shifted(0.0), shifted(1.0)]
        assert eps_optimal_set(arms, 0.5, 0.1) == {1}
        cfg = QlucbConfig(pi_target=0.5, eps=0.1, delta_err=0.05,
                          cs_kind="stitched_qlucb", k_arms=2, seed=3)
        res = qlucb_run(arms, cfg)
        assert res.chosen_arm == 1
        assert res.eps_optimal is True

    @pytest.mark.parametrize("cs_kind, expected", [
        ("stitched_qlucb", RunResult(chosen_arm=0, total_samples=149341,
                                     per_arm_counts=(49551, 50000, 49790), rounds=50000,
                                     eps_optimal=True, stopped_by_cap=True)),
        ("dkw_union_baseline", RunResult(chosen_arm=0, total_samples=149184,
                                         per_arm_counts=(49367, 49998, 49819), rounds=50000,
                                         eps_optimal=True, stopped_by_cap=True)),
    ])
    def test_pinned_run_on_tied_bounds(self, cs_kind, expected):
        # step quantiles draw ten atoms, so bounds tie across arms and the
        # pull rule upper[j] == max_other_u picks several arms in a round
        step = custom_arm(lambda u: np.floor(10 * np.asarray(u, dtype=float)) / 10)
        cfg = QlucbConfig(pi_target=0.5, eps=0.0, cs_kind=cs_kind, k_arms=3,
                          max_rounds=50_000)
        assert qlucb_run([step] * 3, cfg, rng=np.random.default_rng(7)) == expected

    def test_pinned_capped_run_on_identical_arms(self):
        cfg = QlucbConfig(pi_target=0.5, eps=0.0, cs_kind="stitched_qlucb", k_arms=2,
                          max_rounds=200_000)
        res = qlucb_run([uniform_arm(0.0, 1.0)] * 2, cfg)
        assert res == RunResult(chosen_arm=1, total_samples=400000,
                                per_arm_counts=(200000, 200000), rounds=200000,
                                eps_optimal=True, stopped_by_cap=True)

    def test_mismatched_k_raises(self):
        arms = scenario_arms("uniform_shift", 3, 0.05, 0.5)
        cfg = QlucbConfig(pi_target=0.5, eps=0.05, k_arms=4)
        with pytest.raises(ConfigurationError):
            qlucb_run(arms, cfg)


class TestEpsOptimalAndGaps:
    def test_uniform_scenario_membership_and_gaps(self):
        arms = scenario_arms("uniform_shift", 10, 0.025, 0.5)
        # shift exactly 2 eps puts every arm on the eps-optimal boundary
        assert eps_optimal_set(arms, 0.5, 0.025) == set(range(10))
        gaps = gap_deltas(arms, 0.5, 0.025)
        for k in range(9):
            assert gaps[k] == pytest.approx(0.025, abs=1e-6)
        assert gaps[9] == pytest.approx(0.0, abs=1e-6)

    def test_identical_arms_all_optimal_zero_gaps(self):
        arms = [uniform_arm(0.0, 1.0) for _ in range(5)]
        assert eps_optimal_set(arms, 0.3, 0.05) == set(range(5))
        for g in gap_deltas(arms, 0.3, 0.05):
            assert g == pytest.approx(0.0, abs=1e-6)

    def test_normal_scenario_boundary_quantiles(self):
        # the sigma=2 arm is best above ~0.53 and worst below ~0.45
        arms = scenario_arms("normal_scale", 10, 0.025, 0.5)
        high = eps_optimal_set(arms, 0.8, 0.025)
        assert high == {9}
        low = eps_optimal_set(arms, 0.2, 0.025)
        assert 9 not in low
        assert low == set(range(9))

    def test_normal_scenario_unique_optimal_gap_positive(self):
        arms = scenario_arms("normal_scale", 10, 0.025, 0.8)
        gaps = gap_deltas(arms, 0.8, 0.025)
        assert gaps[9] > 0.0
        for k in range(9):
            assert gaps[k] > 0.0

    @pytest.mark.parametrize("pi, eps", [(0.5, 0.6), (0.5, 0.5), (0.2, 0.2), (0.9, 0.1),
                                         (0.5, -0.01)])
    def test_gap_eps_outside_target_range_raises(self, pi, eps):
        # pi - eps and pi + eps must lie in (0, 1), as QlucbConfig requires
        arms = scenario_arms("uniform_shift", 3, 0.025, 0.5)
        with pytest.raises(ConfigurationError):
            gap_deltas(arms, pi, eps)

    def test_requires_quantile_functions(self):
        arms = [uniform_arm(0.0, 1.0), _point_mass(2.0)]
        # point-mass custom arms still expose quantile callables, so this works
        assert eps_optimal_set(arms, 0.5, 0.1) == {1}


class TestTauBound:
    # (delta_k, eps, pi_target, k_arms, delta_err) -> tau, pinned values
    PINNED = (
        ((0.1, 0.025, 0.5, 10, 0.05), 3022),
        ((0.2, 0.025, 0.5, 10, 0.05), 780),
        ((0.05, 0.025, 0.5, 10, 0.05), 11957),
        ((0.1, 0.025, 0.5, 100, 0.05), 3595),
        ((0.15, 0.025, 0.5, 10, 0.05), 1363),
        ((0.0, 0.05, 0.2, 3, 0.2), 8406),
        ((0.3, 0.01, 0.9, 2, 0.01), 257),
        ((0.01, 0.0, 0.5, 4, 0.1), 263225),
        ((0.08, 0.04, 0.1, 5, 0.5), 2700),
        ((0.5, 0.1, 0.7, 20, 0.001), 184),
        ((0.003, 0.002, 0.3, 2, 0.05), 2760420),
    )

    @pytest.mark.parametrize("args,expected", PINNED)
    def test_pinned_values(self, args, expected):
        assert tau_bound(*args) == expected

    def test_monotone_in_gap(self):
        assert tau_bound(0.1, 0.025, 0.5, 10, 0.05) > tau_bound(0.2, 0.025, 0.5, 10, 0.05)

    def test_inverse_square_scaling(self):
        for delta in (0.05, 0.1):
            ratio = tau_bound(delta / 2, 0.025, 0.5, 10, 0.05) / tau_bound(
                delta, 0.025, 0.5, 10, 0.05
            )
            assert 3.5 <= ratio <= 4.6

    def test_grows_with_k(self):
        assert tau_bound(0.1, 0.025, 0.5, 100, 0.05) > tau_bound(0.1, 0.025, 0.5, 10, 0.05)

    def test_zero_gap_unbounded(self):
        with pytest.raises(DomainError):
            tau_bound(0.0, 0.0, 0.5, 10, 0.05)

    def test_minimality(self):
        n = tau_bound(0.15, 0.025, 0.5, 10, 0.05)
        c_add = 0.8 * math.log(1612 * 10 / 0.05)
        log5k = math.log(5 * 10 / 0.05)

        def radius_sum(m):
            g = 0.85 * math.sqrt((math.log(math.log(math.e * m)) + c_add) / m)
            ell = (1.4 * math.log(math.log(2.1 * m)) + log5k) / m
            u = 1.5 * math.sqrt(0.25 * ell) + 0.8 * ell
            lo_level = 1.0 - 0.525
            l = 1.5 * math.sqrt(lo_level * (1 - lo_level) * ell) + 0.8 * ell
            return g + max(u, l)

        assert radius_sum(n) < 0.15
        assert radius_sum(n - 1) >= 0.15


class TestBenchmark:
    def test_single_run_table(self):
        rows = bai_benchmark("uniform_shift", [0.5], eps=0.05, delta_err=0.2,
                             cs_kinds=("stitched_qlucb",), runs=1, seed=2, k_arms=3)
        assert len(rows) == 1
        row = rows[0]
        assert row.runs == 1
        assert row.mean_samples == row.median_samples
        assert row.capped_runs == 0

    def test_deterministic(self):
        kw = dict(eps=0.05, delta_err=0.2, cs_kinds=("stitched_qlucb",), runs=2,
                  seed=19, k_arms=3)
        assert bai_benchmark("uniform_shift", [0.5], **kw) == bai_benchmark(
            "uniform_shift", [0.5], **kw
        )

    def test_all_kinds_run(self):
        rows = bai_benchmark("uniform_shift", [0.5], eps=0.05, delta_err=0.2,
                             cs_kinds=bandit.CS_KINDS, runs=1, seed=3, k_arms=3)
        assert [r.cs_kind for r in rows] == list(bandit.CS_KINDS)
        for r in rows:
            assert r.correct_rate == 1.0  # every arm is eps-optimal here


class TestScaleInvariants:
    """Heavier Monte Carlo invariants: stopping, ablation direction across all
    scenarios, and the 4 sum(tau_k) sample-complexity sanity check."""

    def test_ablation_and_stopping_across_scenarios(self):
        runs = 6
        for scen in ("uniform_shift", "cauchy_shift", "normal_scale"):
            arms = scenario_arms(scen, 10, 0.025, 0.5)
            means = {}
            for kind in ("beta_binomial_one_sided", "dkw_union_baseline"):
                cfg = QlucbConfig(pi_target=0.5, eps=0.025, delta_err=0.05,
                                  cs_kind=kind, k_arms=10, max_rounds=10 ** 7)
                totals = []
                for i in range(runs):
                    rng = np.random.default_rng(np.random.SeedSequence((811, i)))
                    res = qlucb_run(arms, cfg, rng=rng)
                    assert not res.stopped_by_cap, (scen, kind)
                    totals.append(res.total_samples)
                means[kind] = float(np.mean(totals))
            ratio = means["beta_binomial_one_sided"] / means["dkw_union_baseline"]
            assert ratio <= 0.5, (scen, means)

    def test_sample_complexity_within_four_tau_bound(self):
        # stitched radii are what the tau diagnostic is built from
        runs = 12
        delta = 0.05
        arms = scenario_arms("uniform_shift", 10, 0.025, 0.5)
        gaps = gap_deltas(arms, 0.5, 0.025)
        tau_sum = sum(tau_bound(g, 0.025, 0.5, 10, delta) for g in gaps)
        cfg = QlucbConfig(pi_target=0.5, eps=0.025, delta_err=delta,
                          cs_kind="stitched_qlucb", k_arms=10, max_rounds=10 ** 7)
        within = 0
        for i in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence((812, i)))
            res = qlucb_run(arms, cfg, rng=rng)
            within += 1 if res.total_samples <= 4 * tau_sum else 0
        sigma = math.sqrt(3 * delta * (1 - 3 * delta) / runs)
        assert within / runs >= 1 - 3 * delta - 3 * sigma

"""Confidence-sequence trackers: worked examples, infinite-bound conventions,
running intersection, and tracker-vs-vectorized miscoverage equivalence."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from functools import partial

from seqquant import boundaries
from seqquant.boundaries import (
    DoubleStitchConfig,
    StitchConfig,
    baseline_radius,
    beta_binomial_radius,
    double_stitch_radius,
    lil_C,
    normal_mixture_radius,
    stitched_radius,
    stitched_radius_simple,
    tune_r,
)
from seqquant.confseq import CdfBand, FixedQuantileCS, LilMethod, QuantileUniformCS
from seqquant.empdist import OrderedMultiset, _level_ceil, _level_floor
from seqquant.errors import ConfigurationError, DomainError, QueryError
from seqquant.seqtest import AbTestState


class TestFixedQuantileCS:
    def test_chained_example_t1000(self):
        # radius 0.07421... puts the bounds at order stats 426 and 575
        cs = FixedQuantileCS(0.5, partial(stitched_radius_simple, alpha=0.05))
        for x in range(1, 1001):
            cs.update(float(x))
        lo, hi = cs.bounds()
        assert lo == 426.0
        assert hi == 575.0

    def test_small_t_gives_sentinels(self):
        cs = FixedQuantileCS(0.5, partial(stitched_radius_simple, alpha=0.05))
        for x in [1.0, 2.0, 3.0, 4.0]:
            lo, hi = cs.update(x)
        assert lo == -math.inf and hi == math.inf
        assert type(cs.bounds()[1]) is float

    def test_symmetric_radius_at_median(self):
        for method in (partial(stitched_radius_simple, alpha=0.05),
                       partial(beta_binomial_radius, r=0.758, alpha=0.05),
                       lambda t, level: normal_mixture_radius(t, 0.504, 0.05)):
            assert method(500, 0.5) == pytest.approx(method(500, 0.5), rel=0)
            # f_t(1-p) == f_t(p) at p = 1/2
            assert method(500, 1 - 0.5) == method(500, 0.5)

    def test_bounds_are_realized_order_stats(self):
        rng = np.random.default_rng(3)
        cs = FixedQuantileCS(0.3, partial(beta_binomial_radius, r=tune_r(32, 0.3, 0.05),
                                          alpha=0.05))
        seen = []
        for x in rng.normal(size=400):
            seen.append(float(x))
            lo, hi = cs.update(float(x))
            for b in (lo, hi):
                assert b == -math.inf or b == math.inf or b in seen

    def test_point_estimate_is_upper_sample_quantile(self):
        cs = FixedQuantileCS(0.5, partial(stitched_radius_simple, alpha=0.05))
        for x in [5.0, 1.0, 3.0]:
            cs.update(x)
        assert cs.point_estimate() == cs.data.upper_quantile(0.5) == 3.0


class TestIntersection:
    def test_single_step_matches_instantaneous(self):
        cs = FixedQuantileCS(0.5, partial(stitched_radius_simple, alpha=0.05))
        cs.update(1.0)
        lo, hi, empty = cs.intersected_bounds()
        assert (lo, hi) == cs.bounds()
        assert not empty

    def test_contained_in_instantaneous(self):
        rng = np.random.default_rng(11)
        cs = FixedQuantileCS(0.5, partial(stitched_radius_simple, alpha=0.05))
        for x in rng.normal(size=800):
            lo, hi = cs.update(float(x))
            ilo, ihi, _ = cs.intersected_bounds()
            assert not ilo < lo
            assert not hi < ihi

    def test_empty_flag_fires_iff_crossed(self):
        # adversarial non-i.i.d. stream: 500 zeros then 500 ones
        cs = FixedQuantileCS(0.5, partial(stitched_radius_simple, alpha=0.05))
        for _ in range(500):
            cs.update(0.0)
        for _ in range(500):
            cs.update(1.0)
        lo, hi, empty = cs.intersected_bounds()
        assert empty == (lo > hi)

    def test_kept_without_a_flag(self):
        # every tracker keeps the running max of its lower and min of its upper bounds
        rng = np.random.default_rng(12)
        cs = FixedQuantileCS(0.5, partial(stitched_radius_simple, alpha=0.05))
        run_lo, run_hi = -math.inf, math.inf
        for x in rng.normal(size=300):
            lo, hi = cs.update(float(x))
            run_lo, run_hi = max(run_lo, lo), min(run_hi, hi)
            assert cs.intersected_bounds() == (run_lo, run_hi, run_lo > run_hi)

    @pytest.mark.parametrize("method", [
        partial(stitched_radius_simple, alpha=1.5),
        partial(beta_binomial_radius, r=-1.0, alpha=0.05),
        lambda t, level: normal_mixture_radius(t, -1.0, 0.05),
    ])
    def test_bad_radius_parameter_fails_when_built(self, method):
        with pytest.raises(ConfigurationError):
            FixedQuantileCS(0.5, method)


# the radius of each `track` method at level p, with the CLI's default parameters
_TRACK_RADII = {
    "stitched": lambda p: partial(stitched_radius, cfg=StitchConfig(eta=2.04, s_exp=1.4)),
    "stitched_simple": lambda p: partial(stitched_radius_simple, alpha=0.05),
    "beta_binomial": lambda p: partial(beta_binomial_radius, r=tune_r(32.0, p, 0.05),
                                       alpha=0.05),
    "normal_mixture": lambda p: lambda t, level: normal_mixture_radius(t, 0.504, 0.05),
}


class TestRankTables:
    """The tabulated ranks equal the scalar rank rule at every t in 1..3000,
    across the chunk edges at 1024 and 2048."""

    @pytest.mark.parametrize("p", [0.05, 0.25, 0.5, 0.9])
    @pytest.mark.parametrize("name", sorted(_TRACK_RADII))
    def test_tables_equal_scalar_rank_rule(self, name, p):
        radius = _TRACK_RADII[name](p)
        cs = FixedQuantileCS(p, radius)
        t = np.arange(1.0, 3001.0)
        lows = radius(t, 1.0 - p).tolist()
        highs = radius(t, p).tolist()
        k_lo = [cs._lower_rank.at(n) for n in range(1, 3001)]
        k_hi = [cs._upper_rank.at(n) for n in range(1, 3001)]
        assert k_lo == [_level_floor(n, p - l) + 1 for n, l in zip(range(1, 3001), lows)]
        assert k_hi == [_level_ceil(n, p + u) for n, u in zip(range(1, 3001), highs)]

    def test_bounds_read_the_tabulated_order_statistics(self):
        rng = np.random.default_rng(12)
        p = 0.25
        radius = partial(stitched_radius_simple, alpha=0.05)
        cs = FixedQuantileCS(p, radius)
        for x in rng.standard_cauchy(size=1100):
            lo, hi = cs.update(float(x))
            t = len(cs.data)
            assert lo == cs.data.upper_quantile(p - radius(t, 1.0 - p))
            assert hi == cs.data.lower_quantile(p + radius(t, p))


class TestLilMethod:
    def test_resolves_c_when_built(self):
        assert LilMethod(a_mult=0.85, alpha=0.05).c_add == lil_C(0.85, 0.05)
        assert LilMethod(a_mult=0.85, c_add=7.0, alpha=0.05).c_add == 7.0

    @pytest.mark.parametrize("kwargs", [
        {"m_start": 0.5}, {"a_mult": 0.5}, {"alpha": 1.5}, {"alpha": None},
    ])
    def test_bad_parameter_fails_when_built(self, kwargs):
        with pytest.raises(ConfigurationError):
            LilMethod(**kwargs)

    def test_a_at_most_one_over_sqrt2_fails_even_with_c_given(self):
        with pytest.raises(ConfigurationError):
            LilMethod(a_mult=0.5, c_add=7.0).radius(10)

    def test_level_is_ignored(self):
        method = LilMethod(alpha=0.05)
        t = np.arange(1.0, 50.0)
        assert np.array_equal(method.radius(t, 0.1), method.radius(t))
        assert method.radius(7, 0.9) == boundaries.lil_radius(7, 0.85, lil_C(0.85, 0.05))


class TestUniformCS:
    def test_lil_radius_value(self):
        # A=0.85, C from the closed form, m=1, t=100
        method = LilMethod(a_mult=0.85, c_add=boundaries.lil_C_closed_form(0.05), m_start=1.0)
        assert method.radius(100) == pytest.approx(0.269, abs=1e-3)

    def test_wide_radius_gives_sentinels(self):
        ucs = QuantileUniformCS(LilMethod(a_mult=0.85, alpha=0.05, m_start=1.0))
        for x in [0.1, 0.7, 0.4]:
            ucs.update(x)
        lo, hi = ucs.bounds(0.5)  # g >= 0.5 at t = 3
        assert lo == -math.inf and hi == math.inf

    def test_quantile_side_asymmetry(self):
        # lil brackets with [Q^-(p-g), Q(p+g)]; double-stitch with [Q(p-g~), Q^-(p+g~)]
        rng = np.random.default_rng(123)
        xs = [float(v) for v in rng.normal(size=5000)]
        lil = QuantileUniformCS(LilMethod(a_mult=0.85, alpha=0.05, m_start=1.0))
        ds = QuantileUniformCS(partial(double_stitch_radius,
                                       cfg=DoubleStitchConfig.default_preset(0.05)))
        for x in xs:
            lil.update(x)
            ds.update(x)
        p = 0.5
        t = len(xs)
        g = lil.method.radius(t)
        lo, hi = lil.bounds(p)
        assert lo == lil.data.lower_quantile(p - g)
        assert hi == lil.data.upper_quantile(p + g)
        gl = ds.method(t, 1 - p)
        gu = ds.method(t, p)
        lo2, hi2 = ds.bounds(p)
        assert lo2 == ds.data.upper_quantile(p - gl)
        assert hi2 == ds.data.lower_quantile(p + gu)

    def test_double_stitch_tighter_in_tail(self):
        t = 10 ** 5
        ds_cfg = DoubleStitchConfig.default_preset(alpha=0.05, m_start=32.0)
        ds_radius = boundaries.double_stitch_radius(t, 0.05, ds_cfg)
        lil_radius = boundaries.lil_radius(t, 0.85, lil_C(0.85, 0.05), 32.0)
        assert ds_radius < lil_radius


class TestLevelCheck:
    """A level p outside (0, 1) is one DomainError in confseq and seqtest alike."""

    @pytest.mark.parametrize("p", [1.5, 0.0, 1.0, -0.5, math.nan])
    def test_same_error_type_everywhere(self, p):
        ucs = QuantileUniformCS(LilMethod(alpha=0.05))
        ucs.update(0.3)
        for build in (lambda: FixedQuantileCS(p, partial(stitched_radius_simple, alpha=0.05)),
                      lambda: ucs.bounds(p),
                      lambda: AbTestState(p, 1.0)):
            with pytest.raises(DomainError, match="p must lie in"):
                build()


class TestCdfBand:
    def test_half_width_value(self):
        band = CdfBand(a_mult=0.85, alpha=None, c_add=boundaries.lil_C_closed_form(0.05))
        for x in range(100):
            band.update(float(x))
        assert band.half_width() == pytest.approx(0.269, abs=1e-3)

    def test_below_all_data(self):
        band = CdfBand(alpha=0.05)
        for x in [1.0, 2.0, 3.0]:
            band.update(x)
        lo, hi = band.at(0.0)
        assert lo == 0.0
        assert hi == pytest.approx(min(1.0, band.half_width()))

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(9)
        band = CdfBand(alpha=0.05)
        for x in rng.normal(size=50):
            band.update(float(x))
        for x in (-10.0, -1.0, 0.0, 1.0, 10.0):
            lo, hi = band.at(x)
            assert 0.0 <= lo <= hi <= 1.0
        for _, f, lo, hi in band.band():
            assert 0.0 <= lo <= f <= hi <= 1.0

    def test_band_width_constant_in_x(self):
        rng = np.random.default_rng(10)
        band = CdfBand(alpha=0.05)
        for x in rng.normal(size=200):
            band.update(float(x))
        rows = band.band()
        interior = [(lo, hi, f) for _, f, lo, hi in rows if 0 < lo and hi < 1]
        for lo, hi, f in interior:
            assert hi - f == pytest.approx(f - lo, rel=1e-12)


def _band_by_runs(inserted, band):
    """The band as a loop over the runs of an OrderedMultiset of the inserted values: the
    reference for `CdfBand.band`."""
    data = OrderedMultiset(inserted)
    t = len(data)
    if t == 0:
        return []
    w = band.half_width()
    rows = []
    seen = 0
    for v, c in data.items():
        seen += c
        f = seen / t
        rows.append((v, f, max(0.0, f - w), min(1.0, f + w)))
    return rows


def _at_by_multiset(inserted, band, x):
    """`CdfBand.at` from an OrderedMultiset of the inserted values."""
    _, f = OrderedMultiset(inserted).cdf_at(x)
    w = band.half_width()
    return max(0.0, f - w), min(1.0, f + w)


_CAUCHY = np.random.default_rng(11).standard_cauchy(5000)


class TestCdfBandExport:
    CASES = {
        "empty": [],
        "t=1": [2.5],
        "continuous": _CAUCHY.tolist(),
        "tied": np.round(_CAUCHY, 1).tolist(),
        "one value": [3.0] * 40,
        "-0.0 first": [1.0, -0.0, 0.0, -1.0, 0.0, -0.0],
        "0.0 first": [1.0, 0.0, -0.0, -1.0, -0.0, 0.0],
        "ints": [5, 3, 5, -2, 3, 3, 0, 7, 5],
        "fractions": [Fraction(1, 3), Fraction(2, 6), Fraction(-7, 2), Fraction(5, 1), 5.0],
        # equal as float64, apart as Python numbers: two runs, not one
        "2**53 + 1 and 2.0**53": [2 ** 53 + 1, 2.0 ** 53, 2 ** 53 + 1, 2.0 ** 53, 1.0],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_the_run_loop(self, case):
        band = CdfBand(alpha=0.05)
        for x in self.CASES[case]:
            band.update(x)
        got, want = band.band(), _band_by_runs(self.CASES[case], band)
        assert got == want
        assert [list(map(repr, row)) for row in got] == [list(map(repr, row)) for row in want]
        assert all(type(f) is float and type(lo) is float and type(hi) is float
                   for _, f, lo, hi in got)

    def test_first_inserted_zero_represents_its_run(self):
        for first in (-0.0, 0.0):
            band = CdfBand(alpha=0.05)
            for x in (first, -first, 1.0):
                band.update(x)
            assert [repr(x) for x, *_ in band.band()] == [repr(first), "1.0"]

    # ties from rounded Cauchy draws, both zeros, ints, Fractions, and two numbers one float64
    # cannot tell apart
    VALUES = st.one_of(
        st.sampled_from(np.round(_CAUCHY[:40], 1).tolist() + [0.0, -0.0, 2 ** 53 + 1, 2.0 ** 53]),
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    OPS = st.lists(st.one_of(st.tuples(st.just("update"), VALUES), st.just(("band",)),
                             st.tuples(st.just("at"), VALUES)), max_size=60)

    @settings(max_examples=300, deadline=None)
    @given(OPS)
    def test_interleaved_queries_match_the_multiset(self, ops):
        band = CdfBand(alpha=0.05)
        inserted = []
        for op in ops:
            if op[0] == "update":
                inserted.append(op[1])
                assert band.update(op[1]) == len(band) == len(inserted)
            elif op[0] == "band":
                got, want = band.band(), _band_by_runs(inserted, band)
                assert [list(map(repr, row)) for row in got] == \
                    [list(map(repr, row)) for row in want]
            elif inserted:
                assert repr(band.at(op[1])) == repr(_at_by_multiset(inserted, band, op[1]))
            else:
                with pytest.raises(QueryError):
                    band.at(op[1])
        with pytest.raises(ValueError, match="NaN"):
            band.update(math.nan)
        assert len(band) == len(inserted)


class TestRadiusOrdering:
    def test_fig_style_ordering_at_large_t(self):
        t = 10 ** 6
        bb = boundaries.beta_binomial_radius(t, 0.5, tune_r(32, 0.5, 0.05), 0.05)
        stitched = boundaries.stitched_radius_simple(t, 0.5, 0.05)
        lil = boundaries.lil_radius(t, 0.85, lil_C(0.85, 0.05), 32.0)
        szor = baseline_radius("szorenyi", t, alpha=0.05)
        assert bb < stitched < lil < szor


def _vectorized_miscoverage(xs, p, lows, highs):
    """Per-time miscoverage of the true uniform quantile via rank counts."""
    t_grid = np.arange(1, len(xs) + 1)
    s_le = np.cumsum(xs <= p)
    s_lt = np.cumsum(xs < p)
    k_lo = np.array([_level_floor(t, p - l) + 1 for t, l in zip(t_grid, lows)])
    k_hi = np.array([_level_ceil(t, p + u) for t, u in zip(t_grid, highs)])
    return (s_le < k_lo) | (s_lt >= k_hi)


class TestCoverageMachinery:
    """The cumsum shortcut used by the Monte Carlo coverage suites must agree
    with the tracker exactly, stream by stream."""

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_tracker_equivalence_stitched(self, p):
        self._run(p, partial(stitched_radius_simple, alpha=0.05))

    def test_tracker_equivalence_beta_binomial(self):
        self._run(0.5, partial(beta_binomial_radius, r=tune_r(32, 0.5, 0.05), alpha=0.05))

    @staticmethod
    def _run(p, method):
        rng = np.random.default_rng(round(p * 1000))
        horizon = 400
        t_grid = np.arange(1, horizon + 1)
        lows = np.array([method(int(t), 1 - p) for t in t_grid])
        highs = np.array([method(int(t), p) for t in t_grid])
        for _ in range(12):
            xs = rng.random(horizon)
            fast = _vectorized_miscoverage(xs, p, lows, highs)
            cs = FixedQuantileCS(p, method)
            slow = np.zeros(horizon, dtype=bool)
            for i, x in enumerate(xs):
                lo, hi = cs.update(float(x))
                slow[i] = (lo > p) or (hi < p)
            np.testing.assert_array_equal(fast, slow)


class TestQuantileUniformCoverage:
    def test_lil_simultaneous_coverage_monte_carlo(self):
        # 1000 uniform streams, horizon 1e4: the event that ANY quantile in
        # the grid exits its interval at ANY time has probability at most
        # alpha; gate at alpha + 3 sqrt(alpha(1-alpha)/1000).
        alpha = 0.05
        n_streams = 1000
        horizon = 10 ** 4
        bound = alpha + 3 * math.sqrt(alpha * (1 - alpha) / n_streams)
        p_grid = np.round(np.arange(0.05, 0.951, 0.05), 2)
        c = boundaries.lil_C(0.85, alpha)
        g = boundaries.lil_radius(np.arange(1, horizon + 1, dtype=float), 0.85, c, 1.0)
        # per-(t, p) order-statistic thresholds for the rank shortcut:
        # lower = Q^-(p - g) violates iff S_le < ceil(t (p-g));
        # upper = Q(p + g) violates iff S_lt >= floor(t (p+g)) + 1
        k_lo = np.empty((horizon, len(p_grid)), dtype=np.int64)
        k_hi = np.empty((horizon, len(p_grid)), dtype=np.int64)
        for i in range(horizon):
            t = i + 1
            for j, p in enumerate(p_grid):
                k_lo[i, j] = _level_ceil(t, p - g[i])
                k_hi[i, j] = _level_floor(t, p + g[i]) + 1
        rng = np.random.default_rng(515151)
        missed = 0
        for _ in range(n_streams):
            xs = rng.random(horizon)
            le = np.cumsum(xs[:, None] <= p_grid[None, :], axis=0)
            lt = np.cumsum(xs[:, None] < p_grid[None, :], axis=0)
            if np.any(le < k_lo) or np.any(lt >= k_hi):
                missed += 1
        assert missed / n_streams <= bound

    def test_rank_shortcut_matches_uniform_tracker(self):
        # same identity, verified against the real QuantileUniformCS object
        method = LilMethod(a_mult=0.85, alpha=0.05, m_start=1.0)
        ucs = QuantileUniformCS(method)
        rng = np.random.default_rng(626262)
        xs = rng.random(300)
        p_grid = (0.1, 0.5, 0.9)
        for i, x in enumerate(xs):
            ucs.update(float(x))
            t = i + 1
            g = method.radius(t)
            for p in p_grid:
                lo, hi = ucs.bounds(p)
                fast_lower = np.sum(xs[:t] <= p) < _level_ceil(t, p - g)
                fast_upper = np.sum(xs[:t] < p) >= _level_floor(t, p + g) + 1
                assert fast_lower == (lo > p)
                assert fast_upper == (hi < p)

"""OrderedMultiset: rank/select correctness against a naive sorted-array oracle.

The implication-table checks exercise the exact interplay between the
empirical CDF pair and the two sample quantile functions, including
knife-edge levels p = k/t; comparisons there are done with Fractions so the
oracle side is exact.
"""

import math
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqquant.empdist import (
    OrderedMultiset,
    RankTracker,
    _level_ceil,
    _level_floor,
    insert_sorted,
    lower_ranks,
    upper_ranks,
)
from seqquant.errors import QueryError


class SortedOracle:
    """Reference implementation on a plain sorted list."""

    def __init__(self, values):
        self.xs = sorted(values)

    def order_stat(self, k):
        if k < 1:
            return -math.inf
        if k > len(self.xs):
            return math.inf
        return self.xs[k - 1]

    def count_le(self, x):
        return bisect_right(self.xs, x)

    def count_lt(self, x):
        return bisect_left(self.xs, x)

    def upper_quantile(self, p):
        t = len(self.xs)
        pn, pd = float(p).as_integer_ratio()
        return self.order_stat((t * pn) // pd + 1)

    def lower_quantile(self, p):
        t = len(self.xs)
        pn, pd = float(p).as_integer_ratio()
        return self.order_stat(-((t * -pn) // pd))


class TestBasics:
    def test_insert_into_empty(self):
        ms = OrderedMultiset()
        assert ms.insert(4.0) == 1
        assert len(ms) == 1

    def test_sortedness_of_inserts(self):
        ms = OrderedMultiset([3, 1, 2])
        assert ms.order_stat(2) == 2

    def test_order_stat_sentinels(self):
        ms = OrderedMultiset([1, 2, 3, 4])
        assert ms.order_stat(3) == 3
        assert ms.order_stat(0) == -math.inf
        assert ms.order_stat(5) == math.inf
        assert type(ms.order_stat(5)) is float
        assert OrderedMultiset().max() == -math.inf

    def test_cdf_counts(self):
        ms = OrderedMultiset([1, 2, 2, 4])
        assert ms.cdf_at(2) == (0.25, 0.75)
        ms2 = OrderedMultiset([1, 2, 3, 4])
        assert ms2.cdf_at(2.5) == (0.5, 0.5)
        assert ms2.cdf_at(0) == (0.0, 0.0)
        assert ms2.cdf_at(9) == (1.0, 1.0)

    def test_quantile_conventions(self):
        ms = OrderedMultiset([1, 2, 3, 4])
        assert ms.upper_quantile(0.5) == 3
        assert ms.lower_quantile(0.5) == 2
        assert ms.upper_quantile(-0.1) == -math.inf
        assert ms.lower_quantile(-0.1) == -math.inf
        assert ms.upper_quantile(1.1) == math.inf
        assert ms.lower_quantile(1.1) == math.inf
        single = OrderedMultiset([5])
        assert single.upper_quantile(0.999) == 5

    def test_empty_queries_raise(self):
        ms = OrderedMultiset()
        with pytest.raises(QueryError):
            ms.cdf_at(0.0)
        with pytest.raises(QueryError):
            ms.upper_quantile(0.5)

    def test_nan_query_raises(self):
        # NaN has no rank: a query raises as an insert and a NaN level do (a
        # bisection would count every value <= NaN and none < it)
        ms = OrderedMultiset([1.0, 2.0])
        for query in (ms.cdf_at, ms.count_le, ms.count_lt):
            for nan in (math.nan, np.float64("nan")):
                with pytest.raises(ValueError, match="NaN"):
                    query(nan)
        assert ms.cdf_at(math.inf) == (1.0, 1.0)
        assert (ms.count_le(math.inf), ms.count_lt(math.inf)) == (2, 2)

    def test_nan_rejected(self):
        ms = OrderedMultiset()
        with pytest.raises(ValueError):
            ms.insert(float("nan"))

    def test_generic_ordered_values(self):
        ms = OrderedMultiset(["pear", "apple", "fig", "apple"])
        assert ms.order_stat(1) == "apple"
        assert ms.order_stat(4) == "pear"
        assert ms.count_le("fig") == 3

    @pytest.mark.parametrize("values, runs", [
        ([-0.0, 0.0, 1.0, 0.0], [(-0.0, 3), (1.0, 1)]),
        ([0.0, -0.0, 1.0, -0.0], [(0.0, 3), (1.0, 1)]),
        ([2 ** 53 + 1, 2.0 ** 53, 3], [(3, 1), (2.0 ** 53, 1), (2 ** 53 + 1, 1)]),
        ([2.0 ** 53, 2 ** 53, 2 ** 53 + 1], [(2.0 ** 53, 2), (2 ** 53 + 1, 1)]),
        ([2 ** 53, 2.0 ** 53, 2 ** 53 + 1], [(2 ** 53, 2), (2 ** 53 + 1, 1)]),
    ])
    def test_runs_report_first_inserted_value(self, values, runs):
        ms = OrderedMultiset(values)
        lo, hi = min(values), max(values)
        for got in (list(ms.items()), list(ms.items_between(lo, hi))):
            assert got == runs
            assert [repr(v) for v, _ in got] == [repr(v) for v, _ in runs]

    def test_items_between(self):
        ms = OrderedMultiset([1, 2, 2, 3, 5, 8])
        assert list(ms.items_between(2, 5)) == [(2, 2), (3, 1), (5, 1)]
        assert list(ms.items_between(3.5, 4.5)) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=64))
def test_oracle_equivalence_discrete(values):
    ms = OrderedMultiset(values)
    oracle = SortedOracle(values)
    t = len(values)
    for k in range(-1, t + 2):
        assert ms.order_stat(k) == oracle.order_stat(k)
    probes = sorted(set(values)) + [v + 0.5 for v in set(values)] + [-100, 100]
    for x in probes:
        assert ms.count_le(x) == oracle.count_le(x)
        assert ms.count_lt(x) == oracle.count_lt(x)
    for num in range(-1, t + 2):
        p = num / t
        assert ms.upper_quantile(p) == oracle.upper_quantile(p)
        assert ms.lower_quantile(p) == oracle.lower_quantile(p)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=0, max_size=64))
def test_oracle_equivalence_iteration(values):
    ms = OrderedMultiset(values)
    oracle = SortedOracle(values)
    runs = [(v, oracle.xs.count(v)) for v in sorted(set(oracle.xs))]
    assert list(ms.items()) == runs
    assert list(ms) == oracle.xs
    probes = [-100, 100] + [v + d for v in set(values) for d in (-0.5, 0, 0.5)]
    for lo in probes:
        for hi in probes:
            assert list(ms.items_between(lo, hi)) == [(v, c) for v, c in runs if lo <= v <= hi]
    for x in (-math.inf, math.inf):
        assert ms.count_le(x) == oracle.count_le(x)
        assert ms.count_lt(x) == oracle.count_lt(x)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1,
                max_size=200))
def test_oracle_equivalence_floats(values):
    ms = OrderedMultiset(values)
    oracle = SortedOracle(values)
    t = len(values)
    for k in (1, t // 2, t):
        assert ms.order_stat(k) == oracle.order_stat(k)
    for p in (0.0, 0.25, 0.5, 0.75, 1.0, 0.123456):
        assert ms.upper_quantile(p) == oracle.upper_quantile(p)
        assert ms.lower_quantile(p) == oracle.lower_quantile(p)


def test_oracle_equivalence_bulk_random():
    rng = np.random.default_rng(1234)
    for trial in range(20):
        n = int(rng.integers(1, 1000))
        values = rng.normal(size=n)
        if trial % 2:
            values = np.round(values, 1)  # force ties
        ms = OrderedMultiset(float(v) for v in values)
        oracle = SortedOracle(float(v) for v in values)
        for k in rng.integers(-2, n + 3, size=20):
            assert ms.order_stat(int(k)) == oracle.order_stat(int(k))
        for p in rng.uniform(-0.2, 1.2, size=20):
            assert ms.upper_quantile(float(p)) == oracle.upper_quantile(float(p))
            assert ms.lower_quantile(float(p)) == oracle.lower_quantile(float(p))


# values with ties, both zeros, integer-valued floats and a few general floats
_TRACKED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 3.0, 0.5]),
                     st.integers(min_value=-4, max_value=4).map(float),
                     st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
# the next rank: a jump to any rank, a flat or small step, or a step far out of range
_RANK_STEPS = st.one_of(st.tuples(st.just("jump"), st.integers(min_value=-3, max_value=70)),
                        st.tuples(st.just("step"), st.integers(min_value=-1, max_value=2)),
                        st.tuples(st.just("jump"), st.sampled_from([-10 ** 9, 10 ** 9])))


class TestRankTracker:
    """RankTracker.add(x, r) equals OrderedMultiset.order_stat(r) on the same prefix."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_TRACKED, _RANK_STEPS), min_size=1, max_size=64))
    def test_oracle_equivalence(self, steps):
        tracker = RankTracker()
        ms = OrderedMultiset()
        r = 1
        for x, (kind, move) in steps:
            r = move if kind == "jump" else r + move
            ms.insert(x)
            got = tracker.add(x, r)
            assert got == ms.order_stat(r), (r, len(ms))
            if r < 1:
                assert got == -math.inf
            elif r > len(ms):
                assert got == math.inf

    def test_out_of_range_ranks_read_infinities(self):
        tracker = RankTracker()
        assert tracker.add(2.0, 0) == -math.inf
        assert tracker.add(1.0, 3) == math.inf
        assert tracker.add(3.0, 3) == 3.0
        assert tracker.add(0.0, -5) == -math.inf
        assert tracker.add(5.0, 1) == 0.0
        assert type(tracker.add(4.0, 7)) is float

    def test_rank_sweeps_with_ties(self):
        rng = np.random.default_rng(8)
        values = np.round(rng.normal(size=2000), 1).tolist()
        tracker = RankTracker()
        ms = OrderedMultiset()
        for n, x in enumerate(values, start=1):
            ms.insert(x)
            r = int(0.3 * n) - 5 if n < 1000 else n + 1 - int(0.4 * n)
            assert tracker.add(x, r) == ms.order_stat(r)

    @pytest.mark.parametrize("nan", [math.nan, np.float64("nan")])
    def test_nan_rejected_without_insertion(self, nan):
        tracker = RankTracker()
        tracker.add(1.0, 1)
        with pytest.raises(ValueError, match="NaN"):
            tracker.add(nan, 1)
        assert tracker.add(0.0, 2) == 1.0


class TestInsertSorted:
    """insert_sorted grows the array that np.fromiter(OrderedMultiset(seq), float) reads."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_TRACKED, st.integers(min_value=-4, max_value=4)), max_size=64))
    def test_oracle_equivalence(self, values):
        arr = np.empty(0)
        for x in values:
            arr = insert_sorted(arr, x)
        want = np.fromiter(OrderedMultiset(values), dtype=float, count=len(values))
        assert arr.dtype == np.float64
        assert np.array_equal(arr, want)
        assert np.array_equal(np.signbit(arr), np.signbit(want))

    @pytest.mark.parametrize("nan", [math.nan, np.float64("nan")])
    def test_nan_rejected(self, nan):
        with pytest.raises(ValueError, match="NaN"):
            insert_sorted(np.array([1.0]), nan)


class TestImplicationTable:
    """The eight F / Q implications, checked exactly on random multisets."""

    @staticmethod
    def _check(ms):
        t = len(ms)
        values = sorted(set(v for v, _ in ms.items()))
        probes = list(values)
        probes += [0.5 * (a + b) for a, b in zip(values, values[1:])]
        probes += [values[0] - 1.0, values[-1] + 1.0]
        levels = [k / t for k in range(0, t + 1)]
        for x in probes:
            f_exact = Fraction(ms.count_le(x), t)
            fm_exact = Fraction(ms.count_lt(x), t)
            for p in levels:
                p_exact = Fraction(*p.as_integer_ratio())
                q_upper = ms.upper_quantile(p)
                q_lower = ms.lower_quantile(p)
                if f_exact > p_exact:
                    assert x >= q_upper
                assert (f_exact >= p_exact) == (x >= q_lower)
                assert (f_exact < p_exact) == (x < q_lower)
                if f_exact <= p_exact:
                    assert x <= q_upper
                assert (fm_exact > p_exact) == (x > q_upper)
                if fm_exact >= p_exact:
                    assert x >= q_lower
                if fm_exact < p_exact:
                    assert x <= q_lower
                assert (fm_exact <= p_exact) == (x <= q_upper)

    def test_on_random_multisets(self):
        rng = np.random.default_rng(777)
        for trial in range(500):
            t = int(rng.integers(1, 65))
            if trial % 2:
                values = [float(v) for v in rng.integers(-5, 6, size=t)]
            else:
                values = [float(v) for v in np.round(rng.normal(size=t), 2)]
            self._check(OrderedMultiset(values))

    def test_lower_leq_upper_and_equality_off_jump_levels(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            t = int(rng.integers(1, 50))
            ms = OrderedMultiset(float(v) for v in rng.normal(size=t))
            for p in rng.uniform(0.001, 0.999, size=20):
                p = float(p)
                lo = ms.lower_quantile(p)
                hi = ms.upper_quantile(p)
                assert not hi < lo
                # equality unless t*p is an integer in {1, ..., t-1}
                tp = Fraction(*p.as_integer_ratio()) * t
                if tp.denominator != 1 or not 1 <= tp.numerator <= t - 1:
                    assert lo == hi


def _knife_edge_levels():
    """(t, level) arrays: k/t and 1-2 ulps either side, for k in -2..t+2, plus +-inf."""
    ts, levels = [], []
    for t in list(range(1, 257)) + [1023, 1024, 1025, 4097, 10 ** 6 + 3]:
        k = np.arange(-2, t + 3, max(1, t // 256))
        exact = k / t
        shifted = [exact]
        for direction in (-np.inf, np.inf):
            once = np.nextafter(exact, direction)
            shifted += [once, np.nextafter(once, direction)]
        edge = np.concatenate(shifted + [[-np.inf, np.inf]])
        ts.append(np.full(edge.shape, t))
        levels.append(edge)
    return np.concatenate(ts), np.concatenate(levels)


class TestRankArrays:
    """upper_ranks / lower_ranks equal the scalar rules element by element."""

    @staticmethod
    def _assert_equal_to_scalar(t, levels):
        scalar_upper = [_level_floor(int(n), float(p)) + 1 for n, p in zip(t, levels)]
        scalar_lower = [_level_ceil(int(n), float(p)) for n, p in zip(t, levels)]
        assert upper_ranks(t, levels).tolist() == scalar_upper
        assert lower_ranks(t, levels).tolist() == scalar_lower

    def test_knife_edge_levels(self):
        t, levels = _knife_edge_levels()
        self._assert_equal_to_scalar(t, levels)
        # the inputs do reach the cases a plain float floor gets wrong
        finite = np.isfinite(levels)
        naive = np.floor(t[finite] * levels[finite]) + 1
        assert np.any(naive != upper_ranks(t, levels)[finite])

    def test_random_levels_and_times(self):
        rng = np.random.default_rng(2024)
        t = rng.integers(1, 10 ** 7, size=20_000)
        levels = rng.uniform(-0.2, 1.2, size=20_000)
        self._assert_equal_to_scalar(t, levels)

    def test_float_times_and_scalar_arguments(self):
        t = np.arange(1.0, 200.0)
        assert upper_ranks(t, 0.3).tolist() == [_level_floor(n, 0.3) + 1 for n in range(1, 200)]
        assert lower_ranks(t, 0.3).tolist() == [_level_ceil(n, 0.3) for n in range(1, 200)]
        assert upper_ranks(10, 0.5) == 6 and lower_ranks(10, 0.5) == 5
        assert upper_ranks(t, 0.3).dtype == np.int64

    def test_infinite_levels_give_out_of_range_ranks(self):
        assert upper_ranks([5, 5], [-np.inf, np.inf]).tolist() == [0, 6]
        assert lower_ranks([5, 5], [-np.inf, np.inf]).tolist() == [0, 6]

    def test_ranks_past_int64_are_the_ranks_at_infinite_levels(self):
        t = [10, 10, 10, 10]
        levels = [1e300, -1e300, 1e18, math.inf]
        assert upper_ranks(t, levels).tolist() == [11, 0, 11, 11]
        assert lower_ranks(t, levels).tolist() == [11, 0, 11, 11]
        # products inside the int64 range keep the scalar rule's ranks
        self._assert_equal_to_scalar([1, 1, 3], [2.0 ** 63 - 1024, -2.0 ** 63, -1e18])

    def test_nan_level_raises_like_the_scalar_rule(self):
        for rule in (upper_ranks, lower_ranks):
            with pytest.raises(ValueError, match="NaN"):
                rule([3, 4, 5], [0.5, math.nan, 0.5])
        with pytest.raises(ValueError, match="NaN"):
            _level_floor(4, math.nan)


class TestComplexity:
    def test_avl_height_bound_after_many_inserts(self):
        # structural guarantee of O(log t) queries: height <= 1.45 log2(t+2)
        rng = np.random.default_rng(5)
        n = 100_000
        ms = OrderedMultiset()
        for v in rng.random(n):
            ms.insert(float(v))
        assert len(ms) == n
        assert ms.height() <= 1.45 * math.log2(n + 2) + 2

    def test_million_inserts_and_queries_complete_quickly(self):
        rng = np.random.default_rng(6)
        n = 1_000_000
        block = rng.random(n)
        ms = OrderedMultiset()
        start = time.monotonic()
        for v in block:
            ms.insert(float(v))
        for k in range(1, 1000):
            ms.order_stat(k * (n // 1000))
        elapsed = time.monotonic() - start
        assert len(ms) == n
        assert ms.height() <= 1.45 * math.log2(n + 2) + 2
        # generous wall-clock ceiling: O(n log n) at interpreter speed
        assert elapsed < 120.0
        vals = list(ms)
        assert len(vals) == n
        assert all(a <= b for a, b in zip(vals[:1000], vals[1:1001]))

    def test_inorder_sorted_100k(self):
        rng = np.random.default_rng(7)
        ms = OrderedMultiset(float(v) for v in rng.random(100_000))
        vals = np.fromiter(iter(ms), dtype=float, count=len(ms))
        assert np.all(np.diff(vals) >= 0)

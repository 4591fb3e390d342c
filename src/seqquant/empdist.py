"""Streaming empirical distribution with logarithmic rank/select queries.

The container is a thin wrapper over one ``sortedcontainers.SortedList``
holding every observation, duplicates as repeated entries, so rank queries
count multiplicity exactly.  Equal values keep their insertion order, and
``items`` reports each distinct value by its first-inserted representative.
Values are numbers that compare with float (every caller passes finite
floats, ints or Fractions); float NaN is rejected at insertion and as a
count or CDF query because it breaks rank semantics.

Quantile conventions: the upper sample quantile at level p is the
floor(t p) + 1 order statistic, the lower one the ceil(t p) order statistic,
and out-of-range order statistics are the floats -inf / inf (the supremum
of an empty set is the extended real line's infimum, and vice versa).
Levels are interpreted exactly as the dyadic rationals the incoming floats
denote, so knife-edge levels p = k/t behave consistently with the count
queries.
`upper_ranks` and `lower_ranks` give the same two ranks for arrays of
(t, level), so a tracker whose levels depend on t alone can tabulate them.
`RankTracker` follows one order statistic of a growing stream whose rank
moves by a few places per observation, in O(log t) per step.
`insert_sorted` grows the sorted float64 array that stores a sequential test's arm.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import groupby
from typing import Iterable, Iterator

import numpy as np
from sortedcontainers import SortedList

from .errors import QueryError

__all__ = ["OrderedMultiset", "RankTracker", "insert_sorted", "upper_ranks", "lower_ranks"]


def _level_floor(t: int, p) -> int:
    """floor(t * p) computed exactly for the dyadic rational p denotes."""
    if isinstance(p, float):
        if math.isnan(p):
            raise ValueError("quantile level must not be NaN")
        if math.isinf(p):
            return t if p > 0 else -1
    pn, pd = p.as_integer_ratio()
    return (t * pn) // pd


def _level_ceil(t: int, p) -> int:
    if isinstance(p, float):
        if math.isnan(p):
            raise ValueError("quantile level must not be NaN")
        if math.isinf(p):
            return t + 1 if p > 0 else 0
    pn, pd = p.as_integer_ratio()
    return -((t * -pn) // pd)


def _rounded_products(t, levels, rounding, scalar_rule) -> np.ndarray:
    """scalar_rule(t, level) elementwise, as int64, from the rounded float product.

    The float product t * level can land on the other side of an integer
    from the exact product only by rounding onto that integer, so every
    element whose product is an integer, or is not finite, is recomputed
    with the scalar rule; the rest are exact already.
    """
    t, levels = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(levels, dtype=float))
    # a rank outside int64 lies past every order statistic: store the rank at -inf or inf
    outside = (t * levels < -2.0 ** 63) | (t * levels >= 2.0 ** 63)
    levels = np.where(outside, np.copysign(math.inf, levels), levels)
    product = t * levels
    rounded = rounding(product)
    redo = np.flatnonzero(~np.isfinite(product) | (rounded == product))
    ranks = np.where(np.isfinite(rounded), rounded, 0.0).astype(np.int64)
    for i in redo.tolist():
        ranks.flat[i] = scalar_rule(int(t.flat[i]), float(levels.flat[i]))
    return ranks


def upper_ranks(t, levels) -> np.ndarray:
    """floor(t level) + 1 elementwise: the ranks `upper_quantile` reads, as int64."""
    return _rounded_products(t, levels, np.floor, _level_floor) + 1


def lower_ranks(t, levels) -> np.ndarray:
    """ceil(t level) elementwise: the ranks `lower_quantile` reads, as int64."""
    return _rounded_products(t, levels, np.ceil, _level_ceil)


def insert_sorted(arr: np.ndarray, x) -> np.ndarray:
    """Sorted float64 arr with float(x) inserted after its equals, in the order (and so with the
    zero signs) `OrderedMultiset.insert` gives; NaN is rejected with the same `ValueError`."""
    x = float(x)
    if x != x:
        raise ValueError("NaN is not insertable: it breaks rank semantics")
    i = np.searchsorted(arr, x, side="right")
    return np.concatenate((arr[:i], (x,), arr[i:]))


def _runs(values: Iterable) -> Iterator[tuple[float, int]]:
    """(value, run length) per run of equal values in a sorted iterable, keyed by its first."""
    return ((v, sum(1 for _ in run)) for v, run in groupby(values))


class OrderedMultiset:
    """Sorted multiset of a stream of observations with rank/select queries."""

    __slots__ = ("_sl",)

    def __init__(self, values: Iterable | None = None):
        self._sl = SortedList()
        if values is not None:
            for x in values:
                self.insert(x)

    def __len__(self) -> int:
        return len(self._sl)

    def insert(self, x) -> int:
        """Insert one observation (duplicates allowed); returns the new count."""
        if isinstance(x, float) and x != x:
            raise ValueError("NaN is not insertable: it breaks rank semantics")
        self._sl.add(x)
        return len(self._sl)

    def height(self) -> int:
        """Levels on a rank/select search path, in O(1).

        A positional lookup descends the SortedList's binary index over its
        sublists, ceil(log2 m) levels for m sublists, then indexes one
        sublist: O(log t) levels, since sublists hold at most a fixed load.
        """
        m = len(self._sl._lists)
        return (m - 1).bit_length() + 1 if m else 0

    # -- rank / select queries -------------------------------------------------

    def order_stat(self, k: int) -> float:
        """k-th smallest value; -inf for k < 1, inf for k > count."""
        if k < 1:
            return -math.inf
        if k > len(self._sl):
            return math.inf
        return self._sl[k - 1]

    def count_le(self, x) -> int:
        """Number of stored values <= x (x may be -inf or inf; NaN raises)."""
        if isinstance(x, float) and x != x:
            raise ValueError("NaN is not queryable: it breaks rank semantics")
        return self._sl.bisect_right(x)

    def count_lt(self, x) -> int:
        if isinstance(x, float) and x != x:
            raise ValueError("NaN is not queryable: it breaks rank semantics")
        return self._sl.bisect_left(x)

    def cdf_at(self, x) -> tuple[float, float]:
        """(F^-(x), F(x)) = (#<x, #<=x) / count, in O(log count)."""
        t = len(self._sl)
        if t == 0:
            raise QueryError("empirical CDF is undefined for an empty distribution")
        return self.count_lt(x) / t, self.count_le(x) / t

    def upper_quantile(self, p) -> float:
        """Q_t(p): the floor(t p) + 1 order statistic."""
        t = len(self._sl)
        if t == 0:
            raise QueryError("sample quantile is undefined for an empty distribution")
        return self.order_stat(_level_floor(t, p) + 1)

    def lower_quantile(self, p) -> float:
        """Q^-_t(p): the ceil(t p) order statistic."""
        t = len(self._sl)
        if t == 0:
            raise QueryError("sample quantile is undefined for an empty distribution")
        return self.order_stat(_level_ceil(t, p))

    def min(self) -> float:
        return self.order_stat(1)

    def max(self) -> float:
        return self.order_stat(len(self._sl))

    # -- iteration ---------------------------------------------------------------

    def items(self) -> Iterator[tuple[float, int]]:
        """(value, multiplicity) pairs in increasing value order."""
        return _runs(self._sl)

    def __iter__(self) -> Iterator:
        return iter(self._sl)

    def items_between(self, lo, hi) -> Iterator[tuple[float, int]]:
        """(value, multiplicity) for distinct values in [lo, hi], in order."""
        return _runs(self._sl.irange(lo, hi))


class RankTracker:
    """The r-th smallest value of a growing stream, for a rank r given with each value.

    Two heaps split the stream: a max-heap (negated values) of the
    clamp(r, 0, t) smallest values and a min-heap of the rest, so the
    answer is the top of the first.  `add` moves tops across until the
    first heap holds clamp(r, 0, t) values: O(log t) per step when r moves
    by a bounded amount, as the rank tables of a confidence bound do.
    Out-of-range ranks read -inf / inf, as in `OrderedMultiset.order_stat`;
    of a run of equal values (0.0 and -0.0 included) any one may be read.
    """

    __slots__ = ("_below", "_above")

    def __init__(self):
        self._below = []
        self._above = []

    def add(self, x, r: int) -> float:
        """Insert x, then return the r-th smallest of everything inserted."""
        if x != x:
            raise ValueError("NaN is not insertable: it breaks rank semantics")
        below, above = self._below, self._above
        if below and x < -below[0]:
            heappush(below, -x)
        else:
            heappush(above, x)
        n = len(below) + len(above)
        k = 0 if r < 0 else n if r > n else r
        while len(below) > k:
            heappush(above, -heappop(below))
        while len(below) < k:
            heappush(below, -heappop(above))
        if r < 1:
            return -math.inf
        if r > n:
            return math.inf
        return -below[0]

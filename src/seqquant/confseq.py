"""Stateful confidence-sequence trackers.

Each tracker keeps what its queries read and a radius; bounds are always a
pair of realized order statistics or the floats -inf / inf, never
interpolated.  A radius is a function `radius(t, level)` that must accept a
numpy array of times as well as one time, such as
`lambda t, level: boundaries.beta_binomial_radius(t, level, r, alpha)`.
`FixedQuantileCS` shifts its fixed level by the radius, so both of its
bounds, and its point estimate, are order statistics whose ranks depend on t
alone; it tabulates those ranks in `RadiusSchedule` tables filled in
vectorized chunks (the `empdist.upper_ranks`/`lower_ranks` rule) and follows
each with an `empdist.RankTracker`, so an update reads all three in
O(log t).  `QuantileUniformCS` (whose level varies per query, over an
`OrderedMultiset`) and `CdfBand` (a list sorted stably at query) evaluate
radii per query.  `LilMethod` is the one radius kept as an object: it
resolves the iterated-logarithm constant C from alpha, and its type picks
the bracket of the uniform bound.  When a shifted level p +/- radius leaves
[0, 1] the rank leaves [1, t] and the bound is -inf or inf (no clamping to
extreme order statistics), which keeps coverage conservative.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import boundaries
from .boundaries import RadiusSchedule
from .empdist import (OrderedMultiset, RankTracker, lower_ranks, reject_nan, run_ends,
                      upper_ranks)
from .errors import ConfigurationError, QueryError

__all__ = [
    "rank_schedules",
    "LilMethod",
    "FixedQuantileCS",
    "QuantileUniformCS",
    "CdfBand",
]


def rank_schedules(lower_level: float, lower_radius, upper_level: float, upper_radius):
    """Rank tables of a fixed-level confidence sequence's two bounds.

    The lower bound is the upper sample quantile at lower_level -
    lower_radius(t), rank floor(t (lower_level - lower_radius(t))) + 1, and
    the upper bound the lower sample quantile at upper_level +
    upper_radius(t), rank ceil(t (upper_level + upper_radius(t))).  Both
    ranks depend on t alone, so each side is a `RadiusSchedule` of ranks;
    the first chunk of each is filled here, so a bad radius parameter fails
    before any observation is taken.
    """
    lower = RadiusSchedule(lambda t: upper_ranks(t, lower_level - lower_radius(t)))
    upper = RadiusSchedule(lambda t: lower_ranks(t, upper_level + upper_radius(t)))
    lower.at(1)
    upper.at(1)
    return lower, upper


class FixedQuantileCS:
    """Confidence sequence for the fixed p-quantile.

    The lower endpoint is the upper sample quantile at p - radius(t, 1-p) and
    the upper endpoint the lower sample quantile at p + radius(t, p); the two
    sides use the radius at mirrored levels because the underlying centered
    process has increments in [-p, 1-p].  Their ranks come from
    `rank_schedules`, the point estimate's (the upper sample quantile at p,
    rank floor(t p) + 1) from a third table, and each of the three is
    followed by a `RankTracker` that answers as the value is added; `update`
    stores the answers, which `bounds` and `point_estimate` return.  Values
    are taken as `float(x)`.

    A `RankTracker` may read any member of a run of equal values, and equal
    floats differ only in the sign of zero.  A sorted list puts each value
    after its equals, so its zeros stand in insertion order after the
    negative values: a zero read at rank r is replaced by the one the sorted
    order holds there, zeros[r - negatives - 1], so every bound shows the
    sign an `OrderedMultiset` read gives.  The running intersection of all
    bounds so far is kept as well, for `intersected_bounds`.
    """

    def __init__(self, p: float, method):
        boundaries._check_open_unit(p)
        boundaries._check_complement(p, "p")
        self.p = p
        self.method = method
        self._lower_rank, self._upper_rank = rank_schedules(
            p, lambda t: method(t, 1.0 - p), p, lambda t: method(t, p))
        self._point_rank = RadiusSchedule(lambda t: upper_ranks(t, p))
        self._lower_tracker, self._upper_tracker, self._point_tracker = (
            RankTracker(), RankTracker(), RankTracker())
        self._t = 0
        self._negatives = 0
        self._zeros = []
        self._lower = self._run_lower = -math.inf
        self._upper = self._run_upper = math.inf
        self._point = math.nan

    def __len__(self) -> int:
        return self._t

    def _add(self, tracker: RankTracker, r: int, x: float) -> float:
        """tracker.add(x, r), a zero read as the one the sorted order holds at rank r."""
        value = tracker.add(x, r)
        if value == 0.0:
            return self._zeros[r - self._negatives - 1]
        return value

    def update(self, x) -> tuple[float, float]:
        """Ingest one observation and return the instantaneous bounds."""
        x = float(x)
        reject_nan(x, "insertable")
        t = self._t = self._t + 1
        if x < 0.0:
            self._negatives += 1
        elif x == 0.0:
            self._zeros.append(x)
        lo = self._lower = self._add(self._lower_tracker, self._lower_rank.at(t), x)
        hi = self._upper = self._add(self._upper_tracker, self._upper_rank.at(t), x)
        self._point = self._add(self._point_tracker, self._point_rank.at(t), x)
        if self._run_lower < lo:
            self._run_lower = lo
        if hi < self._run_upper:
            self._run_upper = hi
        return lo, hi

    def bounds(self) -> tuple[float, float]:
        """The bounds at the last update; (-inf, inf) before the first."""
        return self._lower, self._upper

    def intersected_bounds(self) -> tuple[float, float, bool]:
        """Running intersection; the empty flag is evidence of violated assumptions."""
        empty = self._run_lower > self._run_upper
        return self._run_lower, self._run_upper, empty

    def point_estimate(self) -> float:
        """Q_t(p), the floor(t p) + 1 order statistic."""
        if not self._t:
            raise QueryError("sample quantile is undefined for an empty distribution")
        return self._point


@dataclass(frozen=True)
class LilMethod:
    """Level-independent iterated-logarithm radius g_t for the uniform band.

    C is `c_add` when given, else the smallest C whose crossing probability
    is at most alpha (`boundaries.lil_C`); it is resolved into `c_add`, and
    the parameters checked, when the method is built.
    """

    a_mult: float = boundaries.LIL_A
    c_add: float | None = None
    alpha: float = 0.05
    m_start: float = 1.0

    def __post_init__(self):
        if not 1.0 / math.sqrt(2.0) < self.a_mult < math.inf:
            raise ConfigurationError(f"a_mult must exceed 1/sqrt(2), got {self.a_mult}")
        if not 1.0 <= self.m_start < math.inf:
            raise ConfigurationError(f"m_start must be >= 1, got {self.m_start}")
        if self.c_add is None:
            object.__setattr__(self, "c_add", boundaries.lil_C(self.a_mult, self.alpha))
        elif not 0.0 < self.c_add < math.inf:
            raise ConfigurationError(f"c_add must be positive, got {self.c_add}")

    def radius(self, t, level: float | None = None):
        """g_t at time(s) t; the level is ignored, so this is a radius(t, level)."""
        return boundaries.lil_radius(t, self.a_mult, self.c_add, self.m_start)


class QuantileUniformCS:
    """Confidence sequences valid uniformly over time and all quantiles.

    `method` is a `LilMethod` or a radius(t, level) such as the
    double-stitch radius.  The two bracket with opposite sample-quantile
    sides: the iterated-logarithm bound uses [Q^-_t(p - g_t), Q_t(p + g_t)]
    while the double-stitch bound uses [Q_t(p - g~(1-p)/t), Q^-_t(p + g~(p)/t)];
    this asymmetry is exactly as the two results are stated.
    """

    def __init__(self, method):
        self.method = method
        self.data = OrderedMultiset()

    def update(self, x) -> int:
        return self.data.insert(x)

    def bounds(self, p: float) -> tuple[float, float]:
        boundaries._check_open_unit(p)
        t = len(self.data)
        if t == 0:
            return -math.inf, math.inf
        if isinstance(self.method, LilMethod):
            g = self.method.radius(t)
            return self.data.lower_quantile(p - g), self.data.upper_quantile(p + g)
        lower = self.data.upper_quantile(p - self.method(t, 1.0 - p))
        upper = self.data.lower_quantile(p + self.method(t, p))
        return lower, upper


class CdfBand:
    """Fixed-width confidence band for the CDF, uniform over time and x."""

    def __init__(self, a_mult: float = boundaries.LIL_A, alpha: float = 0.05, m_start: float = 1.0):
        self.method = LilMethod(a_mult=a_mult, alpha=alpha, m_start=m_start)
        self._values = []
        self._n_sorted = 0

    def __len__(self) -> int:
        return len(self._values)

    def update(self, x) -> int:
        reject_nan(x, "insertable")
        self._values.append(x)
        return len(self._values)

    def _sorted(self) -> list:
        """The values in order; the sort is stable, so equal values keep insertion order."""
        if self._n_sorted != len(self._values):
            self._values.sort()
            self._n_sorted = len(self._values)
        return self._values

    def half_width(self) -> float:
        return self.method.radius(len(self._values))

    def at(self, x) -> tuple[float, float]:
        """Band (lo, hi) at x, clamped into [0, 1]."""
        if not self._values:
            raise QueryError("empirical CDF is undefined for an empty distribution")
        reject_nan(x, "queryable")
        f = bisect_right(self._sorted(), x) / len(self._values)
        w = self.half_width()
        return max(0.0, f - w), min(1.0, f + w)

    def band(self) -> tuple[list, list, list, list]:
        """Step-function export: the columns x, ecdf, lo and hi, one entry per distinct value.

        One numpy pass over the sorted values.  `run_ends` finds the runs of
        equal values on an object array, so equality is Python's: 2**53 + 1 and 2.0**53,
        which one float64 cannot tell apart, stay two runs.  x is the first
        value of its run, the one inserted first (-0.0 or 0.0, whichever came
        first), and ecdf = (run end + 1) / t is the correctly rounded quotient
        of two integers below 2**53, as a running count over t is.  Every
        column is a list of Python values; before the first update all four
        are empty.
        """
        values = np.array(self._sorted(), dtype=object)
        t = len(values)
        if t == 0:
            return [], [], [], []
        ends = run_ends(values)
        starts = np.append(0, ends[:-1] + 1)
        f = (ends + 1) / t
        w = self.half_width()
        return (values[starts].tolist(), f.tolist(),
                np.maximum(0.0, f - w).tolist(), np.minimum(1.0, f + w).tolist())

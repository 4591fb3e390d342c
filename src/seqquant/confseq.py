"""Stateful confidence-sequence trackers.

Each tracker owns its observations (an OrderedMultiset, or in `CdfBand` a
list sorted stably at query) and a radius; bounds are always a pair of
realized order statistics or the floats -inf / inf, never interpolated.  A
radius is a function `radius(t, level)` that must accept a numpy array of
times as well as one time, such as
`lambda t, level: boundaries.beta_binomial_radius(t, level, r, alpha)`.
`FixedQuantileCS` shifts its fixed level by the radius, so both of its
bounds are order statistics whose ranks depend on t alone; it tabulates
those ranks in `RadiusSchedule` tables filled in vectorized chunks (the
`empdist.upper_ranks`/`lower_ranks` rule) and reads `order_stat` at each
update.  `QuantileUniformCS` (whose level varies per query) and `CdfBand`
evaluate radii per query.  `LilMethod` is the one radius kept as an object:
it resolves the iterated-logarithm constant C from alpha, and its type
picks the bracket of the uniform bound.  When a shifted level p +/- radius
leaves [0, 1] the rank leaves [1, t] and the bound is -inf or inf (no
clamping to extreme order statistics), which keeps coverage conservative.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import boundaries
from .boundaries import RadiusSchedule
from .empdist import OrderedMultiset, lower_ranks, upper_ranks
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
    `rank_schedules`.  The running intersection of all bounds so far is
    kept as well, for `intersected_bounds`.
    """

    def __init__(self, p: float, method):
        boundaries._check_open_unit(p)
        self.p = p
        self.method = method
        self._lower_rank, self._upper_rank = rank_schedules(
            p, lambda t: method(t, 1.0 - p), p, lambda t: method(t, p))
        self.data = OrderedMultiset()
        self._run_lower = -math.inf
        self._run_upper = math.inf

    def update(self, x) -> tuple[float, float]:
        """Ingest one observation and return the instantaneous bounds."""
        self.data.insert(x)
        lo, hi = self.bounds()
        if self._run_lower < lo:
            self._run_lower = lo
        if hi < self._run_upper:
            self._run_upper = hi
        return lo, hi

    def bounds(self) -> tuple[float, float]:
        t = len(self.data)
        if t == 0:
            return -math.inf, math.inf
        data = self.data
        return data.order_stat(self._lower_rank.at(t)), data.order_stat(self._upper_rank.at(t))

    def intersected_bounds(self) -> tuple[float, float, bool]:
        """Running intersection; the empty flag is evidence of violated assumptions."""
        empty = self._run_lower > self._run_upper
        return self._run_lower, self._run_upper, empty

    def point_estimate(self) -> float:
        return self.data.upper_quantile(self.p)


@dataclass(frozen=True)
class LilMethod:
    """Level-independent iterated-logarithm radius g_t for the uniform band.

    C is `c_add` when given, else the smallest C whose crossing probability
    is at most alpha (`boundaries.lil_C`); it is resolved into `c_add`, and
    the parameters checked, when the method is built.
    """

    a_mult: float = 0.85
    c_add: float | None = None
    alpha: float | None = 0.05
    m_start: float = 1.0

    def __post_init__(self):
        if not 1.0 / math.sqrt(2.0) < self.a_mult < math.inf:
            raise ConfigurationError(f"a_mult must exceed 1/sqrt(2), got {self.a_mult}")
        if not 1.0 <= self.m_start < math.inf:
            raise ConfigurationError(f"m_start must be >= 1, got {self.m_start}")
        if self.c_add is None:
            if self.alpha is None:
                raise ConfigurationError("LilMethod needs either c_add or alpha")
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

    def __init__(self, a_mult: float = 0.85, alpha: float | None = 0.05,
                 c_add: float | None = None, m_start: float = 1.0):
        self.method = LilMethod(a_mult=a_mult, c_add=c_add, alpha=alpha, m_start=m_start)
        self._values = []
        self._n_sorted = 0

    def __len__(self) -> int:
        return len(self._values)

    def update(self, x) -> int:
        if isinstance(x, float) and x != x:
            raise ValueError("NaN is not insertable: it breaks rank semantics")
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
        f = bisect_right(self._sorted(), x) / len(self._values)
        w = self.half_width()
        return max(0.0, f - w), min(1.0, f + w)

    def band(self) -> list[tuple[float, float, float, float]]:
        """Step-function export: (x, ecdf, lo, hi) at each distinct data point.

        One numpy pass over the sorted values.  Runs of equal values are found
        on an object array, so equality is Python's: 2**53 + 1 and 2.0**53,
        which one float64 cannot tell apart, stay two runs.  x is the first
        value of its run, the one inserted first (-0.0 or 0.0, whichever came
        first), and ecdf = (run end + 1) / t is the correctly rounded quotient
        of two integers below 2**53, as a running count over t is.
        """
        values = np.array(self._sorted(), dtype=object)
        t = len(values)
        if t == 0:
            return []
        ends = np.append(np.flatnonzero(values[1:] != values[:-1]), t - 1)
        starts = np.append(0, ends[:-1] + 1)
        f = (ends + 1) / t
        w = self.half_width()
        return list(zip(values[starts].tolist(), f.tolist(),
                        np.maximum(0.0, f - w).tolist(), np.minimum(1.0, f + w).tolist()))

"""Stateful confidence-sequence trackers.

Each tracker owns an OrderedMultiset and a radius method; bounds are always a
pair of realized order statistics or infinity sentinels, never interpolated.
A method's `radius(t, level)` must accept a numpy array of times as well as
one time: `FixedQuantileCS` reads its two radii from `RadiusSchedule`
tables filled in vectorized chunks, while `QuantileUniformCS` (whose level
varies per query) and `CdfBand` evaluate radii per query.  When a shifted
level p +/- radius leaves [0, 1] the sentinel convention applies (no clamping
to extreme order statistics), which keeps coverage conservative.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import boundaries
from .boundaries import DoubleStitchConfig, RadiusSchedule, StitchConfig
from .empdist import NEG_INF, POS_INF, Extended, OrderedMultiset
from .errors import ConfigurationError, StateError

__all__ = [
    "StitchedSimpleMethod",
    "StitchedMethod",
    "BetaBinomialMethod",
    "NormalMixtureMethod",
    "LilMethod",
    "DoubleStitchMethod",
    "FixedQuantileCS",
    "QuantileUniformCS",
    "CdfBand",
]


@dataclass(frozen=True)
class StitchedSimpleMethod:
    """Closed-form stitched radius with conservatively rounded constants."""

    alpha: float = 0.05

    def radius(self, t: int, level: float) -> float:
        return boundaries.stitched_radius_simple(t, level, self.alpha)


@dataclass(frozen=True)
class StitchedMethod:
    config: StitchConfig

    def radius(self, t: int, level: float) -> float:
        return boundaries.stitched_radius(t, level, self.config)


@dataclass(frozen=True)
class BetaBinomialMethod:
    r: float
    alpha: float = 0.05

    def radius(self, t: int, level: float) -> float:
        return boundaries.beta_binomial_radius(t, level, self.r, self.alpha)


@dataclass(frozen=True)
class NormalMixtureMethod:
    """Sub-Gaussian mixture radius; lacks the sqrt(p(1-p)) level dependence."""

    r: float
    alpha: float = 0.05

    def radius(self, t: int, level: float) -> float:
        return boundaries.normal_mixture_radius(t, self.r, self.alpha)


class FixedQuantileCS:
    """Confidence sequence for the fixed p-quantile.

    The lower endpoint is the upper sample quantile at p - radius(t, 1-p) and
    the upper endpoint the lower sample quantile at p + radius(t, p); the two
    sides use the radius at mirrored levels because the underlying centered
    process has increments in [-p, 1-p].  Both radii depend on t alone, so
    each side keeps a `RadiusSchedule` of them.
    """

    def __init__(self, p: float, method, intersect: bool = False):
        if not 0.0 < p < 1.0:
            raise ConfigurationError(f"p must lie in (0, 1), got {p}")
        self.p = p
        self.method = method
        self.intersect = intersect
        self._lower_radius = RadiusSchedule(lambda t: method.radius(t, 1.0 - p))
        self._upper_radius = RadiusSchedule(lambda t: method.radius(t, p))
        self.data = OrderedMultiset()
        self._run_lower: Extended = NEG_INF
        self._run_upper: Extended = POS_INF

    def update(self, x) -> tuple[Extended, Extended]:
        """Ingest one observation and return the instantaneous bounds."""
        self.data.insert(x)
        lo, hi = self.bounds()
        if self.intersect:
            if self._run_lower < lo:
                self._run_lower = lo
            if hi < self._run_upper:
                self._run_upper = hi
        return lo, hi

    def bounds(self) -> tuple[Extended, Extended]:
        t = len(self.data)
        if t == 0:
            return NEG_INF, POS_INF
        lower = self.data.upper_quantile(self.p - self._lower_radius.at(t))
        upper = self.data.lower_quantile(self.p + self._upper_radius.at(t))
        return lower, upper

    def intersected_bounds(self) -> tuple[Extended, Extended, bool]:
        """Running intersection; the empty flag is evidence of violated assumptions."""
        if not self.intersect:
            raise StateError("intersected bounds require the tracker's intersect flag")
        empty = self._run_lower > self._run_upper
        return self._run_lower, self._run_upper, empty

    def point_estimate(self) -> Extended:
        return self.data.upper_quantile(self.p)


@dataclass(frozen=True)
class LilMethod:
    """Level-independent iterated-logarithm radius g_t for the uniform band."""

    a_mult: float = 0.85
    c_add: float | None = None
    alpha: float | None = 0.05
    m_start: float = 1.0

    def resolved_c(self) -> float:
        if self.c_add is not None:
            return self.c_add
        if self.alpha is None:
            raise ConfigurationError("LilMethod needs either c_add or alpha")
        return boundaries.lil_C(self.a_mult, self.alpha)

    def radius(self, t: int) -> float:
        return boundaries.lil_radius(t, self.a_mult, self.resolved_c(), self.m_start)


@dataclass(frozen=True)
class DoubleStitchMethod:
    config: DoubleStitchConfig

    def radius(self, t: int, level: float) -> float:
        return boundaries.double_stitch_radius(t, level, self.config)


class QuantileUniformCS:
    """Confidence sequences valid uniformly over time and all quantiles.

    The two available methods bracket with opposite sample-quantile sides:
    the iterated-logarithm bound uses [Q^-_t(p - g_t), Q_t(p + g_t)] while
    the double-stitch bound uses [Q_t(p - g~(1-p)/t), Q^-_t(p + g~(p)/t)];
    this asymmetry is exactly as the two results are stated.
    """

    def __init__(self, method):
        self.method = method
        self.data = OrderedMultiset()

    def update(self, x) -> int:
        return self.data.insert(x)

    def bounds(self, p: float) -> tuple[Extended, Extended]:
        if not 0.0 < p < 1.0:
            raise ConfigurationError(f"p must lie in (0, 1), got {p}")
        t = len(self.data)
        if t == 0:
            return NEG_INF, POS_INF
        if isinstance(self.method, LilMethod):
            g = self.method.radius(t)
            return self.data.lower_quantile(p - g), self.data.upper_quantile(p + g)
        lower = self.data.upper_quantile(p - self.method.radius(t, 1.0 - p))
        upper = self.data.lower_quantile(p + self.method.radius(t, p))
        return lower, upper


class CdfBand:
    """Fixed-width confidence band for the CDF, uniform over time and x."""

    def __init__(self, a_mult: float = 0.85, alpha: float | None = 0.05,
                 c_add: float | None = None, m_start: float = 1.0):
        self.method = LilMethod(a_mult=a_mult, c_add=c_add, alpha=alpha, m_start=m_start)
        self.data = OrderedMultiset()

    def update(self, x) -> int:
        return self.data.insert(x)

    def half_width(self) -> float:
        return self.method.radius(len(self.data))

    def at(self, x) -> tuple[float, float]:
        """Band (lo, hi) at x, clamped into [0, 1]."""
        _, f = self.data.cdf_at(x)
        w = self.half_width()
        return max(0.0, f - w), min(1.0, f + w)

    def band(self) -> list[tuple[float, float, float, float]]:
        """Step-function export: (x, ecdf, lo, hi) at each distinct data point."""
        t = len(self.data)
        if t == 0:
            return []
        w = self.half_width()
        rows = []
        seen = 0
        for v, c in self.data.items():
            seen += c
            f = seen / t
            rows.append((v, f, max(0.0, f - w), min(1.0, f + w)))
        return rows

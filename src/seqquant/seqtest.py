"""Sequential hypothesis tests built on the mixture supermartingales.

Two-sample quantile tests combine one evidence process per arm into a product
supermartingale; the reported statistic is the minimum over thresholds x of
the summed log evidence, computed exactly by scanning a finite candidate set
instead of a grid.  Also includes always-valid p-values for a multi-treatment
global null and sequential Kolmogorov-Smirnov / stochastic-dominance tests.

The minimization candidates are the shifted second-arm observations: the
objective G_1(x) + G_2(x + d) only steps downward where x + d crosses an
observation of arm 2, i.e. at x = X_{2,s} - d (together with the two interval
endpoints derived from the per-arm argmin quantiles).

Test states hold real numbers.  Every statistic is computed by one numpy
kernel on sorted float snapshots of the arms, taken at evaluation time:
empirical CDFs are `searchsorted` counts, out-of-range order statistics are
-inf/+inf as in `OrderedMultiset.order_stat`, and all candidates go through
one vectorized mixture call per arm.  Each candidate is evaluated with the
same IEEE operations as the per-x `GEvaluator`, so the kernels return the
bits a scan over the multiset would.  The minimizing level a* depends only
on (n, p, r) and is tabulated over n per (p, r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import boundaries
from .boundaries import beta_binomial_log_mixture, one_sided_log_mixture
from .confseq import LilMethod
from .empdist import OrderedMultiset, _level_ceil, _level_floor, lower_ranks, upper_ranks
from .errors import ConfigurationError, PairingError, StateError
from .specfun import golden_section_min

__all__ = [
    "GEvaluator",
    "AbTestState",
    "TestResult",
    "global_null_pvalue",
    "global_null_result",
    "KsTestState",
    "KsResult",
    "ab_vs_naive_benchmark",
]


class TestResult(NamedTuple):
    stat: float
    pvalue: float
    reject: bool


def _pvalue(stat: float) -> float:
    if stat <= 0.0:
        return 1.0
    return min(1.0, math.exp(-stat))


def _check_mixture_params(p: float, r: float) -> None:
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"p must lie in (0, 1), got {p}")
    if not 0.0 < r < math.inf:
        raise ConfigurationError(f"r must be positive, got {r}")


def _astar(n, p: float, r: float) -> np.ndarray:
    """a* at each count of the array n: the argmin of log M_{p,r}((a-p)n, p(1-p)n) over [0, 1].

    One vectorized golden-section search whose elements equal scalar
    searches at their n bit for bit.
    """
    n = np.asarray(n, dtype=float)
    v = p * (1.0 - p) * n
    return golden_section_min(
        lambda a, i: beta_binomial_log_mixture((a - p) * n[i], v[i], p, r),
        np.zeros_like(n), np.ones_like(n), tol=1e-10,
    )


@lru_cache(maxsize=64)
def _astar_table(p: float, r: float) -> boundaries.RadiusSchedule:
    """a* by count for one (p, r); entry t holds a* at n = t - 1, so n = 0 is covered."""
    return boundaries.RadiusSchedule(lambda t: _astar(t - 1.0, p, r))


class GEvaluator:
    """Per-arm log evidence against the premise that the p-quantile equals x.

    The level a* minimizing log M_{p,r}((a-p)N, p(1-p)N) over [0, 1] is read
    from the a* table of (p, r) at the arm's current count.  Each query is
    then O(log N): the minimizing level inside [F^-(x), F(x)] is a* clamped
    into that interval.
    """

    def __init__(self, arm: OrderedMultiset, p: float, r: float):
        _check_mixture_params(p, r)
        self.arm = arm
        self.p = p
        self.r = r

    def _n_v(self) -> tuple[int, float]:
        n = len(self.arm)
        return n, self.p * (1.0 - self.p) * n

    @property
    def astar(self) -> float:
        return _astar_table(self.p, self.r).at(len(self.arm) + 1)

    def two_sided(self, x) -> float:
        """G(x) = min over a in [F^-(x), F(x)] of log M_{p,r}((a-p)N, p(1-p)N)."""
        n, v = self._n_v()
        if n == 0:
            return 0.0
        f_minus, f = self.arm.cdf_at(x)
        a = min(max(self.astar, f_minus), f)
        return beta_binomial_log_mixture((a - self.p) * n, v, self.p, self.r)

    def one_sided_plus(self, x) -> float:
        """G+(x): nondecreasing in x."""
        n, v = self._n_v()
        if n == 0:
            return 0.0
        f_minus, _ = self.arm.cdf_at(x)
        return one_sided_log_mixture((f_minus - self.p) * n, v, self.p, self.r)

    def one_sided_minus(self, x) -> float:
        """G-(x): nonincreasing in x."""
        n, v = self._n_v()
        if n == 0:
            return 0.0
        _, f = self.arm.cdf_at(x)
        return one_sided_log_mixture(-(f - self.p) * n, v, 1.0 - self.p, self.r)


# ---------------------------------------------------------------------------
# evidence kernels on sorted float arrays
# ---------------------------------------------------------------------------


def _snapshot(arm: OrderedMultiset) -> np.ndarray:
    """The arm's values as a sorted float array."""
    return np.fromiter(arm, dtype=float, count=len(arm))


def _distinct(data: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array, in order."""
    if data.size < 2:
        return data
    return data[np.concatenate(([True], data[1:] != data[:-1]))]


def _order_stat(data: np.ndarray, k: int) -> float:
    """k-th smallest value of a sorted array; -inf for k < 1, +inf for k > len(data)."""
    if k < 1:
        return -math.inf
    if k > len(data):
        return math.inf
    return float(data[k - 1])


def _sorted_g2(xs, data: np.ndarray, astar: float, p: float, r: float):
    """Vector of two-sided G values over query points xs for one sorted arm."""
    n = len(data)
    v = p * (1.0 - p) * n
    f_minus = np.searchsorted(data, xs, side="left") / n
    f = np.searchsorted(data, xs, side="right") / n
    a = np.minimum(np.maximum(astar, f_minus), f)
    return beta_binomial_log_mixture((a - p) * n, v, p, r)


def _directed_two_sided(a: np.ndarray, a_star: float, b: np.ndarray, b_star: float,
                        p: float, r: float, shift: float) -> float:
    """min over x of G_a(x) + G_b(x + shift), assuming Q_a(a*_a) <= Q_b(a*_b) - shift.

    The candidates are x_minus = Q_a(a*_a), x_plus = Q^-_b(a*_b) - shift and
    every distinct w of arm b in [x_minus + shift, Q^-_b(a*_b)] at x = w - shift.
    The b side is evaluated at w itself so float cancellation cannot lose
    the atom.
    """
    x_minus = _order_stat(a, _level_floor(len(a), a_star) + 1)
    b_hi = _order_stat(b, _level_ceil(len(b), b_star))
    x_plus = b_hi - shift
    lo = np.searchsorted(b, x_minus + shift, side="left")
    hi = np.searchsorted(b, b_hi, side="right")
    w = _distinct(b[lo:hi])
    vals = (_sorted_g2(np.concatenate(([x_minus, x_plus], w - shift)), a, a_star, p, r)
            + _sorted_g2(np.concatenate(([x_minus + shift, b_hi], w)), b, b_star, p, r))
    if x_plus < x_minus:
        # The objective is nonincreasing up to x_minus and already
        # nondecreasing there; the minimum sits at x_minus.
        return float(vals[0])
    return float(np.min(vals))


def _sorted_two_sided_stat(x1: np.ndarray, x2: np.ndarray, p: float, r: float,
                           delta_star: float, astars: tuple[float, float] | None = None) -> float:
    """min over x of G_1(x) + G_2(x + delta_star) on sorted arrays.

    astars is (a*_1, a*_2), read from the a* table of (p, r) when omitted.
    The arm whose argmin quantile lies lower, after the shift, is the one
    scanned from.
    """
    if astars is None:
        table = _astar_table(p, r)
        astars = (table.at(len(x1) + 1), table.at(len(x2) + 1))
    a1, a2 = astars
    q1 = _order_stat(x1, _level_floor(len(x1), a1) + 1)
    q2 = _order_stat(x2, _level_floor(len(x2), a2) + 1)
    if q1 <= q2 - delta_star:
        return _directed_two_sided(x1, a1, x2, a2, p, r, delta_star)
    return _directed_two_sided(x2, a2, x1, a1, p, r, -delta_star)


def _sorted_one_sided_stat(a: np.ndarray, b: np.ndarray, p: float, r: float,
                           shift: float) -> float:
    """min over x of G+_a(x) + G-_b(x + shift) on sorted arrays.

    G+_a is nondecreasing and G-_b nonincreasing, and the sum only steps down
    where x + shift reaches a value of b: the candidates are x = -inf and
    x = w - shift for every distinct w of arm b.
    """
    w = np.concatenate(([-math.inf], _distinct(b)))
    na, nb = len(a), len(b)
    f_minus = np.searchsorted(a, w - shift, side="left") / na
    f = np.searchsorted(b, w, side="right") / nb
    plus = one_sided_log_mixture((f_minus - p) * na, p * (1.0 - p) * na, p, r)
    minus = one_sided_log_mixture(-(f - p) * nb, p * (1.0 - p) * nb, 1.0 - p, r)
    return float(np.min(plus + minus))


class AbTestState:
    """Two-arm sequential quantile test state.

    Tests H0: Q_2(p) - Q_1(p) = delta_star (two-sided) or <= delta_star
    (one-sided) at level alpha, with always-valid p-values.
    """

    def __init__(self, p: float, r: float, delta_star: float = 0.0, alpha: float = 0.05):
        _check_mixture_params(p, r)
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
        if not math.isfinite(delta_star):
            raise ConfigurationError(f"delta_star must be finite, got {delta_star}")
        self.p = p
        self.r = r
        self.delta_star = delta_star
        self.alpha = alpha
        self.arm1 = OrderedMultiset()
        self.arm2 = OrderedMultiset()

    def add(self, arm: int, x: float) -> None:
        if arm == 1:
            self.arm1.insert(x)
        elif arm == 2:
            self.arm2.insert(x)
        else:
            raise StateError(f"arm must be 1 or 2, got {arm}")

    def _snapshots(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self.arm1) == 0 or len(self.arm2) == 0:
            raise StateError("both arms need at least one observation")
        return _snapshot(self.arm1), _snapshot(self.arm2)

    def _result(self, stat: float) -> TestResult:
        return TestResult(stat, _pvalue(stat), stat >= math.log(1.0 / self.alpha))

    def two_sided(self) -> TestResult:
        """min_x [G_1(x) + G_2(x + delta_star)] versus log(1/alpha)."""
        x1, x2 = self._snapshots()
        return self._result(_sorted_two_sided_stat(x1, x2, self.p, self.r, self.delta_star))

    def one_sided(self) -> TestResult:
        """min_x [G+_1(x) + G-_2(x + delta_star)] versus log(1/alpha)."""
        x1, x2 = self._snapshots()
        return self._result(_sorted_one_sided_stat(x1, x2, self.p, self.r, self.delta_star))


def _global_null_best_stat(
    control: OrderedMultiset,
    treatments: Sequence[OrderedMultiset],
    p: float,
    r: float,
) -> float:
    if len(treatments) < 1:
        raise ValueError("global null requires at least one treatment arm")
    if len(control) == 0 or any(len(a) == 0 for a in treatments):
        raise StateError("all arms need at least one observation")
    _check_mixture_params(p, r)
    c = _snapshot(control)
    return max(_sorted_one_sided_stat(c, _snapshot(arm), p, r, 0.0) for arm in treatments)


def global_null_pvalue(
    control: OrderedMultiset,
    treatments: Sequence[OrderedMultiset],
    p: float,
    r: float,
) -> float:
    """Always-valid p-value for H0: the control quantile is >= every treatment's.

    Bonferroni combination (K - 1) exp(-max_k min_x [G+_1(x) + G-_k(x)]),
    clamped to 1.
    """
    return global_null_result(control, treatments, p, r).pvalue


def global_null_result(
    control: OrderedMultiset,
    treatments: Sequence[OrderedMultiset],
    p: float,
    r: float,
    alpha: float = 0.05,
) -> TestResult:
    """Statistic, p-value, and rejection for the Bonferroni global null."""
    best = _global_null_best_stat(control, treatments, p, r)
    pval = 1.0 if best <= 0.0 else min(1.0, len(treatments) * math.exp(-best))
    return TestResult(best, pval, pval <= alpha)


# ---------------------------------------------------------------------------
# sequential Kolmogorov-Smirnov tests
# ---------------------------------------------------------------------------


class KsResult(NamedTuple):
    t: int
    stat: float
    threshold: float
    reject: bool


class KsTestState:
    """Sequential one-sample, two-sample, and stochastic-dominance KS tests.

    Thresholds follow the iterated-logarithm band `lil`, a `LilMethod` whose
    constant C(A, .) inverts the band's crossing probability: one-sample
    uses C(A, alpha) with width g_t, the paired modes use width 2 g_t with
    C(A, alpha/2) for two_sample and C(A, alpha) for dominance (one-sided
    bands suffice there).

    Dominance tests H0: F1 <= F2 pointwise and rejects on evidence that
    F1(x) > F2(x) somewhere, i.e. when sup_x [F1(x) - F2(x)] strictly exceeds
    the one-sided band width (the classical one-sided two-sample statistic;
    an infimum of the difference is at most k/t near the pooled minimum and
    vanishes in the tails, so it could never meet a positive threshold).
    """

    MODES = ("one_sample", "two_sample", "dominance")

    def __init__(
        self,
        mode: str,
        f0: Callable[[float], float] | None = None,
        a_mult: float = 0.85,
        alpha: float = 0.05,
        m_start: float = 1.0,
    ):
        if mode not in self.MODES:
            raise ConfigurationError(f"mode must be one of {self.MODES}, got {mode!r}")
        if mode == "one_sample" and f0 is None:
            raise ConfigurationError("one_sample mode requires a reference CDF f0")
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
        self.mode = mode
        self.f0 = f0
        self.a_mult = a_mult
        self.alpha = alpha
        self.m_start = m_start
        self.lil = LilMethod(a_mult=a_mult, alpha=alpha / 2.0 if mode == "two_sample" else alpha,
                             m_start=m_start)
        self.sample1 = OrderedMultiset()
        self.sample2 = OrderedMultiset()

    def add(self, x: float, sample: int = 1) -> None:
        if sample == 1:
            self.sample1.insert(x)
        elif sample == 2:
            if self.mode == "one_sample":
                raise StateError("one_sample mode has a single sample")
            self.sample2.insert(x)
        else:
            raise StateError(f"sample must be 1 or 2, got {sample}")

    def threshold(self, t: int) -> float:
        g = self.lil.radius(t)
        return g if self.mode == "one_sample" else 2.0 * g

    def evaluate(self) -> KsResult:
        if self.mode == "one_sample":
            t = len(self.sample1)
            if t == 0:
                raise StateError("no data")
            # F - F0 and F0 - F^- peak at the distinct values; F0 is called
            # once per value through the scalar reference
            x = _snapshot(self.sample1)
            v = _distinct(x)
            f0 = np.fromiter(map(self.f0, v.tolist()), dtype=float, count=len(v))
            gap = np.maximum(np.searchsorted(x, v, side="right") / t - f0,
                             f0 - np.searchsorted(x, v, side="left") / t)
            stat = max(0.0, float(np.max(gap)))
            thr = self.threshold(t)
            return KsResult(t, stat, thr, stat > thr)
        t1, t2 = len(self.sample1), len(self.sample2)
        if t1 != t2:
            raise PairingError(f"paired modes need equal counts, got {t1} and {t2}")
        if t1 == 0:
            raise StateError("no data")
        t = t1
        thr = self.threshold(t)
        # F1 - F2 steps only at pooled values, where both ECDFs are counts <= x
        x1, x2 = _snapshot(self.sample1), _snapshot(self.sample2)
        pooled = np.concatenate((x1, x2))
        diff = (np.searchsorted(x1, pooled, side="right") / t
                - np.searchsorted(x2, pooled, side="right") / t)
        if self.mode == "two_sample":
            diff = np.abs(diff)
        # dominance: one-sided supremum of F1 - F2, strict exceedance to reject
        stat = max(0.0, float(np.max(diff)))
        return KsResult(t, stat, thr, stat > thr)


# ---------------------------------------------------------------------------
# test versus naive confidence sequences (simulation)
# ---------------------------------------------------------------------------


def _naive_disjoint(x1: np.ndarray, x2: np.ndarray, k_lo: int, k_hi: int) -> bool:
    """Whether the per-arm CS intervals [X_(k_lo), X_(k_hi)] are disjoint (sorted, equal sizes)."""
    return (_order_stat(x1, k_hi) < _order_stat(x2, k_lo)
            or _order_stat(x2, k_hi) < _order_stat(x1, k_lo))


def _check_schedule(max_pairs: int) -> list[int]:
    """Every pair count up to 64, then 5% geometric growth."""
    out = list(range(1, min(64, max_pairs) + 1))
    n = 64
    while n < max_pairs:
        n = max(n + 1, int(n * 1.05))
        out.append(min(n, max_pairs))
    return sorted(set(out))


@dataclass(frozen=True)
class AbBenchmarkRow:
    scenario: str
    pi: float
    runs: int
    mean_t_test: float
    mean_t_naive: float
    ratio: float
    capped_test: int
    capped_naive: int


def ab_vs_naive_benchmark(
    scenario: str = "uniform_shift",
    pi: float = 0.5,
    alpha: float = 0.05,
    runs: int = 32,
    seed: int = 0,
    eps: float = 0.025,
    max_pairs: int = 200_000,
    tune_m: float = 32.0,
) -> AbBenchmarkRow:
    """Mean stopping sample size: two-sided quantile test vs naive disjoint CS.

    Two arms are sampled in alternation from the requested scenario (one
    baseline arm plus its shifted/scaled counterpart); the sequential test
    stops when it rejects equality of the pi-quantile, the naive strategy
    when per-arm beta-binomial confidence sequences at alpha/2 become
    disjoint.  Both rules are evaluated on the same checkpoint schedule, and
    stopping times are reported as total samples (2x the pair count).
    """
    if runs < 1:
        raise ConfigurationError("runs must be >= 1")
    if max_pairs < 1:
        raise ConfigurationError("max_pairs must be >= 1")
    from . import bandit  # deferred to keep module import cheap

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
        u1 = (rng.integers(1, 1 << 53, size=max_pairs) / float(1 << 53))
        u2 = (rng.integers(1, 1 << 53, size=max_pairs) / float(1 << 53))
        x1_all = arms[0].quantile(u1)
        x2_all = arms[1].quantile(u2)
        stop_test = stop_naive = None
        for n, a_star, k_lo, k_hi in zip(schedule, astars, naive_lo_ranks, naive_hi_ranks):
            x1 = np.sort(x1_all[:n])
            x2 = np.sort(x2_all[:n])
            if stop_test is None:
                stat = _sorted_two_sided_stat(x1, x2, pi, r_test, 0.0, (a_star, a_star))
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
    return AbBenchmarkRow(
        scenario=scenario,
        pi=pi,
        runs=runs,
        mean_t_test=mean_test,
        mean_t_naive=mean_naive,
        ratio=mean_test / mean_naive,
        capped_test=capped_test,
        capped_naive=capped_naive,
    )

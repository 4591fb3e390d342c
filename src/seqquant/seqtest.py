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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import boundaries
from .boundaries import beta_binomial_log_mixture, lil_C, lil_radius, one_sided_log_mixture
from .empdist import NEG_INF, OrderedMultiset, _level_ceil, _level_floor
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


class GEvaluator:
    """Per-arm log evidence against the premise that the p-quantile equals x.

    Caches the level a* minimizing log M_{p,r}((a-p)N, p(1-p)N) over [0, 1];
    the cache is invalidated whenever the arm's count changes.  Each query is
    then O(log N): the minimizing level inside [F^-(x), F(x)] is a* clamped
    into that interval.
    """

    def __init__(self, arm: OrderedMultiset, p: float, r: float):
        if not 0.0 < p < 1.0:
            raise ConfigurationError(f"p must lie in (0, 1), got {p}")
        if r <= 0.0:
            raise ConfigurationError(f"r must be positive, got {r}")
        self.arm = arm
        self.p = p
        self.r = r
        self._astar_n = -1
        self._astar = p

    def _n_v(self) -> tuple[int, float]:
        n = len(self.arm)
        return n, self.p * (1.0 - self.p) * n

    @property
    def astar(self) -> float:
        n, v = self._n_v()
        if n != self._astar_n:
            p, r = self.p, self.r
            self._astar = golden_section_min(
                lambda a: beta_binomial_log_mixture((a - p) * n, v, p, r), 0.0, 1.0, tol=1e-10
            )
            self._astar_n = n
        return self._astar

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


def _min_sum_two_sided(ev_a: GEvaluator, ev_b: GEvaluator, shift: float) -> float:
    """min over x of G_a(x) + G_b(x + shift), assuming Q_a(a*_a) <= Q_b(a*_b) - shift.

    Evaluations at shifted arm-b observations use the stored value exactly on
    the b side to avoid losing the atom to float cancellation.
    """
    x_minus = ev_a.arm.upper_quantile(ev_a.astar)
    b_hi = ev_b.arm.lower_quantile(ev_b.astar)
    x_plus = b_hi - shift
    best = ev_a.two_sided(x_minus) + ev_b.two_sided(x_minus + shift)
    if x_plus < x_minus:
        # The objective is nonincreasing up to x_minus and already
        # nondecreasing there; the minimum sits at x_minus.
        return best
    best = min(best, ev_a.two_sided(x_plus) + ev_b.two_sided(b_hi))
    for w, _ in ev_b.arm.items_between(x_minus + shift, b_hi):
        cand = ev_a.two_sided(w - shift) + ev_b.two_sided(w)
        if cand < best:
            best = cand
    return best


def _min_sum_one_sided(ev_a: GEvaluator, ev_b: GEvaluator, shift: float) -> float:
    """min over x of G+_a(x) + G-_b(x + shift): nondecreasing plus nonincreasing."""
    best = ev_a.one_sided_plus(NEG_INF) + ev_b.one_sided_minus(NEG_INF)
    for w, _ in ev_b.arm.items():
        cand = ev_a.one_sided_plus(w - shift) + ev_b.one_sided_minus(w)
        if cand < best:
            best = cand
    return best


class AbTestState:
    """Two-arm sequential quantile test state.

    Tests H0: Q_2(p) - Q_1(p) = delta_star (two-sided) or <= delta_star
    (one-sided) at level alpha, with always-valid p-values.
    """

    def __init__(self, p: float, r: float, delta_star: float = 0.0, alpha: float = 0.05):
        if not 0.0 < p < 1.0:
            raise ConfigurationError(f"p must lie in (0, 1), got {p}")
        if r <= 0.0:
            raise ConfigurationError(f"r must be positive, got {r}")
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
        self.p = p
        self.r = r
        self.delta_star = delta_star
        self.alpha = alpha
        self.arm1 = OrderedMultiset()
        self.arm2 = OrderedMultiset()
        self._ev1 = GEvaluator(self.arm1, p, r)
        self._ev2 = GEvaluator(self.arm2, p, r)

    def add(self, arm: int, x: float) -> None:
        if arm == 1:
            self.arm1.insert(x)
        elif arm == 2:
            self.arm2.insert(x)
        else:
            raise StateError(f"arm must be 1 or 2, got {arm}")

    def _require_data(self) -> None:
        if len(self.arm1) == 0 or len(self.arm2) == 0:
            raise StateError("both arms need at least one observation")

    def two_sided(self) -> TestResult:
        """min_x [G_1(x) + G_2(x + delta_star)] versus log(1/alpha)."""
        self._require_data()
        d = self.delta_star
        if self._ev1.arm.upper_quantile(self._ev1.astar) <= (
            self._ev2.arm.upper_quantile(self._ev2.astar) - d
        ):
            stat = _min_sum_two_sided(self._ev1, self._ev2, d)
        else:
            stat = _min_sum_two_sided(self._ev2, self._ev1, -d)
        return TestResult(stat, _pvalue(stat), stat >= math.log(1.0 / self.alpha))

    def one_sided(self) -> TestResult:
        """min_x [G+_1(x) + G-_2(x + delta_star)] versus log(1/alpha)."""
        self._require_data()
        stat = _min_sum_one_sided(self._ev1, self._ev2, self.delta_star)
        return TestResult(stat, _pvalue(stat), stat >= math.log(1.0 / self.alpha))


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
    ev_c = GEvaluator(control, p, r)
    best = -math.inf
    for arm in treatments:
        stat = _min_sum_one_sided(ev_c, GEvaluator(arm, p, r), 0.0)
        if stat > best:
            best = stat
    return best


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


def _merged_cdf_steps(s1: OrderedMultiset, s2: OrderedMultiset):
    """Yield (value, F1, F2) at each distinct pooled value, in order."""
    n1, n2 = len(s1), len(s2)
    it1 = iter(s1.items())
    it2 = iter(s2.items())
    a = next(it1, None)
    b = next(it2, None)
    c1 = c2 = 0
    while a is not None or b is not None:
        if b is None or (a is not None and a[0] <= b[0]):
            v = a[0]
            c1 += a[1]
            if b is not None and b[0] == v:
                c2 += b[1]
                b = next(it2, None)
            a = next(it1, None)
        else:
            v = b[0]
            c2 += b[1]
            b = next(it2, None)
        yield v, c1 / n1, c2 / n2


class KsTestState:
    """Sequential one-sample, two-sample, and stochastic-dominance KS tests.

    Thresholds follow the iterated-logarithm band with the constant C(A, .)
    obtained by numerically inverting the band's crossing probability:
    one-sample uses C(A, alpha) with width A sqrt(.), the paired modes use
    width 2A sqrt(.) with C(A, alpha/2) for two_sample and C(A, alpha) for
    dominance (one-sided bands suffice there).

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
        if self.mode == "one_sample":
            c = lil_C(self.a_mult, self.alpha)
            return lil_radius(t, self.a_mult, c, self.m_start)
        if self.mode == "two_sample":
            c = lil_C(self.a_mult, self.alpha / 2.0)
        else:
            c = lil_C(self.a_mult, self.alpha)
        return 2.0 * lil_radius(t, self.a_mult, c, self.m_start)

    def evaluate(self) -> KsResult:
        if self.mode == "one_sample":
            t = len(self.sample1)
            if t == 0:
                raise StateError("no data")
            stat = 0.0
            seen = 0
            for v, c in self.sample1.items():
                f_minus = seen / t
                seen += c
                f = seen / t
                f0v = float(self.f0(v))
                gap = max(f - f0v, f0v - f_minus)
                if gap > stat:
                    stat = gap
            thr = self.threshold(t)
            return KsResult(t, stat, thr, stat > thr)
        t1, t2 = len(self.sample1), len(self.sample2)
        if t1 != t2:
            raise PairingError(f"paired modes need equal counts, got {t1} and {t2}")
        if t1 == 0:
            raise StateError("no data")
        t = t1
        thr = self.threshold(t)
        if self.mode == "two_sample":
            stat = 0.0
            for _, f1, f2 in _merged_cdf_steps(self.sample1, self.sample2):
                gap = abs(f1 - f2)
                if gap > stat:
                    stat = gap
            return KsResult(t, stat, thr, stat > thr)
        # dominance: one-sided supremum of F1 - F2, strict exceedance to reject
        stat = 0.0
        for _, f1, f2 in _merged_cdf_steps(self.sample1, self.sample2):
            gap = f1 - f2
            if gap > stat:
                stat = gap
        return KsResult(t, stat, thr, stat > thr)


# ---------------------------------------------------------------------------
# fast evaluation on sorted arrays (simulation / benchmark internals)
# ---------------------------------------------------------------------------


def _sorted_astar(n: int, p: float, r: float, cache: dict | None = None) -> float:
    if cache is not None and n in cache:
        return cache[n]
    v = p * (1.0 - p) * n
    out = golden_section_min(
        lambda a: beta_binomial_log_mixture((a - p) * n, v, p, r), 0.0, 1.0, tol=1e-10
    )
    if cache is not None:
        cache[n] = out
    return out


def _sorted_g2(xs, data: np.ndarray, astar: float, p: float, r: float):
    """Vector of two-sided G values over query points xs for one sorted arm."""
    n = len(data)
    v = p * (1.0 - p) * n
    f_minus = np.searchsorted(data, xs, side="left") / n
    f = np.searchsorted(data, xs, side="right") / n
    a = np.clip(astar, f_minus, f)
    return beta_binomial_log_mixture((a - p) * n, v, p, r)


def _sorted_two_sided_stat(x1: np.ndarray, x2: np.ndarray, p: float, r: float,
                           delta_star: float, astar_cache: dict | None = None) -> float:
    """Candidate-point statistic on sorted arrays; mirrors AbTestState.two_sided."""

    def directed(a: np.ndarray, b: np.ndarray, shift: float) -> float:
        na, nb = len(a), len(b)
        a1 = _sorted_astar(na, p, r, astar_cache)
        a2 = _sorted_astar(nb, p, r, astar_cache)
        x_minus = a[_level_floor(na, a1)]  # floor(n a*) + 1 order stat, 0-based
        b_hi = b[_level_ceil(nb, a2) - 1]
        x_plus = b_hi - shift
        base = float(
            _sorted_g2(np.array([x_minus]), a, a1, p, r)[0]
            + _sorted_g2(np.array([x_minus + shift]), b, a2, p, r)[0]
        )
        if x_plus < x_minus:
            return base
        lo = np.searchsorted(b, x_minus + shift, side="left")
        hi = np.searchsorted(b, b_hi, side="right")
        w = np.unique(b[lo:hi])
        cands = float(
            _sorted_g2(np.array([x_plus]), a, a1, p, r)[0]
            + _sorted_g2(np.array([b_hi]), b, a2, p, r)[0]
        )
        if len(w):
            vals = _sorted_g2(w - shift, a, a1, p, r) + _sorted_g2(w, b, a2, p, r)
            cands = min(cands, float(np.min(vals)))
        return min(base, cands)

    na, nb = len(x1), len(x2)
    a1 = _sorted_astar(na, p, r, astar_cache)
    a2 = _sorted_astar(nb, p, r, astar_cache)
    if x1[_level_floor(na, a1)] <= x2[_level_floor(nb, a2)] - delta_star:
        return directed(x1, x2, delta_star)
    return directed(x2, x1, -delta_star)


def _naive_disjoint(x1: np.ndarray, x2: np.ndarray, p: float, lo_rad: float,
                    hi_rad: float) -> bool:
    """Whether per-arm fixed-quantile CS intervals are disjoint (sorted inputs)."""

    def interval(data: np.ndarray):
        n = len(data)
        k_lo = _level_floor(n, p - lo_rad) + 1
        k_hi = _level_ceil(n, p + hi_rad)
        lo = data[k_lo - 1] if 1 <= k_lo <= n else (-math.inf if k_lo < 1 else math.inf)
        hi = data[k_hi - 1] if 1 <= k_hi <= n else (-math.inf if k_hi < 1 else math.inf)
        return lo, hi

    lo1, hi1 = interval(x1)
    lo2, hi2 = interval(x2)
    return hi1 < lo2 or hi2 < lo1


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
    from . import bandit  # deferred to keep module import cheap

    arms = bandit.scenario_arms(scenario, 2, eps, pi)
    r_test = boundaries.tune_r(tune_m, pi, alpha)
    r_naive = boundaries.tune_r(tune_m, pi, alpha / 2.0)
    schedule = _check_schedule(max_pairs)
    grid = np.asarray(schedule, dtype=float)
    naive_lo = boundaries.beta_binomial_radius(grid, 1.0 - pi, r_naive, alpha / 2.0).tolist()
    naive_hi = boundaries.beta_binomial_radius(grid, pi, r_naive, alpha / 2.0).tolist()

    log_thresh = math.log(1.0 / alpha)
    stops_test = []
    stops_naive = []
    capped_test = capped_naive = 0
    astar_cache: dict[int, float] = {}
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        u1 = (rng.integers(1, 1 << 53, size=max_pairs) / float(1 << 53))
        u2 = (rng.integers(1, 1 << 53, size=max_pairs) / float(1 << 53))
        x1_all = arms[0].quantile(u1)
        x2_all = arms[1].quantile(u2)
        stop_test = stop_naive = None
        for n, lo_rad, hi_rad in zip(schedule, naive_lo, naive_hi):
            x1 = np.sort(x1_all[:n])
            x2 = np.sort(x2_all[:n])
            if stop_test is None:
                stat = _sorted_two_sided_stat(x1, x2, pi, r_test, 0.0, astar_cache)
                if stat >= log_thresh:
                    stop_test = 2 * n
            if stop_naive is None and _naive_disjoint(x1, x2, pi, lo_rad, hi_rad):
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

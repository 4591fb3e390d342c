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

Each arm is one sorted float64 array, grown by `empdist.insert_sorted`, and
every statistic is computed by one numpy kernel on those arrays:
empirical CDFs are `searchsorted` counts, out-of-range order statistics are
-inf/+inf as in `OrderedMultiset.order_stat`, and all candidates go through
one vectorized mixture call per arm; the two-sided kernel takes a batch of
arm pairs and makes one mixture call for the whole batch, and the one-sided
kernel takes one arm against any number of others (the global null's
treatments) and makes one mixture call per level for all of them.  Each
candidate is evaluated with the same IEEE operations as the per-x
`GEvaluator`, so the kernels return the bits a scan over the multiset would.
The minimizing level a* depends only on (n, p, r) and is tabulated over n
per (p, r).

The paired KS tests keep both samples in one pooled sorted array, with a
mask of the values from sample 1; the last value of each run of equal
values is found where the next value differs, and the ECDF counts of both
samples at every run end come from one cumulative sum, with no search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import bandit, boundaries
from .boundaries import beta_binomial_log_mixture, one_sided_log_mixture
from .confseq import LilMethod
from .empdist import (OrderedMultiset, _level_ceil, _level_floor, insert_sorted, lower_ranks,
                      upper_ranks)
from .errors import ConfigurationError, DomainError, PairingError, StateError
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


def _pvalue(stat: float, k: int = 1) -> float:
    """k exp(-stat) clamped to 1: the always-valid p-value, Bonferroni over k tests."""
    return min(1.0, k * math.exp(-stat))


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
        boundaries._check_mixture(p, r)
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


def _arm_ranks(xs: np.ndarray, data: np.ndarray, astar: float) -> tuple:
    """One arm's part of a kernel entry: n F^-(x) and n F(x) at each query point, n and a*."""
    return data.searchsorted(xs, "left"), data.searchsorted(xs, "right"), len(data), astar


def _two_sided_candidates(x1: np.ndarray, x2: np.ndarray, a1: float, a2: float,
                          delta_star: float) -> tuple[tuple, tuple]:
    """One entry of the two-sided kernel: the arm parts of arms a and b at its candidates.

    The arm a whose argmin quantile lies lower, after the shift, is scanned
    from: with shift = +-delta_star, the candidates are x_minus = Q_a(a*_a),
    x_plus = Q^-_b(a*_b) - shift and every distinct w of arm b in
    [x_minus + shift, Q^-_b(a*_b)] at x = w - shift.  The b side is evaluated
    at w itself so float cancellation cannot lose the atom.  When
    x_plus < x_minus the objective is nonincreasing up to x_minus and already
    nondecreasing there, so x_minus is the only candidate.
    """
    q1 = _order_stat(x1, _level_floor(len(x1), a1) + 1)
    q2 = _order_stat(x2, _level_floor(len(x2), a2) + 1)
    if q1 <= q2 - delta_star:
        a, a_star, x_minus, b, b_star, shift = x1, a1, q1, x2, a2, delta_star
    else:
        a, a_star, x_minus, b, b_star, shift = x2, a2, q2, x1, a1, -delta_star
    b_hi = _order_stat(b, _level_ceil(len(b), b_star))
    x_plus = b_hi - shift
    if x_plus < x_minus:
        xs_a, xs_b = np.array([x_minus]), np.array([x_minus + shift])
    else:
        w = _distinct(b[b.searchsorted(x_minus + shift, "left"):b.searchsorted(b_hi, "right")])
        xs_a = np.concatenate(([x_minus, x_plus], w - shift))
        xs_b = np.concatenate(([x_minus + shift, b_hi], w))
    return _arm_ranks(xs_a, a, a_star), _arm_ranks(xs_b, b, b_star)


def _two_sided_stats(entries, p: float, r: float) -> list[float]:
    """min over x of G_1(x) + G_2(x + delta_star) for each entry of `_two_sided_candidates`.

    Every candidate of every entry, on both arms, goes through one mixture
    call: an arm of n values has G(x) = log M_{p,r}((a - p) n, p(1-p)n) with
    its a* clamped into [F^-(x), F(x)].  Each entry's statistic is the
    minimum of its segment of summed evidence.
    """
    # every entry's arm-a part, then every entry's arm-b part, so that
    # candidate i of arm a and of arm b sit one half of the batch apart
    lo, hi, n, a_star = zip(*[e[0] for e in entries], *[e[1] for e in entries])
    counts = [len(x) for x in lo]
    n = np.repeat(np.array(n, dtype=float), counts)
    a = np.minimum(np.maximum(np.repeat(a_star, counts), np.concatenate(lo) / n),
                   np.concatenate(hi) / n)
    g = beta_binomial_log_mixture((a - p) * n, p * (1.0 - p) * n, p, r)
    half = len(g) // 2
    starts = np.cumsum([0] + counts[:len(entries) - 1])
    return np.minimum.reduceat(g[:half] + g[half:], starts).tolist()


def _one_sided_stats(a: np.ndarray, bs: Sequence[np.ndarray], p: float, r: float,
                     shift: float) -> list[float]:
    """min over x of G+_a(x) + G-_b(x + shift) on sorted arrays, for each arm b of bs.

    G+_a is nondecreasing and G-_b nonincreasing, and the sum only steps down
    where x + shift reaches a value of b: the candidates are x = -inf and
    x = w - shift for every distinct w of arm b.  The candidates of every b
    go through one mixture call per level (G+ at p, G- at 1 - p), and each
    b's statistic is the minimum of its segment of summed evidence.
    """
    ws = [np.concatenate(([-math.inf], _distinct(b))) for b in bs]
    counts = [len(w) for w in ws]
    na = len(a)
    nb = np.repeat(np.array([len(b) for b in bs], dtype=float), counts)
    f_minus = np.searchsorted(a, np.concatenate(ws) - shift, side="left") / na
    f = np.concatenate([np.searchsorted(b, w, side="right") for b, w in zip(bs, ws)]) / nb
    plus = one_sided_log_mixture((f_minus - p) * na, p * (1.0 - p) * na, p, r)
    minus = one_sided_log_mixture(-(f - p) * nb, p * (1.0 - p) * nb, 1.0 - p, r)
    starts = np.cumsum([0] + counts[:-1])
    return np.minimum.reduceat(plus + minus, starts).tolist()


class AbTestState:
    """Two-arm sequential quantile test state.

    Tests H0: Q_2(p) - Q_1(p) = delta_star (two-sided) or <= delta_star
    (one-sided) at level alpha, with always-valid p-values.  `arm1` and
    `arm2` are the arms' values as sorted float64 arrays.
    """

    def __init__(self, p: float, r: float, delta_star: float = 0.0, alpha: float = 0.05):
        boundaries._check_mixture(p, r)
        boundaries._check_alpha(alpha)
        if not math.isfinite(delta_star):
            raise ConfigurationError(f"delta_star must be finite, got {delta_star}")
        self.p = p
        self.r = r
        self.delta_star = delta_star
        self.alpha = alpha
        self.arm1 = np.empty(0)
        self.arm2 = np.empty(0)

    def add(self, arm: int, x: float) -> None:
        if arm == 1:
            self.arm1 = insert_sorted(self.arm1, x)
        elif arm == 2:
            self.arm2 = insert_sorted(self.arm2, x)
        else:
            raise StateError(f"arm must be 1 or 2, got {arm}")

    def _arms(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self.arm1) == 0 or len(self.arm2) == 0:
            raise StateError("both arms need at least one observation")
        return self.arm1, self.arm2

    def _result(self, stat: float) -> TestResult:
        return TestResult(stat, _pvalue(stat), stat >= math.log(1.0 / self.alpha))

    def two_sided(self) -> TestResult:
        """min_x [G_1(x) + G_2(x + delta_star)] versus log(1/alpha)."""
        x1, x2 = self._arms()
        table = _astar_table(self.p, self.r)
        entry = _two_sided_candidates(x1, x2, table.at(len(x1) + 1), table.at(len(x2) + 1),
                                      self.delta_star)
        return self._result(_two_sided_stats([entry], self.p, self.r)[0])

    def one_sided(self) -> TestResult:
        """min_x [G+_1(x) + G-_2(x + delta_star)] versus log(1/alpha)."""
        x1, x2 = self._arms()
        return self._result(_one_sided_stats(x1, [x2], self.p, self.r, self.delta_star)[0])


def global_null_pvalue(
    control: np.ndarray,
    treatments: Sequence[np.ndarray],
    p: float,
    r: float,
) -> float:
    """Always-valid p-value for H0: the control quantile is >= every treatment's.

    Bonferroni combination (K - 1) exp(-max_k min_x [G+_1(x) + G-_k(x)]),
    clamped to 1.
    """
    return global_null_result(control, treatments, p, r).pvalue


def global_null_result(
    control: np.ndarray,
    treatments: Sequence[np.ndarray],
    p: float,
    r: float,
    alpha: float = 0.05,
) -> TestResult:
    """Statistic, p-value, and rejection for the Bonferroni global null."""
    if len(treatments) < 1:
        raise ValueError("global null requires at least one treatment arm")
    if len(control) == 0 or any(len(a) == 0 for a in treatments):
        raise StateError("all arms need at least one observation")
    boundaries._check_mixture(p, r)
    best = max(_one_sided_stats(control, treatments, p, r, 0.0))
    pval = _pvalue(best, len(treatments))
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
    bands suffice there), read from a `RadiusSchedule` by t.

    `n1` and `n2` count each sample's values.  Every mode keeps its values
    (in the paired modes, both samples pooled) as one sorted float64 array,
    and one mark per value in the same order: F0 at the value in one-sample
    mode, and in the paired modes whether the value came from sample 1.
    f0 is called once per observation, before anything is stored, and must
    return a value in [0, 1].  Each `add` is one search and one concatenate
    per array; `evaluate` works out the runs of equal values from the sorted
    values.  The read-only properties `sample1` and `sample2` return a copy
    of each sample's values as a sorted float64 array, equal values (-0.0
    and 0.0 too) in insertion order.

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
        boundaries._check_alpha(alpha)
        self.mode = mode
        self.f0 = f0
        self.lil = LilMethod(a_mult=a_mult, alpha=alpha / 2.0 if mode == "two_sample" else alpha,
                             m_start=m_start)
        width = 1.0 if mode == "one_sample" else 2.0
        self._thresholds = boundaries.RadiusSchedule(lambda t: width * self.lil.radius(t))
        self.n1 = self.n2 = 0
        self._values = np.empty(0)
        self._marks = np.empty(0, dtype=float if mode == "one_sample" else bool)

    @property
    def sample1(self) -> np.ndarray:
        return self._values.copy() if self.mode == "one_sample" else self._values[self._marks]

    @property
    def sample2(self) -> np.ndarray:
        return np.empty(0) if self.mode == "one_sample" else self._values[~self._marks]

    def add(self, x: float, sample: int = 1) -> None:
        if sample not in (1, 2):
            raise StateError(f"sample must be 1 or 2, got {sample}")
        if sample == 2 and self.mode == "one_sample":
            raise StateError("one_sample mode has a single sample")
        x = float(x)
        if x != x:
            raise ValueError("NaN is not insertable: it breaks rank semantics")
        if self.mode == "one_sample":
            mark = self.f0(x)
            if not 0.0 <= mark <= 1.0:
                raise DomainError(f"reference CDF must lie in [0, 1], got {mark} at x = {x}")
        else:
            mark = sample == 1
        values, marks = self._values, self._marks
        # x goes after its equals, so it is the last of their run
        i = values.searchsorted(x, "right")
        self._values = np.concatenate((values[:i], (x,), values[i:]))
        self._marks = np.concatenate((marks[:i], (mark,), marks[i:]))
        if sample == 1:
            self.n1 += 1
        else:
            self.n2 += 1

    def threshold(self, t: int) -> float:
        return self._thresholds.at(t)

    def evaluate(self) -> KsResult:
        t = self.n1
        if self.mode != "one_sample" and self.n2 != t:
            raise PairingError(f"paired modes need equal counts, got {t} and {self.n2}")
        if t == 0:
            raise StateError("no data")
        values, marks = self._values, self._marks
        if self.mode == "one_sample":
            # F0 is equal across a run of ties, whose last index gives F and first F^-
            gaps = [np.arange(1, t + 1) / t - marks, marks - np.arange(t) / t]
        else:
            # F1 - F2 steps only at sample values; at the last x of a run of equal
            # pooled values (-0.0 == 0.0), c1 values of sample 1 and the rest of sample 2 are <= x
            ends = np.concatenate((np.flatnonzero(values[1:] != values[:-1]), (values.size - 1,)))
            c1 = np.cumsum(marks)[ends]
            gap = c1 / t - (ends + 1 - c1) / t
            gaps = [np.abs(gap) if self.mode == "two_sample" else gap]
        # dominance: one-sided supremum of F1 - F2, strict exceedance to reject
        stat = max(0.0, *(float(gap.max()) for gap in gaps))
        thr = self.threshold(t)
        return KsResult(t, stat, thr, stat > thr)


# ---------------------------------------------------------------------------
# test versus naive confidence sequences (simulation)
# ---------------------------------------------------------------------------


def _naive_disjoint(x1: np.ndarray, x2: np.ndarray, k_lo: int, k_hi: int) -> bool:
    """Whether the per-arm CS intervals [X_(k_lo), X_(k_hi)] are disjoint (sorted, equal sizes)."""
    return (_order_stat(x1, k_hi) < _order_stat(x2, k_lo)
            or _order_stat(x2, k_hi) < _order_stat(x1, k_lo))


# checkpoints whose two-sided statistics one kernel call evaluates in
# ab_vs_naive_benchmark; 8, 16 and 32 ran alike, and a larger block evaluates
# more checkpoints past the first crossing
_SIM_BLOCK = 16


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
) -> AbBenchmarkRow:
    """Mean stopping sample size: two-sided quantile test vs naive disjoint CS.

    Two arms are sampled in alternation from the requested scenario (one
    baseline arm plus its shifted/scaled counterpart); the sequential test
    stops when it rejects equality of the pi-quantile, the naive strategy
    when per-arm beta-binomial confidence sequences at alpha/2 become
    disjoint.  Both rules are evaluated on the same checkpoint schedule, and
    stopping times are reported as total samples (2x the pair count).

    The schedule is walked in blocks of _SIM_BLOCK checkpoints: each
    checkpoint keeps only its test candidates, and the block's test
    statistics come from one batched kernel call, so a run stops at the same
    first crossing as a check after every checkpoint.
    """
    if runs < 1:
        raise ConfigurationError("runs must be >= 1")
    if max_pairs < 1:
        raise ConfigurationError("max_pairs must be >= 1")
    arms = bandit.scenario_arms(scenario, 2, eps, pi)
    r_test = boundaries.tune_r(boundaries.TUNE_M, pi, alpha)
    r_naive = boundaries.tune_r(boundaries.TUNE_M, pi, alpha / 2.0)
    schedule = _check_schedule(max_pairs)
    grid = np.asarray(schedule, dtype=float)
    naive_lo_ranks = upper_ranks(
        grid, pi - boundaries.beta_binomial_radius(grid, 1.0 - pi, r_naive, alpha / 2.0)).tolist()
    naive_hi_ranks = lower_ranks(
        grid, pi + boundaries.beta_binomial_radius(grid, pi, r_naive, alpha / 2.0)).tolist()
    astars = _astar(grid, pi, r_test).tolist()

    log_thresh = math.log(1.0 / alpha)
    checks = list(zip(schedule, astars, naive_lo_ranks, naive_hi_ranks))
    stops_test = []
    stops_naive = []
    capped_test = capped_naive = 0
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        x1_all = arms[0].sample(rng, max_pairs)
        x2_all = arms[1].sample(rng, max_pairs)
        stop_test = stop_naive = None
        for start in range(0, len(checks), _SIM_BLOCK):
            block = checks[start:start + _SIM_BLOCK]
            entries = []
            for n, a_star, k_lo, k_hi in block:
                x1 = np.sort(x1_all[:n])
                x2 = np.sort(x2_all[:n])
                if stop_test is None:
                    entries.append(_two_sided_candidates(x1, x2, a_star, a_star, 0.0))
                if stop_naive is None and _naive_disjoint(x1, x2, k_lo, k_hi):
                    stop_naive = 2 * n
            if entries:
                stats = _two_sided_stats(entries, pi, r_test)
                stop_test = next((2 * n for (n, *_), stat in zip(block, stats)
                                  if stat >= log_thresh), None)
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

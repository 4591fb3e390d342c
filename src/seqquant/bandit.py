"""Quantile epsilon-best-arm identification (LUCB-style) and its diagnostics.

The algorithm samples the arm with the highest lower confidence bound on the
(pi+eps)-quantile together with every arm maximizing the upper confidence
bound on the (pi-eps)-quantile among the rest, and stops as soon as some
arm's lower bound clears every other arm's upper bound.  Confidence bounds
are order statistics at levels shifted by time-uniform radii evaluated at
per-arm sample counts.  The shifted levels (pi+eps) - l_n and
(pi-eps) + u_n, and so the ranks of the two order statistics, depend only
on the per-arm count n, so each configuration keeps the pair of rank
tables `confseq.rank_schedules` builds, shared across runs in one process.
A run reads each arm's two bounds from two `empdist.RankTracker`s, at
O(log n) per pull; `qlucb_confidence_bounds` computes the same bounds
from an `OrderedMultiset` and is their reference.  A rank outside [1, n]
reads -inf or inf, as in every other tracker.

Reproducibility: all sampling is by quantile transform of uniforms drawn as
integers in (0, 2^53) / 2^53 from numpy PCG64 generators; per-run streams are
derived by seeding with SeedSequence((seed, indices...)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import median
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from . import boundaries, confseq, specfun
from .boundaries import RadiusSchedule
from .empdist import OrderedMultiset, RankTracker
from .errors import ConfigurationError, DomainError, NumericalError

__all__ = [
    "ArmSpec",
    "uniform_arm",
    "cauchy_arm",
    "normal_arm",
    "custom_arm",
    "QlucbConfig",
    "RunResult",
    "CS_KINDS",
    "SCENARIOS",
    "scenario_arms",
    "qlucb_confidence_bounds",
    "qlucb_run",
    "eps_optimal_set",
    "gap_deltas",
    "tau_bound",
    "bai_benchmark",
    "BaiRow",
]

CS_KINDS = ("stitched_qlucb", "beta_binomial_one_sided", "dkw_union_baseline")
SCENARIOS = ("uniform_shift", "cauchy_shift", "normal_scale")

_U53 = float(1 << 53)
_TOL = 1e-12


@dataclass(frozen=True)
class ArmSpec:
    """An arm as a quantile function; analytic kinds carry their parameters.

    The quantile callable must be monotone nondecreasing on (0, 1) and accept
    numpy arrays.  For the built-in continuous families the upper and lower
    quantile functions coincide.
    """

    kind: str
    params: tuple
    quantile: Callable

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.integers(1, 1 << 53, size=size) / _U53
        return np.asarray(self.quantile(u), dtype=float)

    def quantile_at(self, level: float) -> float:
        """The quantile at one level, through a one-element array as `sample` calls it."""
        return float(np.asarray(self.quantile(np.array([level])), dtype=float)[0])


def uniform_arm(a: float, b: float) -> ArmSpec:
    if not b > a:
        raise ConfigurationError("uniform arm needs b > a")
    return ArmSpec("uniform", (a, b), lambda p: a + (b - a) * np.asarray(p, dtype=float))


def cauchy_arm(loc: float, scale: float) -> ArmSpec:
    if scale <= 0:
        raise ConfigurationError("cauchy arm needs positive scale")
    return ArmSpec(
        "cauchy", (loc, scale),
        lambda p: loc + scale * np.tan(math.pi * (np.asarray(p, dtype=float) - 0.5)),
    )


def normal_arm(mu: float, sigma: float) -> ArmSpec:
    if sigma <= 0:
        raise ConfigurationError("normal arm needs positive sigma")
    return ArmSpec("normal", (mu, sigma), lambda p: mu + sigma * ndtri(np.asarray(p, dtype=float)))


def custom_arm(quantile: Callable) -> ArmSpec:
    return ArmSpec("custom", (), quantile)


def _check_target(pi_target: float, eps: float) -> None:
    """pi_target in (0, 1), and eps in [0, min(pi_target, 1 - pi_target)).

    So pi_target - eps and pi_target + eps lie in (0, 1) as well.
    """
    if not 0.0 < pi_target < 1.0:
        raise ConfigurationError(f"pi_target must lie in (0, 1), got {pi_target}")
    cap = min(pi_target, 1.0 - pi_target)
    if not 0.0 <= eps < cap:
        raise ConfigurationError(f"eps must lie in [0, {cap:g}), got {eps}")


def scenario_arms(name: str, k_arms: int, eps: float, pi_target: float) -> list[ArmSpec]:
    """Benchmark scenarios; the exceptional arm is always the last one.

    eps and pi_target are checked as `QlucbConfig` checks them, for every
    scenario, also one that does not read eps.
    """
    if k_arms < 2:
        raise ConfigurationError("scenarios need at least two arms")
    _check_target(pi_target, eps)
    if name == "uniform_shift":
        return [uniform_arm(0.0, 1.0) for _ in range(k_arms - 1)] + [
            uniform_arm(2.0 * eps, 1.0 + 2.0 * eps)
        ]
    if name == "cauchy_shift":
        base = cauchy_arm(0.0, 1.0)
        loc = 2.0 * (base.quantile(pi_target + eps) - base.quantile(pi_target))
        return [cauchy_arm(0.0, 1.0) for _ in range(k_arms - 1)] + [cauchy_arm(float(loc), 1.0)]
    if name == "normal_scale":
        return [normal_arm(0.0, 1.0) for _ in range(k_arms - 1)] + [normal_arm(0.0, 2.0)]
    raise ConfigurationError(f"unknown scenario {name!r}; valid: {SCENARIOS}")


@dataclass(frozen=True)
class QlucbConfig:
    """Problem setup for one QLUCB run."""

    pi_target: float
    eps: float
    delta_err: float = 0.05
    cs_kind: str = "beta_binomial_one_sided"
    k_arms: int = 2
    max_rounds: int = 10 ** 6
    seed: int = 0

    def __post_init__(self):
        _check_target(self.pi_target, self.eps)
        if not 0.0 < self.delta_err < 1.0:
            raise ConfigurationError(f"delta_err must lie in (0, 1), got {self.delta_err}")
        if self.cs_kind not in CS_KINDS:
            raise ConfigurationError(f"cs_kind must be one of {CS_KINDS}, got {self.cs_kind!r}")
        if self.k_arms < 2:
            raise ConfigurationError(f"k_arms must be >= 2, got {self.k_arms}")
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be positive")


@dataclass(frozen=True)
class RunResult:
    chosen_arm: int
    total_samples: int
    per_arm_counts: tuple[int, ...]
    rounds: int
    eps_optimal: bool
    stopped_by_cap: bool


def _radii(cs_kind: str, pi: float, eps: float, delta_err: float, k_arms: int):
    """Per-count radius functions (l_n at pi+eps, u_n at pi-eps) of one CS kind."""
    lo_level, hi_level = 1.0 - (pi + eps), pi - eps
    alpha2 = 2.0 * delta_err / k_arms
    if cs_kind == "stitched_qlucb":
        # the closed form at 2 delta / K, i.e. with the constant log(5K / delta)
        return (lambda n: boundaries.stitched_radius_simple(n, lo_level, alpha2),
                lambda n: boundaries.stitched_radius_simple(n, hi_level, alpha2))
    if cs_kind == "beta_binomial_one_sided":
        alpha1 = delta_err / k_arms
        r_lo = boundaries.tune_r(boundaries.TUNE_M, pi + eps, alpha2)
        r_hi = boundaries.tune_r(boundaries.TUNE_M, pi - eps, alpha2)
        return (lambda n: boundaries.one_sided_beta_binomial_radius(n, lo_level, r_lo, alpha1),
                lambda n: boundaries.one_sided_beta_binomial_radius(n, hi_level, r_hi, alpha1))

    # dkw_union_baseline: DKW with a quadratically decaying union bound,
    # the same radius on both sides
    def szorenyi(n):
        rad = np.full(n.shape, math.inf)
        ok = n >= 32
        if np.any(ok):
            rad[ok] = boundaries.baseline_radius("szorenyi", n[ok], alpha=alpha2)
        return rad

    return szorenyi, szorenyi


@lru_cache(maxsize=None)
def _rank_schedules(cs_kind: str, pi: float, eps: float, delta_err: float,
                    k_arms: int) -> tuple[RadiusSchedule, RadiusSchedule]:
    """Per-count ranks of L and U, floor(n((pi+eps) - l_n)) + 1 and
    ceil(n((pi-eps) + u_n)), shared by all runs.
    """
    lower_radius, upper_radius = _radii(cs_kind, pi, eps, delta_err, k_arms)
    return confseq.rank_schedules(pi + eps, lower_radius, pi - eps, upper_radius)


def _schedules(cfg: QlucbConfig) -> tuple[RadiusSchedule, RadiusSchedule]:
    return _rank_schedules(cfg.cs_kind, cfg.pi_target, cfg.eps, cfg.delta_err, cfg.k_arms)


def qlucb_confidence_bounds(data: OrderedMultiset, cfg: QlucbConfig):
    """(L, U) at the current per-arm count: order statistics at shifted levels.

    The reference for the bounds `qlucb_run` tracks: equal with `==`, which
    is all the run compares them with, though of a run of equal values
    (0.0 and -0.0) the two may read different members.
    """
    n = len(data)
    if n < 1:
        raise DomainError("confidence bounds need at least one observation")
    lower_rank, upper_rank = _schedules(cfg)
    return data.order_stat(lower_rank.at(n)), data.order_stat(upper_rank.at(n))


def eps_optimal_set(arms: Sequence[ArmSpec], pi_target: float, eps: float) -> set[int]:
    """Arms k with Q_k(pi+eps) >= max_j Q_j(pi-eps), up to a 1e-12 grace."""
    best = max(a.quantile_at(pi_target - eps) for a in arms)
    tol = _TOL * max(1.0, abs(best))
    return {k for k, a in enumerate(arms) if a.quantile_at(pi_target + eps) >= best - tol}


def qlucb_run(arms: Sequence[ArmSpec], cfg: QlucbConfig,
              rng: np.random.Generator | None = None) -> RunResult:
    """One QLUCB run; deterministic given (arms, cfg, seed)."""
    k_arms = len(arms)
    if k_arms < 2:
        raise ConfigurationError("need at least two arms")
    if k_arms != cfg.k_arms:
        raise ConfigurationError(f"config says k_arms={cfg.k_arms}, got {k_arms} arms")
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed,)))
    lower_schedule, upper_schedule = _schedules(cfg)
    lower_rank, upper_rank = lower_schedule.at, upper_schedule.at

    lower_trackers = [RankTracker() for _ in range(k_arms)]
    upper_trackers = [RankTracker() for _ in range(k_arms)]
    counts = [0] * k_arms
    lower = [-math.inf] * k_arms
    upper = [math.inf] * k_arms
    buffers = [[] for _ in range(k_arms)]

    def draw(k: int) -> float:
        buf = buffers[k]
        if not buf:
            buf.extend(arms[k].sample(rng, 256)[::-1].tolist())
        return buf.pop()

    def pull(k: int) -> None:
        x = draw(k)
        n = counts[k] = counts[k] + 1
        lower[k] = lower_trackers[k].add(x, lower_rank(n))
        upper[k] = upper_trackers[k].add(x, upper_rank(n))

    for k in range(k_arms):
        pull(k)
    rounds = 1
    capped = False
    while True:
        # top-2 upper bounds for the "max over others" tests, and the leader h
        # (highest lower bound, lowest index on ties)
        max1 = -math.inf
        max1_idx = -1
        max2 = -math.inf
        h = 0
        lower_h = lower[0]
        for j in range(k_arms):
            u = upper[j]
            if u > max1:
                max2 = max1
                max1, max1_idx = u, j
            elif u > max2:
                max2 = u
            if lower[j] > lower_h:
                h, lower_h = j, lower[j]
        winner = -1
        for k in range(k_arms):
            others = max2 if k == max1_idx else max1
            if lower[k] >= others:
                winner = k
                break
        if winner >= 0:
            break
        if rounds >= cfg.max_rounds:
            capped = True
            winner = h
            break
        # pull h, then every other arm attaining the best upper bound among
        # the others, in index order; pulling h changes no other arm's bound
        max_other_u = max2 if h == max1_idx else max1
        pull(h)
        for j in range(k_arms):
            if j != h and upper[j] == max_other_u:
                pull(j)
        rounds += 1

    return RunResult(
        chosen_arm=winner,
        total_samples=sum(counts),
        per_arm_counts=tuple(counts),
        rounds=rounds,
        eps_optimal=winner in eps_optimal_set(arms, cfg.pi_target, cfg.eps),
        stopped_by_cap=capped,
    )


# ---------------------------------------------------------------------------
# analytic gaps and sample-complexity diagnostics
# ---------------------------------------------------------------------------


def gap_deltas(arms: Sequence[ArmSpec], pi_target: float, eps: float,
               tol: float = 1e-9) -> list[float]:
    """Per-arm difficulty gaps Delta_k from the analytic quantile functions.

    Suboptimal arms (and every arm when several are eps-optimal) solve
    sup{D: Q_k(pi+D) <= max_j Q_j(pi-D)}; a unique eps-optimal arm instead
    solves sup{D: Q_k(pi-D) > max_{j!=k} Q_j(pi+Delta_j)}, which uses the
    other arms' gaps and is therefore computed last.
    """
    _check_target(pi_target, eps)
    opt = eps_optimal_set(arms, pi_target, eps)
    cap = min(pi_target, 1.0 - pi_target)

    def q(k: int, level: float) -> float:
        return arms[k].quantile_at(min(max(level, 1e-15), 1.0 - 1e-15))

    def sup(holds, hi: float) -> float:
        """sup{D in [0, hi]: holds(D)} for holds true below it: the low end of a tol bracket."""
        lo, _ = specfun.bisection(lambda d, _: not holds(float(d[0])), 0.0, hi, tol)
        return float(lo[0])

    def case_one(k: int) -> float:
        def holds(d: float) -> bool:
            return q(k, pi_target + d) <= max(q(j, pi_target - d) for j in range(len(arms)))

        return cap if holds(cap) else sup(holds, cap)

    deltas = [0.0] * len(arms)
    unique_opt = len(opt) == 1
    star = next(iter(opt)) if unique_opt else -1
    for k in range(len(arms)):
        if not (unique_opt and k == star):
            deltas[k] = case_one(k)
    if unique_opt:
        rhs = max(
            q(j, pi_target + deltas[j]) for j in range(len(arms)) if j != star
        )

        def holds_star(d: float) -> bool:
            return q(star, pi_target - d) > rhs

        if not holds_star(0.0):
            deltas[star] = 0.0
        elif holds_star(pi_target):
            deltas[star] = pi_target
        else:
            deltas[star] = sup(holds_star, pi_target)
    return deltas


def tau_bound(delta_k: float, eps: float, pi_target: float, k_arms: int,
              delta_err: float) -> int:
    """Smallest n with g_n + max(u_n(pi), l_n(pi+eps)) < max(Delta_k, eps).

    g_n is the quantile-uniform iterated-logarithm radius at the union-bound
    constant `lil_C_closed_form(delta / K)` = 0.8 log(1612 K / delta); u_n
    and l_n are the stitched per-arm radii used by the algorithm.  Diagnostic
    for the 4 sum(tau_k) sample bound; found by doubling then bisection (the
    left side is eventually decreasing in n).
    """
    target = max(delta_k, eps)
    if target <= 0.0:
        raise DomainError("gap and eps are both zero: the bound is unbounded")
    c_add = boundaries.lil_C_closed_form(delta_err / k_arms)
    lo_level = 1.0 - (pi_target + eps)
    alpha2 = 2.0 * delta_err / k_arms

    def radius_sum(n: int) -> float:
        g = boundaries.lil_radius(n, 0.85, c_add)
        u = boundaries.stitched_radius_simple(n, pi_target, alpha2)
        l = boundaries.stitched_radius_simple(n, lo_level, alpha2)
        return g + max(u, l)

    n = 1
    while radius_sum(n) >= target:
        n *= 2
        if n > 1 << 62:
            raise NumericalError("tau bound exceeds 2^62 samples")
    lo, hi = max(1, n // 2), n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if radius_sum(mid) < target:
            hi = mid
        else:
            lo = mid
    return hi if radius_sum(lo) >= target else lo


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaiRow:
    scenario: str
    pi: float
    cs_kind: str
    runs: int
    mean_samples: float
    median_samples: float
    correct_rate: float
    capped_runs: int


def bai_benchmark(
    scenario: str,
    pi_list: Sequence[float],
    eps: float = 0.025,
    delta_err: float = 0.05,
    cs_kinds: Sequence[str] = ("beta_binomial_one_sided",),
    runs: int = 64,
    seed: int = 0,
    k_arms: int = 10,
    max_rounds: int = 10 ** 6,
) -> list[BaiRow]:
    """Mean/median sample size and correctness rate per (pi, cs_kind).

    Run (i_pi, i_kind, i_run) uses the generator seeded by
    SeedSequence((seed, i_pi, i_kind, i_run)), so every cell of the table is
    reproducible in isolation.
    """
    if runs < 1:
        raise ConfigurationError("runs must be >= 1")
    rows = []
    for i_pi, pi in enumerate(pi_list):
        arms = scenario_arms(scenario, k_arms, eps, pi)
        for i_kind, kind in enumerate(cs_kinds):
            cfg = QlucbConfig(
                pi_target=pi, eps=eps, delta_err=delta_err, cs_kind=kind,
                k_arms=k_arms, max_rounds=max_rounds, seed=seed,
            )
            samples = []
            correct = 0
            capped = 0
            for i_run in range(runs):
                rng = np.random.default_rng(np.random.SeedSequence((seed, i_pi, i_kind, i_run)))
                res = qlucb_run(arms, cfg, rng=rng)
                samples.append(res.total_samples)
                correct += 1 if res.eps_optimal else 0
                capped += 1 if res.stopped_by_cap else 0
            rows.append(
                BaiRow(
                    scenario=scenario,
                    pi=pi,
                    cs_kind=kind,
                    runs=runs,
                    mean_samples=float(np.mean(samples)),
                    median_samples=float(median(samples)),
                    correct_rate=correct / runs,
                    capped_runs=capped,
                )
            )
    return rows

"""Confidence-sequence radii and uniform boundaries.

Every function here is pure: it maps (time, quantile level, parameters) to a
radius in quantile space.  Radii are deliberately not clipped to [0, 1];
consumers translate out-of-range levels into the order statistics -inf and
inf.  Functions accepting a time `t` also accept numpy arrays of times and
broadcast over them; every radius evaluated over an array equals its
scalar calls bit for bit, which lets `RadiusSchedule` tabulate a radius in
vectorized chunks without changing any bound.  `BASELINE_KINDS` names the
literature baselines of `baseline_radius`, in the order `bounds` lists them.

Numeric contract: every root is found by `specfun.bisection`, each element
of an array stopping on its own bracket.  The mixture radii bisect to 1e-9
absolute in the boundary-crossing variable (or 60 steps); the Hoeffding-KL
baseline and `lil_C` take 80 steps, or stop early once a bracket has no
width.  The eta-infimum behind the iterated-logarithm miscoverage rate uses
a 512-point log grid, evaluated in one array pass and settled by the scalar
objective at its near-minimal points (a grid with an exp tail of exactly 0
reads 0.0 with no scalar call), refined by golden section to 1e-8;
`lil_alpha` returns the bits of a scalar pass over the grid.  Parameters are
checked as finite and within their bounds, so NaN or an infinity raises, as
in a time t; a radius that is not finite and positive raises `NumericalError`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError, TuningError
from .specfun import (bisection, expit, gammaln, golden_section_min, log_beta, log_betainc,
                      logit, ndtri, zeta)

__all__ = [
    "RadiusSchedule",
    "StitchConfig",
    "stitched_radius",
    "stitched_radius_simple",
    "double_stitch_radius",
    "double_stitch_log_constant",
    "beta_binomial_log_mixture",
    "one_sided_log_mixture",
    "beta_binomial_radius",
    "one_sided_beta_binomial_radius",
    "tune_r",
    "tuning_denominator",
    "normal_mixture_radius",
    "lil_alpha",
    "lil_C",
    "lil_C_closed_form",
    "lil_radius",
    "baseline_radius",
    "BASELINE_KINDS",
    "bernoulli_kl",
]

_SQRT2 = math.sqrt(2.0)
_TINY = np.finfo(float).tiny  # the smallest normal float


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")


def _check_open_unit(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")


def _check_complement(level: float, name: str) -> None:
    """level in (2^-54, 1), for a caller that reads 1 - level too, which rounds to 1 below."""
    if not 2.0 ** -54 < level < 1.0:
        raise ConfigurationError(f"{name} must lie in (2^-54, 1), so that 1 minus it is "
                                 f"below 1 in floats, got {level!r}")


def _check_r(r: float) -> None:
    if not 0.0 < r < math.inf:
        raise ConfigurationError(f"r must be positive, got {r}")


def _check_mixture(p: float, r: float) -> None:
    _check_open_unit(p)
    _check_r(r)


def _times(t):
    """Validate a time grid (every t finite and >= 1) and return (array, was_scalar)."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all((arr >= 1.0) & (arr < math.inf)):  # NaN fails the first test
        raise DomainError("t must be finite and >= 1")
    return arr, scalar


def _ret(arr, scalar):
    return float(arr[0]) if scalar else arr


def _radius(fn):
    """fn, raising `NumericalError` where its radius is not finite and positive.

    A radius past the float range comes out inf, 0 or NaN, which the check
    reports, so numpy's overflow and invalid-value warnings are silenced.
    """
    @wraps(fn)
    def radius(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            out = fn(*args, **kwargs)
        if not np.all((out > 0.0) & (out < math.inf)):
            raise NumericalError(f"{fn.__name__} is not finite and positive at this t")
        return out

    return radius


def _log_or_sum(f, x, log_sum):
    """np.log(f(x)) for an elementwise f; log_sum(mask) where f(x) overflows.

    Only elements past the float maximum take the sum of logs, so every
    other one keeps the bits of the plain log.  Every caller is a `_radius`.
    """
    value = f(x)
    out = np.log(value)
    over = np.isinf(value)
    if over.any():
        out[over] = log_sum(over)
    return out


class RadiusSchedule:
    """The values of one function of t at t = 1, 2, 3, ..., looked up by t.

    `radius` maps an array of times to an array of values, elementwise:
    every radius function here does, and agrees bit for bit with its scalar
    calls.  Any other elementwise function of t tabulates the same way, as
    `confseq` and `bandit` do for the order-statistic ranks behind their
    bounds (`empdist.upper_ranks`/`lower_ranks` of the radius-shifted
    levels) and `seqtest` for the minimizing level a*.  The first lookup
    past the end of the table extends it to max(1024, 2 * size, t) entries
    with one vectorized call, so a stream queried at every t pays O(log t)
    calls in all.  The table is an `array` of doubles, or of 64-bit
    integers when the function returns integers, whose lookups return
    Python floats or ints without a numpy scalar.  A loop that reads every t
    in turn can index the table itself: `table(n)` returns it with at least
    n entries, the value at t in entry t - 1.
    """

    __slots__ = ("_radius", "_table")

    def __init__(self, radius):
        self._radius = radius
        self._table = array("d")

    def at(self, t: int):
        table = self._table
        if t > len(table):
            table = self._extend(t)
        elif t < 1:
            raise DomainError(f"t must be >= 1, got {t}")
        return table[t - 1]

    def table(self, n: int) -> array:
        """The table extended to at least n >= 1 entries; later extensions grow it in place."""
        table = self._table
        return self._extend(n) if n > len(table) else table

    def _extend(self, t: int) -> array:
        table = self._table
        grid = np.arange(len(table) + 1, max(1024, 2 * len(table), t) + 1, dtype=float)
        values = np.atleast_1d(self._radius(grid))
        if not table and values.dtype.kind in "iu":
            table = self._table = array("q")
        table.extend(values.tolist())
        return table


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StitchConfig:
    """Hyperparameters of the polynomial stitched boundary.

    eta > 1 is the geometric epoch ratio, s_exp > 1 the polynomial decay of
    per-epoch error, m_start >= 1 the time the boundary is tuned to, and
    alpha the total two-sided crossing probability.
    """

    eta: float
    s_exp: float
    m_start: float = 1.0
    alpha: float = 0.05

    def __post_init__(self):
        if not 1.0 < self.eta < math.inf:
            raise ConfigurationError(f"eta must exceed 1, got {self.eta}")
        if not 1.0 < self.s_exp < math.inf:
            raise ConfigurationError(f"s_exp must exceed 1, got {self.s_exp}")
        if not 1.0 <= self.m_start < math.inf:
            raise ConfigurationError(f"m_start must be >= 1, got {self.m_start}")
        _check_alpha(self.alpha)

    @property
    def k1(self) -> float:
        return (self.eta ** 0.25 + self.eta ** -0.25) / _SQRT2

    @property
    def k2(self) -> float:
        return (math.sqrt(self.eta) + 1.0) / 2.0


# ---------------------------------------------------------------------------
# stitched boundaries
# ---------------------------------------------------------------------------


@_radius
def stitched_radius(t, p: float, cfg: StitchConfig):
    """General stitched confidence radius S_p(t v m) / t.

    S_p(t) = sqrt(k1^2 p(1-p) t l(t) + k2^2 c_p^2 l(t)^2) + c_p k2 l(t) with
    l(t) = s log log(eta t / m) + log(2 zeta(s) / (alpha log^s eta)) and
    c_p = (1 - 2p)/3.
    """
    _check_open_unit(p)
    t_arr, scalar = _times(t)
    tm = np.maximum(t_arr, cfg.m_start)
    z = zeta(cfg.s_exp)
    try:
        const = math.log(2.0 * z / (cfg.alpha * math.log(cfg.eta) ** cfg.s_exp))
    except (OverflowError, ZeroDivisionError):
        const = math.inf
    if const == math.inf:  # alpha log^s(eta) leaves the normal floats: add the logs
        const = math.log(2.0 * z) - math.log(cfg.alpha) - cfg.s_exp * math.log(math.log(cfg.eta))
    log_tm = _log_or_sum(lambda x: cfg.eta * x / cfg.m_start, tm,
                         lambda i: math.log(cfg.eta) + np.log(tm[i] / cfg.m_start))
    ell = cfg.s_exp * np.log(log_tm) + const
    if np.any(ell < 0.0):
        raise NumericalError("stitched log term is negative for this configuration")
    cp = (1.0 - 2.0 * p) / 3.0
    s_val = np.sqrt(cfg.k1 ** 2 * p * (1.0 - p) * tm * ell + (cfg.k2 * cp) ** 2 * ell ** 2)
    s_val += cp * cfg.k2 * ell
    return _ret(s_val / t_arr, scalar)


@_radius
def stitched_radius_simple(t, p: float, alpha: float = 0.05):
    """Closed-form stitched radius with conservatively rounded constants.

    f_t(p) = 1.5 sqrt(p(1-p) l(t)) + 0.8 l(t),
    l(t) = (1.4 log log(2.1 t) + log(10/alpha)) / t.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    _check_alpha(alpha)
    t_arr, scalar = _times(t)
    ell = (1.4 * np.log(np.log(2.1 * t_arr)) + math.log(10.0 / alpha)) / t_arr
    out = 1.5 * np.sqrt(p * (1.0 - p) * ell) + 0.8 * ell
    return _ret(out, scalar)


# the one tuning the double-stitched bound ships with: grid fineness delta, eta and s
_DS_DELTA, _DS_ETA, _DS_S = 0.5, 2.041, 1.4


def double_stitch_log_constant() -> float:
    """The additive constant 2 zeta(s)(2 zeta(s)+1) / log^s(eta) inside l(p, t)."""
    z = zeta(_DS_S)
    return 2.0 * z * (2.0 * z + 1.0) / math.log(_DS_ETA) ** _DS_S


@_radius
def double_stitch_radius(t, p: float, alpha: float = 0.05, m_start: float = 1.0):
    """Time- and quantile-uniform stitched radius g~_t(p) / t, tuned to m_start.

    Three-term form: a quantile-grid rounding term, the stitched main term in
    the surrogate level r(p,t), and the sub-gamma correction.
    """
    cfg = StitchConfig(eta=_DS_ETA, s_exp=_DS_S, m_start=m_start, alpha=alpha)
    _check_open_unit(p)
    t_arr, scalar = _times(t)
    tm = np.maximum(t_arr, cfg.m_start)
    if p >= 0.5:
        rpt = np.full_like(tm, p)
    else:
        inflation = 2.0 * _DS_DELTA * np.sqrt(cfg.m_start * cfg.eta / tm)
        rpt = np.minimum(0.5, expit(logit(p) + inflation))
    sigma2 = rpt * (1.0 - rpt)
    j = np.sqrt(tm / cfg.m_start) * abs(logit(p)) / (2.0 * _DS_DELTA) + 1.0
    ell = (
        cfg.s_exp * np.log(np.log(cfg.eta * tm / cfg.m_start))
        + cfg.s_exp * np.log(j)
        + math.log(double_stitch_log_constant() / cfg.alpha)
    )
    if np.any(ell < 0.0):
        raise NumericalError("double-stitch log term is negative for this configuration")
    cp = (1.0 - 2.0 * p) / 3.0
    g = _DS_DELTA * np.sqrt(cfg.eta * tm * sigma2 / cfg.m_start)
    g += np.sqrt(cfg.k1 ** 2 * sigma2 * tm * ell + (cfg.k2 * cp) ** 2 * ell ** 2)
    g += cp * cfg.k2 * ell
    return _ret(g / t_arr, scalar)


# ---------------------------------------------------------------------------
# beta-binomial mixtures
# ---------------------------------------------------------------------------


def _mixture_args(s_val, v, p: float, r: float):
    """Beta arguments of the mixture, raising if either is non-positive."""
    a = (r + v) / p - s_val
    b = (r + v) / (1.0 - p) + s_val
    if (a <= 0.0).any():
        raise DomainError(
            "mixture argument (r+v)/p - s must be positive; s exceeds the upper domain"
        )
    if (b <= 0.0).any():
        raise DomainError(
            "mixture argument (r+v)/(1-p) + s must be positive; s is below the lower domain"
        )
    return a, b


def _log_mixture(s_val, v, p: float, r: float, one_sided: bool):
    """log M_{p,r}(s, v), or log M^1_{p,r}(s, v) when one_sided, over arrays of s and v."""
    _check_mixture(p, r)
    s_arr = np.asarray(s_val, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    scalar = s_arr.ndim == 0 and v_arr.ndim == 0
    s_arr, v_arr = np.atleast_1d(s_arr), np.atleast_1d(v_arr)
    if s_arr.shape != v_arr.shape:
        s_arr, v_arr = np.broadcast_arrays(s_arr, v_arr)
    if (v_arr < 0.0).any():
        raise DomainError("intrinsic time v must be nonnegative")
    a, b = _mixture_args(s_arr, v_arr, p, r)
    if one_sided:
        log_num = log_betainc(a, b, 1.0 - p) + log_beta(a, b)
        log_den = _one_sided_log_den(p, r)
    else:
        log_num = log_beta(a, b)
        log_den = _two_sided_log_den(p, r)
    out = (
        -(v_arr / (1.0 - p) + s_arr) * math.log(p)
        - (v_arr / p - s_arr) * math.log(1.0 - p)
        + log_num
        - log_den
    )
    return _ret(out, scalar)


def beta_binomial_log_mixture(s_val, v, p: float, r: float):
    """log M_{p,r}(s, v), the two-sided beta-binomial mixture supermartingale.

    M_{p,r}(s,v) = p^{-(v/(1-p)+s)} (1-p)^{-(v/p-s)}
                   B((r+v)/p - s, (r+v)/(1-p) + s) / B(r/p, r/(1-p)).
    Accepts arrays for s and v.
    """
    return _log_mixture(s_val, v, p, r, one_sided=False)


def one_sided_log_mixture(s_val, v, p: float, r: float):
    """log M^1_{p,r}(s, v): the one-sided mixture, nondecreasing in s.

    Same prefactor as the two-sided mixture but with incomplete beta
    functions truncated at 1-p.
    """
    return _log_mixture(s_val, v, p, r, one_sided=True)


@lru_cache(maxsize=256)
def _two_sided_log_den(p: float, r: float) -> float:
    """The two-sided mixture's normalizer log B(r/p, r/(1-p))."""
    return log_beta(r / p, r / (1.0 - p))


@lru_cache(maxsize=256)
def _one_sided_log_den(p: float, r: float) -> float:
    """The one-sided mixture's normalizer log(I_{1-p}(r/p, r/(1-p)) B(r/p, r/(1-p)))."""
    return log_betainc(r / p, r / (1.0 - p), 1.0 - p) + log_beta(r / p, r / (1.0 - p))


def _mixture_radius(log_mix, t, p: float, r: float, alpha: float):
    """Bisect s in [0, (r+v)/p) for log_mix(s, v) = log(1/alpha), v = p(1-p)t; returns s/t.

    Each element stops once its own bracket is at most 1e-9 wide, so an
    element of an array call takes the same steps as a scalar call at its t.
    """
    _check_mixture(p, r)
    _check_alpha(alpha)
    t_arr, scalar = _times(t)
    # the largest beta argument the search meets is (r + v) / (p (1 - p))
    if math.isinf(gammaln(r / (p * (1.0 - p)) + float(np.max(t_arr, initial=0.0)))):
        raise NumericalError(f"beta-binomial mixture at r={r:g}, p={p:g} leaves the float range")
    v = p * (1.0 - p) * t_arr
    target = math.log(1.0 / alpha)
    s_hi = (r + v) / p * (1.0 - 1e-12)
    never = log_mix(s_hi, v, p, r) < target
    s_lo, s_hi = bisection(lambda s, idx: log_mix(s, v[idx], p, r) >= target,
                           np.zeros_like(v), s_hi, tol=1e-9, max_iter=60)
    root = 0.5 * (s_lo + s_hi)
    # If even the domain supremum keeps the mixture below 1/alpha the boundary
    # is never crossed and the radius is trivial.
    root = np.where(never, (r + v) / p, root)
    return _ret(root / t_arr, scalar)


@_radius
def beta_binomial_radius(t, p: float, r: float, alpha: float = 0.05):
    """Two-sided beta-binomial radius f~_t(p): root of M_{p,r}(s, p(1-p)t) = 1/alpha."""
    return _mixture_radius(beta_binomial_log_mixture, t, p, r, alpha)


@_radius
def one_sided_beta_binomial_radius(t, p: float, r: float, alpha: float = 0.05):
    """One-sided radius: root of M^1_{p,r}(s, p(1-p)t) = 1/alpha.

    The lower radius at level p is this function evaluated at 1-p (the
    intrinsic time p(1-p)t is symmetric in p).
    """
    return _mixture_radius(one_sided_log_mixture, t, p, r, alpha)


# ---------------------------------------------------------------------------
# tuning
# ---------------------------------------------------------------------------


def tuning_denominator(alpha: float) -> float:
    """The divisor -W_{-1}(-alpha^2/e) - 1 of the mixture tuning rule, asymptotically.

    Evaluates the expansion 2 log(1/alpha) + log log(e/alpha^2), which the
    shipped reference tunings (r = 0.758 at p = 0.5, m = 32, alpha = 0.05)
    are consistent with; the exact branch differs in the second decimal
    (7.936 vs 8.212 at alpha = 0.05).
    """
    _check_alpha(alpha)
    # log(e / alpha^2) = 1 - 2 log(alpha), taken as such where alpha^2 is not a normal float
    log_arg = math.log(math.e / alpha ** 2) if alpha ** 2 >= _TINY else 1 - 2 * math.log(alpha)
    return 2.0 * math.log(1.0 / alpha) + math.log(log_arg)


TUNE_M = 32.0  # the reference tuning time of QLUCB, the A/B simulation and --tune-m


def tune_r(m_target: float, p: float, alpha: float = 0.05) -> float:
    """Mixture tuning r = p(1-p) (m / D(alpha) - 1) optimizing for time m_target."""
    if not 1.0 <= m_target < math.inf:
        raise TuningError(f"m_target must be >= 1, got {m_target}")
    _check_open_unit(p)
    d = tuning_denominator(alpha)
    r = p * (1.0 - p) * (m_target / d - 1.0)
    if r <= 0.0:
        raise TuningError(
            f"tuning rule gives r={r:.4g} <= 0 at m_target={m_target}; increase m_target"
        )
    return r


# ---------------------------------------------------------------------------
# normal mixture and iterated-logarithm boundaries
# ---------------------------------------------------------------------------

LIL_A = 0.85  # the iterated-logarithm multiplier A of every band, KS test and --A default


@_radius
def normal_mixture_radius(t, r: float, alpha: float = 0.05):
    """Sub-Gaussian mixture radius sqrt(((t+r)/t^2) log((t+r)/(alpha^2 r)))."""
    _check_r(r)
    _check_alpha(alpha)
    t_arr, scalar = _times(t)
    scale = alpha ** 2 * r  # where it is not a normal float the log is taken as a sum

    def log_sum(num):
        return np.log(num) - math.log(r) - 2.0 * math.log(alpha)

    log_term = (_log_or_sum(lambda x: (x + r) / scale, t_arr, lambda i: log_sum(t_arr[i] + r))
                if scale >= _TINY else log_sum(t_arr + r))
    out = np.sqrt((t_arr + r) / t_arr ** 2 * log_term)
    return _ret(out, scalar)


def _lil_objective(eta: float, a_mult: float, c_add: float) -> float:
    gamma = math.sqrt(2.0 / eta) * (a_mult - math.sqrt(2.0 * (eta - 1.0) / c_add))
    if gamma <= 1.0:
        return math.inf
    g2 = gamma * gamma
    return 4.0 * math.exp(-g2 * c_add) * (1.0 + 1.0 / ((g2 - 1.0) * math.log(eta)))


@lru_cache(maxsize=4096)
def lil_alpha(a_mult: float, c_add: float) -> float:
    """Crossing probability alpha_{A,C} of the iterated-logarithm boundary.

    Infimum over eta in (1, 2A^2) with gamma(A, C, eta) > 1 of
    4 e^{-gamma^2 C} (1 + 1/((gamma^2-1) log eta)); returns +inf when no
    feasible eta exists (a vacuous bound, value >= 1).
    """
    if not 1.0 / _SQRT2 < a_mult < math.inf:
        raise ConfigurationError(f"a_mult must exceed 1/sqrt(2), got {a_mult}")
    if not 0.0 < c_add < math.inf:
        raise ConfigurationError(f"c_add must be positive, got {c_add}")
    # past A = 1e150 eta searches (1, 1e300) within (1, 2A^2), so alpha only grows; a product
    # that overflows is inf, silently in the array pass as in Python floats
    eta_hi = 2.0 * a_mult ** 2 - 1e-6 if a_mult < 1e150 else 1e300
    eta_lo = 1.0 + 1e-6
    if eta_hi <= eta_lo:
        return math.inf
    eta = np.exp(np.linspace(math.log(eta_lo), math.log(eta_hi), 512))
    # the objective over the grid in one pass; gamma, and so the feasible set, are the
    # scalar's bits (sqrt and the arithmetic are correctly rounded), but exp and log may
    # differ from math's by a few ulps
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gamma = np.sqrt(2.0 / eta) * (a_mult - np.sqrt(2.0 * (eta - 1.0) / c_add))
        g2 = gamma * gamma
        tail = np.exp(-g2 * c_add)
        vals = 4.0 * tail * (1.0 + 1.0 / ((g2 - 1.0) * np.log(eta)))
    feasible = gamma > 1.0
    if not feasible.any():
        return math.inf
    # Below -746 the exp argument (the scalar's bits) makes math.exp exactly 0, as the least
    # subnormal is e^-744.4, so the scalar objective there is 0.0, its least value, which the
    # golden section cannot lower: the scalar pass returns 0.0.
    if (feasible & (g2 * c_add > 746.0)).any():
        return 0.0
    # Where the tail is a normal float the array value is within a relative 1e-12 of the
    # scalar one, so the scalar's first minimum lies among the points within 1e-12 of the
    # array minimum of those; a subnormal or zero tail has no relative bound, so such a
    # point is always taken.  The scalar objective over these points picks the grid point.
    normal = tail >= _TINY
    near = vals <= np.min(vals, where=feasible & normal, initial=math.inf) * (1.0 + 1e-12)
    points = np.flatnonzero(feasible & (near | ~normal)).tolist()
    grid = eta.tolist()
    scalar = [_lil_objective(grid[j], a_mult, c_add) for j in points]
    best = min(scalar)
    i = points[scalar.index(best)]
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    eta_star = golden_section_min(lambda e: _lil_objective(e, a_mult, c_add), lo, hi, tol=1e-8)
    return min(best, _lil_objective(eta_star, a_mult, c_add))


def lil_C_closed_form(alpha: float) -> float:
    """Closed-form inverse 0.8 log(1612/alpha), valid when the result is >= 7."""
    _check_alpha(alpha)
    return 0.8 * math.log(1612.0 / alpha)


@lru_cache(maxsize=4096)
def lil_C(a_mult: float, alpha: float) -> float:
    """Smallest C with lil_alpha(a_mult, C) <= alpha, by bisection in C."""
    _check_alpha(alpha)
    hi = 1.0
    for _ in range(80):
        if lil_alpha(a_mult, hi) <= alpha:
            break
        hi *= 2.0
    else:
        raise NumericalError("could not bracket lil_C")
    _, hi = bisection(lambda c, _: lil_alpha(a_mult, float(c[0])) <= alpha, 1e-9, hi)
    return float(hi[0])


@_radius
def lil_radius(t, a_mult: float, c_add: float, m_start: float = 1.0):
    """g_t = A sqrt((log log(e (t v m) / m) + C) / t)."""
    if not 1.0 <= m_start < math.inf:
        raise ConfigurationError(f"m_start must be >= 1, got {m_start}")
    t_arr, scalar = _times(t)
    tm = np.maximum(t_arr, m_start)
    log_tm = _log_or_sum(lambda x: math.e * x / m_start, tm,
                         lambda i: 1.0 + np.log(tm[i] / m_start))
    out = a_mult * np.sqrt((np.log(log_tm) + c_add) / t_arr)
    return _ret(out, scalar)


# ---------------------------------------------------------------------------
# literature baselines
# ---------------------------------------------------------------------------

BASELINE_KINDS = (
    "dkw_fixed",
    "dr1967",
    "dr1968",
    "szorenyi",
    "clt_pointwise",
    "hoeffding_kl",
)


def bernoulli_kl(q, p):
    """KL(q || p) between Bernoulli distributions, with 0 log 0 = 0."""
    q_arr = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(q_arr > 0.0, q_arr * np.log(q_arr / p), 0.0)
        t2 = np.where(q_arr < 1.0, (1.0 - q_arr) * np.log((1.0 - q_arr) / (1.0 - p)), 0.0)
    out = t1 + t2
    return float(out) if np.ndim(q) == 0 else out


def _hoeffding_kl_radius(t_arr, p: float, alpha: float):
    target = math.log(2.0 / alpha) / t_arr
    hi = np.full_like(t_arr, (1.0 - p) * (1.0 - 1e-12))
    # KL(p+x || p) increases in x on [0, 1-p); cap at the trivial radius when
    # even x -> 1-p cannot reach the target.
    trivial = bernoulli_kl(p + hi, p) < target
    lo, hi = bisection(lambda x, idx: bernoulli_kl(p + x, p) >= target[idx],
                       np.zeros_like(t_arr), hi)
    out = 0.5 * (lo + hi)
    return np.where(trivial, 1.0 - p, out)


@_radius
def baseline_radius(kind: str, t, p: float = 0.5, alpha: float = 0.05):
    """Radius of a literature baseline at time t.

    Kinds ignoring p (dkw_fixed, dr1968, szorenyi, dr1967) accept it but do
    not use it.  szorenyi generalizes the reference constant 2.093 to
    0.5 log(pi^2/(3 alpha)) (a union bound over t >= 32 with quadratically
    decaying per-time error probability).
    """
    _check_alpha(alpha)
    t_arr, scalar = _times(t)
    if kind == "dkw_fixed":
        out = np.sqrt(math.log(2.0 / alpha) / (2.0 * t_arr))
    elif kind == "dr1968":
        out = np.sqrt((t_arr + 1.0) * (2.0 * np.log(t_arr) + 0.601)) / t_arr
    elif kind == "szorenyi":
        if np.any(t_arr < 32):
            raise DomainError("szorenyi baseline requires t >= 32")
        const = 0.5 * math.log(math.pi ** 2 / (3.0 * alpha))
        out = np.sqrt((np.log(t_arr - 31.0) + const) / t_arr)
    elif kind == "dr1967":
        if np.any(t_arr < 2):
            raise DomainError("dr1967 baseline requires t >= 2")
        out = 3.0 / (2.0 * _SQRT2) * np.sqrt((np.log(np.log(t_arr)) + 1.457) / t_arr)
    elif kind == "clt_pointwise":
        _check_open_unit(p)
        out = float(ndtri(1.0 - alpha / 2.0)) * np.sqrt(p * (1.0 - p) / t_arr)
    elif kind == "hoeffding_kl":
        _check_open_unit(p)
        out = _hoeffding_kl_radius(t_arr, p, alpha)
    else:
        raise DomainError(f"unknown baseline kind {kind!r}; valid kinds: {BASELINE_KINDS}")
    return _ret(out, scalar)

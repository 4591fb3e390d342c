"""Special-function kernels for the boundary computations.

All Beta/Gamma quantities are handled in log space because mixture arguments
grow linearly with the sample size and overflow otherwise.  The incomplete
beta function falls back to a continued fraction (with the usual symmetry
switch) wherever the direct regularized value would underflow.  This is the
one module that imports scipy: the others read `gammaln`, `ndtri` and
`ndtr` from here.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import betainc, gammaln, ndtr, ndtri

from .errors import DomainError, NumericalError

__all__ = [
    "betainc",
    "gammaln",
    "ndtr",
    "ndtri",
    "zeta",
    "log_beta",
    "log_betainc",
    "bisection",
    "golden_section_min",
    "logit",
    "expit",
]

# Below this, a regularized incomplete beta from scipy is treated as
# underflowed and recomputed via the continued fraction.
_UNDERFLOW = 1e-280


@lru_cache(maxsize=64, typed=True)
def zeta(s: float) -> float:
    """Riemann zeta(s) for s > 1 via a direct series with Euler-Maclaurin tail.

    Absolute error below 1e-12 for s in (1, 4], which is tighter than the
    1e-10 this package relies on.  Memoized: the stitched radii evaluate it
    at the same s on every call.
    """
    if s <= 1.0:
        raise DomainError(f"zeta requires s > 1, got {s}")
    if s > 64.0:
        return 1.0  # zeta(s) - 1 < 2**-63, so 1.0 is the nearest float
    n = 24
    head = sum(k ** -s for k in range(1, n))
    tail = (
        n ** (1.0 - s) / (s - 1.0)
        + 0.5 * n ** -s
        + s / 12.0 * n ** (-s - 1.0)
        - s * (s + 1.0) * (s + 2.0) / 720.0 * n ** (-s - 3.0)
        + s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) / 30240.0 * n ** (-s - 5.0)
    )
    return head + tail


def log_beta(a, b):
    """log B(a, b), elementwise."""
    return gammaln(a) + gammaln(b) - gammaln(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz).

    Returns the O(1) factor h with
    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * h, valid (and rapidly convergent)
    for x < (a + 1) / (a + b + 2): at most 500 steps, stopping once a step
    changes h by a factor within 3e-15 of 1.
    """
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 501):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            c = 1.0 + aa / c
            if abs(d) < tiny:
                d = tiny
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delt = d * c
            h *= delt
        if abs(delt - 1.0) < 3e-15:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def _log_betainc_cf(a: float, b: float, x: float) -> float:
    """log I_x(a, b) via the continued fraction, scalar."""
    if x <= 0.0:
        return -math.inf
    if x >= 1.0:
        return 0.0
    # Symmetry switch: past this point the complement is the numerically small side.
    flip = x >= (a + 1.0) / (a + b + 2.0)
    h = _betacf(b, a, 1.0 - x) if flip else _betacf(a, b, x)
    log_side = (a * math.log(x) + b * math.log1p(-x) - math.log(b if flip else a)
                - float(log_beta(a, b)) + math.log(h))
    if not flip:
        return log_side
    if log_side >= 0.0:
        # Complement rounded up to 1; I_x itself is vanishing.
        return -math.inf
    return math.log1p(-math.exp(log_side))


def log_betainc(a, b, x):
    """log of the regularized incomplete beta I_x(a, b); array-capable in a, b.

    Uses scipy's betainc where it does not underflow and the log-space
    continued-fraction route in the deep tail.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    scalar = a_arr.ndim == 0 and b_arr.ndim == 0
    a_arr, b_arr = np.atleast_1d(a_arr), np.atleast_1d(b_arr)
    if a_arr.shape != b_arr.shape:
        a_arr, b_arr = np.broadcast_arrays(a_arr, b_arr)
    if (a_arr <= 0.0).any() or (b_arr <= 0.0).any():
        raise DomainError("incomplete beta requires positive shape parameters")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"incomplete beta requires x in [0, 1], got {x}")
    direct = betainc(a_arr, b_arr, x)
    # only a zero makes the log warn, and entering np.errstate costs more than the check
    if direct.all():
        out = np.log(direct)
    else:
        with np.errstate(divide="ignore"):
            out = np.log(direct)
    deep = direct < _UNDERFLOW
    if deep.any():
        flat = out.reshape(-1)
        af = a_arr.reshape(-1)
        bf = b_arr.reshape(-1)
        for i in np.nonzero(deep.reshape(-1))[0]:
            flat[i] = _log_betainc_cf(float(af[i]), float(bf[i]), x)
    if scalar:
        return float(out[0])
    return out


def bisection(pred, lo, hi, tol: float = 0.0, max_iter: int = 80):
    """Elementwise bisection for the roots of monotone predicates; returns (lo, hi).

    pred(x, idx) says, for the elements idx at their midpoints x, whether
    each root lies at or below x: such an element moves its upper end to x,
    any other its lower end.  Each element stops once its own bracket is at
    most tol wide (a bracket of zero width could no longer move), so it
    takes the same steps, and returns the same bits, as a one-element call.
    The brackets come back as arrays, scalar ends as one-element ones.
    """
    lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(np.atleast_1d(lo), hi))
    live = np.flatnonzero(hi - lo > tol)
    for _ in range(max_iter):
        if live.size == 0:
            break
        lo_l, hi_l = lo[live], hi[live]
        mid = 0.5 * (lo_l + hi_l)
        below = pred(mid, live)
        hi_l = np.where(below, mid, hi_l)
        lo_l = np.where(below, lo_l, mid)
        lo[live], hi[live] = lo_l, hi_l
        live = live[hi_l - lo_l > tol]
    return lo, hi


def golden_section_min(f, lo, hi, tol: float = 1e-10):
    """Golden-section minimizer for a unimodal f on [lo, hi]; returns argmin.

    With one-dimensional array brackets, minimizes one function per element:
    f(x, idx) returns the values at the points x of the elements idx.  Each
    element stops once its own bracket is at most tol wide (or after 200
    steps), so it takes the same steps, and returns the same bits, as a
    scalar call on its function.
    """
    if np.ndim(lo) or np.ndim(hi):
        return _golden_section_min_array(f, lo, hi, tol)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _golden_section_min_array(f, lo, hi, tol: float) -> np.ndarray:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    idx = np.arange(a.size)
    fc = np.asarray(f(c, idx), dtype=float)
    fd = np.asarray(f(d, idx), dtype=float)
    live = idx[b - a > tol]
    for _ in range(200):
        if live.size == 0:
            break
        al, bl, cl, dl, fcl, fdl = a[live], b[live], c[live], d[live], fc[live], fd[live]
        lt = fcl < fdl
        # fc < fd: the bracket keeps [a, d] and probes a new c; else [c, b] and a new d
        a_new = np.where(lt, al, cl)
        b_new = np.where(lt, dl, bl)
        x = np.where(lt, b_new - invphi * (b_new - a_new), a_new + invphi * (b_new - a_new))
        fx = f(x, live)
        a[live], b[live] = a_new, b_new
        c[live] = np.where(lt, x, dl)
        d[live] = np.where(lt, cl, x)
        fc[live] = np.where(lt, fx, fdl)
        fd[live] = np.where(lt, fcl, fx)
        live = live[b_new - a_new > tol]
    return 0.5 * (a + b)


def logit(p):
    p_arr = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.log(p_arr) - np.log1p(-p_arr)
    return float(out) if np.ndim(p) == 0 else out


def expit(z):
    z_arr = np.asarray(z, dtype=float)
    out = np.where(z_arr >= 0, 1.0 / (1.0 + np.exp(-z_arr)), np.exp(z_arr) / (1.0 + np.exp(z_arr)))
    return float(out) if np.ndim(z) == 0 else out

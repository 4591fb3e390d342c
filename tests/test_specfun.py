"""Oracle checks for the special-function kernels.

Each routine is compared against an independent implementation: mpmath
arbitrary-precision evaluation (and adaptive quadrature for the incomplete
beta), scipy's Lambert W, and closed forms.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from seqquant.errors import DomainError
from seqquant.specfun import (
    _betacf,
    bisection,
    expit,
    golden_section_min,
    lambert_wm1,
    log_betainc,
    logit,
    zeta,
)

mp.mp.dps = 40


class TestZeta:
    def test_against_mpmath(self):
        for s in (1.05, 1.1, 1.4, 2.0, 2.5, 3.0, 4.0):
            assert abs(zeta(s) - float(mp.zeta(s))) < 1e-10

    def test_known_value(self):
        assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta(1.0)


class TestLambertW:
    def test_against_scipy(self):
        for x in (-1 / math.e + 1e-6, -0.1, -0.01, -1e-3, -1e-6, -1e-12):
            expect = float(special.lambertw(x, k=-1).real)
            assert lambert_wm1(x) == pytest.approx(expect, abs=1e-10)

    def test_defining_equation(self):
        x = -9.19699e-4
        z = lambert_wm1(x)
        assert z * math.exp(z) == pytest.approx(x, rel=1e-10)
        assert z < -1

    def test_domain(self):
        with pytest.raises(DomainError):
            lambert_wm1(0.1)
        with pytest.raises(DomainError):
            lambert_wm1(-1.0)


def _log_betainc_quad(a, b, x):
    """Adaptive-quadrature oracle for log I_x(a, b) (moderate shapes)."""
    a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(x)
    f = lambda u: u ** (a - 1) * (1 - u) ** (b - 1)
    num = mp.quad(f, [0, x])
    return float(mp.log(num) - mp.log(mp.beta(a, b)))


class TestLogBetainc:
    def test_moderate_values_against_quadrature(self):
        cases = [(2.0, 3.0, 0.4), (0.5, 0.5, 0.3), (10.0, 1.5, 0.8), (30.0, 12.0, 0.6)]
        for a, b, x in cases:
            assert log_betainc(a, b, x) == pytest.approx(_log_betainc_quad(a, b, x), rel=1e-9)

    def test_large_shapes_against_mpmath(self):
        # quadrature loses the sharply peaked integrand here; mpmath's
        # hypergeometric evaluation is the arbitrary-precision reference
        got = log_betainc(300.0, 100.0, 0.5)
        assert got == pytest.approx(-55.700842899801846139, rel=1e-12)

    def test_deep_tail_where_scipy_underflows(self):
        # direct regularized value is ~exp(-2550): far below double range
        got = log_betainc(5000.0, 2000.0, 0.3)
        assert got == pytest.approx(-2550.5861999681569737, rel=1e-10)

    def test_vectorized_matches_scalar(self):
        a = np.array([2.0, 300.0, 5000.0])
        b = np.array([3.0, 100.0, 2000.0])
        got = log_betainc(a, b, 0.3)
        expect = [log_betainc(float(ai), float(bi), 0.3) for ai, bi in zip(a, b)]
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_edges(self):
        assert log_betainc(2.0, 3.0, 1.0) == 0.0
        assert log_betainc(2.0, 3.0, 0.0) == -math.inf
        with pytest.raises(DomainError):
            log_betainc(-1.0, 2.0, 0.5)

    def test_continued_fraction_factor_matches_identity(self):
        # I_x(a,b) reconstructed from the CF factor equals scipy's direct value
        a, b, x = 4.0, 7.0, 0.2
        h = _betacf(a, b, x)
        rebuilt = math.exp(
            a * math.log(x) + b * math.log1p(-x) - math.log(a)
            - float(special.betaln(a, b)) + math.log(h)
        )
        assert rebuilt == pytest.approx(float(special.betainc(a, b, x)), rel=1e-12)


class TestGoldenSection:
    def test_quadratic(self):
        x = golden_section_min(lambda z: (z - 0.3) ** 2, 0.0, 1.0, tol=1e-12)
        assert x == pytest.approx(0.3, abs=1e-9)

    def test_boundary_minimum(self):
        x = golden_section_min(lambda z: z, 0.0, 1.0, tol=1e-12)
        assert 0.0 < x < 1e-9

    def test_array_brackets_equal_scalar_searches_bit_for_bit(self):
        # per-element minima, a flat stretch, a boundary minimum, and brackets
        # of different widths, so elements stop after different step counts
        centers = np.array([0.3, 0.7, -1.0, 2.0, 0.5])
        lo = np.array([0.0, 0.0, 0.0, 0.0, 0.25])
        hi = np.array([1.0, 1.0, 1.0, 1.0, 0.2500001])

        def f(z, c):
            return np.maximum((z - c) ** 2, 0.01)

        got = golden_section_min(lambda z, i: f(z, centers[i]), lo, hi, tol=1e-10)
        for k in range(len(centers)):
            want = golden_section_min(lambda z: float(f(z, centers[k])), float(lo[k]),
                                      float(hi[k]), tol=1e-10)
            assert got[k] == want


def _fixed_step_bisection(pred, lo: float, hi: float, steps: int):
    """The scalar loop the fixed-step root searches ran: every step moves one end."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


class TestBisection:
    def test_tol_zero_equals_fixed_step_loop(self):
        # past the width of one ulp a bracket either stays or collapses, and
        # a collapsed one no longer moves, so stopping there changes no bit
        for x in -np.exp(-np.linspace(1.0, 45.0, 40)):
            def below(z, x=x):
                return z * math.exp(z) <= x

            lo, hi = bisection(lambda z, _: below(float(z[0])), -50.0, -1.0)
            assert (lo[0], hi[0]) == _fixed_step_bisection(below, -50.0, -1.0, 80)

    def test_array_brackets_equal_one_element_calls_bit_for_bit(self):
        # brackets of different widths and a zero-width one, so elements stop
        # after different step counts
        targets = np.array([0.1, 2.0, 4.0, 9.9, 0.0, 25.0])
        lo = np.array([0.0, 0.0, 1.0, 3.0, 0.0, 5.0])
        hi = np.array([10.0, 10.0, 2.5, 3.2, 1e-10, 5.0])
        got_lo, got_hi = bisection(lambda x, i: x * x >= targets[i], lo, hi, tol=1e-9,
                                   max_iter=60)
        for k, target in enumerate(targets):
            one_lo, one_hi = bisection(lambda x, _: x * x >= target, lo[k], hi[k], tol=1e-9,
                                       max_iter=60)
            assert (got_lo[k], got_hi[k]) == (one_lo[0], one_hi[0])
        assert np.all(got_hi - got_lo <= 1e-9)
        assert (got_lo[5], got_hi[5]) == (5.0, 5.0)

    def test_root_is_bracketed(self):
        lo, hi = bisection(lambda x, _: x * x >= 2.0, 0.0, 2.0)
        assert lo[0] <= math.sqrt(2.0) <= hi[0]
        assert hi[0] - lo[0] <= 4.5e-16


class TestLogitExpit:
    def test_roundtrip(self):
        for p in (1e-6, 0.3, 0.5, 0.9, 1 - 1e-6):
            assert expit(logit(p)) == pytest.approx(p, rel=1e-12)


class TestLogGammaContract:
    def test_relative_accuracy_over_working_range(self):
        # the numeric contract behind all log-space Beta evaluations
        from scipy.special import gammaln

        for x in np.geomspace(1e-3, 1e6, 60):
            expect = float(mp.loggamma(mp.mpf(float(x))))
            got = float(gammaln(x))
            assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))

"""Boundary functions: worked examples, frozen oracle values, and invariants.

Frozen constants were computed with 50-digit mpmath evaluation of the same
closed forms (see test_specfun for the quadrature oracle behind the
incomplete beta); Monte Carlo checks simulate the underlying Bernoulli
processes directly.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from seqquant import boundaries as bd
from seqquant import confseq, seqtest
from seqquant.boundaries import (
    BASELINE_KINDS,
    DoubleStitchConfig,
    StitchConfig,
    baseline_radius,
    bernoulli_kl,
    beta_binomial_log_mixture,
    beta_binomial_radius,
    double_stitch_log_constant,
    double_stitch_radius,
    expansion_constant,
    expansion_constant_limit,
    ftilde_asymptote,
    lil_C,
    lil_C_closed_form,
    lil_alpha,
    lil_radius,
    normal_mixture_radius,
    one_sided_beta_binomial_radius,
    one_sided_log_mixture,
    stitched_radius,
    stitched_radius_simple,
    tune_r,
    tuning_denominator,
)
from seqquant.errors import ConfigurationError, DomainError, NumericalError, TuningError
from seqquant.specfun import expit, logit, zeta

mp.mp.dps = 40


class TestStitched:
    def test_simple_preset_value(self):
        # frozen from 50-digit evaluation of the same closed form
        assert stitched_radius_simple(1000, 0.5, 0.05) == pytest.approx(
            0.074212402024879289848, abs=1e-4
        )

    def test_simple_preset_at_p_zero(self):
        # p(1-p) = 0 kills the square-root term
        for t in (10, 1000, 12345):
            ell = (1.4 * math.log(math.log(2.1 * t)) + math.log(10 / 0.05)) / t
            assert stitched_radius_simple(t, 0.0, 0.05) == pytest.approx(0.8 * ell, rel=1e-12)

    def test_general_below_simple(self):
        # the simple preset rounds every constant upward
        cfg = StitchConfig(eta=2.04, s_exp=1.4, m_start=1.0, alpha=0.05)
        assert 2 * zeta(1.4) / math.log(2.04) ** 1.4 <= 10.0
        assert cfg.k1 <= 1.5
        assert cfg.k2 * abs((1 - 2 * 0.5) / 3) <= 0.405  # c_p = 0 at the median
        assert cfg.k2 / 3 <= 0.405  # worst case |c_p| = 1/3
        for p in (0.05, 0.3, 0.5, 0.9):
            got = stitched_radius(1000, p, cfg)
            assert got <= stitched_radius_simple(1000, p, 0.05) + 1e-12

    def test_before_m_uses_sp_at_m(self):
        cfg = StitchConfig(eta=2.04, s_exp=1.4, m_start=32.0, alpha=0.05)
        # S_p(t v m) / t: below m the numerator freezes, so radius scales as 1/t
        r16 = stitched_radius(16, 0.5, cfg)
        r32 = stitched_radius(32, 0.5, cfg)
        assert r16 == pytest.approx(2.0 * r32, rel=1e-12)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            StitchConfig(eta=1.0, s_exp=1.4)
        with pytest.raises(ConfigurationError):
            StitchConfig(eta=2.0, s_exp=0.9)
        with pytest.raises(ConfigurationError):
            StitchConfig(eta=2.0, s_exp=1.4, m_start=0.5)
        with pytest.raises(ConfigurationError):
            StitchConfig(eta=2.0, s_exp=1.4, alpha=1.5)

    def test_constant_where_log_eta_power_leaves_the_floats(self):
        # log(10) ** 1000 overflows: the constant is summed in logs
        cfg = StitchConfig(eta=10.0, s_exp=1000.0, alpha=0.05)
        t = 1000.0
        ell = 1000 * math.log(math.log(10 * t) / math.log(10)) + math.log(2 / 0.05)
        expected = math.sqrt(cfg.k1 ** 2 * 0.25 * t * ell) / t
        assert stitched_radius(t, 0.5, cfg) == pytest.approx(expected, rel=1e-9)
        # log(2.04) ** 1e300 underflows, and ell ** 2 would overflow
        with pytest.raises(NumericalError, match="outside"):
            stitched_radius(2.0, 0.5, StitchConfig(eta=2.04, s_exp=1e300))

    def test_vectorized(self):
        ts = np.array([10, 100, 1000])
        got = stitched_radius_simple(ts, 0.5, 0.05)
        expect = [stitched_radius_simple(int(t), 0.5, 0.05) for t in ts]
        np.testing.assert_allclose(got, expect, rtol=1e-14)


class TestDoubleStitch:
    def test_additive_constant_rounds_to_72(self):
        cfg = DoubleStitchConfig.default_preset(alpha=0.05)
        assert double_stitch_log_constant(cfg) == pytest.approx(71.9, abs=0.2)

    def test_rpt_is_p_above_half(self):
        cfg = DoubleStitchConfig.default_preset(alpha=0.05)
        # first case of the surrogate-level definition: no grid inflation
        for p in (0.5, 0.7, 0.95):
            for t in (1, 100, 10 ** 6):
                tm = max(t, cfg.m_start)
                rpt = p  # by definition
                sigma2 = rpt * (1 - rpt)
                j = math.sqrt(tm / cfg.m_start) * abs(logit(p)) / (2 * cfg.grid_delta) + 1
                ell = (
                    cfg.s_exp * math.log(math.log(cfg.eta * tm / cfg.m_start))
                    + cfg.s_exp * math.log(j)
                    + math.log(double_stitch_log_constant(cfg) / cfg.alpha)
                )
                cp = (1 - 2 * p) / 3
                g = cfg.grid_delta * math.sqrt(cfg.eta * tm * sigma2 / cfg.m_start)
                g += math.sqrt(cfg.k1 ** 2 * sigma2 * tm * ell + (cfg.k2 * cp * ell) ** 2)
                g += cp * cfg.k2 * ell
                assert double_stitch_radius(t, p, cfg) == pytest.approx(g / t, rel=1e-12)

    def test_low_p_value_frozen_oracle(self):
        # 50-digit mpmath evaluation of the three-term general formula
        cfg = DoubleStitchConfig.default_preset(alpha=0.05)
        assert double_stitch_radius(1000, 0.05, cfg) == pytest.approx(
            0.052480197209501532234, rel=1e-10
        )

    def test_below_half_uses_inflated_level(self):
        cfg = DoubleStitchConfig.default_preset(alpha=0.05)
        t = 1000
        rpt = min(0.5, expit(logit(0.05) + 2 * 0.5 * math.sqrt(cfg.eta / t)))
        assert 0.05 < rpt < 0.5

    def test_domain(self):
        cfg = DoubleStitchConfig.default_preset()
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                double_stitch_radius(100, p, cfg)


class TestBetaBinomialMixture:
    def test_zero_at_origin(self):
        for p in (0.1, 0.5, 0.77):
            for r in (0.3, 1.0, 5.0):
                assert beta_binomial_log_mixture(0.0, 0.0, p, r) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_oracle_value(self):
        # mpmath: log M(2, 25, p=0.5, r=1) = -1.6108481857202774671
        assert beta_binomial_log_mixture(2.0, 25.0, 0.5, 1.0) == pytest.approx(
            -1.6108481857202774671, rel=1e-12
        )

    def test_symmetry_at_half(self):
        for s in (0.5, 2.0, 7.0):
            a = beta_binomial_log_mixture(s, 25.0, 0.5, 1.3)
            b = beta_binomial_log_mixture(-s, 25.0, 0.5, 1.3)
            assert a == pytest.approx(b, rel=1e-12)

    def test_domain_error_names_argument(self):
        with pytest.raises(DomainError, match=r"\(r\+v\)/p - s"):
            beta_binomial_log_mixture(1e9, 25.0, 0.5, 1.0)
        with pytest.raises(DomainError, match=r"\(r\+v\)/\(1-p\) \+ s"):
            beta_binomial_log_mixture(-1e9, 25.0, 0.5, 1.0)

    def test_unimodal_in_s(self):
        # single sign change of finite differences on a fine grid
        rng = np.random.default_rng(20240817)
        for _ in range(50):
            p = float(rng.uniform(0.05, 0.95))
            r = float(rng.uniform(0.1, 3.0))
            v = float(rng.uniform(0.5, 500.0))
            lo = -v / (1 - p) + (r + v) * 1e-6
            hi = v / p - (r + v) * 1e-6
            s = np.linspace(lo, hi, 1000)
            vals = beta_binomial_log_mixture(s, v, p, r)
            sign = np.sign(np.diff(vals))
            sign = sign[sign != 0]
            changes = int(np.sum(np.abs(np.diff(sign)) > 0))
            assert changes <= 1


class TestOneSidedMixture:
    def test_zero_at_origin(self):
        assert one_sided_log_mixture(0.0, 0.0, 0.3, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_s(self):
        vals = [one_sided_log_mixture(s, 25.0, 0.3, 1.0) for s in (-2.0, 0.0, 2.0)]
        assert vals[0] <= vals[1] <= vals[2]
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = float(rng.uniform(0.1, 0.9))
            r = float(rng.uniform(0.2, 2.0))
            v = float(rng.uniform(1.0, 200.0))
            grid = np.linspace(-v / (1 - p) * 0.99, v / p * 0.99, 200)
            vals = one_sided_log_mixture(grid, v, p, r)
            assert np.all(np.diff(vals) >= -1e-9)

    def test_frozen_oracle_value(self):
        # mpmath quadrature oracle: log M1(3, 16, p=0.5, r=0.758)
        assert one_sided_log_mixture(3.0, 16.0, 0.5, 0.758) == pytest.approx(
            -0.92098647520409574325, rel=1e-10
        )


class TestBetaBinomialRadius:
    def test_root_property(self):
        for t in (10, 100, 1000):
            for p in (0.1, 0.5, 0.9):
                rad = beta_binomial_radius(t, p, 0.758, 0.05)
                v = p * (1 - p) * t
                root_val = beta_binomial_log_mixture(rad * t, v, p, 0.758)
                assert root_val == pytest.approx(math.log(1 / 0.05), abs=1e-6)

    def test_frozen_bisection_oracle(self):
        # 200-step bisection on the mpmath mixture
        assert beta_binomial_radius(100, 0.5, 0.758, 0.05) == pytest.approx(
            0.15584094281040435534, rel=1e-9
        )

    def test_monotone_in_alpha(self):
        assert beta_binomial_radius(100, 0.5, 1.0, 0.01) > beta_binomial_radius(
            100, 0.5, 1.0, 0.10
        )

    def test_one_sided_below_two_sided(self):
        # same crossing level: one-sided mixture never exceeds the two-sided one
        for t in (50, 500):
            assert one_sided_beta_binomial_radius(t, 0.5, 0.758, 0.05) <= (
                beta_binomial_radius(t, 0.5, 0.758, 0.05)
            )


class TestFtildeAsymptote:
    def test_limit_constant_as_p_vanishes(self):
        c = expansion_constant(1e-6, 1.0)
        assert c == pytest.approx(expansion_constant_limit(1.0), rel=1e-3)

    def test_large_r_sqrt_growth(self):
        r = 1e4
        assert expansion_constant_limit(r) / math.sqrt(r) == pytest.approx(1.0, abs=1e-4)

    def test_direct_value_and_convergence_trend(self):
        p, r, alpha = 0.5, 1.0, 0.05
        c = expansion_constant(p, r)
        t = 10 ** 6
        expect = math.sqrt(p * (1 - p) / t * math.log(p * (1 - p) * t / (c ** 2 * alpha ** 2)))
        got = ftilde_asymptote(t, p, r, alpha)
        assert not got.pre_asymptotic
        assert got.value == pytest.approx(expect, rel=1e-12)
        # ratio to the exact radius drifts toward 1 as t grows (no fixed tolerance)
        ratios = [
            ftilde_asymptote(t, p, r, alpha).value / beta_binomial_radius(t, p, r, alpha)
            for t in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
        ]
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)

    def test_pre_asymptotic_flag(self):
        # p(1-p) t <= C^2 alpha^2 makes the log argument at most one
        res = ftilde_asymptote(1, 0.5, 1.0, 0.9)
        assert res.pre_asymptotic and res.value == 0.0


class TestTuning:
    def test_reference_values(self):
        assert tune_r(32, 0.5, 0.05) == pytest.approx(0.758, abs=1e-3)
        assert tune_r(32, 0.05, 0.05) == pytest.approx(0.145, abs=1e-3)

    def test_denominator_forms(self):
        # the asymptotic form evaluates to 7.936; the exact Lambert branch
        # gives 8.212 (the reference r values correspond to the former)
        approx = tuning_denominator(0.05, "approx")
        assert approx == pytest.approx(
            2 * math.log(20) + math.log(math.log(400 * math.e)), rel=1e-12
        )
        assert approx == pytest.approx(7.936, abs=0.001)
        exact = tuning_denominator(0.05, "lambert")
        z = -exact - 1 + 0  # recover W_{-1} value: exact = -W - 1
        w = -(exact + 1)
        assert w * math.exp(w) == pytest.approx(-0.05 ** 2 / math.e, rel=1e-9)
        assert exact == pytest.approx(8.212, abs=0.001)

    @pytest.mark.parametrize("alpha", [1e-12, 0.05, 0.5])
    def test_lambert_form_solves_defining_equation(self, alpha):
        w = -tuning_denominator(alpha, "lambert") - 1.0
        assert w < -1.0
        assert w * math.exp(w) == pytest.approx(-alpha ** 2 / math.e, rel=1e-12)

    def test_lambert_form_r(self):
        r = tune_r(32, 0.5, 0.05, form="lambert")
        assert r == pytest.approx(0.25 * (32 / 8.211968062068253 - 1), rel=1e-9)

    def test_too_small_m_raises(self):
        with pytest.raises(TuningError, match="increase m_target"):
            tune_r(2, 0.5, 0.05)

    @pytest.mark.parametrize("alpha", [1e-160, 1e-200, 1e-300])
    def test_denominator_where_alpha_squared_is_not_normal(self, alpha):
        # log(e / alpha^2) is taken as 1 - 2 log(alpha)
        expected = 2 * math.log(1 / alpha) + math.log(1 - 2 * math.log(alpha))
        assert tuning_denominator(alpha) == pytest.approx(expected, rel=1e-12)
        assert tune_r(1e10, 0.5, alpha) > 0


class TestNormalMixture:
    def test_reference_value(self):
        assert normal_mixture_radius(100, 0.504, 0.05) == pytest.approx(0.3368, abs=1e-3)

    def test_scaling_map_bounded(self):
        # t * radius^2 - log t stays bounded at fixed (r, alpha)
        ts = np.array([10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6], dtype=float)
        rad = normal_mixture_radius(ts, 0.504, 0.05)
        vals = ts * rad ** 2 - np.log(ts)
        assert np.max(vals) - np.min(vals) < 1.0

    def test_monotone_in_inverse_alpha(self):
        assert normal_mixture_radius(100, 0.5, 0.01) > normal_mixture_radius(100, 0.5, 0.2)

    @pytest.mark.parametrize("alpha, r", [(1e-200, 1.0), (0.05, 1e-320), (1e-300, 1e-10)])
    def test_tiny_alpha_squared_r(self, alpha, r):
        # where alpha^2 r is not a normal float, log((t + r) / (alpha^2 r)) is a sum of logs
        t = np.array([1.0, 10.0, 1e6])
        expected = np.sqrt((t + r) / t ** 2 * (np.log(t + r) - math.log(r) - 2 * math.log(alpha)))
        np.testing.assert_allclose(normal_mixture_radius(t, r, alpha), expected, rtol=1e-14)
        assert normal_mixture_radius(10.0, r, alpha) == normal_mixture_radius(t, r, alpha)[1]


class TestLil:
    def test_envelope(self):
        for c in (7.0, 8.0, 10.0, 14.0):
            assert lil_alpha(0.85, c) <= 1612 * math.exp(-1.25 * c) + 1e-12

    def test_infeasible_returns_sentinel(self):
        assert lil_alpha(0.75, 0.01) >= 1.0

    def test_reference_level(self):
        assert lil_alpha(0.85, 8.12) == pytest.approx(0.05, abs=0.002)

    def test_lil_c_value(self):
        assert lil_C(0.85, 0.05) == pytest.approx(8.12, abs=0.05)

    def test_huge_a(self):
        # 2 A^2 overflows; eta is searched in (1, 1e300) and every C is feasible
        assert lil_alpha(1e300, 1.0) == 0.0
        assert 0.0 < lil_C(1e300, 0.05) < 1e-8

    def test_closed_form(self):
        assert lil_C_closed_form(0.05) == pytest.approx(8.305, abs=0.01)

    def test_round_trip(self):
        for x in (0.01, 0.05, 0.2):
            assert lil_alpha(0.85, lil_C(0.85, x)) <= x + 1e-9

    def test_monotone_in_both_arguments(self):
        cs = [2.0, 4.0, 8.0, 16.0]
        vals = [lil_alpha(0.85, c) for c in cs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        amps = [0.72, 0.85, 1.0, 1.5]
        vals = [lil_alpha(a, 8.0) for a in amps]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestBaselines:
    def test_dkw_fixed(self):
        rad = baseline_radius("dkw_fixed", 100, alpha=0.05)
        assert rad * math.sqrt(100) == pytest.approx(1.358, abs=1e-3)

    def test_szorenyi_reference_constant(self):
        # 0.5 log(pi^2 / (3 * 0.05)) reproduces the reference 2.093
        const = 0.5 * math.log(math.pi ** 2 / (3 * 0.05))
        assert const == pytest.approx(2.093, abs=5e-4)
        rad = baseline_radius("szorenyi", 100, alpha=0.05)
        assert rad == pytest.approx(math.sqrt((math.log(69) + const) / 100), rel=1e-12)

    def test_clt_pointwise(self):
        got = baseline_radius("clt_pointwise", 100, 0.5, 0.05)
        z = _acklam_normal_quantile(1 - 0.05 / 2)
        assert got == pytest.approx(z * 0.05, abs=1e-3)
        assert got == pytest.approx(0.0980, abs=1e-3)

    def test_hoeffding_kl_solves_equation(self):
        x = baseline_radius("hoeffding_kl", 100, 0.5, 0.05)
        # independent coarse bisection oracle on the monotone KL
        lo, hi = 0.0, 0.5 - 1e-12
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if 100 * bernoulli_kl(0.5 + mid, 0.5) >= math.log(2 / 0.05):
                hi = mid
            else:
                lo = mid
        assert x == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_dr1968_and_dr1967_forms(self):
        t = 1000
        assert baseline_radius("dr1968", t) == pytest.approx(
            math.sqrt((t + 1) * (2 * math.log(t) + 0.601)) / t, rel=1e-12
        )
        assert baseline_radius("dr1967", t) == pytest.approx(
            3 / (2 * math.sqrt(2)) * math.sqrt((math.log(math.log(t)) + 1.457) / t), rel=1e-12
        )

    def test_linear_warmup(self):
        t = 100
        lam = 0.3
        assert baseline_radius("linear_warmup", t, alpha=0.05, lam=lam) == pytest.approx(
            math.log(20) / (lam * t) + lam / 8, rel=1e-12
        )
        # the optimized default is the lam-minimum
        opt = baseline_radius("linear_warmup", t, alpha=0.05)
        grid = [baseline_radius("linear_warmup", t, alpha=0.05, lam=l)
                for l in np.linspace(0.01, 2.0, 500)]
        assert opt <= min(grid) + 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            baseline_radius("szorenyi", 31)
        with pytest.raises(DomainError):
            baseline_radius("dr1967", 1)
        with pytest.raises(DomainError):
            baseline_radius("nope", 100)


def _acklam_normal_quantile(p: float) -> float:
    """Rational-approximation oracle for the standard normal quantile."""
    a = [-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00]
    b = [-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00]
    plow, phigh = 0.02425, 1 - 0.02425
    if p < plow:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > phigh:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


class TestInvariants:
    def test_positive_and_decreasing_over_time(self):
        m = 32
        grid = np.unique(np.round(np.geomspace(m, 10 ** 6, 40)).astype(int))
        cfg = StitchConfig(eta=2.04, s_exp=1.4, m_start=float(m), alpha=0.05)
        ds = DoubleStitchConfig.default_preset(alpha=0.05, m_start=float(m))
        curves = {
            "stitched": stitched_radius(grid, 0.5, cfg),
            "stitched_simple": stitched_radius_simple(grid, 0.5, 0.05),
            "beta_binomial": beta_binomial_radius(grid, 0.5, 0.758, 0.05),
            "one_sided_bb": one_sided_beta_binomial_radius(grid, 0.5, 0.758, 0.05),
            "normal_mixture": normal_mixture_radius(grid, 0.504, 0.05),
            "double_stitch": double_stitch_radius(grid, 0.5, ds),
            "lil": lil_radius(grid, 0.85, 8.123, float(m)),
            "dkw_fixed": baseline_radius("dkw_fixed", grid),
            "dr1968": baseline_radius("dr1968", grid),
            "dr1967": baseline_radius("dr1967", grid),
            "clt_pointwise": baseline_radius("clt_pointwise", grid, 0.5),
            "hoeffding_kl": baseline_radius("hoeffding_kl", grid, 0.5),
        }
        sz_grid = grid[grid >= 64]
        curves["szorenyi"] = baseline_radius("szorenyi", sz_grid)
        for name, vals in curves.items():
            assert np.all(vals > 0), name
            assert np.all(np.diff(vals) <= 1e-15), name

    def test_monte_carlo_crossing_control(self):
        # 2000 Bernoulli(p) streams to horizon 1e4: one-sided upper crossings
        # of t * radius occur in at most alpha + 3 sigma of streams
        horizon = 10 ** 4
        alpha = 0.05
        n_streams = 2000
        bound = alpha + 3 * math.sqrt(alpha * (1 - alpha) / n_streams)
        ts = np.arange(1, horizon + 1, dtype=float)
        rng = np.random.default_rng(987654321)
        for p in (0.1, 0.5):
            envelopes = {
                "stitched": stitched_radius_simple(ts, p, alpha) * ts,
                "beta_binomial": beta_binomial_radius(ts, p, tune_r(32, p, alpha), alpha) * ts,
            }
            crossed = {k: 0 for k in envelopes}
            for _ in range(n_streams // 200):
                block = (rng.random((200, horizon)) < p).cumsum(axis=1) - p * ts
                for name, env in envelopes.items():
                    crossed[name] += int(np.sum(np.any(block > env, axis=1)))
            for name, count in crossed.items():
                assert count / n_streams <= bound, (name, count / n_streams)

    def test_p_spacing_lemma(self):
        # odds shifted by e^a move the probability by at most (a/2) sqrt(p(1-p))
        for a in np.linspace(1e-3, 3.0, 60):
            for p in np.linspace(0.5, 1 - 1e-9, 60):
                q = expit(logit(p) + a)
                assert q - p <= a / 2 * math.sqrt(p * (1 - p)) + 1e-12

    def test_double_stitch_beats_lil_at_tail_quantile(self):
        c = lil_C(0.85, 0.05)
        ds = DoubleStitchConfig.default_preset(alpha=0.05, m_start=32.0)
        for t in np.geomspace(10 ** 3, 10 ** 6, 13):
            t = int(t)
            assert double_stitch_radius(t, 0.95, ds) < lil_radius(t, 0.85, c, 32.0)


class TestOneSidedRadiusRoot:
    def test_root_property_one_sided(self):
        for t in (10, 100, 5000):
            for p in (0.2, 0.5, 0.8):
                rad = one_sided_beta_binomial_radius(t, p, 0.6, 0.01)
                v = p * (1 - p) * t
                got = one_sided_log_mixture(rad * t, v, p, 0.6)
                assert got == pytest.approx(math.log(1 / 0.01), abs=1e-6)

    def test_extreme_alphas_stay_finite(self):
        for alpha in (0.999, 1e-6):
            rad = beta_binomial_radius(1000, 0.5, 0.758, alpha)
            assert 0.0 < rad < 1.0
            rad1 = one_sided_beta_binomial_radius(1000, 0.5, 0.758, alpha)
            assert 0.0 < rad1 <= rad + 1e-12


_SCHEDULE_R = 0.758
_SCHEDULE_LEVELS = (0.1, 0.25, 0.5, 0.75, 0.9)
# every radius a schedule tabulates, as f(t, level); lil ignores the level
_SCHEDULE_RADII = {
    "stitched": lambda t, q: stitched_radius(t, q, StitchConfig(eta=2.04, s_exp=1.4)),
    "stitched_simple": lambda t, q: stitched_radius_simple(t, q, 0.05),
    "normal_mixture": lambda t, q: normal_mixture_radius(t, 0.504, 0.05),
    "beta_binomial": lambda t, q: beta_binomial_radius(t, q, _SCHEDULE_R, 0.05),
    "beta_binomial_one_sided": lambda t, q: one_sided_beta_binomial_radius(
        t, q, _SCHEDULE_R, 0.05),
    "lil": lambda t, q: lil_radius(t, 0.85, lil_C(0.85, 0.05)),
    "double_stitch": lambda t, q: double_stitch_radius(
        t, q, DoubleStitchConfig.default_preset(0.05, m_start=32.0)),
    # the baselines defined from t = 1; szorenyi and dr1967 are compared below
    **{kind: (lambda kind: lambda t, q: baseline_radius(kind, t, q, 0.05))(kind)
       for kind in ("dkw_fixed", "dr1968", "clt_pointwise", "hoeffding_kl", "linear_warmup")},
}
_BISECTED = ("beta_binomial", "beta_binomial_one_sided", "hoeffding_kl")
# the bisected radii cost up to ~2 ms per scalar call, so they are compared
# with scalar calls at every t around the chunk edges (1024/1025, 2048/2049)
# and on a stride elsewhere; the closed forms at every t
_BISECTED_TIMES = sorted(
    set(range(1, 65)) | set(range(1016, 1034)) | set(range(2040, 2058))
    | set(range(2990, 3001)) | set(range(65, 3000, 31))
)


class TestRadiusSchedule:
    @pytest.mark.parametrize("level", _SCHEDULE_LEVELS)
    @pytest.mark.parametrize("name", sorted(_SCHEDULE_RADII))
    def test_schedule_equals_scalar_calls_bit_for_bit(self, name, level):
        radius = _SCHEDULE_RADII[name]
        schedule = bd.RadiusSchedule(lambda t: radius(t, level))
        table = [schedule.at(t) for t in range(1, 3001)]
        times = _BISECTED_TIMES if name in _BISECTED else range(1, 3001)
        mismatched = [t for t in times if table[t - 1] != radius(t, level)]
        assert mismatched == []

    @pytest.mark.parametrize("kind,start", [("szorenyi", 32), ("dr1967", 2)])
    def test_late_starting_baselines_equal_scalar_calls_bit_for_bit(self, kind, start):
        times = np.concatenate([np.arange(start, 3001), np.geomspace(1e3, 1e6, 61).round()])
        radii = baseline_radius(kind, times, alpha=0.05).tolist()
        mismatched = [t for t, rad in zip(times.tolist(), radii)
                      if rad != baseline_radius(kind, t, alpha=0.05)]
        assert mismatched == []

    def test_table_grows_in_doubling_chunks(self):
        calls = []

        def radius(t):
            calls.append((int(t[0]), int(t[-1])))
            return 1.0 / t

        schedule = bd.RadiusSchedule(radius)
        assert schedule.at(1) == 1.0
        assert schedule.at(1024) == 1.0 / 1024
        assert schedule.at(1025) == 1.0 / 1025
        assert schedule.at(5000) == 1.0 / 5000
        assert schedule.at(3) == 1.0 / 3
        assert calls == [(1, 1024), (1025, 2048), (2049, 5000)]

    def test_integer_values_are_stored_as_integers(self):
        # values past 2^53 would lose their low bits in a table of doubles
        schedule = bd.RadiusSchedule(lambda t: t.astype(np.int64) + (1 << 60))
        assert schedule.at(3) == (1 << 60) + 3
        assert type(schedule.at(1500)) is int
        assert schedule.at(2049) == (1 << 60) + 2049

    def test_time_below_one_is_domain_error(self):
        schedule = bd.RadiusSchedule(lambda t: 1.0 / t)
        for t in (0, -3):
            with pytest.raises(DomainError):
                schedule.at(t)
        schedule.at(10)
        with pytest.raises(DomainError):
            schedule.at(0)


class TestNonFiniteParameters:
    """NaN and infinities fail every parameter check, as an out-of-range value does."""

    BUILDERS = {
        "eta": lambda v: StitchConfig(eta=v, s_exp=1.4),
        "s_exp": lambda v: StitchConfig(eta=2.0, s_exp=v),
        "stitch m_start": lambda v: StitchConfig(eta=2.0, s_exp=1.4, m_start=v),
        "grid_delta": lambda v: DoubleStitchConfig(grid_delta=v, eta=2.0, s_exp=1.4),
        "mixture r": lambda v: beta_binomial_radius(10, 0.5, v),
        "one-sided r": lambda v: one_sided_beta_binomial_radius(10, 0.5, v),
        "normal r": lambda v: normal_mixture_radius(10, v),
        "limit r": lambda v: expansion_constant_limit(v),
        "m_target": lambda v: tune_r(v, 0.5),
        "lil_alpha a_mult": lambda v: lil_alpha(v, 5.0),
        "lil_alpha c_add": lambda v: lil_alpha(0.85, v),
        "lil_radius m_start": lambda v: lil_radius(10, 0.85, 5.0, m_start=v),
        "LilMethod a_mult": lambda v: confseq.LilMethod(a_mult=v, c_add=5.0),
        "LilMethod m_start": lambda v: confseq.LilMethod(c_add=5.0, m_start=v),
        "LilMethod c_add": lambda v: confseq.LilMethod(c_add=v),
        "AbTestState r": lambda v: seqtest.AbTestState(0.5, v),
        "AbTestState delta_star": lambda v: seqtest.AbTestState(0.5, 1.0, delta_star=v),
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_raises(self, name, value):
        with pytest.raises((ConfigurationError, TuningError)):
            self.BUILDERS[name](value)

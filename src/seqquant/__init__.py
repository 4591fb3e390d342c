"""seqquant: anytime-valid quantile inference.

Confidence sequences for quantiles and CDFs that hold uniformly over time,
sequential two-sample quantile tests with always-valid p-values, sequential
Kolmogorov-Smirnov tests, and a quantile best-arm-identification algorithm,
plus a reproducible benchmark harness and CLI.
"""

from . import bandit, boundaries, confseq, empdist, seqtest
from .boundaries import (
    DoubleStitchConfig,
    StitchConfig,
    baseline_radius,
    beta_binomial_log_mixture,
    beta_binomial_radius,
    double_stitch_radius,
    ftilde_asymptote,
    lil_C,
    lil_alpha,
    lil_radius,
    normal_mixture_radius,
    one_sided_beta_binomial_radius,
    one_sided_log_mixture,
    stitched_radius,
    stitched_radius_simple,
    tune_r,
)
from .confseq import CdfBand, FixedQuantileCS, QuantileUniformCS
from .empdist import OrderedMultiset
from .seqtest import AbTestState, GEvaluator, KsTestState, global_null_pvalue

__version__ = "0.1.0"

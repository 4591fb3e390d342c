"""CLI contract for flag values: a non-finite or out-of-range value is a usage error.

Every float flag of every subcommand is listed with invocations that read
it, so a new float flag fails `test_every_float_flag_is_listed` until it is
given a row here.  A flag the command does not read, and a `--config` value
that a flag overrides, are checked as well.
"""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from seqquant import cli

FIXTURES = Path(__file__).parent / "fixtures"
STREAM = str(FIXTURES / "stream10.txt")
AB = str(FIXTURES / "ab8.txt")
AB3 = str(FIXTURES / "ab3_210.txt")
KS = str(FIXTURES / "ks6.txt")

SIMULATE = ["abtest", "--simulate", "--runs", "1", "--max-pairs", "10"]
BAI = ["bai", "--pi", "0.5", "--runs", "1", "--k-arms", "2"]

# (subcommand, flag) -> invocations that read the flag; each is run with the
# flag appended as --flag=VALUE
FLOAT_FLAGS = {
    ("bounds", "--alpha"): [["bounds", "--methods", "dkw_fixed", "--t", "10"]],
    ("bounds", "--tune-m"): [["bounds", "--methods", m, "--t", "10"] for m in (
        "stitched", "beta_binomial", "normal_mixture", "lil_uniform", "double_stitch")],
    ("track", "--p"): [["track", STREAM]],
    ("track", "--alpha"): [["track", STREAM, "--p", "0.5", "--method", m]
                           for m in ("stitched", "stitched_simple", "beta_binomial",
                                     "normal_mixture")],
    ("track", "--eta"): [["track", STREAM, "--p", "0.5", "--method", "stitched"]],
    ("track", "--s-exp"): [["track", STREAM, "--p", "0.5", "--method", "stitched"]],
    ("track", "--m"): [["track", STREAM, "--p", "0.5", "--method", "stitched"]],
    ("track", "--r"): [["track", STREAM, "--p", "0.5", "--method", m]
                       for m in ("beta_binomial", "normal_mixture")],
    ("track", "--tune-m"): [["track", STREAM, "--p", "0.5", "--method", m]
                            for m in ("beta_binomial", "normal_mixture")],
    ("band", "--alpha"): [["band", STREAM, "--checkpoints", "5"]],
    ("band", "--A"): [["band", STREAM, "--checkpoints", "5"]],
    ("band", "--m"): [["band", STREAM, "--checkpoints", "5"]],
    ("abtest", "--p"): [["abtest", AB], SIMULATE],
    ("abtest", "--r"): [["abtest", AB, "--mode", m] for m in ("two_sided", "one_sided")]
                       + [["abtest", AB3, "--mode", "global"]],
    ("abtest", "--tune-m"): [["abtest", AB], ["abtest", AB3, "--mode", "global"]],
    ("abtest", "--delta-star"): [["abtest", AB, "--mode", m]
                                 for m in ("two_sided", "one_sided")],
    ("abtest", "--alpha"): [["abtest", AB], SIMULATE],
    ("abtest", "--eps"): [SIMULATE + ["--scenario", s]
                          for s in ("uniform_shift", "cauchy_shift", "normal_scale")],
    ("ks", "--A"): [["ks", KS], ["ks", STREAM, "--mode", "one_sample"]],
    ("ks", "--alpha"): [["ks", KS], ["ks", STREAM, "--mode", "one_sample"]],
    ("ks", "--m"): [["ks", KS], ["ks", STREAM, "--mode", "one_sample"]],
    ("bai", "--eps"): [BAI],
    ("bai", "--delta"): [BAI],
}

LIST_FLAGS = {
    ("bounds", "--p"): [["bounds", "--methods", "dkw_fixed", "--t", "10"]],
    ("bounds", "--t"): [["bounds", "--methods", "dkw_fixed"]],
    ("band", "--checkpoints"): [["band", STREAM]],
    ("bai", "--pi"): [["bai", "--runs", "1", "--k-arms", "2"]],
}

# (subcommand, flag) -> invocations that do not read the flag; its value is
# checked all the same
UNREAD_FLAGS = {
    ("bounds", "--tune-m"): [["bounds", "--methods", "dkw_fixed", "--t", "10"]],
    ("track", "--eta"): [["track", STREAM, "--p", "0.5", "--method", "beta_binomial"]],
    ("track", "--r"): [["track", STREAM, "--p", "0.5", "--method", "stitched"]],
    ("abtest", "--eps"): [["abtest", AB]],
    ("abtest", "--delta-star"): [SIMULATE],
}

# one invocation per subcommand, a float flag it reads and a valid value, for
# a --config line that the flag, given on the command line, overrides
OVERRIDDEN = {
    "bounds": (["bounds", "--methods", "dkw_fixed", "--t", "10"], "--alpha", "0.05"),
    "track": (["track", STREAM, "--p", "0.5"], "--alpha", "0.05"),
    "band": (["band", STREAM, "--checkpoints", "5"], "--A", "0.9"),
    "abtest": (["abtest", AB], "--alpha", "0.05"),
    "ks": (["ks", KS], "--m", "2"),
    "bai": (BAI, "--delta", "0.05"),
}

NON_FINITE = ("nan", "inf", "-inf")

CASES = [
    pytest.param(argv + [f"{flag}={value}"], id=f"{command} {flag}={value} #{i}")
    for table in (FLOAT_FLAGS, LIST_FLAGS)
    for (command, flag), invocations in table.items()
    for i, argv in enumerate(invocations)
    for value in NON_FINITE
] + [
    pytest.param(argv + [f"{flag}={value}"], id=f"{command} {flag}={value} unread #{i}")
    for (command, flag), invocations in UNREAD_FLAGS.items()
    for i, argv in enumerate(invocations)
    for value in NON_FINITE
] + [
    pytest.param(["ks", STREAM, "--mode", "one_sample", "--ref", ref], id=f"ks --ref {ref}")
    for ref in ("normal:nan,1", "uniform:0,inf", "cauchy:-inf,1")
] + [
    pytest.param(["abtest", "--simulate", "--runs", "1", "--max-pairs", n],
                 id=f"abtest --max-pairs {n}")
    for n in ("0", "-3")
] + [
    pytest.param(["abtest", AB3, "--mode", "global", "--delta-star", "5"],
                 id="abtest global --delta-star 5"),
] + [
    # eps must lie in [0, min(p, 1 - p)) for every scenario
    pytest.param(SIMULATE + ["--scenario", scenario, "--p", p, "--eps", eps],
                 id=f"abtest --simulate {scenario} --p {p} --eps {eps}")
    for scenario in ("uniform_shift", "cauchy_shift", "normal_scale")
    for p, eps in (("0.5", "0.6"), ("0.9", "0.1"), ("0.5", "-0.1"))
]


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _float_flags() -> dict:
    """(subcommand, long flag) -> type of every float flag the parser defines."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {(name, max(action.option_strings, key=len)): action.type
            for name, sub in subparsers.choices.items()
            for action in sub._actions if action.type in (float, cli.finite_float)}


def test_every_float_flag_is_listed():
    assert set(FLOAT_FLAGS) == set(_float_flags())


def test_every_float_flag_is_parsed_finite():
    assert set(_float_flags().values()) == {cli.finite_float}


@pytest.mark.parametrize("argv", CASES)
def test_bad_value_is_usage_error_without_output(argv):
    rc, out, err = run_cli(argv)
    assert (rc, out) == (2, ""), err
    assert err.startswith("usage error:"), err


def test_global_mode_accepts_zero_delta_star():
    rc, out, err = run_cli(["abtest", AB3, "--mode", "global", "--delta-star", "0"])
    assert rc == 0, err
    assert "# delta_star=0.0" in out


@pytest.mark.parametrize("command", sorted(OVERRIDDEN))
@pytest.mark.parametrize("value", NON_FINITE)
def test_overridden_config_value_is_checked(tmp_path, command, value):
    argv, flag, valid = OVERRIDDEN[command]
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{flag.lstrip('-')}={value}\n")
    rc, out, err = run_cli(argv + [flag, valid, "--config", str(cfg)])
    assert (rc, out) == (2, ""), err
    assert err.startswith(f"usage error: {cfg}:1: bad value {value!r}"), err

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
CAUCHY = str(FIXTURES / "cauchy1100.txt")

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


def _id(argv) -> str:
    """A test id: the invocation with each fixture shown by its file name."""
    return " ".join(Path(a).name if a.startswith(str(FIXTURES)) else a for a in argv)


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
    # b - a overflows for uniform:-1e308,1e308
    for ref in ("normal:nan,1", "uniform:0,inf", "cauchy:-inf,1", "uniform:-1e308,1e308")
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
] + [
    # --seed takes an integer >= 0, also where the command draws nothing
    pytest.param(argv + ["--seed", "-1"], id=f"{argv[0]} --seed -1")
    for argv in (BAI, SIMULATE, ["bounds", "--methods", "dkw_fixed", "--t", "10"])
] + [
    # an integer list holds integers; 1e6 is one, 1.5 is not
    pytest.param(["bounds", "--methods", "dkw_fixed", "--t", "1.5,10"], id="bounds --t 1.5,10"),
    pytest.param(["band", STREAM, "--checkpoints=2.6"], id="band --checkpoints=2.6"),
] + [
    # a scenario is one of bandit.SCENARIOS, also where the command does not read it
    pytest.param(argv + ["--scenario", "nope"], id=_id(argv + ["--scenario", "nope"]))
    for argv in (["abtest", AB], SIMULATE, BAI)
] + [
    # a list holds at least one element, and --checkpoints at least one time >= 1
    pytest.param(argv, id=_id(argv))
    for argv in (["bai", "--pi=", "--runs", "1", "--k-arms", "2"], BAI + ["--cs-kinds", ","],
                 ["bounds", "--methods", ",", "--t", "10"],
                 ["bounds", "--methods", "dkw_fixed", "--t="],
                 ["band", STREAM, "--checkpoints=0,-4"])
]

# flag values at numeric extremes: each invocation exits 0 with a vacuous
# bound, or exits 2 or 4 with nothing on stdout, and never raises
EXTREMES = [
    # alpha ** 2 underflows
    *[["bounds", "--methods", m, "--t", "10", *extra] for m in ("beta_binomial", "normal_mixture")
      for extra in (["--alpha", "1e-200"], ["--alpha", "1e-300", "--tune-m", "1e10"])],
    *[["track", STREAM, "--p", "0.5", "--method", m, "--alpha", "1e-200"]
      for m in ("beta_binomial", "normal_mixture")],
    ["track", STREAM, "--p", "0.5", "--method", "normal_mixture", "--alpha", "1e-200", "--r", "1"],
    *[["abtest", AB3 if mode == "global" else AB, "--mode", mode, "--alpha", "1e-300"]
      for mode in ("two_sided", "one_sided", "global")],
    BAI + ["--delta", "1e-300"],
    ["abtest", "--simulate", "--runs", "1", "--max-pairs", "20", "--alpha", "1e-300"],
    # order-statistic ranks past int64
    *[["track", STREAM, "--p", "0.5", "--method", m, flag, "1e300"]
      for m, flag in (("stitched", "--m"), ("beta_binomial", "--r"), ("normal_mixture", "--r"))],
    # 2 A ** 2 overflows
    ["band", STREAM, "--checkpoints", "5", "--A", "1e300"],
    ["ks", KS, "--A", "1e300"],
    ["ks", STREAM, "--mode", "one_sample", "--A", "1e300"],
    # the stitched constant log(eta) ** s_exp underflows or overflows
    ["track", STREAM, "--p", "0.5", "--method", "stitched", "--s-exp", "1e300"],
    ["track", STREAM, "--p", "0.5", "--method", "stitched", "--eta", "10", "--s-exp", "1000"],
    # alpha ** 2 r is a normal float but (t + r) / (alpha ** 2 r) overflows
    ["track", CAUCHY, "--p", "0.5", "--method", "normal_mixture", "--alpha", "1e-153", "--r", "1"],
    # the mixture's beta arguments and log-gamma terms leave the floats
    ["track", CAUCHY, "--p", "0.5", "--method", "beta_binomial", "--r", "1e308"],
    # e (t v m) and eta (t v m) overflow
    ["band", CAUCHY, "--checkpoints", "5", "--m", "1e308"],
    ["bounds", "--methods", "stitched", "--t", "10", "--tune-m", "1e308"],
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


@pytest.mark.parametrize("argv", EXTREMES, ids=map(_id, EXTREMES))
def test_extreme_value_exits_cleanly(argv):
    # RuntimeWarnings are errors in this suite, so a warning fails the run too
    rc, out, err = run_cli(argv)
    assert rc == 0 or (rc in (2, 4) and out == ""), (rc, out, err)
    if rc == 0 and argv[0] == "track":
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
        assert {(row[2], row[3]) for row in rows} == {("-inf", "inf")}, out


def test_negative_seed_from_environment_is_usage_error(monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "-3")
    rc, out, err = run_cli(SIMULATE)
    assert (rc, out) == (2, ""), err
    assert err.startswith(f"usage error: {cli.SEED_ENV} must be a non-negative integer"), err


def test_negative_seed_in_config_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=-2\n")
    rc, out, err = run_cli(BAI + ["--config", str(cfg)])
    assert (rc, out) == (2, ""), err
    assert err.startswith(f"usage error: {cfg}:1: bad value '-2' for 'seed'"), err


def test_zero_seed_is_the_default(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    rc, out, err = run_cli(BAI + ["--seed", "0"])
    assert rc == 0, err
    assert (rc, out, err) == run_cli(BAI)


def test_integral_list_values_read_as_integers():
    rc, out, err = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "1e2,10.0"])
    assert rc == 0, err
    assert (rc, out, err) == run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100,10"])


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

"""The benchmark's output checks (perfbench/oracles.py) pass on small fixture runs.

perfbench counts a non-empty problem list as an incorrect output, so these
are the same checks the benchmark applies, run on the fixtures instead of
its generated inputs.  check_track compares the CLI's "-inf"/"inf" cells
with its own float order statistics.
"""

import importlib
import sys
from pathlib import Path

import pytest

from test_cli import FIXTURES, run_cli

PERFBENCH = Path(__file__).parent.parent / "perfbench"

# (check kind, argv without the input, fixture or None)
CASES = {
    "track_intersect": ("track", ["track", "--p", "0.5", "--method", "stitched_simple",
                                  "--intersect"], "cauchy1100.txt"),
    "track_beta_binomial": ("track", ["track", "--p", "0.25", "--method", "beta_binomial"],
                            "cauchy1100.txt"),
    "band": ("band", ["band", "--checkpoints", "1,10,100,1100"], "cauchy1100.txt"),
    "abtest_two_sided": ("abtest", ["abtest", "--mode", "two_sided"], "ab_shift200.txt"),
    "abtest_one_sided": ("abtest", ["abtest", "--mode", "one_sided"], "ab_shift200.txt"),
    "abtest_global": ("abtest", ["abtest", "--mode", "global"], "ab3_210.txt"),
    "ks_two_sample": ("ks", ["ks", "--mode", "two_sample"], "ks_dom200.txt"),
    "ks_dominance": ("ks", ["ks", "--mode", "dominance"], "ks_dom200.txt"),
    "bai": ("bai", ["bai", "--scenario", "uniform_shift", "--pi", "0.5", "--eps", "0.05",
                    "--k-arms", "3", "--runs", "2", "--cs-kinds",
                    "stitched_qlucb,beta_binomial_one_sided,dkw_union_baseline",
                    "--seed", "7"], None),
    "abtest_simulate": ("abtest_simulate", ["abtest", "--simulate", "--scenario",
                                            "uniform_shift", "--p", "0.5", "--eps", "0.05",
                                            "--runs", "2", "--seed", "7"], None),
}


@pytest.fixture(scope="module")
def oracles():
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("oracles")
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))


def test_every_check_kind_is_covered(oracles):
    assert {kind for kind, _, _ in CASES.values()} == set(oracles.CHECKS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_passes_its_check(oracles, name):
    kind, argv, fixture = CASES[name]
    lines = []
    if fixture is not None:
        path = FIXTURES / fixture
        lines = path.read_text().splitlines(keepends=True)
        argv = [*argv, str(path)]
    rc, out, err = run_cli(argv)
    assert rc == 0, err
    assert oracles.CHECKS[kind](argv, lines, out) == []

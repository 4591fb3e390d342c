"""perfbench's tracer wraps seqquant names by module attribute, so each must stay where it is."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

# install() fails with AttributeError or KeyError on a name in spans' FUNCTIONS,
# METHODS, GENERATORS or PROPERTIES that seqquant no longer defines there; it
# patches modules for good, so it runs in its own interpreter
_SCRIPT = """
import sys
import seqquant
import seqquant.cli
import spans

fixtures, out = sys.argv[1:]
tracer = spans.Tracer()
tracer.install(seqquant)
for argv in (["track", fixtures + "/stream10.txt", "--p", "0.5", "--method", "beta_binomial"],
             ["abtest", fixtures + "/ab3_210.txt", "--mode", "global"],
             ["ks", fixtures + "/ks6.txt", "--mode", "two_sample"]):
    print(seqquant.cli.main([*argv, "--out", out]))
print(" ".join(sorted({spans.KINDS[k] for k in tracer.kind})))
"""


def test_tracer_installs_and_records_spans(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "tests" / "fixtures"),
         str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *rcs, kinds = proc.stdout.splitlines()
    assert rcs == ["0", "0", "0"]
    # the A/B evaluation and KS wrappers ran, besides those of track
    assert {"confseq.update", "seqtest.eval", "seqtest.ks"} <= set(kinds.split())

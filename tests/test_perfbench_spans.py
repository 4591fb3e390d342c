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

tracer = spans.Tracer()
tracer.install(seqquant)
rc = seqquant.cli.main(["track", sys.argv[1], "--p", "0.5", "--method", "beta_binomial",
                        "--out", sys.argv[2]])
print(rc, len(tracer.kind))
"""


def test_tracer_installs_and_records_spans(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "tests" / "fixtures" / "stream10.txt"),
         str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rc, spans_recorded = proc.stdout.split()
    assert rc == "0"
    assert int(spans_recorded) > 0

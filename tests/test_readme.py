"""The README's python examples run against the library as it is."""

import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"


def test_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 3  # quickstart, radius schedule, bandit
    # later blocks use names from earlier ones (`r`), so they share a namespace
    ns: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    assert ns["r"] == pytest.approx(0.758, abs=1e-3)
    assert ns["upper"].at(100) == ns["beta_binomial_radius"](100, 0.5, ns["r"], 0.05)
    assert 0.0 < ns["pvalue"] <= 1.0
    assert 0.0 < ns["gpvalue"] <= 1.0

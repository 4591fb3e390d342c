"""Every public name the package and its modules declare resolves."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import seqquant

MODULES = ("bandit", "boundaries", "confseq", "empdist", "seqtest", "specfun")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"seqquant.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_names_are_public_names_of_their_modules():
    names = [n for n, v in vars(seqquant).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert names
    for name in names:
        obj = getattr(seqquant, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj, name
        assert name in home.__all__, name


@pytest.mark.parametrize("module, name, kept", [
    ("bandit", "qlucb_confidence_bounds", False),
    ("bandit", "custom_arm", False),
    ("boundaries", "ftilde_asymptote", False),
    ("boundaries", "AsymptoteResult", False),
    ("boundaries", "expansion_constant", False),
    ("boundaries", "expansion_constant_limit", False),
    ("boundaries", "DoubleStitchConfig", False),
    ("seqtest", "GEvaluator", True),
    ("seqtest", "global_null_pvalue", True),
])
def test_package_names_only_the_product(module, name, kept):
    # test-only code is gone; the oracle names the benchmark reads stay in their module
    assert hasattr(importlib.import_module(f"seqquant.{module}"), name) is kept
    assert not hasattr(seqquant, name)


def test_only_specfun_imports_scipy():
    # scipy is read through specfun alone, so replacing it edits one module
    importers = []
    for path in sorted(Path(seqquant.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(path.stem)
    assert importers == ["specfun"]

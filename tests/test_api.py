"""Every public name the package and its modules declare resolves."""

import importlib
import types

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

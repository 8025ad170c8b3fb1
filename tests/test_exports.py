"""Every name a module lists in ``__all__`` exists."""

import importlib

import pytest

import ensemble_backstep

MODULES = ["ensemble_backstep"] + [
    f"ensemble_backstep.{name}" for name in ensemble_backstep.__all__
    if name != "__version__"]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []

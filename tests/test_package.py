import importlib

import pytest

MODULES = ["lti", "relay", "lifting", "synthesis", "sim", "cli"]


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(f"relaycancel.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing

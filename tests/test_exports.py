"""Every name a module exports exists on it."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["channel", "metrics", "optimizer", "solver", "experiments"])
def test_all_names_exist(module):
    mod = importlib.import_module(f"jamcom.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

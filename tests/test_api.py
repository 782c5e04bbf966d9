"""The names the package and its modules export."""

import importlib
import pkgutil

import pytest

import mmcsim

MODULES = ["mmcsim", *(f"mmcsim.{info.name}" for info in pkgutil.iter_modules(mmcsim.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []

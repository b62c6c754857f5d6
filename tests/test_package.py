"""Package surface: every name that a ulre module exports exists."""

import importlib
import pkgutil

import pytest

import ulre

MODULES = sorted(info.name for info in pkgutil.iter_modules(ulre.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"ulre.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []

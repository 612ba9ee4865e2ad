"""Every name a module of `sgp` exports must exist, so a deletion that
forgets its `__all__` entry fails here rather than at a caller's import."""

import importlib
import pkgutil

import pytest

import sgp

MODULES = sorted(info.name for info in pkgutil.iter_modules(sgp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"sgp.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []

"""Every name a module exports in ``__all__`` exists, so a stale export left
by a deletion fails here and not at ``from carleman.<module> import *``."""

import importlib
import pkgutil

import pytest

import carleman

MODULES = ["carleman"] + [f"carleman.{m.name}" for m in pkgutil.iter_modules(carleman.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


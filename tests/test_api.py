"""Every name a module lists in __all__ resolves."""

import importlib
import pkgutil

import pytest

import fbmlab

MODULES = ["fbmlab"] + [
    f"fbmlab.{m.name}" for m in pkgutil.iter_modules(fbmlab.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

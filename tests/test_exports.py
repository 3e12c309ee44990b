"""Every exported name resolves: a name dropped from a module but left in its
``__all__`` would otherwise go unnoticed until a star import."""
import importlib
import pkgutil

import pytest

import conekit

MODULES = [conekit] + [importlib.import_module(f"conekit.{m.name}")
                       for m in pkgutil.iter_modules(conekit.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []


def test_every_module_list_is_found():
    # the package and the 12 submodules that declare one
    assert sum(hasattr(m, "__all__") for m in MODULES) == 13

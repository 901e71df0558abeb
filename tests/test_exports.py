"""Every exported name resolves, so a deletion cannot leave a stale entry
in a module's ``__all__``."""

import importlib
import pkgutil

import pytest

import honeygame

MODULES = ["honeygame"] + [
    f"honeygame.{m.name}" for m in pkgutil.iter_modules(honeygame.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_star_import():
    namespace: dict = {}
    exec("from honeygame import *", namespace)
    assert "solve_partial" in namespace

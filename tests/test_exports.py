"""Every exported name resolves, so a deletion cannot leave a stale entry
in a module's ``__all__``; and no module goes back to the per-type objects
that the on-time view's columns replaced."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import honeygame

SRC = Path(honeygame.__file__).parent

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


# ``PopulationSpec.types``, the explicit rows of a scenario file, is another
# field of that name: ``scenario`` reads it as ``self.types`` and ``spec.types``
SPEC_TYPES = {("scenario", "self"), ("scenario", "spec")}


def per_type_uses(source: str, module: str) -> list[str]:
    """Where ``module`` (of the package, named without its prefix) steps off
    the on-time view's columns onto the per-type objects: a read of
    ``.types``, a call of ``ContractMenu.item`` (numpy's ``.item()`` takes no
    argument) or of ``uav_utility`` outside ``model``, and a call of
    ``participating_set`` outside ``solver.solve_partial_relaxed``."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)  # the enclosing top-level function or class
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "types"
                    and isinstance(node.ctx, ast.Load) and module != "model"
                    and (module, getattr(node.value, "id", None)) not in SPEC_TYPES):
                found.append(f"{module}:{node.lineno} reads .types")
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if module != "model" and (name == "uav_utility" or (
                    name == "item" and isinstance(func, ast.Attribute)
                    and (node.args or node.keywords))):
                found.append(f"{module}:{node.lineno} calls {name}")
            if name == "participating_set" and (module, owner) != ("solver",
                                                                    "solve_partial_relaxed"):
                found.append(f"{module}:{node.lineno} calls participating_set")
    return found


def test_no_module_reads_the_per_type_objects():
    # the experiments, the oracle, the CLI and the error paths read the
    # on-time view's columns; this keeps the per-type path from coming back
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in per_type_uses(path.read_text(), path.stem)]
    assert not found, found

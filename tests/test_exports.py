"""Every exported name resolves, so a deletion cannot leave a stale entry
in a module's ``__all__``; no module goes back to the per-type objects
that the on-time view's columns replaced; and menus pass by the verdicts of
``check_feasibility``'s report alone."""

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


# the audit names the one report replaced, and the report's verdicts: its
# predicate fields and the properties that join them
DELETED_AUDIT_NAMES = {"check_reward_fairness", "ContractItem"}
VERDICTS = {"ir_ok", "ic_ok", "budget_ok", "monotone_ok", "reward_fair",
            "all_ok", "ir_budget_ok", "participation_fair"}


def _named(node: ast.AST) -> str | None:
    """The name a node spells: a variable, an attribute, an imported name,
    a function or class defined, or a string (an ``__all__`` entry)."""
    for kind, field in ((ast.Name, "id"), (ast.Attribute, "attr"), (ast.alias, "name"),
                        (ast.FunctionDef, "name"), (ast.ClassDef, "name"),
                        (ast.Constant, "value")):
        if isinstance(node, kind):
            value = getattr(node, field)
            return value if isinstance(value, str) else None
    return None


def pass_rule_uses(source: str, module: str) -> list[str]:
    """Where ``module`` names an audit that ``check_feasibility``'s report
    replaced, or, outside ``model``, writes a pass rule of its own: an
    ``and``/``or`` that joins two verdicts, one of them read off a report.
    (The oracle's enumeration joins verdicts of its own, held in plain
    variables, and is not flagged.)"""
    found = []
    for node in ast.walk(ast.parse(source)):
        if _named(node) in DELETED_AUDIT_NAMES:
            found.append(f"{module}:{getattr(node, 'lineno', '?')} names {_named(node)}")
        if isinstance(node, ast.BoolOp) and module != "model":
            verdicts = [n for n in ast.walk(node) if _named(n) in VERDICTS
                        and isinstance(n, (ast.Name, ast.Attribute))]
            if len(verdicts) >= 2 and any(isinstance(n, ast.Attribute) for n in verdicts):
                found.append(f"{module}:{node.lineno} joins {[_named(n) for n in verdicts]}")
    return found


def test_menus_pass_by_the_report_alone():
    # ``FeasibilityReport.all_ok`` and ``ir_budget_ok`` are the two pass
    # rules; a caller that pairs the report with another audit, or joins its
    # fields itself, has a third
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in pass_rule_uses(path.read_text(), path.stem)]
    assert not found, found


@pytest.mark.parametrize("source, module", [
    ("from .model import check_reward_fairness", "cli"),
    ("ok = model.ContractItem(1.0, 2.0)", "solver"),
    ("__all__ = ['ContractItem']", "model"),
    ("def check_reward_fairness(menu, pop): pass", "model"),
    ("ok = report.all_ok and reward_fair", "cli"),
    ("ok = report.ir_ok and report.budget_ok", "experiments"),
    ("ok = not report.ir_ok or not (report.budget_ok)", "experiments"),
])
def test_pass_rule_guard_flags(source, module):
    assert pass_rule_uses(source, module)


@pytest.mark.parametrize("source, module", [
    ("ok = report.all_ok if partial else report.ir_budget_ok", "cli"),
    ("ok = self.ir_ok and self.budget_ok", "model"),
    ("ok = ir_ok and ic_ok", "oracle"),
    ("ok = report.ir_ok and size > 0", "cli"),
])
def test_pass_rule_guard_passes(source, module):
    assert not pass_rule_uses(source, module)

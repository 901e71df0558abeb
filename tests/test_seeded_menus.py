"""Solver menus and audit reports on seeded random populations stay bitwise.

``fixtures/seeded_menus.json`` holds, for every case below, the SHA-256 of
the menu file text (``cli._menu_text``) of the complete- and
partial-information menus, every ``FeasibilityReport`` field, the reward
fairness verdict, the GCS utility, social surplus and defensive
effectiveness (as ``repr``), the relaxed water level, and the same audit
fields for perturbed copies of the partial menu.  Cases run at J = 10, 100,
1000 and 10 000 types, in both budget modes, with budgets that starve,
bind below saturation, sit exactly at the complete- or partial-information
saturation, or exceed it; the populations mix unit and larger counts, late
types between on-time ones, zero costs and delays chosen to force heavy
ironing.  One more case is the J = 10 000 channel-delay scenario whose
budget-exact menus are re-solved below the budget.

The fixture was frozen from the plain-Python solver and audit loops before
the array kernels replaced them at large J (Linux x86-64, Python 3.11.7,
numpy 2.4.6).  Regenerate it only from code whose outputs are known good:

    PYTHONPATH=src python tests/test_seeded_menus.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from honeygame.cli import _menu_text
from honeygame.model import (
    ContractItem,
    ContractMenu,
    GcsParams,
    canonical_columns,
    check_feasibility,
    check_reward_fairness,
    defensive_effectiveness,
    gcs_utility,
    left_sum,
    participating_set,
    social_surplus,
)
from honeygame.scenario import generate_population, load_scenario
from honeygame.solver import (
    PAPER_LITERAL,
    SolverConfig,
    _virtual_costs,
    solve_complete,
    solve_partial,
    solve_partial_relaxed,
)

FIXTURE = Path(__file__).parent / "fixtures" / "seeded_menus.json"

T_MAX = 2.0
SIZES = (10, 100, 1000, 10_000)
MODES = {"exact": SolverConfig(), "paper": SolverConfig(PAPER_LITERAL)}
BUDGETS = ("starved", "below", "at-complete", "at-partial", "above")


def _rows(variant: str, n: int, rng: np.random.Generator) -> list[tuple[float, float, int]]:
    """(cost, delay, count) rows of one seeded population."""
    costs = rng.uniform(0.01, 1.0, n)
    if variant == "plain":
        return list(zip(costs.tolist(), rng.uniform(0.05, 1.9, n).tolist(), [1] * n))
    # heavy ironing: the costliest types have the shortest delays, so the
    # weights fall along the canonical order faster than the virtual costs
    order = np.argsort(-costs, kind="stable")
    delays = np.empty(n)
    delays[order] = np.sort(rng.uniform(0.02, 1.9, n)) ** 2 + 0.01
    late = rng.random(n) < 0.2  # misses t_max, scattered among on-time types
    delays[late] = rng.uniform(2.1, 5.0, int(late.sum()))
    costs[rng.random(n) < 0.1] = 0.0
    counts = rng.integers(1, 5, n)
    return list(zip(costs.tolist(), delays.tolist(), counts.tolist()))


def _budget(kind: str, pop, params: GcsParams) -> float:
    part = participating_set(pop, T_MAX)
    fixed = params.deploy_cost * sum(t.count for t in part)
    unit = left_sum(t.count * t.marginal_cost for t in part)
    return {
        "starved": 0.5 * fixed,
        "below": fixed + 0.3 * params.s_max * unit,
        "at-complete": fixed + params.s_max * unit,
        "at-partial": fixed + params.s_max * left_sum(_virtual_costs(pop.on_time(T_MAX))),
        "above": fixed + 2.0 * params.s_max * unit + 1.0,
    }[kind]


def _audit(menu: ContractMenu, pop, params: GcsParams) -> dict:
    report = check_feasibility(menu, pop, params)
    return {
        "menu": hashlib.sha256(_menu_text(menu).encode()).hexdigest(),
        "report": [report.ir_ok, report.ic_ok, report.budget_ok, report.monotone_ok,
                   repr(report.worst_violation),
                   list(report.worst_pair) if report.worst_pair else None],
        "reward_fair": check_reward_fairness(menu, pop),
    }


def _record(menu: ContractMenu, pop, params: GcsParams) -> dict:
    return _audit(menu, pop, params) | {
        "gcs_utility": repr(gcs_utility(menu, pop, params)),
        "surplus": repr(social_surplus(menu, pop, params)),
        "effectiveness": repr(defensive_effectiveness(menu, pop, params)),
    }


def _perturbed(menu: ContractMenu, pop, rng: np.random.Generator) -> dict[str, ContractMenu]:
    """Copies of a menu that break IC and IR, the compact conditions (a late
    type paid, two sizes swapped) and the budget."""
    indices = [t.index for t in pop.types]
    items = {k: menu.item(k) for k in indices}
    late = [t.index for t in pop.types if t.delay > T_MAX]
    on_time = [t.index for t in participating_set(pop, T_MAX)]
    noisy = dict(items)
    for k in rng.choice(indices, max(1, len(indices) // 20), replace=False).tolist():
        it = items[k]
        noisy[k] = ContractItem(it.vdd_size, max(0.0, it.reward + rng.normal(0.0, 5.0)))
    out = {"noisy": noisy}
    if late:
        paid = dict(items)
        paid[late[len(late) // 2]] = ContractItem(3.5, 7.25)
        out["late-paid"] = paid
    if len(on_time) >= 2:
        a, b = on_time[0], on_time[len(on_time) // 2]
        swapped = dict(items)
        swapped[a], swapped[b] = (ContractItem(items[b].vdd_size, items[a].reward),
                                  ContractItem(items[a].vdd_size, items[b].reward))
        out["swapped"] = swapped
    out["doubled"] = {k: ContractItem(it.vdd_size, 2.0 * it.reward) for k, it in items.items()}
    return {name: ContractMenu(menu.t_max, [m[k].vdd_size for k in indices],
                               [m[k].reward for k in indices])
            for name, m in out.items()}


def _population_cases(sizes):
    for n in sizes:
        for variant in ("plain", "mixed"):
            rng = np.random.default_rng([n, variant == "mixed"])
            pop = canonical_columns(*zip(*_rows(variant, n, rng)))
            for kind in BUDGETS:
                params = _budget(kind, pop, GcsParams())
                yield f"{variant}-j{n}-{kind}", pop, GcsParams(budget=params), rng
    if 10_000 not in sizes:
        return
    sc = load_scenario({"seed": 0, "population": {"count": 10_000, "distribution": "uniform",
                                                  "delay": "channel"},
                        "gcs": {"budget": 46.0 * 10_000}})
    yield "channel-j10000", generate_population(sc), sc.gcs, np.random.default_rng(7)


def build_cases(sizes=SIZES) -> dict[str, dict]:
    """The records of every case of ``sizes`` types."""
    cases = {}
    for name, pop, params, rng in _population_cases(sizes):
        for mode, cfg in MODES.items():
            complete = solve_complete(pop, params, T_MAX, cfg)
            partial = solve_partial(pop, params, T_MAX, cfg)
            record = {
                "complete": _record(complete, pop, params),
                "partial": _record(partial, pop, params),
                "relaxed_scalar": repr(solve_partial_relaxed(pop, params, T_MAX, cfg).scalar),
            }
            for label, menu in _perturbed(partial, pop, rng).items():
                record[label] = _audit(menu, pop, params)
            cases[f"{name}-{mode}"] = record
    return cases


@pytest.fixture(scope="module")
def frozen() -> dict[str, dict]:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def built() -> dict[str, dict]:
    return build_cases()


def test_fixture_covers_every_case(frozen, built):
    assert sorted(frozen) == sorted(built)


@pytest.mark.parametrize("size", SIZES)
def test_menus_and_reports_unchanged(size, frozen, built):
    names = [name for name in built if f"-j{size}-" in name]
    assert names
    for name in names:
        assert built[name] == frozen[name], name


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(build_cases(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)

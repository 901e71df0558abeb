"""Experiment runners: each named experiment sweeps one comparison and
returns its plottable CSV table as an iterable of text pieces, keyed by file
name; the pieces joined are the file.  Output is deterministic byte-for-byte
for a fixed scenario and seed; numbers are printed with 9 significant
digits.

The contract tables are lists of lines.  fig8, the learner's trajectory,
grows as types x episodes, so its table is a generator of one piece per
type, formatted as the file is written, after the learner has played every
episode.

Each comparison menu is solved once per population; the uniform baseline is
read off the asymmetric-information menu.  That menu must pass the full
feasibility report and reward fairness, the complete-information menu IR and
the budget (it is intentionally not incentive compatible across types); each
gets one feasibility scan.  The two baselines, which no rational population
would self-select truthfully, are checked by their payment total alone.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterable, Iterator

import numpy as np

from .learn import EpisodeLog, hotboot, run_dynamic_game
from .model import (
    FEASIBILITY_TOL,
    ContractMenu,
    GcsParams,
    Population,
    check_feasibility,
    check_reward_fairness,
    defensive_effectiveness,
    gcs_term,
    gcs_utility,
    total_payment,
    uav_payoff,
)
from .scenario import Scenario, generate_population
from .solver import linear_contract, solve_complete, solve_partial, uniform_contract

__all__ = ["EXPERIMENTS", "run_experiment"]

SCHEMES = ("complete", "partial", "linear", "uniform")

# fig7-style sweep: UAV count paired with a high and a low budget
SWEEP_COUNTS = (2, 4, 6, 8, 10)
SWEEP_BUDGETS = {
    "high": (160.0, 320.0, 480.0, 640.0, 800.0),
    "low": (92.0, 184.0, 276.0, 368.0, 460.0),
}


class AuditError(RuntimeError):
    """An emitted menu violated a feasibility or fairness invariant."""


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _csv(header: list[str], rows: list[list]) -> list[str]:
    lines = [",".join(header) + "\n"]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return lines


def _solve_all(pop: Population, params: GcsParams, t_max: float, cfg) -> dict[str, ContractMenu]:
    partial = solve_partial(pop, params, t_max, cfg)
    return {
        "complete": solve_complete(pop, params, t_max, cfg),
        "partial": partial,
        "linear": linear_contract(pop, params, t_max),
        "uniform": uniform_contract(partial, pop),
    }


def _audit(menus: dict[str, ContractMenu], pop: Population, params: GcsParams) -> None:
    partial_report = check_feasibility(menus["partial"], pop, params)
    reward_fair = check_reward_fairness(menus["partial"], pop)
    if not (partial_report.all_ok and reward_fair):
        raise AuditError(
            f"asymmetric-information menu failed audit: worst slack "
            f"{partial_report.worst_violation:.3e}, reward fairness {reward_fair}"
        )
    complete_report = check_feasibility(menus["complete"], pop, params)
    if not (complete_report.ir_ok and complete_report.budget_ok):
        raise AuditError("complete-information menu failed IR/budget audit")
    for name in ("linear", "uniform"):
        if not params.budget - total_payment(menus[name], pop) >= -FEASIBILITY_TOL:
            raise AuditError(f"{name} baseline exceeded the budget")


def _contract_tables(sc: Scenario, which: str) -> dict[str, Iterable[str]]:
    pop = generate_population(sc)
    params = sc.gcs
    menus = _solve_all(pop, params, sc.t_max, sc.solver)
    _audit(menus, pop, params)
    rows = pop.on_time(sc.t_max).rows
    cost, delay, count = pop.cost[rows], pop.delay[rows], pop.count[rows]
    # one row of items per scheme, one column per on-time type
    sizes = np.array([menus[scheme].sizes[rows] for scheme in SCHEMES])
    rewards = np.array([menus[scheme].rewards[rows] for scheme in SCHEMES])
    ranks = range(1, len(rows) + 1)

    if which == "fig1":
        table = [[rank, c, scheme, s, r]
                 for scheme, s_row, r_row in zip(SCHEMES, sizes.tolist(), rewards.tolist())
                 for rank, c, s, r in zip(ranks, cost.tolist(), s_row, r_row)]
        return {"fig1.csv": _csv(["type_index", "marginal_cost", "scheme", "S_bytes", "R"],
                                 table)}

    partial = SCHEMES.index("partial")
    value_fn = {
        # type j (row) taking type k's item (column) of the partial menu
        "fig3": lambda: uav_payoff(cost[:, None], sizes[partial], rewards[partial],
                                   params.deploy_cost),
        "fig4": lambda: uav_payoff(cost, sizes, rewards, params.deploy_cost),
        "fig5": lambda: gcs_term(count, delay, sizes, rewards, params),
        # social surplus of a type: the GCS term with the UAV paid its cost
        "fig6": lambda: gcs_term(count, delay, sizes, cost * sizes + params.deploy_cost, params),
    }[which]
    with np.errstate(over="ignore", invalid="ignore"):  # inf on overflow, as on floats
        values = value_fn().tolist()

    if which == "fig3":
        table = [[j, k, u] for (j, k), u in zip(itertools.product(ranks, repeat=2),
                                                itertools.chain.from_iterable(values))]
        return {"fig3.csv": _csv(["type_index", "item_index", "utility"], table)}
    table = [[c, scheme, v] for scheme, row in zip(SCHEMES, values)
             for c, v in zip(cost.tolist(), row)]
    return {f"{which}.csv": _csv(["marginal_cost", "scheme", "value"], table)}


def _sweep_tables(sc: Scenario, metric: str) -> dict[str, Iterable[str]]:
    """Defensive-effectiveness (or GCS-utility) sweep over UAV counts under
    the paired high/low budget schedules."""
    # one population draw per count, shared by both budget schedules, so
    # high-vs-low comparisons are apples to apples
    pops = {
        count: generate_population(
            sc, rng=np.random.default_rng(np.random.SeedSequence([sc.seed, count])), count=count
        )
        for count in SWEEP_COUNTS
    }
    rows = []
    for tag in ("high", "low"):
        for count, budget in zip(SWEEP_COUNTS, SWEEP_BUDGETS[tag]):
            pop = pops[count]
            params = dataclasses.replace(sc.gcs, budget=budget)
            menus = _solve_all(pop, params, sc.t_max, sc.solver)
            _audit(menus, pop, params)
            for scheme in SCHEMES:
                if metric == "zeta":
                    value = defensive_effectiveness(menus[scheme], pop, params)
                else:
                    value = gcs_utility(menus[scheme], pop, params)
                rows.append([count, tag, scheme, value])
    column = "zeta" if metric == "zeta" else "gcs_utility"
    name = "fig7" if metric == "zeta" else "sweep"
    return {f"{name}.csv": _csv(["uav_count", "budget_tag", "scheme", column], rows)}


def _learning_tables(sc: Scenario) -> dict[str, Iterable[str]]:
    pop = generate_population(sc)
    tables = hotboot(pop, sc.gcs, sc.t_max, sc.learner, sc.seed)
    logs = run_dynamic_game(pop, sc.gcs, sc.t_max, sc.learner, sc.seed, tables)
    return {"fig8.csv": _fig8_pieces(logs)}


def _fig8_pieces(logs: dict[int, EpisodeLog]) -> Iterator[str]:
    """The header, then each type's rows as one piece: the text of each
    payoff cell the pair visited, "S,R,uav_utility,gcs_utility", is
    formatted once and gathered per episode."""
    yield "episode,type_index,S_bytes,R,uav_utility,gcs_utility\n"
    for rank in sorted(logs):
        log = logs[rank]
        sizes = list(map(_fmt, log.size_grid.values.tolist()))
        rewards = list(map(_fmt, log.reward_grid.values.tolist()))
        visited, per_episode = np.unique(log.cells, return_inverse=True)
        r, s = np.divmod(visited, log.size_grid.levels)
        cell_text = [f"{sizes[j]},{rewards[i]},{u:.9g},{g:.9g}" for i, j, u, g in zip(
            r.tolist(), s.tolist(), log.uav_payoffs[visited].tolist(),
            log.gcs_payoffs[visited].tolist())]
        row = f"%d,{log.type_index},%s\n".__mod__
        yield "".join(map(row, enumerate(map(cell_text.__getitem__, per_episode.tolist()))))


EXPERIMENTS = ("fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "sweep")


def run_experiment(name: str, sc: Scenario) -> dict[str, Iterable[str]]:
    """Run one named experiment and return its CSV tables, each an iterable
    of text pieces, keyed by file name."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    if name == "fig7":
        return _sweep_tables(sc, "zeta")
    if name == "sweep":
        return _sweep_tables(sc, "gcs_utility")
    if name == "fig8":
        return _learning_tables(sc)
    return _contract_tables(sc, name)

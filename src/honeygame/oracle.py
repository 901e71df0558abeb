"""Brute-force ground truth for the contract solvers on small instances.

Enumerates candidate size schedules on a byte grid, derives rewards from the
respective closed-form pricing rule, filters by direct constraint
enumeration, and keeps the best objective.  Deliberately independent of the
solver algebra: no water levels, no virtual costs beyond the reward
recursion the menus themselves require.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    FEASIBILITY_TOL,
    ContractMenu,
    GcsParams,
    OnTime,
    Population,
    gcs_utility,
    left_sum,
)

__all__ = [
    "GridSpec",
    "oracle_types",
    "grid_search_complete",
    "grid_search_partial",
    "enumerate_incentives",
    "enumerate_reward_fairness",
]

MAX_ORACLE_TYPES = 3


def oracle_types(pop: Population, t_max: float) -> OnTime:
    """The on-time view, whose types the grid searches enumerate; more than
    ``MAX_ORACLE_TYPES`` on-time types raise."""
    view = pop.on_time(t_max)
    if len(view.rows) > MAX_ORACLE_TYPES:
        raise ValueError(f"the oracle takes at most {MAX_ORACLE_TYPES} on-time types, "
                         f"got {len(view.rows)}")
    return view


@dataclass(frozen=True)
class GridSpec:
    """Enumeration grid: step size in bytes over [0, s_max]."""

    s_step: float
    s_max: float

    def __post_init__(self) -> None:
        if not 0 < self.s_step < math.inf:
            raise ValueError(f"s_step must be finite and > 0, got {self.s_step}")
        ratio = self.s_max / self.s_step
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("s_max must be an integer multiple of s_step")

    @property
    def points(self) -> np.ndarray:
        return np.arange(round(self.s_max / self.s_step) + 1) * self.s_step


def grid_search_complete(
    pop: Population,
    params: GcsParams,
    t_max: float,
    grid: GridSpec,
) -> tuple[ContractMenu, float]:
    """Exhaustive cost-priced search: every size combination on the grid,
    rewards equal to cost, budget-feasible argmax of the GCS objective."""
    view = oracle_types(pop, t_max)
    pts = grid.points
    best_obj = -math.inf
    best: tuple | None = None
    if not len(view.rows):
        menu = ContractMenu.zero(pop, t_max)
        return menu, gcs_utility(menu, pop, params)

    counts = np.array(view.count, dtype=float)
    costs = np.array(view.cost)
    delays = np.array(view.delay)

    grids = np.meshgrid(*([pts] * len(view.rows)), indexing="ij")
    sizes = np.stack([g.ravel() for g in grids], axis=-1)  # (M, J')
    rewards = costs * sizes + params.deploy_cost
    paid = (counts * rewards).sum(axis=1)
    feasible = paid <= params.budget + 1e-9
    if not feasible.any():
        menu = ContractMenu.zero(pop, t_max)
        return menu, gcs_utility(menu, pop, params)
    objective = (
        params.satisfaction * (counts / delays) * np.log1p(sizes)
        - counts * rewards
    ).sum(axis=1)
    objective[~feasible] = -np.inf
    idx = int(np.argmax(objective))
    best_obj = float(objective[idx])
    best = (sizes[idx], rewards[idx])
    menu = ContractMenu.placed(len(pop), t_max, view.rows, *best)
    return menu, best_obj


def grid_search_partial(
    pop: Population,
    params: GcsParams,
    t_max: float,
    grid: GridSpec,
) -> tuple[ContractMenu, float]:
    """Exhaustive search over non-decreasing size tuples with recursion-priced
    rewards, retained only if the full IR/IC/budget enumeration passes."""
    view = oracle_types(pop, t_max)
    if not len(view.rows):
        menu = ContractMenu.zero(pop, t_max)
        return menu, gcs_utility(menu, pop, params)

    pts = grid.points
    counts, costs, delays = map(view.tolist, (view.count, view.cost, view.delay))
    n = len(view.rows)

    best_obj = -math.inf
    best: tuple | None = None
    for combo in itertools.combinations_with_replacement(pts, n):
        sizes = list(combo)  # non-decreasing by construction
        rewards = [costs[0] * sizes[0] + params.deploy_cost]
        for j in range(1, n):
            rewards.append(rewards[-1] + costs[j] * (sizes[j] - sizes[j - 1]))
        paid = left_sum(c * r for c, r in zip(counts, rewards))
        if paid > params.budget + 1e-9:
            continue
        ir_ok, ic_ok, _, _ = enumerate_incentives(sizes, rewards, costs, params.deploy_cost)
        if not (ir_ok and ic_ok):
            continue
        obj = left_sum(
            params.satisfaction * (counts[j] / delays[j]) * math.log1p(sizes[j])
            - counts[j] * rewards[j]
            for j in range(n)
        )
        if obj > best_obj:
            best_obj = obj
            best = (sizes, rewards)
    if best is None:
        menu = ContractMenu.zero(pop, t_max)
        return menu, gcs_utility(menu, pop, params)
    menu = ContractMenu.placed(len(pop), t_max, view.rows, *best)
    return menu, best_obj


def enumerate_incentives(sizes, rewards, costs, deploy_cost):
    """Every IR and ordered-pair IC slack, pair by pair, with the same float
    expressions as the audits in ``model``.

    Returns (IR ok, IC ok, smallest slack, a (j, k) position pair attaining
    it with k == j meaning IR); the slack is inf and the pair None when J = 0.
    """
    n = len(sizes)
    ir_ok = ic_ok = True
    worst, pair = math.inf, None
    for j in range(n):
        own = rewards[j] - (costs[j] * sizes[j] + deploy_cost)
        ir_ok = ir_ok and own >= -FEASIBILITY_TOL
        if own < worst:
            worst, pair = own, (j, j)
        for k in range(n):
            if k == j:
                continue
            slack = own - (rewards[k] - (costs[j] * sizes[k] + deploy_cost))
            ic_ok = ic_ok and slack >= -FEASIBILITY_TOL
            if slack < worst:
                worst, pair = slack, (j, k)
    return bool(ir_ok), bool(ic_ok), worst, pair


def enumerate_reward_fairness(sizes, rewards) -> bool:
    """No pair with S_a < S_b - tol and R_a > R_b + tol (tol the audit
    tolerance), checked pair by pair."""
    return not any(
        sa < sb - FEASIBILITY_TOL and ra > rb + FEASIBILITY_TOL
        for sa, ra in zip(sizes, rewards)
        for sb, rb in zip(sizes, rewards)
    )

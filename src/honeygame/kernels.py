"""Array kernels: the population build, solvers, audits and utilities over
numpy columns, for populations with at least ``model.ARRAY_MIN_TYPES``
on-time types.  Below that the per-type loops in ``model`` and ``solver``
run; they are also the bitwise reference these kernels reproduce:

* a sum a loop takes left to right is a sequential ``np.cumsum`` (never the
  pairwise ``np.sum``), started where the loop starts;
* a ``math.fsum`` total stays ``math.fsum``, and ``log1p`` stays the scalar
  ``math`` call;
* Python's ``min``/``max`` tie rules become explicit ``np.where`` choices,
  and the first of equal minima is the one kept.

This module is imported on first use, so the learner and the experiments
over small populations never load it (``solve`` reads its per-type listing
from ``item_columns`` at any size).
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Mapping

import numpy as np

from .model import (
    ContractItem,
    ContractMenu,
    FeasibilityReport,
    GcsParams,
    Population,
    _hull,
)
from .solver import BUDGET_EXACT, _MONO_TOL, SolverConfig, _fit_budget, iron


class ItemColumns(Mapping):
    """Menu items held as a size and a reward column: type index k is row
    k - 1.  Reading an item builds its ``ContractItem``; the kernels read
    the columns."""

    def __init__(self, sizes: np.ndarray, rewards: np.ndarray) -> None:
        if not all(np.isfinite(c).all() and not (c < 0).any() for c in (sizes, rewards)):
            for s, r in zip(sizes.tolist(), rewards.tolist()):
                ContractItem(s, r)  # raises the error of the first bad row
        self.sizes = sizes
        self.rewards = rewards

    def __getitem__(self, index: int) -> ContractItem:
        if not 1 <= index <= len(self.sizes):
            raise KeyError(index)
        return ContractItem(float(self.sizes[index - 1]), float(self.rewards[index - 1]))

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, len(self.sizes) + 1))

    def __len__(self) -> int:
        return len(self.sizes)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def item_columns(menu: ContractMenu, pop: Population) -> tuple[np.ndarray, np.ndarray]:
    """The menu's sizes and rewards as columns aligned to ``pop.types``; a
    type the menu leaves out gets the zero item."""
    items, n = menu.items, len(pop)
    if isinstance(items, ItemColumns) and len(items) == n:
        return items.sizes, items.rewards
    rows = [menu.item(k) for k in range(1, n + 1)]
    return (np.array([it.vdd_size for it in rows], dtype=float),
            np.array([it.reward for it in rows], dtype=float))


def _running_total(start: float, terms: np.ndarray) -> float:
    """``start`` plus the terms, added one at a time from the left (as a
    Python loop, or the built-in ``sum`` from 0, adds them)."""
    return float(np.cumsum(np.concatenate(([start], terms)))[-1])


# -- population -------------------------------------------------------------

def population(rows: list[tuple[float, float, int]]) -> Population | None:
    """``model.canonical_population`` of the rows over columns; None unless
    every cost and delay is a float, every count an int and every
    ``UavType`` check passes (the loop then builds the types, or raises)."""
    costs, delays, counts = zip(*rows)
    if not (all(type(v) is float for v in costs + delays) and all(type(n) is int for n in counts)
            and min(counts) >= 1 and sum(counts) < 2**63):
        return None
    cost, delay = np.array(costs), np.array(delays)
    if not (np.isfinite(cost).all() and (cost >= 0.0).all()
            and np.isfinite(delay).all() and (delay > 0.0).all()):
        return None
    # stable: of equal keys (0.0 and -0.0 are equal) the first row's stays,
    # as the loop's dict keeps the first key
    order = np.lexsort((delay, -cost))
    cost, delay, count = cost[order], delay[order], np.array(counts, dtype=np.int64)[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (cost[1:] != cost[:-1]) | (delay[1:] != delay[:-1])
    starts = np.flatnonzero(first)
    return Population._from_columns(cost[starts], delay[starts], np.add.reduceat(count, starts))


# -- utilities --------------------------------------------------------------

def gcs_utility(menu: ContractMenu, pop: Population, params: GcsParams, rows: np.ndarray) -> float:
    sizes, rewards = (c[rows] for c in item_columns(menu, pop))
    count = pop.count[rows]
    log = np.array(list(map(math.log1p, sizes.tolist())))
    terms = params.satisfaction * (count / pop.delay[rows]) * log - count * rewards
    return _running_total(0.0, terms)


def uav_total(menu: ContractMenu, pop: Population, params: GcsParams, rows: np.ndarray,
              start: float) -> float:
    """``start`` plus count x utility of each on-time type."""
    sizes, rewards = (c[rows] for c in item_columns(menu, pop))
    payoff = rewards - (pop.cost[rows] * sizes + params.deploy_cost)
    return _running_total(start, pop.count[rows] * payoff)


def total_payment(menu: ContractMenu, pop: Population, rows: np.ndarray) -> float:
    return _paid(pop.count[rows], item_columns(menu, pop)[1][rows])


def _paid(counts: np.ndarray, rewards: np.ndarray) -> float:
    return math.fsum((counts * rewards).tolist())


def delivered(menu: ContractMenu, pop: Population, rows: np.ndarray) -> float:
    """The on-time sizes summed as the built-in ``sum`` sums them."""
    return _running_total(0.0, item_columns(menu, pop)[0][rows])


# -- audits -----------------------------------------------------------------

def check_feasibility(
    menu: ContractMenu,
    pop: Population,
    params: GcsParams,
    tol: float,
    rows: np.ndarray,
) -> FeasibilityReport:
    """``model.check_feasibility`` over the columns, for the on-time ``rows``."""
    all_sizes, all_rewards = item_columns(menu, pop)
    cost, sizes, rewards = pop.cost[rows], all_sizes[rows], all_rewards[rows]
    ir_ok, ic_ok, worst, worst_pair = _envelope_scan(
        cost, sizes, rewards, rows + 1, params.deploy_cost, tol
    )
    budget_slack = params.budget - _paid(pop.count[rows], rewards)

    # the compact conditions: late types unpaid, IR binding at the costliest
    # on-time type, then the adjacent monotonicity and cost-sandwich slacks
    late = np.ones(len(pop), dtype=bool)
    late[rows] = False
    late_sizes, late_rewards = all_sizes[late], all_rewards[late]
    paid_late = (late_sizes != 0.0) | (late_rewards != 0.0)
    ds, dr = np.diff(sizes), np.diff(rewards)
    slacks = np.concatenate((
        -np.where(late_sizes >= late_rewards, late_sizes, late_rewards)[paid_late],
        rewards[:1] - (cost[:1] * sizes[:1] + params.deploy_cost),
        ds, dr, dr - cost[1:] * ds, cost[:-1] * ds - dr,
    ))
    monotone_ok = not paid_late.any() and not (slacks < -tol).any()
    mono_worst = min(0.0, float(slacks.min()))

    return FeasibilityReport(
        ir_ok=ir_ok,
        ic_ok=ic_ok,
        budget_ok=bool(budget_slack >= -tol),
        monotone_ok=monotone_ok,
        worst_violation=float(min(0.0, worst, budget_slack, mono_worst)),
        worst_pair=worst_pair,
    )


def _envelope_scan(
    cost: np.ndarray,
    sizes: np.ndarray,
    rewards: np.ndarray,
    index: np.ndarray,
    deploy_cost: float,
    tol: float,
) -> tuple[bool, bool, float, tuple[int, int]]:
    """``model._incentive_scan`` over the on-time columns (``index`` holds
    the population indices).  Each type's own payoff and its slacks against
    the envelope line at its cost and that line's two neighbours form one
    row; the first minimum in row order is the one the loop keeps."""
    n = len(cost)
    order = np.lexsort((np.arange(n), -rewards, -sizes))
    hull = [k for _, _, k in _hull(zip(sizes[order].tolist(), rewards[order].tolist(),
                                       order.tolist()))]
    hs, hr = sizes[hull], rewards[hull]
    # sorted: ``_hull`` keeps each middle line only if its two break points
    # compare ``<`` as products of the same rounded differences, and correctly
    # rounded products and quotients keep that order (ties aside)
    breaks = (hr[:-1] - hr[1:]) / (hs[:-1] - hs[1:])
    at = np.searchsorted(breaks, cost, side="left")

    own = rewards - (cost * sizes + deploy_cost)
    # candidate hull positions h - 1, h, h + 1; off the hull or the type's own item: no slack
    pos = at[:, None] + np.arange(-1, 2)
    k = np.asarray(hull)[np.clip(pos, 0, len(hull) - 1)]
    valid = (pos >= 0) & (pos < len(hull)) & (k != np.arange(n)[:, None])
    other = rewards[k] - (cost[:, None] * sizes[k] + deploy_cost)
    slack = np.where(valid, own[:, None] - other, np.inf)
    table = np.concatenate((own[:, None], np.where(np.isnan(slack), np.inf, slack)), axis=1)

    j, col = divmod(int(np.argmin(table)), 4)
    partner = j if col == 0 else int(k[j, col - 1])
    return (bool((own >= -tol).all()), bool((slack >= -tol).all()),
            float(table[j, col]), (int(index[j]), int(index[partner])))


def reward_fair(menu: ContractMenu, pop: Population, t_max: float, tol: float) -> bool:
    """``model.check_reward_fairness`` over the columns: a stable sort by
    size, a running maximum of rewards and one binary search per item."""
    sizes, rewards = item_columns(menu, pop)
    if ((pop.delay > t_max) & (rewards > tol)).any():
        return False
    order = np.argsort(sizes, kind="stable")
    best = np.maximum.accumulate(rewards[order])
    below = np.searchsorted(sizes[order], sizes - tol, side="left")
    return not ((below > 0) & (best[below - 1] > rewards + tol)).any()


# -- solvers ----------------------------------------------------------------

def _breakpoints(
    unit_costs: np.ndarray, weights: np.ndarray, s_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The events of ``solver._solve_water_level`` in its order: breakpoint,
    entering?, type, lex-sorted as its (breakpoint, entering?, type) tuples."""
    priced = np.flatnonzero(unit_costs > 0.0)
    a, w = unit_costs[priced], weights[priced]
    points = np.concatenate((a / w, a * (1.0 + s_max) / w))
    entering = np.concatenate((np.ones(len(priced), bool), np.zeros(len(priced), bool)))
    types = np.concatenate((priced, priced))
    order = np.lexsort((types, entering, points))
    return points[order], entering[order], types[order]


def _clamp_sizes(x: float, weights: np.ndarray, unit_costs: np.ndarray, s_max: float) -> np.ndarray:
    """``solver._clamp_size`` per type, with its ``min``/``max`` tie rules."""
    v = np.divide(x * weights, unit_costs, out=np.zeros_like(weights), where=unit_costs > 0.0)
    v -= 1.0
    v = np.where(0.0 > v, 0.0, v)
    return np.where(unit_costs <= 0.0, s_max, np.where(v < s_max, v, s_max))


class WaterLevel:
    """``solver._solve_water_level`` as a function of the budget.

    The breakpoints are sorted once, with the payment reached at each from
    the left (running offsets and slopes by sequential ``np.cumsum``, as the
    loop's running sums add).  Each budget is then one comparison pass for
    its segment (the rounded payments need not be sorted, so no bisection)
    and one pass over the sizes."""

    def __init__(self, unit_costs, weights, fixed_cost: float, s_max: float) -> None:
        self.a = np.asarray(unit_costs, dtype=float)
        self.w = np.asarray(weights, dtype=float)
        self.fixed, self.s_max = fixed_cost, s_max
        self.points, entering, types = _breakpoints(self.a, self.w, s_max)
        if not len(types):
            return
        a, w = self.a[types], self.w[types]
        steps = np.where(entering, -a, a * (1.0 + s_max))
        offset = np.cumsum(np.concatenate(([fixed_cost], steps)))
        slope = np.cumsum(np.concatenate(([0.0], np.where(entering, w, -w))))
        self.reach = offset[:-1] + slope[:-1] * self.points
        self.floor = self.payment(0.0)
        self.top = float(self.points[-1])
        self.ceiling = self.payment(self.top)

    def sizes_at(self, x: float) -> np.ndarray:
        return _clamp_sizes(x, self.w, self.a, self.s_max)

    def payment(self, x: float) -> float:
        return self.fixed + _running_total(0.0, self.a * self.sizes_at(x))

    def __call__(self, budget: float) -> tuple[float, np.ndarray]:
        points = self.points
        if not len(points):
            return 0.0, self.sizes_at(0.0)
        if budget <= self.floor:
            return float(points[0]), self.sizes_at(0.0)
        if budget >= self.ceiling:
            return self.top, self.sizes_at(self.top)
        reached = self.reach >= budget
        end = int(np.argmax(reached)) if reached.any() else len(points)
        hi = float(points[min(end, len(points) - 1)])
        lo = float(points[end - 1]) if end else 0.0
        mid = 0.5 * (lo + hi)
        a, w = self.a, self.w
        inside = (a > 0.0) & (a / w < mid) & (mid < a * (1.0 + self.s_max) / w)
        a, w = a[inside], w[inside]
        base = self.payment(lo) - _running_total(0.0, a * (lo * w / a - 1.0))
        slope = _running_total(0.0, w)
        if slope <= 0.0:
            return lo, self.sizes_at(lo)
        x = (budget - base + _running_total(0.0, a)) / slope
        return x, self.sizes_at(x)


def water_level(mode: str, unit_costs, weights, fixed_cost: float,
                s_max: float) -> Callable[[float], tuple[float, np.ndarray]]:
    """The water level of ``mode`` as a function of the budget."""
    if mode == BUDGET_EXACT:
        return WaterLevel(unit_costs, weights, fixed_cost, s_max)
    a, w = np.asarray(unit_costs, dtype=float), np.asarray(weights, dtype=float)
    total_a, total_w = _running_total(0.0, a), _running_total(0.0, w)

    def literal(budget: float) -> tuple[float, np.ndarray]:
        x = (budget + total_a - fixed_cost) / total_w
        return x, _clamp_sizes(x, w, a, s_max)

    return literal


def virtual_costs(cost: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``solver._virtual_costs`` over the on-time cost and count columns."""
    tail = np.concatenate((np.cumsum(count[::-1])[::-1][1:], [0]))
    gap = np.concatenate((cost[:-1] - cost[1:], [0.0]))
    return count * cost + gap * tail


def _rewards(sizes: np.ndarray, cost: np.ndarray, deploy_cost: float) -> np.ndarray:
    """``solver.optimal_rewards``: the recursion's increments added by
    sequential ``np.cumsum``."""
    if (sizes[:-1] > sizes[1:] + _MONO_TOL).any():
        raise ValueError("sizes must be non-decreasing; iron first")
    return np.cumsum(np.concatenate((cost[:1] * sizes[:1] + deploy_cost,
                                     cost[1:] * np.diff(sizes))))


def _menu(pop: Population, t_max: float, rows: np.ndarray, sizes: np.ndarray,
          rewards: np.ndarray) -> ContractMenu:
    """The menu giving the on-time ``rows`` these sizes and rewards, and
    every other type the zero item."""
    columns = np.zeros((2, len(pop)))
    columns[0, rows], columns[1, rows] = sizes, rewards
    return ContractMenu(t_max=t_max, items=ItemColumns(columns[0], columns[1]))


def solve_complete(pop: Population, params: GcsParams, t_max: float, cfg: SolverConfig,
                   rows: np.ndarray) -> ContractMenu:
    cost, count = pop.cost[rows], pop.count[rows]
    fixed = params.deploy_cost * int(count.sum())
    if params.budget < fixed:
        return ContractMenu.zero(pop, t_max)
    level = water_level(cfg.budget_mode, count * cost, count / pop.delay[rows], fixed,
                        params.s_max)

    def menu_at(budget: float) -> ContractMenu:
        _, sizes = level(budget)
        return _menu(pop, t_max, rows, sizes, cost * sizes + params.deploy_cost)

    return _fit_budget(menu_at, pop, params.budget, cfg.budget_mode)


def solve_partial(pop: Population, params: GcsParams, t_max: float, cfg: SolverConfig,
                  rows: np.ndarray) -> ContractMenu:
    cost, count = pop.cost[rows], pop.count[rows]
    fixed = params.deploy_cost * int(count.sum())
    if params.budget < fixed:
        return ContractMenu.zero(pop, t_max)
    blocks = iron((count / pop.delay[rows]).tolist(), virtual_costs(cost, count).tolist())
    level = water_level(cfg.budget_mode, [a for _, a, _ in blocks], [w for w, _, _ in blocks],
                        fixed, params.s_max)
    lengths = [n for _, _, n in blocks]

    def menu_at(budget: float) -> ContractMenu:
        sizes = np.repeat(level(budget)[1], lengths)
        return _menu(pop, t_max, rows, sizes, _rewards(sizes, cost, params.deploy_cost))

    return _fit_budget(menu_at, pop, params.budget, cfg.budget_mode)


"""Array kernels: the solvers, audits and utilities over numpy columns,
for populations with at least ``model.ARRAY_MIN_TYPES`` on-time types.
Below that the per-type loops in ``model`` and ``solver`` run; they are
also the bitwise reference these kernels reproduce (``solver._water_level``
picks the solvers' water level, ``WaterLevel`` or a loop rule):

* a running total is ``model.left_sum`` on both sides: the loop's fold,
  the column's sequential ``np.cumsum`` (never the pairwise ``np.sum``),
  started where the loop starts;
* the GCS term is ``model.gcs_term`` on both sides, element-wise here, with
  ``log1p`` the scalar ``math`` call; a ``math.fsum`` total stays
  ``math.fsum``;
* Python's ``min``/``max`` tie rules become explicit ``np.where`` choices,
  and the first of equal minima is the one kept;
* the solvers, audits and utilities run under ``channel._quiet``: an
  overflow gives inf with no warning, as Python float arithmetic does.

This module is imported on first use, so runs over small populations
never load it.
"""

from __future__ import annotations

import numpy as np

from .channel import _quiet
from .model import (
    FEASIBILITY_TOL,
    ContractMenu,
    FeasibilityReport,
    GcsParams,
    Population,
    _hull,
    gcs_term,
    left_sum,
    payment_sum,
    uav_payoff,
)
from .solver import _MONO_TOL, SolverConfig, _fit_budget, _water_level, iron


# -- utilities --------------------------------------------------------------

@_quiet
def gcs_utility(menu: ContractMenu, pop: Population, params: GcsParams, rows: np.ndarray) -> float:
    return left_sum(gcs_term(pop.count[rows], pop.delay[rows], menu.sizes[rows],
                             menu.rewards[rows], params))


@_quiet
def uav_total(menu: ContractMenu, pop: Population, params: GcsParams, rows: np.ndarray,
              start: float) -> float:
    """``start`` plus count x utility of each on-time type."""
    payoff = uav_payoff(pop.cost[rows], menu.sizes[rows], menu.rewards[rows], params.deploy_cost)
    return left_sum(pop.count[rows] * payoff, start)


@_quiet
def total_payment(menu: ContractMenu, pop: Population, rows: np.ndarray) -> float:
    return payment_sum((pop.count[rows] * menu.rewards[rows]).tolist())


# -- audits -----------------------------------------------------------------

@_quiet
def check_feasibility(
    menu: ContractMenu,
    pop: Population,
    params: GcsParams,
    rows: np.ndarray,
) -> FeasibilityReport:
    """``model.check_feasibility`` over the columns, for the on-time ``rows``."""
    cost, sizes, rewards = pop.cost[rows], menu.sizes[rows], menu.rewards[rows]
    ir_ok, ic_ok, worst, worst_pair = _envelope_scan(cost, sizes, rewards, rows + 1,
                                                     params.deploy_cost)
    budget_slack = params.budget - payment_sum((pop.count[rows] * rewards).tolist())

    # the compact conditions: late types unpaid, IR binding at the costliest
    # on-time type, then the adjacent monotonicity and cost-sandwich slacks
    late = np.ones(len(pop), dtype=bool)
    late[rows] = False
    late_sizes, late_rewards = menu.sizes[late], menu.rewards[late]
    paid_late = (late_sizes != 0.0) | (late_rewards != 0.0)
    ds, dr = np.diff(sizes), np.diff(rewards)
    slacks = np.concatenate((
        -np.where(late_sizes >= late_rewards, late_sizes, late_rewards)[paid_late],
        uav_payoff(cost[:1], sizes[:1], rewards[:1], params.deploy_cost),
        ds, dr, dr - cost[1:] * ds, cost[:-1] * ds - dr,
    ))
    monotone_ok = not paid_late.any() and not (slacks < -FEASIBILITY_TOL).any()
    mono_worst = min(0.0, float(slacks.min()))

    return FeasibilityReport(
        ir_ok=ir_ok,
        ic_ok=ic_ok,
        budget_ok=bool(budget_slack >= -FEASIBILITY_TOL),
        monotone_ok=monotone_ok,
        worst_violation=float(min(0.0, worst, budget_slack, mono_worst)),
        worst_pair=worst_pair,
    )


@_quiet
def _envelope_scan(
    cost: np.ndarray,
    sizes: np.ndarray,
    rewards: np.ndarray,
    index: np.ndarray,
    deploy_cost: float,
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

    own = uav_payoff(cost, sizes, rewards, deploy_cost)
    # candidate hull positions h - 1, h, h + 1; off the hull or the type's own item: no slack
    pos = at[:, None] + np.arange(-1, 2)
    k = np.asarray(hull)[np.clip(pos, 0, len(hull) - 1)]
    valid = (pos >= 0) & (pos < len(hull)) & (k != np.arange(n)[:, None])
    other = uav_payoff(cost[:, None], sizes[k], rewards[k], deploy_cost)
    slack = np.where(valid, own[:, None] - other, np.inf)
    table = np.concatenate((own[:, None], np.where(np.isnan(slack), np.inf, slack)), axis=1)

    j, col = divmod(int(np.argmin(table)), 4)
    partner = j if col == 0 else int(k[j, col - 1])
    return (bool((own >= -FEASIBILITY_TOL).all()), bool((slack >= -FEASIBILITY_TOL).all()),
            float(table[j, col]), (int(index[j]), int(index[partner])))


def reward_fair(menu: ContractMenu, pop: Population) -> bool:
    """``model.check_reward_fairness`` over the columns: a stable sort by
    size, a running maximum of rewards and one binary search per item."""
    sizes, rewards = menu.sizes, menu.rewards
    if ((pop.delay > menu.t_max) & (rewards > FEASIBILITY_TOL)).any():
        return False
    order = np.argsort(sizes, kind="stable")
    best = np.maximum.accumulate(rewards[order])
    below = np.searchsorted(sizes[order], sizes - FEASIBILITY_TOL, side="left")
    return not ((below > 0) & (best[below - 1] > rewards + FEASIBILITY_TOL)).any()


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
        return self.fixed + left_sum(self.a * self.sizes_at(x))

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
        base = self.payment(lo) - left_sum(a * (lo * w / a - 1.0))
        slope = left_sum(w)
        if slope <= 0.0:
            return lo, self.sizes_at(lo)
        x = (budget - base + left_sum(a)) / slope
        return x, self.sizes_at(x)


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


@_quiet
def solve_complete(pop: Population, params: GcsParams, t_max: float, cfg: SolverConfig,
                   rows: np.ndarray) -> ContractMenu:
    cost, count = pop.cost[rows], pop.count[rows]
    fixed = params.deploy_cost * int(count.sum())
    if params.budget < fixed:
        return ContractMenu.zero(pop, t_max)
    level = _water_level(cfg.budget_mode, count * cost, count / pop.delay[rows], fixed,
                         params.s_max)

    def menu_at(budget: float) -> ContractMenu:
        _, sizes = level(budget)
        return ContractMenu.placed(len(pop), t_max, rows, sizes, cost * sizes + params.deploy_cost)

    return _fit_budget(menu_at, pop, params.budget, cfg.budget_mode)


@_quiet
def solve_partial(pop: Population, params: GcsParams, t_max: float, cfg: SolverConfig,
                  rows: np.ndarray) -> ContractMenu:
    cost, count = pop.cost[rows], pop.count[rows]
    fixed = params.deploy_cost * int(count.sum())
    if params.budget < fixed:
        return ContractMenu.zero(pop, t_max)
    blocks = iron((count / pop.delay[rows]).tolist(), virtual_costs(cost, count).tolist())
    level = _water_level(cfg.budget_mode, [a for _, a, _ in blocks], [w for w, _, _ in blocks],
                         fixed, params.s_max)
    lengths = [n for _, _, n in blocks]

    def menu_at(budget: float) -> ContractMenu:
        sizes = np.repeat(level(budget)[1], lengths)
        return ContractMenu.placed(len(pop), t_max, rows, sizes,
                                   _rewards(sizes, cost, params.deploy_cost))

    return _fit_budget(menu_at, pop, params.budget, cfg.budget_mode)


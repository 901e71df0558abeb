"""Array kernels: the parts of the solvers and audits whose algorithm
differs between numpy columns and per-type loops, for the on-time views
that choose the arrays (``model.OnTime.arrays``, from
``model.ARRAY_MIN_TYPES`` on-time types): the IR/IC envelope scan, the
compact conditions, reward fairness and the budget-exact water level
``WaterLevel``.  Everything else, the utilities and both solvers among it,
is written once over the view's columns (``OnTime.apply``,
``OnTime.running``).  This module depends on ``model`` and ``channel``
alone.  The loops in ``model`` and ``solver`` are the bitwise reference
these kernels reproduce:

* a running total is ``model.left_sum`` on both sides: the loop's fold,
  the column's sequential ``np.cumsum`` (never the pairwise ``np.sum``),
  started where the loop starts; a ``math.fsum`` total stays
  ``math.fsum``;
* Python's ``min``/``max`` tie rules become explicit ``np.where`` choices,
  and the first of equal minima is the one kept;
* the kernels run under ``channel._quiet``: an overflow gives inf with no
  warning, as Python float arithmetic does.

This module is imported on first use, so runs over small populations
never load it.
"""

from __future__ import annotations

import numpy as np

from .channel import _quiet
from .model import FEASIBILITY_TOL, _hull, left_sum, uav_payoff


# -- audits -----------------------------------------------------------------

@_quiet
def _envelope_scan(
    cost: np.ndarray,
    sizes: np.ndarray,
    rewards: np.ndarray,
    rows: np.ndarray,
    deploy_cost: float,
) -> tuple[bool, bool, float, tuple[int, int]]:
    """``model._incentive_scan`` over the on-time columns (``rows`` holds
    the types' row positions).  Each type's own payoff and its slacks against
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
            float(table[j, col]), (int(rows[j]) + 1, int(rows[partner]) + 1))


@_quiet
def compact_conditions(cost: np.ndarray, sizes: np.ndarray, rewards: np.ndarray,
                       deploy_cost: float) -> tuple[bool, float]:
    """``model._compact_conditions`` over the on-time columns: IR binding at
    the costliest on-time type, then the adjacent monotonicity and
    cost-sandwich slacks."""
    ds, dr = np.diff(sizes), np.diff(rewards)
    slacks = np.concatenate((uav_payoff(cost[:1], sizes[:1], rewards[:1], deploy_cost),
                             ds, dr, dr - cost[1:] * ds, cost[:-1] * ds - dr))
    return not (slacks < -FEASIBILITY_TOL).any(), min(0.0, float(slacks.min()))


def reward_ordered(sizes: np.ndarray, rewards: np.ndarray) -> bool:
    """``model._reward_ordered`` over the columns: a stable sort by size, a
    running maximum of rewards and one binary search per item."""
    order = np.argsort(sizes, kind="stable")
    best = np.maximum.accumulate(rewards[order])
    below = np.searchsorted(sizes[order], sizes - FEASIBILITY_TOL, side="left")
    return not ((below > 0) & (best[below - 1] > rewards + FEASIBILITY_TOL)).any()


# -- the budget-exact water level -------------------------------------------

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

    @_quiet
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

    @_quiet
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

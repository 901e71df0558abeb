"""Independent reference for the closed-form menus, written with numpy and
without importing ``honeygame.solver`` or the audits in ``honeygame.model``.

Both menus water-fill the budget: every participating type j gets
S_j = clamp(x * w_j / a_j - 1, 0, s_max), with w_j = N_j / d_j, and the
level x is bisected until the payments exhaust the budget.

* complete information: a_j = N_j C_j, reward = C_j S_j + deploy_cost;
* partial information: a_j is the virtual cost
  A_j = N_j C_j + (C_j - C_{j+1}) sum_{k>j} N_k.  Sizes are monotone exactly
  when the ratios w_j / A_j are, so ironing is one pool-adjacent-violators
  pass on those ratios (a pooled block has ratio sum W / sum A) before the
  bisection.  Rewards follow the binding local incentive recursion
  R_1 = C_1 S_1 + deploy_cost, R_j = R_{j-1} + C_j (S_j - S_{j-1}).

Types are in canonical order (descending marginal cost), so sizes and
rewards must be non-decreasing in j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Participants:
    """Participating types in canonical order: costs C, delays d, counts N."""

    cost: np.ndarray
    delay: np.ndarray
    count: np.ndarray


@dataclass(frozen=True)
class Menu:
    sizes: np.ndarray
    rewards: np.ndarray


def water_level(unit: np.ndarray, weight: np.ndarray, fixed: float, budget: float,
                s_max: float) -> np.ndarray:
    """Sizes clamp(x * weight / unit - 1, 0, s_max) whose payment
    fixed + sum(unit * S) equals the budget.  The budget must bind: it lies
    between the fixed cost and the payment at full saturation.  Bisection
    runs until the bracket is two adjacent doubles and keeps the side that
    does not overspend."""
    ratio = weight / unit

    def sizes(x: float) -> np.ndarray:
        return np.clip(x * ratio - 1.0, 0.0, s_max)

    def payment(x: float) -> float:
        return fixed + float(np.sum(unit * sizes(x)))

    lo, hi = 0.0, (1.0 + s_max) / float(ratio.min())
    if not fixed <= budget <= payment(hi):
        raise ValueError(f"budget {budget} does not bind: fixed {fixed}, saturated {payment(hi)}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return sizes(lo)
        if payment(mid) <= budget:
            lo = mid
        else:
            hi = mid


def virtual_costs(p: Participants) -> np.ndarray:
    tail = np.concatenate([np.cumsum(p.count[::-1])[::-1][1:], [0]])
    gaps = np.concatenate([p.cost[:-1] - p.cost[1:], [0.0]])
    return p.count * p.cost + gaps * tail


def pool_adjacent_violators(w: np.ndarray, a: np.ndarray) -> list[tuple[float, float, int]]:
    """Blocks (sum w, sum a, length) whose pooled ratios sum w / sum a are
    non-decreasing."""
    blocks: list[tuple[float, float, int]] = []
    for wj, aj in zip(w.tolist(), a.tolist()):
        blocks.append((wj, aj, 1))
        while len(blocks) >= 2 and blocks[-2][0] / blocks[-2][1] > blocks[-1][0] / blocks[-1][1]:
            hw, ha, hn = blocks.pop()
            lw, la, ln = blocks.pop()
            blocks.append((lw + hw, la + ha, ln + hn))
    return blocks


def solve_complete(p: Participants, budget: float, s_max: float, deploy_cost: float) -> Menu:
    fixed = deploy_cost * float(p.count.sum())
    sizes = water_level(p.count * p.cost, p.count / p.delay, fixed, budget, s_max)
    return Menu(sizes, p.cost * sizes + deploy_cost)


def solve_partial(p: Participants, budget: float, s_max: float, deploy_cost: float) -> Menu:
    fixed = deploy_cost * float(p.count.sum())
    blocks = pool_adjacent_violators(p.count / p.delay, virtual_costs(p))
    block_w, block_a, lengths = (np.array(col) for col in zip(*blocks))
    sizes = np.repeat(water_level(block_a, block_w, fixed, budget, s_max), lengths)
    steps = np.concatenate([[p.cost[0] * sizes[0] + deploy_cost], p.cost[1:] * np.diff(sizes)])
    return Menu(sizes, np.cumsum(steps))


def gcs_utility(p: Participants, menu: Menu, satisfaction: float) -> float:
    return float(np.sum(satisfaction * (p.count / p.delay) * np.log1p(menu.sizes)
                        - p.count * menu.rewards))


def uav_utilities(p: Participants, menu: Menu, deploy_cost: float) -> np.ndarray:
    """U[j, k]: utility of type j taking the item designed for type k."""
    return menu.rewards[None, :] - p.cost[:, None] * menu.sizes[None, :] - deploy_cost


def ir_ic_violations(p: Participants, menu: Menu, deploy_cost: float,
                     tol: float) -> tuple[int, int]:
    """(IR violations, IC violations) by full J x J enumeration."""
    u = uav_utilities(p, menu, deploy_cost)
    own = np.diag(u)
    return int(np.sum(own < -tol)), int(np.sum(own[:, None] < u - tol))

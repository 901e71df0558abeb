"""Closed-form contract solvers.

Three regimes:

* complete information: the GCS pays each type exactly its cost, and the
  interior sizes follow a water-filling rule driven by a single budget scalar;
* partial information asymmetry: the same rule with marginal costs replaced
  by virtual costs that fold in the information rents of lower-cost types,
  and a reward recursion that makes truth-telling binding.  A block of
  pooled types takes the common size clamp(x * sum W / sum A - 1, 0, s_max),
  so sizes are monotone exactly when the ratios w_j / A_j are: ironing is
  one pool-adjacent-violators pass on those ratios, independent of x;
* two baselines (linear price, single uniform item) used for comparison runs.

Budget handling, shared by both information regimes: in ``budget-exact``
mode the scalar is solved so that total payments hit the budget exactly
even when some sizes clamp at the bounds (one sweep over the sorted
breakpoints of the piecewise-linear payment, no iteration error), and a
menu whose payments, summed as the audit sums them, overshoot the budget by
more than the audit tolerance is re-solved just below it;
``paper-literal`` applies the full-set closed form once and then clamps.
``_water_level`` alone picks the rule for a mode.

Each solver reads the population's on-time view (``Population.on_time``):
its rows, head count and columns, and its choice of path.  Every solver is
written once over the view's columns (``OnTime.apply`` and
``OnTime.running``); only the budget-exact water level forks, to
``kernels.WaterLevel`` on views of arrays, with the loop's bits.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .channel import _quiet
from .model import (
    FEASIBILITY_TOL,
    ContractMenu,
    GcsParams,
    OnTime,
    Population,
    UavType,
    _kernels,
    left_sum,
    participating_set,
    total_payment,
)

__all__ = [
    "SolverConfig",
    "RelaxedSolution",
    "solve_complete",
    "optimal_rewards",
    "solve_partial_relaxed",
    "iron",
    "solve_partial",
    "linear_contract",
    "uniform_contract",
]

BUDGET_EXACT = "budget-exact"
PAPER_LITERAL = "paper-literal"


@dataclass(frozen=True)
class SolverConfig:
    budget_mode: str = BUDGET_EXACT

    def __post_init__(self) -> None:
        if self.budget_mode not in (BUDGET_EXACT, PAPER_LITERAL):
            raise ValueError(f"unknown budget_mode {self.budget_mode!r}")


@dataclass(frozen=True)
class RelaxedSolution:
    """Relaxed (monotonicity-free) size solution for the asymmetric case.

    ``participants`` are the population's own on-time types (population
    indices kept) and ``sizes`` align with them.  ``scalar`` is the budget
    water-level.
    """

    participants: tuple[UavType, ...]
    sizes: tuple[float, ...]
    scalar: float


def _weights(view: OnTime):
    """Per-type satisfaction weight w_j = N_j / d_j."""
    return view.apply(operator.truediv, (view.count, view.delay))


def _virtual_cost(count, cost, after, tail):
    return count * cost + (cost - after) * tail


def _virtual_costs(view: OnTime):
    """Per-type virtual cost A_j = N_j C_j + (C_j - C_{j+1}) * sum_{k>j} N_k
    over the view's columns (last type: its own cost only)."""
    cost = view.cost
    # the next type's cost; the last type's own, whose gap (C - C) * 0 is 0.0
    after = copy.copy(cost)
    after[:-1] = cost[1:]
    # sum_{k>j} N_k: the running totals of the reversed counts, reversed
    tail = view.running(view.count[::-1], 0)[-2::-1]
    return view.apply(_virtual_cost, (view.count, cost, after, tail))


def _clamp_size(x: float, weight: float, unit_cost: float, s_max: float) -> float:
    """Size clamp(x * w / a - 1, 0, s_max); a type with no unit cost is
    saturated for free."""
    if unit_cost <= 0.0:
        return s_max
    return min(s_max, max(x * weight / unit_cost - 1.0, 0.0))


def _solve_water_level(
    unit_costs: list[float],
    weights: list[float],
    fixed_cost: float,
    budget: float,
    s_max: float,
) -> tuple[float, list[float]]:
    """Find the scalar x and sizes S_j = clamp(x * w_j / a_j - 1, 0, s_max)
    such that fixed_cost + sum a_j S_j equals the budget.

    Total payment is piecewise linear and non-decreasing in x: type j enters
    the interior at a_j / w_j and saturates at a_j (1 + s_max) / w_j.  One
    sweep over the sorted breakpoints with running sums locates the crossing
    segment, where the linear equation is solved exactly.  Types with zero
    unit cost are saturated for free.  If even full saturation under-spends
    the budget, the saturated solution is returned (payments then fall short
    of the budget; there is nothing left to buy).
    """
    priced = [j for j, a in enumerate(unit_costs) if a > 0.0]

    def sizes_at(x: float) -> list[float]:
        return [_clamp_size(x, w, a, s_max) for a, w in zip(unit_costs, weights)]

    def payment(x: float) -> float:
        return fixed_cost + left_sum(map(operator.mul, unit_costs, sizes_at(x)))

    if not priced:
        return 0.0, sizes_at(0.0)

    # (breakpoint, entering?, type)
    events = sorted(
        [(unit_costs[j] / weights[j], True, j) for j in priced]
        + [(unit_costs[j] * (1.0 + s_max) / weights[j], False, j) for j in priced]
    )
    if budget <= payment(0.0):
        return events[0][0], sizes_at(0.0)
    top = events[-1][0]
    if budget >= payment(top):
        return top, sizes_at(top)

    # Payment on the segment ending at breakpoint hi is offset + slope * hi.
    lo, offset, slope = 0.0, fixed_cost, 0.0
    for hi, entering, j in events:
        if offset + slope * hi >= budget:
            break
        if entering:
            offset -= unit_costs[j]
            slope += weights[j]
        else:
            offset += unit_costs[j] * (1.0 + s_max)
            slope -= weights[j]
        lo = hi
    # On (lo, hi) the interior set is fixed; solve the linear equation there,
    # summed afresh so that no rounding of the running sums reaches x.
    mid = 0.5 * (lo + hi)
    interior = [
        j
        for j in priced
        if unit_costs[j] / weights[j] < mid < unit_costs[j] * (1.0 + s_max) / weights[j]
    ]
    base = payment(lo) - left_sum(unit_costs[j] * (lo * weights[j] / unit_costs[j] - 1.0)
                                  for j in interior)
    slope = left_sum(weights[j] for j in interior)
    if slope <= 0.0:  # flat segment already at the budget
        return lo, sizes_at(lo)
    x = (budget - base + left_sum(unit_costs[j] for j in interior)) / slope
    return x, sizes_at(x)


def _literal_water_level(
    unit_costs: list[float],
    weights: list[float],
    fixed_cost: float,
    budget: float,
    s_max: float,
) -> tuple[float, list[float]]:
    """One-shot closed form over the full set, then clamp."""
    x = (budget + left_sum(unit_costs) - fixed_cost) / left_sum(weights)
    return x, [_clamp_size(x, w, a, s_max) for a, w in zip(unit_costs, weights)]


def _water_level(mode: str, unit_costs: Sequence[float], weights: Sequence[float],
                 fixed_cost: float, s_max: float, arrays: bool) -> Callable[[float], tuple]:
    """The water level of ``mode`` as a function of the budget: for a view
    the array kernels serve (``OnTime.arrays``), the column kernel
    ``kernels.WaterLevel`` in budget-exact mode, else the loop rule (the
    same bits)."""
    if arrays and mode == BUDGET_EXACT:
        return _kernels().WaterLevel(unit_costs, weights, fixed_cost, s_max)
    rule = _solve_water_level if mode == BUDGET_EXACT else _literal_water_level

    def level(budget: float) -> tuple:
        return rule(unit_costs, weights, fixed_cost, budget, s_max)

    # over columns the rule's float64 scalars overflow to inf quietly, as floats do
    return _quiet(level) if arrays else level


def _fit_budget(
    menu_at: Callable[[float], ContractMenu],
    pop: Population,
    budget: float,
    mode: str,
) -> ContractMenu:
    """The menu ``menu_at`` builds for the budget.

    In budget-exact mode the water level meets the budget equation in its
    own summation order, and over thousands of types (and the partial reward
    recursion) rounding can leave the emitted payments a few ulps of the
    budget over it.  Totalled as the audit totals them (``total_payment``),
    a total over the budget by more than FEASIBILITY_TOL is re-solved against
    budget - g, with g doubling from the overshoot until the total fits, or
    g exceeds the budget itself.
    """
    menu = menu_at(budget)
    if mode != BUDGET_EXACT:
        return menu
    g = total_payment(menu, pop) - budget
    if g <= FEASIBILITY_TOL:
        return menu
    while True:
        menu = menu_at(budget - g)
        if total_payment(menu, pop) <= budget or g > budget:
            return menu
        g *= 2.0


def _cost_reward(cost, size, deploy_cost: float):
    """The reward that pays a UAV exactly its cost for ``size`` bytes."""
    return cost * size + deploy_cost


def solve_complete(
    pop: Population,
    params: GcsParams,
    t_max: float,
    cfg: SolverConfig | None = None,
) -> ContractMenu:
    """Optimal menu when the GCS observes every type: rewards equal costs
    (zero rent), sizes water-fill the budget."""
    cfg = cfg or SolverConfig()
    view = pop.on_time(t_max)
    fixed = params.deploy_cost * view.heads
    if not len(view.rows) or params.budget < fixed:
        return ContractMenu.zero(pop, t_max)
    level = _water_level(cfg.budget_mode, view.apply(operator.mul, (view.count, view.cost)),
                         _weights(view), fixed, params.s_max, view.arrays)

    def menu_at(budget: float) -> ContractMenu:
        _, sizes = level(budget)
        rewards = view.apply(_cost_reward, (view.cost, sizes), params.deploy_cost)
        return ContractMenu.placed(len(pop), t_max, view.rows, sizes, rewards)

    return _fit_budget(menu_at, pop, params.budget, cfg.budget_mode)


def _falls(size, after):
    return size > after + FEASIBILITY_TOL


def _increment(cost, size, before):
    return cost * (size - before)


def optimal_rewards(sizes, view: OnTime, params: GcsParams):
    """Minimal feasible rewards for a monotone size schedule over the view's
    types, a column of the view's form: the costliest type is paid exactly
    its cost, and each next reward adds that type's marginal cost of the
    size increment (binding local truth-telling)."""
    if len(sizes) != len(view.rows):
        raise ValueError("sizes must align with participating types")
    if True in view.apply(_falls, (sizes[:-1], sizes[1:])):
        raise ValueError("sizes must be non-decreasing; iron first")
    # the previous type's size, 0.0 before the costliest, which is then paid
    # its cost (an empty list gains the 0.0, which the map never reaches)
    before = copy.copy(sizes)
    before[1:] = sizes[:-1]
    before[:1] = [0.0]
    return view.running(view.apply(_increment, (view.cost, sizes, before)),
                        params.deploy_cost)[1:]


def solve_partial_relaxed(
    pop: Population,
    params: GcsParams,
    t_max: float,
    cfg: SolverConfig | None = None,
) -> RelaxedSolution:
    """Water-filling over virtual costs, ignoring the monotonicity
    requirement.  Sizes may come out non-monotone; ``solve_partial`` pools
    the offending types with ``iron``."""
    cfg = cfg or SolverConfig()
    view = pop.on_time(t_max)
    if not len(view.rows):
        return RelaxedSolution((), (), 0.0)
    fixed = params.deploy_cost * view.heads
    if params.budget < fixed:
        sizes = [0.0] * len(view.rows)
        scalar = 0.0
    else:
        scalar, sizes = _water_level(cfg.budget_mode, _virtual_costs(view), _weights(view),
                                     fixed, params.s_max, view.arrays)(params.budget)
    return RelaxedSolution(tuple(participating_set(pop, t_max)), tuple(map(float, sizes)),
                           scalar)


def iron(weights: list[float], virtual: list[float]) -> list[tuple[float, float, int]]:
    """Pool adjacent violators on the ratios w_j / A_j.

    Returns consecutive blocks (sum W, sum A, length) whose pooled ratios
    sum W / sum A are non-decreasing, so the pooled sizes
    clamp(x * sum W / sum A - 1, 0, s_max) are monotone at every water level
    x.  Ratios are compared by cross-multiplication, which needs no tolerance
    and lets a zero virtual cost stand for an infinite ratio.  Already
    monotone ratios give one block per type.
    """
    blocks: list[tuple[float, float, int]] = []
    for w, a in zip(weights, virtual):
        blocks.append((w, a, 1))
        while len(blocks) >= 2 and blocks[-2][0] * blocks[-1][1] > blocks[-1][0] * blocks[-2][1]:
            w_hi, a_hi, n_hi = blocks.pop()
            w_lo, a_lo, n_lo = blocks.pop()
            blocks.append((w_lo + w_hi, a_lo + a_hi, n_lo + n_hi))
    return blocks


def solve_partial(
    pop: Population,
    params: GcsParams,
    t_max: float,
    cfg: SolverConfig | None = None,
) -> ContractMenu:
    """Optimal menu under partial information asymmetry: virtual costs,
    ironing into blocks, one water level over the blocks (so the budget
    still binds in budget-exact mode), then the reward recursion."""
    cfg = cfg or SolverConfig()
    view = pop.on_time(t_max)
    fixed = params.deploy_cost * view.heads
    if not len(view.rows) or params.budget < fixed:
        return ContractMenu.zero(pop, t_max)
    blocks = iron(view.tolist(_weights(view)), view.tolist(_virtual_costs(view)))
    level = _water_level(cfg.budget_mode, [a for _, a, _ in blocks], [w for w, _, _ in blocks],
                         fixed, params.s_max, view.arrays)
    lengths = [n for _, _, n in blocks]

    def menu_at(budget: float) -> ContractMenu:
        sizes = view.repeat(level(budget)[1], lengths)
        return ContractMenu.placed(len(pop), t_max, view.rows, sizes,
                                   optimal_rewards(sizes, view, params))

    return _fit_budget(menu_at, pop, params.budget, cfg.budget_mode)


def _corner(cost, price: float, s_max: float):
    """A type's best response to the linear price: everything if it earns
    from it, else nothing."""
    return s_max * (cost < price)


def _priced(count, size, price: float):
    return count * price * size


def linear_contract(
    pop: Population,
    params: GcsParams,
    t_max: float,
) -> ContractMenu:
    """Baseline: rewards proportional to size at the highest participating
    marginal cost.  Each type best-responds with a corner size (everything or
    nothing; indifferent types opt for nothing), and sizes scale down
    proportionally if the payments overshoot the budget."""
    view = pop.on_time(t_max)
    if not len(view.rows):
        return ContractMenu.zero(pop, t_max)
    price = view.cost[0]  # the costliest on-time type's: the columns run by descending cost
    sizes = view.apply(_corner, (view.cost,), price, params.s_max)
    paid = left_sum(view.apply(_priced, (view.count, sizes), price))
    if paid > params.budget and paid > 0:
        sizes = view.apply(operator.mul, (sizes,), params.budget / paid)
    return ContractMenu.placed(len(pop), t_max, view.rows, sizes,
                               view.apply(operator.mul, (sizes,), price))


def uniform_contract(partial: ContractMenu, pop: Population) -> ContractMenu:
    """Baseline: every on-time type gets the item that ``partial``, the
    asymmetric-information menu ``solve_partial`` built for ``pop``, gives
    the costliest on-time type.  Nothing is solved here."""
    rows = pop.on_time(partial.t_max).rows
    if not len(rows):
        return ContractMenu.zero(pop, partial.t_max)
    first = rows[:1]  # the costliest on-time type's row
    return ContractMenu.placed(len(pop), partial.t_max, rows,
                               partial.sizes[first].repeat(len(rows)),
                               partial.rewards[first].repeat(len(rows)))

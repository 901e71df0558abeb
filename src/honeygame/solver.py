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

The loops here serve populations with fewer than ``model.ARRAY_MIN_TYPES``
on-time types; from there on each solver hands over to its column kernel
in ``kernels``, which gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .model import (
    FEASIBILITY_TOL,
    ContractItem,
    ContractMenu,
    GcsParams,
    Population,
    UavType,
    ZERO_ITEM,
    _kernels,
    on_time_rows,
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

_MONO_TOL = 1e-9


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


def _virtual_costs(part: list[UavType]) -> list[float]:
    """Per-type virtual cost A_j = N_j C_j + (C_j - C_{j+1}) * sum_{k>j} N_k
    (last type: its own cost only)."""
    n = len(part)
    tail = 0
    virtual = [0.0] * n
    for j in range(n - 1, -1, -1):
        gap = part[j].marginal_cost - part[j + 1].marginal_cost if j < n - 1 else 0.0
        virtual[j] = part[j].count * part[j].marginal_cost + gap * tail
        tail += part[j].count
    return virtual


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
        return fixed_cost + sum(a * s for a, s in zip(unit_costs, sizes_at(x)))

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
    base = payment(lo) - sum(
        unit_costs[j] * (lo * weights[j] / unit_costs[j] - 1.0) for j in interior
    )
    slope = sum(weights[j] for j in interior)
    if slope <= 0.0:  # flat segment already at the budget
        return lo, sizes_at(lo)
    x = (budget - base + sum(unit_costs[j] for j in interior)) / slope
    return x, sizes_at(x)


def _literal_water_level(
    unit_costs: list[float],
    weights: list[float],
    fixed_cost: float,
    budget: float,
    s_max: float,
) -> tuple[float, list[float]]:
    """One-shot closed form over the full set, then clamp."""
    x = (budget + sum(unit_costs) - fixed_cost) / sum(weights)
    return x, [_clamp_size(x, w, a, s_max) for a, w in zip(unit_costs, weights)]


_WATER_LEVEL = {BUDGET_EXACT: _solve_water_level, PAPER_LITERAL: _literal_water_level}


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


def _menu_from(
    pop: Population,
    t_max: float,
    part: list[UavType],
    items: list[ContractItem],
) -> ContractMenu:
    out = {t.index: ZERO_ITEM for t in pop.types}
    for t, item in zip(part, items):
        out[t.index] = item
    return ContractMenu(t_max=t_max, items=out)


def solve_complete(
    pop: Population,
    params: GcsParams,
    t_max: float,
    cfg: SolverConfig | None = None,
) -> ContractMenu:
    """Optimal menu when the GCS observes every type: rewards equal costs
    (zero rent), sizes water-fill the budget."""
    cfg = cfg or SolverConfig()
    rows = on_time_rows(pop, t_max)
    if rows is not None:
        return _kernels().solve_complete(pop, params, t_max, cfg, rows)
    part = participating_set(pop, t_max)
    if not part:
        return ContractMenu.zero(pop, t_max)
    fixed = params.deploy_cost * sum(t.count for t in part)
    if params.budget < fixed:
        return ContractMenu.zero(pop, t_max)

    unit = [t.count * t.marginal_cost for t in part]
    weights = [t.count / t.delay for t in part]

    def menu_at(budget: float) -> ContractMenu:
        _, sizes = _WATER_LEVEL[cfg.budget_mode](unit, weights, fixed, budget, params.s_max)
        items = [
            ContractItem(s, t.marginal_cost * s + params.deploy_cost)
            for t, s in zip(part, sizes)
        ]
        return _menu_from(pop, t_max, part, items)

    return _fit_budget(menu_at, pop, params.budget, cfg.budget_mode)


def optimal_rewards(
    sizes: list[float],
    part: list[UavType],
    params: GcsParams,
) -> list[float]:
    """Minimal feasible rewards for a monotone size schedule: the costliest
    type is paid exactly its cost, and each next reward adds that type's
    marginal cost of the size increment (binding local truth-telling)."""
    if len(sizes) != len(part):
        raise ValueError("sizes must align with participating types")
    for a, b in zip(sizes, sizes[1:]):
        if a > b + _MONO_TOL:
            raise ValueError("sizes must be non-decreasing; iron first")
    rewards: list[float] = []
    for j, (t, s) in enumerate(zip(part, sizes)):
        if j == 0:
            rewards.append(t.marginal_cost * s + params.deploy_cost)
        else:
            rewards.append(rewards[-1] + t.marginal_cost * (s - sizes[j - 1]))
    return rewards


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
    part = participating_set(pop, t_max)
    if not part:
        return RelaxedSolution((), (), 0.0)
    virtual = _virtual_costs(part)
    weights = [t.count / t.delay for t in part]
    fixed = params.deploy_cost * sum(t.count for t in part)
    if params.budget < fixed:
        sizes = [0.0] * len(part)
        scalar = 0.0
    else:
        scalar, sizes = _WATER_LEVEL[cfg.budget_mode](
            virtual, weights, fixed, params.budget, params.s_max
        )
    return RelaxedSolution(participants=tuple(part), sizes=tuple(sizes), scalar=scalar)


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
    rows = on_time_rows(pop, t_max)
    if rows is not None:
        return _kernels().solve_partial(pop, params, t_max, cfg, rows)
    part = participating_set(pop, t_max)
    if not part:
        return ContractMenu.zero(pop, t_max)
    fixed = params.deploy_cost * sum(t.count for t in part)
    if params.budget < fixed:
        return ContractMenu.zero(pop, t_max)

    virtual = _virtual_costs(part)
    blocks = iron([t.count / t.delay for t in part], virtual)
    block_costs = [a for _, a, _ in blocks]
    block_weights = [w for w, _, _ in blocks]

    def menu_at(budget: float) -> ContractMenu:
        _, block_sizes = _WATER_LEVEL[cfg.budget_mode](
            block_costs, block_weights, fixed, budget, params.s_max
        )
        sizes = [s for (_, _, n), s in zip(blocks, block_sizes) for _ in range(n)]
        rewards = optimal_rewards(sizes, part, params)
        return _menu_from(pop, t_max, part, [ContractItem(s, r) for s, r in zip(sizes, rewards)])

    return _fit_budget(menu_at, pop, params.budget, cfg.budget_mode)


def linear_contract(
    pop: Population,
    params: GcsParams,
    t_max: float,
) -> ContractMenu:
    """Baseline: rewards proportional to size at the highest participating
    marginal cost.  Each type best-responds with a corner size (everything or
    nothing; indifferent types opt for nothing), and sizes scale down
    proportionally if the payments overshoot the budget."""
    part = participating_set(pop, t_max)
    if not part:
        return ContractMenu.zero(pop, t_max)
    price = max(t.marginal_cost for t in part)
    sizes = [params.s_max if t.marginal_cost < price else 0.0 for t in part]
    paid = sum(t.count * price * s for t, s in zip(part, sizes))
    if paid > params.budget and paid > 0:
        scale = params.budget / paid
        sizes = [s * scale for s in sizes]
    items = [ContractItem(s, price * s) for s in sizes]
    return _menu_from(pop, t_max, part, items)


def uniform_contract(partial: ContractMenu, pop: Population) -> ContractMenu:
    """Baseline: every on-time type gets the item that ``partial``, the
    asymmetric-information menu ``solve_partial`` built for ``pop``, gives
    the costliest on-time type.  Nothing is solved here."""
    part = participating_set(pop, partial.t_max)
    items = [partial.item(part[0].index)] * len(part) if part else []
    return _menu_from(pop, partial.t_max, part, items)

"""Domain types, utilities, and feasibility/fairness predicates for the
VDD-reward contract game between a ground control station (GCS) and typed UAVs.

A UAV type is a (marginal VDD cost, communication delay) pair plus a head
count.  The GCS posts a contract menu: a delivery deadline ``t_max`` and one
(VDD size, reward) item per type.  All solvers and tests share the utility
functions and predicates defined here; everything in this module is a pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = [
    "UavType",
    "Population",
    "ContractItem",
    "ContractMenu",
    "GcsParams",
    "FeasibilityReport",
    "canonicalize",
    "participating_set",
    "uav_utility",
    "gcs_utility",
    "social_surplus",
    "check_feasibility",
    "check_fairness",
    "defensive_effectiveness",
]

# Slack threshold below which an IR/IC/budget violation is reported as real.
FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class UavType:
    """One UAV type: marginal VDD cost (utility units per byte), delivery
    delay in seconds, and how many UAVs share the type."""

    index: int
    marginal_cost: float
    delay: float
    count: int = 1

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"type index must be >= 1, got {self.index}")
        if not math.isfinite(self.marginal_cost) or self.marginal_cost < 0:
            raise ValueError(f"marginal_cost must be finite and >= 0, got {self.marginal_cost}")
        if not math.isfinite(self.delay) or self.delay <= 0:
            raise ValueError(f"delay must be finite and > 0, got {self.delay}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class Population:
    """Canonicalized collection of UAV types.

    Types are ordered by descending marginal cost (ties broken by smaller
    delay) and indexed 1..J.  Use :func:`canonicalize` to build one from raw
    types.
    """

    types: tuple[UavType, ...]
    total_count: int = field(default=0)

    def __post_init__(self) -> None:
        total = sum(t.count for t in self.types)
        if self.total_count == 0:
            object.__setattr__(self, "total_count", total)
        elif self.total_count != total:
            raise ValueError(
                f"total_count {self.total_count} does not match sum of type counts {total}"
            )
        for a, b in zip(self.types, self.types[1:]):
            if (a.marginal_cost, -a.delay) < (b.marginal_cost, -b.delay):
                raise ValueError("types must be ordered by descending cost, then ascending delay")


def canonicalize(types: Iterable[UavType]) -> Population:
    """Merge types with identical (cost, delay), sort by descending marginal
    cost with ties broken by smaller delay, and reindex from 1."""
    merged: dict[tuple[float, float], int] = {}
    for t in types:
        key = (t.marginal_cost, t.delay)
        merged[key] = merged.get(key, 0) + t.count
    ordered = sorted(merged.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
    out = tuple(
        UavType(index=i + 1, marginal_cost=c, delay=d, count=n)
        for i, ((c, d), n) in enumerate(ordered)
    )
    return Population(types=out)


@dataclass(frozen=True)
class ContractItem:
    """One menu entry: the VDD size demanded (bytes) and the reward paid."""

    vdd_size: float
    reward: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.vdd_size) or self.vdd_size < 0:
            raise ValueError(f"vdd_size must be finite and >= 0, got {self.vdd_size}")
        if not math.isfinite(self.reward) or self.reward < 0:
            raise ValueError(f"reward must be finite and >= 0, got {self.reward}")


ZERO_ITEM = ContractItem(0.0, 0.0)


@dataclass(frozen=True)
class ContractMenu:
    """The GCS offer: a delivery deadline and one item per type index."""

    t_max: float
    items: Mapping[int, ContractItem]

    def __post_init__(self) -> None:
        if not math.isfinite(self.t_max) or self.t_max <= 0:
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max}")

    def item(self, index: int) -> ContractItem:
        return self.items.get(index, ZERO_ITEM)

    @staticmethod
    def zero(pop: Population, t_max: float) -> "ContractMenu":
        return ContractMenu(t_max=t_max, items={t.index: ZERO_ITEM for t in pop.types})


@dataclass(frozen=True)
class GcsParams:
    """Principal-side economics: satisfaction factor, per-UAV deployment
    cost, total reward budget, size/reward caps, and the VDD requirement
    used for the defensive-effectiveness ratio."""

    satisfaction: float = 6.0
    deploy_cost: float = 1.0
    budget: float = 460.0
    s_max: float = 300.0
    r_max: float = 480.0
    vdd_requirement: float = 800.0

    def __post_init__(self) -> None:
        checks = {
            "satisfaction": (self.satisfaction, True),
            "deploy_cost": (self.deploy_cost, False),
            "budget": (self.budget, True),
            "s_max": (self.s_max, True),
            "r_max": (self.r_max, True),
            "vdd_requirement": (self.vdd_requirement, True),
        }
        for name, (value, strict) in checks.items():
            if not math.isfinite(value) or value < 0 or (strict and value == 0):
                raise ValueError(f"{name} must be finite and {'>' if strict else '>='} 0, got {value}")


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the feasibility predicates on a menu.

    ``ir_ok``/``ic_ok`` cover exactly the participating set (reindexed);
    ``monotone_ok`` is the compact characterization (joint size/reward
    monotonicity, binding-type IR, adjacent cost sandwich, zero items for
    non-participants) that is equivalent to the full IR+IC enumeration.
    ``worst_violation`` is the most negative slack seen (0 if none).
    """

    ir_ok: dict[int, bool]
    ic_ok: dict[tuple[int, int], bool]
    budget_ok: bool
    monotone_ok: bool
    worst_violation: float

    @property
    def all_ok(self) -> bool:
        return (
            all(self.ir_ok.values())
            and all(self.ic_ok.values())
            and self.budget_ok
            and self.monotone_ok
        )


def participating_set(pop: Population, t_max: float) -> list[UavType]:
    """Types able to deliver within the deadline, reindexed 1..J' in
    descending marginal cost (population order is already canonical)."""
    chosen = [t for t in pop.types if t.delay <= t_max]
    return [
        UavType(index=i + 1, marginal_cost=t.marginal_cost, delay=t.delay, count=t.count)
        for i, t in enumerate(chosen)
    ]


def uav_utility(t: UavType, item: ContractItem, t_max: float, params: GcsParams) -> float:
    """Reward minus cost; a UAV that misses the deadline forfeits the reward
    but still bears its VDD and deployment costs."""
    cost = t.marginal_cost * item.vdd_size + params.deploy_cost
    if t.delay <= t_max:
        return item.reward - cost
    return -cost


def gcs_utility(menu: ContractMenu, pop: Population, params: GcsParams) -> float:
    """Log-satisfaction over delivered VDD minus total payments (natural log).
    Non-delivering types contribute no satisfaction and receive no payment."""
    total = 0.0
    for t in pop.types:
        item = menu.item(t.index)
        on_time = 1.0 if t.delay <= menu.t_max else 0.0
        total += params.satisfaction * (t.count / t.delay) * math.log(1.0 + on_time * item.vdd_size)
        total -= on_time * t.count * item.reward
    return total


def social_surplus(menu: ContractMenu, pop: Population, params: GcsParams) -> float:
    """GCS utility plus the utilities of all on-time UAVs (rewards cancel)."""
    total = gcs_utility(menu, pop, params)
    for t in pop.types:
        if t.delay <= menu.t_max:
            total += t.count * uav_utility(t, menu.item(t.index), menu.t_max, params)
    return total


def check_feasibility(
    menu: ContractMenu,
    pop: Population,
    params: GcsParams,
    tol: float = FEASIBILITY_TOL,
) -> FeasibilityReport:
    """Evaluate IR per type, IC per ordered pair, budget feasibility, and the
    compact monotonicity characterization over the participating set.

    Violations are data, not errors: slacks within ``tol`` of zero count as
    satisfied and ``worst_violation`` carries the raw minimum slack.
    """
    part = participating_set(pop, menu.t_max)
    # items aligned with the reindexed participating order
    originals = [t for t in pop.types if t.delay <= menu.t_max]
    items = [menu.item(t.index) for t in originals]

    worst = 0.0
    ir_ok: dict[int, bool] = {}
    ic_ok: dict[tuple[int, int], bool] = {}
    for j, t in enumerate(part):
        own = uav_utility(t, items[j], menu.t_max, params)
        ir_ok[t.index] = own >= -tol
        worst = min(worst, own)
        for k in range(len(part)):
            if k == j:
                continue
            slack = own - uav_utility(t, items[k], menu.t_max, params)
            ic_ok[(t.index, part[k].index)] = slack >= -tol
            worst = min(worst, slack)

    paid = sum(t.count * it.reward for t, it in zip(part, items))
    budget_slack = params.budget - paid
    budget_ok = budget_slack >= -tol
    worst = min(worst, budget_slack)

    monotone_ok, mono_worst = _compact_conditions(part, items, menu, pop, params, tol)
    worst = min(worst, mono_worst)

    return FeasibilityReport(
        ir_ok=ir_ok,
        ic_ok=ic_ok,
        budget_ok=budget_ok,
        monotone_ok=monotone_ok,
        worst_violation=worst,
    )


def _compact_conditions(
    part: list[UavType],
    items: list[ContractItem],
    menu: ContractMenu,
    pop: Population,
    params: GcsParams,
    tol: float,
) -> tuple[bool, float]:
    """The if-and-only-if feasibility characterization: zero items for
    non-participants, joint monotonicity of sizes and rewards, IR binding at
    the costliest participating type, and the adjacent cost sandwich
    C_j (S_j - S_{j-1}) <= R_j - R_{j-1} <= C_{j-1} (S_j - S_{j-1})."""
    worst = 0.0
    ok = True
    for t in pop.types:
        if t.delay > menu.t_max:
            it = menu.item(t.index)
            if it.vdd_size != 0.0 or it.reward != 0.0:
                ok = False
                worst = min(worst, -max(it.vdd_size, it.reward))
    if not part:
        return ok, worst

    first = uav_utility(part[0], items[0], menu.t_max, params)
    worst = min(worst, first)
    if first < -tol:
        ok = False
    for j in range(1, len(part)):
        ds = items[j].vdd_size - items[j - 1].vdd_size
        dr = items[j].reward - items[j - 1].reward
        lo = part[j].marginal_cost * ds
        hi = part[j - 1].marginal_cost * ds
        for slack in (ds, dr, dr - lo, hi - dr):
            worst = min(worst, slack)
            if slack < -tol:
                ok = False
    return ok, worst


def check_fairness(
    menu: ContractMenu,
    pop: Population,
    params: GcsParams,
    tol: float = FEASIBILITY_TOL,
) -> tuple[bool, bool]:
    """(participation fairness, reward fairness).

    Participation fairness: every participating type weakly prefers its own
    item to any other and earns non-negative utility there.  Reward fairness:
    larger VDD contributions never earn smaller rewards, and types that
    cannot deliver on time are paid nothing.
    """
    part = participating_set(pop, menu.t_max)
    originals = [t for t in pop.types if t.delay <= menu.t_max]
    items = [menu.item(t.index) for t in originals]

    participation = True
    for j, t in enumerate(part):
        own = uav_utility(t, items[j], menu.t_max, params)
        if own < -tol:
            participation = False
        for other in items:
            if own < uav_utility(t, other, menu.t_max, params) - tol:
                participation = False

    reward = True
    all_items = [menu.item(t.index) for t in pop.types]
    for a in all_items:
        for b in all_items:
            if a.vdd_size < b.vdd_size - tol and a.reward > b.reward + tol:
                reward = False
    for t in pop.types:
        if t.delay > menu.t_max and menu.item(t.index).reward > tol:
            reward = False
    return participation, reward


def defensive_effectiveness(menu: ContractMenu, pop: Population, params: GcsParams) -> float:
    """Total on-time VDD per type divided by the GCS requirement."""
    contributed = sum(
        menu.item(t.index).vdd_size for t in pop.types if t.delay <= menu.t_max
    )
    return contributed / params.vdd_requirement

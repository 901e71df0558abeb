"""Domain types, utilities, and feasibility/fairness predicates for the
VDD-reward contract game between a ground control station (GCS) and typed UAVs.

A UAV type is a (marginal VDD cost, communication delay) pair plus a head
count.  The GCS posts a contract menu: a delivery deadline ``t_max`` and one
(VDD size, reward) item per type.  All solvers and tests share the utility
functions and predicates defined here; everything in this module is a pure
function of its inputs.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "UavType",
    "Population",
    "ContractItem",
    "ContractMenu",
    "GcsParams",
    "FeasibilityReport",
    "canonicalize",
    "canonical_population",
    "participating_set",
    "uav_payoff",
    "gcs_term",
    "uav_utility",
    "gcs_utility",
    "social_surplus",
    "total_payment",
    "check_feasibility",
    "check_fairness",
    "check_reward_fairness",
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

    def __post_init__(self) -> None:
        for a, b in zip(self.types, self.types[1:]):
            if (a.marginal_cost, -a.delay) < (b.marginal_cost, -b.delay):
                raise ValueError("types must be ordered by descending cost, then ascending delay")


def canonicalize(types: Iterable[UavType]) -> Population:
    """Merge types with identical (cost, delay), sort by descending marginal
    cost with ties broken by smaller delay, and reindex from 1."""
    return canonical_population((t.marginal_cost, t.delay, t.count) for t in types)


def canonical_population(rows: Iterable[tuple[float, float, int]]) -> Population:
    """:func:`canonicalize` for plain (cost, delay, count) rows: one
    ``UavType`` is built per merged type, none per row."""
    merged: dict[tuple[float, float], int] = {}
    for cost, delay, count in rows:
        key = (cost, delay)
        merged[key] = merged.get(key, 0) + count
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
    """Outcome of the feasibility predicates on a menu, built in O(J log J).

    ``ir_ok``/``ic_ok`` say whether IR holds for every on-time type and IC
    for every ordered pair of them.  ``monotone_ok`` is the compact
    characterization (joint size/reward monotonicity, binding-type IR,
    adjacent cost sandwich, zero items for non-participants) that is
    equivalent to the full IR+IC enumeration.  ``worst_violation`` is the
    most negative slack seen (0 if none).  ``worst_pair`` holds the
    population indices (j, k) of the smallest IR/IC slack, with k == j
    meaning IR; it is ``None`` when no type meets the deadline.
    ``participation_fair`` is participation fairness, IR and IC together.
    """

    ir_ok: bool
    ic_ok: bool
    budget_ok: bool
    monotone_ok: bool
    worst_violation: float
    worst_pair: tuple[int, int] | None

    @property
    def all_ok(self) -> bool:
        return self.ir_ok and self.ic_ok and self.budget_ok and self.monotone_ok

    @property
    def participation_fair(self) -> bool:
        return self.ir_ok and self.ic_ok


def participating_set(pop: Population, t_max: float) -> list[UavType]:
    """The population's own types that can deliver within the deadline, in
    canonical order and keeping their population indices.  Where a rank
    1..J' is needed, it is the position in this list (counting from 1)."""
    return [t for t in pop.types if t.delay <= t_max]


def uav_payoff(t: UavType, size: float, reward: float, deploy_cost: float) -> float:
    """What a type-t UAV earns from delivering ``size`` bytes for ``reward``."""
    return reward - (t.marginal_cost * size + deploy_cost)


def gcs_term(t: UavType, size: float, reward: float, params: GcsParams) -> float:
    """The GCS's log-satisfaction from type t delivering ``size`` bytes each,
    minus the ``reward`` it pays each of the type's UAVs."""
    return params.satisfaction * (t.count / t.delay) * math.log1p(size) - t.count * reward


def uav_utility(t: UavType, item: ContractItem, t_max: float, params: GcsParams) -> float:
    """Reward minus cost; a UAV that misses the deadline forfeits the reward
    but still bears its VDD and deployment costs."""
    reward = item.reward if t.delay <= t_max else 0.0
    return uav_payoff(t, item.vdd_size, reward, params.deploy_cost)


def gcs_utility(menu: ContractMenu, pop: Population, params: GcsParams) -> float:
    """Log-satisfaction over delivered VDD minus total payments (natural log).
    Non-delivering types contribute no satisfaction and receive no payment."""
    total = 0.0
    for t in participating_set(pop, menu.t_max):
        item = menu.item(t.index)
        total += gcs_term(t, item.vdd_size, item.reward, params)
    return total


def social_surplus(menu: ContractMenu, pop: Population, params: GcsParams) -> float:
    """GCS utility plus the utilities of all on-time UAVs (rewards cancel)."""
    total = gcs_utility(menu, pop, params)
    for t in participating_set(pop, menu.t_max):
        total += t.count * uav_utility(t, menu.item(t.index), menu.t_max, params)
    return total


def total_payment(menu: ContractMenu, pop: Population) -> float:
    """What the GCS pays the on-time UAVs: the ``math.fsum`` of count x reward."""
    on_time = participating_set(pop, menu.t_max)
    return math.fsum(t.count * menu.item(t.index).reward for t in on_time)


def check_feasibility(
    menu: ContractMenu,
    pop: Population,
    params: GcsParams,
    tol: float = FEASIBILITY_TOL,
) -> FeasibilityReport:
    """Evaluate IR per type, IC per ordered pair, budget feasibility, and the
    compact monotonicity characterization over the on-time types.

    Violations are data, not errors: slacks within ``tol`` of zero count as
    satisfied and ``worst_violation`` carries the raw minimum slack.
    """
    on_time = participating_set(pop, menu.t_max)
    items = [menu.item(t.index) for t in on_time]
    ir_ok, ic_ok, worst, worst_pair = _incentive_scan(on_time, items, params.deploy_cost, tol)

    budget_slack = params.budget - total_payment(menu, pop)
    monotone_ok, mono_worst = _compact_conditions(on_time, items, menu, pop, params, tol)

    return FeasibilityReport(
        ir_ok=ir_ok,
        ic_ok=ic_ok,
        budget_ok=bool(budget_slack >= -tol),
        monotone_ok=monotone_ok,
        worst_violation=float(min(0.0, worst, budget_slack, mono_worst)),
        worst_pair=worst_pair,
    )


def _incentive_scan(
    on_time: list[UavType],
    items: list[ContractItem],
    deploy_cost: float,
    tol: float,
) -> tuple[bool, bool, float, tuple[int, int] | None]:
    """IR for every on-time type and IC for every ordered pair, in O(J log J).

    A type's payoff from item k is linear in its cost, R_k - C S_k, so its
    best deviation lies on the upper envelope of those lines.  Each type's
    IC slack is evaluated against the envelope line at its cost and that
    line's two neighbours, which hold its best alternative among envelope
    items.  When the type's own item is the envelope line there, its best
    alternative may be an item off the envelope; that slack is >= 0 and
    goes unseen, but the owner of every off-envelope item already shows a
    slack <= 0 against the envelope line at its cost, so the minimum slack
    and the IR/IC verdicts are unaffected.  (No per-type best deviation is
    computed here.)
    Returns (IR ok, IC ok, smallest IR/IC slack, its population (j, k)).
    """
    hull = _upper_envelope(items)
    breaks = [(ra - rb) / (sa - sb) for (sa, ra, _), (sb, rb, _) in zip(hull, hull[1:])]
    ir_ok = ic_ok = True
    worst, worst_pair = math.inf, None
    for pos, (t, it) in enumerate(zip(on_time, items)):
        own = uav_payoff(t, it.vdd_size, it.reward, deploy_cost)
        ir_ok = ir_ok and own >= -tol
        if own < worst:
            worst, worst_pair = own, (t.index, t.index)
        h = bisect.bisect_left(breaks, t.marginal_cost)
        for _, _, k in hull[max(h - 1, 0):h + 2]:
            if k == pos:
                continue
            slack = own - uav_payoff(t, items[k].vdd_size, items[k].reward, deploy_cost)
            ic_ok = ic_ok and slack >= -tol
            if slack < worst:
                worst, worst_pair = slack, (t.index, on_time[k].index)
    return bool(ir_ok), bool(ic_ok), worst, worst_pair


def _upper_envelope(items: list[ContractItem]) -> list[tuple[float, float, int]]:
    """The lines x -> R_k - x S_k that attain max_k (R_k - x S_k) somewhere,
    as (S, R, position) in order of increasing x.  Equal sizes keep the
    larger reward; an exact copy of a kept item ties it, so its owner's
    slack against the kept one is 0 and nothing is lost by dropping it."""
    order = sorted(range(len(items)), key=lambda k: (-items[k].vdd_size, -items[k].reward, k))
    hull: list[tuple[float, float, int]] = []
    for k in order:
        s, r = items[k].vdd_size, items[k].reward
        if hull and hull[-1][0] == s:
            continue
        # the last line is redundant once its neighbours cross at or before
        # where it would take over: x(a, b) >= x(b, new)
        while len(hull) >= 2:
            (sa, ra, _), (sb, rb, _) = hull[-2], hull[-1]
            if (ra - rb) * (sb - s) < (rb - r) * (sa - sb):
                break
            hull.pop()
        hull.append((s, r, k))
    return hull


def _compact_conditions(
    on_time: list[UavType],
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
    if not on_time:
        return ok, worst

    first = uav_utility(on_time[0], items[0], menu.t_max, params)
    worst = min(worst, first)
    if first < -tol:
        ok = False
    for j in range(1, len(on_time)):
        ds = items[j].vdd_size - items[j - 1].vdd_size
        dr = items[j].reward - items[j - 1].reward
        lo = on_time[j].marginal_cost * ds
        hi = on_time[j - 1].marginal_cost * ds
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
    item to any other and earns non-negative utility there, i.e. the
    report's ``participation_fair``.  Reward fairness: see
    :func:`check_reward_fairness`.
    """
    report = check_feasibility(menu, pop, params, tol)
    return report.participation_fair, check_reward_fairness(menu, pop, tol)


def check_reward_fairness(menu: ContractMenu, pop: Population, tol: float = FEASIBILITY_TOL) -> bool:
    """Larger VDD contributions never earn smaller rewards, and types that
    cannot deliver on time are paid nothing."""
    items = [menu.item(t.index) for t in pop.types]
    if any(t.delay > menu.t_max and it.reward > tol for t, it in zip(pop.types, items)):
        return False
    return _reward_ordered(items, tol)


def _reward_ordered(items: list[ContractItem], tol: float) -> bool:
    """No item a with S_a < S_b - tol and R_a > R_b + tol, for any b: a sort
    by size, a prefix maximum of rewards, and one bisection per item."""
    items = sorted(items, key=lambda it: it.vdd_size)
    sizes = [it.vdd_size for it in items]
    best = list(itertools.accumulate((it.reward for it in items), max))
    for b in items:
        n = bisect.bisect_left(sizes, b.vdd_size - tol)
        if n and best[n - 1] > b.reward + tol:
            return False
    return True


def defensive_effectiveness(menu: ContractMenu, pop: Population, params: GcsParams) -> float:
    """Total on-time VDD per type divided by the GCS requirement."""
    contributed = sum(menu.item(t.index).vdd_size for t in participating_set(pop, menu.t_max))
    return contributed / params.vdd_requirement

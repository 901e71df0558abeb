"""Domain types, utilities, and feasibility/fairness predicates for the
VDD-reward contract game between a ground control station (GCS) and typed UAVs.

A UAV type is a (marginal VDD cost, communication delay) pair plus a head
count.  The GCS posts a contract menu: a delivery deadline ``t_max`` and one
(VDD size, reward) item per type.  All solvers and tests share the utility
functions and predicates defined here; everything in this module is a pure
function of its inputs.

``Population.on_time`` is the one participating-set view: each population
splits its types at a deadline once, there, and there alone chooses
between the per-type loops and the array kernels (``OnTime.arrays``).
Every solver, audit and utility reads the view; the utilities and the
solvers are written once for both paths, through ``OnTime.apply`` and
``OnTime.running``.

``FEASIBILITY_TOL`` is the one audit tolerance, read by every audit here,
in ``kernels`` and in ``oracle``, and by the solvers' monotonicity checks.
``gcs_term`` is the one GCS per-type objective outside the oracle, and
``left_sum`` the one running float total: no float total goes through the
built-in ``sum``, whose rounding changed in Python 3.12, so the outputs do
not depend on the interpreter (the fixtures are checked on 3.11.7).
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable

import numpy as np

__all__ = [
    "UavType",
    "Population",
    "OnTime",
    "ContractMenu",
    "GcsParams",
    "FeasibilityReport",
    "canonicalize",
    "canonical_columns",
    "participating_set",
    "uav_payoff",
    "gcs_term",
    "left_sum",
    "gcs_utility",
    "social_surplus",
    "total_payment",
    "check_feasibility",
    "check_fairness",
    "defensive_effectiveness",
]

# Slack threshold below which an IR/IC/budget violation is reported as real.
FEASIBILITY_TOL = 1e-9

# On-time types from which a view's columns are numpy arrays and the forked
# solvers and audits run as the kernels of ``kernels``; below it they are
# lists and the per-type loops here and in ``solver`` run.  Both give the
# same bits.  Read by ``OnTime`` alone.
# Set above the measured crossover of the two paths (README, "Performance").
ARRAY_MIN_TYPES = 64


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


class Population:
    """Canonicalized collection of UAV types, held as a float64 cost, a
    float64 delay and an int64 count column.  Types are ordered by
    descending marginal cost (ties broken by smaller delay); row k - 1 holds
    type k.  Use :func:`canonicalize` or :func:`canonical_columns` to build
    one from raw types or rows.  ``types`` holds one ``UavType`` per row,
    built on first use; in the package only :func:`participating_set` reads
    it, and the solvers, audits and tables read the columns."""

    def __init__(self, cost: np.ndarray, delay: np.ndarray, count: np.ndarray) -> None:
        if ((cost[1:] > cost[:-1]) | ((cost[1:] == cost[:-1]) & (delay[1:] < delay[:-1]))).any():
            raise ValueError("types must be ordered by descending cost, then ascending delay")
        self.__dict__.update(cost=cost, delay=delay, count=count, _views={})

    @cached_property
    def types(self) -> tuple[UavType, ...]:
        return tuple(map(UavType, range(1, len(self) + 1), *self._values()))

    def on_time(self, t_max: float) -> OnTime:
        """The view of the types that meet the deadline ``t_max``, built on
        first use and kept."""
        view = self._views.get(t_max)
        if view is None:
            view = self._views[t_max] = OnTime(self, t_max)
        return view

    def _values(self) -> tuple[list[float], list[float], list[int]]:
        return self.cost.tolist(), self.delay.tolist(), self.count.tolist()

    def __len__(self) -> int:
        return len(self.cost)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Population):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(tuple(map(tuple, self._values())))

    def __repr__(self) -> str:
        cost, delay, count = self._values()
        return f"Population(cost={cost!r}, delay={delay!r}, count={count!r})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


class OnTime:
    """The types of a population that meet a deadline ``t_max``: the
    participating set, built once per population and deadline by
    :meth:`Population.on_time`.

    ``rows`` and ``late`` hold the row positions of the on-time and of the
    late types, ``heads`` the on-time head count.  ``arrays`` is the one
    choice between the per-type loops and the array kernels of ``kernels``:
    true from ``ARRAY_MIN_TYPES`` on-time types on.  The on-time ``cost``,
    ``delay`` and ``count`` columns, and each column :meth:`take` returns,
    are numpy arrays then and Python lists otherwise; :meth:`apply` maps a
    function over them in either form, :meth:`running` totals one and
    :meth:`repeat` and :meth:`tolist` reshape one, so that the solvers and
    utilities are written once for both paths."""

    def __init__(self, pop: Population, t_max: float) -> None:
        on_time = pop.delay <= t_max
        self.rows = np.flatnonzero(on_time)
        self.arrays = len(self.rows) >= ARRAY_MIN_TYPES
        if len(self.rows) < len(pop):
            self.late, self._pick = np.flatnonzero(~on_time), self.rows
        else:  # every row: a slice, no copy
            self.late, self._pick = self.rows[:0], slice(None)
        self.cost, self.delay, self.count = map(self.take, (pop.cost, pop.delay, pop.count))
        self.heads = int(self.count.sum()) if self.arrays else sum(self.count)

    def take(self, column: np.ndarray):
        """The on-time entries of a population-length column."""
        part = column[self._pick]
        return part if self.arrays else part.tolist()

    def apply(self, f, columns, *scalars):
        """``f`` of the on-time columns and the scalars: once over the
        columns, quietly (an overflow gives inf, as on Python floats), or
        per type over lists."""
        if self.arrays:
            with np.errstate(over="ignore", invalid="ignore"):
                return f(*columns, *scalars)
        return list(map(f, *columns, *map(itertools.repeat, scalars)))

    def running(self, terms, start):
        """``start`` and the total after each of ``terms``, added strictly
        from the left as :func:`left_sum` adds: ``itertools.accumulate``
        over a list, a quiet sequential ``np.cumsum`` over an array."""
        if self.arrays:
            with np.errstate(over="ignore", invalid="ignore"):
                return np.cumsum(np.concatenate(([start], terms)))
        return list(itertools.accumulate(terms, initial=start))

    def repeat(self, values, counts):
        """Each of ``values`` ``counts`` times over, in the view's form."""
        if self.arrays:
            return np.repeat(values, counts)
        return [v for v, n in zip(values, counts) for _ in range(n)]

    def tolist(self, column) -> list:
        """A column of the view's form as a list of Python numbers."""
        return column.tolist() if self.arrays else column


def _kernels():
    """The array kernels, imported on first use (see ``OnTime.arrays``)."""
    from . import kernels

    return kernels


def _menu_view(menu: ContractMenu, pop: Population) -> OnTime:
    """The population's view at the menu's deadline, once the menu is
    checked to hold one row per population type."""
    if len(menu.sizes) != len(pop):
        raise ValueError(f"a menu of {len(menu.sizes)} rows cannot serve a population of "
                         f"{len(pop)} types")
    return pop.on_time(menu.t_max)


def canonicalize(types: Iterable[UavType]) -> Population:
    """Merge types with identical (cost, delay), sort by descending marginal
    cost with ties broken by smaller delay, and reindex from 1."""
    types = list(types)
    return canonical_columns([t.marginal_cost for t in types], [t.delay for t in types],
                             [t.count for t in types])


def canonical_columns(cost, delay, counts) -> Population:
    """:func:`canonicalize` of the rows (cost[k], delay[k], counts[k]), given
    as cost and delay columns of floats and a sequence of ints.  A row no
    ``UavType`` accepts raises that error (the first such row's), and so do
    counts that total 2**63 or more, past the int64 count column."""
    cost, delay = np.asarray(cost, dtype=float), np.asarray(delay, dtype=float)
    # a nan fails every comparison
    if not (np.minimum.reduce(cost, initial=0.0) >= 0.0
            and np.maximum.reduce(cost, initial=0.0) < math.inf
            and np.minimum.reduce(delay, initial=1.0) > 0.0
            and np.maximum.reduce(delay, initial=1.0) < math.inf
            and min(counts, default=1) >= 1):
        for row in zip(itertools.count(1), cost.tolist(), delay.tolist(), counts):
            UavType(*row)
    total = sum(counts)
    if total >= 2**63:
        raise ValueError(f"type counts must total less than 2**63, got {total}")
    # stable: of rows with equal keys (0.0 and -0.0 are equal) the first
    # row's key stays
    order = np.lexsort((delay, -cost))
    cost, delay, count = cost[order], delay[order], np.array(counts, dtype=np.int64)[order]
    first = np.empty(len(cost), dtype=bool)
    first[:1] = True
    first[1:] = (cost[1:] != cost[:-1]) | (delay[1:] != delay[:-1])
    starts = first.nonzero()[0]
    return Population(cost[starts], delay[starts], np.add.reduceat(count, starts))


@dataclass(frozen=True, eq=False, repr=False)
class ContractMenu:
    """The GCS offer: a delivery deadline and one (VDD size, reward) item per
    population type, held as two float64 columns in which row k - 1 holds
    type k.  The columns are checked once, here: equal lengths, every value
    finite and >= 0."""

    t_max: float
    sizes: np.ndarray
    rewards: np.ndarray

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.rewards):
            raise ValueError(f"sizes and rewards must be columns of one length, "
                             f"got {len(self.sizes)} and {len(self.rewards)}")
        columns = np.array((self.sizes, self.rewards), dtype=float)
        if columns.ndim != 2:
            raise ValueError(f"sizes and rewards must be columns, got shape {columns.shape[1:]}")
        # a nan fails both comparisons
        if columns.size and not (np.minimum.reduce(columns, axis=None) >= 0.0
                                 and np.maximum.reduce(columns, axis=None) < math.inf):
            for row in zip(*columns.tolist()):  # the first bad row's error
                for name, value in zip(("vdd_size", "reward"), row):
                    if not math.isfinite(value) or value < 0:
                        raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not math.isfinite(self.t_max) or self.t_max <= 0:
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max}")
        object.__setattr__(self, "sizes", columns[0])
        object.__setattr__(self, "rewards", columns[1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContractMenu):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        t_max, sizes, rewards = self._values()
        return f"ContractMenu(t_max={t_max!r}, sizes={sizes!r}, rewards={rewards!r})"

    def _values(self) -> tuple[float, list[float], list[float]]:
        return self.t_max, self.sizes.tolist(), self.rewards.tolist()

    @staticmethod
    def zero(pop: Population, t_max: float) -> ContractMenu:
        return ContractMenu(t_max, np.zeros(len(pop)), np.zeros(len(pop)))

    @staticmethod
    def placed(n: int, t_max: float, rows, sizes, rewards) -> ContractMenu:
        """The menu of ``n`` types that gives each of the rows ``rows`` (in
        increasing order) its size and reward, and every other row the zero
        item."""
        if len(rows) == n:  # every row, so rows[k] == k
            return ContractMenu(t_max, sizes, rewards)
        columns = np.zeros((2, n))
        columns[:, rows] = sizes, rewards
        return ContractMenu(t_max, *columns)


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
    """Outcome of the feasibility and fairness predicates on a menu, built in
    O(J log J): the one audit of a menu.

    ``ir_ok``/``ic_ok`` say whether IR holds for every on-time type and IC
    for every ordered pair of them.  ``monotone_ok`` is the compact
    characterization (joint size/reward monotonicity, binding-type IR,
    adjacent cost sandwich, zero items for non-participants) that is
    equivalent to the full IR+IC enumeration.  ``reward_fair``: larger VDD
    contributions never earn smaller rewards, and late types are paid
    nothing.  ``worst_violation`` is the most negative slack seen (0 if
    none).  ``worst_pair`` holds the population indices (j, k) of the
    smallest IR/IC slack, with k == j meaning IR; it is ``None`` when no
    type meets the deadline.  The verdicts: ``all_ok`` for a menu that types
    choose from, ``ir_budget_ok`` for the complete-information menu (not IC
    across types by design), and ``participation_fair``, IR and IC together.
    """

    ir_ok: bool
    ic_ok: bool
    budget_ok: bool
    monotone_ok: bool
    reward_fair: bool
    worst_violation: float
    worst_pair: tuple[int, int] | None

    @property
    def all_ok(self) -> bool:
        return self.ir_budget_ok and self.ic_ok and self.monotone_ok and self.reward_fair

    @property
    def ir_budget_ok(self) -> bool:
        return self.ir_ok and self.budget_ok

    @property
    def participation_fair(self) -> bool:
        return self.ir_ok and self.ic_ok


def participating_set(pop: Population, t_max: float) -> list[UavType]:
    """The population's own types that can deliver within the deadline, in
    canonical order and keeping their population indices: its ``UavType``s
    at the rows of :meth:`Population.on_time`.  Where a rank 1..J' is
    needed, it is the position in this list (counting from 1)."""
    return list(map(pop.types.__getitem__, pop.on_time(t_max).rows.tolist()))


def uav_payoff(cost, size, reward, deploy_cost: float):
    """What a UAV of marginal cost ``cost`` earns from delivering ``size``
    bytes for ``reward``; element-wise on arrays."""
    return reward - (cost * size + deploy_cost)


def _uav_total(count, cost, size, reward, deploy_cost: float):
    """What the ``count`` UAVs of a type earn together."""
    return count * uav_payoff(cost, size, reward, deploy_cost)


def gcs_term(count, delay, size, reward, params: GcsParams):
    """The GCS's log-satisfaction from a type of ``count`` UAVs with delay
    ``delay`` delivering ``size`` bytes each, minus the ``reward`` it pays
    each; element-wise on arrays, mapping the scalar ``math.log1p`` over the
    sizes.  The one GCS per-type objective outside the oracle."""
    log = (np.frompyfunc(math.log1p, 1, 1)(size).astype(float)
           if isinstance(size, np.ndarray) else math.log1p(size))
    return params.satisfaction * (count / delay) * log - count * reward


def left_sum(terms, start: float = 0.0) -> float:
    """``start`` plus the terms added one at a time from the left, on every
    Python (the built-in ``sum`` compensates rounding from 3.12 on): a fold
    with ``+``, or for an array its sequential ``np.cumsum``, overflowing to
    inf quietly as Python floats do."""
    if isinstance(terms, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.cumsum(np.concatenate(([start], terms)))[-1])
    return reduce(operator.add, terms, start)


def gcs_utility(menu: ContractMenu, pop: Population, params: GcsParams) -> float:
    """Log-satisfaction over delivered VDD minus total payments (natural log).
    Non-delivering types contribute no satisfaction and receive no payment."""
    view = _menu_view(menu, pop)
    return left_sum(view.apply(gcs_term, (view.count, view.delay, view.take(menu.sizes),
                                          view.take(menu.rewards)), params))


def social_surplus(menu: ContractMenu, pop: Population, params: GcsParams) -> float:
    """GCS utility plus the utilities of all on-time UAVs (rewards cancel)."""
    view = _menu_view(menu, pop)
    return left_sum(view.apply(_uav_total, (view.count, view.cost, view.take(menu.sizes),
                                            view.take(menu.rewards)), params.deploy_cost),
                    gcs_utility(menu, pop, params))


def total_payment(menu: ContractMenu, pop: Population) -> float:
    """What the GCS pays the on-time UAVs: :func:`payment_sum` of count x reward."""
    view = _menu_view(menu, pop)
    return payment_sum(view.apply(operator.mul, (view.count, view.take(menu.rewards))))


def payment_sum(payments: Iterable[float]) -> float:
    """``math.fsum`` of payments >= 0; inf once their exact total passes a float."""
    try:
        return math.fsum(payments)
    except OverflowError:
        return math.inf


def check_feasibility(
    menu: ContractMenu,
    pop: Population,
    params: GcsParams,
) -> FeasibilityReport:
    """Evaluate IR per type, IC per ordered pair, budget feasibility, the
    compact monotonicity characterization over the on-time types, and
    reward fairness over every type.

    Violations are data, not errors: slacks within ``FEASIBILITY_TOL`` of
    zero count as satisfied and ``worst_violation`` carries the raw minimum
    slack.
    """
    view = _menu_view(menu, pop)
    sizes, rewards = view.take(menu.sizes), view.take(menu.rewards)
    if view.arrays:
        k = _kernels()
        scan, compact, ordered = k._envelope_scan, k.compact_conditions, k.reward_ordered
        all_rows = menu.sizes, menu.rewards
    else:
        scan, compact, ordered = _incentive_scan, _compact_conditions, _reward_ordered
        all_rows = menu.sizes.tolist(), menu.rewards.tolist()
    ir_ok, ic_ok, worst, worst_pair = scan(view.cost, sizes, rewards, view.rows,
                                           params.deploy_cost)
    monotone_ok, mono_worst = compact(view.cost, sizes, rewards, params.deploy_cost)
    late_unpaid = True
    if len(view.late):
        # a late type's item must be the zero item, and reward fairness pays
        # it at most the tolerance
        late_reward = menu.rewards[view.late].max()
        paid_late = max(menu.sizes[view.late].max(), late_reward)
        monotone_ok = monotone_ok and bool(paid_late == 0.0)
        mono_worst = min(mono_worst, -float(paid_late))
        late_unpaid = not late_reward > FEASIBILITY_TOL
    budget_slack = params.budget - payment_sum(view.apply(operator.mul, (view.count, rewards)))

    return FeasibilityReport(
        ir_ok=ir_ok,
        ic_ok=ic_ok,
        budget_ok=bool(budget_slack >= -FEASIBILITY_TOL),
        monotone_ok=monotone_ok,
        reward_fair=late_unpaid and ordered(*all_rows),
        worst_violation=float(min(0.0, worst, budget_slack, mono_worst)),
        worst_pair=worst_pair,
    )


def _incentive_scan(
    cost: list[float],
    sizes: list[float],
    rewards: list[float],
    rows,
    deploy_cost: float,
) -> tuple[bool, bool, float, tuple[int, int] | None]:
    """IR for every on-time type and IC for every ordered pair, in O(J log J),
    over the on-time columns (``rows`` holds the types' row positions).

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
    hull = _upper_envelope(sizes, rewards)
    breaks = [(ra - rb) / (sa - sb) for (sa, ra, _), (sb, rb, _) in zip(hull, hull[1:])]
    ir_ok = ic_ok = True
    worst, at = math.inf, None
    for pos, (c, s, r) in enumerate(zip(cost, sizes, rewards)):
        own = uav_payoff(c, s, r, deploy_cost)
        ir_ok = ir_ok and own >= -FEASIBILITY_TOL
        if own < worst:
            worst, at = own, (pos, pos)
        h = bisect.bisect_left(breaks, c)
        for _, _, k in hull[max(h - 1, 0):h + 2]:
            if k == pos:
                continue
            slack = own - uav_payoff(c, sizes[k], rewards[k], deploy_cost)
            ic_ok = ic_ok and slack >= -FEASIBILITY_TOL
            if slack < worst:
                worst, at = slack, (pos, k)
    worst_pair = None if at is None else (int(rows[at[0]]) + 1, int(rows[at[1]]) + 1)
    return bool(ir_ok), bool(ic_ok), worst, worst_pair


def _upper_envelope(sizes: list[float], rewards: list[float]) -> list[tuple[float, float, int]]:
    """The lines x -> R_k - x S_k that attain max_k (R_k - x S_k) somewhere,
    as (S, R, position) in order of increasing x.  Equal sizes keep the
    larger reward; an exact copy of a kept item ties it, so its owner's
    slack against the kept one is 0 and nothing is lost by dropping it."""
    order = sorted(range(len(sizes)), key=lambda k: (-sizes[k], -rewards[k], k))
    return _hull([(sizes[k], rewards[k], k) for k in order])


def _hull(lines: Iterable[tuple[float, float, int]]) -> list[tuple[float, float, int]]:
    """:func:`_upper_envelope` of (S, R, position) lines already in its
    order: size, then reward, descending."""
    hull: list[tuple[float, float, int]] = []
    for s, r, k in lines:
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
    cost: list[float],
    sizes: list[float],
    rewards: list[float],
    deploy_cost: float,
) -> tuple[bool, float]:
    """The if-and-only-if feasibility characterization over the on-time
    columns (with zero items for the late types, which
    :func:`check_feasibility` checks): joint monotonicity of sizes and
    rewards, IR binding at the costliest participating type, and the
    adjacent cost sandwich
    C_j (S_j - S_{j-1}) <= R_j - R_{j-1} <= C_{j-1} (S_j - S_{j-1})."""
    if not cost:
        return True, 0.0
    worst = min(0.0, uav_payoff(cost[0], sizes[0], rewards[0], deploy_cost))
    for j in range(1, len(cost)):
        ds = sizes[j] - sizes[j - 1]
        dr = rewards[j] - rewards[j - 1]
        for slack in (ds, dr, dr - cost[j] * ds, cost[j - 1] * ds - dr):
            worst = min(worst, slack)
    return worst >= -FEASIBILITY_TOL, worst


def check_fairness(menu: ContractMenu, pop: Population, params: GcsParams) -> tuple[bool, bool]:
    """(participation fairness, reward fairness) of :func:`check_feasibility`'s
    report; kept as an entry point that ``bench/spans.py`` times."""
    report = check_feasibility(menu, pop, params)
    return report.participation_fair, report.reward_fair


def _reward_ordered(sizes: list[float], rewards: list[float]) -> bool:
    """No item a with S_a < S_b - tol and R_a > R_b + tol (tol the audit
    tolerance), for any b: a sort by size, a prefix maximum of rewards, and
    one bisection per item."""
    items = sorted(zip(sizes, rewards), key=operator.itemgetter(0))
    ordered = [s for s, _ in items]
    best = list(itertools.accumulate((r for _, r in items), max))
    for s, r in items:
        n = bisect.bisect_left(ordered, s - FEASIBILITY_TOL)
        if n and best[n - 1] > r + FEASIBILITY_TOL:
            return False
    return True


def defensive_effectiveness(menu: ContractMenu, pop: Population, params: GcsParams) -> float:
    """Total on-time VDD per type divided by the GCS requirement."""
    return left_sum(_menu_view(menu, pop).take(menu.sizes)) / params.vdd_requirement

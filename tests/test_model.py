"""Unit and property tests for the domain model: utilities, feasibility,
fairness, and the compact feasibility characterization."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeygame.model import (
    FEASIBILITY_TOL,
    ContractItem,
    ContractMenu,
    GcsParams,
    Population,
    UavType,
    canonicalize,
    check_fairness,
    check_feasibility,
    check_reward_fairness,
    defensive_effectiveness,
    gcs_term,
    gcs_utility,
    left_sum,
    participating_set,
    social_surplus,
    total_payment,
    uav_payoff,
)
from honeygame.oracle import enumerate_incentives, enumerate_reward_fairness
from honeygame.solver import optimal_rewards, solve_complete, solve_partial

T_MAX = 2.0


def make_pop(costs, delays=None, counts=None):
    delays = delays or [1.0] * len(costs)
    counts = counts or [1] * len(costs)
    return canonicalize(
        UavType(index=i + 1, marginal_cost=c, delay=d, count=k)
        for i, (c, d, k) in enumerate(zip(costs, delays, counts))
    )


def menu_for(pop, sizes, rewards, t_max=T_MAX):
    assert len(sizes) == len(rewards) == len(pop)
    return ContractMenu(t_max, sizes, rewards)


class TestDomainTypes:
    def test_canonicalize_orders_by_descending_cost(self):
        pop = make_pop([0.2, 0.9, 0.5])
        assert [t.marginal_cost for t in pop.types] == [0.9, 0.5, 0.2]
        assert [t.index for t in pop.types] == [1, 2, 3]

    def test_canonicalize_merges_identical_types(self):
        pop = canonicalize(
            [
                UavType(index=1, marginal_cost=0.5, delay=1.0, count=2),
                UavType(index=2, marginal_cost=0.5, delay=1.0, count=3),
                UavType(index=3, marginal_cost=0.4, delay=1.0),
            ]
        )
        assert len(pop.types) == 2
        assert pop.types[0].count == 5
        assert sum(t.count for t in pop.types) == 6

    def test_equal_cost_distinct_delay_kept_separate(self):
        pop = make_pop([0.5, 0.5], delays=[2.0, 1.0])
        assert len(pop.types) == 2
        # tie broken by smaller delay first
        assert pop.types[0].delay == 1.0

    def test_population_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            Population(np.array([0.1, 0.9]), np.array([1.0, 1.0]), np.array([1, 1]))
        with pytest.raises(ValueError):  # equal costs, larger delay first
            Population(np.array([0.5, 0.5]), np.array([2.0, 1.0]), np.array([1, 1]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(index=0, marginal_cost=0.5, delay=1.0),
            dict(index=1, marginal_cost=-0.1, delay=1.0),
            dict(index=1, marginal_cost=0.5, delay=0.0),
            dict(index=1, marginal_cost=0.5, delay=1.0, count=0),
        ],
    )
    def test_uav_type_validation(self, kwargs):
        with pytest.raises(ValueError):
            UavType(**kwargs)

    def test_contract_item_validation(self):
        with pytest.raises(ValueError):
            ContractItem(-1.0, 0.0)
        with pytest.raises(ValueError):
            ContractItem(0.0, math.inf)

    @pytest.mark.parametrize(
        "sizes, rewards, error",
        [
            ([1.0, 2.0], [1.0], "columns of one length"),
            ([[1.0], [2.0]], [[1.0], [2.0]], "must be columns, got shape (2, 1)"),
            ([1.0, -0.5, -1.0], [1.0, 1.0, 1.0], "vdd_size must be finite and >= 0, got -0.5"),
            ([1.0, 2.0], [1.0, math.nan], "reward must be finite and >= 0, got nan"),
            ([math.inf], [1.0], "vdd_size must be finite and >= 0, got inf"),
        ],
    )
    def test_contract_menu_validation(self, sizes, rewards, error):
        with pytest.raises(ValueError, match=re.escape(error)):
            ContractMenu(T_MAX, sizes, rewards)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.inf, math.nan])
    def test_contract_menu_t_max_validation(self, t_max):
        with pytest.raises(ValueError, match="t_max must be finite and > 0"):
            ContractMenu(t_max, [1.0], [1.0])

    def test_contract_menu_columns_and_items(self):
        menu = ContractMenu(T_MAX, [1.5, -0.0], [2.5, 3])
        assert menu.sizes.dtype == menu.rewards.dtype == np.float64
        assert menu.item(1) == ContractItem(1.5, 2.5)
        assert menu.item(2) == ContractItem(0.0, 3.0)
        for index in (0, -1, 3):  # row -1 is never read
            with pytest.raises(IndexError, match="outside 1..2"):
                menu.item(index)
        # equality and repr read the exact values, so -0.0 shows in the repr
        assert menu == ContractMenu(T_MAX, np.array([1.5, 0.0]), [2.5, 3.0])
        assert menu != ContractMenu(T_MAX, [1.5, 0.0], [2.5, 3.5])
        assert menu != ContractMenu(T_MAX, [1.5, 0.0, 0.0], [2.5, 3.0, 0.0])
        assert repr(menu) == "ContractMenu(t_max=2.0, sizes=[1.5, -0.0], rewards=[2.5, 3.0])"
        with pytest.raises(dataclasses.FrozenInstanceError):
            menu.sizes = np.zeros(2)

    def test_contract_menu_placed_rows(self):
        pop = make_pop([0.9, 0.5, 0.2])
        assert ContractMenu.placed(3, T_MAX, [0, 2], [7.0, 5.0], [2.0, 1.0]) == ContractMenu(
            T_MAX, [7.0, 0.0, 5.0], [2.0, 0.0, 1.0])
        assert ContractMenu.placed(3, T_MAX, [0, 1, 2], [7.0, 6.0, 5.0], [2.0, 3.0, 1.0]) == (
            ContractMenu(T_MAX, [7.0, 6.0, 5.0], [2.0, 3.0, 1.0]))
        assert ContractMenu.placed(3, T_MAX, [], [], []) == ContractMenu.zero(pop, T_MAX)


class TestUtilities:
    def test_uav_utility_on_time(self):
        t = UavType(index=1, marginal_cost=0.5, delay=1.0)
        params = GcsParams()
        item = ContractItem(10.0, 8.0)
        assert uav_payoff(t.marginal_cost, item.vdd_size, item.reward,
                          params.deploy_cost) == pytest.approx(8.0 - 5.0 - 1.0)

    def test_gcs_utility_zero_menu(self):
        pop = make_pop([0.5, 0.2])
        menu = ContractMenu.zero(pop, T_MAX)
        assert gcs_utility(menu, pop, GcsParams()) == 0.0

    def test_gcs_utility_closed_form(self):
        pop = make_pop([0.5], delays=[2.0], counts=[3])
        params = GcsParams(satisfaction=6.0)
        menu = menu_for(pop, [10.0], [4.0])
        expected = 6.0 * (3 / 2.0) * math.log(11.0) - 3 * 4.0
        assert gcs_utility(menu, pop, params) == pytest.approx(expected, rel=1e-12)

    def test_late_types_contribute_nothing(self):
        pop = make_pop([0.5, 0.2], delays=[1.0, 5.0])
        menu = menu_for(pop, [10.0, 99.0], [4.0, 77.0])
        only = menu_for(make_pop([0.5]), [10.0], [4.0])
        assert gcs_utility(menu, pop, GcsParams()) == pytest.approx(
            gcs_utility(only, make_pop([0.5]), GcsParams())
        )

    @given(
        sizes=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=5),
        rewards_seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_surplus_identity(self, sizes, rewards_seed):
        # GCS utility plus UAV utilities equals the reward-free closed form
        rng = np.random.default_rng(rewards_seed)
        n = len(sizes)
        costs = np.sort(rng.uniform(0.01, 1.0, n))[::-1]
        pop = make_pop(list(costs))
        params = GcsParams()
        rewards = rng.uniform(0.0, 100.0, n)
        menu = menu_for(pop, sizes, list(rewards))
        closed = sum(
            params.satisfaction * (t.count / t.delay) * math.log1p(s)
            - t.count * (t.marginal_cost * s + params.deploy_cost)
            for t, s in zip(pop.types, sizes)
        )
        total = social_surplus(menu, pop, params)
        assert total == pytest.approx(closed, rel=1e-12, abs=1e-9)

    @given(terms=st.lists(st.floats(allow_nan=False), max_size=8),
           start=st.sampled_from([0.0, -0.0, 1.5, -1e308]))
    @settings(max_examples=300, deadline=None)
    def test_left_sum_forms_agree(self, terms, start):
        # the list and array forms give the same bits, infinities included
        total = left_sum(terms, start)
        assert repr(left_sum(np.array(terms, dtype=float), start)) == repr(total)
        assert repr(left_sum(iter(terms), start)) == repr(total)

    @pytest.mark.parametrize("terms, start, total", [
        ([], -0.0, "-0.0"), ([-0.0], -0.0, "-0.0"), ([-0.0], 0.0, "0.0"),
        ([1e308, 1e308, -1e308], 0.0, "inf"), ([-1e308], -1e308, "-inf"),
        ([1e16, 1.0, -1e16], 0.0, "0.0"),  # left to right, uncompensated
    ])
    def test_left_sum_adds_from_the_left(self, terms, start, total):
        assert repr(left_sum(terms, start)) == total
        assert repr(left_sum(np.array(terms, dtype=float), start)) == total

    def test_gcs_term_on_columns(self):
        # element-wise on arrays, each element the scalar's bits
        params = GcsParams()
        count, delay = np.array([1, 3, 2**40]), np.array([0.5, 2.0, 1e-3])
        size, reward = np.array([0.0, 10.0, 300.0]), np.array([1.0, 4.0, 480.0])
        scalars = [gcs_term(*row, params) for row in zip(count.tolist(), delay.tolist(),
                                                          size.tolist(), reward.tolist())]
        assert gcs_term(count, delay, size, reward, params).tolist() == scalars

    def test_uav_utility_decreasing_in_cost(self):
        params = GcsParams()
        item = ContractItem(50.0, 40.0)
        us = [
            uav_payoff(c, item.vdd_size, item.reward, params.deploy_cost)
            for c in (0.1, 0.5, 0.9)
        ]
        assert us[0] > us[1] > us[2]


class TestFeasibility:
    def test_optimal_reward_menu_is_feasible(self):
        pop = make_pop([0.5, 0.25])
        params = GcsParams(budget=10.0)
        sizes = [5.0, 17.0]
        rewards = optimal_rewards(sizes, pop.on_time(T_MAX), params)
        menu = menu_for(pop, sizes, rewards)
        report = check_feasibility(menu, pop, params)
        assert report.all_ok
        assert report.worst_violation >= -1e-12

    def test_swapped_rewards_break_ic(self):
        pop = make_pop([0.5, 0.25])
        params = GcsParams(budget=10.0)
        menu = menu_for(pop, [5.0, 17.0], [6.5, 3.5])
        report = check_feasibility(menu, pop, params)
        assert not report.ic_ok
        assert not report.monotone_ok

    def test_budget_violation_reported(self):
        pop = make_pop([0.5])
        params = GcsParams(budget=3.0)
        menu = menu_for(pop, [10.0], [6.0])
        report = check_feasibility(menu, pop, params)
        assert not report.budget_ok
        assert report.worst_violation == pytest.approx(-3.0)

    # J = 2 runs the loops, J = 70 the kernels; a menu one row short or long
    @pytest.mark.parametrize("n", [2, 70])
    @pytest.mark.parametrize("extra", [-1, 1])
    @pytest.mark.parametrize("audit", [
        lambda menu, pop: check_feasibility(menu, pop, GcsParams()),
        lambda menu, pop: gcs_utility(menu, pop, GcsParams()),
        lambda menu, pop: total_payment(menu, pop),
    ], ids=["check_feasibility", "gcs_utility", "total_payment"])
    def test_menu_of_another_length_rejected(self, n, extra, audit):
        pop = make_pop(np.linspace(1.0, 0.1, n).tolist())
        rows = n + extra
        menu = ContractMenu(T_MAX, np.arange(rows, dtype=float), np.arange(rows, dtype=float) + 1.0)
        with pytest.raises(ValueError, match=f"menu of {rows} rows .* population of {n} types"):
            audit(menu, pop)

    def test_nonparticipant_paid_breaks_compact_conditions(self):
        pop = make_pop([0.5, 0.25], delays=[1.0, 5.0])
        menu = menu_for(pop, [5.0, 5.0], [3.5, 3.5])
        report = check_feasibility(menu, pop, GcsParams())
        assert not report.monotone_ok

    def test_compact_equivalence_random_menus(self):
        # the compact characterization agrees with direct IR+IC enumeration
        rng = np.random.default_rng(42)
        params = GcsParams()
        agree = 0
        trials = 10_000
        feasible_seen = 0
        for _ in range(trials):
            n = int(rng.integers(1, 7))
            costs = np.sort(rng.uniform(0.01, 1.0, n))[::-1]
            if len(np.unique(costs)) != n:
                continue
            pop = make_pop(list(costs))
            if rng.random() < 0.5:
                sizes = list(np.sort(rng.uniform(0.0, 300.0, n)))
                rewards = optimal_rewards(sizes, pop.on_time(T_MAX), params)
                bump = rng.uniform(-0.5, 2.0, n)
                rewards = [max(r + b, 0.0) for r, b in zip(rewards, bump)]
            else:
                sizes = list(rng.uniform(0.0, 300.0, n))
                rewards = list(rng.uniform(0.0, 300.0, n))
            menu = menu_for(pop, sizes, rewards)
            report = check_feasibility(menu, pop, params)
            ir, ic, _, _ = enumerate_incentives(sizes, rewards, costs, params.deploy_cost)
            enumerated = ir and ic
            assert (report.ir_ok, report.ic_ok) == (ir, ic)
            assert report.monotone_ok == enumerated
            agree += 1
            feasible_seen += enumerated
        assert agree > trials * 0.9
        assert feasible_seen > 0  # the generator hits both branches

    def test_feasible_menu_utilities_ordered(self):
        # cheaper types never earn less than costlier ones on a feasible menu
        rng = np.random.default_rng(7)
        params = GcsParams(budget=1e9)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            costs = np.sort(rng.uniform(0.01, 1.0, n))[::-1]
            if len(np.unique(costs)) != n:
                continue
            pop = make_pop(list(costs))
            sizes = list(np.sort(rng.uniform(0.0, 300.0, n)))
            rewards = optimal_rewards(sizes, pop.on_time(T_MAX), params)
            menu = menu_for(pop, sizes, rewards)
            us = [
                uav_payoff(t.marginal_cost, menu.item(t.index).vdd_size, menu.item(t.index).reward,
                           params.deploy_cost) for t in pop.types
            ]
            assert all(a <= b + 1e-9 for a, b in zip(us, us[1:]))
            assert us[0] == pytest.approx(0.0, abs=1e-9)


@st.composite
def audit_cases(draw):
    """Populations with tied costs and late types, and menus with tied sizes,
    identical items, zero items, non-monotone entries, or the minimal
    rewards of a sorted schedule (adjacent IC binding up to rounding)."""
    n = draw(st.integers(1, 12))
    costs = draw(st.lists(st.sampled_from([0.9, 0.5, 0.25, 0.1]) | st.floats(0.01, 1.0),
                          min_size=n, max_size=n))
    delays = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    pop = make_pop(costs, delays, counts)
    n = len(pop.types)
    size = st.sampled_from([0.0, 5.0, 17.0, 300.0]) | st.floats(0.0, 300.0)
    reward = st.sampled_from([0.0, 3.5, 9.5]) | st.floats(0.0, 400.0)
    sizes = draw(st.lists(size, min_size=n, max_size=n))
    rewards = draw(st.lists(reward, min_size=n, max_size=n))
    for j, k in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))):
        if draw(st.booleans()):  # copy an item so that whole items tie
            sizes[j], rewards[j] = sizes[k], rewards[k]
    on_time = [j for j, t in enumerate(pop.types) if t.delay <= T_MAX]
    if on_time and draw(st.booleans()):
        sched = sorted(sizes[j] for j in on_time)
        priced = optimal_rewards(sched, pop.on_time(T_MAX), GcsParams())
        bump = draw(st.sampled_from([0.0, 1e-10, -1e-10, 0.5]))
        for j, s, r in zip(on_time, sched, priced):
            sizes[j], rewards[j] = s, max(r + bump, 0.0)
    return pop, menu_for(pop, sizes, rewards)


class TestAuditEnumeration:
    """The O(J log J) audits against the J x J enumeration in ``oracle``."""

    @given(case=audit_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_enumeration(self, case):
        pop, menu = case
        params = GcsParams()
        on_time = [t for t in pop.types if t.delay <= T_MAX]
        items = [menu.item(t.index) for t in on_time]
        ir, ic, worst, pair = enumerate_incentives(
            [it.vdd_size for it in items], [it.reward for it in items],
            [t.marginal_cost for t in on_time], params.deploy_cost,
        )
        report = check_feasibility(menu, pop, params)
        assert (report.ir_ok, report.ic_ok) == (ir, ic)
        late_paid = any(menu.item(t.index).reward > 1e-9 for t in pop.types if t.delay > T_MAX)
        reward_fair = not late_paid and enumerate_reward_fairness(
            [menu.item(t.index).vdd_size for t in pop.types],
            [menu.item(t.index).reward for t in pop.types],
        )
        assert check_fairness(menu, pop, params) == (ir and ic, reward_fair)
        if pair is None:
            assert report.worst_pair is None
            return
        # the reported pair attains the enumerated minimum slack
        position = {t.index: p for p, t in enumerate(on_time)}
        j, k = (position[i] for i in report.worst_pair)
        c = on_time[j].marginal_cost
        own = items[j].reward - (c * items[j].vdd_size + params.deploy_cost)
        got = own if j == k else own - (items[k].reward - (c * items[k].vdd_size + params.deploy_cost))
        scale = 1e-12 * max(1.0, max(it.reward for it in items))
        assert got == pytest.approx(worst, abs=scale)
        assert report.worst_violation <= min(0.0, worst) + scale

    def test_large_binding_menus_match_compact_characterization(self):
        # J = 10^4 types, some late, with a budget that binds
        rng = np.random.default_rng(0)
        n = 10_000
        pop = make_pop(list(rng.uniform(0.01, 1.0, n)), list(rng.uniform(0.05, 2.5, n)),
                       [int(k) for k in rng.integers(1, 4, n)])
        params = GcsParams(budget=46.0 * n)
        on_time = [t for t in pop.types if t.delay <= T_MAX]
        for solver in (solve_complete, solve_partial):
            menu = solver(pop, params, T_MAX)
            paid = math.fsum(t.count * menu.item(t.index).reward for t in on_time)
            assert paid == pytest.approx(params.budget, rel=1e-9)
            report = check_feasibility(menu, pop, params)
            participation, reward_fair = check_fairness(menu, pop, params)
            assert report.ir_ok
            assert report.ic_ok == report.monotone_ok
            assert participation == report.ic_ok
            if report.monotone_ok:
                assert reward_fair
        # the partial-information menu is truthful and fair; complete
        # information prices each type at cost and ignores IC
        assert report.monotone_ok and reward_fair
        assert report.worst_pair is not None


@st.composite
def late_paid_cases(draw):
    """``audit_cases``, where a late type may also be paid: just below,
    just above or far above the tolerance."""
    pop, menu = draw(audit_cases())
    late = [t.index for t in pop.types if t.delay > T_MAX]
    if late and draw(st.booleans()):
        k = draw(st.sampled_from(late))
        reward = draw(st.sampled_from([0.5e-9, 2e-9, 3.5]))
        rewards = menu.rewards.copy()
        rewards[k - 1] = reward
        menu = ContractMenu(menu.t_max, menu.sizes, rewards)
    return pop, menu


class TestFairness:
    @given(case=late_paid_cases())
    @settings(max_examples=300, deadline=None)
    def test_built_from_report_and_reward_verdict(self, case):
        pop, menu = case
        params = GcsParams()
        report = check_feasibility(menu, pop, params)
        late_paid = any(menu.item(t.index).reward > FEASIBILITY_TOL
                        for t in pop.types if t.delay > T_MAX)
        reward_fair = not late_paid and enumerate_reward_fairness(
            [menu.item(t.index).vdd_size for t in pop.types],
            [menu.item(t.index).reward for t in pop.types],
        )
        assert check_reward_fairness(menu, pop) == reward_fair
        assert report.participation_fair == (report.ir_ok and report.ic_ok)
        assert check_fairness(menu, pop, params) == (report.participation_fair, reward_fair)

    def test_optimal_menu_is_fair(self):
        pop = make_pop([0.5, 0.25])
        params = GcsParams(budget=10.0)
        rewards = optimal_rewards([5.0, 17.0], pop.on_time(T_MAX), params)
        menu = menu_for(pop, [5.0, 17.0], rewards)
        assert check_fairness(menu, pop, params) == (True, True)

    def test_paying_nonparticipant_breaks_reward_fairness(self):
        pop = make_pop([0.5, 0.25], delays=[1.0, 9.0])
        menu = menu_for(pop, [5.0, 0.0], [3.5, 2.0])
        _, reward_fair = check_fairness(menu, pop, GcsParams())
        assert not reward_fair

    def test_larger_size_smaller_reward_unfair(self):
        pop = make_pop([0.5, 0.25])
        menu = menu_for(pop, [5.0, 17.0], [6.0, 3.0])
        _, reward_fair = check_fairness(menu, pop, GcsParams())
        assert not reward_fair

    def test_size_gap_of_exactly_tol_is_fair(self):
        # S_a == S_b - tol is not "smaller": the comparison is strict
        big = 17.0
        small = big - FEASIBILITY_TOL
        assert small < big and not small < big - FEASIBILITY_TOL
        pop = make_pop([0.5, 0.25])
        menu = menu_for(pop, [small, big], [9.0, 3.0])
        assert enumerate_reward_fairness([small, big], [9.0, 3.0])
        assert check_fairness(menu, pop, GcsParams())[1]


class TestEffectiveness:
    def test_zero_menu(self):
        pop = make_pop([0.5, 0.2])
        menu = ContractMenu.zero(pop, T_MAX)
        assert defensive_effectiveness(menu, pop, GcsParams()) == 0.0

    def test_half_requirement(self):
        pop = make_pop([0.5, 0.2])
        menu = menu_for(pop, [100.0, 300.0], [1.0, 1.0])
        params = GcsParams(vdd_requirement=800.0)
        assert defensive_effectiveness(menu, pop, params) == pytest.approx(0.5)

    def test_ten_types_at_cap(self):
        pop = make_pop(list(np.linspace(1.0, 0.01, 10)))
        menu = menu_for(pop, [300.0] * 10, [1.0] * 10)
        params = GcsParams(vdd_requirement=800.0)
        assert defensive_effectiveness(menu, pop, params) == pytest.approx(3.75)

    def test_late_types_do_not_count(self):
        pop = make_pop([0.5, 0.2], delays=[1.0, 9.0])
        menu = menu_for(pop, [100.0, 300.0], [1.0, 0.0])
        params = GcsParams(vdd_requirement=800.0)
        assert defensive_effectiveness(menu, pop, params) == pytest.approx(100.0 / 800.0)


class TestParticipatingSet:
    def test_filters_and_keeps_population_types(self):
        pop = make_pop([0.9, 0.5, 0.2, 0.1], delays=[1.0, 9.0, 1.5, 2.5])
        part = participating_set(pop, T_MAX)
        assert part[0] is pop.types[0] and part[1] is pop.types[2]
        assert len(part) == 2
        assert [t.index for t in part] == [1, 3]

    def test_utilities_are_sums_of_per_type_payoffs(self):
        pop = make_pop([0.9, 0.5, 0.2], delays=[1.0, 9.0, 1.5], counts=[2, 1, 3])
        menu = menu_for(pop, [10.0, 20.0, 30.0], [12.0, 0.0, 15.0])
        params = GcsParams()
        part = participating_set(pop, T_MAX)
        terms = [
            gcs_term(t.count, t.delay, menu.item(t.index).vdd_size, menu.item(t.index).reward,
                     params)
            for t in part
        ]
        assert gcs_utility(menu, pop, params) == sum(terms)
        # on arrays it gives each element's float bits
        costs = np.array([t.marginal_cost for t in pop.types])
        payoffs = uav_payoff(costs, menu.sizes, menu.rewards, params.deploy_cost)
        assert payoffs.tolist() == [
            uav_payoff(c, s, r, params.deploy_cost)
            for c, s, r in zip(costs.tolist(), menu.sizes.tolist(), menu.rewards.tolist())
        ]

"""Closed-form solver tests: worked instances, ironing, reward recursion,
budget handling, and the two baseline contracts."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from honeygame import model
from honeygame.model import (
    GcsParams,
    UavType,
    canonicalize,
    check_fairness,
    check_feasibility,
    gcs_utility,
    participating_set,
    social_surplus,
    uav_payoff,
)
from honeygame.scenario import generate_population, load_scenario
from honeygame.solver import (
    PAPER_LITERAL,
    SolverConfig,
    _virtual_costs,
    iron,
    linear_contract,
    optimal_rewards,
    solve_complete,
    solve_partial,
    solve_partial_relaxed,
    uniform_contract,
)

T_MAX = 2.0


def make_pop(costs, delays=None, counts=None):
    delays = delays or [1.0] * len(costs)
    counts = counts or [1] * len(costs)
    return canonicalize(
        UavType(index=i + 1, marginal_cost=c, delay=d, count=k)
        for i, (c, d, k) in enumerate(zip(costs, delays, counts))
    )


WORKED_POP = make_pop([0.5, 0.25])
WORKED_PARAMS = GcsParams(budget=10.0)


def binding_budget_cap(pop, satisfaction, s_max):
    """Total spend at the unconstrained optimum of the rent-adjusted
    objective; budgets below this are fully exhausted at the optimum."""
    part = list(pop.types)
    virtual = _virtual_costs(pop.on_time(T_MAX))
    unit = [t.count * t.marginal_cost for t in part]
    weights = [t.count / t.delay for t in part]
    fixed = float(sum(t.count for t in part))
    caps = []
    for a_vec in (virtual, unit):
        sizes = [
            min(s_max, max(satisfaction * w / a - 1.0, 0.0)) if a > 0 else s_max
            for w, a in zip(weights, a_vec)
        ]
        caps.append(fixed + sum(a * s for a, s in zip(a_vec, sizes)))
    return min(caps)


class TestCompleteInformation:
    def test_worked_two_type_instance(self):
        menu = solve_complete(WORKED_POP, WORKED_PARAMS, T_MAX)
        assert menu.item(1).vdd_size == pytest.approx(7.75, rel=1e-12)
        assert menu.item(2).vdd_size == pytest.approx(16.5, rel=1e-12)
        assert menu.item(1).reward == pytest.approx(4.875, rel=1e-12)
        assert menu.item(2).reward == pytest.approx(5.125, rel=1e-12)

    def test_budget_exactly_exhausted(self):
        menu = solve_complete(WORKED_POP, WORKED_PARAMS, T_MAX)
        paid = sum(t.count * menu.item(t.index).reward for t in WORKED_POP.types)
        assert paid == pytest.approx(10.0, rel=1e-12)

    def test_zero_rent(self):
        menu = solve_complete(WORKED_POP, WORKED_PARAMS, T_MAX)
        for t in WORKED_POP.types:
            item = menu.item(t.index)
            u = uav_payoff(t.marginal_cost, item.vdd_size, item.reward, WORKED_PARAMS.deploy_cost)
            assert u == pytest.approx(0.0, abs=1e-12)

    def test_gcs_utility_equals_surplus(self):
        menu = solve_complete(WORKED_POP, WORKED_PARAMS, T_MAX)
        g = gcs_utility(menu, WORKED_POP, WORKED_PARAMS)
        s = social_surplus(menu, WORKED_POP, WORKED_PARAMS)
        assert g == pytest.approx(s, rel=1e-12)

    def test_budget_at_deploy_floor_gives_zero_sizes(self):
        pop = make_pop([50.0, 40.0])  # costs so high the water level stays below 1
        params = GcsParams(budget=2.0)
        menu = solve_complete(pop, params, T_MAX)
        for t in pop.types:
            assert menu.item(t.index).vdd_size == 0.0
            assert menu.item(t.index).reward == pytest.approx(1.0)

    def test_budget_below_deploy_cost_zero_menu(self):
        pop = make_pop([0.5, 0.25])
        menu = solve_complete(pop, GcsParams(budget=1.5), T_MAX)
        assert all(menu.item(t.index) == menu.zero(pop, T_MAX).item(t.index) for t in pop.types)

    def test_nonparticipants_zeroed(self):
        pop = make_pop([0.5, 0.25], delays=[1.0, 9.0])
        menu = solve_complete(pop, WORKED_PARAMS, T_MAX)
        late = pop.types[1]
        assert menu.item(late.index).vdd_size == 0.0
        assert menu.item(late.index).reward == 0.0

    def test_literal_mode_single_shot_clamp(self):
        # with nothing clamped the two modes coincide
        exact = solve_complete(WORKED_POP, WORKED_PARAMS, T_MAX)
        literal = solve_complete(
            WORKED_POP, WORKED_PARAMS, T_MAX, SolverConfig(budget_mode=PAPER_LITERAL)
        )
        for t in WORKED_POP.types:
            assert literal.item(t.index).vdd_size == pytest.approx(
                exact.item(t.index).vdd_size, rel=1e-12
            )

    def test_exact_mode_rebalances_after_clamp(self):
        # small s_max forces a clamp; exact mode must still exhaust the budget
        params = GcsParams(budget=10.0, s_max=10.0)
        menu = solve_complete(WORKED_POP, params, T_MAX)
        paid = sum(t.count * menu.item(t.index).reward for t in WORKED_POP.types)
        assert menu.item(2).vdd_size == pytest.approx(10.0)
        assert paid <= 10.0 + 1e-9


class TestRewardRecursion:
    def test_worked_values(self):
        rewards = optimal_rewards([5.0, 17.0], WORKED_POP.on_time(T_MAX), WORKED_PARAMS)
        assert rewards == pytest.approx([3.5, 6.5])

    def test_zero_sizes_pay_deploy_cost(self):
        rewards = optimal_rewards([0.0, 0.0], WORKED_POP.on_time(T_MAX), WORKED_PARAMS)
        assert rewards == pytest.approx([1.0, 1.0])

    def test_first_type_rent_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            costs = np.sort(rng.uniform(0.01, 1.0, n))[::-1]
            if len(np.unique(costs)) != n:
                continue
            pop = make_pop(list(costs))
            sizes = list(np.sort(rng.uniform(0.0, 300.0, n)))
            rewards = optimal_rewards(sizes, pop.on_time(T_MAX), WORKED_PARAMS)
            first = pop.types[0]
            u = rewards[0] - first.marginal_cost * sizes[0] - 1.0
            assert u == pytest.approx(0.0, abs=1e-9)

    @staticmethod
    def wide_view():
        """A view of ARRAY_MIN_TYPES types, whose columns are arrays."""
        view = make_pop(np.linspace(0.5, 0.25, model.ARRAY_MIN_TYPES).tolist()).on_time(T_MAX)
        assert view.arrays
        return view

    def test_rejects_non_monotone_sizes(self):
        with pytest.raises(ValueError):
            optimal_rewards([17.0, 5.0], WORKED_POP.on_time(T_MAX), WORKED_PARAMS)
        falling = np.linspace(17.0, 5.0, model.ARRAY_MIN_TYPES)
        with pytest.raises(ValueError, match="non-decreasing"):
            optimal_rewards(falling, self.wide_view(), WORKED_PARAMS)

    def test_rejects_misaligned_sizes(self):
        # one size short, on a view of lists and on a view of arrays
        for view, sizes in ((WORKED_POP.on_time(T_MAX), [5.0]),
                            (self.wide_view(), np.linspace(5.0, 17.0, model.ARRAY_MIN_TYPES - 1))):
            with pytest.raises(ValueError, match="align with participating types"):
                optimal_rewards(sizes, view, WORKED_PARAMS)

    def test_minimal_total_payment(self):
        # random feasible reward perturbations never pay less in aggregate
        rng = np.random.default_rng(13)
        from honeygame.model import ContractMenu

        for _ in range(200):
            n = int(rng.integers(2, 7))
            costs = np.sort(rng.uniform(0.01, 1.0, n))[::-1]
            if len(np.unique(costs)) != n:
                continue
            pop = make_pop(list(costs))
            sizes = list(np.sort(rng.uniform(0.0, 300.0, n)))
            base = optimal_rewards(sizes, pop.on_time(T_MAX), WORKED_PARAMS)
            total_base = sum(r for r in base)
            shift = rng.uniform(0.0, 5.0)
            alt = [r + shift for r in base]  # uniform shift preserves IC, raises IR slack
            menu = ContractMenu(T_MAX, sizes, alt)
            report = check_feasibility(menu, pop, GcsParams(budget=1e9))
            assert report.ir_ok and report.ic_ok
            assert sum(alt) >= total_base - 1e-9


class TestPartialRelaxed:
    def test_worked_virtual_costs_and_sizes(self):
        sol = solve_partial_relaxed(WORKED_POP, WORKED_PARAMS, T_MAX)
        assert _virtual_costs(WORKED_POP.on_time(T_MAX)) == pytest.approx([0.75, 0.25])
        assert sol.scalar == pytest.approx(4.5, rel=1e-12)
        assert sol.sizes == pytest.approx((5.0, 17.0))

    def test_single_type_matches_complete(self):
        pop = make_pop([0.5])
        params = GcsParams(budget=10.0)
        relaxed = solve_partial_relaxed(pop, params, T_MAX)
        complete = solve_complete(pop, params, T_MAX)
        assert relaxed.sizes[0] == pytest.approx(complete.item(1).vdd_size, rel=1e-12)

    def test_monotone_sizes_for_uniform_types_common_delay(self):
        pop = make_pop(list(np.linspace(1.0, 0.01, 10)))
        params = GcsParams(budget=460.0)
        sol = solve_partial_relaxed(pop, params, T_MAX)
        assert all(a <= b + 1e-9 for a, b in zip(sol.sizes, sol.sizes[1:]))


def ratio_inputs(pop):
    """Weights w_j and virtual costs A_j of an all-on-time population."""
    virtual = _virtual_costs(pop.on_time(T_MAX))
    return [t.count / t.delay for t in pop.types], virtual


class TestIroning:
    # a big delay gap makes the cheap type's relaxed size smaller,
    # violating monotonicity and forcing a bunch
    IRON_POP = make_pop([0.5, 0.25], delays=[0.5, 1.8])
    IRON_PARAMS = GcsParams(budget=10.0)

    def test_relaxed_sizes_decrease(self):
        sol = solve_partial_relaxed(self.IRON_POP, self.IRON_PARAMS, T_MAX)
        assert sol.sizes[0] > sol.sizes[1]

    def test_iron_restores_monotonicity(self):
        w, a = ratio_inputs(self.IRON_POP)
        assert iron(w, a) == [(w[0] + w[1], a[0] + a[1], 2)]
        menu = solve_partial(self.IRON_POP, self.IRON_PARAMS, T_MAX)
        assert menu.item(1).vdd_size == menu.item(2).vdd_size

    def test_monotone_input_unchanged(self):
        w, a = ratio_inputs(WORKED_POP)
        assert w[0] / a[0] < w[1] / a[1]
        assert iron(w, a) == [(w[0], a[0], 1), (w[1], a[1], 1)]

    def test_symmetric_pair_bunches_to_common_optimum(self):
        # the pooled size solves varpi*sum(w)/(1+S) = lam*sum(a) at the budget
        # multiplier lam that also prices the unpooled interior third type
        pop = make_pop([0.5, 0.25, 0.1], delays=[0.5, 1.8, 1.0])
        params = GcsParams(budget=20.0)
        w, a = ratio_inputs(pop)
        assert [n for _, _, n in iron(w, a)] == [2, 1]
        menu = solve_partial(pop, params, T_MAX)
        s_star, s_3 = menu.item(1).vdd_size, menu.item(3).vdd_size
        assert 0.0 < s_star < s_3 < params.s_max
        lam = params.satisfaction * w[2] / ((1.0 + s_3) * a[2])
        grad = params.satisfaction * (w[0] + w[1]) / (1.0 + s_star) - lam * (a[0] + a[1])
        assert grad == pytest.approx(0.0, abs=1e-12)

    def test_full_solution_feasible_after_ironing(self):
        menu = solve_partial(self.IRON_POP, self.IRON_PARAMS, T_MAX)
        report = check_feasibility(menu, self.IRON_POP, self.IRON_PARAMS)
        assert report.all_ok
        paid = sum(t.count * menu.item(t.index).reward for t in self.IRON_POP.types)
        assert paid == pytest.approx(10.0, rel=1e-9)

    def test_paper_literal_pools_to_closed_form(self):
        # each pooled block takes clamp(x * sum W / sum A - 1, 0, s_max) at
        # the one-shot level x of the full participating set
        sc = load_scenario("{}")
        pop = generate_population(sc)
        params = sc.gcs
        menu = solve_partial(pop, params, sc.t_max, SolverConfig(budget_mode=PAPER_LITERAL))
        part = participating_set(pop, sc.t_max)
        on_time = [t for t in pop.types if t.delay <= sc.t_max]
        virtual = _virtual_costs(pop.on_time(sc.t_max))
        weights = [t.count / t.delay for t in part]
        fixed = params.deploy_cost * sum(t.count for t in part)
        x = (params.budget + sum(virtual) - fixed) / sum(weights)
        start = 0
        blocks = iron(weights, virtual)
        for w, a, n in blocks:
            want = min(params.s_max, max(x * w / a - 1.0, 0.0))
            for t in on_time[start : start + n]:
                assert menu.item(t.index).vdd_size == pytest.approx(want, abs=1e-12)
            start += n
        assert len(blocks) < len(part)  # the default scenario needs ironing


class TestPartialEndToEnd:
    def test_worked_instance(self):
        menu = solve_partial(WORKED_POP, WORKED_PARAMS, T_MAX)
        assert menu.item(1).vdd_size == pytest.approx(5.0, rel=1e-12)
        assert menu.item(2).vdd_size == pytest.approx(17.0, rel=1e-12)
        assert menu.item(1).reward == pytest.approx(3.5, rel=1e-12)
        assert menu.item(2).reward == pytest.approx(6.5, rel=1e-12)
        us = [
            uav_payoff(t.marginal_cost, menu.item(t.index).vdd_size, menu.item(t.index).reward,
                       WORKED_PARAMS.deploy_cost)
            for t in WORKED_POP.types
        ]
        assert us == pytest.approx([0.0, 1.25])

    def test_feasibility_and_fairness(self):
        menu = solve_partial(WORKED_POP, WORKED_PARAMS, T_MAX)
        assert check_feasibility(menu, WORKED_POP, WORKED_PARAMS).all_ok
        assert check_fairness(menu, WORKED_POP, WORKED_PARAMS) == (True, True)

    def test_dominated_by_complete_information(self):
        # the information ordering holds where the budget binds (the regime
        # the closed forms are derived for); draw budgets below the
        # unconstrained-optimum spend so exhaustion is never wasteful
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 100:
            n = int(rng.integers(1, 8))
            costs = np.sort(rng.uniform(0.01, 1.0, n))[::-1]
            if len(np.unique(costs)) != n:
                continue
            pop = make_pop(list(costs), delays=list(rng.uniform(0.001, 2.0, n)))
            cap = binding_budget_cap(pop, satisfaction=6.0, s_max=300.0)
            fixed = sum(t.count for t in pop.types)
            if cap <= fixed + 0.5:
                continue
            budget = fixed + rng.uniform(0.1, 0.9) * (cap - fixed)
            params = GcsParams(budget=float(budget))
            checked += 1
            g_complete = gcs_utility(solve_complete(pop, params, T_MAX), pop, params)
            g_partial = gcs_utility(solve_partial(pop, params, T_MAX), pop, params)
            g_uniform = gcs_utility(uniform_contract(solve_partial(pop, params, T_MAX), pop), pop, params)
            assert g_complete >= g_partial - 1e-9
            assert g_partial >= g_uniform - 1e-9


class TestBaselines:
    def test_linear_prices_at_top_cost(self):
        pop = make_pop([0.5, 0.25])
        params = GcsParams(budget=1000.0)
        menu = linear_contract(pop, params, T_MAX)
        # costliest type is indifferent and opts out; cheaper type takes the cap
        assert menu.item(1).vdd_size == 0.0
        assert menu.item(1).reward == 0.0
        assert menu.item(2).vdd_size == pytest.approx(params.s_max)
        assert menu.item(2).reward == pytest.approx(0.5 * params.s_max)

    def test_linear_scales_into_budget(self):
        pop = make_pop([0.5, 0.25, 0.1], counts=[1, 2, 2])
        params = GcsParams(budget=100.0)
        menu = linear_contract(pop, params, T_MAX)
        paid = sum(t.count * menu.item(t.index).reward for t in pop.types)
        assert paid <= params.budget + 1e-9

    def test_uniform_replicates_first_item(self):
        pop = make_pop([0.5, 0.25, 0.1])
        params = GcsParams(budget=30.0)
        uni = uniform_contract(solve_partial(pop, params, T_MAX), pop)
        opt = solve_partial(pop, params, T_MAX)
        first = opt.item(1)
        for t in pop.types:
            assert uni.item(t.index) == first

    def test_uniform_first_type_zero_rent_others_positive(self):
        pop = make_pop([0.5, 0.25, 0.1])
        params = GcsParams(budget=30.0)
        menu = uniform_contract(solve_partial(pop, params, T_MAX), pop)
        us = [uav_payoff(t.marginal_cost, menu.item(t.index).vdd_size, menu.item(t.index).reward,
                         params.deploy_cost) for t in pop.types]
        assert us[0] == pytest.approx(0.0, abs=1e-9)
        assert all(u > 0 for u in us[1:])

    def test_uniform_surplus_constant_when_delays_match(self):
        pop = make_pop([0.5, 0.25, 0.1])
        params = GcsParams(budget=30.0)
        menu = uniform_contract(solve_partial(pop, params, T_MAX), pop)
        item = menu.item(1)
        per_type = [
            params.satisfaction * (t.count / t.delay) * math.log1p(item.vdd_size)
            - t.count * (t.marginal_cost * item.vdd_size + params.deploy_cost)
            for t in pop.types
        ]
        # sizes are common, so surplus varies only through the cost term
        assert per_type[0] < per_type[1] < per_type[2]


class TestDegenerateCases:
    def test_empty_participating_set(self):
        pop = make_pop([0.5], delays=[9.0])
        for solver in (solve_complete, solve_partial):
            menu = solver(pop, WORKED_PARAMS, T_MAX)
            assert menu.item(1).vdd_size == 0.0
        assert linear_contract(pop, WORKED_PARAMS, T_MAX).item(1).reward == 0.0
        assert uniform_contract(solve_partial(pop, WORKED_PARAMS, T_MAX), pop).item(1).reward == 0.0

    def test_participating_subset_only(self):
        pop = make_pop([0.9, 0.5, 0.2], delays=[1.0, 9.0, 1.0])
        menu = solve_partial(pop, GcsParams(budget=20.0), T_MAX)
        assert menu.item(2).vdd_size == 0.0  # the late type
        report = check_feasibility(menu, pop, GcsParams(budget=20.0))
        assert report.all_ok


FROZEN_MENUS = json.loads((Path(__file__).parent / "fixtures" / "solver_menus.json").read_text())


class TestFrozenMenus:
    """Menus frozen from the solver before ironing became one PAV pass on the
    w/A ratios: 80 seeded instances with 2-30 types, some of them late,
    binding and slack budgets, s_max in {10, 30, 300}, most needing ironing.
    Each case stores the raw types, the budget and the (size, reward) pairs
    of both solvers in both budget modes, floats written with repr."""

    @staticmethod
    def _max_error(mode, scale):
        worst = 0.0
        for case in FROZEN_MENUS:
            pop = make_pop(*zip(*case["types"]))
            params = GcsParams(budget=case["budget"], s_max=case["s_max"])
            cfg = SolverConfig(budget_mode=mode)
            for name, solver in (("complete", solve_complete), ("partial", solve_partial)):
                menu = solver(pop, params, case["t_max"], cfg)
                for t, want in zip(pop.types, case["menus"][mode][name]):
                    item = menu.item(t.index)
                    for got, ref in zip((item.vdd_size, item.reward), want):
                        worst = max(worst, abs(got - ref) / scale(ref))
        return worst

    def test_budget_exact_matches_frozen_menus(self):
        assert self._max_error("budget-exact", lambda ref: 1.0) <= 1e-12

    def test_paper_literal_within_ternary_search_accuracy(self):
        # the frozen pooled sizes came from a ternary search accurate to about
        # sqrt(machine epsilon) of the size range
        assert self._max_error(PAPER_LITERAL, lambda ref: max(1.0, abs(ref))) <= 1e-6

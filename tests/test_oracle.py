"""Brute-force oracle tests: guards, degenerate cases, and agreement with
the closed-form solvers on small instances."""

import numpy as np
import pytest

from honeygame.model import GcsParams, UavType, canonicalize, gcs_utility
from honeygame.oracle import GridSpec, grid_search_complete, grid_search_partial
from honeygame.solver import solve_complete, solve_partial

T_MAX = 2.0


def make_pop(costs, delays=None, counts=None):
    delays = delays or [1.0] * len(costs)
    counts = counts or [1] * len(costs)
    return canonicalize(
        UavType(index=i + 1, marginal_cost=c, delay=d, count=k)
        for i, (c, d, k) in enumerate(zip(costs, delays, counts))
    )


class TestGridSpec:
    def test_points_cover_range(self):
        grid = GridSpec(s_step=5.0, s_max=20.0)
        assert list(grid.points) == [0.0, 5.0, 10.0, 15.0, 20.0]

    def test_non_integral_ratio_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(s_step=7.0, s_max=20.0)

    def test_non_positive_step_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(s_step=0.0, s_max=20.0)


class TestGuards:
    def test_too_many_types_rejected(self):
        pop = make_pop([0.9, 0.7, 0.5, 0.3])
        grid = GridSpec(s_step=10.0, s_max=20.0)
        with pytest.raises(ValueError):
            grid_search_complete(pop, GcsParams(), T_MAX, grid)
        with pytest.raises(ValueError):
            grid_search_partial(pop, GcsParams(), T_MAX, grid)

    def test_budget_below_deploy_cost_zero_menu(self):
        pop = make_pop([0.5, 0.25])
        params = GcsParams(budget=1.0)
        grid = GridSpec(s_step=1.0, s_max=20.0)
        menu, obj = grid_search_complete(pop, params, T_MAX, grid)
        assert obj == 0.0
        assert all(menu.sizes[t.index - 1] == 0.0 for t in pop.types)


class TestAgainstSolvers:
    def test_single_type_matches_closed_form(self):
        # budget below the unconstrained-optimum spend, so it binds
        pop = make_pop([0.5])
        params = GcsParams(budget=5.0, s_max=30.0)
        grid = GridSpec(s_step=1.0, s_max=30.0)
        menu, _ = grid_search_complete(pop, params, T_MAX, grid)
        closed = solve_complete(pop, params, T_MAX)
        assert abs(menu.sizes[0] - closed.sizes[0]) <= 1.0

    def test_worked_complete_instance(self):
        pop = make_pop([0.5, 0.25])
        params = GcsParams(budget=10.0, s_max=30.0)
        grid = GridSpec(s_step=1.0, s_max=30.0)
        _, oracle_obj = grid_search_complete(pop, params, T_MAX, grid)
        solver_obj = gcs_utility(solve_complete(pop, params, T_MAX), pop, params)
        # solver beats the grid up to one step's objective change
        assert solver_obj >= oracle_obj - 2.0

    def test_worked_partial_instance(self):
        pop = make_pop([0.5, 0.25])
        params = GcsParams(budget=10.0, s_max=30.0)
        grid = GridSpec(s_step=1.0, s_max=30.0)
        menu, oracle_obj = grid_search_partial(pop, params, T_MAX, grid)
        closed = solve_partial(pop, params, T_MAX)
        assert abs(menu.sizes[0] - closed.sizes[0]) <= 1.0 + 1e-9
        assert abs(menu.sizes[1] - closed.sizes[1]) <= 1.0 + 1e-9
        solver_obj = gcs_utility(closed, pop, params)
        assert solver_obj >= oracle_obj - 2.0

    def test_bunched_instance_oracle_sizes_equal(self):
        # relaxed sizes are decreasing here, so the true optimum bunches
        pop = make_pop([0.5, 0.25], delays=[0.5, 1.8])
        params = GcsParams(budget=10.0, s_max=30.0)
        grid = GridSpec(s_step=1.0, s_max=30.0)
        menu, _ = grid_search_partial(pop, params, T_MAX, grid)
        assert abs(menu.sizes[0] - menu.sizes[1]) <= 1.0 + 1e-9
        ironed = solve_partial(pop, params, T_MAX)
        assert abs(menu.sizes[0] - ironed.sizes[0]) <= 2.0 + 1e-9

    def test_partial_single_type_matches_complete_oracle(self):
        pop = make_pop([0.5])
        params = GcsParams(budget=10.0, s_max=30.0)
        grid = GridSpec(s_step=1.0, s_max=30.0)
        m1, o1 = grid_search_complete(pop, params, T_MAX, grid)
        m2, o2 = grid_search_partial(pop, params, T_MAX, grid)
        assert o1 == pytest.approx(o2, rel=1e-12)
        assert m1.sizes[0] == m2.sizes[0]


class TestGridRefinement:
    def test_halving_step_never_decreases_objective(self):
        pop = make_pop([0.5, 0.25])
        params = GcsParams(budget=10.0, s_max=32.0)
        objs = []
        for step in (4.0, 2.0, 1.0):
            grid = GridSpec(s_step=step, s_max=32.0)
            _, obj = grid_search_partial(pop, params, T_MAX, grid)
            objs.append(obj)
        assert objs[0] <= objs[1] + 1e-12 <= objs[2] + 2e-12

    def test_oracle_feasibility_of_best_menu(self):
        from honeygame.model import check_feasibility

        rng = np.random.default_rng(17)
        for _ in range(20):
            costs = np.sort(rng.uniform(0.1, 1.0, 2))[::-1]
            if costs[0] == costs[1]:
                continue
            pop = make_pop(list(costs), delays=list(rng.uniform(0.05, 2.0, 2)))
            params = GcsParams(budget=float(rng.uniform(3.0, 15.0)), s_max=20.0)
            grid = GridSpec(s_step=1.0, s_max=20.0)
            menu, _ = grid_search_partial(pop, params, T_MAX, grid)
            report = check_feasibility(menu, pop, params)
            assert report.ir_ok and report.ic_ok
            assert report.budget_ok

"""Acceptance suite: one test per release criterion, with the tolerance
pinned next to each assertion.  Each test prints a PASS line on success so
the verbose run doubles as a checklist."""

import math
import time

import numpy as np
import pytest

from honeygame.experiments import run_experiment
from honeygame.learn import LearnerConfig, hotboot, run_dynamic_game
from honeygame.model import (
    GcsParams,
    UavType,
    canonicalize,
    check_feasibility,
    gcs_utility,
    participating_set,
    social_surplus,
    uav_payoff,
)
from honeygame.channel import ChannelParams, los_probabilities
from honeygame.oracle import GridSpec, grid_search_complete, grid_search_partial
from honeygame.scenario import Scenario, generate_population
from honeygame.solver import _virtual_costs, solve_complete, solve_partial, uniform_contract

T_MAX = 2.0


def make_pop(costs, delays, counts=None):
    counts = counts or [1] * len(costs)
    return canonicalize(
        UavType(index=i + 1, marginal_cost=c, delay=d, count=k)
        for i, (c, d, k) in enumerate(zip(costs, delays, counts))
    )


def random_binding_instance(rng, n, s_max):
    """Random population plus a budget drawn strictly inside the range where
    the optimum exhausts it (below the unconstrained-optimum spend for both
    plain and rent-adjusted costs)."""
    costs = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
    if len(np.unique(costs)) != n:
        return None
    delays = rng.uniform(0.01, T_MAX, n)
    counts = rng.integers(1, 4, n)
    pop = make_pop(list(costs), list(delays), [int(k) for k in counts])
    if len(pop.types) != n:
        return None
    part = list(pop.types)
    virtual = _virtual_costs(pop.on_time(T_MAX))
    unit = [t.count * t.marginal_cost for t in part]
    weights = [t.count / t.delay for t in part]
    fixed = float(sum(t.count for t in part))
    caps = []
    for a_vec in (virtual, unit):
        sizes = [min(s_max, max(6.0 * w / a - 1.0, 0.0)) for w, a in zip(weights, a_vec)]
        caps.append(fixed + sum(a * s for a, s in zip(a_vec, sizes)))
    cap = min(caps)
    if cap <= fixed + 0.5:
        return None
    budget = fixed + rng.uniform(0.1, 0.9) * (cap - fixed)
    return pop, GcsParams(budget=float(budget), s_max=s_max)


def objective_slack(pop, params, step):
    """Upper bound on the objective change when every size moves by one grid
    step: per-type satisfaction slope at S = 0 plus the payment slope."""
    part = list(pop.types)
    virtual = _virtual_costs(pop.on_time(T_MAX))
    total = 0.0
    for t, a in zip(part, virtual):
        slope = params.satisfaction * t.count / t.delay
        total += (slope + max(a, t.count * t.marginal_cost)) * step
    return total


def test_01_oracle_equivalence():
    """Closed forms beat the brute-force grid up to one grid step's slack."""
    rng = np.random.default_rng(2024)
    start = time.time()
    for n, step, s_max, trials in ((2, 1.0, 60.0, 200), (3, 5.0, 100.0, 50)):
        grid = GridSpec(s_step=step, s_max=s_max)
        done = 0
        while done < trials:
            inst = random_binding_instance(rng, n, s_max)
            if inst is None:
                continue
            pop, params = inst
            slack = objective_slack(pop, params, step)
            for solver, oracle in (
                (solve_complete, grid_search_complete),
                (solve_partial, grid_search_partial),
            ):
                menu = solver(pop, params, T_MAX)
                obj = gcs_utility(menu, pop, params)
                _, oracle_obj = oracle(pop, params, T_MAX, grid)
                assert obj >= oracle_obj - slack
            done += 1
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 1: PASS — oracle equivalence, 250 instances in {elapsed:.1f}s")


def test_02_feasibility_suite():
    """10^4 random populations: full feasibility plus exact budget equality."""
    rng = np.random.default_rng(7)
    done = 0
    while done < 10_000:
        n = int(rng.integers(1, 11))
        inst = random_binding_instance(rng, n, 300.0)
        if inst is None:
            continue
        pop, params = inst
        menu = solve_partial(pop, params, T_MAX)
        report = check_feasibility(menu, pop, params)
        assert report.ir_ok
        assert report.ic_ok
        assert report.monotone_ok
        assert report.budget_ok
        paid = sum(t.count * menu.item(t.index).reward for t in pop.types)
        assert abs(paid - params.budget) / params.budget <= 1e-9
        done += 1
    print("\nACCEPTANCE 2: PASS — 10^4 feasible menus with exact budget equality")


def test_03_truthful_selection_matrix():
    """Every type's utility is maximized (and non-negative) at its own item.

    Adjacent downward incentive constraints bind by construction, so ties
    within 1e-9 of the diagonal count as truthful.
    """
    start = time.time()
    sc = Scenario()
    pop = generate_population(sc)
    menu = solve_partial(pop, sc.gcs, sc.t_max, sc.solver)
    part = participating_set(pop, sc.t_max)
    originals = [t for t in pop.types if t.delay <= sc.t_max]
    assert len(part) == 10
    matrix = np.array(
        [
            [uav_payoff(t.marginal_cost, menu.item(o.index).vdd_size, menu.item(o.index).reward,
                        sc.gcs.deploy_cost) for o in originals]
            for t in part
        ]
    )
    diag = np.diag(matrix)
    assert (diag >= 0.0).all()
    assert (diag >= matrix.max(axis=1) - 1e-9).all()
    assert time.time() - start < 1.0
    print("\nACCEPTANCE 3: PASS — 10x10 truthful-selection matrix")


def test_04_complete_information_zero_rent():
    """No information asymmetry: zero rents and GCS utility = surplus."""
    sc = Scenario()
    pop = generate_population(sc)
    menu = solve_complete(pop, sc.gcs, sc.t_max, sc.solver)
    for t in pop.types:
        if t.delay <= sc.t_max:
            item = menu.item(t.index)
            u = uav_payoff(t.marginal_cost, item.vdd_size, item.reward, sc.gcs.deploy_cost)
            assert abs(u) <= 1e-9
    g = gcs_utility(menu, pop, sc.gcs)
    s = social_surplus(menu, pop, sc.gcs)
    assert abs(g - s) <= 1e-9 * max(1.0, abs(s))
    print("\nACCEPTANCE 4: PASS — complete-information zero rent")


def test_05_monotone_menu_shapes():
    """Sizes and rewards never increase with marginal cost."""
    sc = Scenario()
    pop = generate_population(sc)
    menu = solve_partial(pop, sc.gcs, sc.t_max, sc.solver)
    items = [menu.item(t.index) for t in pop.types if t.delay <= sc.t_max]
    # population order is descending cost, so both sequences must ascend
    for a, b in zip(items, items[1:]):
        assert a.vdd_size <= b.vdd_size
        assert a.reward <= b.reward
    print("\nACCEPTANCE 5: PASS — monotone size and reward schedules")


def test_06_scheme_ranking():
    """Information ordering of GCS utility and effectiveness dominance of
    the asymmetric-information menu over both baselines, across the paired
    budget sweep; more budget never hurts effectiveness."""
    import dataclasses

    from honeygame.experiments import SWEEP_BUDGETS, SWEEP_COUNTS, _solve_all
    from honeygame.model import defensive_effectiveness

    sc = Scenario()
    zeta = {}
    for tag in ("high", "low"):
        for count, budget in zip(SWEEP_COUNTS, SWEEP_BUDGETS[tag]):
            rng = np.random.default_rng(np.random.SeedSequence([sc.seed, count]))
            pop = generate_population(sc, rng=rng, count=count)
            params = dataclasses.replace(sc.gcs, budget=budget)
            menus = _solve_all(pop, params, sc.t_max, sc.solver)
            g = {k: gcs_utility(m, pop, params) for k, m in menus.items()}
            z = {k: defensive_effectiveness(m, pop, params) for k, m in menus.items()}
            assert g["complete"] >= g["partial"] - 1e-9
            assert g["partial"] >= g["uniform"] - 1e-9
            assert z["partial"] >= z["linear"] - 1e-12
            assert z["partial"] >= z["uniform"] - 1e-12
            zeta[(tag, count)] = z
    for count in SWEEP_COUNTS:
        for scheme in ("complete", "partial", "linear", "uniform"):
            assert zeta[("high", count)][scheme] >= zeta[("low", count)][scheme] - 1e-12
    print("\nACCEPTANCE 6: PASS — scheme ranking over the budget sweep")


def test_07_rent_ordering():
    """On every feasible solver output, rents ascend with 0 at the top cost."""
    rng = np.random.default_rng(99)
    done = 0
    while done < 500:
        n = int(rng.integers(1, 11))
        inst = random_binding_instance(rng, n, 300.0)
        if inst is None:
            continue
        pop, params = inst
        menu = solve_partial(pop, params, T_MAX)
        us = [uav_payoff(t.marginal_cost, menu.item(t.index).vdd_size, menu.item(t.index).reward,
                         params.deploy_cost) for t in pop.types]
        assert abs(us[0]) <= 1e-9
        assert all(a <= b + 1e-9 for a, b in zip(us, us[1:]))
        done += 1
    print("\nACCEPTANCE 7: PASS — information rents ordered, zero at the top")


def test_08_learning_convergence():
    """Two-tier PHC stabilizes and hotbooting accelerates convergence."""
    start = time.time()
    pop = canonicalize([UavType(index=1, marginal_cost=0.5, delay=0.001)])
    params = GcsParams()
    cfg = LearnerConfig(
        gcs_levels=11,
        uav_levels=11,
        hotboot_runs=20,
        hotboot_length=1000,
        hotboot_jitter=0.05,
        episodes=2000,
    )

    def convergence_episode(series, window=50, band=0.05):
        final = series[-len(series) // 10 :].mean()
        scale = max(abs(final), 1.0)
        moving = np.convolve(series, np.ones(window) / window, mode="valid")
        inside = np.abs(moving - final) <= band * scale
        return int(np.argmax(inside)) if inside.any() else len(series)

    seeds = range(30)
    stable = 0
    faster = 0
    for seed in seeds:
        tables = hotboot(pop, params, T_MAX, cfg, seed)
        hot = run_dynamic_game(pop, params, T_MAX, cfg, seed, tables)[1]
        cold = run_dynamic_game(pop, params, T_MAX, cfg, seed)[1]
        window = cfg.episodes // 10
        s_std = hot.vdd_size[-window:].std()
        r_std = hot.reward[-window:].std()
        if s_std < 0.02 * params.s_max and r_std < 0.02 * params.r_max:
            stable += 1
        if convergence_episode(hot.uav_utility) < convergence_episode(cold.uav_utility):
            faster += 1
    elapsed = time.time() - start
    assert stable >= 0.8 * len(seeds)
    assert faster >= 0.7 * len(seeds)
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 8: PASS — stable {stable}/30, hotboot faster {faster}/30, "
        f"{elapsed:.0f}s"
    )


def test_09_channel_sanity():
    """LoS probability calibration and complementarity."""
    params = ChannelParams()
    assert los_probabilities([math.radians(12.0)], params)[0] == pytest.approx(
        1.0 / 13.0, abs=1e-12
    )
    rng = np.random.default_rng(31)
    for theta in rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 1000):
        p = los_probabilities([theta], params)[0]
        assert p + (1.0 - p) == 1.0
    print("\nACCEPTANCE 9: PASS — channel sanity")


def test_10_determinism():
    """Identical scenario and seed reproduce the sweep CSV byte for byte."""
    sc = Scenario(seed=42)
    first = run_experiment("fig7", sc)
    second = run_experiment("fig7", sc)
    assert first == second
    print("\nACCEPTANCE 10: PASS — byte-identical sweep reproduction")

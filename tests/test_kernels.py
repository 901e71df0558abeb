"""The array kernels and the per-type loops give the same bits.

From ``model.ARRAY_MIN_TYPES`` on-time types the solvers, the audits and
the utilities run as numpy kernels over the population and menu columns;
below it the loops run.  On populations just below and just
above that constant, each path is forced in turn and every output is
compared by ``repr`` (which tells -0.0 from 0.0 and every last bit).
"""

import ast
import math
import re
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeygame import kernels, model, solver
from honeygame.cli import _menu_text
from honeygame.model import (
    UavType,
    ContractMenu,
    GcsParams,
    canonical_columns,
    check_feasibility,
    defensive_effectiveness,
    gcs_utility,
    social_surplus,
    total_payment,
)
from honeygame.scenario import generate_population, load_scenario
from honeygame.solver import PAPER_LITERAL, SolverConfig

T_MAX = 2.0


@contextmanager
def array_min_types(n: int):
    saved = model.ARRAY_MIN_TYPES
    model.ARRAY_MIN_TYPES = n
    try:
        yield
    finally:
        model.ARRAY_MIN_TYPES = saved


@st.composite
def cases(draw):
    """A population with about ARRAY_MIN_TYPES on-time types (some late ones
    among them, ties, zero costs and counts above 1 as drawn), a budget and
    a budget mode."""
    on_time = draw(st.integers(model.ARRAY_MIN_TYPES - 3, model.ARRAY_MIN_TYPES + 3))
    late = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = on_time + late
    costs = rng.uniform(0.01, 1.0, n)
    costs[rng.random(n) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    if draw(st.booleans()):  # ties in cost
        costs = np.round(costs, 1)
    delays = rng.uniform(0.02, T_MAX, n)
    if draw(st.booleans()):  # costly types fastest: heavy ironing
        delays[np.argsort(-costs, kind="stable")] = np.sort(delays)
    delays[:late] = rng.uniform(2.1, 5.0, late)
    counts = rng.integers(1, draw(st.sampled_from([2, 5])), n)
    if draw(st.booleans()):  # twins: rows that merge into one type
        costs[1::7], delays[1::7] = costs[::7][:len(costs[1::7])], delays[::7][:len(delays[1::7])]
    rows = list(zip(costs.tolist(), delays.tolist(), counts.tolist()))
    on_time = delays <= T_MAX
    fixed = int(counts[on_time].sum())
    unit = float((counts * costs)[on_time].sum())
    share = draw(st.sampled_from([None, 0.05, 0.3, 1.0, 2.0]))  # None: below the fixed cost
    budget = 0.5 * fixed + 1e-3 if share is None else fixed + share * 300.0 * unit + 1e-3
    mode = draw(st.sampled_from([SolverConfig(), SolverConfig(PAPER_LITERAL)]))
    return rows, GcsParams(budget=budget), mode


def outputs(rows, params, cfg) -> list[str]:
    """repr of the population ``rows`` make and of every solver, audit and
    utility output on it, and the text of each menu."""
    pop = canonical_columns(*zip(*rows))
    # the forced path is the one that runs: the kernels under
    # ``array_min_types(1)``, the loops under ``array_min_types(10**9)``
    assert pop.on_time(T_MAX).arrays == (model.ARRAY_MIN_TYPES == 1)
    partial = solver.solve_partial(pop, params, T_MAX, cfg)
    noisy = [r * (1.0 + 0.01 * (k % 3 - 1)) for k, r in enumerate(partial.rewards.tolist(), 1)]
    menus = [solver.solve_complete(pop, params, T_MAX, cfg), partial,
             ContractMenu(T_MAX, partial.sizes, noisy),
             solver.linear_contract(pop, params, T_MAX), solver.uniform_contract(partial, pop)]
    out = [repr(solver.solve_partial_relaxed(pop, params, T_MAX, cfg))]
    for menu in menus:
        out += [repr(menu), _menu_text(menu),
                repr(check_feasibility(menu, pop, params)),
                repr(gcs_utility(menu, pop, params)),
                repr(social_surplus(menu, pop, params)),
                repr(defensive_effectiveness(menu, pop, params)),
                repr(total_payment(menu, pop))]
    return out + [repr(pop)]


@given(case=cases())
@settings(max_examples=60, deadline=None)
def test_array_kernels_match_the_loops(case):
    rows, params, cfg = case
    with array_min_types(10**9):
        loops = outputs(rows, params, cfg)
    with array_min_types(1):
        arrays = outputs(rows, params, cfg)
    assert arrays == loops


# a few values a tolerance apart, so that sizes and rewards tie, all but tie
# and cross the audit tolerance
NEAR = st.sampled_from([0.0, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, 2.0, 3.0, 5.0, 6.0])


@given(items=st.lists(st.tuples(NEAR | st.floats(0.0, 10.0), NEAR | st.floats(0.0, 10.0)),
                      max_size=12))
@settings(max_examples=500, deadline=None)
def test_reward_ordered_matches_the_loop_on_any_columns(items):
    # any columns, not only those the solvers make: the menu a file hands
    # to ``validate`` need not be feasible
    sizes, rewards = [s for s, _ in items], [r for _, r in items]
    columns = np.array(sizes, dtype=float), np.array(rewards, dtype=float)
    assert kernels.reward_ordered(*columns) == model._reward_ordered(sizes, rewards)


def test_reward_ordered_sees_the_smallest_size():
    # the smallest item out-earns a larger one
    sizes, rewards = [1.0, 2.0, 3.0], [5.0, 3.0, 6.0]
    assert kernels.reward_ordered(np.array(sizes), np.array(rewards)) is False
    assert model._reward_ordered(sizes, rewards) is False


def test_kernels_import_model_and_channel_alone():
    # the kernels serve the solvers and audits and read no solver: an import
    # of ``solver`` here would close the cycle solver -> kernels -> solver
    imported = set()
    for node in ast.walk(ast.parse(Path(kernels.__file__).read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("honeygame" + (f".{node.module}" if node.module else "")
                      if node.level else node.module)
            modules = ([f"{module}.{alias.name}" for alias in node.names]
                       if module == "honeygame" else [module])
        else:
            continue
        imported |= {m.removeprefix("honeygame.").split(".")[0]
                     for m in modules if m.split(".")[0] == "honeygame"}
    assert imported <= {"model", "channel"}, imported


@st.composite
def near_collinear_items(draw):
    """Items on one to three lines R = scale (a + c u), S = scale u, each
    reward moved by a few ulps, so that envelope break points tie or all but
    tie; the scales reach products that underflow and that overflow."""
    n = draw(st.integers(3, 30))
    scale = draw(st.sampled_from([1e-300, 1e-170, 1e-5, 1.0, 300.0, 1e150, 1e170]))
    lines = draw(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 5.0)),
                          min_size=1, max_size=3))
    units = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    nudges = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    items = []
    for k, (u, nudge) in enumerate(zip(units, nudges)):
        a, c = lines[k % len(lines)]
        reward = scale * (a + c * u)
        items.append((scale * u, max(0.0, reward + nudge * math.ulp(reward))))
    return items


@given(items=near_collinear_items(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_envelope_break_points_are_sorted(items, data):
    # the envelope keeps a middle line only if its two break points compare
    # ``<`` as cross products, so the break points come out sorted and the
    # kernel's np.searchsorted finds what the loop's bisect finds
    sizes, rewards = ([item[f] for item in items] for f in (0, 1))
    hull = model._upper_envelope(sizes, rewards)
    breaks = [(ra - rb) / (sa - sb) for (sa, ra, _), (sb, rb, _) in zip(hull, hull[1:])]
    assert breaks == sorted(breaks)
    near = [0.0, 1.0] + [b for x in breaks if x >= 0.0
                         for b in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
    costs = data.draw(st.lists(st.sampled_from([c for c in near if math.isfinite(c)]),
                               min_size=len(items), max_size=len(items)))
    rows = list(range(len(items)))
    loop = model._incentive_scan(costs, sizes, rewards, rows, 1.0)
    with warnings.catch_warnings():
        # products past the float range give inf quietly, as on Python floats
        warnings.simplefilter("error", RuntimeWarning)
        array = kernels._envelope_scan(np.array(costs), np.array(sizes), np.array(rewards),
                                       np.array(rows), 1.0)
    assert repr(array) == repr(loop)


def test_breakpoints_sorted_once_per_solve(monkeypatch):
    # 10 000 types with channel delays: the budget-exact complete menu pays a
    # few ulps over the budget and is re-solved just below it
    sc = load_scenario({"seed": 0, "gcs": {"budget": 46.0 * 10_000}, "population": {
        "count": 10_000, "distribution": "uniform", "delay": "channel"}})
    pop = generate_population(sc)
    sorts, totals = [], []
    breakpoints, total = kernels._breakpoints, solver.total_payment

    def counted_sort(*args):
        sorts.append(1)
        return breakpoints(*args)

    def counted_total(menu, pop):
        totals.append(1)
        return total(menu, pop)

    monkeypatch.setattr(kernels, "_breakpoints", counted_sort)
    monkeypatch.setattr(solver, "total_payment", counted_total)
    menu = solver.solve_complete(pop, sc.gcs, sc.t_max, sc.solver)
    assert len(totals) >= 2  # at least one re-solve
    assert len(sorts) == 1
    assert total(menu, pop) <= sc.gcs.budget


@pytest.mark.parametrize("row", [(-0.5, 1.0, 1), (0.5, 0.0, 1), (0.5, 1.0, 0), (math.nan, 1.0, 1),
                                 (0.5, math.inf, 1), (1, 1.0, 1), (0.5, 1.0, 2**63)])
def test_population_columns_refuse_what_the_loop_refuses(row):
    # one builder below and above ARRAY_MIN_TYPES rows: a row UavType refuses
    # raises UavType's error, counts that total 2**63 or more (past the int64
    # count column) raise, and an int cost is kept as its float
    try:
        UavType(1, *row)
    except ValueError as exc:
        error = str(exc)
    else:
        error = "type counts must total less than 2**63" if row[2] >= 2**63 else None
    for n in (2, model.ARRAY_MIN_TYPES + 5):
        rows = [(0.01 * k, 0.5 + 0.01 * k, 1) for k in range(1, n)] + [row]
        if error is None:
            costliest = canonical_columns(*zip(*rows)).types[0]
            assert repr(costliest) == repr(UavType(1, 1.0, 1.0, 1))
        else:
            with pytest.raises(ValueError, match=re.escape(error)):
                canonical_columns(*zip(*rows))


def test_population_build_names_the_first_bad_row():
    # the first bad row in the order given, not in the canonical order
    with pytest.raises(ValueError, match=re.escape("marginal_cost must be finite and >= 0, got -0.1")):
        canonical_columns([0.2, -0.1, 0.4], [1.0, 1.0, 0.0], [1, 1, 1])


def test_population_counts_fill_the_int64_column():
    # twins merge into one type whose count is the int64 maximum; one more UAV
    # is past it
    pop = canonical_columns([0.5, 0.5], [1.0, 1.0], [2**62, 2**62 - 1])
    assert pop.count.tolist() == [2**63 - 1] and pop.types[0].count == 2**63 - 1
    with pytest.raises(ValueError, match=re.escape(f"less than 2**63, got {2**63}")):
        canonical_columns([0.5, 0.4], [1.0, 1.0], [2**62, 2**62])

"""Outputs do not depend on the interpreter's built-in ``sum``.

Up to Python 3.11 the built-in ``sum`` adds floats left to right; from 3.12
on it compensates their rounding.  The package totals floats with
``model.left_sum`` alone, so its outputs are the same bits under either
rule.  Here ``builtins.sum`` is replaced by the 3.12 rule
(``compensated_sum``) and the ``solve`` and ``validate`` golden cases, the
J = 10 and J = 100 seeded menus and a few loop-vs-kernel examples are
rerun against their fixtures.
"""

import builtins
import json
import random
import sys

import numpy as np
import pytest

import test_golden_outputs as golden
import test_seeded_menus as seeded
from compensated_sum import _random_lists, compensated_sum
from honeygame import model
from honeygame.solver import PAPER_LITERAL, SolverConfig
from test_kernels import T_MAX, array_min_types, outputs

SOLVE_CASES = ("solve-exact-seed0", "solve-paper-seed0", "solve-j1000-exact-seed0",
               "solve-j1000-paper-seed0")


@pytest.fixture
def sum_312(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)


def test_the_rule_compensates():
    # left to right, 1e16 + 1.0 rounds back to 1e16
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert model.left_sum([1e16, 1.0, -1e16]) == 0.0


@pytest.mark.skipif(sys.version_info < (3, 12), reason="the built-in sum compensates from 3.12")
def test_the_rule_is_the_builtin_sum():
    for items, start in _random_lists(random.Random(0), 2_000):
        assert repr(compensated_sum(items, start)) == repr(sum(items, start))


def test_golden_solve_and_validate(sum_312, tmp_path, capsys):
    frozen = json.loads(golden.FIXTURE.read_text())
    for name in SOLVE_CASES:
        (tmp_path / name).mkdir()
        assert golden.output_hashes(*golden.CASES[name], tmp_path / name) == frozen[name], name
    (tmp_path / "many-types").mkdir()
    menus = golden.solve_many_types(tmp_path / "many-types")
    for name in golden.VALIDATE_CASES:
        assert golden.validate_hash(name, menus, tmp_path, capsys) == frozen[name], name


def test_seeded_menus(sum_312):
    frozen = json.loads(seeded.FIXTURE.read_text())
    built = seeded.build_cases(sizes=(10, 100))
    assert len(built) == 40
    for name, record in built.items():
        assert record == frozen[name], name


def _kernel_case(seed: int, share: float, cfg: SolverConfig):
    """About ARRAY_MIN_TYPES on-time types among late ones, with cost ties,
    zero costs, counts above 1 and (odd seeds) heavy ironing; the budget
    buys ``share`` of the saturated sizes."""
    rng = np.random.default_rng(seed)
    n = model.ARRAY_MIN_TYPES + 3
    costs = np.round(rng.uniform(0.01, 1.0, n), 2)
    costs[rng.random(n) < 0.1] = 0.0
    delays = rng.uniform(0.02, T_MAX, n)
    if seed % 2:
        delays[np.argsort(-costs, kind="stable")] = np.sort(delays)
    delays[:3] = rng.uniform(2.1, 5.0, 3)
    counts = rng.integers(1, 5, n)
    on_time = delays <= T_MAX
    budget = int(counts[on_time].sum()) + share * 300.0 * float((counts * costs)[on_time].sum())
    rows = list(zip(costs.tolist(), delays.tolist(), counts.tolist()))
    return rows, model.GcsParams(budget=budget), cfg


@pytest.mark.parametrize("cfg", [SolverConfig(), SolverConfig(PAPER_LITERAL)],
                         ids=["exact", "paper"])
@pytest.mark.parametrize("seed", range(4))
def test_kernels_match_the_loops(sum_312, seed, cfg):
    for share in (0.05, 0.3, 1.0):
        case = _kernel_case(seed, share, cfg)
        with array_min_types(10**9):
            loops = outputs(*case)
        with array_min_types(1):
            arrays = outputs(*case)
        assert arrays == loops, share

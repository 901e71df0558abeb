"""Every entry point the benchmark's tracer wraps must still exist, and its
episode counters must count what the learner plays.

``bench/spans.py`` names functions by string and reads the learner's
results; a rename, a deletion or a changed result in the package would
otherwise surface only when ``bench/run.py --trace 1`` runs, or as a wrong
``learn.episodes`` count.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from honeygame.learn import LearnerConfig, hotboot, run_dynamic_game
from honeygame.model import GcsParams, UavType, canonicalize

SPANS = Path(__file__).parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers() -> dict:
    return _spans().LAYERS


@pytest.mark.parametrize("layer, entry", sorted(_layers().items()))
def test_span_names_resolve(layer, entry):
    module_name, names = entry
    module = importlib.import_module(module_name)
    for name in names:
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_episode_counters_count_the_on_time_pairs():
    # two of three types meet the 2 s deadline; the late one plays nothing
    pop = canonicalize([UavType(index=1, marginal_cost=0.9, delay=3.0),
                        UavType(index=2, marginal_cost=0.5, delay=1.0),
                        UavType(index=3, marginal_cost=0.2, delay=0.5, count=2)])
    cfg = LearnerConfig(hotboot_runs=3, hotboot_length=20, episodes=40)
    counters = _spans().EPISODE_COUNTERS
    args = (pop, GcsParams(), 2.0, cfg, 0)
    tables = hotboot(*args)
    name, count = counters["learn.hotboot"]
    assert name == "learn.episodes"
    assert count(inspect.signature(hotboot).bind(*args), tables) == 2 * 3 * 20
    logs = run_dynamic_game(*args, tables)
    name, count = counters["learn.run_dynamic_game"]
    assert name == "learn.episodes"
    assert count(inspect.signature(run_dynamic_game).bind(*args, tables), logs) == 2 * 40

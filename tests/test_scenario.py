"""Scenario file parsing, round-tripping, and population generation."""

import math
from pathlib import Path

import numpy as np
import pytest

from honeygame.channel import ChannelParams, a2g_rate, transmission_delay
from honeygame.scenario import (
    PopulationSpec,
    Scenario,
    _channel_delays,
    dump_scenario,
    generate_population,
    load_scenario,
)

EXPLICIT_YAML = """
seed: 7
t_max: 1.5
population:
  distribution: explicit
  types:
    - {cost: 0.5, delay: 1.0, count: 2}
    - {cost: 0.25, delay: 1.0}
gcs:
  budget: 20.0
"""


class TestLoading:
    def test_defaults(self):
        sc = load_scenario("{}")
        assert sc.seed == 42
        assert sc.t_max == 2.0
        assert sc.gcs.budget == 460.0

    def test_explicit_document(self):
        sc = load_scenario(EXPLICIT_YAML)
        assert sc.seed == 7
        assert sc.gcs.budget == 20.0
        pop = generate_population(sc)
        assert [t.marginal_cost for t in pop.types] == [0.5, 0.25]
        assert pop.types[0].count == 2

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown top-level"):
            load_scenario("banana: 1")

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys in gcs"):
            load_scenario("gcs: {budgett: 10}")

    def test_long_text_is_read_as_yaml(self):
        # too long to name a file: parsed as a YAML scalar, not tried as a path
        with pytest.raises(ValueError, match="must be a mapping"):
            load_scenario("x" * 5000)
        assert load_scenario("gcs: {budget: 20.0}" + " " * 5000).gcs.budget == 20.0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("channel: {bw_a2g: 1.0e6}", "channel.bw_a2g must be a number"),
            ("learner: {episodes: null}", "learner.episodes must be an integer"),
            ("population: {cost_range: [1e-2, 1.0]}", "population.cost_range must be a list of 2 numbers"),
            ("t_max: 2.5e0", "t_max must be a number"),
            ("seed: 1.5", "seed must be an integer"),
            ("area: 200.0", "area must be a list of 2 numbers"),
            ("population: {counts: [1, a]}", "population.counts must be a list of integers"),
        ],
        ids=["string", "null", "tuple-element", "top-level", "float-seed", "scalar-pair",
             "string-in-counts"],
    )
    def test_non_numeric_value_rejected(self, text, message):
        # YAML 1.1 reads 0.25e6 and 1e-2 (no dot or no exponent sign) as strings
        with pytest.raises(ValueError, match=message):
            load_scenario(text)

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        path = tmp_path / "scenario.yaml"
        path.write_text(readme.split("```yaml\n")[1].split("```")[0])
        sc = load_scenario(path)
        assert sc.solver.budget_mode == "budget-exact"
        assert sc.population.count == 10

    def test_file_round_trip(self, tmp_path):
        sc = load_scenario(EXPLICIT_YAML)
        path = tmp_path / "scenario.yaml"
        path.write_text(dump_scenario(sc))
        again = load_scenario(path)
        assert again == sc
        assert dump_scenario(again) == dump_scenario(sc)


class TestPopulationSpec:
    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            PopulationSpec(distribution="gaussian")

    def test_explicit_requires_types(self):
        with pytest.raises(ValueError):
            PopulationSpec(distribution="explicit")

    def test_invalid_cost_range(self):
        with pytest.raises(ValueError):
            PopulationSpec(cost_range=(1.0, 0.5))


class TestGeneration:
    def test_even_spacing_endpoints(self):
        sc = Scenario(population=PopulationSpec(count=10, delay=1.0))
        pop = generate_population(sc)
        costs = [t.marginal_cost for t in pop.types]
        assert costs[0] == pytest.approx(1.0)
        assert costs[-1] == pytest.approx(0.01)
        assert len(costs) == 10

    def test_uniform_draws_sorted_descending(self):
        sc = Scenario(population=PopulationSpec(count=8, distribution="uniform", delay=1.0))
        pop = generate_population(sc)
        costs = [t.marginal_cost for t in pop.types]
        assert costs == sorted(costs, reverse=True)
        assert all(0.01 <= c <= 1.0 for c in costs)

    def test_fixed_seed_reproducible(self):
        sc = Scenario(seed=11, population=PopulationSpec(count=5, distribution="uniform", delay=1.0))
        a = generate_population(sc)
        b = generate_population(sc)
        assert a == b

    def test_channel_delays_positive_and_small(self):
        sc = Scenario()
        pop = generate_population(sc)
        for t in pop.types:
            assert 0.0 < t.delay < sc.t_max

    def test_count_override(self):
        sc = Scenario()
        rng = np.random.default_rng(0)
        pop = generate_population(sc, rng=rng, count=4)
        assert len(pop.types) == 4

    def test_delay_list_length_checked(self):
        sc = Scenario(population=PopulationSpec(count=3, delay=[1.0, 2.0]))
        with pytest.raises(ValueError, match="delay list"):
            generate_population(sc)


def reference_delays(sc: Scenario, n: int, rng: np.random.Generator) -> list[float]:
    """One UAV at a time: x, y and altitude from scalar uniform draws, the
    delay of a full s_max payload over the A2G link to the area's centre."""
    gx, gy = sc.area[0] / 2.0, sc.area[1] / 2.0
    delays = []
    for _ in range(n):
        x = rng.uniform(0.0, sc.area[0])
        y = rng.uniform(0.0, sc.area[1])
        z = rng.uniform(sc.height_range[0], sc.height_range[1])
        d = max(math.hypot(x - gx, y - gy), 1.0)
        delays.append(transmission_delay(sc.gcs.s_max, a2g_rate(z, sc.channel, d)))
    return delays


class TestChannelDelays:
    SCENARIOS = {
        "defaults": Scenario(),
        "custom-geometry": Scenario(area=(350.0, 120.0), height_range=(10.0, 95.5),
                                    channel=ChannelParams(gcs_height=12.0)),
    }

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("n", [0, 1, 10, 1000])
    def test_bitwise_equal_to_scalar_draws(self, name, seed, n):
        sc = self.SCENARIOS[name]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _channel_delays(sc, n, rng)
        want = reference_delays(sc, n, ref_rng)
        assert [d.hex() for d in got] == [d.hex() for d in want]
        assert rng.random() == ref_rng.random()

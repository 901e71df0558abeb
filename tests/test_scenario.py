"""Scenario file parsing, round-tripping, and population generation."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeygame.channel import ChannelParams, a2g_rate, transmission_delay
from honeygame.model import UavType, canonicalize
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


def reference_raw_types(sc: Scenario) -> list[UavType]:
    """One ``UavType`` per spec row, in spec order, before any merging."""
    spec = sc.population
    if spec.distribution == "explicit":
        return [UavType(i + 1, float(t["cost"]), float(t["delay"]), int(t.get("count", 1)))
                for i, t in enumerate(spec.types)]
    rng = np.random.default_rng(sc.seed)
    n = spec.count
    lo, hi = spec.cost_range
    if spec.distribution == "even":
        costs = [lo] if n == 1 else [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    else:
        costs = sorted(float(c) for c in rng.uniform(lo, hi, size=n))
    if spec.delay == "channel":
        delays = _channel_delays(sc, n, rng).tolist()
    elif isinstance(spec.delay, float):
        delays = [spec.delay] * n
    else:
        delays = list(spec.delay)
    counts = spec.counts or [1] * n
    return [UavType(i + 1, c, d, k) for i, (c, d, k) in enumerate(zip(costs, delays, counts))]


COSTS = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
DELAYS = st.sampled_from([0.5, 1.0, 3.0]) | st.floats(0.01, 5.0)


@st.composite
def population_scenarios(draw):
    """Explicit, even and uniform specs whose rows repeat (cost, delay) keys
    and tie costs: sampled values, equal cost-range ends, one fixed delay."""
    distribution = draw(st.sampled_from(["explicit", "even", "uniform"]))
    if distribution == "explicit":
        row = st.fixed_dictionaries({"cost": COSTS, "delay": DELAYS},
                                    optional={"count": st.integers(1, 3)})
        spec = PopulationSpec(distribution="explicit",
                              types=tuple(draw(st.lists(row, min_size=1, max_size=10))))
    else:
        n = draw(st.integers(1, 10))
        lo, hi = sorted(draw(st.lists(COSTS, min_size=2, max_size=2)))
        delay = draw(st.sampled_from(["channel", 1.0])
                     | st.lists(DELAYS, min_size=n, max_size=n).map(tuple))
        counts = draw(st.none() | st.lists(st.integers(1, 3), min_size=n, max_size=n).map(tuple))
        spec = PopulationSpec(count=n, cost_range=(lo, hi), distribution=distribution,
                              delay=delay, counts=counts)
    return Scenario(seed=draw(st.integers(0, 3)), population=spec)


class TestPopulationBuild:
    @given(sc=population_scenarios())
    @settings(max_examples=300, deadline=None)
    def test_equals_canonicalize_of_raw_types(self, sc):
        # repr tells -0.0 from 0.0 and int from float
        assert repr(generate_population(sc)) == repr(canonicalize(reference_raw_types(sc)))


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

    @given(
        area=st.tuples(st.floats(0.0, 5000.0), st.floats(0.0, 5000.0)),
        heights=st.lists(st.floats(0.0, 500.0), min_size=2, max_size=2).map(sorted),
        channel=st.builds(
            ChannelParams,
            atten_los=st.floats(0.0, 60.0),
            atten_nlos=st.floats(0.0, 60.0),
            logit_a=st.floats(0.0, 40.0),
            logit_b=st.floats(0.01, 2.0),
            carrier_hz=st.floats(1e8, 1e11),
            gcs_height=st.floats(0.0, 100.0),
            bw_a2g=st.floats(1e3, 1e9),
            tx_power_dbm=st.floats(-20.0, 50.0),
            noise_dbm=st.floats(-150.0, -60.0),
        ),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_for_any_geometry_and_link(self, area, heights, channel, seed, n):
        # reference_delays prices one UAV at a time through a2g_rate, whose
        # bits test_channel checks against the formula in scalar math
        sc = Scenario(area=area, height_range=tuple(heights), channel=channel)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _channel_delays(sc, n, rng)
        want = reference_delays(sc, n, ref_rng)
        assert [d.hex() for d in got] == [d.hex() for d in want]
        assert rng.random() == ref_rng.random()

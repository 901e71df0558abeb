"""End-to-end CLI tests driven through the argparse entry point."""

import re

import pytest
import yaml

from honeygame.cli import main
from honeygame.model import participating_set, uav_utility
from honeygame.scenario import generate_population, load_scenario
from honeygame.solver import solve_partial

SMALL_SCENARIO = """
seed: 3
gcs: {budget: 10.0, s_max: 30.0}
population:
  distribution: explicit
  types:
    - {cost: 0.5, delay: 1.0}
    - {cost: 0.25, delay: 1.0}
"""

# the middle type misses the 2 s deadline
LATE_SCENARIO = """
seed: 3
gcs: {budget: 20.0, s_max: 60.0}
population:
  distribution: explicit
  types:
    - {cost: 0.9, delay: 1.0}
    - {cost: 0.5, delay: 9.0}
    - {cost: 0.2, delay: 1.0}
"""

# the costliest type and a middle one miss the 2 s deadline
LATE_TYPES_SCENARIO = """
seed: 3
gcs: {budget: 60.0, s_max: 60.0}
population:
  distribution: explicit
  types:
    - {cost: 0.95, delay: 2.6}
    - {cost: 0.8, delay: 1.2}
    - {cost: 0.5, delay: 3.0}
    - {cost: 0.3, delay: 1.7, count: 2}
    - {cost: 0.1, delay: 0.4}
"""

LEARN_SCENARIO = """
seed: 3
population:
  distribution: explicit
  types:
    - {cost: 0.5, delay: 0.001}
learner: {episodes: 200, hotboot_runs: 2, hotboot_length: 100}
"""


@pytest.fixture
def small_scenario(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SMALL_SCENARIO)
    return path


class TestSolve:
    def test_exit_zero_and_report(self, small_scenario, capsys):
        assert main(["solve", "--scenario", str(small_scenario)]) == 0
        out = capsys.readouterr().out
        assert "partial information menu" in out
        assert "budget ok       : True" in out

    def test_writes_menus(self, small_scenario, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--scenario", str(small_scenario), "--out", str(out)]) == 0
        menu = yaml.safe_load((out / "menu_partial.yaml").read_text())
        sizes = {e["type"]: e["vdd_size"] for e in menu["items"]}
        assert sizes[1] == pytest.approx(5.0)
        assert sizes[2] == pytest.approx(17.0)

    def test_printed_rows_match_menu_files_with_late_type(self, tmp_path, capsys):
        path = tmp_path / "late.yaml"
        path.write_text(LATE_SCENARIO)
        out = tmp_path / "run"
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        for name in ("complete", "partial"):
            section = printed.split(f"== {name} information menu")[1].split("\n==")[0]
            rows = re.findall(r"type (\d+): C = \S+, S = (\S+) bytes, R = (\S+)", section)
            menu = yaml.safe_load((out / f"menu_{name}.yaml").read_text())
            want = {e["type"]: e for e in menu["items"]}
            assert [int(idx) for idx, _, _ in rows] == [1, 3]
            for idx, size, reward in rows:
                assert size == f"{want[int(idx)]['vdd_size']:.6g}"
                assert reward == f"{want[int(idx)]['reward']:.6g}"
            assert want[3]["vdd_size"] > 0

    def test_seed_override(self, tmp_path, capsys):
        path = tmp_path / "s.yaml"
        path.write_text("population: {count: 3, distribution: uniform}\n")
        assert main(["solve", "--scenario", str(path), "--seed", "99"]) == 0


    def test_binding_budget_at_3000_types_passes_audit(self, tmp_path, capsys):
        # the left-to-right payment sum overshoots 46 * 3000 by about 1e-9;
        # math.fsum keeps the audit within its 1e-9 tolerance
        path = tmp_path / "large.yaml"
        path.write_text(
            "seed: 0\ngcs: {budget: 138000.0}\n"
            "population: {count: 3000, distribution: uniform, cost_range: [0.01, 1.0]}\n"
        )
        assert main(["solve", "--scenario", str(path)]) == 0
        assert "budget ok       : False" not in capsys.readouterr().out


class TestOracleCheck:
    def test_small_instance_passes(self, small_scenario, capsys):
        rc = main(["oracle-check", "--scenario", str(small_scenario), "--step", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "-> ok" in out

    def test_large_instance_refused(self, capsys):
        rc = main(["oracle-check"])  # default scenario has 10 types
        assert rc == 2

    def test_no_on_time_type_compares_zero_menus(self, tmp_path, capsys):
        path = tmp_path / "late.yaml"
        path.write_text("population: {distribution: explicit, types: [{cost: 0.5, delay: 5.0}]}\n")
        rc = main(["oracle-check", "--scenario", str(path), "--step", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("-> ok") == 2


class TestReproduce:
    def test_fig1_artifact(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "art"
        rc = main(["reproduce", "fig1", "--scenario", str(small_scenario), "--out", str(out)])
        assert rc == 0
        text = (out / "fig1.csv").read_text()
        assert text.splitlines()[0] == "type_index,marginal_cost,scheme,S_bytes,R"

    def test_late_types_ranked_in_fig1_and_fig3(self, tmp_path, capsys):
        path = tmp_path / "late.yaml"
        path.write_text(LATE_TYPES_SCENARIO)
        out = tmp_path / "art"
        for fig in ("fig1", "fig3"):
            assert main(["reproduce", fig, "--scenario", str(path), "--out", str(out)]) == 0
        sc = load_scenario(path)
        pop = generate_population(sc)
        part = participating_set(pop, sc.t_max)
        assert [t.index for t in part] == [2, 4, 5]
        menu = solve_partial(pop, sc.gcs, sc.t_max, sc.solver)
        ranked = list(enumerate(part, start=1))

        fig1 = [line.split(",") for line in (out / "fig1.csv").read_text().splitlines()[1:]]
        partial = [row for row in fig1 if row[2] == "partial"]
        assert partial == [
            [str(rank), f"{t.marginal_cost:.9g}", "partial",
             f"{menu.item(t.index).vdd_size:.9g}", f"{menu.item(t.index).reward:.9g}"]
            for rank, t in ranked
        ]
        assert len({row[3] for row in partial}) == len(part)  # items tell types apart

        fig3 = [line.split(",") for line in (out / "fig3.csv").read_text().splitlines()[1:]]
        assert fig3 == [
            [str(j), str(k), f"{uav_utility(t, menu.item(o.index), sc.t_max, sc.gcs):.9g}"]
            for j, t in ranked
            for k, o in ranked
        ]

    def test_unknown_experiment_rejected(self):
        for name in ("fig99", "fig9", "fig2"):
            with pytest.raises(SystemExit):
                main(["reproduce", name])

    def test_budget_mode_flag(self, small_scenario, tmp_path):
        out = tmp_path / "art"
        rc = main(
            [
                "reproduce",
                "fig1",
                "--scenario",
                str(small_scenario),
                "--out",
                str(out),
                "--budget-mode",
                "paper",
            ]
        )
        assert rc == 0


class TestLearn:
    def test_short_run_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "s.yaml"
        path.write_text(LEARN_SCENARIO)
        out = tmp_path / "art"
        rc = main(["learn", "--scenario", str(path), "--out", str(out)])
        assert rc == 0
        lines = (out / "fig8.csv").read_text().splitlines()
        assert lines[0] == "episode,type_index,S_bytes,R,uav_utility,gcs_utility"
        assert len(lines) == 1 + 200

    def test_no_on_time_type_writes_header_only(self, tmp_path, capsys):
        path = tmp_path / "s.yaml"
        path.write_text(LEARN_SCENARIO.replace("delay: 0.001", "delay: 3.0"))
        out = tmp_path / "art"
        rc = main(["learn", "--scenario", str(path), "--out", str(out)])
        assert rc == 0
        lines = (out / "fig8.csv").read_text().splitlines()
        assert lines == ["episode,type_index,S_bytes,R,uav_utility,gcs_utility"]

    def test_zero_episodes_writes_header_only(self, tmp_path, capsys):
        path = tmp_path / "s.yaml"
        path.write_text(LEARN_SCENARIO.replace("hotboot_runs: 2", "hotboot_runs: 0"))
        out = tmp_path / "art"
        rc = main(["learn", "--scenario", str(path), "--out", str(out), "--episodes", "0"])
        assert rc == 0
        lines = (out / "fig8.csv").read_text().splitlines()
        assert lines == ["episode,type_index,S_bytes,R,uav_utility,gcs_utility"]


class TestValidate:
    def test_solver_menu_validates(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "run"
        main(["solve", "--scenario", str(small_scenario), "--out", str(out)])
        rc = main(
            [
                "validate",
                "--scenario",
                str(small_scenario),
                "--menu",
                str(out / "menu_partial.yaml"),
            ]
        )
        assert rc == 0

    def test_corrupted_menu_fails(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "run"
        main(["solve", "--scenario", str(small_scenario), "--out", str(out)])
        menu_path = out / "menu_partial.yaml"
        data = yaml.safe_load(menu_path.read_text())
        data["items"][0]["reward"], data["items"][1]["reward"] = (
            data["items"][1]["reward"],
            data["items"][0]["reward"],
        )
        menu_path.write_text(yaml.safe_dump(data))
        rc = main(
            [
                "validate",
                "--scenario",
                str(small_scenario),
                "--menu",
                str(menu_path),
            ]
        )
        assert rc == 1

    def test_missing_file_diagnostic(self, small_scenario, capsys):
        rc = main(
            ["validate", "--scenario", str(small_scenario), "--menu", "/nonexistent.yaml"]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_prints_worst_pair(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "run"
        main(["solve", "--scenario", str(small_scenario), "--out", str(out)])
        capsys.readouterr()
        rc = main(["validate", "--scenario", str(small_scenario),
                   "--menu", str(out / "menu_partial.yaml")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(re.fullmatch(r"[a-zA-Z ]+ : \S.*", line) for line in lines)
        assert re.fullmatch(r"worst pair   : \(\d+, \d+\)", lines[-2])

    @pytest.mark.parametrize(
        "text, field",
        [
            ("- 1\n- 2\n", "mapping"),
            ("items: []\n", "t_max"),
            ("t_max: 2.0\n", "items"),
            ("t_max: 2.0\nitems: [{vdd_size: 1.0, reward: 2.0}]\n", "type"),
            ("t_max: 2.0\nitems: [{type: 1, reward: 2.0}]\n", "vdd_size"),
            ("t_max: 2.0\nitems: [{type: 1, vdd_size: 1.0}]\n", "reward"),
            ("t_max: 2.0\nitems: [{type: 1, vdd_size: 1.0, reward: null}]\n", "reward"),
            ("t_max: 2.0\nitems: [{type: 1\n", "expected"),
        ],
        ids=["not-mapping", "no-t_max", "no-items", "no-type", "no-vdd_size", "no-reward",
             "null-reward", "bad-yaml"],
    )
    def test_malformed_menu_exits_2(self, small_scenario, tmp_path, capsys, text, field):
        menu_path = tmp_path / "menu.yaml"
        menu_path.write_text(text)
        rc = main(["validate", "--scenario", str(small_scenario), "--menu", str(menu_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err


class TestScenarioErrors:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("x" * 5000, "must be a mapping"),
            ("channel: {bw_a2g: 1.0e6}", "channel.bw_a2g"),
            ("gcs: {budget: abc}", "gcs.budget"),
            ("population: {cost_range: [1e-2, 1.0]}", "population.cost_range"),
            ("t_max: 2.5e0", "t_max"),
            ("mobility: {slot_length: 1.0, v_max: 20.0}", "unknown top-level keys: ['mobility']"),
            ("channel: {light_speed: 0}", "unknown keys in channel: ['light_speed']"),
            ("learner: {learn_rate_gcs: 0.5}", "unknown keys in learner: ['learn_rate_gcs']"),
            ("population: {distribution: explicit, types: [{cost: 0.5}]}",
             "population.types[0].delay is missing"),
            ("population: {distribution: explicit, types: [1, 2]}",
             "population.types[0] must be a mapping"),
            ("population: {distribution: explicit, types: [{cost: 0.5, delay: 1.0, colour: red}]}",
             "population.types[0].colour"),
            ("population: {distribution: explicit, types: [{cost: 0.5, delay: 1.0, count: 1.5}]}",
             "population.types[0].count must be an integer"),
            ("population: {delay: fast}", "population.delay must be 'channel', a number"),
            ("population: {delay: [0.5, fast]}", "population.delay must be 'channel', a number"),
            ("t_max: -1", "t_max must be finite and > 0"),
            ("learner: {gcs_levels: 1}", "gcs_levels must be >= 2"),
            ("learner: {episodes: -1}", "episodes must be >= 0"),
            ("learner: {hotboot_jitter: 2.0}", "hotboot_jitter must be in [0, 1)"),
            ("channel: {carrier_hz: 0}", "carrier_hz must be finite and > 0"),
            ("channel: {tx_power_dbm: 1.0e+6}", "tx_power_dbm must give a finite power > 0 W"),
            ("channel: {noise_dbm: -1.0e+6}", "noise_dbm must give a finite power > 0 W"),
            ("population: {types: [{cost: 0.5, delay: 1.0}]}", "population.types"),
            ("population: {distribution: uniform, types: []}", "population.types"),
            ("channel: {atten_los: .inf}", "channel.atten_los must be finite and >= 0"),
            ("channel: {atten_nlos: -1.0}", "channel.atten_nlos must be finite and >= 0"),
            ("channel: {logit_a: .nan}", "channel.logit_a must be finite and >= 0"),
            ("channel: {logit_b: .inf}", "channel.logit_b must be finite and > 0"),
            ("channel: {gcs_height: .nan}", "channel.gcs_height must be finite and >= 0"),
            ("channel: {bw_a2g: .inf}", "channel.bw_a2g must be finite and > 0"),
            ("area: [.inf, 200.0]", "area must be finite and >= 0"),
            ("height_range: [-5.0, 1.0]", "height_range must be finite with 0 <= lo <= hi"),
            ("height_range: [80.0, 30.0]", "height_range must be finite with 0 <= lo <= hi"),
        ],
        ids=["long-text", "string-number", "string-budget", "string-in-pair", "string-t-max",
             "mobility", "light-speed", "per-side-learn-rate", "type-without-delay",
             "type-not-mapping", "unknown-type-key", "float-type-count", "string-delay",
             "string-in-delay-list", "negative-t-max", "one-gcs-level", "negative-episodes",
             "jitter-above-one", "zero-carrier", "huge-tx-power", "tiny-noise-power",
             "types-without-explicit", "empty-types-without-explicit", "infinite-atten-los",
             "negative-atten-nlos", "nan-logit-a", "infinite-logit-b", "nan-gcs-height",
             "infinite-bandwidth", "infinite-area", "negative-height", "inverted-height-range"],
    )
    def test_bad_scenario_exits_2(self, tmp_path, capsys, text, message):
        # rejected at load, so learn fails before it plays an episode
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        for command in ("solve", "learn"):
            rc = main([command, "--scenario", str(path), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert rc == 2, command
            assert err.startswith("error:") and message in err
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "reproduce fig1", "learn"])
    def test_missing_scenario_file_named(self, tmp_path, capsys, command):
        missing = tmp_path / "nonexistent.yaml"
        rc = main([*command.split(), "--scenario", str(missing)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and str(missing) in err
        assert "must be a mapping" not in err and "Traceback" not in err

"""End-to-end CLI tests driven through the argparse entry point."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from honeygame import cli, experiments, kernels, model, solver
from honeygame.cli import _canonical_menu, _menu_from_file, _menu_from_yaml, _menu_text, main
from honeygame.kernels import ItemColumns
from honeygame.model import ContractItem, ContractMenu, participating_set, uav_utility
from honeygame.scenario import YAML_DUMPER, Scenario, generate_population, load_scenario
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

    @pytest.mark.parametrize("count", [10_000, 100_000])
    def test_binding_budget_with_channel_delays_solves_and_validates(
        self, tmp_path, capsys, count
    ):
        # the water level meets the budget in its own summation order; the
        # emitted payments, totalled with math.fsum, once overshot 46 * J by
        # up to 1.6e-8 here
        path = tmp_path / "large.yaml"
        path.write_text(
            f"seed: 0\ngcs: {{budget: {46.0 * count!r}}}\n"
            f"population: {{count: {count}, distribution: uniform, delay: channel}}\n"
        )
        out = tmp_path / "run"
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 0
        assert "budget ok       : False" not in capsys.readouterr().out
        menu = str(out / "menu_partial.yaml")
        assert main(["validate", "--scenario", str(path), "--menu", menu]) == 0


class TestParser:
    def test_two_commands_build_the_parser_once(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            assert main(["solve", "--seed", "0"]) == 0
            assert main(["solve", "--seed", "1", "--budget-mode", "paper"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert capsys.readouterr().out.count("== partial information menu") == 2


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

    @pytest.mark.parametrize("fig", ["fig7", "sweep"])
    def test_explicit_population_not_swept(self, small_scenario, tmp_path, capsys, fig):
        # the sweep varies the UAV count, which an explicit type list fixes
        out = tmp_path / "art"
        rc = main(["reproduce", fig, "--scenario", str(small_scenario), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "population.distribution" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_solve_all_solves_the_partial_menu_once(self, monkeypatch):
        calls = []
        solve = solver.solve_partial

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(solver, "solve_partial", counted)
        monkeypatch.setattr(experiments, "solve_partial", counted)
        sc = Scenario()
        experiments._solve_all(generate_population(sc), sc.gcs, sc.t_max, sc.solver)
        assert len(calls) == 1

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
            (f"items:\n- reward: 1{'0' * 400}\n  type: 1\n  vdd_size: 1.0\nt_max: 2.0\n",
             "'reward' must be a number"),
            (f"{{items: [{{reward: 1{'0' * 400}, type: 1, vdd_size: 1.0}}], t_max: 2.0}}\n",
             "'reward' must be a number"),
            (f"items:\n- reward: 1.0\n  type: 1\n  vdd_size: 1.0\nt_max: 1{'0' * 400}\n",
             "'t_max' must be a number"),
            ("t_max: 2.0\nitems: [{type: .inf, vdd_size: 1.0, reward: 1.0}]\n",
             "'type' must be a number"),
        ],
        ids=["not-mapping", "no-t_max", "no-items", "no-type", "no-vdd_size", "no-reward",
             "null-reward", "bad-yaml", "huge-reward-block", "huge-reward-flow", "huge-t_max",
             "infinite-type"],
    )
    def test_malformed_menu_exits_2(self, small_scenario, tmp_path, capsys, text, field):
        menu_path = tmp_path / "menu.yaml"
        menu_path.write_text(text)
        rc = main(["validate", "--scenario", str(small_scenario), "--menu", str(menu_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err


# on-time types above model.ARRAY_MIN_TYPES, so the column kernels run
MANY_TYPES_SCENARIO = """
seed: 3
gcs: {budget: 4600.0}
population: {count: 100, distribution: uniform, delay: 1.0}
"""


class TestOneScanPerMenu:
    """Each audited menu gets one IR/IC scan: participation fairness is read
    from the feasibility report, not from a second scan.  Below
    ``model.ARRAY_MIN_TYPES`` on-time types the scan is
    ``model._incentive_scan``, from it on ``kernels._envelope_scan``."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """The (size, reward) items of every ``_incentive_scan`` and
        ``_envelope_scan`` call."""
        calls = []
        scan, envelope = model._incentive_scan, kernels._envelope_scan

        def counted(on_time, items, *args):
            calls.append([(it.vdd_size, it.reward) for it in items])
            return scan(on_time, items, *args)

        def counted_envelope(cost, sizes, rewards, *args):
            calls.append(list(zip(sizes.tolist(), rewards.tolist())))
            return envelope(cost, sizes, rewards, *args)

        monkeypatch.setattr(model, "_incentive_scan", counted)
        monkeypatch.setattr(kernels, "_envelope_scan", counted_envelope)
        return calls

    @pytest.fixture
    def many_types(self, tmp_path):
        path = tmp_path / "many.yaml"
        path.write_text(MANY_TYPES_SCENARIO)
        return path

    def test_many_types_scanned_once_per_menu(self, many_types, tmp_path, capsys, scans):
        out = tmp_path / "run"
        assert main(["solve", "--scenario", str(many_types), "--out", str(out)]) == 0
        assert len(scans) == 2
        scans.clear()
        assert main(["validate", "--scenario", str(many_types),
                     "--menu", str(out / "menu_partial.yaml")]) == 0
        assert len(scans) == 1
        assert "fairness     : participation=True, reward=True" in capsys.readouterr().out

    def test_many_types_audit_scans_partial_then_complete(self, many_types, scans):
        sc = load_scenario(str(many_types))
        pop = generate_population(sc)
        assert len(participating_set(pop, sc.t_max)) >= model.ARRAY_MIN_TYPES
        menus = experiments._solve_all(pop, sc.gcs, sc.t_max, sc.solver)
        scans.clear()
        experiments._audit(menus, pop, sc.gcs)
        items = {name: [(menu.item(t.index).vdd_size, menu.item(t.index).reward)
                        for t in participating_set(pop, sc.t_max)]
                 for name, menu in menus.items()}
        assert scans == [items["partial"], items["complete"]]

    def test_validate_scans_the_menu_once(self, small_scenario, tmp_path, capsys, scans):
        out = tmp_path / "run"
        assert main(["solve", "--scenario", str(small_scenario), "--out", str(out)]) == 0
        scans.clear()
        menu = str(out / "menu_partial.yaml")
        assert main(["validate", "--scenario", str(small_scenario), "--menu", menu]) == 0
        assert len(scans) == 1
        assert "fairness     : participation=True, reward=True" in capsys.readouterr().out

    def test_solve_scans_each_menu_once(self, small_scenario, capsys, scans):
        assert main(["solve", "--scenario", str(small_scenario)]) == 0
        assert len(scans) == 2
        assert "participation=True, reward=True" in capsys.readouterr().out

    def test_audit_scans_the_partial_menu_once(self, scans):
        sc = Scenario()
        pop = generate_population(sc)
        menus = experiments._solve_all(pop, sc.gcs, sc.t_max, sc.solver)
        scans.clear()
        experiments._audit(menus, pop, sc.gcs)
        on_time = participating_set(pop, sc.t_max)
        items = {name: [(menu.item(t.index).vdd_size, menu.item(t.index).reward) for t in on_time]
                 for name, menu in menus.items()}
        # the baselines are checked by their payment total alone
        assert scans == [items["partial"], items["complete"]]


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
            ("population: {count: 3, delay: 1.0, counts: [1, 0, 1]}",
             "population.counts[1] must be >= 1, got 0"),
            ("population: {count: 2, counts: [-2, 3]}", "population.counts[0] must be >= 1, got -2"),
            ("population: {distribution: explicit, types: [{cost: 0.5, delay: 1.0, count: 0}, "
             "{cost: 0.5, delay: 1.0, count: 1}]}", "population.types[0].count must be >= 1, got 0"),
            ("population: {distribution: explicit, types: [{cost: 0.5, delay: 1.0, count: -1}]}",
             "population.types[0].count must be >= 1, got -1"),
        ],
        ids=["long-text", "string-number", "string-budget", "string-in-pair", "string-t-max",
             "mobility", "light-speed", "per-side-learn-rate", "type-without-delay",
             "type-not-mapping", "unknown-type-key", "float-type-count", "string-delay",
             "string-in-delay-list", "negative-t-max", "one-gcs-level", "negative-episodes",
             "jitter-above-one", "zero-carrier", "huge-tx-power", "tiny-noise-power",
             "types-without-explicit", "empty-types-without-explicit", "infinite-atten-los",
             "negative-atten-nlos", "nan-logit-a", "infinite-logit-b", "nan-gcs-height",
             "infinite-bandwidth", "infinite-area", "negative-height", "inverted-height-range",
             "zero-count", "negative-count", "zero-count-type-merging-into-twin",
             "negative-type-count"],
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


def _menu_dict(menu) -> dict:
    """The mapping a menu file holds, for ``yaml.dump``."""
    return {
        "t_max": menu.t_max,
        "items": [
            {"type": index, "vdd_size": item.vdd_size, "reward": item.reward}
            for index, item in sorted(menu.items.items())
        ],
    }


def _outcome(read, text: str) -> str:
    """repr of the menu ``read`` makes of ``text`` (which tells -0.0 from 0.0),
    or of the ValueError it raises."""
    try:
        return repr(read(text))
    except ValueError as exc:
        return f"ValueError: {exc}"


AWKWARD_FLOATS = st.one_of(
    st.floats(),
    st.floats(max_value=1e-300, min_value=-1e-300),
    st.floats(min_value=1e16),
    st.integers(-10**20, 10**20).map(float),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, -0.0, 0.0, 1e16,
                     1e22, 9007199254740993.0, 1.7976931348623157e308, math.nan, math.inf,
                     -math.inf]),
    st.integers(0, 10**30),
)
INDICES = st.one_of(st.integers(0, 1000), st.integers(-10**30, 10**30))


@st.composite
def raw_menus(draw, values=AWKWARD_FLOATS, min_size=0):
    """Menus as plain attribute holders, so that values ContractItem would
    refuse (negative, nan, inf) can still be written."""
    items = draw(st.dictionaries(INDICES, st.tuples(values, values), min_size=min_size,
                                 max_size=max(6, min_size + 8)))
    return SimpleNamespace(
        t_max=draw(values),
        items={k: SimpleNamespace(vdd_size=s, reward=r) for k, (s, r) in items.items()},
    )


VALID_FLOATS = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.sampled_from([5e-324, 1e-310, 1e-05, -0.0, 1e16, 1e22, 300.0]),
)

VALID_VALUES = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.sampled_from([5e-324, 1e-310, -0.0, 1e16, 1e22, 300.0]),
    st.integers(0, 10**30),
)


class TestMenuCodec:
    @given(menu=raw_menus())
    @settings(max_examples=200, deadline=None)
    def test_writer_matches_yaml_dump(self, menu):
        assert _menu_text(menu) == yaml.dump(_menu_dict(menu), Dumper=YAML_DUMPER)

    @given(menu=raw_menus(min_size=model.ARRAY_MIN_TYPES))
    @settings(max_examples=25, deadline=None)
    def test_column_writer_matches_yaml_dump(self, menu):
        # menus as long as solved ones from ARRAY_MIN_TYPES types up
        assert _menu_text(menu) == yaml.dump(_menu_dict(menu), Dumper=YAML_DUMPER)

    @given(menu=raw_menus())
    @settings(max_examples=200, deadline=None)
    def test_fast_reader_agrees_with_yaml(self, menu):
        # the fast reader may pass a text on (None) but never reads it otherwise
        text = _menu_text(menu)
        fast = _outcome(_canonical_menu, text)
        if fast != "None":
            assert fast == _outcome(lambda t: _menu_from_yaml(t, "menu.yaml"), text)

    @given(menu=raw_menus(VALID_VALUES), t_max=st.floats(min_value=1e-300, max_value=1e300))
    @settings(max_examples=200, deadline=None)
    def test_fast_reader_reads_every_written_menu(self, menu, t_max):
        menu = ContractMenu(
            t_max=t_max,
            items={k: ContractItem(it.vdd_size, it.reward) for k, it in menu.items.items()},
        )
        text = _menu_text(menu)
        fast = _canonical_menu(text)
        assert fast is not None
        assert repr(fast) == repr(_menu_from_yaml(text, "menu.yaml"))
        assert fast == ContractMenu(t_max=t_max, items={
            k: ContractItem(float(it.vdd_size), float(it.reward)) for k, it in menu.items.items()
        })

    @given(data=st.data(), t_max=st.floats(min_value=1e-300, max_value=1e300))
    @settings(max_examples=30, deadline=None)
    def test_column_menus_write_and_read_as_yaml_does(self, data, t_max):
        # menus held as columns are written from them, and from ARRAY_MIN_TYPES
        # items the reader returns columns
        n = data.draw(st.integers(model.ARRAY_MIN_TYPES, model.ARRAY_MIN_TYPES + 8))
        floats = st.lists(VALID_FLOATS, min_size=n, max_size=n)
        sizes, rewards = data.draw(floats), data.draw(floats)
        menu = ContractMenu(t_max=t_max, items=ItemColumns(np.array(sizes), np.array(rewards)))
        text = _menu_text(menu)
        assert text == yaml.dump(_menu_dict(menu), Dumper=YAML_DUMPER)
        fast = _canonical_menu(text)
        assert isinstance(fast.items, ItemColumns)
        assert repr(fast) == repr(_menu_from_yaml(text, "menu.yaml")) == repr(menu)

    @pytest.mark.parametrize("field", ["vdd_size", "reward"])
    def test_column_reader_names_the_first_bad_row(self, field):
        n = model.ARRAY_MIN_TYPES + 2
        menu = ContractMenu(t_max=2.0, items=ItemColumns(np.linspace(0.0, 9.0, n), np.ones(n)))
        lines = _menu_text(menu).split("\n")
        for row in (5, 9):  # two bad rows: the error names the first
            at = 1 + 3 * row + (2 if field == "vdd_size" else 0)
            lines[at] = lines[at].rsplit(" ", 1)[0] + " -1.5"
        text = "\n".join(lines)
        fast = _outcome(_canonical_menu, text)
        assert fast.startswith(f"ValueError: {field} must be finite and >= 0")
        assert fast == _outcome(lambda t: _menu_from_yaml(t, "menu.yaml"), text)

    def test_empty_menu(self):
        menu = ContractMenu(t_max=2.0, items={})
        text = _menu_text(menu)
        assert text == "items: []\nt_max: 2.0\n"
        assert _canonical_menu(text) == menu == _menu_from_yaml(text, "menu.yaml")

    CANONICAL = "items:\n- reward: 2.5\n  type: 1\n  vdd_size: 1.5\nt_max: 2.0\n"

    @pytest.mark.parametrize(
        "text, item",
        [
            (yaml.dump(yaml.safe_load(CANONICAL), default_flow_style=True), (1, 1.5, 2.5)),
            ("t_max: 2.0\nitems:\n- type: 1\n  vdd_size: 1.5\n  reward: 2.5\n", (1, 1.5, 2.5)),
            ("# written by hand\n" + CANONICAL, (1, 1.5, 2.5)),
            (CANONICAL.replace("reward: 2.5", "reward: 2.5  # paid"), (1, 1.5, 2.5)),
            (CANONICAL.replace("type: 1", "type: 010"), (8, 1.5, 2.5)),
            (CANONICAL.replace("reward: 2.5", "reward: 1e5"), (1, 1.5, 100000.0)),
            (CANONICAL.replace("vdd_size: 1.5", "vdd_size: 1.5 "), (1, 1.5, 2.5)),
            (CANONICAL + "note: hand-edited\n", (1, 1.5, 2.5)),
            (CANONICAL.replace("\n", "\r\n"), (1, 1.5, 2.5)),
        ],
        ids=["flow-style", "reordered-keys", "comment-line", "trailing-comment", "octal-type",
             "no-dot-exponent", "trailing-space", "extra-key", "crlf"],
    )
    def test_other_spellings_load_as_yaml_reads_them(self, tmp_path, text, item):
        path = tmp_path / "menu.yaml"
        path.write_bytes(text.encode())
        read_back = path.read_text()  # universal newlines turn CRLF into the canonical text
        assert (_canonical_menu(read_back) is None) == (read_back != self.CANONICAL)
        index, size, reward = item
        expected = ContractMenu(t_max=2.0, items={index: ContractItem(size, reward)})
        assert _menu_from_file(str(path)) == _menu_from_yaml(read_back, str(path)) == expected

    @pytest.mark.parametrize("style", ["flow", "reordered"])
    def test_validate_reads_other_yaml_layouts(self, small_scenario, tmp_path, capsys, style):
        out = tmp_path / "run"
        assert main(["solve", "--scenario", str(small_scenario), "--out", str(out)]) == 0
        data = yaml.safe_load((out / "menu_partial.yaml").read_text())
        if style == "flow":
            text = yaml.dump(data, Dumper=YAML_DUMPER, default_flow_style=True)
        else:
            items = [{k: e[k] for k in ("vdd_size", "type", "reward")} for e in data["items"]]
            text = yaml.dump({"t_max": data["t_max"], "items": items}, sort_keys=False)
        assert _canonical_menu(text) is None
        menu = tmp_path / "menu.yaml"
        menu.write_text(text)
        assert main(["validate", "--scenario", str(small_scenario), "--menu", str(menu)]) == 0

"""End-to-end CLI tests driven through the argparse entry point."""

import contextlib
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from honeygame import cli, experiments, kernels, model, oracle, solver
from honeygame.cli import _canonical_menu, _menu_from_file, _menu_from_yaml, _menu_text, main
from honeygame.model import ContractMenu, participating_set, uav_payoff
from honeygame.scenario import YAML_DUMPER, Scenario, generate_population, load_scenario
from honeygame.solver import solve_partial

import test_golden_outputs as golden

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

    @pytest.mark.parametrize("argv", [
        ["validate", "--menu", "menu.yaml", "--out", "out"],
        ["oracle-check", "--out", "out"],
        ["validate", "--menu", "menu.yaml", "--budget-mode", "exact"],
        ["learn", "--budget-mode", "exact"],
    ], ids=["validate-out", "oracle-check-out", "validate-budget-mode", "learn-budget-mode"])
    def test_option_the_command_ignores_exits_2(self, tmp_path, capsys, argv):
        # an option is registered only on the commands that read it
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--scenario", str(tmp_path / "scenario.yaml")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_oracle_check_takes_the_budget_mode(self):
        args = cli.build_parser().parse_args(["oracle-check", "--budget-mode", "paper"])
        assert args.budget_mode == "paper"


class TestOracleCheck:
    def test_small_instance_passes(self, small_scenario, capsys):
        rc = main(["oracle-check", "--scenario", str(small_scenario), "--step", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "-> ok" in out

    def test_large_instance_refused(self, capsys, monkeypatch):
        solved = []
        monkeypatch.setattr(cli, "solve_complete", lambda *args: solved.append(args))
        rc = main(["oracle-check"])  # default scenario has 10 types
        assert rc == 2
        limit = oracle.MAX_ORACLE_TYPES
        assert capsys.readouterr().err == (f"error: the oracle takes at most {limit} on-time "
                                           f"types, got 10\n")
        assert not solved

    def test_no_on_time_type_compares_zero_menus(self, tmp_path, capsys):
        path = tmp_path / "late.yaml"
        path.write_text("population: {distribution: explicit, types: [{cost: 0.5, delay: 5.0}]}\n")
        rc = main(["oracle-check", "--scenario", str(path), "--step", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("-> ok") == 2


    @pytest.mark.parametrize("step", ["inf", "nan", "-inf"])
    def test_non_finite_step_exits_2(self, small_scenario, capsys, step):
        rc = main(["oracle-check", "--scenario", str(small_scenario), f"--step={step}"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: s_step must be finite and > 0")


class TestOversizedRequests:
    # a request too large to allocate (an oracle grid of 1e-12-byte steps,
    # 10**12 learner episodes) ends in numpy's MemoryError; a stub raises it
    # here, since a real one could be allocated lazily and end in the OOM killer
    @pytest.mark.parametrize("command, module, name", [
        (["learn", "--episodes", "1000000000000"], cli, "run_experiment"),
        (["oracle-check", "--step", "1e-12"], oracle, "grid_search_complete"),
    ], ids=["learn", "oracle-check"])
    def test_memory_error_exits_2(self, small_scenario, monkeypatch, capsys, command, module,
                                  name):
        def unable(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000000000000,) and data type float64")

        monkeypatch.setattr(module, name, unable)
        rc = main([*command, "--scenario", str(small_scenario)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: out of memory: Unable to allocate 7.28 TiB")
        assert "Traceback" not in err


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
             f"{menu.sizes[t.index - 1]:.9g}", f"{menu.rewards[t.index - 1]:.9g}"]
            for rank, t in ranked
        ]
        assert len({row[3] for row in partial}) == len(part)  # items tell types apart

        fig3 = [line.split(",") for line in (out / "fig3.csv").read_text().splitlines()[1:]]
        assert fig3 == [
            [str(j), str(k), format(uav_payoff(t.marginal_cost, menu.sizes[o.index - 1],
                                               menu.rewards[o.index - 1], sc.gcs.deploy_cost),
                                    ".9g")]
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

    def test_trajectory_peak_memory(self, tmp_path, capsys):
        # the traced peak of learn on the default 10 types over 2 000
        # episodes, measured on Linux x86-64, Python 3.11.7, numpy 2.4.6:
        # 3.9 MB when each log held six columns and fig8.csv was joined in
        # memory, 0.9 MB with two level indices per episode and the rows
        # formatted one type at a time
        path = tmp_path / "s.yaml"
        path.write_text("learner: {hotboot_runs: 0, episodes: 2000}\n")
        argv = ["learn", "--scenario", str(path), "--out", str(tmp_path)]
        assert main(argv) == 0  # imports and caches fill before the trace
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_learner_error_writes_no_file(self, tmp_path, capsys):
        # hotboot jitters the cost past the float range: the learner fails
        # before fig8.csv is opened
        path = tmp_path / "s.yaml"
        path.write_text("gcs: {s_max: 1.0}\n"
                        "population: {distribution: explicit,\n"
                        "             types: [{cost: 1.7e+308, delay: 1.0}]}\n"
                        "learner: {hotboot_runs: 20, hotboot_length: 1, hotboot_jitter: 0.5}\n")
        out = tmp_path / "art"
        assert main(["learn", "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: hotboot_jitter takes a marginal cost past the float range")
        assert not out.exists()

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
             "'type' must be an integer"),
            # values the reader once coerced: 2.7 and true read as types 2 and 1,
            # a quoted size as its number, and a true deadline as 1.0
            ("t_max: 2.0\nitems: [{type: 2.7, vdd_size: 1.0, reward: 1.0}]\n",
             "items[0]: field 'type' must be an integer, got 2.7"),
            ("t_max: 2.0\nitems: [{type: true, vdd_size: 1.0, reward: 1.0}]\n",
             "items[0]: field 'type' must be an integer, got True"),
            ("t_max: 2.0\nitems: [{type: 1, vdd_size: '1.5', reward: 1.0}]\n",
             "items[0]: field 'vdd_size' must be a number, got '1.5'"),
            ("t_max: true\nitems: [{type: 1, vdd_size: 1.0, reward: 1.0}]\n",
             "field 't_max' must be a number, got True"),
            # YAML 1.1 reads an exponent without a dot or a sign as a string
            ("items:\n- reward: 1e5\n  type: 1\n  vdd_size: 1.5\nt_max: 2.0\n",
             "items[0]: field 'reward' must be a number, got '1e5'"),
            # type indices outside 1..J (J = 2 here) or repeated, in both readers
            ("items:\n- reward: 1.0\n  type: 0\n  vdd_size: 1.0\nt_max: 2.0\n",
             "items[0]: type 0 is outside 1..2"),
            ("t_max: 2.0\nitems: [{type: 1, vdd_size: 1.0, reward: 1.0},"
             " {type: 3, vdd_size: 1.0, reward: 1.0}]\n",
             "items[1]: type 3 is outside 1..2"),
            ("items:\n- reward: 1.0\n  type: -1\n  vdd_size: 1.0\nt_max: 2.0\n",
             "items[0]: type -1 is outside 1..2"),
            ("items:\n- reward: 1.0\n  type: 2\n  vdd_size: 1.0\n"
             "- reward: 1.0\n  type: 2\n  vdd_size: 1.0\nt_max: 2.0\n",
             "items[1]: type 2 repeats items[0]"),
        ],
        ids=["not-mapping", "no-t_max", "no-items", "no-type", "no-vdd_size", "no-reward",
             "null-reward", "bad-yaml", "huge-reward-block", "huge-reward-flow", "huge-t_max",
             "infinite-type", "float-type", "bool-type", "str-vdd_size", "bool-t_max",
             "no-dot-exponent",
             "zero-type", "type-past-J", "negative-type", "repeated-type"],
    )
    def test_malformed_menu_exits_2(self, small_scenario, tmp_path, capsys, text, field):
        menu_path = tmp_path / "menu.yaml"
        menu_path.write_text(text)
        rc = main(["validate", "--scenario", str(small_scenario), "--menu", str(menu_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err


# tokens a hand edit may leave in a menu field: numbers the writer never
# writes, type indices 0, negative, past J = 10, float, bool and str, and text
# that is no number or breaks the YAML
GARBLED = st.sampled_from([
    "0", "-3", "11", "1", "10", "2.7", "true", "'2'", "null", "", "x", "1.5.5", "-1.5", ".nan",
    "-.inf", "1e5", "1.0e+5", "1" + "0" * 400, "[1, 2]", "{a: 1}", "'", ": :", "- 3", "010",
    "1.0e+308",
])
# finite values at the ends of the float range, as the writer writes them
EXTREME_TOKENS = st.sampled_from(["1.0e+308", "1.7976931348623157e+308", "1.0e+300", "5.0e-324"])


@st.composite
def mutated_menu_files(draw, texts):
    """One of ``texts`` with tokens garbled, swapped or repeated, a field's
    every value at an end of the float range, lines reordered, CRLF line
    ends or a truncated tail."""
    lines = draw(st.sampled_from(texts)).split("\n")
    at = st.integers(0, len(lines) - 1)
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(at), draw(at)
        (key_a, sep_a, token_a), (key_b, sep_b, token_b) = (lines[a].rpartition(": "),
                                                            lines[b].rpartition(": "))
        kind = draw(st.sampled_from(["garble", "swap", "copy", "extreme", "reorder"]))
        if kind == "extreme":  # e.g. rewards whose total passes the float range
            prefix, token = draw(st.sampled_from(cli._ITEM_LINES[::2])), draw(EXTREME_TOKENS)
            lines = [prefix + token if line.startswith(prefix) else line for line in lines]
        elif kind == "garble" and sep_a:
            lines[a] = key_a + sep_a + draw(GARBLED)
        elif kind == "swap" and sep_a and sep_b:  # e.g. a size into a type field
            lines[a], lines[b] = key_a + sep_a + token_b, key_b + sep_b + token_a
        elif kind == "copy" and sep_a and sep_b:  # e.g. a repeated type index
            lines[a] = key_a + sep_a + token_b
        else:  # reordered keys within or across items
            lines[a], lines[b] = lines[b], lines[a]
    text = "\n".join(lines)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text.replace("\n", "\r\n") if draw(st.booleans()) else text


@pytest.fixture(scope="module")
def default_menus(tmp_path_factory):
    """The directory ``solve --out`` wrote the default scenario's menus to,
    and the text of each menu."""
    out = tmp_path_factory.mktemp("menus")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--out", str(out)]) == 0
    return out, [(out / f"menu_{name}.yaml").read_text() for name in ("complete", "partial")]


class TestMenuFuzz:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_validate_never_ends_in_a_traceback(self, default_menus, data):
        out, texts = default_menus
        path = out / "fuzzed.yaml"
        path.write_bytes(data.draw(mutated_menu_files(texts)).encode())
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["validate", "--menu", str(path)])
        assert rc in (0, 1, 2)
        assert (rc == 2) == err.getvalue().startswith("error:")
        assert "Traceback" not in err.getvalue()

    def test_small_runs_never_load_the_kernels(self, tmp_path):
        # the kernels serve populations of model.ARRAY_MIN_TYPES on-time types
        # and more; the default 10 types run the loops and never import them
        script = (
            "import sys\n"
            "from honeygame.cli import main\n"
            "out = sys.argv[1]\n"
            "codes = [main(['solve', '--out', out]),\n"
            "         main(['validate', '--menu', out + '/menu_partial.yaml']),\n"
            "         main(['reproduce', 'fig7', '--out', out])]\n"
            "print(codes, 'honeygame.kernels' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                                capture_output=True, text=True, timeout=120, check=True)
        assert result.stdout.splitlines()[-1] == "[0, 0, 0] False"


# scenario values at and past the edges of what a float or an int64 holds,
# and values of the wrong type
EXTREME_NUMBERS = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-05, 0.5, 12.0, 100.0, 710.0,
                                   1e300, 1.7976931348623157e308, -1.0, math.inf, -math.inf,
                                   math.nan, 10**400])
HUGE_COUNTS = st.sampled_from([0, -1, 2**31, 2**62, 2**63 - 1, 2**63, 2**64, 10**30])
WRONG_TYPES = st.sampled_from(["abc", "1e5", None, True, [], {}, [1.0], {"a": 1}])
LOGITS = st.floats(0.0, 1e3) | st.floats(0.0, 1e308)
# usual satisfactions, and ones near the float range, at which the per-type
# products or only their total over types pass it
SATISFACTIONS = st.floats(0.5, 12.0) | st.floats(305.0, 308.0).map(lambda e: 10.0 ** e)
# each channel field's usual values; the extremes come from EXTREME_NUMBERS
CHANNEL_FIELDS = {
    "atten_los": st.floats(0.0, 30.0), "atten_nlos": st.floats(0.0, 60.0),
    "logit_a": LOGITS, "logit_b": LOGITS, "carrier_hz": st.floats(1e6, 1e11),
    "gcs_height": st.floats(0.0, 200.0), "bw_a2g": st.floats(1e3, 1e9),
    "tx_power_dbm": st.floats(-60.0, 60.0), "noise_dbm": st.floats(-150.0, -30.0),
}


@st.composite
def scenario_dicts(draw):
    """Scenarios of 1 to 4 types: generated, explicit or late-only
    populations, extreme values in every channel field (carrier frequencies
    and bandwidths whose rates or delays pass the float range among them) and
    elsewhere, huge and zero counts, a short learner run, and at times one
    field of the wrong type."""

    def pick(usual, odd):  # the odd value about one time in five
        return draw(odd if draw(st.integers(0, 4)) == 0 else usual)

    def number():
        return pick(st.floats(0.01, 3.0), EXTREME_NUMBERS)

    def count():
        return pick(st.integers(1, 3), HUGE_COUNTS)

    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["even", "uniform", "explicit", "late-only"]))
    types = [{"cost": number(), "count": count(),
              "delay": draw(st.floats(2.5, 10.0)) if kind == "late-only" else number()}
             for _ in range(n)]
    if kind in ("explicit", "late-only"):
        population = {"distribution": "explicit", "types": types}
    else:
        population = {"distribution": kind, "count": n,
                      "delay": draw(st.sampled_from(["channel", number(), [number() for _ in types]])),
                      "counts": draw(st.none() | st.just([t["count"] for t in types]))}
    channel = {key: pick(usual, EXTREME_NUMBERS) for key, usual in CHANNEL_FIELDS.items()
               if draw(st.booleans())}
    gcs = {"budget": pick(st.floats(0.0, 1000.0), EXTREME_NUMBERS),
           "satisfaction": pick(SATISFACTIONS, EXTREME_NUMBERS)}
    learner = {"episodes": draw(st.integers(0, 5)), "hotboot_runs": draw(st.integers(0, 2)),
               "hotboot_length": draw(st.integers(1, 5))}
    scenario = {"seed": pick(st.integers(0, 2**32 - 1), HUGE_COUNTS),
                "t_max": 2.0 if kind == "late-only" else pick(st.just(2.0), EXTREME_NUMBERS),
                "population": population, "channel": channel, "gcs": gcs, "learner": learner}
    if draw(st.integers(0, 3)) == 0:
        places = [(scenario, "seed"), (scenario, "t_max")] + [
            (section, key) for section in (population, channel, gcs, learner, *types)
            for key in section]
        section, key = draw(st.sampled_from(places))
        section[key] = draw(WRONG_TYPES)
    return scenario


# valid values from the smallest float to the largest, for the fields the
# solvers and audits read
VALID_EXTREMES = st.sampled_from([5e-324, 1e-300, 1e150, 1e300, 1.7976931348623157e308])


@st.composite
def wide_scenario_dicts(draw):
    """Valid scenarios of ``model.ARRAY_MIN_TYPES`` to 8 more generated types,
    so that the column kernels serve them when enough types are on time:
    channel or equal delays, counts up to 2**55, and valid values from 5e-324
    to the largest float in the cost range, the deadline and the GCS fields."""

    def number(usual):  # an extreme value about one time in two
        return draw(usual | VALID_EXTREMES)

    n = draw(st.integers(model.ARRAY_MIN_TYPES, model.ARRAY_MIN_TYPES + 8))
    counts = st.sampled_from([1, 2, 3, 2**31, 2**40, 2**55]) | st.integers(1, 2**55)
    population = {
        "distribution": draw(st.sampled_from(["even", "uniform"])), "count": n,
        "cost_range": sorted(number(st.floats(0.0, 1.0)) for _ in range(2)),
        "delay": draw(st.just("channel") | st.floats(0.01, 3.0)),
        "counts": draw(st.none() | st.lists(counts, min_size=n, max_size=n)),
    }
    gcs = {"budget": number(st.floats(1.0, 1e5)), "satisfaction": number(st.floats(0.5, 12.0)),
           "s_max": number(st.floats(1.0, 300.0)), "deploy_cost": number(st.floats(0.0, 2.0))}
    return {"seed": draw(st.integers(0, 2**32 - 1)), "t_max": number(st.floats(0.5, 3.0)),
            "population": population, "gcs": gcs}


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzzed")


def _runs_without_a_traceback(scenario: dict, where: Path, commands: list[list[str]]) -> None:
    """Run each command on the scenario: exit 0, 1 or 2, with an ``error:``
    line exactly when it is not 0 (``oracle-check`` reports a failed
    comparison on stdout), no traceback, and only finite objectives."""
    path = where / "scenario.yaml"
    path.write_text(yaml.dump(scenario, Dumper=YAML_DUMPER))
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*command, "--scenario", str(path)])
        assert rc in (0, 1, 2), command
        compared = command[0] == "oracle-check" and rc == 1
        assert (rc != 0 and not compared) == err.getvalue().startswith("error:"), command
        assert "Traceback" not in err.getvalue()
        objectives = OBJECTIVES.findall(out.getvalue())
        assert all(math.isfinite(float(v)) for v in objectives), (command, objectives)


# the objectives ``solve`` and ``oracle-check`` print
OBJECTIVES = re.compile(r"(?:GCS utility +: |social surplus +: |solver objective |, oracle )"
                        r"([^,\s]+)")


# coarse oracle grids over the default s_max of 300 bytes, and steps it refuses
ORACLE_STEPS = st.sampled_from(["100", "150", "300", "7", "0", "-1", "inf", "nan"])


class TestScenarioFuzz:
    @given(scenario=scenario_dicts())
    @settings(max_examples=150, deadline=None)
    def test_solve_and_fig7_never_end_in_a_traceback(self, scenario_dir, scenario):
        _runs_without_a_traceback(scenario, scenario_dir,
                                  [["solve"], ["reproduce", "fig7", "--out", str(scenario_dir)]])

    @given(scenario=scenario_dicts(), step=ORACLE_STEPS, episodes=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_other_commands_never_end_in_a_traceback(self, scenario_dir, scenario, step,
                                                      episodes):
        out = ["--out", str(scenario_dir)]
        _runs_without_a_traceback(scenario, scenario_dir, [
            ["learn", "--episodes", str(episodes), *out], ["oracle-check", f"--step={step}"],
            *(["reproduce", fig, *out] for fig in ("fig1", "fig3", "fig4", "fig5", "fig6")),
        ])

    @given(scenario=wide_scenario_dicts(), mode=st.sampled_from(["exact", "paper"]))
    @settings(max_examples=100, deadline=None)
    def test_wide_solve_and_validate_never_end_in_a_traceback(self, scenario_dir, scenario,
                                                              mode):
        out = scenario_dir / "wide"
        shutil.rmtree(out, ignore_errors=True)
        with warnings.catch_warnings():
            # an overflow gives inf quietly on the kernel path as on the loops
            warnings.simplefilter("error", RuntimeWarning)
            _runs_without_a_traceback(scenario, scenario_dir, [
                ["solve", "--budget-mode", mode, "--out", str(out)]])
            if not (out / "menu_partial.yaml").exists():
                return
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(["validate", "--scenario", str(out / "scenario.yaml"),
                           "--menu", str(out / "menu_partial.yaml")])
        assert rc in (0, 1) or (rc == 2 and err.getvalue().startswith("error:"))
        assert "Traceback" not in err.getvalue()

    def test_extreme_line_of_sight_logistic(self, tmp_path, capsys):
        # exp(-logit_b (theta - logit_a)) overflows below about 29 degrees of
        # elevation, where the logistic is at its limit: no line of sight
        path = tmp_path / "scenario.yaml"
        path.write_text("channel: {logit_a: 100.0, logit_b: 10.0}\n")
        assert main(["solve", "--scenario", str(path)]) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err


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

        def counted(on_time, sizes, rewards, *args):
            calls.append(list(zip(sizes, rewards)))
            return scan(on_time, sizes, rewards, *args)

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
        items = {name: [(menu.sizes[t.index - 1], menu.rewards[t.index - 1])
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
        items = {name: [(menu.sizes[t.index - 1], menu.rewards[t.index - 1]) for t in on_time]
                 for name, menu in menus.items()}
        # the baselines are checked by their payment total alone
        assert scans == [items["partial"], items["complete"]]


class TestUnservableBudget:
    """A budget below the deployment cost of the on-time UAVs is an input
    error, raised before any menu is solved: the solvers would return the
    zero menu, which fails IR by the deployment cost."""

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("solved a menu")

        for module in (cli, experiments):
            for name in ("solve_complete", "solve_partial"):
                monkeypatch.setattr(module, name, solve)

    def run(self, argv, scenario, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(scenario)
        capsys.readouterr()
        rc = main([*argv, "--scenario", str(path), "--out", str(tmp_path / "out")])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["solve"], ["reproduce", "fig1"], ["reproduce", "fig3"]])
    def test_exits_2_before_any_solve(self, argv, tmp_path, capsys, no_solve):
        rc, err = self.run(argv, "gcs: {budget: 5.0}\n", tmp_path, capsys)
        assert rc == 2
        assert err == ("error: budget 5.0 cannot pay the deployment of the 10 on-time UAVs: "
                       "deploy_cost x 10 = 10.0\n")
        assert not (tmp_path / "out").exists()

    def test_sweep_reads_its_own_budgets(self, tmp_path, capsys):
        # fig7 pairs each UAV count with budgets of its own
        rc, err = self.run(["reproduce", "fig7"], "gcs: {budget: 5.0}\n", tmp_path, capsys)
        assert (rc, err) == (0, "")

    def test_sweep_point_named(self, tmp_path, capsys):
        # two UAVs cost 100 to deploy, against the low budget of 92
        rc, err = self.run(["reproduce", "fig7"], "gcs: {deploy_cost: 50.0}\n", tmp_path, capsys)
        assert rc == 2
        assert err == ("error: uav_count 2, budget_tag low: budget 92.0 cannot pay the deployment "
                       "of the 2 on-time UAVs: deploy_cost x 2 = 100.0\n")


# about half the channel delays of these shapes exceed it
HALF_LATE = "t_max: 0.00022\n"
VERDICT_SHAPES = {
    "j10": "seed: 0\n",
    "j100": golden.HUNDRED_TYPES,
    "j1000": golden.MANY_TYPES,
    "late-types": golden.LATE_TYPES,
}
VERDICT_SHAPES |= {f"{name}-half-late": text + HALF_LATE for name, text in
                   list(VERDICT_SHAPES.items())[:3]}


class TestOneVerdict:
    """``solve`` and ``validate`` pass a menu types choose from by the same
    verdict, the report's ``all_ok``."""

    @staticmethod
    def fairness(stdout: str) -> list[str]:
        return [line.split(":", 1)[1].strip() for line in stdout.splitlines()
                if line.strip().startswith("fairness")]

    @pytest.mark.parametrize("shape", sorted(VERDICT_SHAPES))
    def test_solve_and_validate_agree(self, shape, tmp_path, capsys):
        path, out = tmp_path / "scenario.yaml", tmp_path / "out"
        path.write_text(VERDICT_SHAPES[shape])
        solved = main(["solve", "--seed", "0", "--scenario", str(path), "--out", str(out)])
        solve_fairness = self.fairness(capsys.readouterr().out)
        validated = main(["validate", "--seed", "0", "--scenario", str(out / "scenario.yaml"),
                          "--menu", str(out / "menu_partial.yaml")])
        assert validated == solved
        assert self.fairness(capsys.readouterr().out) == solve_fairness
        assert len(solve_fairness) == 1

    @pytest.mark.parametrize("paid, reward_fair", [(1e-10, True), (1e-8, False)])
    def test_late_reward_tolerance(self, paid, reward_fair, tmp_path, capsys):
        # type 1 misses the deadline: any reward breaks its zero item, but
        # reward fairness forgives one up to the audit tolerance
        path, out = tmp_path / "scenario.yaml", tmp_path / "out"
        path.write_text(golden.LATE_TYPES)
        assert main(["solve", "--seed", "0", "--scenario", str(path), "--out", str(out)]) == 0
        menu = _menu_from_file(str(out / "menu_partial.yaml"), 4)
        assert menu.rewards[0] == 0.0
        rewards = menu.rewards.copy()
        rewards[0] = paid
        paid_menu = tmp_path / "paid.yaml"
        paid_menu.write_text(_menu_text(ContractMenu(menu.t_max, menu.sizes, rewards)))
        capsys.readouterr()
        assert main(["validate", "--seed", "0", "--scenario", str(out / "scenario.yaml"),
                     "--menu", str(paid_menu)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "monotone ok  : False" in lines
        assert f"fairness     : participation=True, reward={reward_fair}" in lines


def _extreme_menu(kind: str, n: int) -> ContractMenu:
    """A menu of ``n`` types with values near the float range: rewards of
    1.0e+308 for types 1 and 2, whose total passes it, or the largest float
    as the size of every type but the first, which gets a 1.0e+308 reward, so
    that the IC slacks pass it."""
    sizes, rewards = np.zeros(n), np.zeros(n)
    if kind == "rewards":
        rewards[:2] = 1e308
    else:
        sizes[1:], rewards[0] = sys.float_info.max, 1e308
    return ContractMenu(2.0, sizes, rewards)


class TestExtremeMenus:
    """validate of menus whose audit sums or slacks pass the float range,
    through the loops (the default 10 types) and through the kernels (100
    on-time types): the audit fails (exit 1), with no traceback and no
    warning."""

    @pytest.mark.parametrize("kind", ["rewards", "sizes"])
    @pytest.mark.parametrize("types", [10, 100])
    def test_validate_fails_quietly(self, tmp_path, capsys, recwarn, kind, types):
        scenario = []
        if types == 100:
            (tmp_path / "many.yaml").write_text(MANY_TYPES_SCENARIO)
            scenario = ["--scenario", str(tmp_path / "many.yaml")]
        menu = tmp_path / "menu.yaml"
        menu.write_text(_menu_text(_extreme_menu(kind, types)))
        assert main(["validate", "--menu", str(menu), *scenario]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert "budget ok    : False" in out and "worst slack  : -inf" in out
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


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
            ("population: {count: 2, delay: 1.0, counts: [9223372036854775807, 1]}",
             "type counts must total less than 2**63, got 9223372036854775808"),
            ("population: {distribution: explicit, types: [{cost: 0.5, delay: 1.0, count: "
             "9223372036854775807}, {cost: 0.5, delay: 1.0}]}",
             "type counts must total less than 2**63, got 9223372036854775808"),
            ("population: {distribution: explicit, types: [{cost: -0.5, delay: 1.0}]}",
             "marginal_cost must be finite and >= 0, got -0.5"),
            ("gcs: {budget: 1" + "0" * 400 + "}", "gcs.budget must be a number"),
            # the free-space loss is so negative that the SNR passes the
            # float range: an infinite rate, a zero delay
            ("channel: {carrier_hz: 1.0e-300}", "delay must be finite and > 0, got 0.0"),
            # a rate so small that the delay passes the float range
            ("channel: {bw_a2g: 5.0e-324}", "delay must be finite and > 0, got inf"),
            # each product an objective is built from must be a finite float
            ("population: {distribution: even, count: 4, delay: [5.0e-324, 1.0, 1.0, 3.0]}",
             "type 4 (cost 0.01, delay 5e-324, count 1): count / delay passes the float range"),
            ("population: {distribution: explicit, types: [{cost: 1.0e+300, delay: 1.0, "
             "count: 10000000000}]}",
             "type 1 (cost 1e+300, delay 1.0, count 10000000000): count x cost passes"),
            ("gcs: {satisfaction: 1.0e+308}", "satisfaction x count / delay x log1p(s_max) passes"),
            # each type's product is finite, their total is not
            ("gcs: {satisfaction: 1.0e+307, budget: 1000.0}\n"
             "population: {distribution: even, count: 4, delay: 1.0}",
             "the sum over types of satisfaction x count / delay x log1p(s_max) passes"),
            ("gcs: {deploy_cost: 1.0e+308}", "gcs.deploy_cost x the UAV count passes the float"),
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
             "negative-type-count", "counts-past-int64", "twins-past-int64",
             "negative-type-cost", "int-past-float", "tiny-carrier", "tiny-bandwidth",
             "tiny-delay", "huge-count-x-cost", "huge-satisfaction", "huge-satisfaction-total",
             "huge-deploy-cost"],
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

    @pytest.mark.parametrize("command, option, text", [
        ("solve", "--scenario", "population: {nest}\n"),
        ("validate", "--menu", "items: {nest}\nt_max: 2.0\n"),
    ], ids=["scenario", "menu"])
    def test_deep_nesting_exits_2(self, tmp_path, command, option, text):
        # libyaml composes nodes recursively in C: 30 000 nested lists
        # overflow its stack (the interpreter dies with SIGSEGV) unless the
        # file is refused before it is composed
        path = tmp_path / "deep.yaml"
        path.write_text(text.format(nest="[" * 30_000 + "]" * 30_000))
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-m", "honeygame.cli", command, option, str(path)],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert f"{path} nests deeper than 1000 levels" in result.stderr

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
    rows = zip(menu.sizes.tolist(), menu.rewards.tolist())
    return {
        "t_max": menu.t_max,
        "items": [{"type": k, "vdd_size": s, "reward": r} for k, (s, r) in enumerate(rows, 1)],
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
# what a hand-edited field may hold besides numbers: PyYAML quotes the strings
NOT_NUMBERS = st.one_of(st.booleans(), st.none(), st.sampled_from(["1.5", "1", "x", ""]))
INDICES = st.one_of(st.integers(-1, 9), st.integers(-10**30, 10**30), st.floats(0.0, 9.0),
                    NOT_NUMBERS)


@st.composite
def raw_menu_texts(draw):
    """Menu files in the writer's layout, dumped by PyYAML from values a menu
    refuses (negative, nan, inf, past a float, booleans, strings), type
    indices in any order, outside 1..J or repeated."""
    value = st.one_of(AWKWARD_FLOATS, NOT_NUMBERS)
    entries = draw(st.lists(st.tuples(INDICES, value, value), max_size=8))
    return yaml.dump({"t_max": draw(value), "items": [
        {"type": k, "vdd_size": s, "reward": r} for k, s, r in entries
    ]}, Dumper=YAML_DUMPER)


VALID_FLOATS = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.sampled_from([5e-324, 1e-310, 1e-05, -0.0, 1e16, 1e22, 300.0]),
)
T_MAXES = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def menus(draw, min_size=0, t_max=T_MAXES):
    """Menus of finite sizes and rewards >= 0, with -0.0, subnormals and
    values whose ``repr`` has an exponent among them."""
    n = draw(st.integers(min_size, min_size + 8))
    floats = st.lists(VALID_FLOATS, min_size=n, max_size=n)
    return ContractMenu(draw(t_max), draw(floats), draw(floats))


def _read_both(text: str, n: int) -> tuple[str, str]:
    """The outcomes of the column reader and the YAML reader on ``text``."""
    return (_outcome(lambda t: _canonical_menu(t, "menu.yaml", n), text),
            _outcome(lambda t: _menu_from_yaml(t, "menu.yaml", n), text))


# a pool of column values: few distinct ones repeat heavily, 0.0 sits
# beside -0.0, and some reprs have an exponent without a dot (1e-05)
COLUMN_POOLS = st.lists(VALID_FLOATS | st.sampled_from([0.0, -0.0, 1e-05, 1e16, 2.5e-308]),
                        min_size=1, max_size=6)


@st.composite
def float_columns(draw):
    """Columns drawn from a small pool (heavy repeats), or all distinct."""
    if draw(st.booleans()):
        return draw(st.lists(VALID_FLOATS, min_size=1, max_size=80, unique_by=float.hex))
    pool = draw(COLUMN_POOLS)
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))


def _yaml_tokens(values: list) -> list[str]:
    """The token PyYAML's safe dumper writes for each of the numbers."""
    return [line[2:] for line in yaml.dump(values, Dumper=YAML_DUMPER).splitlines()]


def _written_float(token: str) -> bool:
    """Whether PyYAML writes ``token`` for a finite float."""
    try:
        value = float(token)
    except ValueError:
        return False
    return math.isfinite(value) and _yaml_tokens([value]) == [token]


# tokens a hand-edited field may hold: written floats and ints, other
# spellings of numbers (which only the YAML reader may take) and junk
TOKENS = st.one_of(
    VALID_FLOATS.map(lambda value: _yaml_tokens([value])[0]),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1e5", "1e-05", "1.0e+5", "1.0e-05", "010", "-0", "+1.5", "1_0", " 1.5",
                     "1.5 ", "1.5\r", "inf", ".inf", "-.inf", ".nan", "nan", "0x10", "1.", ".5",
                     "", "x", "-0.0", "0.0", "0", "5", "1.0E+16", "1" + "0" * 400, "1e400",
                     "1.0e+308", str(int(sys.float_info.max)), str(int(sys.float_info.max) + 1)]),
)


class TestColumnCodec:
    @given(values=float_columns())
    @settings(max_examples=300, deadline=None)
    def test_writer_tokens_are_what_yaml_writes(self, values):
        assert cli._number_tokens(np.array(values)) == _yaml_tokens(values)

    @given(pool=st.lists(TOKENS, min_size=1, max_size=6), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_reader_takes_exactly_the_writers_tokens(self, pool, data):
        # the fast reader takes a field column exactly when every token is
        # one the writer writes for a finite float; any other column goes on
        # (None) to the YAML reader, whose outcome validate then reports
        tokens = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40)
                           | st.permutations(pool))
        written = all(map(_written_float, tokens))
        got = cli._float_column([cli._ITEM_LINES[2] + token for token in tokens],
                                cli._ITEM_LINES[2])
        # repr tells -0.0 from 0.0
        assert repr(got) == repr(list(map(float, tokens)) if written else None)
        text = "items:\n" + "".join(f"- reward: 1.0\n  type: {k}\n  vdd_size: {token}\n"
                                    for k, token in enumerate(tokens, 1)) + "t_max: 2.0\n"
        fast, slow = _read_both(text, len(tokens))
        assert fast == (slow if written else "None")

    @given(token=TOKENS)
    @settings(max_examples=200, deadline=None)
    def test_t_max_takes_the_writers_float_and_int_tokens(self, token):
        # an int t_max (a scenario's ``t_max: 2``) is written with str
        try:
            written_int = str(int(token)) == token and abs(int(token)) <= sys.float_info.max
        except ValueError:
            written_int = False
        fast, slow = _read_both(f"items: []\nt_max: {token}\n", 0)
        assert fast == (slow if _written_float(token) or written_int else "None")

    @given(values=float_columns())
    @settings(max_examples=100, deadline=None)
    def test_written_columns_read_back(self, values):
        lines = [cli._ITEM_LINES[0] + token for token in cli._number_tokens(np.array(values))]
        assert repr(cli._float_column(lines, cli._ITEM_LINES[0])) == repr(values)

    def test_zero_and_negative_zero_keep_their_tokens(self):
        values = [0.0, -0.0, 0.0, -0.0, 1e-05, 1e-05]
        tokens = cli._number_tokens(np.array(values))
        assert tokens == ["0.0", "-0.0", "0.0", "-0.0", "1.0e-05", "1.0e-05"]
        lines = [cli._ITEM_LINES[0] + token for token in tokens]
        assert repr(cli._float_column(lines, cli._ITEM_LINES[0])) == repr(values)


class TestMenuCodec:
    @given(menu=menus(t_max=T_MAXES | st.integers(1, 10**30)))
    @settings(max_examples=200, deadline=None)
    def test_writer_matches_yaml_dump(self, menu):
        assert _menu_text(menu) == yaml.dump(_menu_dict(menu), Dumper=YAML_DUMPER)

    @given(menu=menus(min_size=model.ARRAY_MIN_TYPES))
    @settings(max_examples=25, deadline=None)
    def test_column_writer_matches_yaml_dump(self, menu):
        # menus as long as those the kernels solve, from ARRAY_MIN_TYPES types up
        assert _menu_text(menu) == yaml.dump(_menu_dict(menu), Dumper=YAML_DUMPER)

    @given(text=raw_menu_texts(), n=st.integers(0, 8))
    @settings(max_examples=300, deadline=None)
    def test_fast_reader_agrees_with_yaml(self, text, n):
        # the fast reader may pass a text on (None) but never reads it otherwise
        fast, slow = _read_both(text, n)
        if fast != "None":
            assert fast == slow

    @given(menu=menus(t_max=T_MAXES | st.integers(1, 10**30)))
    @settings(max_examples=200, deadline=None)
    def test_fast_reader_reads_every_written_menu(self, menu):
        # an int t_max reads back as its float
        text = _menu_text(menu)
        fast, slow = _read_both(text, len(menu.sizes))
        assert fast == slow == repr(ContractMenu(float(menu.t_max), menu.sizes, menu.rewards))

    @given(menu=menus(min_size=model.ARRAY_MIN_TYPES))
    @settings(max_examples=30, deadline=None)
    def test_column_menus_write_and_read_as_yaml_does(self, menu):
        text = _menu_text(menu)
        assert text == yaml.dump(_menu_dict(menu), Dumper=YAML_DUMPER)
        fast, slow = _read_both(text, len(menu.sizes))
        assert fast == slow == repr(menu)

    @pytest.mark.parametrize("field", ["vdd_size", "reward"])
    def test_column_reader_names_the_first_bad_row(self, field):
        n = model.ARRAY_MIN_TYPES + 2
        menu = ContractMenu(2.0, np.linspace(0.0, 9.0, n), np.ones(n))
        lines = _menu_text(menu).split("\n")
        for row in (5, 9):  # two bad rows: the error names the first
            at = 1 + 3 * row + (2 if field == "vdd_size" else 0)
            lines[at] = lines[at].rsplit(" ", 1)[0] + " -1.5"
        fast, slow = _read_both("\n".join(lines), n)
        assert fast.startswith(f"ValueError: {field} must be finite and >= 0")
        assert fast == slow

    def test_empty_menu(self):
        menu = ContractMenu(2.0, [], [])
        text = _menu_text(menu)
        assert text == "items: []\nt_max: 2.0\n"
        assert _read_both(text, 0) == (repr(menu), repr(menu))
        # for a scenario of 3 types every row is the zero item
        zero = ContractMenu(2.0, [0.0] * 3, [0.0] * 3)
        assert _read_both(text, 3) == (repr(zero), repr(zero))

    # the column reader takes types 1..J in order only and passes any other
    # type column on (None) to the YAML reader, which places the items

    def test_types_left_out_get_the_zero_row(self):
        text = "items:\n- reward: 2.5\n  type: 3\n  vdd_size: 1.5\nt_max: 2.0\n"
        want = repr(ContractMenu(2.0, [0.0, 0.0, 1.5, 0.0], [0.0, 0.0, 2.5, 0.0]))
        assert _read_both(text, 4) == ("None", want)

    @pytest.mark.parametrize("order", [(2, 1), (3, 1, 2), (2, 3)])
    def test_items_go_to_their_rows_in_any_order(self, order):
        text = "items:\n" + "".join(
            f"- reward: {2.0 * k}\n  type: {k}\n  vdd_size: {1.0 * k}\n" for k in order
        ) + "t_max: 2.0\n"
        n = max(order)
        sizes = [float(k) if k in order else 0.0 for k in range(1, n + 1)]
        want = repr(ContractMenu(2.0, sizes, [2.0 * s for s in sizes]))
        assert _read_both(text, n) == ("None", want)

    CANONICAL = "items:\n- reward: 2.5\n  type: 1\n  vdd_size: 1.5\nt_max: 2.0\n"

    @pytest.mark.parametrize(
        "text, item",
        [
            (yaml.dump(yaml.safe_load(CANONICAL), default_flow_style=True), (1, 1.5, 2.5)),
            ("t_max: 2.0\nitems:\n- type: 1\n  vdd_size: 1.5\n  reward: 2.5\n", (1, 1.5, 2.5)),
            ("# written by hand\n" + CANONICAL, (1, 1.5, 2.5)),
            (CANONICAL.replace("reward: 2.5", "reward: 2.5  # paid"), (1, 1.5, 2.5)),
            (CANONICAL.replace("type: 1", "type: 010"), (8, 1.5, 2.5)),
            (CANONICAL.replace("reward: 2.5", "reward: 1.0e+5"), (1, 1.5, 100000.0)),
            (CANONICAL.replace("vdd_size: 1.5", "vdd_size: 1.5 "), (1, 1.5, 2.5)),
            (CANONICAL + "note: hand-edited\n", (1, 1.5, 2.5)),
            (CANONICAL.replace("\n", "\r\n"), (1, 1.5, 2.5)),
        ],
        ids=["flow-style", "reordered-keys", "comment-line", "trailing-comment", "octal-type",
             "signed-exponent", "trailing-space", "extra-key", "crlf"],
    )
    def test_other_spellings_load_as_yaml_reads_them(self, tmp_path, text, item):
        path = tmp_path / "menu.yaml"
        path.write_bytes(text.encode())
        read_back = path.read_text()  # universal newlines turn CRLF into the canonical text
        assert (_canonical_menu(read_back, str(path), 8) is None) == (read_back != self.CANONICAL)
        index, size, reward = item
        expected = ContractMenu.placed(8, 2.0, [index - 1], [size], [reward])
        assert _menu_from_file(str(path), 8) == _menu_from_yaml(read_back, str(path), 8) == expected

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
        assert _canonical_menu(text, "menu.yaml", 2) is None
        menu = tmp_path / "menu.yaml"
        menu.write_text(text)
        assert main(["validate", "--scenario", str(small_scenario), "--menu", str(menu)]) == 0

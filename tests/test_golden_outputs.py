"""Every CLI output stays byte-identical.

``fixtures/output_hashes.json`` holds the SHA-256 of each file that
``reproduce`` and ``solve --out`` write for the cases below.  fig8 runs on a
short learner, on the default learner (2 000 episodes after 10 hotboot runs
of 500) and on an explicit four-type scenario whose two late types sit
between on-time types of unequal counts.  The contract tables (fig1 and
fig3–fig6) also run, in both budget modes, on that scenario, which checks
the rank-to-row mapping past late types, and on 100 uniform types with
channel delays, whose fig3 table has 10 000 rows.  ``solve`` runs on the 10 default
types and on 1 000 uniform types with channel delays and a binding budget,
which covers the menu writer and the channel-delay draw at scale.
``validate`` reads the two 1 000-type menus that ``solve --out`` writes,
and a re-indented copy of the partial one that only the YAML reader
takes; its standard output is hashed (the validate cases were frozen from
the column reader that checked every token's round trip).  The
hashes were frozen from the code before unread outputs and fields were
deleted from the package (the fig8 cases from the per-type learner, before
its pairs were batched; the 1 000-type cases from the PyYAML menu writer), on
this platform: Linux x86-64, Python 3.11.7, numpy 2.4.6, PyYAML 6.0.3 with
libyaml.  A refactor that must keep every output byte regenerates each case
here and compares; another platform's float formatting or libm may
legitimately differ.
"""

import hashlib
import json
from pathlib import Path

import pytest

from honeygame.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "output_hashes.json"

SHORT_LEARNER = "learner: {episodes: 200, hotboot_runs: 2, hotboot_length: 100}\n"

# ranks 1 and 2 are population indices 2 and 4; indices 1 and 3 miss t_max = 2
LATE_TYPES = """\
population:
  distribution: explicit
  types:
    - {cost: 0.9, delay: 3.0}
    - {cost: 0.6, delay: 1.0, count: 3}
    - {cost: 0.4, delay: 2.5, count: 2}
    - {cost: 0.2, delay: 0.5, count: 2}
learner: {hotboot_runs: 0}
"""

MANY_TYPES = """\
population: {count: 1000, distribution: uniform, delay: channel}
gcs: {budget: 46000.0}
"""

# past ARRAY_MIN_TYPES on-time types, so the contract tables read array views
HUNDRED_TYPES = """\
population: {count: 100, distribution: uniform, delay: channel}
gcs: {budget: 4600.0}
"""


def _cases() -> dict[str, tuple[list[str], str | None]]:
    """Case name -> (command line without --out, scenario text or None for
    the built-in defaults)."""
    cases = {}
    for fig in ("fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "sweep"):
        for mode in ("exact", "paper"):
            for seed in (0, 1, 2):
                cases[f"reproduce-{fig}-{mode}-seed{seed}"] = (
                    ["reproduce", fig, "--seed", str(seed), "--budget-mode", mode], None
                )
    # the contract tables map ranks to rows: with late types, and at scale
    for fig in ("fig1", "fig3", "fig4", "fig5", "fig6"):
        for mode in ("exact", "paper"):
            for tag, scenario in (("late-types", LATE_TYPES), ("j100", HUNDRED_TYPES)):
                cases[f"reproduce-{fig}-{mode}-{tag}-seed0"] = (
                    ["reproduce", fig, "--seed", "0", "--budget-mode", mode], scenario
                )
    cases["reproduce-fig8-seed0"] = (["reproduce", "fig8", "--seed", "0"], SHORT_LEARNER)
    for seed in (0, 1, 2):
        cases[f"reproduce-fig8-default-seed{seed}"] = (
            ["reproduce", "fig8", "--seed", str(seed)], None
        )
    cases["reproduce-fig8-late-types-seed0"] = (["reproduce", "fig8", "--seed", "0"], LATE_TYPES)
    for mode in ("exact", "paper"):
        cases[f"solve-{mode}-seed0"] = (["solve", "--seed", "0", "--budget-mode", mode], None)
        cases[f"solve-j1000-{mode}-seed0"] = (
            ["solve", "--seed", "0", "--budget-mode", mode], MANY_TYPES
        )
    return cases


CASES = _cases()

# validate case -> (menu file of the 1 000-type seed-0 solve, re-indented?)
VALIDATE_CASES = {
    "validate-j1000-partial-seed0": ("menu_partial.yaml", False),
    "validate-j1000-complete-seed0": ("menu_complete.yaml", False),
    "validate-j1000-partial-reindented-seed0": ("menu_partial.yaml", True),
}


def output_hashes(argv: list[str], scenario: str | None, tmp_path: Path) -> dict[str, str]:
    """Run one command into a fresh directory and hash every file it wrote."""
    out = tmp_path / "out"
    if scenario is not None:
        path = tmp_path / "scenario.yaml"
        path.write_text(scenario)
        argv = [*argv, "--scenario", str(path)]
    assert main([*argv, "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def frozen() -> dict[str, dict[str, str]]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(frozen):
    assert sorted(frozen) == sorted([*CASES, *VALIDATE_CASES])


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_unchanged(name, frozen, tmp_path, capsys):
    assert output_hashes(*CASES[name], tmp_path) == frozen[name]


def solve_many_types(work: Path) -> Path:
    """``work``, holding ``solve --out`` of the 1 000-type scenario, seed 0."""
    (work / "scenario.yaml").write_text(MANY_TYPES)
    assert main(["solve", "--seed", "0", "--scenario", str(work / "scenario.yaml"),
                 "--out", str(work)]) == 0
    return work


@pytest.fixture(scope="module")
def many_types_menus(tmp_path_factory) -> Path:
    """The directory of ``solve --out`` on the 1 000-type scenario, seed 0."""
    return solve_many_types(tmp_path_factory.mktemp("many-types"))


def _reindented(text: str) -> str:
    """The same YAML document with its list items indented by two spaces."""
    head, _, rest = text.partition("\n")
    body, t_max = rest.rsplit("t_max: ", 1)
    return "\n".join([head, *("  " + line for line in body.splitlines())]) + "\nt_max: " + t_max


def validate_hash(name: str, menus: Path, tmp_path: Path, capsys) -> dict[str, str]:
    """The hash of what validate case ``name`` prints, reading the menus that
    ``solve_many_types`` wrote into ``menus``."""
    menu_name, reindent = VALIDATE_CASES[name]
    menu = menus / menu_name
    if reindent:
        menu = tmp_path / menu_name
        menu.write_text(_reindented((menus / menu_name).read_text()))
    capsys.readouterr()
    main(["validate", "--seed", "0", "--scenario", str(menus / "scenario.yaml"),
          "--menu", str(menu)])
    stdout = capsys.readouterr().out
    return {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}


@pytest.mark.parametrize("name", sorted(VALIDATE_CASES))
def test_validate_stdout_unchanged(name, frozen, many_types_menus, tmp_path, capsys):
    assert validate_hash(name, many_types_menus, tmp_path, capsys) == frozen[name]

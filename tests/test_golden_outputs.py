"""Every CLI output stays byte-identical.

``fixtures/output_hashes.json`` holds the SHA-256 of each file that
``reproduce`` and ``solve --out`` write for the cases below.  fig8 runs on a
short learner, on the default learner (2 000 episodes after 10 hotboot runs
of 500) and on an explicit four-type scenario whose two late types sit
between on-time types of unequal counts.  The hashes were frozen from the
code before unread outputs and fields were deleted from the package (the
fig8 cases from the per-type learner, before its pairs were batched), on
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
    cases["reproduce-fig8-seed0"] = (["reproduce", "fig8", "--seed", "0"], SHORT_LEARNER)
    for seed in (0, 1, 2):
        cases[f"reproduce-fig8-default-seed{seed}"] = (
            ["reproduce", "fig8", "--seed", str(seed)], None
        )
    cases["reproduce-fig8-late-types-seed0"] = (["reproduce", "fig8", "--seed", "0"], LATE_TYPES)
    for mode in ("exact", "paper"):
        cases[f"solve-{mode}-seed0"] = (["solve", "--seed", "0", "--budget-mode", mode], None)
    return cases


CASES = _cases()


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
    assert sorted(frozen) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_unchanged(name, frozen, tmp_path, capsys):
    assert output_hashes(*CASES[name], tmp_path) == frozen[name]

"""Command-line front end.

Subcommands:

* ``solve``        one scenario -> optimal menus plus a feasibility report
* ``oracle-check`` closed-form solvers vs. the brute-force grid oracles
* ``learn``        two-tier PHC run, trajectory CSV
* ``reproduce``    named experiment (fig1, fig3..fig8, sweep) -> CSV table
* ``validate``     feasibility/fairness audit of a menu file

Menu files (``solve --out``) are written directly as the text ``yaml.dump``
gives for ``{items: [{reward, type, vdd_size}, ...], t_max}``.  ``validate``
reads a file in exactly that form column by column and parses any other
file as YAML, with the same field checks.

Exit code 0 on success; nonzero with a diagnostic on any invariant
violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import re
import sys
from pathlib import Path
from typing import Mapping

import numpy as np
import yaml

from . import model
from .experiments import EXPERIMENTS, AuditError, run_experiment
from .model import (
    ContractItem,
    ContractMenu,
    Population,
    _kernels,
    check_feasibility,
    check_reward_fairness,
    defensive_effectiveness,
    gcs_utility,
    participating_set,
    social_surplus,
)
from .scenario import (
    YAML_LOADER,
    Scenario,
    dump_scenario,
    generate_population,
    load_scenario,
)
from .solver import BUDGET_EXACT, PAPER_LITERAL, solve_complete, solve_partial


def _load(args) -> Scenario:
    sc = load_scenario(Path(args.scenario)) if args.scenario else Scenario()
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "budget_mode", None):
        mode = BUDGET_EXACT if args.budget_mode == "exact" else PAPER_LITERAL
        updates["solver"] = dataclasses.replace(sc.solver, budget_mode=mode)
    return dataclasses.replace(sc, **updates) if updates else sc


def _yaml_number(x: float) -> str:
    """``x`` as PyYAML's safe representer writes it: an int with ``str``; a
    float as ``.nan``, ``.inf`` or ``-.inf``, else as its lower-case
    ``repr`` with ``.0`` put before an exponent that has no dot
    (``1e-05`` -> ``1.0e-05``)."""
    if isinstance(x, int):
        return str(x)
    if math.isnan(x):
        return ".nan"
    if math.isinf(x):
        return ".inf" if x > 0 else "-.inf"
    text = repr(x).lower()
    if "." not in text and "e" in text:
        text = text.replace("e", ".0e", 1)
    return text


# in a list's repr: a float repr whose exponent has no dot, and nan or an infinity
_DOTLESS_EXPONENT = re.compile(r"(?<![\d.])(-?\d+)e")
_NON_FINITE = re.compile(r"(?<![\w.])(-?)(inf|nan)")


def _number_tokens(values: list) -> list[str]:
    """``_yaml_number`` of each int or float, formatted at once: the ``repr``
    of the list, with ``.0`` put before an exponent that has no dot and
    YAML's spelling of nan and the infinities, split."""
    text = repr(values)[1:-1]
    if "e" in text:
        text = _DOTLESS_EXPONENT.sub(r"\1.0e", text)
    if "n" in text:
        text = _NON_FINITE.sub(r"\1.\2", text)
    return text.split(", ")


def _item_columns(items: Mapping) -> tuple[list, list, list]:
    """The rewards, type indices and sizes of a menu's items in type order."""
    if isinstance(items, dict):
        pairs = sorted(items.items())
        return ([it.reward for _, it in pairs], [k for k, _ in pairs],
                [it.vdd_size for _, it in pairs])
    # ``kernels.ItemColumns``: row n holds type n + 1
    return items.rewards.tolist(), list(range(1, len(items) + 1)), items.sizes.tolist()


def _menu_text(menu: ContractMenu) -> str:
    """The menu file: the bytes ``yaml.dump`` writes for ``{items: [{reward,
    type, vdd_size}, ...], t_max}`` with the items in type order, each
    field's column formatted at once."""
    t_max = f"t_max: {_yaml_number(menu.t_max)}\n"
    if not menu.items:
        return "items: []\n" + t_max
    body = "".join(map("- reward: %s\n  type: %s\n  vdd_size: %s\n".__mod__,
                       zip(*map(_number_tokens, _item_columns(menu.items)))))
    return f"items:\n{body}{t_max}"


# the line prefixes of one item in a menu file, and the field each introduces
_ITEM_LINES = ("- reward: ", "  type: ", "  vdd_size: ")


def _number(token: str) -> float | None:
    """The float ``token`` stands for, if ``_yaml_number`` writes that float,
    or an int a float can hold, back as ``token``; else None."""
    try:
        value = float(token)
        if _yaml_number(value) == token:
            return value
        value = int(token)
        return float(value) if str(value) == token else None
    except (ValueError, OverflowError):
        return None


def _float_column(tokens: list[str]) -> list[float] | None:
    """The floats of one menu field's tokens, or None unless ``_number``
    reads every one.  A token that is its float's ``repr`` and holds a dot
    is what ``_yaml_number`` writes for that float; only the other tokens
    take ``_number``'s round trip."""
    try:
        values = list(map(float, tokens))
    except ValueError:
        return None
    odd = [n for n, (text, token) in enumerate(zip(map(repr, values), tokens))
           if text != token or "." not in token]
    for n in odd:
        values[n] = _number(tokens[n])
        if values[n] is None:
            return None
    return values


def _column(lines: list[str], prefix: str, integer: bool) -> list | None:
    """One menu field's numbers, from its lines, or None unless every line
    is ``prefix`` and a token that reads back: an int ``str`` writes as the
    token (if ``integer``), else a float ``_float_column`` accepts."""
    if not all(map(str.startswith, lines, itertools.repeat(prefix))):
        return None
    tokens = [line[len(prefix):] for line in lines]
    if not integer:
        return _float_column(tokens)
    try:
        values = list(map(int, tokens))
    except ValueError:
        return None
    return values if list(map(str, values)) == tokens else None


def _canonical_menu(text: str) -> ContractMenu | None:
    """Read a menu file written exactly as ``_menu_text`` writes one, without
    a YAML parser.  Any other text (comments, flow style, other key orders
    or spellings such as ``010`` or ``1e5``) gives None."""
    lines = text.split("\n")
    body = lines[1:-2]
    if (len(lines) < 3 or lines[-1] or len(body) % 3
            or lines[0] != ("items:" if body else "items: []")
            or not lines[-2].startswith("t_max: ")):
        return None
    rewards, indices, sizes = columns = [
        _column(body[n::3], prefix, n == 1) for n, prefix in enumerate(_ITEM_LINES)
    ]
    t_max = _number(lines[-2][len("t_max: "):])
    if None in columns or t_max is None:
        return None
    if len(indices) >= model.ARRAY_MIN_TYPES and indices == list(range(1, len(indices) + 1)):
        items = _kernels().ItemColumns(np.array(sizes, dtype=float), np.array(rewards, dtype=float))
    else:
        items = dict(zip(indices, map(ContractItem, sizes, rewards)))
    return ContractMenu(t_max=t_max, items=items)


def _menu_from_file(path: str) -> ContractMenu:
    text = Path(path).read_text()
    menu = _canonical_menu(text)
    return menu if menu is not None else _menu_from_yaml(text, path)


def _menu_from_yaml(text: str, path: str) -> ContractMenu:
    data = yaml.load(text, Loader=YAML_LOADER)
    if not isinstance(data, dict):
        raise ValueError(f"menu file {path} must be a mapping")
    entries = _menu_field(data, "items", path)
    if not isinstance(entries, list):
        raise ValueError(f"menu file {path}: items must be a list")
    items = {}
    for n, entry in enumerate(entries):
        where = f"{path}: items[{n}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be a mapping")
        index = _menu_field(entry, "type", where, int)
        items[index] = ContractItem(
            _menu_field(entry, "vdd_size", where, float), _menu_field(entry, "reward", where, float)
        )
    return ContractMenu(t_max=_menu_field(data, "t_max", path, float), items=items)


def _menu_field(data: dict, key: str, where: str, kind=None):
    if key not in data:
        raise ValueError(f"{where}: missing field {key!r}")
    if kind is None:
        return data[key]
    try:
        return kind(data[key])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where}: field {key!r} must be a number, got {data[key]!r}") from None


def _cmd_solve(args) -> int:
    sc = _load(args)
    pop = generate_population(sc)
    menus = {
        "complete": solve_complete(pop, sc.gcs, sc.t_max, sc.solver),
        "partial": solve_partial(pop, sc.gcs, sc.t_max, sc.solver),
    }
    failures = 0
    for name, menu in menus.items():
        report = check_feasibility(menu, pop, sc.gcs)
        print(f"== {name} information menu (t_max = {menu.t_max:g} s) ==")
        print(_type_lines(menu, pop), end="")
        print(f"  GCS utility     : {gcs_utility(menu, pop, sc.gcs):.6g}")
        print(f"  social surplus  : {social_surplus(menu, pop, sc.gcs):.6g}")
        print(f"  effectiveness   : {defensive_effectiveness(menu, pop, sc.gcs):.6g}")
        print(f"  budget ok       : {report.budget_ok}")
        print(f"  IR ok           : {report.ir_ok}")
        if name == "partial":
            print(f"  IC ok           : {report.ic_ok}")
            print(f"  fairness        : participation={report.participation_fair}, "
                  f"reward={check_reward_fairness(menu, pop)}")
            if not report.all_ok:
                failures += 1
        elif not (report.ir_ok and report.budget_ok):
            failures += 1
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, menu in menus.items():
            (out / f"menu_{name}.yaml").write_text(_menu_text(menu))
        (out / "scenario.yaml").write_text(dump_scenario(sc))
        print(f"wrote menus to {out}")
    if failures:
        print(f"error: {failures} menu(s) failed their feasibility audit", file=sys.stderr)
        return 1
    return 0


def _type_lines(menu: ContractMenu, pop: Population) -> str:
    """One line per on-time type: index, cost, size and reward."""
    rows = np.flatnonzero(pop.delay <= menu.t_max)
    sizes, rewards = _kernels().item_columns(menu, pop)
    columns = ((rows + 1).tolist(), pop.cost[rows].tolist(), sizes[rows].tolist(),
               rewards[rows].tolist())
    return "".join(map("  type %d: C = %.4g, S = %.6g bytes, R = %.6g\n".__mod__, zip(*columns)))


def _cmd_oracle_check(args) -> int:
    # only this command uses the oracle; the others start without loading it
    from .oracle import GridSpec, grid_search_complete, grid_search_partial

    sc = _load(args)
    pop = generate_population(sc)
    part = participating_set(pop, sc.t_max)
    if len(part) > 3:
        print("error: oracle check needs at most 3 participating types", file=sys.stderr)
        return 2
    grid = GridSpec(s_step=args.step, s_max=sc.gcs.s_max)
    slack = _grid_slack(part, sc, args.step)
    ok = True
    for name, solver, search in (
        ("complete", solve_complete, grid_search_complete),
        ("partial", solve_partial, grid_search_partial),
    ):
        menu = solver(pop, sc.gcs, sc.t_max, sc.solver)
        obj = gcs_utility(menu, pop, sc.gcs)
        _, oracle_obj = search(pop, sc.gcs, sc.t_max, grid)
        status = "ok" if obj >= oracle_obj - slack else "FAIL"
        if status == "FAIL":
            ok = False
        print(
            f"{name}: solver objective {obj:.9g}, oracle {oracle_obj:.9g}, "
            f"allowed slack {slack:.3g} -> {status}"
        )
    return 0 if ok else 1


def _grid_slack(part, sc: Scenario, step: float) -> float:
    # one grid step's worth of objective change, bounded by the steepest
    # per-type satisfaction slope at S = 0 plus the payment change
    worst = max((sc.gcs.satisfaction * (t.count / t.delay) + t.count * t.marginal_cost
                 for t in part), default=0.0)
    return worst * step * len(part)


def _write_tables(tables: dict[str, str], out_dir: str | None) -> None:
    """Write each CSV table into ``out_dir`` (default: the working directory)
    and print the paths."""
    out = Path(out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    for fname, text in tables.items():
        (out / fname).write_text(text)
        print(out / fname)


def _cmd_learn(args) -> int:
    sc = _load(args)
    if args.episodes is not None:
        sc = dataclasses.replace(sc, learner=dataclasses.replace(sc.learner, episodes=args.episodes))
    _write_tables(run_experiment("fig8", sc), args.out)
    return 0


def _cmd_reproduce(args) -> int:
    sc = _load(args)
    try:
        tables = run_experiment(args.experiment, sc)
    except AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_tables(tables, args.out)
    return 0


def _cmd_validate(args) -> int:
    sc = _load(args)
    pop = generate_population(sc)
    menu = _menu_from_file(args.menu)
    report = check_feasibility(menu, pop, sc.gcs)
    reward_fair = check_reward_fairness(menu, pop)
    print(f"IR ok        : {report.ir_ok}")
    print(f"IC ok        : {report.ic_ok}")
    print(f"budget ok    : {report.budget_ok}")
    print(f"monotone ok  : {report.monotone_ok}")
    print(f"worst slack  : {report.worst_violation:.6e}")
    print(f"worst pair   : {report.worst_pair}")
    print(f"fairness     : participation={report.participation_fair}, reward={reward_fair}")
    return 0 if report.all_ok and reward_fair else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="honeygame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", help="scenario YAML path (defaults built in)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="output directory")
        p.add_argument(
            "--budget-mode", choices=("exact", "paper"), dest="budget_mode",
            help="budget handling: exact re-solve vs one-shot closed form",
        )

    p = sub.add_parser("solve", help="solve one scenario and print the menus")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle-check", help="compare solvers against the grid oracle")
    common(p)
    p.add_argument("--step", type=float, default=1.0, help="oracle grid step, bytes")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("learn", help="run the two-tier PHC game")
    common(p)
    p.add_argument("--episodes", type=int, help="override the episode count")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("reproduce", help="regenerate a named experiment CSV")
    p.add_argument("experiment", choices=EXPERIMENTS)
    common(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("validate", help="audit a menu file against a scenario")
    common(p)
    p.add_argument("--menu", required=True, help="menu YAML path")
    p.set_defaults(func=_cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call only: argparse takes
    about a millisecond to build one."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

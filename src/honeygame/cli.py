"""Command-line front end.

Subcommands:

* ``solve``        one scenario -> optimal menus plus a feasibility report
* ``oracle-check`` closed-form solvers vs. the brute-force grid oracles
* ``learn``        two-tier PHC run, trajectory CSV
* ``reproduce``    named experiment (fig1, fig3..fig8, sweep) -> CSV table
* ``validate``     feasibility/fairness audit of a menu file

Menu files (``solve --out``) are written directly as the text ``yaml.dump``
gives for ``{items: [{reward, type, vdd_size}, ...], t_max}``.  ``validate``
reads a file in exactly that form, every number as the writer writes it,
column by column, and parses any other file as YAML, with the same field
checks: ``type`` is an integer, the other
fields are numbers.  Each item goes to the row of its type among the
scenario's J types; an index outside 1..J, or one given twice, exits 2, and
a type the file leaves out gets the zero item.

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
from collections.abc import Iterable
from pathlib import Path

import numpy as np
import yaml

from .channel import _quiet
from .experiments import EXPERIMENTS, AuditError, run_experiment
from .model import (
    ContractMenu,
    Population,
    check_feasibility,
    check_reward_fairness,
    defensive_effectiveness,
    gcs_utility,
    social_surplus,
)
from .scenario import (
    Scenario,
    _is_integer,
    _is_number,
    dump_scenario,
    generate_population,
    load_scenario,
    load_yaml,
)
from .solver import BUDGET_EXACT, PAPER_LITERAL, solve_complete, solve_partial


def _load(args) -> Scenario:
    sc = load_scenario(Path(args.scenario)) if args.scenario else Scenario()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "budget_mode", None):
        mode = BUDGET_EXACT if args.budget_mode == "exact" else PAPER_LITERAL
        updates["solver"] = dataclasses.replace(sc.solver, budget_mode=mode)
    return dataclasses.replace(sc, **updates) if updates else sc


# in a list's repr: a float repr whose exponent has no dot
_DOTLESS_EXPONENT = re.compile(r"(?<![\d.])(-?\d+)e")


def _float_tokens(values: list[float]) -> list[str]:
    """Each finite float (or int) as PyYAML's safe representer writes it,
    formatted at once: the ``repr`` of the list, with ``.0`` put before a
    float's exponent that has no dot (``1e-05`` -> ``1.0e-05``), split."""
    text = repr(values)[1:-1]
    if "e" in text:
        text = _DOTLESS_EXPONENT.sub(r"\1.0e", text)
    return text.split(", ") if text else []


def _number_tokens(column: np.ndarray) -> list[str]:
    """``_float_tokens`` of a column of finite floats.  Each distinct value
    (bunched types share sizes and rewards) is formatted once, keyed by its
    bits so that 0.0 and -0.0 stay apart."""
    bits, at = np.unique(column.view(np.int64), return_inverse=True)
    return np.array(_float_tokens(bits.view(float).tolist()), dtype=object)[at].tolist()


def _menu_text(menu: ContractMenu) -> str:
    """The menu file: the bytes ``yaml.dump`` writes for ``{items: [{reward,
    type, vdd_size}, ...], t_max}`` with one item per type in type order,
    each field's column formatted at once.  An int ``t_max`` (a scenario's
    ``t_max: 2``) is written as an int."""
    t_max = f"t_max: {_float_tokens([menu.t_max])[0]}\n"
    n = len(menu.sizes)
    if not n:
        return "items: []\n" + t_max
    columns = (_number_tokens(menu.rewards), range(1, n + 1), _number_tokens(menu.sizes))
    body = "".join(map("- reward: %s\n  type: %d\n  vdd_size: %s\n".__mod__, zip(*columns)))
    return f"items:\n{body}{t_max}"


# the line prefixes of one item in a menu file, and the field each introduces
_ITEM_LINES = ("- reward: ", "  type: ", "  vdd_size: ")


def _float_column(lines: list[str], prefix: str) -> list[float] | None:
    """The floats of one menu field's lines, or None unless every line is
    ``prefix`` and a token that ``_float_tokens`` writes for a finite float.
    Each distinct line is read once."""
    distinct = list(dict.fromkeys(lines))
    if not all(map(str.startswith, distinct, itertools.repeat(prefix))):
        return None
    tokens = [line[len(prefix):] for line in distinct]
    try:
        values = list(map(float, tokens))
    except ValueError:
        return None
    if not all(map(math.isfinite, values)) or _float_tokens(values) != tokens:
        return None
    if len(distinct) == len(lines):
        return values
    return list(map(dict(zip(distinct, values)).__getitem__, lines))


def _t_max_value(line: str) -> float | None:
    """The ``t_max`` of a ``t_max: `` line as ``_menu_text`` writes it: a
    finite float, or an int a float holds (with ``str``); else None."""
    token = line[len("t_max: "):]
    try:
        value = int(token)
    except ValueError:  # a float's token
        values = _float_column([line], "t_max: ")
        return None if values is None else values[0]
    return float(value) if str(value) == token and _is_number(value) else None


def _canonical_menu(text: str, path: str, n: int) -> ContractMenu | None:
    """Read a menu file of ``n`` types written exactly as ``_menu_text``
    writes one, without a YAML parser: its items in type order 1, 2, ...
    Any other text (comments, flow style, other key orders or type orders,
    numbers the writer does not write, such as ``5``, ``010`` or ``1e5`` in
    a size or a reward) gives None."""
    lines = text.split("\n")
    body = lines[1:-2]
    indices = range(1, len(body) // 3 + 1)
    if (len(lines) < 3 or lines[-1] or len(body) % 3
            or lines[0] != ("items:" if body else "items: []")
            or not lines[-2].startswith("t_max: ")
            or body[1::3] != list(map(f"{_ITEM_LINES[1]}%d".__mod__, indices))):
        return None
    rewards, sizes = columns = (_float_column(body[0::3], _ITEM_LINES[0]),
                                _float_column(body[2::3], _ITEM_LINES[2]))
    t_max = _t_max_value(lines[-2])
    if None in columns or t_max is None:
        return None
    return _menu_in_rows(path, n, t_max, list(indices), sizes, rewards)


def _menu_from_file(path: str, n: int) -> ContractMenu:
    """The menu file at ``path``, read for a scenario of ``n`` types."""
    text = Path(path).read_text()
    menu = _canonical_menu(text, path, n)
    return menu if menu is not None else _menu_from_yaml(text, path, n)


def _menu_from_yaml(text: str, path: str, n: int) -> ContractMenu:
    data = load_yaml(text, f"menu file {path}")
    if not isinstance(data, dict):
        raise ValueError(f"menu file {path} must be a mapping")
    entries = _menu_field(data, "items", path)
    if not isinstance(entries, list):
        raise ValueError(f"menu file {path}: items must be a list")
    indices, sizes, rewards = [], [], []
    for at, entry in enumerate(entries):
        where = f"{path}: items[{at}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be a mapping")
        indices.append(_menu_number(entry, "type", where, integer=True))
        sizes.append(_menu_number(entry, "vdd_size", where))
        rewards.append(_menu_number(entry, "reward", where))
    t_max = _menu_number(data, "t_max", path)
    return _menu_in_rows(path, n, t_max, indices, sizes, rewards)


def _menu_field(data: dict, key: str, where: str):
    if key not in data:
        raise ValueError(f"{where}: missing field {key!r}")
    return data[key]


def _menu_number(data: dict, key: str, where: str, integer: bool = False):
    """Field ``key`` of ``data`` by the scenario loader's rules: an int (not
    a bool) if ``integer``, else a real number (not a bool or a string),
    returned as a float."""
    value = _menu_field(data, key, where)
    if _is_integer(value) if integer else _is_number(value):
        return value if integer else float(value)
    raise ValueError(f"{where}: field {key!r} must be {'an integer' if integer else 'a number'}, "
                     f"got {value!r}")


def _menu_in_rows(path: str, n: int, t_max: float, indices: list[int], sizes: list,
                  rewards: list) -> ContractMenu:
    """The menu of ``n`` types whose item j (in file order) has type index
    ``indices[j]``: each item goes to its type's row, and a row no item
    names gets the zero item."""
    if indices != list(range(1, n + 1)):
        first: dict[int, int] = {}
        for at, k in enumerate(indices):
            if not 1 <= k <= n:
                raise ValueError(f"{path}: items[{at}]: type {k} is outside 1..{n}")
            if first.setdefault(k, at) != at:
                raise ValueError(f"{path}: items[{at}]: type {k} repeats items[{first[k]}]")
        # ``ContractMenu.placed`` takes its rows in increasing order
        order = sorted(range(len(indices)), key=indices.__getitem__)
        indices, sizes, rewards = ([column[at] for at in order]
                                   for column in (indices, sizes, rewards))
    return ContractMenu.placed(n, t_max, [k - 1 for k in indices], sizes, rewards)


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
    rows = pop.on_time(menu.t_max).rows
    columns = ((rows + 1).tolist(), pop.cost[rows].tolist(), menu.sizes[rows].tolist(),
               menu.rewards[rows].tolist())
    return "".join(map("  type %d: C = %.4g, S = %.6g bytes, R = %.6g\n".__mod__, zip(*columns)))


@_quiet  # a degenerate scenario's objectives may pass the float range: inf, no warning
def _cmd_oracle_check(args) -> int:
    # only this command uses the oracle; the others start without loading it
    from .oracle import GridSpec, grid_search_complete, grid_search_partial, oracle_types

    sc = _load(args)
    pop = generate_population(sc)
    view = oracle_types(pop, sc.t_max)  # too many: exit 2 before any solve
    grid = GridSpec(s_step=args.step, s_max=sc.gcs.s_max)
    slack = _grid_slack(view, sc, args.step)
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


def _grid_slack(view, sc: Scenario, step: float) -> float:
    # one grid step's worth of objective change, bounded by the steepest
    # per-type satisfaction slope at S = 0 plus the payment change
    worst = max((sc.gcs.satisfaction * (n / d) + n * c for n, d, c in
                 zip(*map(view.tolist, (view.count, view.delay, view.cost)))), default=0.0)
    return worst * step * len(view.rows)


def _write_tables(tables: dict[str, Iterable[str]], out_dir: str | None) -> None:
    """Write each CSV table, piece by piece, into ``out_dir`` (default: the
    working directory) and print the paths."""
    out = Path(out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    for fname, pieces in tables.items():
        with (out / fname).open("w") as f:
            f.writelines(pieces)
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
    menu = _menu_from_file(args.menu, len(pop))
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

    def common(p, out: bool, budget_mode: bool):
        p.add_argument("--scenario", help="scenario YAML path (defaults built in)")
        p.add_argument("--seed", type=int, help="override the master seed")
        if out:
            p.add_argument("--out", help="output directory")
        if budget_mode:
            p.add_argument(
                "--budget-mode", choices=("exact", "paper"), dest="budget_mode",
                help="budget handling: exact re-solve vs one-shot closed form",
            )

    p = sub.add_parser("solve", help="solve one scenario and print the menus")
    common(p, out=True, budget_mode=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle-check", help="compare solvers against the grid oracle")
    common(p, out=False, budget_mode=True)
    p.add_argument("--step", type=float, default=1.0, help="oracle grid step, bytes")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("learn", help="run the two-tier PHC game")
    common(p, out=True, budget_mode=False)
    p.add_argument("--episodes", type=int, help="override the episode count")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("reproduce", help="regenerate a named experiment CSV")
    p.add_argument("experiment", choices=EXPERIMENTS)
    common(p, out=True, budget_mode=True)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("validate", help="audit a menu file against a scenario")
    common(p, out=False, budget_mode=False)
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
    except MemoryError as exc:  # e.g. an oracle grid or episode count too large
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

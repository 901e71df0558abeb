"""The benchmark's workloads.  Each one writes its scenario files from the
workload seed, names the ``honeygame`` commands of one round, keeps the
outputs of its first round, checks that later rounds reproduce them byte
for byte, and finally checks the first outputs against independent
computations (``reference.py``) and the properties the paper states.

``hg`` is a namespace holding the freshly imported ``honeygame.cli`` and
``honeygame.scenario`` modules; ``run`` runs one command and returns its
exit code and standard output.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np
import yaml

import reference as ref

# The package's default economics and learner, written out so that the
# benchmark knows every input it hands to the program.
GCS = {"satisfaction": 6.0, "deploy_cost": 1.0, "budget": 460.0, "s_max": 300.0, "r_max": 480.0}
LEARNER = {"episodes": 2000, "gcs_levels": 21, "uav_levels": 21,
           "hotboot_runs": 10, "hotboot_length": 500, "hotboot_jitter": 0.1}
T_MAX = 2.0

MENU_TYPES = 1000
MENU_BUDGET_PER_TYPE = 46.0  # the default 460 for 10 types; binds at any J
SWEEP_BLOCK = 10             # consecutive scenario seeds per pass
SWEEP_COUNTS = (2, 4, 6, 8, 10)
SCHEMES = ("complete", "partial", "linear", "uniform")
MODES = ("exact", "paper")

TOL = 1e-9


def default_scenario(seed: int) -> dict:
    return {
        "seed": seed,
        "t_max": T_MAX,
        "gcs": dict(GCS),
        "population": {"count": 10, "distribution": "even", "cost_range": [0.01, 1.0],
                       "delay": "channel"},
        "learner": dict(LEARNER),
    }


def menu_scenario(seed: int) -> dict:
    sc = default_scenario(seed)
    sc["population"] = {"count": MENU_TYPES, "distribution": "uniform",
                        "cost_range": [0.01, 1.0], "delay": "channel"}
    sc["gcs"]["budget"] = MENU_BUDGET_PER_TYPE * MENU_TYPES
    return sc


def write_yaml(path: Path, data: dict) -> None:
    path.write_text(yaml.safe_dump(data, sort_keys=True))


def participants(hg, scenario: Path) -> tuple[list[int], list[int], ref.Participants]:
    """Indices of all types, indices of the types that meet the deadline, and
    (cost, delay, count) of the latter in canonical order, as the program's
    scenario layer draws them."""
    pop = hg.scenario.generate_population(hg.scenario.load_scenario(str(scenario)))
    types = [t for t in pop.types if t.delay <= T_MAX]
    return [t.index for t in pop.types], [t.index for t in types], ref.Participants(
        cost=np.array([t.marginal_cost for t in types]),
        delay=np.array([t.delay for t in types]),
        count=np.array([t.count for t in types], dtype=float),
    )


def printed_tol(value: np.ndarray | float) -> np.ndarray | float:
    """1e-9 beyond the rounding of a number printed with 9 significant digits."""
    mag = np.maximum(np.abs(value), 1e-300)
    return TOL * np.maximum(1.0, mag) + 0.5 * 10.0 ** (np.floor(np.log10(mag)) - 8)


class Workload:
    """One round is ``commands(i)``; outputs are kept from round 0."""

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.scenario = work / "scenario.yaml"
        self.out = work / "out"
        self.first: dict = {}
        self.bunched_types = 0  # participants minus distinct partial sizes, if a menu is written

    def setup(self, hg) -> None:
        raise NotImplementedError

    def commands(self, i: int) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, i: int, stdouts: list[str]) -> dict:
        """Output bytes of round i, keyed so that equal keys must be equal."""
        raise NotImplementedError

    def check(self, hg, run) -> list[str]:
        raise NotImplementedError

    def collect(self, i: int, stdouts: list[str]) -> list[str]:
        problems = []
        for key, data in self.outputs(i, stdouts).items():
            if key not in self.first:
                self.first[key] = data
            elif self.first[key] != data:
                problems.append(f"round {i}: {key} differs from its first output")
        return problems



class MenuSolve(Workload):
    name = "menu-solve"

    def setup(self, hg) -> None:
        write_yaml(self.scenario, menu_scenario(self.seed))

    def commands(self, i):
        return [["solve", "--scenario", str(self.scenario), "--out", str(self.out)]]

    def outputs(self, i, stdouts):
        names = ("menu_complete.yaml", "menu_partial.yaml", "scenario.yaml")
        return {name: (self.out / name).read_bytes() for name in names}

    def menus(self, indices: list[int]) -> dict[str, ref.Menu]:
        out = {}
        for kind in ("complete", "partial"):
            data = yaml.safe_load(self.first[f"menu_{kind}.yaml"])
            items = {e["type"]: (e["vdd_size"], e["reward"]) for e in data["items"]}
            rows = np.array([items[k] for k in indices])
            out[kind] = ref.Menu(rows[:, 0], rows[:, 1])
        return out

    def check(self, hg, run):
        if "menu_partial.yaml" not in self.first:
            return ["no menus were written"]
        _, indices, p = participants(hg, self.scenario)
        g = menu_scenario(self.seed)["gcs"]
        menus = self.menus(indices)
        self.bunched_types = len(indices) - len(set(menus["partial"].sizes.tolist()))
        expected = {
            "complete": ref.solve_complete(p, g["budget"], g["s_max"], g["deploy_cost"]),
            "partial": ref.solve_partial(p, g["budget"], g["s_max"], g["deploy_cost"]),
        }
        problems = []
        for kind, menu in menus.items():
            want = expected[kind]
            err = np.max(np.abs(menu.sizes - want.sizes))
            if err > TOL * g["s_max"]:
                problems.append(f"{kind}: sizes differ from the reference by {err:.3e}")
            got_u = ref.gcs_utility(p, menu, g["satisfaction"])
            want_u = ref.gcs_utility(p, want, g["satisfaction"])
            if abs(got_u - want_u) > TOL * abs(want_u):
                problems.append(f"{kind}: GCS utility {got_u!r} vs reference {want_u!r}")
            paid = float(np.sum(p.count * menu.rewards))
            if abs(paid - g["budget"]) > TOL * g["budget"]:
                problems.append(f"{kind}: payments {paid!r} do not exhaust the budget")
        # sizes follow delays as well as costs under complete information, so
        # only the partial menu must be monotone
        partial = menus["partial"]
        scale = TOL * max(1.0, float(partial.rewards.max()))
        if np.any(np.diff(partial.sizes) < -scale) or np.any(np.diff(partial.rewards) < -scale):
            problems.append("partial: sizes or rewards are not monotone")
        rent = np.diag(ref.uav_utilities(p, partial, g["deploy_cost"]))
        if abs(rent[0]) > scale or np.any(np.diff(rent) < -scale):
            problems.append("partial: rent is not 0 at the costliest type and ascending")
        ir, ic = ref.ir_ic_violations(p, partial, g["deploy_cost"], scale)
        if ir or ic:
            problems.append(f"partial: {ir} IR and {ic} IC violations")
        rent = np.diag(ref.uav_utilities(p, menus["complete"], g["deploy_cost"]))
        if np.max(np.abs(rent)) > TOL * max(1.0, float(menus["complete"].rewards.max())):
            problems.append(f"complete: nonzero rent {np.max(np.abs(rent)):.3e}")
        code, _ = run(["validate", "--scenario", str(self.scenario),
                       "--menu", str(self.out / "menu_partial.yaml")])
        if code != 0:
            problems.append(f"validate of the written partial menu exited {code}")
        return problems


class MenuValidate(Workload):
    name = "menu-validate"

    VERDICTS = ("IR ok", "IC ok", "budget ok", "monotone ok")

    def setup(self, hg) -> None:
        sc = menu_scenario(self.seed)
        write_yaml(self.scenario, sc)
        everyone, indices, p = participants(hg, self.scenario)
        g = sc["gcs"]
        menu = ref.solve_partial(p, g["budget"], g["s_max"], g["deploy_cost"])
        items = dict.fromkeys(everyone, (0.0, 0.0))
        items.update(zip(indices, zip(menu.sizes.tolist(), menu.rewards.tolist())))
        self.menu = self.work / "menu_partial.yaml"
        write_yaml(self.menu, {"t_max": T_MAX, "items": [
            {"type": k, "vdd_size": s, "reward": r} for k, (s, r) in sorted(items.items())
        ]})
        self.p, self.reference = p, menu

    def commands(self, i):
        return [["validate", "--scenario", str(self.scenario), "--menu", str(self.menu)]]

    def outputs(self, i, stdouts):
        return {"stdout": stdouts[0]}

    def check(self, hg, run):
        if "stdout" not in self.first:
            return ["validate printed nothing"]
        problems = []
        lines = dict(
            (key.strip(), value.strip())
            for key, value in (line.split(":", 1) for line in self.first["stdout"].splitlines())
        )
        expected = dict.fromkeys(self.VERDICTS, "True")
        expected["fairness"] = "participation=True, reward=True"
        for key, value in expected.items():
            if lines.get(key) != value:
                problems.append(f"validate reports {key}: {lines.get(key)}")
        g = menu_scenario(self.seed)["gcs"]
        ir, ic = ref.ir_ic_violations(self.p, self.reference, g["deploy_cost"],
                                      TOL * max(1.0, float(self.reference.rewards.max())))
        if ir or ic:
            problems.append(f"reference menu: {ir} IR and {ic} IC violations")
        return problems


def at_least(a: float, b: float) -> bool:
    """a >= b for numbers printed with 9 significant digits."""
    return a >= b - TOL - 1e-8 * max(abs(a), abs(b))


def read_table(data: bytes) -> dict[tuple[int, str, str], float]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    return {(int(c), tag, scheme): float(v) for c, tag, scheme, v in rows[1:]}


class SweepSeeds(Workload):
    name = "sweep-seeds"

    def setup(self, hg) -> None:
        write_yaml(self.scenario, default_scenario(self.seed))
        self.seeds = [self.seed * SWEEP_BLOCK + k for k in range(SWEEP_BLOCK)]

    def commands(self, i):
        seed = self.seeds[i % SWEEP_BLOCK]
        return [
            ["reproduce", fig, "--scenario", str(self.scenario), "--seed", str(seed),
             "--budget-mode", mode, "--out", str(self.out / mode)]
            for mode in MODES for fig in ("fig7", "sweep")
        ]

    def outputs(self, i, stdouts):
        seed = self.seeds[i % SWEEP_BLOCK]
        return {
            (seed, mode, fig): (self.out / mode / f"{fig}.csv").read_bytes()
            for mode in MODES for fig in ("fig7", "sweep")
        }

    def check(self, hg, run):
        problems = []
        seen = sorted({key[:2] for key in self.first})
        if not seen:
            return ["no sweep tables were written"]
        for seed, mode in seen:
            zeta = read_table(self.first[(seed, mode, "fig7")])
            gcs = read_table(self.first[(seed, mode, "sweep")])
            where = f"seed {seed} {mode}"
            keys = {(c, tag, s) for c in SWEEP_COUNTS for tag in ("high", "low") for s in SCHEMES}
            if set(zeta) != keys or set(gcs) != keys:
                problems.append(f"{where}: tables do not cover every count, budget and scheme")
                continue

            for c in SWEEP_COUNTS:
                for tag in ("high", "low"):
                    u = {s: gcs[(c, tag, s)] for s in SCHEMES}
                    z = {s: zeta[(c, tag, s)] for s in SCHEMES}
                    if not (at_least(u["complete"], u["partial"])
                            and at_least(u["partial"], u["uniform"])):
                        problems.append(f"{where} J={c} {tag}: GCS utility order broken {u}")
                    if not (at_least(z["partial"], z["linear"])
                            and at_least(z["partial"], z["uniform"])):
                        problems.append(f"{where} J={c} {tag}: partial zeta not dominant {z}")
                for s in SCHEMES:
                    if not at_least(zeta[(c, "high", s)], zeta[(c, "low", s)]):
                        problems.append(f"{where} J={c} {s}: high budget zeta below low")
        return problems


class LearnFig8(Workload):
    name = "learn-fig8"

    def setup(self, hg) -> None:
        write_yaml(self.scenario, default_scenario(self.seed))

    def commands(self, i):
        return [["learn", "--scenario", str(self.scenario), "--out", str(self.out)]]

    def outputs(self, i, stdouts):
        return {"fig8.csv": (self.out / "fig8.csv").read_bytes()}

    def check(self, hg, run):
        if "fig8.csv" not in self.first:
            return ["learn wrote no fig8.csv"]
        text = self.first["fig8.csv"].decode()
        header, _, body = text.partition("\n")
        if header != "episode,type_index,S_bytes,R,uav_utility,gcs_utility":
            return [f"unexpected fig8.csv header {header!r}"]
        rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        episode, index, size, reward, u_uav, u_gcs = rows.T
        _, indices, p = participants(hg, self.scenario)
        problems = []
        n_ep = LEARNER["episodes"]
        got = sorted(zip(index.astype(int).tolist(), episode.astype(int).tolist()))
        want = [(j, e) for j in range(1, len(indices) + 1) for e in range(n_ep)]
        if got != want:
            problems.append(f"{len(rows)} rows are not one per type per episode "
                            f"({len(indices)} types x {n_ep})")
            return problems
        for values, top, levels, name in (
            (size, GCS["s_max"], LEARNER["uav_levels"], "S"),
            (reward, GCS["r_max"], LEARNER["gcs_levels"], "R"),
        ):
            grid = np.linspace(0.0, top, levels)
            off = np.min(np.abs(values[:, None] - grid[None, :]), axis=1)
            if np.any(off > printed_tol(values)):
                problems.append(f"{name} off its action grid by up to {off.max():.3e}")
        j = index.astype(int) - 1
        cost, delay, count = p.cost[j], p.delay[j], p.count[j]
        want_uav = reward - cost * size - GCS["deploy_cost"]
        want_gcs = GCS["satisfaction"] * (count / delay) * np.log1p(size) - count * reward
        for got_u, want_u, name in ((u_uav, want_uav, "UAV"), (u_gcs, want_gcs, "GCS")):
            bad = np.abs(got_u - want_u) > printed_tol(want_u)
            if np.any(bad):
                k = int(np.argmax(bad))
                problems.append(f"{int(bad.sum())} {name} utilities differ from the recomputed "
                                f"value, first at row {k}: {got_u[k]!r} vs {want_u[k]!r}")
        return problems


WORKLOADS = {w.name: w for w in (MenuSolve, MenuValidate, SweepSeeds, LearnFig8)}

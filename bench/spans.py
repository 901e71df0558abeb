"""Spans around the public entry points of each honeygame layer.

``Tracer.install`` replaces every listed function with a timing wrapper in
every loaded ``honeygame`` module that holds it (``from .model import
check_feasibility`` binds a second name to the same function), so calls
between layers nest as child spans.  ``uninstall`` restores the originals.
Per-episode and per-pair helpers (``q_update``, ``uav_utility``) are left
alone: at millions of calls a wrapper would distort the timings.

A span is (id, parent id, name, start, end).  Each closed span adds its
duration to the name's total time (once, however deeply a name nests in
itself), its duration minus its children's to the name's self time, and one
to its call count.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

# layer -> (module, entry points)
LAYERS = {
    "scenario": ("honeygame.scenario", ("load_scenario", "generate_population", "dump_scenario")),
    "channel": ("honeygame.channel", ("a2g_rate", "transmission_delay")),
    "solver": ("honeygame.solver", (
        "solve_complete", "solve_partial", "solve_partial_relaxed", "optimal_rewards",
        "linear_contract", "uniform_contract",
    )),
    "model": ("honeygame.model", (
        "check_feasibility", "check_fairness", "participating_set", "gcs_utility",
    )),
    "learn": ("honeygame.learn", ("hotboot", "run_dynamic_game")),
    "experiments": ("honeygame.experiments", ("run_experiment",)),
    "cli": ("honeygame.cli", ("main",)),
}


def _hotboot_episodes(bound: inspect.BoundArguments, tables) -> int:
    cfg = bound.arguments["cfg"]
    return len(tables) * cfg.hotboot_runs * cfg.hotboot_length


def _game_episodes(bound: inspect.BoundArguments, logs) -> int:
    return sum(len(log) for log in logs.values())


MAX_SPANS = 50_000  # spans kept for the trace file; totals cover every span

# span name -> (counter, episodes counted from the call's arguments and result)
EPISODE_COUNTERS = {
    "learn.hotboot": ("learn.episodes", _hotboot_episodes),
    "learn.run_dynamic_game": ("learn.episodes", _game_episodes),
}


class Tracer:
    """Collects spans and per-name totals for one traced round at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.spans_dropped = 0
        self.rounds: list[dict] = []
        self._next_id = 0
        self._stack: list[list] = []  # [id, name, start, child time]
        self._active: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._round: dict | None = None

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("honeygame"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, span_name: str, fn):
        tracer = self
        counter = EPISODE_COUNTERS.get(span_name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if counter is not None:
                name, count = counter
                tracer._round["counts"][name] += count(signature.bind(*args, **kwargs), result)
            return result

        return traced

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1
        self._active[name] += 1

    def _close(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        self._active[name] -= 1
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        totals = self._round["totals"].setdefault(name, [0.0, 0.0, 0])
        if not self._active[name]:
            totals[0] += duration
        totals[1] += duration - child
        totals[2] += 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent[0] if parent else None, name, start, end))
        else:
            self.spans_dropped += 1

    def begin_round(self) -> None:
        self._round = {"totals": {}, "counts": Counter()}

    def end_round(self, wall_s: float) -> None:
        self._round["wall_s"] = wall_s
        self.rounds.append(self._round)
        self._round = None

    def write(self, path: Path, meta: dict) -> None:
        doc = dict(meta)
        doc["rounds"] = [
            {
                "wall_s": r["wall_s"],
                "counts": dict(r["counts"]),
                "spans": {
                    name: {"total_s": total, "self_s": self_s, "calls": calls}
                    for name, (total, self_s, calls) in sorted(r["totals"].items())
                },
            }
            for r in self.rounds
        ]
        doc["spans"] = {
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "rows": self.spans,
            "dropped": self.spans_dropped,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))

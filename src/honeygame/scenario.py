"""Scenario files: one YAML document describing population, economics,
channel, solver, and learner settings plus the master seed.

Unknown keys are rejected so typos fail loudly; a scenario round-trips
losslessly through ``load``/``dump``.  Delays can be fixed per type or
derived once from the channel model at randomly drawn initial positions
(the delay of shipping a full ``s_max`` payload over the A2G link).
"""

from __future__ import annotations

import dataclasses
import io
import math
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .channel import ChannelParams, _quiet, a2g_rates, transmission_delay
from .learn import LearnerConfig
from .model import GcsParams, Population, canonical_columns, left_sum
from .solver import SolverConfig

__all__ = [
    "PopulationSpec",
    "Scenario",
    "load_scenario",
    "dump_scenario",
    "generate_population",
]

DISTRIBUTIONS = ("even", "uniform", "explicit")

# libyaml parses and emits several times faster than pure Python; the
# CSafe classes keep PyYAML's safe tag resolution
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# far above the four levels a scenario uses
MAX_YAML_DEPTH = 1000


def load_yaml(text: str, where: str):
    """``yaml.load`` of ``text`` with ``YAML_LOADER``, once its collections
    nest at most ``MAX_YAML_DEPTH`` deep, else ValueError naming ``where``:
    libyaml composes nodes recursively in C, so a deep enough document
    overflows the C stack.  The check walks the parse events, which needs
    no recursion; a text nests at most one level per character, so a short
    one skips it."""
    if len(text) > MAX_YAML_DEPTH:
        depth = 0
        for event in yaml.parse(text, Loader=YAML_LOADER):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > MAX_YAML_DEPTH:
                    raise ValueError(f"{where} nests deeper than {MAX_YAML_DEPTH} levels")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
    return yaml.load(text, Loader=YAML_LOADER)


@dataclass(frozen=True)
class PopulationSpec:
    """Either an explicit type list or a generator (count + cost range)."""

    count: int = 10
    cost_range: tuple[float, float] = (0.01, 1.0)
    distribution: str = "even"
    delay: object = "channel"  # "channel", a number, or a per-type list
    counts: tuple[int, ...] | None = None
    types: tuple[dict, ...] | None = None

    def __post_init__(self) -> None:
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        lo, hi = self.cost_range
        if not (0 <= lo <= hi):
            raise ValueError(f"invalid cost_range {self.cost_range}")
        if self.distribution == "explicit" and not self.types:
            raise ValueError("explicit distribution requires a types list")
        if self.distribution != "explicit" and self.types is not None:
            raise ValueError("population.types is read only with distribution: explicit, "
                             f"not {self.distribution!r}")


@dataclass(frozen=True)
class Scenario:
    seed: int = 42
    t_max: float = 2.0
    population: PopulationSpec = field(default_factory=PopulationSpec)
    gcs: GcsParams = field(default_factory=GcsParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    solver: SolverConfig = field(default_factory=SolverConfig)
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    area: tuple[float, float] = (200.0, 200.0)
    height_range: tuple[float, float] = (30.0, 80.0)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max}")
        if not all(math.isfinite(v) and v >= 0 for v in self.area):
            raise ValueError(f"area must be finite and >= 0, got {list(self.area)}")
        lo, hi = self.height_range
        if not (math.isfinite(hi) and 0 <= lo <= hi):
            raise ValueError(f"height_range must be finite with 0 <= lo <= hi, got {[lo, hi]}")


_SECTION_TYPES = {
    "population": PopulationSpec,
    "gcs": GcsParams,
    "channel": ChannelParams,
    "solver": SolverConfig,
    "learner": LearnerConfig,
}


def _build_section(cls, data: dict, path: str):
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {path}: {sorted(unknown)}")
    kwargs = dict(data)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for key, value in kwargs.items():
        field_path = f"{path}.{key}"
        _check_number(field_path, defaults[key], value)
        if field_path in _SHAPE_CHECKS:
            _SHAPE_CHECKS[field_path](value)
        if isinstance(value, list):
            kwargs[key] = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        if key == "types" and value is not None:
            kwargs[key] = tuple(dict(v) for v in value)
    return cls(**kwargs)


def _check_number(path: str, default, value) -> None:
    """Reject a value that cannot stand where a numeric default does: an
    integer for an integer, a number for a float, and a list of as many
    numbers for a tuple of numbers.  PyYAML reads 0.25e6 and 1e-2 (no dot
    or no exponent sign) as strings."""
    if isinstance(default, tuple) and default and all(map(_is_number, default)):
        if not (_list_of(_is_number, value) and len(value) == len(default)):
            raise ValueError(f"{path} must be a list of {len(default)} numbers, got {value!r}")
    elif _is_integer(default):
        if not _is_integer(value):
            raise ValueError(f"{path} must be an integer, got {value!r}")
    elif _is_number(default) and not _is_number(value):
        raise ValueError(f"{path} must be a number, got {value!r}")


def _is_number(value) -> bool:
    """A real number a float holds: not a bool, nor an int past the float
    range."""
    if isinstance(value, numbers.Integral):
        return _is_integer(value) and abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Real)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _list_of(predicate, value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(predicate, value))


# explicit type key -> a default of the type it must have; count is optional
_TYPE_KEYS = {"cost": 0.0, "delay": 0.0, "count": 1}


def _check_types(value) -> None:
    if not (value is None or isinstance(value, (list, tuple))):
        raise ValueError(f"population.types must be a list of mappings, got {value!r}")
    for i, t in enumerate(value or ()):
        path = f"population.types[{i}]"
        if not isinstance(t, dict):
            raise ValueError(f"{path} must be a mapping with cost and delay, got {t!r}")
        unknown = sorted(map(str, t.keys() - _TYPE_KEYS.keys()))
        if unknown:
            raise ValueError(f"unknown key {path}.{unknown[0]} (a type has cost, delay and count)")
        missing = sorted({"cost", "delay"} - t.keys())
        if missing:
            raise ValueError(f"{path}.{missing[0]} is missing")
        for key, v in t.items():
            _check_number(f"{path}.{key}", _TYPE_KEYS[key], v)
        if t.get("count", 1) < 1:
            raise ValueError(f"{path}.count must be >= 1, got {t['count']!r}")


def _check_delay(value) -> None:
    if not (value == "channel" or _is_number(value) or _list_of(_is_number, value)):
        raise ValueError("population.delay must be 'channel', a number or a list of numbers, "
                         f"got {value!r}")


def _check_counts(value) -> None:
    if not (value is None or _list_of(_is_integer, value)):
        raise ValueError(f"population.counts must be a list of integers, got {value!r}")
    for i, count in enumerate(value or ()):
        if count < 1:
            raise ValueError(f"population.counts[{i}] must be >= 1, got {count!r}")


# checks for the fields whose defaults are not numbers
_SHAPE_CHECKS = {
    "population.types": _check_types,
    "population.delay": _check_delay,
    "population.counts": _check_counts,
}


def _source_text(source: str) -> str:
    """The text of a scenario file, or ``source`` itself when it cannot name
    one (too long for a file name, or not a file)."""
    try:
        is_file = Path(source).is_file()
    except (OSError, ValueError):
        is_file = False
    return Path(source).read_text() if is_file else source


def load_scenario(source: str | Path | dict) -> Scenario:
    """Parse a scenario from a YAML file (a ``Path`` is always read as one),
    a string naming a file or holding YAML text, or a pre-parsed dict."""
    if isinstance(source, dict):
        data = dict(source)
    else:
        text = source.read_text() if isinstance(source, Path) else _source_text(source)
        name = "text" if text is source else str(source)
        data = load_yaml(text, f"scenario {name}") or {}
        if not isinstance(data, dict):
            raise ValueError("scenario document must be a mapping")
    allowed = {f.name for f in dataclasses.fields(Scenario)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown top-level keys: {sorted(unknown)}")
    defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
    kwargs: dict = {}
    for key, value in data.items():
        if key in _SECTION_TYPES:
            if not isinstance(value, dict):
                raise ValueError(f"section {key!r} must be a mapping")
            kwargs[key] = _build_section(_SECTION_TYPES[key], value, key)
        else:
            _check_number(key, defaults[key], value)
            kwargs[key] = tuple(value) if isinstance(value, list) else value
    return Scenario(**kwargs)


def _plain(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def dump_scenario(sc: Scenario) -> str:
    """Canonical YAML text for a scenario (stable key order)."""
    data = _plain(sc)
    buf = io.StringIO()
    yaml.dump(data, buf, Dumper=YAML_DUMPER, sort_keys=True, default_flow_style=False)
    return buf.getvalue()


def _channel_delays(sc: Scenario, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw initial positions and price each type's delay as the time to ship
    a full s_max payload over its A2G link.  Held fixed afterwards.

    Each UAV takes three uniforms (x, y, altitude) in turn, scaled as
    ``rng.uniform`` scales them, so the positions and the generator's final
    state equal those of three scalar ``uniform`` calls per UAV.  The
    horizontal distances are ``math.hypot``'s (CPython's own algorithm),
    at least 1 m."""
    ax, ay = map(float, sc.area)
    zlo, zhi = map(float, sc.height_range)
    ux, uy, uz = rng.random((n, 3)).T
    dx, dy = ax * ux - ax / 2.0, ay * uy - ay / 2.0
    d = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), dtype=float, count=n)
    d = np.where(1.0 > d, 1.0, d)  # max(d, 1.0)
    rates = a2g_rates(zlo + (zhi - zlo) * uz, sc.channel, d)
    return transmission_delay(sc.gcs.s_max, rates)


def generate_population(sc: Scenario, rng: np.random.Generator | None = None,
                        count: int | None = None) -> Population:
    """Materialize the population spec: draw or space marginal costs, attach
    delays (fixed or channel-derived), and canonicalize."""
    spec = sc.population
    rng = rng if rng is not None else np.random.default_rng(sc.seed)
    if spec.distribution == "explicit":
        if count is not None:
            raise ValueError("population.distribution: explicit types cannot be swept over UAV counts")
        assert spec.types is not None
        return _finite(canonical_columns([t["cost"] for t in spec.types],
                                         [t["delay"] for t in spec.types],
                                         [t.get("count", 1) for t in spec.types]), sc.gcs)

    n = count if count is not None else spec.count
    lo, hi = spec.cost_range
    if spec.distribution == "even":
        cost = np.array([lo] if n == 1 else [lo + (hi - lo) * i / (n - 1) for i in range(n)],
                        dtype=float)
    else:
        cost = np.sort(rng.uniform(lo, hi, size=n))

    if spec.delay == "channel":
        delay = _channel_delays(sc, n, rng)
    elif isinstance(spec.delay, (int, float)):
        delay = np.full(n, float(spec.delay))
    else:
        delay = np.array([float(d) for d in spec.delay])
        if len(delay) != n:
            raise ValueError(f"delay list has {len(delay)} entries for {n} types")

    counts = list(spec.counts) if spec.counts else [1] * n
    if len(counts) != n:
        raise ValueError(f"counts list has {len(counts)} entries for {n} types")
    return _finite(canonical_columns(cost, delay, counts), sc.gcs)


@_quiet
def _finite(pop: Population, gcs: GcsParams) -> Population:
    """``pop``, once each product the objectives are built from is a finite
    float: per type count / delay, count x cost and satisfaction x count /
    delay x log1p(s_max), and deploy_cost x the UAV count; and once the
    totals over types of the satisfaction products and of count x cost x
    s_max are finite, so that no objective summed from them overflows."""
    weight = pop.count / pop.delay
    satisfaction = gcs.satisfaction * weight * math.log1p(gcs.s_max)
    for name, column in (("count / delay", weight), ("count x cost", pop.count * pop.cost),
                         ("satisfaction x count / delay x log1p(s_max)", satisfaction)):
        # each product is >= 0 and not nan; argmax finds the first inf
        if not np.maximum.reduce(column, initial=0.0) < math.inf:
            row = int(np.argmax(column))
            cost, delay, count = (c[row].item() for c in (pop.cost, pop.delay, pop.count))
            raise ValueError(f"type {row + 1} (cost {cost!r}, delay {delay!r}, "
                             f"count {count}): {name} passes the float range")
    if not gcs.deploy_cost * int(np.add.reduce(pop.count)) < math.inf:
        raise ValueError("gcs.deploy_cost x the UAV count passes the float range")
    for name, column in (("satisfaction x count / delay x log1p(s_max)", satisfaction),
                         ("count x cost x s_max", pop.count * pop.cost * gcs.s_max)):
        if not left_sum(column) < math.inf:
            raise ValueError(f"the sum over types of {name} passes the float range")
    return pop

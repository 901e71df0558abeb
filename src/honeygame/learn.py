"""Two-tier policy hill-climbing (PHC) for dynamic contract design when the
GCS knows nothing about types.

Per participating type there is a learner pair: the GCS side picks a reward
from a quantized grid after observing the type's previous VDD size, the UAV
side picks a VDD size after observing the reward just announced (the GCS
leads within each episode, so its action drives its own state transition
and paying rewards is learnable).  Both run tabular Q-learning plus a
mixed-strategy table nudged toward the greedy action.  Hotbooting
warm-starts the tables from offline episodes on cost-jittered copies of
the scenario.

The pairs are independent, so one episode loop advances all of them at
once: each side's Q and policy tables are stacked as (pairs x states,
actions) arrays, every step gathers one row per pair, and payoffs are read
from per-pair (reward level, size level) tables, each built by one
broadcast of ``model.gcs_term`` or ``uav_payoff`` over the on-time cost,
count and delay columns.  Hotboot runs share tables, so they play in
sequence, each advancing every pair on a jittered cost column; the game
then continues the same stacked tables (``Learners``) in place.

A pair's episode log keeps the trajectory as the game played it: two level
indices per episode, views into the played arrays, plus references to the
action grids and the pair's slice of the payoff tables.  Rewards, sizes and
utilities are gathered from these when read, so a run of J types and E
episodes holds 2 J E integers rather than six float columns.

Each learner draws from its own named random stream derived from the master
seed and its type's rank, drawn up front one uniform per episode, so adding
learners never perturbs the others' draws and identical seeds give
bitwise-identical logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import _quiet
from .model import GcsParams, Population, gcs_term, uav_payoff

__all__ = [
    "ActionGrid",
    "LearnerState",
    "Learners",
    "LearnerConfig",
    "EpisodeLog",
    "q_update",
    "policy_update",
    "sample_action",
    "hotboot",
    "run_dynamic_game",
]

_GCS_STREAM = 0
_UAV_STREAM = 1
_HOTBOOT_STREAM = 2

LEARN_RATE = 0.7  # Q-learning rate k
DISCOUNT = 0.8  # future-value discount phi
STEP = 0.01  # probability mass moved toward the greedy action per update


@dataclass(frozen=True)
class ActionGrid:
    """Evenly spaced action values 0 .. max_value over ``levels`` points."""

    levels: int
    max_value: float
    values: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise ValueError("need at least two grid levels")
        if self.max_value <= 0:
            raise ValueError("max_value must be > 0")
        object.__setattr__(self, "values", np.linspace(0.0, self.max_value, self.levels))


# numpy combines an array with a 0-d array faster than with a Python number
_KEEP = np.array(1.0 - LEARN_RATE)
_RATE = np.array(LEARN_RATE)
_DISCOUNT = np.array(DISCOUNT)
_ZERO = np.array(0.0)
_ONE = np.array(1.0)


@dataclass
class LearnerState:
    """Q-table and mixed-strategy table of one side's PHC learners.

    States index the opponent's previous quantized action; rows of ``policy``
    are probability vectors.  The learners of B independent pairs are
    stacked as one state with ``n_states`` = B times a pair's state count,
    pair b owning the block of rows starting at b times that count.
    """

    grid: ActionGrid
    n_states: int
    q: np.ndarray = field(init=False, repr=False)
    policy: np.ndarray = field(init=False, repr=False)
    # a policy step takes ``drop`` from every action, then adds row g of
    # ``bump`` for greedy action g
    drop: np.ndarray = field(init=False, repr=False)
    bump: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        levels = self.grid.levels
        self.q = np.zeros((self.n_states, levels))
        self.policy = np.full((self.n_states, levels), 1.0 / levels)
        self.drop = np.array(STEP / levels)
        self.bump = np.eye(levels) * (STEP + STEP / levels)


def q_update(ls: LearnerState, s: np.ndarray, a: np.ndarray, reward: np.ndarray,
             s_next: np.ndarray) -> None:
    """Bellman step on cell (s[i], a[i]) for each i, bootstrapping from row
    s_next[i]: Q(s,a) <- (1-k) Q(s,a) + k [r + phi * max_a' Q(s',a')].
    The rows ``s`` must be distinct."""
    q = ls.q
    best_next = np.maximum.reduce(q.take(s_next, 0), 1)
    q[s, a] = _KEEP * q[s, a] + _RATE * (reward + _DISCOUNT * best_next)


def policy_update(ls: LearnerState, s: np.ndarray) -> None:
    """In each of the distinct rows ``s``, shift probability mass toward the
    greedy action (ties to the lowest index), then clip to [0, 1] and
    renormalize so the row stays a distribution."""
    rows = ls.policy.take(s, 0)
    rows -= ls.drop
    rows += ls.bump.take(ls.q.take(s, 0).argmax(1), 0)
    np.maximum(rows, _ZERO, out=rows)
    np.minimum(rows, _ONE, out=rows)
    rows /= np.add.reduce(rows, 1, keepdims=True)
    ls.policy[s] = rows


def sample_action(ls: LearnerState, s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw one action index per row ``s`` from the mixed strategy: the
    number of cumulative probabilities at or below the row's uniform in
    ``u`` (a column), capped at the last action."""
    above = ls.policy.take(s, 0).cumsum(1) > u
    above[:, -1] = True
    return above.argmax(1)


@dataclass(frozen=True)
class LearnerConfig:
    """Knobs for the two-tier game.  Grid sizes and episode counts are
    implementation defaults, configurable per scenario."""

    gcs_levels: int = 21
    uav_levels: int = 21
    episodes: int = 2000
    hotboot_runs: int = 10
    hotboot_length: int = 500
    hotboot_jitter: float = 0.1

    def __post_init__(self) -> None:
        for key in ("gcs_levels", "uav_levels"):
            if getattr(self, key) < 2:
                raise ValueError(f"{key} must be >= 2, got {getattr(self, key)}")
        for key in ("episodes", "hotboot_runs", "hotboot_length"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
        if not 0.0 <= self.hotboot_jitter < 1.0:
            raise ValueError(f"hotboot_jitter must be in [0, 1), got {self.hotboot_jitter}")


@dataclass(frozen=True)
class EpisodeLog:
    """Per-episode trajectory of one learner pair, held as what the game
    played: the reward and size level index of each episode, the two action
    grids and the pair's (reward level, size level) payoff tables, flat.
    The per-episode columns are computed from these on each read."""

    type_index: int
    reward_level: np.ndarray = field(repr=False)
    size_level: np.ndarray = field(repr=False)
    reward_grid: ActionGrid
    size_grid: ActionGrid
    gcs_payoffs: np.ndarray = field(repr=False)
    uav_payoffs: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.reward_level)

    @property
    def cells(self) -> np.ndarray:
        """Each episode's entry in the flat payoff tables."""
        return self.reward_level * self.size_grid.levels + self.size_level

    @property
    def episode(self) -> np.ndarray:
        return np.arange(len(self))

    @property
    def gcs_state(self) -> np.ndarray:
        """The size level the GCS observed: the previous episode's, 0 first."""
        state = np.zeros(len(self), dtype=int)
        state[1:] = self.size_level[:-1]
        return state

    @property
    def reward(self) -> np.ndarray:
        return self.reward_grid.values[self.reward_level]

    @property
    def vdd_size(self) -> np.ndarray:
        return self.size_grid.values[self.size_level]

    @property
    def gcs_utility(self) -> np.ndarray:
        return self.gcs_payoffs[self.cells]

    @property
    def uav_utility(self) -> np.ndarray:
        return self.uav_payoffs[self.cells]


def _rng_for(seed: int, *keys: int) -> np.random.Generator:
    """The random stream named by ``keys`` under the master ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


@dataclass(frozen=True)
class Learners:
    """The GCS and UAV learners of every on-time type's pair, stacked: pair b
    (the type of rank b + 1) owns the block of rows starting at b times the
    pair's state count on each side.  ``len`` is the number of pairs."""

    gcs: LearnerState
    uav: LearnerState

    def __len__(self) -> int:
        return self.uav.n_states // self.gcs.grid.levels


def _new_pairs(n_pairs: int, params: GcsParams, cfg: LearnerConfig) -> Learners:
    """Cold GCS and UAV learners for ``n_pairs`` stacked pairs."""
    reward_grid = ActionGrid(cfg.gcs_levels, params.r_max)
    size_grid = ActionGrid(cfg.uav_levels, params.s_max)
    return Learners(LearnerState(grid=reward_grid, n_states=n_pairs * size_grid.levels),
                    LearnerState(grid=size_grid, n_states=n_pairs * reward_grid.levels))


def _uniforms(seed: int, ranks: range, keys: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-episode uniforms of the GCS and UAV streams of each rank, shaped
    (episode, rank, 1).  ``random(n)`` yields the doubles that ``n`` calls
    to ``random()`` would."""
    draws = np.empty((2, n, len(ranks), 1))
    for side in (_GCS_STREAM, _UAV_STREAM):
        for b, rank in enumerate(ranks):
            draws[side, :, b, 0] = _rng_for(seed, rank, *keys, side).random(n)
    return draws[_GCS_STREAM], draws[_UAV_STREAM]


@_quiet  # payoffs past the float range are inf, as on Python floats
def _payoffs(cost: np.ndarray, count: np.ndarray, delay: np.ndarray, params: GcsParams,
             tables: Learners) -> tuple[np.ndarray, np.ndarray]:
    """Flat GCS and UAV payoff tables of the pairs whose types have the given
    cost, count and delay columns: entry (b * rewards + r) * sizes + s is
    pair b's payoff at reward level r and size level s."""
    rewards, sizes = tables.gcs.grid.values[:, None], tables.uav.grid.values
    g = gcs_term(count[:, None, None], delay[:, None, None], sizes, rewards, params)
    u = uav_payoff(cost[:, None, None], sizes, rewards, params.deploy_cost)
    return g.ravel(), u.ravel()


def _play(
    tables: Learners,
    payoffs: tuple[np.ndarray, np.ndarray],
    gcs_draws: np.ndarray,
    uav_draws: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the leader/follower reward-size game for every stacked pair at
    once, updating both learners in place, and return the reward and size
    level indices played, shaped (episode, pair).

    Each episode the GCS observes the previous VDD size and announces a
    reward; the UAV observes that reward and responds with a size.  The
    GCS's Bellman bootstrap uses the size just delivered as its next state;
    the UAV's next state is the following episode's reward, so its update
    is deferred one episode.
    """
    episodes, n_pairs, _ = gcs_draws.shape
    gcs, uav = tables.gcs, tables.uav
    gcs_pay, uav_pay = payoffs
    n_sizes = np.array(uav.grid.levels)
    gcs_base = np.arange(n_pairs) * n_sizes
    uav_base = np.arange(n_pairs) * gcs.grid.levels
    gcs_rows = gcs_base  # no size delivered yet: state 0
    pending = None  # the UAV's last (rows, action, payoff), awaiting its next state
    played_r, played_s = np.zeros((2, episodes, n_pairs), dtype=int)
    for ep, (gcs_u, uav_u) in enumerate(zip(gcs_draws, uav_draws)):
        a_r = sample_action(gcs, gcs_rows, gcs_u)
        uav_rows = uav_base + a_r
        if pending is not None:
            p_rows, p_action, p_payoff = pending
            q_update(uav, p_rows, p_action, p_payoff, uav_rows)
            policy_update(uav, p_rows)
        a_s = sample_action(uav, uav_rows, uav_u)
        cells = uav_rows * n_sizes + a_s
        next_rows = gcs_base + a_s
        q_update(gcs, gcs_rows, a_r, gcs_pay.take(cells), next_rows)
        policy_update(gcs, gcs_rows)
        pending = (uav_rows, a_s, uav_pay.take(cells))
        gcs_rows = next_rows
        played_r[ep] = a_r
        played_s[ep] = a_s
    if pending is not None:
        # close out the last episode assuming the reward state persists
        p_rows, p_action, p_payoff = pending
        q_update(uav, p_rows, p_action, p_payoff, p_rows)
        policy_update(uav, p_rows)
    return played_r, played_s


def hotboot(
    pop: Population,
    params: GcsParams,
    t_max: float,
    cfg: LearnerConfig,
    seed: int,
) -> Learners:
    """Offline warm start: play ``hotboot_runs`` short games per on-time type
    on scenarios whose marginal costs are jittered by +-hotboot_jitter, and
    return the stacked tables they leave, one pair per type in rank order,
    for ``run_dynamic_game`` to continue.  The runs share tables, so they
    play in sequence, each advancing every pair at once.  With zero runs the
    tables are cold (all-zero Q, uniform policies).  A cost jittered past
    the float range raises ValueError."""
    rows = pop.on_time(t_max).rows
    ranks = range(1, len(rows) + 1)
    tables = _new_pairs(len(rows), params, cfg)
    # row ``run``: each rank's uniform for that run, then its jittered cost
    jitter = np.array([_rng_for(seed, rank, _HOTBOOT_STREAM).random(cfg.hotboot_runs)
                       for rank in ranks]).T
    with np.errstate(over="ignore"):
        costs = pop.cost[rows] * (1.0 + cfg.hotboot_jitter * (2.0 * jitter - 1.0))
    if not np.isfinite(costs).all():
        raise ValueError("hotboot_jitter takes a marginal cost past the float range")
    for run, cost in enumerate(costs):
        _play(tables, _payoffs(cost, pop.count[rows], pop.delay[rows], params, tables),
              *_uniforms(seed, ranks, (_HOTBOOT_STREAM, run), cfg.hotboot_length))
    return tables


def run_dynamic_game(
    pop: Population,
    params: GcsParams,
    t_max: float,
    cfg: LearnerConfig,
    seed: int,
    learners: Learners | None = None,
) -> dict[int, EpisodeLog]:
    """Play ``cfg.episodes`` episodes of the two-tier game for every
    participating type and return per-type episode logs keyed by the type's
    rank 1..J' among the on-time types.  The pairs continue ``learners``
    (``hotboot``'s tables), updating them in place, or start cold.  Total
    work is linear in types times episodes."""
    rows = pop.on_time(t_max).rows
    if not len(rows):
        return {}
    ranks = range(1, len(rows) + 1)
    tables = learners if learners is not None else _new_pairs(len(rows), params, cfg)
    gcs_pay, uav_pay = _payoffs(pop.cost[rows], pop.count[rows], pop.delay[rows], params,
                                tables)
    played_r, played_s = _play(tables, (gcs_pay, uav_pay),
                               *_uniforms(seed, ranks, (), cfg.episodes))
    reward_grid, size_grid = tables.gcs.grid, tables.uav.grid
    n_cells = reward_grid.levels * size_grid.levels
    return {rank: EpisodeLog(type_index=rank, reward_level=played_r[:, b],
                             size_level=played_s[:, b], reward_grid=reward_grid,
                             size_grid=size_grid,
                             gcs_payoffs=gcs_pay[b * n_cells:(b + 1) * n_cells],
                             uav_payoffs=uav_pay[b * n_cells:(b + 1) * n_cells])
            for b, rank in enumerate(ranks)}

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
from per-pair (reward level, size level) tables filled by ``gcs_term`` and
``uav_payoff``.  Hotboot runs share tables, so they play in sequence, each
advancing every pair.

Each learner draws from its own named random stream derived from the master
seed and its type's rank, drawn up front one uniform per episode, so adding
learners never perturbs the others' draws and identical seeds give
bitwise-identical logs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .model import GcsParams, Population, UavType, gcs_term, participating_set, uav_payoff

__all__ = [
    "ActionGrid",
    "LearnerState",
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
    q: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    policy: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    # a policy step takes ``drop`` from every action, then adds row g of
    # ``bump`` for greedy action g
    drop: np.ndarray = field(init=False, repr=False)
    bump: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        levels = self.grid.levels
        if self.q is None:
            self.q = np.zeros((self.n_states, levels))
        if self.policy is None:
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


@dataclass
class EpisodeLog:
    """Per-episode trajectory of one learner pair."""

    type_index: int
    episode: np.ndarray
    gcs_state: np.ndarray
    reward: np.ndarray
    vdd_size: np.ndarray
    gcs_utility: np.ndarray
    uav_utility: np.ndarray

    def __len__(self) -> int:
        return len(self.episode)


def _rng_for(seed: int, *keys: int) -> np.random.Generator:
    """The random stream named by ``keys`` under the master ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


def _new_pairs(n_pairs: int, params: GcsParams, cfg: LearnerConfig) -> tuple[LearnerState, LearnerState]:
    """Cold GCS and UAV learners for ``n_pairs`` stacked pairs."""
    reward_grid = ActionGrid(cfg.gcs_levels, params.r_max)
    size_grid = ActionGrid(cfg.uav_levels, params.s_max)
    return (LearnerState(grid=reward_grid, n_states=n_pairs * size_grid.levels),
            LearnerState(grid=size_grid, n_states=n_pairs * reward_grid.levels))


def _pair(gcs: LearnerState, uav: LearnerState, b: int) -> tuple[LearnerState, LearnerState]:
    """Pair b's GCS and UAV learners as views into the stacked tables."""
    def view(ls: LearnerState, n: int) -> LearnerState:
        rows = slice(b * n, (b + 1) * n)
        return LearnerState(grid=ls.grid, n_states=n, q=ls.q[rows], policy=ls.policy[rows])

    return view(gcs, uav.grid.levels), view(uav, gcs.grid.levels)


def _copy_pair(src: tuple[LearnerState, ...], dst: tuple[LearnerState, ...]) -> None:
    """Copy the Q and policy tables of each learner in ``src`` into ``dst``."""
    for s, d in zip(src, dst):
        d.q[...] = s.q
        d.policy[...] = s.policy


def _uniforms(seed: int, ranks: range, keys: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-episode uniforms of the GCS and UAV streams of each rank, shaped
    (episode, rank, 1).  ``random(n)`` yields the doubles that ``n`` calls
    to ``random()`` would."""
    draws = np.empty((2, n, len(ranks), 1))
    for side in (_GCS_STREAM, _UAV_STREAM):
        for b, rank in enumerate(ranks):
            draws[side, :, b, 0] = _rng_for(seed, rank, *keys, side).random(n)
    return draws[_GCS_STREAM], draws[_UAV_STREAM]


def _payoffs(types: list[UavType], params: GcsParams, gcs: LearnerState,
             uav: LearnerState) -> tuple[np.ndarray, np.ndarray]:
    """Flat GCS and UAV payoff tables: entry (b * rewards + r) * sizes + s is
    pair b's payoff at reward level r and size level s."""
    rewards, sizes = gcs.grid.values.tolist(), uav.grid.values.tolist()
    n = len(types) * len(rewards) * len(sizes)
    g = (gcs_term(t, s, r, params) for t in types for r in rewards for s in sizes)
    u = (uav_payoff(t, s, r, params.deploy_cost) for t in types for r in rewards for s in sizes)
    return np.fromiter(g, float, n), np.fromiter(u, float, n)


def _play(
    gcs: LearnerState,
    uav: LearnerState,
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
) -> dict[int, tuple[LearnerState, LearnerState]]:
    """Offline warm start: play ``hotboot_runs`` short games per type on
    scenarios whose marginal costs are jittered by +-hotboot_jitter,
    accumulating Q and policy tables keyed by rank, as ``run_dynamic_game``
    keys its logs.  The runs share tables, so they play in sequence, each
    advancing every type at once.  With zero runs this returns cold tables
    (all-zero Q, uniform policies)."""
    part = participating_set(pop, t_max)
    if not part:
        return {}
    ranks = range(1, len(part) + 1)
    gcs, uav = _new_pairs(len(part), params, cfg)
    jitter = [_rng_for(seed, rank, _HOTBOOT_STREAM).random(cfg.hotboot_runs).tolist()
              for rank in ranks]
    for run in range(cfg.hotboot_runs):
        jittered = [
            dataclasses.replace(
                t, marginal_cost=t.marginal_cost * (1.0 + cfg.hotboot_jitter * (2.0 * u[run] - 1.0))
            )
            for t, u in zip(part, jitter)
        ]
        draws = _uniforms(seed, ranks, (_HOTBOOT_STREAM, run), cfg.hotboot_length)
        _play(gcs, uav, _payoffs(jittered, params, gcs, uav), *draws)
    return {rank: _pair(gcs, uav, rank - 1) for rank in ranks}


def run_dynamic_game(
    pop: Population,
    params: GcsParams,
    t_max: float,
    cfg: LearnerConfig,
    episodes: int,
    seed: int,
    warm_tables: dict[int, tuple[LearnerState, LearnerState]] | None = None,
) -> dict[int, EpisodeLog]:
    """Play the full two-tier game for every participating type and return
    per-type episode logs keyed by the type's rank 1..J' among the on-time
    types.  Warm tables start the ranks they name and are updated in place;
    the other ranks start cold.  Total work is linear in types times
    episodes."""
    part = participating_set(pop, t_max)
    if not part:
        return {}
    ranks = range(1, len(part) + 1)
    gcs, uav = _new_pairs(len(part), params, cfg)
    # (the caller's tables, the rank's view of the stacked ones)
    warm = [(warm_tables[rank], _pair(gcs, uav, rank - 1))
            for rank in ranks if warm_tables and rank in warm_tables]
    for given, stacked in warm:
        _copy_pair(given, stacked)
    gcs_pay, uav_pay = _payoffs(part, params, gcs, uav)
    played_r, played_s = _play(gcs, uav, (gcs_pay, uav_pay), *_uniforms(seed, ranks, (), episodes))
    for given, stacked in warm:
        _copy_pair(stacked, given)
    logs = {}
    for b, rank in enumerate(ranks):
        r, s = played_r[:, b], played_s[:, b]
        cells = (b * gcs.grid.levels + r) * uav.grid.levels + s
        gcs_state = np.zeros(episodes, dtype=int)
        gcs_state[1:] = s[:-1]
        logs[rank] = EpisodeLog(
            type_index=rank,
            episode=np.arange(episodes),
            gcs_state=gcs_state,
            reward=gcs.grid.values[r],
            vdd_size=uav.grid.values[s],
            gcs_utility=gcs_pay[cells],
            uav_utility=uav_pay[cells],
        )
    return logs

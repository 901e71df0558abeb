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

Each learner draws from its own named random stream derived from the master
seed, so adding learners never perturbs the others' draws and identical
seeds give bitwise-identical logs.
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


@dataclass
class LearnerState:
    """Q-table and mixed-strategy table of one PHC learner.

    States index the opponent's previous quantized action; rows of ``policy``
    are probability vectors.
    """

    grid: ActionGrid
    n_states: int
    q: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    policy: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.q is None:
            self.q = np.zeros((self.n_states, self.grid.levels))
        if self.policy is None:
            self.policy = np.full(
                (self.n_states, self.grid.levels), 1.0 / self.grid.levels
            )


def q_update(ls: LearnerState, s: int, a: int, reward: float, s_next: int) -> LearnerState:
    """Bellman step: Q(s,a) <- (1-k) Q(s,a) + k [r + phi * max_a' Q(s',a')]."""
    best_next = float(np.max(ls.q[s_next]))
    ls.q[s, a] = (1.0 - LEARN_RATE) * ls.q[s, a] + LEARN_RATE * (reward + DISCOUNT * best_next)
    return ls


def policy_update(ls: LearnerState, s: int) -> LearnerState:
    """Shift probability mass toward the greedy action (ties to the lowest
    index), then clip to [0, 1] and renormalize so the row stays a
    distribution."""
    greedy = int(np.argmax(ls.q[s]))
    row = ls.policy[s]
    row -= STEP / ls.grid.levels
    row[greedy] += STEP + STEP / ls.grid.levels
    np.clip(row, 0.0, 1.0, out=row)
    row /= row.sum()
    return ls


def sample_action(ls: LearnerState, s: int, rng: np.random.Generator) -> int:
    """Draw an action index from the mixed strategy at state ``s``."""
    u = rng.random()
    return int(np.searchsorted(np.cumsum(ls.policy[s]), u, side="right").clip(0, ls.grid.levels - 1))


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


def _new_pair(t: UavType, params: GcsParams, cfg: LearnerConfig) -> tuple[LearnerState, LearnerState]:
    reward_grid = ActionGrid(cfg.gcs_levels, params.r_max)
    size_grid = ActionGrid(cfg.uav_levels, params.s_max)
    return (LearnerState(grid=reward_grid, n_states=size_grid.levels),
            LearnerState(grid=size_grid, n_states=reward_grid.levels))


def _play(
    t: UavType,
    params: GcsParams,
    gcs: LearnerState,
    uav: LearnerState,
    episodes: int,
    gcs_rng: np.random.Generator,
    uav_rng: np.random.Generator,
    record: bool,
    rank: int = 1,
) -> EpisodeLog | None:
    """Run the leader/follower reward-size game for one type, updating both
    learners in place; ``rank`` (the type's position 1..J' among the on-time
    types) labels the recorded log.

    Each episode the GCS observes the previous VDD size and announces a
    reward; the UAV observes that reward and responds with a size.  The
    GCS's Bellman bootstrap uses the size just delivered as its next state;
    the UAV's next state is the following episode's reward, so its update
    is deferred one episode.
    """
    log = None
    if record:
        log = EpisodeLog(
            type_index=rank,
            episode=np.arange(episodes),
            gcs_state=np.zeros(episodes, dtype=int),
            reward=np.zeros(episodes),
            vdd_size=np.zeros(episodes),
            gcs_utility=np.zeros(episodes),
            uav_utility=np.zeros(episodes),
        )
    prev_size_idx = 0
    pending: tuple[int, int, float] | None = None  # UAV (state, action, utility)
    for ep in range(episodes):
        gcs_state = prev_size_idx
        a_r = sample_action(gcs, gcs_state, gcs_rng)
        uav_state = a_r
        if pending is not None:
            p_state, p_action, p_utility = pending
            q_update(uav, p_state, p_action, p_utility, a_r)
            policy_update(uav, p_state)
        a_s = sample_action(uav, uav_state, uav_rng)
        r_value = float(gcs.grid.values[a_r])
        s_value = float(uav.grid.values[a_s])
        u_g = gcs_term(t, s_value, r_value, params)
        u_j = uav_payoff(t, s_value, r_value, params.deploy_cost)

        q_update(gcs, gcs_state, a_r, u_g, a_s)
        policy_update(gcs, gcs_state)
        pending = (uav_state, a_s, u_j)

        if log is not None:
            log.gcs_state[ep] = gcs_state
            log.reward[ep] = r_value
            log.vdd_size[ep] = s_value
            log.gcs_utility[ep] = u_g
            log.uav_utility[ep] = u_j
        prev_size_idx = a_s
    if pending is not None:
        # close out the last episode assuming the reward state persists
        p_state, p_action, p_utility = pending
        q_update(uav, p_state, p_action, p_utility, p_state)
        policy_update(uav, p_state)
    return log


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
    keys its logs.  With zero runs this returns cold tables (all-zero Q,
    uniform policies)."""
    tables: dict[int, tuple[LearnerState, LearnerState]] = {}
    for rank, t in enumerate(participating_set(pop, t_max), start=1):
        gcs, uav = _new_pair(t, params, cfg)
        jitter_rng = _rng_for(seed, rank, _HOTBOOT_STREAM)
        for run in range(cfg.hotboot_runs):
            factor = 1.0 + cfg.hotboot_jitter * (2.0 * jitter_rng.random() - 1.0)
            jittered = dataclasses.replace(t, marginal_cost=t.marginal_cost * factor)
            g_rng = _rng_for(seed, rank, _HOTBOOT_STREAM, run, _GCS_STREAM)
            u_rng = _rng_for(seed, rank, _HOTBOOT_STREAM, run, _UAV_STREAM)
            _play(jittered, params, gcs, uav, cfg.hotboot_length, g_rng, u_rng, record=False)
        tables[rank] = (gcs, uav)
    return tables


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
    types.  Total work is linear in types times episodes."""
    logs: dict[int, EpisodeLog] = {}
    for rank, t in enumerate(participating_set(pop, t_max), start=1):
        if warm_tables is not None and rank in warm_tables:
            gcs, uav = warm_tables[rank]
        else:
            gcs, uav = _new_pair(t, params, cfg)
        g_rng = _rng_for(seed, rank, _GCS_STREAM)
        u_rng = _rng_for(seed, rank, _UAV_STREAM)
        log = _play(t, params, gcs, uav, episodes, g_rng, u_rng, record=True, rank=rank)
        assert log is not None
        logs[rank] = log
    return logs

"""Incentive-contract design and simulation for collaborative UAV honeypot
defense: closed-form menu solvers, a two-tier policy-hill-climbing learner,
channel/mobility models, brute-force oracles, and an experiment harness."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    ContractItem,
    ContractMenu,
    FeasibilityReport,
    GcsParams,
    Population,
    UavType,
    canonicalize,
    check_fairness,
    check_feasibility,
    defensive_effectiveness,
    gcs_utility,
    participating_set,
    social_surplus,
)
from .solver import (  # noqa: F401
    RelaxedSolution,
    SolverConfig,
    iron,
    linear_contract,
    optimal_rewards,
    solve_complete,
    solve_partial,
    solve_partial_relaxed,
    uniform_contract,
)

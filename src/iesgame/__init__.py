"""Integrated electricity/heat scheduling as a leader-follower pricing game.

Pipeline: discretize the renewable output laws into probability
sequences, convert the reserve chance constraint to its deterministic
equivalent, build the operator and user problems, collapse them to one
mixed-integer program through optimality conditions with big-M
linearization, and solve it with HiGHS, with enumeration and Monte Carlo
oracles for verification.
"""

from .config import ConfigError, ScenarioConfig, load_scenario
from .game_model import (EquilibriumSolution, ModeSettings, ValidationReport,
                         build_follower, build_leader, follower_best_response,
                         verify_solution)
from .kkt_reformulation import assemble_single_level
from .solve_engine import SolveOptions, enumerate_oracle, solve

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "load_scenario",
    "EquilibriumSolution",
    "ModeSettings",
    "ValidationReport",
    "build_follower",
    "build_leader",
    "follower_best_response",
    "verify_solution",
    "assemble_single_level",
    "SolveOptions",
    "enumerate_oracle",
    "solve",
    "__version__",
]

"""Cops-and-robber pursuit games on compact geodesic spaces.

Submodules:

* :mod:`pursuit.spaces`  -- geodesic spaces, nets, geodesic stepping
* :mod:`pursuit.game`    -- positions, agility schedules, trajectories
* :mod:`pursuit.solver`  -- net minimax solver, bounds, policies
* :mod:`pursuit.arena`   -- continuous strategies played on the true space
* :mod:`pursuit.verify`  -- certification suite for the solver inequalities
* :mod:`pursuit.cli`     -- ``pursuit`` command line entry point
"""

from .arena import builtin_strategies, get_strategy, run_game
from .game import (
    Agility,
    Position,
    Trajectory,
    agility_from_config,
    subdivide,
    trajectory_value,
)
from .solver import (
    ValueTable,
    cop_number_estimate,
    duration_value,
    limit_value,
    policy_playout,
    solve_finite,
    solve_volatile,
    standard_value,
)
from .spaces import (
    BallSpace,
    MetricGraphSpace,
    Net,
    ProductSpace,
    Space,
    SphereSpace,
    build_net,
    space_from_config,
)
from .verify import LemmaReport, minmax_gap_probe, run_suite

__all__ = [
    "Agility",
    "BallSpace",
    "LemmaReport",
    "MetricGraphSpace",
    "Net",
    "Position",
    "ProductSpace",
    "Space",
    "SphereSpace",
    "Trajectory",
    "ValueTable",
    "agility_from_config",
    "build_net",
    "builtin_strategies",
    "cop_number_estimate",
    "duration_value",
    "get_strategy",
    "limit_value",
    "minmax_gap_probe",
    "policy_playout",
    "run_game",
    "run_suite",
    "solve_finite",
    "solve_volatile",
    "space_from_config",
    "standard_value",
    "subdivide",
    "trajectory_value",
]

__version__ = "0.1.0"

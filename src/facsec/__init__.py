"""Solvers for a facility-security attacker-defender game.

Closed-form equilibria of the simultaneous and defender-first games, an
LP oracle layer for verifying them, cost-region comparison of the two
orders of play, and a repeated-routing simulator with Bayesian state learning.
"""

from .analysis import (
    CostRegion,
    GameComparison,
    InternalInconsistency,
    classify_cost_region,
    compare_games,
    regime_sweep,
    write_sweep_csv,
)
from .learning import (
    Belief,
    LearningTrace,
    SimulationConfig,
    StateDistribution,
    run_simulation,
    stage_step,
    state_distribution,
    write_trace_csv,
)
from .model import (
    AttackDistribution,
    CostParams,
    EffortVector,
    EmptyVulnerableUniverse,
    FacilityProfile,
    ModelError,
    expected_utilities,
    partition_by_cost,
    vulnerable_set,
)
from .normalform import (
    BoundaryParameters,
    NormalFormEquilibrium,
    build_attacker_lp,
    cd_threshold_bar,
    classify_regime_ne,
    solve_ne,
)
from .oracle import (
    LinearProgram,
    LpSolution,
    simplex_solve,
    verify_ne,
    verify_spe,
)
from .routing import (
    AffineLatency,
    Edge,
    FlowAssignment,
    Route,
    RoutedNetwork,
    usage_cost_for_state,
    wardrop_equilibrium,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .sequential import (
    SpeOutcome,
    cd_threshold_tilde,
    cd_tilde_inverse,
    classify_regime_spe,
    solve_spe,
)

__all__ = [name for name in dir() if not name.startswith("_")]

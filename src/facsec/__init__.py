"""Solvers for a facility-security attacker-defender game.

Closed-form equilibria of the simultaneous and defender-first games, an
LP oracle layer for verifying them, cost-region comparison of the two
orders of play, and a repeated-routing simulator with Bayesian state learning.

``import facsec`` loads no submodule. Each exported name is imported from the
submodule that defines it on first use (PEP 562), so a caller pays only for the
layers it reaches.
"""

from importlib import import_module as _import_module

# Every exported name and the submodule that defines it; a submodule names itself.
_ORIGIN = {
    **{name: name for name in (
        "analysis", "learning", "model", "normalform", "oracle", "routing", "scenario", "sequential",
    )},
    **dict.fromkeys((
        "CostRegion", "GameComparison", "InternalInconsistency", "classify_cost_region",
        "compare_games", "regime_sweep", "write_sweep_csv",
    ), "analysis"),
    **dict.fromkeys((
        "Belief", "LearningTrace", "SimulationConfig", "StateDistribution", "run_simulation",
        "stage_step", "state_distribution", "write_trace_csv",
    ), "learning"),
    **dict.fromkeys((
        "AttackDistribution", "CostParams", "EffortVector", "EmptyVulnerableUniverse",
        "FacilityProfile", "ModelError", "expected_utilities", "partition_by_cost", "vulnerable_set",
    ), "model"),
    **dict.fromkeys((
        "BoundaryParameters", "NormalFormEquilibrium", "build_attacker_lp", "cd_threshold_bar",
        "classify_regime_ne", "solve_ne",
    ), "normalform"),
    **dict.fromkeys(("LinearProgram", "LpSolution", "simplex_solve", "verify_ne", "verify_spe"), "oracle"),
    **dict.fromkeys((
        "AffineLatency", "Edge", "FlowAssignment", "Route", "RoutedNetwork", "usage_cost_for_state",
        "wardrop_equilibrium",
    ), "routing"),
    **dict.fromkeys(("Scenario", "ScenarioError", "load_scenario", "parse_scenario"), "scenario"),
    **dict.fromkeys((
        "SpeOutcome", "cd_threshold_tilde", "cd_tilde_inverse", "classify_regime_spe", "solve_spe",
    ), "sequential"),
}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    try:
        origin = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = _import_module(f"{__name__}.{origin}")  # also binds the submodule here
    value = module if origin == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN})

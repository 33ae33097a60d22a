"""What a fresh interpreter loads: ``import facsec`` loads no submodule, the CLI
only the scenario layer, and each command and scenario section what it uses."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LOCKIN = REPO / "scenarios" / "lockin.scn"

# The package's exports before they were resolved on first use; each must still resolve.
EXPORTS = [
    "AffineLatency", "AttackDistribution", "Belief", "BoundaryParameters", "CostParams", "CostRegion",
    "Edge", "EffortVector", "EmptyVulnerableUniverse", "FacilityProfile", "FlowAssignment",
    "GameComparison", "InternalInconsistency", "LearningTrace", "LinearProgram", "LpSolution",
    "ModelError", "NormalFormEquilibrium", "Route", "RoutedNetwork", "Scenario", "ScenarioError",
    "SimulationConfig", "SpeOutcome", "StateDistribution", "analysis", "build_attacker_lp",
    "cd_threshold_bar", "cd_threshold_tilde", "cd_tilde_inverse", "classify_cost_region",
    "classify_regime_ne", "classify_regime_spe", "compare_games", "expected_utilities", "learning",
    "load_scenario", "model", "normalform", "oracle", "parse_scenario", "partition_by_cost",
    "regime_sweep", "routing", "run_simulation", "scenario", "sequential", "simplex_solve",
    "solve_ne", "solve_spe", "stage_step", "state_distribution", "usage_cost_for_state", "verify_ne",
    "verify_spe", "vulnerable_set", "wardrop_equilibrium", "write_sweep_csv", "write_trace_csv",
]


def fresh(code: str):
    """Run ``code`` in a new interpreter, with ``loaded()`` naming the facsec
    modules imported so far, and return what it prints as JSON."""
    prelude = "import json, sys\ndef loaded():\n    return sorted(m for m in sys.modules if m.split('.')[0] == 'facsec')\n"
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)], capture_output=True,
                          text=True, cwd=REPO, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_cli_and_parsing_load_only_what_the_scenario_uses():
    steps = fresh(f"""
        import facsec, facsec.cli
        steps = [loaded()]
        facsec.parse_scenario("[facilities]\\nbaseline_cost 1\\ne1 2\\n[costs]\\nattack_cost 0.5\\ndefense_cost 0.1\\n")
        steps.append(loaded())
        facsec.load_scenario({str(LOCKIN)!r})
        steps.append(loaded())
        print(json.dumps(steps))
    """)
    cli = ["facsec", "facsec.cli", "facsec.model", "facsec.scenario"]
    assert steps == [cli, cli, sorted(cli + ["facsec.learning", "facsec.routing"])]


def test_simulate_with_a_point_true_state_loads_no_solver():
    mods = fresh(f"""
        import contextlib, io
        from facsec.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--scenario", {str(LOCKIN)!r}, "--horizon", "5"]) == 0
        print(json.dumps(loaded()))
    """)
    assert "facsec.learning" in mods
    assert not {"facsec.analysis", "facsec.normalform", "facsec.sequential", "facsec.oracle"} & set(mods)


def test_every_export_resolves_on_first_use():
    found = fresh(f"""
        names = {EXPORTS!r}
        import facsec
        untouched = loaded()
        listed = [name for name in names if name in dir(facsec)]
        direct = [name for name in names if getattr(facsec, name) is not None]
        imported = {{}}
        exec("from facsec import " + ", ".join(names), imported)
        star = {{}}
        exec("from facsec import *", star)
        print(json.dumps([untouched, sorted(facsec.__all__), listed, direct,
                          [name for name in names if imported[name] is getattr(facsec, name)],
                          [name for name in names if star.get(name) is getattr(facsec, name)]]))
    """)
    untouched, exported, *resolved = found
    assert untouched == ["facsec"]
    assert exported == EXPORTS
    assert resolved == [EXPORTS] * 4

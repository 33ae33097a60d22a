import csv
import dataclasses
import hashlib
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from facsec import cli, scenario
from facsec.cli import main
from facsec.model import CostParams, FacilityProfile
from facsec.routing import usage_cost_for_state
from facsec.scenario import ScenarioError, load_scenario, parse_scenario

from conftest import random_game, scaled_game

REPO = Path(__file__).resolve().parent.parent
THREE = REPO / "scenarios" / "three_facility.scn"
LOCKIN = REPO / "scenarios" / "lockin.scn"


def patched(tmp_path, name, old, new):
    text = THREE.read_text().replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- scenario


def test_parse_shipped_scenario():
    scn = load_scenario(str(THREE))
    assert scn.profile.baseline_cost == 17.0
    assert scn.profile.facilities == (("e1", 20.0), ("e2", 19.0), ("e3", 18.0))
    assert scn.params.attack_cost == 0.5
    assert scn.params.defense_cost == 0.3
    assert scn.network.demand == 10.0
    assert scn.network.route_ids == ("r1", "r2")
    assert scn.learning.horizon == 100
    assert scn.learning.true_state == "ne"
    assert scn.learning.noise_half_width == 3.0
    assert scn.learning.prior.prob("e2") == pytest.approx(1 / 3, abs=1e-12)


def test_shipped_scenarios_declare_the_costs_their_network_gives():
    """C0 is the intact network's equilibrium usage cost and C_e the one with edge e
    compromised (``usage_cost_for_state``), exactly. Only facilities that name an edge
    are checked: a facility may stand for something the network does not model."""
    paths = sorted((REPO / "scenarios").glob("*.scn"))
    assert [path.name for path in paths] == ["lockin.scn", "three_facility.scn"]
    for path in paths:
        scn = load_scenario(str(path))
        assert scn.profile.baseline_cost == usage_cost_for_state(scn.network, None), path.name
        for fac, cost in scn.profile.facilities:
            if fac in scn.network.edge_ids:
                assert cost == usage_cost_for_state(scn.network, fac), (path.name, fac)


def test_defaults_without_learning_extras():
    text = THREE.read_text()
    text = text[: text.index("noise_half_width")] + "noise_half_width 2\nprior none 1.0\n"
    scn = parse_scenario(text)
    assert scn.learning.horizon == 100  # default
    assert scn.learning.true_state == "ne"  # default


def test_network_and_learning_are_optional():
    scn = parse_scenario(
        "[facilities]\nbaseline_cost 5\na 8\n[costs]\nattack_cost 1\ndefense_cost 1\n"
    )
    assert scn.network is None
    assert scn.learning is None


def test_parse_errors_carry_line_numbers(tmp_path):
    bad = "[facilities]\nbaseline_cost 17\ne1 oops\n"
    with pytest.raises(ScenarioError, match=r"<scenario>:3: not a number: 'oops'"):
        parse_scenario(bad)
    with pytest.raises(ScenarioError, match=r":1: unknown section"):
        parse_scenario("[nonsense]\n")
    with pytest.raises(ScenarioError, match=r":1: .*before any section"):
        parse_scenario("baseline_cost 17\n")
    with pytest.raises(ScenarioError, match=r"duplicate section"):
        parse_scenario("[costs]\nattack_cost 1\n[costs]\n")
    with pytest.raises(ScenarioError, match=r":9: .*4 coefficients"):
        parse_scenario("[facilities]\nbaseline_cost 5\na 8\n[costs]\nattack_cost 1\ndefense_cost 1\n[network]\ndemand 1\nedge e1 1 0\nroute r e1\n")


def test_semantic_errors_anchor_to_their_section():
    base = (
        "[facilities]\nbaseline_cost 5\na 8\n"
        "[costs]\nattack_cost 1\ndefense_cost 1\n"
    )
    with pytest.raises(ScenarioError, match=r":7: route 'r' uses unknown edges"):
        parse_scenario(base + "[network]\ndemand 4\nedge x 1 0 1 0\nroute r missing\n")
    with pytest.raises(ScenarioError, match=r"compromised latency below nominal"):
        parse_scenario(base + "[network]\ndemand 4\nedge x 1 5 1 1\nroute r x\n")
    with pytest.raises(ScenarioError, match=r"requires a \[network\]"):
        parse_scenario(base + "[learning]\nnoise_half_width 1\nprior none 1\n")
    net = "[network]\ndemand 4\nedge x 1 0 1 2\nroute r x\n"
    with pytest.raises(ScenarioError, match=r"prior"):
        parse_scenario(base + net + "[learning]\nnoise_half_width 1\nprior ghost 1\n")
    with pytest.raises(ScenarioError, match=r"true_state"):
        parse_scenario(base + net + "[learning]\nnoise_half_width 1\nprior none 1\ntrue_state ghost\n")


def test_repeated_learning_settings_are_rejected():
    text = THREE.read_text()
    for line in ("noise_half_width 3", "horizon 100", "true_state ne"):
        doubled = text.replace(line, f"{line}\n{line}")
        lineno = doubled.splitlines().index(line) + 2
        with pytest.raises(ScenarioError, match=rf":{lineno}: duplicate {line.split()[0]}"):
            parse_scenario(doubled)


@pytest.mark.parametrize(
    "row, word",
    [pytest.param("edge", w, id=w) for w in ("none", "empty", "ne", "spe")]
    + [pytest.param("facility", w, id=f"facility-{w}") for w in ("none", "empty", "ne", "spe")],
)
def test_cli_rejects_reserved_edge_ids(capsys, tmp_path, row, word):
    # every " e1" names the edge e1: its edge line, a route and a prior row;
    # "\ne1 " starts the facility row e1
    old = " e1" if row == "edge" else "\ne1 "
    path = tmp_path / "reserved.scn"
    path.write_text(LOCKIN.read_text().replace(old, old.replace("e1", word)))
    code, out = run_cli(capsys, "simulate", "--scenario", str(path), "--horizon", "3")
    assert code == 1
    assert f"{row} id '{word}' is a reserved word" in out


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="No such file"):
        load_scenario(str(tmp_path / "absent.scn"))


# Every section of a scenario, one line each; the grammar cases edit it.
GRAMMAR_LINES = (
    "[facilities]", "baseline_cost 5", "a 8",
    "[costs]", "attack_cost 1", "defense_cost 1",
    "[network]", "demand 4", "edge x 1 0 1 2", "route r x",
    "[learning]", "noise_half_width 1", "horizon 5", "true_state none", "prior none 1",
)
SECTION_AT = {line[1:-1]: n for n, line in enumerate(GRAMMAR_LINES, start=1) if line.startswith("[")}
USAGE = {
    "facilities": "expected '<id> <cost>' or 'baseline_cost <cost>'",
    "costs": "expected 'attack_cost <x>' or 'defense_cost <x>'",
    "network": "expected 'demand <x>', 'edge <id> <4 coefficients>', or 'route <id> <edges...>'",
    "learning": "expected 'noise_half_width <x>', 'horizon <n>', 'true_state <s>', or 'prior <state> <p>'",
}
ONCE = ("baseline_cost", "attack_cost", "defense_cost", "demand", "noise_half_width", "horizon", "true_state")
REQUIRED = {"baseline_cost": "facilities", "attack_cost": "costs", "defense_cost": "costs",
            "demand": "network", "noise_half_width": "learning"}


def grammar_cases():
    lines = list(GRAMMAR_LINES)
    for name, at in SECTION_AT.items():  # a row no section accepts, right after the header
        yield pytest.param(lines[:at] + ["bogus 1 2 3"] + lines[at:], f":{at + 1}: {USAGE[name]}",
                           id=f"usage-{name}")
    for key in ONCE:  # the setting given twice in a row
        n = next(n for n, line in enumerate(lines) if line.split()[0] == key)
        yield pytest.param(lines[:n + 1] + [lines[n]] + lines[n + 1:], f":{n + 2}: duplicate {key}",
                           id=f"duplicate-{key}")
    for key, name in REQUIRED.items():  # the setting left out: anchored at its section header
        yield pytest.param([line for line in lines if line.split()[0] != key],
                           f":{SECTION_AT[name]}: missing {key}", id=f"missing-{key}")
    for key, token, message in (("baseline_cost", "1_7", "not a number"), ("horizon", "1_000", "not an integer")):
        n = next(n for n, line in enumerate(lines) if line.split()[0] == key)  # digit-group underscores
        yield pytest.param(lines[:n] + [f"{key} {token}"] + lines[n + 1:], f":{n + 1}: {message}: {token!r}",
                           id=f"underscore-{key}")
    yield pytest.param(lines[3:], ": missing [facilities] section", id="missing-facilities")
    yield pytest.param(lines[:3] + lines[6:], ": missing [costs] section", id="missing-costs")

    def replaced(old, *new):
        n = lines.index(old)
        return lines[:n] + list(new) + lines[n + 1:]

    # the input checks past the grammar: the value checks of [learning] and of one token,
    # and the network's, anchored at its section header
    learning, network = SECTION_AT["learning"], SECTION_AT["network"]
    yield pytest.param(replaced("noise_half_width 1", "noise_half_width 0"),
                       f":{learning}: noise_half_width must be positive", id="zero-noise")
    yield pytest.param(replaced("horizon 5", "horizon 0"), f":{learning}: horizon must be at least 1",
                       id="zero-horizon")
    yield pytest.param(replaced("prior none 1"), f":{learning}: missing prior rows", id="no-prior")
    yield pytest.param(replaced("a 8", "a nan"), ":3: non-finite number 'nan'", id="nan")
    yield pytest.param(replaced("demand 4", "demand inf"), ":8: non-finite number 'inf'", id="inf")
    yield pytest.param(replaced("route r x", "route r x", "route r x"), f":{network}: duplicate route ids",
                       id="repeated-route")
    yield pytest.param(replaced("edge x 1 0 1 2", "edge x 1 0 -1 2"),
                       f":{network}: edge 'x' has negative latency coefficients", id="negative-edge")
    yield pytest.param(replaced("prior none 1", "prior none 0.95"),
                       f":{learning}: probabilities sum to 0.95, expected 1", id="prior-sum")


@pytest.mark.parametrize("lines, message", grammar_cases())
def test_grammar_messages(lines, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario("\n".join(lines) + "\n")
    assert str(info.value) == "<scenario>" + message


def test_module_docstring_example_parses():
    example = textwrap.dedent(scenario.__doc__.split("Example::\n")[1])
    scn = parse_scenario(example)
    assert scn.network.route_ids == ("r1",)
    assert scn.learning.horizon == 50 and scn.learning.true_state == "none"


def test_readme_scenario_block_is_the_three_facility_scenario():
    block = (REPO / "README.md").read_text().split("## Scenario format")[1].split("```\n")[1]
    assert parse_scenario(block, "README.md") == load_scenario(str(THREE))


# ---------------------------------------------------------------- cli


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def test_cli_solve_ne_golden(capsys):
    code, out = run_cli(capsys, "solve-ne", "--scenario", str(THREE))
    assert code == 0
    assert out == (
        "regime: I-3\n"
        "effort: e1=0.833333333 e2=0.75 e3=0.5\n"
        "attack: e1=0.1 e2=0.15 e3=0.3 none=0.45\n"
        "Ud: -17.9\n"
        "Ua: 17\n"
    )


def test_cli_solve_spe_golden(capsys):
    code, out = run_cli(capsys, "solve-spe", "--scenario", str(THREE))
    assert code == 0
    assert out == (
        "regime: I~-3\n"
        "deterred: yes\n"
        "effort: e1=0.833333333 e2=0.75 e3=0.5\n"
        "attack: e1=0 e2=0 e3=0 none=1\n"
        "Uds: -17.625\n"
        "Uas: 17\n"
    )


def test_cli_solve_spe_conceding(capsys, tmp_path):
    scn = patched(tmp_path, "high.scn", "defense_cost 0.3", "defense_cost 1.5")
    code, out = run_cli(capsys, "solve-spe", "--scenario", scn)
    assert code == 0
    assert "regime: II~-2\n" in out
    assert "deterred: no\n" in out
    assert "admissible: e1 e2\n" in out
    assert "Uds: -19.5\n" in out
    assert "Uas: 18.5\n" in out


def test_cli_solve_spe_with_nothing_vulnerable(capsys, tmp_path):
    scn = patched(tmp_path, "novuln.scn", "attack_cost 0.5", "attack_cost 4")
    code, out = run_cli(capsys, "solve-spe", "--scenario", scn)
    assert code == 0
    assert out.startswith("regime: I~-0\nno vulnerable facilities; no attack\n")
    assert "attack: e1=0 e2=0 e3=0 none=1\n" in out


def test_cli_compare_golden(capsys):
    code, out = run_cli(capsys, "compare", "--scenario", str(THREE))
    assert code == 0
    assert out == (
        "region: L, gap: 0.275\n"
        "Ud: -17.9\n"
        "Uds: -17.625\n"
        "Ua: 17\n"
        "Uas: 17\n"
        "advantage: yes\n"
    )


def test_cli_reports_missing_vulnerability(capsys, tmp_path):
    scn = patched(tmp_path, "novuln.scn", "attack_cost 0.5", "attack_cost 3.5")
    code, out = run_cli(capsys, "solve-ne", "--scenario", scn)
    assert code == 0
    assert "regime: I-0\n" in out
    assert "no vulnerable facilities; no attack\n" in out
    assert "Ud: -17\n" in out
    code, out = run_cli(capsys, "compare", "--scenario", scn)
    assert code == 0
    assert out.startswith("region: none, gap: 0\n")
    assert "advantage: no\n" in out


def test_cli_boundary_parameters_exit_2(capsys, tmp_path):
    scn = patched(tmp_path, "edge.scn", "attack_cost 0.5", "attack_cost 3.0")
    code, out = run_cli(capsys, "solve-ne", "--scenario", scn)
    assert code == 2
    assert out.startswith("regime: boundary\n")
    assert "lp_value: 17\n" in out

    code, out = run_cli(capsys, "solve-spe", "--scenario", scn)
    assert code == 2
    assert out == (
        "regime: boundary\n"
        "note: parameters on a regime boundary; no closed-form commitment solution\n"
    )

    code, out = run_cli(capsys, "compare", "--scenario", scn)
    assert code == 2
    assert out.startswith("region: boundary\n")

    code, out = run_cli(capsys, "verify", "--scenario", scn)
    assert code == 2
    assert "closed-form checks skipped" in out

    for token in ("ne", "spe"):  # no closed form to draw the true state from
        path = tmp_path / f"edge-{token}.scn"
        path.write_text(Path(scn).read_text().replace("true_state ne", f"true_state {token}"))
        code, out = run_cli(capsys, "simulate", "--scenario", str(path), "--horizon", "3")
        assert code == 2
        assert out == ("error: cannot derive the state distribution: (attack_cost=3.0, defense_cost=0.3)"
                       " lies on a regime boundary\n")


def test_cli_verify_golden(capsys):
    code, out = run_cli(capsys, "verify", "--scenario", str(THREE))
    assert code == 0
    assert out == (
        "check lp: closed-form value 17.625, LP optimum 17.625 -- ok\n"
        "check ne: mutual best responses within 1e-09 -- ok\n"
        "check spe: one LP per attacker response against the committed effort -- ok\n"
        "all checks passed\n"
    )


def test_cli_verify_catches_perturbations(capsys):
    code, out = run_cli(capsys, "verify", "--scenario", str(THREE), "--perturb", "0.02")
    assert code == 3
    assert "verification failed" in out
    assert "-- FAILED" in out
    # --eps is the tolerance of every check, the commitment check included
    code, out = run_cli(capsys, "verify", "--scenario", str(THREE), "--perturb", "0.02", "--eps", "1")
    assert code == 0, out


@pytest.mark.parametrize("flag, value", [
    ("--eps", "nan"), ("--eps", "inf"), ("--eps", "-1e-9"), ("--perturb", "nan"), ("--perturb", "-inf"),
])
def test_cli_verify_rejects_a_bad_tolerance_or_perturbation(capsys, flag, value):
    code, out = run_cli(capsys, "verify", "--scenario", str(THREE), f"{flag}={value}")
    assert code == 1
    assert out.startswith(f"error: bad {flag} ")


def test_cli_verify_checks_the_claimed_ne_utilities(capsys, monkeypatch):
    solve_ne = cli.solve_ne

    def wrong_ud(profile, params):
        eq = solve_ne(profile, params)
        return dataclasses.replace(eq, defender_utility=eq.defender_utility + 1e-6)

    monkeypatch.setattr(cli, "solve_ne", wrong_ud)
    code, out = run_cli(capsys, "verify", "--scenario", str(THREE))
    assert code == 3
    assert "check ne: mutual best responses within 1e-09 -- FAILED -- claimed Ud -17.8999" in out
    assert "vs expected -17.9" in out
    code, out = run_cli(capsys, "verify", "--scenario", str(THREE), "--eps", "1e-6")
    assert code == 0, out


def test_cli_verify_eps_reaches_the_lp_check(capsys, monkeypatch):
    """--eps is the cost tolerance of every check, the attacker LP's included, floored
    at 1e-12: an LP optimum 5e-9 off, relative, fails by default and passes at 1e-8."""
    code, out = run_cli(capsys, "verify", "--scenario", str(THREE), "--eps", "0")
    assert code == 0, out
    assert "check ne: mutual best responses within 1e-12 -- ok\n" in out
    lp_optimum = cli.attacker_lp_optimum

    def off_optimum(profile, params):
        sol = lp_optimum(profile, params)
        return dataclasses.replace(sol, value=sol.value * (1.0 + 5e-9))

    monkeypatch.setattr(cli, "attacker_lp_optimum", off_optimum)
    code, out = run_cli(capsys, "verify", "--scenario", str(THREE))
    assert code == 3
    assert out.startswith("check lp: closed-form value 17.625, LP optimum 17.6250001 -- FAILED\n"), out
    code, out = run_cli(capsys, "verify", "--scenario", str(THREE), "--eps", "1e-8")
    assert code == 0, out


def test_cli_verify_checks_eight_vulnerable_facilities(capsys, tmp_path):
    costs = "\n".join(f"f{i} {12.0 + 1.5 * i}" for i in range(8))
    scn = tmp_path / "eight.scn"
    scn.write_text(f"[facilities]\nbaseline_cost 10\n{costs}\n[costs]\nattack_cost 1\ndefense_cost 2.2\n")
    code, out = run_cli(capsys, "verify", "--scenario", str(scn))
    assert code == 0, out
    assert "check spe: one LP per attacker response against the committed effort -- ok\n" in out


def test_cli_verify_and_the_boundary_report_at_2000_facilities(capsys, tmp_path):
    """The scenario of CI's 2000-facility step. The attacker LP is filled by its
    structure, so each run takes well under a second of CPU time, where the dense
    simplex took more than a minute. At ca = C(1) - C0 nothing is vulnerable and the exit-2
    report puts all the mass on not attacking."""
    costs = np.random.default_rng(2000).uniform(12.0, 18.0, size=2000).tolist()
    facilities = "\n".join(f"f{t} {c!r}" for t, c in enumerate(costs))
    scn = tmp_path / "large.scn"
    for attack_cost, command, want in ((1.0, "verify", 0), (max(costs) - 10.0, "solve-ne", 2)):
        scn.write_text(f"[facilities]\nbaseline_cost 10\n{facilities}\n"
                       f"[costs]\nattack_cost {attack_cost!r}\ndefense_cost 0.05\n")
        start = time.process_time()
        code, out = run_cli(capsys, command, "--scenario", str(scn))
        elapsed = time.process_time() - start
        assert code == want, out
        assert elapsed < 3.0, (command, elapsed)
    assert out.startswith("regime: boundary\n") and "lp_value: 10\n" in out
    assert out.endswith(" f1999=0 none=1\n")


def _scenario_text(profile, params):
    facilities = "\n".join(f"{fac} {cost!r}" for fac, cost in profile.facilities)
    return (f"[facilities]\nbaseline_cost {profile.baseline_cost!r}\n{facilities}\n"
            f"[costs]\nattack_cost {params.attack_cost!r}\ndefense_cost {params.defense_cost!r}\n")


@pytest.mark.parametrize("lam", [1.0, 1e3, 1e6, 1e9])
def test_cli_verify_judges_every_cost_scale_alike(capsys, tmp_path, lam):
    """The game has no unit of cost, so neither may `verify`: with C0, every Ce, ca and cd
    times lam, the CI 2000-facility profile and 20 random small instances pass every
    check, and --perturb 0.02 fails each of them."""
    costs = np.random.default_rng(2000).uniform(12.0, 18.0, size=2000).tolist()
    large = FacilityProfile(10.0, tuple((f"f{t}", c) for t, c in enumerate(costs)))
    rng = np.random.default_rng(19)
    scn = tmp_path / "scaled.scn"
    for game in [(large, CostParams(1.0, 0.05))] + [random_game(rng) for _ in range(20)]:
        scn.write_text(_scenario_text(*scaled_game(*game, lam)))
        for extra, want in (((), 0), (("--perturb", "0.02"), 3)):
            code, out = run_cli(capsys, "verify", "--scenario", str(scn), *extra)
            assert code == want, (lam, game[1], extra, out)


def test_cli_regimes_csv(capsys, tmp_path):
    out_file = tmp_path / "grid.csv"
    code, _ = run_cli(capsys, "regimes", "--scenario", str(THREE), "--grid", "0:4:8,0:4:8", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "ca,cd,ne_regime,spe_regime,region,ud,uds,ua,uas"
    assert len(lines) == 65
    assert lines[1].startswith("0.25,0.25,I-3,I~-3,L,")


def test_cli_regimes_rejects_bad_grid(capsys):
    code, _ = run_cli(capsys, "regimes", "--scenario", str(THREE), "--grid", "zero:four")
    assert code == 1
    code, out = run_cli(capsys, "regimes", "--scenario", str(THREE), "--grid", "0:inf:3,0:4:3")
    assert code == 1 and "must be finite" in out and "boundary" not in out
    # the first midpoint, -1/6, is the smallest one
    code, out = run_cli(capsys, "regimes", "--scenario", str(THREE), "--grid=-1:4:3,0:4:3")
    assert code == 1 and "attack cost must be positive" in out
    code, out = run_cli(capsys, "regimes", "--scenario", str(THREE), "--grid=0:4:3,-1:0.2:3")
    assert code == 1 and "defense cost must be positive" in out


def test_cli_regimes_one_cell_axis(capsys, tmp_path):
    # a 1-cell axis samples its midpoint: a defense-cost slice at ca = 0.5
    out_file = tmp_path / "slice.csv"
    code, _ = run_cli(capsys, "regimes", "--scenario", str(THREE), "--grid", "0:1:1,0:4:40", "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.read_text().splitlines()))
    assert len(rows) == 40
    assert {row["ca"] for row in rows} == {"0.5"}
    assert [row["cd"] for row in rows[:2]] == ["0.05", "0.15"]
    code, _ = run_cli(capsys, "regimes", "--scenario", str(THREE), "--grid", "0:4:0,0:4:40")
    assert code == 1


def test_cli_simulate_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, _ = run_cli(capsys, "simulate", "--scenario", str(LOCKIN), "--seed", "13", "--out", str(a))
    assert code == 0
    code, _ = run_cli(capsys, "simulate", "--scenario", str(LOCKIN), "--seed", "13", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "# seed=13 true_state=none"
    assert len(lines) == 2 + 50


def test_cli_simulate_an_edge_as_the_true_state(capsys, tmp_path):
    path = tmp_path / "e2.scn"
    path.write_text(LOCKIN.read_text().replace("true_state none", "true_state e2"))
    code, out = run_cli(capsys, "simulate", "--scenario", str(path), "--seed", "5", "--horizon", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# seed=5 true_state=e2"
    assert len(lines) == 2 + 3


def test_cli_rejects_an_edge_latency_that_overflows(capsys, tmp_path):
    # slope 1e300 at demand 1e300: the latency is inf, not "compromised below nominal"
    path = tmp_path / "overflow.scn"
    text = LOCKIN.read_text().replace("demand 5", "demand 1e300")
    path.write_text(text.replace("edge e2 1 2 2.3333333333333335 50", "edge e2 1e300 2 1e300 50"))
    code, out = run_cli(capsys, "simulate", "--scenario", str(path), "--horizon", "3")
    assert code == 1
    assert "edge 'e2': latency not finite at load 1e+300" in out


SIMULATE_GOLDEN = {
    (LOCKIN, 7): "55ff9094740d4a9d79121e389ba6df5162b8609af2f60d10a9df9aed2d03dddd",
    (LOCKIN, 13): "c7e270a0fb2ccc6c97d2aae0aadd2466695747fca0c5c4acd7cc2fe1d45992ac",
    (LOCKIN, 21): "02dd4ffbdc66c6d888611feef1d6f09105f9839783b0e3dcdb1ade61d7958266",
    (THREE, 7): "f27aeb5918c81ed83982c3385fad9665e307ef07c4f23610c65116fe6c6dfbcc",
    (THREE, 13): "b6348dfb244b35c3fa281c143f9a0fc41a29f8616d0e34058abf86e51be5dd75",
    (THREE, 21): "40e93a0109c6f78ac9b0e21c3f5ca1231a68261777b6cce71edc578843ebaa51",
}


@pytest.mark.parametrize("path, seed", list(SIMULATE_GOLDEN), ids=lambda v: getattr(v, "stem", v))
def test_cli_simulate_golden(capsys, path, seed):
    # pinned from the stage loop that solved Wardrop on every stage
    code = main(["simulate", "--scenario", str(path), "--seed", str(seed)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == SIMULATE_GOLDEN[path, seed]


QUOTED_IDS = """\
[facilities]
baseline_cost 17
e1 20

[costs]
attack_cost 0.5
defense_cost 0.3

[network]
demand 5
edge e,1 1 0 1 0
edge e"2 1 2 2.3333333333333335 50
edge e3 1 2 1 2
route r,1 e"2 e,1
route "r2" e3 e,1

[learning]
noise_half_width 3
horizon 4
true_state none
prior e,1 0.0833333333333333
prior e"2 0.3333333333333333
prior e3 0.0833333333333333
prior none 0.5
"""


def test_cli_simulate_quotes_ids_in_the_header(capsys, tmp_path):
    # pinned from the csv.writer row loop
    path = tmp_path / "quoted.scn"
    path.write_text(QUOTED_IDS)
    code, out = run_cli(capsys, "simulate", "--scenario", str(path), "--seed", "7")
    assert code == 0
    assert out == (
        "# seed=7 true_state=none\n"
        't,"theta_e,1","theta_e""2",theta_e3,theta_empty,"q_r,1","q_""r2""","obs_e,1","obs_e""2",obs_e3,degenerate\n'
        "1,0.0833333333,0.333333333,0.0833333333,0.5,0,5,7.38328281,,8.65411414,0\n"
        "2,0.0833333333,0.333333333,0.0833333333,0.5,0,5,3.35124314,,5.80099771,0\n"
        "3,0.0833333333,0.333333333,0.0833333333,0.5,0,5,7.24132067,,4.03159183,0\n"
        "4,0.0833333333,0.333333333,0.0833333333,0.5,0,5,6.92737051,,8.78241657,0\n"
    )


def test_cli_simulate_prints_a_negative_zero_prior_as_0(capsys, tmp_path):
    text = LOCKIN.read_text()
    text = text.replace("prior e1 0.0833333333333333", "prior e1 -0")
    text = text.replace("prior e3 0.0833333333333333", "prior e3 0.1666666666666666")
    path = tmp_path / "negzero.scn"
    path.write_text(text)
    code, out = run_cli(capsys, "simulate", "--scenario", str(path), "--seed", "7", "--horizon", "5")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert len(rows) == 5
    assert {row["theta_e1"] for row in rows} == {"0"}


def test_cli_rejects_digit_group_underscores(capsys, tmp_path):
    for old, new, message in (
        ("baseline_cost 17", "baseline_cost 1_7", "not a number: '1_7'"),
        ("horizon 100", "horizon 1_000", "not an integer: '1_000'"),
    ):
        code, out = run_cli(capsys, "simulate", "--scenario", patched(tmp_path, "underscore.scn", old, new))
        assert code == 1
        assert message in out


def test_cli_simulate_ne_state_with_nine_tied_top_facilities(capsys, tmp_path):
    # regime II-1 attacks each of the nine with probability 1/9 and secures
    # none, so 1 minus the attacked states' mass once rounded to -2.2e-16
    rows = [f"e{t} 20" for t in range(9)]
    edges = [f"edge e{t} 1 17 1 20" for t in range(9)]
    routes = [f"route r{t} e{t}" for t in range(9)]
    priors = [f"prior e{t} 0.1" for t in range(9)] + ["prior none 0.1"]
    path = tmp_path / "nine.scn"
    path.write_text("\n".join(
        ["[facilities]", "baseline_cost 17", *rows, "[costs]", "attack_cost 0.5", "defense_cost 100",
         "[network]", "demand 9", *edges, *routes,
         "[learning]", "noise_half_width 1", "horizon 3", "true_state ne", *priors]
    ) + "\n")
    code, out = run_cli(capsys, "simulate", "--scenario", str(path), "--seed", "7")
    assert code == 0, out
    assert len(out.splitlines()) == 2 + 3


def test_cli_simulate_requires_learning(capsys, tmp_path):
    text = THREE.read_text()
    stripped = text[: text.index("[learning]")]
    path = tmp_path / "nolearn.scn"
    path.write_text(stripped)
    code, out = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 1
    assert "learning" in out


def test_cli_usage_and_parse_failures(capsys, tmp_path):
    assert main(["solve-ne"]) == 1  # missing --scenario
    capsys.readouterr()
    bad = tmp_path / "bad.scn"
    bad.write_text("[facilities]\nbaseline_cost 17\ne1 oops\n")
    code, out = run_cli(capsys, "solve-ne", "--scenario", str(bad))
    assert code == 1
    assert "error:" in out and ":3:" in out


def test_cli_out_mirrors_stdout(capsys, tmp_path):
    dest = tmp_path / "ne.txt"
    code, out = run_cli(capsys, "solve-ne", "--scenario", str(THREE), "--out", str(dest))
    assert code == 0
    assert dest.read_text() == out


@pytest.mark.parametrize("command", [
    ("regimes", "--scenario", str(THREE), "--grid", "0:4:200,0:4:200"),
    ("simulate", "--scenario", str(LOCKIN), "--horizon", "5000"),
])
def test_cli_treats_a_closed_stdout_as_the_end_of_output(command):
    """`facsec ... | head -1`: both outputs exceed a pipe buffer, so the
    reader closes the pipe while the command is still writing."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "facsec.cli", *command], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, stderr
    assert "Traceback" not in stderr and "Error" not in stderr, stderr


def python_block(name):
    blocks = (REPO / name).read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    return blocks[0].split("```")[0]


def test_readme_python_snippet_runs(capsys):
    exec(python_block("README.md"), {})
    assert capsys.readouterr().out.count("\n") == 3


def test_paper_python_snippet_runs(capsys):
    exec(python_block("PAPER.md"), {})
    assert capsys.readouterr().out.count("\n") == 3

"""End-to-end acceptance gate: one test (one pass/fail line) per shipped guarantee."""

import time
from pathlib import Path

import numpy as np
import pytest

from facsec.analysis import CostRegion, classify_cost_region
from facsec.cli import main
from facsec.model import CostParams, EffortVector, FacilityProfile, vulnerable_set
from facsec.normalform import build_attacker_lp, cd_threshold_bar, solve_ne
from facsec.oracle import simplex_solve, verify_ne, verify_spe
from facsec.routing import (
    AffineLatency,
    Edge,
    Route,
    RoutedNetwork,
    latencies_for_state,
    wardrop_equilibrium,
)
from facsec.learning import Belief, SimulationConfig, StateDistribution, run_simulation
from facsec.scenario import load_scenario
from facsec.sequential import cd_threshold_tilde, cd_tilde_inverse, solve_spe

from conftest import random_game

REPO = Path(__file__).resolve().parent.parent
PROFILE3 = FacilityProfile(17.0, (("e1", 20.0), ("e2", 19.0), ("e3", 18.0)))


@pytest.fixture(scope="module")
def instance_set():
    rng = np.random.default_rng(314159)
    return [random_game(rng) for _ in range(500)]


def lp_point_from_equilibrium(profile, params, eq):
    """The attacker-side LP assignment induced by the canonical equilibrium attack."""
    c0, ca, cd = profile.baseline_cost, params.attack_cost, params.defense_cost
    point = {"sigma_none": eq.attack.no_attack}
    for fac, ce in profile.facilities:
        if ce > c0:
            s = eq.attack.prob(fac)
            point[f"sigma_{fac}"] = s
            point[f"v_{fac}"] = min((ce - ca) * s, (c0 - ca) * s + cd)
    return point


def test_closed_form_value_matches_simplex_on_500_instances(instance_set):
    start = time.perf_counter()
    for profile, params in instance_set:
        eq = solve_ne(profile, params)
        closed = eq.attacker_utility + params.defense_cost * eq.effort.total
        lp = build_attacker_lp(profile, params)
        sol = simplex_solve(lp)
        assert sol.status == "optimal"
        assert abs(closed - sol.value) <= 1e-8, (profile, params)

        point = lp_point_from_equilibrium(profile, params, eq)
        x = [point[label] for label in lp.labels]
        objective = sum(c * v for c, v in zip(lp.objective, x))
        assert abs(objective - sol.value) <= 1e-8  # optimal among feasible points
        for row, rhs in zip(lp.a_ub, lp.b_ub):
            assert sum(a * v for a, v in zip(row, x)) <= rhs + 1e-8
        for row, rhs in zip(lp.a_eq, lp.b_eq):
            assert abs(sum(a * v for a, v in zip(row, x)) - rhs) <= 1e-8
        for (lo, hi), v in zip(lp.bounds, x):
            assert lo is None or v >= lo - 1e-8
            assert hi is None or v <= hi + 1e-8
    assert time.perf_counter() - start < 10.0


def test_solutions_are_eps_equilibria(instance_set):
    for profile, params in instance_set:
        eq = solve_ne(profile, params)
        res = verify_ne(profile, params, eq.effort, eq.attack, eps=1e-9)
        assert res.ok, (profile, params, res.failures)


def test_commitment_utility_survives_grid_search():
    rng = np.random.default_rng(271828)
    few = lambda p, prm: len(vulnerable_set(p, prm.attack_cost)) <= 4
    instances = [random_game(rng, require=few) for _ in range(100)]
    start = time.perf_counter()
    for profile, params in instances:
        out = solve_spe(profile, params)
        res = verify_spe(profile, params, out.effort, out.defender_utility, eps=1e-9)
        assert res.ok, (profile, params, res.failures)
    assert time.perf_counter() - start < 60.0


def test_threshold_curve_structure():
    top = 3.0 - 1e-6
    points = [top * t / 9999 for t in range(10000)]
    values = [cd_threshold_tilde(PROFILE3, ca) for ca in points]
    assert all(b > a for a, b in zip(values, values[1:]))  # strictly increasing
    assert abs(values[0] - cd_threshold_bar(PROFILE3, 1e-12)) <= 1e-9
    for ca, value in zip(points[1:], values[1:]):
        assert value > cd_threshold_bar(PROFILE3, ca)
        assert abs(cd_tilde_inverse(PROFILE3, value) - ca) <= 1e-9


def test_three_facility_golden_values():
    assert cd_threshold_bar(PROFILE3, 0.5) == pytest.approx(6 / 11, abs=1e-12)
    assert cd_threshold_bar(PROFILE3, 1.5) == pytest.approx(6 / 5, abs=1e-12)
    assert cd_threshold_bar(PROFILE3, 2.5) == pytest.approx(3.0, abs=1e-12)
    assert cd_threshold_tilde(PROFILE3, 0.5) == pytest.approx(12 / 11, abs=1e-12)
    assert cd_threshold_tilde(PROFILE3, 1.0) == pytest.approx(2.4, abs=1e-12)
    assert cd_threshold_tilde(PROFILE3, 1.5) == pytest.approx(4.0, abs=1e-12)

    low = CostParams(0.5, 0.3)
    ne = solve_ne(PROFILE3, low)
    assert ne.regime.label == "I-3"
    assert ne.effort.as_dict() == pytest.approx({"e1": 5 / 6, "e2": 3 / 4, "e3": 1 / 2}, abs=1e-12)
    assert ne.attack.as_dict() == pytest.approx({"e1": 0.1, "e2": 0.15, "e3": 0.3}, abs=1e-12)
    assert ne.attack.no_attack == pytest.approx(0.45, abs=1e-12)
    assert ne.defender_utility == pytest.approx(-17.9, abs=1e-12)
    assert ne.attacker_utility == 17.0
    spe = solve_spe(PROFILE3, low)
    assert spe.regime.label == "I~-3"
    assert spe.effort.as_dict() == pytest.approx(ne.effort.as_dict(), abs=1e-12)
    assert spe.defender_utility == pytest.approx(-17.625, abs=1e-12)
    assert spe.attacker_utility == 17.0

    mid = CostParams(0.5, 0.8)
    ne = solve_ne(PROFILE3, mid)
    assert ne.regime.label == "II-3"
    assert ne.effort.as_dict() == pytest.approx({"e1": 2 / 3, "e2": 1 / 2, "e3": 0.0}, abs=1e-12)
    assert ne.defender_utility == pytest.approx(-18 - 0.8 * (2 / 3 + 1 / 2), abs=1e-12)
    assert ne.attacker_utility == pytest.approx(17.5, abs=1e-12)
    spe = solve_spe(PROFILE3, mid)
    assert spe.regime.label == "I~-3"
    assert spe.on_path.deterred
    assert spe.defender_utility == pytest.approx(-17 - 0.8 * 25 / 12, abs=1e-12)
    assert spe.attacker_utility == 17.0

    high = CostParams(0.5, 1.5)
    ne, spe = solve_ne(PROFILE3, high), solve_spe(PROFILE3, high)
    assert ne.regime.label == "II-2" and spe.regime.label == "II~-2"
    assert ne.effort.as_dict() == pytest.approx({"e1": 1 / 3, "e2": 0.0, "e3": 0.0}, abs=1e-12)
    assert spe.defender_utility == ne.defender_utility == pytest.approx(-19.5, abs=1e-12)
    assert spe.attacker_utility == ne.attacker_utility == pytest.approx(18.5, abs=1e-12)

    regions = [classify_cost_region(PROFILE3, p).value for p in (low, mid, high)]
    assert regions == ["L", "M", "H"]

    from facsec.analysis import regime_sweep

    cells = regime_sweep(PROFILE3, (0.0, 4.0), (0.0, 4.0), 200)
    ne_labels = {cell.ne_regime for cell in cells}
    spe_labels = {cell.spe_regime for cell in cells}
    assert len(ne_labels) == 7 and "boundary" not in ne_labels
    assert len(spe_labels) == 7 and "boundary" not in spe_labels


def test_comparison_relations_on_the_grid():
    h = 4.0 / 100
    for s in range(100):
        ca = (s + 0.5) * h
        for t in range(100):
            cd = (t + 0.5) * h
            params = CostParams(ca, cd)
            region = classify_cost_region(PROFILE3, params)
            assert region is not CostRegion.BOUNDARY
            ne = solve_ne(PROFILE3, params)
            spe = solve_spe(PROFILE3, params)
            gap = spe.defender_utility - ne.defender_utility
            assert gap >= 0.0
            assert (gap > 0.0) == (region in (CostRegion.LOW, CostRegion.MEDIUM))
            if region in (CostRegion.LOW, CostRegion.HIGH, CostRegion.NO_VULNERABLE):
                assert spe.attacker_utility == ne.attacker_utility
                assert spe.effort.as_dict() == ne.effort.as_dict()
            else:
                assert spe.attacker_utility < ne.attacker_utility
                for fac in vulnerable_set(PROFILE3, ca):
                    assert spe.effort.get(fac) > ne.effort.get(fac)


def test_wardrop_used_route_optimality():
    rng = np.random.default_rng(424243)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        edges = tuple(
            Edge(
                f"g{t}",
                AffineLatency(float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.0, 15.0))),
                AffineLatency(float(rng.uniform(4.0, 8.0)), float(rng.uniform(15.0, 30.0))),
            )
            for t in range(n)
        )
        routes = tuple(Route(f"p{t}", (f"g{t}",)) for t in range(n))
        net = RoutedNetwork(edges, routes, float(rng.uniform(1.0, 20.0)))
        state = None if rng.random() < 0.5 else f"g{int(rng.integers(0, n))}"
        flow = wardrop_equilibrium(net, latencies_for_state(net, state))
        cheapest = min(flow.route_costs.values())
        assert sum(flow.route_flows.values()) == pytest.approx(net.demand, abs=1e-9)
        for rid, q in flow.route_flows.items():
            assert q >= 0.0
            if q > 1e-9:
                assert flow.route_costs[rid] <= cheapest + 1e-9

    hand = RoutedNetwork(
        (
            Edge("a", AffineLatency(1.0, 10.0), AffineLatency(1.0, 10.0)),
            Edge("b", AffineLatency(2.0, 8.0), AffineLatency(2.0, 8.0)),
        ),
        (Route("p0", ("a",)), Route("p1", ("b",))),
        6.0,
    )
    flow = wardrop_equilibrium(hand, latencies_for_state(hand, None))
    assert flow.route_flows["p0"] == pytest.approx(10 / 3, abs=1e-9)
    assert flow.route_flows["p1"] == pytest.approx(8 / 3, abs=1e-9)


def test_lock_in_repeats_exactly():
    scn = load_scenario(str(REPO / "scenarios" / "lockin.scn"))
    prior = scn.learning.prior
    start = time.perf_counter()
    for seed in range(100):
        config = SimulationConfig(
            scn.network, prior, StateDistribution.point(None), scn.learning.noise_half_width,
            scn.learning.horizon, seed,
        )
        trace = run_simulation(config)
        theta0 = prior.prob("e2")
        for record in trace.records:
            assert record.flow.route_flows["r1"] == 0.0
            assert record.flow.route_flows["r2"] == pytest.approx(5.0, abs=1e-9)
            assert record.belief_after.prob("e2") == theta0  # exact equality
            assert not record.degenerate
    assert time.perf_counter() - start < 5.0


def test_separated_states_converge():
    net = RoutedNetwork(
        (
            Edge("ga", AffineLatency(1.0, 0.0), AffineLatency(1.0, 20.0)),
            Edge("gb", AffineLatency(1.0, 0.0), AffineLatency(1.0, 20.0)),
        ),
        (Route("pa", ("ga",)), Route("pb", ("gb",))),
        10.0,
    )
    prior = Belief((("ga", 1 / 3), ("gb", 1 / 3), (None, 1 / 3)))
    dist = StateDistribution((("ga", 1 / 3), ("gb", 1 / 3), (None, 1 / 3)))
    hits = 0
    for seed in range(100):
        trace = run_simulation(SimulationConfig(net, prior, dist, 3.0, 200, seed))
        if any(r.belief_after.prob(trace.realized_state) > 0.99 for r in trace.records):
            hits += 1
    assert hits >= 95


def test_outputs_are_byte_identical(tmp_path):
    three = str(REPO / "scenarios" / "three_facility.scn")
    lockin = str(REPO / "scenarios" / "lockin.scn")
    runs = {
        "ne": ["solve-ne", "--scenario", three],
        "spe": ["solve-spe", "--scenario", three],
        "cmp": ["compare", "--scenario", three],
        "chk": ["verify", "--scenario", three],
        "grid": ["regimes", "--scenario", three, "--grid", "0:4:12,0:4:12"],
        "sim": ["simulate", "--scenario", lockin, "--seed", "21"],
    }
    for name, argv in runs.items():
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.stat().st_size > 0

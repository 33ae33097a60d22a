import hashlib
import io
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_network
from facsec import learning
from facsec.learning import (
    Belief,
    LearningError,
    SimulationConfig,
    StateDistribution,
    belief_mixed_latencies,
    run_simulation,
    stage_step,
    state_distribution,
    write_trace_csv,
)
from facsec.model import BOUNDARY_TOL, PROB_SLACK, AttackDistribution, CostParams, EffortVector, FacilityProfile
from facsec.normalform import solve_ne
from facsec.routing import (
    AffineLatency,
    Edge,
    Route,
    RoutedNetwork,
    latencies_for_state,
    wardrop_equilibrium,
)
from facsec.scenario import load_scenario
from facsec.sequential import solve_spe

LOCKIN = Path(__file__).resolve().parent.parent / "scenarios" / "lockin.scn"


def single_edge_net(demand=1.0, jump=20.0):
    return RoutedNetwork(
        (Edge("g0", AffineLatency(1.0, 0.0), AffineLatency(1.0, jump)),),
        (Route("p0", ("g0",)),),
        demand,
    )


def test_state_distribution_validation():
    with pytest.raises(LearningError):
        StateDistribution((("a", 0.6), ("b", 0.6)))
    with pytest.raises(LearningError):
        StateDistribution((("a", -0.1), ("b", 1.1)))
    with pytest.raises(LearningError):
        StateDistribution((("a", 0.5), ("a", 0.5)))
    with pytest.raises(LearningError, match="nan"):  # NaN compares false with both checks
        StateDistribution((("a", float("nan")), ("b", 1.0)))
    point = StateDistribution.point(None)
    assert point.prob(None) == 1.0
    assert point.prob("a") == 0.0


def test_state_distribution_sampling_is_seeded():
    dist = StateDistribution((("a", 0.25), ("b", 0.25), (None, 0.5)))
    draws1 = [dist.sample(np.random.default_rng(9)) for _ in range(20)]
    draws2 = [dist.sample(np.random.default_rng(9)) for _ in range(20)]
    assert draws1 == draws2
    assert set(draws1) <= {"a", "b", None}


def test_sample_never_returns_a_state_of_mass_zero():
    # regime II-1 with seven tied facilities: the intact state, listed last,
    # has mass 0, and the masses sum to just below 1
    seven = FacilityProfile(10.0, tuple((f"e{t}", 20.0) for t in range(7)))
    dist = state_distribution(solve_ne(seven, CostParams(0.5, 50.0)))
    assert dist.prob(None) == 0.0
    assert sum(p for _, p in dist.probs) < 1.0
    top = SimpleNamespace(random=lambda: math.nextafter(1.0, 0.0))  # past the running sum
    assert dist.sample(top) == "e6"


def test_state_distribution_from_equilibria(profile3):
    ne = solve_ne(profile3, CostParams(0.5, 0.3))
    dist = state_distribution(ne)
    assert dist.prob("e1") == pytest.approx(1 / 60)
    assert dist.prob("e2") == pytest.approx(3 / 80)
    assert dist.prob("e3") == pytest.approx(3 / 20)
    assert dist.prob(None) == pytest.approx(191 / 240)

    deterred = state_distribution(solve_spe(profile3, CostParams(0.5, 0.3)))
    assert deterred.prob(None) == pytest.approx(1.0)

    conceding = state_distribution(solve_spe(profile3, CostParams(0.5, 1.5)))
    assert conceding.prob("e1") == pytest.approx(1 / 3)
    assert conceding.prob("e2") == pytest.approx(1 / 2)
    assert conceding.prob(None) == pytest.approx(1 / 6)

    # nine facilities tied at the top level, regime II-1: each is attacked with
    # probability 1/9 and none is secured, so the intact state has mass 0
    # exactly; one minus the attacked states' mass rounded to -2.2e-16
    nine = FacilityProfile(17.0, tuple((f"e{t}", 20.0) for t in range(9)))
    tied = state_distribution(solve_ne(nine, CostParams(0.5, 100.0)))
    assert tied.prob(None) == 0.0
    assert [tied.prob(f"e{t}") for t in range(9)] == [1 / 9] * 9


def test_state_distribution_takes_every_attack_the_model_accepts():
    """AttackDistribution forgives a sum 5e-10 off 1 (PROB_SLACK); so does the
    state distribution built from it."""
    profile = FacilityProfile(10.0, (("a", 20.0), ("b", 14.0)))
    attack = AttackDistribution.over(profile, {"a": 0.25, "b": 0.25}, no_attack=0.5 + 5e-10)
    eq = SimpleNamespace(effort=EffortVector.over(profile, {"a": 0.5}), attack=attack)
    dist = state_distribution(eq)
    assert dist.as_dict() == {"a": 0.125, "b": 0.25, None: 0.625 + 5e-10}


def test_belief_mixed_latencies(cal_network):
    belief = Belief((("e2", 1 / 3), (None, 2 / 3)))
    mixed = belief_mixed_latencies(cal_network, belief)
    assert mixed["e2"].slope == pytest.approx(4 / 3)
    assert mixed["e2"].intercept == pytest.approx(7 / 3)
    assert mixed["e1"].slope == pytest.approx(1.0)
    assert mixed["e1"].intercept == pytest.approx(0.0)


def test_stage_step_requires_positive_noise(cal_network):
    belief = Belief(((None, 1.0),))
    with pytest.raises(LearningError):
        stage_step(belief, cal_network, 0.0, None, np.random.default_rng(0))
    with pytest.raises(LearningError, match="nan"):
        stage_step(belief, cal_network, float("nan"), None, np.random.default_rng(0))


def test_stage_step_eliminates_separated_states():
    net = single_edge_net()
    belief = Belief((("g0", 0.5), (None, 0.5)))
    # predictions differ by 20 > 2*3, so one stage settles it for any draw
    result = stage_step(belief, net, 3.0, None, np.random.default_rng(123))
    assert result.belief_after.prob(None) == pytest.approx(1.0)
    assert result.belief_after.prob("g0") == 0.0
    assert not result.degenerate
    assert set(result.observations) == {"g0"}


def test_stage_step_keeps_the_belief_object_without_elimination(cal_network):
    belief = Belief((("e1", 0.5), (None, 0.5)))
    # predictions differ by at most 3, far inside the +-10 noise band, so no
    # state can be ruled out and the update is the identity
    rng = np.random.default_rng(1)
    result = stage_step(belief, cal_network, 10.0, None, rng)
    assert result.belief_after is belief


def test_stage_step_flags_degenerate_updates():
    net = single_edge_net()
    belief = Belief((("g0", 1.0),))  # the realized state has no prior mass
    result = stage_step(belief, net, 3.0, None, np.random.default_rng(5))
    assert result.degenerate
    assert result.belief_after.prob("g0") == 1.0


def test_run_simulation_config_validation(cal_network):
    prior = Belief(((None, 1.0),))
    dist = StateDistribution.point(None)
    with pytest.raises(LearningError):
        run_simulation(SimulationConfig(cal_network, prior, dist, 3.0, 0, 0))
    leaky = StateDistribution((("e1", 0.5), (None, 0.5)))
    with pytest.raises(LearningError):  # prior puts no mass on a samplable state
        run_simulation(SimulationConfig(cal_network, prior, leaky, 3.0, 5, 0))


def test_run_simulation_rejects_states_that_are_not_edges():
    net = single_edge_net()
    ghost = Belief((("ghost", 0.5), (None, 0.5)))
    with pytest.raises(LearningError, match="ghost"):
        run_simulation(SimulationConfig(net, ghost, StateDistribution.point(None), 3.0, 5, 0))
    prior = Belief((("g0", 0.5), (None, 0.5)))
    with pytest.raises(LearningError, match="ghost"):
        run_simulation(SimulationConfig(net, prior, StateDistribution.point("ghost"), 3.0, 5, 0))


def test_run_simulation_is_reproducible(cal_network):
    prior = Belief((("e1", 0.25), ("e2", 0.25), (None, 0.5)))
    dist = StateDistribution((("e1", 0.3), ("e2", 0.3), (None, 0.4)))
    config = SimulationConfig(cal_network, prior, dist, 2.0, 12, 99)
    a, b = run_simulation(config), run_simulation(config)
    assert a.realized_state == b.realized_state
    assert len(a.records) == 12
    for ra, rb in zip(a.records, b.records):
        assert ra.flow.route_flows == rb.flow.route_flows
        assert ra.observations == rb.observations
        assert ra.belief_after.as_dict() == rb.belief_after.as_dict()
    for t, record in enumerate(a.records):
        assert record.stage == t + 1
    for prev, nxt in zip(a.records, list(a.records)[1:]):
        assert nxt.belief_before.as_dict() == prev.belief_after.as_dict()


def test_fast_convergence_on_separated_states():
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
    for seed in range(5):
        trace = run_simulation(SimulationConfig(net, prior, dist, 3.0, 10, seed))
        assert next(iter(trace.records)).belief_after.prob(trace.realized_state) > 0.99


def test_write_trace_csv_layout():
    net = single_edge_net(demand=2.0)
    prior = Belief((("g0", 0.5), (None, 0.5)))
    trace = run_simulation(SimulationConfig(net, prior, StateDistribution.point(None), 3.0, 2, 7))
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=7 true_state=none"
    assert lines[1] == "t,theta_g0,theta_empty,q_p0,obs_g0,degenerate"
    first = lines[2].split(",")
    assert first[0] == "1"
    assert first[1] == "0"  # g0 eliminated on the first stage
    assert first[2] == "1"
    assert first[3] == "2"
    assert first[5] == "0"


def lockin_config(horizon, seed):
    scn = load_scenario(str(LOCKIN))
    settings = scn.learning
    dist = StateDistribution.point(None)
    return SimulationConfig(scn.network, settings.prior, dist, settings.noise_half_width, horizon, seed)


def test_lockin_trace_golden():
    # pinned from the stage loop that solved Wardrop on every stage
    buf = io.StringIO()
    write_trace_csv(run_simulation(lockin_config(5000, 7)), buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "b06876d90808fd1b4139ef39d86f27917d2390816afe377e10a5dd7e24ce6bdd"


def test_long_lockin_trace_golden():
    # pinned from the stage-by-stage loop; the horizon spans several blocks
    assert 15000 >= 3 * learning.BLOCK_STAGES
    buf = io.StringIO()
    write_trace_csv(run_simulation(lockin_config(15000, 7)), buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "8241b7d4e130ef7e0a0bf95dd8e81c4cd6080c23d06d60de45b94d2e5f434f44"


def test_records_read_as_a_sequence_of_stages():
    net = single_edge_net(demand=1.0, jump=2.0**-11)
    prior = Belief((("g0", 0.5), (None, 0.5)))
    # seed 4218 eliminates g0 on stage 4096, the last stage of the first block
    trace = run_simulation(SimulationConfig(net, prior, StateDistribution.point(None), 1.0, 4100, 4218))
    records = trace.records
    segments = records.segments
    assert [(seg.first, len(seg.degenerate)) for seg in segments] == [(1, 4096), (4097, 4)]
    listed = list(records)
    assert len(records) == len(listed) == 4100
    assert [rec.stage for rec in listed] == list(range(1, 4101))
    for seg in segments:
        rows = listed[seg.first - 1 : seg.first - 1 + len(seg.degenerate)]
        assert all(rec.belief_before is seg.plan.belief and rec.flow is seg.plan.flow for rec in rows)
        assert all(rec.belief_after is seg.plan.belief for rec in rows[:-1])
        assert rows[-1].belief_after is seg.belief_after
    assert segments[1].plan.belief is segments[0].belief_after is not prior
    assert listed[4095].belief_after.prob("g0") == 0.0


def test_batched_uniform_draw_equals_scalar_draws():
    # a stage draws the noise of all its observed edges at once; the trace
    # stays byte-identical only while that equals one scalar draw per edge
    for seed in range(20):
        half_width = 0.1 + seed / 3.0
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in (0, 1, 2, 3, 7, 16):
            draws = batched.uniform(-half_width, half_width, size=k).tolist()
            assert draws == [float(scalar.uniform(-half_width, half_width)) for _ in range(k)]
        assert batched.random() == scalar.random()
    # a block of stages draws stages × observed edges at once
    for seed in range(20):
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for stages, n in ((1, 0), (5, 0), (1, 1), (5, 1), (4, 3), (9, 7)):
            draws = batched.uniform(-2.0, 2.0, size=(stages, n)).tolist()
            assert draws == [scalar.uniform(-2.0, 2.0, size=n).tolist() for _ in range(stages)]
        assert batched.random() == scalar.random()


def scalar_stage_step(belief, network, noise_half_width, realized_state, rng):
    """The stage update written as one scalar draw and one scalar support check
    per observed edge and state: the reference for the vectorized update."""
    flow = wardrop_equilibrium(network, belief_mixed_latencies(network, belief))
    true_lat = latencies_for_state(network, realized_state)
    observations = {}
    for eid in network.edge_ids:
        load = flow.edge_loads[eid]
        if load > PROB_SLACK * network.demand:
            noise = float(rng.uniform(-noise_half_width, noise_half_width))
            observations[eid] = true_lat[eid](load) + noise

    def within_band(obs, predicted):
        b = noise_half_width
        return abs(obs - predicted) <= b + BOUNDARY_TOL * max(1.0, abs(predicted) + b)

    masses, eliminated = [], False
    for state, theta in belief.probs:
        lat = latencies_for_state(network, state)
        survives = all(within_band(obs, lat[eid](flow.edge_loads[eid])) for eid, obs in observations.items())
        masses.append(theta if survives else 0.0)
        eliminated |= not survives and theta > 0.0
    if not eliminated:
        return flow, observations, belief, False
    total = sum(masses)
    if total <= 0.0:
        return flow, observations, belief, True
    posterior = Belief(tuple((s, m / total) for (s, _), m in zip(belief.probs, masses)))
    return flow, observations, posterior, False


def random_learning_configs(count, seed=2024):
    """Random networks (a few with zero demand) with random priors (some with
    a zero-mass state), true states drawn from the prior or fixed, and noise
    wide or narrow enough to eliminate states at different stages."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        net = random_network(rng)
        if rng.random() < 0.05:  # nothing is routed, so nothing is observed
            net = RoutedNetwork(net.edges, net.routes, 0.0)
        edges = list(net.edge_ids)
        k = int(rng.integers(1, len(edges) + 1))
        states = [edges[int(i)] for i in sorted(rng.choice(len(edges), size=k, replace=False))]
        states.append(None)
        weights = rng.dirichlet(np.ones(len(states)))
        if len(states) > 2 and rng.random() < 0.3:
            weights[int(rng.integers(len(states)))] = 0.0
            weights /= weights.sum()
        prior = Belief(tuple(zip(states, weights.tolist())))
        if rng.random() < 0.5:
            dist = prior
        else:
            possible = [s for s, p in prior.probs if p > 0.0]
            dist = StateDistribution.point(possible[int(rng.integers(len(possible)))])
        yield SimulationConfig(
            net,
            prior,
            dist,
            float(rng.uniform(0.05, 5.0)),
            int(rng.integers(1, 30)),
            int(rng.integers(2**31)),
        )


def test_run_simulation_matches_a_stage_by_stage_reference():
    changes = 0
    for config in random_learning_configs(200):
        trace = run_simulation(config)
        rng, scalar_rng = np.random.default_rng(config.seed), np.random.default_rng(config.seed)
        realized = config.state_dist.sample(rng)
        assert config.state_dist.sample(scalar_rng) == realized == trace.realized_state
        belief = config.prior
        for rec in trace.records:
            step = stage_step(belief, config.network, config.noise_half_width, realized, rng)
            flow, observations, posterior, degenerate = scalar_stage_step(
                belief, config.network, config.noise_half_width, realized, scalar_rng
            )
            assert rec.belief_before is belief
            assert rec.flow.route_flows == step.flow.route_flows == flow.route_flows
            assert rec.observations == step.observations == observations
            assert rec.belief_after.probs == step.belief_after.probs == posterior.probs
            assert rec.degenerate == step.degenerate == degenerate
            assert not rec.degenerate  # the prior holds every realizable state
            changes += rec.belief_after is not belief
            belief = rec.belief_after
    assert changes > 50  # the draws exercise elimination, not only lock-in


def test_one_wardrop_solve_per_distinct_belief(monkeypatch):
    calls = []

    def counting(network, latencies):
        calls.append(1)
        return wardrop_equilibrium(network, latencies)

    monkeypatch.setattr(learning, "wardrop_equilibrium", counting)
    trace = run_simulation(lockin_config(5000, 7))
    assert len(trace.records) == 5000
    assert len(calls) == 1
    for config in random_learning_configs(200):
        calls.clear()
        trace = run_simulation(config)
        assert len(calls) == len({rec.belief_before for rec in trace.records})


def assert_matches_the_scalar_reference(config):
    """Replay ``config`` with ``scalar_stage_step`` and compare every record."""
    trace = run_simulation(config)
    rng = np.random.default_rng(config.seed)
    realized = config.state_dist.sample(rng)
    assert realized == trace.realized_state
    assert len(trace.records) == config.horizon
    belief = config.prior
    for rec in trace.records:
        flow, observations, posterior, degenerate = scalar_stage_step(
            belief, config.network, config.noise_half_width, realized, rng
        )
        assert rec.belief_before is belief
        assert rec.flow.route_flows == flow.route_flows
        assert rec.observations == observations
        assert rec.belief_after.probs == posterior.probs
        assert rec.degenerate == degenerate
        belief = rec.belief_after
    return trace


def belief_changes(trace):
    return [rec.stage for rec in trace.records if rec.belief_after is not rec.belief_before]


def test_run_simulation_matches_the_reference_across_blocks(monkeypatch):
    block = learning.BLOCK_STAGES
    prior = Belief((("g0", 0.5), (None, 0.5)))
    none = StateDistribution.point(None)
    # g0 predicts 2**-11 above the truth with noise on [-1, 1]: one stage in
    # 4096 eliminates it. Seeds 4218 and 16299 were found by a search over the
    # noise stream to do so first on stage 4096 and on stage 4097.
    near = single_edge_net(demand=1.0, jump=2.0**-11)
    for seed, stage in ((4218, block), (16299, block + 1)):
        trace = assert_matches_the_scalar_reference(SimulationConfig(near, prior, none, 1.0, block + 8, seed))
        assert belief_changes(trace) == [stage]

    # Latencies near 1e6 have a spacing of 1.2e-10, wider than the noise band,
    # so the observation rounds off the truth on about 4 stages in 10. The band
    # is widened at the scale of the latencies, so the realized state survives
    # every stage and none is degenerate, within blocks or across them.
    far = RoutedNetwork(
        (Edge("g0", AffineLatency(1.0, 1e6), AffineLatency(1.0, 1e6 + 5.0)),), (Route("p0", ("g0",)),), 1.0
    )
    trace = assert_matches_the_scalar_reference(SimulationConfig(far, prior, none, 1e-10, block + 8, 4))
    segments = trace.records.segments
    assert belief_changes(trace) == [1]
    assert [(seg.first, len(seg.degenerate)) for seg in segments] == [(1, 1), (2, block), (block + 2, 7)]
    assert not any(rec.degenerate for rec in trace.records)

    # nothing is routed, so nothing is observed and every block plays through
    empty = single_edge_net(demand=0.0)
    trace = assert_matches_the_scalar_reference(SimulationConfig(empty, prior, none, 1.0, 2 * block + 8, 3))
    assert [len(seg.degenerate) for seg in trace.records.segments] == [block, block, 8]
    assert all(rec.observations == {} for rec in trace.records)

    # Blocks of a few stages end on every stage of the random pool's runs. A
    # budget of 24 cells gives a plan of s states and n observed edges blocks
    # of 24 // (s·n) stages, and one stage when s·n > 24.
    for stages, cells in ((1, learning.BLOCK_CELLS), (2, learning.BLOCK_CELLS), (block, 24)):
        monkeypatch.setattr(learning, "BLOCK_STAGES", stages)
        monkeypatch.setattr(learning, "BLOCK_CELLS", cells)
        for config in random_learning_configs(60, seed=stages):
            assert_matches_the_scalar_reference(config)
    lockin = assert_matches_the_scalar_reference(lockin_config(10, 7))  # 4 states, 2 observed edges
    assert [len(seg.degenerate) for seg in lockin.records.segments] == [3, 3, 3, 1]

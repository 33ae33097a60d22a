import io

import numpy as np
import pytest

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
from facsec.model import CostParams
from facsec.normalform import solve_ne
from facsec.routing import AffineLatency, Edge, Route, RoutedNetwork
from facsec.sequential import solve_spe


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
    point = StateDistribution.point(None)
    assert point.prob(None) == 1.0
    assert point.prob("a") == 0.0


def test_state_distribution_sampling_is_seeded():
    dist = StateDistribution((("a", 0.25), ("b", 0.25), (None, 0.5)))
    draws1 = [dist.sample(np.random.default_rng(9)) for _ in range(20)]
    draws2 = [dist.sample(np.random.default_rng(9)) for _ in range(20)]
    assert draws1 == draws2
    assert set(draws1) <= {"a", "b", None}


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


def test_stage_step_eliminates_separated_states():
    net = single_edge_net()
    belief = Belief((("g0", 0.5), (None, 0.5)))
    # predictions differ by 20 > 2*3, so one stage settles it for any draw
    result = stage_step(belief, net, 3.0, None, np.random.default_rng(123))
    assert result.posterior.prob(None) == pytest.approx(1.0)
    assert result.posterior.prob("g0") == 0.0
    assert not result.degenerate
    assert set(result.observations) == {"g0"}


def test_stage_step_keeps_the_belief_object_without_elimination(cal_network):
    belief = Belief((("e1", 0.5), (None, 0.5)))
    # predictions differ by at most 3, far inside the +-10 noise band, so no
    # state can be ruled out and the update is the identity
    rng = np.random.default_rng(1)
    result = stage_step(belief, cal_network, 10.0, None, rng)
    assert result.posterior is belief


def test_stage_step_flags_degenerate_updates():
    net = single_edge_net()
    belief = Belief((("g0", 1.0),))  # the realized state has no prior mass
    result = stage_step(belief, net, 3.0, None, np.random.default_rng(5))
    assert result.degenerate
    assert result.posterior.prob("g0") == 1.0


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
    for prev, nxt in zip(a.records, a.records[1:]):
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
        assert trace.records[0].belief_after.prob(trace.realized_state) > 0.99


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

import math
import signal

import numpy as np
import pytest

from facsec.routing import (
    AffineLatency,
    Edge,
    NetworkError,
    Route,
    RoutedNetwork,
    latencies_for_state,
    usage_cost_for_state,
    wardrop_equilibrium,
)

from conftest import random_network


def parallel(demand, *latencies):
    edges = tuple(Edge(f"g{i}", lat, lat) for i, lat in enumerate(latencies))
    routes = tuple(Route(f"p{i}", (f"g{i}",)) for i in range(len(latencies)))
    return RoutedNetwork(edges, routes, demand)


def test_affine_latency_is_callable():
    lat = AffineLatency(2.0, 3.0)
    assert lat(0.0) == 3.0
    assert lat(2.5) == 8.0


def test_network_validation():
    lat = AffineLatency(1.0, 0.0)
    with pytest.raises(NetworkError):
        RoutedNetwork((Edge("a", lat, lat),), (), 1.0)  # no routes
    with pytest.raises(NetworkError):
        RoutedNetwork((Edge("a", lat, lat),), (Route("p", ("missing",)),), 1.0)
    with pytest.raises(NetworkError):
        RoutedNetwork((Edge("a", lat, lat),), (Route("p", ("a",)),), -1.0)
    with pytest.raises(NetworkError):  # compromise must not lower the latency
        RoutedNetwork(
            (Edge("a", AffineLatency(1.0, 5.0), AffineLatency(1.0, 1.0)),),
            (Route("p", ("a",)),),
            1.0,
        )
    with pytest.raises(NetworkError):
        RoutedNetwork((Edge("a", lat, lat), Edge("a", lat, lat)), (Route("p", ("a",)),), 1.0)


def test_dominance_is_judged_relative_to_the_latencies():
    # Latencies have no unit: a compromised intercept 2**-45 of the latency below
    # the nominal one is rounding at every scale 2**k (an absolute slack of 1e-12
    # rejected it from k = 6 on), and a gap of one half is rejected at every scale.
    def edge_network(scale, gap):
        edge = Edge("a", AffineLatency(scale, scale), AffineLatency(scale, scale * (1.0 - gap)))
        return RoutedNetwork((edge,), (Route("p", ("a",)),), 1.0)

    for k in range(61):
        edge_network(2.0**k, 2.0**-45)
        with pytest.raises(NetworkError, match="compromised latency below nominal at load 0.0"):
            edge_network(2.0**k, 0.5)


def test_a_latency_that_overflows_is_rejected_as_such():
    # 1e300 * 1e300 is inf; inf - inf is NaN, which the dominance test reported as a
    # compromised latency below nominal
    slopes = AffineLatency(1e300, 0.0)
    with pytest.raises(NetworkError, match=r"^edge 'a': latency not finite at load 1e\+300$"):
        RoutedNetwork((Edge("a", slopes, slopes),), (Route("p", ("a",)),), 1e300)
    with pytest.raises(NetworkError, match=r"^edge 'a': latency not finite at load 0.0$"):
        RoutedNetwork((Edge("a", AffineLatency(1.0, math.inf), slopes),), (Route("p", ("a",)),), 1.0)


def test_latencies_for_state(cal_network):
    nominal = latencies_for_state(cal_network, None)
    assert nominal["e2"](1.0) == 3.0
    hit = latencies_for_state(cal_network, "e2")
    assert hit["e2"](1.0) == 5.0
    assert hit["e1"](1.0) == 1.0
    with pytest.raises(NetworkError):
        latencies_for_state(cal_network, "nope")


def test_two_route_interior_split():
    net = parallel(6.0, AffineLatency(1.0, 10.0), AffineLatency(2.0, 8.0))
    flow = wardrop_equilibrium(net, latencies_for_state(net, None))
    assert flow.route_flows["p0"] == pytest.approx(10 / 3, abs=1e-9)
    assert flow.route_flows["p1"] == pytest.approx(8 / 3, abs=1e-9)
    assert flow.route_costs["p0"] == pytest.approx(40 / 3)
    assert flow.route_costs["p1"] == pytest.approx(40 / 3)


def test_expensive_route_gets_no_flow():
    net = parallel(10.0, AffineLatency(1.0, 0.0), AffineLatency(1.0, 100.0))
    flow = wardrop_equilibrium(net, latencies_for_state(net, None))
    assert flow.route_flows["p0"] == pytest.approx(10.0)
    assert flow.route_flows["p1"] == 0.0
    # the unused route must not be cheaper than the used one
    assert flow.route_costs["p1"] >= flow.route_costs["p0"] - 1e-9


def test_zero_demand_routes_nothing():
    net = parallel(0.0, AffineLatency(1.0, 1.0), AffineLatency(1.0, 2.0))
    flow = wardrop_equilibrium(net, latencies_for_state(net, None))
    assert all(q == 0.0 for q in flow.route_flows.values())
    assert all(load == 0.0 for load in flow.edge_loads.values())


def test_missing_latency_raises(cal_network):
    with pytest.raises(NetworkError):
        wardrop_equilibrium(cal_network, {"e1": AffineLatency(1.0, 0.0)})


def test_shared_edge_equilibria(cal_network):
    splits = {None: (5.0, 5.0), "e1": (5.0, 5.0), "e2": (3.0, 7.0), "e3": (6.0, 4.0)}
    for state, (q1, q2) in splits.items():
        flow = wardrop_equilibrium(cal_network, latencies_for_state(cal_network, state))
        assert flow.route_flows["r1"] == pytest.approx(q1, abs=1e-9)
        assert flow.route_flows["r2"] == pytest.approx(q2, abs=1e-9)
        assert flow.edge_loads["e1"] == pytest.approx(10.0)


def test_usage_cost_goldens(cal_network):
    for state, cost in ((None, 17.0), ("e1", 20.0), ("e2", 19.0), ("e3", 18.0)):
        assert usage_cost_for_state(cal_network, state) == pytest.approx(cost, abs=1e-9)


def test_identical_routes_split_degenerately():
    lat = AffineLatency(1.0, 0.0)
    net = RoutedNetwork(
        (Edge("a", lat, lat),),
        (Route("p0", ("a",)), Route("p1", ("a",))),
        8.0,
    )
    flow = wardrop_equilibrium(net, latencies_for_state(net, None))
    assert flow.edge_loads["a"] == pytest.approx(8.0)
    assert flow.route_costs["p0"] == flow.route_costs["p1"]
    assert flow.route_flows["p0"] == flow.route_flows["p1"] == 4.0


def test_most_negative_flow_is_not_always_unused():
    """Solving the equal-cost system on all routes gives p2 the most negative
    flow, yet the equilibrium routes 15/4 on p2 and 13/4 on p4 at cost 51/4;
    dropping the most negative route repeatedly ends at {p1, p4} at cost 17,
    where the unused p2 costs 34/3."""
    lats = [AffineLatency(1.0, 9.0), AffineLatency(1.0, 9.0), AffineLatency(2.0, 1.0),
            AffineLatency(3.0, 3.0), AffineLatency(1.0, 6.0)]
    net = RoutedNetwork(
        tuple(Edge(f"g{i}", lat, lat) for i, lat in enumerate(lats)),
        (
            Route("p0", ("g2", "g3", "g4")),
            Route("p1", ("g1", "g2")),
            Route("p2", ("g1",)),
            Route("p3", ("g0", "g2", "g3")),
            Route("p4", ("g3",)),
        ),
        7.0,
    )
    flow = wardrop_equilibrium(net, latencies_for_state(net, None))
    expected = {"p0": 0.0, "p1": 0.0, "p2": 3.75, "p3": 0.0, "p4": 3.25}
    for rid, q in expected.items():
        assert flow.route_flows[rid] == pytest.approx(q, abs=1e-12)
    costs = {"p0": 19.75, "p1": 13.75, "p2": 12.75, "p3": 22.75, "p4": 12.75}
    for rid, c in costs.items():
        assert flow.route_costs[rid] == pytest.approx(c, abs=1e-12)


def beckmann_potential(latencies, edge_loads) -> float:
    """Convex potential whose minimizer over feasible flows is the equilibrium."""
    return sum(
        latencies[e].slope * w * w / 2.0 + latencies[e].intercept * w
        for e, w in edge_loads.items()
    )


def test_equilibrium_minimizes_the_potential(cal_network):
    rng = np.random.default_rng(11)
    lats = latencies_for_state(cal_network, "e2")
    eq = wardrop_equilibrium(cal_network, lats)
    base = beckmann_potential(lats, eq.edge_loads)
    for _ in range(1000):
        q = rng.dirichlet(np.ones(2)) * cal_network.demand
        loads = {"e1": q[0] + q[1], "e2": q[0], "e3": q[1]}
        assert base <= beckmann_potential(lats, loads) + 1e-9


def assert_wardrop(net: RoutedNetwork, flow) -> None:
    """Flows are nonnegative, meet the demand, and every route that carries
    flow is within 1e-9 of the cheapest route."""
    assert all(q >= 0.0 for q in flow.route_flows.values())
    assert sum(flow.route_flows.values()) == pytest.approx(net.demand, abs=1e-7)
    cheapest = min(flow.route_costs.values())
    for rid, q in flow.route_flows.items():
        if q > 0.0:
            assert flow.route_costs[rid] <= cheapest + 1e-9


def test_random_networks_reach_equilibrium():
    rng = np.random.default_rng(2718)
    for _ in range(30):
        net = random_network(rng)
        state = None if rng.random() < 0.5 else str(rng.choice(net.edge_ids))
        assert_wardrop(net, wardrop_equilibrium(net, latencies_for_state(net, state)))


def degenerate_variant(rng: np.random.Generator, net: RoutedNetwork) -> RoutedNetwork:
    """``net`` with some edge slopes or intercepts (or both) set to zero and up
    to three routes repeated over the same edges in another order."""
    edges = []
    for e in net.edges:
        slope, intercept = e.nominal.slope, e.nominal.intercept
        u = rng.random()
        if u < 0.3:
            slope = 0.0
        elif u < 0.6:
            intercept = 0.0
        elif u < 0.7:
            slope = intercept = 0.0
        edges.append(
            Edge(
                e.edge_id,
                AffineLatency(slope, intercept),
                AffineLatency(slope + e.compromised.slope - e.nominal.slope,
                              intercept + e.compromised.intercept - e.nominal.intercept),
            )
        )
    routes = list(net.routes)
    for t in range(int(rng.integers(0, 4))):
        twin = routes[int(rng.integers(len(routes)))]
        routes.append(Route(f"d{t}", tuple(str(e) for e in rng.permutation(twin.edges))))
    return RoutedNetwork(tuple(edges), tuple(routes), net.demand)


def test_stress_networks_reach_equilibrium_quickly():
    """Up to 23 routes, with zero-slope and zero-intercept edges and routes
    over identical edges: Wardrop conditions hold, routes over the same edges
    carry the same flow, and the whole batch solves within a 20 s alarm (it
    takes about 0.4 s on a 2-CPU machine; enumerating route subsets takes
    minutes on single networks here)."""

    def out_of_time(signum, frame):
        raise AssertionError("the stress batch exceeded 20 s")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, 20.0)
    try:
        rng = np.random.default_rng(20260418)
        for i in range(400):
            net = random_network(rng, max_routes=20)
            if i % 2:
                net = degenerate_variant(rng, net)
            state = None if rng.random() < 0.5 else str(rng.choice(net.edge_ids))
            flow = wardrop_equilibrium(net, latencies_for_state(net, state))
            assert_wardrop(net, flow)
            by_edges = {}
            for route in net.routes:
                by_edges.setdefault(tuple(sorted(route.edges)), []).append(flow.route_flows[route.route_id])
            assert all(len(set(qs)) == 1 for qs in by_edges.values())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)

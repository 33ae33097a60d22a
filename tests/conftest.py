"""Shared fixtures: the worked three-facility instance and a random-instance factory."""

import numpy as np
import pytest

from facsec.model import CostParams, FacilityProfile, NonpositiveDenominator, partition_by_cost
from facsec.routing import AffineLatency, Edge, Route, RoutedNetwork
from facsec.sequential import OutOfDomain, cd_threshold_tilde

BOUNDARY_MARGIN = 1e-6


@pytest.fixture
def profile3() -> FacilityProfile:
    """Baseline 17 with post-attack costs 20 > 19 > 18 (three singleton levels)."""
    return FacilityProfile(17.0, (("e1", 20.0), ("e2", 19.0), ("e3", 18.0)))


@pytest.fixture
def cal_network() -> RoutedNetwork:
    """Two routes over a shared downstream edge, calibrated so the equilibrium
    usage costs under (intact, e1, e2, e3) are exactly (17, 20, 19, 18)."""
    return RoutedNetwork(
        edges=(
            Edge("e1", AffineLatency(1.0, 0.0), AffineLatency(1.0, 3.0)),
            Edge("e2", AffineLatency(1.0, 2.0), AffineLatency(2.0, 3.0)),
            Edge("e3", AffineLatency(1.0, 2.0), AffineLatency(1.0, 4.0)),
        ),
        routes=(Route("r1", ("e2", "e1")), Route("r2", ("e3", "e1"))),
        demand=10.0,
    )


def random_network(rng: np.random.Generator, max_routes: int = 6) -> RoutedNetwork:
    """A random routed network whose compromised latencies dominate the nominal ones."""
    n_routes = int(rng.integers(1, max_routes + 1))
    n_edges = int(rng.integers(n_routes, n_routes + 4))
    edges = []
    for t in range(n_edges):
        slope = float(rng.uniform(0.05, 4.0))
        intercept = float(rng.uniform(0.0, 15.0))
        edges.append(
            Edge(
                f"g{t}",
                AffineLatency(slope, intercept),
                AffineLatency(slope * float(rng.uniform(1.0, 2.0)), intercept + float(rng.uniform(0.0, 10.0))),
            )
        )
    routes = []
    for r in range(n_routes):
        k = int(rng.integers(1, min(3, n_edges) + 1))
        picks = rng.choice(n_edges, size=k, replace=False)
        routes.append(Route(f"p{r}", tuple(f"g{int(i)}" for i in sorted(picks))))
    return RoutedNetwork(tuple(edges), tuple(routes), float(rng.uniform(1.0, 20.0)))


def off_boundary(profile: FacilityProfile, ca: float, cd: float, margin: float = BOUNDARY_MARGIN) -> bool:
    """True when (ca, cd) keeps ``margin`` distance from every regime boundary."""
    partition = partition_by_cost(profile)
    for edge, band in zip(partition.edges, partition.bands):
        if abs(ca - edge) < margin or abs(cd - band) < margin:
            return False
    if ca < partition.edges[0]:
        try:
            tilde = cd_threshold_tilde(profile, ca)
        except (OutOfDomain, NonpositiveDenominator):
            return False
        if abs(cd - tilde) < margin:
            return False
    return True


def scaled_game(profile: FacilityProfile, params: CostParams, lam: float):
    """The instance with C0, every Ce, ca and cd times ``lam``. The game has no unit of
    cost, so efforts and attack probabilities stay and every utility scales by lam."""
    facilities = tuple((fac, cost * lam) for fac, cost in profile.facilities)
    costs = CostParams(params.attack_cost * lam, params.defense_cost * lam)
    return FacilityProfile(profile.baseline_cost * lam, facilities), costs


def random_game(rng: np.random.Generator, max_n: int = 6, cost_hi: float = 25.0, require=None):
    """A random instance kept at least 1e-6 away from every regime boundary.

    Facility count <= max_n, baseline in [1, 50], post-attack costs within
    [-5, +20] of the baseline (occasionally duplicated to exercise multi-member
    cost levels), both play costs in (0, cost_hi].
    """
    while True:
        n = int(rng.integers(1, max_n + 1))
        c0 = float(rng.uniform(1.0, 50.0))
        costs = rng.uniform(max(0.5, c0 - 5.0), c0 + 20.0, size=n)
        if n >= 2 and rng.random() < 0.35:
            costs[int(rng.integers(1, n))] = costs[0]  # duplicate cost level
        if not (costs > c0 + BOUNDARY_MARGIN).any():
            continue
        ca = float(rng.uniform(1e-3, cost_hi))
        cd = float(rng.uniform(1e-3, cost_hi))
        if any(abs(c - c0) < BOUNDARY_MARGIN or abs(c - ca - c0) < BOUNDARY_MARGIN for c in costs):
            continue
        profile = FacilityProfile(c0, tuple((f"f{t + 1}", float(c)) for t, c in enumerate(costs)))
        if not off_boundary(profile, ca, cd):
            continue
        params = CostParams(ca, cd)
        if require is not None and not require(profile, params):
            continue
        return profile, params

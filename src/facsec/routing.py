"""Wardrop equilibria on parallel-route networks with affine edge latencies.

Networks are a set of routes over shared edges; each edge carries a nominal
and a compromised affine latency. The equilibrium is the minimizer of the
Beckmann potential (Beckmann, McGuire & Winsten 1956). For affine latencies
its optimality conditions are a monotone linear complementarity problem,
which Lemke's complementary pivoting (Lemke 1965) solves in one terminating
pivot sequence. Routes over the same edges share their flow evenly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from .model import LEMKE_PIVOT_TOL, not_above

_PIVOT_BUDGET = 20  # pivots allowed per LCP row before giving up


class NetworkError(ValueError):
    """Malformed network description or unsolvable routing instance."""


@dataclass(frozen=True)
class AffineLatency:
    slope: float
    intercept: float

    def __call__(self, load: float) -> float:
        return self.slope * load + self.intercept


@dataclass(frozen=True)
class Edge:
    edge_id: str
    nominal: AffineLatency
    compromised: AffineLatency


@dataclass(frozen=True)
class Route:
    route_id: str
    edges: tuple[str, ...]


@dataclass(frozen=True)
class RoutedNetwork:
    """Parallel routes over shared edges with inelastic demand.

    Latencies must be finite, and compromised latencies must dominate nominal
    ones pointwise on [0, demand], up to rounding (``not_above``); for affine
    functions checking both endpoints suffices.
    """

    edges: tuple[Edge, ...]
    routes: tuple[Route, ...]
    demand: float

    def __post_init__(self) -> None:
        if not self.routes:
            raise NetworkError("need at least one route")
        if self.demand < 0.0:
            raise NetworkError(f"negative demand {self.demand!r}")
        ids = [e.edge_id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise NetworkError("duplicate edge ids")
        rids = [r.route_id for r in self.routes]
        if len(set(rids)) != len(rids):
            raise NetworkError("duplicate route ids")
        known = set(ids)
        for route in self.routes:
            if not route.edges:
                raise NetworkError(f"route {route.route_id!r} has no edges")
            missing = [e for e in route.edges if e not in known]
            if missing:
                raise NetworkError(f"route {route.route_id!r} uses unknown edges {missing}")
        for edge in self.edges:
            for lat in (edge.nominal, edge.compromised):
                if lat.slope < 0.0 or lat.intercept < 0.0:
                    raise NetworkError(f"edge {edge.edge_id!r} has negative latency coefficients")
            for w in (0.0, self.demand):
                if not (math.isfinite(edge.nominal(w)) and math.isfinite(edge.compromised(w))):
                    raise NetworkError(f"edge {edge.edge_id!r}: latency not finite at load {w}")
                if not not_above(edge.nominal(w), edge.compromised(w)):
                    raise NetworkError(
                        f"edge {edge.edge_id!r}: compromised latency below nominal at load {w}"
                    )

    @cached_property
    def _edges_by_id(self) -> dict[str, Edge]:
        return {e.edge_id: e for e in self.edges}

    @cached_property
    def _route_columns(self) -> tuple[list[str], np.ndarray, list[int], list[int]]:
        """The edges some route uses, their incidence matrix over the distinct
        route edge multisets, each route's column, and how many routes share it."""
        keys: dict[tuple[str, ...], int] = {}
        column = [keys.setdefault(tuple(sorted(r.edges)), len(keys)) for r in self.routes]
        used = sorted({e for r in self.routes for e in r.edges})
        incidence = np.zeros((len(used), len(keys)))
        for key, k in keys.items():
            for e in key:
                incidence[used.index(e), k] += 1.0
        return used, incidence, column, [column.count(k) for k in column]

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.edge_id for e in self.edges)

    @property
    def route_ids(self) -> tuple[str, ...]:
        return tuple(r.route_id for r in self.routes)


@dataclass(frozen=True)
class FlowAssignment:
    route_flows: dict[str, float]
    edge_loads: dict[str, float]
    route_costs: dict[str, float]


def latencies_for_state(
    network: RoutedNetwork, state: Optional[str]
) -> dict[str, AffineLatency]:
    """Effective per-edge latency when ``state`` (an edge id or None) is compromised."""
    if state is not None and state not in network._edges_by_id:
        raise NetworkError(f"unknown state {state!r}")
    return {
        e.edge_id: e.compromised if e.edge_id == state else e.nominal
        for e in network.edges
    }


def _assemble(
    network: RoutedNetwork,
    latencies: Mapping[str, AffineLatency],
    flows: dict[str, float],
) -> FlowAssignment:
    loads = {eid: 0.0 for eid in network.edge_ids}
    for route in network.routes:
        for e in route.edges:
            loads[e] += flows[route.route_id]
    costs = {
        route.route_id: sum(latencies[e](loads[e]) for e in route.edges)
        for route in network.routes
    }
    return FlowAssignment(flows, loads, costs)


def wardrop_equilibrium(
    network: RoutedNetwork, latencies: Mapping[str, AffineLatency]
) -> FlowAssignment:
    """Equilibrium flow assignment under the given effective latencies.

    Routes over the same edges are merged into one column of the incidence
    matrix R. The flows q >= 0, summing to the demand, with every used route
    at cost mu - 1 and no route cheaper, solve the linear complementarity problem

        w = M'(q, mu) + q' >= 0,  (q, mu) >= 0,  wᵀ(q, mu) = 0,
        M' = [[M, -1], [1ᵀ, 0]],  q' = (β + 1, -demand),

    with M = Rᵀ diag(slope) R and β = Rᵀ intercept. M' is positive
    semidefinite, so Lemke's method with a lexicographic ratio test reaches a
    solution. The +1 keeps mu positive, so the flows sum to the demand even on
    zero-latency routes. A column's flow is split evenly over its routes;
    routes outside the final basis get exactly 0.0.
    """
    missing = [e for r in network.routes for e in r.edges if e not in latencies]
    if missing:
        raise NetworkError(f"latencies missing for edges {sorted(set(missing))}")
    routes = network.routes
    if network.demand <= 0.0:
        return _assemble(network, latencies, {r.route_id: 0.0 for r in routes})

    used, incidence, column, sharing = network._route_columns
    slope = np.array([latencies[e].slope for e in used])
    intercept = np.array([latencies[e].intercept for e in used])

    n = incidence.shape[1] + 1
    m_prime = np.zeros((n, n))
    m_prime[:-1, :-1] = (incidence.T * slope) @ incidence
    m_prime[:-1, -1] = -1.0
    m_prime[-1, :-1] = 1.0
    q_prime = np.append(intercept @ incidence + 1.0, -network.demand)
    # tableau [B^-1 | -M' | -1 | q'] over w (columns 0..n-1), z = (q, mu)
    # (n..2n-1) and the artificial z0 (2n); B^-1 orders exact ratio ties
    tab = np.hstack([np.eye(n), -m_prime, -np.ones((n, 1)), q_prime[:, None]])
    basis = list(range(n))
    row, entering = n - 1, 2 * n  # -demand is the only negative entry of q'
    for _ in range(_PIVOT_BUDGET * n):
        pivot = tab[row] / tab[row, entering]
        tab -= tab[:, entering, None] * pivot
        tab[row] = pivot
        leaving, basis[row] = basis[row], entering
        if leaving == 2 * n:
            break
        entering = leaving + n if leaving < n else leaving - n
        entries = tab[:, entering]
        rows = np.flatnonzero(entries > LEMKE_PIVOT_TOL)
        if not rows.size:
            raise NetworkError("Lemke's method ended on a ray; check the latency coefficients")
        ratios = tab[rows, -1] / entries[rows]
        rows = rows[ratios == ratios.min()]
        for k in range(n):
            if rows.size == 1:
                break
            keys = tab[rows, k] / entries[rows]
            rows = rows[keys == keys.min()]
        row = int(rows[0])
    else:
        raise NetworkError("Wardrop pivot budget exhausted; check the latency coefficients")

    value = dict(zip(basis, tab[:, -1].tolist()))
    flows = {
        r.route_id: max(0.0, value.get(n + k, 0.0)) / size
        for r, k, size in zip(routes, column, sharing)
    }
    return _assemble(network, latencies, flows)


def usage_cost_for_state(network: RoutedNetwork, state: Optional[str]) -> float:
    """Average traveler cost at equilibrium with ``state`` compromised.

    Interior equilibria make this the common route cost; at corners it is the
    demand-weighted average over used routes.
    """
    assign = wardrop_equilibrium(network, latencies_for_state(network, state))
    if network.demand > 0.0:
        total = sum(
            assign.route_flows[rid] * assign.route_costs[rid]
            for rid in assign.route_flows
        )
        return total / network.demand
    return min(assign.route_costs.values())

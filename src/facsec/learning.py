"""Repeated routing with Bayesian updates about which edge is compromised.

Each stage, travelers route according to the belief-expected latencies, then
observe noisy realized costs on the edges they actually used and update the
belief by Bayes' rule. Uniform noise makes the update a support check: a state
survives iff every observation is within the noise band of that state's
prediction at the realized loads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, TextIO

import numpy as np

from .model import LOAD_EPS, STATE_SUM_TOL, SUPPORT_SLACK
from .routing import (
    AffineLatency,
    FlowAssignment,
    RoutedNetwork,
    latencies_for_state,
    wardrop_equilibrium,
)

State = Optional[str]  # an edge id, or None for the intact network


class LearningError(ValueError):
    """Invalid belief, prior, or simulation configuration."""


@dataclass(frozen=True)
class StateDistribution:
    """Probabilities over post-attack states (edge id or None): both the
    realized-state distribution and the travelers' common belief."""

    probs: tuple[tuple[State, float], ...]

    def __post_init__(self) -> None:
        pairs = tuple((state, p + 0.0) for state, p in self.probs)  # + 0.0 turns -0.0 into 0.0
        seen = set()
        for state, p in pairs:
            if state in seen:
                raise LearningError(f"duplicate state {state!r}")
            seen.add(state)
            if p < 0.0:
                raise LearningError(f"negative probability {p!r} for state {state!r}")
        total = sum(p for _, p in pairs)
        if abs(total - 1.0) > STATE_SUM_TOL:
            raise LearningError(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "probs", pairs)

    @classmethod
    def point(cls, state: State) -> "StateDistribution":
        return cls(((state, 1.0),))

    def prob(self, state: State) -> float:
        for s, p in self.probs:
            if s == state:
                return p
        return 0.0

    def as_dict(self) -> dict[State, float]:
        return dict(self.probs)

    @property
    def states(self) -> tuple[State, ...]:
        return tuple(s for s, _ in self.probs)

    def sample(self, rng: np.random.Generator) -> State:
        u = float(rng.random())
        acc = 0.0
        for state, p in self.probs:
            acc += p
            if u < acc:
                return state
        return self.probs[-1][0]


Belief = StateDistribution


def state_distribution(eq) -> StateDistribution:
    """Realized-state distribution induced by an equilibrium of either game:
    p(e) = (attack prob on e) * (1 - effort on e), remainder on the intact state."""
    attack = getattr(eq, "attack", None)
    if attack is None:
        attack = eq.on_path.witness
    pairs: list[tuple[State, float]] = []
    for fac, sig in attack.facility_probs:
        pairs.append((fac, sig * (1.0 - eq.effort.get(fac))))
    pairs.append((None, 1.0 - sum(p for _, p in pairs)))
    return StateDistribution(tuple(pairs))


def belief_mixed_latencies(network: RoutedNetwork, belief: Belief) -> dict[str, AffineLatency]:
    """Belief-expected latency per edge; mixtures of affine functions stay affine."""
    out = {}
    for edge in network.edges:
        mass = belief.prob(edge.edge_id)
        out[edge.edge_id] = AffineLatency(
            mass * edge.compromised.slope + (1.0 - mass) * edge.nominal.slope,
            mass * edge.compromised.intercept + (1.0 - mass) * edge.nominal.intercept,
        )
    return out


@dataclass(frozen=True)
class StageResult:
    flow: FlowAssignment
    observations: dict[str, float]  # realized cost per observed edge
    posterior: Belief
    degenerate: bool  # every state ruled out; belief kept as-is


@dataclass(frozen=True)
class _StagePlan:
    """The part of a stage that its belief fixes.

    It holds the Wardrop flow on the belief-mixed latencies, the edges that
    flow loads (the observed edges), the realized state's latency there, and
    each belief state's predicted latency there, as a states × observed-edges
    matrix.
    """

    belief: Belief
    noise_half_width: float
    flow: FlowAssignment
    observed: tuple[str, ...]
    truth: np.ndarray
    predicted: np.ndarray


def _plan_stage(
    belief: Belief, network: RoutedNetwork, noise_half_width: float, realized_state: State
) -> _StagePlan:
    if noise_half_width <= 0.0:
        raise LearningError(f"noise half-width must be positive, got {noise_half_width!r}")
    flow = wardrop_equilibrium(network, belief_mixed_latencies(network, belief))
    loads = flow.edge_loads
    observed = tuple(eid for eid in network.edge_ids if loads[eid] > LOAD_EPS)

    def at_loads(state: State) -> list[float]:
        lat = latencies_for_state(network, state)
        return [lat[eid](loads[eid]) for eid in observed]

    truth = np.array(at_loads(realized_state), dtype=float)
    # one row per state, so the matrix stays 2-D when no edge is observed
    predicted = np.array([at_loads(s) for s in belief.states], dtype=float)
    return _StagePlan(belief, noise_half_width, flow, observed, truth, predicted)


def _play_stage(plan: _StagePlan, rng: np.random.Generator) -> StageResult:
    """Draw the noise of every observed edge at once (the same numbers, in the
    same order, as one scalar draw per edge) and test every state's support."""
    b = plan.noise_half_width
    obs = plan.truth + rng.uniform(-b, b, size=len(plan.observed))
    observations = dict(zip(plan.observed, obs.tolist()))
    survives = (np.abs(obs - plan.predicted) <= b + SUPPORT_SLACK).all(axis=1).tolist()
    belief = plan.belief
    if all(ok for ok, (_, theta) in zip(survives, belief.probs) if theta > 0.0):
        return StageResult(plan.flow, observations, belief, False)
    masses = [theta if ok else 0.0 for ok, (_, theta) in zip(survives, belief.probs)]
    total = sum(masses)
    if total <= 0.0:
        return StageResult(plan.flow, observations, belief, True)
    posterior = Belief(tuple((s, m / total) for (s, _), m in zip(belief.probs, masses)))
    return StageResult(plan.flow, observations, posterior, False)


def stage_step(
    belief: Belief,
    network: RoutedNetwork,
    noise_half_width: float,
    realized_state: State,
    rng: np.random.Generator,
) -> StageResult:
    """One stage: route on the belief, observe used edges, update by Bayes.

    Observed costs are true-state latency at the realized load plus uniform
    noise on [-b, b], drawn independently per observed edge, in edge order.
    States whose prediction misses an observation by more than b are
    eliminated; if no state survives, the belief is kept and the stage flagged
    degenerate. When nothing is eliminated the belief object is returned
    unchanged (the all-ones likelihood cancels in the normalization).
    """
    return _play_stage(_plan_stage(belief, network, noise_half_width, realized_state), rng)


@dataclass(frozen=True)
class SimulationConfig:
    network: RoutedNetwork
    prior: Belief
    state_dist: StateDistribution
    noise_half_width: float
    horizon: int
    seed: int


@dataclass(frozen=True)
class StageRecord:
    stage: int  # 1-based
    belief_before: Belief
    flow: FlowAssignment
    observations: dict[str, float]
    belief_after: Belief
    degenerate: bool


@dataclass(frozen=True)
class LearningTrace:
    config: SimulationConfig
    realized_state: State
    records: tuple[StageRecord, ...]


def run_simulation(config: SimulationConfig) -> LearningTrace:
    """Sample the realized state once, then play ``horizon`` stages.

    Every state the prior names or the distribution can realize must be None
    or an edge of the network, and the prior must not rule out any state the
    distribution can realize. Deterministic for a fixed config and seed, and
    stage for stage the same as calling ``stage_step`` on the same generator.

    The routing and the predictions depend on the belief alone, so the stage
    plan (one Wardrop solve) is kept while the belief object is unchanged:
    one solve per distinct belief. A changed belief has lost a state from its
    support, and support never grows back, so a belief once left never
    returns; keeping only the last plan therefore misses no reuse.
    """
    if config.horizon < 1:
        raise LearningError(f"horizon must be at least 1, got {config.horizon!r}")
    realizable = tuple(s for s, p in config.state_dist.probs if p > 0.0)
    edge_ids = set(config.network.edge_ids)
    for state in config.prior.states + realizable:
        if state is not None and state not in edge_ids:
            raise LearningError(f"state {state!r} is not an edge of the network")
    for state, p in config.state_dist.probs:
        if p > 0.0 and config.prior.prob(state) <= 0.0:
            raise LearningError(f"prior rules out realizable state {state!r}")
    rng = np.random.default_rng(config.seed)
    realized = config.state_dist.sample(rng)
    belief = config.prior
    plan: Optional[_StagePlan] = None
    records: list[StageRecord] = []
    for t in range(1, config.horizon + 1):
        if plan is None or plan.belief is not belief:
            plan = _plan_stage(belief, config.network, config.noise_half_width, realized)
        step = _play_stage(plan, rng)
        records.append(
            StageRecord(t, belief, step.flow, step.observations, step.posterior, step.degenerate)
        )
        belief = step.posterior
    return LearningTrace(config, realized, tuple(records))


def _state_label(state: State) -> str:
    return "none" if state is None else state


def write_trace_csv(trace: LearningTrace, dest: TextIO) -> None:
    """Serialize a trace to the writable text file ``dest``.

    One row per stage with the post-update belief; unobserved edges leave
    their observation field empty. The seed and realized state go into a
    comment line above the header so reruns are diffable.
    """
    network = trace.config.network
    states = trace.config.prior.states
    dest.write(
        f"# seed={trace.config.seed} true_state={_state_label(trace.realized_state)}\n"
    )
    writer = csv.writer(dest, lineterminator="\n")
    header = (
        ["t"]
        + [f"theta_{'empty' if s is None else s}" for s in states]
        + [f"q_{rid}" for rid in network.route_ids]
        + [f"obs_{eid}" for eid in network.edge_ids]
        + ["degenerate"]
    )
    writer.writerow(header)

    def num(x: float) -> str:
        return format(x, ".9g")

    edge_ids, route_ids = network.edge_ids, network.route_ids
    belief = flow = None  # theta and q_ fields are formatted once per belief and flow
    for rec in trace.records:
        if rec.belief_after is not belief or rec.flow is not flow:
            belief, flow = rec.belief_after, rec.flow
            routed = [num(belief.prob(s)) for s in states]
            routed += [num(flow.route_flows[rid]) for rid in route_ids]
        obs = rec.observations
        row = [str(rec.stage), *routed]
        row += [num(obs[eid]) if eid in obs else "" for eid in edge_ids]
        row.append("1" if rec.degenerate else "0")
        writer.writerow(row)

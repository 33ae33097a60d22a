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
from typing import Iterator, Optional, TextIO

import numpy as np

from .model import BOUNDARY_TOL, PROB_SLACK
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
            if not p >= 0.0:  # also rejects NaN
                raise LearningError(f"negative probability {p!r} for state {state!r}")
        total = sum(p for _, p in pairs)
        if abs(total - 1.0) > PROB_SLACK:
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
        # the probabilities may sum to just below 1; never return a state of mass 0
        return next(state for state, p in reversed(self.probs) if p > 0.0)


Belief = StateDistribution


def state_distribution(eq) -> StateDistribution:
    """Realized-state distribution induced by an equilibrium of either game:
    p(e) = (attack prob on e) * (1 - effort on e), and the intact state the no-attack
    mass plus every attack that meets a secured facility: a sum of nonnegative terms."""
    attack = getattr(eq, "attack", None)
    if attack is None:
        attack = eq.on_path.witness
    pairs: list[tuple[State, float]] = []
    intact = attack.no_attack
    for fac, sig in attack.facility_probs:
        rho = eq.effort.get(fac)
        pairs.append((fac, sig * (1.0 - rho)))
        intact += sig * rho
    pairs.append((None, intact))
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
class _StagePlan:
    """The part of a stage that its belief fixes.

    It holds the Wardrop flow on the belief-mixed latencies, the edges that
    flow loads (the observed edges), the realized state's latency there, each
    belief state's predicted latency there, as a states × observed-edges
    matrix, and which states have positive mass.
    """

    belief: Belief
    noise_half_width: float
    flow: FlowAssignment
    observed: tuple[str, ...]
    truth: np.ndarray
    predicted: np.ndarray
    positive: np.ndarray


def _plan_stage(
    belief: Belief, network: RoutedNetwork, noise_half_width: float, realized_state: State
) -> _StagePlan:
    if not noise_half_width > 0.0:  # also rejects NaN
        raise LearningError(f"noise half-width must be positive, got {noise_half_width!r}")
    flow = wardrop_equilibrium(network, belief_mixed_latencies(network, belief))
    loads = flow.edge_loads
    observed = tuple(eid for eid in network.edge_ids if loads[eid] > PROB_SLACK * network.demand)

    def at_loads(state: State) -> list[float]:
        lat = latencies_for_state(network, state)
        return [lat[eid](loads[eid]) for eid in observed]

    truth = np.array(at_loads(realized_state), dtype=float)
    # one row per state, so the matrix stays 2-D when no edge is observed
    predicted = np.array([at_loads(s) for s in belief.states], dtype=float)
    positive = np.array([theta > 0.0 for _, theta in belief.probs])
    return _StagePlan(belief, noise_half_width, flow, observed, truth, predicted, positive)


@dataclass(frozen=True)
class StageRecord:
    stage: int  # 1-based
    belief_before: Belief
    flow: FlowAssignment
    observations: dict[str, float]  # realized cost per observed edge
    belief_after: Belief
    degenerate: bool  # every state ruled out; belief kept as-is


@dataclass(frozen=True)
class _Segment:
    """The stages one belief played in one block, as columns. It iterates
    its ``StageRecord``s, which share its belief and flow objects."""

    first: int  # the 1-based stage of row 0
    plan: _StagePlan
    observations: np.ndarray  # stages × plan.observed
    degenerate: np.ndarray  # one flag per stage
    belief_after: Belief  # after the last stage; every earlier stage keeps plan.belief

    def __iter__(self) -> Iterator[StageRecord]:
        plan, last = self.plan, len(self.degenerate) - 1
        rows = zip(self.observations.tolist(), self.degenerate.tolist())
        for row, (obs, degenerate) in enumerate(rows):
            after = self.belief_after if row == last else plan.belief
            yield StageRecord(
                self.first + row, plan.belief, plan.flow, dict(zip(plan.observed, obs)), after, degenerate
            )


# A block of stages costs one noise draw and one support check. It is at most
# BLOCK_STAGES stages, and at most BLOCK_CELLS stage × state × observed-edge
# comparisons, which bounds the check's temporary arrays on large networks.
BLOCK_STAGES = 4096
BLOCK_CELLS = 1 << 18


def _play_block(plan: _StagePlan, rng: np.random.Generator, first: int, stages: int) -> _Segment:
    """Play up to ``stages`` stages on the plan's belief, numbered from
    ``first``, ending after the first stage that changes it, and return the
    segment played.

    A stage that rules out every positive-mass state is degenerate and keeps
    the belief, so the block plays on. The noise is one draw of stages ×
    observed edges, the same numbers in the same order as one draw per stage;
    when the block ends early, the generator is rewound and redrawn to just
    past the stages played, where a stage-by-stage loop would have left it.
    """
    b = plan.noise_half_width
    n = len(plan.observed)
    start = rng.bit_generator.state
    band = b + BOUNDARY_TOL * np.maximum(1.0, np.abs(plan.predicted) + b)
    obs = plan.truth + rng.uniform(-b, b, size=(stages, n))
    survives = (np.abs(obs[:, None, :] - plan.predicted) <= band).all(axis=2)
    kept = survives[:, plan.positive]
    degenerate = ~kept.any(axis=1)
    changes = np.flatnonzero(~kept.all(axis=1) & ~degenerate)
    if not changes.size:
        return _Segment(first, plan, obs, degenerate, plan.belief)
    s = int(changes[0])
    if s + 1 < stages:
        rng.bit_generator.state = start
        rng.uniform(-b, b, size=(s + 1, n))
    belief = plan.belief
    masses = [theta if ok else 0.0 for ok, (_, theta) in zip(survives[s].tolist(), belief.probs)]
    total = sum(masses)
    posterior = Belief(tuple((state, m / total) for (state, _), m in zip(belief.probs, masses)))
    return _Segment(first, plan, obs[: s + 1], degenerate[: s + 1], posterior)


def stage_step(
    belief: Belief,
    network: RoutedNetwork,
    noise_half_width: float,
    realized_state: State,
    rng: np.random.Generator,
) -> StageRecord:
    """One stage: route on the belief, observe used edges, update by Bayes.
    Returns the only record of a one-stage block: stage 1, from ``belief``
    to the posterior.

    Observed costs are true-state latency at the realized load plus uniform
    noise on [-b, b], drawn independently per observed edge, in edge order.
    States whose prediction misses an observation by more than b, widened by
    BOUNDARY_TOL at the scale of the latencies so that rounding never rules
    out the realized state, are eliminated; if no state survives, the belief
    is kept and the stage flagged degenerate. When nothing is eliminated the
    belief object is returned unchanged (the all-ones likelihood cancels in
    the normalization).
    """
    plan = _plan_stage(belief, network, noise_half_width, realized_state)
    return next(iter(_play_block(plan, rng, 1, 1)))


@dataclass(frozen=True)
class SimulationConfig:
    network: RoutedNetwork
    prior: Belief
    state_dist: StateDistribution
    noise_half_width: float
    horizon: int
    seed: int


class StageRecords:
    """A trace's stages held as column segments, one per block of stages
    played on one belief. It has a length and iterates its ``StageRecord``s
    in stage order, built as they are read."""

    def __init__(self, segments: list[_Segment]) -> None:
        self.segments = tuple(segments)
        self._len = sum(len(seg.degenerate) for seg in self.segments)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[StageRecord]:
        for seg in self.segments:
            yield from seg


@dataclass(frozen=True)
class LearningTrace:
    config: SimulationConfig
    realized_state: State
    records: StageRecords


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
    returns; keeping only the last plan therefore misses no reuse. The stages
    of a plan are played in blocks (see ``BLOCK_STAGES``).
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
    segments: list[_Segment] = []
    played = 0
    while played < config.horizon:
        if plan is None or plan.belief is not belief:
            plan = _plan_stage(belief, config.network, config.noise_half_width, realized)
        cells = max(1, plan.predicted.size)
        stages = min(BLOCK_STAGES, max(1, BLOCK_CELLS // cells), config.horizon - played)
        segment = _play_block(plan, rng, played + 1, stages)
        segments.append(segment)
        belief = segment.belief_after
        played += len(segment.degenerate)
    return LearningTrace(config, realized, StageRecords(segments))


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
    header = (
        ["t"]
        + [f"theta_{'empty' if s is None else s}" for s in states]
        + [f"q_{rid}" for rid in network.route_ids]
        + [f"obs_{eid}" for eid in network.edge_ids]
        + ["degenerate"]
    )
    csv.writer(dest, lineterminator="\n").writerow(header)  # quotes ids holding , or "

    def num(x: float) -> str:
        return format(x, ".9g")

    def routed(belief: Belief, flow: FlowAssignment) -> str:
        fields = [num(belief.prob(s)) for s in states]
        fields += [num(flow.route_flows[rid]) for rid in network.route_ids]
        return ",".join(fields)

    # Data fields are numbers or empty, which csv never quotes, so rows are
    # joined directly: column by column within a segment, theta and q_ fields
    # formatted once per segment.
    for seg in trace.records.segments:
        plan, stages = seg.plan, len(seg.degenerate)
        before = routed(plan.belief, plan.flow)
        after = before if seg.belief_after is plan.belief else routed(seg.belief_after, plan.flow)
        observed = dict(zip(plan.observed, seg.observations.T.tolist()))
        columns = [map(str, range(seg.first, seg.first + stages)), [before] * (stages - 1) + [after]]
        columns += [
            [format(x, ".9g") for x in observed[eid]] if eid in observed else [""] * stages
            for eid in network.edge_ids
        ]
        columns.append(["1" if flag else "0" for flag in seg.degenerate.tolist()])
        dest.write("\n".join(map(",".join, zip(*columns))) + "\n")

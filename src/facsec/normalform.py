"""Equilibria of the simultaneous-move game, in closed form.

The (attack cost, defense cost) quadrant splits into 2K+1 regimes, K being the
number of distinct above-baseline post-attack cost levels. In Type I regimes
the defender keeps every sufficiently profitable target exactly at the
attacker's indifference point and the attacker randomizes below everyone's
defense-indifference probability, leaving some no-attack mass. In Type II
regimes defense is too expensive for that: the attacker attacks with
probability one and the defender equalizes the top cost levels downward.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .model import (
    AttackDistribution,
    CostParams,
    EffortVector,
    EmptyVulnerableUniverse,
    FacilityId,
    FacilityPartition,
    FacilityProfile,
    Location,
    ModelError,
    _read,
    partition_by_cost,
)


class BoundaryParameters(ValueError):
    """Cost parameters sit on a regime boundary; closed forms decline (use the LP)."""

    @classmethod
    def at(cls, params: CostParams, line: str = "regime") -> "BoundaryParameters":
        ca, cd = params.attack_cost, params.defense_cost
        return cls(f"(attack_cost={ca!r}, defense_cost={cd!r}) lies on a {line} boundary")


class RegimeKind(Enum):
    TYPE_I = "I"
    TYPE_II = "II"
    BOUNDARY = "boundary"


def _label(kind: str, index: Optional[int]) -> str:
    """The label of a regime of either game from its kind's value and its index,
    as I-2 or II~-1; a boundary, whose index is None, reads "boundary"."""
    return kind if index is None else f"{kind}-{index}"


@dataclass(frozen=True)
class NeRegime:
    kind: RegimeKind
    index: Optional[int]  # i for Type I (0..K), j for Type II (1..K), None for boundary

    @property
    def label(self) -> str:
        return _label(self.kind.value, self.index)

    @classmethod
    def at(cls, loc: Location) -> "NeRegime":
        """I-i while band i is above cd (j > i), else II-j."""
        if loc.on_ne_line:
            return cls(RegimeKind.BOUNDARY, None)
        if loc.j > loc.i:
            return cls(RegimeKind.TYPE_I, loc.i)
        return cls(RegimeKind.TYPE_II, loc.j)


@dataclass(frozen=True)
class NormalFormEquilibrium:
    regime: NeRegime
    effort: EffortVector
    attack: AttackDistribution  # canonical witness from the attack set
    defender_utility: float
    attacker_utility: float


def cd_threshold_bar(profile: FacilityProfile, attack_cost: float) -> float:
    """Defense cost below which every vulnerable facility gets protected in equilibrium.

    Equals the harmonic-style aggregate (sum over vulnerable e of 1/(Ce-C0))^-1.
    Raises EmptyVulnerableUniverse when the attack cost leaves nothing vulnerable,
    and ModelError when it is negative or not a number.
    """
    if not attack_cost >= 0.0:  # NaN fails too
        raise ModelError(f"attack cost {attack_cost!r} is negative or not a number")
    partition = partition_by_cost(profile)
    i = partition.bracket(attack_cost)
    if i == 0:
        raise EmptyVulnerableUniverse(
            f"attack cost {attack_cost!r} leaves no vulnerable facility"
        )
    return partition.bands.item(i - 1)


def classify_regime_ne(profile: FacilityProfile, params: CostParams) -> NeRegime:
    """Locate the parameters in the simultaneous game's regime diagram."""
    loc = partition_by_cost(profile).locate(params.attack_cost, params.defense_cost)
    return NeRegime.at(loc)


def _deter(
    profile: FacilityProfile, partition: FacilityPartition, attack_cost: float, i: int
) -> EffortVector:
    """Effort (C(k)-ca-C0)/(C(k)-C0) on levels 1..i, at which attacking them
    is exactly as good as abstaining (regimes I-i and I~-i)."""
    c0 = partition.baseline_cost
    costs, edges = partition.level_costs[:i].tolist(), partition.edges[:i].tolist()
    effort = {
        fac: (costs[k] - attack_cost - c0) / edges[k]
        for k in range(i)
        for fac in partition.members[k]
    }
    return EffortVector.over(profile, effort)


def _concede(
    profile: FacilityProfile, partition: FacilityPartition, defense_cost: float, j: int
) -> tuple[EffortVector, AttackDistribution]:
    """The outcome of conceding down to level j (regimes II-j and II~-j).

    Levels above j get the effort that equalizes their expected cost with
    C(j) and are attacked at their break-even probability; level j absorbs
    the rest of the attack mass, so the attacker always attacks.
    """
    costs, edges = partition.level_costs[:j].tolist(), partition.edges[: j - 1].tolist()
    cj = costs[j - 1]
    effort: dict[FacilityId, float] = {}
    attack: dict[FacilityId, float] = {}
    for k in range(j - 1):
        for fac in partition.members[k]:
            effort[fac] = (costs[k] - cj) / edges[k]
            attack[fac] = defense_cost / edges[k]
    residual = 1.0 - sum(attack.values())
    free = partition.members[j - 1]
    for fac in free:
        attack[fac] = residual / len(free)
    return (
        EffortVector.over(profile, effort),
        AttackDistribution.over(profile, attack, no_attack=0.0),
    )


def _concession_utilities(partition: FacilityPartition, ca, cd, j):
    """(defender, attacker) utilities of the outcome of ``_concede``: C(j) and
    the concession spend T_j (``FacilityPartition.concession_spends``). The
    arguments are numbers or arrays, as in ``_ne_utilities``."""
    cj = _read(partition.level_costs, j - 1)
    return -cj - cd * _read(partition.concession_spends, j), cj - ca


def _ne_utilities(partition: FacilityPartition, ca, cd, kind: RegimeKind, index):
    """(defender, attacker) utilities of the non-boundary regime ``kind``-``index``
    at (ca, cd): I-i reads N_i alone, Ud = -C0 - cd*N_i.

    ``ca``, ``cd`` and ``index`` are numbers, or arrays that broadcast against
    each other, index being i for Type I and j for Type II. Every operation is
    elementwise, so each element of an array result has the number result's bits.
    """
    if kind is RegimeKind.TYPE_I:
        c0 = partition.baseline_cost
        return -c0 - cd * _read(partition.prefix_sizes, index), c0
    if kind is RegimeKind.TYPE_II:
        return _concession_utilities(partition, ca, cd, index)
    raise BoundaryParameters("no closed-form utilities on a regime boundary")


def ne_utilities(
    profile: FacilityProfile, params: CostParams, regime: NeRegime
) -> tuple[float, float]:
    """Equilibrium (defender, attacker) utilities for a non-boundary regime."""
    partition = partition_by_cost(profile)
    return _ne_utilities(partition, params.attack_cost, params.defense_cost, regime.kind, regime.index)


def solve_ne(profile: FacilityProfile, params: CostParams) -> NormalFormEquilibrium:
    """Closed-form equilibrium of the simultaneous game.

    Raises BoundaryParameters when the classification lands on a boundary; the
    oracle LP still solves those points.
    """
    ca, cd = params.attack_cost, params.defense_cost
    partition = partition_by_cost(profile)
    regime = NeRegime.at(partition.locate(ca, cd))
    if regime.kind is RegimeKind.BOUNDARY:
        raise BoundaryParameters.at(params)
    if regime.kind is RegimeKind.TYPE_I:
        # every deterred level is attacked at its break-even probability
        edges = partition.edges[: regime.index].tolist()
        attack = {fac: cd / edges[k] for k in range(regime.index) for fac in partition.members[k]}
        eff = _deter(profile, partition, ca, regime.index)
        dist = AttackDistribution.over(profile, attack)
    else:
        eff, dist = _concede(profile, partition, cd, regime.index)
    ud, ua = _ne_utilities(partition, ca, cd, regime.kind, regime.index)
    return NormalFormEquilibrium(regime, eff, dist, ud, ua)


def build_attacker_lp(profile: FacilityProfile, params: CostParams):
    """The attacker-side LP of the equivalent zero-sum game.

    Variables: one attack probability per increased-cost facility, the
    no-attack probability, and one auxiliary value per facility capturing the
    lower envelope of the defender's two pure reactions. Maximizing the sum of
    envelopes plus baseline-weighted no-attack mass over the probability
    simplex yields the attacker's equilibrium strategies as the optima.
    """
    from .oracle import LinearProgram

    increased = [fac for fac, ce in profile.facilities if ce > profile.baseline_cost]
    if not increased:
        raise EmptyVulnerableUniverse("no facility has post-attack cost above baseline")
    c0, ca, cd = profile.baseline_cost, params.attack_cost, params.defense_cost
    n = len(increased)
    labels = [f"sigma_{fac}" for fac in increased] + ["sigma_none"] + [
        f"v_{fac}" for fac in increased
    ]
    width = 2 * n + 1
    objective = [0.0] * width
    objective[n] = c0
    for t in range(n):
        objective[n + 1 + t] = 1.0

    a_ub, b_ub = [], []
    for t, fac in enumerate(increased):
        ce = profile.post_attack_cost(fac)
        secured = [0.0] * width  # v_e <= sigma_e (C0 - ca) + cd
        secured[t] = -(c0 - ca)
        secured[n + 1 + t] = 1.0
        a_ub.append(tuple(secured))
        b_ub.append(cd)
        exposed = [0.0] * width  # v_e <= sigma_e (Ce - ca)
        exposed[t] = -(ce - ca)
        exposed[n + 1 + t] = 1.0
        a_ub.append(tuple(exposed))
        b_ub.append(0.0)

    simplex_row = [1.0] * (n + 1) + [0.0] * n
    bounds = [(0.0, None)] * (n + 1) + [(None, None)] * n
    return LinearProgram(
        tuple(objective),
        tuple(a_ub),
        tuple(b_ub),
        (tuple(simplex_row),),
        (1.0,),
        tuple(bounds),
        tuple(labels),
    )

"""Subgame-perfect outcomes when the defender commits first.

Commitment changes the picture through one curve: a strictly increasing
defense-cost threshold (as a function of the attack cost) below which the
defender deters every attack by meeting the attacker's indifference effort on
each vulnerable facility, and above which the best the defender can do is the
simultaneous-game outcome with full-probability attacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .model import (
    AttackDistribution,
    CostParams,
    EffortVector,
    FacilityId,
    FacilityPartition,
    FacilityProfile,
    on_boundary,
    partition_by_cost,
)
from .normalform import (
    BoundaryParameters,
    _concede,
    _deter,
    _concession_level,
    _concession_utilities,
)


class OutOfDomain(ValueError):
    """Argument outside the function's domain (level indices or attack cost)."""


class NonpositiveDenominator(ValueError):
    """The requested threshold expression degenerates at these parameters."""


class BelowRange(ValueError):
    """Defense cost below the threshold curve's minimum; no inverse exists."""


class SpeRegimeKind(Enum):
    TYPE_I = "I~"
    TYPE_II = "II~"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class SpeRegime:
    kind: SpeRegimeKind
    index: Optional[int]

    @property
    def label(self) -> str:
        if self.kind is SpeRegimeKind.BOUNDARY:
            return "boundary"
        return f"{self.kind.value}-{self.index}"


@dataclass(frozen=True)
class OnPathAttack:
    """Attack behavior on the equilibrium path of the sequential game."""

    deterred: bool
    admissible: tuple[FacilityId, ...]  # facilities an equilibrium attack may use
    witness: AttackDistribution


@dataclass(frozen=True)
class SpeOutcome:
    regime: SpeRegime
    effort: EffortVector
    on_path: OnPathAttack
    defender_utility: float
    attacker_utility: float


def _curve_offset(partition: FacilityPartition, i: int, j: int) -> float:
    """a_ij in the curve's piece (i, j), cd = (C(j)-C0) / (a_ij - ca*S_i)."""
    s_prev = partition.prefix_ratios[j - 2] if j > 1 else 0.0
    return partition.edges[j - 1] * s_prev + sum(partition.level_sizes[j - 1 : i])


def cd_ij(profile: FacilityProfile, attack_cost: float, i: int, j: int) -> float:
    """Defense cost at which deterring levels 1..i costs exactly as much as
    conceding an attack pinned down to level j.

    Defined for 1 <= j <= i <= K; raises NonpositiveDenominator where the
    expression degenerates (attack cost too large for the requested levels).
    """
    partition = partition_by_cost(profile)
    if not (1 <= j <= i <= partition.K):
        raise OutOfDomain(f"need 1 <= j <= i <= {partition.K}, got i={i}, j={j}")
    sizes, edges = partition.level_sizes, partition.edges
    attack_ratio = sum(attack_cost * sizes[k] / edges[k] for k in range(i))
    den = _curve_offset(partition, i, j) - attack_ratio
    if den <= 0.0:
        raise NonpositiveDenominator(f"cd_{i}{j} denominator {den!r} at attack cost {attack_cost!r}")
    return edges[j - 1] / den


def cd_threshold_tilde(profile: FacilityProfile, attack_cost: float) -> float:
    """The deterrence/concession threshold curve, evaluated at ``attack_cost``.

    Strictly increasing on [0, C(1)-C0), equal to the full-protection
    threshold at 0, and diverging at the right end of its domain.
    """
    partition = partition_by_cost(profile)
    cap = partition.edges[0]
    if attack_cost < 0.0 or attack_cost >= cap:
        raise OutOfDomain(f"attack cost {attack_cost!r} outside [0, {cap!r})")
    i = partition.bracket(attack_cost)
    if i == 0:  # only possible at attack_cost == C(1)-C0, excluded above
        raise OutOfDomain(f"attack cost {attack_cost!r} leaves nothing vulnerable")
    sizes = partition.level_sizes
    s_i = partition.prefix_ratios[i - 1]
    # concession level j grows with the attack cost within the bracket
    j = i
    upper = sizes[i - 1] / s_i
    while j > 1 and attack_cost >= upper:
        j -= 1
        upper += sizes[j - 1] / s_i
    return cd_ij(profile, attack_cost, i, j)


def cd_tilde_inverse(profile: FacilityProfile, defense_cost: float) -> float:
    """Attack cost at which the threshold curve reaches ``defense_cost``.

    On piece (i, j) the curve is (C(j)-C0) / (a_ij - ca*S_i), so the inverse
    is ca = (a_ij - (C(j)-C0)/cd) / S_i on the first piece, from the left,
    whose right end reaches ``defense_cost``. Raises BelowRange when the
    defense cost is below the curve's value at zero attack cost.
    """
    partition = partition_by_cost(profile)
    base = cd_threshold_tilde(profile, 0.0)
    if defense_cost <= base:
        if on_boundary(defense_cost, base):
            return 0.0
        raise BelowRange(f"defense cost {defense_cost!r} below the curve minimum {base!r}")
    edges, sizes = partition.edges, partition.level_sizes
    for i in range(partition.K, 0, -1):  # brackets, left to right
        s_i = partition.prefix_ratios[i - 1]
        left, right = (edges[i] if i < partition.K else 0.0), edges[i - 1]
        start = 0.0
        # concession levels, left to right; the piece ends accumulate exactly as
        # the switch points in cd_threshold_tilde, so both agree on every piece
        for j in range(i, 0, -1):
            end = start + sizes[j - 1] / s_i if j > 1 else math.inf
            lo, hi = max(start, left), min(end, right)
            start = end
            if lo >= hi:  # the piece lies outside the bracket
                continue
            ca = (_curve_offset(partition, i, j) - edges[j - 1] / defense_cost) / s_i
            if ca <= hi:
                return max(ca, lo)
    return edges[0]  # beyond the last piece's float range: the curve diverges at C(1)-C0


def classify_regime_spe(profile: FacilityProfile, params: CostParams) -> SpeRegime:
    """Locate the parameters in the sequential game's regime diagram."""
    partition = partition_by_cost(profile)
    ca, cd = params.attack_cost, params.defense_cost
    edges = partition.edges

    for k, edge in enumerate(edges, start=1):
        if on_boundary(ca, edge):
            if k == 1:
                return SpeRegime(SpeRegimeKind.BOUNDARY, None)
            tilde_there = cd_threshold_tilde(profile, edge)
            if cd < tilde_there or on_boundary(cd, tilde_there):
                return SpeRegime(SpeRegimeKind.BOUNDARY, None)
    if ca > edges[0]:
        return SpeRegime(SpeRegimeKind.TYPE_I, 0)

    tilde = cd_threshold_tilde(profile, ca)
    if on_boundary(cd, tilde):
        return SpeRegime(SpeRegimeKind.BOUNDARY, None)
    if cd < tilde:
        return SpeRegime(SpeRegimeKind.TYPE_I, partition.bracket(ca))
    j = _concession_level(partition, cd, partition.K)
    if j is None or j > partition.K:  # on a band constant, or below the last one
        return SpeRegime(SpeRegimeKind.BOUNDARY, None)
    return SpeRegime(SpeRegimeKind.TYPE_II, j)


def spe_utilities(
    profile: FacilityProfile, params: CostParams, regime: SpeRegime
) -> tuple[float, float]:
    """Equilibrium-path (defender, attacker) utilities for a non-boundary regime."""
    partition = partition_by_cost(profile)
    if regime.kind is SpeRegimeKind.TYPE_I:
        c0, ca = partition.baseline_cost, params.attack_cost
        costs, sizes, edges = partition.level_costs, partition.level_sizes, partition.edges
        spend = sum((costs[k] - ca - c0) / edges[k] * sizes[k] for k in range(regime.index or 0))
        return -c0 - params.defense_cost * spend, c0
    if regime.kind is SpeRegimeKind.TYPE_II:
        return _concession_utilities(partition, params, regime.index)
    raise BoundaryParameters("no closed-form utilities on a regime boundary")


def solve_spe(profile: FacilityProfile, params: CostParams) -> SpeOutcome:
    """Closed-form subgame-perfect outcome of the sequential game.

    Type I regimes deter: threshold effort on every vulnerable facility and no
    attack on path. Type II regimes concede: the simultaneous-game effort,
    against which the attacker mixes over the top j cost levels with total
    probability one. Raises BoundaryParameters on regime boundaries.
    """
    regime = classify_regime_spe(profile, params)
    if regime.kind is SpeRegimeKind.BOUNDARY:
        raise BoundaryParameters(
            f"(attack_cost={params.attack_cost!r}, defense_cost={params.defense_cost!r})"
            " lies on a regime boundary"
        )
    partition = partition_by_cost(profile)
    if regime.kind is SpeRegimeKind.TYPE_I:
        eff = _deter(profile, partition, params.attack_cost, regime.index)
        on_path = OnPathAttack(True, (), AttackDistribution.over(profile, {}))
    else:
        eff, witness = _concede(profile, partition, params.defense_cost, regime.index)
        on_path = OnPathAttack(False, partition.members_up_to(regime.index), witness)
    ud, ua = spe_utilities(profile, params, regime)
    return SpeOutcome(regime, eff, on_path, ud, ua)

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
    Location,
    on_boundary,
    partition_by_cost,
)
from .normalform import BoundaryParameters, _concede, _concession_utilities, _deter, _label


class OutOfDomain(ValueError):
    """Argument outside the function's domain: an attack cost, or a cost that is not a number."""


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
        return _label(self.kind.value, self.index)

    @classmethod
    def at(cls, loc: Location) -> "SpeRegime":
        """I~-i below the threshold curve, else II~-j."""
        if loc.on_spe_line:
            return cls(SpeRegimeKind.BOUNDARY, None)
        if loc.below_curve:
            return cls(SpeRegimeKind.TYPE_I, loc.i)
        return cls(SpeRegimeKind.TYPE_II, loc.j)


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


def cd_threshold_tilde(profile: FacilityProfile, attack_cost: float) -> float:
    """The deterrence/concession threshold curve, evaluated at ``attack_cost``.

    Strictly increasing on [0, C(1)-C0), equal to the full-protection
    threshold at 0, and diverging at the right end of its domain.
    """
    partition = partition_by_cost(profile)
    cap = partition.edges.item(0)
    if not 0.0 <= attack_cost < cap:  # NaN fails too
        raise OutOfDomain(f"attack cost {attack_cost!r} outside [0, {cap!r})")
    return partition.cd_tilde(attack_cost)


def cd_tilde_inverse(profile: FacilityProfile, defense_cost: float) -> float:
    """Attack cost at which the threshold curve reaches ``defense_cost``.

    On piece (i, j), ca = (N_i - T_j - (C(j)-C0)/cd) / S_i (see
    ``FacilityPartition.cd_ij``), clipped to bracket i. Bisections find j, the
    concession level, and i, the bracket whose ends hold cd, in O(log K) curve
    values. Raises BelowRange below the curve's value at attack cost 0, and
    OutOfDomain at NaN.
    """
    if math.isnan(defense_cost):
        raise OutOfDomain(f"defense cost {defense_cost!r} is not a number")
    partition = partition_by_cost(profile)
    base = partition.cd_tilde(0.0)
    if defense_cost <= base:
        if on_boundary(defense_cost, base):
            return 0.0
        raise BelowRange(f"defense cost {defense_cost!r} below the curve minimum {base!r}")
    return partition.cd_tilde_inverse(defense_cost)


def classify_regime_spe(profile: FacilityProfile, params: CostParams) -> SpeRegime:
    """Locate the parameters in the sequential game's regime diagram."""
    loc = partition_by_cost(profile).locate(params.attack_cost, params.defense_cost)
    return SpeRegime.at(loc)


def _spe_utilities(partition: FacilityPartition, ca, cd, kind: SpeRegimeKind, index):
    """Equilibrium-path (defender, attacker) utilities of the non-boundary regime
    ``kind``-``index`` at (ca, cd), on numbers or arrays as in ``normalform._ne_utilities``.
    In I~-i, Ud = -C0 - cd*(N_i - ca*S_i), the deterrence spend."""
    if kind is SpeRegimeKind.TYPE_I:
        c0 = partition.baseline_cost
        return -c0 - cd * partition.deterrence_spend(ca, index), c0
    if kind is SpeRegimeKind.TYPE_II:
        return _concession_utilities(partition, ca, cd, index)
    raise BoundaryParameters("no closed-form utilities on a regime boundary")


def spe_utilities(
    profile: FacilityProfile, params: CostParams, regime: SpeRegime
) -> tuple[float, float]:
    """Equilibrium-path (defender, attacker) utilities for a non-boundary regime."""
    partition = partition_by_cost(profile)
    return _spe_utilities(partition, params.attack_cost, params.defense_cost, regime.kind, regime.index)


def solve_spe(profile: FacilityProfile, params: CostParams) -> SpeOutcome:
    """Closed-form subgame-perfect outcome of the sequential game.

    Type I regimes deter: threshold effort on every vulnerable facility and no
    attack on path. Type II regimes concede: the simultaneous-game effort,
    against which the attacker mixes over the top j cost levels with total
    probability one. Raises BoundaryParameters on regime boundaries.
    """
    ca, cd = params.attack_cost, params.defense_cost
    partition = partition_by_cost(profile)
    regime = SpeRegime.at(partition.locate(ca, cd))
    if regime.kind is SpeRegimeKind.BOUNDARY:
        raise BoundaryParameters.at(params)
    if regime.kind is SpeRegimeKind.TYPE_I:
        eff = _deter(profile, partition, ca, regime.index)
        on_path = OnPathAttack(True, (), AttackDistribution.over(profile, {}))
    else:
        eff, witness = _concede(profile, partition, cd, regime.index)
        on_path = OnPathAttack(False, partition.members_up_to(regime.index), witness)
    ud, ua = _spe_utilities(partition, ca, cd, regime.kind, regime.index)
    return SpeOutcome(regime, eff, on_path, ud, ua)

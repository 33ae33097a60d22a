"""Cross-game comparison and parameter-space sweeps.

Places each (attack cost, defense cost) pair in the low/medium/high
defense-cost taxonomy, pairs up the simultaneous and sequential solutions to
measure the value of commitment, and rasterizes regime diagrams to CSV.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, TextIO, Union

from .model import (
    RELATION_TOL,
    CostParams,
    EmptyVulnerableUniverse,
    FacilityProfile,
    partition_by_cost,
    vulnerable_set,
)
from .normalform import (
    BoundaryParameters,
    NeRegime,
    NormalFormEquilibrium,
    RegimeKind,
    ne_utilities,
    solve_ne,
)
from .sequential import (
    SpeOutcome,
    SpeRegime,
    SpeRegimeKind,
    solve_spe,
    spe_utilities,
)

# Not called here: perfbench/tracing.py rebinds these names in this module.
from .normalform import classify_regime_ne  # noqa: F401
from .sequential import cd_threshold_tilde, classify_regime_spe  # noqa: F401


class InternalInconsistency(RuntimeError):
    """The two solvers disagree in a way the comparison theory forbids."""


class CostRegion(Enum):
    """Defense-cost bands that decide whether moving first helps the defender."""

    LOW = "L"
    MEDIUM = "M"
    HIGH = "H"
    BOUNDARY = "boundary"
    NO_VULNERABLE = "none"


@dataclass(frozen=True)
class GameComparison:
    region: CostRegion
    ne: NormalFormEquilibrium
    spe: SpeOutcome
    first_mover_advantage: bool
    utility_gap: float  # sequential minus simultaneous defender utility


def classify_cost_region(profile: FacilityProfile, params: CostParams) -> CostRegion:
    """L below the full-protection threshold, M between it and the commitment
    curve, H above; boundary on either line (``FacilityPartition.locate``)."""
    try:
        partition = partition_by_cost(profile)
    except EmptyVulnerableUniverse:
        return CostRegion.NO_VULNERABLE
    return CostRegion(partition.locate(params.attack_cost, params.defense_cost).region)


def _check_relations(
    profile: FacilityProfile,
    params: CostParams,
    region: CostRegion,
    ne: NormalFormEquilibrium,
    spe: SpeOutcome,
) -> None:
    def fail(relation: str) -> None:
        raise InternalInconsistency(
            f"{relation} violated in region {region.value} at "
            f"(attack_cost={params.attack_cost!r}, defense_cost={params.defense_cost!r})"
        )

    ud, uds = ne.defender_utility, spe.defender_utility
    ua, uas = ne.attacker_utility, spe.attacker_utility
    if uds < ud - RELATION_TOL:
        fail("Uds >= Ud")
    if region in (CostRegion.LOW, CostRegion.HIGH, CostRegion.NO_VULNERABLE):
        if abs(ua - uas) > RELATION_TOL:
            fail("Ua == Uas")
        for fac in profile.facility_ids:
            if abs(ne.effort.get(fac) - spe.effort.get(fac)) > RELATION_TOL:
                fail(f"identical effort on {fac!r}")
    if region is CostRegion.MEDIUM:
        if ua < uas - RELATION_TOL:
            fail("Ua > Uas")
        for fac in vulnerable_set(profile, params.attack_cost):
            if spe.effort.get(fac) < ne.effort.get(fac) - RELATION_TOL:
                fail(f"commitment effort above simultaneous on {fac!r}")
    if region in (CostRegion.HIGH, CostRegion.NO_VULNERABLE) and abs(uds - ud) > RELATION_TOL:
        fail("Ud == Uds")


def compare_games(profile: FacilityProfile, params: CostParams) -> GameComparison:
    """Solve both games at the same parameters and report who gains from order.

    Cross-checks the solutions against the region's predicted relations and
    raises InternalInconsistency on disagreement; boundary parameters raise
    BoundaryParameters before any solving.
    """
    region = classify_cost_region(profile, params)
    if region is CostRegion.BOUNDARY:
        raise BoundaryParameters.at(params, "cost-region")
    ne = solve_ne(profile, params)
    spe = solve_spe(profile, params)
    _check_relations(profile, params, region, ne, spe)
    gap = spe.defender_utility - ne.defender_utility
    return GameComparison(region, ne, spe, gap > 0.0, gap)


@dataclass(frozen=True)
class SweepCell:
    ca: float
    cd: float
    ne_regime: str
    spe_regime: str
    region: str
    ud: Optional[float]
    uds: Optional[float]
    ua: Optional[float]
    uas: Optional[float]


def _interior_grid(lo: float, hi: float, n: int) -> list[float]:
    if not hi > lo:
        raise ValueError(f"empty range ({lo!r}, {hi!r})")
    if n < 1:
        raise ValueError("need at least 1 step per axis")
    h = (hi - lo) / n
    return [lo + (t + 0.5) * h for t in range(n)]


def regime_sweep(
    profile: FacilityProfile,
    ca_range: tuple[float, float],
    cd_range: tuple[float, float],
    steps: Union[int, tuple[int, int]],
) -> list[SweepCell]:
    """Classify both games and the cost region on a rectangular grid.

    Samples cell midpoints of the open ranges, so the range endpoints are
    never evaluated. Boundary cells keep their labels but leave the
    corresponding utility fields unset. Rows are ordered by grid index
    (attack cost outer, defense cost inner).
    """
    n_ca, n_cd = (steps, steps) if isinstance(steps, int) else steps
    partition = partition_by_cost(profile)
    cells: list[SweepCell] = []
    for ca in _interior_grid(ca_range[0], ca_range[1], n_ca):
        for cd in _interior_grid(cd_range[0], cd_range[1], n_cd):
            params = CostParams(attack_cost=ca, defense_cost=cd)
            loc = partition.locate(ca, cd)
            ne, spe = NeRegime.at(loc), SpeRegime.at(loc)
            ud = ua = uds = uas = None
            if ne.kind is not RegimeKind.BOUNDARY:
                ud, ua = ne_utilities(profile, params, ne)
            if spe.kind is not SpeRegimeKind.BOUNDARY:
                uds, uas = spe_utilities(profile, params, spe)
            cells.append(
                SweepCell(ca, cd, ne.label, spe.label, loc.region, ud, uds, ua, uas)
            )
    return cells


SWEEP_COLUMNS = ("ca", "cd", "ne_regime", "spe_regime", "region", "ud", "uds", "ua", "uas")


def _cell_row(cell: SweepCell) -> list[str]:
    def num(x: Optional[float]) -> str:
        return "" if x is None else format(x, ".9g")

    return [
        num(cell.ca),
        num(cell.cd),
        cell.ne_regime,
        cell.spe_regime,
        cell.region,
        num(cell.ud),
        num(cell.uds),
        num(cell.ua),
        num(cell.uas),
    ]


def write_sweep_csv(cells: Sequence[SweepCell], dest: TextIO) -> None:
    """Serialize sweep cells to the writable text file ``dest``."""
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows(_cell_row(cell) for cell in cells)

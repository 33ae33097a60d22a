"""Cross-game comparison and parameter-space sweeps.

Places each (attack cost, defense cost) pair in the low/medium/high
defense-cost taxonomy, pairs up the simultaneous and sequential solutions to
measure the value of commitment, and rasterizes regime diagrams to CSV.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Optional, TextIO, Union

import numpy as np

from .model import (
    CHECK_EPS,
    PROB_SLACK,
    CostParams,
    EmptyVulnerableUniverse,
    FacilityProfile,
    not_above,
    on_boundary,
    partition_by_cost,
    vulnerable_set,
)
from .normalform import (
    BoundaryParameters,
    NeRegime,
    NormalFormEquilibrium,
    RegimeKind,
    _concession_utilities,
    _label,
    _ne_utilities,
    solve_ne,
)
from .sequential import (
    SpeOutcome,
    SpeRegime,
    SpeRegimeKind,
    _spe_utilities,
    solve_spe,
)

# Not called here: perfbench/tracing.py rebinds these names in this module.
from .normalform import classify_regime_ne, ne_utilities  # noqa: F401
from .sequential import cd_threshold_tilde, classify_regime_spe, spe_utilities  # noqa: F401


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
    if not not_above(ud, uds, CHECK_EPS):
        fail("Uds >= Ud")
    if region in (CostRegion.LOW, CostRegion.HIGH, CostRegion.NO_VULNERABLE):
        if not on_boundary(ua, uas, CHECK_EPS):
            fail("Ua == Uas")
        for fac in profile.facility_ids:
            if not on_boundary(ne.effort.get(fac), spe.effort.get(fac), PROB_SLACK):
                fail(f"identical effort on {fac!r}")
    if region is CostRegion.MEDIUM:
        if not not_above(uas, ua, CHECK_EPS):
            fail("Ua > Uas")
        for fac in vulnerable_set(profile, params.attack_cost):
            if not not_above(ne.effort.get(fac), spe.effort.get(fac), PROB_SLACK):
                fail(f"commitment effort above simultaneous on {fac!r}")
    if region in (CostRegion.HIGH, CostRegion.NO_VULNERABLE) and not on_boundary(uds, ud, CHECK_EPS):
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


@dataclass(frozen=True, eq=False)
class SweepGrid(Sequence):
    """A regime sweep held as columns. It reads as the sequence of its
    ``SweepCell``s in grid order: attack cost outer, defense cost inner."""

    ca: np.ndarray  # the attack-cost axis: one grid row per value
    cd: np.ndarray  # the defense-cost axis: one grid column per value
    ne_regime: np.ndarray  # labels and utilities per cell, rows by columns
    spe_regime: np.ndarray
    region: np.ndarray
    ud: np.ndarray  # NaN where ne_regime is boundary
    uds: np.ndarray  # NaN where spe_regime is boundary
    ua: np.ndarray
    uas: np.ndarray

    def __len__(self) -> int:
        return self.region.size

    def __getitem__(self, t: int) -> SweepCell:
        r, c = divmod(range(len(self))[t], len(self.cd))
        ne, spe = self.ne_regime[r, c], self.spe_regime[r, c]

        def utility(values: np.ndarray, label: str) -> Optional[float]:
            return None if label == "boundary" else float(values[r, c])

        return SweepCell(
            float(self.ca[r]), float(self.cd[c]), ne, spe, self.region[r, c],
            utility(self.ud, ne), utility(self.uds, spe), utility(self.ua, ne), utility(self.uas, spe),
        )


def _interior_grid(lo: float, hi: float, n: int) -> np.ndarray:
    if not math.isfinite(hi - lo):
        raise ValueError(f"range ({lo!r}, {hi!r}) must be finite")
    if not hi > lo:
        raise ValueError(f"empty range ({lo!r}, {hi!r})")
    if n < 1:
        raise ValueError("need at least 1 step per axis")
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h


def _labels(kinds, K: int) -> np.ndarray:
    """Each regime's label at its code: i for Type I-i, K + j for Type II-j and
    2K + 1 for boundary."""
    one, two = kinds.TYPE_I.value, kinds.TYPE_II.value
    return np.array(
        [_label(one, i) for i in range(K + 1)]
        + [_label(two, j) for j in range(1, K + 1)]
        + [_label(kinds.BOUNDARY.value, None)],
        dtype=object,
    )


def _per_cell(type_one, deter, concede, boundary) -> list[np.ndarray]:
    """(defender, attacker) utilities per cell: ``deter``'s where ``type_one``,
    else ``concede``'s, and NaN on ``boundary``."""
    return [np.where(boundary, np.nan, np.where(type_one, d, c)) for d, c in zip(deter, concede)]


def regime_sweep(
    profile: FacilityProfile,
    ca_range: tuple[float, float],
    cd_range: tuple[float, float],
    steps: Union[int, tuple[int, int]],
) -> SweepGrid:
    """Classify both games and the cost region on a rectangular grid.

    Samples cell midpoints of the open ranges, so the range endpoints are
    never evaluated; the ranges must be finite and every midpoint positive.
    ``FacilityPartition.locate_grid`` places the whole grid at once. The
    utilities then take one pass over the cells, O(cells) with no loop over
    regimes: both kinds of regime are evaluated at every cell, with the
    bracket i read per row and the concession level j per column, by the
    same floating-point operations as at a single point, and each cell keeps
    its own regime's. Boundary cells keep their labels but leave the
    corresponding utility fields unset.
    """
    n_ca, n_cd = (steps, steps) if isinstance(steps, int) else steps
    partition = partition_by_cost(profile)
    ca = _interior_grid(ca_range[0], ca_range[1], n_ca)
    cd = _interior_grid(cd_range[0], cd_range[1], n_cd)
    CostParams(float(ca[0]), float(cd[0]))  # the smallest midpoints: rejects any nonpositive one
    loc = partition.locate_grid(ca, cd)
    K, x, i, j = partition.K, ca[:, None], loc.i[:, None], loc.j
    # NeRegime.at and SpeRegime.at, cell by cell: which cells are of Type I, and regime codes
    ne_one, spe_one = j > i, loc.below_curve
    ne = np.where(loc.on_ne_line, 2 * K + 1, np.where(ne_one, i, K + j))
    spe = np.where(loc.on_spe_line, 2 * K + 1, np.where(spe_one, i, K + j))
    # Type I reads N_i or the deterrence spend once per row; Type II, the same in both
    # games, reads C(j) and T_j once per column. No cell concedes where j > K, so level
    # K stands in there. A cell may overflow in a kind it is not in; a float just gives inf.
    with np.errstate(over="ignore"):
        concede = _concession_utilities(partition, x, cd, np.minimum(j, K))
        ne_deter = _ne_utilities(partition, x, cd, RegimeKind.TYPE_I, i)
        spe_deter = _spe_utilities(partition, x, cd, SpeRegimeKind.TYPE_I, i)
    ud, ua = _per_cell(ne_one, ne_deter, concede, loc.on_ne_line)
    uds, uas = _per_cell(spe_one, spe_deter, concede, loc.on_spe_line)
    ne_labels, spe_labels = _labels(RegimeKind, K)[ne], _labels(SpeRegimeKind, K)[spe]
    return SweepGrid(ca, cd, ne_labels, spe_labels, loc.region, ud, uds, ua, uas)


SWEEP_COLUMNS = ("ca", "cd", "ne_regime", "spe_regime", "region", "ud", "uds", "ua", "uas")


def _formatted(values: np.ndarray, unset: np.ndarray) -> list[str]:
    """``values`` as ``%.9g`` text, flattened, and "" where ``unset``. Each
    distinct value, told apart by its bits, is formatted once."""
    out = np.full(values.size, "", dtype=object)
    kept = ~unset.ravel()
    bits, inverse = np.unique(values.ravel()[kept].view(np.uint64), return_inverse=True)
    text = [format(x, ".9g") for x in bits.view(np.float64).tolist()]
    out[kept] = np.array(text, dtype=object)[inverse]
    return out.tolist()


# The CSV goes out in blocks of whole grid rows, one write each: at most BLOCK_CELLS
# cells, or one row where a row is longer. The text held at once is one block's.
BLOCK_CELLS = 2048


def write_sweep_csv(grid: SweepGrid, dest: TextIO) -> None:
    """Serialize a sweep to the writable text file ``dest``: one row per cell,
    numbers as ``%.9g``, and a utility left empty where its label is boundary.
    No field holds a comma, quote or line break, so none is quoted."""
    n_cd = len(grid.cd)
    ca = [format(x, ".9g") for x in grid.ca.tolist()]
    cd = [format(x, ".9g") for x in grid.cd.tolist()]
    rows = max(1, BLOCK_CELLS // n_cd)
    dest.write(",".join(SWEEP_COLUMNS) + "\n")
    for first in range(0, len(ca), rows):
        block = slice(first, first + rows)
        ne, spe = grid.ne_regime[block], grid.spe_regime[block]
        ne_unset, spe_unset = ne == "boundary", spe == "boundary"
        columns = (
            [x for x in ca[block] for _ in range(n_cd)],
            cd * len(ne),
            ne.ravel().tolist(),
            spe.ravel().tolist(),
            grid.region[block].ravel().tolist(),
            _formatted(grid.ud[block], ne_unset),
            _formatted(grid.uds[block], spe_unset),
            _formatted(grid.ua[block], ne_unset),
            _formatted(grid.uas[block], spe_unset),
        )
        dest.write("\n".join(map(",".join, zip(*columns))) + "\n")

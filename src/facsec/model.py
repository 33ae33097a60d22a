"""Core objects for the facility-security game.

A defender secures a subset of facilities at a per-facility cost; an attacker
compromises at most one facility at a fixed cost. If facility e is attacked
while unsecured, the usage cost borne by users rises from the baseline C0 to
the facility's post-attack cost Ce; otherwise it stays at C0.

Mixed defender strategies only matter through the per-facility security effort
(the total probability that a facility is covered), so the package works
with effort vectors throughout.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Optional

import numpy as np

FacilityId = str

# Tolerances: every float tolerance of the package, named once. "abs" bounds a
# plain difference; "rel" bounds it after scaling by max(1, |x|, |y|), through
# ``on_boundary`` or ``not_above``. Costs and latencies have no unit, so every
# cost test is "rel"; probabilities and load shares live in [0, 1], so their
# tolerance is PROB_SLACK. Besides it, only the three pivot thresholds are absolute.
#
# abs: float dust forgiven when an effort or probability leaves [0, 1] or a distribution
# misses a sum of 1; also verify_ne's support and effort 0/1 cuts, compare_games' efforts,
# and the share of the demand above which an edge's load is observed by the travelers.
PROB_SLACK = 1e-9
# rel: a cost this close to a regime line lies on it; the closed forms decline. Attacker
# payoffs this close to the best one tie with it, a compromised latency may fall this
# far below the nominal one, the belief update widens its noise band by it, and it is
# the floor of `facsec verify`'s tolerance, max(--eps, BOUNDARY_TOL).
BOUNDARY_TOL = 1e-12
# abs: simplex reduced costs and column entries at or below this are zero.
PIVOT_TOL = 1e-9
# abs: a phase-1 sum of artificials above this makes the LP infeasible.
PHASE1_TOL = 1e-7
# rel: default cost tolerance of verify_ne, verify_spe and `facsec verify --eps`;
# compare_games' utility cross-checks use it too.
CHECK_EPS = 1e-9
# abs: Lemke column entries at or below this do not bound a ratio test.
LEMKE_PIVOT_TOL = 1e-12
# End of tolerances.


def on_boundary(x, line, tol=BOUNDARY_TOL):
    """True when ``x`` is within ``tol``, relative, of ``line``: the package's one closeness
    rule, on numbers or arrays. Rounding is monotone, so testing the distance against each of
    tol*1, *|x| and *|line| decides as tol*max(1, |x|, |line|) does; an infinite distance,
    which that scale would match, and a NaN anywhere fail it."""
    d = abs(x - line)
    return (d < math.inf) & ((d <= tol) | (d <= tol * abs(x)) | (d <= tol * abs(line)))


def not_above(x, line, tol=BOUNDARY_TOL):
    """x below ``line`` or ``on_boundary`` with it, on numbers or arrays; it can only turn true
    as ``line`` rises. x - line < 0 exactly when x < line; x - line = inf and a NaN anywhere
    fail it."""
    d = x - line
    return (d < math.inf) & ((d <= tol) | (d <= tol * abs(x)) | (d <= tol * abs(line)))


def _count_above(negated: np.ndarray, x):
    """How many lines exceed ``x``, a number or an array, given the lines negated
    (so ascending, as ``FacilityPartition._negated`` holds them)."""
    return negated.searchsorted(-x)


def _near(negated: np.ndarray, x):
    """How many lines exceed ``x``, a number or an array, and the run [first, stop) of
    the lines, in decreasing order, that x is ``on_boundary`` with, empty if none;
    ``negated`` as in ``_count_above``. Only lines within 2*BOUNDARY_TOL*(1 + |x|) of x
    can be hit, so the test runs on that window alone, one offset into it at a time."""
    width = 2.0 * BOUNDARY_TOL * (1.0 + abs(x))
    counts = negated.searchsorted(np.array([-x - width, -x, width - x]))
    lo, count, hi = counts[0], counts[1], counts[2]
    first = stop = hi
    for t in range(_most(hi - lo)):
        k = lo + t
        hit = (k < hi) & on_boundary(x, -negated[np.minimum(k, len(negated) - 1)])
        first, stop = np.where(hit, np.minimum(first, k), first), np.where(hit, k + 1, stop)
    return count, first, stop


def _read(values: np.ndarray, k):
    """``values[k]``: a Python number at an int ``k``, an array at an index array ``k``."""
    return values.item(k) if isinstance(k, int) else values[k]


def _most(counts) -> int:
    """The largest of ``counts``, a number or an array, or 0."""
    return max(0, int(counts.max(initial=0) if isinstance(counts, np.ndarray) else counts))


# Region labels by 8*boundary + 4*(i > 0) + 2*(j > i) + below_curve, and the first three
# weights as numpy integers, since a numpy bool times a Python int takes a slow path.
_REGIONS = np.array(["none"] * 4 + ["H", "M", "L", "L"] + ["boundary"] * 8, dtype=object)
_REGION_WEIGHTS = tuple(np.array([8, 4, 2]))


class ModelError(ValueError):
    """Invalid game data."""


class EmptyVulnerableUniverse(ModelError):
    """No facility can profitably be targeted under the given costs."""


class NonpositiveDenominator(ValueError):
    """The requested threshold expression degenerates at these parameters."""


def _require_positive_finite(value: float, what: str, fac: Optional[FacilityId] = None) -> None:
    if not 0 < value < math.inf:  # NaN fails too
        subject = what if fac is None else f"{what} {fac!r}"
        raise ModelError(f"{subject} must be {'finite' if value == math.inf else 'positive'}")


def _lookup(table: Mapping[FacilityId, float], fac: FacilityId, missing: str) -> float:
    try:
        return table[fac]
    except KeyError:
        raise ModelError(f"{missing} {fac!r}") from None


@dataclass(frozen=True)
class FacilityProfile:
    """Facilities with a common baseline usage cost and per-facility post-attack costs.

    ``facilities`` is an ordered tuple of (id, post_attack_cost) pairs; the
    order fixes the canonical facility order used in reports and CSV columns.
    """

    baseline_cost: float
    facilities: tuple[tuple[FacilityId, float], ...]

    def __post_init__(self) -> None:
        _require_positive_finite(self.baseline_cost, "baseline cost")
        if not self.facilities:
            raise ModelError("at least one facility is required")
        _reject_repeated_ids(self.facilities)
        for fac, cost in self.facilities:
            _require_positive_finite(cost, "post-attack cost of", fac)

    @cached_property
    def _cost_map(self) -> dict[FacilityId, float]:
        return dict(self.facilities)

    @cached_property
    def facility_ids(self) -> tuple[FacilityId, ...]:
        return tuple(fac for fac, _ in self.facilities)

    def post_attack_cost(self, fac: FacilityId) -> float:
        return _lookup(self._cost_map, fac, "unknown facility")


@dataclass(frozen=True)
class CostParams:
    """Per-facility defense cost and attack cost, both positive and finite."""

    attack_cost: float
    defense_cost: float

    def __post_init__(self) -> None:
        _require_positive_finite(self.attack_cost, "attack cost")
        _require_positive_finite(self.defense_cost, "defense cost")


@dataclass(frozen=True)
class Location:
    """Where (ca, cd) lies in the regime diagram of a partition. From ``locate_grid``,
    the same for a whole grid, as arrays: ``i`` per row, ``j`` per column, the rest per cell."""

    i: int  # bracket: the levels whose edge C(k)-C0 exceeds ca
    j: int  # concession level: 1 + the band constants above cd (K + 1 below all)
    below_curve: bool  # cd below the threshold curve, infinite from C(1)-C0 on
    region: str  # the CostRegion value: "L", "M", "H", "boundary" or "none"
    on_ne_line: bool  # on a line between two regimes of the simultaneous game
    on_spe_line: bool  # on a line between two regimes of the sequential game


@dataclass(frozen=True, eq=False)
class FacilityPartition:
    """Facilities with increased post-attack cost, grouped by distinct cost level, and
    the per-level constants of the regime diagram, built once by ``partition_by_cost``.

    Levels are sorted by strictly decreasing cost; every level cost exceeds the
    baseline. Level k (1-based) in the comments elsewhere is ``members[k-1]``. Every
    constant is a read-only numpy array, per level k = 1..K or, for the prefix
    sums, per k = 0..K; scalar code reads it as Python numbers (``.item()``, ``.tolist()``).
    """

    baseline_cost: float
    members: tuple[tuple[FacilityId, ...], ...]
    level_costs: np.ndarray  # C(k)
    level_sizes: np.ndarray  # E(k), the number of members, as integers
    edges: np.ndarray  # C(k)-C0: the attack costs where regimes switch
    bands: np.ndarray  # 1/S_k, decreasing in k: the defense costs where regimes switch
    prefix_ratios: np.ndarray  # S_k, the prefix sums of E(k)/(C(k)-C0), from S_0 = 0
    prefix_sizes: np.ndarray  # N_k, the members of levels 1..k, from N_0 = 0, as integers
    # T_j = N_{j-1} - (C(j)-C0)*S_{j-1} from T_0 = T_1 = 0, what conceding down to level j
    # spends per unit of defense cost: effort (C(k)-C(j))/(C(k)-C0) on each member of a
    # level k < j. Summed from the steps (C(j-1)-C(j))*S_{j-1} >= 0.
    concession_spends: np.ndarray
    # what rounding took off each edge, (C(k)-C0) - edges[k-1], exactly (Fast2Sum, as C(k) > C0)
    edge_errors: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def K(self) -> int:
        return len(self.members)

    @cached_property
    def _member_counts(self) -> np.ndarray:
        """N_1..N_K as floats, so that ``_curve`` searches them for a spend without
        casting them on every call; exact, as each count is below 2**53."""
        return self.prefix_sizes[1:].astype(float)

    @cached_property
    def _negated(self) -> tuple[np.ndarray, np.ndarray]:
        """-edges and -bands, ascending, for ``_count_above`` and ``_near``."""
        return -self.edges, -self.bands

    def bracket(self, attack_cost: float) -> int:
        """Number of levels whose cost increase beats the attack cost (the regime index i)."""
        return int(_count_above(self._negated[0], attack_cost))

    def deterrence_spend(self, ca, i):
        """N_i - ca*S_i, what deterring levels 1..i spends per unit of defense cost: effort
        1 - ca/(C(k)-C0) on each member of a level k <= i. On numbers, or on arrays
        elementwise. Taken as T_i + (C(i)-C0-ca)*S_i, with C(i)-C0 unrounded, it keeps its
        relative accuracy as ca nears C(i)-C0. At i = 0, S_0 = 0 voids the edge it reads."""
        edge, error = _read(self.edges, i - 1), _read(self.edge_errors, i - 1)
        return _read(self.concession_spends, i) + ((edge - ca) + error) * _read(self.prefix_ratios, i)

    def _curve(self, ca, i, j=None):
        """Piece (i, j) of the threshold curve at ``ca``, as C(j)-C0 and the deterrence
        spend minus the concession spend T_j, a_ij - ca*S_i with a_ij = (C(j)-C0)*S_{j-1}
        + N_i - N_{j-1}: the curve is the defense cost at which deterring levels 1..i and
        conceding down to level j tie. On numbers, or on arrays elementwise. By default
        j is the piece that holds ca: it ends where the deterrence spend falls to N_{j-1}."""
        deter = self.deterrence_spend(ca, i)
        if j is None:  # rounding may lift the spend above N_i at ca = 0
            j = np.minimum(1 + self._member_counts.searchsorted(deter), i)
        return self.edges[j - 1], deter - self.concession_spends[j]

    def _curve_value(self, ca, i):
        """The curve at ``ca`` on the piece of bracket i that holds it, on numbers or on
        arrays elementwise; +inf in bracket 0, where S_0 = 0 leaves both spends 0."""
        with np.errstate(divide="ignore"):
            return np.divide(*self._curve(ca, i))

    def cd_ij(self, ca: float, i: int, j: Optional[int] = None) -> float:
        """Piece (i, j) at ``ca``, by default the piece that holds ca; raises
        NonpositiveDenominator where it degenerates."""
        edge, den = self._curve(ca, i, j)
        if den <= 0.0:
            raise NonpositiveDenominator(
                f"cd_{i}{j or ''} denominator {float(den)!r} at attack cost {ca!r}"
            )
        return float(edge / den)

    def cd_tilde(self, ca: float) -> float:
        """The threshold curve at 0 <= ca < C(1)-C0."""
        return self.cd_ij(ca, self.bracket(ca))

    def cd_tilde_inverse(self, cd: float) -> float:
        """The attack cost where the threshold curve, rising with ca, reaches ``cd`` >
        cd_tilde(0): in the bracket i whose ends hold cd, on the piece 1 + #{bands above cd},
        where the deterrence spend exceeds the concession spend T_j by (C(j)-C0)/cd."""
        edges = self.edges
        i = 1 + bisect_left(range(1, self.K), -cd, key=lambda k: -self.cd_tilde(edges[k]))
        j = min(1 + int(_count_above(self._negated[1], cd)), i)
        edge, a = self._curve(0.0, i, j)  # the denominator at ca = 0 is a_ij
        ca = (a - edge / cd) / self.prefix_ratios[i]
        return float(min(max(ca, edges[i] if i < self.K else 0.0), edges[i - 1]))

    def _place(self, ca, cd):
        """The regime-diagram rules of ``locate`` and ``locate_grid``: (i, j, below_curve,
        region, on_ne_line, on_spe_line) at numbers ``ca`` and ``cd``, or at a column of
        attack costs against a row of defense costs. Every ``on_boundary`` test of the
        classifiers is made here, on the few lines near the point.

        Edge 1 separates everything. Across edge k >= 2 the bracket drops to k-1: the NE
        regime changes below band k-1, the SPE regime below the curve, and the region
        between bands k and k-1, where its L/M line jumps. Band k separates NE regimes for
        k <= i, SPE regimes above the curve, and the region for k = i. The crossed edges
        form one run, as do the band hits, and ``not_above`` can only turn true as its
        line rises, so each run is tested at its highest band or curve value."""
        edges, bands, (neg_edges, neg_bands) = self.edges, self.bands, self._negated
        i, first, stop = _near(neg_edges, ca)  # 0-based: edge k is edges[k-1]
        j, band_first, band_stop = _near(neg_bands, cd)  # and band k is bands[k-1]
        j = j + 1
        on_ne = on_spe = boundary = edge1 = (first == 0) & (stop > 0)  # then nothing else matters
        widest = _most(stop - first)
        if widest:  # some ca crosses level edges: those in its run beyond edge 1
            crossed = first < stop
            under_top = crossed & not_above(cd, bands[first - 1])  # the highest edge's band
            peak = -math.inf  # the highest curve value at a crossed edge
            for t in range(widest):
                x = edges[np.minimum(first + t, self.K - 1)]
                value = self._curve_value(x, _count_above(neg_edges, x))
                peak = np.where(first + t < stop, np.maximum(peak, value), peak)
            on_ne = on_ne | under_top
            on_spe = on_spe | (crossed & not_above(cd, peak))
            boundary = boundary | (under_top & not_above(bands[stop - 1], cd))
        curve = self._curve_value(ca, i)  # +inf at i = 0, on no boundary: the curve ends at C(1)-C0
        below, on_curve = (cd < curve) | edge1, ~edge1 & on_boundary(cd, curve)
        band_hit = band_first < band_stop
        on_ne = on_ne | (band_hit & (band_first < i))
        # above the curve yet below every band (j > K) happens only by rounding
        on_spe = on_spe | on_curve | (~below & (band_hit | (j > self.K)))
        boundary = boundary | on_curve | ((band_first < i) & (i <= band_stop))
        w8, w4, w2 = _REGION_WEIGHTS
        return i, j, below, _REGIONS[w8 * boundary + w4 * (i > 0) + w2 * (j > i) + below], on_ne, on_spe

    def locate(self, ca: float, cd: float) -> Location:
        """Place (ca, cd) among the edges C(k)-C0, bands 1/S_k and the curve (``_place``)."""
        i, j, below, region, on_ne, on_spe = self._place(ca, cd)
        return Location(int(i), int(j), bool(below), region, bool(on_ne), bool(on_spe))

    def locate_grid(self, ca: np.ndarray, cd: np.ndarray) -> Location:
        """``locate`` at every (ca, cd) of the axes ``ca`` and ``cd``, by the same
        rules: ca runs down the rows and cd along the columns."""
        i, j, below, region, on_ne, on_spe = self._place(ca[:, None], cd)
        return Location(i[:, 0], j, below, region, on_ne, on_spe)

    def members_up_to(self, k: int) -> tuple[FacilityId, ...]:
        """All facilities in levels 1..k."""
        return tuple(fac for level in self.members[:k] for fac in level)


@lru_cache(maxsize=512)
def partition_by_cost(profile: FacilityProfile) -> FacilityPartition:
    """Group the increased-cost facilities by distinct post-attack cost, highest first.

    Raises EmptyVulnerableUniverse when no facility has a post-attack cost above
    the baseline (the game is then trivial: never attack, never defend).
    """
    groups: dict[float, list[FacilityId]] = {}
    for fac, cost in profile.facilities:
        if cost > profile.baseline_cost:
            groups.setdefault(cost, []).append(fac)
    if not groups:
        raise EmptyVulnerableUniverse("no facility has post-attack cost above baseline")
    c0, ordered = profile.baseline_cost, sorted(groups, reverse=True)
    costs, sizes = np.array(ordered), np.array([len(groups[cost]) for cost in ordered])
    edges = costs - c0
    # accumulate adds left to right, so each prefix sum has the bits of a Python loop
    ratios = np.concatenate(([0.0], np.add.accumulate(sizes / edges)))
    spends = np.add.accumulate((costs[:-1] - costs[1:]) * ratios[1:-1])
    return FacilityPartition(
        baseline_cost=c0,
        members=tuple(tuple(groups[cost]) for cost in ordered),
        level_costs=costs,
        level_sizes=sizes,
        edges=edges,
        bands=1.0 / ratios[1:],
        prefix_ratios=ratios,
        prefix_sizes=np.concatenate(([0], np.add.accumulate(sizes))),
        concession_spends=np.concatenate(([0.0, 0.0], spends)),
        edge_errors=(costs - edges) - c0,
    )


def vulnerable_set(profile: FacilityProfile, attack_cost: float) -> tuple[FacilityId, ...]:
    """Facilities worth attacking even against a fully protected baseline:
    Ce - attack_cost > C0 (strict)."""
    return tuple(
        fac
        for fac, cost in profile.facilities
        if cost - attack_cost > profile.baseline_cost
    )


def _reject_repeated_ids(pairs: tuple[tuple[FacilityId, float], ...]) -> None:
    seen = set()
    for fac, _ in pairs:
        if fac in seen:
            raise ModelError(f"duplicate facility id {fac!r}")
        seen.add(fac)


def _validated_unit(value: float, what: str, fac: Optional[FacilityId] = None) -> float:
    """``value`` clipped to [0, 1]; more than PROB_SLACK outside raises ModelError,
    naming ``what`` and then ``fac`` if given."""
    if not -PROB_SLACK <= value <= 1.0 + PROB_SLACK:  # NaN fails too
        subject = what if fac is None else f"{what} {fac!r}"
        raise ModelError(f"{subject} {value!r} outside [0, 1]")
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class EffortVector:
    """Per-facility security effort in [0, 1], keyed exactly by the profile's facility ids."""

    efforts: tuple[tuple[FacilityId, float], ...]

    def __post_init__(self) -> None:
        cleaned = tuple(
            (fac, _validated_unit(v, "effort on", fac)) for fac, v in self.efforts
        )
        _reject_repeated_ids(cleaned)
        object.__setattr__(self, "efforts", cleaned)

    @classmethod
    def over(
        cls, profile: FacilityProfile, values: Mapping[FacilityId, float] = {}
    ) -> "EffortVector":
        """Build an effort vector over the profile, defaulting unlisted facilities to 0."""
        unknown = set(values) - set(profile.facility_ids)
        if unknown:
            raise ModelError(f"effort on unknown facilities: {sorted(unknown)}")
        return cls(tuple((fac, float(values.get(fac, 0.0))) for fac in profile.facility_ids))

    @cached_property
    def _effort_map(self) -> dict[FacilityId, float]:
        return dict(self.efforts)

    def get(self, fac: FacilityId) -> float:
        return _lookup(self._effort_map, fac, "no effort entry for facility")

    def as_dict(self) -> dict[FacilityId, float]:
        return dict(self.efforts)

    @property
    def total(self) -> float:
        return sum(v for _, v in self.efforts)


@dataclass(frozen=True)
class AttackDistribution:
    """Distribution over single-facility attacks plus the no-attack option."""

    facility_probs: tuple[tuple[FacilityId, float], ...]
    no_attack: float

    def __post_init__(self) -> None:
        cleaned = tuple(
            (fac, _validated_unit(p, "attack prob on", fac)) for fac, p in self.facility_probs
        )
        _reject_repeated_ids(cleaned)
        object.__setattr__(self, "facility_probs", cleaned)
        object.__setattr__(self, "no_attack", _validated_unit(self.no_attack, "no-attack prob"))
        total = sum(p for _, p in cleaned) + self.no_attack
        if abs(total - 1.0) > PROB_SLACK:
            raise ModelError(f"attack probabilities sum to {total!r}, expected 1")

    @classmethod
    def over(
        cls,
        profile: FacilityProfile,
        values: Mapping[FacilityId, float] = {},
        no_attack: Optional[float] = None,
    ) -> "AttackDistribution":
        """Build a distribution over the profile's facilities; no_attack defaults to the residual."""
        unknown = set(values) - set(profile.facility_ids)
        if unknown:
            raise ModelError(f"attack prob on unknown facilities: {sorted(unknown)}")
        probs = tuple((fac, float(values.get(fac, 0.0))) for fac in profile.facility_ids)
        if no_attack is None:
            no_attack = 1.0 - sum(p for _, p in probs)
        return cls(probs, float(no_attack))

    @cached_property
    def _prob_map(self) -> dict[FacilityId, float]:
        return dict(self.facility_probs)

    def prob(self, fac: FacilityId) -> float:
        return _lookup(self._prob_map, fac, "no attack entry for facility")

    def as_dict(self) -> dict[FacilityId, float]:
        return dict(self.facility_probs)


def _aligned(profile: FacilityProfile, effort: EffortVector, attack: AttackDistribution):
    ids = profile.facility_ids
    eff = effort.as_dict()
    atk = attack.as_dict()
    if set(eff) != set(ids):
        raise ModelError("effort vector keys do not match the profile")
    if set(atk) != set(ids):
        raise ModelError("attack distribution keys do not match the profile")
    return [(fac, profile.post_attack_cost(fac), eff[fac], atk[fac]) for fac in ids]


def expected_utilities(
    profile: FacilityProfile,
    params: CostParams,
    effort: EffortVector,
    attack: AttackDistribution,
) -> tuple[float, float]:
    """Expected (defender, attacker) utility of an effort vector vs an attack distribution.

    Defender pays the expected usage cost plus defense spending; the attacker
    collects the usage cost minus the attack cost whenever it attacks. Only the
    per-facility efforts matter, so any mixed defense inducing ``effort`` gives
    the same numbers.
    """
    c0 = profile.baseline_cost
    ca, cd = params.attack_cost, params.defense_cost
    defender = -c0 * attack.no_attack
    attacker = c0 * attack.no_attack
    for _, ce, rho, sig in _aligned(profile, effort, attack):
        defender -= rho * ((c0 - ce) * sig + cd) + ce * sig
        attacker += rho * (c0 - ce) * sig + ce * sig - ca * sig
    return defender, attacker

import dataclasses
import math
import tokenize
from pathlib import Path

import numpy as np
import pytest

from facsec.model import (
    PROB_SLACK,
    AttackDistribution,
    CostParams,
    EffortVector,
    EmptyVulnerableUniverse,
    FacilityProfile,
    ModelError,
    expected_utilities,
    not_above,
    on_boundary,
    partition_by_cost,
    vulnerable_set,
)
from facsec.scenario import parse_scenario


def test_profile_validation():
    with pytest.raises(ModelError):
        FacilityProfile(0.0, (("a", 1.0),))
    with pytest.raises(ModelError):
        FacilityProfile(10.0, ())
    with pytest.raises(ModelError):
        FacilityProfile(10.0, (("a", 12.0), ("a", 13.0)))
    with pytest.raises(ModelError):
        CostParams(0.0, 1.0)
    with pytest.raises(ModelError):
        CostParams(1.0, -2.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: FacilityProfile(17.0, (("e1", v), ("e2", 19.0))), "post-attack cost of 'e1' must be"),
        (lambda v: FacilityProfile(v, (("e1", 20.0),)), "baseline cost must be"),
        (lambda v: CostParams(v, 1.0), "attack cost must be"),
        (lambda v: CostParams(1.0, v), "defense cost must be"),
    ],
)
def test_costs_must_be_positive_and_finite(build, message):
    # An infinite post-attack cost made every solver divide by zero in the band
    # constants, and an infinite attack cost read as "on the boundary" of every
    # level edge (inf - edge <= tolerance * inf).
    for value, why in ((math.inf, "finite"), (0.0, "positive"), (-1.0, "positive"), (math.nan, "positive")):
        with pytest.raises(ModelError, match=f"^{message} {why}$"):
            build(value)
    build(1e308)


def test_classification_and_partition(profile3):
    profile = FacilityProfile(10.0, (("up", 12.0), ("flat", 10.0), ("down", 8.0), ("up2", 12.0)))
    part = partition_by_cost(profile)
    assert part.K == 1
    assert part.level_costs.tolist() == [12.0]
    assert part.level_sizes.tolist() == [2]
    assert part.prefix_sizes.tolist() == [0, 2]
    assert part.members_up_to(1) == ("up", "up2")

    part3 = partition_by_cost(profile3)
    assert part3.level_costs.tolist() == [20.0, 19.0, 18.0]
    assert part3.level_sizes.tolist() == [1, 1, 1]
    assert part3.prefix_sizes.tolist() == [0, 1, 2, 3]
    assert part3.members_up_to(2) == ("e1", "e2")
    assert part3.edges.tolist() == [3.0, 2.0, 1.0]
    assert part3.prefix_ratios.tolist() == pytest.approx([0.0, 1 / 3, 5 / 6, 11 / 6], rel=1e-15)
    assert part3.bands.tolist() == pytest.approx([3.0, 6 / 5, 6 / 11], rel=1e-15)
    assert [part3.bracket(ca) for ca in (0.5, 1.0, 2.5, 3.0)] == [3, 2, 1, 0]


def levelled_profile(seed: int, K: int) -> FacilityProfile:
    """K distinct costs above a baseline, each held by 1-3 facilities, and a few at or
    below the baseline, in shuffled order."""
    rng = np.random.default_rng(seed)
    c0 = float(rng.uniform(1.0, 50.0))
    levels = (c0 + rng.uniform(0.01, 20.0, size=K)).tolist()
    costs = [c for c in levels for _ in range(int(rng.integers(1, 4)))] + [c0, c0 / 2]
    return FacilityProfile(c0, tuple((f"f{t}", costs[t]) for t in rng.permutation(len(costs)).tolist()))


def reference_constants(profile: FacilityProfile) -> dict[str, list]:
    """The partition's constants from their definitions, as Python numbers summed
    left to right in plain loops."""
    c0 = profile.baseline_cost
    costs = sorted({c for _, c in profile.facilities if c > c0}, reverse=True)
    sizes = [[c for _, c in profile.facilities].count(cost) for cost in costs]
    edges = [c - c0 for c in costs]
    ratios, prefix, spends = [0.0], [0], [0.0, 0.0]
    for n, edge in zip(sizes, edges):
        ratios.append(ratios[-1] + n / edge)
        prefix.append(prefix[-1] + n)
    for a, b, s in zip(costs, costs[1:], ratios[1:]):
        spends.append(spends[-1] + (a - b) * s)
    return {
        "level_costs": costs, "level_sizes": sizes, "edges": edges, "bands": [1.0 / s for s in ratios[1:]],
        "prefix_ratios": ratios, "prefix_sizes": prefix, "concession_spends": spends,
        "edge_errors": [(c - e) - c0 for c, e in zip(costs, edges)],
    }


@pytest.mark.parametrize("K", [1, 2, 50, 2000])
def test_partition_constants_match_their_definitions_exactly(K):
    profile = levelled_profile(K, K)
    partition = partition_by_cost(profile)
    want = reference_constants(profile)
    assert partition.K == K
    assert partition.members == tuple(
        tuple(fac for fac, c in profile.facilities if c == cost) for cost in want["level_costs"]
    )
    arrays = {f.name: getattr(partition, f.name) for f in dataclasses.fields(partition)
              if isinstance(getattr(partition, f.name), np.ndarray)}
    assert arrays.keys() == want.keys()
    for name, values in arrays.items():
        assert values.tolist() == want[name], name  # equal floats: the same bits
        assert values.dtype.kind == ("i" if name in ("level_sizes", "prefix_sizes") else "f"), name
        assert not values.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            values[0] = values[0]


def test_partition_requires_an_increased_facility():
    flat = FacilityProfile(10.0, (("a", 10.0), ("b", 9.0)))
    with pytest.raises(EmptyVulnerableUniverse):
        partition_by_cost(flat)


def test_equal_profiles_share_one_partition_and_cache_their_ids():
    text = "[facilities]\nbaseline_cost 10\na 12\nb 11\nc 12\n[costs]\nattack_cost 1\ndefense_cost 0.1\n"
    first, second = parse_scenario(text).profile, parse_scenario(text).profile
    assert first is not second and first == second and hash(first) == hash(second)
    assert partition_by_cost(first) is partition_by_cost(second)
    assert first.facility_ids == ("a", "b", "c")
    assert first.facility_ids is first.facility_ids


def test_vulnerable_set_is_strict(profile3):
    # e3 sits exactly at the threshold for ca = 1: 18 - 1 = 17 is not > 17
    assert vulnerable_set(profile3, 1.0) == ("e1", "e2")
    assert vulnerable_set(profile3, 0.5) == ("e1", "e2", "e3")
    assert vulnerable_set(profile3, 3.5) == ()


def test_effort_vector_basics(profile3):
    eff = EffortVector.over(profile3, {"e1": 0.25})
    assert eff.get("e1") == 0.25
    assert eff.get("e2") == 0.0
    assert eff.total == pytest.approx(0.25)
    with pytest.raises(ModelError):
        EffortVector.over(profile3, {"bogus": 0.5})
    with pytest.raises(ModelError, match=r"^no effort entry for facility 'ghost'$"):
        eff.get("ghost")
    with pytest.raises(ModelError):
        EffortVector.over(profile3, {"e1": 1.5})


def test_effort_and_attack_reject_a_repeated_id():
    """One entry per facility, as in a profile: otherwise ``get`` and ``prob``
    would read one entry while ``total`` and the attack mass count both."""
    with pytest.raises(ModelError, match="duplicate facility id 'e1'"):
        EffortVector((("e1", 0.1), ("e1", 0.9)))
    with pytest.raises(ModelError, match="duplicate facility id 'e1'"):
        AttackDistribution((("e1", 0.1), ("e2", 0.2), ("e1", 0.3)), 0.4)


def test_effort_and_attack_reject_nan(profile3):
    """NaN compares false both ways, so a range test written as two "outside"
    tests let it through, and clamping then turned it into 0."""
    nan = float("nan")
    with pytest.raises(ModelError, match="effort on 'e1' nan outside"):
        EffortVector.over(profile3, {"e1": nan})
    with pytest.raises(ModelError, match="attack prob on 'e1' nan outside"):
        AttackDistribution.over(profile3, {"e1": nan, "e2": 1.0}, no_attack=0.0)
    with pytest.raises(ModelError, match="no-attack prob nan outside"):
        AttackDistribution.over(profile3, {"e1": 1.0}, no_attack=nan)


def test_attack_distribution_residual_and_support(profile3):
    atk = AttackDistribution.over(profile3, {"e1": 0.2, "e3": 0.3})
    assert atk.no_attack == pytest.approx(0.5)
    assert tuple(fac for fac, p in atk.facility_probs if p > 0.0) == ("e1", "e3")
    assert sum(atk.as_dict().values()) == pytest.approx(0.5)
    pinned = AttackDistribution.over(profile3, {"e1": 1.0}, no_attack=0.0)
    assert pinned.no_attack == 0.0
    with pytest.raises(ModelError):
        AttackDistribution.over(profile3, {"e1": 0.8, "e2": 0.8})


def test_attack_distribution_rejects_a_bad_sum_or_an_unknown_facility(profile3):
    AttackDistribution((("e1", 0.5), ("e2", 0.5)), PROB_SLACK / 2)  # float dust
    with pytest.raises(ModelError, match=r"^attack probabilities sum to 1\.000000002, expected 1$"):
        AttackDistribution((("e1", 0.5), ("e2", 0.5)), 2 * PROB_SLACK)
    with pytest.raises(ModelError, match=r"^attack prob on unknown facilities: \['ghost'\]$"):
        AttackDistribution.over(profile3, {"e1": 0.5, "ghost": 0.5})
    with pytest.raises(ModelError, match=r"^no attack entry for facility 'ghost'$"):
        AttackDistribution.over(profile3).prob("ghost")


def test_expected_utilities_pure_cases(profile3):
    params = CostParams(0.5, 0.3)
    none = EffortVector.over(profile3)
    hit = AttackDistribution.over(profile3, {"e1": 1.0})
    ud, ua = expected_utilities(profile3, params, none, hit)
    assert ud == pytest.approx(-20.0)
    assert ua == pytest.approx(19.5)

    guard = EffortVector.over(profile3, {"e1": 1.0})
    ud, ua = expected_utilities(profile3, params, guard, hit)
    assert ud == pytest.approx(-17.0 - 0.3)
    assert ua == pytest.approx(16.5)

    idle = AttackDistribution.over(profile3, {})
    ud, ua = expected_utilities(profile3, params, guard, idle)
    assert ud == pytest.approx(-17.3)
    assert ua == pytest.approx(17.0)


def test_utilities_are_bilinear_in_the_attack(profile3):
    params = CostParams(0.7, 0.4)
    eff = EffortVector.over(profile3, {"e1": 0.6, "e2": 0.1, "e3": 0.9})
    a = AttackDistribution.over(profile3, {"e1": 1.0})
    b = AttackDistribution.over(profile3, {"e3": 0.5})
    mix = AttackDistribution.over(
        profile3,
        {f: 0.25 * a.prob(f) + 0.75 * b.prob(f) for f in profile3.facility_ids},
    )
    ud_a, ua_a = expected_utilities(profile3, params, eff, a)
    ud_b, ua_b = expected_utilities(profile3, params, eff, b)
    ud_m, ua_m = expected_utilities(profile3, params, eff, mix)
    assert ud_m == pytest.approx(0.25 * ud_a + 0.75 * ud_b)
    assert ua_m == pytest.approx(0.25 * ua_a + 0.75 * ua_b)


def test_the_closeness_rule_is_relative_and_fails_on_nan():
    """``on_boundary`` scales tol by max(1, |x|, |line|), which for values of at most 1 is
    the absolute test. ``not_above`` is "below, or on_boundary" wherever tol >= 0, and a
    NaN, in either value or in tol, fails both, even where x < line."""
    nan, inf = math.nan, math.inf
    values = (-inf, -1e10, -1.0, -5e-324, 0.0, 5e-324, 1e-12, 0.5, 1.0, 1.0 + 1e-12, 1e10, 1e10 + 5.0)
    values += (inf, nan)
    for tol in (0.0, 1e-12, 1e-9, 1.0):
        for x in values:
            for y in values:
                assert not_above(x, y, tol) == ((x < y) or on_boundary(x, y, tol)), (x, y, tol)
                if abs(x) <= 1.0 and abs(y) <= 1.0:
                    assert on_boundary(x, y, tol) == (abs(x - y) <= tol), (x, y, tol)
    assert on_boundary(1e10, 1e10 + 5.0, 1e-9) and not on_boundary(1.0, 1.0 + 5e-9, 1e-9)
    assert not_above(1e10 + 5.0, 1e10, 1e-9) and not not_above(1e10 + 50.0, 1e10, 1e-9)
    assert not on_boundary(1.0, 1.0, nan) and not not_above(0.0, 1.0, nan)
    # An infinite difference is never close, though tol*|inf| would match it.
    for tol in (1e-12, 1.0):
        for x, y in ((inf, 3.0), (3.0, inf), (-inf, 3.0), (3.0, -inf), (inf, -inf)):
            assert not on_boundary(x, y, tol), (x, y, tol)
            assert not_above(x, y, tol) == (x < y), (x, y, tol)
    grid = np.array([-inf, 3.0, inf])
    assert on_boundary(grid, 3.0).tolist() == [False, True, False]
    assert not_above(grid, 3.0).tolist() == [True, True, False]


SRC = Path(__file__).resolve().parents[1] / "src" / "facsec"


def tolerance_table():
    """The 1-based line numbers of the first and last lines of model.py's tolerance
    table, and its lines."""
    lines = (SRC / "model.py").read_text().splitlines()
    first = next(k for k, line in enumerate(lines) if line.startswith("# Tolerances:"))
    last = lines.index("# End of tolerances.")
    return first + 1, last + 1, lines[first : last + 1]


def test_small_float_literals_live_in_the_tolerance_table():
    """Every float literal in (0, 1e-6] of the package sits in model.py's tolerance table."""
    first, last, _ = tolerance_table()
    stray = []
    for path in sorted(SRC.glob("*.py")):
        with open(path, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type != tokenize.NUMBER or tok.string[-1] in "jJ":
                    continue
                in_table = path.name == "model.py" and first <= tok.start[0] <= last
                if 0.0 < float(tok.string) <= 1e-6 and not in_table:
                    stray.append(f"{path.name}:{tok.start[0]} {tok.string}")
    assert not stray, stray


def test_the_tolerance_table_keeps_its_policy():
    """Each constant's comment opens with "rel:" or "abs:". Costs have no unit, so only
    the probability slack and the three pivot thresholds may be absolute."""
    kinds, comment = {}, []
    for line in tolerance_table()[2]:
        if line == "#":  # the end of the table's heading
            comment = []
        elif line.startswith("#"):
            comment.append(line)
        elif " = " in line:
            kinds[line.split(" = ")[0]] = comment[0][2:6] if comment else None
            comment = []
    assert kinds and all(kind in ("rel:", "abs:") for kind in kinds.values()), kinds
    absolute = {name for name, kind in kinds.items() if kind == "abs:"}
    assert absolute == {"PROB_SLACK", "PIVOT_TOL", "PHASE1_TOL", "LEMKE_PIVOT_TOL"}

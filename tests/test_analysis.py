import csv
import hashlib
import io
import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from facsec.analysis import (
    SWEEP_COLUMNS,
    CostRegion,
    InternalInconsistency,
    _check_relations,
    classify_cost_region,
    compare_games,
    regime_sweep,
    write_sweep_csv,
)
from facsec.cli import main
from facsec.model import CostParams, EffortVector, FacilityProfile, partition_by_cost
from facsec.normalform import (
    BoundaryParameters,
    NeRegime,
    _ne_utilities,
    cd_threshold_bar,
    classify_regime_ne,
    ne_utilities,
    solve_ne,
)
from facsec.sequential import (
    SpeRegime,
    _spe_utilities,
    cd_threshold_tilde,
    cd_tilde_inverse,
    classify_regime_spe,
    solve_spe,
    spe_utilities,
)

from conftest import random_game
from locate_reference import reference_locate


def region(profile, ca, cd):
    return classify_cost_region(profile, CostParams(ca, cd))


def test_cost_region_golden(profile3):
    assert region(profile3, 0.5, 0.3) is CostRegion.LOW
    assert region(profile3, 0.5, 0.8) is CostRegion.MEDIUM
    assert region(profile3, 0.5, 1.5) is CostRegion.HIGH
    assert region(profile3, 3.5, 1.0) is CostRegion.NO_VULNERABLE
    assert region(profile3, 0.5, 6 / 11) is CostRegion.BOUNDARY
    assert region(profile3, 0.5, 12 / 11) is CostRegion.BOUNDARY
    assert region(profile3, 3.0, 1.0) is CostRegion.BOUNDARY


def test_region_ordering_along_cd(profile3):
    bar, tilde = 6 / 11, 12 / 11
    assert region(profile3, 0.5, bar * 0.9) is CostRegion.LOW
    assert region(profile3, 0.5, bar * 1.1) is CostRegion.MEDIUM
    assert region(profile3, 0.5, tilde * 0.99) is CostRegion.MEDIUM
    assert region(profile3, 0.5, tilde * 1.01) is CostRegion.HIGH


def test_region_is_boundary_where_a_level_edge_moves_the_band(profile3):
    # across ca = C(2)-C0 = 2 the full-protection band jumps from 1/S_2 = 6/5
    # to 1/S_1 = 3: cd = 2 is M just left of the edge and L just right of it
    assert region(profile3, 2.0 - 1e-9, 2.0) is CostRegion.MEDIUM
    assert region(profile3, 2.0 + 1e-9, 2.0) is CostRegion.LOW
    assert region(profile3, 2.0, 2.0) is CostRegion.BOUNDARY
    assert region(profile3, 1.0, 1.0) is CostRegion.BOUNDARY  # edge 3, between 6/11 and 6/5
    # below both bands, or above both, the edge separates nothing
    assert region(profile3, 2.0, 1.0) is CostRegion.LOW
    assert region(profile3, 2.0, 3.5) is CostRegion.MEDIUM
    with pytest.raises(BoundaryParameters, match="cost-region boundary"):
        compare_games(profile3, CostParams(2.0, 2.0))


def test_region_implies_both_regimes_next_to_every_line():
    # L: I-i and I~-i; M: II-j and I~-i; H: II-j and II~-j; none: I-0 and I~-0,
    # with i the bracket of ca and j the concession level of cd
    def near(x):
        return {x * (1.0 + sign * rel) for rel in (0.0, 1e-12, 1e-9) for sign in (1.0, -1.0)}

    rng = np.random.default_rng(606)
    checked = 0
    for _ in range(25):
        profile, params = random_game(rng)
        partition = partition_by_cost(profile)
        cas = {params.attack_cost}.union(*(near(edge) for edge in partition.edges))
        for ca in cas:
            cds = {params.defense_cost}.union(*(near(band) for band in partition.bands))
            if ca < partition.edges[0]:
                cds |= near(cd_threshold_tilde(profile, ca))
            i = partition.bracket(ca)
            for cd in cds:
                p = CostParams(ca, cd)
                reg = classify_cost_region(profile, p)
                if reg is CostRegion.BOUNDARY:
                    continue
                j = 1 + sum(band > cd for band in partition.bands)
                expected = {
                    CostRegion.LOW: (f"I-{i}", f"I~-{i}"),
                    CostRegion.MEDIUM: (f"II-{j}", f"I~-{i}"),
                    CostRegion.HIGH: (f"II-{j}", f"II~-{j}"),
                    CostRegion.NO_VULNERABLE: ("I-0", "I~-0"),
                }[reg]
                labels = classify_regime_ne(profile, p).label, classify_regime_spe(profile, p).label
                for label, want in zip(labels, expected):
                    if label != "boundary":
                        assert label == want, (ca, cd, reg, labels)
                        checked += 1
    assert checked > 10000


def test_compare_games_low(profile3):
    cmp = compare_games(profile3, CostParams(0.5, 0.3))
    assert cmp.region is CostRegion.LOW
    assert cmp.first_mover_advantage
    assert cmp.utility_gap == pytest.approx(0.275, abs=1e-12)
    assert cmp.ne.defender_utility == pytest.approx(-17.9)
    assert cmp.spe.defender_utility == pytest.approx(-17.625)
    assert cmp.ne.attacker_utility == pytest.approx(17.0)
    assert cmp.spe.attacker_utility == pytest.approx(17.0)


def test_compare_games_medium(profile3):
    cmp = compare_games(profile3, CostParams(0.5, 0.8))
    assert cmp.region is CostRegion.MEDIUM
    assert cmp.first_mover_advantage
    assert cmp.ne.defender_utility == pytest.approx(-18 - 0.8 * (2 / 3 + 1 / 2))
    assert cmp.spe.defender_utility == pytest.approx(-17 - 0.8 * 25 / 12)
    # commitment deters: the attacker loses its equilibrium rent
    assert cmp.ne.attacker_utility == pytest.approx(17.5)
    assert cmp.spe.attacker_utility == pytest.approx(17.0)
    assert cmp.utility_gap == pytest.approx(-18.66666666666667 + 18.93333333333333, abs=1e-9)


def test_compare_games_high_is_exactly_neutral(profile3):
    cmp = compare_games(profile3, CostParams(0.5, 1.5))
    assert cmp.region is CostRegion.HIGH
    assert not cmp.first_mover_advantage
    assert cmp.utility_gap == 0.0
    assert cmp.ne.effort.as_dict() == cmp.spe.effort.as_dict()


def test_compare_games_without_vulnerable_facilities(profile3):
    cmp = compare_games(profile3, CostParams(3.5, 2.0))
    assert cmp.region is CostRegion.NO_VULNERABLE
    assert cmp.utility_gap == 0.0
    assert cmp.ne.defender_utility == pytest.approx(-17.0)
    flat = FacilityProfile(10.0, (("a", 10.0), ("b", 9.0)))  # no cost above the baseline at all
    assert classify_cost_region(flat, CostParams(1.0, 1.0)) is CostRegion.NO_VULNERABLE


def test_public_results_are_python_floats(profile3):
    # a numpy scalar would change the repr of a number in `facsec verify`'s failure lines
    kinds = set()
    for ca, cd in ((0.5, 0.3), (0.5, 1.0), (0.5, 1.5), (1.5, 0.6), (2.5, 5.0)):
        params = CostParams(ca, cd)
        ne, spe = solve_ne(profile3, params), solve_spe(profile3, params)
        kinds |= {ne.regime.kind.value, spe.regime.kind.value}
        values = [
            ne.defender_utility, ne.attacker_utility, spe.defender_utility, spe.attacker_utility,
            *ne_utilities(profile3, params, ne.regime), *spe_utilities(profile3, params, spe.regime),
            compare_games(profile3, params).utility_gap,
            cd_threshold_bar(profile3, ca), cd_threshold_tilde(profile3, ca),
        ]
        assert [type(v) for v in values] == [float] * len(values), (ca, cd)
    assert kinds == {"I", "II", "I~", "II~"}
    assert [type(cd_tilde_inverse(profile3, cd)) for cd in (6 / 11, 1.5, 9.0)] == [float] * 3


def test_compare_games_rejects_boundaries(profile3):
    with pytest.raises(BoundaryParameters):
        compare_games(profile3, CostParams(0.5, 12 / 11))
    with pytest.raises(BoundaryParameters):
        compare_games(profile3, CostParams(3.0, 1.0))


def test_regime_sweep_covers_the_plane(profile3):
    cells = regime_sweep(profile3, (0.0, 4.0), (0.0, 4.0), 20)
    assert len(cells) == 400
    assert cells[0].ca == pytest.approx(0.1)
    assert cells[0].cd == pytest.approx(0.1)
    assert cells[-1].ca == pytest.approx(3.9)

    assert all(cell.ne_regime != "boundary" for cell in cells)
    assert all(cell.spe_regime != "boundary" for cell in cells)
    assert {cell.region for cell in cells} == {"L", "M", "H", "none"}
    for cell in cells:
        assert cell.ud is not None and cell.uds is not None
        assert cell.uds >= cell.ud - 1e-9
        assert (cell.region == "none") == (cell.ca > 3.0)


def test_regime_sweep_leaves_boundary_sides_empty(profile3):
    # midpoint lattice engineered to hit ca = 3.0 exactly: both games boundary
    cells = regime_sweep(profile3, (2.5, 3.5), (0.5, 1.5), 5)
    hit = [c for c in cells if c.ca == 3.0]
    assert len(hit) == 5
    for cell in hit:
        assert cell.ne_regime == "boundary" and cell.spe_regime == "boundary"
        assert cell.region == "boundary"
        assert cell.ud is None and cell.ua is None and cell.uds is None and cell.uas is None

    # (1.0, 2.0) splits only the sequential diagram: one side stays populated
    cells = regime_sweep(profile3, (0.5, 1.5), (1.5, 2.5), 5)
    cell = next(c for c in cells if c.ca == 1.0 and c.cd == 2.0)
    assert cell.ne_regime == "II-2"
    assert cell.spe_regime == "boundary"
    assert cell.ud is not None and cell.ua is not None
    assert cell.uds is None and cell.uas is None


def test_regime_sweep_ignores_overflow_in_a_regime_a_cell_is_not_in(profile3):
    # At cd = 7.5e307 every cell concedes to level 1, where T_1 = 0. Deterring there
    # would cost cd*N_3 = 2.25e308, past the largest float; the sweep warns of nothing.
    cells = regime_sweep(profile3, (0.0, 1.0), (0.0, 1e308), (1, 2))
    assert [(c.ne_regime, c.spe_regime, c.ud, c.ua) for c in cells] == [("II-1", "II~-1", -20.0, 19.5)] * 2


def test_write_sweep_csv_format(profile3):
    cells = regime_sweep(profile3, (2.5, 3.5), (0.5, 1.5), (5, 2))
    buf = io.StringIO()
    write_sweep_csv(cells, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == list(SWEEP_COLUMNS)
    assert len(rows) == 1 + 10
    by_key = {(r[0], r[1]): r for r in rows[1:]}
    boundary = by_key[("3", "0.75")]
    assert boundary[2] == boundary[3] == boundary[4] == "boundary"
    assert boundary[5:] == ["", "", "", ""]
    interior = by_key[("2.6", "0.75")]
    assert interior[2] == "I-1"
    assert float(interior[5]) == pytest.approx(-17.75)


def test_relations_hold_on_random_instances():
    rng = np.random.default_rng(505)
    seen = set()
    for _ in range(30):
        profile, params = random_game(rng)
        cmp = compare_games(profile, params)
        seen.add(cmp.region)
        assert cmp.spe.defender_utility >= cmp.ne.defender_utility - 1e-9
        assert cmp.spe.attacker_utility <= cmp.ne.attacker_utility + 1e-9
        if cmp.region in (CostRegion.LOW, CostRegion.MEDIUM):
            assert cmp.first_mover_advantage
        if cmp.region in (CostRegion.HIGH, CostRegion.NO_VULNERABLE):
            assert abs(cmp.utility_gap) <= 1e-9
    assert len(seen) >= 2  # the generator reaches several regions


def _with_effort(profile, result, fac, value):
    return replace(result, effort=EffortVector.over(profile, {**result.effort.as_dict(), fac: value}))


# (attack cost, defense cost, region, the relation broken, how to break it in (ne, spe))
BROKEN_RELATIONS = [
    (0.5, 0.3, "L", "Uds >= Ud", lambda p, ne, spe: (ne, replace(spe, defender_utility=ne.defender_utility - 1.0))),
    (0.5, 0.3, "L", "Ua == Uas", lambda p, ne, spe: (ne, replace(spe, attacker_utility=ne.attacker_utility - 1.0))),
    (0.5, 2.0, "H", "identical effort on 'e1'", lambda p, ne, spe: (ne, _with_effort(p, spe, "e1", 1.0))),
    (0.5, 0.8, "M", "Ua > Uas", lambda p, ne, spe: (ne, replace(spe, attacker_utility=ne.attacker_utility + 1.0))),
    (0.5, 0.8, "M", "commitment effort above simultaneous on 'e2'",
     lambda p, ne, spe: (_with_effort(p, ne, "e2", 1.0), spe)),
    (5.0, 0.3, "none", "Ud == Uds", lambda p, ne, spe: (ne, replace(spe, defender_utility=ne.defender_utility + 1.0))),
]


@pytest.mark.parametrize("ca, cd, region, relation, broken", BROKEN_RELATIONS, ids=[row[3] for row in BROKEN_RELATIONS])
def test_check_relations_names_the_broken_relation_and_its_region(profile3, ca, cd, region, relation, broken):
    params = CostParams(ca, cd)
    region = CostRegion(region)
    ne, spe = solve_ne(profile3, params), solve_spe(profile3, params)
    assert classify_cost_region(profile3, params) is region
    _check_relations(profile3, params, region, ne, spe)  # the correct pair passes
    with pytest.raises(InternalInconsistency) as info:
        _check_relations(profile3, params, region, *broken(profile3, ne, spe))
    assert str(info.value) == (
        f"{relation} violated in region {region.value} at (attack_cost={ca!r}, defense_cost={cd!r})"
    )


def test_sweep_grid_reads_as_a_sequence_of_cells(profile3):
    cells = regime_sweep(profile3, (0.0, 4.0), (0.0, 4.0), (3, 4))
    listed = list(cells)
    assert len(cells) == len(listed) == 12
    assert [cells[t] for t in range(12)] == listed
    assert cells[-1] == listed[11] and cells[-12] == listed[0]
    assert (listed[5].ca, listed[5].cd) == (2.0, 1.5)  # row 1, column 1
    with pytest.raises(IndexError):
        cells[12]


THREE = Path(__file__).resolve().parent.parent / "scenarios" / "three_facility.scn"

# sha256 of `facsec regimes` output, taken from the per-cell loop that placed
# one cell at a time. ca = 1 and 3 of 0:6:3 lie exactly on level edges.
REGIMES_GOLDEN = {
    "0:4:400,0:4:400": "44a0e20fdfa92d788f3b30be12b4f2085e064596fa50ac73b2ad0bad08f89d83",
    "0:1:1,0:4:400": "8c92a10be6b19a06e1fb72e12b8682461af4c1c7f55108926519cb453e331df2",
    "0:6:3,0:4:400": "b21a7decc25fb9a999e9da8b069c85508ff42d0e689ff518d97a12a6ab252af6",
}


@pytest.mark.parametrize("grid", list(REGIMES_GOLDEN))
def test_cli_regimes_golden(capsys, grid):
    code = main(["regimes", "--scenario", str(THREE), "--grid", grid])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == REGIMES_GOLDEN[grid]


def levelled_profile(seed, n: int, n_levels: int) -> FacilityProfile:
    """n facilities spread over n_levels distinct post-attack costs."""
    rng = random.Random(seed)
    c0 = rng.uniform(5.0, 30.0)
    levels = [c0 + rng.uniform(0.5, 15.0) for _ in range(n_levels)]
    costs = levels + [rng.choice(levels) for _ in range(n - n_levels)]
    rng.shuffle(costs)
    return FacilityProfile(c0, tuple((f"f{t + 1}", c) for t, c in enumerate(costs)))


def test_regime_sweep_golden_on_twenty_levels():
    profile = levelled_profile(2018, 50, 20)
    assert partition_by_cost(profile).K == 20
    top = max(cost for _, cost in profile.facilities) - profile.baseline_cost
    buf = io.StringIO()
    write_sweep_csv(regime_sweep(profile, (0.0, 1.05 * top), (0.0, 1.05 * top), 60), buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "605dab61fe3693f0c771de4575bd06e73176846e4593af6fcd7acf0074744fcd"


def random_levelled_profile(rng: np.random.Generator) -> FacilityProfile:
    """Up to 20 cost levels, some with several members, some facilities at or
    below the baseline, and now and then two levels whose edges lie within
    BOUNDARY_TOL of each other, so that one attack cost is on both."""
    c0 = float(rng.uniform(1.0, 30.0))
    levels = list(c0 + rng.uniform(0.05, 20.0, size=int(rng.integers(1, 21))))
    if len(levels) > 1 and rng.random() < 0.3:
        levels[1] = c0 + (levels[0] - c0) * (1.0 + 1e-13)
    costs = levels + [float(rng.choice(levels)) for _ in range(int(rng.integers(0, 10)))]
    costs += list(c0 * rng.uniform(0.5, 1.0, size=int(rng.integers(0, 3))))
    rng.shuffle(costs)
    return FacilityProfile(c0, tuple((f"f{t + 1}", float(c)) for t, c in enumerate(costs)))


def clustered_profile() -> FacilityProfile:
    """Eight levels, four of whose edges lie within BOUNDARY_TOL of 4 (relative), so
    an attack cost of 4 crosses all four at once; two levels have several members."""
    cluster = [4.0 * (1.0 + t * 2e-13) for t in range(4)]
    increases = [9.0, 7.0, 7.0, *cluster, cluster[1], 2.5, 1.0, 1.0, 1.0]
    return FacilityProfile(10.0, tuple((f"f{t + 1}", 10.0 + x) for t, x in enumerate(increases)))


def near(values, rel=1e-12):
    return [x * f for x in values for f in (1.0 - rel, 1.0, 1.0 + rel)]


FIELDS = ("i", "j", "below_curve", "region", "on_ne_line", "on_spe_line")


def assert_placed_as_the_reference(partition, ca, cd):
    """``locate`` at every point and ``locate_grid`` on the axes agree exactly with
    the reference, and ``locate`` returns plain Python values."""
    grid = partition.locate_grid(np.array(ca, dtype=float), np.array(cd, dtype=float))
    for r, x in enumerate(ca):
        for c, y in enumerate(cd):
            want = reference_locate(partition, x, y)
            got = partition.locate(x, y)
            assert got == want, (x, y)
            assert [type(getattr(got, f)) for f in FIELDS] == [int, int, bool, str, bool, bool]
            cell = (grid.i[r], grid.j[c], *(getattr(grid, f)[r, c] for f in FIELDS[2:]))
            assert cell == tuple(getattr(want, f) for f in FIELDS), (x, y)


def test_locate_grid_matches_locate_cell_by_cell():
    # Both paths against the reference; the clustered profile, last, puts one attack
    # cost on four level edges, and its curve values there go into the defense costs.
    rng = np.random.default_rng(808)
    for t in range(21):
        profile = random_levelled_profile(rng) if t < 20 else clustered_profile()
        partition = partition_by_cost(profile)
        edges, bands, top = partition.edges, partition.bands, partition.edges[0]
        ca = near(edges) + list(rng.uniform(0.0, 1.2 * top, size=10))
        curve = [partition.cd_tilde(x) for x in ca if 0.0 <= x < top]
        cd = near(bands) + near(rng.choice(curve, size=min(4, len(curve)))) + list(
            rng.uniform(0.0, 1.5 * bands[0], size=10)
        )
        if t == 20:
            crossed = [x for x in edges if abs(x - 4.0) <= 1e-12 * 4.0]
            assert len(crossed) == 4 and edges[0] not in crossed
            ca.append(4.0)
            cd += near([partition.cd_tilde(x) for x in crossed])
        assert_placed_as_the_reference(partition, ca, cd)


@pytest.mark.parametrize("rel", [1e-4, 1e-6, 1e-8])
def test_a_point_on_the_curve_next_to_its_pole_is_on_the_boundary(rel):
    # In bracket 1 the curve is (C(1)-C0)^2 / (N_1 (C(1)-C0-ca)), which grows without
    # bound as ca nears C(1)-C0; a point on it, rounded once, must still be found on it.
    partition = partition_by_cost(FacilityProfile(17.0, (("e1", 20.1), ("e2", 19.0), ("e3", 18.0))))
    edge = partition.edges[0]
    ca = edge * (1.0 - rel)
    cd = float(Fraction(edge) ** 2 / (Fraction(edge) - Fraction(ca)))
    assert partition.bracket(ca) == 1
    assert partition.locate(ca, cd).region == "boundary"
    assert_placed_as_the_reference(partition, [ca], [cd])


@pytest.mark.parametrize("rel", [1e-4, 1e-6, 1e-8])
def test_the_curve_next_to_its_pole_reads_the_unrounded_edge(rel):
    # 20.3 - 1.1 rounds (by 1.3e-15), and a curve read from the rounded edge is off
    # by about 1e-16*C(1)/(C(1)-C0-ca) relative, 7e-11 at rel = 1e-6: past BOUNDARY_TOL.
    partition = partition_by_cost(FacilityProfile(1.1, (("e1", 20.3), ("e2", 9.0))))
    edge = Fraction(20.3) - Fraction(1.1)
    ca = float(edge * (1 - Fraction(rel)))
    cd = float(edge / (1 - Fraction(ca) / edge))
    assert partition.bracket(ca) == 1
    assert partition.locate(ca, cd).region == "boundary"
    assert_placed_as_the_reference(partition, [ca], [cd])


def assert_cell_is_the_scalar_path(profile, cell, loc):
    """``cell`` has the labels of ``loc`` and the bits of ``ne_utilities`` and
    ``spe_utilities`` at its (ca, cd), a utility unset where its label is boundary."""
    ne, spe = NeRegime.at(loc), SpeRegime.at(loc)
    assert (cell.ne_regime, cell.spe_regime, cell.region) == (ne.label, spe.label, loc.region), cell
    params = CostParams(cell.ca, cell.cd)
    ud = ua = uds = uas = None
    if ne.label != "boundary":
        ud, ua = ne_utilities(profile, params, ne)
    if spe.label != "boundary":
        uds, uas = spe_utilities(profile, params, spe)
    got, want = (cell.ud, cell.ua, cell.uds, cell.uas), (ud, ua, uds, uas)
    assert [v if v is None else v.hex() for v in got] == [v if v is None else v.hex() for v in want], cell


def boundary_cells_of_a_sweep_from(profile, edge, band) -> int:
    """Sweep ``profile`` on an 8x16 grid whose first midpoint is (edge, band), check
    every cell against the reference locator and the scalar utilities, and count the
    cells with a boundary label. Ranges (0, 2 n v) with n a power of two put the first
    midpoint exactly on v."""
    partition = partition_by_cost(profile)
    n_ca, n_cd = 8, 16
    cells = regime_sweep(profile, (0.0, 2 * n_ca * edge), (0.0, 2 * n_cd * band), (n_ca, n_cd))
    assert (cells[0].ca, cells[0].cd) == (edge, band)
    hits = 0
    for cell in cells:
        assert_cell_is_the_scalar_path(profile, cell, reference_locate(partition, cell.ca, cell.cd))
        hits += "boundary" in (cell.ne_regime, cell.spe_regime, cell.region)
    return hits


def test_regime_sweep_matches_the_scalar_path_cell_by_cell():
    rng = np.random.default_rng(909)
    hits = 0
    for _ in range(30):
        profile = random_levelled_profile(rng)
        partition = partition_by_cost(profile)
        edge = float(rng.choice(partition.edges))
        band = float(rng.choice(partition.bands))
        hits += boundary_cells_of_a_sweep_from(profile, edge, band)
    assert hits >= 30
    # the first row of the clustered profile's sweep lies on four level edges at once
    partition = partition_by_cost(clustered_profile())
    assert boundary_cells_of_a_sweep_from(clustered_profile(), partition.edges[3], partition.bands[3]) > 0


def per_level_utilities(c0, levels, ca, cd, label):
    """(defender, attacker) utilities of the regime ``label`` as the sums over
    levels that define them, in exact arithmetic; ``levels`` holds (C(k), E(k))."""
    kind, k = label.split("-")
    k, ca, cd = int(k), Fraction(ca), Fraction(cd)
    if kind == "I":  # cd on every member of levels 1..k
        return -c0 - cd * sum(n for _, n in levels[:k]), c0
    if kind == "I~":  # effort (C(l)-ca-C0)/(C(l)-C0) on every member of levels 1..k
        return -c0 - cd * sum(n * (c - ca - c0) / (c - c0) for c, n in levels[:k]), c0
    cj = levels[k - 1][0]  # II-k, II~-k: effort (C(l)-C(k))/(C(l)-C0) on the levels above k
    return -cj - cd * sum(n * (c - cj) / (c - c0) for c, n in levels[: k - 1]), cj - ca


def test_utilities_match_the_per_level_sums_exactly():
    # Up to 40 levels of 1-3 members. Per level k, three points deter in bracket k
    # below the curve (often within 1e-4 of its pole for k = 1) and three concede
    # between bands k and k-1; each is solved in the regime ``locate`` finds there.
    rng = np.random.default_rng(1515)
    seen = set()
    for _ in range(30):
        c0 = float(rng.uniform(1.0, 30.0))
        costs = [c0 + float(rng.uniform(0.05, 20.0)) for _ in range(int(rng.integers(1, 41)))]
        costs = [c for c in costs for _ in range(int(rng.integers(1, 4)))]
        profile = FacilityProfile(c0, tuple((f"f{t}", float(c)) for t, c in enumerate(rng.permutation(costs))))
        partition = partition_by_cost(profile)
        levels = [(Fraction(c), n) for c, n in zip(partition.level_costs, partition.level_sizes)]
        edges, bands = (*partition.edges, 0.0), (math.inf, *partition.bands)
        points = {}  # regime and utility function -> points
        for k in range(1, partition.K + 1):
            ca = list(rng.uniform(edges[k], edges[k - 1], size=3))
            cd = [float(rng.uniform(0.0, 1.0)) * partition.cd_tilde(x) for x in ca]
            ca += list(rng.uniform(0.0, edges[k - 1], size=3))
            cd += list(rng.uniform(bands[k], min(bands[k - 1], 4 * bands[k]), size=3))
            for x, y in zip(ca, cd):
                loc = partition.locate(float(x), float(y))
                for regime, utilities in ((NeRegime.at(loc), _ne_utilities), (SpeRegime.at(loc), _spe_utilities)):
                    if regime.label != "boundary":
                        points.setdefault((regime, utilities), []).append((float(x), float(y)))
        for (regime, utilities), cells in points.items():
            seen.add(regime.label.split("-")[0])
            ud, ua = utilities(partition, *np.array(cells).T, regime.kind, regime.index)
            for t, (x, y) in enumerate(cells):
                got = utilities(partition, x, y, regime.kind, regime.index)
                assert [type(v) for v in got] == [float, float]
                # the array form has the scalar form's bits
                assert (np.broadcast_to(ud, len(cells))[t], np.broadcast_to(ua, len(cells))[t]) == got
                want = per_level_utilities(Fraction(c0), levels, x, y, regime.label)
                for g, w in zip(got, want):
                    assert abs(Fraction(g) - w) <= 1e-13 * abs(w), (regime.label, x, y, g, float(w))
    assert seen == {"I", "I~", "II", "II~"}


def profile_of_2000_facilities() -> FacilityProfile:
    """2000 post-attack costs drawn from 12-18 over a baseline of 10: 2000 levels."""
    costs = np.random.default_rng(2000).uniform(12.0, 18.0, size=2000)
    return FacilityProfile(10.0, tuple((f"f{t}", float(c)) for t, c in enumerate(costs)))


def test_closed_forms_at_2000_facilities():
    # The closed forms cost O(K) to set up, O(log K) per curve lookup and O(1)
    # per utility, read from the prefix sums S_k, N_k and T_k. So 2000 facilities
    # (about as many cost levels) take well under a second, and a 200x200 sweep,
    # whose utilities take one pass over its cells, with no loop over the few
    # hundred regimes present, under half one.
    profile = profile_of_2000_facilities()
    params = CostParams(1.0, 0.05)
    partition_by_cost.cache_clear()
    start = time.process_time()
    ne, spe = solve_ne(profile, params), solve_spe(profile, params)
    region = classify_cost_region(profile, params)
    ca = cd_tilde_inverse(profile, 2.0)
    elapsed = time.process_time() - start
    assert (ne.regime.label, spe.regime.label, region) == ("II-155", "II~-155", CostRegion.HIGH)
    assert 0.0 < ca < partition_by_cost(profile).edges[0]
    assert cd_threshold_tilde(profile, ca) == pytest.approx(2.0, rel=1e-12)
    assert elapsed < 2.0
    start = time.process_time()
    grid = regime_sweep(profile, (0, 8), (0, 0.2), 200)
    elapsed = time.process_time() - start
    assert len(grid) == 200 * 200 and len(set(grid.spe_regime.ravel().tolist())) > 200
    assert elapsed < 0.5


def test_regime_sweep_matches_the_scalar_path_at_2000_facilities():
    # The sweep reads N_i, C(j), T_j and the deterrence spend at level indices up to
    # K = 2000. Check 400 cells of the 200x200 sweep above against locate and the scalar
    # utilities, then a row of 200 cells on a level edge and a column of 200 on a band
    # constant: ranges (0, 400 v) on 200 steps put the first midpoint on v for most v.
    profile = profile_of_2000_facilities()
    partition = partition_by_cost(profile)
    assert partition.K == 2000

    def check(cells, sample) -> set[str]:
        for t in sample:
            cell = cells[t]
            assert_cell_is_the_scalar_path(profile, cell, partition.locate(cell.ca, cell.cd))
        return {label for t in sample for label in (cells[t].ne_regime, cells[t].spe_regime)}

    def on_line(values):
        return next(v for v in values.tolist() if (400 * v) / 200 * 0.5 == v)

    rng = np.random.default_rng(27)
    sample = rng.choice(200 * 200, size=400, replace=False).tolist()
    labels = check(regime_sweep(profile, (0, 8), (0, 0.2), 200), sample)
    assert {label.split("-")[0] for label in labels} == {"I", "I~", "II", "II~"}
    assert len(labels) > 200

    edge, band = on_line(partition.edges[50:]), on_line(partition.bands[1000:])
    row = regime_sweep(profile, (0.0, 400 * edge), (0, 0.2), 200)
    column = regime_sweep(profile, (0, 8), (0.0, 400 * band), 200)
    assert set(row.ca[:1]) == {edge} and set(column.cd[:1]) == {band}
    assert "boundary" in check(row, range(200))
    assert "boundary" in check(column, range(0, 200 * 200, 200))


def test_locate_at_2000_facilities_tests_only_the_lines_near_the_point():
    # One locate looks at the few level edges and band constants within about
    # 2*BOUNDARY_TOL of the point, found by bisection, so at 2000 facilities (about as
    # many levels) it takes well under 0.1 ms of CPU time, on a line or off it.
    rng = np.random.default_rng(2000)
    costs = rng.uniform(12.0, 18.0, size=2000)
    partition = partition_by_cost(FacilityProfile(10.0, tuple((f"f{t}", float(c)) for t, c in enumerate(costs))))
    edges, bands = partition.edges, partition.bands
    on_lines = [(edges[k], bands[k]) for k in range(0, partition.K, 40)]
    on_lines += [(x, partition.cd_tilde(x)) for x in rng.uniform(0.0, edges[0], size=50).tolist()]
    off_lines = list(zip(rng.uniform(0.0, 8.0, size=200).tolist(), rng.uniform(0.0, 0.2, size=200).tolist()))
    points = on_lines + off_lines
    assert sum(partition.locate(*point).region == "boundary" for point in points) >= len(on_lines)
    start = time.process_time()
    for ca, cd in points:
        partition.locate(ca, cd)
    assert (time.process_time() - start) / len(points) < 1e-4

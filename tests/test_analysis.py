import csv
import io

import numpy as np
import pytest

from facsec.analysis import (
    SWEEP_COLUMNS,
    CostRegion,
    classify_cost_region,
    compare_games,
    regime_sweep,
    write_sweep_csv,
)
from facsec.model import CostParams, partition_by_cost
from facsec.normalform import BoundaryParameters, classify_regime_ne
from facsec.sequential import cd_threshold_tilde, classify_regime_spe

from conftest import random_game


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

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from facsec.model import (
    CostParams,
    EmptyVulnerableUniverse,
    FacilityProfile,
    ModelError,
    NonpositiveDenominator,
    partition_by_cost,
)
from facsec.normalform import BoundaryParameters, cd_threshold_bar, solve_ne
from facsec.oracle import attacker_best_response_enum, verify_spe
from facsec.sequential import (
    BelowRange,
    OutOfDomain,
    SpeRegimeKind,
    cd_threshold_tilde,
    cd_tilde_inverse,
    classify_regime_spe,
    solve_spe,
)

from conftest import random_game


def test_cd_ij_golden(profile3):
    partition = partition_by_cost(profile3)
    assert partition.cd_ij(0.5, 3, 3) == pytest.approx(12 / 11, rel=1e-12)
    assert partition.cd_ij(1.5, 2, 1) == pytest.approx(4.0, rel=1e-12)
    assert partition.cd_ij(0.0, 3, 3) == pytest.approx(6 / 11, rel=1e-12)


def test_tilde_piecewise_closed_forms(profile3):
    # the curve has closed forms on each (bracket, band) piece
    assert cd_threshold_tilde(profile3, 0.25) == pytest.approx((6 / 11) / 0.75, rel=1e-12)
    assert cd_threshold_tilde(profile3, 0.8) == pytest.approx(2 / (8 / 3 - 11 * 0.8 / 6), rel=1e-12)
    assert cd_threshold_tilde(profile3, 1.1) == pytest.approx(2 / (5 / 3 - 5 * 1.1 / 6), rel=1e-12)
    assert cd_threshold_tilde(profile3, 1.5) == pytest.approx(4.0, rel=1e-12)
    assert cd_threshold_tilde(profile3, 2.5) == pytest.approx(3 / (1 - 2.5 / 3), rel=1e-12)


def test_tilde_is_continuous_at_bracket_and_band_switches(profile3):
    for ca, value in ((6 / 11, 6 / 5), (1.0, 2.4), (6 / 5, 3.0), (2.0, 9.0)):
        below = cd_threshold_tilde(profile3, ca - 1e-9)
        above = cd_threshold_tilde(profile3, ca + 1e-9)
        assert below == pytest.approx(value, abs=1e-7)
        assert above == pytest.approx(value, abs=1e-7)


def test_tilde_domain_ends(profile3):
    assert cd_threshold_tilde(profile3, 0.0) == pytest.approx(6 / 11)
    with pytest.raises(OutOfDomain):
        cd_threshold_tilde(profile3, 3.0)
    with pytest.raises(OutOfDomain):
        cd_threshold_tilde(profile3, 3.5)


def test_threshold_functions_reject_nan_and_keep_their_answers_at_infinity(profile3):
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ModelError, match="attack cost nan"):
        cd_threshold_bar(profile3, nan)
    with pytest.raises(OutOfDomain, match="attack cost nan"):
        cd_threshold_tilde(profile3, nan)
    with pytest.raises(OutOfDomain, match="defense cost nan"):
        cd_tilde_inverse(profile3, nan)
    with pytest.raises(ModelError, match="attack cost -inf is negative"):
        cd_threshold_bar(profile3, -inf)
    with pytest.raises(EmptyVulnerableUniverse):
        cd_threshold_bar(profile3, inf)
    for x in (-inf, inf):
        with pytest.raises(OutOfDomain):
            cd_threshold_tilde(profile3, x)
    assert cd_tilde_inverse(profile3, inf) == 3.0
    # -inf lies below the curve, as -5 does, and is not on its foot
    for cd in (-5.0, -inf):
        with pytest.raises(BelowRange):
            cd_tilde_inverse(profile3, cd)


def test_tilde_inverse_golden(profile3):
    assert cd_tilde_inverse(profile3, 1.5) == pytest.approx(8 / 11, abs=1e-9)
    assert cd_tilde_inverse(profile3, 12 / 11) == pytest.approx(0.5, abs=1e-9)
    assert cd_tilde_inverse(profile3, 6 / 11) == 0.0
    assert cd_tilde_inverse(profile3, 9.0) == pytest.approx(2.0, abs=1e-9)
    assert cd_tilde_inverse(profile3, 1e6) == pytest.approx(3.0, abs=1e-4)
    with pytest.raises(BelowRange):
        cd_tilde_inverse(profile3, 0.5)


def _points_near_curve_switches(partition, rng):
    """Attack costs in [0, C(1)-C0): uniform ones, and ones 0-3 ulps and a few
    1e-13 from up to 12 of the level edges and piece ends, picked at random."""
    edges, ratios, sizes = partition.edges, partition.prefix_ratios, partition.prefix_sizes
    switches = list(edges[1:])
    for i in range(1, partition.K + 1):
        switches += [(sizes[i] - sizes[j - 1]) / ratios[i] for j in range(2, i + 1)]
    points = [0.0, *rng.uniform(0.0, edges[0], size=5)]
    for x in rng.permutation(switches)[:12]:
        lo = hi = x
        points += [x, x * (1.0 + 1e-13 * int(rng.integers(-3, 4)))]
        for _ in range(3):
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
            points += [lo, hi]
    return [float(x) for x in points if 0.0 <= x < edges[0]]


def test_tilde_picks_the_lowest_piece_of_its_bracket():
    # In bracket i the curve is the lowest of its pieces cd_ij, 1 <= j <= i, so
    # the bisection that picks the piece must agree with an O(K) scan. Within
    # rounding of a piece end the two pieces that meet there differ only in
    # their last few bits, and either is the curve.
    rng = np.random.default_rng(2024)
    checked = exact = 0
    for _ in range(100):
        c0 = float(rng.uniform(1.0, 50.0))
        K = int(rng.integers(1, 41))
        rises = rng.uniform(0.01, 20.0, size=K)
        sizes = rng.choice([1, 1, 2, 3], size=K)  # repeated levels
        facilities = [(c0 + float(rise), n) for rise, n in zip(rises, sizes)]
        profile = FacilityProfile(
            c0, tuple((f"f{k}-{m}", cost) for k, (cost, n) in enumerate(facilities) for m in range(n))
        )
        partition = partition_by_cost(profile)
        for ca in _points_near_curve_switches(partition, rng):
            i = partition.bracket(ca)
            pieces = []
            for j in range(1, i + 1):
                try:
                    pieces.append(partition.cd_ij(ca, i, j))
                except NonpositiveDenominator:
                    pieces.append(np.inf)
            value, lowest = cd_threshold_tilde(profile, ca), min(pieces)
            assert value in pieces and value <= lowest * (1.0 + 1e-14), (K, ca)
            checked += 1
            exact += value == lowest
    assert checked > 6000 and exact > 0.9 * checked


@settings(max_examples=300, deadline=None)
@given(
    st.floats(1.0, 50.0),
    st.lists(st.floats(0.01, 20.0), min_size=1, max_size=8),
    st.lists(st.integers(0, 7), max_size=4),
    st.floats(0.0, 1.0, exclude_max=True),
)
def test_tilde_inverse_recovers_the_attack_cost(c0, rises, repeats, frac):
    # repeated rises put several facilities on one cost level
    rises = rises + [rises[r % len(rises)] for r in repeats]
    profile = FacilityProfile(c0, tuple((f"f{t}", c0 + rise) for t, rise in enumerate(rises)))
    ca = frac * partition_by_cost(profile).edges[0]
    try:
        cd = cd_threshold_tilde(profile, ca)
    except (NonpositiveDenominator, OutOfDomain):
        assume(False)
    assert abs(cd_tilde_inverse(profile, cd) - ca) <= 1e-12 * max(1.0, ca)


def test_classify_regime_spe_golden(profile3):
    assert classify_regime_spe(profile3, CostParams(0.5, 0.3)).label == "I~-3"
    assert classify_regime_spe(profile3, CostParams(0.5, 0.8)).label == "I~-3"
    assert classify_regime_spe(profile3, CostParams(0.5, 1.5)).label == "II~-2"
    assert classify_regime_spe(profile3, CostParams(0.5, 3.5)).label == "II~-1"
    assert classify_regime_spe(profile3, CostParams(3.5, 1.0)).label == "I~-0"


def test_classify_regime_spe_boundaries(profile3):
    on_curve = CostParams(0.5, 12 / 11)
    assert classify_regime_spe(profile3, on_curve).kind is SpeRegimeKind.BOUNDARY
    assert classify_regime_spe(profile3, CostParams(3.0, 0.5)).kind is SpeRegimeKind.BOUNDARY
    # cost-level edge below the curve separates protect-all regions: boundary
    assert classify_regime_spe(profile3, CostParams(1.0, 2.0)).kind is SpeRegimeKind.BOUNDARY
    # above the curve the same edge changes nothing
    assert classify_regime_spe(profile3, CostParams(1.0, 3.5)).label == "II~-1"


def test_solve_spe_deterring(profile3):
    out = solve_spe(profile3, CostParams(0.5, 0.8))
    assert out.regime.label == "I~-3"
    assert out.effort.as_dict() == pytest.approx({"e1": 5 / 6, "e2": 3 / 4, "e3": 1 / 2})
    assert out.on_path.deterred
    assert out.on_path.admissible == ()
    assert out.on_path.witness.no_attack == 1.0
    assert out.defender_utility == pytest.approx(-17 - 0.8 * 25 / 12)
    assert out.attacker_utility == pytest.approx(17.0)


def test_solve_spe_conceding(profile3):
    out = solve_spe(profile3, CostParams(0.5, 1.5))
    assert out.regime.label == "II~-2"
    assert out.effort.as_dict() == pytest.approx({"e1": 1 / 3, "e2": 0.0, "e3": 0.0})
    assert not out.on_path.deterred
    assert out.on_path.admissible == ("e1", "e2")
    assert out.on_path.witness.no_attack == 0.0
    assert out.defender_utility == pytest.approx(-19.5)
    assert out.attacker_utility == pytest.approx(18.5)


def test_solve_spe_trivial_and_boundary(profile3):
    out = solve_spe(profile3, CostParams(3.5, 1.0))
    assert out.regime.label == "I~-0"
    assert out.effort.total == 0.0
    assert out.on_path.deterred
    assert out.defender_utility == pytest.approx(-17.0)
    with pytest.raises(BoundaryParameters):
        solve_spe(profile3, CostParams(0.5, 12 / 11))


def test_conceding_regimes_reuse_the_simultaneous_solution(profile3):
    params = CostParams(0.5, 1.5)
    ne = solve_ne(profile3, params)
    spe = solve_spe(profile3, params)
    assert spe.defender_utility == ne.defender_utility  # bit-identical expressions
    assert spe.attacker_utility == ne.attacker_utility
    assert spe.effort.as_dict() == ne.effort.as_dict()


def test_commitment_never_hurts_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(40):
        profile, params = random_game(rng)
        spe = solve_spe(profile, params)
        ne = solve_ne(profile, params)
        assert spe.defender_utility >= ne.defender_utility - 1e-9
        # committed effort never exceeds the deterrence threshold anywhere
        c0, ca = profile.baseline_cost, params.attack_cost
        for fac, ce in profile.facilities:
            if ce - ca > c0:
                hat = (ce - ca - c0) / (ce - c0)
                assert spe.effort.get(fac) <= hat + 1e-12
        # the observing attacker abstains exactly when the solver says it is deterred
        table = attacker_best_response_enum(profile, params, spe.effort)
        assert (None in table.best_actions) == spe.on_path.deterred


def test_solve_spe_survives_the_grid_oracle(profile3):
    rng = np.random.default_rng(4242)
    few = lambda p, prm: len([1 for _, ce in p.facilities if ce - prm.attack_cost > p.baseline_cost]) <= 3
    for _ in range(5):
        profile, params = random_game(rng, require=few)
        out = solve_spe(profile, params)
        res = verify_spe(profile, params, out.effort, out.defender_utility)
        assert res.ok, res.failures

import numpy as np
import pytest

from facsec.model import (
    CostParams,
    EmptyVulnerableUniverse,
    FacilityProfile,
)
from facsec.normalform import (
    BoundaryParameters,
    RegimeKind,
    build_attacker_lp,
    cd_threshold_bar,
    classify_regime_ne,
    solve_ne,
)
from facsec.oracle import verify_ne

from conftest import random_game


def test_cd_threshold_bar(profile3):
    assert cd_threshold_bar(profile3, 0.5) == pytest.approx(6 / 11)
    assert cd_threshold_bar(profile3, 1.5) == pytest.approx(6 / 5)
    assert cd_threshold_bar(profile3, 2.5) == pytest.approx(3.0)
    with pytest.raises(EmptyVulnerableUniverse):
        cd_threshold_bar(profile3, 3.5)


def test_classify_regime_ne_golden(profile3):
    assert classify_regime_ne(profile3, CostParams(0.5, 0.3)).label == "I-3"
    assert classify_regime_ne(profile3, CostParams(0.5, 0.8)).label == "II-3"
    assert classify_regime_ne(profile3, CostParams(0.5, 1.5)).label == "II-2"
    assert classify_regime_ne(profile3, CostParams(0.5, 3.5)).label == "II-1"
    assert classify_regime_ne(profile3, CostParams(3.5, 1.0)).label == "I-0"
    assert classify_regime_ne(profile3, CostParams(1.5, 0.5)).label == "I-2"


def test_classify_regime_ne_boundaries(profile3):
    # cost-level edges are boundaries only below the band they actually split
    assert classify_regime_ne(profile3, CostParams(3.0, 0.7)).kind is RegimeKind.BOUNDARY
    assert classify_regime_ne(profile3, CostParams(1.0, 0.8)).kind is RegimeKind.BOUNDARY
    assert classify_regime_ne(profile3, CostParams(1.0, 2.0)).label == "II-2"
    # band constants are boundaries only inside the active bracket
    assert classify_regime_ne(profile3, CostParams(0.5, 6 / 11)).kind is RegimeKind.BOUNDARY
    assert classify_regime_ne(profile3, CostParams(0.5, 3.0)).kind is RegimeKind.BOUNDARY
    assert classify_regime_ne(profile3, CostParams(1.5, 6 / 11)).label == "I-2"


def test_solve_ne_type_one(profile3):
    eq = solve_ne(profile3, CostParams(0.5, 0.3))
    assert eq.regime.label == "I-3"
    assert eq.effort.as_dict() == pytest.approx({"e1": 5 / 6, "e2": 3 / 4, "e3": 1 / 2})
    assert eq.attack.as_dict() == pytest.approx({"e1": 0.1, "e2": 0.15, "e3": 0.3})
    assert eq.attack.no_attack == pytest.approx(0.45)
    assert eq.defender_utility == pytest.approx(-17.9)
    assert eq.attacker_utility == pytest.approx(17.0)


def test_solve_ne_type_two(profile3):
    eq = solve_ne(profile3, CostParams(0.5, 0.8))
    assert eq.regime.label == "II-3"
    assert eq.effort.as_dict() == pytest.approx({"e1": 2 / 3, "e2": 1 / 2, "e3": 0.0})
    assert eq.attack.no_attack == 0.0
    # e1, e2 at their break-even probabilities; e3 absorbs the rest, below its own 0.8
    assert eq.attack.as_dict() == pytest.approx({"e1": 0.8 / 3, "e2": 0.4, "e3": 1 - 0.8 / 3 - 0.4})
    assert eq.defender_utility == pytest.approx(-18 - 0.8 * (2 / 3 + 1 / 2))
    assert eq.attacker_utility == pytest.approx(17.5)


def test_solve_ne_trivial_when_nothing_vulnerable(profile3):
    eq = solve_ne(profile3, CostParams(3.5, 1.0))
    assert eq.regime.label == "I-0"
    assert eq.effort.total == 0.0
    assert eq.attack.no_attack == 1.0
    assert eq.defender_utility == pytest.approx(-17.0)
    assert eq.attacker_utility == pytest.approx(17.0)


def test_solve_ne_raises_on_boundary(profile3):
    with pytest.raises(BoundaryParameters):
        solve_ne(profile3, CostParams(3.0, 0.5))


def test_duplicate_cost_levels_share_threshold():
    profile = FacilityProfile(10.0, (("a", 14.0), ("b", 14.0), ("c", 12.0)))
    eq = solve_ne(profile, CostParams(1.0, 0.5))
    assert eq.regime.label == "I-2"
    eff = eq.effort.as_dict()
    assert eff["a"] == eff["b"] == pytest.approx(3 / 4)
    atk = eq.attack.as_dict()
    assert atk["a"] == atk["b"] == pytest.approx(0.125)


def test_attacker_lp_shape(profile3):
    lp = build_attacker_lp(profile3, CostParams(0.5, 0.3))
    assert lp.labels[:4] == ("sigma_e1", "sigma_e2", "sigma_e3", "sigma_none")
    assert len(lp.a_ub) == 6  # two reaction envelopes per facility
    assert len(lp.a_eq) == 1  # probability simplex
    assert lp.bounds[3] == (0.0, None)
    assert lp.bounds[4] == (None, None)  # envelope values are free


def test_random_instances_verify(profile3):
    rng = np.random.default_rng(20260819)
    for _ in range(40):
        profile, params = random_game(rng)
        eq = solve_ne(profile, params)
        assert all(0.0 <= v <= 1.0 for v in eq.effort.as_dict().values())
        total = sum(eq.attack.as_dict().values()) + eq.attack.no_attack
        assert total == pytest.approx(1.0, abs=1e-9)
        res = verify_ne(profile, params, eq.effort, eq.attack)
        assert res.ok, res.failures

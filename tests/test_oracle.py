from fractions import Fraction

import numpy as np
import pytest

from facsec.model import AttackDistribution, CostParams, EffortVector, FacilityProfile, partition_by_cost
from facsec.normalform import build_attacker_lp, solve_ne
from facsec.oracle import (
    LinearProgram,
    attacker_best_response_enum,
    defender_utility_vs_br,
    simplex_solve,
    standard_form,
    verify_ne,
    verify_spe,
)
from facsec.sequential import cd_threshold_tilde, solve_spe

from conftest import random_game


def lp(objective, a_ub=(), b_ub=(), a_eq=(), b_eq=(), bounds=None, labels=None):
    n = len(objective)
    if bounds is None:
        bounds = tuple((0.0, None) for _ in range(n))
    if labels is None:
        labels = tuple(f"x{j}" for j in range(n))
    return LinearProgram(
        tuple(objective),
        tuple(tuple(r) for r in a_ub),
        tuple(b_ub),
        tuple(tuple(r) for r in a_eq),
        tuple(b_eq),
        tuple(bounds),
        tuple(labels),
    )


def test_simplex_textbook_max():
    sol = simplex_solve(lp([3.0, 2.0], a_ub=[[1, 1], [1, 0], [0, 1]], b_ub=[4, 2, 3]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(10.0)
    assert sol.assignment == pytest.approx({"x0": 2.0, "x1": 2.0})


def test_simplex_handles_equalities_and_free_vars():
    # max y subject to y = 2x, x <= 3, y free
    sol = simplex_solve(
        lp(
            [0.0, 1.0],
            a_ub=[[1, 0]],
            b_ub=[3],
            a_eq=[[-2, 1]],
            b_eq=[0],
            bounds=[(0.0, None), (None, None)],
        )
    )
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(6.0)
    assert sol.assignment["x1"] == pytest.approx(6.0)


def test_simplex_respects_shifted_bounds():
    # max -x with x in [2, 5]
    sol = simplex_solve(lp([-1.0], bounds=[(2.0, 5.0)]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(-2.0)


def test_simplex_detects_infeasible():
    sol = simplex_solve(lp([1.0], a_ub=[[1], [-1]], b_ub=[1, -3]))  # x <= 1 and x >= 3
    assert sol.status == "infeasible"
    assert sol.value is None


def test_simplex_detects_unbounded():
    sol = simplex_solve(lp([1.0]))
    assert sol.status == "unbounded"


def test_degenerate_cycling_guard():
    # classic degenerate corner; Bland's rule must terminate
    sol = simplex_solve(
        lp(
            [0.75, -150.0, 0.02, -6.0],
            a_ub=[[0.25, -60, -0.04, 9], [0.5, -90, -0.02, 3], [0, 0, 1, 0]],
            b_ub=[0, 0, 1],
        )
    )
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.05)


def _exact_gauss(a, b):
    n = len(a)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1, 1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def test_final_basis_resolves_exactly(profile3):
    """Rational re-solve of the reported basis reproduces the float answer."""
    game = build_attacker_lp(profile3, CostParams(0.5, 0.3))
    sol = simplex_solve(game)
    assert sol.status == "optimal"
    sf = standard_form(game)
    nrows = len(sf.rows)
    assert len(sol.basis) == nrows

    basis_cols = list(sol.basis)
    a = [[Fraction(sf.rows[r][c]) for c in basis_cols] for r in range(nrows)]
    b = [Fraction(x) for x in sf.rhs]
    xb = dict(zip(basis_cols, _exact_gauss(a, b)))

    exact_value = -sum(Fraction(sf.c[c]) * xb.get(c, Fraction(0)) for c in basis_cols)
    assert sol.value == pytest.approx(float(exact_value), abs=1e-9)
    for label, (offset, combo) in zip(game.labels, sf.recover):
        exact = Fraction(offset) + sum(Fraction(coef) * xb.get(col, Fraction(0)) for col, coef in combo)
        assert sol.assignment[label] == pytest.approx(float(exact), abs=1e-9)


def test_attacker_best_response_enum(profile3):
    eff = EffortVector.over(profile3, {"e1": 1.0, "e2": 0.5})
    table = attacker_best_response_enum(profile3, CostParams(0.5, 0.3), eff)
    util = dict(table.utilities)
    assert util["e1"] == pytest.approx(16.5)  # fully covered: 17 - 0.5
    assert util["e2"] == pytest.approx(17.5)  # 0.5*17 + 0.5*19 - 0.5
    assert util["e3"] == pytest.approx(17.5)
    assert util[None] == pytest.approx(17.0)
    assert set(table.best_actions) == {"e2", "e3"}
    assert table.best_value == pytest.approx(17.5)


def test_verify_ne_accepts_and_rejects(profile3):
    params = CostParams(0.5, 0.3)
    eq = solve_ne(profile3, params)
    assert verify_ne(profile3, params, eq.effort, eq.attack).ok

    bad_eff = EffortVector.over(profile3, {"e1": 0.9, "e2": 0.75, "e3": 0.5})
    res = verify_ne(profile3, params, bad_eff, eq.attack)
    assert not res.ok
    assert any("e1" in f for f in res.failures)

    bad_atk = AttackDistribution.over(profile3, {"e1": 0.5, "e2": 0.15, "e3": 0.3})
    assert not verify_ne(profile3, params, eq.effort, bad_atk).ok


def test_defender_utility_vs_br(profile3):
    params = CostParams(0.5, 0.3)
    idle = EffortVector.over(profile3)
    # attacker walks into the worst facility
    assert defender_utility_vs_br(profile3, params, idle) == pytest.approx(-20.0)

    hat = EffortVector.over(profile3, {"e1": 5 / 6, "e2": 3 / 4, "e3": 1 / 2})
    deterred = defender_utility_vs_br(profile3, params, hat)
    assert deterred == pytest.approx(-17.0 - 0.3 * (5 / 6 + 3 / 4 + 1 / 2))

    lopsided = EffortVector.over(profile3, {"e1": 5 / 6})
    assert defender_utility_vs_br(profile3, params, lopsided) == pytest.approx(-19.0 - 0.3 * 5 / 6)

    # at ca = 1.5 facility e3 cannot pay off, so deterring e1 and e2 suffices;
    # at ca = 3.5 nothing is vulnerable
    partial = EffortVector.over(profile3, {"e1": 0.5, "e2": 0.25})
    partial_ud = defender_utility_vs_br(profile3, CostParams(1.5, 0.3), partial)
    assert partial_ud == pytest.approx(-17.0 - 0.3 * 0.75)
    assert defender_utility_vs_br(profile3, CostParams(3.5, 0.3), idle) == -17.0

    # 1e-10 short of the threshold on e1 is an attack, by the enumeration's tie rule
    short = EffortVector.over(profile3, {"e1": 5 / 6 - 1e-10, "e2": 3 / 4, "e3": 1 / 2})
    attacked = defender_utility_vs_br(profile3, params, short)
    assert attacked == pytest.approx(-17.5 - 0.3 * short.total, abs=1e-9)


def test_verify_spe_accepts_the_committed_optimum(profile3):
    params = CostParams(0.5, 0.3)
    hat = EffortVector.over(profile3, {"e1": 5 / 6, "e2": 3 / 4, "e3": 1 / 2})
    ud = -17.0 - 0.3 * (5 / 6 + 3 / 4 + 1 / 2)
    assert verify_spe(profile3, params, hat, ud).ok


def test_verify_spe_rejects_inflated_and_dominated_claims(profile3):
    params = CostParams(0.5, 0.3)
    hat = EffortVector.over(profile3, {"e1": 5 / 6, "e2": 3 / 4, "e3": 1 / 2})
    inflated = verify_spe(profile3, params, hat, -17.5)
    assert not inflated.ok
    assert any("not attained" in f for f in inflated.failures)

    idle = EffortVector.over(profile3)
    dominated = verify_spe(profile3, params, idle, -20.0)
    assert not dominated.ok
    assert any("beat" in f for f in dominated.failures)


def lp_gap(profile, params):
    """|closed-form attacker LP value - simplex value|."""
    eq = solve_ne(profile, params)
    closed = eq.attacker_utility + params.defense_cost * eq.effort.total
    sol = simplex_solve(build_attacker_lp(profile, params))
    assert sol.status == "optimal"
    return abs(closed - sol.value)


def test_simplex_takes_the_true_minimum_ratio():
    # Regime II-1: two ratios within 1e-9 of each other; pivoting on the
    # larger one left the value 1.14e-8 off the closed form.
    profile = FacilityProfile(43.66957495981834, (("f1", 60.512017980724906),))
    params = CostParams(5.45326949464459, 16.84244303774901)
    assert solve_ne(profile, params).regime.label == "II-1"
    assert lp_gap(profile, params) <= 1e-8


def test_oracles_agree_next_to_every_band_constant():
    rng = np.random.default_rng(11)
    for _ in range(200):
        profile, params = random_game(rng)
        for band in partition_by_cost(profile).bands:
            for side in (1.0 + 1e-9, 1.0 - 1e-9):
                near = CostParams(params.attack_cost, band * side)
                assert lp_gap(profile, near) <= 1e-8, (profile, near)
                spe = solve_spe(profile, near)
                res = verify_spe(profile, near, spe.effort, spe.defender_utility)
                assert res.ok, (profile, near, res.failures)


@pytest.mark.parametrize("cd", [0.4, 1.3, 3.0, 40.0])
def test_verify_spe_accepts_the_optimum_with_ten_vulnerable_facilities(cd):
    big = FacilityProfile(10.0, tuple((f"f{i}", 15.0 + i + 0.5 * (i % 3)) for i in range(10)))
    params = CostParams(1.0, cd)
    out = solve_spe(big, params)
    assert verify_spe(big, params, out.effort, out.defender_utility).ok


@pytest.mark.parametrize("ca", [0.2, 0.7, 1.7, 2.5])
def test_verify_spe_is_exact_next_to_the_threshold_curve(profile3, ca):
    for side in (1.0 + 1e-9, 1.0 - 1e-9):
        params = CostParams(ca, cd_threshold_tilde(profile3, ca) * side)
        out = solve_spe(profile3, params)
        assert verify_spe(profile3, params, out.effort, out.defender_utility).ok

    # Over-protecting e1 by 1e-4 costs the defender 3e-5: no slack hides it.
    params = CostParams(0.5, 0.3)
    over = EffortVector.over(profile3, {"e1": 5 / 6 + 1e-4, "e2": 3 / 4, "e3": 1 / 2})
    res = verify_spe(profile3, params, over, defender_utility_vs_br(profile3, params, over))
    assert not res.ok
    assert any("beat" in f for f in res.failures)

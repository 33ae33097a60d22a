import time
from collections import Counter
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from facsec import oracle
from facsec.model import (
    AttackDistribution,
    CostParams,
    EffortVector,
    EmptyVulnerableUniverse,
    FacilityProfile,
    partition_by_cost,
)
from facsec.normalform import build_attacker_lp, solve_ne
from facsec.oracle import (
    LinearProgram,
    attacker_best_response_enum,
    attacker_lp_optimum,
    defender_utility_vs_br,
    simplex_solve,
    standard_form,
    verify_ne,
    verify_spe,
)
from facsec.sequential import cd_threshold_tilde, solve_spe

from conftest import random_game, scaled_game

try:
    from scipy.optimize import linprog
except ImportError:  # HiGHS is an optional cross-check
    linprog = None


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
    # max x with x in [2, 5], then with x fixed at 2
    assert simplex_solve(lp([1.0], bounds=[(2.0, 5.0)])).value == pytest.approx(5.0)
    for objective in (1.0, -1.0):
        fixed = simplex_solve(lp([objective], bounds=[(2.0, 2.0)]))
        assert fixed.status == "optimal"
        assert fixed.assignment["x0"] == pytest.approx(2.0)
    # inverted bounds leave nothing feasible
    inverted = simplex_solve(lp([1.0], bounds=[(2.0, 1.0)]))
    assert inverted.status == "infeasible"
    assert inverted.value is None


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


def _exact_point(lp, sol):
    """Rational re-solve of a reported basis: the nonbasic columns sit at 0,
    and an artificial (basis entry width + i) is the unit column of row i."""
    sf = standard_form(lp)
    nrows, width = sf.rows.shape
    a = [[Fraction(sf.rows[r][c]) if c < width else Fraction(c - width == r) for c in sol.basis]
         for r in range(nrows)]
    x = dict(zip(sol.basis, _exact_gauss(a, [Fraction(v) for v in sf.rhs])))
    point = {
        label: Fraction(offset) + sum(Fraction(coef) * x.get(col, Fraction(0)) for col, coef in combo)
        for label, (offset, combo) in zip(lp.labels, sf.recover)
    }
    return sum(Fraction(c) * point[label] for c, label in zip(lp.objective, lp.labels)), point


def _commitment_lps(profile, params):
    """The n + 1 LPs of the multiple-LPs method, written out from their
    definition, as (constant, LP) pairs: the LP's value plus the constant is
    the best defender utility with that attacker response a best one.

    The variables are the efforts rho_f in [0, 1] on the n vulnerable
    facilities, with g = C - C0. Abstaining first, then attacking each
    vulnerable facility in profile order."""
    c0, ca, cd = profile.baseline_cost, params.attack_cost, params.defense_cost
    vulnerable = [(fac, ce) for fac, ce in profile.facilities if ce - ca > c0]
    n = len(vulnerable)
    gains = [ce - c0 for _, ce in vulnerable]
    labels = tuple(f"rho_{fac}" for fac, _ in vulnerable)

    def unit(k, coef):
        out = [0.0] * n
        out[k] = coef
        return out

    def program(objective, rows, rhs):
        return LinearProgram(
            tuple(objective), tuple(map(tuple, rows)), tuple(rhs), (), (), ((0.0, 1.0),) * n, labels
        )

    # Abstaining is a best response iff rho_f (C_f - C0) >= C_f - C0 - ca for all f.
    out = [(-c0, program([-cd] * n, [unit(f, -g) for f, g in enumerate(gains)], [ca - g for g in gains]))]
    for e, (_, ce) in enumerate(vulnerable):
        # Attacking e is one iff it pays at least attacking any other f, and abstaining.
        rows, rhs = [], []
        for f, (_, cf) in enumerate(vulnerable):
            if f != e:
                rows.append(unit(e, gains[e]))
                rows[-1][f] = -gains[f]
                rhs.append(ce - cf)
        rows.append(unit(e, gains[e]))
        rhs.append(gains[e] - ca)
        out.append((-ce, program([x - cd for x in unit(e, gains[e])], rows, rhs)))
    return out


def test_final_basis_resolves_exactly(profile3):
    """Rational re-solve of the reported basis reproduces the float answer."""
    params = CostParams(0.5, 0.3)
    game = build_attacker_lp(profile3, params)
    commitment = [program for _, program in _commitment_lps(profile3, params)]
    # No commitment LP holds an effort at 1: each vulnerable rho_f stays below
    # 1 - ca / (C_f - C0). Reversing the abstention LP's objective pushes every
    # rho_f to its upper bound, where the slack of its row rho_f <= 1 is nonbasic.
    abstain = commitment[0]
    all_out = LinearProgram(tuple(-c for c in abstain.objective), *astuple(abstain)[1:])
    for program in (game, *commitment, all_out):
        sol = simplex_solve(program)
        assert sol.status == "optimal"
        assert len(sol.basis) == len(standard_form(program).rows)
        exact_value, point = _exact_point(program, sol)
        assert sol.value == pytest.approx(float(exact_value), abs=1e-9)
        for label, exact in point.items():
            assert sol.assignment[label] == pytest.approx(float(exact), abs=1e-9)
    top = simplex_solve(all_out)
    assert set(top.assignment.values()) == {1.0}

    # Random LPs with mixed bounds; some end with a variable at an upper bound
    # strictly above its lower one, some with an artificial in the basis.
    rng = np.random.default_rng(8)
    solved = [(program, simplex_solve(program)) for program in (_random_lp(rng) for _ in range(300))]
    optimal = [(program, sol) for program, sol in solved if sol.status == "optimal"]
    assert any(
        sol.assignment[label] == pytest.approx(hi)
        for program, sol in optimal
        for label, (lo, hi) in zip(program.labels, program.bounds)
        if lo is not None and hi is not None and lo < hi
    )
    assert any(max(sol.basis, default=-1) >= len(standard_form(program).c) for program, sol in optimal)
    for program, sol in optimal:
        exact_value, point = _exact_point(program, sol)
        assert sol.value == pytest.approx(float(exact_value), rel=1e-9, abs=1e-9)
        for label, exact in point.items():
            assert sol.assignment[label] == pytest.approx(float(exact), rel=1e-9, abs=1e-9)


def _random_lp(rng):
    """Up to 6 variables with mixed bounds (some fixed), up to 5 inequality and
    2 equality rows; integer data half the time, so that ties and degenerate
    vertices are common."""
    n, m_ub, m_eq = int(rng.integers(1, 7)), int(rng.integers(0, 6)), int(rng.integers(0, 3))
    integer = rng.random() < 0.5

    def draw(*shape):
        x = rng.integers(-3, 4, size=shape).astype(float) if integer else rng.normal(size=shape)
        return np.where(rng.random(shape) < 0.3, 0.0, x)

    bounds = []
    for _ in range(n):
        lo = float(draw())
        hi = lo + abs(float(draw()))
        bounds.append([(0.0, None), (lo, hi), (None, None), (None, hi), (lo, None)][rng.integers(5)])
    return LinearProgram(
        tuple(draw(n).tolist()), tuple(map(tuple, draw(m_ub, n).tolist())), tuple(draw(m_ub).tolist()),
        tuple(map(tuple, draw(m_eq, n).tolist())), tuple(draw(m_eq).tolist()), tuple(bounds),
        tuple(f"x{j}" for j in range(n)),
    )


def test_simplex_steps_keep_every_basic_value_within_its_bounds(monkeypatch):
    """After every pivot, in both phases, each basic value is at least 0 and
    each artificial that phase 1 left basic is at 0. A final answer can hide
    a wrong step: a ratio test that lets a held artificial rise still ends at
    an optimum of its own, by way of infeasible bases."""
    steps, held = [0], [0]
    pivot = oracle._Tableau.pivot

    def checked(t, *args):
        pivot(t, *args)
        values = t.tab[: len(t.basis), -1]
        slack = 1e-9 * max(1.0, float(np.abs(values).max(initial=0.0)))
        assert (values >= -slack).all() and (values[t.held] <= slack).all()
        steps[0] += 1
        held[0] += int(t.held.any())

    monkeypatch.setattr(oracle._Tableau, "pivot", checked)
    rng = np.random.default_rng(5)
    for _ in range(300):
        simplex_solve(_random_lp(rng))
    assert steps[0] > 500 and held[0] > 0, (steps, held)


@pytest.mark.parametrize(
    "ca, cd, pivots", [(0.5, 0.3, [1, 7]), (2.5, 0.3, [1, 5]), (0.5, 3.0, [1, 5])]
)
def test_attacker_lp_pivots_per_phase(monkeypatch, profile3, ca, cd, pivots):
    """The three-facility attacker LP takes one phase-1 pivot, for its one
    equality row, and a fixed number in phase 2."""
    phases = []
    run, pivot = oracle._Tableau.run, oracle._Tableau.pivot

    def counted_run(t, objective):
        phases.append(0)
        return run(t, objective)

    def counted_pivot(t, row, col):
        phases[-1] += 1
        pivot(t, row, col)

    monkeypatch.setattr(oracle._Tableau, "run", counted_run)
    monkeypatch.setattr(oracle._Tableau, "pivot", counted_pivot)
    assert simplex_solve(build_attacker_lp(profile3, CostParams(ca, cd))).status == "optimal"
    assert phases == pivots
    solve_attacker_lp(profile3, CostParams(ca, cd))


def _highs(linprog, program):
    """Status and value from HiGHS. Its presolve reports an LP that is
    infeasible or unbounded as infeasible, so that status is re-checked
    without presolve."""
    n = len(program.objective)
    args = dict(
        c=[-c for c in program.objective],
        A_ub=np.reshape(program.a_ub, (-1, n)) if program.a_ub else None,
        b_ub=program.b_ub or None,
        A_eq=np.reshape(program.a_eq, (-1, n)) if program.a_eq else None,
        b_eq=program.b_eq or None,
        bounds=list(program.bounds),
        method="highs",
    )
    res = linprog(**args)
    if res.status == 2:
        res = linprog(**args, options={"presolve": False})
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, (-res.fun if status == "optimal" else None)


def _highs_pool():
    """The random LPs and the random games of the HiGHS comparison; every
    second game sits 1e-9 relative above one of its band constants."""
    rng = np.random.default_rng(3)
    programs = [_random_lp(rng) for _ in range(300)]
    games = []
    for k in range(30):
        profile, params = random_game(rng)
        if k % 2:
            band = float(rng.choice(partition_by_cost(profile).bands))
            params = CostParams(params.attack_cost, band * (1.0 + 1e-9))
        games.append((profile, params))
    return programs, games


def test_simplex_agrees_with_highs():
    """Same status as HiGHS, and values within 2e-9 relative, on random LPs and
    on the commitment and attacker LPs of random games, some of them 1e-9
    relative from a band constant."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    programs, games = _highs_pool()
    for profile, params in games:
        programs += [program for _, program in _commitment_lps(profile, params)]
        programs.append(build_attacker_lp(profile, params))
        solve_attacker_lp(profile, params)
    statuses = Counter()
    for program in filter(lambda p: p.objective, programs):  # HiGHS takes no empty LP
        sol = simplex_solve(program)
        status, value = _highs(linprog, program)
        statuses[status] += 1
        assert sol.status == status, program
        if value is not None:
            assert abs(sol.value - value) <= 2e-9 * max(1.0, abs(value)), program
    assert min(statuses.values()) >= 50 and len(statuses) == 3, statuses


def _commitment_games():
    """The HiGHS comparison's games; random games with cd 1e-9 relative above
    each band constant; tied integer costs; no vulnerable facility; and 50
    facilities."""
    games = _highs_pool()[1]
    rng = np.random.default_rng(12)
    for _ in range(20):
        profile, params = random_game(rng)
        games += [(profile, CostParams(params.attack_cost, band * (1.0 + 1e-9)))
                  for band in partition_by_cost(profile).bands]
    tied_costs = [15.0, 15.0, 13.0, 13.0, 13.0, 12.0, 9.0]
    tied = FacilityProfile(10.0, tuple((f"f{t}", c) for t, c in enumerate(tied_costs)))
    games += [(tied, CostParams(ca, cd)) for ca in (0.5, 1.0, 2.0, 3.0, 4.5) for cd in (0.05, 0.4, 1.0, 3.0)]
    games.append((tied, CostParams(5.0, 0.3)))  # 15 - 5 = C0: nothing is vulnerable
    many = FacilityProfile(10.0, tuple((f"f{i}", 15.0 + i + 0.5 * (i % 3)) for i in range(50)))
    games += [(many, CostParams(1.0, cd)) for cd in (0.4, 1.3, 3.0, 40.0)]
    return games


def test_commitment_values_agree_with_simplex_and_highs():
    """verify_spe's LP values, read at the kinks, equal the n + 1 LPs'
    optima under simplex_solve and under HiGHS within 2e-9 relative."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    checked = Counter()
    for profile, params in _commitment_games():
        lps = _commitment_lps(profile, params)
        c0, ca, cd = profile.baseline_cost, params.attack_cost, params.defense_cost
        values = oracle._commitment_values(c0, ca, cd, [ce for _, ce in profile.facilities if ce - ca > c0])
        assert len(values) == len(lps)
        for value, (constant, program) in zip(values, lps):
            sol = simplex_solve(program)
            assert sol.status == "optimal"
            references = [constant + sol.value]
            if program.objective:  # HiGHS takes no empty LP
                status, highs = _highs(linprog, program)
                assert status == "optimal"
                references.append(constant + highs)
            for reference in references:
                assert abs(value - reference) <= 2e-9 * max(1.0, abs(reference)), (profile, params)
            checked[len(references)] += 1
    assert checked[1] >= 1 and checked[2] >= 400, checked


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

    # e3 left unsecured while attacked with probability 0.6: securing it saves 0.6 > cd
    idle_e3 = EffortVector.over(profile3, {**eq.effort.as_dict(), "e3": 0.0})
    res = verify_ne(profile3, params, idle_e3, AttackDistribution.over(profile3, {"e3": 0.6}))
    assert "defender: effort 0 on e3 but raising it pays (saves 0.6, cd 0.3)" in res.failures


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


def test_oracles_reject_a_nan_claim_or_tolerance(profile3):
    params = CostParams(0.5, 0.3)
    nan = float("nan")
    eq = solve_ne(profile3, params)
    assert not verify_ne(profile3, params, eq.effort, eq.attack, eps=nan).ok
    spe = solve_spe(profile3, params)
    assert verify_spe(profile3, params, spe.effort, spe.defender_utility).ok
    claim = verify_spe(profile3, params, spe.effort, nan)
    assert not claim.ok
    assert any("not attained" in f for f in claim.failures)
    assert any("beats the candidate" in f for f in claim.failures)
    assert not verify_spe(profile3, params, spe.effort, spe.defender_utility, eps=nan).ok
    # A claim strictly better than attained is beaten by no LP, and one strictly worse is
    # attained, yet with eps = nan both one-sided checks fail, whichever side the claim is on.
    for shift in (0.1, -0.1):
        res = verify_spe(profile3, params, spe.effort, spe.defender_utility + shift, eps=nan)
        assert any("not attained" in f for f in res.failures), shift
        assert any("beats the candidate" in f for f in res.failures), shift


def test_verify_ne_judges_probabilities_as_probabilities():
    """eps is a cost tolerance: a loose eps must not drop an action from the support.
    Attacking a behind full effort pays 9 against 10 for not attacking, so 4 % on a is
    not a best response, whatever eps says about costs."""
    profile = FacilityProfile(10.0, (("a", 20.0),))
    params = CostParams(1.0, 0.3)
    effort = EffortVector.over(profile, {"a": 1.0})
    attack = AttackDistribution.over(profile, {"a": 0.04})
    res = verify_ne(profile, params, effort, attack, eps=0.05)
    assert not res.ok
    assert any(f.startswith("attacker: supported action a ") for f in res.failures), res.failures
    # a NaN eps still fails every cost test: both supported actions and the effort on a
    res = verify_ne(profile, params, effort, attack, eps=float("nan"))
    assert len(res.failures) == 3, res.failures


@pytest.mark.parametrize("lam", [1.0, 1e3, 1e6, 1e9, 1e10])
def test_oracles_judge_every_cost_scale_alike(lam):
    """Scaling every cost by lam keeps the efforts and attack probabilities and scales
    the utilities, so no check may depend on the unit of cost: both oracles accept the
    closed forms at every scale, verify_ne rejects a 1e-6 effort bump on the costliest
    facility, and verify_spe a Uds 1e-6 off, relative, either way."""
    rng = np.random.default_rng(19)
    for _ in range(60):
        profile, params = scaled_game(*random_game(rng), lam)
        ne, spe = solve_ne(profile, params), solve_spe(profile, params)
        ne_res = verify_ne(profile, params, ne.effort, ne.attack)
        spe_res = verify_spe(profile, params, spe.effort, spe.defender_utility)
        assert ne_res.ok and spe_res.ok, (profile, params, ne_res.failures, spe_res.failures)
        top = max(profile.facilities, key=lambda item: item[1])[0]
        bumped = ne.effort.as_dict()
        bumped[top] += 1e-6 if bumped[top] <= 0.5 else -1e-6
        bumped = EffortVector.over(profile, bumped)
        assert not verify_ne(profile, params, bumped, ne.attack).ok, (profile, params)
        for side in (1.0, -1.0):
            claim = spe.defender_utility + side * 1e-6 * max(1.0, abs(spe.defender_utility))
            assert not verify_spe(profile, params, spe.effort, claim).ok, (profile, params, side)


def solve_attacker_lp(profile, params):
    """simplex_solve on the attacker LP, after checking attacker_lp_optimum against it
    and, when scipy is present, against HiGHS: values within 2e-9 relative, and the
    fill's point, under the LP's labels in their order, feasible within 1e-12."""
    program = build_attacker_lp(profile, params)
    sol, fill = simplex_solve(program), attacker_lp_optimum(profile, params)
    assert sol.status == fill.status == "optimal"
    references = [sol.value]
    if linprog is not None:
        references.append(_highs(linprog, program)[1])
    for reference in references:
        assert abs(fill.value - reference) <= 2e-9 * max(1.0, abs(reference)), (profile, params)
    assert tuple(fill.assignment) == program.labels
    x = np.array(list(fill.assignment.values()))
    assert all(lo is None or value >= lo for (lo, _), value in zip(program.bounds, x))
    assert (np.array(program.a_ub) @ x <= np.array(program.b_ub) + 1e-12).all(), (profile, params)
    assert abs(np.array(program.a_eq) @ x - 1.0).max() <= 1e-12
    assert abs(np.dot(program.objective, x) - fill.value) <= 1e-12 * max(1.0, abs(fill.value))
    return sol


def lp_gap(profile, params):
    """|closed-form attacker LP value - simplex value|."""
    eq = solve_ne(profile, params)
    closed = eq.attacker_utility + params.defense_cost * eq.effort.total
    return abs(closed - solve_attacker_lp(profile, params).value)


def _profile(c0, *costs):
    return FacilityProfile(c0, tuple((f"f{t}", c) for t, c in enumerate(costs)))


_KNEES = _profile(10.0, 14.0, 12.0, 14.0)  # 1/S_2 = 1/(1/4 + 1/2 + 1/4)


@pytest.mark.parametrize("profile, ca, cd, sigmas", [
    # C_e - ca = C0 exactly: the fill stops before the tied facility
    (_profile(17.0, 20.0, 19.0, 18.0), 3.0, 0.3, [0.0, 0.0, 0.0, 1.0]),
    (_profile(17.0, 20.0, 19.0, 18.0), 1.0, 0.75, [0.25, 0.375, 0.0, 0.375]),
    # a duplicate level whose mass runs out inside it, in profile order
    (_profile(10.0, 12.0, 14.0, 14.0, 14.0), 0.5, 1.5, [0.0, 0.375, 0.375, 0.25, 0.0]),
    # knees 0.25 + 0.5 + 0.25 sum to exactly 1 on the band constant 1/S_2 = 1
    (_KNEES, 0.5, partition_by_cost(_KNEES).bands[-1], [0.25, 0.5, 0.25, 0.0]),
    # facilities at and below C0 are not in the LP
    (_profile(10.0, 9.0, 14.0, 10.0), 0.5, 1.0, [0.25, 0.75]),
])
def test_attacker_lp_optimum_on_ties(profile, ca, cd, sigmas):
    """The fill's point on ties, sigma_none last, checked against both solvers."""
    solve_attacker_lp(profile, CostParams(ca, cd))
    fill = attacker_lp_optimum(profile, CostParams(ca, cd)).assignment
    assert [value for label, value in fill.items() if label.startswith("sigma_")] == sigmas


def test_attacker_lp_optimum_needs_a_cost_above_baseline():
    profile = _profile(10.0, 9.0, 10.0)
    with pytest.raises(EmptyVulnerableUniverse) as built:
        build_attacker_lp(profile, CostParams(0.5, 1.0))
    with pytest.raises(EmptyVulnerableUniverse) as filled:
        attacker_lp_optimum(profile, CostParams(0.5, 1.0))
    assert str(filled.value) == str(built.value)


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


def _accepts_the_optimum_with_vulnerable_facilities(n, cd):
    big = FacilityProfile(10.0, tuple((f"f{i}", 15.0 + i + 0.5 * (i % 3)) for i in range(n)))
    params = CostParams(1.0, cd)
    out = solve_spe(big, params)
    assert verify_spe(big, params, out.effort, out.defender_utility).ok


@pytest.mark.parametrize("cd", [0.4, 1.3, 3.0, 40.0])
def test_verify_spe_accepts_the_optimum_with_ten_vulnerable_facilities(cd):
    _accepts_the_optimum_with_vulnerable_facilities(10, cd)


@pytest.mark.parametrize("n", [30, 50])
@pytest.mark.parametrize("cd", [0.4, 1.3, 3.0, 40.0])
def test_verify_spe_accepts_the_optimum_with_many_vulnerable_facilities(cd, n):
    """The ten-facility case at 30 and 50: a slowdown or cycling at scale shows here."""
    _accepts_the_optimum_with_vulnerable_facilities(n, cd)


def test_oracles_accept_the_closed_forms_at_200_facilities():
    """Both checks are near-linear in the facility count: at 200 facilities
    they take milliseconds, where n + 1 dense LPs took seconds."""
    costs = np.random.default_rng(200).uniform(12.0, 18.0, size=200)
    profile = FacilityProfile(10.0, tuple((f"f{t}", float(c)) for t, c in enumerate(costs)))
    params = CostParams(1.0, 0.05)
    ne, spe = solve_ne(profile, params), solve_spe(profile, params)
    start = time.process_time()
    ne_res = verify_ne(profile, params, ne.effort, ne.attack)
    spe_res = verify_spe(profile, params, spe.effort, spe.defender_utility)
    elapsed = time.process_time() - start
    assert ne_res.ok and spe_res.ok, (ne_res.failures, spe_res.failures)
    assert elapsed < 0.5


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

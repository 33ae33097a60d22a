"""Independent checking machinery: a small LP solver and equilibrium verifiers.

Everything here is deliberately first-principles — enumeration and a dense
two-phase simplex — so it can serve as an oracle against the closed-form
solvers without sharing their formulas. The commitment check solves one LP per
attacker pure response on that simplex, so it is exact at any facility count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    CHECK_EPS,
    PHASE1_TOL,
    PIVOT_TOL,
    TIE_TOL,
    CostParams,
    EffortVector,
    FacilityId,
    FacilityProfile,
)

_MAX_PIVOTS = 10**6  # pivot budget of one simplex_solve call, over both phases


class SimplexIterationLimit(RuntimeError):
    """Pivot budget exhausted before reaching optimality."""


@dataclass(frozen=True)
class LinearProgram:
    """A maximization LP: max c.x s.t. a_ub x <= b_ub, a_eq x = b_eq, bounds per variable.

    Bounds are (lower, upper) pairs with None for unbounded ends. ``labels``
    names the variables for reporting.
    """

    objective: tuple[float, ...]
    a_ub: tuple[tuple[float, ...], ...]
    b_ub: tuple[float, ...]
    a_eq: tuple[tuple[float, ...], ...]
    b_eq: tuple[float, ...]
    bounds: tuple[tuple[Optional[float], Optional[float]], ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.objective)
        if len(self.bounds) != n or len(self.labels) != n:
            raise ValueError("objective / bounds / labels length mismatch")
        for row in self.a_ub:
            if len(row) != n:
                raise ValueError("inequality row width mismatch")
        for row in self.a_eq:
            if len(row) != n:
                raise ValueError("equality row width mismatch")
        if len(self.a_ub) != len(self.b_ub) or len(self.a_eq) != len(self.b_eq):
            raise ValueError("row/rhs count mismatch")


@dataclass(frozen=True)
class StandardForm:
    """Equality-form rewrite of a LinearProgram with all variables >= 0.

    ``c`` is the minimization objective over standardized columns. Original
    variable j is recovered as offset_j + sum(coef * x[col]) over recover[j];
    this mapping is exact, so a rational re-solve of a basis reproduces the
    solver's answer bit-for-bit up to the final float rounding.
    """

    c: tuple[float, ...]
    rows: tuple[tuple[float, ...], ...]
    rhs: tuple[float, ...]
    recover: tuple[tuple[float, tuple[tuple[int, float], ...]], ...]


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[float]
    assignment: Optional[dict[str, float]]
    basis: tuple[int, ...] = ()


def standard_form(lp: LinearProgram) -> StandardForm:
    """Rewrite as min c.x, A x = b, x >= 0 (free vars split, bounds shifted, slacks added)."""
    ncols = 0
    recover: list[tuple[float, tuple[tuple[int, float], ...]]] = []
    extra_ub: list[tuple[int, float]] = []  # (original var, upper) rows to add after shifting
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is None:
            # free: x = x+ - x-
            recover.append((0.0, ((ncols, 1.0), (ncols + 1, -1.0))))
            ncols += 2
            if hi is not None:
                extra_ub.append((j, hi))
        else:
            recover.append((lo, ((ncols, 1.0),)))
            ncols += 1
            if hi is not None:
                extra_ub.append((j, hi))

    def expand(row: Sequence[float]) -> tuple[list[float], float]:
        """Rewrite an original-variable row over standardized columns; returns (row, rhs shift)."""
        out = [0.0] * ncols
        shift = 0.0
        for j, coef in enumerate(row):
            if coef == 0.0:
                continue
            offset, terms = recover[j]
            shift += coef * offset
            for col, sign in terms:
                out[col] += coef * sign
        return out, shift

    rows: list[list[float]] = []
    rhs: list[float] = []
    kinds: list[str] = []
    for row, b in zip(lp.a_ub, lp.b_ub):
        r, shift = expand(row)
        rows.append(r)
        rhs.append(b - shift)
        kinds.append("ub")
    for j, hi in extra_ub:
        unit = [0.0] * len(lp.objective)
        unit[j] = 1.0
        r, shift = expand(unit)
        rows.append(r)
        rhs.append(hi - shift)
        kinds.append("ub")
    for row, b in zip(lp.a_eq, lp.b_eq):
        r, shift = expand(row)
        rows.append(r)
        rhs.append(b - shift)
        kinds.append("eq")

    nslack = sum(1 for k in kinds if k == "ub")
    width = ncols + nslack
    slack_at = ncols
    full_rows: list[tuple[float, ...]] = []
    for r, kind in zip(rows, kinds):
        padded = r + [0.0] * nslack
        if kind == "ub":
            padded[slack_at] = 1.0
            slack_at += 1
        full_rows.append(tuple(padded))

    c_min = [0.0] * width
    for j, coef in enumerate(lp.objective):
        _, terms = recover[j]
        for col, sign in terms:
            c_min[col] += -coef * sign  # minimize the negated objective
    return StandardForm(tuple(c_min), tuple(full_rows), tuple(rhs), tuple(recover))


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and tab[i, col] != 0.0:
            tab[i] -= tab[i, col] * tab[row]
    basis[row] = col


def _run_phase(
    tab: np.ndarray,
    basis: list[int],
    allowed: np.ndarray,
    budget: list[int],
) -> str:
    """Bland-rule simplex iterations on a tableau whose last row is the objective.

    The leaving row has the strictly smallest ratio; Bland's rule breaks exact
    ties only. Treating near-minimal ratios as ties could pivot on a row that is
    not the minimum and leave the basis slightly infeasible.
    """
    m = tab.shape[0] - 1
    while True:
        if budget[0] <= 0:
            raise SimplexIterationLimit("pivot budget exhausted")
        budget[0] -= 1
        obj = tab[m]
        entering = -1
        for j in range(tab.shape[1] - 1):
            if allowed[j] and obj[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        leaving = -1
        best_ratio = math.inf
        for i in range(m):
            a = tab[i, entering]
            if a > PIVOT_TOL:
                ratio = tab[i, -1] / a
                if ratio < best_ratio or (ratio == best_ratio and basis[i] < basis[leaving]):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(tab, basis, leaving, entering)


def simplex_solve(lp: LinearProgram) -> LpSolution:
    """Solve a LinearProgram with a dense two-phase simplex (Bland's rule).

    Returns an LpSolution whose status is "optimal", "infeasible" or
    "unbounded"; raises SimplexIterationLimit if the pivot budget runs out.
    The basis of the final tableau (standardized column indices) is reported
    for independent re-solving.
    """
    sf = standard_form(lp)
    m = len(sf.rows)
    n = len(sf.c)
    A = np.array(sf.rows, dtype=float).reshape(m, n)
    b = np.array(sf.rhs, dtype=float)
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1: artificial variable per row, minimize their sum.
    width = n + m
    tab = np.zeros((m + 1, width + 1))
    tab[:m, :n] = A
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    basis = list(range(n, n + m))
    tab[m, n : n + m] = 1.0
    for i in range(m):
        tab[m] -= tab[i]
    allowed = np.ones(width, dtype=bool)
    budget = [_MAX_PIVOTS]
    status = _run_phase(tab, basis, allowed, budget)
    if status != "optimal" or tab[m, -1] < -PHASE1_TOL:
        # phase-1 objective is -(sum of artificials); feasible iff it reaches 0
        return LpSolution("infeasible", None, None)

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = list(range(m))
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if abs(tab[i, j]) > PIVOT_TOL), None)
            if piv is None:
                keep.remove(i)
            else:
                _pivot(tab, basis, i, piv)
    if len(keep) < m:
        rows = keep + [m]
        tab = tab[rows]
        basis = [basis[i] for i in keep]
        m = len(keep)

    # Phase 2 on the original (minimization) objective; artificials barred.
    allowed[n:] = False
    tab[m, :] = 0.0
    tab[m, :n] = sf.c
    for i in range(m):
        cb = tab[m, basis[i]]
        if cb != 0.0:
            tab[m] -= cb * tab[i]
    status = _run_phase(tab, basis, allowed, budget)
    if status == "unbounded":
        return LpSolution("unbounded", None, None)

    x_std = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x_std[basis[i]] = tab[i, -1]
    assignment = {}
    value = 0.0
    for j, label in enumerate(lp.labels):
        offset, terms = sf.recover[j]
        xj = offset + sum(coef * x_std[col] for col, coef in terms)
        assignment[label] = xj
        value += lp.objective[j] * xj
    return LpSolution("optimal", value, assignment, tuple(basis))


# ---------------------------------------------------------------------------
# Attacker best response by enumeration


@dataclass(frozen=True)
class BestResponseTable:
    """Pure-action attacker payoffs against a fixed effort vector.

    ``utilities`` covers every facility plus None for not attacking;
    ``best_actions`` is the argmax set, ties within TIE_TOL.
    """

    utilities: tuple[tuple[Optional[FacilityId], float], ...]
    best_value: float
    best_actions: tuple[Optional[FacilityId], ...]


def attacker_best_response_enum(
    profile: FacilityProfile,
    params: CostParams,
    effort: EffortVector,
) -> BestResponseTable:
    """Enumerate attacker payoffs against ``effort``: attack e nets the expected
    usage cost minus the attack cost; not attacking nets the baseline cost."""
    c0 = profile.baseline_cost
    rows: list[tuple[Optional[FacilityId], float]] = []
    for fac, ce in profile.facilities:
        rho = effort.get(fac)
        rows.append((fac, rho * c0 + (1.0 - rho) * ce - params.attack_cost))
    rows.append((None, c0))
    best = max(v for _, v in rows)
    scale = max(1.0, abs(best))
    winners = tuple(a for a, v in rows if v >= best - TIE_TOL * scale)
    return BestResponseTable(tuple(rows), best, winners)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failures: tuple[str, ...]


def verify_ne(
    profile: FacilityProfile,
    params: CostParams,
    effort: EffortVector,
    attack,
    eps: float = CHECK_EPS,
) -> VerificationResult:
    """Check mutual best responses of (effort, attack) up to eps.

    Attacker side: every action carrying more than eps probability must come
    within eps of the best pure payoff against the effort vector. Defender
    side: the marginal value of effort on each facility, (C0-Ce)*sigma_e + cd,
    must have the sign its effort level dictates (>= 0 at zero effort, <= 0 at
    full effort, ~ 0 in the interior).
    """
    failures: list[str] = []
    table = attacker_best_response_enum(profile, params, effort)
    utilities = dict(table.utilities)
    support: list[Optional[FacilityId]] = [
        fac for fac, _ in profile.facilities if attack.prob(fac) > eps
    ]
    if attack.no_attack > eps:
        support.append(None)
    for action in support:
        if utilities[action] < table.best_value - eps:
            name = action if action is not None else "no-attack"
            failures.append(
                f"attacker: supported action {name} pays {utilities[action]!r}"
                f" vs best {table.best_value!r}"
            )
    c0 = profile.baseline_cost
    for fac, ce in profile.facilities:
        rho = effort.get(fac)
        coef = (c0 - ce) * attack.prob(fac) + params.defense_cost
        if rho <= eps:
            if coef < -eps:
                failures.append(f"defender: effort 0 on {fac} but raising it pays (coef {coef!r})")
        elif rho >= 1.0 - eps:
            if coef > eps:
                failures.append(f"defender: effort 1 on {fac} but lowering it pays (coef {coef!r})")
        elif abs(coef) > eps:
            failures.append(f"defender: interior effort on {fac} not indifferent (coef {coef!r})")
    return VerificationResult(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# Exact verification of committed-defense (leader) optimality


def defender_utility_vs_br(
    profile: FacilityProfile,
    params: CostParams,
    effort: EffortVector,
) -> float:
    """Defender utility when the attacker observes the effort and best-responds.

    The payoffs and ties are those of ``attacker_best_response_enum``; when
    abstaining is among the best responses the attacker abstains, the
    defender-favorable selection used by the sequential solver. Otherwise
    the defender bears the usage cost of a best attack, its payoff plus ca.
    """
    spend = params.defense_cost * effort.total
    table = attacker_best_response_enum(profile, params, effort)
    if None in table.best_actions:
        return -profile.baseline_cost - spend
    return -(table.best_value + params.attack_cost) - spend


def verify_spe(
    profile: FacilityProfile,
    params: CostParams,
    effort: EffortVector,
    defender_utility: float,
    eps: float = CHECK_EPS,
) -> VerificationResult:
    """Check leader optimality of a claimed effort/utility pair exactly.

    The multiple-LPs method (Conitzer & Sandholm, "Computing the optimal
    strategy to commit to", EC 2006): for each attacker pure response, one LP
    finds the best commitment against which that response is a best one, ties
    going to the defender. The efforts are rho_f in [0, 1] over the vulnerable
    facilities (Ce - ca > C0); other effort is pinned at 0, because attacking
    such a facility never beats abstaining. The claimed utility must (a) be
    attained by the claimed effort against a best-responding attacker and
    (b) not be beaten by the value of any feasible LP by more than eps.
    """
    c0, ca, cd = profile.baseline_cost, params.attack_cost, params.defense_cost
    vulnerable = [(fac, ce) for fac, ce in profile.facilities if ce - ca > c0]
    failures: list[str] = []

    attained = defender_utility_vs_br(profile, params, effort)
    if attained < defender_utility - eps:
        failures.append(
            f"claimed utility {defender_utility!r} not attained by the claimed effort"
            f" (re-evaluates to {attained!r})"
        )

    n = len(vulnerable)
    gains = [ce - c0 for _, ce in vulnerable]  # effort coefficients C_f - C0
    labels = tuple(f"rho_{fac}" for fac, _ in vulnerable)

    def unit(k: int, coef: float) -> list[float]:
        out = [0.0] * n
        out[k] = coef
        return out

    # Per response: name, objective constant, objective, rows and rhs of a_ub.
    # Abstaining is a best response iff rho_f (C_f - C0) >= C_f - C0 - ca for all f.
    programs = [("no-attack", -c0, [-cd] * n, [unit(f, -g) for f, g in enumerate(gains)],
                 [ca - g for g in gains])]
    for e, (fac, ce) in enumerate(vulnerable):
        # Attacking e is one iff it pays at least attacking any other f, and abstaining.
        rows, rhs = [], []
        for f, (_, cf) in enumerate(vulnerable):
            if f != e:
                rows.append(unit(e, gains[e]))
                rows[-1][f] = -gains[f]
                rhs.append(ce - cf)
        rows.append(unit(e, gains[e]))
        rhs.append(gains[e] - ca)
        objective = [x - cd for x in unit(e, gains[e])]
        programs.append((f"attack {fac}", -ce, objective, rows, rhs))

    for response, constant, objective, rows, rhs in programs:
        lp = LinearProgram(
            tuple(objective), tuple(map(tuple, rows)), tuple(rhs), (), (), ((0.0, 1.0),) * n, labels
        )
        sol = simplex_solve(lp)
        if sol.status == "optimal" and constant + sol.value > defender_utility + eps:
            failures.append(
                f"committing to induce {response} beats the candidate:"
                f" {constant + sol.value!r} > {defender_utility!r} + {eps!r}"
            )
    return VerificationResult(not failures, tuple(failures))

"""Independent checking machinery: a small LP solver and equilibrium verifiers.

Everything here is deliberately first-principles — enumeration, a textbook
two-phase simplex, the attacker LP filled piece by piece in order of slope, and
one LP per attacker response for commitment, each maximized by its kinks in one
variable — so it can serve as an oracle against the closed-form solvers without
sharing their formulas. The simplex is the tests' reference for the other two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    CHECK_EPS,
    PHASE1_TOL,
    PIVOT_TOL,
    PROB_SLACK,
    CostParams,
    EffortVector,
    EmptyVulnerableUniverse,
    FacilityId,
    FacilityProfile,
    not_above,
    on_boundary,
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
    """Equality-form rewrite of a LinearProgram over nonnegative columns.

    The problem is min c.x s.t. rows x = rhs, x >= 0. The rows are the LP's
    inequality rows, then one row x_j <= hi_j for each variable with both
    bounds finite, then the LP's equality rows. Columns are the shifted,
    reflected or split original variables followed by one slack per
    inequality row. Original variable j is recovered as offset_j +
    sum(coef * x[col]) over recover[j]; this mapping is exact. A solution's
    ``basis`` fixes its point: holding the nonbasic columns at 0, a rational
    re-solve of the basis columns reproduces the solver's answer up to the
    final float rounding.
    """

    c: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    recover: tuple[tuple[float, tuple[tuple[int, float], ...]], ...]


@dataclass(frozen=True)
class LpSolution:
    """``basis`` lists the basic standardized column of each row; an entry
    len(StandardForm.c) + i is row i's artificial, which a feasible answer
    holds at 0."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[float]
    assignment: Optional[dict[str, float]]
    basis: tuple[int, ...] = ()


def standard_form(lp: LinearProgram) -> StandardForm:
    """Rewrite as min c.x, A x = b, x >= 0 (a finite upper bound beside a finite
    lower one becomes a row, lower bounds are shifted, an upper-only variable
    reflected, free variables split, slacks added)."""
    source: list[int] = []  # original variable of each column
    sign: list[float] = []
    offsets: list[float] = []
    recover = []
    for j, (lo, hi) in enumerate(lp.bounds):
        col = len(source)
        if lo is not None:  # x = lo + x'
            source.append(j)
            sign.append(1.0)
            offsets.append(lo)
            recover.append((lo, ((col, 1.0),)))
        elif hi is not None:  # x = hi - x'
            source.append(j)
            sign.append(-1.0)
            offsets.append(hi)
            recover.append((hi, ((col, -1.0),)))
        else:  # free: x = x+ - x-
            source += [j, j]
            sign += [1.0, -1.0]
            offsets.append(0.0)
            recover.append((0.0, ((col, 1.0), (col + 1, -1.0))))

    n, ncols = len(lp.objective), len(source)
    capped = [j for j, (lo, hi) in enumerate(lp.bounds) if lo is not None and hi is not None]
    m_ub = len(lp.a_ub) + len(capped)
    m = m_ub + len(lp.a_eq)
    width = ncols + m_ub
    a = np.array((*lp.a_ub, *np.eye(n)[capped], *lp.a_eq), dtype=float).reshape(m, n)
    b = np.array((*lp.b_ub, *(lp.bounds[j][1] for j in capped), *lp.b_eq), dtype=float)
    objective = np.array(lp.objective, dtype=float)
    if any(offsets):
        b -= a @ np.array(offsets)
    if ncols > n or -1.0 in sign:
        a = a[:, source] * sign
        objective = objective[source] * sign
    rows = np.zeros((m, width))
    rows[:, :ncols] = a
    rows.ravel()[ncols : m_ub * (width + 1) : width + 1] = 1.0  # slack i at (i, ncols + i)
    c = np.zeros(width)
    c[:ncols] = -objective  # minimize the negated objective
    return StandardForm(c, rows, b, tuple(recover))


class _Tableau:
    """A two-phase simplex tableau (Dantzig 1951; Chvatal, *Linear
    Programming*, 1983, ch. 2-3).

    ``tab`` holds the m rows, then the reduced costs of the objective and,
    while phase 1 runs, of the sum of the artificials; its last column holds
    the basic values and minus each objective value. Nonbasic columns sit at
    0. Artificials have no column: row i's is basis entry width + i, and once
    it leaves the basis it never re-enters. ``held`` marks the rows whose
    artificial is still basic after phase 1; phase 2 holds it at 0.
    """

    def __init__(self, tab: np.ndarray, basis: np.ndarray) -> None:
        self.tab = tab
        self.basis = basis
        self.held = np.zeros(len(basis), dtype=bool)
        self.steps_left = _MAX_PIVOTS

    def pivot(self, row: int, col: int) -> None:
        """Rank-1 update of the rows with a nonzero entry in ``col``."""
        tab = self.tab
        prow = tab[row] / tab[row, col]
        column = tab[:, col]
        hit = column.nonzero()[0]
        tab[hit] -= np.multiply.outer(column[hit], prow)
        tab[row] = prow
        self.basis[row] = col
        self.held[row] = False

    def run(self, objective: int) -> str:
        """Bland-rule iterations on row ``objective`` until optimal or unbounded.

        The entering column is the lowest-index one with a negative reduced
        cost. The leaving row has the exact minimum ratio of basic value to
        entering entry, over the rows where that entry is positive and the
        held rows where it is negative, whose artificial would otherwise rise
        above 0. Bland's rule (smallest basic column index) breaks exact ties
        only. Treating near-minimal ratios as ties could pivot on a row that
        is not the minimum and leave the basis slightly infeasible.
        """
        tab, basis, held = self.tab, self.basis, self.held
        m = len(basis)
        cost, rhs = tab[objective, :-1], tab[:m, -1]
        ratio = np.empty(m + 1)  # ratio[m] stays inf: the step of an LP without rows
        while True:
            if self.steps_left <= 0:
                raise SimplexIterationLimit("pivot budget exhausted")
            self.steps_left -= 1
            improving = (cost < -PIVOT_TOL).nonzero()[0]
            if not len(improving):
                return "optimal"
            entering = improving[0]
            a = tab[:m, entering]
            ratio.fill(math.inf)
            np.divide(rhs, a, out=ratio[:m], where=(a > PIVOT_TOL) | (held & (a < -PIVOT_TOL)))
            leaving = ratio.argmin()
            step = ratio[leaving]
            if step == math.inf:
                return "unbounded"
            ties = (ratio == step).nonzero()[0]
            if len(ties) > 1:
                leaving = ties[basis[ties].argmin()]
            self.pivot(leaving, entering)


def simplex_solve(lp: LinearProgram) -> LpSolution:
    """Solve a LinearProgram with a two-phase simplex.

    A ``<=`` row with a nonnegative right-hand side starts with its slack
    basic and every other row with an artificial, so phase 1 runs only if
    some row needs one. Returns an LpSolution whose status is "optimal",
    "infeasible" or "unbounded"; raises SimplexIterationLimit if the pivot
    budget runs out. The final basis is reported for independent re-solving.
    """
    sf = standard_form(lp)
    m, width = sf.rows.shape
    m_ub = m - len(lp.a_eq)
    tab = np.zeros((m + 2, width + 1))
    tab[:m, :width] = sf.rows
    tab[:m, -1] = sf.rhs
    tab[m, :width] = sf.c  # the slacks are basic at cost 0, so these are reduced costs
    artificial = sf.rhs < 0.0
    tab[artificial.nonzero()[0]] *= -1.0
    artificial[m_ub:] = True
    basis = np.arange(width - m_ub, width - m_ub + m) + m_ub * artificial
    t = _Tableau(tab, basis)
    if np.count_nonzero(artificial):
        # Phase 1 minimizes the sum of the artificials.
        tab[m + 1] = -tab[artificial.nonzero()[0]].sum(axis=0)
        t.run(m + 1)
        if tab[m + 1, -1] < -PHASE1_TOL:
            return LpSolution("infeasible", None, None)
        t.held = basis >= width
    t.tab = tab[: m + 1]  # phase 2 drops the phase-1 row
    if t.run(m) == "unbounded":
        return LpSolution("unbounded", None, None)

    x_std = np.zeros(width + m)  # the columns, then a slot per row for its artificial
    x_std[basis] = tab[:m, -1]
    x_std = x_std[:width].tolist()
    assignment = {}
    value = 0.0
    for j, label in enumerate(lp.labels):
        offset, terms = sf.recover[j]
        xj = offset + sum(coef * x_std[col] for col, coef in terms)
        assignment[label] = xj
        value += lp.objective[j] * xj
    return LpSolution("optimal", value, assignment, tuple(basis.tolist()))


def attacker_lp_optimum(profile: FacilityProfile, params: CostParams) -> LpSolution:
    """An optimum of ``normalform.build_attacker_lp``, read off its structure in O(n log n).

    Facility e adds v_e = min((C_e - ca)*sigma_e, (C0 - ca)*sigma_e + cd): slope C_e - ca
    up to its knee sigma_e = cd/(C_e - C0), then C0 - ca. Mass on sigma_none pays C0, so
    the LP is a fractional knapsack (Dantzig, 1957): only the first pieces with
    C_e - ca > C0 beat sigma_none, and they fill by descending C_e (ties in profile
    order) until the mass runs out. The labels are the LP's, in its order; no basis.
    """
    c0, ca, cd = profile.baseline_cost, params.attack_cost, params.defense_cost
    increased = [(fac, ce) for fac, ce in profile.facilities if ce > c0]
    if not increased:
        raise EmptyVulnerableUniverse("no facility has post-attack cost above baseline")
    sigma = dict.fromkeys((fac for fac, _ in increased), 0.0)
    left = 1.0
    for fac, ce in sorted(increased, key=lambda item: item[1], reverse=True):  # stable
        if ce - ca <= c0:
            break
        sigma[fac] = min(left, cd / (ce - c0))
        left -= sigma[fac]
    envelope = [min((ce - ca) * sigma[fac], (c0 - ca) * sigma[fac] + cd) for fac, ce in increased]
    assignment = {f"sigma_{fac}": s for fac, s in sigma.items()}
    assignment["sigma_none"] = left
    assignment.update((f"v_{fac}", v) for (fac, _), v in zip(increased, envelope))
    return LpSolution("optimal", sum(envelope, c0 * left), assignment)


# ---------------------------------------------------------------------------
# Attacker best response by enumeration


@dataclass(frozen=True)
class BestResponseTable:
    """Pure-action attacker payoffs against a fixed effort vector.

    ``utilities`` covers every facility plus None for not attacking;
    ``best_actions`` is the argmax set, ties within BOUNDARY_TOL (``not_above``).
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
    winners = tuple(a for a, v in rows if not_above(best, v))
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

    Attacker side: every action carrying more than PROB_SLACK probability must
    come within eps of the best pure payoff against the effort vector. Defender
    side: what effort on facility e saves, (Ce-C0)*sigma_e, must meet its cost
    cd as the effort level dictates (at most cd at effort 0, at least cd at 1,
    both within PROB_SLACK; ~ cd in the interior). eps judges payoffs and costs
    only, relative to their size (``not_above``, ``on_boundary``); probabilities
    are cut at PROB_SLACK whatever eps. A NaN, in eps or a payoff, fails every test.
    """
    failures: list[str] = []
    table = attacker_best_response_enum(profile, params, effort)
    utilities = dict(table.utilities)
    support: list[Optional[FacilityId]] = [
        fac for fac, _ in profile.facilities if attack.prob(fac) > PROB_SLACK
    ]
    if attack.no_attack > PROB_SLACK:
        support.append(None)
    for action in support:
        if not not_above(table.best_value, utilities[action], eps):
            name = action if action is not None else "no-attack"
            failures.append(
                f"attacker: supported action {name} pays {utilities[action]!r}"
                f" vs best {table.best_value!r}"
            )
    c0, cd = profile.baseline_cost, params.defense_cost
    for fac, ce in profile.facilities:
        rho = effort.get(fac)
        saved = (ce - c0) * attack.prob(fac)
        if rho <= PROB_SLACK:
            if not not_above(saved, cd, eps):
                failures.append(f"defender: effort 0 on {fac} but raising it pays (saves {saved!r}, cd {cd!r})")
        elif rho >= 1.0 - PROB_SLACK:
            if not not_above(cd, saved, eps):
                failures.append(f"defender: effort 1 on {fac} but lowering it pays (saves {saved!r}, cd {cd!r})")
        elif not on_boundary(saved, cd, eps):
            failures.append(f"defender: interior effort on {fac} not indifferent (saves {saved!r}, cd {cd!r})")
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


def _commitment_values(c0: float, ca: float, cd: float, costs) -> list[float]:
    """The LP values of ``verify_spe``, abstention first, for the vulnerable post-attack
    ``costs``: phi at every kink in ascending order, from suffix sums of 1/g_f, then its
    running maximum; O(n log n) for all n + 1 LPs."""
    ascending = np.sort(costs)
    n = len(ascending)
    inverse = np.append(np.cumsum(1.0 / (ascending[::-1] - c0))[::-1], 0.0)  # 1/g_f over positions k..n-1
    t = np.append(c0 + ca, ascending)  # every kink, ascending
    above = n - ascending.searchsorted(t, side="right")  # how many C_f exceed t
    best = np.maximum.accumulate(-t - cd * (above - (t - c0) * inverse[n - above]))  # running max of phi
    return [-c0 - cd * (n - ca * inverse[0]), *best[ascending.searchsorted(costs, side="right")].tolist()]


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
    going to the defender. Its variables are the efforts rho_f on the vulnerable
    facilities (Ce - ca > C0); other effort stays 0. With g = C - C0, abstaining
    is a best response iff every rho_f >= 1 - ca/g_f, so that LP pays
    -C0 - cd*sum_f (1 - ca/g_f). Attacking e is one iff its usage cost
    t = C_e - g_e*rho_e is at least C0 + ca and every C_f - g_f*rho_f: that LP is
    the maximum of phi(t) = -t - cd*sum_f max(0, (C_f - t)/g_f) over [C0 + ca, C_e],
    which is concave and piecewise linear, so it lies at C0 + ca or at a kink C_f.
    The claimed utility must (a) be attained by the claimed effort against a
    best-responding attacker and (b) not be beaten by any LP by more than eps,
    relative (``not_above``); a NaN claim or eps fails both.
    """
    c0, ca, cd = profile.baseline_cost, params.attack_cost, params.defense_cost
    vulnerable = [(fac, ce) for fac, ce in profile.facilities if ce - ca > c0]
    failures: list[str] = []

    attained = defender_utility_vs_br(profile, params, effort)
    if not not_above(defender_utility, attained, eps):
        failures.append(
            f"claimed utility {defender_utility!r} not attained by the claimed effort"
            f" (re-evaluates to {attained!r})"
        )

    values = _commitment_values(c0, ca, cd, [ce for _, ce in vulnerable])
    responses = ["no-attack", *(f"attack {fac}" for fac, _ in vulnerable)]
    for response, value in zip(responses, values):
        if not not_above(value, defender_utility, eps):
            failures.append(
                f"committing to induce {response} beats the candidate:"
                f" {value!r} > {defender_utility!r} by more than {eps!r} relative"
            )
    return VerificationResult(not failures, tuple(failures))

"""Command-line front end.

Subcommands: solve-ne, solve-spe, compare, regimes, verify, simulate. All read
a scenario file; numeric output uses 9 significant digits so repeated runs are
byte-identical. Exit codes: 0 success, 1 input error, 2 boundary parameters
handled by a fallback, 3 verification failure or internal inconsistency. A
reader that closes stdout early (``facsec regimes ... | head``) ends the
output, with exit code 0.

Each subcommand imports the solver layers it calls, so a call loads only what
its command and its scenario use.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Optional, Sequence

from .model import BOUNDARY_TOL, CHECK_EPS, EffortVector, expected_utilities, on_boundary
from .scenario import Scenario, load_scenario

_NO_VULNERABLE = "no vulnerable facilities; no attack"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on bad usage, not argparse's 2
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(x, ".9g")


def _pairs(items) -> str:
    return " ".join(f"{key}={_fmt(value)}" for key, value in items)


def _open_out(path: str):
    try:
        return open(path, "w", newline="")
    except OSError as err:  # in the form load_scenario reports an unreadable --scenario
        raise _UsageError(f"{path}: {err.strerror or err}") from None


def _emit(args: argparse.Namespace, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if getattr(args, "out", None):
        with _open_out(args.out) as fh:
            fh.write(text)


def _write_csv(args: argparse.Namespace, write: Callable) -> None:
    if getattr(args, "out", None):
        with _open_out(args.out) as fh:
            write(fh)
    else:
        write(sys.stdout)


def _lp_report(sol) -> list[str]:
    sigmas = [
        (label.removeprefix("sigma_"), value)
        for label, value in sol.assignment.items()
        if label.startswith("sigma_")
    ]
    return [f"lp_value: {_fmt(sol.value)}", f"attack: {_pairs(sigmas)}"]


def _cmd_solve_ne(scenario: Scenario, args: argparse.Namespace) -> int:
    from .normalform import BoundaryParameters, solve_ne

    try:
        eq = solve_ne(scenario.profile, scenario.params)
    except BoundaryParameters:
        from .oracle import attacker_lp_optimum

        lines = ["regime: boundary",
                 "note: parameters on a regime boundary; reporting the attacker LP optimum"]
        _emit(args, lines + _lp_report(attacker_lp_optimum(scenario.profile, scenario.params)))
        return 2
    lines = [f"regime: {eq.regime.label}"]
    if eq.regime.index == 0:
        lines.append(_NO_VULNERABLE)
    lines += [
        f"effort: {_pairs(eq.effort.efforts)}",
        f"attack: {_pairs(eq.attack.facility_probs)} none={_fmt(eq.attack.no_attack)}",
        f"Ud: {_fmt(eq.defender_utility)}",
        f"Ua: {_fmt(eq.attacker_utility)}",
    ]
    _emit(args, lines)
    return 0


def _cmd_solve_spe(scenario: Scenario, args: argparse.Namespace) -> int:
    from .normalform import BoundaryParameters
    from .sequential import solve_spe

    try:
        out = solve_spe(scenario.profile, scenario.params)
    except BoundaryParameters:
        _emit(args, ["regime: boundary",
                     "note: parameters on a regime boundary; no closed-form commitment solution"])
        return 2
    lines = [f"regime: {out.regime.label}"]
    if out.regime.index == 0:
        lines.append(_NO_VULNERABLE)
    lines.append(f"deterred: {'yes' if out.on_path.deterred else 'no'}")
    lines.append(f"effort: {_pairs(out.effort.efforts)}")
    if not out.on_path.deterred:
        lines.append(f"admissible: {' '.join(out.on_path.admissible)}")
    witness = out.on_path.witness
    lines += [
        f"attack: {_pairs(witness.facility_probs)} none={_fmt(witness.no_attack)}",
        f"Uds: {_fmt(out.defender_utility)}",
        f"Uas: {_fmt(out.attacker_utility)}",
    ]
    _emit(args, lines)
    return 0


def _cmd_compare(scenario: Scenario, args: argparse.Namespace) -> int:
    from .analysis import InternalInconsistency, compare_games
    from .normalform import BoundaryParameters

    try:
        cmp = compare_games(scenario.profile, scenario.params)
    except BoundaryParameters as err:
        _emit(args, ["region: boundary", f"note: {err}"])
        return 2
    except InternalInconsistency as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    lines = [
        f"region: {cmp.region.value}, gap: {_fmt(cmp.utility_gap)}",
        f"Ud: {_fmt(cmp.ne.defender_utility)}",
        f"Uds: {_fmt(cmp.spe.defender_utility)}",
        f"Ua: {_fmt(cmp.ne.attacker_utility)}",
        f"Uas: {_fmt(cmp.spe.attacker_utility)}",
        f"advantage: {'yes' if cmp.first_mover_advantage else 'no'}",
    ]
    _emit(args, lines)
    return 0


def _parse_grid(text: str):
    try:
        ca_part, cd_part = text.split(",")
        ca0, ca1, n = ca_part.split(":")
        cd0, cd1, m = cd_part.split(":")
        return (float(ca0), float(ca1)), (float(cd0), float(cd1)), (int(n), int(m))
    except ValueError:
        raise _UsageError(f"bad --grid {text!r}; expected ca0:ca1:n,cd0:cd1:m") from None


def _cmd_regimes(scenario: Scenario, args: argparse.Namespace) -> int:
    from .analysis import regime_sweep, write_sweep_csv

    ca_range, cd_range, steps = _parse_grid(args.grid)
    cells = regime_sweep(scenario.profile, ca_range, cd_range, steps)
    _write_csv(args, lambda fh: write_sweep_csv(cells, fh))
    return 0


def _cmd_verify(scenario: Scenario, args: argparse.Namespace) -> int:
    if not 0.0 <= args.eps < math.inf:
        raise _UsageError(f"bad --eps {args.eps!r}; expected a finite number at least 0")
    if not math.isfinite(args.perturb):
        raise _UsageError(f"bad --perturb {args.perturb!r}; expected a finite number")
    from .normalform import BoundaryParameters, solve_ne
    from .oracle import attacker_lp_optimum, verify_ne, verify_spe
    from .sequential import solve_spe

    profile, params = scenario.profile, scenario.params
    lp_sol = attacker_lp_optimum(profile, params)
    try:
        ne = solve_ne(profile, params)
        spe = solve_spe(profile, params)
    except BoundaryParameters:
        lines = ["note: parameters on a regime boundary; closed-form checks skipped"]
        lines += _lp_report(lp_sol)
        _emit(args, lines)
        return 2

    lines: list[str] = []
    effort = ne.effort
    claimed_spe_ud = spe.defender_utility
    if args.perturb:
        lines.append(f"note: perturbing candidate solutions by {_fmt(args.perturb)}")
        target = [fac for fac, ce in profile.facilities if ce > profile.baseline_cost][-1]
        bumped = effort.as_dict()
        bumped[target] = min(1.0, bumped[target] + args.perturb)
        effort = EffortVector.over(profile, bumped)
        claimed_spe_ud += args.perturb * max(1.0, abs(claimed_spe_ud))  # relative; effort stays absolute

    tol = max(args.eps, BOUNDARY_TOL)  # the cost tolerance of all four checks
    closed = ne.attacker_utility + params.defense_cost * ne.effort.total
    ok = on_boundary(closed, lp_sol.value, tol)
    lines.append(
        f"check lp: closed-form value {_fmt(closed)}, LP optimum {_fmt(lp_sol.value)}"
        f" -- {'ok' if ok else 'FAILED'}"
    )

    # best-response failures first, then the claimed (Ud, Ua) against their expected values
    ne_failures = list(verify_ne(profile, params, effort, ne.attack, tol).failures)
    expected = expected_utilities(profile, params, effort, ne.attack)
    for name, claim, value in zip(("Ud", "Ua"), (ne.defender_utility, ne.attacker_utility), expected):
        if not on_boundary(claim, value, tol):
            ne_failures.append(f"claimed {name} {claim!r} vs expected {value!r}")
    ok = ok and not ne_failures
    lines.append(
        f"check ne: mutual best responses within {_fmt(tol)}"
        f" -- {'FAILED -- ' + ne_failures[0] if ne_failures else 'ok'}"
    )

    spe_res = verify_spe(profile, params, spe.effort, claimed_spe_ud, tol)
    ok = ok and spe_res.ok
    lines.append(
        "check spe: one LP per attacker response against the committed effort"
        f" -- {'ok' if spe_res.ok else 'FAILED -- ' + spe_res.failures[0]}"
    )

    lines.append("all checks passed" if ok else "verification failed")
    _emit(args, lines)
    return 0 if ok else 3


def _cmd_simulate(scenario: Scenario, args: argparse.Namespace) -> int:
    if scenario.learning is None or scenario.network is None:
        print("error: scenario has no [learning] section", file=sys.stderr)
        return 1
    from .learning import (
        SimulationConfig, StateDistribution, run_simulation, state_distribution, write_trace_csv,
    )

    settings = scenario.learning
    horizon = args.horizon if args.horizon is not None else settings.horizon
    token = settings.true_state
    if token == "none":
        dist = StateDistribution.point(None)
    elif token in ("ne", "spe"):
        from .normalform import BoundaryParameters, solve_ne as solver

        if token == "spe":
            from .sequential import solve_spe as solver
        try:
            dist = state_distribution(solver(scenario.profile, scenario.params))
        except BoundaryParameters as err:
            print(f"error: cannot derive the state distribution: {err}", file=sys.stderr)
            return 2
    else:
        dist = StateDistribution.point(token)
    config = SimulationConfig(
        scenario.network, settings.prior, dist, settings.noise_half_width, horizon, args.seed
    )
    trace = run_simulation(config)
    _write_csv(args, lambda fh: write_trace_csv(trace, fh))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="facsec", description="Facility-security game solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--out", help="write the output to this file: CSV only there, reports to stdout too")
        p.set_defaults(handler=handler)
        return p

    command("solve-ne", _cmd_solve_ne, "closed-form simultaneous-game equilibrium")
    command("solve-spe", _cmd_solve_spe, "closed-form sequential-game outcome")
    command("compare", _cmd_compare, "cost region and first-mover utility gap")

    regimes = command("regimes", _cmd_regimes, "regime sweep over a parameter grid")
    regimes.add_argument("--grid", required=True, help='grid "ca0:ca1:n,cd0:cd1:m" over (ca, cd)')

    verify = command("verify", _cmd_verify, "oracle checks: LP value, NE epsilon, SPE LPs")
    verify.add_argument("--eps", type=float, default=CHECK_EPS,
                        help=f"relative cost tolerance; the checks use max(EPS, {BOUNDARY_TOL:g})")
    verify.add_argument("--perturb", type=float, default=0.0,
                        help="shift the candidate solutions to exercise the checks")

    simulate = command("simulate", _cmd_simulate, "repeated routing simulation trace")
    simulate.add_argument("--seed", type=int, default=0, help="RNG seed")
    simulate.add_argument("--horizon", type=int, help="override the scenario horizon")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        scenario = load_scenario(args.scenario)
        code = args.handler(scenario, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout, which ends the output. Point stdout at
        # devnull so that the interpreter's final flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

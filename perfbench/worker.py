"""One workload's closed loop: a single process runs the ops back to back.

Started by run.py with PYTHONHASHSEED pinned and the generated input pool in
a JSON file. Every op does the work of one CLI command through the library's
public functions; its output is checked and hashed outside the timed region.
The last line of standard output is a JSON object with the raw results, which
run.py turns into metrics.

The ops run in whole passes over the pool until --seconds have passed. With
--trace 1 the passes alternate between untraced and traced, and per-layer
figures are per traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
import facsec  # noqa: E402
from facsec import analysis, learning, model, normalform, oracle, scenario, sequential  # noqa: E402

from tracing import Tracer  # noqa: E402

if Path(facsec.__file__).resolve().parent != SRC / "facsec":
    raise SystemExit(f"facsec imported from {facsec.__file__}, not from {SRC}")

MODULES = {"analysis": analysis, "learning": learning, "sequential": sequential}
# The tolerance the scalar and any array-native sweep must agree to.
SWEEP_REL_TOL = 1e-12
SWEEP_SAMPLE = 16
LP_TOL = 1e-8  # the CLI's simplex agreement check


def _fmt(x) -> str:
    return format(x, ".9g")


def _pairs(items) -> str:
    return " ".join(f"{k}={_fmt(v)}" for k, v in items)


def _direct(label, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= SWEEP_REL_TOL * max(1.0, abs(a), abs(b))


class Sweep:
    """facsec regimes: one regime_sweep plus write_sweep_csv per op."""

    unit = "cells"

    @staticmethod
    def prepare(entry, call):
        entry["scenario"] = call("scenario.parse", scenario.parse_scenario, entry["text"])
        entry["work"] = entry["steps"][0] * entry["steps"][1]

    @staticmethod
    def run(entry, call):
        profile = entry["scenario"].profile
        cells = call("analysis.sweep", analysis.regime_sweep, profile,
                     tuple(entry["ca_range"]), tuple(entry["cd_range"]), tuple(entry["steps"]))
        buf = io.StringIO()
        call("analysis.csv", analysis.write_sweep_csv, cells, buf)
        return cells, buf.getvalue()

    @staticmethod
    def output(result) -> str:
        return result[1]

    @staticmethod
    def check(entry, result, seed: int, idx: int) -> list[str]:
        cells, text = result
        failures = []
        if len(cells) != entry["work"] or text.count("\n") != entry["work"] + 1:
            failures.append(f"{len(cells)} cells for a {entry['steps']} grid")
        profile = entry["scenario"].profile
        rng = random.Random(f"check:{seed}:{idx}")
        for t in rng.sample(range(len(cells)), min(SWEEP_SAMPLE, len(cells))):
            cell = cells[t]
            params = model.CostParams(cell.ca, cell.cd)
            ne = normalform.classify_regime_ne(profile, params)
            spe = sequential.classify_regime_spe(profile, params)
            region = analysis.classify_cost_region(profile, params)
            ud = ua = uds = uas = None
            if ne.label != "boundary":
                ud, ua = normalform.ne_utilities(profile, params, ne)
            if spe.label != "boundary":
                uds, uas = sequential.spe_utilities(profile, params, spe)
            expected = (ne.label, spe.label, region.value)
            if (cell.ne_regime, cell.spe_regime, cell.region) != expected or not all(
                _close(a, b) for a, b in ((cell.ud, ud), (cell.ua, ua), (cell.uds, uds), (cell.uas, uas))
            ):
                failures.append(f"cell {t} at ({cell.ca!r}, {cell.cd!r}) differs from the scalar path")
        for t, cell in enumerate(cells):
            if cell.ud is not None and cell.uds is not None and cell.uds < cell.ud - 1e-9:
                failures.append(f"cell {t}: Uds {cell.uds!r} < Ud {cell.ud!r}")
        return failures

    @staticmethod
    def stats(entry, result, counts: Counter) -> None:
        counts["analysis.csv_bytes"] += len(result[1].encode())


class Verify:
    """facsec compare plus facsec verify on one instance per op."""

    unit = "instances"
    # The oracle's known defect near regime boundaries makes some ops fail;
    # they are counted in the failure rate, never filtered out, and not fatal.
    failures_counted = True

    @staticmethod
    def prepare(entry, call):
        entry["work"] = 1

    @staticmethod
    def run(entry, call):
        sc = call("scenario.parse", scenario.parse_scenario, entry["text"])
        p, c = sc.profile, sc.params
        ne = call("normalform.solve", normalform.solve_ne, p, c)
        spe = call("sequential.solve", sequential.solve_spe, p, c)
        cmp = call("analysis.compare", analysis.compare_games, p, c)
        lp = call("oracle.lp_build", normalform.build_attacker_lp, p, c)
        sol = call("oracle.simplex", oracle.simplex_solve, lp)
        ne_res = call("oracle.verify_ne", oracle.verify_ne, p, c, ne.effort, ne.attack)
        spe_res = call("oracle.verify_spe", oracle.verify_spe, p, c, spe.effort, spe.defender_utility)
        closed = ne.attacker_utility + c.defense_cost * ne.effort.total
        lp_ok = sol.status == "optimal" and abs(closed - sol.value) <= LP_TOL
        return ne, spe, cmp, lp, sol, {"lp": lp_ok, "ne": ne_res.ok, "spe": spe_res.ok}

    @staticmethod
    def output(result) -> str:
        ne, spe, cmp, _, sol, checks = result
        return "\n".join([
            f"ne: {ne.regime.label} effort {_pairs(ne.effort.efforts)}"
            f" attack {_pairs(ne.attack.facility_probs)} none={_fmt(ne.attack.no_attack)}"
            f" Ud {_fmt(ne.defender_utility)} Ua {_fmt(ne.attacker_utility)}",
            f"spe: {spe.regime.label} deterred {spe.on_path.deterred} effort {_pairs(spe.effort.efforts)}"
            f" Uds {_fmt(spe.defender_utility)} Uas {_fmt(spe.attacker_utility)}",
            f"compare: {cmp.region.value} gap {_fmt(cmp.utility_gap)} advantage {cmp.first_mover_advantage}",
            f"lp: {sol.status} {_fmt(sol.value) if sol.value is not None else ''}",
            "checks: " + " ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in checks.items()),
        ]) + "\n"

    @staticmethod
    def check(entry, result, seed: int, idx: int) -> list[str]:
        return [name for name, ok in result[-1].items() if not ok]

    @staticmethod
    def stats(entry, result, counts: Counter) -> None:
        lp = result[3]
        counts["oracle.lp_cells"] += (len(lp.a_ub) + len(lp.a_eq)) * len(lp.objective)
        counts["oracle.spe_candidates"] += entry["spe_candidates"]


class Simulate:
    """facsec simulate: one run_simulation plus write_trace_csv per op."""

    unit = "stages"

    @staticmethod
    def prepare(entry, call):
        entry["scenario"] = call("scenario.parse", scenario.parse_scenario, entry["text"])
        entry["work"] = entry["horizon"]

    @staticmethod
    def run(entry, call):
        sc = entry["scenario"]
        settings = sc.learning
        token = settings.true_state
        dist = learning.StateDistribution.point(None if token == "none" else token)
        config = learning.SimulationConfig(sc.network, settings.prior, dist, settings.noise_half_width,
                                           entry["horizon"], entry["sim_seed"])
        trace = call("learning.simulate", learning.run_simulation, config)
        buf = io.StringIO()
        call("learning.csv", learning.write_trace_csv, trace, buf)
        return trace, buf.getvalue()

    @staticmethod
    def output(result) -> str:
        return result[1]

    @staticmethod
    def check(entry, result, seed: int, idx: int) -> list[str]:
        trace, text = result
        failures = []
        horizon = entry["horizon"]
        if len(trace.records) != horizon or text.count("\n") != horizon + 2:
            failures.append(f"{len(trace.records)} stages for horizon {horizon}")
        prior = entry["scenario"].learning.prior
        for rec in trace.records:
            total = sum(rec.belief_after.prob(s) for s in prior.states)
            if abs(total - 1.0) > 1e-9:
                failures.append(f"stage {rec.stage}: belief sums to {total!r}")
                break
        if entry["kind"] == "lockin":
            e2 = prior.prob("e2")
            if any(rec.belief_after.prob("e2") != e2 for rec in trace.records):
                failures.append("lock-in belief on e2 moved off its prior")
        return failures

    @staticmethod
    def stats(entry, result, counts: Counter) -> None:
        records = result[0].records
        counts["learning.stages"] += len(records)
        counts["learning.belief_changes"] += sum(r.belief_after != r.belief_before for r in records)
        counts["learning.distinct_beliefs"] += len({r.belief_before for r in records})


WORKLOADS = {"sweep": Sweep, "verify": Verify, "simulate": Simulate}


class Loop:
    """Runs ops, checks and hashes their outputs, and tallies failures."""

    def __init__(self, spec, pool, seed: int):
        self.spec, self.pool, self.seed = spec, pool, seed
        self.latencies: list[float] = []
        self.work = 0
        self.failed_ops = 0
        self.failed_inputs: set[int] = set()
        self.failures: Counter = Counter()
        self.fatal: list[str] = []
        self.digests: list = [None] * len(pool)

    def op(self, idx: int, tracer: Tracer | None = None) -> None:
        """Run, check and hash one op; traced when ``tracer`` is given."""
        spec, entry = self.spec, self.pool[idx]
        counts = tracer.counts if tracer else None
        if tracer:
            tracer.op_id += 1
            tracer.enabled = True
            lookups0, misses0 = _partition_calls()
        t0 = time.perf_counter()
        try:
            result = spec.run(entry, tracer.call if tracer else _direct)
        except Exception as err:  # a raising op is a failed op: count it, report it, go on
            dt = time.perf_counter() - t0
            result, failures = None, [f"raised {type(err).__name__}: {err}"]
        else:
            dt = time.perf_counter() - t0
            if tracer:
                lookups1, misses1 = _partition_calls()
                counts["model.partition_lookups"] += lookups1 - lookups0
                counts["model.partition_misses"] += misses1 - misses0
                tracer.enabled = False  # the checks below are not the op's work
                spec.stats(entry, result, counts)
            failures = spec.check(entry, result, self.seed, idx)
        self.latencies.append(dt)
        if result is not None:  # a raising op did no work
            self.work += entry["work"]
        output = spec.output(result) if result is not None else "\n".join(failures)
        digest = hashlib.sha256(output.encode()).hexdigest()
        if self.digests[idx] is None:
            self.digests[idx] = digest
        elif self.digests[idx] != digest and len(self.fatal) < 10:
            self.fatal.append(f"op {idx}: output differs from its earlier run")
        if failures:
            self.failed_ops += 1
            self.failed_inputs.add(idx)
            for f in failures:
                kind = f if f in ("lp", "ne", "spe") else "raised" if result is None else "check"
                self.failures[kind] += 1
                if counts is not None and kind in ("lp", "ne", "spe"):
                    counts[f"oracle.check_failures.{kind}"] += 1
                if not getattr(spec, "failures_counted", False) and len(self.fatal) < 10:
                    self.fatal.append(f"op {idx} ({entry['kind']}): {f}")


def _warm_up(spec, pool) -> None:
    """One untimed op per input kind, so lazy loading inside numpy is done."""
    seen = set()
    for entry in pool:
        if entry["kind"] not in seen:
            seen.add(entry["kind"])
            try:
                spec.run(entry, _direct)
            except Exception:  # the timed run reports it
                pass


def _partition_calls() -> tuple[int, int]:
    # Raises if partition_by_cost loses its cache, rather than reporting 0.
    ci = model.partition_by_cost.cache_info()
    return ci.hits + ci.misses, ci.misses


def run_untraced(spec, pool, seed: int, seconds: float) -> tuple[Loop, int]:
    """Whole passes over the pool until ``seconds`` have passed; returns the
    loop and the number of passes."""
    loop = Loop(spec, pool, seed)
    for entry in pool:
        spec.prepare(entry, _direct)
    _warm_up(spec, pool)
    passes = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        for idx in range(len(pool)):
            loop.op(idx)
        passes += 1
    return loop, passes


def run_traced(spec, pool, seed: int, seconds: float, spans_path: Path) -> tuple[Loop, dict]:
    tracer = Tracer()
    loop = Loop(spec, pool, seed)
    for entry in pool:
        spec.prepare(entry, tracer.call)  # spans outside any op: set-up parsing
    _warm_up(spec, pool)
    deadline = time.perf_counter() + seconds
    k = 0
    while k < 2 or k % 2 == 1 or time.perf_counter() < deadline:
        traced = k % 2 == 1
        if traced:
            tracer.install(MODULES)
        for idx in range(len(pool)):
            loop.op(idx, tracer if traced else None)
        if traced:
            tracer.uninstall()
        k += 1
    tracer.save(spans_path)
    return loop, _per_layer(tracer, loop.latencies, len(pool))


def typical_latencies(latencies: list[float], size: int, passes: range) -> list[float]:
    """Each input's upper-quartile latency over the given passes of a pool of
    ``size`` (inclusive method; the latency itself when there is one pass).

    The shared host runs in two states: its usual one, with a few percent of
    noise from pass to pass, and bursts of tens of seconds up to minutes in
    which everything runs 1.5 to 1.9x faster. The upper quartile reads the
    usual state unless a burst covers about three quarters of a run; the
    median follows it once it covers half, and the best latency at once.
    """
    def upper_quartile(xs):
        xs = list(xs)
        return statistics.quantiles(xs, n=4, method="inclusive")[2] if len(xs) > 1 else xs[0]

    return [upper_quartile(latencies[p * size + i] for p in passes) for i in range(size)]


def _per_layer(tracer: Tracer, latencies: list[float], size: int) -> dict:
    passes = len(latencies) // size  # untraced and traced in turn, untraced first
    n = passes // 2
    total, self_total, calls = tracer.totals(in_ops=True)
    setup_total, _, setup_calls = tracer.totals(in_ops=False)
    counts = tracer.counts
    wardrop_calls = calls["routing.wardrop"]

    def per(x):
        return x / n

    return {
        "scenario.parse_s": setup_total["scenario.parse"] + per(total["scenario.parse"]),
        "scenario.parse_calls": setup_calls["scenario.parse"] + per(calls["scenario.parse"]),
        "model.partition_lookups": per(counts["model.partition_lookups"]),
        "model.partition_misses": per(counts["model.partition_misses"]),
        "normalform.classify_s": per(total["normalform.classify"]),
        "normalform.classify_calls": per(calls["normalform.classify"]),
        "normalform.utilities_s": per(total["normalform.utilities"]),
        "normalform.solve_s": per(total["normalform.solve"]),
        "sequential.classify_s": per(total["sequential.classify"]),
        "sequential.classify_calls": per(calls["sequential.classify"]),
        "sequential.utilities_s": per(total["sequential.utilities"]),
        "sequential.tilde_calls": per(counts["sequential.tilde_calls"]),
        "sequential.solve_s": per(total["sequential.solve"]),
        "analysis.region_s": per(total["analysis.region"]),
        "analysis.sweep_self_s": per(self_total["analysis.sweep"]),
        "analysis.csv_s": per(total["analysis.csv"]),
        "analysis.csv_bytes": per(counts["analysis.csv_bytes"]),
        "analysis.compare_s": per(total["analysis.compare"]),
        "oracle.lp_build_s": per(total["oracle.lp_build"]),
        "oracle.simplex_s": per(total["oracle.simplex"]),
        "oracle.simplex_calls": per(calls["oracle.simplex"]),
        "oracle.lp_cells": per(counts["oracle.lp_cells"]),
        "oracle.verify_ne_s": per(total["oracle.verify_ne"]),
        "oracle.verify_spe_s": per(total["oracle.verify_spe"]),
        "oracle.spe_candidates": per(counts["oracle.spe_candidates"]),
        "oracle.check_failures.lp": per(counts["oracle.check_failures.lp"]),
        "oracle.check_failures.ne": per(counts["oracle.check_failures.ne"]),
        "oracle.check_failures.spe": per(counts["oracle.check_failures.spe"]),
        "routing.wardrop_s": per(total["routing.wardrop"]),
        "routing.wardrop_calls": per(wardrop_calls),
        "routing.linear_solves": per(counts["routing.linear_solves"]),
        "learning.stage_self_s": per(self_total["learning.stage"] + self_total["learning.simulate"]),
        "learning.stages": per(counts["learning.stages"]),
        "learning.belief_changes": per(counts["learning.belief_changes"]),
        "learning.route_useful_ratio": (
            counts["learning.distinct_beliefs"] / wardrop_calls if wardrop_calls else 0.0
        ),
        "learning.csv_s": per(total["learning.csv"]),
        "trace.overhead_s": (sum(typical_latencies(latencies, size, range(1, passes, 2)))
                             - sum(typical_latencies(latencies, size, range(0, passes, 2)))),
        "passes": n,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--pool", type=Path, required=True, help="JSON input pool written by run.py")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    args = ap.parse_args()

    spec = WORKLOADS[args.workload]
    pool = json.loads(args.pool.read_text())
    if args.trace:
        loop, per_layer = run_traced(spec, pool, args.seed, args.seconds, args.spans)
        passes = len(loop.latencies) // len(pool)
    else:
        (loop, passes), per_layer = run_untraced(spec, pool, args.seed, args.seconds), None
    result = {
        "unit": spec.unit,
        "passes": passes,
        "latencies_s": loop.latencies,
        # untraced passes only; with --trace 1 they are every other pass
        "typical_latencies_s": typical_latencies(loop.latencies, len(pool), range(0, passes, 1 + args.trace)),
        "work": loop.work,
        "failed_ops": loop.failed_ops,
        "failed_inputs": len(loop.failed_inputs),
        "failures": dict(loop.failures),
        "fatal": loop.fatal,
        "output_sha256": hashlib.sha256("".join(loop.digests).encode()).hexdigest(),
        "output_sha256_per_input": loop.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "per_layer": per_layer,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

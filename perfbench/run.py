"""The facsec benchmark: one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; facsec is imported from ./src. The
inputs are generated from --seed (gen.py). A worker process with
PYTHONHASHSEED derived from the workload and seed runs the ops back to back
(worker.py); fresh interpreters time the set-up (setup_probe.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
Each metric is printed on its own line with its unit and sample count; the
last line is one JSON object with the keys correct, attempted, failed and
metrics. Exits 1 when an output check fails in a way the failure count does
not cover, 2 when the checkout has no facsec sources. README.md defines the
metrics and which per-layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SPEC = ROOT / "BENCHMARK.json"
SCENARIOS = {"three_facility": ROOT / "scenarios" / "three_facility.scn",
             "lockin": ROOT / "scenarios" / "lockin.scn"}

SETUP_PROBES = 12  # fresh interpreters per run; the median is reported
WORKER_GRACE_S = 120  # the worker's time beyond --seconds: set-up, last pass, trace output
WORK_NAMES = {"sweep": "cells_per_s", "verify": "instances_per_s", "simulate": "stages_per_s"}


def metric_units() -> dict[str, dict[str, str]]:
    """Name -> unit of the end-to-end and of the per-layer metrics, in the
    order of BENCHMARK.json, which is the order of the printout."""
    spec = json.loads(SPEC.read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def hash_seed(workload: str, seed: int) -> int:
    """PYTHONHASHSEED for the worker: a function of the workload and seed only."""
    return int.from_bytes(hashlib.sha256(f"{workload}:{seed}".encode()).digest()[:4], "big")


def make_pool(workload: str, seed: int) -> list[dict]:
    if workload == "sweep":
        return gen.sweep_pool(seed, SCENARIOS["three_facility"].read_text())
    if workload == "verify":
        return gen.verify_pool(seed)
    return gen.simulate_pool(seed, SCENARIOS["lockin"].read_text())


def child_env(hashseed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one single-threaded worker
    return env


def _run(what: str, cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{what} failed with exit code {proc.returncode}")
    return proc


def _import_cumulative_s(stderr: str) -> tuple[float, float]:
    """From -X importtime output: cumulative seconds of the top-level facsec
    imports (facsec and facsec.cli) and of the numpy import inside them."""
    facsec_us = numpy_us = 0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)$", line)
        if not m:
            continue
        cumulative, indent, name = int(m.group(1)), len(m.group(2)), m.group(3)
        if indent == 1 and (name == "facsec" or name.startswith("facsec.")):
            facsec_us += cumulative
        elif name == "numpy" and not numpy_us:
            numpy_us = cumulative
    return facsec_us * 1e-6, numpy_us * 1e-6


def measure_setup(texts_path: Path, env: dict, importtime: bool, probes: int) -> list:
    """Set-up samples from fresh interpreters: seconds, or (import s, numpy
    import s) pairs."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "setup_probe.py"), str(SRC), str(texts_path)]
    samples = []
    for _ in range(probes):
        proc = _run("set-up probe", cmd, env, 60)
        samples.append(_import_cumulative_s(proc.stderr) if importtime else float(proc.stdout))
    return samples


def _quantile_ms(latencies: list[float], q: int) -> float:
    return statistics.quantiles(latencies, n=10, method="inclusive")[q - 1] * 1e3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORK_NAMES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in (SPEC, SRC / "facsec" / "__init__.py", *SCENARIOS.values()) if not p.is_file()]
    if missing:
        print(f"error: not a facsec source checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    hashseed = hash_seed(args.workload, args.seed)
    env = child_env(hashseed)
    pool = make_pool(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    pool_path, texts_path = stem.with_suffix(".pool.json"), stem.with_suffix(".texts")
    pool_path.write_text(json.dumps(pool))
    # verify ops parse their own instance; the other workloads parse the pool up front
    parsed_up_front = [] if args.workload == "verify" else [entry["text"] for entry in pool]
    texts_path.write_text("\0".join(parsed_up_front), encoding="utf-8")

    # Half the set-up probes run before the worker and half after it, so that
    # their median spans the run. The first probe only warms the bytecode and
    # file caches.
    half = SETUP_PROBES // 2
    measure_setup(texts_path, env, bool(args.trace), 1)
    setup = measure_setup(texts_path, env, bool(args.trace), half)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--pool", str(pool_path), "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans", str(RESULTS / f"{args.workload}-spans.npz")]
    worker = json.loads(_run("worker", cmd, env, args.seconds + WORKER_GRACE_S).stdout.splitlines()[-1])
    setup += measure_setup(texts_path, env, bool(args.trace), SETUP_PROBES - half)

    lat = worker["latencies_s"]
    n_ops = len(lat)
    print(f"workload {args.workload} seed {args.seed} PYTHONHASHSEED {hashseed}"
          f" ops {n_ops} ({worker['work']} {worker['unit']}) closed loop, 1 worker")
    if args.trace:
        values = dict(worker["per_layer"])
        passes = values.pop("passes")
        values["cli.import_s"] = statistics.median(s[0] for s in setup)
        values["cli.import_numpy_s"] = statistics.median(s[1] for s in setup)
        units = metric_units()["per_layer"]
        print(f"per traced pass over the whole pool ({passes} passes); cli.* median of {SETUP_PROBES}")
    else:
        passes, typical = worker["passes"], worker["typical_latencies_s"]
        values = {
            "setup_s": statistics.median(setup),
            "work_per_s": worker["work"] / passes / sum(typical),
            "op_p50_ms": statistics.median(typical) * 1e3,
            "op_p90_ms": _quantile_ms(typical, 9),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        units = metric_units()["end_to_end"]
        print(f"setup_s median of {SETUP_PROBES} fresh interpreters; op_* and work_per_s"
              f" ({WORK_NAMES[args.workload]}) over the upper-quartile latency of each of {len(typical)} inputs"
              f" in {passes} passes ({n_ops} ops)")
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} are not both measured"
                         f" and listed in {SPEC.name}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {worker['failed_ops'] / n_ops:.6g} ({worker['failed_ops']}/{n_ops} ops,"
          f" {worker['failed_inputs']}/{len(pool)} inputs;"
          f" by kind {json.dumps(worker['failures'], sort_keys=True)})")
    print(f"output_sha256 {worker['output_sha256']}")
    for message in worker["fatal"]:
        print(f"FAILED {message}")

    correct = not worker["fatal"]
    stem.with_suffix(".json").write_text(json.dumps(
        {"hashseed": hashseed, "setup_samples": setup, "metrics": metrics, "worker": worker}))
    # Counted per input: every input runs once per pass and its output is the
    # same on every pass (a change is fatal), so an input fails on every pass
    # or on none, and the counts do not depend on how many passes fit the run.
    print(json.dumps({"correct": correct, "attempted": len(pool), "failed": worker["failed_inputs"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

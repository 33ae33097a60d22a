"""Seeded benchmark inputs, emitted as scenario text for ``parse_scenario``.

Standard library only: generating inputs must not import numpy or facsec, so
that the set-up probe can time those imports in a fresh interpreter, and so
that the inputs do not depend on the code under test.

Each pool is stratified (fixed counts of each size and kind, random values),
so different seeds give different inputs of the same shape and the figures of
one seed stay comparable with those of another.
"""

from __future__ import annotations

import math
import random

# Off-boundary instances keep this absolute distance from the level edges and
# band constants, as the repository's own random-instance gate does.
BOUNDARY_MARGIN = 1e-6
# The near-boundary slice puts cd this far above a band constant, relative.
NEAR_BOUNDARY_REL = 1e-9
# verify_spe's default grid resolution, used to count its candidate points.
SPE_GRID_STEP = 1e-3


def _num(x: float) -> str:
    return repr(float(x))


def scenario_text(c0, costs, ca, cd, network="", learning="") -> str:
    lines = ["[facilities]", f"baseline_cost {_num(c0)}"]
    lines += [f"f{t + 1} {_num(c)}" for t, c in enumerate(costs)]
    lines += ["", "[costs]", f"attack_cost {_num(ca)}", f"defense_cost {_num(cd)}", ""]
    return "\n".join(lines) + network + learning


def level_edges_and_bands(c0, costs):
    """Level edges C(k)-C0 (decreasing) and band constants 1/S_k of the
    above-baseline cost levels, S_k being the prefix sums of |level|/(C(k)-C0)."""
    levels = sorted({c for c in costs if c > c0}, reverse=True)
    edges, bands, s = [], [], 0.0
    for cost in levels:
        size = sum(1 for c in costs if c == cost)
        edges.append(cost - c0)
        s += size / (cost - c0)
        bands.append(1.0 / s)
    return edges, bands


def spe_candidates(c0, costs, ca) -> int:
    """Total length of verify_spe's grid axes: one axis per vulnerable facility,
    from 0 to its threshold effort in grid steps, plus the threshold itself."""
    total = 0
    for ce in costs:
        if ce - ca > c0:
            hat = (ce - ca - c0) / (ce - c0)
            n = int(math.floor(hat / SPE_GRID_STEP)) + 1
            total += n + (1 if (n - 1) * SPE_GRID_STEP < hat else 0)
    return total


# ---------------------------------------------------------------------------
# sweep: the shipped three-facility profile plus 12- and 50-facility profiles


def _sweep_profile(rng: random.Random, n: int, n_levels: int):
    # One level edge near the middle of each of n_levels equal slices of
    # (0, span), and the extra members dealt round-robin. The sweep ranges
    # scale with span, so every seed's profile has nearly the same regime map
    # and the same cost per cell; only the values change.
    c0, span = rng.uniform(5.0, 30.0), rng.uniform(10.0, 20.0)
    levels = [c0 + span * (k + rng.uniform(0.4, 0.6)) / n_levels for k in range(n_levels)]
    costs = levels + [levels[t % n_levels] for t in range(n - n_levels)]
    rng.shuffle(costs)
    return c0, costs


def sweep_pool(seed: int, three_facility_text: str) -> list[dict]:
    """Regime-sweep ops: per pass one three-facility map on a 150x150 grid,
    the low end of the documented `facsec regimes` usage (150x150 to
    200x200), and 19 smaller maps. A 200x200 map left time for only five
    passes in a 25-s run, and its figures varied 1.5 to 3 times as much between runs.

    The three-facility maps cover (0, 4 +- 0.1)^2, where all its regimes meet.
    The generated profiles are swept over (0, 1.05 x their top level edge)^2,
    which spans every regime, on smaller grids because a cell costs more with
    more cost levels. The 50-facility profiles have 20 distinct levels, so
    most levels have several members.

    The small ops come in three latency tiers: 6 x 50 facilities on 14x14,
    8 x 12 facilities on 21x21 and 5 x three facilities on 40x40, slowest
    last. Of the 20 latencies of a pass, the median then lies in the middle
    tier and the 90th percentile in the top one, each a few ops away from a
    tier edge, so the percentiles measure one kind of op each.
    """
    rng = random.Random(f"sweep:{seed}")

    def three_facility(steps):
        return {"kind": f"three_facility_{steps}", "text": three_facility_text,
                "ca_range": [0.0, rng.uniform(3.9, 4.1)], "cd_range": [0.0, rng.uniform(3.9, 4.1)],
                "steps": [steps, steps]}

    def generated(n, n_levels, steps):
        c0, costs = _sweep_profile(rng, n, n_levels)
        top = max(costs) - c0
        return {"kind": f"facilities_{n}", "text": scenario_text(c0, costs, 1.0, 1.0),
                "ca_range": [0.0, 1.05 * top], "cd_range": [0.0, 1.05 * top], "steps": [steps, steps]}

    small = ([generated(50, 20, 14) for _ in range(6)] + [generated(12, 12, 21) for _ in range(8)]
             + [three_facility(40) for _ in range(5)])
    rng.shuffle(small)
    return small[:10] + [three_facility(150)] + small[10:]


# ---------------------------------------------------------------------------
# verify: random instances with up to 6 facilities, a tenth near a band constant


def _off_boundary(c0, costs, ca, cd, skip_band=None) -> bool:
    # The threshold curve is not tested: a uniform draw lands within the
    # margin of it with probability of order 1e-7.
    if any(abs(c - c0) < BOUNDARY_MARGIN or abs(c - ca - c0) < BOUNDARY_MARGIN for c in costs):
        return False
    edges, bands = level_edges_and_bands(c0, costs)
    if any(abs(ca - e) < BOUNDARY_MARGIN for e in edges):
        return False
    return all(abs(cd - b) >= BOUNDARY_MARGIN for k, b in enumerate(bands) if k != skip_band)


def _verify_instance(rng: random.Random, vulnerable: int, duplicate: bool, near: bool) -> dict:
    # verify_spe's grid, most of an op's time, grows with the number of
    # vulnerable facilities (ce - ca > c0) and with their threshold efforts
    # hat = (ce - ca - c0) / (ce - c0). Both are set here: the vulnerable
    # costs are drawn through hat, ce = c0 + ca / (1 - hat), and up to one
    # more facility is safe (at most c0 + ca, possibly below the baseline).
    # With one vulnerable facility the grid is a single axis, cheap at any
    # hat, so hat spans (0.05, 0.95) there: the near-boundary instances that
    # fail the LP agreement have one vulnerable facility and a hat near 1.
    hat_high = 0.95 if vulnerable == 1 else 0.3
    while True:
        c0, ca = rng.uniform(1.0, 50.0), rng.uniform(0.5, 25.0)
        costs = [c0 + ca / (1.0 - rng.uniform(0.05, hat_high)) for _ in range(vulnerable)]
        if duplicate:
            costs[-1] = costs[0]
        if vulnerable < 6 and rng.random() < 0.5:
            costs.append(rng.uniform(max(0.5, c0 - 5.0), c0 + ca))
        rng.shuffle(costs)
        cd = rng.uniform(1e-3, 25.0)
        skip = None
        if near:
            edges, bands = level_edges_and_bands(c0, costs)
            skip = rng.randrange(sum(1 for e in edges if e > ca))  # the vulnerable levels' bands
            cd = bands[skip] * (1.0 + NEAR_BOUNDARY_REL)
        if _off_boundary(c0, costs, ca, cd, skip):
            return {"kind": "near_boundary" if near else "off_boundary",
                    "text": scenario_text(c0, costs, ca, cd),
                    "spe_candidates": spe_candidates(c0, costs, ca)}


# Instances per number of vulnerable facilities, 1..6. An op's latency rises
# steeply with that number, so the counts set the latency tiers: the median
# of the 600 latencies lies in the 4-facility tier (ranks 261-360) and the
# 90th percentile in the middle of the 6-facility tier (ranks 481-600), away
# from a tier edge, where a few instances more or less would move a
# percentile from one tier to the next.
VERIFY_TIERS = (140, 60, 60, 100, 120, 120)


def verify_pool(seed: int) -> list[dict]:
    """600 instances of 1-6 vulnerable facilities in fixed tiers; a third
    (all with at least two vulnerable facilities) duplicate a cost level, and
    every tenth instance of each tier is in the near-boundary slice.

    The off-boundary instances are drawn from the seed. The near-boundary
    slice comes from a catalogue that is the same for every seed, like the
    simulate networks: which of its instances fail the LP agreement is a
    matter of rounding, so drawing them from the seed made the failure count
    differ from seed to seed (1 to 6 of 600), and with it the failure counts
    of two sets of runs on different seeds. The seed shuffles the slice in
    among the other instances.
    """
    rng = random.Random(f"verify:{seed}")
    catalogue = random.Random("verify:near_boundary")
    vulnerable = [v for v, count in enumerate(VERIFY_TIERS, 1) for _ in range(count)]
    size = len(vulnerable)
    near = [t for t in range(size) if t % 10 == 0]  # the tier sizes are multiples of 10
    off = [t for t in range(size) if t % 10]
    # a third of the pool duplicates a cost level, in the same share of both parts
    share = (size // 3) / sum(1 for v in vulnerable if v > 1)
    duplicate = set()
    for part, draw in ((near, catalogue), (off, rng)):
        multi = [t for t in part if vulnerable[t] > 1]
        duplicate |= set(draw.sample(multi, round(share * len(multi))))
    pool = [_verify_instance(catalogue, vulnerable[t], t in duplicate, True) for t in near]
    pool += [_verify_instance(rng, vulnerable[t], t in duplicate, False) for t in off]
    rng.shuffle(pool)
    return pool


# ---------------------------------------------------------------------------
# simulate: the shipped lock-in scenario plus random routed networks


def _random_network_text(rng: random.Random, n_routes: int) -> tuple[str, list[str]]:
    n_edges = n_routes + rng.randrange(4)
    lines = ["[network]", f"demand {_num(rng.uniform(1.0, 20.0))}"]
    for t in range(n_edges):
        slope, intercept = rng.uniform(0.05, 4.0), rng.uniform(0.0, 15.0)
        lines.append(
            f"edge g{t} {_num(slope)} {_num(intercept)}"
            f" {_num(slope * rng.uniform(1.0, 2.0))} {_num(intercept + rng.uniform(0.0, 10.0))}"
        )
    for r in range(n_routes):
        picks = sorted(rng.sample(range(n_edges), rng.randint(1, min(3, n_edges))))
        lines.append(f"route p{r} " + " ".join(f"g{i}" for i in picks))
    return "\n".join(lines) + "\n\n", [f"g{t}" for t in range(n_edges)]


def _learning_text(rng: random.Random, edge_ids: list[str], horizon: int) -> str:
    states = rng.sample(edge_ids, min(4, len(edge_ids))) + ["none"]
    weights = [rng.randint(1, 9) for _ in states]
    total = sum(weights)
    lines = ["[learning]", f"noise_half_width {_num(rng.uniform(1.0, 3.0))}",
             f"horizon {horizon}", f"true_state {rng.choice(states)}"]
    lines += [f"prior {s} {_num(w / total)}" for s, w in zip(states, weights)]
    return "\n".join(lines) + "\n"


def simulate_pool(seed: int, lockin_text: str) -> list[dict]:
    """Per pass two lock-in runs of 5000 stages, the documented lock-in
    horizon, among 72 runs of 10 stages on random networks whose route
    counts cycle through 2..10.

    The networks, priors and true states come from a catalogue that is the
    same for every seed; the seed draws the simulation seeds (the observation
    noise) of every run. Wardrop's subset enumeration, up to 2^routes linear
    solves per call, strikes about one 8-10 route network in twenty, so
    drawing the networks from the seed made the stages per second of a pass
    differ up to 6x between seeds. The lock-in runs are the two slowest ops
    of a pass, so both latency percentiles fall among the network runs.
    """
    rng = random.Random(f"simulate:{seed}")
    catalogue = random.Random("simulate:catalogue")
    pool = []
    for t in range(72):
        network, edge_ids = _random_network_text(catalogue, 2 + t % 9)
        text = scenario_text(17.0, [18.0], 0.5, 0.3, network, _learning_text(catalogue, edge_ids, 10))
        pool.append({"kind": "random_network", "text": text, "horizon": 10,
                     "sim_seed": rng.randrange(2**31)})
    for k in (1, 2):  # at a third and two thirds of the pass
        pool.insert(k * 25 - 1, {"kind": "lockin", "text": lockin_text, "horizon": 5000,
                                 "sim_seed": rng.randrange(2**31)})
    return pool

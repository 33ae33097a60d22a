"""Scenario files: one text file describing a game instance.

Four sections. ``[facilities]`` and ``[costs]`` define the security game;
``[network]`` and ``[learning]`` are optional and feed the routing simulator.
Full-line comments start with '#'. Example::

    [facilities]
    baseline_cost 17
    e1 20
    e2 19
    e3 18

    [costs]
    attack_cost 0.5
    defense_cost 0.3

    [network]
    demand 10
    # edge <id> <nominal slope> <nominal intercept> <compromised slope> <compromised intercept>
    edge e1 1 0 1 3
    route r1 e2 e1

    [learning]
    noise_half_width 3
    horizon 50
    true_state none
    prior e1 0.25
    prior none 0.75
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .learning import Belief, LearningError
from .model import CostParams, FacilityProfile, ModelError
from .routing import AffineLatency, Edge, NetworkError, Route, RoutedNetwork

_SECTIONS = ("facilities", "costs", "network", "learning")


class ScenarioError(ValueError):
    """Malformed scenario file; message carries the source line."""


@dataclass(frozen=True)
class LearningSettings:
    prior: Belief
    noise_half_width: float
    horizon: int
    true_state: str  # "none", "ne", "spe", or an edge id


@dataclass(frozen=True)
class Scenario:
    profile: FacilityProfile
    params: CostParams
    network: Optional[RoutedNetwork]
    learning: Optional[LearningSettings]


def _number(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ScenarioError(f"{where}: not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: non-finite number {token!r}")
    return value


def _integer(token: str, where: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ScenarioError(f"{where}: not an integer: {token!r}") from None


# [learning] settings that may appear once each, with the parser of their value.
_LEARNING_SETTINGS = {
    "noise_half_width": _number,
    "horizon": _integer,
    "true_state": lambda token, where: token,
}


# Not facility or edge ids: "none" is the intact state (prior rows, true_state, attack
# lines), "empty" its trace column theta_empty, "ne" and "spe" derived true states.
_RESERVED_IDS = ("none", "empty", "ne", "spe")


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    section: Optional[str] = None
    section_line = {name: 0 for name in _SECTIONS}
    seen: set[str] = set()

    baseline: Optional[float] = None
    facility_rows: list[tuple[str, float]] = []
    costs: dict[str, float] = {}
    demand: Optional[float] = None
    edges: list[Edge] = []
    routes: list[Route] = []
    settings: dict[str, Union[float, int, str]] = {}
    prior_rows: list[tuple[Optional[str], float]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        where = f"{source}:{lineno}"
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioError(f"{where}: unknown section [{name}]")
            if name in seen:
                raise ScenarioError(f"{where}: duplicate section [{name}]")
            seen.add(name)
            section = name
            section_line[name] = lineno
            continue
        if section is None:
            raise ScenarioError(f"{where}: content before any section header")
        tokens = line.split()

        if section == "facilities":
            if len(tokens) != 2:
                raise ScenarioError(f"{where}: expected '<id> <cost>' or 'baseline_cost <cost>'")
            if tokens[0] == "baseline_cost":
                if baseline is not None:
                    raise ScenarioError(f"{where}: duplicate baseline_cost")
                baseline = _number(tokens[1], where)
            elif tokens[0] in _RESERVED_IDS:
                raise ScenarioError(f"{where}: facility id {tokens[0]!r} is a reserved word")
            else:
                facility_rows.append((tokens[0], _number(tokens[1], where)))

        elif section == "costs":
            if len(tokens) != 2 or tokens[0] not in ("attack_cost", "defense_cost"):
                raise ScenarioError(f"{where}: expected 'attack_cost <x>' or 'defense_cost <x>'")
            if tokens[0] in costs:
                raise ScenarioError(f"{where}: duplicate {tokens[0]}")
            costs[tokens[0]] = _number(tokens[1], where)

        elif section == "network":
            if tokens[0] == "demand" and len(tokens) == 2:
                if demand is not None:
                    raise ScenarioError(f"{where}: duplicate demand")
                demand = _number(tokens[1], where)
            elif tokens[0] == "edge" and len(tokens) == 6:
                if tokens[1] in _RESERVED_IDS:
                    raise ScenarioError(f"{where}: edge id {tokens[1]!r} is a reserved word")
                coeffs = [_number(t, where) for t in tokens[2:]]
                edges.append(
                    Edge(
                        tokens[1],
                        AffineLatency(coeffs[0], coeffs[1]),
                        AffineLatency(coeffs[2], coeffs[3]),
                    )
                )
            elif tokens[0] == "route" and len(tokens) >= 3:
                routes.append(Route(tokens[1], tuple(tokens[2:])))
            else:
                raise ScenarioError(
                    f"{where}: expected 'demand <x>', 'edge <id> <4 coefficients>',"
                    " or 'route <id> <edges...>'"
                )

        elif section == "learning":
            if tokens[0] in _LEARNING_SETTINGS and len(tokens) == 2:
                if tokens[0] in settings:
                    raise ScenarioError(f"{where}: duplicate {tokens[0]}")
                settings[tokens[0]] = _LEARNING_SETTINGS[tokens[0]](tokens[1], where)
            elif tokens[0] == "prior" and len(tokens) == 3:
                state = None if tokens[1] == "none" else tokens[1]
                prior_rows.append((state, _number(tokens[2], where)))
            else:
                raise ScenarioError(
                    f"{where}: expected 'noise_half_width <x>', 'horizon <n>',"
                    " 'true_state <s>', or 'prior <state> <p>'"
                )

    if "facilities" not in seen:
        raise ScenarioError(f"{source}: missing [facilities] section")
    if "costs" not in seen:
        raise ScenarioError(f"{source}: missing [costs] section")
    if baseline is None:
        raise ScenarioError(f"{source}:{section_line['facilities']}: missing baseline_cost")
    for key in ("attack_cost", "defense_cost"):
        if key not in costs:
            raise ScenarioError(f"{source}:{section_line['costs']}: missing {key}")

    try:
        profile = FacilityProfile(baseline, tuple(facility_rows))
        params = CostParams(costs["attack_cost"], costs["defense_cost"])
    except ModelError as err:
        raise ScenarioError(f"{source}:{section_line['facilities']}: {err}") from None

    network: Optional[RoutedNetwork] = None
    if "network" in seen:
        if demand is None:
            raise ScenarioError(f"{source}:{section_line['network']}: missing demand")
        try:
            network = RoutedNetwork(tuple(edges), tuple(routes), demand)
        except NetworkError as err:
            raise ScenarioError(f"{source}:{section_line['network']}: {err}") from None

    learning: Optional[LearningSettings] = None
    if "learning" in seen:
        at = f"{source}:{section_line['learning']}"
        noise = settings.get("noise_half_width")
        horizon = settings.get("horizon", 100)
        true_state = settings.get("true_state", "ne")
        if network is None:
            raise ScenarioError(f"{at}: [learning] requires a [network] section")
        if noise is None:
            raise ScenarioError(f"{at}: missing noise_half_width")
        if noise <= 0.0:
            raise ScenarioError(f"{at}: noise_half_width must be positive")
        if horizon < 1:
            raise ScenarioError(f"{at}: horizon must be at least 1")
        if not prior_rows:
            raise ScenarioError(f"{at}: missing prior rows")
        edge_ids = set(network.edge_ids)
        for state, _ in prior_rows:
            if state is not None and state not in edge_ids:
                raise ScenarioError(f"{at}: prior names unknown edge {state!r}")
        if true_state not in ("none", "ne", "spe") and true_state not in edge_ids:
            raise ScenarioError(f"{at}: true_state {true_state!r} is not an edge, none, ne, or spe")
        try:
            prior = Belief(tuple(prior_rows))
        except LearningError as err:
            raise ScenarioError(f"{at}: {err}") from None
        learning = LearningSettings(prior, noise, horizon, true_state)

    return Scenario(profile, params, network, learning)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ScenarioError(f"{path}: {err.strerror or err}") from None
    return parse_scenario(text, source=path)

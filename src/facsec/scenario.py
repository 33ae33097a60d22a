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
    route r1 e1

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
from typing import TYPE_CHECKING, Optional, Union

from .model import CostParams, FacilityProfile, ModelError

if TYPE_CHECKING:  # imported by parse_scenario only for a scenario that has the section
    from .learning import Belief
    from .routing import RoutedNetwork


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
        if "_" in token:  # Python reads digit-group underscores; scenario files do not
            raise ValueError(token)
        value = float(token)
    except ValueError:
        raise ScenarioError(f"{where}: not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: non-finite number {token!r}")
    return value


def _integer(token: str, where: str) -> int:
    try:
        if "_" in token:
            raise ValueError(token)
        return int(token, 10)
    except ValueError:
        raise ScenarioError(f"{where}: not an integer: {token!r}") from None


# The file's grammar. Per section: the settings it may give once each, with the
# parser of their value; the settings it must give; and its usage line, which
# also names its repeated rows (facility, edge, route and prior rows).
_SETTINGS = {
    "facilities": {"baseline_cost": _number},
    "costs": {"attack_cost": _number, "defense_cost": _number},
    "network": {"demand": _number},
    "learning": {
        "noise_half_width": _number, "horizon": _integer, "true_state": lambda token, where: token,
    },
}
_REQUIRED = {"facilities": ("baseline_cost",), "costs": ("attack_cost", "defense_cost"),
             "network": ("demand",), "learning": ("noise_half_width",)}
_USAGE = {
    "facilities": "'<id> <cost>' or 'baseline_cost <cost>'",
    "costs": "'attack_cost <x>' or 'defense_cost <x>'",
    "network": "'demand <x>', 'edge <id> <4 coefficients>', or 'route <id> <edges...>'",
    "learning": "'noise_half_width <x>', 'horizon <n>', 'true_state <s>', or 'prior <state> <p>'",
}


# Not facility or edge ids: "none" is the intact state (prior rows, true_state, attack
# lines), "empty" its trace column theta_empty, "ne" and "spe" derived true states.
_RESERVED_IDS = ("none", "empty", "ne", "spe")


def _require(settings: dict, sections: tuple[str, ...], section_line: dict, source: str) -> None:
    for name in sections:
        for key in _REQUIRED[name]:
            if key not in settings:
                raise ScenarioError(f"{source}:{section_line[name]}: missing {key}")


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    section: Optional[str] = None
    once: dict = {}  # the current section's entry of _SETTINGS
    section_line: dict[str, int] = {}
    settings: dict[str, Union[float, int, str]] = {}
    facility_rows: list[tuple[str, float]] = []
    edge_rows: list[tuple[str, list[float]]] = []
    route_rows: list[tuple[str, tuple[str, ...]]] = []
    prior_rows: list[tuple[Optional[str], float]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SETTINGS:
                raise ScenarioError(f"{where}: unknown section [{name}]")
            if name in section_line:
                raise ScenarioError(f"{where}: duplicate section [{name}]")
            section, once = name, _SETTINGS[name]
            section_line[name] = lineno
            continue
        if section is None:
            raise ScenarioError(f"{where}: content before any section header")
        tokens = line.split()
        key, count = tokens[0], len(tokens)

        if key in once and count == 2:
            if key in settings:
                raise ScenarioError(f"{where}: duplicate {key}")
            settings[key] = once[key](tokens[1], where)
        elif section == "facilities" and count == 2:
            if key in _RESERVED_IDS:
                raise ScenarioError(f"{where}: facility id {key!r} is a reserved word")
            facility_rows.append((key, _number(tokens[1], where)))
        elif section == "network" and key == "edge" and count == 6:
            if tokens[1] in _RESERVED_IDS:
                raise ScenarioError(f"{where}: edge id {tokens[1]!r} is a reserved word")
            edge_rows.append((tokens[1], [_number(t, where) for t in tokens[2:]]))
        elif section == "network" and key == "route" and count >= 3:
            route_rows.append((tokens[1], tuple(tokens[2:])))
        elif section == "learning" and key == "prior" and count == 3:
            prior_rows.append((None if tokens[1] == "none" else tokens[1], _number(tokens[2], where)))
        else:
            raise ScenarioError(f"{where}: expected {_USAGE[section]}")

    for name in ("facilities", "costs"):
        if name not in section_line:
            raise ScenarioError(f"{source}: missing [{name}] section")
    _require(settings, ("facilities", "costs"), section_line, source)
    try:
        profile = FacilityProfile(settings["baseline_cost"], tuple(facility_rows))
    except ModelError as err:
        raise ScenarioError(f"{source}:{section_line['facilities']}: {err}") from None
    try:
        params = CostParams(settings["attack_cost"], settings["defense_cost"])
    except ModelError as err:
        raise ScenarioError(f"{source}:{section_line['costs']}: {err}") from None

    network: Optional[RoutedNetwork] = None
    if "network" in section_line:
        from .routing import AffineLatency, Edge, NetworkError, Route, RoutedNetwork

        _require(settings, ("network",), section_line, source)
        edges = tuple(Edge(e, AffineLatency(a, b), AffineLatency(c, d)) for e, (a, b, c, d) in edge_rows)
        routes = tuple(Route(r, route_edges) for r, route_edges in route_rows)
        try:
            network = RoutedNetwork(edges, routes, settings["demand"])
        except NetworkError as err:
            raise ScenarioError(f"{source}:{section_line['network']}: {err}") from None

    learning: Optional[LearningSettings] = None
    if "learning" in section_line:
        from .learning import Belief, LearningError

        here = f"{source}:{section_line['learning']}"
        if network is None:
            raise ScenarioError(f"{here}: [learning] requires a [network] section")
        _require(settings, ("learning",), section_line, source)
        noise = settings["noise_half_width"]
        horizon = settings.get("horizon", 100)
        true_state = settings.get("true_state", "ne")
        if noise <= 0.0:
            raise ScenarioError(f"{here}: noise_half_width must be positive")
        if horizon < 1:
            raise ScenarioError(f"{here}: horizon must be at least 1")
        if not prior_rows:
            raise ScenarioError(f"{here}: missing prior rows")
        edge_ids = set(network.edge_ids)
        for state, _ in prior_rows:
            if state is not None and state not in edge_ids:
                raise ScenarioError(f"{here}: prior names unknown edge {state!r}")
        if true_state not in ("none", "ne", "spe") and true_state not in edge_ids:
            raise ScenarioError(f"{here}: true_state {true_state!r} is not an edge, none, ne, or spe")
        try:
            prior = Belief(tuple(prior_rows))
        except LearningError as err:
            raise ScenarioError(f"{here}: {err}") from None
        learning = LearningSettings(prior, noise, horizon, true_state)

    return Scenario(profile, params, network, learning)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ScenarioError(f"{path}: {err.strerror or err}") from None
    return parse_scenario(text, source=path)

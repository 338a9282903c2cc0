"""Route sampling through a network (Sec. V workload model).

The paper's workload: a vehicle entering the network samples a
manoeuvre — right turn, left turn or straight — with per-entry-side
probabilities (Table I), *"while the intersection at which a vehicle
takes the turn is selected randomly"*.  After turning, the vehicle
continues straight until it exits the network.

:class:`RouteSampler` implements exactly that on any network whose
approaches carry the full set of three turn movements (our grids do):

1. walk the *straight corridor* from the entry road to the exit;
2. sample the turn type from the entry side's probabilities;
3. for a turning vehicle, pick the turning intersection uniformly
   among those on the corridor, take the turn there, and walk straight
   to the exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.model.geometry import Direction, TurnType
from repro.model.network import BOUNDARY, Network
from repro.util.validation import check_probability

__all__ = ["TurningProbabilities", "RouteSampler"]


@dataclass(frozen=True)
class TurningProbabilities:
    """Per-entry-side right/left turning probabilities (Table I style).

    The straight probability is the complement.
    """

    right: Mapping[Direction, float]
    left: Mapping[Direction, float]

    def __post_init__(self) -> None:
        for side in Direction:
            if side not in self.right or side not in self.left:
                raise ValueError(f"missing probabilities for side {side}")
            p_right = check_probability(f"right[{side.value}]", self.right[side])
            p_left = check_probability(f"left[{side.value}]", self.left[side])
            if p_right + p_left > 1.0:
                raise ValueError(
                    f"right+left probability exceeds 1 for side {side.value}: "
                    f"{p_right} + {p_left}"
                )

    def straight(self, side: Direction) -> float:
        """Probability of going straight when entering from ``side``."""
        return 1.0 - self.right[side] - self.left[side]

    def sample_turn(self, side: Direction, rng: np.random.Generator) -> TurnType:
        """Draw a manoeuvre for a vehicle entering from ``side``."""
        draw = rng.random()
        if draw < self.right[side]:
            return TurnType.RIGHT
        if draw < self.right[side] + self.left[side]:
            return TurnType.LEFT
        return TurnType.STRAIGHT

    @classmethod
    def uniform(cls, right: float = 0.25, left: float = 0.25) -> "TurningProbabilities":
        """Same probabilities for every entry side."""
        return cls(
            right={side: right for side in Direction},
            left={side: left for side in Direction},
        )


class _NetworkRoutes:
    """The seed- and turning-independent routing tables of one network.

    Straight corridors, entry sides, turn candidates and every walked
    route depend on the network alone, so they are built once per
    network (:meth:`~repro.model.network.Network.derived`) and shared
    by every :class:`RouteSampler` on it.  The route cache fills
    lazily; a cached walk is deterministic and draws nothing.
    """

    def __init__(self, network: Network):
        self.network = network
        entries = network.entry_roads()
        self.corridors: Dict[str, List[str]] = {
            entry: self._straight_walk(entry) for entry in entries
        }
        self.entry_side: Dict[str, Direction] = {}
        for entry in entries:
            movements = network.movements_of(entry)
            if not movements:
                raise ValueError(f"entry road {entry!r} has no movements")
            self.entry_side[entry] = movements[0].approach
        #: Per entry road: the corridor roads a vehicle can turn at.
        self.turn_candidates: Dict[str, List[str]] = {
            entry: [
                road
                for road in corridor
                if network.road_destination[road] != BOUNDARY
            ]
            for entry, corridor in self.corridors.items()
        }
        #: Routes are fully determined by (entry, turn road, turn type).
        self.routes: Dict[Tuple[str, str, TurnType], List[str]] = {}

    def _movement_with_turn(self, road_id: str, turn: TurnType) -> str:
        """The out-road reached by taking ``turn`` at the end of ``road_id``."""
        for movement in self.network.movements_of(road_id):
            if movement.turn is turn:
                return movement.out_road
        raise ValueError(
            f"road {road_id!r} has no {turn.value} movement at its "
            f"downstream intersection"
        )

    def _straight_walk(self, road_id: str) -> List[str]:
        """Roads visited going straight from ``road_id`` until the exit."""
        path = [road_id]
        current = road_id
        seen = {road_id}
        while self.network.road_destination[current] != BOUNDARY:
            current = self._movement_with_turn(current, TurnType.STRAIGHT)
            if current in seen:
                raise ValueError(
                    f"straight walk from {road_id!r} loops at {current!r}"
                )
            seen.add(current)
            path.append(current)
        return path

    def turning_route(
        self, entry_road: str, turn_road: str, turn: TurnType
    ) -> List[str]:
        """The route turning ``turn`` at the end of ``turn_road``."""
        key = (entry_road, turn_road, turn)
        route = self.routes.get(key)
        if route is None:
            corridor = self.corridors[entry_road]
            prefix = corridor[: corridor.index(turn_road) + 1]
            tail = self._straight_walk(self._movement_with_turn(turn_road, turn))
            route = prefix + tail
            self.network.validate_route(route)
            self.routes[key] = route
        return route


class RouteSampler:
    """Samples full road-level routes for entering vehicles.

    The sampler owns only its RNG and turn thresholds; corridors and
    walked routes come from the network's shared :class:`_NetworkRoutes`.
    """

    def __init__(
        self,
        network: Network,
        turning: TurningProbabilities,
        rng: np.random.Generator,
    ):
        self.network = network
        self.turning = turning
        self._rng = rng
        routes = network.derived(_NetworkRoutes, lambda: _NetworkRoutes(network))
        self._routes = routes
        self._corridors = routes.corridors
        self._turn_candidates = routes.turn_candidates
        self._route_cache = routes.routes
        # Per-entry turn thresholds (right, right + left): lets the hot
        # path draw the manoeuvre with one uniform sample and two plain
        # float compares — the same draw ``sample_turn`` makes, without
        # the enum-keyed mapping lookups.
        self._turn_thresholds: Dict[str, Tuple[float, float]] = {
            entry: (
                turning.right[side],
                turning.right[side] + turning.left[side],
            )
            for entry, side in routes.entry_side.items()
        }

    def entry_side(self, entry_road: str) -> Direction:
        """The network side a given entry road comes from."""
        try:
            return self._routes.entry_side[entry_road]
        except KeyError:
            raise KeyError(f"{entry_road!r} is not an entry road")

    def corridor(self, entry_road: str) -> List[str]:
        """The straight corridor (road list) of an entry road."""
        return list(self._corridors[entry_road])

    def sample_route(self, entry_road: str) -> List[str]:
        """Sample a complete route starting on ``entry_road``.

        Returns the ordered list of road ids, from the entry road to an
        exit road inclusive.  The list is shared between vehicles, and
        between samplers on the same network, with the same route
        (routes are static per network) — callers must treat it as
        read-only, which every engine does: vehicles track their
        position with a leg index and never edit the route.
        """
        corridor = self._corridors.get(entry_road)
        if corridor is None:
            raise KeyError(f"{entry_road!r} is not an entry road")
        # Same draw and decision logic as TurningProbabilities
        # .sample_turn, on precomputed thresholds.
        right, right_or_left = self._turn_thresholds[entry_road]
        draw = self._rng.random()
        if draw < right:
            turn = TurnType.RIGHT
        elif draw < right_or_left:
            turn = TurnType.LEFT
        else:
            return corridor
        # A vehicle can turn at the downstream end of every corridor
        # road that feeds an intersection (the final exit road cannot).
        turn_candidates = self._turn_candidates[entry_road]
        if not turn_candidates:
            return corridor
        pick = int(self._rng.integers(0, len(turn_candidates)))
        turn_road = turn_candidates[pick]
        route = self._route_cache.get((entry_road, turn_road, turn))
        if route is None:
            route = self._routes.turning_route(entry_road, turn_road, turn)
        return route

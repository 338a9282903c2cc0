"""Multi-intersection road networks.

A :class:`Network` is a set of intersections whose roads connect them
to each other and to the outside world.  A road connecting two
intersections is *shared*: it is an outgoing road of the upstream
intersection and an incoming road of the downstream one, so finite
capacity couples neighbours (spillback) exactly as in the paper's
Sec. II-A.  Roads whose origin is the sentinel :data:`BOUNDARY` are
network entries (vehicles appear there, per the arrival processes) and
roads whose destination is :data:`BOUNDARY` are exits (vehicles leave
the system).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, TypeVar

from repro.model.intersection import Intersection
from repro.model.movements import Movement
from repro.model.roads import Road

__all__ = ["BOUNDARY", "Network"]

#: Sentinel node id for the outside world.
BOUNDARY = "__boundary__"

T = TypeVar("T")


@dataclass(frozen=True)
class Network:
    """A road network of signalized intersections.

    A network is read-only once built: its fields cannot be reassigned
    and its mappings are read-only views of private copies, so one
    instance can be shared by every scenario, engine and controller
    that runs on the same topology (see :func:`~repro.model.grid.
    build_grid_network`'s per-process cache).  Tables derived from the
    network alone are built once through :meth:`derived`.

    Attributes
    ----------
    intersections:
        Intersections keyed by node id.
    roads:
        Every road in the network keyed by road id.
    road_origin / road_destination:
        Node id (or :data:`BOUNDARY`) each road leaves from / arrives
        at.
    """

    intersections: Mapping[str, Intersection]
    roads: Mapping[str, Road]
    road_origin: Mapping[str, str]
    road_destination: Mapping[str, str]
    _derived: Dict[Hashable, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name in ("intersections", "roads", "road_origin", "road_destination"):
            object.__setattr__(
                self, name, MappingProxyType(dict(getattr(self, name)))
            )
        self._validate()

    def __reduce__(self):
        # Read-only views do not pickle; rebuild from plain copies (the
        # derived tables are rebuilt on demand).
        return (
            Network,
            (
                dict(self.intersections),
                dict(self.roads),
                dict(self.road_origin),
                dict(self.road_destination),
            ),
        )

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, computed once per network and ``key``.

        The network cannot change, so a table computed from it alone —
        route corridors, engine column tables, controller layouts — is
        valid for as long as the network lives, and every engine or
        controller on the same network can share it.  ``key`` must
        name everything besides the network the table depends on.
        Shared tables must be treated as read-only by their users.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def _validate(self) -> None:
        for road_id in self.roads:
            if road_id not in self.road_origin:
                raise ValueError(f"road {road_id!r} has no origin")
            if road_id not in self.road_destination:
                raise ValueError(f"road {road_id!r} has no destination")
        for node_id, intersection in self.intersections.items():
            if node_id != intersection.node_id:
                raise ValueError(
                    f"intersection key {node_id!r} != node_id "
                    f"{intersection.node_id!r}"
                )
            for road_id in intersection.in_roads:
                if self.road_destination.get(road_id) != node_id:
                    raise ValueError(
                        f"incoming road {road_id!r} of {node_id} does not "
                        f"terminate there (destination="
                        f"{self.road_destination.get(road_id)!r})"
                    )
            for road_id in intersection.out_roads:
                if self.road_origin.get(road_id) != node_id:
                    raise ValueError(
                        f"outgoing road {road_id!r} of {node_id} does not "
                        f"originate there (origin="
                        f"{self.road_origin.get(road_id)!r})"
                    )
            # Engines read roads from the network, controllers from the
            # intersection: both must read the same road.
            roads = {**intersection.in_roads, **intersection.out_roads}
            for road_id, road in roads.items():
                if self.roads.get(road_id) != road:
                    raise ValueError(
                        f"road {road_id!r} at {node_id} differs from the "
                        f"network's record {self.roads.get(road_id)}"
                    )

    # -- topology queries --------------------------------------------------

    def entry_roads(self) -> List[str]:
        """Roads on which vehicles enter the network (sorted)."""
        return sorted(
            road_id
            for road_id, origin in self.road_origin.items()
            if origin == BOUNDARY
        )

    def exit_roads(self) -> List[str]:
        """Roads on which vehicles leave the network (sorted)."""
        return sorted(
            road_id
            for road_id, dest in self.road_destination.items()
            if dest == BOUNDARY
        )

    def internal_roads(self) -> List[str]:
        """Roads connecting two intersections (sorted)."""
        return sorted(
            road_id
            for road_id in self.roads
            if self.road_origin[road_id] != BOUNDARY
            and self.road_destination[road_id] != BOUNDARY
        )

    def downstream_intersection(self, road_id: str) -> Optional[Intersection]:
        """The intersection a road feeds into, or ``None`` at an exit."""
        dest = self.road_destination[road_id]
        if dest == BOUNDARY:
            return None
        return self.intersections[dest]

    def upstream_intersection(self, road_id: str) -> Optional[Intersection]:
        """The intersection a road leaves from, or ``None`` at an entry."""
        origin = self.road_origin[road_id]
        if origin == BOUNDARY:
            return None
        return self.intersections[origin]

    def movements_of(self, road_id: str) -> List[Movement]:
        """The movements available at the downstream end of ``road_id``.

        Empty for exit roads.
        """
        downstream = self.downstream_intersection(road_id)
        if downstream is None:
            return []
        return downstream.movements_from(road_id)

    def route_next(self, road_id: str, out_road: str) -> str:
        """Validate and return the next road of a route step."""
        downstream = self.downstream_intersection(road_id)
        if downstream is None:
            raise ValueError(f"road {road_id!r} exits the network; no next road")
        if (road_id, out_road) not in downstream.movements:
            raise ValueError(
                f"no movement {road_id!r} -> {out_road!r} at "
                f"{downstream.node_id}"
            )
        return out_road

    def validate_route(self, route: List[str]) -> None:
        """Raise ``ValueError`` unless ``route`` is a connected road path."""
        if not route:
            raise ValueError("route must contain at least one road")
        for road_id in route:
            if road_id not in self.roads:
                raise ValueError(f"route references unknown road {road_id!r}")
        for current, nxt in zip(route, route[1:]):
            self.route_next(current, nxt)
        if self.road_destination[route[-1]] != BOUNDARY:
            raise ValueError(
                f"route must end on an exit road, ends on {route[-1]!r}"
            )

    def total_capacity(self) -> int:
        """Sum of all road capacities (a bound for total vehicles queued)."""
        return sum(road.capacity for road in self.roads.values())

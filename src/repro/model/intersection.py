"""Signalized intersections (Sec. II-A) and the Fig. 1 standard layout.

An :class:`Intersection` bundles the incoming/outgoing road sets, the
legal movements, and the control-phase table.
:func:`build_standard_intersection` reproduces the paper's example
intersection exactly: four approaches, twelve movements, and the four
control phases tabulated in Fig. 1:

=======  ==========================================================
phase    activated links (paper notation -> compass)
=======  ==========================================================
``c1``   ``L1^6 L1^7 L3^5 L3^8`` — north/south straight + left
``c2``   ``L1^8 L3^6``           — north/south right
``c3``   ``L2^7 L2^8 L4^5 L4^6`` — east/west straight + left
``c4``   ``L2^5 L4^7``           — east/west right
=======  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple, TypeVar

from repro.model.conflicts import validate_phase
from repro.model.geometry import Direction, TurnType
from repro.model.movements import Movement
from repro.model.phases import Phase
from repro.model.roads import Road

__all__ = ["Intersection", "build_standard_intersection"]

T = TypeVar("T")


@dataclass(frozen=True)
class Intersection:
    """A signalized intersection of the queuing-network model.

    Read-only once built, like :class:`~repro.model.network.Network`:
    the mappings are read-only views of private copies and ``phases``
    is a tuple.  A variant (say, a different phase plan) is a new
    ``Intersection``.  Tables derived from the intersection alone are
    built once through :meth:`derived`.

    Attributes
    ----------
    node_id:
        Unique identifier, e.g. ``"J02"``.
    in_roads / out_roads:
        The sets ``N_I`` and ``N_O``, keyed by road id.
    movements:
        All feasible links ``L_i^{i'}``, keyed by ``(in_road, out_road)``.
    phases:
        The feasible control phases ``C = {c_j}`` (transition phase
        excluded; it is implicit).
    """

    node_id: str
    in_roads: Mapping[str, Road]
    out_roads: Mapping[str, Road]
    movements: Mapping[Tuple[str, str], Movement]
    phases: Tuple[Phase, ...]
    approach_of: Mapping[Direction, str] = field(default_factory=dict)
    exit_of: Mapping[Direction, str] = field(default_factory=dict)
    _derived: Dict[Hashable, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name in ("in_roads", "out_roads", "movements", "approach_of", "exit_of"):
            object.__setattr__(
                self, name, MappingProxyType(dict(getattr(self, name)))
            )
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.node_id:
            raise ValueError("node_id must be non-empty")
        overlap = set(self.in_roads) & set(self.out_roads)
        if overlap:
            raise ValueError(
                f"roads cannot be both incoming and outgoing at {self.node_id}: "
                f"{sorted(overlap)}"
            )
        for key, movement in self.movements.items():
            if key != movement.key:
                raise ValueError(f"movement key mismatch: {key} vs {movement.key}")
            if movement.in_road not in self.in_roads:
                raise ValueError(
                    f"movement {key} references unknown incoming road "
                    f"{movement.in_road!r} at {self.node_id}"
                )
            if movement.out_road not in self.out_roads:
                raise ValueError(
                    f"movement {key} references unknown outgoing road "
                    f"{movement.out_road!r} at {self.node_id}"
                )
        indices = [p.index for p in self.phases]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate phase indices at {self.node_id}: {indices}")
        for phase in self.phases:
            for movement in phase:
                if movement.key not in self.movements:
                    raise ValueError(
                        f"phase {phase.name} at {self.node_id} activates unknown "
                        f"movement {movement.key}"
                    )

    def __reduce__(self):
        # Read-only views do not pickle; rebuild from plain copies (the
        # derived tables are rebuilt on demand).
        return (
            Intersection,
            (
                self.node_id,
                dict(self.in_roads),
                dict(self.out_roads),
                dict(self.movements),
                self.phases,
                dict(self.approach_of),
                dict(self.exit_of),
            ),
        )

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, computed once per intersection and ``key``.

        The counterpart of :meth:`~repro.model.network.Network.derived`:
        a table computed from the intersection alone (a controller's
        plan of its phase table) is shared, read-only, by every
        controller of the intersection.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    # -- lookups ---------------------------------------------------------

    def phase_by_index(self, index: int) -> Phase:
        """Return the control phase with the given index."""
        for phase in self.phases:
            if phase.index == index:
                return phase
        raise KeyError(f"no phase c{index} at {self.node_id}")

    def movement(self, in_road: str, out_road: str) -> Movement:
        """Return the movement ``L_{in}^{out}``."""
        return self.movements[(in_road, out_road)]

    def movements_from(self, in_road: str) -> List[Movement]:
        """All movements leaving the given incoming road."""
        return [m for m in self.movements.values() if m.in_road == in_road]

    def movements_into(self, out_road: str) -> List[Movement]:
        """All movements entering the given outgoing road."""
        return [m for m in self.movements.values() if m.out_road == out_road]

    def capacity(self, road_id: str) -> int:
        """Capacity ``W_i`` of any road at this intersection."""
        road = self.in_roads.get(road_id) or self.out_roads.get(road_id)
        if road is None:
            raise KeyError(f"road {road_id!r} not at intersection {self.node_id}")
        return road.capacity

    @property
    def w_star(self) -> int:
        """``W* = max_{i'} W_{i'}`` (Eq. 7): the largest outgoing capacity."""
        return max(road.capacity for road in self.out_roads.values())

    def validate_phases(self, mode: str = "paper") -> None:
        """Check every phase for internal movement conflicts."""
        for phase in self.phases:
            validate_phase(phase, mode=mode)


def build_standard_intersection(
    node_id: str,
    in_roads: Mapping[Direction, Road],
    out_roads: Mapping[Direction, Road],
    service_rate: float = 1.0,
    service_rates: Optional[Mapping[Tuple[Direction, TurnType], float]] = None,
) -> Intersection:
    """Build the paper's Fig. 1 intersection.

    Parameters
    ----------
    node_id:
        Intersection identifier.
    in_roads / out_roads:
        One road per compass side, for each direction.
    service_rate:
        Default ``µ`` for every movement (the paper uses 1 veh/s).
    service_rates:
        Optional per-``(approach, turn)`` overrides.
    """
    missing = [d for d in Direction if d not in in_roads or d not in out_roads]
    if missing:
        raise ValueError(f"{node_id}: missing roads for sides {missing}")

    movements: Dict[Tuple[str, str], Movement] = {}

    def make(approach: Direction, turn: TurnType) -> Movement:
        """Build one movement of the standard intersection."""
        exit_side = approach.exit_side(turn)
        mu = service_rate
        if service_rates and (approach, turn) in service_rates:
            mu = service_rates[(approach, turn)]
        movement = Movement(
            in_road=in_roads[approach].road_id,
            out_road=out_roads[exit_side].road_id,
            approach=approach,
            turn=turn,
            service_rate=mu,
        )
        movements[movement.key] = movement
        return movement

    # Twelve feasible links: three turns per approach.
    by_label: Dict[Tuple[Direction, TurnType], Movement] = {}
    for approach in Direction:
        for turn in TurnType:
            by_label[(approach, turn)] = make(approach, turn)

    # The four control phases of Fig. 1.
    phases = (
        Phase(
            index=1,
            movements=(
                by_label[(Direction.N, TurnType.STRAIGHT)],
                by_label[(Direction.N, TurnType.LEFT)],
                by_label[(Direction.S, TurnType.STRAIGHT)],
                by_label[(Direction.S, TurnType.LEFT)],
            ),
        ),
        Phase(
            index=2,
            movements=(
                by_label[(Direction.N, TurnType.RIGHT)],
                by_label[(Direction.S, TurnType.RIGHT)],
            ),
        ),
        Phase(
            index=3,
            movements=(
                by_label[(Direction.E, TurnType.STRAIGHT)],
                by_label[(Direction.E, TurnType.LEFT)],
                by_label[(Direction.W, TurnType.STRAIGHT)],
                by_label[(Direction.W, TurnType.LEFT)],
            ),
        ),
        Phase(
            index=4,
            movements=(
                by_label[(Direction.E, TurnType.RIGHT)],
                by_label[(Direction.W, TurnType.RIGHT)],
            ),
        ),
    )

    intersection = Intersection(
        node_id=node_id,
        in_roads={road.road_id: road for road in in_roads.values()},
        out_roads={road.road_id: road for road in out_roads.values()},
        movements=movements,
        phases=phases,
        approach_of={d: in_roads[d].road_id for d in Direction},
        exit_of={d: out_roads[d].road_id for d in Direction},
    )
    intersection.validate_phases(mode="paper")
    return intersection

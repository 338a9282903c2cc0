"""Rectangular grid networks of standard four-leg intersections.

The paper evaluates on a 3x3 grid of identical Fig.-1 intersections.
:func:`build_grid_network` builds an ``rows x cols`` grid: adjacent
intersections are connected by one directed road per direction, and
every perimeter side gets an entry road and an exit road connected to
the outside world (:data:`~repro.model.network.BOUNDARY`).

Naming scheme
-------------
* Intersections: ``"J{row}{col}"`` with row 0 at the *north* edge.
  From 12 rows and 11 columns on that concatenation aliases positions
  (``J110`` is both (1, 10) and (11, 0)), so such a grid delimits its
  ids: ``"J{row}_{col}"``.  Every smaller grid keeps the plain ids.
* Internal roads: ``"J00->J01"`` (origin -> destination).
* Boundary roads: ``"IN:N@J01"`` (entry from the north into J01) and
  ``"OUT:N@J01"`` (exit towards the north from J01).

Caching
-------
A grid depends only on the builder's arguments, never on a seed, and a
built :class:`~repro.model.network.Network` is read-only, so
:func:`build_grid_network` builds each distinct grid once per process
and hands every later caller the same instance.  The cache keeps the
:data:`GRID_CACHE_SIZE` most recently used grids.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Mapping, Optional, Tuple

from repro.model.geometry import Direction
from repro.model.intersection import Intersection, build_standard_intersection
from repro.model.network import BOUNDARY, Network
from repro.model.roads import Road

__all__ = [
    "grid_node_id",
    "entry_road_id",
    "exit_road_id",
    "internal_road_id",
    "build_grid_network",
    "GRID_CACHE_SIZE",
]

#: Distinct grids :func:`build_grid_network` keeps per process.
GRID_CACHE_SIZE = 16

_OFFSETS: Dict[Direction, Tuple[int, int]] = {
    Direction.N: (-1, 0),
    Direction.S: (1, 0),
    Direction.E: (0, 1),
    Direction.W: (0, -1),
}


def grid_node_id(
    row: int, col: int, shape: Optional[Tuple[int, int]] = None
) -> str:
    """Canonical intersection id for grid position ``(row, col)``.

    ``shape`` is the grid's ``(rows, cols)``.  A grid of at least 12
    rows and 11 columns gets ``J{row}_{col}`` ids — exactly the grids
    where ``J{row}{col}`` would alias two positions.  Without ``shape``
    the position is taken to be on a smaller grid.
    """
    if row < 0 or col < 0:
        raise ValueError(f"grid position must be non-negative, got ({row}, {col})")
    if shape is not None and shape[0] >= 12 and shape[1] >= 11:
        return f"J{row}_{col}"
    return f"J{row}{col}"


def entry_road_id(side: Direction, node_id: str) -> str:
    """Id of the boundary *entry* road reaching ``node_id`` from ``side``."""
    return f"IN:{side.value}@{node_id}"


def exit_road_id(side: Direction, node_id: str) -> str:
    """Id of the boundary *exit* road leaving ``node_id`` towards ``side``."""
    return f"OUT:{side.value}@{node_id}"


def internal_road_id(src: str, dst: str) -> str:
    """Id of the internal road from intersection ``src`` to ``dst``."""
    return f"{src}->{dst}"


def build_grid_network(
    rows: int,
    cols: int,
    capacity: int = 120,
    road_length: float = 300.0,
    speed_limit: float = 13.89,
    service_rate: float = 1.0,
    boundary_capacity: Optional[int] = None,
    capacity_overrides: Optional[Mapping[str, int]] = None,
    node_service_rates: Optional[Mapping[str, float]] = None,
) -> Network:
    """Build an ``rows x cols`` grid of standard intersections.

    Parameters
    ----------
    rows, cols:
        Grid dimensions (both >= 1).
    capacity:
        ``W_i`` of every internal road (paper: 120).
    road_length, speed_limit:
        Physical attributes used by the microscopic engine.
    service_rate:
        ``µ`` of every movement (paper: 1 veh/s).
    boundary_capacity:
        Capacity of boundary entry/exit roads.  Defaults to
        ``capacity``.  Exit roads are drained by the outside world, so
        in practice only entry roads are capacity-limited.
    capacity_overrides:
        Per-road-id capacity overrides (e.g. an incident shrinking one
        road to half its lanes).  Keys must name roads the grid builds.
    node_service_rates:
        Per-intersection default ``µ`` overrides (e.g. a blocked
        junction serving slower), keyed by node id.

    Returns the cached instance when an earlier call passed the same
    arguments (see the module docstring).
    """
    return _build_grid(
        rows,
        cols,
        capacity,
        road_length,
        speed_limit,
        service_rate,
        boundary_capacity,
        tuple(sorted((capacity_overrides or {}).items())),
        tuple(sorted((node_service_rates or {}).items())),
    )


@lru_cache(maxsize=GRID_CACHE_SIZE, typed=True)
def _build_grid(
    rows: int,
    cols: int,
    capacity: int,
    road_length: float,
    speed_limit: float,
    service_rate: float,
    boundary_capacity: Optional[int],
    capacity_overrides: Tuple[Tuple[str, int], ...],
    node_service_rates: Tuple[Tuple[str, float], ...],
) -> Network:
    """Build one grid; the mapping arguments come as sorted item tuples."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
    shape = (rows, cols)
    if boundary_capacity is None:
        boundary_capacity = capacity
    capacity_overrides = dict(capacity_overrides)
    node_service_rates = dict(node_service_rates)

    roads: Dict[str, Road] = {}
    road_origin: Dict[str, str] = {}
    road_destination: Dict[str, str] = {}

    def add_road(road_id: str, origin: str, destination: str, cap: int) -> Road:
        """Create one road and register its endpoints."""
        if road_id in roads:
            return roads[road_id]
        cap = capacity_overrides.pop(road_id, cap)
        road = Road(
            road_id=road_id,
            capacity=cap,
            length=road_length,
            speed_limit=speed_limit,
        )
        roads[road_id] = road
        road_origin[road_id] = origin
        road_destination[road_id] = destination
        return road

    def neighbour(row: int, col: int, side: Direction) -> Optional[str]:
        """The neighbouring junction id one step in ``direction``."""
        d_row, d_col = _OFFSETS[side]
        n_row, n_col = row + d_row, col + d_col
        if 0 <= n_row < rows and 0 <= n_col < cols:
            return grid_node_id(n_row, n_col, shape)
        return None

    intersections: Dict[str, Intersection] = {}
    for row in range(rows):
        for col in range(cols):
            node_id = grid_node_id(row, col, shape)
            in_roads: Dict[Direction, Road] = {}
            out_roads: Dict[Direction, Road] = {}
            for side in Direction:
                other = neighbour(row, col, side)
                if other is None:
                    in_roads[side] = add_road(
                        entry_road_id(side, node_id),
                        BOUNDARY,
                        node_id,
                        boundary_capacity,
                    )
                    out_roads[side] = add_road(
                        exit_road_id(side, node_id),
                        node_id,
                        BOUNDARY,
                        boundary_capacity,
                    )
                else:
                    in_roads[side] = add_road(
                        internal_road_id(other, node_id),
                        other,
                        node_id,
                        capacity,
                    )
                    out_roads[side] = add_road(
                        internal_road_id(node_id, other),
                        node_id,
                        other,
                        capacity,
                    )
            intersections[node_id] = build_standard_intersection(
                node_id,
                in_roads=in_roads,
                out_roads=out_roads,
                service_rate=node_service_rates.pop(node_id, service_rate),
            )

    if capacity_overrides:
        raise ValueError(
            f"capacity_overrides name roads the grid does not build: "
            f"{sorted(capacity_overrides)}"
        )
    if node_service_rates:
        raise ValueError(
            f"node_service_rates name unknown intersections: "
            f"{sorted(node_service_rates)}"
        )

    return Network(
        intersections=intersections,
        roads=roads,
        road_origin=road_origin,
        road_destination=road_destination,
    )

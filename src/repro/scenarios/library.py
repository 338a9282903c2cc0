"""The shipped scenario catalog: families bound to public names.

Each family builder accepts the shared grid axes (``rows``, ``cols``,
``capacity``, ``service_rate``, ``road_length``), the ``load`` level
and family-specific shape parameters, and returns a plain
:class:`~repro.scenarios.core.Scenario` — the same object the paper's
:func:`~repro.scenarios.core.build_scenario` produces, so every engine
and driver runs catalog workloads unchanged.

Importing this module populates the registry in
:mod:`repro.scenarios.catalog`; the package ``__init__`` does that, so
``import repro.scenarios`` is all a worker process needs.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.scenarios.patterns import TURNING
from repro.model.geometry import Direction
from repro.model.grid import (
    build_grid_network,
    entry_road_id,
    grid_node_id,
    internal_road_id,
)
from repro.model.routing import TurningProbabilities
from repro.scenarios.catalog import register_family, register_scenario
from repro.scenarios.core import Scenario, demand_from_profile
from repro.scenarios.profiles import (
    SideSchedules,
    asymmetric_turning,
    steady_profile,
    surge_profile,
    tidal_profile,
)

__all__ = [
    "STEADY",
    "TIDAL",
    "SURGE",
    "INCIDENT",
    "ASYMMETRIC",
    "GRIDLOCK",
    "incident_road",
]


def _grid_scenario(
    name: str,
    seed: int,
    rows: int,
    cols: int,
    per_side: SideSchedules,
    duration: float,
    turning: Optional[TurningProbabilities] = None,
    capacity: int = 120,
    service_rate: float = 1.0,
    road_length: float = 300.0,
    capacity_overrides: Optional[Mapping[str, int]] = None,
    node_service_rates: Optional[Mapping[str, float]] = None,
) -> Scenario:
    """Assemble a scenario from a grid spec and a per-side profile."""
    network = build_grid_network(
        rows,
        cols,
        capacity=capacity,
        road_length=road_length,
        service_rate=service_rate,
        capacity_overrides=capacity_overrides,
        node_service_rates=node_service_rates,
    )
    return Scenario(
        name=name,
        network=network,
        demand=demand_from_profile(network, per_side),
        turning=turning or TURNING,
        seed=seed,
        default_duration=duration,
    )


def _build_steady(
    name: str = "steady",
    seed: int = 0,
    rows: int = 3,
    cols: int = 3,
    load: float = 1.0,
    duration: float = 3600.0,
    **grid_kwargs: Any,
) -> Scenario:
    return _grid_scenario(
        name, seed, rows, cols, steady_profile(load), duration, **grid_kwargs
    )


def _build_tidal(
    name: str = "tidal",
    seed: int = 0,
    rows: int = 3,
    cols: int = 3,
    load: float = 1.0,
    reversal_time: float = 1800.0,
    peak_factor: float = 2.0,
    offpeak_factor: float = 0.5,
    duration: Optional[float] = None,
    **grid_kwargs: Any,
) -> Scenario:
    per_side = tidal_profile(
        load,
        reversal_time=reversal_time,
        peak_factor=peak_factor,
        offpeak_factor=offpeak_factor,
    )
    if duration is None:
        duration = 2 * reversal_time
    return _grid_scenario(
        name, seed, rows, cols, per_side, duration, **grid_kwargs
    )


def _build_surge(
    name: str = "surge",
    seed: int = 0,
    rows: int = 3,
    cols: int = 3,
    load: float = 1.0,
    surge_start: float = 1200.0,
    surge_duration: float = 1200.0,
    surge_factor: float = 2.5,
    duration: float = 3600.0,
    **grid_kwargs: Any,
) -> Scenario:
    per_side = surge_profile(
        load,
        surge_start=surge_start,
        surge_duration=surge_duration,
        surge_factor=surge_factor,
    )
    return _grid_scenario(
        name, seed, rows, cols, per_side, duration, **grid_kwargs
    )


def incident_road(rows: int, cols: int) -> str:
    """The road an ``incident`` scenario degrades on an RxC grid.

    The road feeding the central intersection from its west neighbour;
    single-column grids fall back to the north neighbour, and a 1x1
    grid to the western entry road.
    """
    shape = (rows, cols)
    mid_row, mid_col = rows // 2, cols // 2
    center = grid_node_id(mid_row, mid_col, shape)
    if mid_col >= 1:
        return internal_road_id(grid_node_id(mid_row, mid_col - 1, shape), center)
    if mid_row >= 1:
        return internal_road_id(grid_node_id(mid_row - 1, mid_col, shape), center)
    return entry_road_id(Direction.W, center)


def _build_incident(
    name: str = "incident",
    seed: int = 0,
    rows: int = 3,
    cols: int = 3,
    load: float = 1.0,
    capacity: int = 120,
    service_rate: float = 1.0,
    capacity_factor: float = 0.4,
    service_factor: float = 0.5,
    duration: float = 3600.0,
    **grid_kwargs: Any,
) -> Scenario:
    """Steady demand over a grid with a lane-capacity-drop incident.

    The central intersection's main feeder keeps only
    ``capacity_factor`` of its lanes and the junction serves at
    ``service_factor`` of the nominal rate — demand does not adapt.
    """
    degraded = incident_road(rows, cols)
    overrides: Dict[str, int] = {
        degraded: max(1, int(capacity * capacity_factor))
    }
    node_rates = {
        grid_node_id(rows // 2, cols // 2, (rows, cols)): (
            service_rate * service_factor
        )
    }
    return _grid_scenario(
        name,
        seed,
        rows,
        cols,
        steady_profile(load),
        duration,
        capacity=capacity,
        service_rate=service_rate,
        capacity_overrides=overrides,
        node_service_rates=node_rates,
        **grid_kwargs,
    )


def _build_asymmetric(
    name: str = "asymmetric",
    seed: int = 0,
    rows: int = 3,
    cols: int = 3,
    load: float = 1.0,
    heavy_side: Direction = Direction.N,
    heavy_left: float = 0.55,
    duration: float = 3600.0,
    **grid_kwargs: Any,
) -> Scenario:
    turning = asymmetric_turning(heavy_side=heavy_side, heavy_left=heavy_left)
    return _grid_scenario(
        name,
        seed,
        rows,
        cols,
        steady_profile(load),
        duration,
        turning=turning,
        **grid_kwargs,
    )


def _build_gridlock(
    name: str = "gridlock",
    seed: int = 0,
    rows: int = 3,
    cols: int = 3,
    load: float = 1.6,
    duration: float = 3600.0,
    **grid_kwargs: Any,
) -> Scenario:
    return _grid_scenario(
        name, seed, rows, cols, steady_profile(load), duration, **grid_kwargs
    )


#: The ``**grid_kwargs`` every family builder forwards verbatim to
#: :func:`_grid_scenario`; declared at registration so the catalog can
#: validate sweep parameters eagerly (families that bind one of these
#: themselves must subtract it — passing it again would be a
#: ``TypeError``, exactly what eager validation exists to prevent).
_GRID_PASSTHROUGH = frozenset(
    {
        "turning",
        "capacity",
        "service_rate",
        "road_length",
        "capacity_overrides",
        "node_service_rates",
    }
)

STEADY = register_family(
    "steady",
    "uniform constant Poisson demand on all sides",
    _build_steady,
    extra_params=_GRID_PASSTHROUGH,
)
TIDAL = register_family(
    "tidal",
    "peak-direction demand that reverses mid-horizon (commute tide)",
    _build_tidal,
    extra_params=_GRID_PASSTHROUGH,
)
SURGE = register_family(
    "surge",
    "uniform base load with a step-change surge window (flash crowd)",
    _build_surge,
    extra_params=_GRID_PASSTHROUGH,
)
INCIDENT = register_family(
    "incident",
    "steady demand over a lane-capacity-drop at the central junction",
    _build_incident,
    # capacity/service_rate are explicit builder params and the
    # overrides are computed from the incident shape itself.
    extra_params=_GRID_PASSTHROUGH
    - {"capacity", "service_rate", "capacity_overrides", "node_service_rates"},
)
ASYMMETRIC = register_family(
    "asymmetric",
    "steady demand with a dominant left-turn stream from one side",
    _build_asymmetric,
    # turning is derived from heavy_side/heavy_left.
    extra_params=_GRID_PASSTHROUGH - {"turning"},
)
GRIDLOCK = register_family(
    "gridlock",
    "over-saturating uniform demand (stability stress)",
    _build_gridlock,
    extra_params=_GRID_PASSTHROUGH,
)

register_scenario(
    "steady-3x3", STEADY, "paper-style uniform demand, 3x3 grid",
    rows=3, cols=3,
)
register_scenario(
    "steady-4x4", STEADY, "uniform demand scaled to a 4x4 grid",
    rows=4, cols=4,
)
register_scenario(
    "tidal-3x3", TIDAL, "N/E peak reversing to S/W at mid-horizon, 3x3",
    rows=3, cols=3,
)
register_scenario(
    "tidal-4x4", TIDAL, "commute tide on a 4x4 grid",
    rows=4, cols=4,
)
register_scenario(
    "surge-3x3", SURGE, "2.5x N/E surge for 20 min mid-run, 3x3",
    rows=3, cols=3,
)
register_scenario(
    "surge-4x4", SURGE, "2.5x N/E surge for 20 min mid-run, 4x4",
    rows=4, cols=4,
)
register_scenario(
    "incident-3x3", INCIDENT,
    "central feeder loses 60% capacity, junction serves at half rate, 3x3",
    rows=3, cols=3,
)
register_scenario(
    "incident-4x4", INCIDENT, "central lane-capacity-drop on a 4x4 grid",
    rows=4, cols=4,
)
register_scenario(
    "asymmetric-3x3", ASYMMETRIC,
    "55% of northern entries turn left (starves opposing straight), 3x3",
    rows=3, cols=3,
)
register_scenario(
    "gridlock-3x3", GRIDLOCK, "1.6x uniform overload (stability stress), 3x3",
    rows=3, cols=3,
)

"""The :class:`Scenario` value object and the paper's grid builder.

A :class:`Scenario` bundles everything a run needs except the
controller: the network, the per-entry arrival schedules, the turning
probabilities and the seed.  :func:`build_scenario` creates the paper's
setup — a 3x3 grid of Fig.-1 intersections with ``W_i = 120``,
``µ = 1`` and Table I/II demand — and is parameterized so tests and
ablations can build smaller or differently loaded variants.

The catalog of richer workloads (tidal, surge, incident, ...) lives in
:mod:`repro.scenarios.library`; every catalog builder returns the same
:class:`Scenario` object this module defines, so engines, the runner
and the orchestration layer are agnostic to where a scenario came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.scenarios.patterns import (
    MIXED_SEGMENT_DURATION,
    PATTERN_NAMES,
    TURNING,
    arrival_schedule,
)
from repro.model.arrivals import ArrivalSchedule
from repro.model.geometry import Direction
from repro.model.grid import build_grid_network
from repro.model.network import Network
from repro.model.plant import check_demand
from repro.model.routing import TurningProbabilities

__all__ = [
    "Scenario",
    "build_scenario",
    "demand_from_profile",
    "entry_side",
    "scale_schedule",
    "DEFAULT_DURATIONS",
]

#: The simulation horizon the paper uses per pattern (Sec. V): one hour
#: for patterns I-IV, four hours for the mixed pattern.
DEFAULT_DURATIONS: Dict[str, float] = {
    "I": 3600.0,
    "II": 3600.0,
    "III": 3600.0,
    "IV": 3600.0,
    "mixed": 4 * 3600.0,
}


@dataclass
class Scenario:
    """A fully specified simulation scenario (sans controller)."""

    name: str
    network: Network
    demand: Dict[str, ArrivalSchedule]
    turning: TurningProbabilities
    seed: int
    default_duration: float = 3600.0

    def __post_init__(self) -> None:
        try:
            check_demand(self.network, self.demand)
        except ValueError as error:
            raise ValueError(f"scenario {self.name!r}: {error}") from None


def entry_side(road_id: str) -> Optional[Direction]:
    """Entry side encoded in a grid boundary road id (``IN:N@J01``)."""
    if not road_id.startswith("IN:"):
        return None
    return Direction(road_id[3])


def scale_schedule(schedule: ArrivalSchedule, factor: float) -> ArrivalSchedule:
    """A copy of ``schedule`` with every rate multiplied by ``factor``."""
    if factor == 1.0:
        return schedule
    return ArrivalSchedule.piecewise(
        [(start, rate * factor) for start, rate in schedule.segments]
    )


def demand_from_profile(
    network: Network, per_side: Mapping[Direction, ArrivalSchedule]
) -> Dict[str, ArrivalSchedule]:
    """Assign a per-side schedule map to every entry road of a network.

    This is how every scenario family turns a *demand profile* (four
    side schedules) into the per-road demand dict a
    :class:`Scenario` carries, independent of the grid's size.
    """
    demand: Dict[str, ArrivalSchedule] = {}
    for road_id in network.entry_roads():
        side = entry_side(road_id)
        if side is None:
            continue
        demand[road_id] = per_side[side]
    return demand


def build_scenario(
    pattern: str = "I",
    seed: int = 0,
    rows: int = 3,
    cols: int = 3,
    capacity: int = 120,
    service_rate: float = 1.0,
    road_length: float = 300.0,
    turning: Optional[TurningProbabilities] = None,
    mixed_segment_duration: float = MIXED_SEGMENT_DURATION,
    demand_scale: float = 1.0,
) -> Scenario:
    """Build the paper's 3x3 evaluation scenario (or a variant).

    Parameters
    ----------
    pattern:
        ``"I"``-``"IV"`` or ``"mixed"`` (Table II).
    seed:
        Base seed for all stochastic streams.
    rows, cols, capacity, service_rate, road_length:
        Network parameters; defaults are the paper's.
    turning:
        Turning probabilities; defaults to Table I.
    mixed_segment_duration:
        Per-pattern segment length inside the mixed schedule.  The
        paper uses one hour; benchmarks shrink it to keep CI fast.
    demand_scale:
        Multiplier on every arrival rate (1.0 = paper demand).  Used
        by stability/ablation studies.
    """
    if pattern not in PATTERN_NAMES:
        raise ValueError(
            f"unknown pattern {pattern!r}; expected one of {PATTERN_NAMES}"
        )
    if demand_scale <= 0:
        raise ValueError(f"demand_scale must be > 0, got {demand_scale}")

    network = build_grid_network(
        rows,
        cols,
        capacity=capacity,
        road_length=road_length,
        service_rate=service_rate,
    )
    per_side = {
        side: scale_schedule(
            arrival_schedule(
                pattern, side, segment_duration=mixed_segment_duration
            ),
            demand_scale,
        )
        for side in Direction
    }
    demand = demand_from_profile(network, per_side)

    duration = DEFAULT_DURATIONS[pattern]
    if pattern == "mixed":
        duration = 4 * mixed_segment_duration
    return Scenario(
        name=f"grid{rows}x{cols}-pattern-{pattern}",
        network=network,
        demand=demand,
        turning=turning or TURNING,
        seed=seed,
        default_duration=duration,
    )

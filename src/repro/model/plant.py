"""The plant every engine animates: its constants and its seeded traffic.

The paper's plant is one Sec.-II store-and-forward network fed by
Poisson entry arrivals (Sec. II-B) and Table-I turning draws.  The
engines compute bit-identical trajectories only because they take the
same constants (:class:`PlantConstants`) and draw from the same seeded
streams (:func:`seeded_traffic`), so both are defined here only;
:func:`scenario_builder` builds an engine class from a scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional

from repro.model.arrivals import ArrivalSchedule, PoissonArrivals
from repro.model.network import Network
from repro.model.routing import RouteSampler, TurningProbabilities
from repro.util.rng import RngStreams
from repro.util.validation import check_non_negative, check_positive

__all__ = [
    "PlantConstants",
    "SeededTraffic",
    "check_demand",
    "seeded_traffic",
    "scenario_builder",
]


@dataclass(frozen=True)
class PlantConstants:
    """The physical constants of the store-and-forward plant.

    Attributes
    ----------
    travel_time:
        Free-flow transit time override in seconds.  ``None`` uses each
        road's ``length / speed_limit``; ``0`` gives the pure queuing
        abstraction with immediate hops.
    startup_lost:
        Seconds of green at the start of every phase application during
        which nothing is served — the start-up lost time of a real
        (microscopic) queue discharge.  This is what makes frequent
        phase switching costly beyond the amber itself.  Set to 0 for
        the idealized queuing model.
    sensing_horizon:
        Look-ahead of the queue sensors in seconds: a vehicle still in
        transit counts towards its movement's sensed queue once it is
        within this many seconds of the stop line, mimicking the lane
        coverage of a SUMO lane-area detector.  Set to 0 for a pure
        stop-line point sensor.
    saturation_headway:
        Seconds between consecutive vehicles discharging over the stop
        line of one lane under green (the plant's physical saturation
        flow, ~1800 veh/h/lane for 2.0 s).  This is deliberately
        *independent* of the movements' ``µ`` — the paper sets
        ``µ = 1`` as the controller-side gain constant while the SUMO
        plant discharges at its own physical rate.
    """

    travel_time: Optional[float] = None
    startup_lost: float = 2.0
    sensing_horizon: float = 2.0
    saturation_headway: float = 1.3

    def __post_init__(self) -> None:
        if self.travel_time is not None:
            check_non_negative("travel_time", self.travel_time)
        check_non_negative("startup_lost", self.startup_lost)
        check_non_negative("sensing_horizon", self.sensing_horizon)
        check_positive("saturation_headway", self.saturation_headway)

    @property
    def discharge_rate(self) -> float:
        """Vehicles per second one lane discharges under green."""
        return 1.0 / self.saturation_headway

    def transit_times(self, network: Network) -> Dict[str, float]:
        """Seconds a vehicle spends in transit on each road, by road id.

        The ``travel_time`` override on every road, or else each road's
        free-flow time; in ``network.roads`` order.
        """
        if self.travel_time is None:
            return {
                road_id: road.free_flow_time
                for road_id, road in network.roads.items()
            }
        return dict.fromkeys(network.roads, float(self.travel_time))


class SeededTraffic(NamedTuple):
    """One seed's streams, route sampler and arrival processes."""

    streams: RngStreams
    router: RouteSampler
    arrivals: Dict[str, PoissonArrivals]


def check_demand(network: Network, demand: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` if ``demand`` names a road that is no entry."""
    unknown = set(demand) - set(network.entry_roads())
    if unknown:
        raise ValueError(
            f"demand declared on non-entry roads: {sorted(unknown)}"
        )


def seeded_traffic(
    network: Network,
    demand: Mapping[str, ArrivalSchedule],
    turning: TurningProbabilities,
    seed: int,
) -> SeededTraffic:
    """The canonical stream layout of one seed.

    The route sampler draws from ``routing`` and each demand road's
    Poisson process (in ``demand`` order) from ``arrivals/<road>``; an
    engine with more randomness (``micro``'s driver imperfection) takes
    its own stream names from ``streams``.
    """
    check_demand(network, demand)
    streams = RngStreams(seed)
    return SeededTraffic(
        streams=streams,
        router=RouteSampler(network, turning, streams.get("routing")),
        arrivals={
            road: PoissonArrivals(schedule, streams.get(f"arrivals/{road}"))
            for road, schedule in demand.items()
        },
    )


def scenario_builder(engine: Callable[..., Any]) -> Callable[[Any], Any]:
    """The builder of a serial engine class: ``engine`` on a
    :class:`~repro.scenarios.core.Scenario`'s plant and seed."""

    def build(scenario: Any) -> Any:
        return engine(
            scenario.network,
            scenario.demand,
            scenario.turning,
            seed=scenario.seed,
        )

    return build

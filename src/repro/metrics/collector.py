"""Per-vehicle accounting and summary statistics.

The paper's headline metric is the *average queuing time of a vehicle
in the entire network*: the time a vehicle spends stopped in queues,
averaged over vehicles.  The microscopic engine accrues queuing time
whenever a vehicle's speed drops below 0.1 m/s (SUMO's accumulated
waiting-time definition); the mesoscopic engine accrues it while a
vehicle sits in a movement queue.  Vehicles still in the network when
the simulation ends contribute their waiting accumulated so far — a
congested controller cannot hide vehicles by never delivering them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["Summary", "MetricsCollector"]


@dataclass(frozen=True)
class Summary:
    """Aggregate results of one simulation run."""

    duration: float
    vehicles_entered: int
    vehicles_left: int
    average_queuing_time: float
    average_travel_time: float
    total_queuing_time: float
    max_queuing_time: float
    throughput_per_hour: float
    #: How delay metrics were obtained: ``"per-vehicle"`` (exact
    #: per-vehicle records) or ``"aggregate"`` (counts-based engine:
    #: queuing totals exact, travel time a Little's-law estimate,
    #: max queuing unavailable).
    delay_mode: str = "per-vehicle"

    def __str__(self) -> str:
        flag = (
            ""
            if self.delay_mode == "per-vehicle"
            else f" [{self.delay_mode}: travel time is a Little's-law estimate]"
        )
        return (
            f"Summary(entered={self.vehicles_entered}, "
            f"left={self.vehicles_left}, "
            f"avg_queuing={self.average_queuing_time:.2f}s, "
            f"avg_travel={self.average_travel_time:.2f}s, "
            f"throughput={self.throughput_per_hour:.0f}/h)"
            f"{flag}"
        )

    def to_dict(self) -> Dict[str, float]:
        """A JSON-serializable view of the summary."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "Summary":
        """Rebuild a summary serialized with :meth:`to_dict`."""
        return cls(
            duration=float(payload["duration"]),
            vehicles_entered=int(payload["vehicles_entered"]),
            vehicles_left=int(payload["vehicles_left"]),
            average_queuing_time=float(payload["average_queuing_time"]),
            average_travel_time=float(payload["average_travel_time"]),
            total_queuing_time=float(payload["total_queuing_time"]),
            max_queuing_time=float(payload["max_queuing_time"]),
            throughput_per_hour=float(payload["throughput_per_hour"]),
            delay_mode=str(payload.get("delay_mode", "per-vehicle")),
        )


@dataclass
class _VehicleRecord:
    entered_at: float
    left_at: Optional[float] = None
    queuing_time: float = 0.0


@dataclass
class MetricsCollector:
    """Collects per-vehicle statistics during a run."""

    _records: Dict[int, _VehicleRecord] = field(default_factory=dict)
    _clock: float = 0.0

    def advance(self, now: float) -> None:
        """Move the collector clock forward (monotonic)."""
        if now < self._clock:
            raise ValueError(f"clock moved backwards: {now} < {self._clock}")
        self._clock = now

    @property
    def now(self) -> float:
        """The collector's current clock."""
        return self._clock

    def vehicle_entered(self, vehicle_id: int, time: float) -> None:
        """Register a vehicle entering the network."""
        if vehicle_id in self._records:
            raise ValueError(f"vehicle {vehicle_id} entered twice")
        self._records[vehicle_id] = _VehicleRecord(entered_at=time)

    def vehicle_left(self, vehicle_id: int, time: float) -> None:
        """Register a vehicle leaving the network."""
        record = self._require(vehicle_id)
        if record.left_at is not None:
            raise ValueError(f"vehicle {vehicle_id} left twice")
        if time < record.entered_at:
            raise ValueError(
                f"vehicle {vehicle_id} left at {time} before entering at "
                f"{record.entered_at}"
            )
        record.left_at = time

    def add_queuing_time(self, vehicle_id: int, seconds: float) -> None:
        """Accrue queuing (waiting) time for a vehicle."""
        if seconds < 0:
            raise ValueError(f"queuing time increment must be >= 0, got {seconds}")
        self._require(vehicle_id).queuing_time += seconds

    def _require(self, vehicle_id: int) -> _VehicleRecord:
        try:
            return self._records[vehicle_id]
        except KeyError:
            raise KeyError(f"unknown vehicle {vehicle_id}")

    # -- aggregate views ---------------------------------------------------

    @property
    def vehicles_entered(self) -> int:
        """Number of vehicles that have entered so far."""
        return len(self._records)

    @property
    def vehicles_left(self) -> int:
        """Number of vehicles that have completed their trip."""
        return sum(1 for r in self._records.values() if r.left_at is not None)

    def summary(self, duration: Optional[float] = None) -> Summary:
        """Aggregate the run into a :class:`Summary`.

        ``duration`` defaults to the collector clock; it is used for
        the throughput rate only.
        """
        horizon = self._clock if duration is None else duration
        entered = self.vehicles_entered
        left = self.vehicles_left
        total_queuing = sum(r.queuing_time for r in self._records.values())
        max_queuing = max(
            (r.queuing_time for r in self._records.values()), default=0.0
        )
        travel_times = [
            r.left_at - r.entered_at
            for r in self._records.values()
            if r.left_at is not None
        ]
        avg_travel = sum(travel_times) / len(travel_times) if travel_times else 0.0
        avg_queuing = total_queuing / entered if entered else 0.0
        throughput = left / horizon * 3600.0 if horizon > 0 else 0.0
        return Summary(
            duration=horizon,
            vehicles_entered=entered,
            vehicles_left=left,
            average_queuing_time=avg_queuing,
            average_travel_time=avg_travel,
            total_queuing_time=total_queuing,
            max_queuing_time=max_queuing,
            throughput_per_hour=throughput,
        )

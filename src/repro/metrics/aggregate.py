"""Aggregate (counts-only) metrics accounting for the fast engine.

The per-vehicle :class:`~repro.metrics.collector.MetricsCollector`
keeps one record per vehicle, which is exactly the overhead the
counts-based engine exists to avoid.  This module provides the
aggregate alternative: the engine reports, once per mini-slot, how many
vehicles are currently waiting (queued at a stop line or gated in an
entry backlog) and how many are inside the network, and the collector
integrates those counts over time.

What stays **exact** (bit-for-bit equal to the per-vehicle books at
finalize time, for any fixed mini-slot):

* vehicles entered / left and throughput;
* *total* queuing time — the time integral of the waiting-vehicle
  count equals the sum of per-vehicle waiting durations, because both
  queue joins and services happen on mini-slot boundaries;
* average queuing time (total / entered).

What becomes an **estimate** (flagged via ``Summary.delay_mode ==
"aggregate"``):

* average travel time — Little's-law estimate: the vehicle-seconds
  spent inside the network divided by the number of completed trips;
* max queuing time — unavailable without per-vehicle records,
  reported as 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.metrics.collector import Summary

__all__ = ["AggregateMetricsCollector", "BatchAggregateMetricsCollector"]


@dataclass
class AggregateMetricsCollector:
    """Integrates aggregate vehicle counts instead of per-vehicle records.

    Duck-type compatible with the surface of
    :class:`~repro.metrics.collector.MetricsCollector` that engines,
    the runner and the tests use: ``advance``/``now``,
    ``vehicles_entered``, ``vehicles_left`` and ``summary``.
    """

    vehicles_entered: int = 0
    vehicles_left: int = 0
    #: Exact: integral of (queued + backlogged vehicles) over time.
    total_queuing_time: float = 0.0
    #: Basis of the Little's-law travel-time estimate: integral of
    #: vehicles-in-network over time.
    network_time_integral: float = 0.0
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

    def record_interval(
        self, dt: float, waiting: int, in_network: int
    ) -> None:
        """Integrate one mini-slot's aggregate counts.

        ``waiting`` is the number of vehicles currently accruing
        queuing time (stop-line queues plus entry backlog);
        ``in_network`` the total vehicles inside the network.  Both are
        the counts *after* the slot's events, which makes the integral
        equal the per-vehicle sum (joins and services land on slot
        boundaries).
        """
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if waiting < 0 or in_network < 0:
            raise ValueError(
                f"counts must be >= 0, got waiting={waiting}, "
                f"in_network={in_network}"
            )
        self.total_queuing_time += dt * waiting
        self.network_time_integral += dt * in_network

    def absorb_backlog(self, count: int) -> None:
        """Count still-gated vehicles as entered (end-of-run books).

        Mirrors the reference engine's ``finalize``: vehicles generated
        but never admitted have spent their whole existence in depart
        delay, which the waiting integral already accrued; here they
        join the entered population so averages divide by the same
        denominator as the per-vehicle collector.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.vehicles_entered += count

    def summary(self, duration: Optional[float] = None) -> Summary:
        """Aggregate the run into a :class:`Summary` (``delay_mode="aggregate"``)."""
        horizon = self._clock if duration is None else duration
        return _aggregate_summary(
            horizon,
            self.vehicles_entered,
            self.vehicles_left,
            self.total_queuing_time,
            self.network_time_integral,
        )


def _aggregate_summary(
    horizon: float,
    entered: int,
    left: int,
    total_queuing_time: float,
    network_time_integral: float,
) -> Summary:
    """The shared summary arithmetic of the aggregate collectors.

    One implementation for both the scalar and the batch collector, so
    a replication summarized through either produces the bit-identical
    :class:`Summary` (the batch-engine parity suite compares them with
    ``==``).
    """
    avg_queuing = total_queuing_time / entered if entered else 0.0
    avg_travel = network_time_integral / left if left else 0.0
    throughput = left / horizon * 3600.0 if horizon > 0 else 0.0
    return Summary(
        duration=horizon,
        vehicles_entered=entered,
        vehicles_left=left,
        average_queuing_time=avg_queuing,
        average_travel_time=avg_travel,
        total_queuing_time=total_queuing_time,
        max_queuing_time=0.0,
        throughput_per_hour=throughput,
        delay_mode="aggregate",
    )


class BatchAggregateMetricsCollector:
    """The batch-engine counterpart: one aggregate book per replication.

    Holds the same four integrals as
    :class:`AggregateMetricsCollector`, but as ``(B,)`` arrays updated
    with one vectorized operation per mini-slot.  Every per-replication
    value evolves through the identical float64 arithmetic as a scalar
    collector fed that replication alone, so
    :meth:`summary_of` returns the :class:`Summary` the scalar
    collector would have produced (the ``meso-vec`` parity contract).
    """

    def __init__(self, batch_size: int):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.vehicles_entered = np.zeros(batch_size, dtype=np.int64)
        self.vehicles_left = np.zeros(batch_size, dtype=np.int64)
        # The two time integrals, stacked so one add per slot advances
        # both: waiting vehicle-seconds and in-network vehicle-seconds.
        self._integrals = np.zeros((2, batch_size), dtype=np.float64)
        self.total_queuing_time, self.network_time_integral = self._integrals
        self._clock = 0.0

    def advance(self, now: float) -> None:
        """Move the (shared) collector clock forward (monotonic)."""
        if now < self._clock:
            raise ValueError(f"clock moved backwards: {now} < {self._clock}")
        self._clock = now

    @property
    def now(self) -> float:
        """The collector's current clock."""
        return self._clock

    def record_interval(self, dt: float, counts: np.ndarray) -> None:
        """Integrate one mini-slot's aggregate counts for every replication.

        ``counts`` is ``(2, batch_size)``: the waiting vehicles (row 0)
        and the vehicles inside the network (row 1) of each replication.
        """
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if np.count_nonzero(counts < 0):
            raise ValueError("counts must be >= 0 in every replication")
        self._integrals += dt * counts

    def absorb_backlog(self, counts: np.ndarray) -> None:
        """Count still-gated vehicles as entered, per replication."""
        if (counts < 0).any():
            raise ValueError("backlog counts must be >= 0")
        self.vehicles_entered += counts

    def summary_of(
        self, replication: int, duration: Optional[float] = None
    ) -> Summary:
        """The :class:`Summary` of one replication (pure Python numbers)."""
        horizon = self._clock if duration is None else duration
        return _aggregate_summary(
            float(horizon),
            int(self.vehicles_entered[replication]),
            int(self.vehicles_left[replication]),
            float(self.total_queuing_time[replication]),
            float(self.network_time_integral[replication]),
        )

    def summaries(self, duration: Optional[float] = None) -> list:
        """Per-replication summaries, in batch order."""
        return [self.summary_of(b, duration) for b in range(self.batch_size)]

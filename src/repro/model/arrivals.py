"""Exogenous Poisson arrival processes (Sec. II-B).

Vehicles arrive at each entry road following a Poisson process with
rate ``lambda > 0``.  The paper's Table II specifies the *average
inter-arrival time* per entry side and traffic pattern (e.g. 3 s from
the north in Pattern I, i.e. ``lambda = 1/3`` veh/s), and the mixed
pattern concatenates the four patterns over time — hence arrivals are
driven by a piecewise-constant :class:`ArrivalSchedule`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.util.validation import check_non_negative, check_positive

__all__ = ["ARRIVAL_WINDOW", "ArrivalSchedule", "PoissonArrivals", "SlotGrid", "slot_times"]


@dataclass(frozen=True)
class ArrivalSchedule:
    """A piecewise-constant arrival-rate profile.

    ``segments`` is a sequence of ``(start_time, rate)`` pairs with
    strictly increasing start times; the first segment must start at
    0.  The rate of the last segment extends to infinity.
    """

    segments: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        if self.segments[0][0] != 0.0:
            raise ValueError(
                f"first segment must start at t=0, got {self.segments[0][0]}"
            )
        previous = -1.0
        for start, rate in self.segments:
            if start <= previous:
                raise ValueError("segment start times must strictly increase")
            check_non_negative("rate", rate)
            previous = start
        # Precomputed lookup tables (the schedule is frozen): segment
        # start times and, aligned with them, each segment's end.
        starts = tuple(start for start, _ in self.segments)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_ends", starts[1:] + (float("inf"),))

    @classmethod
    def constant(cls, rate: float) -> "ArrivalSchedule":
        """A single-rate schedule (``rate`` vehicles per second)."""
        check_non_negative("rate", rate)
        return cls(segments=((0.0, float(rate)),))

    @classmethod
    def from_interarrival(cls, mean_interarrival: float) -> "ArrivalSchedule":
        """Schedule from a Table-II style mean inter-arrival time (s)."""
        check_positive("mean_interarrival", mean_interarrival)
        return cls.constant(1.0 / mean_interarrival)

    @classmethod
    def piecewise(
        cls, pieces: Sequence[Tuple[float, float]]
    ) -> "ArrivalSchedule":
        """Schedule from explicit ``(start_time, rate)`` pieces."""
        return cls(segments=tuple((float(t), float(r)) for t, r in pieces))

    def rate_at(self, time: float) -> float:
        """The arrival rate (veh/s) in force at ``time``."""
        if time < 0:
            raise ValueError(f"time must be >= 0, got {time}")
        idx = bisect_right(self._starts, time) - 1
        return self.segments[idx][1]

    def expected_count(self, start: float, end: float) -> float:
        """Expected number of arrivals in ``[start, end)``."""
        if end < start:
            raise ValueError(f"end {end} precedes start {start}")
        # Fast path: the whole interval inside one segment (the shape
        # of every per-mini-slot query).  ``rate * (end - start)`` is
        # exactly what the general loop computes for this case.  A
        # pre-horizon start (< 0) takes the general loop, which clips.
        if start >= 0.0:
            idx = bisect_right(self._starts, start) - 1
            if end <= self._ends[idx]:
                return self.segments[idx][1] * (end - start)
        total = 0.0
        for idx, (seg_start, rate) in enumerate(self.segments):
            seg_end = self._ends[idx]
            lo = max(start, seg_start)
            hi = min(end, seg_end)
            if hi > lo:
                total += rate * (hi - lo)
        return total


#: Mini-slots of Poisson counts drawn per window: every engine's
#: arrival window and :meth:`PoissonArrivals.sample_count`'s.
ARRIVAL_WINDOW = 128


def slot_times(start: float, dt: float, n: int = ARRIVAL_WINDOW) -> np.ndarray:
    """Start times of ``n`` consecutive mini-slots from ``start``.

    ``np.add.accumulate`` adds ``dt`` one element at a time, left to
    right, so element ``k`` is exactly the float an engine clock holds
    after ``k`` steps of ``time += dt`` (``start + k * dt`` differs in
    the last ulp on a non-dyadic grid such as ``dt = 0.3``).
    """
    steps = np.full(n, dt)
    steps[0] = start
    return np.add.accumulate(steps)


class SlotGrid:
    """One window of mini-slots ``[t, t + dt)``, shared by every draw in it.

    Holds the slot start times, ``dt``, the float width
    ``(t + dt) - t`` of each slot and ``width``, their common value
    when every slot has the same width (``None`` otherwise): computed
    once per window instead of once per road.
    """

    __slots__ = ("times", "dt", "widths", "width")

    def __init__(self, times: np.ndarray, dt: float):
        if dt <= 0:
            check_positive("dt", dt)
        self.times = times
        self.dt = dt
        self.widths = (times + dt) - times
        uniform = (self.widths == self.widths[0]).all()
        self.width = self.widths[0] if uniform else None

    @classmethod
    def starting(cls, start: float, dt: float) -> "SlotGrid":
        """The :data:`ARRIVAL_WINDOW` slots from ``start`` (:func:`slot_times`)."""
        return cls(slot_times(start, dt), dt)


class PoissonArrivals:
    """Samples Poisson arrival counts per mini-slot.

    One instance per entry road; each owns a dedicated RNG so arrival
    streams are independent across roads and identical across paired
    controller runs.

    Every count comes from one ``rng.poisson`` call per window of slots
    (:meth:`sample_count_block` over a :class:`SlotGrid`).  numpy's
    ``Generator.poisson`` draws an array of means element by element,
    exactly as one scalar call per element would, and a zero mean
    draws nothing, so a window consumes the generator exactly as one
    ``poisson(mean)`` call per slot with a nonzero mean does.
    """

    def __init__(self, schedule: ArrivalSchedule, rng: np.random.Generator):
        self.schedule = schedule
        self._rng = rng
        # sample_count's window: its slot start times, their counts,
        # the next slot to serve and the window's dt.
        self._times: List[float] = []
        self._counts: List[int] = []
        self._pos = 0
        self._dt = 0.0

    def sample_count_block(self, grid: SlotGrid) -> np.ndarray:
        """Counts of the mini-slots of ``grid``, one per slot.

        Each slot's mean is ``rate * ((t + dt) - t)`` when the whole
        window lies in one rate segment, and the exact
        :meth:`ArrivalSchedule.expected_count` when it crosses a
        segment boundary, so the process stays Poisson across a pattern
        change of the mixed schedule.  A window inside a zero-rate
        segment draws nothing.
        """
        schedule = self.schedule
        times, dt = grid.times, grid.dt
        first = times[0]
        idx = bisect_right(schedule._starts, first) - 1
        if first >= 0.0 and times[-1] + dt <= schedule._ends[idx]:
            rate = schedule.segments[idx][1]
            if rate == 0.0:
                return np.zeros(len(times), dtype=np.int64)
            if grid.width is not None:
                return self._rng.poisson(rate * grid.width, size=len(times))
            return self._rng.poisson(rate * grid.widths)
        means = [schedule.expected_count(t, t + dt) for t in times.tolist()]
        return self._rng.poisson(np.array(means))

    def sample_count(self, start: float, dt: float) -> int:
        """``A(k, k+1)`` — arrivals in ``[start, start+dt)``.

        Served from a window of :data:`ARRIVAL_WINDOW` counts that
        :meth:`sample_count_block` draws on the grid ``start, start + dt,
        ...`` of the call that opened it.  A call off that grid (another
        start time or ``dt``) drops the rest of the window and opens a
        new one, so a caller whose clock adds ``dt`` each slot gets the
        per-slot draws exactly.
        """
        pos = self._pos
        if pos < len(self._times) and start == self._times[pos] and dt == self._dt:
            self._pos = pos + 1
            return self._counts[pos]
        grid = SlotGrid.starting(start, dt)
        self._counts = self.sample_count_block(grid).tolist()
        self._times = grid.times.tolist()
        self._dt = dt
        self._pos = 1
        return self._counts[0]

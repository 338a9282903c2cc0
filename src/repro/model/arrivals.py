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

__all__ = ["ArrivalSchedule", "PoissonArrivals"]


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


class PoissonArrivals:
    """Samples Poisson arrival counts and exact arrival times.

    One instance per entry road; each owns a dedicated RNG so arrival
    streams are independent across roads and identical across paired
    controller runs.
    """

    #: Pre-drawn counts per batch; bounds the look-ahead of the stream.
    BATCH_SIZE = 64
    #: Identical-mean calls seen before batching kicks in.  Guards the
    #: pathological case of a caller whose per-call means never repeat
    #: (irregular ``dt`` grids), which would otherwise draw-and-discard.
    BATCH_AFTER = 3

    def __init__(self, schedule: ArrivalSchedule, rng: np.random.Generator):
        self.schedule = schedule
        self._rng = rng
        # Batched-draw state: numpy fills an array with exactly the
        # values repeated scalar calls would produce (verified by
        # tests), so pre-drawing a batch of same-mean counts is
        # bit-identical to drawing one per step — while paying the
        # numpy call overhead once per BATCH_SIZE steps instead of
        # every step.  Batching only engages for binary-exact ``dt``
        # (integers, halves, quarters, ... — every accumulated step
        # time and per-step mean is then float-exact and constant
        # within a segment) and batches never reach a rate-segment
        # boundary, so no pre-drawn value is ever discarded and the
        # sequence provably equals the unbatched one.  Non-dyadic
        # ``dt`` grids (0.1, 0.7, ...) accumulate rounding error that
        # makes per-step means fluctuate in the last ulp; they always
        # take the scalar path, which is the unbatched code itself.
        self._batch: List[int] = []
        self._batch_pos = 0
        self._batch_mean = -1.0
        self._streak_mean = -1.0
        self._streak = 0
        # Cursor into the schedule's segments: queries arrive with
        # (almost always) non-decreasing start times, so remembering
        # the last segment makes the lookup O(1) amortized.
        self._segment_cursor = 0

    def sample_count(self, start: float, dt: float) -> int:
        """``A(k, k+1)`` — arrivals in ``[start, start+dt)``.

        Uses the exact expected count across rate-segment boundaries,
        so the process stays Poisson even when ``[start, start+dt)``
        straddles a pattern change of the mixed schedule.
        """
        if dt <= 0:
            check_positive("dt", dt)
        schedule = self.schedule
        starts = schedule._starts
        ends = schedule._ends
        idx = self._segment_cursor
        if start < starts[idx]:
            idx = 0  # time went backwards (fresh run of a shared schedule)
        while start >= ends[idx]:
            idx += 1
        self._segment_cursor = idx
        end = start + dt
        segment_end = ends[idx]
        if end <= segment_end:
            # Same expression as expected_count's single-segment path.
            mean = schedule.segments[idx][1] * (end - start)
        else:
            mean = schedule.expected_count(start, end)
        if mean == 0.0:
            return 0
        if mean == self._batch_mean and self._batch_pos < len(self._batch):
            value = self._batch[self._batch_pos]
            self._batch_pos += 1
            return value
        if mean == self._streak_mean:
            self._streak += 1
        else:
            self._streak_mean = mean
            self._streak = 1
        if self._streak > self.BATCH_AFTER and (dt * 1048576.0).is_integer():
            # Size the batch to stay strictly inside the current rate
            # segment: the next segment's per-step mean differs, and a
            # batch drawn with the old mean must never leak across.
            # One step of slack absorbs any rounding in the division.
            if segment_end == float("inf"):
                size = self.BATCH_SIZE
            else:
                remaining = segment_end - end
                if remaining < 0:
                    remaining = 0.0
                size = min(self.BATCH_SIZE, int(remaining / dt))
            if size > 1:
                self._batch = self._rng.poisson(mean, size=size).tolist()
                self._batch_mean = mean
                self._batch_pos = 1
                return self._batch[0]
        self._batch_mean = -1.0  # no valid batch pending
        return int(self._rng.poisson(mean))

    def sample_count_block(
        self, times: Sequence[float], dt: float
    ) -> List[int]:
        """Counts for a whole block of consecutive mini-slots.

        Returns exactly the values ``[self.sample_count(t, dt) for t in
        times]`` would — same draws from the same generator in the same
        order — but amortizes the per-call Python overhead by serving
        runs of already pre-drawn batch values with one slice.  The
        bulk path is sound because a live batch only ever contains
        values for consecutive same-``dt`` slots strictly inside the
        current rate segment (see :meth:`sample_count`'s sizing), so
        none of the sliced values could have been discarded by the
        per-call logic.  Callers must pass the same accumulated slot
        times the per-call loop would (the batch engine's pulled-ahead
        arrival window does).
        """
        out: List[int] = []
        extend = out.extend
        i, total = 0, len(times)
        while i < total:
            batch_before = self._batch
            pos_before = self._batch_pos
            out.append(self.sample_count(times[i], dt))
            i += 1
            # Bulk-serve only when that call itself consumed the live
            # batch (freshly drawn, or advanced by one).  A call that
            # bypassed the batch — zero-rate segment, non-batching mean
            # — leaves it untouched, and its leftover values belong to
            # earlier slots the per-call logic would never replay.
            if self._batch_mean >= 0.0 and (
                (self._batch is batch_before
                 and self._batch_pos == pos_before + 1)
                or (self._batch is not batch_before and self._batch_pos == 1)
            ):
                batch_left = len(self._batch) - self._batch_pos
                if batch_left > 0 and i < total:
                    take = min(batch_left, total - i)
                    extend(self._batch[self._batch_pos:self._batch_pos + take])
                    self._batch_pos += take
                    i += take
        return out

    def sample_nonzero_block(
        self, times: Sequence[float], dt: float
    ) -> List[Tuple[int, int]]:
        """``(slot_index, count)`` pairs for a block, skipping zeros.

        Event-driven callers only care which slots receive vehicles.
        Returns the nonzero entries of :meth:`sample_count_block` with
        their positions in ``times`` — draw-for-draw identical RNG
        consumption to the per-slot calls.

        Fast path: when the schedule's precomputed segment tables show
        a zero expected count across the whole block (e.g. the silent
        phases of a tidal profile), every per-slot mean is zero — the
        scalar path returns 0 *before* touching the generator — so the
        block is skipped without drawing anything at all.
        """
        if not times:
            return []
        if self.schedule.expected_count(times[0], times[-1] + dt) == 0.0:
            return []
        return [
            (index, count)
            for index, count in enumerate(self.sample_count_block(times, dt))
            if count
        ]

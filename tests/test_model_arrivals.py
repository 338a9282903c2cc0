"""Tests for repro.model.arrivals — Poisson processes and schedules."""

import numpy as np
import pytest

from repro.model.arrivals import (
    ARRIVAL_WINDOW,
    ArrivalSchedule,
    PoissonArrivals,
    SlotGrid,
    slot_times,
)


class TestArrivalSchedule:
    def test_constant(self):
        schedule = ArrivalSchedule.constant(0.5)
        assert schedule.rate_at(0.0) == 0.5
        assert schedule.rate_at(1e6) == 0.5

    def test_from_interarrival_table2(self):
        # Pattern I north: a vehicle every 3 s -> rate 1/3.
        schedule = ArrivalSchedule.from_interarrival(3.0)
        assert schedule.rate_at(0.0) == pytest.approx(1 / 3)

    def test_piecewise_rates(self):
        schedule = ArrivalSchedule.piecewise([(0, 1.0), (10, 2.0), (20, 0.5)])
        assert schedule.rate_at(5) == 1.0
        assert schedule.rate_at(10) == 2.0
        assert schedule.rate_at(25) == 0.5

    def test_expected_count_within_segment(self):
        schedule = ArrivalSchedule.constant(2.0)
        assert schedule.expected_count(0, 5) == pytest.approx(10.0)

    def test_expected_count_across_boundary(self):
        schedule = ArrivalSchedule.piecewise([(0, 1.0), (10, 3.0)])
        assert schedule.expected_count(8, 12) == pytest.approx(2 * 1 + 2 * 3)

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            ArrivalSchedule.piecewise([(5, 1.0)])

    def test_strictly_increasing_starts(self):
        with pytest.raises(ValueError):
            ArrivalSchedule.piecewise([(0, 1.0), (0, 2.0)])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSchedule.constant(-0.1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSchedule.constant(1.0).rate_at(-1)

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSchedule.constant(1.0).expected_count(5, 4)


class TestPoissonArrivals:
    def test_mean_count_matches_rate(self):
        process = PoissonArrivals(
            ArrivalSchedule.constant(1 / 3), np.random.default_rng(0)
        )
        total = sum(process.sample_count(float(t), 1.0) for t in range(3000))
        assert total == pytest.approx(1000, rel=0.1)

    def test_zero_rate_no_arrivals(self):
        process = PoissonArrivals(
            ArrivalSchedule.constant(0.0), np.random.default_rng(0)
        )
        assert all(
            process.sample_count(float(t), 1.0) == 0 for t in range(100)
        )

    def test_deterministic_given_rng(self):
        a = PoissonArrivals(ArrivalSchedule.constant(1.0), np.random.default_rng(7))
        b = PoissonArrivals(ArrivalSchedule.constant(1.0), np.random.default_rng(7))
        counts_a = [a.sample_count(float(t), 1.0) for t in range(50)]
        counts_b = [b.sample_count(float(t), 1.0) for t in range(50)]
        assert counts_a == counts_b

    def test_bad_dt_rejected(self):
        process = PoissonArrivals(
            ArrivalSchedule.constant(1.0), np.random.default_rng(0)
        )
        with pytest.raises(ValueError):
            process.sample_count(0.0, 0.0)

    def _unbatched_reference(self, schedule, seed, starts, dt):
        """The pre-batching implementation: one scalar draw per step.

        ``seed`` may be a generator, which ``default_rng`` returns as is.
        """
        rng = np.random.default_rng(seed)
        counts = []
        for start in starts:
            mean = schedule.expected_count(start, start + dt)
            counts.append(0 if mean == 0.0 else int(rng.poisson(mean)))
        return counts

    #: Segment boundaries and a zero-rate gap, on every grid below.
    GAP_SCHEDULE = ArrivalSchedule.piecewise(
        [(0.0, 0.3), (40.0, 1.1), (90.0, 0.0), (130.0, 0.6)]
    )

    @staticmethod
    def _clock_grid(dt, horizon=200.0):
        """Slot start times accumulated like the simulation clock."""
        starts = []
        now = 0.0
        while now < horizon:
            starts.append(now)
            now += dt
        return starts

    @pytest.mark.parametrize("dt", [1.0, 0.5, 2.0, 0.7, 0.1, 0.3])
    def test_batched_draws_match_unbatched_sequence(self, dt):
        """``sample_count`` serves windows drawn ahead, yet for any
        mini-slot width — binary-exact or not — the count sequence must
        equal the unbatched scalar implementation's, across several
        windows and the rate-segment boundaries of a piecewise schedule
        on an accumulated (float-error-carrying) time grid."""
        schedule = self.GAP_SCHEDULE
        process = PoissonArrivals(schedule, np.random.default_rng(42))
        starts = self._clock_grid(dt)
        counts = [process.sample_count(start, dt) for start in starts]
        assert counts == self._unbatched_reference(schedule, 42, starts, dt)

    def test_sample_count_on_constant_grid_spans_windows(self):
        """Five windows of a constant-rate clock grid equal the scalar
        reference slot for slot, window seams included."""
        schedule = ArrivalSchedule.constant(0.8)
        process = PoissonArrivals(schedule, np.random.default_rng(3))
        starts = self._clock_grid(1.0, horizon=5 * ARRIVAL_WINDOW + 17)
        counts = [process.sample_count(start, 1.0) for start in starts]
        assert counts == self._unbatched_reference(schedule, 3, starts, 1.0)

    def test_off_grid_call_opens_a_new_window(self):
        """A call that is not the window's next slot draws a fresh
        window from that call rather than serving a stale count."""
        schedule = ArrivalSchedule.constant(2.0)
        process = PoissonArrivals(schedule, np.random.default_rng(9))
        process.sample_count(0.0, 1.0)
        rng = np.random.default_rng(9)
        rng.poisson(2.0, size=ARRIVAL_WINDOW)  # the dropped first window
        expected = self._unbatched_reference(schedule, rng, [5.0, 5.5], 0.5)
        got = [process.sample_count(5.0, 0.5), process.sample_count(5.5, 0.5)]
        assert got == expected

    @pytest.mark.parametrize("dt", [1.0, 0.5, 0.7, 0.1, 0.3])
    def test_block_draw_equals_reference_and_its_generator_state(self, dt):
        """One ``sample_count_block`` per window equals the scalar
        reference across segment boundaries and a zero-rate gap, and
        leaves the generator exactly where the reference leaves it:
        numpy draws an array of means element by element like repeated
        scalar calls, and a zero mean draws nothing.  Every engine's
        parity rests on this numpy property."""
        schedule = self.GAP_SCHEDULE
        starts = self._clock_grid(dt)
        rng = np.random.default_rng(11)
        process = PoissonArrivals(schedule, rng)
        got = []
        for first in range(0, len(starts), ARRIVAL_WINDOW):
            times = slot_times(starts[first], dt)[: len(starts) - first]
            assert times.tolist() == starts[first:first + ARRIVAL_WINDOW]
            grid = SlotGrid(times, dt)
            got.extend(process.sample_count_block(grid).tolist())
        reference_rng = np.random.default_rng(11)
        expected = self._unbatched_reference(
            schedule, reference_rng, starts, dt
        )
        assert got == expected
        assert rng.random() == reference_rng.random()

    def test_zero_rate_block_leaves_generator_untouched(self):
        schedule = self.GAP_SCHEDULE
        rng = np.random.default_rng(5)
        process = PoissonArrivals(schedule, rng)
        counts = process.sample_count_block(
            SlotGrid(slot_times(95.0, 0.25, 64), 0.25)
        )
        assert counts.tolist() == [0] * 64
        assert rng.random() == np.random.default_rng(5).random()

    @pytest.mark.parametrize("dt", [1.0, 0.5, 0.7, 0.1, 0.3])
    def test_slot_times_add_dt_like_the_clock(self, dt):
        expected = []
        now = 3.0
        for _ in range(300):
            expected.append(now)
            now += dt
        assert slot_times(3.0, dt, 300).tolist() == expected

    #: Adversarial schedules for the block-draw equivalence: constant,
    #: segment boundaries, a zero-rate gap (draws nothing), and a
    #: short-segment shape that crosses several boundaries per block.
    BLOCK_SCHEDULES = (
        ArrivalSchedule.constant(0.4),
        ArrivalSchedule.piecewise(
            [(0.0, 0.3), (40.0, 1.1), (90.0, 0.0), (130.0, 0.6)]
        ),
        ArrivalSchedule.piecewise(
            [(0.0, 0.9), (7.0, 0.0), (11.0, 1.3), (19.0, 0.2)]
        ),
    )

    @pytest.mark.parametrize("dt", [1.0, 0.5, 0.7])
    @pytest.mark.parametrize(
        "block_len", [1, 3, 64, 128], ids=lambda n: f"block{n}"
    )
    @pytest.mark.parametrize(
        "schedule", BLOCK_SCHEDULES, ids=("constant", "gap", "short-segs")
    )
    def test_sample_count_block_equals_per_call_loop(
        self, schedule, block_len, dt
    ):
        """``sample_count_block`` must be draw-for-draw identical to
        repeated ``sample_count`` calls — same values from the same
        generator state — for any block length, across rate-segment
        boundaries, through zero-rate segments, and on non-dyadic
        grids.  The meso-vec and meso-events arrival windows rest on
        exactly this contract."""
        times = []
        now = 0.0
        while now < 200.0:
            times.append(now)
            now += dt  # accumulate like the simulation clock does
        reference = PoissonArrivals(schedule, np.random.default_rng(7))
        expected = [reference.sample_count(t, dt) for t in times]
        blocked = PoissonArrivals(schedule, np.random.default_rng(7))
        times = np.array(times)
        got = []
        for start in range(0, len(times), block_len):
            got.extend(
                blocked.sample_count_block(
                    SlotGrid(times[start:start + block_len], dt)
                ).tolist()
            )
        assert got == expected

    def test_expected_count_clips_negative_start(self):
        schedule = ArrivalSchedule.piecewise([(0.0, 1.0), (10.0, 2.0)])
        assert schedule.expected_count(-5.0, 5.0) == pytest.approx(5.0)
        assert schedule.expected_count(-5.0, 20.0) == pytest.approx(30.0)

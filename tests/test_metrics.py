"""Tests for repro.metrics — collector, traces, utilization."""

import pytest

from repro.metrics.collector import MetricsCollector
from repro.metrics.traces import PhaseTrace, QueueTrace
from repro.metrics.utilization import UtilizationTracker


class TestMetricsCollector:
    def test_average_queuing_time(self):
        c = MetricsCollector()
        c.vehicle_entered(1, 0.0)
        c.vehicle_entered(2, 0.0)
        c.add_queuing_time(1, 10.0)
        c.add_queuing_time(2, 20.0)
        c.advance(100.0)
        assert c.summary().average_queuing_time == 15.0

    def test_vehicles_still_inside_counted(self):
        c = MetricsCollector()
        c.vehicle_entered(1, 0.0)
        c.add_queuing_time(1, 50.0)  # never leaves
        c.advance(100.0)
        summary = c.summary()
        assert summary.vehicles_entered == 1
        assert summary.vehicles_left == 0
        assert summary.average_queuing_time == 50.0

    def test_travel_time_only_completed(self):
        c = MetricsCollector()
        c.vehicle_entered(1, 0.0)
        c.vehicle_entered(2, 0.0)
        c.vehicle_left(1, 30.0)
        c.advance(100.0)
        assert c.summary().average_travel_time == 30.0

    def test_throughput(self):
        c = MetricsCollector()
        for i in range(10):
            c.vehicle_entered(i, 0.0)
            c.vehicle_left(i, 5.0)
        c.advance(3600.0)
        assert c.summary().throughput_per_hour == 10.0

    def test_double_entry_rejected(self):
        c = MetricsCollector()
        c.vehicle_entered(1, 0.0)
        with pytest.raises(ValueError):
            c.vehicle_entered(1, 1.0)

    def test_double_leave_rejected(self):
        c = MetricsCollector()
        c.vehicle_entered(1, 0.0)
        c.vehicle_left(1, 1.0)
        with pytest.raises(ValueError):
            c.vehicle_left(1, 2.0)

    def test_leave_before_enter_rejected(self):
        c = MetricsCollector()
        c.vehicle_entered(1, 10.0)
        with pytest.raises(ValueError):
            c.vehicle_left(1, 5.0)

    def test_unknown_vehicle_rejected(self):
        c = MetricsCollector()
        with pytest.raises(KeyError):
            c.add_queuing_time(42, 1.0)

    def test_clock_monotonic(self):
        c = MetricsCollector()
        c.advance(5.0)
        with pytest.raises(ValueError):
            c.advance(4.0)

    def test_negative_increment_rejected(self):
        c = MetricsCollector()
        c.vehicle_entered(1, 0.0)
        with pytest.raises(ValueError):
            c.add_queuing_time(1, -1.0)

    def test_max_queuing_time(self):
        c = MetricsCollector()
        c.vehicle_entered(1, 0.0)
        c.vehicle_entered(2, 0.0)
        c.add_queuing_time(1, 3.0)
        c.add_queuing_time(2, 9.0)
        c.advance(10.0)
        assert c.summary().max_queuing_time == 9.0


class TestPhaseTrace:
    def test_coalesces_repeats(self):
        trace = PhaseTrace("J")
        for t in range(5):
            trace.record(float(t), 1)
        assert len(trace.phases) == 1

    def test_intervals(self):
        trace = PhaseTrace("J")
        trace.record(0.0, 1)
        trace.record(10.0, 0)
        trace.record(14.0, 3)
        assert trace.intervals(20.0) == [
            (0.0, 10.0, 1),
            (10.0, 14.0, 0),
            (14.0, 20.0, 3),
        ]

    def test_phase_durations(self):
        trace = PhaseTrace("J")
        trace.record(0.0, 1)
        trace.record(10.0, 0)
        trace.record(14.0, 1)
        durations = trace.phase_durations(20.0)
        assert durations[1] == 16.0
        assert durations[0] == 4.0

    def test_mean_control_phase_length_excludes_amber(self):
        trace = PhaseTrace("J")
        trace.record(0.0, 1)
        trace.record(10.0, 0)
        trace.record(14.0, 3)
        assert trace.mean_control_phase_length(20.0) == pytest.approx(8.0)

    def test_switch_count(self):
        trace = PhaseTrace("J")
        for t, p in [(0, 1), (5, 0), (9, 3)]:
            trace.record(float(t), p)
        assert trace.switch_count() == 2

    def test_backwards_time_rejected(self):
        trace = PhaseTrace("J")
        trace.record(5.0, 1)
        with pytest.raises(ValueError):
            trace.record(4.0, 2)

    def test_as_series_staircase(self):
        trace = PhaseTrace("J")
        trace.record(0.0, 1)
        trace.record(10.0, 2)
        series = trace.as_series(20.0)
        assert series.values[0] == 1.0
        assert series.values[-1] == 2.0


class TestQueueTrace:
    def test_sampling_and_stats(self):
        trace = QueueTrace("road")
        for t, q in [(0, 2), (5, 4), (10, 6)]:
            trace.sample(float(t), q)
        assert trace.mean() == 4.0
        assert trace.max() == 6.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            QueueTrace("road").sample(0.0, -1)

    def test_movement_label(self):
        trace = QueueTrace("road", movement=("a", "b"))
        assert trace.series.name == "a->b"


class TestUtilizationTracker:
    def test_amber_share(self):
        tracker = UtilizationTracker("J")
        tracker.record_slot(1, 1.0, 4.0, 2, True)
        tracker.record_slot(0, 1.0, 0.0, 0, False)
        assert tracker.amber_share == 0.5

    def test_service_utilization(self):
        tracker = UtilizationTracker("J")
        tracker.record_slot(1, 1.0, 4.0, 2, True)
        assert tracker.service_utilization == 0.5

    def test_wasted_green(self):
        tracker = UtilizationTracker("J")
        tracker.record_slot(1, 1.0, 4.0, 0, False)  # wasted
        tracker.record_slot(1, 1.0, 4.0, 0, True)   # servable, not wasted
        assert tracker.wasted_green_share == 0.5

    def test_merged(self):
        a = UtilizationTracker("A")
        b = UtilizationTracker("B")
        a.record_slot(1, 1.0, 2.0, 1, True)
        b.record_slot(0, 1.0, 0.0, 0, False)
        merged = a.merged(b)
        assert merged.green_time == 1.0
        assert merged.amber_time == 1.0

    def test_bad_inputs_rejected(self):
        tracker = UtilizationTracker("J")
        with pytest.raises(ValueError):
            tracker.record_slot(1, 0.0, 1.0, 0, False)
        with pytest.raises(ValueError):
            tracker.record_slot(1, 1.0, 1.0, -1, False)

    def test_empty_tracker_safe(self):
        tracker = UtilizationTracker("J")
        assert tracker.service_utilization == 0.0
        assert tracker.amber_share == 0.0
        assert tracker.wasted_green_share == 0.0


class TestBatchAggregateMetricsCollector:
    """The batch collector's books are the scalar collector's, per row."""

    def test_rows_integrate_like_scalar_collectors(self):
        import numpy as np

        from repro.metrics.aggregate import (
            AggregateMetricsCollector,
            BatchAggregateMetricsCollector,
        )

        batch = BatchAggregateMetricsCollector(2)
        scalars = [AggregateMetricsCollector(), AggregateMetricsCollector()]
        rows = [((3, 0), (7, 1)), ((5, 2), (9, 4)), ((0, 0), (1, 1))]
        for step, (waiting, in_network) in enumerate(rows):
            batch.record_interval(0.7, np.array([waiting, in_network]))
            for b, scalar in enumerate(scalars):
                scalar.record_interval(0.7, waiting[b], in_network[b])
            batch.advance(0.7 * (step + 1))
        for b, scalar in enumerate(scalars):
            scalar.advance(batch.now)
            assert batch.summary_of(b) == scalar.summary()

    @pytest.mark.parametrize("row", (0, 1))
    def test_negative_count_is_rejected(self, row):
        import numpy as np

        from repro.metrics.aggregate import BatchAggregateMetricsCollector

        counts = np.zeros((2, 3), dtype=np.int64)
        counts[row, 1] = -1
        collector = BatchAggregateMetricsCollector(3)
        with pytest.raises(ValueError, match="counts must be >= 0"):
            collector.record_interval(1.0, counts)
        with pytest.raises(ValueError, match="dt must be > 0"):
            collector.record_interval(0.0, np.zeros((2, 3), dtype=np.int64))
        assert not collector.total_queuing_time.any()
        assert not collector.network_time_integral.any()

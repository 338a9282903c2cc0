"""Shared aggregation: group-by, stats, and delay-mode safety."""

import math

import pytest

from repro.experiments.runner import RunResult
from repro.metrics.collector import Summary
from repro.orchestration import RunSpec
from repro.results import (
    MetricStats,
    MixedDelayModeError,
    aggregate,
    tidy_table,
)


def make_cell(
    pattern="I",
    controller="util-bp",
    controller_params=(),
    engine="meso",
    seed=1,
    avg_queuing=10.0,
    avg_travel=60.0,
    delay_mode="per-vehicle",
):
    """A synthetic (spec, result) pair — no simulation needed."""
    spec = RunSpec(
        pattern=pattern,
        controller=controller,
        controller_params=controller_params,
        engine=engine,
        seed=seed,
        duration=90.0,
    )
    summary = Summary(
        duration=90.0,
        vehicles_entered=100,
        vehicles_left=90,
        average_queuing_time=avg_queuing,
        average_travel_time=avg_travel,
        total_queuing_time=avg_queuing * 100,
        max_queuing_time=3 * avg_queuing,
        throughput_per_hour=3600.0,
        delay_mode=delay_mode,
    )
    result = RunResult(
        scenario_name=f"grid3x3-pattern-{pattern}",
        controller_name=controller,
        duration=90.0,
        summary=summary,
    )
    return spec, result


class TestMetricStats:
    def test_single_value(self):
        stats = MetricStats.from_values([5.0])
        assert stats == MetricStats(mean=5.0, std=0.0, ci95=0.0, n=1)

    def test_mean_std_ci(self):
        stats = MetricStats.from_values([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.std == pytest.approx(1.0)
        assert stats.ci95 == pytest.approx(1.96 / math.sqrt(3))
        assert stats.n == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MetricStats.from_values([])


class TestAggregate:
    def test_groups_across_seeds(self):
        cells = [
            make_cell(seed=1, avg_queuing=10.0),
            make_cell(seed=2, avg_queuing=14.0),
            make_cell(
                controller="cap-bp",
                controller_params={"period": 18.0},
                seed=1,
                avg_queuing=20.0,
            ),
        ]
        rows = aggregate(cells, by=("pattern", "controller"))
        assert len(rows) == 2
        by_controller = {row["controller"]: row for row in rows}
        util = by_controller["util-bp"]
        assert util["n"] == 2
        assert util["average_queuing_time_mean"] == pytest.approx(12.0)
        assert util["average_queuing_time_std"] == pytest.approx(
            math.sqrt(8.0)
        )
        assert by_controller["cap-bp"]["n"] == 1

    def test_accepts_stored_records(self, tmp_path):
        from repro.results import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        for seed, value in ((1, 10.0), (2, 20.0)):
            spec, result = make_cell(seed=seed, avg_queuing=value)
            store.put(spec, result)
        rows = aggregate(store.query(), by=("pattern",))
        assert rows[0]["average_queuing_time_mean"] == pytest.approx(15.0)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregation axes"):
            aggregate([make_cell()], by=("flavor",))

    def test_rows_are_sorted_and_tidy(self):
        cells = [
            make_cell(pattern="II"),
            make_cell(pattern="I"),
        ]
        rows = aggregate(cells, by=("pattern",))
        assert [row["pattern"] for row in rows] == ["I", "II"]
        headers, body = tidy_table(rows)
        assert headers[0] == "pattern"
        assert len(body) == 2
        assert all(len(line) == len(headers) for line in body)


class TestDelayModeSafety:
    def mixed_cells(self):
        return [
            make_cell(seed=1, delay_mode="per-vehicle", avg_travel=60.0),
            make_cell(
                seed=2,
                engine="meso-counts",
                delay_mode="aggregate",
                avg_travel=90.0,
            ),
        ]

    def test_mixed_modes_raise_by_default(self):
        with pytest.raises(MixedDelayModeError, match="delay modes"):
            aggregate(self.mixed_cells(), by=("pattern", "controller"))

    def test_mixed_modes_split_on_request(self):
        rows = aggregate(
            self.mixed_cells(),
            by=("pattern", "controller"),
            on_mixed_delay_mode="split",
        )
        assert len(rows) == 2
        assert {row["delay_mode"] for row in rows} == {
            "per-vehicle",
            "aggregate",
        }
        # Each split row averages only its own semantics.
        travel = {
            row["delay_mode"]: row["average_travel_time_mean"] for row in rows
        }
        assert travel["per-vehicle"] == pytest.approx(60.0)
        assert travel["aggregate"] == pytest.approx(90.0)

    def test_mixed_modes_fine_without_sensitive_metrics(self):
        # Total/average queuing time is exact under both modes, so
        # blending those is legitimate — flagged as mixed, not blocked.
        rows = aggregate(
            self.mixed_cells(),
            by=("pattern", "controller"),
            metrics=("average_queuing_time",),
        )
        assert len(rows) == 1
        assert rows[0]["delay_mode"] == "mixed"
        assert rows[0]["n"] == 2

    def test_explicit_delay_mode_axis_always_allowed(self):
        rows = aggregate(
            self.mixed_cells(),
            by=("pattern", "delay_mode"),
        )
        assert len(rows) == 2

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="on_mixed_delay_mode"):
            aggregate([make_cell()], on_mixed_delay_mode="blend")

    def test_uniform_modes_never_raise(self):
        cells = [make_cell(seed=s) for s in (1, 2, 3)]
        rows = aggregate(cells, by=("pattern",))
        assert rows[0]["delay_mode"] == "per-vehicle"
        assert rows[0]["n"] == 3

"""Tests for the table/figure reproduction drivers (tiny horizons)."""

import pytest

from repro.experiments.ablations import (
    ABLATIONS,
    render_ablation,
    run_ablation,
)
from repro.experiments.fig2 import Fig2Result, render_fig2, run_fig2
from repro.experiments.fig34 import render_fig34, run_fig34
from repro.experiments.fig5 import render_fig5, run_fig5
from repro.experiments.table3 import (
    PAPER_TABLE3,
    Table3Row,
    render_table3,
    run_table3,
)


class TestTable3Driver:
    def test_small_run(self):
        rows = run_table3(
            patterns=("II",),
            engine="meso",
            periods=(12.0, 20.0),
            duration_scale=0.05,  # 180 s
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.pattern == "II"
        assert row.cap_bp_best_period in (12.0, 20.0)
        assert row.util_bp_queuing_time > 0

    def test_paper_reference_values(self):
        assert PAPER_TABLE3["IV"] == (22.0, 125.63, 94.05)
        paper_improvements = [
            (cap - util) / cap * 100
            for (_, cap, util) in PAPER_TABLE3.values()
        ]
        mean = sum(paper_improvements) / len(paper_improvements)
        assert mean == pytest.approx(13.0, abs=2.0)  # "at least about 13%"

    def test_render(self):
        row = Table3Row("I", 18.0, 100.0, 87.0)
        out = render_table3([row])
        assert "Table III" in out
        assert "13.0%" in out

    def test_improvement_percent(self):
        row = Table3Row("I", 18.0, 100.0, 80.0)
        assert row.improvement_percent == pytest.approx(20.0)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            run_table3(duration_scale=0.0)


class TestFig2Driver:
    def test_small_sweep(self):
        result = run_fig2(
            periods=(12, 24), engine="meso", segment_duration=60.0
        )
        assert len(result.cap_bp_queuing_times) == 2
        assert result.best_period in (12.0, 24.0)

    def test_result_properties(self):
        result = Fig2Result(
            periods=(10.0, 20.0),
            cap_bp_queuing_times=(150.0, 120.0),
            util_bp_queuing_time=100.0,
        )
        assert result.best_period == 20.0
        assert result.best_queuing_time == 120.0
        assert result.util_beats_best

    def test_render(self):
        result = Fig2Result(
            periods=(10.0, 20.0),
            cap_bp_queuing_times=(150.0, 120.0),
            util_bp_queuing_time=100.0,
        )
        out = render_fig2(result)
        assert "Fig. 2" in out
        assert "beats" in out

    def test_empty_periods_rejected(self):
        with pytest.raises(ValueError):
            run_fig2(periods=())


class TestFig34Driver:
    def test_traces_recorded(self):
        result = run_fig34(engine="meso", duration=200.0)
        assert result.cap_bp_trace.node_id == "J02"
        assert result.util_bp_trace.switch_count() >= 0
        stats = result.stats()
        assert set(stats) == {"cap-bp", "util-bp"}
        shares = [
            stats["util-bp"][f"share_c{i}"] for i in range(5)
        ]
        assert sum(shares) == pytest.approx(1.0)

    def test_render(self):
        result = run_fig34(engine="meso", duration=150.0)
        out = render_fig34(result)
        assert "Fig. 3" in out and "Fig. 4" in out


class TestFig5Driver:
    def test_traces_recorded(self):
        result = run_fig5(engine="meso", duration=200.0)
        assert len(result.cap_bp_trace.series) > 0
        assert len(result.util_bp_trace.series) > 0

    def test_render(self):
        result = run_fig5(engine="meso", duration=150.0)
        assert "Fig. 5" in render_fig5(result)


class TestAblations:
    def test_studies_defined(self):
        assert set(ABLATIONS) >= {
            "transition-duration",
            "alpha-beta-order",
            "keep-margin",
            "controller-family",
        }

    def test_alpha_beta_study(self):
        points = run_ablation(
            "alpha-beta-order", pattern="II", duration=120.0
        )
        assert len(points) == 2
        assert all(p.average_queuing_time >= 0 for p in points)

    def test_mini_slot_study(self):
        points = run_ablation(
            "mini-slot", pattern="II", duration=120.0, mini_slots=(1.0, 5.0)
        )
        assert [p.params["mini_slot"] for p in points] == [1.0, 5.0]

    def test_mini_slot_dispatch(self):
        points = run_ablation("mini-slot", pattern="II", duration=60.0)
        assert points  # dispatched to the runner-cadence variant

    def test_unknown_study_rejected(self):
        with pytest.raises(ValueError):
            run_ablation("nonexistent")

    def test_render(self):
        points = run_ablation(
            "alpha-beta-order", pattern="II", duration=60.0
        )
        out = render_ablation(points)
        assert "alpha-beta-order" in out

"""Tests for repro.experiments — patterns, scenarios, runner."""

import pytest

from repro.scenarios.patterns import (
    MIXED_SEGMENT_DURATION,
    PATTERN_NAMES,
    TURNING,
    arrival_schedule,
    interarrival_times,
    pattern_description,
)
from repro.core.engine import build_engine
from repro.experiments.runner import run_scenario
from repro.scenarios.core import DEFAULT_DURATIONS, build_scenario
from repro.model.geometry import Direction
from repro.model.phases import TRANSITION_PHASE_INDEX


class TestPatterns:
    def test_table1_values(self):
        assert TURNING.right[Direction.N] == 0.4
        assert TURNING.left[Direction.N] == 0.2
        assert TURNING.right[Direction.E] == 0.3
        assert TURNING.left[Direction.E] == 0.3
        assert TURNING.right[Direction.S] == 0.4
        assert TURNING.left[Direction.S] == 0.3
        assert TURNING.right[Direction.W] == 0.3
        assert TURNING.left[Direction.W] == 0.4

    def test_table2_values(self):
        assert interarrival_times("I") == {
            Direction.N: 3.0,
            Direction.E: 5.0,
            Direction.S: 7.0,
            Direction.W: 9.0,
        }
        assert interarrival_times("II")[Direction.W] == 6.0
        assert interarrival_times("III") == {
            Direction.N: 3.0,
            Direction.E: 7.0,
            Direction.S: 5.0,
            Direction.W: 9.0,
        }
        assert interarrival_times("IV")[Direction.N] == 3.0
        assert interarrival_times("IV")[Direction.E] == 9.0

    def test_descriptions(self):
        assert pattern_description("I") == "adjacent heavy"
        assert pattern_description("II") == "uniform"
        assert pattern_description("III") == "opposite heavy"
        assert pattern_description("IV") == "single heavy"

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            interarrival_times("V")
        with pytest.raises(ValueError):
            pattern_description("V")

    def test_constant_schedule_rate(self):
        schedule = arrival_schedule("I", Direction.N)
        assert schedule.rate_at(0) == pytest.approx(1 / 3)

    def test_mixed_schedule_segments(self):
        schedule = arrival_schedule("mixed", Direction.N)
        # Pattern sequence I, II, III, IV: north rates 1/3, 1/6, 1/3, 1/3.
        assert schedule.rate_at(0) == pytest.approx(1 / 3)
        assert schedule.rate_at(MIXED_SEGMENT_DURATION) == pytest.approx(1 / 6)
        assert schedule.rate_at(2 * MIXED_SEGMENT_DURATION) == pytest.approx(1 / 3)

    def test_mixed_schedule_custom_segments(self):
        schedule = arrival_schedule("mixed", Direction.E, segment_duration=100)
        assert schedule.rate_at(150) == pytest.approx(1 / 6)


class TestScenario:
    def test_paper_defaults(self):
        scenario = build_scenario("I", seed=0)
        assert len(scenario.network.intersections) == 9
        assert len(scenario.demand) == 12
        assert scenario.default_duration == DEFAULT_DURATIONS["I"]

    def test_mixed_duration(self):
        scenario = build_scenario("mixed", seed=0, mixed_segment_duration=100)
        assert scenario.default_duration == 400

    def test_demand_matches_entry_sides(self):
        scenario = build_scenario("I", seed=0)
        for road_id, schedule in scenario.demand.items():
            side = Direction(road_id[3])
            assert schedule.rate_at(0) == pytest.approx(
                1 / interarrival_times("I")[side]
            )

    def test_demand_scale(self):
        scenario = build_scenario("II", seed=0, demand_scale=2.0)
        for schedule in scenario.demand.values():
            assert schedule.rate_at(0) == pytest.approx(2 / 6)

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("X", seed=0)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("I", seed=0, demand_scale=0.0)

    def test_small_grid_variant(self):
        scenario = build_scenario("II", seed=0, rows=2, cols=2)
        assert len(scenario.network.intersections) == 4
        assert len(scenario.demand) == 8

    def test_pattern_names_complete(self):
        assert set(PATTERN_NAMES) == {"I", "II", "III", "IV", "mixed"}


class TestRunner:
    def test_engines_registered(self):
        scenario = build_scenario("II", seed=0, rows=1, cols=1)
        assert build_engine(scenario, "meso") is not None
        assert build_engine(scenario, "micro") is not None
        with pytest.raises(ValueError):
            build_engine(scenario, "quantum")

    def test_run_produces_summary(self):
        scenario = build_scenario("II", seed=1, rows=1, cols=1)
        result = run_scenario(scenario, controller="util-bp", duration=120)
        assert result.duration == 120
        assert result.summary.vehicles_entered > 0

    def test_paired_runs_same_demand(self):
        """Both controllers must face identical arrivals (same seed)."""
        a = run_scenario(
            build_scenario("II", seed=7, rows=1, cols=1),
            controller="util-bp",
            duration=150,
        )
        b = run_scenario(
            build_scenario("II", seed=7, rows=1, cols=1),
            controller="fixed-time",
            controller_params={"period": 10},
            duration=150,
        )
        assert a.summary.vehicles_entered == b.summary.vehicles_entered

    def test_phase_trace_recording(self):
        result = run_scenario(
            build_scenario("II", seed=1, rows=1, cols=1),
            controller="fixed-time",
            controller_params={"period": 10},
            duration=100,
            record_phases=("J00",),
        )
        trace = result.phase_traces["J00"]
        assert trace.switch_count() > 0

    def test_queue_trace_recording(self):
        result = run_scenario(
            build_scenario("II", seed=1, rows=1, cols=1),
            controller="util-bp",
            duration=100,
            record_queues=(("J00", "IN:N@J00"),),
            queue_sample_interval=10.0,
        )
        trace = result.queue_traces[("J00", "IN:N@J00")]
        assert len(trace.series) == 10

    def test_phase_trace_tolerates_missing_decision(self, monkeypatch):
        """A controller omitting a node records amber, like the plant."""
        import repro.experiments.runner as runner_module

        real = runner_module.make_network_controller

        def partial(name, network, **kwargs):
            controller = real(name, network, **kwargs)

            class DropsJ00:
                def decide(self, observations):
                    decisions = dict(controller.decide(observations))
                    decisions.pop("J00", None)
                    return decisions

            return DropsJ00()

        monkeypatch.setattr(
            runner_module, "make_network_controller", partial
        )
        # meso-counts is the serial engine that has no array façade, so
        # run_scenario asks make_network_controller for its controllers.
        result = run_scenario(
            build_scenario("II", seed=1, rows=1, cols=1),
            controller="util-bp",
            duration=30,
            engine="meso-counts",
            record_phases=("J00",),
        )
        assert set(result.phase_traces["J00"].phases) == {
            TRANSITION_PHASE_INDEX
        }

    def test_queue_samples_snap_to_fixed_grid(self):
        """No drift when the mini-slot does not divide the interval.

        With a 2 s mini-slot and a 5 s interval, each grid point
        (0, 5, 10, ...) must be sampled at the first step on or after
        it — never re-anchored to the previous sample time (which
        would degrade the cadence to every 6 s).
        """
        result = run_scenario(
            build_scenario("II", seed=1, rows=1, cols=1),
            controller="util-bp",
            duration=60,
            mini_slot=2.0,
            record_queues=(("J00", "IN:N@J00"),),
            queue_sample_interval=5.0,
        )
        times = result.queue_traces[("J00", "IN:N@J00")].series.times
        assert len(times) == 12  # one sample per grid point in [0, 60)
        for index, time in enumerate(times):
            assert 0.0 <= time - 5.0 * index < 2.0

    def test_utilization_collected(self):
        result = run_scenario(
            build_scenario("II", seed=1, rows=1, cols=1),
            controller="util-bp",
            duration=100,
        )
        merged = result.network_utilization()
        assert merged.green_time + merged.amber_time == pytest.approx(100.0)

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(
                build_scenario("II", seed=1, rows=1, cols=1),
                duration=-5,
            )

    def test_micro_engine_run(self):
        result = run_scenario(
            build_scenario("II", seed=1, rows=1, cols=1),
            controller="util-bp",
            duration=60,
            engine="micro",
        )
        assert result.summary.vehicles_entered > 0


class TestRunConfigKeyword:
    """``config=RunConfig(...)`` as the single validated knob surface."""

    def test_config_object_drives_the_run(self):
        from repro.experiments.runner import RunConfig

        scenario = build_scenario("I", seed=3)
        config = RunConfig(controller="util-bp", duration=60.0)
        via_config = run_scenario(scenario, config=config)
        via_knobs = run_scenario(
            build_scenario("I", seed=3), controller="util-bp", duration=60.0
        )
        assert via_config == via_knobs

    def test_config_cannot_mix_with_loose_knobs(self):
        from repro.experiments.runner import RunConfig

        scenario = build_scenario("I", seed=1)
        with pytest.raises(TypeError, match="cannot be combined"):
            run_scenario(
                scenario, config=RunConfig(), duration=60.0
            )

    def test_config_must_be_a_runconfig(self):
        scenario = build_scenario("I", seed=1)
        with pytest.raises(TypeError, match="must be a RunConfig"):
            run_scenario(scenario, config={"controller": "util-bp"})

    def test_batch_accepts_config(self):
        from repro.experiments.runner import RunConfig, run_scenario_batch

        scenarios = [build_scenario("I", seed=s) for s in (1, 2)]
        config = RunConfig(controller="util-bp", duration=60.0,
                           engine="meso-vec")
        batch = run_scenario_batch(scenarios, config=config)
        assert len(batch) == 2
        singles = [
            run_scenario(build_scenario("I", seed=s), config=config)
            for s in (1, 2)
        ]
        assert [r.summary for r in batch] == [r.summary for r in singles]

    def test_runconfig_exported_from_experiments_package(self):
        from repro.experiments import RunConfig, run_scenario_batch  # noqa: F401

"""The declarative experiment layer: registry, equivalence, sharing."""

import pytest

from repro.experiments.ablations import run_ablation
from repro.experiments.fig2 import FIG2, Fig2Result, run_fig2
from repro.experiments.fig34 import run_fig34
from repro.experiments.stability import run_stability_sweep
from repro.experiments.table3 import TABLE3, Table3Row, run_table3
from repro.orchestration import ExperimentPool, RunSpec
from repro.results import (
    ExperimentDefinition,
    get_experiment,
    load_builtin_experiments,
    register_experiment,
    run_experiment,
)

#: Small-horizon parameter sets reused below.
FIG2_SMALL = dict(
    periods=(12.0, 24.0), engine="meso", seed=1, segment_duration=60.0
)
TABLE3_SMALL = dict(
    patterns=("II",),
    engine="meso",
    seed=1,
    periods=(12.0, 20.0),
    duration_scale=0.05,
    mixed_segment_duration=None,
)


class TestRegistry:
    def test_all_six_drivers_registered(self):
        names = load_builtin_experiments()
        assert set(names) >= {
            "table3",
            "fig2",
            "fig34",
            "fig5",
            "ablations",
            "stability",
        }

    def test_get_by_name(self):
        assert get_experiment("fig2") is FIG2

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            get_experiment("fig99")

    def test_unknown_override_rejected_before_any_run(self):
        with pytest.raises(ValueError, match="no parameter"):
            run_experiment("fig2", perids=(10.0,))  # typo'd name

    def test_definitions_have_render(self):
        for name in load_builtin_experiments():
            assert callable(get_experiment(name).render)

    def test_specs_view_expands_without_running(self):
        specs = TABLE3.specs(**TABLE3_SMALL)
        # one pattern x (2 periods + 1 util reference)
        assert len(specs) == 3
        assert all(isinstance(spec, RunSpec) for spec in specs)


class TestPreRefactorEquivalence:
    """The definitions must reproduce the pre-refactor drivers exactly:
    identical specs, hence byte-identical summary numbers under fixed
    seeds."""

    def test_fig2_matches_handrolled_loop(self):
        # The pre-refactor fig2 body: explicit spec list + pool.run +
        # positional unpacking.
        duration = 4 * FIG2_SMALL["segment_duration"]
        scenario_params = {
            "mixed_segment_duration": FIG2_SMALL["segment_duration"]
        }
        specs = [
            RunSpec(
                pattern="mixed",
                controller="cap-bp",
                controller_params={"period": float(period)},
                engine="meso",
                seed=1,
                duration=duration,
                scenario_params=scenario_params,
            )
            for period in FIG2_SMALL["periods"]
        ]
        specs.append(
            RunSpec(
                pattern="mixed",
                controller="util-bp",
                engine="meso",
                seed=1,
                duration=duration,
                scenario_params=scenario_params,
            )
        )
        results = ExperimentPool().run(specs)
        expected = Fig2Result(
            periods=tuple(float(p) for p in FIG2_SMALL["periods"]),
            cap_bp_queuing_times=tuple(
                r.average_queuing_time for r in results[:-1]
            ),
            util_bp_queuing_time=results[-1].average_queuing_time,
        )
        assert run_fig2(**FIG2_SMALL) == expected
        assert run_experiment("fig2", **FIG2_SMALL) == expected

    def test_definition_specs_match_driver_specs(self):
        assert FIG2.specs(**FIG2_SMALL) == tuple(
            FIG2.build_specs(**FIG2.params(**FIG2_SMALL))
        )

    def test_table3_via_name_equals_wrapper(self):
        by_name = run_experiment("table3", **TABLE3_SMALL)
        by_wrapper = run_table3(**TABLE3_SMALL)
        assert by_name == by_wrapper
        assert isinstance(by_name[0], Table3Row)


class TestSharedStore:
    def test_rerun_through_store_executes_nothing(self, tmp_path):
        cold = ExperimentPool(store=tmp_path / "s.sqlite")
        first = run_fig2(**FIG2_SMALL, pool=cold)
        assert cold.stats.executed == len(FIG2_SMALL["periods"]) + 1

        warm = ExperimentPool(store=tmp_path / "s.sqlite")
        second = run_fig2(**FIG2_SMALL, pool=warm)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == cold.stats.executed
        assert second == first

    def test_drivers_share_cells_through_one_store(self, tmp_path):
        """fig2 and table3 both sweep mixed-pattern CAP-BP periods; a
        shared store computes the overlapping cells exactly once."""
        pool = ExperimentPool(store=tmp_path / "s.sqlite")
        run_fig2(
            periods=(12.0, 20.0), engine="meso", seed=1,
            segment_duration=180.0, pool=pool,
        )
        executed_by_fig2 = pool.stats.executed
        # table3 on the mixed pattern at the same horizon/segment hits
        # the same (mixed, cap-bp period, meso, seed 1) cells.
        run_table3(
            patterns=("mixed",),
            engine="meso",
            seed=1,
            periods=(12.0, 20.0),
            duration_scale=0.05,  # 4 h * 0.05 = 720 s = 4 * 180 s
            mixed_segment_duration=180.0,
            pool=pool,
        )
        assert pool.stats.cache_hits >= 3  # 2 periods + util reference
        assert pool.stats.executed == executed_by_fig2

    def test_different_drivers_one_pool_accumulate_stats(self, tmp_path):
        pool = ExperimentPool(store=tmp_path / "s.sqlite")
        run_fig34(engine="meso", duration=120.0, pool=pool)
        run_ablation("alpha-beta-order", pattern="II", duration=60.0, pool=pool)
        assert pool.stats.executed == 4  # 2 fig34 cells + 2 ablation cells
        assert len(pool.store.query()) == 4


class TestCustomDefinition:
    def test_register_and_run_a_custom_experiment(self):
        definition = ExperimentDefinition(
            name="tiny-demo",
            description="one cheap cell",
            build_specs=lambda seed: [
                RunSpec(pattern="I", seed=seed, duration=60.0)
            ],
            collect=lambda specs, results, params: results[0]
            .summary.vehicles_entered,
            render=lambda value: f"{value} vehicles",
            defaults=dict(seed=3),
        )
        register_experiment(definition)
        entered = run_experiment("tiny-demo")
        assert entered > 0
        assert definition.render(entered).endswith("vehicles")


class _RecordingPool(ExperimentPool):
    """A serial pool that keeps the specs it was asked to run."""

    def run(self, specs):
        self.specs = tuple(specs)
        return super().run(specs)


class TestWrappersForward:
    """Each ``run_*`` is ``run_experiment`` on its definition: every
    definition parameter is reachable, and list arguments behave as
    tuples."""

    def test_list_overrides_become_tuples(self):
        params = TABLE3.params(patterns=["II"], periods=[12.0, 20.0])
        assert params["patterns"] == ("II",)
        assert params["periods"] == (12.0, 20.0)
        assert params["mixed_segment_duration"] is None

    def test_string_for_a_sequence_parameter_rejected(self):
        """``patterns="II"`` must not run pattern I twice."""
        with pytest.raises(TypeError, match="'patterns'"):
            TABLE3.params(patterns="II")
        pool = _RecordingPool()
        with pytest.raises(TypeError, match="'periods'"):
            run_table3(patterns=("II",), periods="12", pool=pool)
        assert not hasattr(pool, "specs")

    def test_list_arguments_equal_tuple_arguments(self):
        small = dict(FIG2_SMALL, periods=list(FIG2_SMALL["periods"]))
        assert run_fig2(**small) == run_fig2(**FIG2_SMALL)

    def test_stability_engine_reaches_the_definition(self):
        pool = _RecordingPool()
        points = run_stability_sweep(
            scales=[0.5],
            controllers=[("util-bp", None)],
            duration=60.0,
            engine="meso-counts",
            pool=pool,
        )
        assert [spec.engine for spec in pool.specs] == ["meso-counts"]
        assert len(points) == 1

    def test_mini_slot_grid_reaches_the_definition(self):
        pool = _RecordingPool()
        points = run_ablation(
            "mini-slot", pattern="II", duration=60.0,
            mini_slots=(1.0, 2.0), pool=pool,
        )
        assert [spec.mini_slot for spec in pool.specs] == [1.0, 2.0]
        assert [p.params["mini_slot"] for p in points] == [1.0, 2.0]

    def test_unknown_parameter_rejected_by_the_wrapper(self):
        with pytest.raises(ValueError, match="no parameter"):
            run_stability_sweep(scale=(1.0,))  # typo'd name

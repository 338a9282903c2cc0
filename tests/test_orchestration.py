"""Orchestration layer: specs, grids, the pool and the result cache."""

import json

import pytest

from repro.experiments.runner import RunResult, run_scenario
from repro.scenarios.core import build_scenario
from repro.orchestration import (
    BatchRunSpec,
    ExperimentPool,
    RunSpec,
    SweepGrid,
)
from repro.orchestration.spec import _freeze_params, _params_to_json

#: A cheap cell reused across tests (90 s meso run).
QUICK = dict(pattern="I", controller="util-bp", engine="meso", duration=90.0)


class TestRunSpec:
    def test_hashable_and_dict_key(self):
        spec = RunSpec(**QUICK)
        assert {spec: 1}[RunSpec(**QUICK)] == 1

    def test_param_order_does_not_matter(self):
        a = RunSpec(controller_params={"alpha": -1.0, "beta": -2.0})
        b = RunSpec(controller_params={"beta": -2.0, "alpha": -1.0})
        assert a == b
        assert a.spec_hash() == b.spec_hash()

    def test_distinct_cells_hash_differently(self):
        base = RunSpec(**QUICK)
        assert base.spec_hash() != RunSpec(**{**QUICK, "seed": 2}).spec_hash()
        assert (
            base.spec_hash()
            != RunSpec(**{**QUICK, "duration": 120.0}).spec_hash()
        )

    def test_roundtrip(self):
        spec = RunSpec(
            pattern="mixed",
            controller="cap-bp",
            controller_params={"period": 18.0},
            engine="micro",
            seed=3,
            duration=250.0,
            mini_slot=2.0,
            scenario_params={"mixed_segment_duration": 600.0},
            record_phases=("J02",),
            record_queues=(("J02", "IN:E@J02"),),
        )
        rebuilt = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_to_dict_is_pure_json(self):
        """Tuple-valued params must survive a json round trip unchanged.

        The result cache validates stored entries by comparing the
        loaded JSON against ``to_dict()``; a tuple that json turns
        into a list would defeat every lookup for such specs.
        """
        # Both param slots freeze/thaw through _freeze_params and
        # _params_to_json.  No controller or scenario builder accepts a
        # tuple value, so a spec cannot carry one past its checks: the
        # tuple case is pinned on the two helpers directly.
        spec = RunSpec(
            controller_params={"alpha": -3.0},
            scenario_params={"rows": 4, "cols": 3},
            record_queues=(("J00", "IN:N@J00"),),
        )
        payload = spec.to_dict()
        assert payload == json.loads(json.dumps(payload))
        rebuilt = RunSpec.from_dict(payload)
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()
        frozen = _freeze_params({"weights": [1.0, 2.0]})
        assert frozen == (("weights", (1.0, 2.0)),)
        as_json = _params_to_json(frozen)
        assert as_json == json.loads(json.dumps(as_json))
        assert _freeze_params(as_json) == frozen

    @pytest.mark.parametrize(
        "overrides, error, match",
        [
            ({"engine": "warp-drive"}, ValueError, "unknown engine"),
            ({"controller": "nope"}, ValueError, "unknown controller"),
            ({"controller": "cap-bp"}, TypeError, "requires a 'period'"),
            (
                {"controller_params": {"period": 3}},
                TypeError,
                "unknown util-bp parameters",
            ),
            (
                {"controller": "cap-bp", "controller_params": {"period": -1}},
                ValueError,
                "period must be > 0",
            ),
        ],
        ids=["engine", "controller", "no-period", "util-bp-period", "bad-period"],
    )
    def test_unbuildable_spec_rejected_at_construction(
        self, overrides, error, match
    ):
        """Engine and controller typos must fail when the spec is built,
        not mid-sweep in a worker."""
        with pytest.raises(error, match=match):
            RunSpec(**{**QUICK, **overrides})

    @pytest.mark.parametrize(
        "option, value",
        [
            ("mini_slot", 0.0),
            ("mini_slot", -1.0),
            ("duration", 0.0),
            ("duration", -30.0),
            ("queue_sample_interval", 0.0),
            ("queue_sample_interval", -5.0),
        ],
    )
    def test_bad_run_option_rejected_at_construction(self, option, value):
        """A run option no run could take fails when the spec is built,
        not when a worker executes it."""
        with pytest.raises(ValueError, match=option):
            RunSpec(pattern="II", **{option: value})

    @pytest.mark.parametrize(
        "payload, missing",
        [
            ({"pattern": "II", "mini_slot": 0}, ["controller", "engine", "seed"]),
            ({}, ["pattern", "controller", "engine", "seed"]),
            (
                {"pattern": "I", "controller": "util-bp", "engine": "meso"},
                ["seed"],
            ),
        ],
        ids=["pattern-only", "empty", "no-seed"],
    )
    def test_from_dict_names_every_missing_key(self, payload, missing):
        with pytest.raises(ValueError) as error:
            RunSpec.from_dict(payload)
        assert str(error.value) == f"spec is missing required key(s) {missing}"

    def test_from_dict_ignores_unknown_keys(self):
        payload = {**RunSpec(**QUICK).to_dict(), "written_by": "an older tool"}
        assert RunSpec.from_dict(payload) == RunSpec(**QUICK)

    def test_engine_axis_hashes_distinctly(self):
        meso = RunSpec(**QUICK)
        counts = RunSpec(**{**QUICK, "engine": "meso-counts"})
        assert meso.spec_hash() != counts.spec_hash()

    def test_execute_matches_run_scenario(self):
        direct = run_scenario(
            build_scenario("I", seed=1),
            controller="util-bp",
            duration=90.0,
            engine="meso",
        )
        assert RunSpec(**QUICK).execute().summary == direct.summary


class TestRunResultSerialization:
    def test_roundtrip_with_traces(self):
        result = run_scenario(
            build_scenario("I", seed=5),
            controller="cap-bp",
            controller_params={"period": 16.0},
            duration=120.0,
            engine="meso",
            record_phases=("J00", "J11"),
            record_queues=(("J00", "IN:N@J00"),),
        )
        rebuilt = RunResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt == result
        assert rebuilt.network_utilization().amber_share == pytest.approx(
            result.network_utilization().amber_share
        )


class TestSweepGrid:
    def test_cartesian_expansion(self):
        grid = SweepGrid(
            patterns=("I", "II"),
            controllers=["util-bp", ("cap-bp", {"period": 18.0})],
            seeds=(1, 2, 3),
            durations=(120.0,),
        )
        specs = grid.specs()
        assert len(grid) == len(specs) == 12
        assert len(set(specs)) == 12  # all cells distinct
        assert specs[0].controller == "util-bp"
        assert ("period", 18.0) in specs[3].controller_params

    def test_string_controller_entries_normalized(self):
        grid = SweepGrid(controllers=["util-bp"])
        assert grid.controllers == (("util-bp", ()),)

    def test_scenarios_axis_concatenates_with_patterns(self):
        grid = SweepGrid(
            patterns=("I",),
            scenarios=("surge-4x4", ("tidal-3x3", {"load": 1.2})),
            seeds=(1, 2),
            durations=(120.0,),
        )
        specs = grid.specs()
        assert len(grid) == len(specs) == 6
        workloads = {spec.pattern for spec in specs}
        assert workloads == {"I", "surge-4x4", "tidal-3x3"}
        tidal = [s for s in specs if s.pattern == "tidal-3x3"]
        assert all(("load", 1.2) in s.scenario_params for s in tidal)

    def test_per_entry_params_win_over_shared(self):
        grid = SweepGrid(
            patterns=(),
            scenarios=(("steady-3x3", {"load": 2.0}),),
            scenario_params={"load": 1.0, "capacity": 60},
            durations=(60.0,),
        )
        (spec,) = grid.specs()
        assert dict(spec.scenario_params) == {"load": 2.0, "capacity": 60}

    def test_scenarios_only_grid_sweeps_no_default_pattern(self):
        grid = SweepGrid(scenarios=("surge-4x4",), durations=(60.0,))
        assert grid.workloads() == (("surge-4x4", ()),)
        assert len(grid) == 1

    def test_default_grid_still_sweeps_pattern_one(self):
        grid = SweepGrid(durations=(60.0,))
        assert grid.workloads() == (("I", ()),)

    def test_engines_axis_expands_per_engine(self):
        grid = SweepGrid(
            patterns=("I",),
            engines=("meso", "meso-counts"),
            durations=(60.0,),
        )
        specs = grid.specs()
        assert len(specs) == 2
        assert {spec.engine for spec in specs} == {"meso", "meso-counts"}

    @pytest.mark.parametrize(
        "axis, match",
        [
            ({"engines": ("meso", "warp-drive")}, "unknown engine"),
            ({"controllers": ["nope"]}, "unknown controller"),
        ],
        ids=["engines", "controllers"],
    )
    def test_unknown_axis_entry_rejected(self, axis, match):
        with pytest.raises(ValueError, match=match):
            SweepGrid(**axis)

    @pytest.mark.parametrize(
        "axis, match",
        [
            ({"mini_slot": 0.0}, "mini_slot"),
            ({"mini_slot": -2.0}, "mini_slot"),
            ({"durations": (60.0, 0.0)}, "duration"),
            ({"durations": (-1.0,)}, "duration"),
            ({"durations": (), "mini_slot": 0.0}, "mini_slot"),
        ],
    )
    def test_bad_run_option_rejected_at_construction(self, axis, match):
        with pytest.raises(ValueError, match=match):
            SweepGrid(**axis)

    def test_pattern_only_param_on_scenario_rejected_at_construction(self):
        """A pattern-only kwarg shared with a catalog scenario must fail
        when the grid is built, not as a TypeError inside a worker."""
        with pytest.raises(ValueError, match="mixed_segment_duration"):
            SweepGrid(
                scenarios=("steady-3x3",),
                scenario_params={"mixed_segment_duration": 600.0},
                durations=(60.0,),
            )

    def test_unknown_scenario_param_rejected_on_spec(self):
        with pytest.raises(ValueError, match="not accepted"):
            RunSpec(
                pattern="surge-3x3",
                scenario_params={"demand_scale": 1.2},  # pattern-only
            )

    def test_per_entry_param_validated_against_its_own_workload(self):
        # 'load' is valid for catalog scenarios but not for patterns;
        # attaching it per-entry keeps the pattern cells clean.
        grid = SweepGrid(
            patterns=("I",),
            scenarios=(("steady-3x3", {"load": 1.2}),),
            durations=(60.0,),
        )
        assert len(grid.specs()) == 2
        with pytest.raises(ValueError, match="'I'"):
            SweepGrid(
                patterns=("I",),
                scenarios=("steady-3x3",),
                scenario_params={"load": 1.2},  # shared -> hits pattern I
                durations=(60.0,),
            )

    def test_scenario_cell_builds_and_executes(self):
        spec = SweepGrid(
            patterns=(),
            scenarios=("incident-3x3",),
            durations=(60.0,),
        ).specs()[0]
        scenario = spec.make_scenario()
        assert scenario.name == "incident-3x3"
        result = spec.execute()
        assert result.scenario_name == "incident-3x3"


class TestExperimentPool:
    def _specs(self):
        return SweepGrid(
            patterns=("I", "II"),
            controllers=["util-bp", ("cap-bp", {"period": 18.0})],
            durations=(90.0,),
        ).specs()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ExperimentPool(workers=0)

    def test_parallel_matches_serial(self):
        specs = self._specs()
        serial = ExperimentPool(workers=1).run(specs)
        parallel = ExperimentPool(workers=2).run(specs)
        assert serial == parallel  # full result objects, not just summaries

    def test_duplicate_specs_executed_once(self):
        spec = RunSpec(**QUICK)
        pool = ExperimentPool()
        results = pool.run([spec, spec])
        assert pool.stats.executed == 1
        assert results[0] == results[1]

    def test_duplicate_cached_specs_counted_once(self, tmp_path):
        spec = RunSpec(**QUICK)
        ExperimentPool(store=tmp_path / "results.sqlite").run_one(spec)
        warm = ExperimentPool(store=tmp_path / "results.sqlite")
        results = warm.run([spec, spec])
        assert warm.stats.cache_hits == 1  # one read, fanned out
        assert warm.stats.executed == 0
        assert results[0] == results[1]

    def test_scenario_spec_round_trips_through_cache(self, tmp_path):
        spec = RunSpec(pattern="surge-3x3", duration=60.0)
        cold = ExperimentPool(store=tmp_path / "results.sqlite")
        first = cold.run_one(spec)
        warm = ExperimentPool(store=tmp_path / "results.sqlite")
        second = warm.run_one(spec)
        assert warm.stats.cache_hits == 1
        assert warm.stats.executed == 0
        assert first == second
        assert first.scenario_name == "surge-3x3"

    def test_warm_cache_executes_nothing(self, tmp_path):
        specs = self._specs()
        cold = ExperimentPool(workers=1, store=tmp_path / "results.sqlite")
        first = cold.run(specs)
        assert cold.stats.executed == len(specs)

        warm = ExperimentPool(workers=2, store=tmp_path / "results.sqlite")
        second = warm.run(specs)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(specs)
        assert second == first

    def test_partial_failure_keeps_completed_cells_cached(
        self, tmp_path, failing_engine
    ):
        """An interrupted parallel sweep must resume from finished cells."""
        good = [RunSpec(**QUICK), RunSpec(**{**QUICK, "seed": 9})]
        bad = RunSpec(**{**QUICK, "engine": failing_engine})
        pool = ExperimentPool(workers=2, store=tmp_path / "results.sqlite")
        with pytest.raises(RuntimeError, match="fails on purpose"):
            pool.run([good[0], bad, good[1]])

        resumed = ExperimentPool(workers=2, store=tmp_path / "results.sqlite")
        resumed.run(good)
        assert resumed.stats.executed == 0
        assert resumed.stats.cache_hits == len(good)

    def test_stale_schema_entries_treated_as_miss(self, tmp_path):
        """Rows written under an older spec schema are never served."""
        import sqlite3

        spec = RunSpec(**QUICK)
        pool = ExperimentPool(store=tmp_path / "results.sqlite")
        pool.run_one(spec)
        with sqlite3.connect(tmp_path / "results.sqlite") as conn:
            conn.execute("UPDATE results SET spec_version = spec_version - 1")
        again = ExperimentPool(store=tmp_path / "results.sqlite")
        again.run_one(spec)
        assert again.stats.executed == 1  # stale entry treated as a miss

    def test_store_path_accepted_directly(self, tmp_path):
        """``store=`` takes a path to the SQLite file (no directory)."""
        spec = RunSpec(**QUICK)
        ExperimentPool(store=tmp_path / "s.sqlite").run_one(spec)
        warm = ExperimentPool(store=tmp_path / "s.sqlite")
        warm.run_one(spec)
        assert warm.stats.cache_hits == 1
        assert warm.stats.executed == 0

    def test_cache_distinguishes_specs(self, tmp_path):
        pool = ExperimentPool(store=tmp_path / "results.sqlite")
        a = pool.run_one(RunSpec(**QUICK))
        b = pool.run_one(RunSpec(**{**QUICK, "seed": 9}))
        assert pool.stats.executed == 2
        assert a.summary != b.summary

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            ExperimentPool(batch_size=0)

    def test_cache_key_includes_engine(self, tmp_path):
        """A cached ``meso`` result must never satisfy a ``meso-counts``
        spec (or vice versa): the engines report different metric modes,
        so serving one for the other would silently mislabel results."""
        meso_spec = RunSpec(**QUICK)
        counts_spec = RunSpec(**{**QUICK, "engine": "meso-counts"})
        pool = ExperimentPool(store=tmp_path / "results.sqlite")
        meso_result = pool.run_one(meso_spec)
        counts_result = pool.run_one(counts_spec)
        assert pool.stats.executed == 2  # second run was NOT a cache hit
        assert pool.stats.cache_hits == 0
        assert meso_result.summary.delay_mode == "per-vehicle"
        assert counts_result.summary.delay_mode == "aggregate"
        # Same seed, same dynamics: the trajectories agree even though
        # the cache rightly keeps the cells separate.
        assert (
            counts_result.summary.vehicles_left
            == meso_result.summary.vehicles_left
        )
        # Warm re-reads resolve each spec to its own entry.
        warm = ExperimentPool(store=tmp_path / "results.sqlite")
        assert warm.run_one(meso_spec).summary.delay_mode == "per-vehicle"
        assert warm.run_one(counts_spec).summary.delay_mode == "aggregate"
        assert warm.stats.cache_hits == 2
        assert warm.stats.executed == 0


class TestSeedBatching:
    """The pool groups same-cell/different-seed meso-vec specs into one
    batched execution and fans results back into per-spec store rows."""

    def _specs(self, seeds=(1, 2, 3, 4), duration=120.0):
        return SweepGrid(
            patterns=(),
            scenarios=("steady-3x3",),
            seeds=seeds,
            engines=("meso-vec",),
            durations=(duration,),
        ).specs()

    def test_batched_matches_unbatched(self):
        specs = self._specs()
        batched = ExperimentPool(batch_size=16).run(specs)
        unbatched = ExperimentPool(batch_size=1).run(specs)
        assert batched == unbatched

    def test_plan_units_groups_only_batchable_cells(self):
        vec = self._specs(seeds=(1, 2, 3, 4, 5))
        meso = [
            RunSpec(pattern="steady-3x3", engine="meso", seed=s, duration=120.0)
            for s in (1, 2)
        ]
        lone = RunSpec(
            pattern="steady-3x3", engine="meso-vec", seed=9, duration=60.0
        )
        pool = ExperimentPool(batch_size=2)
        units = pool._plan_units(list(vec) + meso + [lone])
        batches = [u for u in units if isinstance(u, BatchRunSpec)]
        singles = [u for u in units if isinstance(u, RunSpec)]
        # 5 batchable seeds chunked to (2, 2, 1): two batches, and the
        # odd seed plus the meso cells and the different-duration cell
        # stay individual.
        assert sorted(len(b) for b in batches) == [2, 2]
        assert len(singles) == 4
        assert {spec.engine for spec in meso} == {"meso"}
        # every input spec appears exactly once across all units
        flattened = [s for b in batches for s in b.specs()] + singles
        assert sorted(s.spec_hash() for s in flattened) == sorted(
            s.spec_hash() for s in list(vec) + meso + [lone]
        )

    def test_resume_skips_cached_cells_when_batching(self, tmp_path):
        """A partially complete batched sweep re-executes only the
        missing cells: cache keys are per spec, not per batch."""
        specs = self._specs()
        first = ExperimentPool(store=tmp_path / "s.sqlite", batch_size=16)
        first.run(specs[:2])
        assert first.stats.executed == 2

        resumed = ExperimentPool(store=tmp_path / "s.sqlite", batch_size=16)
        results = resumed.run(specs)
        assert resumed.stats.cache_hits == 2
        assert resumed.stats.executed == 2
        # the store now holds one row per seed
        from repro.results.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        assert len(store) == len(specs)
        store.close()
        # and a fully warm rerun computes nothing
        warm = ExperimentPool(store=tmp_path / "s.sqlite", batch_size=16)
        again = warm.run(specs)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(specs)
        assert again == results

    def test_batched_rows_interchange_with_single_execution(self, tmp_path):
        """A row written by a batch satisfies the same spec run singly,
        and vice versa (unchanged cache keys, value-identical payloads)."""
        specs = self._specs(seeds=(1, 2))
        ExperimentPool(store=tmp_path / "s.sqlite", batch_size=16).run(specs)
        singly = ExperimentPool(store=tmp_path / "s.sqlite", batch_size=1)
        results = singly.run(specs)
        assert singly.stats.cache_hits == 2 and singly.stats.executed == 0
        direct = ExperimentPool(batch_size=1).run(specs)
        assert results == direct

    def test_parallel_batched_matches_serial(self):
        specs = self._specs()
        serial = ExperimentPool(workers=1, batch_size=2).run(specs)
        parallel = ExperimentPool(workers=2, batch_size=2).run(specs)
        assert serial == parallel

    def test_from_specs_rejects_mixed_cells(self):
        specs = self._specs(seeds=(1, 2))
        other = RunSpec(
            pattern="steady-3x3", engine="meso-vec", seed=3, duration=60.0
        )
        with pytest.raises(ValueError, match="differ only in seed"):
            BatchRunSpec.from_specs([specs[0], other])

    def test_non_batch_engine_rejected(self):
        with pytest.raises(ValueError, match="cannot step seed-batches"):
            BatchRunSpec(
                template=RunSpec(pattern="steady-3x3", duration=60.0),
                seeds=(1, 2),
            )

    def test_batch_execute_matches_member_execution(self):
        specs = self._specs(seeds=(7, 8))
        batch = BatchRunSpec.from_specs(list(specs))
        assert batch.specs() == specs
        results = batch.execute()
        assert [r.summary for r in results] == [
            spec.execute().summary for spec in specs
        ]


class TestSweepGridWireFormat:
    """``to_dict``/``from_dict`` — the service's submission format."""

    def test_round_trip_preserves_specs(self):
        grid = SweepGrid(
            patterns=("I", "II"),
            scenarios=(("surge-3x3", {"load": 1.2}),),
            controllers=["util-bp", ("cap-bp", {"period": 18.0})],
            seeds=(1, 2),
            engines=("meso", "meso-counts"),
            durations=(120.0,),
        )
        rebuilt = SweepGrid.from_dict(grid.to_dict())
        assert rebuilt.specs() == grid.specs()
        assert rebuilt.to_dict() == grid.to_dict()

    def test_wire_format_survives_json(self):
        import json

        grid = SweepGrid(
            scenarios=(("tidal-3x3", {"load": 0.8}),),
            durations=(60.0,),
        )
        payload = json.loads(json.dumps(grid.to_dict()))
        assert SweepGrid.from_dict(payload).specs() == grid.specs()

    def test_from_dict_accepts_hand_written_variants(self):
        grid = SweepGrid.from_dict(
            {
                "scenarios": ["steady-4x4"],  # bare string entry
                "controllers": [
                    "util-bp",
                    ["cap-bp", {"period": 16}],  # mapping params
                ],
                "seeds": [3],
                "durations": [60.0],
            }
        )
        specs = grid.specs()
        assert len(specs) == 2
        assert {s.controller for s in specs} == {"util-bp", "cap-bp"}
        assert all(s.pattern == "steady-4x4" for s in specs)

    def test_every_key_optional(self):
        grid = SweepGrid.from_dict({})
        (spec,) = grid.specs()
        assert spec.pattern == "I"
        assert spec.controller == "util-bp"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep-grid key"):
            SweepGrid.from_dict({"patterns": ["I"], "speed": [1]})

    def test_invalid_axis_values_still_validated(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SweepGrid.from_dict({"engines": ["warp-drive"]})

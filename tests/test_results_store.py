"""The SQLite result store: round trips, resume, isolation."""

import json
import sqlite3

import pytest

from repro.experiments.runner import RunResult, run_scenario
from repro.scenarios.core import build_scenario
from repro.orchestration import ExperimentPool, RunSpec, SweepGrid
from repro.orchestration.spec import params_label
from repro.results import ResultStore
from repro.results.store import AmbiguousPrefixError, CellNotFoundError

#: A cheap cell reused across tests (90 s meso run).
QUICK = dict(pattern="I", controller="util-bp", engine="meso", duration=90.0)


def quick_result(seed: int = 1) -> RunResult:
    return run_scenario(
        build_scenario("I", seed=seed),
        controller="util-bp",
        duration=90.0,
        engine="meso",
    )


class TestStoreCore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        spec = RunSpec(**QUICK)
        result = quick_result()
        store.put(spec, result)
        assert store.contains(spec)
        assert store.get(spec) == result
        assert len(store) == 1

    def test_get_miss_returns_none(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        assert store.get(RunSpec(**QUICK)) is None
        assert not store.contains(RunSpec(**QUICK))

    def test_put_accepts_payload_dicts(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        spec = RunSpec(**QUICK)
        result = quick_result()
        store.put(spec, result.to_dict())
        assert store.get(spec) == result

    def test_put_overwrites(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        spec = RunSpec(**QUICK)
        store.put(spec, quick_result(seed=1))
        newer = quick_result(seed=2)  # different numbers, same cell key
        store.put(spec, newer)
        assert store.get(spec) == newer
        assert len(store) == 1

    def test_persists_across_opens(self, tmp_path):
        spec = RunSpec(**QUICK)
        result = quick_result()
        ResultStore(tmp_path / "s.sqlite").put(spec, result)
        reopened = ResultStore(tmp_path / "s.sqlite")
        assert reopened.get(spec) == result

    def test_traces_roundtrip_through_store(self, tmp_path):
        spec = RunSpec(
            **{**QUICK, "record_phases": ("J00",)},
            record_queues=(("J00", "IN:N@J00"),),
        )
        result = spec.execute()
        store = ResultStore(tmp_path / "s.sqlite")
        store.put(spec, result)
        rebuilt = store.get(spec)
        assert rebuilt == result
        assert rebuilt.phase_traces.keys() == {"J00"}

    def test_stale_spec_version_not_served(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        spec = RunSpec(**QUICK)
        store.put(spec, quick_result())
        with sqlite3.connect(tmp_path / "s.sqlite") as conn:
            conn.execute("UPDATE results SET spec_version = spec_version - 1")
        assert store.get(spec) is None
        assert not store.contains(spec)
        assert len(store) == 0

    def test_memory_store(self):
        store = ResultStore(":memory:")
        spec = RunSpec(**QUICK)
        store.put(spec, quick_result())
        assert store.contains(spec)


class TestStoreQuery:
    def _fill(self, store):
        for seed in (1, 2):
            for engine in ("meso", "meso-counts"):
                spec = RunSpec(**{**QUICK, "seed": seed, "engine": engine})
                store.put(spec, spec.execute())

    def test_query_filters_on_axes(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        self._fill(store)
        assert len(store.query()) == 4
        assert len(store.query(engine="meso")) == 2
        assert len(store.query(seed=1)) == 2
        only = store.query(engine="meso-counts", seed=2)
        assert len(only) == 1
        assert only[0].spec.engine == "meso-counts"
        assert only[0].summary.delay_mode == "aggregate"

    def test_query_on_delay_mode(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        self._fill(store)
        aggregate_rows = store.query(delay_mode="aggregate")
        assert len(aggregate_rows) == 2
        assert all(
            record.spec.engine == "meso-counts" for record in aggregate_rows
        )

    def test_query_duration_filter(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        spec = RunSpec(**QUICK)
        store.put(spec, quick_result())
        assert len(store.query(duration=90.0)) == 1
        assert len(store.query(duration=120.0)) == 0

    def test_find_by_hash_prefix(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        spec = RunSpec(**QUICK)
        store.put(spec, quick_result())
        matches = store.find(spec.spec_hash()[:10])
        assert len(matches) == 1
        assert matches[0].spec == spec

    def test_find_one_raises_by_status(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        spec = RunSpec(**QUICK)
        store.put(spec, quick_result())
        store.put(RunSpec(**dict(QUICK, seed=2)), quick_result())
        assert store.find_one(spec.spec_hash()[:10]).spec == spec
        with pytest.raises(CellNotFoundError, match="prefix 'zz'") as error:
            store.find_one("zz")
        assert error.value.status == 404
        with pytest.raises(AmbiguousPrefixError, match=r"\(2 cells") as error:
            store.find_one("")
        assert error.value.status == 409

    def test_overview_and_export(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        self._fill(store)
        overview = store.overview()
        assert {entry["engine"] for entry in overview} == {
            "meso",
            "meso-counts",
        }
        assert all(entry["cells"] == 2 for entry in overview)
        rows = store.export_rows()
        assert len(rows) == 4
        assert {"spec_hash", "pattern", "average_queuing_time"} <= set(rows[0])

    def test_export_labels_controller_params_like_the_sweep_table(
        self, tmp_path
    ):
        """A cell without controller parameters exports ``-``, as the
        sweep table, ``aggregate`` rows and stability verdicts label it,
        and a cell with parameters exports ``k=v``."""
        store = ResultStore(tmp_path / "s.sqlite")
        bare = RunSpec(**QUICK)
        with_params = RunSpec(
            **{**QUICK, "controller": "cap-bp"},
            controller_params={"period": 18.0},
        )
        for spec in (bare, with_params):
            store.put(spec, spec.execute())
        labels = {
            row["controller"]: row["controller_params"]
            for row in store.export_rows()
        }
        assert labels == {"util-bp": "-", "cap-bp": "period=18.0"}
        assert labels["cap-bp"] == params_label(with_params.controller_params)

    def test_export_keeps_duration_axis_and_horizon_separate(self, tmp_path):
        """The spec's duration axis (None = scenario default) must not
        be shadowed by the summary's resolved horizon."""
        store = ResultStore(tmp_path / "s.sqlite")
        explicit = RunSpec(**QUICK)  # duration=90.0
        store.put(explicit, quick_result())
        default_horizon = RunSpec(
            pattern="steady-3x3", scenario_params={"duration": 60.0}
        )  # spec duration None, scenario default horizon
        store.put(default_horizon, default_horizon.execute())
        by_pattern = {row["pattern"]: row for row in store.export_rows()}
        assert by_pattern["I"]["duration"] == 90.0
        assert by_pattern["I"]["horizon"] == 90.0
        assert by_pattern["steady-3x3"]["duration"] is None
        assert by_pattern["steady-3x3"]["horizon"] == 60.0

    def test_undecodable_row_skipped_not_fatal(self, tmp_path):
        """One row whose spec no longer constructs must not make the
        whole store unreadable (query/find/export all degrade to
        omission, like get() treats it as a miss)."""
        store = ResultStore(tmp_path / "s.sqlite")
        good = RunSpec(**QUICK)
        store.put(good, quick_result())
        bad = RunSpec(**{**QUICK, "seed": 2})
        store.put(bad, quick_result(seed=2))
        # Corrupt the stored spec so from_dict raises (e.g. a builder
        # param a later release dropped): rewrite its engine in place.
        with sqlite3.connect(tmp_path / "s.sqlite") as conn:
            conn.execute(
                "UPDATE results SET spec_json = ? WHERE spec_hash = ?",
                (
                    json.dumps(
                        {**bad.to_dict(), "engine": "gone-engine"},
                        sort_keys=True,
                    ),
                    bad.spec_hash(),
                ),
            )
        assert [record.spec for record in store.query()] == [good]
        assert len(store.find(bad.spec_hash()[:8])) == 0
        assert len(store.export_rows()) == 2  # export needs no RunSpec


def _truncate(path, spec, column):
    """Cut a stored row's JSON column in half, as a torn write would."""
    with sqlite3.connect(path) as conn:
        conn.execute(
            f"UPDATE results SET {column} = substr({column}, 1, "
            f"length({column}) / 2) WHERE spec_hash = ?",
            (spec.spec_hash(),),
        )


class TestTruncatedRow:
    """A row whose JSON does not decode is a miss, never a crash."""

    @pytest.mark.parametrize("column", ["spec_json", "result_json"])
    def test_miss_in_get_contains_and_export(self, tmp_path, column):
        path = tmp_path / "s.sqlite"
        store = ResultStore(path)
        good = RunSpec(**QUICK)
        torn = RunSpec(**{**QUICK, "seed": 2})
        store.put(good, quick_result())
        store.put(torn, quick_result(seed=2))
        _truncate(path, torn, column)
        assert store.get(torn) is None
        assert not store.contains(torn)
        assert store.contains(good)
        assert [row["spec_hash"] for row in store.export_rows()] == [
            good.spec_hash()
        ]
        assert [record.spec for record in store.records()] == [good]

    def test_pool_re_executes_and_overwrites(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "s.sqlite"
        spec = RunSpec(**QUICK)
        first = ExperimentPool(store=path)
        (result,) = first.run([spec])
        _truncate(path, spec, "result_json")

        assert main(["results", "export", "--store", str(path)]) == 0
        exported = capsys.readouterr()
        assert spec.spec_hash() not in exported.out
        assert "Traceback" not in exported.err

        again = ExperimentPool(store=path)
        assert again.run([spec]) == [result]
        assert again.stats.executed == 1 and again.stats.cache_hits == 0
        with ResultStore(path) as store:
            assert store.get(spec) == result
            assert [row["spec_hash"] for row in store.export_rows()] == [
                spec.spec_hash()
            ]


class TestResume:
    def _grid(self):
        return SweepGrid(
            patterns=("I", "II"),
            controllers=["util-bp", ("cap-bp", {"period": 18.0})],
            durations=(90.0,),
        ).specs()

    def test_killed_sweep_resumes_with_only_missing_cells(self, tmp_path):
        """A partial store (as a kill mid-sweep leaves) must resume by
        computing only the missing cells — verified by PoolStats."""
        specs = self._grid()
        # Simulate the kill: only half the sweep made it into the store.
        interrupted = ExperimentPool(store=tmp_path / "s.sqlite")
        interrupted.run(specs[: len(specs) // 2])
        assert interrupted.stats.executed == len(specs) // 2

        resumed = ExperimentPool(store=tmp_path / "s.sqlite")
        results = resumed.run(specs)
        assert resumed.stats.cache_hits == len(specs) // 2
        assert resumed.stats.executed == len(specs) - len(specs) // 2
        assert len(results) == len(specs)

        # Third pass: everything is served, nothing executes.
        warm = ExperimentPool(store=tmp_path / "s.sqlite")
        assert warm.run(specs) == results
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(specs)

    def test_parallel_failure_keeps_completed_cells(
        self, tmp_path, failing_engine
    ):
        """An erroring parallel sweep still commits finished cells."""
        good = [RunSpec(**QUICK), RunSpec(**{**QUICK, "seed": 9})]
        bad = RunSpec(**{**QUICK, "engine": failing_engine})
        pool = ExperimentPool(workers=2, store=tmp_path / "s.sqlite")
        with pytest.raises(RuntimeError, match="fails on purpose"):
            pool.run([good[0], bad, good[1]])

        resumed = ExperimentPool(workers=2, store=tmp_path / "s.sqlite")
        resumed.run(good)
        assert resumed.stats.executed == 0
        assert resumed.stats.cache_hits == len(good)

    def test_engine_isolation_meso_counts_never_served_meso(self, tmp_path):
        """A stored ``meso`` result must never satisfy a ``meso-counts``
        spec (or vice versa): the engines report different metric modes,
        so serving one for the other would silently mislabel results.
        (Ported from the JSON-cache regression test.)"""
        meso_spec = RunSpec(**QUICK)
        counts_spec = RunSpec(**{**QUICK, "engine": "meso-counts"})
        pool = ExperimentPool(store=tmp_path / "s.sqlite")
        meso_result = pool.run_one(meso_spec)
        counts_result = pool.run_one(counts_spec)
        assert pool.stats.executed == 2  # second run was NOT a store hit
        assert pool.stats.cache_hits == 0
        assert meso_result.summary.delay_mode == "per-vehicle"
        assert counts_result.summary.delay_mode == "aggregate"
        # Same seed, same dynamics: the trajectories agree even though
        # the store rightly keeps the cells separate.
        assert (
            counts_result.summary.vehicles_left
            == meso_result.summary.vehicles_left
        )
        # Warm re-reads resolve each spec to its own entry.
        warm = ExperimentPool(store=tmp_path / "s.sqlite")
        assert warm.run_one(meso_spec).summary.delay_mode == "per-vehicle"
        assert warm.run_one(counts_spec).summary.delay_mode == "aggregate"
        assert warm.stats.cache_hits == 2
        assert warm.stats.executed == 0

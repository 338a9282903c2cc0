"""The deprecated ``run_fleet``: one pool run that still fills its report.

``run_fleet`` warns, runs the grid on one ``ExperimentPool`` writing
the given store, and counts the cells per shard of the same
spec-hash partition ``repro sweep --shard`` uses.
"""

import pytest

from repro.orchestration import ExperimentPool, SweepGrid, run_fleet
from repro.orchestration.spec import shard_index_of
from repro.results import ResultStore


def tiny_grid() -> SweepGrid:
    return SweepGrid(
        scenarios=("steady-3x3",), seeds=(1, 2, 3, 4), durations=(60.0,)
    )


def fleet(*args, **kwargs):
    with pytest.warns(DeprecationWarning, match="2026-12-01"):
        return run_fleet(*args, **kwargs)


class TestRunFleet:
    def test_matches_serial_run(self, tmp_path):
        grid = tiny_grid()
        serial = ResultStore(tmp_path / "serial.sqlite")
        ExperimentPool(store=serial).run(grid.specs())

        report = fleet(grid, 2, tmp_path / "fleet.sqlite")
        assert report.shard_count == 2
        assert report.cells == len(grid)
        assert report.executed == len(grid)
        assert report.merged_rows == len(grid)
        for shard in report.shards:
            assert shard.cells == len(grid.shard(shard.index, 2))
            assert shard.executed == shard.cells

        merged = ResultStore(tmp_path / "fleet.sqlite")
        assert merged.export_rows() == serial.export_rows()

    def test_rerun_is_served_from_the_store(self, tmp_path):
        grid = tiny_grid()
        store = tmp_path / "fleet.sqlite"
        first = fleet(grid, 2, store, keep_shard_stores=True)
        assert first.executed == len(grid)
        second = fleet(grid, 2, store, keep_shard_stores=True)
        assert second.executed == 0
        assert second.cache_hits == len(grid)
        assert second.identical_rows == len(grid)

    def test_more_shards_than_cells(self, tmp_path):
        grid = tiny_grid()
        shards = len(grid) + 3
        report = fleet(grid, shards, tmp_path / "fleet.sqlite")
        assert report.cells == len(grid)
        assert sum(s.cells == 0 for s in report.shards) >= 3
        owners = sorted(shard_index_of(spec, shards) for spec in grid.specs())
        assert owners == sorted(
            s.index for s in report.shards for _ in range(s.cells)
        )
        assert len(ResultStore(tmp_path / "fleet.sqlite")) == len(grid)

    def test_invalid_shard_count_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            fleet(tiny_grid(), 0, tmp_path / "fleet.sqlite")

    def test_warning_names_the_ignored_arguments(self, tmp_path):
        with pytest.warns(DeprecationWarning) as record:
            run_fleet(tiny_grid(), 1, tmp_path / "fleet.sqlite")
        message = str(record[0].message)
        for name in ("shard_dir", "keep_shard_stores", "prefer", "repro 1.2"):
            assert name in message

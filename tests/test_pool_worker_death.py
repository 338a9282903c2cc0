"""A pool worker that dies: finished cells stay, lost cells re-run once.

The faults are injected by replacing
``repro.orchestration.pool._execute_payload`` with a module-level
function of this file: fork-started workers inherit the patched module
and unpickle the function by name, so ``os._exit`` really kills a
worker process mid-sweep.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main
from repro.orchestration import ExperimentPool, SweepGrid
from repro.orchestration import pool as pool_module
from repro.orchestration.pool import WorkerDiedError
from repro.results import ResultStore

_REAL_EXECUTE = pool_module._execute_payload

#: Marker file for :func:`_die_once_on_seed_2` (set per test).
_MARKER_ENV = "REPRO_TEST_DIE_ONCE_MARKER"

SWEEP = [
    "sweep", "--patterns", "II", "--engine", "meso-counts",
    "--duration", "60", "--seeds", "1", "2", "3", "4", "--workers", "2",
]


def _die_on_seed_2(spec):
    """Kill the worker every time it runs seed 2."""
    if spec.seed == 2:
        os._exit(1)
    return _REAL_EXECUTE(spec)


def _die_once_on_seed_2(spec):
    """Kill the worker the first time it runs seed 2 only."""
    marker = os.environ[_MARKER_ENV]
    if spec.seed == 2 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return _REAL_EXECUTE(spec)


@pytest.fixture
def fork_workers():
    """These faults reach workers only when they are forked."""
    import multiprocessing

    if multiprocessing.get_start_method(allow_none=False) != "fork":
        pytest.skip("fault injection by monkeypatch needs fork workers")


def test_second_death_is_one_line_and_keeps_the_other_cells(
    tmp_path, monkeypatch, capsys, fork_workers
):
    monkeypatch.setattr(pool_module, "_execute_payload", _die_on_seed_2)
    store = tmp_path / "results.sqlite"
    code = main([*SWEEP, "--store", str(store)])
    captured = capsys.readouterr()
    assert code not in (0, 2)
    assert code == WorkerDiedError.exit_status
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("repro sweep: a worker process died twice")
    assert "II/util-bp/meso-counts/seed2" in lines[0]
    with ResultStore.reader(store) as reader:
        assert sorted(record.spec.seed for record in reader.query()) == [1, 3, 4]


def test_one_death_is_recovered(tmp_path, monkeypatch, capsys, fork_workers):
    monkeypatch.setenv(_MARKER_ENV, str(tmp_path / "died"))
    monkeypatch.setattr(pool_module, "_execute_payload", _die_once_on_seed_2)
    store = tmp_path / "results.sqlite"
    assert main([*SWEEP, "--store", str(store)]) == 0
    assert (tmp_path / "died").exists()
    assert "executed 4, cache hits 0, workers 2" in capsys.readouterr().out
    with ResultStore.reader(store) as reader:
        assert len(reader) == 4


def test_recovered_results_match_an_undisturbed_run(
    tmp_path, monkeypatch, fork_workers
):
    grid = SweepGrid(
        patterns=("II",), engines=("meso-counts",), seeds=(1, 2, 3, 4),
        durations=(60.0,),
    )
    expected = ExperimentPool(workers=1).run(grid.specs())
    monkeypatch.setenv(_MARKER_ENV, str(tmp_path / "died"))
    monkeypatch.setattr(pool_module, "_execute_payload", _die_once_on_seed_2)
    pool = ExperimentPool(workers=2)
    assert pool.run(grid.specs()) == expected
    assert pool.stats.executed == 4


def test_a_death_loses_only_the_units_in_flight(
    tmp_path, monkeypatch, fork_workers
):
    grid = SweepGrid(
        patterns=("II",), engines=("meso-counts",), seeds=tuple(range(1, 9)),
        durations=(60.0,),
    )
    monkeypatch.setenv(_MARKER_ENV, str(tmp_path / "died"))
    monkeypatch.setattr(pool_module, "_execute_payload", _die_once_on_seed_2)
    rerun = []
    real_rerun = ExperimentPool._rerun_lost

    def record_rerun(self, units, *args):
        rerun.extend(units)
        return real_rerun(self, units, *args)

    monkeypatch.setattr(ExperimentPool, "_rerun_lost", record_rerun)
    pool = ExperimentPool(workers=2)
    pool.run(grid.specs())
    assert pool.stats.executed == 8
    assert 1 <= len(rerun) <= 2
    assert any(unit.seed == 2 for unit in rerun)

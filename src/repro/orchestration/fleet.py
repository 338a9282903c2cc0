"""Deprecated: ``run_fleet`` runs the grid on one worker pool.

The fleet used to run each grid shard in its own subprocess against
its own scratch store and merge the stores afterwards.  On one host a
single :class:`~repro.orchestration.pool.ExperimentPool` with as many
workers was faster and leaves the same rows, so that is what
:func:`run_fleet` now does.  Across hosts, run ``repro sweep --shard
i/N --store shard-i.sqlite`` on each and ``repro results merge`` the
stores.

``run_fleet``, :class:`FleetReport` and :class:`ShardOutcome` stay
importable, with a :class:`DeprecationWarning`, until repro 1.2 (no
earlier than 2026-12-01).
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.orchestration.pool import ExperimentPool
from repro.orchestration.spec import SweepGrid, shard_index_of

__all__ = ["FleetReport", "ShardOutcome", "run_fleet"]


@dataclass
class ShardOutcome:
    """The cells of one shard of the grid and how the pool served them."""

    index: int
    store: str
    cells: int
    executed: int = 0
    cache_hits: int = 0
    duration_s: float = 0.0


@dataclass
class FleetReport:
    """What a :func:`run_fleet` call did, shard by shard."""

    store: str
    shard_count: int
    shards: List[ShardOutcome] = field(default_factory=list)
    merged_rows: int = 0
    identical_rows: int = 0
    wall_time_s: float = 0.0

    @property
    def cells(self) -> int:
        """Total grid cells across all shards."""
        return sum(shard.cells for shard in self.shards)

    @property
    def executed(self) -> int:
        """Cells actually simulated (not served from the store)."""
        return sum(shard.executed for shard in self.shards)

    @property
    def cache_hits(self) -> int:
        """Cells served from the store without simulating."""
        return sum(shard.cache_hits for shard in self.shards)


def run_fleet(
    grid: SweepGrid,
    shards: int,
    store: Union[str, os.PathLike],
    workers_per_shard: int = 1,
    batch_size: int = 16,
    shard_dir: Optional[Union[str, os.PathLike]] = None,
    keep_shard_stores: bool = False,
    prefer: Optional[str] = None,
) -> FleetReport:
    """Deprecated: run ``grid`` on one ``ExperimentPool`` writing ``store``.

    The pool has ``shards * workers_per_shard`` workers.  The report
    still counts cells per shard (by :func:`shard_index_of`);
    ``merged_rows`` are the cells executed into ``store`` and
    ``identical_rows`` the ones it already held.  ``shard_dir``,
    ``keep_shard_stores`` and ``prefer`` are accepted and ignored:
    there are no shard stores to keep or merge.
    """
    warnings.warn(
        "run_fleet is deprecated and will be removed in repro 1.2 (no "
        "earlier than 2026-12-01): it now runs the grid on one "
        "ExperimentPool(workers=shards * workers_per_shard, store=store) "
        "and ignores shard_dir, keep_shard_stores and prefer; use "
        "ExperimentPool directly, or 'repro sweep --shard i/N' per host "
        "plus 'repro results merge'",
        DeprecationWarning,
        stacklevel=2,
    )
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    started = time.perf_counter()
    report = FleetReport(store=str(store), shard_count=shards)
    report.shards = [
        ShardOutcome(index=index, store=str(store), cells=0)
        for index in range(shards)
    ]
    specs = grid.specs()
    for spec in specs:
        report.shards[shard_index_of(spec, shards)].cells += 1

    def count(spec, result, source) -> None:
        outcome = report.shards[shard_index_of(spec, shards)]
        if source == "store":
            outcome.cache_hits += 1
        else:
            outcome.executed += 1

    pool = ExperimentPool(
        workers=shards * workers_per_shard, store=store, batch_size=batch_size
    )
    pool.run(specs, on_cell=count)
    report.merged_rows = pool.stats.executed
    report.identical_rows = pool.stats.cache_hits
    report.wall_time_s = time.perf_counter() - started
    return report

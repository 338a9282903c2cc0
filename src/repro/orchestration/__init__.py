"""Parallel sweep orchestration.

The layer between the closed-loop runner and the experiment drivers:

* :mod:`repro.orchestration.spec` — :class:`RunSpec` (one hashable,
  serializable simulation cell) and :class:`SweepGrid` (cartesian
  expansion of sweep axes, partitionable into deterministic shards via
  :meth:`SweepGrid.shard`);
* :mod:`repro.orchestration.pool` — :class:`ExperimentPool`, the
  process-parallel executor; give it a
  :class:`~repro.results.store.ResultStore` (or a path to one) and
  every completed cell is committed incrementally, making sweeps
  resumable and shareable across drivers;
* :mod:`repro.orchestration.fleet` — :func:`run_fleet`, the local
  fleet runner: one subprocess + store file per shard, auto-merged
  into the canonical store when every shard finishes.

Every table/figure driver runs through
:func:`repro.results.experiment.run_experiment` on this layer, and
``repro sweep --workers N --store FILE`` (plus ``--shard i/N`` /
``--fleet N``) exposes it on the command line.
"""

from repro.orchestration.fleet import FleetReport, ShardOutcome, run_fleet
from repro.orchestration.pool import ExperimentPool, PoolStats
from repro.orchestration.spec import (
    SPEC_SCHEMA_VERSION,
    BatchRunSpec,
    RunSpec,
    SweepGrid,
    parse_shard,
    shard_index_of,
)

__all__ = [
    "RunSpec",
    "BatchRunSpec",
    "SweepGrid",
    "ExperimentPool",
    "PoolStats",
    "FleetReport",
    "ShardOutcome",
    "run_fleet",
    "parse_shard",
    "shard_index_of",
    "SPEC_SCHEMA_VERSION",
]

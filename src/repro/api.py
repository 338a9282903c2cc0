"""The versioned public API façade.

This module is the **only supported import surface** for downstream
code.  Everything re-exported here — and nothing else — is covered by
the compatibility promise tracked by :data:`API_VERSION`; internal
modules may move between releases, but ``from repro.api import X``
keeps working (deprecated names go through a warning cycle first, like
``repro.experiments.scenario`` did).

:data:`API_VERSION` follows ``major.minor``:

* **major** bumps when a name is removed or its call signature
  changes incompatibly;
* **minor** bumps when names are added.

The simulation service embeds ``API_VERSION`` as ``api_version`` in
every HTTP response envelope, so remote clients can detect drift the
same way importers do.

API 2.0 removed the deprecated second way of naming a result store:
the cache directory keyword of :class:`ExperimentPool`, and the legacy
JSON import keyword, the directory constructor and the ``imported``
counter of :class:`ResultStore` are gone, and with them the one-time
import of legacy per-spec JSON cache directories.  Pass ``store=`` a
:class:`ResultStore` or the path of its SQLite file instead.

API 2.1 added :class:`ReproError`, the base of every user error
(:class:`MergeError` and ``ServiceError`` included), and its
:class:`UsageError` (also a ``ValueError``).

Layout of the surface:

* errors — :class:`ReproError`, :class:`UsageError`;
* scenarios — :class:`Scenario`, :func:`build_scenario`,
  :func:`build_named_scenario`, :func:`scenario_names`;
* running — :class:`RunConfig`, :class:`RunResult`,
  :func:`run_scenario`, :func:`run_scenario_batch`;
* specs & sweeps — :class:`RunSpec`, :class:`BatchRunSpec`,
  :class:`SweepGrid`, :data:`SPEC_SCHEMA_VERSION`,
  :func:`parse_shard`, :func:`shard_index_of`;
* orchestration — :class:`ExperimentPool`, :class:`PoolStats`, and
  the deprecated :func:`run_fleet`, :class:`FleetReport`,
  :class:`ShardOutcome` (one pool run with a
  :class:`DeprecationWarning`; removed in repro 1.2, no earlier than
  2026-12-01);
* results — :class:`ResultStore`, :class:`StoredRecord`,
  :class:`MergeStats`, :class:`MergeError`,
  :func:`aggregate`, :func:`tidy_table`, :class:`MetricStats`;
* analysis — :class:`AnalysisOptions`, :class:`StabilityVerdict`,
  :func:`analyze_records`, :func:`analyze_store`,
  :func:`breakdown_frontier`, :func:`verdict_rows`,
  :func:`detect_changepoint`, :func:`detect_changepoints`,
  :func:`cusum_scan`, :func:`permutation_threshold`,
  :func:`onset_interval`;
* service — :func:`serve`, :func:`create_app`,
  :class:`ServiceClient` (imported lazily so ``repro.api`` stays
  cheap and the service layer can import :data:`API_VERSION` from
  here without a cycle);
* logging — :func:`get_logger`, :func:`log_context`,
  :func:`configure_logging`.
"""

from __future__ import annotations

from typing import Any

from repro.analysis import (
    AnalysisOptions,
    Changepoint,
    CusumScan,
    StabilityVerdict,
    analyze_records,
    analyze_store,
    breakdown_frontier,
    cusum_scan,
    detect_changepoint,
    detect_changepoints,
    onset_interval,
    permutation_threshold,
    verdict_rows,
)
from repro.errors import ReproError, UsageError
from repro.experiments.runner import (
    RunConfig,
    RunResult,
    run_scenario,
    run_scenario_batch,
)
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
from repro.results.aggregate import MetricStats, aggregate, tidy_table
from repro.results.store import (
    MergeError,
    MergeStats,
    ResultStore,
    StoredRecord,
)
from repro.scenarios import (
    Scenario,
    build_named_scenario,
    build_scenario,
    scenario_names,
)
from repro.util.logging import configure as configure_logging
from repro.util.logging import get_logger, log_context

#: The public API schema version (``major.minor``); embedded in every
#: service response envelope as ``api_version``.
API_VERSION = "2.1"


def package_version() -> str:
    """The installed package version (distinct from :data:`API_VERSION`).

    Resolved from installed-distribution metadata when the package is
    installed, falling back to ``repro.__version__`` for source-tree
    (``PYTHONPATH=src``) use.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        import repro

        return repro.__version__


__all__ = [
    "API_VERSION",
    "package_version",
    # errors
    "ReproError",
    "UsageError",
    # scenarios
    "Scenario",
    "build_scenario",
    "build_named_scenario",
    "scenario_names",
    # running
    "RunConfig",
    "RunResult",
    "run_scenario",
    "run_scenario_batch",
    # specs & sweeps
    "RunSpec",
    "BatchRunSpec",
    "SweepGrid",
    "SPEC_SCHEMA_VERSION",
    "parse_shard",
    "shard_index_of",
    # orchestration
    "ExperimentPool",
    "PoolStats",
    "run_fleet",
    "FleetReport",
    "ShardOutcome",
    # results
    "ResultStore",
    "StoredRecord",
    "MergeStats",
    "MergeError",
    "aggregate",
    "tidy_table",
    "MetricStats",
    # analysis
    "AnalysisOptions",
    "Changepoint",
    "CusumScan",
    "StabilityVerdict",
    "analyze_records",
    "analyze_store",
    "breakdown_frontier",
    "cusum_scan",
    "detect_changepoint",
    "detect_changepoints",
    "onset_interval",
    "permutation_threshold",
    "verdict_rows",
    # service (lazy wrappers)
    "serve",
    "create_app",
    "ServiceClient",
    # logging
    "get_logger",
    "log_context",
    "configure_logging",
]


# The service wrappers import repro.service lazily: repro.service.app
# imports API_VERSION from this module at import time, so importing it
# at the top here would be a cycle — and most repro.api users never
# touch the service at all.


def serve(
    store: str = "results.sqlite",
    host: str = "127.0.0.1",
    port: int = 8000,
    workers: int = 1,
    batch_size: int = 16,
) -> None:
    """Run the simulation service (blocking); see :mod:`repro.service`."""
    from repro.service.app import serve as _serve

    _serve(
        store=store,
        host=host,
        port=port,
        workers=workers,
        batch_size=batch_size,
    )


def create_app(store: str, **kwargs: Any):
    """Build a (not yet started) :class:`repro.service.app.ServiceApp`."""
    from repro.service.app import ServiceApp

    return ServiceApp(store, **kwargs)


def ServiceClient(base_url: str, timeout: float = 30.0):
    """Construct a :class:`repro.service.client.ServiceClient`."""
    from repro.service.client import ServiceClient as _ServiceClient

    return _ServiceClient(base_url, timeout=timeout)

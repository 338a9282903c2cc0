"""The results subsystem: store, aggregate, declare.

Map of the package
------------------
* :mod:`repro.results.store` — **where results live.**
  :class:`ResultStore`: a single SQLite file keyed by spec content
  hash, with indexed spec-axis columns (pattern / controller / engine /
  seed / duration) and JSON payload columns using the existing
  ``to_dict`` round-trips.  ``put`` / ``get`` / ``contains`` /
  ``query`` and crash-safe per-entry commits.  The
  :class:`~repro.orchestration.pool.ExperimentPool` consults a store
  before executing, which is what makes every sweep resumable: kill it
  mid-flight, re-run it, and only the missing cells compute.

* :mod:`repro.results.aggregate` — **how results reduce.**
  :func:`aggregate`: group-by over any spec axes with mean / sample
  std / 95 % CI across the remaining ones (typically seeds), explicit
  ``delay_mode`` handling so per-vehicle and Little's-law travel-time
  estimates are never silently averaged together
  (:class:`MixedDelayModeError` / ``on_mixed_delay_mode="split"``), and
  tidy row output feeding :func:`repro.util.tables.render_table` or CSV
  export.

* :mod:`repro.results.experiment` — **how experiments are declared.**
  :class:`ExperimentDefinition` (name, specs builder, aggregation
  recipe, renderer) and its registry.  All six paper drivers (table3,
  fig2, fig34, fig5, ablations, stability) are definitions;
  :func:`run_experiment` executes any of them against a shared pool and
  store, so cells common to several drivers are computed exactly once.

Command-line surface: ``repro sweep --store`` fills a
store, ``repro results {list,show,export}`` inspects one, and
``scripts/collect_results.py --store`` runs every driver against the
same file.
"""

from repro.results.aggregate import (
    AXES,
    DEFAULT_METRICS,
    DELAY_MODE_SENSITIVE,
    MetricStats,
    MixedDelayModeError,
    aggregate,
    tidy_table,
)
from repro.results.experiment import (
    ExperimentDefinition,
    experiment_names,
    get_experiment,
    load_builtin_experiments,
    register_experiment,
    run_experiment,
)
from repro.results.store import (
    MergeError,
    MergeStats,
    ResultStore,
    StoredRecord,
)

__all__ = [
    "ResultStore",
    "StoredRecord",
    "MergeError",
    "MergeStats",
    "aggregate",
    "tidy_table",
    "MetricStats",
    "MixedDelayModeError",
    "AXES",
    "DEFAULT_METRICS",
    "DELAY_MODE_SENSITIVE",
    "ExperimentDefinition",
    "register_experiment",
    "experiment_names",
    "get_experiment",
    "run_experiment",
    "load_builtin_experiments",
]

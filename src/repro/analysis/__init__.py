"""Regime-shift analytics over stored simulation results.

Sweeps produce mass replications; this package turns their
recorded queue-length series into *detected* quantities:

- :mod:`repro.analysis.changepoint` — the statistics: standardized
  CUSUM scan, circular-block-permutation threshold calibration,
  penalized single/multiple changepoint localization, and the
  distribution-free order-statistic confidence interval for the onset
  time across seeds.
- :mod:`repro.analysis.stability` — the verdicts: per (workload,
  controller, load) cell, ``stable`` / ``breakdown@t* [CI lo, hi]`` /
  ``insufficient-data``, computed from any :class:`ResultStore`
  (including stores merged from shards), plus the
  ``stability-regimes`` experiment mapping the breakdown-load frontier
  per controller.
- :mod:`repro.analysis.options` — :class:`AnalysisOptions`, the
  detector's knobs, and ``ANALYSIS_PARAMS``, the flags and query
  parameters that set them.

Surfaces: ``repro analyze changepoints`` (CLI), ``GET
/results/changepoints`` (service), and the :mod:`repro.api` facade.
All detection is deterministic — seeded permutations, no wall-clock —
so verdicts are byte-stable across hosts.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Each public name and the submodule that defines it.  A name is
#: imported on first access, so that :mod:`repro.analysis.options` (the
#: CLI's detector flags) loads without the detector and the result store.
_EXPORTS = {
    "AnalysisOptions": "options",
    "Changepoint": "changepoint",
    "CusumScan": "changepoint",
    "StabilityVerdict": "stability",
    "analyze_records": "stability",
    "analyze_store": "stability",
    "breakdown_frontier": "stability",
    "cusum_scan": "changepoint",
    "detect_changepoint": "changepoint",
    "detect_changepoints": "changepoint",
    "estimate_sigma": "changepoint",
    "onset_interval": "changepoint",
    "permutation_threshold": "changepoint",
    "queue_total_series": "stability",
    "render_verdicts": "stability",
    "verdict_rows": "stability",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    """Import a public name from its submodule on first access."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)

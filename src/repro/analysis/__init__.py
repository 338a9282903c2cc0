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
  (including stores merged from shards), plus the registered
  ``stability-regimes`` experiment mapping the breakdown-load frontier
  per controller.

Surfaces: ``repro analyze changepoints`` (CLI), ``GET
/results/changepoints`` (service), and the :mod:`repro.api` facade.
All detection is deterministic — seeded permutations, no wall-clock —
so verdicts are byte-stable across hosts.
"""

from __future__ import annotations

from repro.analysis.changepoint import (
    Changepoint,
    CusumScan,
    cusum_scan,
    detect_changepoint,
    detect_changepoints,
    estimate_sigma,
    onset_interval,
    permutation_threshold,
)
from repro.analysis.stability import (
    AnalysisOptions,
    StabilityVerdict,
    analyze_records,
    analyze_store,
    breakdown_frontier,
    queue_total_series,
    render_verdicts,
    verdict_rows,
)

__all__ = [
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
    "estimate_sigma",
    "onset_interval",
    "permutation_threshold",
    "queue_total_series",
    "render_verdicts",
    "verdict_rows",
]

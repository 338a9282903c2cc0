"""Stability verdicts: detected regime shifts per sweep cell.

The stability experiments ask "did the network stabilize?"; this
module turns that from an eyeball judgment over scalar end-of-run
proxies into a *detected* quantity.  For every stored run that
recorded queue traces (``RunSpec.record_queues`` /
``SweepGrid.record_entry_queues``) the per-road entry-queue series are
summed into one network pressure series, the warm-up transient is
discarded, and the CUSUM detector of
:mod:`repro.analysis.changepoint` is asked for a significant *upward*
mean shift.  A run counts as broken down only when the shift is both
statistically significant (block-permutation calibrated) and
practically large (at least
:attr:`AnalysisOptions.min_shift_per_series` vehicles per summed
series) — the effect-size floor keeps a slow drift toward a busy but
bounded equilibrium from being flagged.

Runs are grouped into (workload, controller, load) cells; the cell's
:class:`StabilityVerdict` is ``breakdown`` when a strict majority of
its analyzed runs flag, with the onset ``t*`` as the median across
flagged seeds and a distribution-free order-statistic confidence
interval around it (:func:`repro.analysis.changepoint.onset_interval`).
Cells whose runs carry no usable traces come back ``insufficient-data``
instead of raising, so the analyzer can be pointed at any store.

The ``stability-regimes`` :class:`ExperimentDefinition` sweeps
(controller x load) with entry-queue recording switched on and maps
the breakdown-load frontier per controller
(:func:`breakdown_frontier`) — the paper's stability region, detected
rather than eyeballed.

Determinism: grouping is sorted, the detector's permutation seed is
fixed in :class:`AnalysisOptions`, and nothing reads a clock — the
same store yields byte-identical verdicts on any host.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.changepoint import (
    cusum_scan,
    onset_interval,
    permutation_threshold,
)
from repro.errors import UsageError
from repro.orchestration.spec import params_label
from repro.results.aggregate import spec_and_result
from repro.results.experiment import (
    ExperimentDefinition,
    register_experiment,
)
from repro.util.series import TimeSeries
from repro.util.tables import render_table

__all__ = [
    "ANALYSIS_PARAMS",
    "AnalysisOptions",
    "StabilityVerdict",
    "STABILITY_REGIMES",
    "analyze_records",
    "analyze_store",
    "breakdown_frontier",
    "queue_total_series",
    "render_verdicts",
    "verdict_rows",
]

#: Statuses a verdict can carry.
STATUS_STABLE = "stable"
STATUS_BREAKDOWN = "breakdown"
STATUS_INSUFFICIENT = "insufficient-data"


@dataclass(frozen=True)
class AnalysisOptions:
    """Tuning knobs of the stability detector (defaults are sane).

    The defaults were calibrated on the catalog's gridlock (1.6x
    overload) vs steady workloads: gridlock's summed entry queues show
    shifts of 35+ vehicles at 900 s while steady's warm-up drift stays
    under ~20 across 12 entries — the per-series effect-size floor of
    2 vehicles separates the two with margin on either side.
    """

    #: Leading fraction of the horizon discarded before detection (the
    #: network filling from empty is itself a mean shift).
    warmup_fraction: float = 0.25
    #: Fewest post-warm-up samples a run needs to be analyzed.
    min_points: int = 20
    #: Effect-size floor: the upward shift must reach this many
    #: vehicles *per summed series* to count as a breakdown.
    min_shift_per_series: float = 2.0
    #: Null quantile of the permutation calibration.
    quantile: float = 0.95
    #: Permutation draws per series (odd keeps quantiles exact).
    n_permutations: int = 199
    #: Circular block length of the permutation null (samples).
    block_length: int = 12
    #: RNG seed of the permutation draws (fixed => deterministic).
    seed: int = 0
    #: Coverage of the onset confidence interval across seeds.
    confidence: float = 0.95

    def __post_init__(self) -> None:
        for name, valid, rule in (
            ("warmup_fraction", 0.0 <= self.warmup_fraction < 1.0, "in [0, 1)"),
            ("min_points", self.min_points >= 2, ">= 2"),
            ("min_shift_per_series", self.min_shift_per_series >= 0.0, ">= 0"),
            ("n_permutations", self.n_permutations >= 1, ">= 1"),
            ("quantile", 0.0 < self.quantile < 1.0, "in (0, 1)"),
            ("confidence", 0.0 < self.confidence < 1.0, "in (0, 1)"),
        ):
            if not valid:
                raise UsageError(
                    f"{name} must be {rule}, got {getattr(self, name)}"
                )


#: ``(parameter, AnalysisOptions field, type, help)``: the
#: ``repro analyze changepoints --<parameter>`` flag (whose default is
#: the field's) and the ``GET /results/changepoints?<parameter>=`` query
#: set the same field.
ANALYSIS_PARAMS = (
    ("warmup_fraction", "warmup_fraction", float,
     "leading fraction of each series discarded"),
    ("min_points", "min_points", int,
     "fewest post-warm-up samples a run needs"),
    ("min_shift", "min_shift_per_series", float,
     "breakdown effect-size floor in vehicles per recorded series"),
    ("quantile", "quantile", float, "permutation-null detection quantile"),
    ("permutations", "n_permutations", int, "permutation draws per series"),
    ("block", "block_length", int,
     "circular block length of the permutation null"),
    ("perm_seed", "seed", int,
     "permutation RNG seed; fixed = deterministic"),
    ("confidence", "confidence", float, "onset confidence-interval coverage"),
)


@dataclass(frozen=True)
class StabilityVerdict:
    """The detected stability status of one (workload, controller, load) cell."""

    pattern: str
    controller: str
    controller_params: str
    engine: str
    delay_mode: str
    load: Optional[float]
    status: str
    #: Runs (seeds) in the cell / runs with analyzable traces / runs
    #: whose series flagged a significant upward shift.
    n_runs: int
    n_analyzed: int
    n_flagged: int
    #: Median detected onset time across flagged seeds (breakdown only).
    onset: Optional[float] = None
    #: Distribution-free CI for the median onset (breakdown only).
    onset_lo: Optional[float] = None
    onset_hi: Optional[float] = None
    #: Median upward mean shift (vehicles) across flagged seeds.
    mean_shift: Optional[float] = None

    def label(self) -> str:
        """Human-readable verdict: ``breakdown@t* [lo, hi]`` or status."""
        if self.status != STATUS_BREAKDOWN or self.onset is None:
            return self.status
        text = f"breakdown@{self.onset:.0f}s"
        if self.onset_lo is not None and self.onset_hi is not None:
            text += f" [{self.onset_lo:.0f}, {self.onset_hi:.0f}]"
        return text

    def to_row(self) -> Dict[str, Any]:
        """One tidy plain-JSON row (CSV/JSON export + service payload)."""
        return {
            "pattern": self.pattern,
            "controller": self.controller,
            "controller_params": self.controller_params,
            "engine": self.engine,
            "delay_mode": self.delay_mode,
            "load": self.load,
            "status": self.status,
            "verdict": self.label(),
            "n_runs": self.n_runs,
            "n_analyzed": self.n_analyzed,
            "n_flagged": self.n_flagged,
            "onset": self.onset,
            "onset_lo": self.onset_lo,
            "onset_hi": self.onset_hi,
            "mean_shift": self.mean_shift,
        }


def queue_total_series(result: Any) -> Optional[TimeSeries]:
    """Sum a run's recorded queue traces into one pressure series.

    Individual approaches break down unevenly (one entry gridlocks
    while its neighbour still drains), so the robust per-run signal is
    the *total* queued count across everything the run recorded.  All
    traces sample on the shared fixed grid; ragged lengths (an engine
    cut short) are truncated to the shortest.  Returns ``None`` when
    the run recorded no traces or no samples.
    """
    traces = getattr(result, "queue_traces", None)
    if not traces:
        return None
    series_list = [trace.series for trace in traces.values()]
    length = min(len(s) for s in series_list)
    if length == 0:
        return None
    total = TimeSeries("entry-queue-total")
    times = series_list[0].times
    for i in range(length):
        total.append(times[i], sum(s.values[i] for s in series_list))
    return total


@dataclass(frozen=True)
class _RunDetection:
    """Internal per-run outcome feeding a cell verdict."""

    status: str
    onset: Optional[float] = None
    shift: Optional[float] = None


def _analyze_run(
    series: Optional[TimeSeries], n_series: int, options: AnalysisOptions
) -> _RunDetection:
    """Classify one run's summed series as stable/breakdown/insufficient."""
    if series is None:
        return _RunDetection(STATUS_INSUFFICIENT)
    skip = int(len(series) * options.warmup_fraction)
    values = series.values[skip:]
    times = series.times[skip:]
    if len(values) < options.min_points:
        return _RunDetection(STATUS_INSUFFICIENT)
    scan = cusum_scan(values)
    if scan.degenerate:
        # Constant series (all-zero traces included): nothing moved,
        # which is the definition of stable.
        return _RunDetection(STATUS_STABLE)
    threshold = permutation_threshold(
        values,
        n_permutations=options.n_permutations,
        quantile=options.quantile,
        block_length=options.block_length,
        seed=options.seed,
    )
    if scan.statistic < threshold:
        return _RunDetection(STATUS_STABLE)
    before = values[: scan.index + 1]
    after = values[scan.index + 1 :]
    shift = (sum(after) / len(after)) - (sum(before) / len(before))
    if shift < options.min_shift_per_series * max(n_series, 1):
        # Statistically visible but practically small: a drift toward
        # a busier bounded equilibrium, not a breakdown.
        return _RunDetection(STATUS_STABLE, shift=shift)
    return _RunDetection(
        STATUS_BREAKDOWN, onset=float(times[scan.index]), shift=shift
    )


def _load_of(spec: Any) -> Optional[float]:
    """The cell's demand level from its scenario parameters, if any."""
    params = dict(spec.scenario_params)
    for key in ("demand_scale", "load"):
        value = params.get(key)
        if value is not None:
            return float(value)
    return None


def analyze_records(
    records: Iterable[Any],
    options: Optional[AnalysisOptions] = None,
) -> List[StabilityVerdict]:
    """Detect regime shifts across stored cells, one verdict per cell.

    ``records`` are :class:`~repro.results.store.StoredRecord` s or
    plain ``(spec, result)`` pairs — ``store.query(...)`` output, or
    ``zip(specs, pool.run(specs))``.  Cells group by (pattern,
    controller+params, engine, delay-mode, load); seeds within a cell
    are the replications the verdict aggregates over.  Output is
    sorted by group key and deterministic for a given input.
    """
    options = options or AnalysisOptions()
    groups: Dict[Tuple, List[Tuple[Any, Any]]] = {}
    for record in records:
        spec, result = spec_and_result(record)
        key = (
            spec.pattern,
            spec.controller,
            params_label(spec.controller_params),
            spec.engine,
            result.summary.delay_mode,
            _load_of(spec),
        )
        groups.setdefault(key, []).append((spec, result))

    verdicts: List[StabilityVerdict] = []
    for key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
        pattern, controller, params, engine, delay_mode, load = key
        members = groups[key]
        detections = []
        for _, result in members:
            series = queue_total_series(result)
            n_series = len(getattr(result, "queue_traces", {}) or {})
            detections.append(_analyze_run(series, n_series, options))
        analyzed = [d for d in detections if d.status != STATUS_INSUFFICIENT]
        flagged = [d for d in analyzed if d.status == STATUS_BREAKDOWN]
        if not analyzed:
            status = STATUS_INSUFFICIENT
        elif 2 * len(flagged) > len(analyzed):
            status = STATUS_BREAKDOWN
        else:
            status = STATUS_STABLE
        onset = onset_lo = onset_hi = mean_shift = None
        if status == STATUS_BREAKDOWN:
            onsets = [d.onset for d in flagged if d.onset is not None]
            onset = float(statistics.median(onsets))
            interval = onset_interval(onsets, confidence=options.confidence)
            if interval is not None:
                onset_lo, onset_hi = interval
            shifts = [d.shift for d in flagged if d.shift is not None]
            if shifts:
                mean_shift = float(statistics.median(shifts))
        verdicts.append(
            StabilityVerdict(
                pattern=pattern,
                controller=controller,
                controller_params=params,
                engine=engine,
                delay_mode=delay_mode,
                load=load,
                status=status,
                n_runs=len(members),
                n_analyzed=len(analyzed),
                n_flagged=len(flagged),
                onset=onset,
                onset_lo=onset_lo,
                onset_hi=onset_hi,
                mean_shift=mean_shift,
            )
        )
    return verdicts


def analyze_store(
    path: str,
    options: Optional[AnalysisOptions] = None,
    **filters: Any,
) -> List[StabilityVerdict]:
    """Open a result store read-only and analyze its (filtered) cells.

    ``filters`` are the store's query axes (``pattern``,
    ``controller``, ``engine``, ``seed``, ``delay_mode``, ...), so a
    merged fleet store can be narrowed to one workload family before
    detection.
    """
    from repro.results.store import ResultStore

    with ResultStore(path, read_only=True) as store:
        records = store.query(**filters)
    return analyze_records(records, options=options)


def verdict_rows(verdicts: Sequence[StabilityVerdict]) -> List[Dict[str, Any]]:
    """Verdicts as tidy plain-JSON rows (the shared export payload).

    The CLI's ``--format json/csv`` export and the service's
    ``GET /results/changepoints`` endpoint both emit exactly this, so
    the two surfaces stay byte-comparable.
    """
    return [verdict.to_row() for verdict in verdicts]


def render_verdicts(verdicts: Sequence[StabilityVerdict]) -> str:
    """ASCII table of verdicts for terminals and smoke logs."""
    rows = [
        (
            v.pattern,
            v.controller,
            v.controller_params,
            v.engine,
            "-" if v.load is None else f"{v.load:.2f}",
            f"{v.n_flagged}/{v.n_analyzed}/{v.n_runs}",
            "-" if v.mean_shift is None else f"{v.mean_shift:.1f}",
            v.label(),
        )
        for v in verdicts
    ]
    return render_table(
        (
            "workload",
            "controller",
            "params",
            "engine",
            "load",
            "flag/ana/run",
            "shift [veh]",
            "verdict",
        ),
        rows,
        title=(
            f"Regime-shift analysis — {len(verdicts)} cells "
            f"(CUSUM, block-permutation calibrated)"
        ),
    )


def breakdown_frontier(
    verdicts: Sequence[StabilityVerdict],
) -> List[Dict[str, Any]]:
    """The breakdown-load frontier per (controller, engine).

    For every controller/engine combination with load-annotated cells,
    reports the largest load still judged stable and the smallest load
    judged breakdown (either may be ``None`` when the sweep never
    crossed the frontier).  Cells without a load axis or without data
    are ignored.
    """
    grouped: Dict[Tuple[str, str, str], List[StabilityVerdict]] = {}
    for verdict in verdicts:
        if verdict.load is None or verdict.status == STATUS_INSUFFICIENT:
            continue
        key = (verdict.controller, verdict.controller_params, verdict.engine)
        grouped.setdefault(key, []).append(verdict)
    rows: List[Dict[str, Any]] = []
    for key in sorted(grouped):
        controller, params, engine = key
        cells = grouped[key]
        stable = [v.load for v in cells if v.status == STATUS_STABLE]
        broken = [v.load for v in cells if v.status == STATUS_BREAKDOWN]
        rows.append(
            {
                "controller": controller,
                "controller_params": params,
                "engine": engine,
                "max_stable_load": max(stable) if stable else None,
                "min_breakdown_load": min(broken) if broken else None,
            }
        )
    return rows


# -- the stability-regimes experiment definition ---------------------------


@dataclass(frozen=True)
class RegimeMap:
    """Verdicts plus the per-controller breakdown frontier."""

    verdicts: Tuple[StabilityVerdict, ...]
    frontier: Tuple[Dict[str, Any], ...]


def _build_regime_specs(
    loads: Sequence[float],
    controllers: Sequence,
    pattern: str,
    seeds: Sequence[int],
    duration: float,
    engine: str,
    record_roads: int,
) -> List[Any]:
    from repro.orchestration.spec import RunSpec, entry_queue_pairs
    from repro.scenarios.patterns import PATTERN_NAMES

    if not loads:
        raise ValueError("need at least one load level")
    # A paper pattern scales its demand with ``demand_scale``; catalog
    # families take ``load``.
    load_key = "demand_scale" if pattern in PATTERN_NAMES else "load"
    # The network shape is load- and seed-independent, so one build
    # resolves the recorded entry roads for every cell.
    reference = RunSpec(pattern=pattern, seed=int(seeds[0])).make_scenario()
    pairs = entry_queue_pairs(reference.network, record_roads)
    return [
        RunSpec(
            pattern=pattern,
            controller=name,
            controller_params=params or {},
            engine=engine,
            seed=int(seed),
            duration=float(duration),
            scenario_params={load_key: float(load)},
            record_queues=pairs,
        )
        for name, params in (
            (entry, None) if isinstance(entry, str) else entry
            for entry in controllers
        )
        for load in loads
        for seed in seeds
    ]


def _collect_regimes(
    specs: Sequence[Any],
    results: Sequence[Any],
    params: Mapping[str, Any],
) -> RegimeMap:
    verdicts = analyze_records(zip(specs, results))
    return RegimeMap(
        verdicts=tuple(verdicts),
        frontier=tuple(breakdown_frontier(verdicts)),
    )


def _render_regimes(regime_map: RegimeMap) -> str:
    lines = [render_verdicts(list(regime_map.verdicts)), ""]
    for row in regime_map.frontier:
        stable = row["max_stable_load"]
        broken = row["min_breakdown_load"]
        lines.append(
            f"{row['controller']}({row['controller_params']})/"
            f"{row['engine']}: max stable load "
            f"{'-' if stable is None else f'{stable:.2f}'}, "
            f"first breakdown at "
            f"{'-' if broken is None else f'{broken:.2f}'}"
        )
    return "\n".join(lines)


STABILITY_REGIMES = register_experiment(
    ExperimentDefinition(
        name="stability-regimes",
        description=(
            "breakdown-load frontier per controller: CUSUM-detected "
            "regime shifts in summed entry-queue series across a "
            "(controller x load x seed) sweep"
        ),
        build_specs=_build_regime_specs,
        collect=_collect_regimes,
        render=lambda regime_map: _render_regimes(regime_map),
        defaults=dict(
            loads=(0.8, 1.2, 1.6),
            controllers=(
                ("util-bp", None),
                ("cap-bp", {"period": 18.0}),
            ),
            pattern="steady-3x3",
            seeds=(1, 2, 3),
            duration=900.0,
            engine="meso-counts",
            record_roads=0,
        ),
    )
)

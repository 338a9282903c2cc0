"""Shared aggregation over sweep cells: group-by, mean/std/CI, tidy rows.

Every figure and table in the paper is an aggregation of the same
(scenario x controller x engine x seed) cells; this module is the one
place that aggregation lives.  :func:`aggregate` groups ``(spec,
result)`` pairs (or :class:`~repro.results.store.StoredRecord` s) by
any spec axes and reduces each requested summary metric across the
group — typically across seeds — to mean, sample standard deviation
and a normal-approximation 95 % confidence interval.

Delay-mode safety
-----------------
The two engines report travel time with different semantics:
``per-vehicle`` summaries average true per-vehicle travel times, while
``aggregate`` (counts-engine) summaries carry a Little's-law estimate
and no per-vehicle maximum.  Blending the two silently would produce a
number with neither meaning, so when a group mixes delay modes and a
delay-mode-sensitive metric is requested, :func:`aggregate` either
**raises** :class:`MixedDelayModeError` (the default) or **splits** the
group on the ``delay_mode`` axis (``on_mixed_delay_mode="split"``) —
never blends.

Output is tidy: one plain dict per group with the axis values, the
group size and ``<metric>_mean/_std/_ci95`` columns, ready for
:func:`repro.util.tables.render_table` (via :func:`tidy_table`), CSV
export or any dataframe library.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.errors import UsageError
from repro.metrics.collector import Summary
from repro.orchestration.spec import params_label

__all__ = [
    "AXES",
    "DEFAULT_METRICS",
    "DELAY_MODE_SENSITIVE",
    "MetricStats",
    "MixedDelayModeError",
    "aggregate",
    "check_axes",
    "tidy_table",
]


#: Axis name -> value extractor over one ``(spec, result)`` cell.
AXES = {
    "pattern": lambda spec, result: spec.pattern,
    "controller": lambda spec, result: spec.controller,
    "controller_params": lambda spec, result: params_label(spec.controller_params),
    "engine": lambda spec, result: spec.engine,
    "seed": lambda spec, result: spec.seed,
    "duration": lambda spec, result: spec.duration,
    "mini_slot": lambda spec, result: spec.mini_slot,
    "scenario": lambda spec, result: result.scenario_name,
    "delay_mode": lambda spec, result: result.summary.delay_mode,
}

#: Summary fields aggregated when the caller does not choose.
DEFAULT_METRICS: Tuple[str, ...] = (
    "average_queuing_time",
    "average_travel_time",
    "throughput_per_hour",
)

#: Summary fields whose meaning differs between delay modes: travel
#: time is exact per-vehicle in one and a Little's-law estimate in the
#: other; max queuing time is unavailable to the counts engine.
DELAY_MODE_SENSITIVE = frozenset({"average_travel_time", "max_queuing_time"})


#: The summary fields :func:`aggregate` can reduce (every numeric one).
METRICS = tuple(
    field.name for field in dataclasses.fields(Summary)
    if field.name != "delay_mode"
)


def check_axes(by: Sequence[str]) -> Tuple[str, ...]:
    """``by`` as a tuple; :class:`UsageError` naming any unknown axis."""
    by = tuple(by)
    unknown = [axis for axis in by if axis not in AXES]
    if unknown:
        raise UsageError(
            f"unknown aggregation axes {unknown}; known: {sorted(AXES)}"
        )
    return by


class MixedDelayModeError(UsageError):
    """A group mixes per-vehicle and aggregate travel-time semantics."""


@dataclass(frozen=True)
class MetricStats:
    """Mean / sample std / normal-approximation 95 % CI of one metric."""

    mean: float
    std: float
    ci95: float
    n: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MetricStats":
        """Compute the stats of one metric across a group's cells."""
        n = len(values)
        if n == 0:
            raise ValueError("cannot aggregate an empty value list")
        mean = sum(values) / n
        if n > 1:
            std = math.sqrt(
                sum((v - mean) ** 2 for v in values) / (n - 1)
            )
        else:
            std = 0.0
        ci95 = 1.96 * std / math.sqrt(n)
        return cls(mean=mean, std=std, ci95=ci95, n=n)


def spec_and_result(record: Any) -> Tuple[Any, Any]:
    """Accept ``StoredRecord`` s and plain ``(spec, result)`` pairs."""
    if hasattr(record, "spec") and hasattr(record, "result"):
        return record.spec, record.result
    spec, result = record
    return spec, result


def aggregate(
    records: Iterable[Any],
    by: Sequence[str] = ("pattern", "controller", "engine"),
    metrics: Sequence[str] = DEFAULT_METRICS,
    on_mixed_delay_mode: str = "raise",
) -> List[Dict[str, Any]]:
    """Group cells by spec axes and reduce metrics across each group.

    Parameters
    ----------
    records:
        ``(spec, result)`` pairs or :class:`StoredRecord` s — e.g.
        ``zip(grid.specs(), pool.run(grid.specs()))`` or
        ``store.query(...)``.
    by:
        Axis names from :data:`AXES` forming the group key; whatever
        is *not* in the key (typically ``seed``) is aggregated across.
    metrics:
        :class:`~repro.metrics.collector.Summary` field names to
        reduce.
    on_mixed_delay_mode:
        ``"raise"`` (default) fails with :class:`MixedDelayModeError`
        when a group mixes delay modes and a delay-mode-sensitive
        metric is requested; ``"split"`` adds ``delay_mode`` to the
        group key instead.  Blending is never an option.

    Returns
    -------
    One tidy dict per group, sorted by group key: axis columns, ``n``
    (cells in the group), ``delay_mode``, and
    ``<metric>_mean/_std/_ci95`` for every requested metric.
    """
    if on_mixed_delay_mode not in ("raise", "split"):
        raise ValueError(
            f"on_mixed_delay_mode must be 'raise' or 'split', "
            f"got {on_mixed_delay_mode!r}"
        )
    by = check_axes(by)
    unknown_metrics = [metric for metric in metrics if metric not in METRICS]
    if unknown_metrics:
        raise UsageError(
            f"unknown metrics {unknown_metrics}; known: {list(METRICS)}"
        )
    sensitive_requested = any(m in DELAY_MODE_SENSITIVE for m in metrics)
    if (
        on_mixed_delay_mode == "split"
        and sensitive_requested
        and "delay_mode" not in by
    ):
        by = by + ("delay_mode",)

    groups: Dict[Tuple[Any, ...], List[Tuple[Any, Any]]] = {}
    for record in records:
        spec, result = spec_and_result(record)
        key = tuple(AXES[axis](spec, result) for axis in by)
        groups.setdefault(key, []).append((spec, result))

    rows: List[Dict[str, Any]] = []
    for key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
        members = groups[key]
        modes = sorted({result.summary.delay_mode for _, result in members})
        if len(modes) > 1 and sensitive_requested:
            # on_mixed_delay_mode == "split" cannot reach here: the
            # delay_mode axis is already part of the group key then.
            label = ", ".join(
                f"{axis}={value}" for axis, value in zip(by, key)
            )
            raise MixedDelayModeError(
                f"group ({label}) mixes delay modes {modes}: per-vehicle "
                f"and Little's-law travel-time estimates must not be "
                f"averaged together — aggregate with "
                f"on_mixed_delay_mode='split', add 'delay_mode' to the "
                f"group axes, or drop the delay-mode-sensitive metrics "
                f"({sorted(DELAY_MODE_SENSITIVE)})"
            )
        row: Dict[str, Any] = dict(zip(by, key))
        row["n"] = len(members)
        if "delay_mode" not in by:
            row["delay_mode"] = modes[0] if len(modes) == 1 else "mixed"
        for metric in metrics:
            values = [
                getattr(result.summary, metric) for _, result in members
            ]
            stats = MetricStats.from_values(values)
            row[f"{metric}_mean"] = stats.mean
            row[f"{metric}_std"] = stats.std
            row[f"{metric}_ci95"] = stats.ci95
        rows.append(row)
    return rows


def tidy_table(
    rows: Sequence[Dict[str, Any]], float_format: str = ".2f"
) -> Tuple[Tuple[str, ...], List[Tuple[str, ...]]]:
    """Tidy rows as ``(headers, string rows)`` for ``render_table``."""
    if not rows:
        return (), []
    headers = tuple(rows[0])

    def fmt(value: Any) -> str:
        """Format one cell value for the tidy table."""
        if isinstance(value, float):
            return format(value, float_format)
        if value is None:
            return "-"
        return str(value)

    return headers, [
        tuple(fmt(row.get(header)) for header in headers) for row in rows
    ]

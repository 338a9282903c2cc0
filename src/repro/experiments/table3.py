"""Table III — CAP-BP (best period) vs UTIL-BP over all patterns.

The paper reports, per traffic pattern, the average queuing time of
UTIL-BP and of CAP-BP at its *best* control period (found by sweeping,
Fig. 2 style).  This driver reruns that protocol end to end: for each
pattern it sweeps the CAP-BP period, takes the best, runs UTIL-BP once
and reports both with the paper's reference numbers alongside.

Declared as the :data:`TABLE3`
:class:`~repro.results.experiment.ExperimentDefinition`: the whole
(pattern x period) grid plus the UTIL-BP references goes to the pool
as one batch, and the best-period fold is the definition's collector.
Cells shared with Fig. 2 (mixed-pattern CAP-BP sweeps) are computed
once when both drivers run against the same store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.runner import RunResult
from repro.scenarios.core import DEFAULT_DURATIONS
from repro.orchestration import ExperimentPool, RunSpec
from repro.results.experiment import ExperimentDefinition, run_experiment
from repro.util.tables import render_table

__all__ = [
    "Table3Row",
    "TABLE3",
    "PAPER_TABLE3",
    "run_table3",
    "render_table3",
]

#: The paper's Table III: pattern -> (CAP-BP best period [s],
#: CAP-BP avg queuing time [s], UTIL-BP avg queuing time [s]).
PAPER_TABLE3: Dict[str, Tuple[float, float, float]] = {
    "I": (18.0, 102.87, 97.97),
    "II": (16.0, 90.55, 81.62),
    "III": (16.0, 113.86, 108.41),
    "IV": (22.0, 125.63, 94.05),
    "mixed": (20.0, 120.71, 95.56),
}

#: Default CAP-BP period grid (subset of the paper's 10-80 s sweep).
DEFAULT_PERIODS: Tuple[float, ...] = (10.0, 14.0, 18.0, 22.0, 26.0, 30.0)


@dataclass(frozen=True)
class Table3Row:
    """One reproduced row of Table III."""

    pattern: str
    cap_bp_best_period: float
    cap_bp_queuing_time: float
    util_bp_queuing_time: float

    @property
    def improvement_percent(self) -> float:
        """UTIL-BP improvement over best-period CAP-BP, percent."""
        if self.cap_bp_queuing_time == 0:
            return 0.0
        return (
            (self.cap_bp_queuing_time - self.util_bp_queuing_time)
            / self.cap_bp_queuing_time
            * 100.0
        )


def render_table3(rows: Sequence[Table3Row]) -> str:
    """ASCII rendering with the paper's reference values."""
    body = []
    for row in rows:
        paper = PAPER_TABLE3.get(row.pattern)
        paper_cap = f"{paper[1]:.2f}" if paper else "-"
        paper_util = f"{paper[2]:.2f}" if paper else "-"
        paper_impr = (
            f"{(paper[1] - paper[2]) / paper[1] * 100:.1f}%" if paper else "-"
        )
        body.append(
            (
                row.pattern,
                f"{row.cap_bp_best_period:.0f} s",
                f"{row.cap_bp_queuing_time:.2f}",
                f"{row.util_bp_queuing_time:.2f}",
                f"{row.improvement_percent:.1f}%",
                paper_cap,
                paper_util,
                paper_impr,
            )
        )
    return render_table(
        (
            "Pattern",
            "CAP-BP period",
            "CAP-BP [s]",
            "UTIL-BP [s]",
            "improv.",
            "paper CAP",
            "paper UTIL",
            "paper impr.",
        ),
        body,
        title="Table III — average queuing time, CAP-BP (best period) vs UTIL-BP",
    )


def _build_specs(
    patterns: Sequence[str],
    engine: str,
    seed: int,
    periods: Sequence[float],
    duration_scale: float,
    mixed_segment_duration: Optional[float],
) -> List[RunSpec]:
    if not periods:
        raise ValueError("need at least one period to sweep")
    if duration_scale <= 0:
        raise ValueError(f"duration_scale must be > 0, got {duration_scale}")
    segment = (
        mixed_segment_duration
        if mixed_segment_duration is not None
        else 3600.0 * duration_scale
    )
    specs: List[RunSpec] = []
    for pattern in patterns:
        duration = DEFAULT_DURATIONS[pattern] * duration_scale
        scenario_params = {"mixed_segment_duration": segment}
        for period in periods:
            specs.append(
                RunSpec(
                    pattern=pattern,
                    controller="cap-bp",
                    controller_params={"period": float(period)},
                    engine=engine,
                    seed=seed,
                    duration=duration,
                    scenario_params=scenario_params,
                )
            )
        specs.append(
            RunSpec(
                pattern=pattern,
                controller="util-bp",
                engine=engine,
                seed=seed,
                duration=duration,
                scenario_params=scenario_params,
            )
        )
    return specs


def _collect(
    specs: Sequence[RunSpec],
    results: Sequence[RunResult],
    params: Mapping[str, Any],
) -> List[Table3Row]:
    patterns, periods = params["patterns"], params["periods"]
    stream = iter(results)
    rows: List[Table3Row] = []
    for pattern in patterns:
        by_period = [(period, next(stream)) for period in periods]
        util = next(stream)
        best_period, best = min(
            by_period, key=lambda item: item[1].average_queuing_time
        )
        rows.append(
            Table3Row(
                pattern=pattern,
                cap_bp_best_period=float(best_period),
                cap_bp_queuing_time=best.average_queuing_time,
                util_bp_queuing_time=util.average_queuing_time,
            )
        )
    return rows


TABLE3 = ExperimentDefinition(
    name="table3",
    description=(
        "Table III — per-pattern CAP-BP best-period sweep vs the "
        "UTIL-BP reference"
    ),
    build_specs=_build_specs,
    collect=_collect,
    render=render_table3,
    defaults=dict(
        patterns=("I", "II", "III", "IV", "mixed"),
        engine="micro",
        seed=1,
        periods=DEFAULT_PERIODS,
        duration_scale=1.0,
        mixed_segment_duration=None,
    ),
)


def run_table3(
    pool: Optional[ExperimentPool] = None, **params: Any
) -> List[Table3Row]:
    """Reproduce Table III: ``run_experiment(TABLE3, pool=pool, **params)``.

    Parameters (defaults in ``TABLE3.defaults``): ``patterns``, the
    Table II patterns to include; ``engine``, ``"micro"``
    (paper-faithful) or a meso engine (fast); ``seed``, the scenario
    seed both controllers share; ``periods``, the CAP-BP period grid;
    ``duration_scale``, a multiplier on the paper's horizons (1 h per
    pattern, 4 h mixed); ``mixed_segment_duration``, the mixed
    pattern's segment length (``None``: ``3600 * duration_scale``).
    Every (pattern x period) cell and the UTIL-BP references go to
    ``pool`` (default: serial, in-process) as one batch.
    """
    return run_experiment(TABLE3, pool=pool, **params)

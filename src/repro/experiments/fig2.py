"""Figure 2 — average queuing time vs CAP-BP control period (mixed).

The paper plots, for the mixed traffic pattern, the network-wide
average queuing time of CAP-BP as a function of the (globally set)
control phase period from 10 s to 80 s, with the UTIL-BP result as the
flat reference the sweep never beats.  This driver regenerates that
series and renders it as an ASCII chart.

The driver is an :class:`~repro.results.experiment.ExperimentDefinition`
(:data:`FIG2`): the period grid expands to specs, the pool executes
them (parallel/store-backed when asked), and the collector folds the
results into :class:`Fig2Result`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.runner import RunResult
from repro.orchestration import ExperimentPool, RunSpec
from repro.results.experiment import (
    ExperimentDefinition,
    register_experiment,
    run_experiment,
)
from repro.util.series import TimeSeries, render_series

__all__ = ["Fig2Result", "FIG2", "run_fig2", "render_fig2"]

#: The paper's sweep grid (Fig. 2 x-axis).
PAPER_PERIODS: Tuple[float, ...] = (10, 20, 30, 40, 50, 60, 70, 80)


@dataclass(frozen=True)
class Fig2Result:
    """The period sweep and the UTIL-BP reference level."""

    periods: Tuple[float, ...]
    cap_bp_queuing_times: Tuple[float, ...]
    util_bp_queuing_time: float

    @property
    def best_period(self) -> float:
        """Period minimizing the CAP-BP queuing time."""
        index = min(
            range(len(self.periods)),
            key=lambda i: self.cap_bp_queuing_times[i],
        )
        return self.periods[index]

    @property
    def best_queuing_time(self) -> float:
        """The minimum CAP-BP queuing time over the sweep."""
        return min(self.cap_bp_queuing_times)

    @property
    def util_beats_best(self) -> bool:
        """The paper's headline check for this figure."""
        return self.util_bp_queuing_time < self.best_queuing_time


def render_fig2(result: Fig2Result) -> str:
    """ASCII chart in the shape of the paper's Fig. 2."""
    cap = TimeSeries("CAP-BP (capacity-aware)")
    for period, value in zip(result.periods, result.cap_bp_queuing_times):
        cap.append(period, value)
    util = TimeSeries("UTIL-BP (proposed)")
    for period in result.periods:
        util.append(period, result.util_bp_queuing_time)
    chart = render_series(
        [cap, util],
        title=(
            "Fig. 2 — avg queuing time [s] vs control period [s], "
            "mixed pattern"
        ),
    )
    lines = [
        chart,
        f"best CAP-BP: {result.best_queuing_time:.2f} s at "
        f"{result.best_period:.0f} s period",
        f"UTIL-BP:     {result.util_bp_queuing_time:.2f} s "
        f"({'beats' if result.util_beats_best else 'does not beat'} the sweep)",
    ]
    return "\n".join(lines)


def _build_specs(
    periods: Sequence[float],
    engine: str,
    seed: int,
    segment_duration: float,
) -> List[RunSpec]:
    if not periods:
        raise ValueError("need at least one period to sweep")
    duration = 4 * segment_duration
    scenario_params = {"mixed_segment_duration": segment_duration}
    specs = [
        RunSpec(
            pattern="mixed",
            controller="cap-bp",
            controller_params={"period": float(period)},
            engine=engine,
            seed=seed,
            duration=duration,
            scenario_params=scenario_params,
        )
        for period in periods
    ]
    specs.append(
        RunSpec(
            pattern="mixed",
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
) -> Fig2Result:
    return Fig2Result(
        periods=tuple(float(p) for p in params["periods"]),
        cap_bp_queuing_times=tuple(
            result.average_queuing_time for result in results[:-1]
        ),
        util_bp_queuing_time=results[-1].average_queuing_time,
    )


FIG2 = register_experiment(
    ExperimentDefinition(
        name="fig2",
        description=(
            "Fig. 2 — avg queuing time vs CAP-BP control period, mixed "
            "pattern, with the UTIL-BP reference level"
        ),
        build_specs=_build_specs,
        collect=_collect,
        render=render_fig2,
        defaults=dict(
            periods=PAPER_PERIODS,
            engine="micro",
            seed=1,
            segment_duration=3600.0,
        ),
    )
)


def run_fig2(pool: Optional[ExperimentPool] = None, **params: Any) -> Fig2Result:
    """Regenerate Fig. 2: ``run_experiment(FIG2, pool=pool, **params)``.

    Parameters (defaults in ``FIG2.defaults``): ``periods``, the CAP-BP
    control periods to sweep; ``engine`` and ``seed``, as elsewhere;
    ``segment_duration``, the mixed pattern's segment length (the paper
    runs 3600 s segments, 4 h in total; benchmarks shrink it).  The
    sweep runs on ``pool`` (default: serial, in-process).
    """
    return run_experiment(FIG2, pool=pool, **params)

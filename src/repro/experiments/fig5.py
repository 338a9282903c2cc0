"""Figure 5 — queue length at the east incoming road, top-right node.

The paper plots the queue length of the incoming road from the east at
the top-right intersection over 2000 s of Pattern I, for both
controllers; UTIL-BP's queue stays shorter than CAP-BP's.  This driver
records the same trace (sampled stop-line queue, Eq. 1 totals) and is
declared as the :data:`FIG5`
:class:`~repro.results.experiment.ExperimentDefinition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence

from repro.experiments.fig34 import PAPER_HORIZON, TOP_RIGHT_NODE
from repro.experiments.runner import RunResult
from repro.metrics.traces import QueueTrace
from repro.model.grid import entry_road_id
from repro.model.geometry import Direction
from repro.orchestration import ExperimentPool, RunSpec
from repro.results.experiment import (
    ExperimentDefinition,
    register_experiment,
    run_experiment,
)
from repro.util.series import render_series

__all__ = ["Fig5Result", "FIG5", "EAST_IN_ROAD", "run_fig5", "render_fig5"]

#: The incoming road from the east at the top-right intersection.
EAST_IN_ROAD = entry_road_id(Direction.E, TOP_RIGHT_NODE)


@dataclass(frozen=True)
class Fig5Result:
    """Queue traces of both controllers at the east incoming road."""

    cap_bp_trace: QueueTrace
    util_bp_trace: QueueTrace
    duration: float

    @property
    def util_mean_shorter(self) -> bool:
        """The paper's qualitative claim for this figure."""
        return self.util_bp_trace.mean() < self.cap_bp_trace.mean()


def render_fig5(result: Fig5Result) -> str:
    """ASCII chart plus the mean/max comparison."""
    chart = render_series(
        [result.cap_bp_trace.series, result.util_bp_trace.series],
        title=(
            "Fig. 5 — queue length at the east incoming road, top-right "
            "intersection, Pattern I"
        ),
    )
    summary = (
        f"mean queue: CAP-BP {result.cap_bp_trace.mean():.2f}, "
        f"UTIL-BP {result.util_bp_trace.mean():.2f}  |  "
        f"max queue: CAP-BP {result.cap_bp_trace.max():.0f}, "
        f"UTIL-BP {result.util_bp_trace.max():.0f}"
    )
    verdict = (
        "UTIL-BP maintains the shorter queue (matches the paper)"
        if result.util_mean_shorter
        else "UTIL-BP queue NOT shorter (mismatch with the paper)"
    )
    return "\n".join([chart, summary, verdict])


def _build_specs(
    engine: str,
    seed: int,
    duration: float,
    cap_bp_period: float,
    sample_interval: float,
) -> List[RunSpec]:
    watch = ((TOP_RIGHT_NODE, EAST_IN_ROAD),)
    return [
        RunSpec(
            pattern="I",
            controller="cap-bp",
            controller_params={"period": cap_bp_period},
            engine=engine,
            seed=seed,
            duration=duration,
            record_queues=watch,
            queue_sample_interval=sample_interval,
        ),
        RunSpec(
            pattern="I",
            controller="util-bp",
            engine=engine,
            seed=seed,
            duration=duration,
            record_queues=watch,
            queue_sample_interval=sample_interval,
        ),
    ]


def _collect(
    specs: Sequence[RunSpec],
    results: Sequence[RunResult],
    params: Mapping[str, Any],
) -> Fig5Result:
    cap, util = results
    key = (TOP_RIGHT_NODE, EAST_IN_ROAD)
    cap_trace = cap.queue_traces[key]
    util_trace = util.queue_traces[key]
    cap_trace.series.name = "CAP-BP"
    util_trace.series.name = "UTIL-BP"
    return Fig5Result(
        cap_bp_trace=cap_trace,
        util_bp_trace=util_trace,
        duration=params["duration"],
    )


FIG5 = register_experiment(
    ExperimentDefinition(
        name="fig5",
        description=(
            "Fig. 5 — sampled stop-line queue at the east incoming road "
            "of the top-right intersection, CAP-BP vs UTIL-BP, Pattern I"
        ),
        build_specs=_build_specs,
        collect=_collect,
        render=render_fig5,
        defaults=dict(
            engine="micro",
            seed=1,
            duration=PAPER_HORIZON,
            cap_bp_period=18.0,
            sample_interval=5.0,
        ),
    )
)


def run_fig5(pool: Optional[ExperimentPool] = None, **params: Any) -> Fig5Result:
    """The data behind Fig. 5: ``run_experiment(FIG5, pool=pool, **params)``.

    Parameters (defaults in ``FIG5.defaults``): ``engine``, ``seed``,
    ``duration``; ``cap_bp_period``, the CAP-BP period;
    ``sample_interval``, seconds between queue samples.  Both
    controller runs go to ``pool`` (default: serial, in-process).
    """
    return run_experiment(FIG5, pool=pool, **params)

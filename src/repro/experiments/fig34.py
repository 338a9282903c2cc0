"""Figures 3 and 4 — applied control phases at the top-right intersection.

The paper plots, for Pattern I over 2000 s, the phase applied at the
north-eastern (top-right) intersection under CAP-BP at its optimal
period (Fig. 3: rigid fixed-length slots) and under UTIL-BP (Fig. 4:
varying-length phases, with longer periods for phases 1 and 2 because
the heavy north/south traffic goes mostly straight or turns).

This driver records both traces and derives the statistics that make
the comparison quantitative: mean control-phase length, switch count
and per-phase green share.  It is declared as the :data:`FIG34`
:class:`~repro.results.experiment.ExperimentDefinition`; its two cells
are shared (via a common pool/store) with any other driver requesting
the same runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.experiments.runner import RunResult
from repro.metrics.traces import PhaseTrace
from repro.orchestration import ExperimentPool, RunSpec
from repro.results.experiment import (
    ExperimentDefinition,
    register_experiment,
    run_experiment,
)
from repro.util.series import render_series
from repro.util.tables import render_table

__all__ = [
    "Fig34Result",
    "FIG34",
    "TOP_RIGHT_NODE",
    "run_fig34",
    "render_fig34",
]

#: The north-eastern (top-right) intersection of the 3x3 grid.
TOP_RIGHT_NODE = "J02"

#: Horizon the paper plots (s).
PAPER_HORIZON = 2000.0


@dataclass(frozen=True)
class Fig34Result:
    """Phase traces of both controllers at the top-right intersection."""

    cap_bp_trace: PhaseTrace
    util_bp_trace: PhaseTrace
    duration: float
    cap_bp_period: float

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Mean phase length, switches and per-phase shares per controller."""
        out: Dict[str, Dict[str, float]] = {}
        for name, trace in (
            ("cap-bp", self.cap_bp_trace),
            ("util-bp", self.util_bp_trace),
        ):
            durations = trace.phase_durations(self.duration)
            total = sum(durations.values()) or 1.0
            row: Dict[str, float] = {
                "mean_phase_length": trace.mean_control_phase_length(
                    self.duration
                ),
                "switches": float(trace.switch_count()),
            }
            for phase in range(0, 5):
                row[f"share_c{phase}"] = durations.get(phase, 0.0) / total
            out[name] = row
        return out


def render_fig34(result: Fig34Result) -> str:
    """ASCII staircase charts plus the comparison statistics."""
    fig3 = render_series(
        [result.cap_bp_trace.as_series(result.duration)],
        height=8,
        title=(
            f"Fig. 3 — applied phases, top-right intersection, CAP-BP "
            f"(period {result.cap_bp_period:.0f} s), Pattern I"
        ),
    )
    fig4 = render_series(
        [result.util_bp_trace.as_series(result.duration)],
        height=8,
        title="Fig. 4 — applied phases, top-right intersection, UTIL-BP, Pattern I",
    )
    stats = result.stats()
    rows = []
    for name, row in stats.items():
        rows.append(
            (
                name,
                f"{row['mean_phase_length']:.1f}",
                int(row["switches"]),
                f"{row['share_c0']:.2f}",
                f"{row['share_c1']:.2f}",
                f"{row['share_c2']:.2f}",
                f"{row['share_c3']:.2f}",
                f"{row['share_c4']:.2f}",
            )
        )
    table = render_table(
        (
            "controller",
            "mean phase [s]",
            "switches",
            "amber",
            "c1",
            "c2",
            "c3",
            "c4",
        ),
        rows,
        title="Phase statistics (shares of total time)",
    )
    return "\n\n".join([fig3, fig4, table])


def _build_specs(
    engine: str,
    seed: int,
    duration: float,
    cap_bp_period: float,
    node_id: str,
) -> List[RunSpec]:
    return [
        RunSpec(
            pattern="I",
            controller="cap-bp",
            controller_params={"period": cap_bp_period},
            engine=engine,
            seed=seed,
            duration=duration,
            record_phases=(node_id,),
        ),
        RunSpec(
            pattern="I",
            controller="util-bp",
            engine=engine,
            seed=seed,
            duration=duration,
            record_phases=(node_id,),
        ),
    ]


def _collect(
    specs: Sequence[RunSpec],
    results: Sequence[RunResult],
    params: Mapping[str, Any],
) -> Fig34Result:
    cap, util = results
    node_id = params["node_id"]
    return Fig34Result(
        cap_bp_trace=cap.phase_traces[node_id],
        util_bp_trace=util.phase_traces[node_id],
        duration=params["duration"],
        cap_bp_period=params["cap_bp_period"],
    )


FIG34 = register_experiment(
    ExperimentDefinition(
        name="fig34",
        description=(
            "Figs. 3-4 — applied-phase traces at the top-right "
            "intersection, CAP-BP vs UTIL-BP, Pattern I"
        ),
        build_specs=_build_specs,
        collect=_collect,
        render=render_fig34,
        defaults=dict(
            engine="micro",
            seed=1,
            duration=PAPER_HORIZON,
            cap_bp_period=18.0,
            node_id=TOP_RIGHT_NODE,
        ),
    )
)


def run_fig34(
    pool: Optional[ExperimentPool] = None, **params: Any
) -> Fig34Result:
    """The data behind Figs. 3-4: ``run_experiment(FIG34, pool=pool, **params)``.

    Parameters (defaults in ``FIG34.defaults``): ``engine``, ``seed``,
    ``duration``; ``cap_bp_period``, the CAP-BP period (the paper's
    optimum for Pattern I, Table III); ``node_id``, the intersection
    whose applied phases are recorded.  Both controller runs go to
    ``pool`` (default: serial, in-process) as one batch.
    """
    return run_experiment(FIG34, pool=pool, **params)

"""Ablations of the design choices the paper calls out.

Sec. III/IV motivate several ingredients of UTIL-BP; each ablation here
removes or perturbs one of them so benchmarks can quantify its
contribution:

* ``transition-duration`` — amber length sweep: longer transitions
  penalize frequent switching, the reason the keep-phase mechanism
  exists.
* ``alpha-beta-order`` — the paper mandates ``beta < alpha < 0`` but
  notes the reverse is admissible; compare both orders.
* ``keep-margin`` — relax the Eq. 12 threshold (serve negative pressure
  differences before considering a switch).
* ``mini-slot`` — coarser monitoring intervals degrade the
  varying-length-phase mechanism towards fixed slots.
* ``controller-family`` — UTIL-BP vs CAP-BP vs original BP vs
  fixed-time under identical demand (the per-movement pressure and
  special cases are what separate UTIL-BP from original BP).

All studies run through the single :data:`ABLATION_EXPERIMENT`
:class:`~repro.results.experiment.ExperimentDefinition`, parameterized
by study name (``mini-slot`` varies the runner's cadence over the
``mini_slots`` parameter rather than a controller parameter, which the
definition's spec builder handles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.experiments.runner import RunResult
from repro.orchestration import ExperimentPool, RunSpec
from repro.results.experiment import ExperimentDefinition, run_experiment
from repro.util.tables import render_table

__all__ = [
    "AblationPoint",
    "ABLATION_EXPERIMENT",
    "run_ablation",
    "ABLATIONS",
    "render_ablation",
]


@dataclass(frozen=True)
class AblationPoint:
    """One configuration of an ablation study and its outcome."""

    study: str
    label: str
    controller: str
    params: Dict[str, Any]
    average_queuing_time: float
    amber_share: float


#: study name -> list of (label, controller, params).
ABLATIONS: Dict[str, List] = {
    "transition-duration": [
        (f"amber {d:.0f}s", "util-bp", {"transition_duration": float(d)})
        for d in (2, 4, 6, 8)
    ],
    "alpha-beta-order": [
        ("beta < alpha (paper)", "util-bp", {"alpha": -1.0, "beta": -2.0}),
        ("alpha < beta (reversed)", "util-bp", {"alpha": -2.0, "beta": -1.0}),
    ],
    "keep-margin": [
        (f"margin {m:.0f}", "util-bp", {"keep_margin": float(m)})
        for m in (0, 2, 5, 10)
    ],
    # "mini-slot" varies the runner's cadence, not a controller
    # parameter; the spec builder special-cases it.  Listed for
    # discovery.
    "mini-slot": [],
    "controller-family": [
        ("UTIL-BP (proposed)", "util-bp", {}),
        ("CAP-BP @ 18s", "cap-bp", {"period": 18.0}),
        ("original BP @ 18s", "original-bp", {"period": 18.0}),
        ("fixed-time @ 18s", "fixed-time", {"period": 18.0}),
    ],
}


def _configurations(study: str) -> List:
    try:
        return ABLATIONS[study]
    except KeyError:
        raise ValueError(
            f"unknown ablation {study!r}; known: {sorted(ABLATIONS)}"
        )


def _build_specs(
    study: str,
    pattern: str,
    seed: int,
    duration: float,
    engine: str,
    mini_slots: Sequence[float],
) -> List[RunSpec]:
    if study == "mini-slot":
        return [
            RunSpec(
                pattern=pattern,
                controller="util-bp",
                engine=engine,
                seed=seed,
                duration=duration,
                mini_slot=float(m),
            )
            for m in mini_slots
        ]
    return [
        RunSpec(
            pattern=pattern,
            controller=controller,
            controller_params=dict(params),
            engine=engine,
            seed=seed,
            duration=duration,
        )
        for _, controller, params in _configurations(study)
    ]


def _point(
    study: str,
    label: str,
    controller: str,
    params: Dict[str, Any],
    result: RunResult,
) -> AblationPoint:
    return AblationPoint(
        study=study,
        label=label,
        controller=controller,
        params=params,
        average_queuing_time=result.average_queuing_time,
        amber_share=result.network_utilization().amber_share,
    )


def _collect(
    specs: Sequence[RunSpec],
    results: Sequence[RunResult],
    params: Mapping[str, Any],
) -> List[AblationPoint]:
    study = params["study"]
    if study == "mini-slot":
        return [
            _point(
                study,
                f"mini-slot {m:.0f}s",
                "util-bp",
                {"mini_slot": float(m)},
                result,
            )
            for m, result in zip(params["mini_slots"], results)
        ]
    return [
        _point(study, label, controller, dict(config_params), result)
        for (label, controller, config_params), result in zip(
            _configurations(study), results
        )
    ]


ABLATION_EXPERIMENT = ExperimentDefinition(
    name="ablations",
    description=(
        "design-choice ablation studies (transition duration, "
        "alpha/beta order, keep margin, mini-slot cadence, "
        "controller family)"
    ),
    build_specs=_build_specs,
    collect=_collect,
    render=lambda points: render_ablation(points),
    defaults=dict(
        study="controller-family",
        pattern="I",
        seed=1,
        duration=1800.0,
        engine="meso",
        mini_slots=(1.0, 2.0, 5.0),
    ),
)


def run_ablation(
    study: str, pool: Optional[ExperimentPool] = None, **params: Any
) -> List[AblationPoint]:
    """Run one named ablation study; see :data:`ABLATIONS` for names.

    ``run_experiment(ABLATION_EXPERIMENT, pool=pool, study=study,
    **params)``.  Parameters (defaults in
    ``ABLATION_EXPERIMENT.defaults``): ``pattern``, ``seed``,
    ``duration``, ``engine``; ``mini_slots``, the cadence grid of the
    ``mini-slot`` study.  All configurations of the study go to
    ``pool`` (default: serial, in-process) as one batch.
    """
    return run_experiment(ABLATION_EXPERIMENT, pool=pool, study=study, **params)


def render_ablation(points: Sequence[AblationPoint]) -> str:
    """ASCII table of one study's outcomes."""
    if not points:
        return "(no ablation points)"
    rows = [
        (
            point.label,
            point.controller,
            f"{point.average_queuing_time:.2f}",
            f"{point.amber_share:.3f}",
        )
        for point in points
    ]
    return render_table(
        ("configuration", "controller", "avg queuing [s]", "amber share"),
        rows,
        title=f"Ablation: {points[0].study}",
    )

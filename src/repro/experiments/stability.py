"""Stability-region study (Sec. IV-Q1).

Back-pressure control's classical guarantee is *maximum stability*
(bounded queues for any demand inside the capacity region) under
idealized assumptions.  UTIL-BP knowingly gives that idealized
guarantee up for utilization; this study measures what actually
happens: sweep a scale factor on every arrival rate and record, per
controller, when the network stops being able to drain what comes in.

A configuration counts as *stable* here when, at the end of the run,
(i) almost no vehicles are stuck outside a full entry road (backlog)
and (ii) the in-network vehicle count stays well below the network's
storage capacity — i.e. queues did not grow towards the capacity
bound for the whole horizon.

Declared as the :data:`STABILITY`
:class:`~repro.results.experiment.ExperimentDefinition` over the
(controller x demand scale) grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence

from repro.experiments.runner import RunResult
from repro.scenarios.core import build_scenario
from repro.orchestration import ExperimentPool, RunSpec
from repro.results.experiment import (
    ExperimentDefinition,
    register_experiment,
    run_experiment,
)
from repro.util.tables import render_table

__all__ = [
    "StabilityPoint",
    "STABILITY",
    "run_stability_sweep",
    "render_stability",
]


@dataclass(frozen=True)
class StabilityPoint:
    """Outcome of one (controller, demand scale) run."""

    controller: str
    demand_scale: float
    average_queuing_time: float
    vehicles_in_network: int
    backlog: int
    network_capacity: int

    @property
    def stable(self) -> bool:
        """Bounded-queue proxy: no entry backlog, network < 50 % full."""
        return (
            self.backlog <= 5
            and self.vehicles_in_network < 0.5 * self.network_capacity
        )


def _cells(controllers: Sequence, scales: Sequence[float]) -> List:
    return [
        (name, params, scale)
        for name, params in controllers
        for scale in scales
    ]


def _build_specs(
    scales: Sequence[float],
    controllers: Sequence,
    pattern: str,
    seed: int,
    duration: float,
    engine: str,
) -> List[RunSpec]:
    if not scales:
        raise ValueError("need at least one demand scale")
    return [
        RunSpec(
            pattern=pattern,
            controller=name,
            controller_params=params or {},
            engine=engine,
            seed=seed,
            duration=duration,
            scenario_params={"demand_scale": float(scale)},
        )
        for name, params, scale in _cells(controllers, scales)
    ]


def _collect(
    specs: Sequence[RunSpec],
    results: Sequence[RunResult],
    params: Mapping[str, Any],
) -> List[StabilityPoint]:
    # Demand scaling leaves the road network itself untouched, so the
    # storage capacity is the same for every cell.
    capacity = build_scenario(
        params["pattern"], seed=params["seed"]
    ).network.total_capacity()
    return [
        StabilityPoint(
            controller=name,
            demand_scale=scale,
            average_queuing_time=result.average_queuing_time,
            vehicles_in_network=result.vehicles_in_network,
            backlog=result.backlog,
            network_capacity=capacity,
        )
        for (name, _, scale), result in zip(
            _cells(params["controllers"], params["scales"]), results
        )
    ]


STABILITY = register_experiment(
    ExperimentDefinition(
        name="stability",
        description=(
            "demand-scale stability sweep (Sec. IV-Q1): queue "
            "boundedness per controller as arrival rates scale up"
        ),
        build_specs=_build_specs,
        collect=_collect,
        render=lambda points: render_stability(points),
        defaults=dict(
            scales=(0.6, 0.8, 1.0, 1.2, 1.4),
            controllers=(
                ("util-bp", None),
                ("cap-bp", {"period": 18.0}),
            ),
            pattern="II",
            seed=1,
            duration=1800.0,
            engine="meso",
        ),
    )
)


def run_stability_sweep(
    pool: Optional[ExperimentPool] = None, **params: Any
) -> List[StabilityPoint]:
    """Sweep demand scales per controller (Sec. IV-Q1).

    ``run_experiment(STABILITY, pool=pool, **params)``.  Parameters
    (defaults in ``STABILITY.defaults``): ``scales``, the demand scale
    factors; ``controllers``, ``(name, params)`` pairs; ``pattern``,
    ``seed``, ``duration``, ``engine``.  The whole
    (controller x scale) grid goes to ``pool`` (default: serial,
    in-process) as one batch; terminal occupancy comes from the
    runner's ``vehicles_in_network`` / ``backlog`` result fields.
    """
    return run_experiment(STABILITY, pool=pool, **params)


def max_stable_scale(points: Sequence[StabilityPoint], controller: str) -> float:
    """Largest swept demand scale the controller kept stable (0 if none)."""
    stable = [
        p.demand_scale
        for p in points
        if p.controller == controller and p.stable
    ]
    return max(stable) if stable else 0.0


def render_stability(points: Sequence[StabilityPoint]) -> str:
    """ASCII table of the sweep."""
    rows = [
        (
            p.controller,
            f"{p.demand_scale:.1f}",
            f"{p.average_queuing_time:.1f}",
            p.vehicles_in_network,
            p.backlog,
            "stable" if p.stable else "UNSTABLE",
        )
        for p in points
    ]
    return render_table(
        (
            "controller",
            "demand scale",
            "avg queuing [s]",
            "in network",
            "backlog",
            "verdict",
        ),
        rows,
        title="Stability sweep (Sec. IV-Q1): demand scale vs queue boundedness",
    )

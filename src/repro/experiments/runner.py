"""The closed control loop: scenario + controller + engine -> results.

This is the only place where the cyber part (controllers) and the
physical part (simulators) touch: every mini-slot the runner reads the
queue state, asks the controller for a phase per intersection, and
applies the decisions to the engine.  The engine says how it is
driven:

* :func:`run_scenario_batch` drives a batch engine through
  ``controller_arrays()`` and a batch kernel; a single run on a batch
  engine is a batch of one;
* :func:`run_scenario` drives a built serial engine that offers
  ``controller_arrays()`` and ``movement_layout`` (meso, meso-events
  and micro) through a B=1 batch kernel, handing ``step`` the usual
  node -> phase map;
* :func:`run_scenario` drives every other serial engine through
  ``observations()`` and a :class:`~repro.control.base.NetworkController`.
  meso-counts stays on this loop on purpose: it is the readable
  reference the parity suites check the kernels against.

:func:`serial_decider` is the one place the serial choice is made.

A controller spec is checked before any engine is built.  The engine
contracts and the engine table live in :mod:`repro.core.engine`, the
one controller table in :mod:`repro.control.factory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import (
    BatchEngine,
    SimulationEngine,
    build_batch_engine,
    build_engine,
    has_batch_engine,
)
from repro.control.factory import (
    build_batch_controller,
    check_controller,
    make_network_controller,
)
from repro.scenarios.core import Scenario
from repro.metrics.collector import Summary
from repro.metrics.traces import PhaseTrace, QueueTrace, next_grid_sample
from repro.metrics.utilization import UtilizationTracker
from repro.model.phases import TRANSITION_PHASE_INDEX
from repro.util.validation import check_positive

__all__ = [
    "RunConfig",
    "RunResult",
    "run_scenario",
    "run_scenario_batch",
    "serial_decider",
]


@dataclass(frozen=True)
class RunConfig:
    """The run knobs shared by :func:`run_scenario` and
    :func:`run_scenario_batch`.

    Both runners accept exactly these fields, keyword-only (the two
    signatures had drifted apart; this is now the single source of
    truth).  Unknown knobs and invalid values are rejected here,
    *before* any engine is built — mirroring the eager scenario-param
    validation — so a typo fails in milliseconds instead of after an
    expensive batch-engine construction.

    The only asymmetry between the runners is the default ``engine``:
    ``"meso"`` for single runs, ``"meso-vec"`` for batches.
    """

    controller: str = "util-bp"
    controller_params: Optional[Dict[str, Any]] = None
    duration: Optional[float] = None
    engine: str = "meso"
    mini_slot: float = 1.0
    record_phases: Sequence[str] = ()
    record_queues: Sequence[Tuple[str, str]] = ()
    queue_sample_interval: float = 5.0

    def __post_init__(self) -> None:
        check_positive("mini_slot", self.mini_slot)
        check_positive("queue_sample_interval", self.queue_sample_interval)
        if self.duration is not None:
            check_positive("duration", float(self.duration))

    @classmethod
    def resolve(cls, default_engine: str, knobs: Dict[str, Any]) -> "RunConfig":
        """Build a config from a runner's ``**knobs``, eagerly validated.

        ``config=<RunConfig>`` passes a ready-made config through (the
        orchestration layer's path — :meth:`RunSpec.run_config`); it
        cannot be combined with loose knobs, so a call site is always
        unambiguously on one surface or the other.
        """
        config = knobs.pop("config", None)
        if config is not None:
            if not isinstance(config, cls):
                raise TypeError(
                    f"config must be a {cls.__name__}, got {type(config).__name__}"
                )
            if knobs:
                raise TypeError(
                    f"config= cannot be combined with loose run knob(s) "
                    f"{sorted(knobs)}"
                )
            return config
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(knobs) - valid)
        if unknown:
            raise TypeError(
                f"unknown run knob(s) {unknown}; valid knobs: {sorted(valid)}"
            )
        knobs.setdefault("engine", default_engine)
        return cls(**knobs)

    def horizon(self, scenario: Scenario) -> float:
        """The simulation horizon: explicit ``duration`` or the scenario's."""
        if self.duration is None:
            return scenario.default_duration
        return float(self.duration)


@dataclass
class RunResult:
    """Everything measured during one closed-loop run."""

    scenario_name: str
    controller_name: str
    duration: float
    summary: Summary
    phase_traces: Dict[str, PhaseTrace] = field(default_factory=dict)
    queue_traces: Dict[Tuple[str, ...], QueueTrace] = field(default_factory=dict)
    utilization: Dict[str, UtilizationTracker] = field(default_factory=dict)
    vehicles_in_network: int = 0
    backlog: int = 0

    @property
    def average_queuing_time(self) -> float:
        """The paper's headline metric for this run."""
        return self.summary.average_queuing_time

    def network_utilization(self) -> UtilizationTracker:
        """All intersections' utilization trackers merged."""
        trackers = list(self.utilization.values())
        if not trackers:
            return UtilizationTracker(node_id="none")
        merged = trackers[0]
        for tracker in trackers[1:]:
            merged = merged.merged(tracker)
        return merged

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable view (crosses process/disk boundaries)."""
        return {
            "scenario_name": self.scenario_name,
            "controller_name": self.controller_name,
            "duration": self.duration,
            "summary": self.summary.to_dict(),
            "phase_traces": {
                node_id: trace.to_dict()
                for node_id, trace in self.phase_traces.items()
            },
            # JSON keys must be strings; the (node, road) key is kept
            # inside each entry instead.
            "queue_traces": [
                {"node_id": node_id, "road_id": road_id, "trace": trace.to_dict()}
                for (node_id, road_id), trace in self.queue_traces.items()
            ],
            "utilization": {
                node_id: tracker.to_dict()
                for node_id, tracker in self.utilization.items()
            },
            "vehicles_in_network": self.vehicles_in_network,
            "backlog": self.backlog,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunResult":
        """Rebuild a result serialized with :meth:`to_dict`."""
        return cls(
            scenario_name=payload["scenario_name"],
            controller_name=payload["controller_name"],
            duration=float(payload["duration"]),
            summary=Summary.from_dict(payload["summary"]),
            phase_traces={
                node_id: PhaseTrace.from_dict(data)
                for node_id, data in payload.get("phase_traces", {}).items()
            },
            queue_traces={
                (entry["node_id"], entry["road_id"]): QueueTrace.from_dict(
                    entry["trace"]
                )
                for entry in payload.get("queue_traces", [])
            },
            utilization={
                node_id: UtilizationTracker.from_dict(data)
                for node_id, data in payload.get("utilization", {}).items()
            },
            vehicles_in_network=int(payload.get("vehicles_in_network", 0)),
            backlog=int(payload.get("backlog", 0)),
        )


def _check_layout(sim: Any, kernel: Any, engine: str) -> None:
    """Reject an engine whose arrays do not align with the kernel's.

    Runs once, before the first step: a misaligned column would decide
    wrongly without failing.
    """
    if sim.movement_layout != (kernel.node_ids, kernel.movement_keys):
        raise ValueError(
            f"engine {engine!r} movement layout does not match the batch "
            f"controller's"
        )


def serial_decider(
    sim: SimulationEngine, engine: str, network: Any, controller: str, **params: Any
) -> Callable[[], Dict[str, int]]:
    """The loop :func:`run_scenario` runs for a built serial engine.

    Returns ``decide()``, the node -> phase map for the current slot:
    a B=1 batch kernel on the engine's array façade when it offers
    ``controller_arrays()`` and ``movement_layout`` (checked against
    the kernel's layout here), otherwise the serial controllers on
    ``observations()``.  Only the controller that loop needs is built.
    """
    if hasattr(sim, "controller_arrays") and hasattr(sim, "movement_layout"):
        kernel = build_batch_controller(controller, network, 1, **params)
        _check_layout(sim, kernel, engine)
        node_ids = kernel.node_ids

        def decide() -> Dict[str, int]:
            """The B=1 kernel's decisions as a node -> phase map."""
            row = kernel.decide_batch(sim.controller_arrays())[0]
            return dict(zip(node_ids, row.tolist()))

        return decide
    network_controller = make_network_controller(controller, network, **params)

    def decide() -> Dict[str, int]:
        """The serial controllers' decisions on ``Q(k)``."""
        return network_controller.decide(sim.observations())

    return decide


def run_scenario(scenario: Scenario, **knobs: Any) -> RunResult:
    """Run a scenario under a controller and collect the results.

    All knobs are keyword-only and shared with
    :func:`run_scenario_batch` — see :class:`RunConfig` for the full
    set, defaults and validation.  The ones used most:

    Parameters
    ----------
    scenario:
        The scenario to simulate (the only positional argument).
    controller:
        Controller name (see :data:`repro.control.factory.CONTROLLER_NAMES`).
    controller_params:
        Keyword parameters for the controller (e.g. ``period=16`` for
        the fixed-slot baselines).
    duration:
        Simulation horizon in seconds; defaults to the scenario's.
    engine:
        An engine name from :data:`repro.core.engine.ENGINE_NAMES`
        (default ``"meso"``).  A batch engine runs the scenario as a
        batch of one through :func:`run_scenario_batch`; a serial
        engine offering the ``controller_arrays()`` façade is decided
        by a B=1 batch kernel (see the module docstring).
    mini_slot:
        The control mini-slot ``Delta_t`` (s); controllers are invoked
        once per mini-slot.
    record_phases:
        Node ids whose applied-phase traces should be recorded
        (Figs. 3-4).
    record_queues:
        ``(node_id, in_road)`` pairs whose total stop-line queue should
        be sampled every ``queue_sample_interval`` seconds (Fig. 5).
    """
    config = RunConfig.resolve("meso", knobs)
    if has_batch_engine(config.engine):
        return run_scenario_batch([scenario], config=config)[0]
    horizon = config.horizon(scenario)
    check_positive("duration", horizon)

    # A bad controller spec fails before the engine is built; the built
    # engine then says which loop drives it.
    params = config.controller_params or {}
    check_controller(config.controller, params)
    sim: SimulationEngine = build_engine(scenario, config.engine)
    decide = serial_decider(
        sim, config.engine, scenario.network, config.controller, **params
    )
    mini_slot = config.mini_slot
    queue_sample_interval = config.queue_sample_interval
    phase_traces = {
        node_id: PhaseTrace(node_id) for node_id in config.record_phases
    }
    queue_traces = {
        (node_id, road): QueueTrace(road_id=road)
        for node_id, road in config.record_queues
    }
    next_queue_sample = 0.0

    steps = int(round(horizon / mini_slot))
    for _ in range(steps):
        now = sim.time
        decisions = decide()
        for node_id, trace in phase_traces.items():
            # The simulator treats intersections missing from the
            # decision map as showing amber; record the same.
            trace.record(
                now, decisions.get(node_id, TRANSITION_PHASE_INDEX)
            )
        if queue_traces and now >= next_queue_sample:
            for (node_id, road), trace in queue_traces.items():
                trace.sample(now, sim.incoming_queue_total(road))
            next_queue_sample = next_grid_sample(now, queue_sample_interval)
        sim.step(mini_slot, decisions)

    sim.finalize()
    return RunResult(
        scenario_name=scenario.name,
        controller_name=config.controller,
        duration=horizon,
        summary=sim.collector.summary(horizon),
        phase_traces=phase_traces,
        queue_traces=queue_traces,
        utilization=dict(sim.utilization),
        vehicles_in_network=sim.vehicles_in_network(),
        backlog=sim.backlog_size(),
    )


def _extend_queue_traces(
    queue_traces: Sequence[Dict[Tuple[str, str], QueueTrace]],
    roads: Sequence[str],
    times: Sequence[float],
    block: np.ndarray,
) -> None:
    """Append a batch run's queue samples to every replication's traces.

    ``block`` holds one stop-line total per ``(sample time, road,
    replication)``; the result equals sampling each trace at each time.
    """
    # The first negative in sampling order (time, replication, road).
    negative = np.argwhere(block.transpose(0, 2, 1) < 0)
    if len(negative):
        t, b, r = negative[0]
        raise ValueError(
            f"queue length must be >= 0, got {int(block[t, r, b])}"
        )
    # values[road][replication] is that trace's series, as floats.
    values = block.transpose(1, 2, 0).astype(np.float64).tolist()
    column = {road: r for r, road in enumerate(roads)}
    for b, traces in enumerate(queue_traces):
        for (_, road), trace in traces.items():
            series = trace.series
            series.times.extend(times)
            series.values.extend(values[column[road]][b])


def run_scenario_batch(scenarios: Sequence[Scenario], **knobs: Any) -> list:
    """Run many replications of one scenario shape in a single batch engine.

    All knobs are keyword-only and identical to :func:`run_scenario`'s
    (see :class:`RunConfig`); only the default ``engine`` differs
    (``"meso-vec"``).  Unknown knobs and bad controller specs are
    rejected before the batch engine is built.

    ``scenarios`` share the workload shape (same network, demand and
    turning model — typically one :class:`Scenario` per seed); each
    replication is decided exactly as :func:`run_scenario` would decide
    it alone.  Returns one :class:`RunResult` per scenario, in order,
    and — by the batch engines' parity contract — each result equals
    the single-run result for that scenario and engine.

    The closed loop runs *batched*: one
    :class:`~repro.control.batch.BatchNetworkController` kernel computes
    every replication's decisions on the engine's internal arrays (the
    ``controller_arrays`` façade).  The kernels are
    decision-for-decision identical to the serial controllers.  An
    engine whose ``movement_layout`` disagrees with the kernel's is
    rejected with ``ValueError`` before the first step.
    """
    config = RunConfig.resolve("meso-vec", knobs)
    if not scenarios:
        return []
    first = scenarios[0]
    horizon = config.horizon(first)
    check_positive("duration", horizon)
    controller = config.controller
    controller_params = config.controller_params
    mini_slot = config.mini_slot
    record_phases = config.record_phases
    record_queues = config.record_queues
    queue_sample_interval = config.queue_sample_interval

    # Controller first: its builder validates the name and parameters,
    # so a bad controller spec fails before the batch engine is built.
    batch_controller = build_batch_controller(
        controller, first.network, len(scenarios), **(controller_params or {})
    )
    sim: BatchEngine = build_batch_engine(scenarios, config.engine)
    _check_layout(sim, batch_controller, config.engine)
    node_column = {
        node_id: i for i, node_id in enumerate(batch_controller.node_ids)
    }
    phase_traces = [
        {node_id: PhaseTrace(node_id) for node_id in record_phases}
        for _ in scenarios
    ]
    queue_traces = [
        {
            (node_id, road): QueueTrace(road_id=road)
            for node_id, road in record_queues
        }
        for _ in scenarios
    ]
    # Queue samples are kept as one (roads, B) block per sample time and
    # written into the traces once, after the run.
    sampled_roads = list(dict.fromkeys(road for _, road in record_queues))
    sample_times = []
    sample_blocks = []
    next_queue_sample = 0.0

    steps = int(round(horizon / mini_slot))
    for _ in range(steps):
        now = sim.time
        decisions = batch_controller.decide_batch(sim.controller_arrays())
        for b, traces in enumerate(phase_traces):
            for node_id, trace in traces.items():
                # Nodes outside the network show amber, as in run_scenario.
                column = node_column.get(node_id)
                trace.record(
                    now,
                    TRANSITION_PHASE_INDEX
                    if column is None
                    else int(decisions[b, column]),
                )
        if record_queues and now >= next_queue_sample:
            sample_times.append(float(now))
            sample_blocks.append(
                [sim.incoming_queue_total(road) for road in sampled_roads]
            )
            next_queue_sample = next_grid_sample(now, queue_sample_interval)
        sim.step(mini_slot, decisions)

    sim.finalize()
    if sample_times:
        _extend_queue_traces(
            queue_traces, sampled_roads, sample_times, np.array(sample_blocks)
        )
    summaries = sim.summaries(horizon)
    in_network = sim.vehicles_in_network()
    backlog = sim.backlog_size()
    return [
        RunResult(
            scenario_name=scenario.name,
            controller_name=controller,
            duration=horizon,
            summary=summaries[b],
            phase_traces=phase_traces[b],
            queue_traces=queue_traces[b],
            utilization=sim.utilization_of(b),
            vehicles_in_network=int(in_network[b]),
            backlog=int(backlog[b]),
        )
        for b, scenario in enumerate(scenarios)
    ]

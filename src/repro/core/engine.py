"""The formal simulation-engine contracts and the engine table.

Every plant the control loop can drive — the mesoscopic
store-and-forward simulator (``meso``), its counts-based fast variants
(``meso-counts``, ``meso-events``), the microscopic Krauss simulator
(``micro``), and any future backend (a real SUMO bridge, a
hardware-in-the-loop rig) — implements the :class:`SimulationEngine`
protocol:

* ``time`` — the current simulation clock (s);
* ``collector`` — the per-vehicle :class:`MetricsCollector`;
* ``utilization`` — per-intersection :class:`UtilizationTracker` map;
* ``observations()`` — ``Q(k)`` per intersection at the current time;
* ``step(dt, phases)`` — advance ``dt`` seconds under the given
  phase decisions (0 = transition/amber);
* ``finalize()`` — close the books (idempotent);
* ``incoming_queue_total(road_id)`` — stop-line queue of one road;
* ``vehicles_in_network()`` / ``backlog_size()`` — occupancy
  introspection used by the stability study.

A *batch* engine (``meso-vec``) steps B seed-replications of one
scenario at once and implements :class:`BatchEngine` instead.  It is
driven only through ``controller_arrays()`` (the array-shaped ``Q(k)``,
:class:`BatchControlArrays`, sensed on first read) and a
:class:`~repro.control.batch.BatchNetworkController` kernel; a single
run on it is a batch of one.  A built serial engine says how it is
driven: one that also offers ``controller_arrays()`` and
``movement_layout`` (``meso``, ``meso-events`` and ``micro``) is
decided by a B=1 kernel, every other one (``meso-counts``) through
``observations()`` and a :class:`~repro.control.base.NetworkController`.
Every array's columns are one network's :class:`FacadeTables` axis,
which the kernels read too; the built-in engines share the façade
itself through :class:`ArrayFacade`.  Controllers are not registered
here: :mod:`repro.control.factory` holds the one controller table.

Experiments, the orchestration pool and the CLI select an engine by
name: :data:`ENGINE_TABLE` is the one list of engines, serial and
batch, and :func:`build_engine` / :func:`build_batch_engine` import an
engine's module only when they build it.
"""

from __future__ import annotations

import pkgutil
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    runtime_checkable,
)

import numpy as np

from repro.metrics.collector import MetricsCollector, Summary
from repro.metrics.utilization import UtilizationTracker
from repro.model.network import BOUNDARY, Network
from repro.model.queues import QueueObservation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.scenarios.core import Scenario

__all__ = [
    "SimulationEngine",
    "BatchEngine",
    "BatchControlArrays",
    "FacadeTables",
    "ArrayFacade",
    "ENGINE_TABLE",
    "ENGINE_NAMES",
    "build_engine",
    "has_batch_engine",
    "build_batch_engine",
]


class BatchControlArrays:
    """The batched ``Q(k)``: one mini-slot's sensor view for all B reps.

    The movement axis follows the producing engine's canonical layout:
    node-major over ``network.intersections`` order, movements in each
    intersection's declaration order — the same layout
    :class:`~repro.control.batch.BatchNetworkController` derives from
    the network, so the two sides agree by construction (and verify it
    once via ``movement_keys``).

    ``time`` and ``shape`` are known at once; the arrays are sensed on
    first read.  Reading ``queues`` or ``out_queues`` calls the
    engine's ``sense_arrays()`` once and caches the pair, so a kernel
    that never reads them (fixed-time, or a fixed-slot kernel on a slot
    where no slot ended) costs the engine no sensing at all.  The view
    is valid until the engine's next ``step()``: a read after that
    raises :class:`RuntimeError` instead of returning later state.

    The arrays themselves never change: ``sense_arrays()`` returns
    read-only snapshots (writing to one raises) that no later step
    changes.  The util-bp kernel relies on it: it keeps the previous
    call's arrays to find the cells whose inputs changed.

    Attributes
    ----------
    time:
        The observation time ``t_k`` (shared by every replication).
    shape:
        ``(B, n_movements)`` — the shape of both arrays.
    queues:
        ``q_i^{i'}(k)`` — ``(B, n_movements)`` sensed movement queues
        (including units inside the engine's sensing horizon, exactly
        as the per-replication observations report them).
    out_queues:
        ``q_{i'}(k)`` — ``(B, n_movements)`` outgoing-road queue seen
        by each movement, from the engine's spillback sensor.
    """

    __slots__ = ("time", "shape", "_engine", "_sensed")

    def __init__(self, engine: Any, shape: Tuple[int, int]):
        self.time: float = engine.time
        self.shape = shape
        self._engine = engine
        self._sensed: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _read(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._engine.time != self.time:
            raise RuntimeError(
                f"controller arrays sensed for t={self.time} read after "
                f"the engine stepped to t={self._engine.time}; read them "
                f"before step()"
            )
        sensed = self._sensed
        if sensed is None:
            sensed = self._sensed = self._engine.sense_arrays()
        return sensed

    @property
    def queues(self) -> np.ndarray:
        """Sensed movement queues, ``(B, n_movements)``."""
        return self._read()[0]

    @property
    def out_queues(self) -> np.ndarray:
        """Sensed outgoing-road queue of each movement, ``(B, n_movements)``."""
        return self._read()[1]


class FacadeTables:
    """The movement axis of one network: every controller array's columns.

    Column ``m`` is a movement, node-major over ``network.intersections``
    order with each intersection's movements in declaration order.  This
    is the one place the axis is enumerated: the batch controller
    kernels, ``meso-vec``, the B=1 façades of ``meso``, ``meso-events``
    and ``micro`` and ``meso-counts``' credit index all read it from
    here, so their arrays align column for column by construction.
    :meth:`observations` is the dict view of a sensed pair, the
    ``observations()`` of ``micro``, ``meso-events`` and ``meso-vec``.

    The axis depends on the network alone, so it is built once per
    network (:meth:`~repro.model.network.Network.derived`) and shared;
    every array is C-contiguous and read-only.  Roads are numbered in
    ``network.roads`` order.
    """

    @classmethod
    def of(cls, network: Network) -> "FacadeTables":
        """The shared tables of ``network``."""
        return network.derived(cls, lambda: cls(network))

    def __init__(self, network: Network):
        road_pos = {road_id: i for i, road_id in enumerate(network.roads)}
        capacity = [road.capacity for road in network.roads.values()]
        keys: List[Tuple[str, str]] = []
        node, in_road, out_road, rate = [], [], [], []
        #: Per road feeding an intersection: movement column of each
        #: next road.
        self.columns_of_road: Dict[str, Dict[str, int]] = {}
        #: Per road feeding an intersection: position of that
        #: intersection in ``network.intersections``.
        self.pos_of_road: Dict[str, int] = {}
        #: Per intersection position: the node's ``(first, end)`` column
        #: span (contiguous, as the layout is node-major).
        self.node_spans: List[Tuple[int, int]] = []
        # observations(): per intersection, node id, keys, column span and
        # each out-road's column (the first movement onto it; -1: exit).
        self._observation_plan: List[tuple] = []
        self._unread_out_road: Optional[str] = None
        for pos, intersection in enumerate(network.intersections.values()):
            first = len(keys)
            column_onto: Dict[str, int] = {}
            for key, movement in intersection.movements.items():
                columns = self.columns_of_road.setdefault(movement.in_road, {})
                columns[movement.out_road] = len(keys)
                column_onto.setdefault(movement.out_road, len(keys))
                self.pos_of_road[movement.in_road] = pos
                keys.append(key)
                node.append(pos)
                in_road.append(road_pos[movement.in_road])
                out_road.append(road_pos[movement.out_road])
                rate.append(movement.service_rate)
            self.node_spans.append((first, len(keys)))
            out_columns = []
            for road_id in intersection.out_roads:
                column = column_onto.get(road_id, -1)
                if network.road_destination[road_id] == BOUNDARY:
                    column = -1
                elif column < 0:
                    self._unread_out_road = (
                        f"out-road {road_id!r} of intersection "
                        f"{intersection.node_id!r} is no movement's out-road: "
                        f"no column reads its out-queue"
                    )
                out_columns.append((road_id, column))
            self._observation_plan.append(
                (intersection.node_id, tuple(keys[first:]), first, len(keys),
                 tuple(out_columns))
            )
        self.node_ids: Tuple[str, ...] = tuple(network.intersections)
        self.movement_keys: Tuple[Tuple[str, str], ...] = tuple(keys)
        #: ``(node_ids, movement_keys)`` — the arrays' column order.
        self.movement_layout = (self.node_ids, self.movement_keys)
        self.n_movements = len(keys)
        #: Node position of each column.
        self.m_node = np.array(node, dtype=np.int64)
        #: In-road and out-road of each column, as ``network.roads``
        #: positions.
        self.m_in_road = np.array(in_road, dtype=np.int64)
        self.m_out_road = np.array(out_road, dtype=np.int64)
        #: Plant constants per column: in- and out-road capacity ``W``
        #: and the movement's service rate ``mu``.
        capacity = np.array(capacity, dtype=np.int64)
        self.m_in_cap = capacity[self.m_in_road]
        self.m_out_cap = capacity[self.m_out_road]
        self.m_rate = np.array(rate, dtype=np.float64)
        #: Movement columns reading each non-exit road's spillback
        #: sensor (exit roads always read 0).
        columns_of: Dict[str, List[int]] = {}
        for column, (_, out_road_id) in enumerate(keys):
            if network.road_destination[out_road_id] != BOUNDARY:
                columns_of.setdefault(out_road_id, []).append(column)
        self.spillback_columns = {
            road: np.array(columns, dtype=np.int64)
            for road, columns in columns_of.items()
        }
        #: The ``out_queues`` of a slot on which no out-road is full.
        self.no_out_queues = np.zeros((1, len(keys)), np.int64)
        shared = [*vars(self).values(), *self.spillback_columns.values()]
        for value in shared:
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def observations(
        self, time: float, queues: np.ndarray, out_queues: np.ndarray
    ) -> List[Dict[str, QueueObservation]]:
        """``Q(k)`` maps of a sensed ``(queues, out_queues)`` pair, per row.

        The dict view of what ``sense_arrays()`` returned: per
        intersection, its movement queues and the out-queue of every
        road in its ``out_roads``.  An exit road reads 0; any other
        reads the spillback reading of its movement columns.  Raises
        ``ValueError`` naming a non-exit out-road that no movement
        column reads (no catalog network or paper pattern has one).
        """
        if self._unread_out_road is not None:
            raise ValueError(self._unread_out_road)
        trusted = QueueObservation.trusted
        return [
            {
                node_id: trusted(
                    time,
                    dict(zip(keys, row[first:end])),
                    {road_id: out_row[column] if column >= 0 else 0
                     for road_id, column in out_columns},
                )
                for node_id, keys, first, end, out_columns in self._observation_plan
            }
            for row, out_row in zip(queues.tolist(), out_queues.tolist())
        ]

    def out_queue_row(self, readings: Iterable[Tuple[str, int]]) -> np.ndarray:
        """A B=1 read's ``out_queues``: ``(road, reading)`` spillbacks.

        Each road's spillback columns hold its reading and every other
        column reads 0; a road without spillback columns (an entry or
        exit road) is skipped.  With nothing to write this is the
        shared :attr:`no_out_queues` row, so a kernel sees the same
        object on every uncongested slot.  The row is read-only.
        """
        row = self.no_out_queues
        for road_id, reading in readings:
            columns = self.spillback_columns.get(road_id)
            if columns is None:
                continue
            if row is self.no_out_queues:
                row = np.zeros_like(row)
            row[0, columns] = reading
        row.flags.writeable = False
        return row


class ArrayFacade:
    """``movement_layout`` and ``controller_arrays()`` over FacadeTables.

    The part of the controller-array façade every engine that offers it
    shares (``meso``, ``meso-events``, ``micro`` and ``meso-vec``): the
    engine calls :meth:`_bind_tables` once at construction and defines
    ``sense_arrays()``; the façade's columns are its network's
    :class:`FacadeTables` axis.
    """

    _tables: FacadeTables
    _array_shape: Tuple[int, int]

    def _bind_tables(self, network: Network, rows: int = 1) -> FacadeTables:
        """Share ``network``'s axis; the arrays get ``rows`` rows."""
        tables = self._tables = FacadeTables.of(network)
        self._array_shape = (rows, tables.n_movements)
        return tables

    @property
    def movement_layout(self) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]]:
        """``(node_ids, movement_keys)`` — the column order of the arrays.

        The same tuples the batch controller kernels read from the same
        network; the runner compares the two once before the first step.
        """
        return self._tables.movement_layout

    def controller_arrays(self) -> BatchControlArrays:
        """``Q(k)`` as a ``(rows, n_movements)`` façade for a kernel.

        Sensed on first read (``sense_arrays()``), valid until the
        engine's next ``step()``.
        """
        return BatchControlArrays(self, self._array_shape)


@runtime_checkable
class SimulationEngine(Protocol):
    """Structural contract every simulation backend must satisfy."""

    time: float
    collector: MetricsCollector
    utilization: Dict[str, UtilizationTracker]

    def observations(self) -> Dict[str, QueueObservation]:
        """Build ``Q(k)`` for every intersection at the current time."""
        ...

    def step(self, dt: float, phases: Mapping[str, int]) -> None:
        """Advance by ``dt`` seconds under the given phase decisions."""
        ...

    def finalize(self) -> None:
        """Close the metric books; must be safe to call repeatedly."""
        ...

    def incoming_queue_total(self, road_id: str) -> int:
        """Total queued vehicles at the stop line of one road."""
        ...

    def vehicles_in_network(self) -> int:
        """Total vehicles currently inside the network."""
        ...

    def backlog_size(self) -> int:
        """Vehicles generated but still gated outside a full entry."""
        ...


@runtime_checkable
class BatchEngine(Protocol):
    """Contract of a backend that steps many replications at once.

    A batch engine advances ``batch_size`` independent replications of
    *one* scenario shape (same network/demand/turning, one seed per
    replication) on a shared clock.  Replications never interact: the
    results of replication ``b`` are independent of the batch size and
    of the other seeds — which is what lets the orchestration pool fan
    a batch back into the same per-seed result rows a serial sweep
    would have produced.

    The control loop sees the whole batch as arrays:
    ``controller_arrays()`` is every replication's ``Q(k)`` with
    movement columns in ``movement_layout`` order — a
    :class:`BatchControlArrays` whose arrays ``sense_arrays()`` computes
    only when a kernel reads them — ``step`` takes the
    ``(batch_size, n_nodes)`` phase decisions of a batch kernel, and
    the introspection methods return one value per replication.
    """

    time: float
    batch_size: int
    seeds: tuple
    #: ``(node_ids, movement_keys)`` — the column order of the arrays.
    movement_layout: Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]]

    def controller_arrays(self) -> BatchControlArrays:
        """The batched ``Q(k)`` at the current time, sensed on first read."""
        ...

    def sense_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(queues, out_queues)`` now, read-only: what the façade reads."""
        ...

    def step(self, dt: float, phases: np.ndarray) -> None:
        """Advance every replication by ``dt`` under its own phases."""
        ...

    def finalize(self) -> None:
        """Close the metric books; must be safe to call repeatedly."""
        ...

    def summaries(self, duration: Optional[float] = None) -> List[Summary]:
        """Per-replication run summaries, in batch order."""
        ...

    def utilization_of(self, replication: int) -> Dict[str, UtilizationTracker]:
        """One replication's per-intersection utilization books."""
        ...

    def incoming_queue_total(self, road_id: str) -> Sequence[int]:
        """Stop-line queue of one road, per replication."""
        ...

    def vehicles_in_network(self) -> Sequence[int]:
        """Vehicles currently inside the network, per replication."""
        ...

    def backlog_size(self) -> Sequence[int]:
        """Vehicles gated outside a full entry, per replication."""
        ...


# -- the engine table ---------------------------------------------------------


#: Every engine, by name: the ``module:attribute`` of a serial engine's
#: class (built by :func:`~repro.model.plant.scenario_builder`) or of a
#: batch engine's builder (``builder(scenarios) -> BatchEngine``), and
#: whether it is a batch engine.  A module is imported only when one of
#: its engines is built: meso-only users never pay the microscopic
#: import.  Single runs on a batch engine go through the batch loop
#: with B=1, so its name is valid everywhere an engine name is.
ENGINE_TABLE: Dict[str, Tuple[str, bool]] = {
    "meso": ("repro.meso.simulator:MesoSimulator", False),
    "meso-counts": ("repro.meso.counts:CountsSimulator", False),
    "meso-events": ("repro.meso.events:EventCountsSimulator", False),
    "meso-vec": ("repro.meso.vectorized:_batch_from_scenarios", True),
    "micro": ("repro.micro.simulator:MicroSimulator", False),
}

#: Every engine name, serial and batch.
ENGINE_NAMES = tuple(sorted(ENGINE_TABLE))


def _engine_target(name: str, batch: bool) -> Any:
    """The class or builder behind ``name``, if it is of the asked kind."""
    target, is_batch = ENGINE_TABLE.get(name, (None, None))
    if target is None or is_batch != batch:
        kind = "batch engine" if batch else "engine"
        known = [n for n, (_, b) in ENGINE_TABLE.items() if b == batch]
        raise ValueError(f"unknown {kind} {name!r}; known: {known}")
    return pkgutil.resolve_name(target)


def build_engine(scenario: "Scenario", engine: str = "meso") -> SimulationEngine:
    """Instantiate a serial simulation engine for a scenario by name."""
    if has_batch_engine(engine):
        raise ValueError(
            f"{engine!r} is a batch engine: use build_batch_engine([scenario]) "
            f"or run_scenario"
        )
    from repro.model.plant import scenario_builder

    return scenario_builder(_engine_target(engine, batch=False))(scenario)


def has_batch_engine(name: str) -> bool:
    """Whether ``name`` can step whole seed-batches in one engine."""
    return ENGINE_TABLE.get(name, ("", False))[1]


def build_batch_engine(
    scenarios: Sequence["Scenario"], engine: str = "meso-vec"
) -> BatchEngine:
    """Instantiate a batch engine over one scenario per replication.

    ``scenarios`` is one :class:`Scenario` per replication — same
    workload shape, one seed each.
    """
    if not scenarios:
        raise ValueError("a batch needs at least one scenario")
    return _engine_target(engine, batch=True)(scenarios)

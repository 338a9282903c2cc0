"""The formal simulation-engine contracts and the engine registry.

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
``movement_layout`` (``meso``, ``meso-events`` and ``micro``, which
share their static columns through :class:`FacadeTables`) is decided
by a B=1 kernel, every other one (``meso-counts``) through
``observations()`` and a :class:`~repro.control.base.NetworkController`.  Controllers are not
registered here: :mod:`repro.control.factory` holds the one controller
table.

Engines are registered by name so experiments, the orchestration pool
and the CLI can select them with a string; :func:`engine_names` and
:func:`provider_module` cover both kinds.  The built-in engines are
imported lazily: meso-only users never pay the microscopic import.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
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
    "Registry",
    "ENGINES",
    "BATCH_ENGINES",
    "ENGINE_NAMES",
    "register_engine",
    "engine_names",
    "provider_module",
    "build_engine",
    "register_batch_engine",
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
        by each movement, under the engine's out-queue sensing mode.
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
    """The static controller-array columns of one network.

    Column indices depend on the network alone, so they are built once
    per network (:meth:`~repro.model.network.Network.derived`) and
    shared, read-only, by every serial engine on it that offers the
    B=1 façade (``meso``, ``meso-events``, ``micro``); each engine
    pairs them with its own per-road state.
    """

    @classmethod
    def of(cls, network: Network) -> "FacadeTables":
        """The shared tables of ``network``."""
        return network.derived(cls, lambda: cls(network))

    def __init__(self, network: Network):
        movement_keys = tuple(
            key
            for intersection in network.intersections.values()
            for key in intersection.movements
        )
        #: ``(node_ids, movement_keys)`` — the arrays' column order.
        self.movement_layout = (tuple(network.intersections), movement_keys)
        #: Per road feeding an intersection: movement column of each
        #: next road.
        self.columns_of_road: Dict[str, Dict[str, int]] = {}
        #: Per road feeding an intersection: position of that
        #: intersection in ``network.intersections``.
        self.pos_of_road: Dict[str, int] = {}
        #: Per intersection position: the node's ``(first, end)`` column
        #: span (contiguous, as the layout is node-major).
        self.node_spans: List[Tuple[int, int]] = []
        column = 0
        for pos, intersection in enumerate(network.intersections.values()):
            first = column
            for in_road, out_road in intersection.movements:
                self.columns_of_road.setdefault(in_road, {})[out_road] = column
                self.pos_of_road[in_road] = pos
                column += 1
            self.node_spans.append((first, column))
        #: Movement columns reading each non-exit road's spillback
        #: sensor (exit roads always read 0).
        columns_of: Dict[str, List[int]] = {}
        for column, (_, out_road) in enumerate(movement_keys):
            if network.road_destination[out_road] != BOUNDARY:
                columns_of.setdefault(out_road, []).append(column)
        self.spillback_columns = {
            road: np.array(columns, dtype=np.int64)
            for road, columns in columns_of.items()
        }
        for columns in self.spillback_columns.values():
            columns.flags.writeable = False
        #: The ``out_queues`` of a slot on which no out-road is full.
        self.no_out_queues = np.zeros((1, len(movement_keys)), np.int64)
        self.no_out_queues.flags.writeable = False


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


# -- the registry primitive ---------------------------------------------------


class Registry:
    """A lazily-importing name -> builder registry.

    One primitive behind the engine and batch-engine registries:

    * ``register(name, builder)`` — add or override a constructor;
    * ``has(name)`` / ``names()`` — membership and the sorted union of
      live registrations and known built-ins;
    * ``build(name, *args, **kwargs)`` — construct, importing the
      built-in provider module first if the name is not yet live
      (built-ins register themselves at import time);
    * ``provider_module(name)`` — the module a worker process must
      import to re-establish the registration (``spawn`` workers start
      with a fresh registry).  The live registration wins over the
      built-in mapping — a plugin overriding a built-in name must run
      its own code in workers too — and builders defined in
      ``__main__`` return ``None`` (not importable elsewhere).

    ``kind`` only labels error messages (e.g. ``"batch engine"``).
    """

    def __init__(self, kind: str, builtin_modules: Mapping[str, str]):
        self.kind = kind
        self.builtin_modules = dict(builtin_modules)
        self.builders: Dict[str, Callable[..., Any]] = {}

    def register(self, name: str, builder: Callable[..., Any]) -> None:
        """Register a constructor under ``name`` (overrides allowed)."""
        self.builders[name] = builder

    def has(self, name: str) -> bool:
        """Whether ``name`` is live-registered or a known built-in."""
        return name in self.builders or name in self.builtin_modules

    def names(self) -> tuple:
        """All currently selectable names (built-in + registered)."""
        return tuple(sorted(set(self.builders) | set(self.builtin_modules)))

    def provider_module(self, name: str) -> Optional[str]:
        """The module whose import registers ``name`` (if known)."""
        builder = self.builders.get(name)
        if builder is not None:
            module = getattr(builder, "__module__", None)
            return None if module == "__main__" else module
        return self.builtin_modules.get(name)

    def load(self, name: str) -> None:
        """Import the built-in provider of ``name`` if it is not live yet."""
        if name not in self.builders and name in self.builtin_modules:
            # Importing the module registers the builder.
            import importlib

            importlib.import_module(self.builtin_modules[name])

    def build(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Construct ``name``, importing its built-in provider if needed."""
        self.load(name)
        try:
            builder = self.builders[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; known: {list(self.names())}"
            )
        return builder(*args, **kwargs)


#: Serial engine constructors (``builder(scenario) -> SimulationEngine``).
ENGINES = Registry(
    "engine",
    {
        "meso": "repro.meso.simulator",
        "meso-counts": "repro.meso.counts",
        "meso-events": "repro.meso.events",
        "micro": "repro.micro.simulator",
    },
)

#: Batch-engine constructors (``builder(scenarios) -> BatchEngine``).
#: Single runs on these names go through the batch loop with B=1, so
#: they are selectable everywhere an engine name is (see
#: :func:`engine_names`).
BATCH_ENGINES = Registry(
    "batch engine",
    {
        "meso-vec": "repro.meso.vectorized",
    },
)

#: The engine names the CLI offers (built-ins; plugins add more).
ENGINE_NAMES = tuple(
    sorted(set(ENGINES.builtin_modules) | set(BATCH_ENGINES.builtin_modules))
)


# -- engines (thin delegates onto the registry) -------------------------------


def register_engine(
    name: str, builder: Callable[["Scenario"], SimulationEngine]
) -> None:
    """Register an engine constructor (``builder(scenario) -> engine``).

    An engine whose instances also offer the B=1 ``controller_arrays()``
    / ``movement_layout`` façade of :class:`BatchEngine` is decided by
    a batch controller kernel; the runner sees that on the built engine.
    """
    ENGINES.register(name, builder)


def engine_names() -> tuple:
    """All currently selectable engine names, serial and batch."""
    return tuple(sorted(set(ENGINES.names()) | set(BATCH_ENGINES.names())))


def provider_module(name: str) -> Optional[str]:
    """The module whose import registers engine ``name`` (if known).

    Worker processes under the ``spawn`` start method begin with a
    fresh registry; importing this module there re-establishes the
    registration (engines register at import time, like the
    built-ins).  Batch-engine names resolve too.  Returns ``None`` for
    unregistered names or builders defined in ``__main__`` (not
    importable elsewhere).
    """
    if ENGINES.has(name):
        return ENGINES.provider_module(name)
    return BATCH_ENGINES.provider_module(name)


def build_engine(scenario: "Scenario", engine: str = "meso") -> SimulationEngine:
    """Instantiate a serial simulation engine for a scenario by name."""
    if not ENGINES.has(engine) and BATCH_ENGINES.has(engine):
        raise ValueError(
            f"{engine!r} is a batch engine: use build_batch_engine([scenario]) "
            f"or run_scenario"
        )
    return ENGINES.build(engine, scenario)


# -- batch engines -----------------------------------------------------------


def register_batch_engine(
    name: str, builder: Callable[[Sequence["Scenario"]], BatchEngine]
) -> None:
    """Register a batch-engine constructor (``builder(scenarios) -> engine``).

    ``scenarios`` is one :class:`Scenario` per replication — same
    workload shape, one seed each.  The name is then valid wherever an
    engine name is: single runs execute as a batch of one.
    """
    BATCH_ENGINES.register(name, builder)


def has_batch_engine(name: str) -> bool:
    """Whether ``name`` can step whole seed-batches in one engine."""
    return BATCH_ENGINES.has(name)


def build_batch_engine(
    scenarios: Sequence["Scenario"], engine: str = "meso-vec"
) -> BatchEngine:
    """Instantiate a batch engine over one scenario per replication."""
    if not scenarios:
        raise ValueError("a batch needs at least one scenario")
    return BATCH_ENGINES.build(engine, scenarios)


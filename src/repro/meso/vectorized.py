"""The vectorized batch engine (``"meso-vec"``): whole seed-batches at once.

:class:`~repro.meso.counts.CountsSimulator` made one replication ~6x
cheaper than the reference engine, but a sweep still pays the full
Python step loop once per seed: cost stays linear in
``seeds x scenarios``.  Replication statistics (mean/std/CI across
seeds) sharpen with the replication count, so the step loop itself is
the scaling bottleneck.

:class:`BatchCountsSimulator` lifts the identical Eq.-2
store-and-forward count dynamics onto NumPy arrays of shape
``(B, n_roads)`` / ``(B, n_movements)`` and advances ``B``
*independent* replications of one scenario shape per step:

* queue lengths, road occupancies, service credits, phase state and
  the utilization books are batched arrays updated with a fixed number
  of vectorized operations per mini-slot (independent of ``B``);
* arrival counts are drawn ahead in windows of
  :data:`~repro.model.arrivals.ARRIVAL_WINDOW` slots, one
  ``sample_count_block`` call per replication's own
  :class:`~repro.model.arrivals.PoissonArrivals` and entry road (see
  below), and kept as each slot's list of ``(entry pair, count)``
  events, so a step visits only the entries with an arrival or a
  standing backlog;
* spillback sensing is a masked array comparison
  (``occupancy >= capacity``) instead of a maintained set;
* per-replication aggregate metrics are integrated by a
  :class:`~repro.metrics.aggregate.BatchAggregateMetricsCollector`.

**Batch RNG layout.**  Replication ``b`` owns the seeded traffic a
serial run would have: :func:`~repro.model.plant.seeded_traffic` of
``seeds[b]``, the route sampler on ``routing`` and one Poisson process
on ``arrivals/<road>`` per demand entry.  Nothing is ever drawn across
replications from a shared generator, which is what makes results
independent of the batch size: replication ``b`` of a ``B=16`` batch
draws exactly what it would draw alone.

**Exact sequential-serve parity.**  Within one mini-slot the reference
engines serve movements *sequentially* — a movement served earlier can
fill (or free) a downstream road that a movement served later reads
through its ``space`` term.  Naive whole-array vectorization would
evaluate every movement against pre-step occupancy and diverge under
congestion.  Instead, the constructor partitions the movements into
*stages* by a static read-after-write hazard analysis: movement ``m``
is placed after every potentially co-active movement that precedes it
in the reference serve order and writes the occupancy ``m`` reads.
On a slot where some downstream space binds, the serve pass takes the
live cells of each stage in ascending order, each stage served at once
on the same flat cells as the uncongested pass (see below) and its
occupancy change applied before the next stage reads space; within a
stage no movement reads a location an earlier same-stage movement
writes, and the remaining writes commute — so the staged result equals
the sequential result *exactly*, spillback included.

**Work in proportion to the traffic.**  Under closed-loop control
every replication runs its own phase pattern, so a step touches only
the cells that need it.  The serve pass runs on the *live* cells —
(replication, movement) pairs that are eligible to serve and either
queue a vehicle or hold less credit than the bank — found with one
mask and one ``nonzero``; the fast path serves them in one shot and
the stages above split them when a downstream space binds.  A
phase switch validates and re-arms only the switched (replication,
node) cells.  Every per-cell constant the serve reads (replication,
node cell, flat in- and out-road, out-capacity, accrual, bank) comes
from flat ``B * n_movements`` tables built at the first step, and the
per-unit loops (arrival, promotion, transfer) write the counters of
the entries and FIFOs they touch with scalar writes, so a slot's fixed
cost is a few dozen array operations however many replications it
steps.
``fast_slots``, ``staged_slots`` and ``cells_served`` count what the
serve did.

**Contract.**  ``meso-vec`` at ``B=1`` is step-for-step identical to
``meso-counts`` under the same seed (observations, occupancies,
utilization books, entered/left and the waiting-time integral), and
replication results are independent of ``B`` — the parity suite in
``tests/test_engine_parity.py`` asserts both.  Like ``meso-counts`` it
reports ``delay_mode="aggregate"`` and has only the paper's dedicated
lanes (shared-lane head-of-line blocking is inherently per-vehicle;
``meso`` models it).  The batch steps on a *constant* mini-slot:
``dt`` is fixed by the first ``step`` call (the pulled-ahead arrival
windows are drawn for that grid; a varying ``dt`` would consume draws
a serial run would not have made).

**Control.**  The runner drives the batch only through
:meth:`~BatchCountsSimulator.controller_arrays` and a batch controller
kernel; a single ``run_scenario`` on ``meso-vec`` is a batch of one.
The arrays' movement columns are the network's
:class:`~repro.core.engine.FacadeTables` axis, the one the kernels
read, so engine and kernel align by construction.
:meth:`~BatchCountsSimulator.sense_arrays` is the engine's one
sensor; :meth:`~BatchCountsSimulator.observations` is its
per-replication ``QueueObservation`` view
(:meth:`~repro.core.engine.FacadeTables.observations`), the one the
parity suites compare with ``meso-counts``' dict sensor.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.engine import ArrayFacade, FacadeTables
from repro.metrics.aggregate import BatchAggregateMetricsCollector
from repro.metrics.collector import Summary
from repro.metrics.utilization import UtilizationTracker
from repro.model.arrivals import (
    ARRIVAL_WINDOW,
    ArrivalSchedule,
    PoissonArrivals,
    SlotGrid,
)
from repro.model.network import BOUNDARY, Network
from repro.model.phases import TRANSITION_PHASE_INDEX
from repro.model.plant import PlantConstants, seeded_traffic
from repro.model.queues import QueueObservation
from repro.model.routing import RouteSampler, TurningProbabilities
from repro.util.validation import check_positive

__all__ = ["BatchCountsSimulator"]

def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` made read-only: shared tables must never be written."""
    array.flags.writeable = False
    return array


class _ColumnTables:
    """meso-vec's static tables of one network, on its movement axis.

    The movement axis — node ids, movement keys, each column's node,
    in-road, out-road and out-road capacity — is the network's
    :class:`~repro.core.engine.FacadeTables`, shared with the
    controller kernels.  On top of it this adds what only meso-vec
    reads: the road tables, the phase tables, the hazard stages, the
    promote plan, the stop-line sum plan and the routes' next-hop maps.
    Everything here depends on the network alone — no seed, batch size
    or plant parameter — so it is built once per network
    (:meth:`~repro.model.network.Network.derived`) and shared,
    read-only (the next-hop maps only grow), by every
    :class:`BatchCountsSimulator` on it.  Building raises
    ``ValueError`` for a phase layout meso-vec cannot batch.
    """

    def __init__(self, network: Network):
        axis = FacadeTables.of(network)
        # -- road tables ------------------------------------------------------
        road_ids = list(network.roads)
        self.road_ids = road_ids
        road_index = {road: i for i, road in enumerate(road_ids)}
        self.road_index = road_index
        self.caps = _frozen(
            np.array([network.roads[r].capacity for r in road_ids], dtype=np.int64)
        )
        is_exit_road = np.array(
            [network.road_destination[r] == BOUNDARY for r in road_ids]
        )

        # -- the movement axis ------------------------------------------------
        intersections = list(network.intersections.values())
        self.intersections = intersections
        N = len(intersections)
        M = axis.n_movements
        node_starts = [first for first, _ in axis.node_spans]
        self.node_starts = _frozen(np.array(node_starts, dtype=np.int64))
        self.node_widths = _frozen(
            np.array([end - first for first, end in axis.node_spans], np.int64)
        )
        out_idx = axis.m_out_road
        self.m_is_exit = _frozen(is_exit_road[out_idx])
        self.m_nonexit = _frozen(~is_exit_road[out_idx])
        columns_of_road = axis.columns_of_road

        # -- phase tables ----------------------------------------------------
        max_phase = np.empty(N, dtype=np.int64)
        offsets = np.empty(N, dtype=np.int64)
        total = 0
        for n, inter in enumerate(intersections):
            offsets[n] = total
            max_phase[n] = max(p.index for p in inter.phases)
            total += int(max_phase[n]) + 1
        self.phase_offsets = _frozen(offsets)
        self.max_phase = _frozen(max_phase)
        rate_sum = np.zeros(total, dtype=np.float64)
        valid = np.zeros(total, dtype=bool)
        valid[offsets] = True  # the transition phase is always applicable
        phase_pos = np.zeros(M, dtype=np.int64)
        phases_of: List[set] = [set() for _ in range(M)]
        for n, inter in enumerate(intersections):
            for phase in inter.phases:
                g = int(offsets[n]) + phase.index
                valid[g] = True
                rate_sum[g] = sum(m.service_rate for m in phase.movements)
                seen_out = set()
                for pos, movement in enumerate(phase.movements):
                    if movement.out_road in seen_out:
                        raise ValueError(
                            f"meso-vec: phase c{phase.index} at "
                            f"{inter.node_id} activates two movements onto "
                            f"{movement.out_road!r}; the push order of a "
                            f"shared outgoing road is not batchable"
                        )
                    seen_out.add(movement.out_road)
                    gid = columns_of_road[movement.in_road][movement.out_road]
                    if phases_of[gid]:
                        # The stage analysis orders same-node co-active
                        # movements by their position in the one phase
                        # containing them; two memberships would make
                        # that position ambiguous.
                        raise ValueError(
                            f"meso-vec: movement {movement.key} at "
                            f"{inter.node_id} appears in more than one "
                            f"phase; use the 'meso-counts' engine for this "
                            f"network"
                        )
                    phase_pos[gid] = pos
                    phases_of[gid].add(phase.index)
        self.rate_sum = _frozen(rate_sum)
        self.valid_phase = _frozen(valid)
        # The one phase containing each movement (-1: never activated).
        m_phase = np.array(
            [next(iter(p)) if p else -1 for p in phases_of], dtype=np.int64
        )
        #: That phase's global index (``phase_offsets[node] + index``; -1
        #: for a movement no green phase activates): a column is active
        #: exactly when its node's applied global phase equals it.
        self.m_gphase = _frozen(
            np.where(
                m_phase > TRANSITION_PHASE_INDEX,
                offsets[axis.m_node] + m_phase,
                -1,
            )
        )

        # -- hazard staging (see the module docstring) ----------------------
        #: Each movement's serve stage (0 for one that reads no space).
        self.m_stage = _frozen(self._build_stages(axis, phases_of, phase_pos))

        # -- transfer / promote plans ------------------------------------------
        #: The static half of the per-unit FIFO plans (the FIFOs
        #: themselves are per seed, keyed by flat index — see
        #: :class:`BatchCountsSimulator`): per road, ``(out-road ->
        #: movement column, road id)`` for promote and sensing, which
        #: read a unit's next hop.
        self.promote_plan = [
            (columns_of_road.get(road_id), road_id) for road_id in road_ids
        ]
        #: The next-hop map of each sampled route, by ``id(route)``:
        #: filled on first use, shared by every engine on the network.
        #: Routes are the network's cached lists (see
        #: :class:`~repro.model.routing.RouteSampler`), so an id never
        #: names another route.
        self.route_nexts: Dict[int, Dict[str, str]] = {}
        #: Per road feeding an intersection: its movement columns.
        self.columns_of_road = {
            road_id: _frozen(np.array(list(columns.values()), dtype=np.int64))
            for road_id, columns in columns_of_road.items()
        }
        #: The stop lines' totals block: each road's row, and the movement
        #: columns grouped by in-road with each group's first position
        #: (a segment sum of the gathered columns is one row per road).
        self.stop_line_rows = {road_id: row for row, road_id in enumerate(columns_of_road)}
        groups = [list(columns.values()) for columns in columns_of_road.values()]
        self.stop_line_plan = (
            _frozen(np.array([c for group in groups for c in group], dtype=np.int64)),
            _frozen(np.cumsum([0] + [len(g) for g in groups[:-1]], dtype=np.int64)),
        )

    def _build_stages(
        self, axis: FacadeTables, phases_of: List[set], phase_pos: np.ndarray
    ) -> np.ndarray:
        """Each movement's exact-parity serve stage (see the module doc)."""
        node_of = axis.m_node
        in_idx = axis.m_in_road
        out_idx = axis.m_out_road
        is_exit = self.m_is_exit
        M = len(phases_of)
        # Who writes a road's occupancy when served: every movement
        # decrements its in-road; non-exit movements increment their
        # out-road.  Movements in no phase never serve, never write.
        writers: Dict[int, List[int]] = {}
        for gid in range(M):
            if not phases_of[gid]:
                continue
            writers.setdefault(int(in_idx[gid]), []).append(gid)
            if not is_exit[gid]:
                writers.setdefault(int(out_idx[gid]), []).append(gid)
        stage = [0] * M
        order = sorted(
            range(M), key=lambda g: (int(node_of[g]), int(phase_pos[g]), g)
        )
        for gid in order:
            if is_exit[gid] or not phases_of[gid]:
                continue  # reads no occupancy / never active: stage 0
            level = 0
            for writer in writers.get(int(out_idx[gid]), ()):
                if writer == gid:
                    continue
                if node_of[writer] == node_of[gid]:
                    # Same node: co-active only within one phase, and
                    # then ordered by position in that phase.
                    if not (phases_of[writer] & phases_of[gid]):
                        continue
                    if phase_pos[writer] >= phase_pos[gid]:
                        continue
                elif node_of[writer] > node_of[gid]:
                    continue  # served later: its writes are not yet seen
                if stage[writer] >= level:
                    level = stage[writer] + 1
            stage[gid] = level
        return np.array(stage, dtype=np.int64)


class BatchCountsSimulator(ArrayFacade):
    """``B`` independent counts-based replications stepped as arrays.

    Accepts the same arguments as
    :class:`~repro.meso.counts.CountsSimulator` with ``seeds`` (one per
    replication) in place of ``seed``; see the module docstring for the
    parity contract.
    """

    def __init__(
        self,
        network: Network,
        demand: Mapping[str, ArrivalSchedule],
        turning: TurningProbabilities,
        seeds: Sequence[int] = (0,),
        plant: PlantConstants = PlantConstants(),
    ):
        self.network = network
        self.time = 0.0
        self.seeds = tuple(int(s) for s in seeds)
        if not self.seeds:
            raise ValueError("seeds must name at least one replication")
        B = len(self.seeds)
        self.batch_size = B
        self._startup_lost = plant.startup_lost
        self._sensing_horizon = plant.sensing_horizon

        # -- per-replication seeded traffic (the serial engines' draws) -----
        self._entry_ids: List[str] = list(demand)
        self._routers: List[RouteSampler] = []
        self._arrivals: List[List[PoissonArrivals]] = []
        for seed in self.seeds:
            traffic = seeded_traffic(network, demand, turning, seed)
            self._routers.append(traffic.router)
            self._arrivals.append(list(traffic.arrivals.values()))

        # -- static column tables, shared by every engine on the network ----
        axis = self._bind_tables(network, B)
        tables = network.derived(_ColumnTables, lambda: _ColumnTables(network))
        self._road_ids = tables.road_ids
        self._caps = tables.caps
        self._node_ids = axis.node_ids
        self._intersections = tables.intersections
        self._movement_keys = axis.movement_keys
        self._node_of = axis.m_node
        self._node_starts = tables.node_starts
        self._node_widths = tables.node_widths
        self._in_idx = axis.m_in_road
        self._out_idx = axis.m_out_road
        self._m_nonexit = tables.m_nonexit
        self._m_out_cap = axis.m_out_cap
        self._phase_offsets = tables.phase_offsets
        self._max_phase = tables.max_phase
        self._rate_sum = tables.rate_sum
        self._valid_phase = tables.valid_phase
        self._m_gphase = tables.m_gphase
        self._m_stage = tables.m_stage
        self._road_index = tables.road_index
        self._promote_plan = tables.promote_plan
        self._columns_of_road = tables.columns_of_road
        self._route_nexts = tables.route_nexts
        self._stop_line_rows = tables.stop_line_rows
        self._stop_line_plan = tables.stop_line_plan
        R, N, M = len(self._road_ids), len(self._node_ids), len(self._movement_keys)
        out_idx = self._out_idx

        # -- per-engine plant constants ---------------------------------------
        transit = plant.transit_times(network)
        #: Travel time of each road and of each movement's out-road
        #: (plain lists: the per-unit loops read them).
        self._transit_time = [transit[road_id] for road_id in self._road_ids]
        self._m_out_ttime = [self._transit_time[ri] for ri in out_idx.tolist()]
        self._rate = np.full(M, plant.discharge_rate)
        self._entry_idx = np.array(
            [tables.road_index[r] for r in self._entry_ids], dtype=np.int64
        )

        # -- dynamic state ---------------------------------------------------
        # Road occupancy lives in a flat buffer with one spare slot past
        # the ``B * n_roads`` roads: the serve pass sends an exit
        # movement's "out-road" there (with a capacity that never binds),
        # so every served cell adds to its out-slot without an exit mask.
        # ``_occ`` is the ``(B, n_roads)`` view of the real roads.
        self._occ_flat = np.zeros(B * R + 1, dtype=np.int64)
        self._occ = self._occ_flat[:-1].reshape(B, R)
        self._queue_len = np.zeros((B, M), dtype=np.int64)
        self._credit = np.zeros((B, M), dtype=np.float64)
        self._head_ready = np.full((B, R), np.inf, dtype=np.float64)
        self._active_phase = np.full((B, N), -1, dtype=np.int64)
        self._phase_started = np.zeros((B, N), dtype=np.float64)
        # The float utilization books of each node cell, side by side so
        # one add per slot advances all four: amber time, green time,
        # service capacity and green slots (a count, exact in float64).
        self._books = np.zeros((B, N, 4), dtype=np.float64)
        (
            self._amber_time,
            self._green_time,
            self._service_capacity,
            self._green_slots,
        ) = np.moveaxis(self._books, -1, 0)
        #: Green slots on which a node had a servable movement; the
        #: wasted green slots are the rest (see utilization_of).
        self._servable_slots = np.zeros((B, N), dtype=np.int64)
        #: Vehicles served per cell; per-node totals are summed on read.
        self._cell_served = np.zeros(B * M, dtype=np.int64)
        #: Per replication, the counts the aggregate books integrate:
        #: vehicles waiting (queued at a stop line or gated outside a
        #: full entry; kept current by every step phase) and vehicles
        #: inside the network (summed from the occupancy each slot).
        self._tallies = np.zeros((2, B), dtype=np.int64)
        self._waiting = self._tallies[0]
        # Serve cache, written per cell when that cell's phase switches
        # (_apply_phase_switch) and replayed by every _serve until then:
        # each node cell's per-slot book increments and each movement
        # cell's "belongs to the running green phase" flag.
        self._c_books = np.zeros((B, N, 4), dtype=np.float64)
        self._c_active = np.zeros((B, M), dtype=bool)
        self._startup_until = -math.inf
        # Flat views of the per-cell state the step reads by flat index.
        self._queue_flat = self._queue_len.reshape(-1)
        self._credit_flat = self._credit.reshape(-1)
        self._head_flat = self._head_ready.reshape(-1)
        self._started_flat = self._phase_started.reshape(-1)
        self._c_active_flat = self._c_active.reshape(-1)
        #: Serve counters (plain ints, no part of any result): slots
        #: whose live cells were served on the fast path and on the
        #: staged path (a slot with no live cell counts in neither),
        #: and live cells (replication, movement) over all slots.
        self.fast_slots = 0
        self.staged_slots = 0
        self.cells_served = 0
        # Unit representation: a queued/transiting unit is its route's
        # next-hop map (road -> following road, one per cached route,
        # kept with the network's tables) — grid routes never revisit a
        # road, so the map alone replaces the reference engines'
        # ``(route, leg)`` cursor and a hop allocates nothing.  Transit
        # FIFOs hold *cohorts*
        # ``(ready_time, [unit, ...])``: every push onto one road
        # within a mini-slot shares the same ready time, so cohorts are
        # exactly the reference FIFO content grouped by slot, in the
        # reference push order.
        # FIFOs, one store per kind, keyed by the flat index of their
        # batched counter: lane ``b * n_movements + gid``
        # (``_queue_len``), transit ``b * n_roads + ri``
        # (``_head_ready``).  A FIFO is created by its first push
        # (promote, serve transfer, inject admission), so a build
        # allocates none.  Readers index the plain dict: a finite head
        # time or a non-zero queue says the FIFO exists, and a broken
        # invariant raises ``KeyError`` instead of reading as empty.
        self._lanes: Dict[int, deque] = {}
        self._transit: Dict[int, deque] = {}
        # Sensed in-transit units (see sense_arrays), kept from the first
        # read on: per lane column, the units of every cohort whose
        # ready time lies within the last read's deadline; and per
        # transit FIFO, the ready time of its first cohort beyond it.
        self._sensed: Optional[np.ndarray] = None
        self._sensed_until = -math.inf
        self._uncounted_ready: Optional[np.ndarray] = None
        self._sensed_flat: Optional[np.ndarray] = None
        self._uncounted_flat: Optional[np.ndarray] = None
        #: The spillback out-queues while no road is full, shared by reads.
        self._no_out_queues = _frozen(np.zeros((B, M), dtype=np.int64))
        #: Per (replication, entry) pair, flat index ``b * n_entries +
        #: e``: its backlog FIFO, entry road (id, flat index — the
        #: transit key, occupancy and head slot —, capacity and travel
        #: time), replication and route sampler.
        caps = self._caps.tolist()
        times = self._transit_time
        self._inject_plan = [
            (
                deque(),
                road_id,
                b * R + ri,
                caps[ri],
                times[ri],
                b,
                self._routers[b].sample_route,
            )
            for b in range(B)
            for road_id, ri in zip(self._entry_ids, self._entry_idx.tolist())
        ]
        #: Entry pairs whose backlog FIFO is not empty.
        self._backlogged: set = set()
        #: incoming_queue_total's block of every stop line, as summed
        #: since the last step (None: not yet).
        self._stop_line_totals: Optional[np.ndarray] = None
        self.collector = BatchAggregateMetricsCollector(B)
        self._finalized = False
        # Constant-dt contract state + pulled-ahead arrival window: per
        # mini-slot of the window, its arrival events ``(pair, count)``
        # in ascending pair order.
        self._dt: Optional[float] = None
        self._accrual: Optional[np.ndarray] = None
        self._window_events: List[List[Tuple[int, int]]] = []
        self._window_pos = ARRIVAL_WINDOW

    def _build_step_tables(self, dt: float) -> None:
        """The flat per-cell tables the step reads, for mini-slot ``dt``.

        Built at the first step (credit accrual and the book increments
        scale with ``dt``, which the constant-dt contract then fixes).
        Movement cells are indexed ``b * n_movements + gid``, node
        cells ``b * n_nodes + n``; every table is read-only.
        """
        B = self.batch_size
        R, N, M = len(self._road_ids), len(self._node_ids), len(self._movement_keys)
        self._accrual = self._rate * dt
        bank = np.maximum(self._accrual, 1.0)
        rep = np.repeat(np.arange(B, dtype=np.int64), M)
        nonexit = np.tile(self._m_nonexit, B)
        self._cell_rep = _frozen(rep)
        self._cell_node = _frozen(rep * N + np.tile(self._node_of, B))
        self._cell_in = _frozen(rep * R + np.tile(self._in_idx, B))
        #: The out-road's flat occupancy slot; an exit's is the spare.
        self._cell_out = _frozen(
            np.where(nonexit, rep * R + np.tile(self._out_idx, B), B * R)
        )
        self._cell_out_cap = _frozen(
            np.where(nonexit, np.tile(self._m_out_cap, B), np.iinfo(np.int64).max)
        )
        self._cell_exit = _frozen(~nonexit)
        self._cell_accrual = _frozen(np.tile(self._accrual, B))
        self._cell_bank = _frozen(np.tile(bank, B))
        self._cell_gphase = _frozen(np.tile(self._m_gphase, B))
        self._cell_stage = _frozen(np.tile(self._m_stage, B))
        node_rep = np.repeat(np.arange(B, dtype=np.int64), N)
        node = np.tile(np.arange(N, dtype=np.int64), B)
        self._node_cell_rep = _frozen(node_rep)
        self._node_cell_node = _frozen(node)
        #: Per node cell: the flat indices of its movement cells (a
        #: contiguous slice, as the layout is node-major) and their count.
        first = (node_rep * M + self._node_starts[node]).tolist()
        widths = self._node_widths[node]
        every = _frozen(np.arange(B * M, dtype=np.int64))
        self._node_cell_cells = [
            every[lo:lo + width] for lo, width in zip(first, widths.tolist())
        ]
        self._node_cell_width = _frozen(widths)
        # Per global phase: the per-slot book increments of a node
        # showing it (amber, green, service capacity, green slot).
        green = np.ones(len(self._rate_sum), dtype=bool)
        green[self._phase_offsets] = False
        incs = np.empty((len(green), 4), dtype=np.float64)
        incs[:, 0] = dt * ~green
        incs[:, 1] = dt * green
        incs[:, 2] = (self._rate_sum * dt) * green
        incs[:, 3] = green
        self._phase_incs = _frozen(incs)

    # -- observation ---------------------------------------------------------

    def observations(self) -> List[Dict[str, QueueObservation]]:
        """Per-replication ``Q(k)`` maps: the dict view of :meth:`sense_arrays`."""
        return self._tables.observations(self.time, *self.sense_arrays())

    # -- batched controller façade -------------------------------------------
    # ``movement_layout`` and ``controller_arrays()`` come from
    # :class:`~repro.core.engine.ArrayFacade`, over ``B`` rows.

    def sense_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(queues, out_queues)`` at the current time.

        The engine's one sensor (:meth:`observations` is its dict view):
        the stop-line queues plus the units in transit within the
        sensing horizon, and the spillback out-queues, as
        movement-aligned ``(B, n_movements)`` arrays.  Both are
        read-only snapshots that no later step changes (while no road is
        full, the spillback out-queues are one shared zero array).

        The in-transit augmentation is a count kept from the first read
        on.  A cohort (the units pushed onto one road in one mini-slot,
        sharing a ready time) counts from the first read whose deadline
        reaches its ready time until :meth:`_promote` moves it into its
        lane, or from its push if its ready time already lies within the
        last read's deadline (a travel time within the sensing horizon).
        A read therefore walks only the cohorts that entered the horizon
        since the previous read, found through each FIFO's first
        uncounted ready time; the first read counts every FIFO.
        """
        deadline = self.time + self._sensing_horizon
        sensed = self._sensed
        if sensed is None:
            sensed = self._sensed = np.zeros_like(self._queue_len)
            self._sensed_flat = sensed.reshape(-1)
            uncounted = self._uncounted_ready = self._head_ready.copy()
            self._uncounted_flat = uncounted.reshape(-1)
        else:
            # A FIFO whose first uncounted cohort was promoted unread
            # has no counted cohort left: its head is the first.
            uncounted = self._uncounted_ready
            np.maximum(uncounted, self._head_ready, out=uncounted)
        entering = (self._uncounted_flat <= deadline).nonzero()[0]
        if len(entering):
            counted_until = self._sensed_until
            M = len(self._movement_keys)
            R = len(self._road_ids)
            plans = self._promote_plan
            transits = self._transit
            columns: List[int] = []
            add = columns.append
            following: List[float] = []
            follow = following.append
            for fifo in entering.tolist():
                b, ri = divmod(fifo, R)
                gids, road_id = plans[ri]
                base = b * M
                for ready, units in transits[fifo]:
                    if ready > deadline:
                        follow(ready)
                        break
                    if ready > counted_until:
                        for unit in units:
                            add(base + gids[unit[road_id]])
                else:
                    follow(math.inf)
            uncounted.put(entering, following)
            if columns:
                np.add.at(self._sensed_flat, columns, 1)
        self._sensed_until = deadline
        queues = self._queue_len + sensed
        queues.flags.writeable = False
        full = self._occ >= self._caps[None, :]
        if not np.count_nonzero(full):
            return queues, self._no_out_queues
        road_out = np.where(full, self._occ, 0)
        out_queues = road_out[:, self._out_idx]
        out_queues.flags.writeable = False
        return queues, out_queues

    def _track_push(
        self, b: int, ri: int, key: int, ready: float, transit: deque, units: list
    ) -> None:
        """Keep the sensed count exact over one push onto FIFO ``key``.

        Called once sensing has started, before the cohort lands.  A
        cohort whose ready time lies within the last read's deadline
        counts at once.  A later one onto a FIFO with no uncounted
        cohort becomes that FIFO's first uncounted cohort.
        """
        until = self._sensed_until
        if ready <= until:
            gids, road_id = self._promote_plan[ri]
            base = b * len(self._movement_keys)
            sensed = self._sensed_flat
            for unit in units:
                sensed[base + gids[unit[road_id]]] += 1
        elif not transit or transit[-1][0] <= until:
            self._uncounted_flat[key] = ready

    # -- stepping ------------------------------------------------------------

    def step(
        self,
        dt: float,
        phases: Union[np.ndarray, Sequence[Mapping[str, int]]],
    ) -> None:
        """Advance every replication by ``dt`` under its own phases.

        ``phases`` is one mapping (node id -> applied phase index, 0 =
        amber, missing intersections amber) per replication, or an
        already-encoded ``(B, n_nodes)`` integer array (an ``(n_nodes,)``
        row is broadcast to every replication).
        """
        check_positive("dt", dt)
        if self._finalized:
            raise RuntimeError("simulator already finalized")
        first = self._dt is None
        if first:
            self._dt = float(dt)
            self._build_step_tables(dt)
        elif dt != self._dt:
            raise ValueError(
                f"meso-vec steps on a constant mini-slot: got dt={dt} after "
                f"dt={self._dt} (the pulled-ahead arrival windows are drawn "
                f"on the first step's grid)"
            )
        phases_arr = self._encode_phases(phases)
        now = self.time
        self._stop_line_totals = None
        self._promote(now)
        if first:
            # Arm (and validate) every cell once.
            switched = np.arange(self._active_phase.size)
        else:
            switched = (phases_arr != self._active_phase).ravel().nonzero()[0]
        if len(switched):
            self._apply_phase_switch(phases_arr, switched, now)
        self._serve(now)
        self._inject(dt, now)
        self.time = now + dt
        # Vehicles inside the network == total road occupancy (the
        # reference engines maintain this count separately; here it is
        # one row sum).
        self._occ.sum(axis=1, out=self._tallies[1])
        self.collector.record_interval(dt, self._tallies)
        self.collector.advance(self.time)

    def _encode_phases(
        self, phases: Union[np.ndarray, Sequence[Mapping[str, int]]]
    ) -> np.ndarray:
        B, N = self.batch_size, len(self._node_ids)
        if isinstance(phases, np.ndarray):
            if phases.dtype.kind not in "iu":
                # A bool would read as phases 0/1 and a float fail deep
                # inside as an index; neither is a phase index.
                raise ValueError(
                    f"phase array must have an integer dtype, got "
                    f"{phases.dtype}"
                )
            if phases.shape == (N,):
                return np.broadcast_to(phases, (B, N))
            if phases.shape != (B, N):
                raise ValueError(
                    f"phase array must have shape ({B}, {N}) or ({N},), "
                    f"got {phases.shape}"
                )
            return phases
        if len(phases) != B:
            raise ValueError(
                f"need one phase mapping per replication ({B}), got "
                f"{len(phases)}"
            )
        node_ids = self._node_ids
        amber = TRANSITION_PHASE_INDEX
        rows = [
            [mapping.get(node_id, amber) for node_id in node_ids]
            for mapping in phases
        ]
        return np.array(rows, dtype=np.int64)

    def _promote(self, now: float) -> None:
        """Move transit units that reached the stop line into their lanes.

        Per-unit deque traffic stays in Python (a handful of units per
        slot); each due FIFO's head time and its replication's waiting
        count are scalar writes, and the lane counters take one
        scatter-add for every unit promoted this slot.
        """
        due = (self._head_flat <= now).nonzero()[0]
        if not len(due):
            return
        lane_keys: List[int] = []
        add = lane_keys.append
        M = len(self._movement_keys)
        R = len(self._road_ids)
        plans = self._promote_plan
        transits = self._transit
        lanes = self._lanes
        head = self._head_flat
        waiting = self._waiting
        # Counted cohorts leave the sensed count as they reach the lane
        # (before the first read nothing is counted).
        counted_until = self._sensed_until
        uncount: List[int] = []
        for fifo in due.tolist():
            b, ri = divmod(fifo, R)
            gids, road_id = plans[ri]
            transit = transits[fifo]
            base = b * M
            promoted = 0
            while transit and transit[0][0] <= now:
                ready, units = transit.popleft()
                promoted += len(units)
                first = len(lane_keys)
                for unit in units:
                    key = base + gids[unit[road_id]]
                    lane = lanes.get(key)
                    if lane is None:
                        lane = lanes[key] = deque()
                    lane.append(unit)
                    add(key)
                if ready <= counted_until:
                    uncount.extend(lane_keys[first:])
            waiting[b] += promoted
            head[fifo] = transit[0][0] if transit else math.inf
        np.add.at(self._queue_flat, lane_keys, 1)
        if uncount:
            np.subtract.at(self._sensed_flat, uncount, 1)

    def _apply_phase_switch(
        self, phases_arr: np.ndarray, cells: np.ndarray, now: float
    ) -> None:
        """Validate and re-arm the switched ``(replication, node)`` cells.

        Phases hold for many consecutive mini-slots (green dwells), so
        everything derived from a cell's phase alone — its per-slot book
        increments and active movement columns — is written once per
        switch of that cell and replayed until it switches again.  Cells
        that did not switch keep theirs.  ``cells`` are flat node-cell
        indices (``b * n_nodes + n``).
        """
        sn = self._node_cell_node[cells]
        new = phases_arr[self._node_cell_rep[cells], sn]
        # Phase validation: an unknown non-amber index raises the same
        # KeyError the reference engine's phase lookup would.  A cell
        # that did not switch holds a phase validated when it did.
        in_range = (new >= 0) & (new <= self._max_phase[sn])
        gp = self._phase_offsets[sn] + np.where(in_range, new, 0)
        valid = in_range & self._valid_phase[gp]
        if np.count_nonzero(valid) < len(valid):
            i = int(np.flatnonzero(~valid)[0])
            self._intersections[sn[i]].phase_by_index(int(new[i]))
            raise AssertionError("phase_by_index must raise for invalid phases")
        self._active_phase.put(cells, new)
        self._phase_started.put(cells, now)
        # Every switch starts at ``now``, the latest start so far: after
        # this point no node is inside its start-up window any more.
        self._startup_until = now + self._startup_lost
        self._c_books.reshape(-1, 4)[cells] = self._phase_incs[gp]
        # The switched cells' movement cells, each with its node's new
        # global phase.
        cells_of = self._node_cell_cells
        flat = np.concatenate([cells_of[cell] for cell in cells.tolist()])
        applied = np.repeat(gp, self._node_cell_width[cells])
        # Phase switch: queue discharge restarts, unused service credit
        # must not carry over.
        self._credit_flat[flat] = 0.0
        self._c_active_flat[flat] = applied == self._cell_gphase[flat]

    def _serve(self, now: float) -> None:
        """One vectorized serve pass over the live cells (exact).

        A cell (replication, movement) is *eligible* when its node is
        green, past start-up, and the movement belongs to the running
        phase; it is *live* when it is eligible and either queues a
        vehicle or holds less credit than the bank.  Skipping an
        eligible cell that is not live is exact: its queue is empty, so
        its bound is 0 (never servable, never binding, as occupancy
        never exceeds capacity), and its credit write is
        ``min(bank + accrual, bank) == bank``, the value it holds.
        Every per-cell quantity comes from the flat tables of
        :meth:`_build_step_tables`.

        The fast path evaluates every live cell against pre-step
        occupancy in one shot.  That equals the sequential reference
        result whenever no movement's downstream ``space`` binds
        (``space >= min(credit value, queue)`` everywhere): within a
        slot, occupancy a movement reads can only *drop* before its
        turn (its only co-active inflow writer would share its out-road
        inside one phase, which the constructor rejects), so a
        non-binding pre-step space stays non-binding in every
        sequential order.  If any space binds anywhere, the same live
        cells are served stage by stage (the hazard stages of the
        module doc, ``_cell_stage``), which replays the reference order
        exactly.

        A green node wastes its slot unless one of its movements is
        servable; rather than add the wasted slots, the pass counts the
        servable ones per node (:meth:`utilization_of` subtracts).
        """
        self._books += self._c_books
        queue = self._queue_flat
        credit = self._credit_flat
        live = queue > 0
        live |= credit < self._cell_bank
        live &= self._c_active_flat
        cells = live.nonzero()[0]
        if now < self._startup_until:
            started = self._started_flat[self._cell_node[cells]]
            cells = cells[(now - started) >= self._startup_lost]
        self.cells_served += len(cells)
        if not len(cells):
            return
        occ = self._occ_flat
        queued = queue[cells]
        value = credit[cells] + self._cell_accrual[cells]
        bound = np.minimum(value, queued)
        out = self._cell_out[cells]
        space = self._cell_out_cap[cells] - occ[out]
        fast = not np.count_nonzero(space < bound)
        if fast:
            # Space never binds, so every limit is the credit/queue
            # bound and space > 0 wherever a queue waits.
            self.fast_slots += 1
            limit = bound.astype(np.int64)
            servable = queued > 0
        else:
            # Some space binds: serve stage by stage in ascending order,
            # each stage reading the space the earlier ones left.
            self.staged_slots += 1
            limit = np.empty(len(cells), dtype=np.int64)
            servable = np.empty(len(cells), dtype=bool)
            stage = self._cell_stage[cells]
            order = stage.argsort(kind="stable")
            for pick in np.split(order, np.diff(stage[order]).nonzero()[0] + 1):
                picked = cells[pick]
                slot = out[pick]
                room = self._cell_out_cap[picked] - occ[slot]
                taken = np.minimum(bound[pick], room).astype(np.int64)
                limit[pick] = taken
                servable[pick] = (queued[pick] > 0) & (room > 0)
                np.subtract.at(occ, self._cell_in[picked], taken)
                occ[slot] += taken
        # Bank at most one slot of unused service credit (reference
        # rule), for exactly the movements the reference loop touched.
        credit[cells] = np.minimum(value - limit, self._cell_bank[cells])
        # A repeated node index counts once, as a node wastes or uses
        # its slot once.
        self._servable_slots.reshape(-1)[self._cell_node[cells[servable]]] += 1
        served = limit.nonzero()[0]
        if not len(served):
            return
        served_cells = cells[served]
        vals = limit[served]
        out = out[served]
        if fast:
            np.subtract.at(occ, self._cell_in[served_cells], vals)
            occ[out] += vals
        # Cells are unique: plain fancy updates, no ufunc.at.
        queue[served_cells] -= vals
        self._cell_served[served_cells] += vals
        reps = self._cell_rep[served_cells]
        np.subtract.at(self._waiting, reps, vals)
        exits = self._cell_exit[served_cells]
        if np.count_nonzero(exits):
            np.add.at(self.collector.vehicles_left, reps[exits], vals[exits])
        self._transfer_units(served_cells, out, vals, now)

    def _transfer_units(
        self,
        cells: np.ndarray,
        out: np.ndarray,
        vals: np.ndarray,
        now: float,
    ) -> None:
        """Apply the per-unit queue pops / transit pushes of one serve.

        ``cells`` are the served movement cells, ``out`` their out-road
        slots (the spare slot for an exit) and ``vals`` how many each
        served.  No ordering pass is needed: a transit FIFO's
        within-step push order could only matter if two co-active
        movements shared an out-road, which the constructor rejects —
        every (replication, out-road) receives at most one cohort per
        serve.
        """
        M = len(self._movement_keys)
        R = len(self._road_ids)
        spare = self._occ_flat.size - 1
        ttime = self._m_out_ttime
        lanes = self._lanes
        transits = self._transit
        head = self._head_flat
        track = self._sensed is not None
        for cell, key, limit in zip(cells.tolist(), out.tolist(), vals.tolist()):
            pop = lanes[cell].popleft
            if key == spare:  # exit movement: vehicles leave
                for _ in range(limit):
                    pop()
                continue
            b, m = divmod(cell, M)
            ready = now + ttime[m]
            transit = transits.get(key)
            if not transit:
                if transit is None:
                    transit = transits[key] = deque()
                head[key] = ready
            cohort = [pop() for _ in range(limit)]
            if track:
                self._track_push(b, key - b * R, key, ready, transit, cohort)
            transit.append((ready, cohort))

    def _refill_window(self, dt: float, now: float) -> None:
        """Draw the next ``ARRIVAL_WINDOW`` mini-slots of arrival counts.

        :func:`~repro.model.arrivals.slot_times` replicates the engine
        clock's own float accumulation, so every replication's
        :class:`PoissonArrivals` draws exactly what a serial run would;
        one :class:`SlotGrid` of those times serves every draw.
        The dense ``(slot, pair)`` block is kept as per-slot lists of
        its nonzero ``(pair, count)`` events, in ascending pair order.
        """
        grid = SlotGrid.starting(now, dt)
        n_pairs = len(self._inject_plan)
        window = np.empty((ARRIVAL_WINDOW, n_pairs), dtype=np.int64)
        pair = 0
        for processes in self._arrivals:
            for process in processes:
                window[:, pair] = process.sample_count_block(grid)
                pair += 1
        slots, pairs = window.nonzero()
        events = list(zip(pairs.tolist(), window[slots, pairs].tolist()))
        bounds = np.searchsorted(slots, np.arange(ARRIVAL_WINDOW + 1)).tolist()
        self._window_events = [
            events[lo:hi] for lo, hi in zip(bounds, bounds[1:])
        ]
        self._window_pos = 0

    def _inject(self, dt: float, now: float) -> None:
        """Add this slot's arrivals and admit backlogs onto entry roads.

        Visits only the entry pairs with an arrival this slot or a
        standing backlog, in ascending pair order: each replication's
        one route sampler serves all its entries, so that order is
        what keeps its draws those of a serial run.
        """
        if self._window_pos >= ARRIVAL_WINDOW:
            self._refill_window(dt, now)
        events = self._window_events[self._window_pos]
        self._window_pos += 1
        backlogged = self._backlogged
        if backlogged:
            arrivals = dict(events)
            events = [
                (pair, arrivals.get(pair, 0))
                for pair in sorted(backlogged.union(arrivals))
            ]
        if not events:
            return
        plans = self._inject_plan
        occ = self._occ_flat
        head = self._head_flat
        waiting = self._waiting
        entered = self.collector.vehicles_entered
        route_nexts = self._route_nexts
        transits = self._transit
        track = self._sensed is not None
        R = len(self._road_ids)
        for pair, count in events:
            backlog, road_id, key, cap, ttime, b, sample_route = plans[pair]
            for _ in range(count):
                route = sample_route(road_id)
                unit = route_nexts.get(id(route))
                if unit is None:
                    unit = dict(zip(route, route[1:]))
                    if len(unit) != len(route) - 1:
                        # A road revisited along one route would alias
                        # in the next-hop map; grid routes never do
                        # (the samplers reject loops).
                        raise ValueError(f"meso-vec: route revisits a road: {route}")
                    route_nexts[id(route)] = unit
                backlog.append(unit)
            space = cap - int(occ[key])
            admitted = min(space, len(backlog)) if space > 0 else 0
            if admitted:
                ready = now + ttime
                transit = transits.get(key)
                if not transit:
                    if transit is None:
                        transit = transits[key] = deque()
                    head[key] = ready
                pop = backlog.popleft
                cohort = [pop() for _ in range(admitted)]
                if track:
                    self._track_push(b, key - b * R, key, ready, transit, cohort)
                transit.append((ready, cohort))
                occ[key] += admitted
                entered[b] += admitted
            if count != admitted:
                waiting[b] += count - admitted
            if backlog:
                backlogged.add(pair)
            else:
                backlogged.discard(pair)

    # -- termination and introspection ---------------------------------------

    def finalize(self) -> None:
        """Close the aggregate books (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        self.collector.absorb_backlog(self.backlog_size())

    def summaries(self, duration: Optional[float] = None) -> List[Summary]:
        """Per-replication run summaries, in batch order."""
        return self.collector.summaries(duration)

    def utilization_of(self, replication: int) -> Dict[str, UtilizationTracker]:
        """One replication's per-intersection utilization books."""
        M = len(self._movement_keys)
        served = np.zeros(len(self._node_ids), dtype=np.int64)
        np.add.at(
            served,
            self._node_of,
            self._cell_served[replication * M:(replication + 1) * M],
        )
        green_slots = self._green_slots[replication].astype(np.int64)
        wasted = green_slots - self._servable_slots[replication]
        out: Dict[str, UtilizationTracker] = {}
        for n, node_id in enumerate(self._node_ids):
            out[node_id] = UtilizationTracker(
                node_id=node_id,
                green_time=float(self._green_time[replication, n]),
                amber_time=float(self._amber_time[replication, n]),
                service_capacity=float(
                    self._service_capacity[replication, n]
                ),
                vehicles_served=int(served[n]),
                wasted_green_slots=int(wasted[n]),
                green_slots=int(green_slots[n]),
            )
        return out

    def road_occupancy(self, road_id: str) -> np.ndarray:
        """Vehicles currently on a road, per replication."""
        ri = self._road_index.get(road_id)
        if ri is None:
            raise ValueError(f"unknown road {road_id!r}")
        return self._occ[:, ri].copy()

    def incoming_queue_total(self, road_id: str) -> np.ndarray:
        """Total queued vehicles at one stop line, per replication.

        Zeros for a road with no stop line here, unknown roads included.
        The first call after a step sums every stop line at once (one
        gather and one segment sum over the movement columns, grouped
        by in-road); later calls until the next step read that block,
        so sampling many roads costs one array read.
        """
        row = self._stop_line_rows.get(road_id)
        if row is None:
            return np.zeros(self.batch_size, dtype=np.int64)
        totals = self._stop_line_totals
        if totals is None:
            columns, starts = self._stop_line_plan
            totals = self._stop_line_totals = np.add.reduceat(
                self._queue_len[:, columns], starts, axis=1
            ).T.copy()
        return totals[row].copy()

    def vehicles_in_network(self) -> np.ndarray:
        """Total vehicles currently inside the network, per replication."""
        return self._occ.sum(axis=1)

    def backlog_size(self) -> np.ndarray:
        """Vehicles gated outside a full entry, per replication."""
        sizes = np.zeros(self.batch_size, dtype=np.int64)
        for backlog, *_, b, _ in self._inject_plan:
            sizes[b] += len(backlog)
        return sizes


def _batch_from_scenarios(scenarios) -> BatchCountsSimulator:
    # ``scenarios`` are repro.scenarios.core.Scenario values of one
    # workload shape (same pattern and build parameters, one seed per
    # replication); typed loosely to keep the engine layer
    # import-independent of the scenario layer.
    first = scenarios[0]
    for scenario in scenarios[1:]:
        # A batch shares one plant: replications whose network, demand
        # or turning model differed would silently run on the first
        # scenario's dynamics under their own labels.  Grids come from
        # a per-process cache, so equal networks are usually one object
        # and the structural comparison is the rare path.
        if (
            scenario.name != first.name
            or scenario.demand != first.demand
            or scenario.turning != first.turning
            or (
                scenario.network is not first.network
                and scenario.network != first.network
            )
        ):
            raise ValueError(
                f"batch replications must share one scenario shape: "
                f"{scenario.name!r} (seed {scenario.seed}) differs from "
                f"{first.name!r} (seed {first.seed})"
            )
    return BatchCountsSimulator(
        network=first.network,
        demand=first.demand,
        turning=first.turning,
        seeds=tuple(s.seed for s in scenarios),
    )

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
  below), so the per-step cost of demand sampling is one array slice;
* spillback sensing is a masked array comparison
  (``occupancy >= capacity``) instead of a maintained set;
* per-replication aggregate metrics are integrated by a
  :class:`~repro.metrics.aggregate.BatchAggregateMetricsCollector`.

**Batch RNG layout.**  Replication ``b`` owns the full per-seed stream
stack a serial run would have: ``RngStreams(seeds[b])`` with the same
stream names created in the same order (``routing`` first, then
``arrivals/<road>`` per demand entry).  Nothing is ever drawn across
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
Stages execute in order, each fully vectorized over
``(B, stage width)``; within a stage no movement reads a location an
earlier same-stage movement writes, and the remaining writes commute —
so the staged result equals the sequential result *exactly*, spillback
included.

**Work in proportion to the traffic.**  Under closed-loop control
every replication runs its own phase pattern, so a step touches only
the cells that need it.  The serve pass runs on the *live* cells —
(replication, movement) pairs that are eligible to serve and either
queue a vehicle or hold less credit than the bank — found with one
mask and one ``nonzero``; the fast path serves them in one shot and
the staged path above takes over when a downstream space binds.  A
phase switch validates and re-arms only the switched (replication,
node) cells.  ``fast_slots``, ``staged_slots`` and ``cells_served``
count what the serve did.

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

from repro.core.engine import ArrayFacade, FacadeTables, register_batch_engine
from repro.metrics.aggregate import BatchAggregateMetricsCollector
from repro.metrics.collector import Summary
from repro.metrics.utilization import UtilizationTracker
from repro.model.arrivals import (
    ARRIVAL_WINDOW,
    ArrivalSchedule,
    PoissonArrivals,
    slot_times,
)
from repro.model.network import BOUNDARY, Network
from repro.model.phases import TRANSITION_PHASE_INDEX
from repro.model.queues import QueueObservation
from repro.model.routing import RouteSampler, TurningProbabilities
from repro.util.rng import RngStreams
from repro.util.validation import check_non_negative, check_positive

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
    reads: the road tables, the phase tables, the hazard stages and the
    per-column transfer / promote plans.  Everything here depends on
    the network alone — no seed, batch size or plant parameter — so it
    is built once per network
    (:meth:`~repro.model.network.Network.derived`) and shared,
    read-only, by every :class:`BatchCountsSimulator` on it.  Building
    raises ``ValueError`` for a phase layout meso-vec cannot batch.
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
        self.free_flow_time = _frozen(
            np.array(
                [network.roads[r].free_flow_time for r in road_ids],
                dtype=np.float64,
            )
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
        #: The one phase containing each movement (-1: never activated);
        #: activity is then one equality against the node's applied phase.
        self.m_phase = _frozen(
            np.array([next(iter(p)) if p else -1 for p in phases_of], dtype=np.int64)
        )

        # -- hazard staging (see the module docstring) ----------------------
        self.stages = [
            _frozen(ids) for ids in self._build_stages(axis, phases_of, phase_pos)
        ]

        # -- transfer / promote plans ------------------------------------------
        #: The static halves of the per-unit FIFO plans, one entry per
        #: column (the FIFOs themselves are per seed, keyed by flat
        #: index — see :class:`BatchCountsSimulator`).  Per movement:
        #: the out-road index the serve transfer pushes onto, or
        #: ``None`` for an exit.  Per road: ``(out-road -> movement
        #: column, road id)`` for promote and sensing, which read a
        #: unit's next hop.
        self.transfer_plan = [
            None if is_exit_road[ri] else ri for ri in out_idx.tolist()
        ]
        self.promote_plan = [
            (columns_of_road.get(road_id), road_id) for road_id in road_ids
        ]
        #: Per road feeding an intersection: its movement columns.
        self.columns_of_road = {
            road_id: _frozen(np.array(list(columns.values()), dtype=np.int64))
            for road_id, columns in columns_of_road.items()
        }

    def _build_stages(
        self, axis: FacadeTables, phases_of: List[set], phase_pos: np.ndarray
    ) -> List[np.ndarray]:
        """Partition movements into exact-parity vectorization stages."""
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
        depth = max(stage) + 1 if M else 1
        stages = [
            np.array([g for g in range(M) if stage[g] == s], dtype=np.int64)
            for s in range(depth)
        ]
        return [ids for ids in stages if len(ids)]


class BatchCountsSimulator(ArrayFacade):
    """``B`` independent counts-based replications stepped as arrays.

    Accepts the same plant parameters as
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
        travel_time: Optional[float] = None,
        startup_lost: float = 2.0,
        sensing_horizon: float = 2.0,
        saturation_headway: float = 1.3,
    ):
        self.network = network
        self.time = 0.0
        self.seeds = tuple(int(s) for s in seeds)
        if not self.seeds:
            raise ValueError("seeds must name at least one replication")
        B = len(self.seeds)
        self.batch_size = B
        if travel_time is not None:
            check_non_negative("travel_time", travel_time)
        check_non_negative("startup_lost", startup_lost)
        self._startup_lost = startup_lost
        check_non_negative("sensing_horizon", sensing_horizon)
        self._sensing_horizon = sensing_horizon
        check_positive("saturation_headway", saturation_headway)

        # -- per-replication RNG stacks (serial stream layout & order) ------
        entry_set = set(network.entry_roads())
        unknown = set(demand) - entry_set
        if unknown:
            raise ValueError(
                f"demand declared on non-entry roads: {sorted(unknown)}"
            )
        self._entry_ids: List[str] = list(demand)
        self._routers: List[RouteSampler] = []
        self._arrivals: List[List[PoissonArrivals]] = []
        for seed in self.seeds:
            streams = RngStreams(seed)
            self._routers.append(
                RouteSampler(network, turning, streams.get("routing"))
            )
            self._arrivals.append(
                [
                    PoissonArrivals(demand[road], streams.get(f"arrivals/{road}"))
                    for road in self._entry_ids
                ]
            )

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
        self._m_is_exit = tables.m_is_exit
        self._m_nonexit = tables.m_nonexit
        self._m_out_cap = axis.m_out_cap
        self._phase_offsets = tables.phase_offsets
        self._max_phase = tables.max_phase
        self._rate_sum = tables.rate_sum
        self._valid_phase = tables.valid_phase
        self._m_phase = tables.m_phase
        self._stages = tables.stages
        self._road_index = tables.road_index
        self._transfer_plan = tables.transfer_plan
        self._promote_plan = tables.promote_plan
        self._columns_of_road = tables.columns_of_road
        R, N, M = len(self._road_ids), len(self._node_ids), len(self._movement_keys)
        out_idx = self._out_idx

        # -- per-engine plant parameters --------------------------------------
        self._transit_time = (
            tables.free_flow_time
            if travel_time is None
            else np.full(R, float(travel_time))
        )
        self._rate = np.full(M, 1.0 / saturation_headway)
        self._m_out_ttime = self._transit_time[out_idx]
        self._entry_idx = np.array(
            [tables.road_index[r] for r in self._entry_ids], dtype=np.int64
        )

        # -- dynamic state ---------------------------------------------------
        self._occ = np.zeros((B, R), dtype=np.int64)
        self._queue_len = np.zeros((B, M), dtype=np.int64)
        self._credit = np.zeros((B, M), dtype=np.float64)
        self._head_ready = np.full((B, R), np.inf, dtype=np.float64)
        self._active_phase = np.full((B, N), -1, dtype=np.int64)
        self._phase_started = np.zeros((B, N), dtype=np.float64)
        self._green_time = np.zeros((B, N), dtype=np.float64)
        self._amber_time = np.zeros((B, N), dtype=np.float64)
        self._service_capacity = np.zeros((B, N), dtype=np.float64)
        self._vehicles_served = np.zeros((B, N), dtype=np.int64)
        self._wasted_green_slots = np.zeros((B, N), dtype=np.int64)
        self._green_slots = np.zeros((B, N), dtype=np.int64)
        self._queued_total = np.zeros(B, dtype=np.int64)
        # Serve cache, written per cell when that cell's phase switches
        # (_apply_phase_switch) and replayed by every _serve until then.
        self._c_green = np.zeros((B, N), dtype=bool)
        self._c_amber_dt = np.zeros((B, N), dtype=np.float64)
        self._c_green_dt = np.zeros((B, N), dtype=np.float64)
        self._c_capacity_dt = np.zeros((B, N), dtype=np.float64)
        self._c_active = np.zeros((B, M), dtype=bool)
        self._startup_until = -math.inf
        #: Serve counters (plain ints, no part of any result): slots
        #: whose live cells were served on the fast path and on the
        #: staged path (a slot with no live cell counts in neither),
        #: and live cells (replication, movement) over all slots.
        self.fast_slots = 0
        self.staged_slots = 0
        self.cells_served = 0
        # Unit representation: a queued/transiting unit is its route's
        # next-hop map (road -> following road, shared per cached
        # route) — grid routes never revisit a road, so the map alone
        # replaces the reference engines' ``(route, leg)`` cursor and a
        # hop allocates nothing.  Transit FIFOs hold *cohorts*
        # ``(ready_time, [unit, ...])``: every push onto one road
        # within a mini-slot shares the same ready time, so cohorts are
        # exactly the reference FIFO content grouped by slot, in the
        # reference push order.
        self._route_nexts: Dict[int, Dict[str, str]] = {}
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
        self._backlog_len = np.zeros((B, len(self._entry_ids)), dtype=np.int64)
        # Sensed in-transit units (see sense_arrays), kept from the first
        # read on: per lane column, the units of every cohort whose
        # ready time lies within the last read's deadline; and per
        # transit FIFO, the ready time of its first cohort beyond it.
        self._sensed: Optional[np.ndarray] = None
        self._sensed_until = -math.inf
        self._uncounted_ready: Optional[np.ndarray] = None
        #: The spillback out-queues while no road is full, shared by reads.
        self._no_out_queues = _frozen(np.zeros((B, M), dtype=np.int64))
        #: (backlog FIFO, entry transit key, router) per (replication,
        #: entry).
        self._inject_plan = [
            [(deque(), b * R + int(ri), self._routers[b]) for ri in self._entry_idx]
            for b in range(B)
        ]
        self.collector = BatchAggregateMetricsCollector(B)
        self._finalized = False
        # Constant-dt contract state + pulled-ahead arrival window.
        self._dt: Optional[float] = None
        self._accrual: Optional[np.ndarray] = None
        self._bank: Optional[np.ndarray] = None
        self._window: Optional[np.ndarray] = None
        self._window_pos = 0

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
            uncounted = self._uncounted_ready = self._head_ready.copy()
        else:
            # A FIFO whose first uncounted cohort was promoted unread
            # has no counted cohort left: its head is the first.
            uncounted = self._uncounted_ready
            np.maximum(uncounted, self._head_ready, out=uncounted)
        entering = np.flatnonzero(uncounted <= deadline)
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
                np.add.at(sensed.reshape(-1), columns, 1)
        self._sensed_until = deadline
        queues = self._queue_len + sensed
        queues.flags.writeable = False
        full = self._occ >= self._caps[None, :]
        if not full.any():
            return queues, self._no_out_queues
        road_out = np.where(full, self._occ, 0)
        out_queues = road_out[:, self._out_idx]
        out_queues.flags.writeable = False
        return queues, out_queues

    def _track_push(
        self,
        b: int,
        ri: int,
        ready: float,
        transit: deque,
        units: list,
        tracked: Tuple[List[Tuple[int, int, float]], List[int]],
    ) -> None:
        """Keep the sensed count exact over one push, before it lands.

        A cohort whose ready time lies within the last read's deadline
        counts at once (its lane columns go to ``tracked[1]``).  A later
        one onto a FIFO with no uncounted cohort becomes that FIFO's
        first uncounted cohort (``tracked[0]``).
        """
        until = self._sensed_until
        if ready <= until:
            gids, road_id = self._promote_plan[ri]
            base = b * len(self._movement_keys)
            tracked[1].extend(base + gids[unit[road_id]] for unit in units)
        elif not transit or transit[-1][0] <= until:
            tracked[0].append((b, ri, ready))

    def _commit_tracked(
        self, tracked: Tuple[List[Tuple[int, int, float]], List[int]]
    ) -> None:
        """Apply the bookkeeping :meth:`_track_push` collected."""
        first, counted = tracked
        if first:
            b, ri, ready = zip(*first)
            self._uncounted_ready[b, ri] = ready
        if counted:
            np.add.at(self._sensed.reshape(-1), counted, 1)

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
            self._accrual = self._rate * dt
            self._bank = np.maximum(self._accrual, 1.0)
        elif dt != self._dt:
            raise ValueError(
                f"meso-vec steps on a constant mini-slot: got dt={dt} after "
                f"dt={self._dt} (the pulled-ahead arrival windows are drawn "
                f"on the first step's grid)"
            )
        phases_arr = self._encode_phases(phases)
        now = self.time
        self._promote(now)
        switched = phases_arr != self._active_phase
        if first:
            switched[...] = True  # arm (and validate) every cell once
        if switched.any():
            self._apply_phase_switch(dt, phases_arr, switched, now)
        self._serve(dt, now)
        self._inject(dt, now)
        self.time = now + dt
        collector = self.collector
        collector.record_interval(
            dt,
            self._queued_total + self._backlog_len.sum(axis=1),
            # Vehicles inside the network == total road occupancy (the
            # reference engines maintain this count separately; here it
            # is one row sum).
            self._occ.sum(axis=1),
        )
        collector.advance(self.time)

    def _encode_phases(
        self, phases: Union[np.ndarray, Sequence[Mapping[str, int]]]
    ) -> np.ndarray:
        B, N = self.batch_size, len(self._node_ids)
        if isinstance(phases, np.ndarray):
            if not np.issubdtype(phases.dtype, np.integer):
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
        slot); the batched array bookkeeping is committed with one
        scatter-add per array instead of per-unit scalar writes.
        """
        head_ready = self._head_ready
        due = (head_ready <= now).ravel().nonzero()[0]
        if not len(due):
            return
        inc_flat: List[int] = []
        inc_append = inc_flat.append
        pair_b: List[int] = []
        pair_n: List[int] = []
        head_v: List[float] = []
        inf = np.inf
        M = len(self._movement_keys)
        R = len(self._road_ids)
        plans = self._promote_plan
        transits = self._transit
        lanes = self._lanes
        # Counted cohorts leave the sensed count as they reach the lane
        # (before the first read nothing is counted).
        counted_until = self._sensed_until
        uncount: List[int] = []
        dbs, drs = np.divmod(due, R)
        for fifo, b, ri in zip(due.tolist(), dbs.tolist(), drs.tolist()):
            gids, road_id = plans[ri]
            transit = transits[fifo]
            base = b * M
            promoted = 0
            while transit and transit[0][0] <= now:
                ready, units = transit.popleft()
                promoted += len(units)
                first = len(inc_flat)
                for unit in units:
                    key = base + gids[unit[road_id]]
                    lane = lanes.get(key)
                    if lane is None:
                        lane = lanes[key] = deque()
                    lane.append(unit)
                    inc_append(key)
                if ready <= counted_until:
                    uncount.extend(inc_flat[first:])
            if promoted:
                pair_b.append(b)
                pair_n.append(promoted)
            head_v.append(transit[0][0] if transit else inf)
        head_ready.put(due, head_v)
        if inc_flat:
            np.add.at(self._queue_len.reshape(-1), inc_flat, 1)
            np.add.at(self._queued_total, pair_b, pair_n)
        if uncount:
            np.subtract.at(self._sensed.reshape(-1), uncount, 1)

    def _apply_phase_switch(
        self, dt: float, phases_arr: np.ndarray, switched: np.ndarray, now: float
    ) -> None:
        """Validate and re-arm the switched ``(replication, node)`` cells.

        Phases hold for many consecutive mini-slots (green dwells), so
        everything derived from a cell's phase alone — its amber/green
        flag, per-slot tracker increments and active movement columns —
        is written once per switch of that cell and replayed until it
        switches again.  Cells that did not switch keep theirs.  Cells
        are addressed by flat index (``b * n_nodes + n``).
        """
        N = len(self._node_ids)
        M = len(self._movement_keys)
        cells = switched.ravel().nonzero()[0]
        sb, sn = np.divmod(cells, N)
        new = phases_arr[sb, sn]
        # Phase validation: an unknown non-amber index raises the same
        # KeyError the reference engine's phase lookup would.  A cell
        # that did not switch holds a phase validated when it did.
        in_range = (new >= 0) & (new <= self._max_phase[sn])
        gp = self._phase_offsets[sn] + np.where(in_range, new, 0)
        valid = in_range & self._valid_phase[gp]
        if not valid.all():
            i = int(np.flatnonzero(~valid)[0])
            self._intersections[sn[i]].phase_by_index(int(new[i]))
            raise AssertionError("phase_by_index must raise for invalid phases")
        self._active_phase.put(cells, new)
        self._phase_started.put(cells, now)
        # Every switch starts at ``now``, the latest start so far: after
        # this point no node is inside its start-up window any more.
        self._startup_until = now + self._startup_lost
        green = new != TRANSITION_PHASE_INDEX
        self._c_green.put(cells, green)
        self._c_amber_dt.put(cells, dt * ~green)
        self._c_green_dt.put(cells, dt * green)
        self._c_capacity_dt.put(cells, (self._rate_sum[gp] * dt) * green)
        # The switched cells' movement columns, node-major as the
        # layout: ``cell`` names the switched cell of each column.
        widths = self._node_widths[sn]
        ends = widths.cumsum()
        cell = np.repeat(np.arange(len(cells)), widths)
        cols = (self._node_starts[sn] - ends + widths)[cell] + np.arange(
            len(cell)
        )
        flat = sb[cell] * M + cols
        # Phase switch: queue discharge restarts, unused service credit
        # must not carry over.
        self._credit.put(flat, 0.0)
        self._c_active.put(
            flat, (new[cell] == self._m_phase[cols]) & green[cell]
        )

    def _serve(self, dt: float, now: float) -> None:
        """One vectorized serve pass over the live cells (exact).

        A cell (replication, movement) is *eligible* when its node is
        green, past start-up, and the movement belongs to the running
        phase; it is *live* when it is eligible and either queues a
        vehicle or holds less credit than the bank.  Skipping an
        eligible cell that is not live is exact: its queue is empty, so
        its bound is 0 (never servable, never binding, as occupancy
        never exceeds capacity), and its credit write is
        ``min(bank + accrual, bank) == bank``, the value it holds.
        Cells are addressed by flat index (``b * n_movements + gid``),
        their nodes by ``b * n_nodes + n`` and roads by
        ``b * n_roads + ri``.

        The fast path evaluates every live cell against pre-step
        occupancy in one shot.  That equals the sequential reference
        result whenever no movement's downstream ``space`` binds
        (``space >= min(credit value, queue)`` everywhere): within a
        slot, occupancy a movement reads can only *drop* before its
        turn (its only co-active inflow writer would share its out-road
        inside one phase, which the constructor rejects), so a
        non-binding pre-step space stays non-binding in every
        sequential order.  If any space binds anywhere, the staged
        exact path replays the reference order.
        """
        B, N = self._active_phase.shape
        R = len(self._road_ids)
        M = len(self._movement_keys)
        self._amber_time += self._c_amber_dt
        self._green_time += self._c_green_dt
        self._green_slots += self._c_green
        self._service_capacity += self._c_capacity_dt
        queue_len = self._queue_len
        credit = self._credit
        live = queue_len > 0
        live |= credit < self._bank
        live &= self._c_active
        cells = live.ravel().nonzero()[0]
        lb, lm = np.divmod(cells, M)
        nodes = lb * N + self._node_of[lm]
        serving = self._c_green
        if now < self._startup_until:
            in_startup = (now - self._phase_started) < self._startup_lost
            waiting = serving & in_startup
            self._wasted_green_slots += waiting
            serving = serving ^ waiting
            keep = serving.ravel()[nodes]
            cells, lb, lm, nodes = cells[keep], lb[keep], lm[keep], nodes[keep]
        self.cells_served += len(cells)
        if not len(cells):
            # Nothing queued, every credit banked: every serving node
            # wastes its slot (reference: served 0, nothing servable).
            self._wasted_green_slots += serving
            return
        occ = self._occ
        occ_flat = occ.reshape(-1)
        queued = queue_len.take(cells)
        value = credit.take(cells) + self._accrual[lm]
        bound = np.minimum(value, queued)
        out = lb * R + self._out_idx[lm]
        nonexit = self._m_nonexit[lm]
        space = self._m_out_cap[lm] - occ_flat[out]
        if (nonexit & (space < bound)).any():
            self.staged_slots += 1
            eligible = np.zeros(B * M, dtype=bool)
            eligible[cells] = True
            limit_total, servable_total = self._serve_staged(
                eligible.reshape(B, M), credit + self._accrual, queue_len, occ
            )
            limit = limit_total.take(cells)
            servable = servable_total.take(cells)
            served = limit.nonzero()[0]
        else:
            # Fast path: space never binds, so every limit is the
            # credit/queue bound and space > 0 wherever a queue waits.
            self.fast_slots += 1
            limit = bound.astype(np.int64)
            servable = queued > 0
            served = limit.nonzero()[0]
            if len(served):
                vals = limit[served]
                np.add.at(
                    occ_flat, lb[served] * R + self._in_idx[lm[served]], -vals
                )
                ne = served[nonexit[served]]
                np.add.at(occ_flat, out[ne], limit[ne])
        # Bank at most one slot of unused service credit (reference
        # rule), for exactly the movements the reference loop touched.
        credit.put(cells, np.minimum(value - limit, self._bank[lm]))
        # A node that served a vehicle had a servable movement, so a
        # serving node wastes its slot exactly when none was servable.
        had_servable = np.zeros(B * N, dtype=bool)
        had_servable[nodes[servable]] = True
        self._wasted_green_slots += serving & ~had_servable.reshape(B, N)
        if len(served):
            sb, sm, vals = lb[served], lm[served], limit[served]
            np.add.at(self._vehicles_served.reshape(-1), nodes[served], vals)
            # Cells are unique: a plain fancy update, no ufunc.at.
            queue_len.reshape(-1)[cells[served]] -= vals
            np.subtract.at(self._queued_total, sb, vals)
            exit_mask = self._m_is_exit[sm]
            if exit_mask.any():
                np.add.at(
                    self.collector.vehicles_left,
                    sb[exit_mask],
                    vals[exit_mask],
                )
            self._transfer_units(sb, sm, vals, now)

    def _serve_staged(
        self,
        eligible: np.ndarray,
        value: np.ndarray,
        queue_len: np.ndarray,
        occ: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The exact staged pass for congested slots (see module doc)."""
        B = self.batch_size
        M = len(self._movement_keys)
        limit_total = np.zeros((B, M), dtype=np.int64)
        servable = np.zeros((B, M), dtype=bool)
        for ids in self._stages:
            el = eligible[:, ids]
            if not el.any():
                continue
            queued = queue_len[:, ids]
            bound = np.minimum(value[:, ids], queued)
            is_exit = self._m_is_exit[ids]
            space = self._m_out_cap[ids][None, :] - occ[:, self._out_idx[ids]]
            bound = np.where(
                is_exit[None, :], bound, np.minimum(bound, space)
            )
            servable[:, ids] = el & (queued > 0) & (
                is_exit[None, :] | (space > 0)
            )
            limit = bound.astype(np.int64)
            limit *= el
            if limit.any():
                limit_total[:, ids] = limit
                sb, sm = np.nonzero(limit)
                vals = limit[sb, sm]
                gids = ids[sm]
                np.add.at(occ, (sb, self._in_idx[gids]), -vals)
                ne = self._m_nonexit[gids]
                if ne.any():
                    np.add.at(
                        occ, (sb[ne], self._out_idx[gids[ne]]), vals[ne]
                    )
        return limit_total, servable

    def _transfer_units(
        self,
        bs: np.ndarray,
        ms: np.ndarray,
        vals: np.ndarray,
        now: float,
    ) -> None:
        """Apply the per-unit queue pops / transit pushes of one serve.

        No ordering pass is needed: a transit FIFO's within-step push
        order could only matter if two co-active movements shared an
        out-road, which the constructor rejects — every (replication,
        out-road) receives at most one cohort per serve.
        """
        limits = vals.tolist()
        readies = (now + self._m_out_ttime[ms]).tolist()
        head_b: List[int] = []
        head_r: List[int] = []
        head_v: List[float] = []
        M = len(self._movement_keys)
        R = len(self._road_ids)
        out_roads = self._transfer_plan
        lanes = self._lanes
        transits = self._transit
        tracked = ([], []) if self._sensed is not None else None
        for i, (b, m) in enumerate(zip(bs.tolist(), ms.tolist())):
            limit = limits[i]
            pop = lanes[b * M + m].popleft
            ri = out_roads[m]
            if ri is None:  # exit movement: vehicles leave
                for _ in range(limit):
                    pop()
                continue
            key = b * R + ri
            transit = transits.get(key)
            if not transit:
                if transit is None:
                    transit = transits[key] = deque()
                # (b, ri) pairs are unique here — a shared out-road
                # within one phase is rejected at construction.
                head_b.append(b)
                head_r.append(ri)
                head_v.append(readies[i])
            cohort = [pop() for _ in range(limit)]
            if tracked is not None:
                self._track_push(b, ri, readies[i], transit, cohort, tracked)
            transit.append((readies[i], cohort))
        if head_b:
            self._head_ready[head_b, head_r] = head_v
        if tracked is not None:
            self._commit_tracked(tracked)

    def _refill_window(self, dt: float, now: float) -> None:
        """Draw the next ``ARRIVAL_WINDOW`` mini-slots of arrival counts.

        :func:`~repro.model.arrivals.slot_times` replicates the engine
        clock's own float accumulation, so every replication's
        :class:`PoissonArrivals` draws exactly what a serial run would.
        """
        times = slot_times(now, dt)
        window = np.empty(
            (ARRIVAL_WINDOW, self.batch_size, len(self._entry_ids)),
            dtype=np.int64,
        )
        for b, processes in enumerate(self._arrivals):
            for e, process in enumerate(processes):
                window[:, b, e] = process.sample_count_block(times, dt)
        self._window = window
        self._window_pos = 0

    def _inject(self, dt: float, now: float) -> None:
        if self._window is None or self._window_pos >= ARRIVAL_WINDOW:
            self._refill_window(dt, now)
        counts = self._window[self._window_pos]
        self._window_pos += 1
        candidates = (counts > 0) | (self._backlog_len > 0)
        if not candidates.any():
            return
        pairs = np.argwhere(candidates)
        pb, pe = pairs[:, 0], pairs[:, 1]
        road_of_pair = self._entry_idx[pe]
        # Entry roads are distinct per (replication, entry) pair, so a
        # pre-loop occupancy gather sees exactly what the sequential
        # reference loop would read, and all writes commit in one
        # scatter each afterwards.
        spaces = (self._caps[road_of_pair] - self._occ[pb, road_of_pair]).tolist()
        readies = (now + self._transit_time[road_of_pair]).tolist()
        count_list = counts[pb, pe].tolist()
        road_list = road_of_pair.tolist()
        entry_ids = self._entry_ids
        plans = self._inject_plan
        head_b: List[int] = []
        head_r: List[int] = []
        head_v: List[float] = []
        delta_b: List[int] = []
        delta_e: List[int] = []
        delta_backlog: List[int] = []
        delta_admitted: List[int] = []
        route_nexts = self._route_nexts
        transits = self._transit
        tracked = ([], []) if self._sensed is not None else None
        for i, (b, e) in enumerate(zip(pb.tolist(), pe.tolist())):
            backlog, transit_key, router = plans[b][e]
            count = count_list[i]
            admitted = 0
            if count:
                road_id = entry_ids[e]
                sample_route = router.sample_route
                for _ in range(count):
                    route = sample_route(road_id)
                    unit = route_nexts.get(id(route))
                    if unit is None:
                        unit = dict(zip(route, route[1:]))
                        if len(unit) != len(route) - 1:
                            # A road revisited along one route would
                            # alias in the next-hop map; grid routes
                            # never do (the samplers reject loops).
                            raise ValueError(
                                f"meso-vec: route revisits a road: {route}"
                            )
                        route_nexts[id(route)] = unit
                    backlog.append(unit)
            if backlog:
                space = spaces[i]
                if space > 0:
                    transit = transits.get(transit_key)
                    if not transit:
                        if transit is None:
                            transit = transits[transit_key] = deque()
                        head_b.append(b)
                        head_r.append(road_list[i])
                        head_v.append(readies[i])
                    pop = backlog.popleft
                    cohort = []
                    while backlog and admitted < space:
                        cohort.append(pop())
                        admitted += 1
                    if tracked is not None:
                        self._track_push(
                            b, road_list[i], readies[i], transit, cohort,
                            tracked,
                        )
                    transit.append((readies[i], cohort))
            if count or admitted:
                delta_b.append(b)
                delta_e.append(e)
                delta_backlog.append(count - admitted)
                delta_admitted.append(admitted)
        if head_b:
            self._head_ready[head_b, head_r] = head_v
        if tracked is not None:
            self._commit_tracked(tracked)
        if delta_b:
            np.add.at(self._backlog_len, (delta_b, delta_e), delta_backlog)
            admitted_arr = np.array(delta_admitted, dtype=np.int64)
            occ_b = delta_b
            np.add.at(
                self._occ,
                (occ_b, self._entry_idx[delta_e]),
                admitted_arr,
            )
            np.add.at(
                self.collector.vehicles_entered, delta_b, admitted_arr
            )

    # -- termination and introspection ---------------------------------------

    def finalize(self) -> None:
        """Close the aggregate books (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        self.collector.absorb_backlog(self._backlog_len.sum(axis=1))

    def summaries(self, duration: Optional[float] = None) -> List[Summary]:
        """Per-replication run summaries, in batch order."""
        return self.collector.summaries(duration)

    def utilization_of(self, replication: int) -> Dict[str, UtilizationTracker]:
        """One replication's per-intersection utilization books."""
        out: Dict[str, UtilizationTracker] = {}
        for n, node_id in enumerate(self._node_ids):
            out[node_id] = UtilizationTracker(
                node_id=node_id,
                green_time=float(self._green_time[replication, n]),
                amber_time=float(self._amber_time[replication, n]),
                service_capacity=float(
                    self._service_capacity[replication, n]
                ),
                vehicles_served=int(self._vehicles_served[replication, n]),
                wasted_green_slots=int(
                    self._wasted_green_slots[replication, n]
                ),
                green_slots=int(self._green_slots[replication, n]),
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
        """
        gids = self._columns_of_road.get(road_id)
        if gids is None:
            return np.zeros(self.batch_size, dtype=np.int64)
        return self._queue_len[:, gids].sum(axis=1)

    def vehicles_in_network(self) -> np.ndarray:
        """Total vehicles currently inside the network, per replication."""
        return self._occ.sum(axis=1)

    def backlog_size(self) -> np.ndarray:
        """Vehicles gated outside a full entry, per replication."""
        return self._backlog_len.sum(axis=1)


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


register_batch_engine("meso-vec", _batch_from_scenarios)

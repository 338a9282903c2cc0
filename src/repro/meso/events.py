"""The event-driven mesoscopic engine (``"meso-events"``).

Every stepped engine — ``meso``, ``meso-counts``, ``meso-vec`` — pays
for every mini-slot on every road and intersection, even when nothing
moves.  In the light-load, large-grid regime of the paper's stability
experiments most of that work is idle: on ``steady-10x10`` at load
0.10 only ~7 of 100 intersections have a vehicle queued in their
active phase on a typical slot.  :class:`EventCountsSimulator` is a
discrete-event reformulation of :class:`~repro.meso.counts.
CountsSimulator` that does work only where state can change, while
producing bit-for-bit the same trajectory.

Event-loop design
-----------------

The engine keeps a single **calendar queue** (:class:`EventCalendar`,
a ``heapq`` of ``(time, priority, seq)`` keys) holding three typed
events:

* **transit head-ready** (``PRIO_PROMOTE``): the earliest time a
  road's leading transit cohort reaches the stop line.  Free-flow time
  is constant per road and the clock is monotone, so each road needs
  at most one live entry — pushed when a unit enters an *empty*
  transit FIFO or when a promotion leaves residue behind.
* **arrival-window refill** (``PRIO_REFILL``): Poisson counts for all
  demand roads are pre-drawn one window
  (:data:`~repro.model.arrivals.ARRIVAL_WINDOW` slots) at a time, one
  :meth:`~repro.model.arrivals.PoissonArrivals.sample_count_block`
  call per road — the per-slot draws exactly — and only the nonzero
  slots are scheduled: zero-count slots (the vast majority at low
  load, and *every* slot of a zero-rate tidal phase, which draws
  nothing) get no event at all.
* **segment arrival batch** (``PRIO_ARRIVAL``): one event per slot
  that actually receives vehicles, carrying ``(road, count)``.

Ties are broken by ``(time, priority, seq)`` — promote < refill <
arrival, then insertion order — so the pop order is explicit, stable,
and independent of payload contents (the monotone ``seq`` guarantees
payloads are never compared).

Each ``step(dt, phases)`` then touches only:

* events due at the current slot (popped once, up front — a refill is
  expanded inline so same-slot arrivals it schedules are still seen);
* **phase switches**, detected by comparing ``phases`` against a
  snapshot of the previously applied mapping (a dict-equality check;
  on change slots, a full scan re-derives each intersection's mode);
* **active intersections** — those with a vehicle queued in a
  movement of their current green phase.  Only these can serve, and
  only serving mutates shared state (occupancy, downstream transit,
  the full-roads set), so skipping the rest is exact.  The serve
  arithmetic is the counts engine's, term for term, and active nodes
  run in the same canonical intersection order, preserving within-slot
  downstream-space coupling.
* **controller decision points and metric samples** are the slot grid
  itself: the engine is still driven slot-by-slot through the
  ``SimulationEngine`` protocol (decisions may change at any slot), so
  traces land on exactly the fixed grid the other engines use.

Everything an idle intersection would have accrued — green/amber
time, service capacity, wasted-slot counts, service-credit banking —
is deferred as a *lazy span* and flushed on the next mode change (or
``finalize``).  Flushes use closed forms ``n * x`` only where binary
arithmetic makes them exact (dyadic increments); non-dyadic constants
(e.g. the 1/1.3 saturation rate) and credit banking are replayed with
the engine's own per-slot recurrence, with an early exit once the
credit hits its bank fixed point.  The waiting/in-network integrals of
the aggregate collector are likewise coalesced into spans between
count changes.

**Contract.**  The mini-slot must stay constant across the run (like
``meso-vec``).  If the first ``dt`` is not binary-exact (integers,
halves, quarters...), the lazy closed forms above would drift in the
last ulp, so the engine permanently falls back to per-slot
``CountsSimulator.step`` — still bit-exact, just not event-driven.
The parity suite in ``tests/test_engine_parity.py`` asserts closed-
and open-loop equality with ``meso``/``meso-counts`` under shared
seeds; ``tests/test_meso_events.py`` covers the calendar ordering and
the lazy-flush bookkeeping.

**Control.**  Skipping idle slots leaves the controller as the bulk of
a closed-loop slot, so the runner decides this engine with a B=1 batch
kernel (:mod:`repro.control.batch`) instead of per-intersection Python
controllers.  :meth:`EventCountsSimulator.sense_arrays` is its one
sensor, read only when a kernel reads the arrays; ``observations()``
is its dict view, so the parity suites check what the kernel reads.
Sensing keeps the same kind of economy as stepping: a persistent
stop-line row is rewritten only over the column spans of the nodes
whose counts a step changed (promotion targets and served nodes; the
per-slot fallback marks every node), and the in-transit units inside
the sensing horizon are added to a copy of it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.engine import ArrayFacade
from repro.meso.counts import CountsSimulator
from repro.model.arrivals import SlotGrid
from repro.model.phases import TRANSITION_PHASE_INDEX
from repro.model.queues import QueueObservation
from repro.util.validation import check_positive

__all__ = [
    "EventCalendar",
    "EventCountsSimulator",
    "PRIO_PROMOTE",
    "PRIO_REFILL",
    "PRIO_ARRIVAL",
]

#: Event priorities: transit promotions before arrival-window refills
#: before arrival batches at the same instant.
PRIO_PROMOTE = 0
PRIO_REFILL = 1
PRIO_ARRIVAL = 2

#: Intersection modes between events.
_MODE_AMBER = 0  # transition phase applied; amber time accrues lazily
_MODE_IDLE = 1  # green, but no vehicle queued in the phase's movements
_MODE_ACTIVE = 2  # green with queued vehicles; served eagerly each slot

_INF = float("inf")


class EventCalendar:
    """A heapq calendar with explicit ``(time, priority, seq)`` order.

    ``seq`` is a monotone insertion counter, so (a) equal
    ``(time, priority)`` entries pop in push order and (b) payloads
    are never compared by the heap.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, priority: int, payload) -> None:
        """Schedule ``payload`` at ``time`` with the given priority."""
        self._seq += 1
        heappush(self._heap, (time, priority, self._seq, payload))

    def peek_time(self) -> float:
        """Time of the earliest event (``inf`` when empty)."""
        return self._heap[0][0] if self._heap else _INF

    def pop(self) -> tuple:
        """Pop and return the earliest ``(time, priority, seq, payload)``."""
        return heappop(self._heap)


def _is_dyadic(value: float) -> bool:
    """Whether ``value`` is an exact multiple of 2**-20.

    Sums and products of such values (within range) round to nothing,
    so lazy closed forms equal per-slot accumulation bit for bit.
    """
    return (value * 1048576.0).is_integer()


class EventCountsSimulator(CountsSimulator, ArrayFacade):
    """Event-driven counts simulator (see module docstring).

    Accepts the same arguments as
    :class:`~repro.meso.counts.CountsSimulator` and produces, under a
    shared seed and a constant binary-exact mini-slot, the identical
    trajectory — observations, occupancy, utilization books, metric
    integrals — while skipping all idle work.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._calendar = EventCalendar()
        #: Constant mini-slot, fixed by the first ``step`` call.
        self._dt: Optional[float] = None
        #: Slot index == number of steps taken (slot ``k`` starts at
        #: ``k * dt``, which the accumulated ``self.time`` equals
        #: exactly for dyadic ``dt``).
        self._slot = 0
        #: Non-dyadic mini-slot: delegate every step to the parent.
        self._per_slot_fallback = False
        #: Snapshot of the last applied phase mapping (a *copy*, so
        #: callers that mutate their dict in place are still detected).
        self._last_phases: Optional[Dict[str, int]] = None
        #: First slot offset (since phase start) past startup lost time.
        self._startup_slots = 0

        n_nodes = len(self._serve_plan)
        #: Per-(node, phase) cached flush constants (lazy; needs dt).
        self._flush_plans: List[Dict[int, tuple]] = [
            {} for _ in range(n_nodes)
        ]
        #: ``(max_service, movements)`` of each currently-active
        #: node's phase, set at activation so the serve loop skips the
        #: per-slot plan lookup (stale entries are never read: the
        #: serve loop only visits ``_active_set`` members).
        self._active_plan: List[Optional[tuple]] = [None] * n_nodes
        self._mode: List[int] = [_MODE_AMBER] * n_nodes
        #: Slot the current lazy span begins at (amber / green-idle).
        self._span_start: List[int] = [0] * n_nodes
        #: Slot the current phase was applied at (for startup replay).
        self._started_slot: List[int] = [0] * n_nodes
        self._active_set: set = set()

        tables = self._bind_tables(self.network)
        #: Serve position of the intersection each promotable road
        #: feeds (a road ends at exactly one intersection).
        self._slot_to_pos: List[int] = [
            tables.pos_of_road[road_id] for road_id in self._lanes
        ]

        #: Demand roads with a non-empty backlog (admission must be
        #: re-attempted every slot, as the parent does).
        self._backlogged: set = set()
        #: Start time of the *next* arrival window to draw.
        self._next_window_time = 0.0

        # Aggregate-collector span (waiting/in-network integrals).
        self._mspan_slots = 0
        self._mspan_waiting = 0
        self._mspan_in_network = 0

        # -- controller-array façade tables --------------------------------
        #: Live count dicts in layout order (node-major, each in
        #: movement declaration order), copied into the stop-line row.
        self._count_dicts = [entry[6] for entry in self._serve_plan]
        self._node_spans = tables.node_spans
        #: The count dicts as of the last sensing, node-major; only the
        #: spans of the nodes in ``_dirty_nodes`` are stale.
        self._stop_line_row = np.zeros(tables.n_movements, np.int64)
        #: Serve positions whose count dicts a step changed since the
        #: last sensing: promotion targets and served nodes.
        self._dirty_nodes: set = set()
        #: The parent's head-ready cache as a float64 array (same
        #: values, same write sites), so sensing finds the roads with a
        #: unit inside the horizon in one comparison.
        self._head_ready = np.array(self._head_ready, dtype=np.float64)
        #: Per promotable road: its transit FIFO and the movement
        #: column of each next road, for the sensing-horizon scan.
        self._sensing_columns = [
            (self._transit[road_id], tables.columns_of_road[road_id])
            for road_id in self._lanes
        ]

    # -- controller-array façade ------------------------------------------
    # ``movement_layout`` and ``controller_arrays()`` come from
    # :class:`~repro.core.engine.ArrayFacade`.

    def observations(self) -> Dict[str, QueueObservation]:
        """``Q(k)`` per intersection: the dict view of :meth:`sense_arrays`."""
        return self._tables.observations(self.time, *self.sense_arrays())[0]

    def sense_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(queues, out_queues)`` as ``(1, n_movements)`` arrays.

        The engine's one sensor, reading what ``meso-counts``'
        ``observations()`` reads: stop-line queues plus units in transit
        within the sensing horizon, and the out-queue of each
        movement's outgoing road from the spillback sensor.  The
        stop-line row persists between reads; only the column spans of
        nodes whose counts changed since the last read are rewritten,
        and the sensed in-transit units are added to a copy of it.  Both
        arrays are read-only snapshots that no later step changes.
        """
        row = self._stop_line_row
        dirty = self._dirty_nodes
        if dirty:
            spans = self._node_spans
            count_dicts = self._count_dicts
            for position in dirty:
                first, end = spans[position]
                row[first:end] = list(count_dicts[position].values())
            dirty.clear()
        deadline = self.time + self._sensing_horizon
        sensing = self._sensing_columns
        sensed_columns = []
        for slot in np.flatnonzero(self._head_ready <= deadline).tolist():
            transit, column_of = sensing[slot]
            for ready, route, leg in transit:
                if ready > deadline:
                    break
                sensed_columns.append(column_of[route[leg + 1]])
        queues = row.copy()
        if sensed_columns:
            queues += np.bincount(sensed_columns, minlength=len(row))
        queues = queues[None, :]
        queues.flags.writeable = False
        # Only roads at capacity read non-zero, and every such road is
        # in the full-roads set.
        occupancy = self._occupancy
        capacity = self._capacity
        out_queues = self._tables.out_queue_row(
            (road_id, occupancy[road_id])
            for road_id in self._full_roads
            if occupancy[road_id] >= capacity[road_id]
        )
        return queues, out_queues

    # -- arrival windows ---------------------------------------------------

    def _draw_arrival_window(self) -> None:
        """Pre-draw one window of Poisson counts for every demand road.

        Consumes each road's private arrival stream exactly as the
        per-slot calls would (one ``sample_count_block`` per road, all
        over the window's one :class:`SlotGrid`) and
        schedules one calendar event per slot that actually receives
        vehicles.
        """
        dt = self._dt
        grid = SlotGrid.starting(self._next_window_time, dt)
        time_list = grid.times.tolist()
        calendar = self._calendar
        for idx, plan in enumerate(self._inject_plan):
            counts = plan[1].sample_count_block(grid)
            slots = np.flatnonzero(counts)
            for j, count in zip(slots.tolist(), counts[slots].tolist()):
                calendar.push(time_list[j], PRIO_ARRIVAL, (idx, count))
        end = time_list[-1] + dt
        self._next_window_time = end
        calendar.push(end, PRIO_REFILL, None)

    # -- lazy-span flushing ------------------------------------------------
    #
    # Exactness of the closed forms below: with a dyadic ``dt`` (and
    # dyadic per-slot increments), every partial sum the parent engine
    # would have formed is an exact multiple of 2**-20, so the
    # ``slots * increment`` shortcut rounds identically — for any
    # total below 2**33 (an 8-billion-second horizon; far beyond any
    # run).  Non-dyadic increments (the 1/1.3 saturation rate) are
    # replayed slot by slot instead.

    def _phase_plan_dt(self, position: int, phase_index: int) -> tuple:
        """Cached per-(node, phase) plan with the constant ``dt`` folded in.

        ``(max_service, max_service_is_dyadic, credit_replay,
        movements)`` where ``credit_replay`` is ``[(credit index,
        per-slot credit increment, bank), ...]`` and ``movements``
        mirrors the parent's serve-plan tuples with ``rate * dt`` and
        the bank precomputed: ``(credit index, count key, in_road,
        lane, out_is_exit, out_road, out_capacity, credit increment,
        bank, out_transit_time, out_transit FIFO, out_slot)``.
        Computable only once ``dt`` is known, hence cached lazily.
        """
        cache = self._flush_plans[position]
        plan = cache.get(phase_index)
        if plan is None:
            dt = self._dt
            rate_sum, movements = self._serve_plan[position][5][phase_index]
            replay = []
            folded = []
            for movement in movements:
                credit_increment = movement[7] * dt
                bank = credit_increment if credit_increment > 1.0 else 1.0
                if credit_increment != 0.0:
                    replay.append((movement[0], credit_increment, bank))
                folded.append(
                    movement[:7] + (credit_increment, bank) + movement[8:]
                )
            max_service = rate_sum * dt
            plan = (max_service, _is_dyadic(max_service), replay, folded)
            cache[phase_index] = plan
        return plan

    def _flush_node_span(
        self, position: int, end_slot: int, replay_credits: bool
    ) -> None:
        """Flush the lazy amber/green-idle span of one intersection.

        Covers slots ``[span_start, end_slot)``; the utilization books
        and (for green spans) the movement credits end up exactly as
        if the parent engine had stepped each slot.  Credit replay is
        skipped when the caller is about to reset the credits anyway
        (a phase switch discards banked credit in both engines).
        """
        slots = end_slot - self._span_start[position]
        if slots <= 0:
            return
        self._span_start[position] = end_slot
        tracker = self._serve_plan[position][3]
        dt = self._dt
        if self._mode[position] == _MODE_AMBER:
            tracker.amber_time += slots * dt
            return
        increment, exact, replay_plan, _ = self._phase_plan_dt(
            position, self._active_phase[position]
        )
        tracker.green_time += slots * dt
        tracker.green_slots += slots
        if exact:
            tracker.service_capacity += slots * increment
        else:
            value = tracker.service_capacity
            for _ in range(slots):
                value += increment
            tracker.service_capacity = value
        # Every empty-lane green slot is wasted, in startup or not.
        tracker.wasted_green_slots += slots
        if replay_credits and replay_plan:
            # Idle credit follows ``c <- min(c + increment, bank)`` —
            # monotone to the bank fixed point, so the replay exits
            # after a few slots regardless of span length.
            first_served = self._started_slot[position] + self._startup_slots
            if first_served < end_slot - slots:
                first_served = end_slot - slots
            remaining = end_slot - first_served
            if remaining > 0:
                credit = self._credit
                for index, credit_increment, bank in replay_plan:
                    value = credit[index]
                    if value == bank:
                        continue
                    left = remaining
                    while left > 0:
                        total = value + credit_increment
                        value = total if total < bank else bank
                        if value == bank:
                            break
                        left -= 1
                    credit[index] = value

    def _flush_metrics_span(self) -> None:
        if self._mspan_slots:
            self.collector.record_interval(
                self._mspan_slots * self._dt,
                self._mspan_waiting,
                self._mspan_in_network,
            )
            self._mspan_slots = 0

    # -- phase bookkeeping -------------------------------------------------

    def _phase_lanes_queued(self, movements) -> bool:
        """Whether any movement of a green phase has a queued vehicle."""
        for movement in movements:
            if movement[3]:
                return True
        return False

    def _apply_phases(self, phases: Mapping[str, int]) -> None:
        """Re-derive every intersection's mode from a new phase mapping.

        Runs only on slots where ``phases`` differs from the snapshot
        of the previous mapping.  Mirrors the parent's switch handling:
        the old span is flushed, credits reset, startup restarts.
        """
        now = self.time
        slot = self._slot
        active = self._active_phase
        started = self._phase_started
        credit = self._credit
        mode = self._mode
        get_phase = phases.get
        for entry in self._serve_plan:
            position = entry[1]
            new_phase = get_phase(entry[0], TRANSITION_PHASE_INDEX)
            if new_phase == active[position]:
                continue
            if mode[position] != _MODE_ACTIVE:
                # No credit replay: the switch resets credits below,
                # discarding whatever the idle slots would have banked
                # (exactly as the parent's per-slot reset does).
                self._flush_node_span(position, slot, False)
            else:
                self._active_set.discard(position)
            active[position] = new_phase
            started[position] = now
            self._started_slot[position] = slot
            for index in entry[4]:
                credit[index] = 0.0
            if new_phase == TRANSITION_PHASE_INDEX:
                mode[position] = _MODE_AMBER
                self._span_start[position] = slot
                continue
            plan = entry[5].get(new_phase)
            if plan is None:
                entry[2].phase_by_index(new_phase)  # raises KeyError
            if self._phase_lanes_queued(plan[1]):
                mode[position] = _MODE_ACTIVE
                self._active_set.add(position)
                folded = self._phase_plan_dt(position, new_phase)
                self._active_plan[position] = (folded[0], folded[3])
            else:
                mode[position] = _MODE_IDLE
                self._span_start[position] = slot
        self._last_phases = dict(phases)

    def _activate_if_queued(self, position: int) -> None:
        """Promote a green-idle intersection to active if a lane filled."""
        movements = self._serve_plan[position][5][
            self._active_phase[position]
        ][1]
        if not self._phase_lanes_queued(movements):
            return
        self._flush_node_span(position, self._slot, True)
        self._mode[position] = _MODE_ACTIVE
        self._active_set.add(position)
        folded = self._phase_plan_dt(
            position, self._active_phase[position]
        )
        self._active_plan[position] = (folded[0], folded[3])

    # -- stepping ----------------------------------------------------------

    def step(self, dt: float, phases: Mapping[str, int]) -> None:
        """Advance one mini-slot under the given phases.

        Same semantics as :meth:`CountsSimulator.step`, with one added
        contract: ``dt`` must stay constant across the run.
        """
        check_positive("dt", dt)
        if self._finalized:
            raise RuntimeError("simulator already finalized")
        if self._dt is None:
            self._dt = dt
            if _is_dyadic(dt):
                self._startup_slots = self._startup_offset(dt)
                self._draw_arrival_window()
            else:
                # Lazy closed forms would drift in the last ulp on a
                # non-dyadic grid; per-slot stepping stays bit-exact.
                self._per_slot_fallback = True
        elif dt != self._dt:
            raise ValueError(
                f"meso-events requires a constant mini-slot: "
                f"got {dt}, expected {self._dt}"
            )
        if self._per_slot_fallback:
            super().step(dt, phases)
            self._dirty_nodes.update(range(len(self._node_spans)))
            return

        now = self.time
        calendar = self._calendar
        heap = calendar._heap

        # 1. Pop every event due this slot.  Refills are expanded
        # inline so same-instant arrivals they schedule are still
        # popped; promote events land in slot order for determinism.
        due_promotes: List[int] = []
        arrival_counts: Optional[Dict[int, int]] = None
        while heap and heap[0][0] <= now:
            _, priority, _, payload = heappop(heap)
            if priority == PRIO_PROMOTE:
                due_promotes.append(payload)
            elif priority == PRIO_ARRIVAL:
                if arrival_counts is None:
                    arrival_counts = {}
                arrival_counts[payload[0]] = payload[1]
            else:
                self._draw_arrival_window()

        # 2. Transit heads that reached the stop line.
        if due_promotes:
            due_promotes.sort()
            head_ready = self._head_ready
            promotable = self._promotable
            promoted = 0
            for road_slot in due_promotes:
                slot, transit, lanes, counts, key_by_out = (
                    promotable[road_slot]
                )
                while transit and transit[0][0] <= now:
                    unit = transit.popleft()
                    next_road = unit[1][unit[2] + 1]
                    lanes[next_road].append(unit)
                    counts[key_by_out[next_road]] += 1
                    promoted += 1
                if transit:
                    head = transit[0][0]
                    head_ready[slot] = head
                    calendar.push(head, PRIO_PROMOTE, slot)
                else:
                    head_ready[slot] = _INF
            self._queued_total += promoted
            mode = self._mode
            slot_to_pos = self._slot_to_pos
            mark_dirty = self._dirty_nodes.add
            for road_slot in due_promotes:
                position = slot_to_pos[road_slot]
                mark_dirty(position)
                if mode[position] == _MODE_IDLE:
                    self._activate_if_queued(position)

        # 3. Phase switches (cheap equality check on the common path).
        if phases != self._last_phases:
            self._apply_phases(phases)

        # 4. Serve the active intersections, in canonical order — the
        # only per-slot work that can move vehicles between roads.
        if self._active_set:
            self._serve_active(dt)

        # 5. Inject arrivals and retry blocked admissions.
        if arrival_counts is not None or self._backlogged:
            self._inject_events(arrival_counts)

        # 6. Advance the clock and the lazy metric span.
        self.time = now + dt
        self._slot += 1
        waiting = self._queued_total + self._backlog_total
        in_network = self._in_network
        if (
            waiting != self._mspan_waiting
            or in_network != self._mspan_in_network
        ):
            self._flush_metrics_span()
            self._mspan_waiting = waiting
            self._mspan_in_network = in_network
            self._mspan_slots = 1
        else:
            self._mspan_slots += 1

    def _startup_offset(self, dt: float) -> int:
        """Slots from phase start until service can begin.

        Smallest ``e`` with ``e * dt >= startup_lost`` — the parent's
        per-slot ``now - started < startup_lost`` test in closed form
        (exact: both sides are dyadic).
        """
        startup = self._startup_lost
        e = int(startup / dt)
        while e * dt < startup:
            e += 1
        while e > 0 and (e - 1) * dt >= startup:
            e -= 1
        return e

    def _serve_active(self, dt: float) -> None:
        """One slot of service at every active intersection.

        The movement arithmetic is :meth:`CountsSimulator._serve`
        verbatim (credit accrual/banking, downstream space, the
        utilization books); the phase-switch handling already ran in
        :meth:`_apply_phases`, and only intersections with a queued
        active-phase vehicle are visited.
        """
        credit = self._credit
        started = self._phase_started
        occupancy = self._occupancy
        full_roads = self._full_roads
        head_ready = self._head_ready
        calendar = self._calendar
        now = self.time
        startup_lost = self._startup_lost
        serve_plan = self._serve_plan
        queued_delta = 0
        left_delta = 0
        active_plan = self._active_plan
        for position in sorted(self._active_set):
            entry = serve_plan[position]
            tracker = entry[3]
            counts = entry[6]
            max_service, movements = active_plan[position]
            tracker.green_time += dt
            tracker.green_slots += 1
            tracker.service_capacity += max_service
            if now - started[position] < startup_lost:
                tracker.wasted_green_slots += 1
                continue
            served_total = 0
            had_servable = False
            still_queued = 0
            for (
                index,
                key,
                in_road,
                lane,
                out_is_exit,
                out_road,
                out_capacity,
                increment,
                bank,
                out_transit_time,
                out_transit,
                out_slot,
            ) in movements:
                queued = len(lane)
                value = credit[index] + increment
                if out_is_exit:
                    if queued:
                        had_servable = True
                    bound = value if value < queued else queued
                    limit = int(bound)
                    if limit:
                        for _ in range(limit):
                            lane.popleft()
                        counts[key] -= limit
                        occupancy[in_road] -= limit
                        queued_delta -= limit
                        left_delta += limit
                        value -= limit
                        if full_roads:
                            full_roads.discard(in_road)
                else:
                    space = out_capacity - occupancy[out_road]
                    if queued and space > 0:
                        had_servable = True
                    bound = value if value < queued else queued
                    if space < bound:
                        bound = space
                    limit = int(bound)
                    if limit:
                        ready = now + out_transit_time
                        if not out_transit:
                            head_ready[out_slot] = ready
                            calendar.push(ready, PRIO_PROMOTE, out_slot)
                        push = out_transit.append
                        for _ in range(limit):
                            unit = lane.popleft()
                            push((ready, unit[1], unit[2] + 1))
                        counts[key] -= limit
                        occupancy[in_road] -= limit
                        occupancy[out_road] += limit
                        queued_delta -= limit
                        value -= limit
                        if space == limit:
                            full_roads.add(out_road)
                        if full_roads:
                            full_roads.discard(in_road)
                served_total += limit
                still_queued += queued - limit
                credit[index] = value if value < bank else bank
            tracker.vehicles_served += served_total
            if served_total:
                self._dirty_nodes.add(position)
            elif not had_servable:
                tracker.wasted_green_slots += 1
            if not still_queued:
                # Drained: go lazy from the next slot (credits and
                # books are eager through this one).
                self._active_set.discard(position)
                self._mode[position] = _MODE_IDLE
                self._span_start[position] = self._slot + 1
        self._queued_total += queued_delta
        if left_delta:
            self._in_network -= left_delta
            self.collector.vehicles_left += left_delta

    def _inject_events(self, arrival_counts: Optional[Dict[int, int]]) -> None:
        """Inject this slot's arrivals and retry blocked admissions.

        Visits exactly the demand roads the parent's full scan would
        do non-trivial work on — those with a pre-drawn nonzero count
        or a standing backlog — in the same (injection-plan) order, so
        the shared routing stream is consumed identically.
        """
        if arrival_counts is None:
            indices = sorted(self._backlogged)
        elif self._backlogged:
            indices = sorted(self._backlogged.union(arrival_counts))
        else:
            indices = sorted(arrival_counts)
        now = self.time
        occupancy = self._occupancy
        capacity = self._capacity
        head_ready = self._head_ready
        calendar = self._calendar
        sample_route = self.router.sample_route
        backlogged = self._backlogged
        inject_plan = self._inject_plan
        total_entered = 0
        for idx in indices:
            entry, process, backlog, transit, transit_time, slot = (
                inject_plan[idx]
            )
            if arrival_counts is not None:
                count = arrival_counts.get(idx, 0)
                if count:
                    for _ in range(count):
                        backlog.append((now, sample_route(entry)))
                    self._backlog_total += count
            if not backlog:
                backlogged.discard(idx)
                continue
            space = capacity[entry] - occupancy[entry]
            if space <= 0:
                backlogged.add(idx)
                continue
            ready = now + transit_time
            if not transit:
                head_ready[slot] = ready
                calendar.push(ready, PRIO_PROMOTE, slot)
            admitted = 0
            while backlog and admitted < space:
                _, route = backlog.popleft()
                transit.append((ready, route, 0))
                admitted += 1
            if admitted:
                occupancy[entry] += admitted
                self._backlog_total -= admitted
                total_entered += admitted
                if admitted == space:
                    self._full_roads.add(entry)
            if backlog:
                backlogged.add(idx)
            else:
                backlogged.discard(idx)
        if total_entered:
            self._in_network += total_entered
            self.collector.vehicles_entered += total_entered

    # -- termination -------------------------------------------------------

    def finalize(self) -> None:
        """Flush every lazy span, then close the books (idempotent)."""
        if not self._finalized and self._dt is not None and (
            not self._per_slot_fallback
        ):
            slot = self._slot
            for entry in self._serve_plan:
                if self._mode[entry[1]] != _MODE_ACTIVE:
                    self._flush_node_span(entry[1], slot, True)
            self._flush_metrics_span()
            self.collector.advance(self.time)
        super().finalize()

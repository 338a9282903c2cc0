"""The counts-based mesoscopic engine (``"meso-counts"``).

The reference :class:`~repro.meso.simulator.MesoSimulator` animates the
Sec.-II store-and-forward dynamics with one Python object per vehicle —
faithful, but the per-vehicle bookkeeping (queue deques of entities,
per-vehicle metric records, a transit heap) dominates its runtime.  Yet
Eq. 2 — ``q(k+1) = q(k) + A - S`` — is defined on *queue counts*: the
dynamics never need vehicle identity, only each queued unit's remaining
route.

:class:`CountsSimulator` therefore re-implements the identical dynamics
on count-style structures:

* per-movement queues hold lightweight route cursors (a shared route
  list plus a leg index) instead of vehicle entities;
* transit on a road is a plain FIFO of ``(ready_time, route, leg)``
  cohorts — free-flow time is constant per road and the clock is
  monotone, so arrival order *is* ready order and the reference
  engine's heap degenerates to a ring buffer;
* metrics are aggregate: an
  :class:`~repro.metrics.aggregate.AggregateMetricsCollector`
  integrates waiting/in-network counts per mini-slot (exact totals,
  Little's-law travel-time estimate) instead of per-vehicle records.

**Equivalence.**  All randomness is drawn from the reference engine's
seeded traffic (:func:`~repro.model.plant.seeded_traffic`) in the same
order — per-entry Poisson counts from ``arrivals/<road>`` and a full
per-vehicle route from ``routing`` at injection time — and
every service decision replicates the reference's arithmetic
(service-credit accrual and banking, start-up lost time, downstream
space, transition phases).  Under a shared seed the two engines
produce step-for-step identical queue-count trajectories, observations
and utilization books; the parity suite in
``tests/test_engine_parity.py`` asserts exactly that.

**Limits.**  Only the paper's default ``dedicated`` lane policy is
supported (the mixed shared-FIFO lane of Sec. IV-Q4 is inherently
per-vehicle: head-of-line blocking depends on the head's identity);
per-vehicle delay percentiles/maxima are unavailable — summaries carry
``delay_mode="aggregate"``.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.core.engine import FacadeTables, register_engine
from repro.metrics.aggregate import AggregateMetricsCollector
from repro.metrics.utilization import UtilizationTracker
from repro.model.arrivals import ArrivalSchedule, PoissonArrivals
from repro.model.network import BOUNDARY, Network
from repro.model.phases import TRANSITION_PHASE_INDEX
from repro.model.plant import PlantConstants, scenario_builder, seeded_traffic
from repro.model.queues import QueueObservation
from repro.model.routing import TurningProbabilities
from repro.util.validation import check_positive

__all__ = ["CountsSimulator"]

#: A queued/transiting unit: ``(ready_time, route, leg)`` — the vehicle
#: is on ``route[leg]`` and heads to ``route[leg + 1]`` next.  The same
#: triple object flows from transit into a movement queue unchanged
#: (``ready_time`` is simply ignored there), so promotion allocates
#: nothing.
_Unit = Tuple[float, List[str], int]


class CountsSimulator:
    """Counts-based store-and-forward simulation of a signalized network.

    Accepts the same arguments as the reference
    :class:`~repro.meso.simulator.MesoSimulator` (minus ``lane_policy``
    — see the module docstring) and produces, under a shared seed, the
    identical queue-count trajectory.
    """

    def __init__(
        self,
        network: Network,
        demand: Mapping[str, ArrivalSchedule],
        turning: TurningProbabilities,
        seed: int = 0,
        plant: PlantConstants = PlantConstants(),
    ):
        self.network = network
        self.time = 0.0
        self.collector = AggregateMetricsCollector()
        self._startup_lost = plant.startup_lost
        self._sensing_horizon = plant.sensing_horizon

        # The reference engine's seeded traffic, so shared seeds yield
        # identical draws.
        traffic = seeded_traffic(network, demand, turning, seed)
        self.router = traffic.router
        self._arrivals: Dict[str, PoissonArrivals] = traffic.arrivals

        # -- static per-road state ----------------------------------------
        self._capacity: Dict[str, int] = {
            road_id: road.capacity for road_id, road in network.roads.items()
        }
        self._is_exit: Dict[str, bool] = {
            road_id: network.road_destination[road_id] == BOUNDARY
            for road_id in network.roads
        }
        self._transit_time: Dict[str, float] = plant.transit_times(network)

        # -- dynamic per-road state ----------------------------------------
        #: Vehicles on each road (transit + queued); counts against W_i.
        self._occupancy: Dict[str, int] = {r: 0 for r in network.roads}
        #: FIFO of units rolling towards the stop line, per road.
        self._transit: Dict[str, Deque[_Unit]] = {
            r: deque() for r in network.roads
        }
        #: Movement queues: in_road -> out_road -> FIFO of units.
        self._lanes: Dict[str, Dict[str, Deque[_Unit]]] = {}
        #: Live movement-queue lengths per intersection, maintained
        #: incrementally on promote/serve so ``observations`` copies a
        #: ready dict instead of re-measuring every lane every step.
        self._queue_counts: Dict[str, Dict[Tuple[str, str], int]] = {}
        #: The intersection's count dict and interned movement keys for
        #: each incoming road (promotions bump these).
        counts_of_road: Dict[str, Dict[Tuple[str, str], int]] = {}
        keys_of_road: Dict[str, Dict[str, Tuple[str, str]]] = {}
        for node_id, intersection in network.intersections.items():
            counts = {key: 0 for key in intersection.movements}
            self._queue_counts[node_id] = counts
            for key in intersection.movements:
                in_road, out_road = key
                self._lanes.setdefault(in_road, {}).setdefault(
                    out_road, deque()
                )
                counts_of_road[in_road] = counts
                keys_of_road.setdefault(in_road, {})[out_road] = key
        #: Roads currently at capacity (spillback sensors read their
        #: occupancy); maintained at every occupancy mutation site.
        self._full_roads: set = set()
        #: (slot, transit FIFO, lane map, count dict, out_road ->
        #: movement key) per road that feeds an intersection.
        self._promotable: List[tuple] = [
            (
                slot,
                self._transit[road_id],
                lanes,
                counts_of_road[road_id],
                keys_of_road[road_id],
            )
            for slot, (road_id, lanes) in enumerate(self._lanes.items())
        ]
        #: Promotable-slot index of each non-exit road.
        self._road_slot: Dict[str, int] = {
            road_id: slot for slot, road_id in enumerate(self._lanes)
        }
        #: Cached ready time of each promotable road's transit head
        #: (inf = empty): promotion and sensing test one float instead
        #: of indexing into the deque.  Maintained at the three
        #: mutation sites: promote (pops), serve and inject (appends
        #: to an empty FIFO — appends to a non-empty FIFO cannot change
        #: the head because ready times are monotone per road).
        self._head_ready: List[float] = [float("inf")] * len(self._lanes)

        # Backlog: vehicles generated while their entry road was full,
        # as (generation_time, route) pairs — depart delay counts as
        # queuing time, exactly as in the reference engine.
        self._backlog: Dict[str, Deque[Tuple[float, List[str]]]] = {
            road: deque() for road in self._arrivals
        }

        # -- aggregate counters (the "q(k)" of Eq. 2) ----------------------
        self._queued_total = 0
        self._backlog_total = 0
        self._in_network = 0

        # -- control-side state (semantics identical to the reference:
        # flat arrays indexed by movement column / intersection position
        # instead of tuple-keyed dicts; a reset-to-zero entry is the
        # reference's popped entry) ----------------------------------------
        axis = FacadeTables.of(network)
        credit_index = axis.columns_of_road
        #: Service credit per movement column of the network's axis.
        self._credit: List[float] = [0.0] * axis.n_movements
        self._active_phase: List[Optional[int]] = [None] * len(
            network.intersections
        )
        self._phase_started: List[float] = [0.0] * len(network.intersections)
        self.utilization: Dict[str, UtilizationTracker] = {
            node_id: UtilizationTracker(node_id)
            for node_id in network.intersections
        }
        self._finalized = False

        # -- precomputed serve plans -------------------------------------
        saturation_rate = plant.discharge_rate
        # Per intersection: (node_id, position, intersection, tracker,
        # movement credit indices, {phase_index: (service_rate_sum,
        # [movement plan, ...])}, live count dict).  A movement plan
        # carries everything the inlined serve loop touches: (credit
        # index, count key, in_road, lane FIFO, out is exit, out road,
        # out capacity, discharge rate, out transit time, out transit
        # FIFO).
        self._serve_plan = []
        for position, (node_id, intersection) in enumerate(
            network.intersections.items()
        ):
            phase_plans = {}
            for phase in intersection.phases:
                movements = []
                for m in phase.movements:
                    out_is_exit = self._is_exit[m.out_road]
                    movements.append(
                        (
                            credit_index[m.in_road][m.out_road],
                            m.key,
                            m.in_road,
                            self._lanes[m.in_road][m.out_road],
                            out_is_exit,
                            m.out_road,
                            self._capacity[m.out_road],
                            saturation_rate,
                            self._transit_time[m.out_road],
                            self._transit[m.out_road],
                            -1 if out_is_exit else self._road_slot[m.out_road],
                        )
                    )
                rate_sum = sum(m.service_rate for m in phase.movements)
                phase_plans[phase.index] = (rate_sum, movements)
            self._serve_plan.append(
                (
                    node_id,
                    position,
                    intersection,
                    self.utilization[node_id],
                    range(*axis.node_spans[position]),
                    phase_plans,
                    self._queue_counts[node_id],
                )
            )
        # Injection plan: (entry road, arrival process, backlog FIFO,
        # entry transit FIFO, entry transit time, entry transit slot).
        self._inject_plan = [
            (
                road,
                process,
                self._backlog[road],
                self._transit[road],
                self._transit_time[road],
                self._road_slot[road],
            )
            for road, process in self._arrivals.items()
        ]

    # -- observation -------------------------------------------------------

    @cached_property
    def _obs_plan(self) -> List[tuple]:
        """Per intersection: ``(node_id, live count dict, [(road slot,
        transit FIFO, out_road -> movement key), ...] for sensing,
        [(out road, capacity, is exit), ...], all-zero out-queue map
        for the nothing-congested fast path)``.

        Built on the first :meth:`observations` call, so a subclass
        with its own sensor (meso-events) never pays for it.
        """
        plan = []
        for node_id, intersection in self.network.intersections.items():
            sensing = []
            for in_road in dict.fromkeys(i for i, _ in intersection.movements):
                slot = self._road_slot[in_road]
                promotable = self._promotable[slot]
                sensing.append((slot, promotable[1], promotable[4]))
            out_static = [
                (r, self._capacity[r], self._is_exit[r])
                for r in intersection.out_roads
            ]
            plan.append(
                (
                    node_id,
                    self._queue_counts[node_id],
                    sensing,
                    out_static,
                    {r: 0 for r, _, _ in out_static},
                )
            )
        return plan

    def observations(self) -> Dict[str, QueueObservation]:
        """Build ``Q(k)`` for every intersection at the current time.

        Hot path notes: movement queues are materialized with one
        C-level ``dict(zip(...))`` per intersection and then corrected
        sparsely for sensed (approaching) vehicles — transit FIFOs are
        ordered by ready time, so the sensor scan stops at the first
        unit beyond the horizon instead of touching every transit unit
        the way the reference engine's heap scan must.
        """
        now = self.time
        deadline = now + self._sensing_horizon
        occupancy = self._occupancy
        head_ready = self._head_ready
        nothing_full = not self._full_roads
        trusted = QueueObservation.trusted
        result: Dict[str, QueueObservation] = {}
        for node_id, counts, sensing, out_static, zeros in self._obs_plan:
            movement_queues = counts.copy()
            for slot, transit, key_by_out in sensing:
                if head_ready[slot] <= deadline:
                    for ready, route, leg in transit:
                        if ready > deadline:
                            break
                        movement_queues[key_by_out[route[leg + 1]]] += 1
            if nothing_full:
                out_queues = zeros
            else:
                out_queues = {}
                for road_id, cap, is_exit in out_static:
                    occ = 0 if is_exit else occupancy[road_id]
                    out_queues[road_id] = occ if occ >= cap else 0
            result[node_id] = trusted(now, movement_queues, out_queues)
        return result

    # -- stepping ----------------------------------------------------------

    def step(self, dt: float, phases: Mapping[str, int]) -> None:
        """Advance the simulation by ``dt`` under the given phases.

        ``phases`` maps node id to the applied phase index (0 = amber);
        missing intersections show amber, as in the reference engine.
        """
        check_positive("dt", dt)
        if self._finalized:
            raise RuntimeError("simulator already finalized")
        self._promote(self.time)
        self._serve(dt, phases)
        self._inject(dt)
        self.time += dt
        collector = self.collector
        collector.record_interval(
            dt, self._queued_total + self._backlog_total, self._in_network
        )
        collector.advance(self.time)

    def _promote(self, now: float) -> None:
        """Move transit units that reached the stop line into their lanes."""
        promoted = 0
        head_ready = self._head_ready
        for entry in self._promotable:
            if head_ready[entry[0]] > now:
                continue  # idle road: skip without unpacking the plan
            slot, transit, lanes, counts, key_by_out = entry
            while transit and transit[0][0] <= now:
                unit = transit.popleft()
                next_road = unit[1][unit[2] + 1]
                lanes[next_road].append(unit)
                counts[key_by_out[next_road]] += 1
                promoted += 1
            head_ready[slot] = transit[0][0] if transit else float("inf")
        self._queued_total += promoted

    def _serve(self, dt: float, phases: Mapping[str, int]) -> None:
        """Serve every intersection's applied phase for one mini-slot.

        The per-movement logic is inlined (it runs ~50 times per step
        on a 4x4 grid) but replicates the reference engine's
        ``_serve_movement`` arithmetic term for term: service-credit
        accrual and banking, downstream-space limits, and the
        utilization books — ``record_slot`` unrolled onto the tracker
        fields with identical semantics.
        """
        credit = self._credit
        active = self._active_phase
        started = self._phase_started
        occupancy = self._occupancy
        full_roads = self._full_roads
        now = self.time
        startup_lost = self._startup_lost
        queued_delta = 0
        left_delta = 0
        for (
            node_id,
            position,
            intersection,
            tracker,
            credit_indices,
            plans,
            counts,
        ) in self._serve_plan:
            phase_index = phases.get(node_id, TRANSITION_PHASE_INDEX)
            if phase_index != active[position]:
                # Phase switch: queue discharge restarts, so unused
                # service credit must not carry over.
                active[position] = phase_index
                started[position] = now
                for index in credit_indices:
                    credit[index] = 0.0
            if phase_index == TRANSITION_PHASE_INDEX:
                tracker.amber_time += dt
                continue
            plan = plans.get(phase_index)
            if plan is None:
                intersection.phase_by_index(phase_index)  # raises KeyError
            rate_sum, movements = plan
            max_service = rate_sum * dt
            tracker.green_time += dt
            tracker.green_slots += 1
            tracker.service_capacity += max_service
            if now - started[position] < startup_lost:
                # Start-up lost time: drivers are still reacting and
                # accelerating; nothing crosses the stop line yet (the
                # slot counts as wasted green, as in the reference).
                tracker.wasted_green_slots += 1
                continue
            served_total = 0
            had_servable = False
            for (
                index,
                key,
                in_road,
                lane,
                out_is_exit,
                out_road,
                out_capacity,
                rate,
                out_transit_time,
                out_transit,
                out_slot,
            ) in movements:
                queued = len(lane)
                value = credit[index] + rate * dt
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
                            self._head_ready[out_slot] = ready
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
                # Do not bank more than one slot of unused service: an
                # idle or blocked movement must not burst beyond one
                # slot's worth later.
                bank = rate * dt
                if bank < 1.0:
                    bank = 1.0
                credit[index] = value if value < bank else bank
            tracker.vehicles_served += served_total
            if served_total == 0 and not had_servable:
                tracker.wasted_green_slots += 1
        self._queued_total += queued_delta
        if left_delta:
            self._in_network -= left_delta
            self.collector.vehicles_left += left_delta

    def _inject(self, dt: float) -> None:
        now = self.time
        occupancy = self._occupancy
        capacity = self._capacity
        sample_route = self.router.sample_route
        total_entered = 0
        for entry, process, backlog, transit, transit_time, slot in (
            self._inject_plan
        ):
            count = process.sample_count(now, dt)
            if count:
                for _ in range(count):
                    backlog.append((now, sample_route(entry)))
                self._backlog_total += count
            if not backlog:
                continue
            space = capacity[entry] - occupancy[entry]
            if space <= 0:
                continue
            ready = now + transit_time
            if not transit:
                self._head_ready[slot] = ready
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
        if total_entered:
            self._in_network += total_entered
            self.collector.vehicles_entered += total_entered

    # -- termination and introspection --------------------------------------

    def finalize(self) -> None:
        """Close the aggregate books (idempotent).

        The waiting-time integral already covers vehicles still queued
        or backlogged; only the entered count needs the reference
        engine's end-of-run treatment of gated vehicles.
        """
        if self._finalized:
            return
        self._finalized = True
        self.collector.absorb_backlog(self._backlog_total)

    def road_occupancy(self, road_id: str) -> int:
        """Vehicles currently on a road (transit + queued)."""
        return self._occupancy[road_id]

    def movement_queue(self, in_road: str, out_road: str) -> int:
        """Current length of one dedicated movement queue."""
        lanes = self._lanes.get(in_road)
        if lanes is None:
            return 0
        lane = lanes.get(out_road)
        return len(lane) if lane is not None else 0

    def incoming_queue_total(self, in_road: str) -> int:
        """Total queued vehicles at the stop line of ``in_road``."""
        lanes = self._lanes.get(in_road)
        if lanes is None:
            return 0
        return sum(len(lane) for lane in lanes.values())

    def vehicles_in_network(self) -> int:
        """Total vehicles currently inside the network."""
        return self._in_network

    def backlog_size(self) -> int:
        """Vehicles generated but still waiting outside a full entry."""
        return self._backlog_total


register_engine("meso-counts", scenario_builder(CountsSimulator))

"""The mesoscopic store-and-forward network simulator.

Implements the Sec.-II dynamics literally:

* Poisson arrivals per entry road (Sec. II-B);
* queue update ``q(k+1) = q(k) + A - S`` (Eq. 2), with individual
  vehicles so queuing times can be measured;
* service limited by (i) the applied phase, (ii) the queue contents
  and (iii) the downstream capacity — the three conditions of
  Sec. II-C;
* the transition phase ``c_0`` serves nothing;
* a served vehicle spends its next road's free-flow time in transit
  before joining the dedicated lane of its next movement.

The simulator is *passive* with respect to control: every step takes
the phase decision per intersection as input.  Use
:class:`repro.experiments.runner` to close the loop with a controller.

**Control.**  :meth:`MesoSimulator.controller_arrays` is the
``(1, n_movements)`` view of exactly what :meth:`MesoSimulator.
observations` reports, sensed from the per-road state only when a
controller kernel reads it; the runner decides this engine with a B=1
batch kernel (:mod:`repro.control.batch`).  ``observations()`` stays
for the parity suites and the TraCI-style session.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Mapping, Tuple

import numpy as np

from repro.core.engine import ArrayFacade
from repro.meso.road_state import RoadState
from repro.meso.vehicle import MesoVehicle
from repro.metrics.collector import MetricsCollector
from repro.metrics.utilization import UtilizationTracker
from repro.model.arrivals import ArrivalSchedule, PoissonArrivals
from repro.model.network import BOUNDARY, Network
from repro.model.phases import TRANSITION_PHASE_INDEX
from repro.model.plant import PlantConstants, seeded_traffic
from repro.model.queues import QueueObservation
from repro.model.routing import TurningProbabilities
from repro.util.validation import check_positive

__all__ = ["MesoSimulator"]


class MesoSimulator(ArrayFacade):
    """Store-and-forward simulation of a signalized network.

    The out-queue ``q_{i'}`` of Eq. 3 is read by a spillback sensor, the
    same as ``micro``'s: an outgoing road reads 0 while it still absorbs
    traffic and its occupancy once congestion backs up to the junction.

    Parameters
    ----------
    network:
        The road network.
    demand:
        Arrival schedule per entry road.  Entry roads without a
        schedule receive no traffic.
    turning:
        Turning probabilities for route sampling (Table I style).
    seed:
        Base seed; all randomness derives from it deterministically.
    plant:
        The plant constants (transit-time override, start-up lost time,
        sensing horizon, saturation headway); see
        :class:`~repro.model.plant.PlantConstants`.
    lane_policy:
        ``"dedicated"`` (default) gives every movement its own turning
        lane (the paper's assumption, no head-of-line blocking);
        ``"mixed"`` queues all movements of a road in one shared FIFO,
        so a head vehicle whose movement is red (or blocked) blocks
        everyone behind it — the Sec. IV-Q4 future-work scenario.
    """

    LANE_POLICIES = ("dedicated", "mixed")

    def __init__(
        self,
        network: Network,
        demand: Mapping[str, ArrivalSchedule],
        turning: TurningProbabilities,
        seed: int = 0,
        plant: PlantConstants = PlantConstants(),
        lane_policy: str = "dedicated",
    ):
        self.network = network
        self.time = 0.0
        self.collector = MetricsCollector()
        self._transit_time = plant.transit_times(network)
        self._startup_lost = plant.startup_lost
        self._sensing_horizon = plant.sensing_horizon
        self._discharge_rate = plant.discharge_rate
        if lane_policy not in self.LANE_POLICIES:
            raise ValueError(
                f"lane_policy must be one of {self.LANE_POLICIES}, "
                f"got {lane_policy!r}"
            )
        self._lane_policy = lane_policy

        traffic = seeded_traffic(network, demand, turning, seed)
        self.router = traffic.router
        self._arrivals: Dict[str, PoissonArrivals] = traffic.arrivals

        self._roads: Dict[str, RoadState] = {
            road_id: RoadState(road) for road_id, road in network.roads.items()
        }
        for intersection in network.intersections.values():
            for movement in intersection.movements.values():
                state = self._roads[movement.in_road]
                if lane_policy == "mixed":
                    state.make_mixed()
                else:
                    state.add_movement_lane(movement.out_road)

        # Backlog: vehicles generated while their entry road was full,
        # stored with their generation time.  Time spent here is depart
        # delay and counts as queuing time — otherwise a controller
        # could hide congestion by blocking the network entries.
        self._backlog: Dict[str, Deque[Tuple[float, MesoVehicle]]] = {
            road: deque() for road in self._arrivals
        }
        self._credit: Dict[Tuple[str, str], float] = {}
        self._active_phase: Dict[str, int] = {}
        self._phase_started: Dict[str, float] = {}
        self._next_vehicle_id = 0
        self.utilization: Dict[str, UtilizationTracker] = {
            node_id: UtilizationTracker(node_id)
            for node_id in network.intersections
        }
        self._finalized = False

        # -- controller-array façade tables --------------------------------
        tables = self._bind_tables(network)
        #: Dedicated stop-line lanes in column order (``None`` when mixed).
        self._stop_lines = (
            None
            if lane_policy == "mixed"
            else [
                self._roads[in_road].queues[out_road]
                for in_road, out_road in tables.movement_keys
            ]
        )
        #: Per road feeding an intersection: its state and the movement
        #: column of each next road.
        self._sensed_roads = [
            (self._roads[road_id], columns)
            for road_id, columns in tables.columns_of_road.items()
        ]
        #: Per non-exit out-road: its id, state and capacity, for the
        #: spillback sensor.
        self._spill_roads = [
            (road_id, self._roads[road_id], network.roads[road_id].capacity)
            for road_id in tables.spillback_columns
        ]

    # -- observation -------------------------------------------------------

    def observations(self) -> Dict[str, QueueObservation]:
        """Build ``Q(k)`` for every intersection at the current time."""
        result: Dict[str, QueueObservation] = {}
        for node_id, intersection in self.network.intersections.items():
            movement_queues = {}
            sensed_by_road: Dict[str, Dict[str, int]] = {}
            mixed_by_road: Dict[str, Dict[str, int]] = {}
            for key in intersection.movements:
                in_road, out_road = key
                state = self._roads[in_road]
                if in_road not in sensed_by_road:
                    sensed_by_road[in_road] = state.approaching(
                        self.time, self._sensing_horizon
                    )
                    if state.mixed:
                        mixed_by_road[in_road] = state.mixed_counts()
                if state.mixed:
                    queued = mixed_by_road[in_road].get(out_road, 0)
                else:
                    queued = state.queue_length(out_road)
                movement_queues[key] = queued + sensed_by_road[in_road].get(
                    out_road, 0
                )
            out_queues = {
                road_id: self._sensed_out_queue(road_id)
                for road_id in intersection.out_roads
            }
            result[node_id] = QueueObservation(
                time=self.time,
                movement_queues=movement_queues,
                out_queues=out_queues,
            )
        return result

    def _sensed_out_queue(self, road_id: str) -> int:
        """Spillback sensor: 0 until congestion reaches the junction."""
        if self.network.road_destination[road_id] == BOUNDARY:
            return 0  # exit roads are drained by the outside world
        occupancy = self._roads[road_id].occupancy
        if occupancy >= self.network.roads[road_id].capacity:
            return occupancy
        return 0

    # -- controller-array façade ------------------------------------------
    # ``movement_layout`` and ``controller_arrays()`` come from
    # :class:`~repro.core.engine.ArrayFacade`.

    def sense_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(queues, out_queues)`` as ``(1, n_movements)`` arrays.

        Exactly what :meth:`observations` reports: stop-line lane
        lengths (or the shared lane's per-movement counts) plus transit
        vehicles within the sensing horizon, and each movement's
        out-queue from the spillback sensor.  Both arrays are read-only;
        while no out-road is full, ``out_queues`` is one shared zero
        array.
        """
        if self._stop_lines is None:  # mixed: counted per road below
            queues = [0] * self._tables.n_movements
        else:
            queues = list(map(len, self._stop_lines))
        deadline = self.time + self._sensing_horizon
        for state, column_of in self._sensed_roads:
            if state.mixed:
                for out_road, count in state.mixed_counts().items():
                    queues[column_of[out_road]] = count
            transit = state.transit
            if transit and transit[0][0] <= deadline:
                for ready, _, vehicle in transit:
                    if ready <= deadline:
                        next_road = vehicle.next_road
                        if next_road is not None:
                            queues[column_of[next_road]] += 1
        out_queues = self._tables.out_queue_row(
            (road_id, state.occupancy)
            for road_id, state, capacity in self._spill_roads
            if state.occupancy >= capacity
        )
        queues = np.array([queues], dtype=np.int64)
        queues.flags.writeable = False
        return queues, out_queues

    # -- stepping ----------------------------------------------------------

    def step(self, dt: float, phases: Mapping[str, int]) -> None:
        """Advance the simulation by ``dt`` under the given phases.

        ``phases`` maps node id to the applied phase index (0 = amber).
        Intersections missing from the mapping show amber (serve
        nothing) — controllers should always cover all of them.
        """
        check_positive("dt", dt)
        if self._finalized:
            raise RuntimeError("simulator already finalized")
        self._promote(self.time)
        self._serve(dt, phases)
        self._inject(dt)
        self.time += dt
        self.collector.advance(self.time)

    def _promote(self, now: float) -> None:
        for state in self._roads.values():
            if not state.queues:
                continue
            for vehicle in state.promote_arrivals(now):
                vehicle.queued_since = now

    def _serve(self, dt: float, phases: Mapping[str, int]) -> None:
        for node_id, intersection in self.network.intersections.items():
            phase_index = phases.get(node_id, TRANSITION_PHASE_INDEX)
            tracker = self.utilization[node_id]
            if phase_index != self._active_phase.get(node_id):
                # Phase switch: queue discharge restarts, so unused
                # service credit must not carry over.
                self._active_phase[node_id] = phase_index
                self._phase_started[node_id] = self.time
                for key in intersection.movements:
                    self._credit.pop(key, None)
                for in_road in intersection.in_roads:
                    self._credit.pop(("__mixed__", in_road), None)
            if phase_index == TRANSITION_PHASE_INDEX:
                tracker.record_slot(0, dt, 0.0, 0, False)
                continue
            phase = intersection.phase_by_index(phase_index)
            green_age = self.time - self._phase_started[node_id]
            if green_age < self._startup_lost:
                # Start-up lost time: drivers are still reacting and
                # accelerating; nothing crosses the stop line yet.
                tracker.record_slot(
                    phase_index,
                    dt,
                    sum(m.service_rate for m in phase.movements) * dt,
                    0,
                    False,
                )
                continue
            max_service = sum(m.service_rate for m in phase.movements) * dt
            served_total = 0
            had_servable = False
            if self._lane_policy == "mixed":
                green_keys = frozenset(m.key for m in phase.movements)
                for in_road in sorted({m.in_road for m in phase.movements}):
                    served, servable = self._serve_mixed_road(
                        in_road, green_keys, dt
                    )
                    served_total += served
                    had_servable = had_servable or servable
            else:
                for movement in phase.movements:
                    served, servable = self._serve_movement(movement, dt)
                    served_total += served
                    had_servable = had_servable or servable
            tracker.record_slot(
                phase_index, dt, max_service, served_total, had_servable
            )

    def _serve_movement(self, movement, dt: float) -> Tuple[int, bool]:
        in_state = self._roads[movement.in_road]
        queued = in_state.queue_length(movement.out_road)
        out_is_exit = (
            self.network.road_destination[movement.out_road] == BOUNDARY
        )
        out_state = self._roads[movement.out_road]
        space = math.inf if out_is_exit else out_state.remaining_space
        servable = queued > 0 and space > 0

        key = movement.key
        credit = self._credit.get(key, 0.0) + self._discharge_rate * dt
        limit = int(min(credit, queued, space if space != math.inf else credit))
        for _ in range(limit):
            vehicle = in_state.pop_served(movement.out_road)
            if vehicle.queued_since is not None:
                self.collector.add_queuing_time(
                    vehicle.vehicle_id, max(0.0, self.time - vehicle.queued_since)
                )
            if out_is_exit:
                self.collector.vehicle_left(vehicle.vehicle_id, self.time)
            else:
                vehicle.advance()
                out_state.enter_transit(
                    vehicle, self.time + self._transit_time[movement.out_road]
                )
        credit -= limit
        # Do not bank more than one slot of unused service: an idle or
        # blocked movement must not burst beyond one slot's worth later.
        self._credit[key] = min(credit, max(1.0, self._discharge_rate * dt))
        return limit, servable

    def _serve_mixed_road(
        self, in_road: str, green_keys: frozenset, dt: float
    ) -> Tuple[int, bool]:
        """Serve a shared-FIFO road: only the head vehicle can move.

        Head-of-line blocking: if the head's movement is red or its
        downstream road full, nothing behind it is served even when
        other activated movements have demand further back.
        """
        state = self._roads[in_road]
        queue = state.mixed_queue
        credit_key = ("__mixed__", in_road)
        rate = self._discharge_rate
        credit = self._credit.get(credit_key, 0.0) + rate * dt
        served = 0
        servable = False
        while queue and credit >= 1.0:
            vehicle = queue[0]
            key = (in_road, vehicle.next_road)
            if key not in green_keys:
                break  # HOL blocking: red movement at the head
            out_road = vehicle.next_road
            out_is_exit = self.network.road_destination[out_road] == BOUNDARY
            out_state = self._roads[out_road]
            if not out_is_exit and out_state.remaining_space <= 0:
                break  # HOL blocking: full downstream road
            servable = True
            queue.popleft()
            credit -= 1.0
            served += 1
            if vehicle.queued_since is not None:
                self.collector.add_queuing_time(
                    vehicle.vehicle_id,
                    max(0.0, self.time - vehicle.queued_since),
                )
            if out_is_exit:
                self.collector.vehicle_left(vehicle.vehicle_id, self.time)
            else:
                vehicle.advance()
                out_state.enter_transit(
                    vehicle, self.time + self._transit_time[out_road]
                )
        self._credit[credit_key] = min(credit, max(1.0, rate * dt))
        return served, servable

    def _inject(self, dt: float) -> None:
        for entry, process in self._arrivals.items():
            backlog = self._backlog[entry]
            count = process.sample_count(self.time, dt)
            for _ in range(count):
                route = self.router.sample_route(entry)
                backlog.append(
                    (
                        self.time,
                        MesoVehicle(
                            vehicle_id=self._next_vehicle_id, route=route
                        ),
                    )
                )
                self._next_vehicle_id += 1
            state = self._roads[entry]
            while backlog and state.remaining_space > 0:
                generated_at, vehicle = backlog.popleft()
                self.collector.vehicle_entered(vehicle.vehicle_id, self.time)
                if self.time > generated_at:
                    self.collector.add_queuing_time(
                        vehicle.vehicle_id, self.time - generated_at
                    )
                state.enter_transit(
                    vehicle, self.time + self._transit_time[entry]
                )

    # -- termination and introspection --------------------------------------

    def finalize(self) -> None:
        """Account queuing time of vehicles still queued at the end."""
        if self._finalized:
            return
        self._finalized = True
        for state in self._roads.values():
            for vehicle in state.iter_queued():
                if vehicle.queued_since is not None:
                    self.collector.add_queuing_time(
                        vehicle.vehicle_id,
                        max(0.0, self.time - vehicle.queued_since),
                    )
        # Vehicles still gated outside a full entry road: their entire
        # existence so far has been depart delay.
        for backlog in self._backlog.values():
            for generated_at, vehicle in backlog:
                self.collector.vehicle_entered(vehicle.vehicle_id, generated_at)
                self.collector.add_queuing_time(
                    vehicle.vehicle_id, max(0.0, self.time - generated_at)
                )

    def road_occupancy(self, road_id: str) -> int:
        """Vehicles currently on a road (transit + queued)."""
        return self._roads[road_id].occupancy

    def movement_queue(self, in_road: str, out_road: str) -> int:
        """Current length of one dedicated movement queue."""
        return self._roads[in_road].queue_length(out_road)

    def incoming_queue_total(self, in_road: str) -> int:
        """Total queued vehicles at the stop line of ``in_road``."""
        state = self._roads[in_road]
        return sum(len(lane) for lane in state.queues.values())

    def vehicles_in_network(self) -> int:
        """Total vehicles currently inside the network."""
        return sum(state.occupancy for state in self._roads.values())

    def backlog_size(self) -> int:
        """Vehicles generated but still waiting outside a full entry."""
        return sum(len(q) for q in self._backlog.values())

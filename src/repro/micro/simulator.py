"""The microscopic network simulator (SUMO substitute).

Brings together Krauss car-following lanes, signal heads driven by the
controllers' phase decisions, junction transfer with downstream
blocking, Poisson insertion at the network boundary, and the detectors
that produce the controllers' queue observations.

The engine implements the same protocol as
:class:`repro.meso.simulator.MesoSimulator` (``observations`` /
``step`` / ``finalize`` / ``collector`` / ``utilization``), and
registers itself with the experiment runner as ``"micro"``.  Like
``meso``, it also offers the B=1 controller-array façade
(``controller_arrays()`` / ``sense_arrays()``), read from the
detectors only when a controller kernel reads it; the runner decides
it with a B=1 batch kernel.  ``observations()`` is the dict view of
``sense_arrays()``, the engine's only sensor.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.engine import ArrayFacade, register_engine
from repro.metrics.collector import MetricsCollector
from repro.metrics.utilization import UtilizationTracker
from repro.micro.lane import Lane
from repro.micro.params import KraussParams, MicroParams
from repro.micro.vehicle import MicroVehicle
from repro.model.arrivals import ArrivalSchedule, PoissonArrivals
from repro.model.network import BOUNDARY, Network
from repro.model.phases import TRANSITION_PHASE_INDEX
from repro.model.plant import scenario_builder, seeded_traffic
from repro.model.queues import QueueObservation
from repro.model.routing import TurningProbabilities
from repro.util.validation import check_positive

__all__ = ["MicroSimulator"]

#: Lane key used for the single lane of a network-exit road.
_EXIT = "__exit__"


class MicroSimulator(ArrayFacade):
    """Microscopic simulation of a signalized road network.

    Parameters
    ----------
    network / demand / turning / seed:
        As for :class:`repro.meso.simulator.MesoSimulator`.
    krauss:
        Car-following parameters (SUMO passenger defaults).
    params:
        Engine parameters (integration step, detector geometry).
    """

    def __init__(
        self,
        network: Network,
        demand: Mapping[str, ArrivalSchedule],
        turning: TurningProbabilities,
        seed: int = 0,
        krauss: Optional[KraussParams] = None,
        params: Optional[MicroParams] = None,
    ):
        self.network = network
        self.krauss = krauss or KraussParams()
        self.params = params or MicroParams()
        self.time = 0.0
        self.collector = MetricsCollector()

        traffic = seeded_traffic(network, demand, turning, seed)
        self.router = traffic.router
        self._dawdle = traffic.streams.get("micro/dawdle")
        self._arrivals: Dict[str, PoissonArrivals] = traffic.arrivals
        # Vehicles generated while their entry lane was full, with the
        # generation time; depart delay counts as queuing time.
        self._backlog: Dict[str, Deque[Tuple[float, MicroVehicle]]] = {
            road: deque() for road in self._arrivals
        }

        # Build lanes: one per movement for roads feeding an
        # intersection, one plain lane for exit roads.
        self._lanes: Dict[str, Dict[str, Lane]] = {}
        for road_id, road in network.roads.items():
            downstream = network.downstream_intersection(road_id)
            lanes: Dict[str, Lane] = {}
            if downstream is None:
                lanes[_EXIT] = Lane(
                    f"{road_id}#exit",
                    road.length,
                    road.speed_limit,
                    self.krauss,
                )
            else:
                for movement in downstream.movements_from(road_id):
                    lanes[movement.out_road] = Lane(
                        f"{road_id}->{movement.out_road}",
                        road.length,
                        road.speed_limit,
                        self.krauss,
                    )
            self._lanes[road_id] = lanes

        self.utilization: Dict[str, UtilizationTracker] = {
            node_id: UtilizationTracker(node_id)
            for node_id in network.intersections
        }
        # node id of the intersection each road feeds (None at exits).
        self._feeds: Dict[str, Optional[str]] = {
            road_id: (
                None
                if network.road_destination[road_id] == BOUNDARY
                else network.road_destination[road_id]
            )
            for road_id in network.roads
        }
        self._next_vehicle_id = 0
        self._finalized = False

        # -- controller-array façade tables --------------------------------
        tables = self._bind_tables(network)
        #: Turning lanes in column order.
        self._detector_lanes = [
            self._lanes[in_road][out_road]
            for in_road, out_road in tables.movement_keys
        ]
        #: Non-exit out-roads: the ones with a spillback sensor.
        self._spill_roads = list(tables.spillback_columns)

    # -- sensing ------------------------------------------------------------

    def observations(self) -> Dict[str, QueueObservation]:
        """``Q(k)`` per intersection: the dict view of :meth:`sense_arrays`."""
        return self._tables.observations(self.time, *self.sense_arrays())[0]

    def _sensed_out_queue(self, road_id: str) -> int:
        """Spillback sensor: 0 until congestion reaches the junction."""
        if self.network.road_destination[road_id] == BOUNDARY:
            return 0
        p = self.params
        for lane in self._lanes[road_id].values():
            if lane.vehicles and lane.spillback_halted(
                p.spill_window, p.halting_speed
            ):
                return self.road_occupancy(road_id)
        return 0

    # ``movement_layout`` and ``controller_arrays()`` come from
    # :class:`~repro.core.engine.ArrayFacade`.

    def sense_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(queues, out_queues)`` as ``(1, n_movements)`` arrays.

        The engine's one sensor: each turning lane's detector count and
        each movement's out-queue from the spillback sensor.  Both
        arrays are read-only; while no out-road has spilled back,
        ``out_queues`` is one shared zero array.
        """
        p = self.params
        queues = np.array(
            [
                [
                    lane.detector_count(p.detector_range, p.halting_speed)
                    if lane.vehicles
                    else 0
                    for lane in self._detector_lanes
                ]
            ],
            dtype=np.int64,
        )
        queues.flags.writeable = False
        sensed = ((road_id, self._sensed_out_queue(road_id))
                  for road_id in self._spill_roads)
        out_queues = self._tables.out_queue_row(
            (road_id, reading) for road_id, reading in sensed if reading
        )
        return queues, out_queues

    def road_occupancy(self, road_id: str) -> int:
        """Vehicles currently on a road (all its lanes)."""
        return sum(len(lane) for lane in self._lanes[road_id].values())

    def incoming_queue_total(self, road_id: str) -> int:
        """Halting vehicles at the stop line of ``road_id`` (Eq. 1 view)."""
        return sum(
            lane.halting_count(self.params.halting_speed)
            for lane in self._lanes[road_id].values()
        )

    def movement_queue(self, in_road: str, out_road: str) -> int:
        """Halting vehicles on one dedicated turning lane."""
        return self._lanes[in_road][out_road].halting_count(
            self.params.halting_speed
        )

    def vehicles_in_network(self) -> int:
        """Total vehicles currently on any lane."""
        return sum(
            len(lane)
            for lanes in self._lanes.values()
            for lane in lanes.values()
        )

    def backlog_size(self) -> int:
        """Vehicles waiting outside a full entry road."""
        return sum(len(q) for q in self._backlog.values())

    # -- dynamics -------------------------------------------------------------

    def step(self, dt: float, phases: Mapping[str, int]) -> None:
        """Advance one control mini-slot of length ``dt``."""
        check_positive("dt", dt)
        if self._finalized:
            raise RuntimeError("simulator already finalized")
        sub_steps = max(1, int(round(dt / self.params.dt)))
        sub_dt = dt / sub_steps
        green: Dict[str, frozenset] = {}
        for node_id, intersection in self.network.intersections.items():
            index = phases.get(node_id, TRANSITION_PHASE_INDEX)
            if index == TRANSITION_PHASE_INDEX:
                green[node_id] = frozenset()
            else:
                phase = intersection.phase_by_index(index)
                green[node_id] = frozenset(m.key for m in phase.movements)

        served_by_node = {node_id: 0 for node_id in self.network.intersections}
        for _ in range(sub_steps):
            self._substep(sub_dt, green, served_by_node)

        for node_id, intersection in self.network.intersections.items():
            index = phases.get(node_id, TRANSITION_PHASE_INDEX)
            tracker = self.utilization[node_id]
            if index == TRANSITION_PHASE_INDEX:
                tracker.record_slot(0, dt, 0.0, 0, False)
            else:
                phase = intersection.phase_by_index(index)
                max_service = sum(m.service_rate for m in phase.movements) * dt
                servable = any(
                    len(self._lanes[key[0]][key[1]]) > 0
                    for key in green[node_id]
                )
                tracker.record_slot(
                    index, dt, max_service, served_by_node[node_id], servable
                )

    def _substep(
        self,
        dt: float,
        green: Mapping[str, frozenset],
        served_by_node: Dict[str, int],
    ) -> None:
        halting = self.params.halting_speed
        transfers: List[Tuple[MicroVehicle, str]] = []
        left: List[MicroVehicle] = []
        for road_id, lanes in self._lanes.items():
            node_id = self._feeds[road_id]
            for key, lane in lanes.items():
                if key == _EXIT:
                    open_end = True
                else:
                    open_end = False
                    if node_id is not None and (road_id, key) in green[node_id]:
                        front = lane.front
                        if front is None:
                            open_end = True
                        else:
                            target = self._target_lane(front)
                            open_end = target.has_entry_room()
                crossed = lane.step(dt, open_end, self._dawdle)
                for vehicle in crossed:
                    if key == _EXIT:
                        left.append(vehicle)
                    else:
                        transfers.append((vehicle, key))
                        if node_id is not None:
                            served_by_node[node_id] += 1
                # Waiting-time accrual (SUMO definition).
                for vehicle in lane.vehicles:
                    if vehicle.speed < halting:
                        vehicle.waiting += dt

        for vehicle, out_road in transfers:
            vehicle.leg += 1
            self._target_lane_on(vehicle, out_road).push_entry(
                vehicle, from_junction=True
            )
        for vehicle in left:
            self.collector.vehicle_left(vehicle.vehicle_id, self.time)
            self.collector.add_queuing_time(vehicle.vehicle_id, vehicle.waiting)

        self._inject(dt)
        self.time += dt
        self.collector.advance(self.time)

    def _target_lane(self, vehicle: MicroVehicle) -> Lane:
        """Lane the vehicle will occupy after crossing the junction."""
        next_road = vehicle.next_road
        assert next_road is not None, "front vehicle at signal must continue"
        return self._target_lane_on_road(next_road, vehicle.road_after(vehicle.leg + 1))

    def _target_lane_on(self, vehicle: MicroVehicle, out_road: str) -> Lane:
        """Lane for a vehicle that just advanced onto ``out_road``."""
        return self._target_lane_on_road(out_road, vehicle.next_road)

    def _target_lane_on_road(self, road_id: str, following: Optional[str]) -> Lane:
        lanes = self._lanes[road_id]
        if _EXIT in lanes:
            return lanes[_EXIT]
        if following is None:
            raise ValueError(
                f"vehicle route ends on internal road {road_id!r}"
            )
        return lanes[following]

    def _inject(self, dt: float) -> None:
        for entry, process in self._arrivals.items():
            backlog = self._backlog[entry]
            count = process.sample_count(self.time, dt)
            for _ in range(count):
                route = self.router.sample_route(entry)
                backlog.append(
                    (
                        self.time,
                        MicroVehicle(
                            vehicle_id=self._next_vehicle_id, route=route
                        ),
                    )
                )
                self._next_vehicle_id += 1
            while backlog:
                generated_at, vehicle = backlog[0]
                lane = self._target_lane_on_road(
                    entry, vehicle.route[1] if len(vehicle.route) > 1 else None
                )
                if not lane.has_spawn_room():
                    break
                backlog.popleft()
                last = lane.last
                vehicle.speed = (
                    lane.speed_limit if last is None else min(
                        lane.speed_limit, last.speed + self.krauss.accel
                    )
                )
                vehicle.waiting += max(0.0, self.time - generated_at)
                lane.push_entry(vehicle, from_junction=False)
                self.collector.vehicle_entered(vehicle.vehicle_id, self.time)

    def finalize(self) -> None:
        """Flush queuing time of vehicles still in the network."""
        if self._finalized:
            return
        self._finalized = True
        for lanes in self._lanes.values():
            for lane in lanes.values():
                for vehicle in lane.vehicles:
                    self.collector.add_queuing_time(
                        vehicle.vehicle_id, vehicle.waiting
                    )
        for backlog in self._backlog.values():
            for generated_at, vehicle in backlog:
                self.collector.vehicle_entered(vehicle.vehicle_id, generated_at)
                self.collector.add_queuing_time(
                    vehicle.vehicle_id, max(0.0, self.time - generated_at)
                )


register_engine("micro", scenario_builder(MicroSimulator))

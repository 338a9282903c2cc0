"""A TraCI-like session facade.

Method names follow TraCI's domains (``simulationStep``,
``trafficlight.setPhase``-style accessors, lane-area detectors, edge
halting numbers) so that code written against this facade maps
one-to-one onto a real SUMO/TraCI deployment.

Example
-------
>>> from repro.experiments import build_scenario
>>> from repro.traci import TraciSession
>>> session = TraciSession(build_scenario("I", seed=7), engine="meso")
>>> session.setPhase("J00", 1)
>>> session.simulationStep()
>>> session.getTime()
1.0
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.core.engine import build_engine
from repro.scenarios.core import Scenario
from repro.metrics.collector import Summary
from repro.model.phases import TRANSITION_PHASE_INDEX
from repro.model.queues import QueueObservation
from repro.util.validation import check_positive

__all__ = ["TraciSession"]


class TraciSession:
    """Drive a simulation through a TraCI-shaped API.

    Parameters
    ----------
    scenario:
        The scenario to simulate.
    engine:
        A serial engine name (``"meso"``, ``"micro"``, ...); batch
        engines such as ``"meso-vec"`` are rejected with ``ValueError``.
    step_length:
        Seconds advanced by each :meth:`simulationStep` call (TraCI's
        step length); also the observation cadence.
    """

    def __init__(
        self,
        scenario: Scenario,
        engine: str = "micro",
        step_length: float = 1.0,
    ):
        check_positive("step_length", step_length)
        self.scenario = scenario
        self.step_length = float(step_length)
        self._sim = build_engine(scenario, engine)
        self._phases: Dict[str, int] = {
            node_id: TRANSITION_PHASE_INDEX
            for node_id in scenario.network.intersections
        }
        self._subscriptions: Dict[str, List[Tuple[str, str]]] = {}
        self._closed = False

    # -- simulation domain ---------------------------------------------------

    def simulationStep(self) -> None:
        """Advance the simulation by one step under the set phases."""
        if self._closed:
            raise RuntimeError("session is closed")
        self._sim.step(self.step_length, self._phases)

    def getTime(self) -> float:
        """Current simulation time, s."""
        return self._sim.time

    def getMinExpectedNumber(self) -> int:
        """Vehicles in the network plus those still waiting to enter.

        Mirrors ``traci.simulation.getMinExpectedNumber``, commonly
        used as the loop condition of TraCI scripts.
        """
        return self._sim.vehicles_in_network() + self._sim.backlog_size()

    def close(self) -> Summary:
        """End the session; returns the run summary."""
        if not self._closed:
            self._sim.finalize()
            self._closed = True
        return self._sim.collector.summary(self._sim.time)

    # -- trafficlight domain ---------------------------------------------------

    def setPhase(self, node_id: str, phase_index: int) -> None:
        """Set the phase shown at an intersection from the next step on."""
        intersection = self.scenario.network.intersections.get(node_id)
        if intersection is None:
            raise KeyError(f"unknown traffic light {node_id!r}")
        if phase_index != TRANSITION_PHASE_INDEX:
            intersection.phase_by_index(phase_index)  # raises if unknown
        self._phases[node_id] = phase_index

    def getPhase(self, node_id: str) -> int:
        """The phase currently commanded at an intersection."""
        try:
            return self._phases[node_id]
        except KeyError:
            raise KeyError(f"unknown traffic light {node_id!r}")

    def getPhaseCount(self, node_id: str) -> int:
        """Number of control phases (excluding the transition phase)."""
        return len(self.scenario.network.intersections[node_id].phases)

    # -- detector domains --------------------------------------------------------

    def getLaneAreaJamVehicles(self, in_road: str, out_road: str) -> int:
        """Sensed queue of one dedicated turning lane (lane-area detector)."""
        obs = self._observation_for_road(in_road)
        return obs.movement_queue(in_road, out_road)

    def getLastStepHaltingNumber(self, road_id: str) -> int:
        """Halting vehicles on a road (edge domain)."""
        return self._sim.incoming_queue_total(road_id)

    def getQueueObservation(self, node_id: str) -> QueueObservation:
        """The full ``Q(k)`` of one intersection (convenience)."""
        observations = self._sim.observations()
        try:
            return observations[node_id]
        except KeyError:
            raise KeyError(f"unknown intersection {node_id!r}")

    def _observation_for_road(self, in_road: str) -> QueueObservation:
        node_id = self.scenario.network.road_destination[in_road]
        return self.getQueueObservation(node_id)

    # -- subscriptions ----------------------------------------------------------

    def subscribeJunction(self, node_id: str) -> None:
        """Subscribe to a junction's queue observation."""
        if node_id not in self.scenario.network.intersections:
            raise KeyError(f"unknown intersection {node_id!r}")
        self._subscriptions.setdefault(node_id, [])

    def getSubscriptionResults(self) -> Mapping[str, QueueObservation]:
        """Observations for every subscribed junction."""
        if not self._subscriptions:
            return {}
        observations = self._sim.observations()
        return {node_id: observations[node_id] for node_id in self._subscriptions}

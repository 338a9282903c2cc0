"""Capacity-aware back-pressure control (Gregoire et al. [4]) — CAP-BP.

This is the paper's main comparator: fixed-length control slots with
capacity-aware pressures.  Following [4]:

* pressures are computed on *normalized* queue lengths, so a movement
  into an almost-full road exerts little or no forward pressure and a
  *full* downstream road contributes nothing (capacity awareness);
* the per-movement incoming queue is used (dedicated turning lanes, as
  in our network model);
* the phase with the highest total positive weight is activated for a
  fixed period; changing phases inserts an amber;
* work conservation at *slot granularity*: among phases with the top
  weight, prefer one that can actually serve a vehicle during the slot
  (some activated movement with a non-empty queue and a non-full
  outgoing road).  The original back-pressure policy lacks this and
  can deadlock — [4] proves their fix guarantees that "the junction
  works if there is at least one vehicle served during the slot", the
  "quite relaxed" work-conservation notion our paper's Sec. IV cites.

The link weight reproduced here is::

    w(L_i^{i'}) = mu_i^{i'} * ( q_i^{i'}/W_i  -  q_{i'}/W_{i'} )

and a phase's score is the sum of the positive parts of its link
weights, with full downstream roads contributing zero.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.control.base import FixedSlotController, TRANSITION
from repro.model.movements import Movement
from repro.model.phases import Phase
from repro.model.queues import QueueObservation

__all__ = ["CapBpController", "cap_link_weight"]


def cap_link_weight(
    movement: Movement,
    obs: QueueObservation,
    in_capacity: int,
    out_capacity: int,
) -> float:
    """Capacity-normalized back-pressure weight of one movement.

    ``in_capacity`` and ``out_capacity`` are ``W_i`` and ``W_{i'}`` of
    the movement's roads.  Zero when the downstream road is full — the
    capacity-awareness at the heart of [4].
    """
    if in_capacity <= 0:
        raise ValueError(f"in_capacity must be > 0, got {in_capacity}")
    out_queue = obs.out_queue(movement.out_road)
    if out_queue >= out_capacity:
        return 0.0
    rho_in = obs.movement_queue(movement.in_road, movement.out_road) / in_capacity
    rho_out = out_queue / out_capacity
    return movement.service_rate * (rho_in - rho_out)


class CapBpController(FixedSlotController):
    """Fixed-slot capacity-aware back-pressure (CAP-BP)."""

    def _phase_score(self, phase: Phase, obs: QueueObservation) -> float:
        # Added left to right, as the batch kernel adds: ``sum()`` of
        # floats is compensated from Python 3.12 on.
        capacity = self.intersection.capacity
        total = 0.0
        for m in phase.movements:
            weight = cap_link_weight(m, obs, capacity(m.in_road), capacity(m.out_road))
            total += max(0.0, weight)
        return total

    def _can_serve(self, phase: Phase, obs: QueueObservation) -> bool:
        """True if the phase would serve >= 1 vehicle in the next slot."""
        capacity = self.intersection.capacity
        for m in phase.movements:
            queued = obs.movement_queue(m.in_road, m.out_road)
            if queued > 0 and obs.out_queue(m.out_road) < capacity(m.out_road):
                return True
        return False

    def select_phase(self, obs: QueueObservation) -> int:
        """Rank phases by capacity-aware back-pressure weight."""
        scored: List[Tuple[float, int, bool]] = []
        for phase in self.intersection.phases:
            scored.append(
                (
                    self._phase_score(phase, obs),
                    phase.index,
                    self._can_serve(phase, obs),
                )
            )
        servable = [entry for entry in scored if entry[2]]
        candidates = servable if servable else scored
        # Highest score wins; ties break towards the lowest phase index
        # (deterministic), then towards the running phase via score of 0.
        best_score = max(entry[0] for entry in candidates)
        best = [entry for entry in candidates if entry[0] == best_score]
        if best_score == 0.0 and self._current != TRANSITION and any(
            entry[1] == self._current for entry in best
        ):
            return self._current
        return min(entry[1] for entry in best)

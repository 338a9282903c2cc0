"""Original back-pressure signal control (Varaiya [3]).

At every slot boundary the phase with the highest total original gain
(Eq. 5) is selected:

``g_o(L_i^{i'}, k) = max(0, (b_i(k) - b_{i'}(k)) mu_i^{i'})``

where ``b_i`` is the pressure of the *total* queue on the incoming
road.  When every phase's gain is zero the paper notes "no phase is
activated"; activating none would show red everywhere, so — like
practical deployments — we keep the currently running phase (an
all-zero gain state means there is nothing useful to serve anyway).
This policy is oblivious to road capacities and to which movement the
queued vehicles actually want, the two utilization problems the paper
sets out to fix.
"""

from __future__ import annotations

from repro.control.base import FixedSlotController, TRANSITION
from repro.core.pressure import link_gain_original
from repro.model.queues import QueueObservation

__all__ = ["OriginalBpController"]


class OriginalBpController(FixedSlotController):
    """Fixed-slot back-pressure with the original Eq. 5 gains."""

    def select_phase(self, obs: QueueObservation) -> int:
        """Rank phases by original back-pressure weight."""
        best_index = None
        best_gain = -1.0
        for phase in self.intersection.phases:
            # Added left to right, as the batch kernel adds: ``sum()``
            # of floats is compensated from Python 3.12 on.
            gain = 0.0
            for m in phase.movements:
                gain += link_gain_original(m, obs)
            if gain > best_gain:
                best_gain = gain
                best_index = phase.index
        assert best_index is not None
        if best_gain == 0.0:
            # All gains zero: keep the running phase if there is one.
            if self._current != TRANSITION:
                return self._current
            return self.intersection.phases[0].index
        return best_index

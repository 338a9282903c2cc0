"""The utilization-aware adaptive back-pressure controller (Algorithm 1).

This is the paper's main contribution.  The controller is invoked at
*every* mini-slot (enabling varying-length control phases) and decides
between three cases:

* **Case 1** (lines 1-2): a transition phase is running and its period
  ``Delta_k`` has not expired — keep it.
* **Case 2** (lines 3-4): a control phase is running and its best
  constituent link gain ``g_max(c(k-1), k)`` still exceeds the
  non-negative threshold ``g*(k)`` (Eq. 12) — keep it.  This is the
  mechanism that limits the number of transition phases.
* **Case 3** (lines 5-17): select a new phase ``c'``:

  - if some phase can guarantee junction utilization in the next
    mini-slot (``max_j g_max(c_j, k) > alpha``), restrict to those
    phases and pick the one with the highest *total* gain — the best
    effort against instability (lines 6-8);
  - otherwise utilization will be low whatever is chosen; pick the
    phase with the highest single link gain (lines 9-10);
  - if ``c'`` is already running, or a transition phase just expired,
    apply ``c'`` directly (lines 12-13); otherwise start a transition
    phase and arm its expiry timer ``t_{Delta k} = t_k + Delta_k``
    (lines 14-16).

All inputs — ``Q(k)``, ``C``, ``c(k-1)``, ``t_k`` — are local to the
intersection, preserving back-pressure's decentralized character.
``Q(k)`` holds queues only: the capacities ``W_{i'}`` and ``W*`` (Eq. 7)
are constants of the intersection, read once when the controller is
built.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import compress
from operator import add, ge, itemgetter
from typing import Dict, List, Optional, Tuple

from repro.control.base import IntersectionController, TRANSITION
from repro.core.config import UtilBpConfig
from repro.core.pressure import pressure
from repro.model.intersection import Intersection
from repro.model.queues import QueueObservation

__all__ = ["UtilBpController"]


class _GainsPlan:
    """An intersection's phase table indexed for one gains vector.

    The links are the phases' movements in declaration order, each
    once, and are the columns of the gains vector: ``columns_of`` maps
    a movement key to its columns, ``link_road`` a column to its
    outgoing road's position in ``out_roads`` and ``links_into`` a road
    position to its columns.  Phases are kept in phase index order, so
    the lowest-index tie-break is the first position, and
    ``member_gains[p]`` reads phase ``p``'s link gains, in the phase's
    declaration order, as one sequence.  ``out_capacity[r]`` is road
    ``r``'s capacity ``W_{i'}`` and ``w_star`` the intersection's ``W*``
    (Eq. 7), both constants of the plant.

    Nothing here depends on the controller's parameters, so
    :meth:`of` builds the plan once per intersection and every
    controller of it shares the plan, read-only.
    """

    @classmethod
    def of(cls, intersection: Intersection) -> "_GainsPlan":
        """The shared plan of ``intersection``."""
        return intersection.derived(cls, lambda: cls(intersection))

    def __init__(self, intersection: Intersection):
        links: Dict[Tuple, int] = {}
        columns_of: Dict[Tuple[str, str], List[int]] = {}
        roads: Dict[str, List[int]] = {}
        members: Dict[int, Tuple[Tuple, ...]] = {}
        for phase in intersection.phases:
            phase_links = tuple(
                (m.key, m.out_road, m.service_rate) for m in phase.movements
            )
            for link in phase_links:
                if link not in links:
                    column = links[link] = len(links)
                    columns_of.setdefault(link[0], []).append(column)
                    roads.setdefault(link[1], []).append(column)
            members[phase.index] = phase_links
        road_position = {road: r for r, road in enumerate(roads)}
        self.n_links = len(links)
        self.columns_of = {key: tuple(c) for key, c in columns_of.items()}
        self.link_road = tuple(road_position[road] for _, road, _ in links)
        self.link_rate = tuple(rate for _, _, rate in links)
        self.out_roads = tuple(roads)
        self.out_capacity = tuple(
            intersection.out_roads[road].capacity for road in roads
        )
        self.w_star = float(intersection.w_star)
        self.links_into = tuple(tuple(columns) for columns in roads.values())
        self.phase_indices = tuple(sorted(members))
        self.slot_of = {index: p for p, index in enumerate(self.phase_indices)}
        getters = []
        for index in self.phase_indices:
            columns = [links[link] for link in members[index]]
            # itemgetter of one item returns it bare; a slice keeps a
            # one-member phase's gains a sequence.
            getters.append(
                itemgetter(*columns)
                if len(columns) > 1
                else itemgetter(slice(columns[0], columns[0] + 1))
            )
        self.member_gains = tuple(getters)
        self.member_rates = tuple(
            tuple(rate for _, _, rate in members[index])
            for index in self.phase_indices
        )


class UtilBpController(IntersectionController):
    """Utilization-aware adaptive back-pressure (UTIL-BP), Algorithm 1.

    Eq. 8 is evaluated once per link per decision into one gains
    vector, and Eqs. 10-12 read that vector: per intersection, what
    :class:`~repro.control.batch.BatchUtilBpController` computes per
    array, in the same float evaluation order.  The scalar functions of
    :mod:`repro.core.pressure` (``link_gain``, ``phase_gain``,
    ``max_link_gain``, ``keep_threshold``) stay the readable reference;
    ``tests/test_core_util_bp.py`` checks decision for decision that
    this controller decides as their composition does.

    **A call re-decides only if an input changed**, by the batch
    kernel's rule: it re-decides on the first call since construction
    or :meth:`reset`, under amber (case 1 reads ``t_k``), when the
    movement queues or out-queues differ from those of the last full
    evaluation, or when the running phase differs from the one running
    then.  Otherwise it returns the running phase
    without computing a gain.  This is exact: in a control phase,
    Algorithm 1 reads nothing else, so the last evaluation's decision
    repeats, and that decision was the running phase.  The inputs are
    kept as copies, as a producer may rewrite its maps in place.

    ``cells_offered`` and ``cells_decided`` count the calls and the
    calls re-decided since construction or :meth:`reset`, as the
    kernel's counters of the same names count cells.

    Parameters
    ----------
    intersection:
        The controlled intersection.
    config:
        Controller parameters; defaults are the paper's evaluation
        values (``Delta_k = 4 s``, ``alpha = -1``, ``beta = -2``).
    """

    def __init__(
        self,
        intersection: Intersection,
        config: Optional[UtilBpConfig] = None,
    ):
        super().__init__(intersection)
        self.config = config or UtilBpConfig()
        self._plan = _GainsPlan.of(intersection)
        self.reset()

    def reset(self) -> None:
        """Clear the controller state, the memo and the counters."""
        super().reset()
        #: Global variable ``t_{Delta k}`` of Algorithm 1 — the expiry
        #: time of the running transition phase.
        self._transition_until = -math.inf
        #: The last full evaluation's (running phase, movement queues,
        #: out-queues), the maps copied.
        self._memo: Optional[Tuple[int, dict, dict]] = None
        self.cells_offered = 0
        self.cells_decided = 0

    # -- Algorithm 1 -------------------------------------------------------

    def decide(self, obs: QueueObservation) -> int:
        """Apply Algorithm 1: keep, hold through amber, or select anew."""
        t_k = obs.time
        previous = self._current  # c(k-1)
        self.cells_offered += 1

        if previous == TRANSITION:
            # Case 1 (lines 1-2): transition phase still running.
            if t_k < self._transition_until:
                self.cells_decided += 1
                return self._record(TRANSITION)
        else:
            memo = self._memo
            if (
                memo is not None
                and memo[0] == previous
                and memo[1] == obs.movement_queues
                and memo[2] == obs.out_queues
            ):
                # Unchanged inputs: the last decision, the running phase.
                return previous

        self.cells_decided += 1
        gains = self._link_gains(obs)
        self._memo = (previous, dict(obs.movement_queues), dict(obs.out_queues))

        # Case 2 (lines 3-4): keep the current control phase while its
        # best link L_max (the first maximal one, Eq. 11) stays above
        # the threshold g*(k) = W* mu (Eq. 12).
        if previous != TRANSITION:
            plan = self._plan
            slot = plan.slot_of[previous]
            member_gains = plan.member_gains[slot](gains)
            g_max = max(member_gains)
            mu = plan.member_rates[slot][member_gains.index(g_max)]
            threshold = plan.w_star * mu
            threshold -= self.config.keep_margin * mu
            if g_max > threshold:
                return self._record(previous)

        # Case 3 (lines 5-17): select a new control phase.
        selected = self._select_phase(gains)
        if selected == previous or previous == TRANSITION:
            # Lines 12-13: same phase, or an expired transition phase.
            return self._record(selected)
        # Lines 14-16: different phase — clear the junction first.
        self._transition_until = t_k + self.config.transition_duration
        return self._record(TRANSITION)

    def _link_gains(self, obs: QueueObservation) -> List[float]:
        """Eq. 8 for every link of the plan.

        Each outgoing road's queue and full test are read once.  A
        movement missing from ``obs`` reads 0; a missing outgoing road
        raises ``KeyError`` naming the road.
        """
        alpha, beta = self.config.alpha, self.config.beta
        plan = self._plan
        out_queues = obs.out_queues_of(plan.out_roads)
        full = list(map(ge, out_queues, plan.out_capacity))
        w_star = plan.w_star
        # Start from the empty-lane case; full roads override it, and
        # only the links with a queue can reach the general case.
        gains = [alpha] * plan.n_links
        for columns in compress(plan.links_into, full):
            for column in columns:
                gains[column] = beta
        queues = obs.movement_queues
        for key, queue in compress(queues.items(), queues.values()):
            for column in plan.columns_of.get(key, ()):
                road = plan.link_road[column]
                q_move = int(queue)
                if q_move and not full[road]:
                    gains[column] = (
                        pressure(q_move) - pressure(out_queues[road]) + w_star
                    ) * plan.link_rate[column]
        return gains

    def _select_phase(self, gains: List[float]) -> int:
        """Lines 6-11: pick ``c'`` by utilization-aware gain ranking."""
        alpha = self.config.alpha
        plan = self._plan
        member_gains = [getter(gains) for getter in plan.member_gains]
        g_maxes = list(map(max, member_gains))
        if max(g_maxes) > alpha:
            # Lines 7-8: among phases guaranteeing some utilization,
            # take the highest *total* gain (Eq. 10, added left to
            # right) — best effort for stability.
            scores = [
                reduce(add, values, 0.0) if g_max > alpha else -math.inf
                for values, g_max in zip(member_gains, g_maxes)
            ]
        else:
            # Line 10: utilization will be low regardless; fall back to
            # the best single link gain.
            scores = g_maxes
        # Deterministic tie-break: on equal scores prefer the running
        # phase (a pointless switch would only buy an amber), then the
        # lowest phase index (the first slot).
        best = max(scores)
        running = plan.slot_of.get(self._current)
        if running is not None and scores[running] == best:
            return self._current
        return plan.phase_indices[scores.index(best)]

    # -- introspection helpers (used by tests and examples) ----------------

    def transition_remaining(self, now: float) -> float:
        """Seconds of transition phase left at time ``now`` (0 if none)."""
        if self._current != TRANSITION:
            return 0.0
        return max(0.0, self._transition_until - now)

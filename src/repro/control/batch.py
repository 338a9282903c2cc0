"""Batched network controllers: all B replications decided at once.

Closed-loop batching is what makes ``meso-vec`` pay off in the paper's
main regime: the engine steps B replications as arrays, but a serial
sweep still ran B Python controller instances against B per-replication
``QueueObservation`` maps every mini-slot.  The controllers here replace
that loop with array kernels — one :meth:`decide_batch` call computes
the ``(B, n_nodes)`` phase decisions for the whole batch directly on the
engine's ``(B, n_movements)`` queue arrays (the
:class:`~repro.core.engine.BatchControlArrays` façade), using the
``*_array`` pressure kernels of :mod:`repro.core.pressure`.

Parity is the contract, not an aspiration: for every replication the
batched decisions are *identical* — same comparisons, same float
evaluation order, same tie-breaks — to those of the serial controller of
the same name and parameters.  ``tests/test_control_batch.py`` asserts
decision-for-decision lockstep against the serial controllers, and the
engine parity suite pins the whole closed loop.

Every controller of :data:`repro.control.factory.CONTROLLER_NAMES` has
a batched kernel, listed next to its serial class in the factory's one
controller table (:func:`repro.control.factory.build_batch_controller`
builds it by name):

* ``util-bp`` — :class:`BatchUtilBpController`, Algorithm 1's three
  cases on ``(B, N)`` state arrays, re-deciding only the cells whose
  inputs changed since the previous call (see the class);
* ``cap-bp`` — :class:`BatchCapBpController`, the fixed-slot driver plus
  capacity-normalized weights;
* ``original-bp`` — :class:`BatchOriginalBpController`, fixed slots with
  Eq. 5 gains on total incoming queues;
* ``fixed-time`` — :class:`BatchFixedTimeController`, fixed slots cycling
  through each intersection's phases.

A batch engine is driven only through these kernels: the runner has no
per-replication ``QueueObservation`` path for it.  A serial engine that
offers the same array façade at B=1 (``meso``, ``meso-events``,
``micro``) is decided by these kernels too.  Kernels and engines read
one movement axis per network,
:class:`~repro.core.engine.FacadeTables`; :class:`_NetworkLayout` adds
only the kernels' own tables to it.

The façade senses its arrays on first read, so what a kernel reads is
what the engine pays for: util-bp reads ``queues`` and ``out_queues``
on every call; cap-bp and original-bp read them only in ``_select``,
which runs only on mini-slots where some cell's slot expired;
fixed-time never reads them.  Every kernel checks ``arrays.shape``,
which costs no sensing.  A fixed-slot kernel keeps one timer per cell
(its slot end, or its amber end while a selection is parked): a call
before the earliest one does nothing but that check.
"""

from __future__ import annotations

import math
from typing import Protocol, Tuple, runtime_checkable

import numpy as np

from repro.core.config import UtilBpConfig
from repro.core.engine import BatchControlArrays, FacadeTables
from repro.core.pressure import (
    link_gain_array,
    link_gain_original_array,
    phase_gain_array,
)
from repro.model.network import Network
from repro.util.validation import check_positive

__all__ = [
    "BatchNetworkController",
    "BatchUtilBpController",
    "BatchCapBpController",
    "BatchOriginalBpController",
    "BatchFixedTimeController",
]

#: Sentinel above any real phase index, for masked index minima.
_NO_PHASE = np.iinfo(np.int64).max


@runtime_checkable
class BatchNetworkController(Protocol):
    """A controller deciding for every replication of a batch at once.

    The counterpart of :class:`~repro.control.base.NetworkController`
    for batch engines: instead of one observation map per replication it
    consumes the engine's :class:`BatchControlArrays` and returns the
    ``(batch_size, n_nodes)`` integer array of phase decisions (0 =
    transition/amber), node columns in ``node_ids`` order.
    """

    batch_size: int
    node_ids: Tuple[str, ...]
    movement_keys: Tuple[Tuple[str, str], ...]

    def decide_batch(self, arrays: BatchControlArrays) -> np.ndarray:
        """Phase decisions for the next mini-slot, all replications."""
        ...

    def reset(self) -> None:
        """Forget all internal state (e.g. between experiment runs)."""
        ...


class _NetworkLayout:
    """The kernels' static tables of one network, on its movement axis.

    The movement axis itself — node ids, movement keys, each column's
    node and its plant constants — is the network's
    :class:`~repro.core.engine.FacadeTables`, the same tuples and
    arrays every engine's controller arrays follow; the runner still
    compares ``movement_keys`` once, for engines that build their own.
    On top of it this adds what only the kernels read: each node's
    ``W*``, the in-road sums of Eq. 1, and the densified
    phase structure of the segment reductions: phase slot ``p`` of
    node ``n`` is ``intersections[n].phases[p]``, movement slot ``j``
    of a phase is its j-th declared movement, and boolean masks cover
    the ragged padding.

    Nothing here depends on the batch size, so :meth:`of` builds the
    layout once per network and every batch controller on that network
    shares it, read-only.  A node without movements or phases is rejected.
    """

    @classmethod
    def of(cls, network: Network) -> "_NetworkLayout":
        """The shared layout of ``network``."""
        return network.derived(cls, lambda: cls(network))

    def __init__(self, network: Network):
        axis = FacadeTables.of(network)
        intersections = list(network.intersections.values())
        for inter in intersections:
            if not inter.movements or not inter.phases:
                # The kernels reduce per node over movement columns and
                # phases; an empty node would read its neighbour's.
                raise ValueError(
                    f"intersection {inter.node_id} has no movements or "
                    f"no phases; batch controllers need both at every node"
                )
        self.node_ids = axis.node_ids
        self.movement_keys = axis.movement_keys
        self.n_movements = axis.n_movements
        self.m_node = axis.m_node
        self.m_out_cap = axis.m_out_cap
        self.m_in_cap = axis.m_in_cap
        self.m_rate = axis.m_rate
        N = len(intersections)
        # Eq. 1 sums each in-road's movements, by road position.
        self._in_code = axis.m_in_road
        self._n_in_roads = len(network.roads)

        w_star = np.array(
            [inter.w_star for inter in intersections], dtype=np.int64
        )
        self.node_w_star = w_star
        self.m_w_star = w_star.astype(np.float64)[self.m_node]

        # Dense phase tables (N, P) / (N, P, L) with validity masks.
        P = max(len(inter.phases) for inter in intersections)
        L = max(
            (len(phase.movements) for inter in intersections
             for phase in inter.phases),
            default=1,
        )
        max_index = max(
            phase.index for inter in intersections for phase in inter.phases
        )
        self.max_index = max_index
        self.members = np.zeros((N, P, L), dtype=np.int64)
        self.member_valid = np.zeros((N, P, L), dtype=bool)
        self.phase_index = np.zeros((N, P), dtype=np.int64)
        self.phase_valid = np.zeros((N, P), dtype=bool)
        self.slot_of = np.full((N, max_index + 1), -1, dtype=np.int64)
        self.first_phase = np.array(
            [inter.phases[0].index for inter in intersections], dtype=np.int64
        )
        self.n_phases = np.array(
            [len(inter.phases) for inter in intersections], dtype=np.int64
        )
        columns_of_road = axis.columns_of_road
        for n, inter in enumerate(intersections):
            for p, phase in enumerate(inter.phases):
                self.phase_index[n, p] = phase.index
                self.phase_valid[n, p] = True
                self.slot_of[n, phase.index] = p
                for j, movement in enumerate(phase.movements):
                    self.members[n, p, j] = (
                        columns_of_road[movement.in_road][movement.out_road]
                    )
                    self.member_valid[n, p, j] = True
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def incoming_totals(self, queues: np.ndarray) -> np.ndarray:
        """Eq. 1 per movement: its incoming road's total queue, batched."""
        flat = queues.reshape(-1, queues.shape[-1])
        sums = np.zeros((flat.shape[0], self._n_in_roads), dtype=np.int64)
        np.add.at(sums, (slice(None), self._in_code), flat)
        return sums[:, self._in_code].reshape(queues.shape)


class _BatchControllerBase:
    """Shared construction and state plumbing of the batched controllers."""

    def __init__(self, network: Network, batch_size: int):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not network.intersections:
            raise ValueError("network has no intersections to control")
        self.batch_size = int(batch_size)
        self._layout = _NetworkLayout.of(network)
        self.node_ids = self._layout.node_ids
        self.movement_keys = self._layout.movement_keys
        self._shape = (self.batch_size, len(self.node_ids))
        self.reset()

    def reset(self) -> None:
        #: c(k-1) per (replication, node); 0 is the transition phase.
        """Reset every replication to the transition phase."""
        self._current = np.zeros(self._shape, dtype=np.int64)

    def _check(self, arrays: BatchControlArrays) -> None:
        expected = (self.batch_size, self._layout.n_movements)
        if arrays.shape != expected:
            raise ValueError(
                f"batch observation shape {arrays.shape} does not "
                f"match the controller layout {expected}"
            )


class _UtilBpPlan:
    """UTIL-BP's gather table of one network, in phase-index order.

    A re-decided cell reads one column, ``gather[:, n * S + r]`` for
    node ``n`` running phase ``r`` (0: amber): the gains-row columns of
    a ``(2, S, L)`` block of link gains, ``S = max_index + 1`` phase
    slots of ``L`` member links.  Slot ``i >= 1`` is the node's phase
    of index ``i``, so the first best slot is the lowest best phase
    index, as in the serial tie-break; slot 0 repeats the running
    phase, so the running phase's own gains sit at a fixed place.
    Half 0 feeds the maxima (Eq. 11): a phase's padding repeats its
    first link (which changes neither the maximum nor the first
    arg-max), and a missing phase — and slot 0 under amber — reads the
    ``-inf`` column.  Half 1 feeds the sums (Eq. 10): padding reads the
    ``0.0`` column.  Column ``M`` is ``-inf`` and ``M + 1`` is ``0.0``
    in the kernel's gains rows.  The table is stored block-major,
    ``(2 S L, N S)``, so a gather of K cells is a C-contiguous
    ``(2 S L, K)`` array whose reductions over slots and links run
    elementwise along the cells.

    ``w_mu[n, r, l]`` is ``W* mu`` (Eq. 12) of phase ``r``'s ``l``-th
    link, ``rates`` its ``mu``; zero on padding.  Like the layout, the
    plan is built once per network and shared read-only.
    """

    @classmethod
    def of(cls, network: Network) -> "_UtilBpPlan":
        """The shared plan of ``network``."""
        return network.derived(cls, lambda: cls(network))

    def __init__(self, network: Network):
        lay = _NetworkLayout.of(network)
        N, P, L = lay.members.shape
        S = lay.max_index + 1
        M = lay.n_movements
        by_max = np.full((N, S, L), M, dtype=np.int64)
        by_sum = np.full((N, S, L), M + 1, dtype=np.int64)
        rates = np.zeros((N, S, L), dtype=np.float64)
        node, p = np.nonzero(lay.phase_valid)
        at = (node, lay.phase_index[node, p])
        members = lay.members[node, p]
        valid = lay.member_valid[node, p]
        by_max[at] = np.where(valid, members, members[:, :1])
        by_sum[at] = np.where(valid, members, M + 1)
        rates[at] = np.where(valid, lay.m_rate[members], 0.0)
        blocks = np.stack(
            [np.repeat(by_max[:, None], S, axis=1),
             np.repeat(by_sum[:, None], S, axis=1)],
            axis=2,
        )  # (N, running phase, half, slot, L)
        blocks[:, :, 0, 0] = by_max
        blocks[:, :, 1, 0] = by_sum
        self.slots = S
        self.links = L
        self.gather = np.ascontiguousarray(blocks.reshape(N * S, -1).T)
        self.rates = rates
        self.w_mu = lay.node_w_star.astype(np.float64)[:, None, None] * rates
        for value in (self.gather, self.rates, self.w_mu):
            value.flags.writeable = False


def _snapshot(array: np.ndarray) -> np.ndarray:
    """``array`` itself if read-only (an engine's snapshot), else a copy."""
    return array.copy() if array.flags.writeable else array


class BatchUtilBpController(_BatchControllerBase):
    """UTIL-BP (Algorithm 1) on whole replication batches.

    Each cell — one (replication, node) pair — is decided exactly as
    :class:`~repro.core.util_bp.UtilBpController` decides its node:

    1. a transition phase is running and its timer has not expired —
       keep it;
    2. a control phase is running and its best link gain exceeds the
       Eq.-12 threshold — keep it;
    3. select anew: restrict to utilization-guaranteeing phases ranked
       by total gain when any exists (``g_max > alpha``), else rank all
       phases by best link gain; equal scores prefer the running phase,
       then the lowest phase index.  A selection differing from the
       running control phase arms the transition timer and shows amber.

    **Only cells whose inputs changed are re-decided.**  A call
    re-decides a cell when it is the first call since construction or
    :meth:`reset`, when a ``queues`` or ``out_queues`` column of the
    node's movements differs from the previous call's, when the cell's
    running phase differs from the one it ran at the previous call, or
    when the cell is in amber (case 1 reads ``t_k``).  Every other cell
    keeps its running phase and its timer.  This is exact: in a control
    phase, Algorithm 1 reads only the cell's queues, out-queues, running
    phase and static configuration, so with all of them unchanged the
    previous decision repeats — and that decision was the running phase.

    **Eq. 8 is kept, not recomputed.**  The kernel keeps one gains row
    per replication across calls and re-evaluates Eq. 8 only for the
    flat ``(b, m)`` columns whose ``queues`` or ``out_queues`` entry
    differs from the previous call's; the first call since construction
    or :meth:`reset` evaluates every column.  The changed columns also
    name the changed cells, and a stale mask carried from the previous
    call names the cells it left in amber or switched.  The kernel then
    gathers the gain blocks of the ``K`` re-decided cells
    (:class:`_UtilBpPlan`) from the kept row, runs Eqs. 10-12 and the
    tie-break on ``(S, K)`` phase-slot arrays and scatters decisions and
    armed timers back.  The row therefore always equals a fresh dense
    evaluation of the last inputs, bit for bit: each column is computed
    by the same elementwise :func:`~repro.core.pressure.link_gain_array`.
    (This is not a column gather per re-decided cell, which re-read every
    member column of every re-decided cell on each call and was slower
    than the dense Eq. 8; here a column is recomputed only when its own
    inputs change.)  The kernel keeps the previous call's arrays, so
    they must not change afterwards: the engines hand out read-only
    snapshots, which are kept as they are, and a writable array is
    copied.

    ``cells_offered`` and ``cells_decided`` count the cells seen and
    the cells re-decided, and ``columns_updated`` the Eq. 8 columns
    evaluated, since construction or :meth:`reset`.
    """

    def __init__(
        self,
        network: Network,
        batch_size: int,
        config: UtilBpConfig | None = None,
    ):
        self.config = config or UtilBpConfig()
        super().__init__(network, batch_size)
        plan = self._plan = _UtilBpPlan.of(network)
        lay = self._layout
        # Eq. 12 per link, rounded as the serial controller rounds it:
        # g* = W* mu, then lowered by keep_margin mu.
        self._threshold = plan.w_mu - self.config.keep_margin * plan.rates
        B, N = self._shape
        M = lay.n_movements
        # One gains row per replication plus the padding columns M
        # (-inf) and M + 1 (0.0) the gather table points at.
        self._extended = np.empty((B, M + 2), dtype=np.float64)
        self._extended[:, M] = -np.inf
        self._extended[:, M + 1] = 0.0
        self._gains = self._extended[:, :M]
        self._all_cells = np.arange(B * N)
        # Per flat input column b * M + m: its place in the flat gains
        # rows, its cell b * N + n, and Eq. 8's static columns.
        replication, movement = np.divmod(np.arange(B * M), M)
        self._gain_at = np.arange(B * M) + 2 * replication
        self._cell_of = replication * N + lay.m_node[movement]
        self._columns = (
            lay.m_out_cap[movement],
            lay.m_w_star[movement],
            lay.m_rate[movement],
        )

    def reset(self) -> None:
        """Reset phases, transition timers, the memo and the counters."""
        super().reset()
        #: t_{Delta k} per (replication, node).
        self._transition_until = np.full(self._shape, -math.inf)
        #: The previous call's (queues, out_queues).
        self._memo: Tuple[np.ndarray, np.ndarray] | None = None
        #: Flat cells the previous call left in amber or switched.
        self._stale = np.zeros(self._current.size, dtype=bool)
        self.cells_offered = 0
        self.cells_decided = 0
        self.columns_updated = 0

    def _update_gains(
        self, queues: np.ndarray, out_queues: np.ndarray
    ) -> np.ndarray | None:
        """Re-evaluate Eq. 8 where the inputs changed; return their cells.

        The cells come one per changed column, so a cell can repeat.
        ``None`` means every cell: the first call since construction or
        :meth:`reset` evaluates every column.
        """
        cfg = self.config
        memo = self._memo
        if memo is None:
            lay = self._layout
            link_gain_array(
                queues,
                out_queues,
                lay.m_out_cap,
                lay.m_w_star,
                lay.m_rate,
                cfg.alpha,
                cfg.beta,
                out=self._gains,
            )
            self.columns_updated += queues.size
            return None
        last_queues, last_out_queues = memo
        changed = queues != last_queues
        if out_queues is not last_out_queues:
            changed |= out_queues != last_out_queues
        columns = np.flatnonzero(changed)
        if len(columns):
            out_cap, w_star, rate = self._columns
            gains = link_gain_array(
                queues.reshape(-1).take(columns),
                out_queues.reshape(-1).take(columns),
                out_cap.take(columns),
                w_star.take(columns),
                rate.take(columns),
                cfg.alpha,
                cfg.beta,
            )
            self._extended.reshape(-1)[self._gain_at.take(columns)] = gains
            self.columns_updated += len(columns)
        return self._cell_of.take(columns)

    def decide_batch(self, arrays: BatchControlArrays) -> np.ndarray:
        """Run Algorithm 1 on the cells whose inputs changed."""
        self._check(arrays)
        queues = arrays.queues
        out_queues = arrays.out_queues
        previous = self._current
        changed_cells = self._update_gains(queues, out_queues)
        self._memo = (_snapshot(queues), _snapshot(out_queues))
        if changed_cells is None:
            cells = self._all_cells
        else:
            redo = self._stale
            redo[changed_cells] = True
            cells = np.flatnonzero(redo)
            redo[cells] = False
        self.cells_offered += previous.size
        self.cells_decided += len(cells)
        if not len(cells):
            return previous

        cfg = self.config
        plan = self._plan
        t_k = arrays.time
        replication, node = np.divmod(cells, self._shape[1])
        running = previous.take(cells)
        S, L = plan.slots, plan.links
        # (2, S, L, K): the K cells run along the last, contiguous axis,
        # so the reductions over links are elementwise and add the links
        # left to right, as the serial controller adds.
        at = plan.gather.take(node * S + running, axis=1)
        at += replication * self._extended.shape[1]
        block = self._extended.reshape(-1).take(at).reshape(2, S, L, -1)
        links, addends = block
        g_max = links.max(axis=1)  # Eq. 11 per phase slot
        g_sum = addends.sum(axis=1)  # Eq. 10 per phase slot

        # Case 3: utilization-aware selection.  Slot 0 is the running
        # phase, so a best running phase wins the tie-break; otherwise
        # the first best slot is the lowest best phase index.
        usable = g_max > cfg.alpha
        scores = np.where(
            usable.any(axis=0), np.where(usable, g_sum, -np.inf), g_max
        )
        is_best = scores == scores.max(axis=0)
        selected = np.where(is_best[0], running, is_best.argmax(axis=0))

        # Cases 1 and 2: an amber whose timer runs, or a control phase
        # whose best link (the first maximal one) beats its Eq.-12
        # threshold, is kept.
        amber = running == 0
        first_best = links[0].argmax(axis=0)
        keep = np.where(
            amber,
            t_k < self._transition_until.take(cells),
            g_max[0] > self._threshold[node, running, first_best],
        )
        direct = (selected == running) | amber
        decided = np.where(keep, running, np.where(direct, selected, 0))
        decision = previous.copy()
        decision.put(cells, decided)
        arm = ~(keep | direct)
        if arm.any():
            self._transition_until.put(
                cells[arm], t_k + cfg.transition_duration
            )
        # A cell left in amber or switched (from amber, or to amber by
        # arming) is re-decided on the next call whatever its inputs.
        self._stale[cells[amber | arm]] = True
        self._current = decision
        return decision


class _BatchFixedSlotController(_BatchControllerBase):
    """The fixed-length-slot driver of the conventional baselines, batched.

    Vectorizes :class:`~repro.control.base.FixedSlotController`: per
    ``(b, n)`` cell the phase is re-selected only at slot boundaries, a
    changed selection first shows amber for ``transition_duration``
    (the selection is parked in ``_pending``), an unchanged selection
    extends the slot seamlessly, and the very first decision starts its
    slot without an amber.  Subclasses provide ``_select``.

    A cell acts only when its one timer, ``_wake``, comes due: the end
    of its slot, or of its amber while a selection is parked (``-inf``
    before its first slot).  A call before the earliest wake
    (``_next_wake``) returns the held decisions unchanged.
    """

    def __init__(
        self,
        network: Network,
        batch_size: int,
        period: float,
        transition_duration: float = 4.0,
    ):
        check_positive("period", period)
        check_positive("transition_duration", transition_duration)
        self.period = float(period)
        self.transition_duration = float(transition_duration)
        super().__init__(network, batch_size)

    def reset(self) -> None:
        """Reset phases, wake timers and pending selections."""
        super().reset()
        self._wake = np.full(self._shape, -math.inf)
        self._next_wake = -math.inf
        #: Parked selection awaiting its amber to finish (-1: none).
        self._pending = np.full(self._shape, -1, dtype=np.int64)

    def _select(
        self, arrays: BatchControlArrays, b: np.ndarray, n: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        """The next slot's phase of the cells ``(b[k], n[k])``.

        ``running`` is each cell's running phase (0: amber); the result
        holds paper phase indices, never 0.
        """
        raise NotImplementedError

    def decide_batch(self, arrays: BatchControlArrays) -> np.ndarray:
        """Advance the fixed-slot machinery for every cell at once."""
        self._check(arrays)
        now = arrays.time
        previous = self._current
        if now < self._next_wake:
            # No cell's slot or amber ends: every cell holds its phase.
            return previous
        due = now >= self._wake
        promote = due & (self._pending >= 0)
        expired = due ^ promote
        # Only the cells whose slot ended are scored.
        selection = previous.copy()
        if expired.any():
            b, n = np.nonzero(expired)
            selection[b, n] = self._select(arrays, b, n, previous[b, n])
        # A cell that never started (wake -inf) starts without amber.
        start = expired & ((selection == previous) | np.isneginf(self._wake))
        arm = expired ^ start

        decision = np.where(promote, self._pending, previous)
        decision = np.where(start, selection, decision)
        decision[arm] = 0
        self._wake = np.where(promote | start, now + self.period, self._wake)
        self._wake[arm] = now + self.transition_duration
        self._pending = np.where(arm, selection, self._pending)
        self._pending[promote] = -1
        self._next_wake = float(self._wake.min())
        self._current = decision
        return decision


class BatchCapBpController(_BatchFixedSlotController):
    """CAP-BP on whole replication batches.

    The exact vectorization of
    :class:`~repro.control.cap_bp.CapBpController`: capacity-normalized
    link weights (full downstream roads contribute nothing), phase score
    as the sum of positive weights, work conservation at slot
    granularity (prefer phases that can serve a vehicle), ties towards
    the lowest index, and an all-zero-score slot keeps the running phase.
    """

    def _select(
        self, arrays: BatchControlArrays, b: np.ndarray, n: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        lay = self._layout
        queues = arrays.queues
        out_queues = arrays.out_queues
        full = out_queues >= lay.m_out_cap
        weight = lay.m_rate * (
            queues / lay.m_in_cap - out_queues / lay.m_out_cap
        )
        contribution = np.maximum(0.0, np.where(full, 0.0, weight))
        rows, members, valid = b[:, None, None], lay.members[n], lay.member_valid[n]
        scores = phase_gain_array(contribution[rows, members], valid)
        servable_m = (queues > 0) & ~full
        servable = np.any(servable_m[rows, members] & valid, axis=-1)
        candidates = np.where(
            servable.any(axis=1)[:, None], servable, lay.phase_valid[n]
        )
        masked = np.where(candidates, scores, -np.inf)
        best_score = masked.max(axis=1)
        is_best = candidates & (masked == best_score[:, None])
        lowest_best = np.where(is_best, lay.phase_index[n], _NO_PHASE).min(axis=1)
        # Amber (slot -1) reads slot 0 and is masked.
        slot = lay.slot_of[n, running]
        current_is_best = is_best[np.arange(len(n)), np.maximum(slot, 0)] & (slot >= 0)
        return np.where((best_score == 0.0) & current_is_best, running, lowest_best)


class BatchOriginalBpController(_BatchFixedSlotController):
    """Original back-pressure (Varaiya) on whole replication batches.

    The exact vectorization of
    :class:`~repro.control.original_bp.OriginalBpController`: Eq.-5
    gains on *total* incoming queues, the first phase with the highest
    total gain wins, and an all-zero gain state keeps the running phase
    (or starts the first phase when none is running).
    """

    def _select(
        self, arrays: BatchControlArrays, b: np.ndarray, n: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        lay = self._layout
        gains = link_gain_original_array(
            lay.incoming_totals(arrays.queues),
            arrays.out_queues,
            lay.m_rate,
        )
        scores = phase_gain_array(
            gains[b[:, None, None], lay.members[n]], lay.member_valid[n]
        )
        scores = np.where(lay.phase_valid[n], scores, -np.inf)
        arg = scores.argmax(axis=1)
        best = scores[np.arange(len(n)), arg]
        selected = lay.phase_index[n, arg]
        keep = np.where(running != 0, running, lay.first_phase[n])
        return np.where(best == 0.0, keep, selected)


class BatchFixedTimeController(_BatchFixedSlotController):
    """Fixed-time (round-robin) control on whole replication batches.

    The exact vectorization of
    :class:`~repro.control.fixed_time.FixedTimeController`: each slot
    selects the phase declared after the running one (wrapping around),
    and a cell that has not started its first slot yet (amber) selects
    the first phase.  The running phase is the cycle position, so no
    cursor state is kept.
    """

    def _select(
        self, arrays: BatchControlArrays, b: np.ndarray, n: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        lay = self._layout
        # Amber is slot -1, so it follows into slot 0, the first phase.
        following = (lay.slot_of[n, running] + 1) % lay.n_phases[n]
        return lay.phase_index[n, following]

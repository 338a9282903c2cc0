"""Queue-state snapshots — the controller's sensor view (Sec. II-B).

The back-pressure control law is state feedback on queue lengths:
``c(k) = phi(Q(k))`` with ``Q(k) = {q_{i'}} U {q_i^{i'}}`` (Eq. 3).  A
:class:`QueueObservation` is exactly that ``Q(k)`` for one
intersection: per-movement incoming queues and outgoing queues, and
nothing else.  The road capacities ``W_{i'}`` and ``W*`` (Eq. 7) are
constants of the plant: controllers read them from their
:class:`~repro.model.intersection.Intersection` once, at build time.
Every engine produces these snapshots; controllers sense nothing else,
which keeps the cyber/physical boundary of the paper's CPS framing
explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

__all__ = ["QueueObservation"]


@dataclass(frozen=True)
class QueueObservation:
    """Snapshot ``Q(k)`` of one intersection at discrete time ``k``.

    Attributes
    ----------
    time:
        The global time ``t_k`` in seconds at which the state was read.
    movement_queues:
        ``q_i^{i'}(k)`` — vehicles queuing on the dedicated lane of each
        movement, keyed by ``(in_road, out_road)``.
    out_queues:
        ``q_{i'}(k)`` — total vehicles on each outgoing road.
    """

    time: float
    movement_queues: Mapping[Tuple[str, str], int]
    out_queues: Mapping[str, int]

    def __post_init__(self) -> None:
        for key, queue in self.movement_queues.items():
            if queue < 0:
                raise ValueError(f"negative queue {queue} for movement {key}")
        for road, queue in self.out_queues.items():
            if queue < 0:
                raise ValueError(f"negative queue {queue} on road {road!r}")

    @classmethod
    def trusted(
        cls,
        time: float,
        movement_queues: Mapping[Tuple[str, str], int],
        out_queues: Mapping[str, int],
    ) -> "QueueObservation":
        """Construct without ``__post_init__`` validation.

        For engine-internal fast paths whose counts are non-negative by
        construction (queue lengths, occupancies); building thousands
        of observations per second through the validating constructor
        is measurable.  External producers should use the normal
        constructor.
        """
        obs = cls.__new__(cls)
        fields = obs.__dict__
        fields["time"] = time
        fields["movement_queues"] = movement_queues
        fields["out_queues"] = out_queues
        return obs

    def movement_queue(self, in_road: str, out_road: str) -> int:
        """``q_i^{i'}(k)`` for one movement (0 if the movement is unknown)."""
        return int(self.movement_queues.get((in_road, out_road), 0))

    def incoming_total(self, in_road: str) -> int:
        """``q_i(k)`` — Eq. 1: sum of the movement queues of ``in_road``."""
        return sum(
            queue
            for (road, _out), queue in self.movement_queues.items()
            if road == in_road
        )

    def out_queue(self, out_road: str) -> int:
        """``q_{i'}(k)`` for one outgoing road."""
        try:
            return int(self.out_queues[out_road])
        except KeyError:
            raise KeyError(f"no outgoing queue recorded for road {out_road!r}")

    def out_queues_of(self, out_roads: Sequence[str]) -> List[int]:
        """:meth:`out_queue` of each road of ``out_roads``, in order."""
        try:
            return list(map(int, map(self.out_queues.__getitem__, out_roads)))
        except KeyError as missing:
            raise KeyError(
                f"no outgoing queue recorded for road {missing.args[0]!r}"
            ) from None


def queue_dynamics_step(
    queue: int, arrivals: int, served: int
) -> int:
    """One step of the queuing dynamics, Eq. 2.

    ``q(k+1) = q(k) + A(k, k+1) - S(k, k+1)``.  Raises ``ValueError``
    if more vehicles are served than are present — the service process
    must respect the queue (Sec. II-C).
    """
    if arrivals < 0:
        raise ValueError(f"arrivals must be >= 0, got {arrivals}")
    if served < 0:
        raise ValueError(f"served must be >= 0, got {served}")
    if served > queue + arrivals:
        raise ValueError(
            f"cannot serve {served} vehicles from queue {queue} with "
            f"{arrivals} arrivals"
        )
    return queue + arrivals - served

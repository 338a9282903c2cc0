"""Pressure and gain metrics of Sec. III-A.

The notions implemented here, with their equation numbers in the paper:

* ``pressure`` — the mapping ``b = f(q) = q`` (Eq. 4).
* ``link_gain_original`` — the original back-pressure link gain
  ``g_o(L, k) = max(0, (b_i - b_{i'}) mu)`` computed on the *total*
  incoming queue (Eq. 5, Varaiya-style).
* ``link_gain`` — the paper's modified gain (Eqs. 6-9): per-movement
  incoming pressure, shifted positive by ``W*``, with the special
  cases ``beta`` (full outgoing road) and ``alpha`` (empty incoming
  movement).
* ``phase_gain`` — the total gain of a phase, ``g(c_j, k)`` (Eq. 10).
* ``max_link_gain`` — the maximum constituent link gain,
  ``g_max(c_j, k)`` (Eq. 11), together with the arg-max link
  ``L_max(c_j, k)`` needed by the keep-phase threshold of Eq. 12.

Eqs. 8-12 read queues from ``Q(k)`` and the capacities ``W_{i'}`` and
``W*`` (Eq. 7) from the intersection, their first argument.

``link_gain``, ``link_gain_original`` and ``phase_gain`` have
``*_array`` twins operating on whole ``(B, n_movements)``
queue/occupancy arrays, for the batched controllers
(:mod:`repro.control.batch`; its util-bp kernel takes Eqs. 11-12 on
the blocks it gathers itself).  The array variants
are *bit-for-bit* equivalent to mapping the scalar function over every
(replication, movement) cell: comparisons are the same, and the
floating-point evaluation order of every sum and product is preserved
(phase sums accumulate left-to-right in declaration order), so batched
decisions never diverge from serial ones by rounding.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.model.intersection import Intersection
from repro.model.movements import Movement
from repro.model.phases import Phase
from repro.model.queues import QueueObservation

__all__ = [
    "pressure",
    "link_gain_original",
    "link_gain",
    "phase_gain",
    "max_link_gain",
    "keep_threshold",
    "link_gain_array",
    "link_gain_original_array",
    "phase_gain_array",
]


def pressure(queue_length: int) -> float:
    """The pressure mapping ``b = f(q) = q`` (Eq. 4).

    The paper keeps ``f`` as the identity; it is factored out so that
    alternative mappings (e.g. normalized or convex pressures) can be
    studied — see :mod:`repro.control.cap_bp` for the capacity-
    normalized variant used by the CAP-BP baseline.
    """
    if queue_length < 0:
        raise ValueError(f"queue length must be >= 0, got {queue_length}")
    return float(queue_length)


def link_gain_original(movement: Movement, obs: QueueObservation) -> float:
    """Original back-pressure link gain, Eq. 5.

    ``g_o(L_i^{i'}, k) = max(0, (b_i(k) - b_{i'}(k)) * mu_i^{i'})``

    Note that the incoming pressure is exerted by the *total* queue of
    the incoming road ``q_i`` — including vehicles that will not use
    this link.  The paper identifies this as a utilization problem.
    """
    b_in = pressure(obs.incoming_total(movement.in_road))
    b_out = pressure(obs.out_queue(movement.out_road))
    return max(0.0, (b_in - b_out) * movement.service_rate)


def link_gain(
    intersection: Intersection,
    movement: Movement,
    obs: QueueObservation,
    alpha: float,
    beta: float,
) -> float:
    """The paper's modified link gain, Eq. 8.

    ::

        g(L, k) = beta                              if q_{i'} = W_{i'}
                = alpha                             if q_{i'} < W_{i'} and q_i^{i'} = 0
                = (b_i^{i'} - b_{i'} + W*) mu       otherwise

    with ``W_{i'}`` and ``W* = max W_{i'}`` (Eq. 7) those of
    ``intersection``.  In the general case the gain is
    non-negative because ``b_i^{i'} >= 0`` and ``b_{i'} <= W*``, so any
    servable link outranks the two special cases (``alpha, beta < 0``).
    """
    if alpha >= 0 or beta >= 0:
        raise ValueError(
            f"alpha and beta must be negative, got alpha={alpha}, beta={beta}"
        )
    q_out = obs.out_queue(movement.out_road)
    if q_out >= intersection.out_roads[movement.out_road].capacity:
        return beta
    q_move = obs.movement_queue(movement.in_road, movement.out_road)
    if q_move == 0:
        return alpha
    w_star = float(intersection.w_star)
    b_in = pressure(q_move)
    b_out = pressure(q_out)
    return (b_in - b_out + w_star) * movement.service_rate


def phase_gain(
    intersection: Intersection, phase: Phase, obs: QueueObservation, alpha: float, beta: float
) -> float:
    """Total gain of a phase, ``g(c_j, k)`` (Eq. 10).

    The link gains are added left to right in declaration order,
    starting from ``0.0``, on every Python: ``sum()`` of floats is
    compensated from Python 3.12 on and can round differently.
    """
    total = 0.0
    for movement in phase.movements:
        total += link_gain(intersection, movement, obs, alpha, beta)
    return total


def max_link_gain(
    intersection: Intersection, phase: Phase, obs: QueueObservation, alpha: float, beta: float
) -> Tuple[float, Movement]:
    """``g_max(c_j, k)`` and its arg-max link ``L_max(c_j, k)`` (Eq. 11).

    Ties are broken by the first movement in the phase's declaration
    order, which is deterministic.
    """
    best_gain: Optional[float] = None
    best_movement: Optional[Movement] = None
    for movement in phase.movements:
        gain = link_gain(intersection, movement, obs, alpha, beta)
        if best_gain is None or gain > best_gain:
            best_gain = gain
            best_movement = movement
    assert best_gain is not None and best_movement is not None
    return best_gain, best_movement


def keep_threshold(intersection: Intersection, movement: Movement) -> float:
    """The keep-phase threshold ``g*(k)`` of Eq. 12.

    With ``L_max(c(k-1), k) = L_i^{i'}``, the paper sets
    ``g*(k) = W* mu_i^{i'}``: the current phase is kept exactly while
    its best link still has a *positive* pressure difference
    (``g > g*  <=>  b_i^{i'} - b_{i'} > 0`` in the general case of
    Eq. 8).
    """
    return float(intersection.w_star) * movement.service_rate


# -- batched array kernels ----------------------------------------------------
#
# The array variants take movement-aligned arrays whose trailing axis
# enumerates movements (typically shape ``(B, M)`` for B replications,
# but any leading shape broadcasts).  Phase structure enters through a
# dense membership table: ``members[..., j]`` is the movement column of
# the phase's j-th declared movement and ``valid[..., j]`` masks the
# padding of ragged phases.  The membership axes are arbitrary — the
# batched controllers use ``(n_nodes, max_phases, max_members)`` — and
# the outputs take the gains' leading axes plus the members' leading
# axes.


def link_gain_array(
    queues: np.ndarray,
    out_queues: np.ndarray,
    capacities: np.ndarray,
    w_star: np.ndarray,
    service_rates: np.ndarray,
    alpha: float,
    beta: float,
    *,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Eq. 8 evaluated elementwise on movement-aligned arrays.

    ``queues``/``out_queues`` hold ``q_i^{i'}``/``q_{i'}`` per movement;
    ``capacities`` (``W_{i'}``), ``w_star`` (the movement's intersection
    ``W*``) and ``service_rates`` are the static per-movement columns.  Exactly
    :func:`link_gain` per cell, including the check order (a full
    outgoing road wins over an empty incoming movement).  ``out``, a
    float64 array of the queues' shape, receives the gains in place of
    a new array (a kernel deciding every mini-slot reuses one buffer).
    """
    if alpha >= 0 or beta >= 0:
        raise ValueError(
            f"alpha and beta must be negative, got alpha={alpha}, beta={beta}"
        )
    gains = np.subtract(queues, out_queues, out=out, dtype=np.float64)
    gains += w_star
    gains *= service_rates
    np.copyto(gains, alpha, where=queues == 0)
    np.copyto(gains, beta, where=out_queues >= capacities)
    return gains


def link_gain_original_array(
    incoming_totals: np.ndarray,
    out_queues: np.ndarray,
    service_rates: np.ndarray,
) -> np.ndarray:
    """Eq. 5 on movement-aligned arrays (``incoming_totals`` is ``q_i``)."""
    return np.maximum(
        0.0,
        (incoming_totals.astype(np.float64) - out_queues) * service_rates,
    )


def phase_gain_array(gathered: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Eq. 10 as a dense segment reduction over phase memberships.

    ``gathered[..., j]`` is the gain of a phase's ``j``-th member (the
    caller gathers it, e.g. ``gains[..., members]``, for the cells it
    scores); ``valid`` masks the padding.  The accumulation is an
    explicit left-to-right loop over the (short) membership axis,
    starting from ``0.0``, so the float addition order matches the
    scalar :func:`phase_gain` exactly.
    """
    total = np.zeros(gathered.shape[:-1], dtype=np.float64)
    for j in range(gathered.shape[-1]):
        total = total + np.where(valid[..., j], gathered[..., j], 0.0)
    return total

"""Signal controllers: the common interface and the baseline algorithms.

* :mod:`repro.control.base` — the per-intersection controller protocol
  (state feedback ``c(k) = phi(Q(k))``, Eq. 3) and the fixed-length
  slot driver shared by the conventional back-pressure baselines.
* :mod:`repro.control.fixed_time` — round-robin fixed-time control.
* :mod:`repro.control.original_bp` — the original back-pressure policy
  of Varaiya [3] (Eq. 5 gains, fixed slots).
* :mod:`repro.control.cap_bp` — the capacity-aware back-pressure
  policy of Gregoire et al. [4], the paper's main comparator
  (CAP-BP).
* :mod:`repro.control.factory` — the one controller table: each name
  (UTIL-BP included) maps to its serial class, its batch kernel and
  one parameter check; :func:`~repro.control.factory.check_controller`
  validates a spec without a network.
* :mod:`repro.control.batch` — batched twins of the closed-loop
  controllers: whole ``(B, n_nodes)`` decision arrays computed on the
  batch engines' ``(B, n_movements)`` queue arrays, decision-for-
  decision identical to the serial controllers (built by name via
  :func:`repro.control.factory.build_batch_controller`).

The paper's own controller lives in :mod:`repro.core.util_bp`.
"""

from repro.control.base import (
    TRANSITION,
    FixedSlotController,
    IntersectionController,
    NetworkController,
)
from repro.control.batch import (
    BatchCapBpController,
    BatchNetworkController,
    BatchOriginalBpController,
    BatchUtilBpController,
)
from repro.control.fixed_time import FixedTimeController
from repro.control.original_bp import OriginalBpController
from repro.control.cap_bp import CapBpController
from repro.control.factory import make_controller, make_network_controller

__all__ = [
    "TRANSITION",
    "IntersectionController",
    "FixedSlotController",
    "NetworkController",
    "FixedTimeController",
    "OriginalBpController",
    "CapBpController",
    "BatchNetworkController",
    "BatchUtilBpController",
    "BatchCapBpController",
    "BatchOriginalBpController",
    "make_controller",
    "make_network_controller",
]

"""Name-based controller construction for experiment configurations.

Experiments refer to controllers by short names (``"util-bp"``,
``"cap-bp"``, ``"original-bp"``, ``"fixed-time"``).  One table maps
each name to its serial class (one object per intersection), its batch
kernel (:mod:`repro.control.batch`, all replications at once) and one
parameter check.  Whether a run uses the serial class or the kernel is
a question of execution only, so everything else about a controller —
its name, its keys, its value checks — is defined here once:

* :func:`check_controller` validates a ``(name, params)`` spec without
  a network, so specs fail where they are made;
* :func:`make_controller` / :func:`make_network_controller` build the
  serial controllers;
* :func:`build_batch_controller` builds the batch kernel.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.control.base import IntersectionController, NetworkController
from repro.control.batch import (
    BatchCapBpController,
    BatchFixedTimeController,
    BatchNetworkController,
    BatchOriginalBpController,
    BatchUtilBpController,
)
from repro.control.cap_bp import CapBpController
from repro.control.fixed_time import FixedTimeController
from repro.control.original_bp import OriginalBpController
from repro.core.config import UtilBpConfig
from repro.model.intersection import Intersection
from repro.model.network import Network
from repro.util.validation import check_positive

__all__ = [
    "CONTROLLER_NAMES",
    "FIXED_SLOT_CONTROLLERS",
    "check_controller",
    "make_controller",
    "make_network_controller",
    "build_batch_controller",
]

#: The keys util-bp accepts: the fields of its config.
_UTIL_BP_KEYS = frozenset(field.name for field in dataclasses.fields(UtilBpConfig))

#: The keys the fixed-slot controllers accept (all must be > 0).
_FIXED_SLOT_KEYS = frozenset(("period", "transition_duration"))


def _reject_unknown(name: str, params: Mapping[str, Any], known: frozenset) -> None:
    unknown = sorted(set(params) - known)
    if unknown:
        raise TypeError(f"unknown {name} parameters: {unknown}")


def _util_bp_kwargs(name: str, params: Dict[str, Any]) -> Dict[str, Any]:
    _reject_unknown(name, params, _UTIL_BP_KEYS)
    return {"config": UtilBpConfig(**params)}


def _fixed_slot_kwargs(name: str, params: Dict[str, Any]) -> Dict[str, Any]:
    if "period" not in params:
        raise TypeError(f"{name} requires a 'period' parameter")
    _reject_unknown(name, params, _FIXED_SLOT_KEYS)
    for key, value in params.items():
        check_positive(key, value)
    return params


def _util_bp_controller(
    intersection: Intersection, config: UtilBpConfig
) -> IntersectionController:
    # core.util_bp imports control.base, so importing it here at module
    # load would close an import cycle through this package.
    from repro.core.util_bp import UtilBpController

    return UtilBpController(intersection, config)


@dataclass(frozen=True)
class _Controller:
    """One controller name: how it is built serially, batched, and checked.

    ``check(name, params)`` raises on a spec the controller cannot take
    and otherwise returns the keyword arguments both constructors get
    after their positional ``intersection`` / ``network, batch_size``.
    """

    serial: Callable[..., IntersectionController]
    batch: Callable[..., BatchNetworkController]
    check: Callable[[str, Dict[str, Any]], Dict[str, Any]]


_CONTROLLERS: Dict[str, _Controller] = {
    "util-bp": _Controller(
        _util_bp_controller, BatchUtilBpController, _util_bp_kwargs
    ),
    "cap-bp": _Controller(
        CapBpController, BatchCapBpController, _fixed_slot_kwargs
    ),
    "original-bp": _Controller(
        OriginalBpController, BatchOriginalBpController, _fixed_slot_kwargs
    ),
    "fixed-time": _Controller(
        FixedTimeController, BatchFixedTimeController, _fixed_slot_kwargs
    ),
}

#: The controller names accepted everywhere a controller is named.
CONTROLLER_NAMES = tuple(sorted(_CONTROLLERS))

#: The fixed-length-slot controllers: they require a ``period``.
FIXED_SLOT_CONTROLLERS = tuple(
    sorted(
        name
        for name, entry in _CONTROLLERS.items()
        if entry.check is _fixed_slot_kwargs
    )
)


def _resolve(
    name: str, params: Optional[Mapping[str, Any]]
) -> Tuple[_Controller, Dict[str, Any]]:
    """The table entry of ``name`` and its checked constructor kwargs."""
    try:
        entry = _CONTROLLERS[name]
    except KeyError:
        raise ValueError(
            f"unknown controller {name!r}; expected one of {CONTROLLER_NAMES}"
        ) from None
    return entry, entry.check(name, dict(params or {}))


def check_controller(name: str, params: Optional[Mapping[str, Any]] = None) -> None:
    """Reject a controller spec that no run could build.

    Raises ``ValueError`` for an unknown name or an out-of-range value
    and ``TypeError`` for an unknown or missing parameter — the same
    errors the constructors would raise, without needing a network.

    >>> check_controller("cap-bp", {"period": 16})
    >>> check_controller("util-bp", {"period": 16})
    Traceback (most recent call last):
    ...
    TypeError: unknown util-bp parameters: ['period']
    """
    _resolve(name, params)


def make_controller(
    name: str, intersection: Intersection, **kwargs: Any
) -> IntersectionController:
    """Build one controller by name.

    >>> from repro.model.grid import build_grid_network
    >>> net = build_grid_network(1, 1)
    >>> ctrl = make_controller("cap-bp", net.intersections["J00"], period=16)
    """
    entry, checked = _resolve(name, kwargs)
    return entry.serial(intersection, **checked)


def make_network_controller(
    name: str, network: Network, **kwargs: Any
) -> NetworkController:
    """Build one controller per intersection (same parameters for all).

    The paper sets e.g. the CAP-BP control period globally for the
    whole network; this mirrors that.
    """
    entry, checked = _resolve(name, kwargs)
    return NetworkController(
        {
            node_id: entry.serial(intersection, **checked)
            for node_id, intersection in network.intersections.items()
        }
    )


def build_batch_controller(
    name: str, network: Network, batch_size: int, **params: Any
) -> BatchNetworkController:
    """Build the batch kernel of controller ``name`` for ``batch_size`` reps.

    Per replication its decisions are identical to those of the serial
    controllers :func:`make_network_controller` builds from the same
    name and parameters.
    """
    entry, checked = _resolve(name, params)
    return entry.batch(network, batch_size, **checked)

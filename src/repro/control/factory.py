"""Name-based controller construction for experiment configurations.

Experiments refer to controllers by short names (``"util-bp"``,
``"cap-bp"``, ``"original-bp"``, ``"fixed-time"``); this module maps
those names onto controller classes with keyword parameters, and builds
:class:`~repro.control.base.NetworkController` instances covering every
intersection of a network.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.control.base import IntersectionController, NetworkController
from repro.control.cap_bp import CapBpController
from repro.control.fixed_time import FixedTimeController
from repro.control.original_bp import OriginalBpController
from repro.model.intersection import Intersection
from repro.model.network import Network

__all__ = [
    "CONTROLLER_NAMES",
    "FIXED_SLOT_CONTROLLERS",
    "make_controller",
    "make_network_controller",
]


def _make_util_bp(intersection: Intersection, **kwargs: Any) -> IntersectionController:
    # Imported lazily to avoid a hard import cycle at module load time
    # (core.util_bp depends on control.base).
    from repro.core.config import UtilBpConfig
    from repro.core.util_bp import UtilBpController

    config_kwargs = {
        key: kwargs.pop(key)
        for key in (
            "transition_duration",
            "alpha",
            "beta",
            "mini_slot",
            "keep_margin",
        )
        if key in kwargs
    }
    if kwargs:
        raise TypeError(f"unknown util-bp parameters: {sorted(kwargs)}")
    return UtilBpController(intersection, UtilBpConfig(**config_kwargs))


def _make_fixed_slot(
    cls: Callable[..., IntersectionController],
) -> Callable[..., IntersectionController]:
    def build(intersection: Intersection, **kwargs: Any) -> IntersectionController:
        """Instantiate the controller from its registered config keys."""
        if "period" not in kwargs:
            raise TypeError(f"{cls.__name__} requires a 'period' parameter")
        return cls(intersection, **kwargs)

    return build


_FIXED_SLOT: Dict[str, Callable[..., IntersectionController]] = {
    "cap-bp": CapBpController,
    "original-bp": OriginalBpController,
    "fixed-time": FixedTimeController,
}

_BUILDERS: Dict[str, Callable[..., IntersectionController]] = {
    "util-bp": _make_util_bp,
    **{name: _make_fixed_slot(cls) for name, cls in _FIXED_SLOT.items()},
}

#: The controller names accepted by :func:`make_controller`.
CONTROLLER_NAMES = tuple(sorted(_BUILDERS))

#: The fixed-length-slot controllers: they require a ``period``.
FIXED_SLOT_CONTROLLERS = tuple(sorted(_FIXED_SLOT))


def make_controller(
    name: str, intersection: Intersection, **kwargs: Any
) -> IntersectionController:
    """Build one controller by name.

    >>> from repro.model.grid import build_grid_network
    >>> net = build_grid_network(1, 1)
    >>> ctrl = make_controller("cap-bp", net.intersections["J00"], period=16)
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown controller {name!r}; expected one of {CONTROLLER_NAMES}"
        )
    return builder(intersection, **kwargs)


def make_network_controller(
    name: str, network: Network, **kwargs: Any
) -> NetworkController:
    """Build one controller per intersection (same parameters for all).

    The paper sets e.g. the CAP-BP control period globally for the
    whole network; this mirrors that.
    """
    controllers = {
        node_id: make_controller(name, intersection, **kwargs)
        for node_id, intersection in network.intersections.items()
    }
    return NetworkController(controllers)

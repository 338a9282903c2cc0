"""Deterministic random-number management.

Every stochastic component in the library (arrival processes, route
sampling, driver imperfection in the car-following model) draws from a
*named* stream derived from a single scenario seed.  This guarantees:

* bit-for-bit reproducibility of every experiment given a seed, and
* *independence between components*: adding draws to one stream (say,
  the arrival process on one road) never perturbs the values another
  stream produces.  This is essential for paired controller comparisons
  — CAP-BP and UTIL-BP runs of the same scenario see the *same* demand.

Streams are implemented with :class:`numpy.random.Generator` seeded via
:class:`numpy.random.SeedSequence` spawned from a stable hash of the
stream name.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

__all__ = ["derive_seed", "RngStreams"]


def derive_seed(base_seed: int, name: str) -> int:
    """Derive a child seed from ``base_seed`` and a stream ``name``.

    The derivation uses SHA-256 so it is stable across Python processes
    and platforms (unlike the builtin ``hash``, which is salted).

    Parameters
    ----------
    base_seed:
        The scenario-level seed (any non-negative integer).
    name:
        A stable identifier for the stream, e.g. ``"arrivals/N0_in"``.

    Returns
    -------
    int
        A 64-bit seed derived deterministically from both inputs.
    """
    if base_seed < 0:
        raise ValueError(f"base_seed must be non-negative, got {base_seed}")
    payload = f"{base_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


class RngStreams:
    """A registry of named, independently seeded random generators.

    Examples
    --------
    >>> streams = RngStreams(seed=42)
    >>> gen_a = streams.get("arrivals/north")
    >>> gen_b = streams.get("routing")
    >>> gen_a is streams.get("arrivals/north")
    True
    """

    def __init__(self, seed: int = 0):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The scenario-level base seed."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if not name:
            raise ValueError("stream name must be a non-empty string")
        generator = self._streams.get(name)
        if generator is None:
            child_seed = derive_seed(self._seed, name)
            generator = np.random.default_rng(child_seed)
            self._streams[name] = generator
        return generator

    def names(self):
        """Return the names of all streams created so far (sorted)."""
        return sorted(self._streams)

    def __repr__(self) -> str:
        return f"RngStreams(seed={self._seed}, streams={len(self._streams)})"

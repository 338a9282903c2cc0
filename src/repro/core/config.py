"""Tunable parameters of the UTIL-BP controller.

Defaults reproduce the paper's evaluation setup (Sec. V): transition
phase of 4 s, ``alpha = -1``, ``beta = -2``, and the keep-phase
threshold ``g*(k)`` of Eq. 12.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive

__all__ = ["UtilBpConfig"]


@dataclass(frozen=True)
class UtilBpConfig:
    """Configuration of :class:`repro.core.util_bp.UtilBpController`.

    Attributes
    ----------
    transition_duration:
        Length ``Delta_k`` of the transition (amber) phase in seconds.
    alpha:
        Gain assigned to a link whose incoming movement queue is empty
        while its outgoing road still has space (Eq. 8, second case).
        Must be negative.
    beta:
        Gain assigned to a link whose outgoing road is full (Eq. 8,
        first case).  The paper orders ``beta < alpha < 0`` (Eq. 9) but
        notes the reverse is admissible; we enforce only negativity and
        expose :meth:`paper_ordering` for callers who want the check.
    keep_margin:
        Relaxation of the keep-phase threshold: the phase is kept while
        ``g_max > (W* - keep_margin) µ``, i.e. while the best link's
        pressure difference exceeds ``-keep_margin``.  The paper's
        Eq. 12 corresponds to 0 and notes that ``g*(k)`` "can be chosen
        based on customized requirements and traffic conditions"; the
        ablation benchmarks sweep this.
    """

    transition_duration: float = 4.0
    alpha: float = -1.0
    beta: float = -2.0
    keep_margin: float = 0.0

    def __post_init__(self) -> None:
        check_positive("transition_duration", self.transition_duration)
        if self.keep_margin < 0:
            raise ValueError(
                f"keep_margin must be >= 0, got {self.keep_margin}"
            )
        if self.alpha >= 0:
            raise ValueError(f"alpha must be negative, got {self.alpha}")
        if self.beta >= 0:
            raise ValueError(f"beta must be negative, got {self.beta}")

    def paper_ordering(self) -> bool:
        """True iff the parameters satisfy Eq. 9 (``beta < alpha < 0``)."""
        return self.beta < self.alpha < 0

"""The stability detector's options and the parameters that set them.

Kept apart from :mod:`repro.analysis.stability` so that the CLI can
build its ``repro analyze changepoints`` flags from
:data:`ANALYSIS_PARAMS` without importing the detector, the result
store or the worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UsageError

__all__ = ["ANALYSIS_PARAMS", "AnalysisOptions"]


@dataclass(frozen=True)
class AnalysisOptions:
    """Tuning knobs of the stability detector (defaults are sane).

    The defaults were calibrated on the catalog's gridlock (1.6x
    overload) vs steady workloads: gridlock's summed entry queues show
    shifts of 35+ vehicles at 900 s while steady's warm-up drift stays
    under ~20 across 12 entries — the per-series effect-size floor of
    2 vehicles separates the two with margin on either side.
    """

    #: Leading fraction of the horizon discarded before detection (the
    #: network filling from empty is itself a mean shift).
    warmup_fraction: float = 0.25
    #: Fewest post-warm-up samples a run needs to be analyzed.
    min_points: int = 20
    #: Effect-size floor: the upward shift must reach this many
    #: vehicles *per summed series* to count as a breakdown.
    min_shift_per_series: float = 2.0
    #: Null quantile of the permutation calibration.
    quantile: float = 0.95
    #: Permutation draws per series (odd keeps quantiles exact).
    n_permutations: int = 199
    #: Circular block length of the permutation null (samples).
    block_length: int = 12
    #: RNG seed of the permutation draws (fixed => deterministic).
    seed: int = 0
    #: Coverage of the onset confidence interval across seeds.
    confidence: float = 0.95

    def __post_init__(self) -> None:
        for name, valid, rule in (
            ("warmup_fraction", 0.0 <= self.warmup_fraction < 1.0, "in [0, 1)"),
            ("min_points", self.min_points >= 2, ">= 2"),
            ("min_shift_per_series", self.min_shift_per_series >= 0.0, ">= 0"),
            ("n_permutations", self.n_permutations >= 1, ">= 1"),
            ("quantile", 0.0 < self.quantile < 1.0, "in (0, 1)"),
            ("confidence", 0.0 < self.confidence < 1.0, "in (0, 1)"),
        ):
            if not valid:
                raise UsageError(
                    f"{name} must be {rule}, got {getattr(self, name)}"
                )


#: ``(parameter, AnalysisOptions field, type, help)``: the
#: ``repro analyze changepoints --<parameter>`` flag and the
#: ``GET /results/changepoints?<parameter>=`` query set the same field.
ANALYSIS_PARAMS = (
    ("warmup_fraction", "warmup_fraction", float,
     "leading fraction of each series discarded"),
    ("min_points", "min_points", int,
     "fewest post-warm-up samples a run needs"),
    ("min_shift", "min_shift_per_series", float,
     "breakdown effect-size floor in vehicles per recorded series"),
    ("quantile", "quantile", float, "permutation-null detection quantile"),
    ("permutations", "n_permutations", int, "permutation draws per series"),
    ("block", "block_length", int,
     "circular block length of the permutation null"),
    ("perm_seed", "seed", int,
     "permutation RNG seed; fixed = deterministic"),
    ("confidence", "confidence", float, "onset confidence-interval coverage"),
)

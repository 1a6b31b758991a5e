"""Rule-based pre-filter: out-of-range, impossible (negative), and gap flags.

Rule-flagged readings are blanked in the cleaned output so the statistical
stages never see them, but the flags keep the original locations so the final
report can still list every rule hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .core import MultiSeries
from .errors import ConfigError

OUT_OF_RANGE = "out_of_range"
NEGATIVE = "negative"
MISSING_GAP = "missing_gap"


@dataclass(frozen=True)
class RuleConfig:
    """Per-variable detection ranges plus the maximum allowed reading gap.

    ranges: variable -> (min, max) sensor detection range; use +/-inf for an
    unbounded side. forbid_negative defaults to True for every variable (a
    mapping narrows it per variable). max_gap_minutes defaults to 180.
    """

    ranges: Mapping[str, tuple[float, float]]
    max_gap_minutes: float = 180.0
    forbid_negative: Mapping[str, bool] | bool = True

    def __post_init__(self):
        # Written as not (x > 0) so that NaN is refused too.
        if not self.max_gap_minutes > 0:
            raise ConfigError("max_gap_minutes must be positive")
        for var, (lo, hi) in self.ranges.items():
            if not lo < hi:
                raise ConfigError(f"range for {var!r} must satisfy min < max")

    def negative_forbidden(self, variable: str) -> bool:
        if isinstance(self.forbid_negative, bool):
            return self.forbid_negative
        return bool(self.forbid_negative.get(variable, True))


@dataclass(frozen=True)
class RuleFlags:
    """Which rule fired where. missing_gap is per-timestamp, the rest per cell."""

    variables: tuple[str, ...]
    timestamps: np.ndarray
    out_of_range: np.ndarray  # (n, d) bool
    negative: np.ndarray  # (n, d) bool
    missing_gap: np.ndarray  # (n,) bool

    @cached_property
    def any_at_timestamp(self) -> np.ndarray:
        """Per-timestamp: did any rule fire here."""
        return self.out_of_range.any(axis=1) | self.negative.any(axis=1) | self.missing_gap


def apply_rules(ms: MultiSeries, cfg: RuleConfig) -> tuple[RuleFlags, MultiSeries]:
    """Flag rule violations and return a cleaned copy with flagged cells blanked.

    A timestamp gets missing_gap iff the gap to its predecessor exceeds
    max_gap_minutes; that flag blanks the whole row (all variables) since the
    first reading after an outage is not trusted either.
    """
    for var in ms.variables:
        if var not in cfg.ranges:
            raise ConfigError(f"no range configured for variable {var!r}")

    n = len(ms)
    d = len(ms.variables)
    oor = np.zeros((n, d), dtype=bool)
    neg = np.zeros((n, d), dtype=bool)

    for j, s in enumerate(ms.series):
        lo, hi = cfg.ranges[s.name]
        v = s.values
        with np.errstate(invalid="ignore"):
            oor[:, j] = (v < lo) | (v > hi)
            if cfg.negative_forbidden(s.name):
                neg[:, j] = v < 0

    gap = np.zeros(n, dtype=bool)
    gap[1:] = ms.series[0].gap_minutes()[1:] > cfg.max_gap_minutes

    flags = RuleFlags(
        variables=ms.variables,
        timestamps=ms.timestamps.copy(),
        out_of_range=oor,
        negative=neg,
        missing_gap=gap,
    )

    cleaned_series = []
    for j, s in enumerate(ms.series):
        blank = oor[:, j] | neg[:, j] | gap
        if blank.any():
            v = s.values.copy()
            v[blank] = np.nan
            cleaned_series.append(s.with_values(v))
        else:
            cleaned_series.append(s)
    return flags, MultiSeries(site=ms.site, series=tuple(cleaned_series))

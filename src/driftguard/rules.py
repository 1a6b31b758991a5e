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
UNBOUNDED = (-np.inf, np.inf)  # the range of a variable with no configured one


@dataclass(frozen=True)
class RuleConfig:
    """Per-variable detection ranges plus the maximum allowed reading gap.

    ranges: variable -> (min, max) sensor detection range; +/-inf leaves a side
    unbounded, and a variable with no entry is unbounded. forbid_negative flags
    negative readings of every variable (to floor one variable alone, turn it
    off and give that variable a min-0 range). max_gap_minutes defaults to 180.
    """

    ranges: Mapping[str, tuple[float, float]]
    max_gap_minutes: float = 180.0
    forbid_negative: bool = True

    def __post_init__(self):
        # Written as not (x > 0) so that NaN is refused too.
        if not self.max_gap_minutes > 0:
            raise ConfigError("max_gap_minutes must be positive")
        if not isinstance(self.forbid_negative, bool):
            raise ConfigError("forbid_negative must be true or false, for every variable")
        for var, (lo, hi) in self.ranges.items():
            if not lo < hi:
                raise ConfigError(f"range for {var!r} must satisfy min < max")


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

    A variable with no ``cfg.ranges`` entry is unbounded; a range naming no
    variable of ``ms`` is a ConfigError naming it. A timestamp gets
    missing_gap iff the gap to its predecessor exceeds max_gap_minutes; that
    flag blanks the whole row (all variables) since the first reading after
    an outage is not trusted either.
    """
    for var in cfg.ranges:
        if var not in ms.variables:
            raise ConfigError(f"range for {var!r}: no such variable in {list(ms.variables)}")

    n = len(ms)
    d = len(ms.variables)
    oor = np.zeros((n, d), dtype=bool)
    neg = np.zeros((n, d), dtype=bool)

    for j, s in enumerate(ms.series):
        lo, hi = cfg.ranges.get(s.name, UNBOUNDED)
        v = s.values
        with np.errstate(invalid="ignore"):
            oor[:, j] = (v < lo) | (v > hi)
            if cfg.forbid_negative:
                neg[:, j] = v < 0

    gap = np.zeros(n, dtype=bool)
    gap[1:] = ms.series[0].gap_minutes()[1:] > cfg.max_gap_minutes

    flags = RuleFlags(
        variables=ms.variables,
        timestamps=ms.timestamps,
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

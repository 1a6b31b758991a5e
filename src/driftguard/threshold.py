"""Adaptive outlier-score cutoff from an exponential tail fit.

The typical set starts as the smallest half of the scores. Each round
estimates the exponential tail scale from the typical set's largest
order-statistic spacings (Weissman-style: the spacing j levels below the
running maximum is scaled by j + 1 and the window averaged, since deeper
spacings shrink in expectation), places the cutoff at max(typical) plus the
1 - alpha exponential quantile ln(1/alpha) * scale, and tests the smallest
remaining score. A score under the cutoff is absorbed and the fit refreshed;
the first score above it flags itself and everything larger.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import float_cells, write_csv
from .errors import ConfigError, DataError
from .rules import RuleFlags

MIN_SCORES = 10


@dataclass(frozen=True)
class ThresholdConfig:
    alpha: float = 0.05
    initial_fraction: float = 0.5
    tail_count: int | None = None  # None -> min(50, max(2, ceil(0.1 * |typical|)))

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ConfigError("alpha must lie in (0, 1)")
        if not 0 < self.initial_fraction < 1:
            raise ConfigError("initial_fraction must lie in (0, 1)")
        if self.tail_count is not None and self.tail_count < 2:
            raise ConfigError("tail_count must be at least 2")


@dataclass(frozen=True)
class ThresholdTrace:
    """Audit record of every cutoff decision, replayable from (scores, cfg)."""

    alpha: float
    initial_fraction: float
    effective_tail_count: int
    n: int
    tested_scores: np.ndarray
    cutoffs: np.ndarray
    spacing_scales: np.ndarray
    decisions: tuple[str, ...]
    flagged_indices: np.ndarray
    degenerate: bool = False
    note: str = ""

    def to_csv(self, path) -> None:
        """Write the decisions that explain the cutoff.

        These are the last ``effective_tail_count + 2`` rows, or every row
        of a shorter trace, each under its original iteration number. The
        last row is the stop, or the final absorb when nothing is flagged;
        its spacing scale averages ``effective_tail_count`` spacings, which
        span the ``effective_tail_count + 1`` tested scores just before it.
        """
        start = max(0, len(self.decisions) - (self.effective_tail_count + 2))
        floats = (self.tested_scores, self.cutoffs, self.spacing_scales)
        cols = [float_cells(a[start:]) for a in floats]
        write_csv(
            path,
            ["iteration", "tested_score", "cutoff", "spacing_scale", "decision"],
            zip(itertools.count(start), *cols, self.decisions[start:]),
        )


def _effective_tail_count(cfg: ThresholdConfig, typical_size: int) -> int:
    if cfg.tail_count is not None:
        return cfg.tail_count
    return min(50, max(2, math.ceil(0.1 * typical_size)))


def evt_flag(scores, cfg: ThresholdConfig = ThresholdConfig()) -> tuple[np.ndarray, ThresholdTrace]:
    """Flag the scores an expanding exponential-tail cutoff cannot absorb.

    Accepts a ScoreVector or a plain array. Returns (flags, trace) where
    flags is a boolean vector over the input order.
    """
    s = np.asarray(getattr(scores, "scores", scores), dtype=np.float64)
    n = len(s)
    if n < MIN_SCORES:
        raise DataError(f"need at least {MIN_SCORES} scores, got {n}")
    if not np.isfinite(s).all():
        raise DataError("scores must be finite")

    ss = np.sort(s)
    # At least three seed scores so the tail fit has spacings to work with.
    m0 = min(max(math.ceil(cfg.initial_fraction * n), 3), n)
    tail_count = _effective_tail_count(cfg, m0)
    log_alpha = math.log(1.0 / cfg.alpha)

    # The typical set at candidate i is always ss[:i], so every window fit is
    # a pure function of the sorted scores and can be computed up front.
    # tail_count leading zero spacings let a typical set with fewer spacings
    # than the window average over the i - 1 it has.
    # Candidates are m0 .. n - 1, so their windows and typical maxima are
    # the slices that start at m0 - 1.
    candidates = np.arange(m0, n)
    gaps = np.concatenate([np.zeros(tail_count), np.diff(ss)])
    kernel = np.arange(tail_count + 1, 1, -1, dtype=np.float64)  # window position 0 = D_tc
    windows = np.lib.stride_tricks.sliding_window_view(gaps, tail_count)[m0 - 1 : n - 1]
    ghat = np.ascontiguousarray(windows) @ kernel / np.minimum(tail_count, candidates - 1)

    cutoffs = ss[m0 - 1 : n - 1] + log_alpha * ghat
    exceed = ss[m0:] > cutoffs
    hit = int(np.argmax(exceed)) if exceed.any() else None
    stop_at = int(candidates[hit]) if hit is not None else None
    last = hit + 1 if hit is not None else len(candidates)

    # ghat >= 0, so the stop score is strictly above the score before it
    # and no tie straddles the stop: every copy of a flagged value is flagged.
    flags = s >= ss[stop_at] if stop_at is not None else np.zeros(n, dtype=bool)
    stops = ("stop",) if stop_at is not None else ()
    degenerate = n > 1 and ss[0] == ss[-1]
    trace = ThresholdTrace(
        alpha=cfg.alpha,
        initial_fraction=cfg.initial_fraction,
        effective_tail_count=tail_count,
        n=n,
        tested_scores=ss[m0 : m0 + last].copy(),
        cutoffs=cutoffs[:last].copy(),
        spacing_scales=ghat[:last].copy(),
        decisions=("absorb",) * (last - len(stops)) + stops,
        flagged_indices=np.flatnonzero(flags),
        degenerate=degenerate,
        note="all scores identical: no spacings to fit" if degenerate else "",
    )
    return flags, trace


def combine_flags(
    rule_flags: RuleFlags | None,
    outlier_timestamps,
    timestamps: np.ndarray,
) -> np.ndarray:
    """Per-timestamp prediction: any rule fired, or a score detection landed there.

    ``outlier_timestamps`` is an integer array, read as it is, or any
    iterable of ints.
    """
    n = len(timestamps)
    pred = np.zeros(n, dtype=bool)
    if rule_flags is not None:
        if len(rule_flags.timestamps) != n or not np.array_equal(
            rule_flags.timestamps, timestamps
        ):
            raise DataError("rule flags do not align with the timestamp vector")
        pred |= rule_flags.any_at_timestamp
    if not isinstance(outlier_timestamps, np.ndarray):
        outlier_timestamps = np.fromiter(outlier_timestamps, dtype=np.int64)
    # repeated and unsorted timestamps need no np.unique: each is looked up on its own
    wanted = outlier_timestamps.astype(np.int64, copy=False)
    if wanted.size:
        pos = np.searchsorted(timestamps, wanted)
        if not (timestamps[np.minimum(pos, n - 1)] == wanted).all():
            raise DataError("detection timestamp not present in the series")
        pred[pos] = True
    return pred

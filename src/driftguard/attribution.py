"""Post-detection analysis: responsible variable, direction, neighbor correction.

Every flagged cloud row is attributed in one pass over whole columns, in two
steps. ``locate_flags`` decides where each detection lands; the evaluation
grid needs only that. ``describe_flags`` then names its variable, direction
and notes, for the outputs that report them.

- The variable is the one with the largest robustly scaled deviation from
  the median of the unflagged rows. Near-ties break by variable order and
  are noted; a row with no deviation is "indeterminate".
- Differencing transforms smear a fault across two consecutive readings, so
  a flag can land on the innocent neighbor. The correction moves it to
  whichever of the two deviates more from the mean of its own neighbors.
- The direction compares the (corrected) reading with the mean of it and
  its two neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .core import MultiSeries, float_cells, write_csv
from .transforms import DIFFERENCING_KINDS, TransformedMatrix

MAD_EPS = 1e-9

SPIKE = "spike"
DROP = "drop"
SHIFT = "shift"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Detection:
    """One reported outlier with its attribution."""

    timestamp: int
    variable: str
    direction: str
    score: float
    trigger: str  # "evt" | "rule"
    corrected_from: int | None = None
    note: str = ""


def _median_rows(rows: np.ndarray) -> np.ndarray:
    """Median of each row of a contiguous (d, m) array, reordering ``rows`` in place.

    One partition at the middle pair (m//2 - 1, m//2), or the middle of an
    odd row, then the pair's mean as ``np.median`` takes it: (a + b) / 2.
    """
    half, odd = divmod(rows.shape[1], 2)
    rows.partition([half] if odd else [half - 1, half], axis=1)
    return rows[:, half].copy() if odd else (rows[:, half - 1] + rows[:, half]) / 2


def typical_center(typical_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension median and robust scale of the (m, d) typical points.

    Scale is the MAD; one-sided transforms clip more than half a column to
    zero and collapse the MAD, so a zero MAD falls back to the mean absolute
    deviation before the epsilon floor.

    Both medians partition one contiguous copy of the columns, so they equal
    ``np.median(axis=0)``'s values; only a zero median's sign may differ,
    which no deviation |x - median| sees. The fallback is taken only where a
    MAD is zero, and on the row-major points, so it adds in the order
    ``mean(axis=0)`` does.
    """
    cols = typical_points.T.copy()
    med = _median_rows(cols)
    abs_dev = np.abs(np.subtract(cols, med[:, None], out=cols), out=cols)
    mad = _median_rows(abs_dev)
    if (mad > 0).all():
        return med, mad
    return med, np.where(mad > 0, mad, np.abs(typical_points - med).mean(axis=0))


def _trios(values: np.ndarray, at: np.ndarray, col: np.ndarray) -> np.ndarray:
    """(len(at), 3) readings at at-1, at, at+1 of column ``col``; NaN off either end."""
    idx = at[:, None] + np.arange(-1, 2)
    inside = (idx >= 0) & (idx < len(values))
    return np.where(inside, values[np.clip(idx, 0, len(values) - 1), col[:, None]], np.nan)


def _local_deviation(trio: np.ndarray) -> np.ndarray:
    """|middle - mean of its two neighbors| per trio; -inf where one is missing."""
    with np.errstate(invalid="ignore"):
        dev = np.abs(trio[:, 1] - 0.5 * (trio[:, 0] + trio[:, 2]))
    return np.where(np.isfinite(trio).all(axis=1), dev, -np.inf)


@dataclass(frozen=True)
class FlagLocations:
    """Where the detection of each flagged cloud row lands; see ``locate_flags``.

    Row arrays align with ``rows``, the flagged cloud rows in order.
    """

    rows: np.ndarray  # flagged cloud rows
    at: np.ndarray  # their series rows
    index: np.ndarray  # the series row each detection lands on: at, or at - 1 if corrected
    col: np.ndarray  # responsible column
    dev: np.ndarray  # (m, d) deviations from the typical centre, in robust scales
    # differencing kinds only: local deviations of the readings at at-1 and at
    candidate_dev: tuple[np.ndarray, np.ndarray] | None = None


def _series_values(tm: TransformedMatrix, ms: MultiSeries) -> np.ndarray:
    return np.column_stack([ms.get(var).values for var in tm.variables])


def locate_flags(tm: TransformedMatrix, ms: MultiSeries, evt_flags: np.ndarray) -> FlagLocations:
    """The eager half of attribution: each flag's responsible column and corrected row.

    evt_flags aligns with the matrix's cloud rows; the typical median is
    taken over the rows the threshold left unflagged.
    """
    flagged = np.nonzero(evt_flags)[0]
    if flagged.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return FlagLocations(flagged, empty, empty, empty, np.empty((0, tm.points.shape[1])))
    typical = tm.points.compress(~evt_flags, axis=0)  # compress copies rows faster than a mask
    med, scale = typical_center(typical if len(typical) else tm.points)
    dev = np.abs(tm.points[flagged] - med) / (scale + MAD_EPS)
    col = np.argmax(dev, axis=1)  # ties break by variable order
    at = tm.row_index[flagged]
    if tm.kind not in DIFFERENCING_KINDS:
        return FlagLocations(flagged, at, at, col, dev)
    # every differencing cell needs a predecessor, so at - 1 >= 0
    values = _series_values(tm, ms)
    dev_before = _local_deviation(_trios(values, at - 1, col))
    dev_at = _local_deviation(_trios(values, at, col))
    moved = dev.any(axis=1) & (dev_before > dev_at)
    return FlagLocations(flagged, at, np.where(moved, at - 1, at), col, dev, (dev_before, dev_at))


def describe_flags(
    loc: FlagLocations, tm: TransformedMatrix, ms: MultiSeries, scores: np.ndarray
) -> list[Detection]:
    """The lazy half of attribution: variable, direction and notes, as Detections.

    ``scores`` aligns with the matrix's cloud rows.
    """
    if loc.rows.size == 0:
        return []
    dev, idx = loc.dev, loc.index
    known = dev.any(axis=1)
    tie = (dev >= dev.max(axis=1)[:, None] * (1.0 - 1e-9)).sum(axis=1) > 1
    var_note = np.select(
        [~known, tie],
        ["no deviation from typical median", "near-tie across variables; broken by variable order"],
        "",
    )
    corr_note = np.full(len(idx), "")
    if loc.candidate_dev is not None:
        dev_before, dev_at = loc.candidate_dev
        corr_note = np.select(
            [~known, np.maximum(dev_before, dev_at) == -np.inf, dev_before == dev_at],
            ["", "no candidate has a two-sided neighborhood",
             "equal candidate deviations; kept original index"],
            "",
        )

    values = _series_values(tm, ms)
    trio = _trios(values, idx, loc.col)
    complete = np.isfinite(trio).all(axis=1)
    with np.errstate(invalid="ignore"):
        mean = trio.mean(axis=1)
    direction = np.select(
        [~known, ~complete, trio[:, 1] > mean, trio[:, 1] < mean],
        [INDETERMINATE, SHIFT, SPIKE, DROP],
        SHIFT,
    )
    dir_note = np.select(
        [~known, (idx <= 0) | (idx >= len(values) - 1), ~complete, direction == SHIFT],
        ["", "boundary point: no two-sided neighborhood", "missing neighbor value",
         "point equals its local mean"],
        "",
    )
    variable = np.where(known, np.asarray(tm.variables)[loc.col], INDETERMINATE)

    ts = ms.timestamps
    return [
        Detection(t, var, d, s, "evt", orig if m else None, "; ".join(filter(None, notes)))
        for t, var, d, s, orig, m, *notes in zip(
            ts[idx].tolist(), variable.tolist(), direction.tolist(), scores[loc.rows].tolist(),
            ts[loc.at].tolist(), (idx != loc.at).tolist(),
            var_note.tolist(), corr_note.tolist(), dir_note.tolist(),
        )
    ]


def attribute_detections(
    tm: TransformedMatrix,
    ms: MultiSeries,
    evt_flags: np.ndarray,
    scores: np.ndarray,
) -> list[Detection]:
    """Turn per-row threshold flags into attributed detections: locate, then describe.

    evt_flags/scores align with the matrix's cloud rows.
    """
    return describe_flags(locate_flags(tm, ms, evt_flags), tm, ms, scores)


_CSV_FIELDS = ("timestamp", "variable", "direction", "score", "trigger", "corrected_from")


def write_detections_csv(detections, path) -> None:
    cols = list(zip(*map(attrgetter(*_CSV_FIELDS), detections))) or [()] * len(_CSV_FIELDS)
    ts, var, direction, score, trigger, moved = cols
    corrected = ["" if t is None else t for t in moved]
    write_csv(path, _CSV_FIELDS, zip(ts, var, direction, float_cells(score), trigger, corrected))

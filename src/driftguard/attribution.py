"""Post-detection analysis: responsible variable, direction, neighbor correction.

Every flagged cloud row is attributed in one pass over whole columns:

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

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import MultiSeries
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


def typical_center(typical_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension median and robust scale of the typical points.

    Scale is the MAD; one-sided transforms clip more than half a column to
    zero and collapse the MAD, so a zero MAD falls back to the mean absolute
    deviation before the epsilon floor.
    """
    med = np.median(typical_points, axis=0)
    abs_dev = np.abs(typical_points - med)
    mad = np.median(abs_dev, axis=0)
    return med, np.where(mad > 0, mad, abs_dev.mean(axis=0))


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


def attribute_detections(
    tm: TransformedMatrix,
    ms: MultiSeries,
    evt_flags: np.ndarray,
    scores: np.ndarray,
) -> list[Detection]:
    """Turn per-row threshold flags into attributed detections.

    evt_flags/scores align with the matrix's cloud rows; the typical median
    is taken over the rows the threshold left unflagged.
    """
    flagged = np.nonzero(evt_flags)[0]
    if flagged.size == 0:
        return []
    typical = tm.points[~evt_flags]
    med, scale = typical_center(typical if len(typical) else tm.points)
    dev = np.abs(tm.points[flagged] - med) / (scale + MAD_EPS)
    col = np.argmax(dev, axis=1)  # ties break by variable order
    known = dev.any(axis=1)
    tie = (dev >= dev.max(axis=1)[:, None] * (1.0 - 1e-9)).sum(axis=1) > 1
    var_note = np.select(
        [~known, tie],
        ["no deviation from typical median", "near-tie across variables; broken by variable order"],
        "",
    )

    values = np.column_stack([ms.get(var).values for var in tm.variables])
    at = tm.row_index[flagged]
    trio = _trios(values, at, col)
    moved = np.zeros(len(flagged), dtype=bool)
    corr_note = np.full(len(flagged), "")
    if tm.kind in DIFFERENCING_KINDS:
        # every differencing cell needs a predecessor, so at - 1 >= 0
        before = _trios(values, at - 1, col)
        dev_before, dev_at = _local_deviation(before), _local_deviation(trio)
        moved = known & (dev_before > dev_at)
        trio = np.where(moved[:, None], before, trio)
        corr_note = np.select(
            [~known, np.maximum(dev_before, dev_at) == -np.inf, dev_before == dev_at],
            ["", "no candidate has a two-sided neighborhood",
             "equal candidate deviations; kept original index"],
            "",
        )
    idx = np.where(moved, at - 1, at)

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
    variable = np.where(known, np.asarray(tm.variables)[col], INDETERMINATE)

    ts = ms.timestamps
    return [
        Detection(t, var, d, s, "evt", orig if m else None, "; ".join(filter(None, notes)))
        for t, var, d, s, orig, m, *notes in zip(
            ts[idx].tolist(), variable.tolist(), direction.tolist(), scores[flagged].tolist(),
            ts[at].tolist(), moved.tolist(),
            var_note.tolist(), corr_note.tolist(), dir_note.tolist(),
        )
    ]


def write_detections_csv(detections, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "variable", "direction", "score", "trigger", "corrected_from"])
        for det in detections:
            writer.writerow(
                [
                    det.timestamp,
                    det.variable,
                    det.direction,
                    "" if math.isnan(det.score) else repr(det.score),
                    det.trigger,
                    "" if det.corrected_from is None else det.corrected_from,
                ]
            )

"""Series transformations that make technical outliers separate geometrically.

Each transform maps a raw series into a column where a target fault type
stands away from typical behavior: log stabilizes variance, differencing
isolates spikes from trends, gap-normalized derivatives handle uneven
sampling, the one-sided derivative discards the direction a variable moves
fast under normal conditions, and the centered relative difference catches
sudden two-sided changes. Cells whose formula needs an unavailable neighbor
or a non-positive log argument are masked, never fabricated. Logs are natural.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .core import MultiSeries, SensorSeries
from .errors import ConfigError


class TransformKind(str, Enum):
    ORIGINAL = "original"
    LOG = "log"
    FIRST_DIFFERENCE = "first_difference"
    TIME_GAP = "time_gap"
    FIRST_DERIVATIVE = "first_derivative"
    ONE_SIDED_DERIVATIVE = "one_sided_derivative"
    RATE_OF_CHANGE = "rate_of_change"
    RELATIVE_DIFFERENCE = "relative_difference"
    RELATIVE_DIFFERENCE_LOG = "relative_difference_log"


class Side(str, Enum):
    """Which sign of the gap-normalized log-return survives clipping."""

    KEEP_NEGATIVE = "keep_negative"  # min{x, 0}: fast rises are typical
    KEEP_POSITIVE = "keep_positive"  # max{x, 0}: fast falls are typical


# Turbidity and river level rise fast under normal conditions, so only the
# negative side is informative; conductivity is the mirror case.
DEFAULT_SIDES: Mapping[str, Side] = {
    "turbidity": Side.KEEP_NEGATIVE,
    "level": Side.KEEP_NEGATIVE,
    "conductivity": Side.KEEP_POSITIVE,
}

# Relative index offsets of the original readings each transformed cell uses.
PROVENANCE_SPAN: Mapping[TransformKind, tuple[int, ...]] = {
    TransformKind.ORIGINAL: (0,),
    TransformKind.LOG: (0,),
    TransformKind.FIRST_DIFFERENCE: (-1, 0),
    TransformKind.TIME_GAP: (-1, 0),
    TransformKind.FIRST_DERIVATIVE: (-1, 0),
    TransformKind.ONE_SIDED_DERIVATIVE: (-1, 0),
    TransformKind.RATE_OF_CHANGE: (-1, 0),
    TransformKind.RELATIVE_DIFFERENCE: (-1, 0, 1),
    TransformKind.RELATIVE_DIFFERENCE_LOG: (-1, 0, 1),
}

DIFFERENCING_KINDS = frozenset(
    k for k, span in PROVENANCE_SPAN.items() if span == (-1, 0)
)


def transform_column(
    series: SensorSeries,
    kind: TransformKind,
    side: Side | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one transform to one series.

    Returns (column, valid) of the series' full length; invalid cells hold NaN.
    """
    v = series.values
    n = len(v)
    finite = np.isfinite(v)
    out = np.full(n, np.nan)
    valid = np.zeros(n, dtype=bool)

    prev = np.roll(v, 1)
    prev_finite = np.roll(finite, 1)
    prev_finite[0] = False

    if kind is TransformKind.ORIGINAL:
        valid = finite
        out[valid] = v[valid]

    elif kind is TransformKind.LOG:
        valid = finite & (v > 0)
        out[valid] = np.log(v[valid])

    elif kind is TransformKind.TIME_GAP:
        dt = series.gap_minutes()
        valid = np.isfinite(dt)
        out[valid] = dt[valid]

    elif kind in (
        TransformKind.FIRST_DIFFERENCE,
        TransformKind.FIRST_DERIVATIVE,
        TransformKind.ONE_SIDED_DERIVATIVE,
    ):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = v / prev
        valid = finite & prev_finite & (prev != 0)
        valid &= np.where(valid, ratio > 0, False)
        x = np.full(n, np.nan)
        x[valid] = np.log(ratio[valid])
        if kind is not TransformKind.FIRST_DIFFERENCE:
            dt = series.gap_minutes()
            x[valid] = x[valid] / dt[valid]
        if kind is TransformKind.ONE_SIDED_DERIVATIVE:
            if side is None:
                raise ConfigError(
                    f"one_sided_derivative needs a side for variable {series.name!r}"
                )
            x[valid] = (
                np.minimum(x[valid], 0.0)
                if side is Side.KEEP_NEGATIVE
                else np.maximum(x[valid], 0.0)
            )
        out = x

    elif kind is TransformKind.RATE_OF_CHANGE:
        valid = finite & prev_finite & (v != 0)
        out[valid] = (v[valid] - prev[valid]) / v[valid]

    elif kind in (TransformKind.RELATIVE_DIFFERENCE, TransformKind.RELATIVE_DIFFERENCE_LOG):
        y = v
        ok = finite
        if kind is TransformKind.RELATIVE_DIFFERENCE_LOG:
            ok = finite & (v > 0)
            y = np.where(ok, np.log(np.where(ok, v, 1.0)), np.nan)
        nxt = np.roll(y, -1)
        prv = np.roll(y, 1)
        ok_next = np.roll(ok, -1)
        ok_prev = np.roll(ok, 1)
        ok_next[-1] = False
        ok_prev[0] = False
        valid = ok & ok_prev & ok_next
        out[valid] = y[valid] - 0.5 * (nxt[valid] + prv[valid])

    else:  # pragma: no cover - enum is exhaustive
        raise ConfigError(f"unknown transform kind {kind!r}")

    return out, valid


def resolve_sides(
    variables: Sequence[str],
    kind: TransformKind,
    sides: Mapping[str, Side | str] | None = None,
) -> dict[str, Side] | None:
    """Resolve a per-variable side map, falling back to the domain defaults."""
    if kind is not TransformKind.ONE_SIDED_DERIVATIVE:
        return None
    resolved: dict[str, Side] = {}
    for var in variables:
        raw = None
        if sides is not None and var in sides:
            raw = sides[var]
        elif var in DEFAULT_SIDES:
            raw = DEFAULT_SIDES[var]
        if raw is None:
            raise ConfigError(
                f"one_sided_derivative: no side tag for variable {var!r}"
            )
        try:
            resolved[var] = Side(raw)
        except ValueError:
            raise ConfigError(
                f"one_sided_derivative: unknown side tag {raw!r} for variable {var!r}"
            ) from None
    return resolved


@dataclass(frozen=True)
class TransformedMatrix:
    """Point cloud in transform space with back-links to the original series.

    ``values`` covers every original timestamp; ``row_index`` lists the rows
    whose selected cells are all valid, and ``points`` holds exactly those
    rows. Provenance of row i is row_index[i] plus the kind's span.
    """

    kind: TransformKind
    variables: tuple[str, ...]
    timestamps: np.ndarray
    values: np.ndarray  # (n, d), NaN where invalid
    row_index: np.ndarray  # indices of rows kept in the cloud
    sides: Mapping[str, Side] | None = None

    @cached_property
    def points(self) -> np.ndarray:
        return self.values[self.row_index]

    @cached_property
    def point_timestamps(self) -> np.ndarray:
        return self.timestamps[self.row_index]

    @property
    def n_dropped(self) -> int:
        return len(self.timestamps) - len(self.row_index)

    def provenance(self, row: int) -> tuple[int, ...]:
        """Original series indices that produced cloud row ``row``."""
        base = int(self.row_index[row])
        return tuple(base + off for off in PROVENANCE_SPAN[self.kind])


def build_matrix(
    ms: MultiSeries,
    kind: TransformKind,
    variables: Sequence[str] | None = None,
    sides: Mapping[str, Side | str] | None = None,
) -> TransformedMatrix:
    """Transform the selected variables and assemble the joint point cloud.

    Rows with any invalid cell among the selected variables are dropped from
    the cloud but stay visible, as NaN, in ``values``.
    """
    names = tuple(variables) if variables is not None else ms.variables
    if not names:
        raise ConfigError("empty variable selection")
    side_map = resolve_sides(names, kind, sides)

    cols = []
    masks = []
    for var in names:
        series = ms.get(var)
        side = side_map[var] if side_map else None
        col, valid = transform_column(series, kind, side)
        cols.append(col)
        masks.append(valid)

    values = np.column_stack(cols)
    row_index = np.nonzero(np.logical_and.reduce(masks))[0]
    return TransformedMatrix(
        kind=kind,
        variables=names,
        timestamps=ms.timestamps.copy(),
        values=values,
        row_index=row_index,
        sides=side_map,
    )

"""Series transformations that make technical outliers separate geometrically.

Each transform maps a raw series into a column where a target fault type
stands away from typical behavior: log stabilizes variance, differencing
isolates spikes from trends, gap-normalized derivatives handle uneven
sampling, the one-sided derivative discards the direction a variable moves
fast under normal conditions, and the centered relative difference catches
sudden two-sided changes. Logs are natural. A cell is valid iff its value is
finite: a missing neighbor, a non-positive log argument or an overflow (say, a
rise from a subnormal reading) masks the cell as NaN, never fabricated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Mapping, Sequence

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

# Each kind's formula over whole columns: the reading v, its predecessor and
# successor (NaN past either end) and the gap to the predecessor in minutes.
# one_sided_derivative is first_derivative clipped to its side afterwards.
FORMULAS: Mapping[TransformKind, Callable[..., np.ndarray]] = {
    TransformKind.ORIGINAL: lambda v, prev, nxt, dt: v,
    TransformKind.LOG: lambda v, prev, nxt, dt: np.log(v),
    TransformKind.FIRST_DIFFERENCE: lambda v, prev, nxt, dt: np.log(v / prev),
    TransformKind.TIME_GAP: lambda v, prev, nxt, dt: dt,
    TransformKind.FIRST_DERIVATIVE: lambda v, prev, nxt, dt: np.log(v / prev) / dt,
    TransformKind.ONE_SIDED_DERIVATIVE: lambda v, prev, nxt, dt: np.log(v / prev) / dt,
    TransformKind.RATE_OF_CHANGE: lambda v, prev, nxt, dt: (v - prev) / v,
    TransformKind.RELATIVE_DIFFERENCE: lambda v, prev, nxt, dt: v - 0.5 * (nxt + prev),
    TransformKind.RELATIVE_DIFFERENCE_LOG: (
        lambda v, prev, nxt, dt: np.log(v) - 0.5 * (np.log(nxt) + np.log(prev))
    ),
}


def _shift(a: np.ndarray, by: int) -> np.ndarray:
    """``out[i] = a[i - by]``, NaN where ``i - by`` falls outside ``a``."""
    out = np.full(len(a), np.nan)
    if by > 0:
        out[by:] = a[:-by]
    else:
        out[:by] = a[-by:]
    return out


def transform_column(
    series: SensorSeries,
    kind: TransformKind,
    side: Side | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one transform to one series.

    Returns (column, valid) of the series' full length. A cell is valid iff
    its value is finite; invalid cells hold NaN.
    """
    if not isinstance(kind, TransformKind):
        raise ConfigError(f"unknown transform kind {kind!r}")
    v = series.values
    with np.errstate(all="ignore"):
        col = FORMULAS[kind](v, _shift(v, 1), _shift(v, -1), series.gap_minutes())
    valid = np.isfinite(col)
    col = np.where(valid, col, np.nan)
    if kind is TransformKind.ONE_SIDED_DERIVATIVE:
        if side is None:
            raise ConfigError(f"one_sided_derivative needs a side for variable {series.name!r}")
        # Clipping before the mask would turn an infinite cell into a valid 0.0.
        col = (np.minimum if side is Side.KEEP_NEGATIVE else np.maximum)(col, 0.0)
    return col, valid


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
        timestamps=ms.timestamps,
        values=values,
        row_index=row_index,
        sides=side_map,
    )

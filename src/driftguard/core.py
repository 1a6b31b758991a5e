"""Data model for irregular multivariate sensor series, CSV round-trip, synthesis.

Timestamps are integer seconds since the Unix epoch; gap arithmetic is done in
minutes because every gap rule in this domain is stated in minutes. Missing
readings are NaN, never sentinel numbers, so they can be masked rather than
silently folded into distance computations.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

LABEL_SUFFIX = "_label"


def _own(a, dtype) -> np.ndarray:
    """Private read-only copy; never freezes a caller's buffer in place."""
    arr = np.array(a, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _format_epoch(seconds: int) -> str:
    return datetime.fromtimestamp(int(seconds), tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%S"
    )


def _parse_iso(text: str) -> int:
    """Parse an ISO-8601 instant (naive treated as UTC) to epoch seconds."""
    t = text.strip()
    if t.endswith("Z"):
        t = t[:-1] + "+00:00"
    dt = datetime.fromisoformat(t)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


@dataclass(frozen=True)
class SensorSeries:
    """One variable's irregular timestamped readings with optional expert labels.

    timestamps: strictly increasing int64 epoch seconds.
    values: float64 readings; NaN marks a missing reading.
    labels: optional uint8 vector, 1 = outlier, 0 = typical.
    """

    name: str
    timestamps: np.ndarray
    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        ts = _own(self.timestamps, np.int64)
        vals = _own(self.values, np.float64)
        if ts.ndim != 1 or vals.ndim != 1:
            raise DataError(f"series {self.name!r}: timestamps and values must be 1-D")
        if len(ts) != len(vals):
            raise DataError(
                f"series {self.name!r}: {len(vals)} values for {len(ts)} timestamps"
            )
        if len(ts) > 1:
            diffs = np.diff(ts)
            bad = np.nonzero(diffs <= 0)[0]
            if bad.size:
                i = int(bad[0])
                if diffs[i] == 0:
                    raise DataError(
                        f"series {self.name!r}: duplicate timestamp "
                        f"{_format_epoch(ts[i + 1])} at index {i + 1}"
                    )
                raise DataError(
                    f"series {self.name!r}: timestamps not increasing at index "
                    f"{i + 1} ({_format_epoch(ts[i + 1])} after {_format_epoch(ts[i])})"
                )
        if self.labels is not None:
            labels = _own(self.labels, np.uint8)
            if len(labels) != len(ts):
                raise DataError(
                    f"series {self.name!r}: {len(labels)} labels for {len(ts)} timestamps"
                )
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.timestamps)

    def gap_minutes(self) -> np.ndarray:
        """Time gap to the predecessor, in minutes; NaN at index 0."""
        out = np.full(len(self), np.nan)
        if len(self) > 1:
            out[1:] = np.diff(self.timestamps) / 60.0
        return out

    def with_values(self, values: np.ndarray) -> "SensorSeries":
        return SensorSeries(self.name, self.timestamps, values, self.labels)


@dataclass(frozen=True)
class MultiSeries:
    """Co-sampled sensor variables at one site, sharing a single timestamp vector."""

    site: str
    series: tuple[SensorSeries, ...]

    def __post_init__(self):
        series = tuple(self.series)
        if not series:
            raise DataError("MultiSeries needs at least one variable")
        names = [s.name for s in series]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate variable names: {names}")
        ts0 = series[0].timestamps
        for s in series[1:]:
            if len(s.timestamps) != len(ts0) or not np.array_equal(s.timestamps, ts0):
                raise DataError(
                    f"variable {s.name!r} does not share the site timestamp vector"
                )
        object.__setattr__(self, "series", series)

    def __len__(self) -> int:
        return len(self.series[0])

    @property
    def timestamps(self) -> np.ndarray:
        return self.series[0].timestamps

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.series)

    def get(self, name: str) -> SensorSeries:
        for s in self.series:
            if s.name == name:
                return s
        raise DataError(f"no variable {name!r} at site {self.site!r}")

    def has_labels(self) -> bool:
        return all(s.labels is not None for s in self.series)


@dataclass(frozen=True)
class GroundTruthVector:
    """Per-timestamp expert verdict: outlier iff any variable was labeled outlier."""

    timestamps: np.ndarray
    flags: np.ndarray

    def __post_init__(self):
        ts = _own(self.timestamps, np.int64)
        flags = _own(self.flags, bool)
        if len(ts) != len(flags):
            raise DataError("ground truth timestamps/flags length mismatch")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "flags", flags)

    def __len__(self) -> int:
        return len(self.flags)


def ground_truth(ms: MultiSeries) -> GroundTruthVector:
    """OR-reduce the per-variable expert labels into one per-timestamp vector."""
    flags = np.zeros(len(ms), dtype=bool)
    for s in ms.series:
        if s.labels is None:
            raise DataError(f"variable {s.name!r} carries no labels")
        flags |= s.labels.astype(bool)
    return GroundTruthVector(ms.timestamps.copy(), flags)


# ---------------------------------------------------------------------------
# CSV ingestion / emission
#
# Format: header row; column 1 = ISO-8601 timestamp; one column per variable;
# optional `<var>_label` columns holding 0/1. Emission mirrors ingestion.
# ---------------------------------------------------------------------------


def ingest_csv(
    path,
    variables: Sequence[str] | None = None,
    site: str = "",
) -> MultiSeries:
    """Read a MultiSeries from CSV.

    When ``variables`` is None every non-timestamp, non-label column is a
    variable. Rows whose timestamp does not parse are rejected and their row
    numbers logged; blank numeric cells become NaN.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)

    header = [h.strip() for h in header]
    if len(header) < 2:
        raise DataError(f"{path}: header must contain a timestamp column plus variables")
    ts_col = header[0]
    data_cols = header[1:]
    label_cols = {c for c in data_cols if c.endswith(LABEL_SUFFIX)}
    value_cols = [c for c in data_cols if c not in label_cols]

    if variables is None:
        wanted = value_cols
    else:
        wanted = list(variables)
        missing = [v for v in wanted if v not in value_cols]
        if missing:
            raise DataError(
                f"{path}: header mismatch; missing variable columns {missing}, "
                f"found {value_cols}"
            )

    col_index = {name: i + 1 for i, name in enumerate(data_cols)}
    ts_list: list[int] = []
    values: dict[str, list[float]] = {v: [] for v in wanted}
    labels: dict[str, list[int]] = {
        v: [] for v in wanted if v + LABEL_SUFFIX in label_cols
    }
    rejected: list[int] = []

    for row_num, row in enumerate(rows, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {row_num} has {len(row)} cells, header has {len(header)}"
            )
        try:
            ts = _parse_iso(row[0])
        except ValueError:
            rejected.append(row_num)
            continue
        ts_list.append(ts)
        for v in wanted:
            cell = row[col_index[v]].strip()
            if cell == "":
                values[v].append(math.nan)
            else:
                try:
                    values[v].append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: row {row_num}, column {v!r}: "
                        f"unparseable value {cell!r}"
                    ) from None
        for v in labels:
            cell = row[col_index[v + LABEL_SUFFIX]].strip()
            if cell in ("", "0"):
                labels[v].append(0)
            elif cell == "1":
                labels[v].append(1)
            else:
                raise DataError(
                    f"{path}: row {row_num}, column {v + LABEL_SUFFIX!r}: "
                    f"label must be 0 or 1, got {cell!r}"
                )

    if rejected:
        log.warning(
            "%s: rejected %d rows with unparseable %s timestamps: %s",
            path,
            len(rejected),
            ts_col,
            rejected,
        )
    if not ts_list:
        raise DataError(f"{path}: no usable data rows")

    ts_arr = np.asarray(ts_list, dtype=np.int64)
    series = tuple(
        SensorSeries(
            v,
            ts_arr,
            np.asarray(values[v]),
            np.asarray(labels[v], dtype=np.uint8) if v in labels else None,
        )
        for v in wanted
    )
    return MultiSeries(site=site or str(path), series=series)


def emit_csv(ms: MultiSeries, path) -> None:
    """Write a MultiSeries in the exact shape ``ingest_csv`` reads back."""
    labelled = [s for s in ms.series if s.labels is not None]
    header = ["timestamp"] + [s.name for s in ms.series]
    header += [s.name + LABEL_SUFFIX for s in labelled]
    stamps = np.datetime_as_string(ms.timestamps.astype("datetime64[s]"), unit="s")
    cols = [stamps.tolist()]
    cols += [["" if math.isnan(v) else repr(v) for v in s.values.tolist()] for s in ms.series]
    cols += [[str(x) for x in s.labels.tolist()] for s in labelled]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cols))


# ---------------------------------------------------------------------------
# Synthetic series with injected faults (desk-scale stand-in for field data)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: a spike/drop at an index, or a level shift onward."""

    variable: str
    index: int
    kind: str  # "spike" | "drop" | "level_shift"
    magnitude: float

    def __post_init__(self):
        if self.kind not in ("spike", "drop", "level_shift"):
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if self.magnitude < 0:
            raise ConfigError("fault magnitude must be non-negative")


@dataclass(frozen=True)
class BaseSignal:
    """Slow sinusoid plus Gaussian noise around a positive working level."""

    level: float
    amplitude: float = 0.0
    period: float = 500.0
    noise_sd: float = 0.0


@dataclass(frozen=True)
class SynthConfig:
    n_points: int
    base: Mapping[str, BaseSignal]
    gap_minutes: tuple[int, int] = (10, 240)
    faults: tuple[FaultSpec, ...] = ()
    long_gap_at: int | None = None
    long_gap_minutes: int = 240
    start_epoch: int = 1489276800  # 2017-03-12T00:00:00Z
    site: str = "synthetic"

    def __post_init__(self):
        if self.n_points < 2:
            raise ConfigError("n_points must be at least 2")
        lo, hi = self.gap_minutes
        if not (0 < lo <= hi):
            raise ConfigError(f"bad gap range {self.gap_minutes}")
        if not self.base:
            raise ConfigError("at least one variable base signal required")
        object.__setattr__(self, "faults", tuple(self.faults))


def synth_series(config: SynthConfig, seed: int) -> MultiSeries:
    """Generate a labeled irregular MultiSeries, deterministic for a fixed seed.

    Injected faults are recorded as outlier labels at their index; everything
    else is labeled typical. ``long_gap_at`` forces one gap of
    ``long_gap_minutes`` for missingness tests.
    """
    rng = np.random.default_rng(seed)
    n = config.n_points
    lo, hi = config.gap_minutes
    gaps = rng.integers(lo, hi + 1, size=n - 1)
    if config.long_gap_at is not None:
        g = config.long_gap_at
        if not (1 <= g < n):
            raise DataError(f"long_gap_at {g} out of range for {n} points")
        gaps = gaps.copy()
        gaps[g - 1] = config.long_gap_minutes
    ts = config.start_epoch + 60 * np.concatenate(([0], np.cumsum(gaps)))
    ts = ts.astype(np.int64)

    idx = np.arange(n)
    values: dict[str, np.ndarray] = {}
    labels: dict[str, np.ndarray] = {}
    for j, (name, sig) in enumerate(config.base.items()):
        phase = 1.7 * j
        v = sig.level + sig.amplitude * np.sin(2 * np.pi * idx / sig.period + phase)
        if sig.noise_sd > 0:
            v = v + rng.normal(0.0, sig.noise_sd, size=n)
        values[name] = v
        labels[name] = np.zeros(n, dtype=np.uint8)

    for fault in config.faults:
        if fault.variable not in values:
            raise DataError(f"fault targets unknown variable {fault.variable!r}")
        if not (0 <= fault.index < n):
            raise DataError(
                f"fault index {fault.index} out of range for {n} points"
            )
        v = values[fault.variable]
        if fault.kind == "spike":
            v[fault.index] += fault.magnitude
        elif fault.kind == "drop":
            v[fault.index] -= fault.magnitude
        else:  # level_shift
            v[fault.index :] += fault.magnitude
        labels[fault.variable][fault.index] = 1

    series = tuple(
        SensorSeries(name, ts, values[name], labels[name]) for name in config.base
    )
    return MultiSeries(site=config.site, series=series)

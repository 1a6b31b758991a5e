"""Data model for irregular multivariate sensor series, CSV round-trip, synthesis.

Timestamps are integer seconds since the Unix epoch; gap arithmetic is done in
minutes because every gap rule in this domain is stated in minutes. Missing
readings are NaN, never sentinel numbers, so they can be masked rather than
silently folded into distance computations.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

LABEL_SUFFIX = "_label"
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)


def _own(a, dtype) -> np.ndarray:
    """``a`` if it is a read-only ``dtype`` array owning its data, else a read-only copy."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and a.base is None and not a.flags.writeable:
        return a
    arr = np.array(a, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _format_epoch(seconds: int) -> str:
    """Epoch seconds in emit_csv's stamp layout; a year below 1000 keeps its leading zeros."""
    return str(np.datetime64(int(seconds), "s"))


def _parse_iso(text: str) -> int:
    """Parse an ISO-8601 instant (naive treated as UTC) to epoch seconds.

    Fractional seconds are floored, so 1969-12-31T23:59:59.5 is -1, not 0.
    """
    t = text.strip()
    if t.endswith("Z"):
        t = t[:-1] + "+00:00"
    dt = datetime.fromisoformat(t)
    # a naive stamp is UTC, so it is measured from the naive epoch as it is
    epoch = _NAIVE_EPOCH if dt.tzinfo is None else _EPOCH
    return (dt - epoch) // timedelta(seconds=1)


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
            if s.timestamps is not ts0 and not np.array_equal(s.timestamps, ts0):
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
    return GroundTruthVector(ms.timestamps, flags)


# ---------------------------------------------------------------------------
# CSV ingestion / emission
#
# Format: header row; column 1 = ISO-8601 timestamp; one column per variable;
# optional `<var>_label` columns holding 0/1. Emission mirrors ingestion.
# ---------------------------------------------------------------------------


# emit_csv's timestamp layout and the comma after it, as code points; "0" marks a digit slot.
_CANONICAL = np.array(list("0000-00-00T00:00:00,")).view(np.uint32)
_DIGIT_SLOT = _CANONICAL == ord("0")
_FIELDS = ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19))  # Y, M, D, h, m, s
_LABEL_CODES = {"": 0, "0": 0, "1": 1}
# The C reader's spelling of a blank cell: float() reads it as NaN, and a file
# that spells a cell so itself is left to the record reader
_BLANK = "+nan"
_BLANK_AFTER_COMMA = re.compile(r",(?=,|$)", re.MULTILINE)
# The C reader parses a file in pieces of about this many characters, each cut
# at a line end, so only a piece's lines and its rows are held as Python objects
_PLAIN_CHARS = 1 << 18
# Width of the C reader's label cells: a cell that fills it may have been cut short
_LABEL_CHARS = 8
_EMIT_ROWS = 4096  # rows emit_csv formats at a time


def _canonical_stamps(heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the lines that start with a stamp spelled like emit_csv's, and their epoch seconds.

    ``heads`` is a ``U20`` array of the lines' first 20 characters: a stamp
    is in the layout when these are its 19 characters and the comma after
    it. The characters are laid out one row per slot, so each check and
    each field's Horner sum runs along whole rows, and numpy's calendar
    gives each month's first day and length. Stamps whose fields name no
    instant (year 0, month 13, February 30th, hour 24, second 60) are left
    out with the other lines, whose stamps all take ``_parse_iso``.
    """
    codes = heads.view(np.uint32).reshape(-1, _CANONICAL.size).T
    digits = codes.astype(np.int32, order="C") - ord("0")
    slot, canonical = _DIGIT_SLOT[:, None], _CANONICAL[:, None]
    ok = np.where(slot, (digits >= 0) & (digits <= 9), codes == canonical).all(axis=0)
    digits[:, ~ok] = 0  # keeps the calendar lookups below in range for the other lines
    fields = []
    for a, b in _FIELDS:
        number = digits[a]
        for row in digits[a + 1 : b]:
            number = number * 10 + row
        fields.append(number)
    year, month, day, hour, minute, second = fields
    months = (year - 1970) * 12 + month - 1
    first, after = (
        m.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
        for m in (months, months + 1)
    )
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= after - first)
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
    return ok, (first + day - 1) * 86_400 + hour * 3_600 + minute * 60 + second


def _next_record(path, reader) -> list[str] | None:
    """The next record, or None past the last; a malformed or undecodable file is a DataError."""
    try:
        return next(reader, None)
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot decode: {exc}") from None


def _plain_pieces(data: bytes):
    """The decoded text after the header line, in pieces of about ``_PLAIN_CHARS`` characters.

    Decodes with universal newlines, which split the file into the lines the
    csv module sees when no cell is quoted, and ends each piece at a line end.
    """
    text = io.TextIOWrapper(io.BytesIO(data))
    text.readline()
    while piece := text.read(_PLAIN_CHARS):
        yield piece + text.readline()


def _may_have_blank_cells(data: bytes) -> bool:
    """False when no comma of the file is followed by a comma, a line end or the file's end.

    One numpy pass over each ``_PLAIN_CHARS`` bytes: a search of the text
    for ",," or ",\\n" stops at every comma, and takes longer than the
    blank-cell substitution it would skip. A comma before any byte below
    "-" counts, so a space or a sign after a comma costs only that
    substitution.
    """
    codes = np.frombuffer(data, np.uint8)
    for lo in range(0, len(codes), _PLAIN_CHARS):
        part = codes[lo : lo + _PLAIN_CHARS + 1]
        if ((part[:-1] == ord(",")) & (part[1:] < ord("-"))).any():
            return True
    return data.endswith(b",")


def _plain_labels(cells: np.ndarray) -> np.ndarray | None:
    """Label codes of cells the C reader read, or None where the record reader could differ."""
    ones = cells == "1"
    if not (ones | (cells == "0") | (cells == _BLANK)).all():
        if (np.char.str_len(cells) >= _LABEL_CHARS).any():
            return None  # loadtxt may have cut the cell short
        cells = np.char.strip(cells)  # as the record reader strips a padded cell
        ones = cells == "1"
        if not (ones | (cells == "0") | (cells == "") | (cells == _BLANK)).all():
            return None
    return ones.astype(np.uint8)


def _read_plain(data: bytes, header: list[str], wanted: list[str], labelled: list[str]):
    """``_read_records``' result for a file numpy's C reader can take, else None.

    Declines, and never raises or logs, wherever the record reader could
    meet an error or a rejected row: a quote or NUL, an undecodable file, a
    line longer than the csv field limit, no data rows, a stamp
    ``_parse_iso`` refuses, stamps that do not strictly increase, a row
    ``loadtxt`` refuses (a wrong cell count or a value it cannot read), a
    label other than blank, ``0`` or ``1`` once stripped, or one too long
    to tell. The file is read once, in pieces (``_plain_pieces``): each
    piece's lines are split once, their stamps checked, and only then
    handed to ``loadtxt``, keeping only their columns. So a refused stamp
    declines before ``loadtxt`` sees its line or any later one.
    ``loadtxt`` reads floats with the parser ``float()`` calls.
    """
    if b'"' in data or b"\0" in data:  # before decoding: a quoted file costs next to nothing
        return None
    blanks = _may_have_blank_cells(data)
    index = {name: i for i, name in enumerate(header)}
    kinds = ["U1"] * len(header)  # the stamp, parsed apart, and every cell no one reads
    for v in wanted:
        kinds[index[v]] = "f8"
    for v in labelled:
        kinds[index[v + LABEL_SUFFIX]] = f"U{_LABEL_CHARS}"
    dtype = np.dtype([(f"f{i}", kind) for i, kind in enumerate(kinds)])
    limit = csv.field_size_limit()
    stamps = [np.empty(0, np.int64)]
    values = {v: [] for v in wanted}
    labels = {v: [] for v in labelled}
    try:  # an undecodable byte, a refused stamp and a refused row all raise ValueError
        for piece in _plain_pieces(data):
            # a search for "+" alone is one memchr, many times faster than the search for _BLANK
            if "+" in piece and _BLANK in piece:
                return None
            if blanks:
                piece = _BLANK_AFTER_COMMA.sub("," + _BLANK, piece)
            lines = piece.split("\n")
            lines = list(filter(str.strip, lines))  # the record reader skips blank lines
            if not lines:
                continue
            # the limit holds for the lines as written, where each _BLANK was a blank cell
            if max(map(len, lines)) > limit and any(
                len(line.replace(_BLANK, "")) > limit for line in lines
            ):
                return None
            parsed, ts = _canonical_stamps(np.array(lines, "U20"))
            for i in np.flatnonzero(~parsed).tolist():
                ts[i] = _parse_iso(lines[i].partition(",")[0])
            if (np.diff(ts, prepend=stamps[-1][-1:]) <= 0).any():
                return None
            stamps.append(ts)
            rows = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)
            for v in wanted:  # copies: a field view would keep the piece's rows
                values[v].append(rows[f"f{index[v]}"].copy())
            for v in labelled:
                codes = _plain_labels(rows[f"f{index[v + LABEL_SUFFIX]}"])
                if codes is None:
                    return None
                labels[v].append(codes)
    except ValueError:
        return None
    ts = np.concatenate(stamps)
    if not ts.size:
        return None
    return (
        ts,
        {v: np.concatenate(parts) for v, parts in values.items()},
        {v: np.concatenate(parts) for v, parts in labels.items()},
    )


def _read_records(path, reader, header: list[str], wanted: list[str], labelled: list[str]):
    """(timestamps, values by variable, labels by variable) of the data rows left in ``reader``.

    Checks the rows one at a time, in file order and as ``ingest_csv``
    describes. The first failing row's DataError is raised only once the
    rest of the file has been read unchecked, so a record the csv module
    cannot read anywhere in the file comes first. The rejected rows are
    logged when nothing raises.
    """
    ts_col, width = header[0], len(header)
    index = {name: i for i, name in enumerate(header)}
    stamps: list[int] = []
    values = {v: [] for v in wanted}
    labels = {v: [] for v in labelled}
    value_cells = [(v, index[v], values[v]) for v in wanted]
    label_cells = [(v + LABEL_SUFFIX, index[v + LABEL_SUFFIX], labels[v]) for v in labelled]
    rejected, error = [], None
    for num, row in enumerate(iter(lambda: _next_record(path, reader), None), start=2):
        if error or not any(map(str.strip, row)):
            continue
        if len(row) != width:
            error = f"{path}: row {num} has {len(row)} cells, header has {width}"
            continue
        try:
            ts = _parse_iso(row[0])
        except ValueError:
            rejected.append(num)
            continue
        if stamps and ts <= stamps[-1]:
            stamp, before = _format_epoch(ts), _format_epoch(stamps[-1])
            what = f"duplicate timestamp {stamp}" if ts == stamps[-1] else (
                f"timestamps not increasing ({stamp} after {before})"
            )
            error = f"{path}: row {num}, column {ts_col!r}: {what}"
            continue
        try:
            for col, at, out in value_cells:
                cell = row[at].strip()
                out.append(float(cell) if cell else math.nan)
            for col, at, out in label_cells:
                cell = row[at].strip()
                out.append(_LABEL_CODES[cell])
        except ValueError:
            error = f"{path}: row {num}, column {col!r}: unparseable value {cell!r}"
        except KeyError:
            error = f"{path}: row {num}, column {col!r}: label must be 0 or 1, got {cell!r}"
        else:
            stamps.append(ts)
    if error:
        raise DataError(error)

    if rejected:
        log.warning(
            "%s: rejected %d rows with unparseable %s timestamps: %s",
            path,
            len(rejected),
            ts_col,
            rejected,
        )
    if not stamps:
        raise DataError(f"{path}: no usable data rows")
    return (
        np.array(stamps, np.int64),
        {v: np.array(cells, np.float64) for v, cells in values.items()},
        {v: np.array(codes, np.uint8) for v, codes in labels.items()},
    )


def ingest_csv(
    path,
    variables: Sequence[str] | None = None,
    site: str = "",
) -> MultiSeries:
    """Read a MultiSeries from CSV.

    When ``variables`` is None every non-timestamp, non-label column is a
    variable. Rows whose timestamp does not parse are rejected and their row
    numbers logged; blank numeric cells become NaN; blank rows are skipped.

    The file is read once, as bytes. A file with no quote, no NUL and
    nothing the record reader would refuse or reject is read by numpy's C
    text reader, in one pass over its pieces (``_read_plain``); any other file
    falls back to the record reader (``_read_records``), which reads the same
    bytes, gives the same result and alone writes every error and warning.

    The record reader is one loop over the rows, so the error raised is the
    earliest failing row's, and within it the cell count, then a timestamp
    that repeats or goes back from the row before, then the values in
    ``variables`` order, then the labels. A record the csv module cannot
    read (an undecodable byte, an overlong field) anywhere in the file is
    reported before any row error. Rows with a rejected timestamp are not
    read further, and the rejected rows are logged only when no error is
    raised.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    text = io.TextIOWrapper(io.BytesIO(data), newline="")
    reader = csv.reader(text)
    first = _next_record(path, reader)
    if first is None:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in first]
    if len(header) < 2:
        raise DataError(f"{path}: header must contain a timestamp column plus variables")
    data_cols = header[1:]
    for i, name in enumerate(data_cols, start=2):
        if not name:
            raise DataError(f"{path}: column {i} of the header has no name")
    repeated = [c for c in data_cols if data_cols.count(c) > 1]
    if repeated:
        raise DataError(f"{path}: column {repeated[0]!r} appears more than once in the header")
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
    labelled = [v for v in wanted if v + LABEL_SUFFIX in label_cols]
    read = _read_plain(data, header, wanted, labelled)
    if read is None:
        read = _read_records(path, reader, header, wanted, labelled)
    ts, values, labels = read
    for a in (ts, *values.values(), *labels.values()):
        a.flags.writeable = False  # the reader's own arrays: every series keeps them as they are
    series = tuple(SensorSeries(v, ts, values[v], labels.get(v)) for v in wanted)
    return MultiSeries(site=site or str(path), series=series)


def float_cells(values) -> list[str]:
    """CSV cells for floats: the round-tripping ``repr``, blank for NaN."""
    return ["" if math.isnan(v) else repr(v) for v in np.asarray(values, np.float64).tolist()]


def write_csv(path, header, rows) -> None:
    """Write a header row, then ``rows``, in the default ``csv`` dialect."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_csv(ms: MultiSeries, path) -> None:
    """Write a MultiSeries in the exact shape ``ingest_csv`` reads back.

    The cells are formatted ``_EMIT_ROWS`` rows at a time, so no list of the
    whole file's cells is ever held.
    """
    labelled = [s for s in ms.series if s.labels is not None]
    header = ["timestamp"] + [s.name for s in ms.series]
    header += [s.name + LABEL_SUFFIX for s in labelled]

    def rows():
        for start in range(0, len(ms), _EMIT_ROWS):
            block = slice(start, start + _EMIT_ROWS)
            stamps = ms.timestamps[block].astype("datetime64[s]")
            cols = [np.datetime_as_string(stamps, unit="s").tolist()]
            cols += [float_cells(s.values[block]) for s in ms.series]
            cols += [list(map(str, s.labels[block].tolist())) for s in labelled]
            yield from zip(*cols)

    write_csv(path, header, rows())


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
        if not 0 <= self.magnitude < math.inf:  # refuses NaN too
            raise ConfigError("fault magnitude must be non-negative and finite")


@dataclass(frozen=True)
class BaseSignal:
    """Slow sinusoid plus Gaussian noise around a positive working level."""

    level: float
    amplitude: float = 0.0
    period: float = 500.0
    noise_sd: float = 0.0

    def __post_init__(self):
        for name in ("level", "amplitude", "noise_sd"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be non-negative")
        if not self.period > 0:  # refuses NaN too
            raise ConfigError("period must be positive")


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
        if not self.long_gap_minutes > 0:
            raise ConfigError(f"long_gap_minutes must be positive, got {self.long_gap_minutes}")
        n = self.n_points
        if self.long_gap_at is not None and not (1 <= self.long_gap_at < n):
            raise ConfigError(f"long_gap_at {self.long_gap_at} out of range for {n} points")
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if fault.variable not in self.base:
                raise ConfigError(f"fault targets unknown variable {fault.variable!r}")
            if not (0 <= fault.index < n):
                raise ConfigError(f"fault index {fault.index} out of range for {n} points")


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
        gaps = gaps.copy()
        gaps[config.long_gap_at - 1] = config.long_gap_minutes
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

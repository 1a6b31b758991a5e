import csv
import logging
import os
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from driftguard import core
from driftguard import (
    BaseSignal,
    ConfigError,
    DataError,
    FaultSpec,
    MultiSeries,
    RuleConfig,
    SensorSeries,
    SynthConfig,
    TransformKind,
    apply_rules,
    build_matrix,
    emit_csv,
    ground_truth,
    ingest_csv,
    synth_series,
)

from conftest import make_multiseries


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngest:
    def test_basic_parse(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,turbidity\n"
            "2017-03-12T00:00:00,1.5\n"
            "2017-03-12T01:00:00,2.5\n"
            "2017-03-12T02:30:00,3.5\n",
        )
        ms = ingest_csv(path)
        assert len(ms) == 3
        assert ms.variables == ("turbidity",)
        assert np.allclose(ms.get("turbidity").values, [1.5, 2.5, 3.5])
        assert ms.timestamps[1] - ms.timestamps[0] == 3600

    def test_duplicate_timestamp_names_instant(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,turbidity\n"
            "2017-03-12T00:00:00,1\n"
            "2017-03-12T00:00:00,2\n",
        )
        with pytest.raises(DataError, match="duplicate timestamp 2017-03-12T00:00:00"):
            ingest_csv(path)

    def test_non_monotone_is_fatal(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,turbidity\n"
            "2017-03-12T02:00:00,1\n"
            "2017-03-12T01:00:00,2\n",
        )
        with pytest.raises(DataError, match="not increasing"):
            ingest_csv(path)

    def test_blank_cell_becomes_missing(self, tmp_path):
        # blank conductivity in the 7th data row -> NaN at index 6
        rows = [f"2017-03-12T{h:02d}:00:00,1.0,{c}" for h, c in enumerate(["5"] * 6 + [""] + ["5"] * 3)]
        path = write(tmp_path, "timestamp,turbidity,conductivity\n" + "\n".join(rows) + "\n")
        ms = ingest_csv(path)
        cond = ms.get("conductivity").values
        assert np.isnan(cond[6])
        assert np.isfinite(np.delete(cond, 6)).all()

    def test_missing_declared_variable_lists_diff(self, tmp_path):
        path = write(tmp_path, "timestamp,turbidity\n2017-03-12T00:00:00,1\n")
        with pytest.raises(DataError, match="conductivity"):
            ingest_csv(path, variables=["turbidity", "conductivity"])

    def test_unparseable_timestamp_rows_rejected_with_row_numbers(self, tmp_path, caplog):
        path = write(
            tmp_path,
            "timestamp,turbidity\n"
            "2017-03-12T00:00:00,1\n"
            "not-a-time,2\n"
            "2017-03-12T02:00:00,3\n",
        )
        with caplog.at_level("WARNING"):
            ms = ingest_csv(path)
        assert len(ms) == 2
        assert any("3" in rec.message and "rejected" in rec.message for rec in caplog.records)

    def test_labels_roundtrip(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,turbidity,turbidity_label\n"
            "2017-03-12T00:00:00,1,0\n"
            "2017-03-12T01:00:00,9,1\n",
        )
        ms = ingest_csv(path)
        assert list(ms.get("turbidity").labels) == [0, 1]

    def test_bad_label_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,turbidity,turbidity_label\n2017-03-12T00:00:00,1,2\n",
        )
        with pytest.raises(DataError, match="label"):
            ingest_csv(path)


    def test_duplicate_header_name_refused(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,turbidity,turbidity\n2017-03-12T00:00:00,1,2\n",
        )
        with pytest.raises(DataError, match="column 'turbidity' appears more than once"):
            ingest_csv(path)

    def test_blank_header_name_refused(self, tmp_path):
        path = write(tmp_path, "timestamp, ,t\n2017-03-12T00:00:00,1,2\n")
        with pytest.raises(DataError, match="column 2 of the header has no name"):
            ingest_csv(path)

    def test_unreadable_file_is_a_data_error(self, tmp_path):
        path = write(tmp_path, "timestamp,turbidity\n2017-03-12T00:00:00," + "1" * 200_000 + "\n")
        with pytest.raises(DataError, match="line 2: field larger than field limit"):
            ingest_csv(path)
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"timestamp,turbidity\n2017-03-12T00:00:00,1\n2017-03-12T01:00:00,\xe9\n")
        with pytest.raises(DataError, match="cannot decode: 'utf-8' codec can't decode byte 0xe9"):
            ingest_csv(path)

    def test_fractional_seconds_before_1970_floor(self, tmp_path):
        # truncating toward zero maps the first stamp onto the epoch itself
        path = write(
            tmp_path,
            "timestamp,turbidity\n"
            "1969-12-31T23:59:58.999999,1\n"
            "1969-12-31T23:59:59.500000,2\n"
            "1970-01-01T00:00:00,3\n"
            "1970-01-01T00:00:00.500000,4\n",
        )
        with pytest.raises(DataError, match="row 5, column 'timestamp': duplicate timestamp 1970-01-01T00:00:00$"):
            ingest_csv(path)
        path = write(
            tmp_path,
            "timestamp,turbidity\n"
            "1969-12-31T23:59:58.000001,1\n"
            "1969-12-31T23:59:59.500000,2\n"
            "1970-01-01T00:00:00.000000,3\n",
        )
        assert ingest_csv(path).timestamps.tolist() == [-2, -1, 0]

    @pytest.mark.parametrize("stamp", [
        "2017-03-12T01:00:00",
        " 2017-03-12 01:00:00 ",
        "2017-03-12T01:00:00Z",
        "2017-03-12T01:00:00+10:00",
        "2017-03-12T01:00:00-03:30",
        "2017-03-12T01:00:00.999999",
        "2017-03-12T01:00:00.500+10:00",
        "1969-12-31T23:59:59.500000",
        "1969-12-31T23:59:59.500000-00:00",
        "1970-01-01T00:00:00",
        "0001-01-01T00:00:00",
        "0001-01-01T09:59:59+10:00",
        "9999-12-31T23:59:59.999999",
        "9999-12-31T23:59:59-10:00",
        "2016-02-29",
    ])
    def test_parse_iso_matches_the_aware_formula(self, stamp):
        # naive stamps are measured from a naive epoch, aware ones from the UTC epoch;
        # the reference makes every stamp aware first
        assert core._parse_iso(stamp) == ref._ref_parse_iso(stamp)


def ingest_error(tmp_path, text, **kwargs):
    with pytest.raises(DataError) as info:
        ingest_csv(write(tmp_path, text), **kwargs)
    return str(info.value).split(": ", 1)[1]


class TestIngestErrors:
    """The error a row-by-row read meets first, whichever column fails first."""

    HEAD = "timestamp,a,b,a_label,b_label\n"
    OK = "2017-03-12T00:00:00,1,2,0,0\n"

    def test_bad_value_before_bad_label_in_a_later_row(self, tmp_path):
        text = self.HEAD + self.OK + "2017-03-12T01:00:00,1,x,0,0\n" + "2017-03-12T02:00:00,1,2,0,7\n"
        assert ingest_error(tmp_path, text) == "row 3, column 'b': unparseable value 'x'"

    def test_bad_label_before_bad_value_in_a_later_row(self, tmp_path):
        text = self.HEAD + "2017-03-12T01:00:00,1,2,0, 7 \n" + "2017-03-12T02:00:00,y,2,0,0\n"
        assert ingest_error(tmp_path, text) == "row 2, column 'b_label': label must be 0 or 1, got '7'"

    def test_within_a_row_values_in_variables_order_then_labels(self, tmp_path):
        text = self.HEAD + "2017-03-12T01:00:00, x ,y,z,w\n"
        assert ingest_error(tmp_path, text) == "row 2, column 'a': unparseable value 'x'"
        assert ingest_error(tmp_path, text, variables=["b", "a"]) == (
            "row 2, column 'b': unparseable value 'y'"
        )
        text = self.HEAD + "2017-03-12T01:00:00,1,2,0,w\n"
        assert ingest_error(tmp_path, text, variables=["b"]) == (
            "row 2, column 'b_label': label must be 0 or 1, got 'w'"
        )

    def test_cell_count_first_within_a_row(self, tmp_path):
        text = self.HEAD + self.OK + "2017-03-12T01:00:00,x,2,0\n"
        assert ingest_error(tmp_path, text) == "row 3 has 4 cells, header has 5"

    def test_earlier_bad_cell_beats_later_cell_count(self, tmp_path):
        text = self.HEAD + "2017-03-12T01:00:00,1,2,0,3\n" + "2017-03-12T02:00:00,1\n"
        assert ingest_error(tmp_path, text) == (
            "row 2, column 'b_label': label must be 0 or 1, got '3'"
        )

    def test_rejected_stamp_rows_are_not_value_checked(self, tmp_path, caplog):
        text = (
            self.HEAD
            + "0000-01-01T00:00:00,x,2,0,0\n"
            + "\n"
            + " , , ,,\n"
            + "   \n"
            + self.OK
            + "12/03/2017,1,2,0,9\n"
            + "2017-02-30T00:00:00,1,2,0,0\n"
        )
        with caplog.at_level("WARNING", logger="driftguard.core"):
            ingest_csv(write(tmp_path, text))
            assert [r.args[-1] for r in caplog.records] == [[2, 7, 8]]
            caplog.clear()
            # the same instant as row 6: named by its file row, and no warning
            with pytest.raises(DataError, match=(
                "row 9, column 'timestamp': duplicate timestamp 2017-03-12T00:00:00$"
            )):
                ingest_csv(write(tmp_path, text + "2017-03-12T01:00:00+01:00,1,2,0,0\n"))
        assert not caplog.records

    def test_stamp_order_after_cell_count_before_values(self, tmp_path):
        text = self.HEAD + self.OK + "\n" + "junk,1,2,0,0\n" + "2017-03-11T00:00:00,x,2,0,0\n"
        assert ingest_error(tmp_path, text) == (
            "row 5, column 'timestamp': "
            "timestamps not increasing (2017-03-11T00:00:00 after 2017-03-12T00:00:00)"
        )
        assert ingest_error(tmp_path, self.HEAD + self.OK + "2017-03-12T00:00:00,1,2,0\n") == (
            "row 3 has 4 cells, header has 5"
        )
        text = self.HEAD + self.OK + self.OK + "2017-03-12T01:00:00,x,2,0,0\n"
        assert ingest_error(tmp_path, text) == (
            "row 3, column 'timestamp': duplicate timestamp 2017-03-12T00:00:00"
        )

    def test_no_warning_when_a_row_error_is_raised(self, tmp_path, caplog):
        text = self.HEAD + "later,1,2,0,0\n" + "2017-03-12T01:00:00,1,2,0,5\n"
        with caplog.at_level("WARNING", logger="driftguard.core"):
            with pytest.raises(DataError, match="row 3, column 'b_label'"):
                ingest_csv(write(tmp_path, text))
        assert not caplog.records

    def test_errors_found_across_chunks(self, tmp_path):
        # a rejected stamp, then a bad value and a wrong cell count hundreds of rows apart
        stamps = np.datetime_as_string(
            np.arange(1_489_276_800, 1_489_276_800 + 60 * 700, 60).astype("datetime64[s]"), unit="s"
        )
        rows = [f"{t},1,2,0,0" for t in stamps]
        rows[300] = rows[300].replace(",2,", ",bad,")
        rows[290] = "nope" + rows[290][4:]
        rows[600] = rows[600] + ",9"
        text = self.HEAD + "\n".join(rows) + "\n"
        assert ingest_error(tmp_path, text) == "row 302, column 'b': unparseable value 'bad'"
        rows[300] = rows[300].replace(",bad,", ",2,")
        assert ingest_error(tmp_path, self.HEAD + "\n".join(rows)) == "row 602 has 6 cells, header has 5"


# --- ingest_csv against the row-by-row reference on generated CSV text --------

EPOCH_2017 = 1_489_276_800


STAMP_FORMS = ["canonical"] * 6 + ["z", "offset", "fraction", "lower-t", "space", "padded"]


def _stamp(epoch: int, form: str) -> str:
    text = np.datetime_as_string(np.datetime64(epoch, "s"), unit="s")
    return {
        "canonical": text,
        "z": text + "Z",
        "offset": text + "+01:00",
        "fraction": text + ".500000",
        "lower-t": text.replace("T", "t"),
        "space": text.replace("T", " "),
        "padded": f" {text} ",
    }[form]


# Odd stamps, most of them refused: impossible fields in the canonical layout
# (the calendar's edges included), numpy-only spellings and non-ASCII digits.
_JUNK_STAMPS = [
    "0000-01-01T00:00:00", "0001-01-01T00:00:00", "9999-12-31T23:59:59", "2017-02-30T00:00:00",
    "1900-02-29T00:00:00", "2000-02-29T00:00:00", "2017-04-31T00:00:00", "2017-04-30T23:59:59",
    "2017-00-12T00:00:00", "2017-13-01T00:00:00", "2017-03-00T00:00:00", "2017-03-12T24:00:00",
    "2017-03-12T12:60:00", "2017-03-12T23:59:60", "2017-03-12T00:00:0x", "201\u0667-03-12T00:00:00",
    "NaT", "today", "not-a-time", "", "2017-03-12", "17-03-12T00:00:00", "1969-12-31T23:59:59.500000",
]
_GOOD_VALUES = ["", " ", " 1.5 ", "1.5", "-0.0", "nan", "-nan", "inf", "-Infinity", "1_000", "1e5"]
_BAD_VALUES = ["x", "1.2.3", "0x10", "_1", "1e", "NaNa"]
_GOOD_LABELS = ["", "0", "1", " 1 ", " 0"]
_BAD_LABELS = ["2", "01", "x", "1.0"]


@st.composite
def csv_cases(draw):
    """(CSV text, variables): blank, short and long rows, stamps of every form, bad cells."""
    names = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    labelled = [v for v in names if draw(st.booleans())]
    header = ["timestamp", *names, *(v + "_label" for v in labelled)]
    width = len(header)
    dirty = draw(st.booleans())  # clean files mostly parse, so their arrays get compared
    kinds = ["data"] * 8 + ["empty", "spaces", "blank-row"] + (["short", "long"] if dirty else [])
    values = st.one_of(
        st.floats(width=64).map(repr), st.sampled_from(_GOOD_VALUES + (_BAD_VALUES if dirty else []))
    )
    labels = st.sampled_from(_GOOD_LABELS * 2 + (_BAD_LABELS if dirty else []))
    lines = []
    epoch = draw(st.sampled_from([EPOCH_2017, -3_600 * 5, 0]))
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind == "empty":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append("  ")
            continue
        if kind == "blank-row":
            lines.append(",".join(draw(st.sampled_from(["", " ", "\t"])) for _ in range(width)))
            continue
        epoch += draw(st.sampled_from([0] + [1, 60, 7_200, 86_400] * 5))
        if draw(st.integers(0, 9)) == 0:
            stamp = draw(st.sampled_from(_JUNK_STAMPS))
        else:
            stamp = _stamp(epoch, draw(st.sampled_from(STAMP_FORMS)))
        cells = [stamp, *(draw(values) for _ in names), *(draw(labels) for _ in labelled)]
        if kind == "short":
            cells = cells[: draw(st.integers(1, width - 1))]
        elif kind == "long":
            cells.append("1")
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join([",".join(header), *lines]) + draw(st.sampled_from(["", newline]))
    variables = draw(st.one_of(st.none(), st.permutations(names).flatmap(
        lambda p: st.integers(1, len(p)).map(lambda k: list(p[:k])))))
    return text, variables


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _outcome(read, path, variables, logger):
    records = _Records()
    logging.getLogger(logger).addHandler(records)
    try:
        ms = read(path, variables)
    except DataError as exc:
        result = ("error", str(exc))
    else:
        result = (
            ms.site,
            ms.timestamps.tobytes(),
            [(s.name, s.values.tobytes(), None if s.labels is None else s.labels.tobytes())
             for s in ms.series],
        )
    finally:
        logging.getLogger(logger).removeHandler(records)
    return result, records.messages


class TestMatchesRowReference:
    @given(csv_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_as_row_loop(self, case):
        text, variables = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            path.write_text(text, newline="")
            got = _outcome(ingest_csv, path, variables, "driftguard.core")
            want = _outcome(ref.ref_ingest_csv, path, variables, "reference")
        assert got == want


# --- numpy's C reader against the row-by-row reference ------------------------

_EMITTED_VALUES = ["", "", "nan", "-nan", "-0.0", "inf", "-inf", "1e999", "-1e999", "5e-324"]


@st.composite
def emitted_cases(draw):
    """(CSV text, variables) in emit_csv's layout: blank cells, odd floats, any line ending."""
    names = draw(st.permutations(["turbidity", "conductivity", "level"]))
    names = names[: draw(st.integers(1, 3))]
    labelled = [v for v in names if draw(st.booleans())]
    header = ["timestamp", *names, *(v + "_label" for v in labelled)]
    values = st.one_of(st.floats(width=64).map(repr), st.sampled_from(_EMITTED_VALUES))
    epoch = draw(st.integers(-2_000_000_000, 4_000_000_000))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        epoch += draw(st.integers(1, 10**6))
        stamp = np.datetime_as_string(np.datetime64(epoch, "s"), unit="s")
        cells = [str(stamp), *(draw(values) for _ in names)]
        cells += [draw(st.sampled_from(["", "0", "1"])) for _ in labelled]
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    variables = draw(st.one_of(st.none(), st.permutations(names).flatmap(
        lambda p: st.integers(1, len(p)).map(lambda k: list(p[:k])))))
    return text, variables


def _spied_outcome(path, variables):
    """ingest_csv's outcome, and whether the record reader ran."""
    with mock.patch.object(core, "_read_records", wraps=core._read_records) as spy:
        got = _outcome(ingest_csv, path, variables, "driftguard.core")
    return got, spy.called


class TestPlainReader:
    """numpy's C reader answers as the record reader does, or leaves the file to it."""

    @given(emitted_cases())
    @settings(max_examples=300, deadline=None)
    def test_emitted_files_skip_the_record_reader(self, case):
        text, variables = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            path.write_text(text, newline="")
            got, record_reader_ran = _spied_outcome(path, variables)
            want = _outcome(ref.ref_ingest_csv, path, variables, "reference")
        assert got == want
        assert not record_reader_ran

    HEAD = "timestamp,a,b,a_label\n"
    ROW1 = "2017-03-12T00:00:00,1,2,0\n"
    ROW2 = "2017-03-12T01:00:00,3,4,1\n"

    DECLINED = {
        "quoted cell": HEAD + ROW1 + '2017-03-12T01:00:00,"3",4,1\n',
        "NUL": HEAD + ROW1 + "2017-03-12T01:00:00,3\0,4,1\n",
        # numpy would drop the NUL and read the stamp; the record reader rejects the row
        "NUL after a stamp": HEAD + ROW1 + "2017-03-12T00:30:00\0,3,4,1\n" + ROW2,
        # one record to the csv module, two rows of four cells to numpy (b is not read)
        "quoted cell spanning two lines": HEAD + '2017-03-12T01:00:00,3,"x,0\n2017-03-12T02:00:00,4,y",1\n',
        "short row": HEAD + ROW1 + "2017-03-12T01:00:00,3,4\n",
        "long row": HEAD + ROW1 + ROW2 + "2017-03-12T02:00:00,3,4,1,5\n",
        "all-blank row": HEAD + ROW1 + ",,,\n" + ROW2,
        "underscore digits": HEAD + ROW1 + "2017-03-12T01:00:00,1_000,4,1\n",
        "non-ASCII digit": HEAD + ROW1 + "2017-03-12T01:00:00,١,4,1\n",
        "whitespace-only value": HEAD + ROW1 + "2017-03-12T01:00:00, ,4,1\n",
        "bad value": HEAD + ROW1 + "2017-03-12T01:00:00,x,4,1\n",
        "blank stamp": HEAD + ROW1 + ",3,4,1\n",
        # the C reader reads a label into 8 characters and would keep 8 spaces of this one
        "label longer than its field": HEAD + ROW1 + "2017-03-12T01:00:00,3,4," + " " * 8 + "1\n",
        "long label": HEAD + ROW1 + "2017-03-12T01:00:00,3,4,000000001\n",
        "bad label": HEAD + ROW1 + "2017-03-12T01:00:00,3,4,10\n",
        "blank cell spelled as the C reader fills it": HEAD + ROW1 + "2017-03-12T01:00:00,+nan,4,1\n",
        "rejected stamp between good rows": HEAD + "\n" + ROW1 + "\n" + "later,3,4,1\n" + ROW2,
        "impossible stamp": HEAD + ROW1 + "2017-02-30T00:00:00,3,4,1\n" + ROW2,
        # the code points either side of the digits in a digit slot
        "colon for a digit": HEAD + ROW1 + "2017-03-12T00:30:0:,3,4,1\n" + ROW2,
        "slash for a digit": HEAD + ROW1 + "2017-03-12T00:30:/0,3,4,1\n" + ROW2,
        "duplicate stamp": HEAD + ROW1 + ROW1,
        "stamps going back": HEAD + ROW2 + ROW1,
        "header only": HEAD,
        "empty lines only": HEAD + "\n\r\n\r",
    }

    @pytest.mark.parametrize("case", sorted(DECLINED))
    def test_declined_files_take_the_record_reader(self, tmp_path, case):
        path = write(tmp_path, self.DECLINED[case])
        variables = ["a"] if case == "quoted cell spanning two lines" else None
        got, record_reader_ran = _spied_outcome(path, variables)
        assert got == _outcome(ref.ref_ingest_csv, path, variables, "reference")
        assert record_reader_ran
        # the C reader declines; the record reader reads these files whole
        if case in ("label longer than its field", "all-blank row", "NUL after a stamp",
                    "quoted cell spanning two lines"):
            assert got[0][0] == str(path)

    def test_rejected_stamp_warning_names_the_file_row(self, tmp_path):
        got, record_reader_ran = _spied_outcome(
            write(tmp_path, self.DECLINED["rejected stamp between good rows"]), None
        )
        assert record_reader_ran
        assert got[1][0].endswith("rejected 1 rows with unparseable timestamp timestamps: [5]")

    def test_rejected_stamp_is_declined_before_loadtxt(self, tmp_path):
        path = write(tmp_path, self.DECLINED["rejected stamp between good rows"])
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
            ingest_csv(path)
        assert not spy.called

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("quoted", [False, True])
    def test_a_pipe_is_read_once(self, tmp_path, quoted):
        # 56 KB, as ``--input <(zcat x.csv.gz)`` passes it: a second open would start past the header
        stamps = np.arange(EPOCH_2017, EPOCH_2017 + 60 * 2000, 60).astype("datetime64[s]")
        q = '"' if quoted else ""
        text = self.HEAD + "".join(f"{q}{t}{q},1.5,,1\n" for t in np.datetime_as_string(stamps, unit="s"))
        read_end, write_end = os.pipe()

        def feed():
            with open(write_end, "w") as fh:
                fh.write(text)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            got, record_reader_ran = _spied_outcome(f"/dev/fd/{read_end}", None)
        finally:
            writer.join(10)
            os.close(read_end)
        want = _outcome(ref.ref_ingest_csv, write(tmp_path, text), None, "reference")
        assert got[0][1:] == want[0][1:]  # the site names the path
        assert record_reader_ran == quoted

    ACCEPTED = {
        "blank cells": "timestamp,a,b\n2017-03-12T00:00:00,,\n2017-03-12T01:00:00,1,\n",
        "blank last cell without a final newline": "timestamp,a,b\n" + ROW1[:-3] + "\n2017-03-12T01:00:00,3,",
        "carriage returns": "timestamp,a,b\r2017-03-12T00:00:00,1,2\r\r2017-03-12T01:00:00,,4\r",
        "stamp with an offset": HEAD + ROW1 + "2017-03-12T02:00:00+01:00,3,4,1\n",
        "blank label": HEAD + ROW1 + "2017-03-12T01:00:00,3,4,\n",
        # the record reader strips a label cell, and so does the C reader
        "padded label": HEAD + ROW1 + "2017-03-12T01:00:00,3,4, 1\n",
        "padded labels": HEAD + "2017-03-12T00:00:00,1,2,0 \n" + "2017-03-12T01:00:00,3,4,\t1\x0c\n",
        "whitespace-only label": HEAD + ROW1 + "2017-03-12T01:00:00,3,4,   \n",
        "padded stamp": HEAD + ROW1 + " " * 14 + ROW2,
        "whitespace-only lines": HEAD + ROW1 + "  \n\t\x0c\n" + ROW2 + " ",
    }

    @pytest.mark.parametrize("case", sorted(ACCEPTED))
    def test_accepted_files_skip_the_record_reader(self, tmp_path, case):
        path = tmp_path / "data.csv"
        path.write_text(self.ACCEPTED[case], newline="")
        got, record_reader_ran = _spied_outcome(path, None)
        assert got == _outcome(ref.ref_ingest_csv, path, None, "reference")
        assert not record_reader_ran

    # one kind of blank cell a file: a comma before a comma, before a line end, or last
    ONE_BLANK = {
        "mid-line": HEAD + ROW1 + "2017-03-12T01:00:00,,4,1\n",
        "at a line end": HEAD + ROW1 + "2017-03-12T01:00:00,3,4,\n" + "2017-03-12T02:00:00,5,6,1\n",
        "as the last byte, no final newline": HEAD + ROW1 + "2017-03-12T01:00:00,3,4,",
        "none": HEAD + ROW1 + "2017-03-12T01:00:00,3,4,1",
    }

    @pytest.mark.parametrize("case", sorted(ONE_BLANK))
    def test_blank_cells_read_as_the_reference_and_only_they_take_the_substitution(
        self, tmp_path, case
    ):
        path = write(tmp_path, self.ONE_BLANK[case])
        blanks = mock.Mock(wraps=core._BLANK_AFTER_COMMA)
        with mock.patch.object(core, "_BLANK_AFTER_COMMA", blanks):
            got, record_reader_ran = _spied_outcome(path, None)
        assert got == _outcome(ref.ref_ingest_csv, path, None, "reference")
        assert not record_reader_ran
        assert blanks.sub.called == (case != "none")

    @pytest.mark.parametrize("chars", [1, 2, 3, 1 << 18])
    def test_blank_cell_search_spans_its_chunks(self, chars):
        with mock.patch.object(core, "_PLAIN_CHARS", chars):
            for text in [b"a,,b\n", b"ab,,\n", b"a,b,\n", b"a,b,\r\n", b"a,b,\rc", b"a,b,"]:
                assert core._may_have_blank_cells(text), text
            for text in [b"a,b\n", b"a,b\r\nc,d", b""]:
                assert not core._may_have_blank_cells(text), text

    def test_undecodable_and_oversized_files_keep_their_messages(self, tmp_path):
        # past the first block the header read decodes, so the header checks pass
        stamps = np.arange(EPOCH_2017, EPOCH_2017 + 60 * 500, 60).astype("datetime64[s]")
        rows = "".join(f"{t},1,2,0\n" for t in np.datetime_as_string(stamps, unit="s"))
        path = tmp_path / "latin1.csv"
        path.write_bytes((self.HEAD + rows).encode() + b"2017-03-13T01:00:00,\xe9,4,1\n")
        got, record_reader_ran = _spied_outcome(path, None)
        # the position within the 8 KB block the record reader decoded, as a file read gives it
        assert got[0][1].endswith("cannot decode: 'utf-8' codec can't decode byte 0xe9 "
                                  "in position 4850: invalid continuation byte")
        assert record_reader_ran
        path = write(tmp_path, self.HEAD + self.ROW1 + "2017-03-12T01:00:00,3,4," + "1" * 200_000 + "\n")
        got, record_reader_ran = _spied_outcome(path, None)
        assert got[0][1].endswith("line 3: field larger than field limit (131072)")
        assert record_reader_ran

    @pytest.mark.parametrize("defect", ["extra cell", "bad value", "repeated stamp"])
    def test_decode_error_anywhere_is_reported_first(self, tmp_path, defect):
        # the record reader reads the whole file before it raises a row error, as the
        # reference does, so a byte 2,000 rows past the failing row still comes first
        stamps = np.arange(EPOCH_2017, EPOCH_2017 + 60 * 2000, 60).astype("datetime64[s]")
        rows = [f"{t},1,2,0" for t in np.datetime_as_string(stamps, unit="s")]
        rows[5] = {  # file row 7
            "extra cell": rows[5] + ",9",
            "bad value": rows[5].replace(",1,", ",x,"),
            "repeated stamp": rows[4],
        }[defect]
        path = tmp_path / "latin1.csv"
        path.write_bytes((self.HEAD + "\n".join(rows)).encode() + b"\n2017-03-14T00:00:00,\xe9,4,1\n")
        got, record_reader_ran = _spied_outcome(path, None)
        assert record_reader_ran
        assert got == _outcome(ref.ref_ingest_csv, path, None, "reference")
        assert got[0][0] == "error"
        assert "cannot decode: 'utf-8' codec can't decode byte 0xe9" in got[0][1]

    def test_field_limit_is_checked_on_the_lines_as_written(self, tmp_path):
        # the C reader spells each blank cell as four characters: 22-character lines read as 34
        path = write(tmp_path, self.HEAD + "2017-03-12T00:00:00,,,\n2017-03-12T01:00:00,1,,\n")
        limit = csv.field_size_limit(25)
        try:
            got, record_reader_ran = _spied_outcome(path, None)
            want = _outcome(ref.ref_ingest_csv, path, None, "reference")
        finally:
            csv.field_size_limit(limit)
        assert got == want
        assert not record_reader_ran


def _both_readers(path, variables=None):
    """``_read_plain``'s answer on a file, and the record reader's result or error message."""
    plain_answers = []

    def declining(*args):
        plain_answers.append(real(*args))
        return None

    real = core._read_plain
    with mock.patch.object(core, "_read_plain", declining):
        try:
            records = ingest_csv(path, variables)
        except DataError as exc:
            records = str(exc)
    return (plain_answers[0] if plain_answers else None), records


def _as_read(ms):
    """A MultiSeries in ``_read_plain``'s (timestamps, values, labels) shape, as bytes."""
    return (
        ms.timestamps.tobytes(),
        {s.name: s.values.tobytes() for s in ms.series},
        {s.name: s.labels.tobytes() for s in ms.series if s.labels is not None},
    )


def _plain_as_read(read):
    ts, values, labels = read
    assert ts.dtype == np.int64 and all(v.dtype == np.float64 for v in values.values())
    assert all(v.dtype == np.uint8 for v in labels.values())
    return (
        ts.tobytes(),
        {v: a.tobytes() for v, a in values.items()},
        {v: a.tobytes() for v, a in labels.items()},
    )


def _loadtxt_stamps(loadtxt):
    """The stamp of every line a ``loadtxt`` spy received, in the order it received them."""
    return [line.partition(",")[0] for call in loadtxt.call_args_list for line in call.args[0]]


class TestPlainPieces:
    """The C reader parses a file in pieces cut at line ends, and answers as if it read it whole."""

    HEAD = "timestamp,a,b,a_label"

    def rows(self, n):
        stamps = np.arange(EPOCH_2017, EPOCH_2017 + 60 * n, 60).astype("datetime64[s]")
        return [
            f"{t},{i * 1.25 if i % 3 else ''},{-i / 7},{'' if i % 5 == 0 else i % 2}"
            for i, t in enumerate(np.datetime_as_string(stamps, unit="s"))
        ]

    @pytest.mark.parametrize("chars", [1, 5, 27, 28, 29, 64, 1 << 18])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_rows_straddling_pieces_read_as_the_record_reader_reads_them(
        self, tmp_path, chars, newline, final_newline
    ):
        # rows of about 50 characters, blank cells within and at the end of a line, and
        # whitespace-only and empty lines that a small piece size puts at a piece boundary
        lines = [self.HEAD, *self.rows(40)]
        lines[7:7] = ["  ", ""]
        lines[20:20] = ["\t"]
        text = newline.join(lines) + (newline if final_newline else "")
        path = tmp_path / "data.csv"
        path.write_text(text, newline="")
        with mock.patch.object(core, "_PLAIN_CHARS", chars):
            plain, records = _both_readers(path)
        assert plain is not None
        assert _plain_as_read(plain) == _as_read(records)

    @pytest.mark.parametrize("chars", [1, 20, 50, 64])
    @pytest.mark.parametrize("step, complaint", [
        (0, "duplicate timestamp 2017-03-12T00:05:00"),
        (-60, r"timestamps not increasing \(2017-03-12T00:04:00 after 2017-03-12T00:05:00\)"),
    ])
    def test_stamp_repeating_or_going_back_across_pieces_declines(self, tmp_path, chars, step, complaint):
        rows = self.rows(12)
        at = 6  # rows[6] is file row 8
        rows[at] = str(np.datetime64(EPOCH_2017 + 60 * (at - 1) + step, "s")) + rows[at][19:]
        path = write(tmp_path, "\n".join([self.HEAD, *rows]) + "\n")
        with mock.patch.object(core, "_PLAIN_CHARS", chars), \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            plain, records = _both_readers(path)
            assert plain is None
            # loadtxt reads the rows of the pieces before the repeated stamp's, in order, and
            # never the line that holds it or a later one
            seen = _loadtxt_stamps(loadtxt)
            assert seen == [row[:19] for row in rows[: len(seen)]] and len(seen) <= at
            with pytest.raises(DataError, match=rf"row 8, column 'timestamp': {complaint}"):
                ingest_csv(path)

    def test_rejected_stamp_in_the_last_piece_never_reaches_loadtxt(self, tmp_path):
        rows = self.rows(40)
        good = write(tmp_path, "\n".join([self.HEAD, *rows]) + "\n", "good.csv")
        rows[-1] = "later" + rows[-1][19:]
        bad = write(tmp_path, "\n".join([self.HEAD, *rows]) + "\n", "bad.csv")
        with mock.patch.object(core, "_PLAIN_CHARS", 64), \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            ingest_csv(good)
            assert loadtxt.call_count == 20  # 64 characters and the rest of a line: two rows a piece
            loadtxt.reset_mock()
            got, record_reader_ran = _spied_outcome(bad, None)
            seen = _loadtxt_stamps(loadtxt)
        assert seen == [row[:19] for row in rows[: len(seen)]] and len(seen) < len(rows)
        assert record_reader_ran
        assert got[1][0].endswith("rejected 1 rows with unparseable timestamp timestamps: [41]")

    def test_a_clean_file_is_read_in_one_pass(self, tmp_path):
        path = write(tmp_path, "\n".join([self.HEAD, *self.rows(40)]) + "\n")
        with mock.patch.object(core, "_PLAIN_CHARS", 64), \
                mock.patch.object(core, "_plain_pieces", wraps=core._plain_pieces) as pieces, \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            record_reader_ran = _spied_outcome(path, None)[1]
        assert not record_reader_ran
        assert pieces.call_count == 1
        assert loadtxt.call_count == 20

    @given(st.one_of(csv_cases(), emitted_cases()), st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_any_piece_size_declines_or_agrees(self, case, chars):
        text, variables = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            path.write_text(text, newline="")
            with mock.patch.object(core, "_PLAIN_CHARS", chars):
                plain, records = _both_readers(path, variables)
        if plain is not None:
            assert not isinstance(records, str)
            assert _plain_as_read(plain) == _as_read(records)


class TestBoundedMemory:
    """Reading and writing CSV hold a bounded piece of the file at a time, not the whole of it."""

    def emitted(self, tmp_path):
        base = {v: BaseSignal(10.0 * (i + 1), 2.0, 500.0, 0.5)
                for i, v in enumerate(["turbidity", "conductivity", "level"])}
        ms = synth_series(SynthConfig(n_points=20_000, base=base), seed=1)
        path = tmp_path / "x.csv"
        emit_csv(ms, path)
        ingest_csv(path)  # numpy's lazy set-up happens outside the traced calls
        return path

    def test_traced_peaks_stay_within_multiples_of_the_file(self, tmp_path):
        path = self.emitted(tmp_path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            back = ingest_csv(path)
            held, ingest_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            emit_csv(back, tmp_path / "y.csv")
            emit_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert (tmp_path / "y.csv").read_bytes() == path.read_bytes()
        # ingest holds the file's bytes, kept for the record reader, and one piece's lines and
        # rows at a time (2.75x here); holding every piece's rows until the end reads 3.41x,
        # reading the whole file as one piece 6.50x, and decoding it whole before splitting its
        # lines 7.61x. Emit holds one block of cells (1.85x here, 7.73x when it formatted the
        # whole file's cells at once)
        assert ingest_peak < 3.25 * size
        assert emit_peak < 2.5 * size

    def test_record_reader_peak_stays_within_a_multiple_of_the_file(self, tmp_path):
        path = self.emitted(tmp_path)
        quoted = tmp_path / "quoted.csv"
        with open(path, newline="") as src, open(quoted, "w", newline="") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
        tracemalloc.start()
        try:
            ingest_csv(quoted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file's bytes, one record at a time and a Python number per kept cell (3.08x
        # when measured); the columnar reader this loop replaced held every cell's string
        # until the end and read 6.85x
        assert peak < 4 * quoted.stat().st_size


class TestOwnedArrays:
    @pytest.mark.parametrize("quoted", [False, True], ids=["c-reader", "record-reader"])
    def test_ingested_series_share_one_timestamp_vector(self, tmp_path, quoted):
        rows = [
            "timestamp,turbidity,turbidity_label,conductivity,level",
            "2017-03-12T00:00:00,1.5,0,300,1.0",
            "2017-03-12T01:00:00,2.5,1,310,1.1",
        ]
        if quoted:
            rows = [",".join(f'"{cell}"' for cell in row.split(",")) for row in rows]
        ms = ingest_csv(write(tmp_path, "\n".join(rows) + "\n"))
        ts = ms.timestamps
        assert all(s.timestamps is ts for s in ms.series)
        arrays = [ts, ms.get("turbidity").labels] + [s.values for s in ms.series]
        assert not any(a.flags.writeable for a in arrays)
        # rules rebuild a series around new values; timestamps and labels stay shared
        turbidity = ms.get("turbidity")
        cleaned = turbidity.with_values(np.array([1.0, 2.0]))
        assert cleaned.timestamps is ts and cleaned.labels is turbidity.labels
        with mock.patch.object(np, "array_equal", side_effect=AssertionError("compared")):
            assert MultiSeries("site", (cleaned, ms.get("level"))).timestamps is ts
        # so do the ground truth, the rule flags and the transformed matrix
        assert ground_truth(MultiSeries("site", (turbidity,))).timestamps is ts
        assert apply_rules(ms, RuleConfig(ranges={}))[0].timestamps is ts
        assert build_matrix(ms, TransformKind.ORIGINAL).timestamps is ts

    def test_a_callers_writeable_array_is_copied_and_never_frozen(self):
        ts = np.array([0, 60, 120], dtype=np.int64)
        values = np.array([1.0, 2.0, 3.0])
        s = SensorSeries("x", ts, values)
        assert s.timestamps is not ts and s.values is not values
        assert ts.flags.writeable and values.flags.writeable
        ts[0] = -60
        values[0] = 9.0
        assert s.timestamps[0] == 0 and s.values[0] == 1.0

    def test_only_a_read_only_owner_of_the_dtype_is_kept(self):
        frozen = np.array([0, 60, 120], dtype=np.int64)
        frozen.flags.writeable = False
        assert core._own(frozen, np.int64) is frozen
        view = frozen[:2]  # read-only, but its buffer belongs to another array
        for a, dtype in ((view, np.int64), (frozen, np.float64)):
            got = core._own(a, dtype)
            assert got is not a and got.dtype == dtype and not got.flags.writeable


class TestEmitRoundtrip:
    def test_ingest_emit_ingest_identity(self, tmp_path, labeled_synth):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        emit_csv(labeled_synth, out1)
        again = ingest_csv(out1)
        emit_csv(again, out2)
        final = ingest_csv(out2)
        assert np.array_equal(final.timestamps, labeled_synth.timestamps)
        for var in labeled_synth.variables:
            np.testing.assert_array_equal(final.get(var).values, labeled_synth.get(var).values)
            np.testing.assert_array_equal(final.get(var).labels, labeled_synth.get(var).labels)

    def test_missing_cells_survive_roundtrip(self, tmp_path):
        ms = make_multiseries({"turbidity": [1.0, np.nan, 3.0]})
        out = tmp_path / "m.csv"
        emit_csv(ms, out)
        back = ingest_csv(out)
        vals = back.get("turbidity").values
        assert np.isnan(vals[1]) and vals[0] == 1.0 and vals[2] == 3.0

    def test_exact_bytes(self, tmp_path):
        ts = [-86400 * 365, -1, 0, 1, 1_500_000_000]
        ms = MultiSeries(
            site="s",
            series=(
                SensorSeries("turbidity", ts, [1.5, np.nan, -0.0, 1e-05, 1e16]),
                SensorSeries("conductivity", ts, [300.0, 0.1, np.nan, 2.0, -7.25], [0, 1, 0, 0, 1]),
            ),
        )
        out = tmp_path / "x.csv"
        emit_csv(ms, out)
        assert out.read_bytes() == (
            b"timestamp,turbidity,conductivity,conductivity_label\r\n"
            b"1969-01-01T00:00:00,1.5,300.0,0\r\n"
            b"1969-12-31T23:59:59,,0.1,1\r\n"
            b"1970-01-01T00:00:00,-0.0,,0\r\n"
            b"1970-01-01T00:00:01,1e-05,2.0,0\r\n"
            b"2017-07-14T02:40:00,1e+16,-7.25,1\r\n"
        )

    def test_years_before_1000_roundtrip(self, tmp_path):
        ms = make_multiseries({"turbidity": [1.0, 2.0]}, start=-30_662_668_800)
        out = tmp_path / "old.csv"
        emit_csv(ms, out)
        assert "0998-05-04T00:00:00" in out.read_text()
        np.testing.assert_array_equal(ingest_csv(out).timestamps, ms.timestamps)


class TestGroundTruth:
    def test_or_reduction(self):
        ms = make_multiseries(
            {"t": [1.0, 2.0, 3.0], "c": [4.0, 5.0, 6.0]},
            labels_by_var={"t": np.array([0, 1, 0], dtype=np.uint8),
                           "c": np.array([0, 0, 0], dtype=np.uint8)},
        )
        assert list(ground_truth(ms).flags) == [False, True, False]

    def test_or_both_sides(self):
        ms = make_multiseries(
            {"t": [1.0, 2.0], "c": [4.0, 5.0]},
            labels_by_var={"t": np.array([1, 0], dtype=np.uint8),
                           "c": np.array([0, 1], dtype=np.uint8)},
        )
        assert list(ground_truth(ms).flags) == [True, True]

    def test_all_typical(self):
        ms = make_multiseries(
            {"t": np.ones(100)},
            labels_by_var={"t": np.zeros(100, dtype=np.uint8)},
        )
        assert not ground_truth(ms).flags.any()

    def test_missing_labels_names_series(self):
        ms = make_multiseries({"t": [1.0, 2.0], "c": [1.0, 2.0]},
                              labels_by_var={"t": np.array([0, 0], dtype=np.uint8)})
        with pytest.raises(DataError, match="'c'"):
            ground_truth(ms)

    def test_exhaustive_small_instances(self, rng):
        # flag at t iff at least one variable labeled outlier at t
        for _ in range(20):
            n = int(rng.integers(1, 8))
            la = rng.integers(0, 2, n).astype(np.uint8)
            lb = rng.integers(0, 2, n).astype(np.uint8)
            ms = make_multiseries(
                {"a": np.ones(n), "b": np.ones(n)},
                labels_by_var={"a": la, "b": lb},
            )
            gt = ground_truth(ms)
            for i in range(n):
                assert gt.flags[i] == bool(la[i] or lb[i])


class TestSynth:
    def base(self):
        return {"turbidity": BaseSignal(20.0, 5.0, 300.0, 0.2)}

    def test_no_faults_all_typical(self):
        ms = synth_series(SynthConfig(n_points=50, base=self.base()), seed=1)
        assert not ground_truth(ms).flags.any()

    def test_spike_labeled_at_index(self):
        cfg = SynthConfig(
            n_points=200,
            base=self.base(),
            faults=(FaultSpec("turbidity", 100, "spike", 50 * 0.2),),
        )
        ms = synth_series(cfg, seed=1)
        flags = ground_truth(ms).flags
        assert flags[100] and flags.sum() == 1

    def test_determinism(self):
        cfg = SynthConfig(n_points=120, base=self.base(),
                          faults=(FaultSpec("turbidity", 30, "drop", 5.0),))
        a = synth_series(cfg, seed=9)
        b = synth_series(cfg, seed=9)
        assert np.array_equal(a.timestamps, b.timestamps)
        np.testing.assert_array_equal(a.get("turbidity").values, b.get("turbidity").values)

    def test_gap_bounds_and_long_gap(self):
        cfg = SynthConfig(n_points=300, base=self.base(), gap_minutes=(10, 120),
                          long_gap_at=42, long_gap_minutes=240)
        ms = synth_series(cfg, seed=3)
        gaps = np.diff(ms.timestamps) / 60.0
        assert gaps[41] == 240
        rest = np.delete(gaps, 41)
        assert rest.min() >= 10 and rest.max() <= 120

    def test_fault_index_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            SynthConfig(n_points=10, base=self.base(),
                        faults=(FaultSpec("turbidity", 10, "spike", 1.0),))


class TestInvariants:
    def test_timestamps_strictly_increasing_enforced(self):
        with pytest.raises(DataError):
            SensorSeries("x", np.array([0, 0, 1]), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            SensorSeries("x", np.array([0, 60]), np.zeros(3))

    def test_shared_timestamps_required(self):
        a = SensorSeries("a", np.array([0, 60]), np.zeros(2))
        b = SensorSeries("b", np.array([0, 120]), np.zeros(2))
        from driftguard import MultiSeries
        with pytest.raises(DataError, match="share"):
            MultiSeries(site="s", series=(a, b))

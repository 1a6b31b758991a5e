import numpy as np
import pytest

from driftguard import (
    BaseSignal,
    DataError,
    FaultSpec,
    MultiSeries,
    SensorSeries,
    SynthConfig,
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
        cfg = SynthConfig(n_points=10, base=self.base(),
                          faults=(FaultSpec("turbidity", 10, "spike", 1.0),))
        with pytest.raises(DataError, match="out of range"):
            synth_series(cfg, seed=0)


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

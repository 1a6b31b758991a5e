import csv
import json
from pathlib import Path

import pytest

from driftguard import confusion, ground_truth, ingest_csv, run_detection
from driftguard.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, _pipeline_config, load_config, main
from driftguard.errors import ConfigError


def write_config(tmp_path, **overrides) -> Path:
    cfg = {
        "variables": ["turbidity", "conductivity"],
        "synth": {
            "n_points": 600,
            "gap_minutes": [10, 170],
            "base": {
                "turbidity": {"level": 20.0, "amplitude": 5.0, "period": 400.0, "noise_sd": 0.1},
                "conductivity": {"level": 300.0, "amplitude": 40.0, "period": 600.0, "noise_sd": 1.5},
            },
            "faults": [],
        },
        "seed": 11,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def synth(tmp_path, cfg_path, seed=11) -> Path:
    out = tmp_path / "data.csv"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out), "--seed", str(seed)]) == EXIT_OK
    return out


class TestConfig:
    def test_defaults_when_no_file(self):
        cfg = load_config(None)
        assert cfg["threshold"]["alpha"] == 0.05
        assert cfg["scoring"]["k"] == 10

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scoring": {"kay": 3}}))
        with pytest.raises(ConfigError, match="kay"):
            load_config(str(path))

    def test_partial_config_filled_from_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"threshold": {"alpha": 0.01}}))
        cfg = load_config(str(path))
        assert cfg["threshold"]["alpha"] == 0.01
        assert cfg["threshold"]["initial_fraction"] == 0.5

    def test_variable_keyed_nodes_replace_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"synth": {"base": {"ph": {"level": 7.0}}}}))
        cfg = load_config(str(path))
        assert list(cfg["synth"]["base"]) == ["ph"]
        assert cfg["synth"]["n_points"] == 500  # sibling defaults still fill in

    def test_missing_file_is_config_error(self):
        assert main(["synth", "--config", "/nonexistent.json", "--out", "/tmp/x.csv"]) == EXIT_CONFIG

    def test_invalid_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        out = tmp_path / "x.csv"
        assert main(["synth", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG


class TestSynthCommand:
    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path)
        a = synth(tmp_path, cfg)
        content_a = a.read_bytes()
        b = synth(tmp_path, cfg)
        assert b.read_bytes() == content_a


class TestDetectCommand:
    def test_clean_series_no_detections(self, tmp_path):
        cfg = write_config(tmp_path)
        data = synth(tmp_path, cfg)
        out = tmp_path / "det"
        assert main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        rows = read_csv(out / "detections.csv")
        assert rows == []
        assert (out / "trace.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["threshold"]["alpha"] == 0.05
        assert manifest["version"]

    def test_injected_spike_detected_with_attribution(self, tmp_path):
        cfg = write_config(
            tmp_path,
            synth={
                "n_points": 600,
                "gap_minutes": [10, 170],
                "base": {
                    "turbidity": {"level": 20.0, "amplitude": 5.0, "period": 400.0, "noise_sd": 0.1},
                    "conductivity": {"level": 300.0, "amplitude": 40.0, "period": 600.0, "noise_sd": 1.5},
                },
                "faults": [{"variable": "turbidity", "index": 150, "kind": "spike", "magnitude": 150}],
            },
        )
        data = synth(tmp_path, cfg)
        out = tmp_path / "det"
        assert main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        rows = read_csv(out / "detections.csv")
        assert len(rows) == 1
        assert rows[0]["variable"] == "turbidity"
        assert rows[0]["direction"] == "spike"
        assert rows[0]["trigger"] == "evt"

    def test_long_gap_triggers_rule(self, tmp_path):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["synth"]["long_gap_at"] = 300
        raw["synth"]["long_gap_minutes"] = 240
        cfg.write_text(json.dumps(raw))
        data = synth(tmp_path, cfg)
        out = tmp_path / "det"
        assert main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        rows = read_csv(out / "detections.csv")
        gaps = [r for r in rows if r["direction"] == "rule:missing_gap"]
        assert len(gaps) == 1
        assert gaps[0]["trigger"] == "rule"

    def test_missing_input_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["detect", "--input", str(tmp_path / "none.csv"), "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_DATA

    def test_nan_leader_radius_is_config_error(self, tmp_path):
        data = synth(tmp_path, write_config(tmp_path))
        for radius, expected in [(0.05, EXIT_OK), (float("nan"), EXIT_CONFIG)]:
            # Python's json writes and reads the non-standard NaN literal.
            cfg = write_config(tmp_path, scoring={"method": "HDoutliers", "leader_radius": radius})
            out = tmp_path / f"o{radius}"
            code = main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(out)])
            assert code == expected
            assert (out / "manifest.json").exists() == (expected == EXIT_OK)

    def test_no_rows_left_is_data_error(self, tmp_path):
        # every reading is negative: the rules blank them all, so the
        # transform leaves nothing to score
        data = tmp_path / "neg.csv"
        data.write_text(
            "timestamp,turbidity\n"
            "2017-03-12T00:00:00,-1.0\n2017-03-12T00:10:00,-2.0\n2017-03-12T00:20:00,-3.0\n"
        )
        code = main(["detect", "--input", str(data), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_DATA

    def test_unknown_variable_is_config_error(self, tmp_path):
        data = synth(tmp_path, write_config(tmp_path))
        cfg = write_config(tmp_path, variables=["ph"])  # reuses the same data file
        code = main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG


class TestEvaluateCommand:
    def grid_config(self, tmp_path):
        return write_config(
            tmp_path,
            synth={
                "n_points": 600,
                "gap_minutes": [10, 170],
                "base": {
                    "turbidity": {"level": 20.0, "amplitude": 5.0, "period": 400.0, "noise_sd": 0.1},
                    "conductivity": {"level": 300.0, "amplitude": 40.0, "period": 600.0, "noise_sd": 1.5},
                },
                "faults": [
                    {"variable": "turbidity", "index": 150, "kind": "spike", "magnitude": 150},
                    {"variable": "conductivity", "index": 350, "kind": "drop", "magnitude": 220},
                ],
            },
            grid={
                "variable_sets": [["turbidity", "conductivity"]],
                "transforms": ["one_sided_derivative", "first_derivative"],
                "methods": ["KNN-SUM", "KNN-AGG", "HDoutliers", "LOF", "COF", "INFLO", "LDOF", "RKOF"],
            },
        )

    def test_grid_row_count_and_order(self, tmp_path):
        cfg = self.grid_config(tmp_path)
        data = synth(tmp_path, cfg)
        out = tmp_path / "ev"
        assert main(["evaluate", "--input", str(data), "--config", str(cfg), "--out-dir", str(out), "--reps", "3"]) == EXIT_OK
        rows = read_csv(out / "report.csv")
        assert len(rows) == 16  # 8 methods x 2 transforms x 1 variable set
        ops = [float(r["OP"]) for r in rows if r["OP"] != "NaN"]
        assert ops == sorted(ops, reverse=True)
        assert [r["i"] for r in rows] == [str(i) for i in range(1, 17)]

    def test_combo_flag_overrides_grid(self, tmp_path):
        cfg = self.grid_config(tmp_path)
        data = synth(tmp_path, cfg)
        out = tmp_path / "ev"
        code = main([
            "evaluate", "--input", str(data), "--config", str(cfg),
            "--out-dir", str(out), "--reps", "3",
            "--combo", "turbidity,conductivity:one_sided_derivative:KNN-SUM",
        ])
        assert code == EXIT_OK
        rows = read_csv(out / "report.csv")
        assert len(rows) == 1
        assert rows[0]["Method"] == "KNN-SUM"

    def test_perfect_detector_row(self, tmp_path):
        cfg = self.grid_config(tmp_path)
        data = synth(tmp_path, cfg)
        out = tmp_path / "ev"
        main([
            "evaluate", "--input", str(data), "--config", str(cfg),
            "--out-dir", str(out), "--reps", "3",
            "--combo", "turbidity,conductivity:one_sided_derivative:KNN-SUM",
        ])
        row = read_csv(out / "report.csv")[0]
        assert row["OP"] == "1.0000" and row["Accuracy"] == "1.0000"
        assert row["FP"] == "0" and row["FN"] == "0"

    def test_one_combo_matches_detect_with_flipped_sides(self, tmp_path):
        flipped = {"turbidity": "keep_positive", "conductivity": "keep_negative"}
        cfg_path = write_config(tmp_path, transform={"kind": "one_sided_derivative", "sides": flipped})
        raw = json.loads(cfg_path.read_text())
        raw["synth"]["n_points"] = 800
        cfg_path.write_text(json.dumps(raw))
        data = synth(tmp_path, cfg_path, seed=4)
        out = tmp_path / "ev"
        code = main([
            "evaluate", "--input", str(data), "--config", str(cfg_path),
            "--out-dir", str(out), "--reps", "3",
            "--combo", "turbidity,conductivity:one_sided_derivative:KNN-SUM",
        ])
        assert code == EXIT_OK
        row = read_csv(out / "report.csv")[0]
        # what detect runs on the same config
        cfg = load_config(str(cfg_path))
        ms = ingest_csv(data)
        cm = confusion(run_detection(ms, _pipeline_config(cfg, ms)).predicted, ground_truth(ms))
        assert [int(row[c]) for c in ("TN", "FN", "FP", "TP")] == [cm.tn, cm.fn, cm.fp, cm.tp]

    def test_side_for_variable_without_default(self, tmp_path):
        cfg = write_config(
            tmp_path,
            variables=["turbidity", "ph"],
            transform={"kind": "one_sided_derivative", "sides": {"ph": "keep_positive"}},
            synth={
                "n_points": 400,
                "gap_minutes": [10, 170],
                "base": {
                    "turbidity": {"level": 20.0, "amplitude": 5.0, "period": 400.0, "noise_sd": 0.1},
                    "ph": {"level": 7.0, "amplitude": 0.5, "period": 500.0, "noise_sd": 0.02},
                },
                "faults": [],
            },
        )
        data = synth(tmp_path, cfg)
        out = tmp_path / "ev"
        code = main([
            "evaluate", "--input", str(data), "--config", str(cfg), "--out-dir", str(out),
            "--reps", "3", "--combo", "turbidity,ph:one_sided_derivative:KNN-SUM",
        ])
        assert code == EXIT_OK
        row = read_csv(out / "report.csv")[0]
        assert row["TN"] != "NaN"  # an errored combo writes an all-NaN row

    def test_too_few_reps_is_config_error(self, tmp_path):
        cfg = self.grid_config(tmp_path)
        data = synth(tmp_path, cfg)
        out = tmp_path / "ev"
        code = main(["evaluate", "--input", str(data), "--config", str(cfg), "--out-dir", str(out), "--reps", "2"])
        assert code == EXIT_CONFIG
        assert not (out / "report.csv").exists()

    def test_unlabeled_input_is_data_error(self, tmp_path):
        cfg = self.grid_config(tmp_path)
        data = tmp_path / "plain.csv"
        data.write_text("timestamp,turbidity,conductivity\n2017-03-12T00:00:00,1,2\n2017-03-12T01:00:00,1,2\n")
        assert main(["evaluate", "--input", str(data), "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_DATA

    def test_bad_combo_spec_is_config_error(self, tmp_path):
        cfg = self.grid_config(tmp_path)
        data = synth(tmp_path, cfg)
        code = main([
            "evaluate", "--input", str(data), "--config", str(cfg),
            "--out-dir", str(tmp_path / "o"), "--combo", "turbidity-one_sided-KNN",
        ])
        assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("detect", "scoring", "k", "ten"),
        ("detect", "scoring", "k", None),
        ("detect", "threshold", "alpha", "x"),
        ("detect", "transform", "sides", {"turbidity": "sideways"}),
        # Python's json writes and reads the non-standard NaN literal.
        ("detect", "rules", "max_gap_minutes", float("nan")),
        ("evaluate", None, "reps", "x"),
        ("synth", "synth", "n_points", "x"),
        # numbers are JSON numbers: no truncation, no booleans, no numeric strings
        ("detect", "scoring", "k", 10.9),
        ("detect", "scoring", "k", True),
        ("detect", "scoring", "k", "7"),
        ("detect", "threshold", "tail_count", 2.9),
        ("detect", "rules", "max_gap_minutes", True),
    ],
    ids=[
        "k-text", "k-null", "alpha-text", "unknown-side", "gap-nan", "reps-text", "n_points-text",
        "k-fraction", "k-bool", "k-numeric-text", "tail_count-fraction", "gap-bool",
    ],
)
def test_bad_config_value_is_config_error(tmp_path, command, section, key, value):
    cfg_path = write_config(tmp_path)
    data = synth(tmp_path, cfg_path)
    raw = json.loads(cfg_path.read_text())
    node = raw if section is None else raw.setdefault(section, {})
    node[key] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "o"
    if command == "synth":
        args = ["synth", "--config", str(cfg), "--out", str(out / "s.csv")]
    else:
        args = [command, "--input", str(data), "--config", str(cfg), "--out-dir", str(out)]
    assert main(args) == EXIT_CONFIG
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "command, overrides, named",
    [
        ("detect", {"scoring": {"method": 5}}, "scoring.method"),
        ("detect", {"rules": {"forbid_negative": "yes"}}, "rules.forbid_negative"),
        ("synth", {"synth": {"gap_minutes": 10}}, "synth.gap_minutes"),
        ("synth", {"synth": {"base": {"turbidity": 5}}}, "synth.base.turbidity"),
        ("synth", {"synth": {"faults": [{"variable": "turbidity", "kind": "spike", "magnitude": 5}]}},
         "synth.faults[0]: missing key(s) ['index']"),
        ("detect", {"variables": "turbidity"}, "variables: expected a list"),
        ("synth", {"synth": {"gap_minutes": [10]}}, "synth.gap_minutes"),
        ("synth", {"synth": {"base": {"turbidity": {"levle": 3}}}}, "synth.base.turbidity"),
        ("evaluate", {"grid": {"methods": [5]}}, "unknown scoring method 5"),
        ("evaluate", {"grid": {"variable_sets": ["turbidity"]}}, "grid.variable_sets"),
        # variable-keyed entries must name an input variable
        ("detect", {"rules": {"ranges": {"turbidty": [0, 1]}}}, "rules.ranges.turbidty"),
        ("detect", {"transform": {"sides": {"turbidty": "keep_positive"}}}, "transform.sides.turbidty"),
        ("evaluate", {"rules": {"ranges": {"turbidty": [0, 1]}}}, "rules.ranges.turbidty"),
        ("plot-data", {"transform": {"sides": {"turbidty": "keep_positive"}}}, "transform.sides.turbidty"),
    ],
    ids=[
        "method-number", "forbid_negative-text", "gap-number", "base-number", "fault-without-index",
        "variables-text", "gap-one-value", "base-unknown-key", "grid-method-number", "variable-set-text",
        "range-unknown-variable", "side-unknown-variable", "evaluate-range-unknown-variable",
        "plot-side-unknown-variable",
    ],
)
def test_bad_config_shape_is_config_error(tmp_path, caplog, command, overrides, named):
    data = synth(tmp_path, write_config(tmp_path))
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(overrides))
    out = tmp_path / "o"
    if command == "synth":
        args = ["synth", "--config", str(cfg), "--out", str(out / "s.csv")]
    else:
        args = [command, "--input", str(data), "--config", str(cfg), "--out-dir", str(out)]
        if command == "plot-data":
            args += ["--figure", "bivariate"]
    assert main(args) == EXIT_CONFIG
    assert named in caplog.text
    assert "Traceback" not in caplog.text
    assert not out.exists()


class TestPlotDataCommand:
    def test_all_figures(self, tmp_path):
        cfg = write_config(
            tmp_path,
            synth={
                "n_points": 400,
                "gap_minutes": [10, 170],
                "base": {
                    "turbidity": {"level": 20.0, "amplitude": 5.0, "period": 400.0, "noise_sd": 0.1},
                    "conductivity": {"level": 300.0, "amplitude": 40.0, "period": 600.0, "noise_sd": 1.5},
                },
                "faults": [{"variable": "turbidity", "index": 100, "kind": "spike", "magnitude": 150}],
            },
        )
        data = synth(tmp_path, cfg)
        out = tmp_path / "plots"
        for figure in ("bivariate", "scores", "timeseries"):
            assert main(["plot-data", "--input", str(data), "--config", str(cfg),
                         "--figure", figure, "--out-dir", str(out)]) == EXIT_OK
        bi = read_csv(out / "bivariate.csv")
        assert {"x_turbidity", "y_conductivity", "class", "neighbor"} <= set(bi[0])
        assert any(r["class"] == "TP" for r in bi)
        sc = read_csv(out / "scores.csv")
        assert {"timestamp", "score", "class"} <= set(sc[0])
        assert (out / "timeseries.csv").read_bytes() == data.read_bytes()

    def test_svg_emitted(self, tmp_path):
        cfg = write_config(tmp_path)
        data = synth(tmp_path, cfg)
        out = tmp_path / "plots"
        assert main(["plot-data", "--input", str(data), "--config", str(cfg),
                     "--figure", "bivariate", "--out-dir", str(out), "--svg"]) == EXIT_OK
        svg = (out / "bivariate.svg").read_text()
        assert svg.startswith("<svg") and "<circle" in svg


class TestManifestReplay:
    def test_manifest_fully_determines_non_timing_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            synth={
                "n_points": 500,
                "gap_minutes": [10, 170],
                "base": {
                    "turbidity": {"level": 20.0, "amplitude": 5.0, "period": 400.0, "noise_sd": 0.1},
                    "conductivity": {"level": 300.0, "amplitude": 40.0, "period": 600.0, "noise_sd": 1.5},
                },
                "faults": [{"variable": "conductivity", "index": 200, "kind": "drop", "magnitude": 210}],
            },
        )
        data = synth(tmp_path, cfg)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        assert (out1 / "detections.csv").read_bytes() == (out2 / "detections.csv").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_manifest_replays_as_config(self, tmp_path):
        cfg = write_config(tmp_path)
        data = synth(tmp_path, cfg)
        out1 = tmp_path / "orig"
        assert main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(out1)]) == EXIT_OK
        out2 = tmp_path / "replay"
        code = main([
            "detect", "--input", str(data),
            "--config", str(out1 / "manifest.json"), "--out-dir", str(out2),
        ])
        assert code == EXIT_OK
        assert (out1 / "detections.csv").read_bytes() == (out2 / "detections.csv").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

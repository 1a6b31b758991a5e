import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from reference import ref_figure_rows, ref_svg_scatter

from driftguard import (
    MultiSeries,
    SensorSeries,
    confusion,
    emit_csv,
    ground_truth,
    ingest_csv,
    run_detection,
)
from driftguard import cli, neighbors
from driftguard.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    _pipeline_config,
    _settings,
    load_config,
    main,
)
from driftguard.core import BaseSignal, SynthConfig
from driftguard.errors import ConfigError
from driftguard.rules import RuleConfig
from driftguard.scoring import ScoringConfig
from driftguard.threshold import ThresholdConfig


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

    def test_default_config_builds_the_library_defaults(self):
        # DEFAULT_CONFIG and the dataclasses each write these defaults down
        s = _settings(load_config(None))
        assert s.scoring == ScoringConfig()
        assert s.threshold == ThresholdConfig()
        assert s.rules == RuleConfig(ranges={})
        synth_defaults = {f.name: f.default for f in fields(SynthConfig)}
        for key in ("long_gap_at", "long_gap_minutes", "site"):
            assert cli.DEFAULT_CONFIG["synth"][key] == synth_defaults[key], key
        base_defaults = {f.name: f.default for f in fields(BaseSignal)}
        for key in ("amplitude", "period", "noise_sd"):  # BaseSignal.level has no default
            assert cli._BASE_SIGNAL[key] == base_defaults[key], key

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

    def test_negative_seed_flag_is_config_error(self, tmp_path, caplog):
        out = tmp_path / "s.csv"
        assert main(["synth", "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
        assert "seed: must be non-negative, got -1" in caplog.text
        assert "Traceback" not in caplog.text
        assert not out.exists()


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

    def test_trace_csv_is_the_tail_of_the_run_trace(self, tmp_path):
        cfg_path = write_config(tmp_path)
        data = synth(tmp_path, cfg_path)
        out = tmp_path / "det"
        assert main(["detect", "--input", str(data), "--config", str(cfg_path), "--out-dir", str(out)]) == EXIT_OK
        ms = ingest_csv(data)
        trace = run_detection(ms, _pipeline_config(_settings(load_config(str(cfg_path))), ms)).trace
        kept = trace.effective_tail_count + 2
        start = len(trace.decisions) - kept
        assert start > 0  # the file drops rows
        rows = read_csv(out / "trace.csv")
        assert [int(r["iteration"]) for r in rows] == list(range(start, len(trace.decisions)))
        assert [float(r["tested_score"]) for r in rows] == trace.tested_scores[start:].tolist()
        assert [float(r["cutoff"]) for r in rows] == trace.cutoffs[start:].tolist()
        assert [float(r["spacing_scale"]) for r in rows] == trace.spacing_scales[start:].tolist()
        assert tuple(r["decision"] for r in rows) == trace.decisions[start:]

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

    @pytest.mark.parametrize(
        "transform",
        [
            {"kind": "first_difference"},
            {"kind": "first_derivative"},
            {"kind": "rate_of_change"},
            {"kind": "one_sided_derivative", "sides": {"turbidity": "keep_positive"}},
        ],
    )
    def test_subnormal_reading_is_masked_not_scored(self, tmp_path, transform):
        # its ratio to a neighbour overflows; the overflowing cell leaves the
        # cloud instead of reaching normalization as an infinity
        data = synth(tmp_path, write_config(tmp_path))
        ms = ingest_csv(data)
        turbidity = ms.get("turbidity").values.copy()
        turbidity[300] = 5e-324
        series = tuple(s.with_values(turbidity) if s.name == "turbidity" else s for s in ms.series)
        emit_csv(MultiSeries(ms.site, series), data)
        cfg = write_config(tmp_path, transform=transform)
        code = main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_OK

    def test_readings_spanning_past_the_float_range_are_scored(self, tmp_path):
        # max - min of the turbidity column overflows; normalization scales it by halves
        data = tmp_path / "data.csv"
        assert main(["synth", "--out", str(data), "--seed", "3"]) == EXIT_OK
        ms = ingest_csv(data)
        turbidity = ms.get("turbidity").values.copy()
        turbidity[[100, 200]] = [1.7e308, -1.7e308]
        series = tuple(s.with_values(turbidity) if s.name == "turbidity" else s for s in ms.series)
        emit_csv(MultiSeries(ms.site, series), data)
        cfg = tmp_path / "original.json"
        cfg.write_text(json.dumps({"transform": {"kind": "original"}, "rules": {"forbid_negative": False}}))
        code = main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_OK

    def test_unknown_variable_is_config_error(self, tmp_path):
        data = synth(tmp_path, write_config(tmp_path))
        cfg = write_config(tmp_path, variables=["ph"])  # reuses the same data file
        code = main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["detect", "plot-data"])
    def test_repeated_variable_is_config_error(self, tmp_path, caplog, command):
        data = synth(tmp_path, write_config(tmp_path))
        cfg = write_config(tmp_path, variables=["turbidity", "turbidity"])
        args = [command, "--input", str(data), "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
        if command == "plot-data":
            args += ["--figure", "scores"]
        assert main(args) == EXIT_CONFIG
        assert "['turbidity'] more than once" in caplog.text
        assert not (tmp_path / "o").exists()

    def test_bad_number_is_refused_before_the_input_is_read(self, tmp_path):
        cfg = write_config(tmp_path, threshold={"alpha": "x"})
        code = main(["detect", "--input", str(tmp_path / "none.csv"), "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
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
        cm = confusion(run_detection(ms, _pipeline_config(_settings(cfg), ms)).predicted, ground_truth(ms))
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

    def test_too_few_reps_is_config_error(self, tmp_path, caplog):
        # refused before the (missing) input is read
        out = tmp_path / "ev"
        code = main(["evaluate", "--input", str(tmp_path / "none.csv"), "--out-dir", str(out), "--reps", "2"])
        assert code == EXIT_CONFIG
        assert "reps: must be at least 3, got 2" in caplog.text
        assert not out.exists()

    def test_unlabeled_input_is_data_error(self, tmp_path):
        cfg = self.grid_config(tmp_path)
        data = tmp_path / "plain.csv"
        data.write_text("timestamp,turbidity,conductivity\n2017-03-12T00:00:00,1,2\n2017-03-12T01:00:00,1,2\n")
        assert main(["evaluate", "--input", str(data), "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_DATA

    @pytest.mark.parametrize(
        "spec, named",
        [
            ("turbidity-one_sided-KNN", "must look like vars,comma,separated:transform:method"),
            ("turbidity:nokind:LOF", "unknown transform kind 'nokind'"),
            ("turbidity:original:NOPE", "unknown scoring method 'NOPE'"),
            (":original:LOF", "combo needs at least one variable"),
            ("turbidity,turbidity:original:LOF", "combo names variable(s) ['turbidity'] more than once"),
        ],
        ids=["syntax", "unknown-transform", "unknown-method", "no-variables", "repeated-variable"],
    )
    def test_bad_combo_spec_is_config_error(self, tmp_path, caplog, spec, named):
        # refused before the (missing) input is read, naming the flag
        out = tmp_path / "o"
        code = main(["evaluate", "--input", str(tmp_path / "none.csv"), "--out-dir", str(out), "--combo", spec])
        assert code == EXIT_CONFIG
        assert f"combo {spec!r}" in caplog.text
        assert named in caplog.text
        assert not out.exists()

    def test_failed_combo_is_logged_as_its_flag(self, tmp_path, caplog):
        data = synth(tmp_path, write_config(tmp_path))
        cfg = write_config(tmp_path, scoring={"k": 1})
        out = tmp_path / "ev"
        code = main([
            "evaluate", "--input", str(data), "--config", str(cfg), "--out-dir", str(out),
            "--combo", "turbidity:original:LDOF",
        ])
        assert code == EXIT_OK
        row = read_csv(out / "report.csv")[0]
        assert (row["Method"], row["TN"], row["OP"]) == ("LDOF", "NaN", "NaN")  # the error row
        assert "combo turbidity:original:LDOF failed: " in caplog.text

    @pytest.mark.parametrize(
        "spec, named",
        [
            (":original:LOF", "combo needs at least one variable"),
            ("turbidity,turbidity:original:LOF", "combo names variable(s) ['turbidity'] more than once"),
            ("turbidity,ph:original:LOF",
             "combo 'turbidity,ph:original:LOF': no variable 'ph' in input (has ['turbidity', 'conductivity'])"),
        ],
        ids=["no-variables", "repeated-variable", "unknown-variable"],
    )
    def test_combo_flag_variables_are_checked(self, tmp_path, caplog, spec, named):
        cfg = write_config(tmp_path)
        data = synth(tmp_path, cfg)
        out = tmp_path / "ev"
        code = main(["evaluate", "--input", str(data), "--config", str(cfg), "--out-dir", str(out), "--combo", spec])
        assert code == EXIT_CONFIG
        assert named in caplog.text
        assert not out.exists()

    def test_variables_entry_naming_no_input_variable_is_config_error(self, tmp_path, caplog):
        data = synth(tmp_path, write_config(tmp_path))
        cfg = write_config(tmp_path, variables=["turbidity", "ph"])
        out = tmp_path / "ev"
        assert main(["evaluate", "--input", str(data), "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert "variables[1]: no variable 'ph' in input" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid, named",
        [
            ({"variable_sets": [[]]}, "combo needs at least one variable"),
            ({"methods": []}, "grid.methods"),
            ({"transforms": []}, "grid.transforms"),
            ({"variable_sets": [["turbidity", "turbidity"]]}, "combo names variable(s) ['turbidity'] more than once"),
        ],
        ids=["empty-variable-set", "no-methods", "no-transforms", "repeated-variable"],
    )
    def test_grid_selecting_no_combo_or_repeating_a_variable_is_config_error(self, tmp_path, caplog, grid, named):
        data = synth(tmp_path, write_config(tmp_path))
        cfg = write_config(tmp_path, grid=grid)
        out = tmp_path / "ev"
        assert main(["evaluate", "--input", str(data), "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert named in caplog.text
        assert not out.exists()


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
        # a non-finite bandwidth caps every RKOF score and flags nothing
        ("detect", "scoring", "rkof_bandwidth_exponent", float("nan")),
        ("detect", "scoring", "rkof_bandwidth_scale", float("inf")),
    ],
    ids=[
        "k-text", "k-null", "alpha-text", "unknown-side", "gap-nan", "reps-text", "n_points-text",
        "k-fraction", "k-bool", "k-numeric-text", "tail_count-fraction", "gap-bool",
        "rkof-exponent-nan", "rkof-scale-inf",
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
        ("evaluate", {"grid": {"variable_sets": [["turbidity"], ["turbidity", "ph"]]}},
         "grid.variable_sets[1]: no variable 'ph' in input (has ['turbidity', 'conductivity'])"),
        ("detect", {"grid": {"variable_sets": [["ph"]]}}, "grid.variable_sets[0]: no variable 'ph'"),
        # base-signal and fault values that would write blank or infinite cells
        ("synth", {"synth": {"base": {"turbidity": {"level": 20.0, "period": 0}}}},
         "synth.base.turbidity: period must be positive"),
        ("synth", {"synth": {"base": {"turbidity": {"level": 20.0, "period": math.nan}}}},
         "synth.base.turbidity: period must be positive"),
        ("synth", {"synth": {"base": {"turbidity": {"level": math.inf}}}},
         "synth.base.turbidity: level must be finite"),
        ("synth", {"synth": {"base": {"turbidity": {"level": 20.0, "amplitude": math.nan}}}},
         "synth.base.turbidity: amplitude must be finite"),
        ("synth", {"synth": {"base": {"turbidity": {"level": 20.0, "noise_sd": math.inf}}}},
         "synth.base.turbidity: noise_sd must be finite"),
        ("synth", {"synth": {"base": {"turbidity": {"level": 20.0, "noise_sd": -1}}}},
         "synth.base.turbidity: noise_sd must be non-negative"),
        ("synth", {"synth": {"faults": [{"variable": "turbidity", "index": 5, "kind": "spike",
                                         "magnitude": math.inf}]}},
         "synth.faults[0]: fault magnitude must be non-negative and finite"),
        ("synth", {"synth": {"faults": [{"variable": "turbidity", "index": 5, "kind": "spike",
                                         "magnitude": math.nan}]}},
         "synth.faults[0]: fault magnitude must be non-negative and finite"),
        # out-of-range synth values, refused before any series is generated
        ("synth", {"synth": {"long_gap_at": 5, "long_gap_minutes": 0}},
         "synth: long_gap_minutes must be positive"),
        ("synth", {"synth": {"long_gap_at": 900}}, "synth: long_gap_at 900 out of range"),
        ("synth", {"synth": {"faults": [{"variable": "turbidity", "index": 9999, "kind": "spike",
                                         "magnitude": 5}]}},
         "synth: fault index 9999 out of range"),
        ("synth", {"synth": {"faults": [{"variable": "nope", "index": 5, "kind": "spike",
                                         "magnitude": 5}]}},
         "synth: fault targets unknown variable 'nope'"),
    ],
    ids=[
        "method-number", "forbid_negative-text", "gap-number", "base-number", "fault-without-index",
        "variables-text", "gap-one-value", "base-unknown-key", "grid-method-number", "variable-set-text",
        "range-unknown-variable", "side-unknown-variable", "evaluate-range-unknown-variable",
        "plot-side-unknown-variable", "variable-set-unknown-variable",
        "detect-variable-set-unknown-variable", "base-zero-period", "base-nan-period", "base-infinite-level",
        "base-nan-amplitude", "base-infinite-noise", "base-negative-noise", "fault-infinite-magnitude",
        "fault-nan-magnitude", "long-gap-zero-minutes", "long-gap-past-end", "fault-index-past-end",
        "fault-unknown-variable",
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


@pytest.mark.parametrize("command", ["detect", "synth", "evaluate", "plot-data"])
@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"transform": {"kind": "original", "sides": {"turbidity": "sideways"}}},
         "transform.sides.turbidity: unknown side tag 'sideways'"),
        ({"rules": {"enabled": False, "ranges": {"turbidity": ["x", 1]}}},
         "rules.ranges.turbidity: expected float, got 'x'"),
        ({"rules": {"ranges": {"turbidity": [0]}}}, "rules.ranges.turbidity: expected [min, max]"),
        ({"grid": {"methods": ["KNN-SUM", "nope"]}}, "grid.methods[1]: unknown scoring method 'nope'"),
        ({"grid": {"transforms": ["nope"]}}, "grid.transforms[0]: unknown transform kind 'nope'"),
        ({"grid": {"variable_sets": [["turbidity"], "level"]}}, "grid.variable_sets[1]"),
        ({"transform": {"kind": "nope"}}, "transform.kind: unknown transform kind 'nope'"),
        ({"scoring": {"method": "nope"}}, "scoring.method: unknown scoring method 'nope'"),
        # the config objects' own checks, under their section
        ({"threshold": {"alpha": 2}}, "threshold: alpha must lie in (0, 1)"),
        ({"scoring": {"k": 0}}, "scoring: k must be at least 1"),
        ({"scoring": {"method": "LDOF", "k": 1}}, "scoring: LDOF needs k >= 2"),
        ({"scoring": {"leader_radius": 0}}, "scoring: leader_radius must be positive"),
        ({"scoring": {"rkof_weight_sigma": -1}}, "scoring: rkof_weight_sigma must be positive"),
        ({"threshold": {"tail_count": 1}}, "threshold: tail_count must be at least 2"),
        ({"rules": {"max_gap_minutes": -5}}, "rules: max_gap_minutes must be positive"),
        ({"rules": {"enabled": False, "ranges": {"turbidity": [5, 1]}}},
         "rules: range for 'turbidity' must satisfy min < max"),
        ({"synth": {"n_points": 1}}, "synth: n_points must be at least 2"),
        ({"synth": {"faults": [{"variable": "ph", "index": 3, "kind": "spike", "magnitude": 1}]}},
         "synth: fault targets unknown variable 'ph'"),
        ({"seed": -5}, "seed: must be non-negative, got -5"),
        # the repetition floor and the grid's shape, in every command
        ({"reps": 2}, "reps: must be at least 3, got 2"),
        ({"grid": {"methods": []}}, "grid.transforms and grid.methods must each name at least one"),
        ({"grid": {"transforms": []}}, "grid.transforms and grid.methods must each name at least one"),
        ({"grid": {"variable_sets": [[]]}}, "grid.variable_sets[0]: combo needs at least one variable"),
        ({"grid": {"variable_sets": [["turbidity", "turbidity"]]}},
         "grid.variable_sets[0]: combo names variable(s) ['turbidity'] more than once"),
        ({"variables": ["turbidity", "turbidity"]},
         "variables: pipeline names variable(s) ['turbidity'] more than once"),
    ],
    ids=["side-tag", "range-bound", "range-shape", "grid-method", "grid-transform",
         "grid-variable-set", "transform-kind", "scoring-method", "alpha", "k", "ldof-k",
         "leader-radius", "rkof-weight-sigma", "tail-count", "max-gap-minutes", "reversed-range",
         "synth-n-points", "synth-fault-variable", "negative-seed", "reps", "grid-no-methods",
         "grid-no-transforms", "grid-empty-variable-set", "grid-repeated-variable",
         "repeated-variable"],
)
def test_every_value_is_checked_before_the_input_is_read(tmp_path, caplog, command, overrides, named):
    # keys the command never reads are checked too, and no input file exists
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(overrides))
    out = tmp_path / "o"
    if command == "synth":
        args = ["synth", "--config", str(cfg), "--out", str(out / "s.csv")]
    else:
        args = [command, "--input", str(tmp_path / "none.csv"), "--config", str(cfg), "--out-dir", str(out)]
        if command == "plot-data":
            args += ["--figure", "scores"]
    assert main(args) == EXIT_CONFIG
    assert named in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra",
    [
        ("synth", []),
        ("detect", []),
        ("evaluate", ["--combo", "turbidity:original:KNN-SUM"]),
        ("plot-data", ["--figure", "timeseries"]),
    ],
)
def test_each_command_builds_its_settings_once(tmp_path, monkeypatch, command, extra):
    cfg = write_config(tmp_path)
    data = synth(tmp_path, cfg)
    calls = []

    def counted(*args):
        calls.append(args)
        return _settings(*args)

    monkeypatch.setattr(cli, "_settings", counted)
    out = tmp_path / "o"
    if command == "synth":
        args = ["synth", "--config", str(cfg), "--out", str(out / "s.csv")]
    else:
        args = [command, "--input", str(data), "--config", str(cfg), "--out-dir", str(out)]
    assert main(args + extra) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["synth", "detect", "evaluate", "plot-data"])
@pytest.mark.parametrize(
    "value, named",
    [("zero", "DRIFTGUARD_THREADS must be an integer, got 'zero'"),
     ("0", "DRIFTGUARD_THREADS must be at least 1")],
)
def test_bad_thread_cap_is_refused_before_the_input_is_read(
    tmp_path, caplog, monkeypatch, command, value, named
):
    monkeypatch.setenv("DRIFTGUARD_THREADS", value)
    out = tmp_path / "o"
    if command == "synth":
        args = ["synth", "--out", str(out / "s.csv")]
    else:
        args = [command, "--input", str(tmp_path / "none.csv"), "--out-dir", str(out)]
        if command == "plot-data":
            args += ["--figure", "scores"]
    assert main(args) == EXIT_CONFIG
    assert named in caplog.text
    assert not out.exists()


def test_importing_the_cli_leaves_scipy_unimported():
    # synth, --help and config errors build no kd-tree, so they do not pay for its import
    code = "import sys, driftguard.cli; sys.exit('scipy.spatial' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_detect_with_a_cap_of_one_creates_no_pool(tmp_path, monkeypatch):
    # kNN splits the cloud into many blocks; a cap of 1 runs them all inline,
    # a cap of 2 runs them on a pool, and both write the same bytes
    cfg = write_config(tmp_path)
    data = synth(tmp_path, cfg)
    monkeypatch.setattr(neighbors, "_BLOCK", 8)
    pools = []
    real = neighbors.ThreadPoolExecutor

    def spy(*args, **kwargs):
        pools.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(neighbors, "ThreadPoolExecutor", spy)
    written = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("DRIFTGUARD_THREADS", threads)
        pools.clear()
        out = tmp_path / threads
        assert main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        written[threads] = len(pools), [
            (out / name).read_bytes() for name in ("detections.csv", "trace.csv", "manifest.json")
        ]
    assert written["1"][0] == 0 and written["2"][0] > 0
    assert written["1"][1] == written["2"][1]


def test_ranges_are_echoed_as_typed(tmp_path):
    ranges = {"turbidity": [0, 5000], "conductivity": [None, 1e4]}
    cfg = write_config(tmp_path, rules={"ranges": ranges})
    data = synth(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    echoed = json.loads((out / "manifest.json").read_text())["config"]["rules"]["ranges"]
    assert echoed == ranges
    assert [type(x) for x in echoed["turbidity"]] == [int, int]


# Every numeric leaf of the config; the null-default ones take their kind from cli._NULL_KINDS.
NUMERIC_KEYS = [
    "scoring.k", "scoring.leader_radius", "scoring.rkof_bandwidth_scale",
    "scoring.rkof_bandwidth_exponent", "scoring.rkof_weight_sigma",
    "threshold.alpha", "threshold.initial_fraction", "threshold.tail_count",
    "rules.max_gap_minutes",
    "synth.n_points", "synth.long_gap_at", "synth.long_gap_minutes",
    "seed", "reps",
]


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_detect_checks_every_numeric_key(tmp_path, caplog, key):
    """Keys detect never reads (seed, reps, synth.*) are checked as well."""
    cfg_path = write_config(tmp_path)
    data = synth(tmp_path, cfg_path)
    raw = json.loads(cfg_path.read_text())
    *sections, leaf = key.split(".")
    node = raw
    for section in sections:
        node = node.setdefault(section, {})
    node[leaf] = "x"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert main(["detect", "--input", str(data), "--config", str(cfg_path), "--out-dir", str(out)]) == EXIT_CONFIG
    assert f"{key}: expected" in caplog.text
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

    def test_bivariate_needs_two_variables(self, tmp_path, caplog, monkeypatch):
        cfg = write_config(tmp_path)
        data = synth(tmp_path, cfg)
        ran = []
        monkeypatch.setattr("driftguard.cli.run_detection", lambda *a: ran.append(a))
        out = tmp_path / "plots"
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"variables": ["turbidity"]}))
        assert main(["plot-data", "--input", str(data), "--config", str(one),
                     "--figure", "bivariate", "--out-dir", str(out)]) == EXIT_CONFIG
        assert "bivariate figure needs at least two variables" in caplog.text
        assert not ran  # refused before detection runs
        assert not out.exists()


# Faults of three sizes: first_derivative KNN-SUM finds the two large ones,
# misses the tiny one and flags one clean row; its differencing moves two
# detections off the rows that flagged them.
_FIGURE_SYNTH = {
    "n_points": 400,
    "gap_minutes": [10, 170],
    "base": {
        "turbidity": {"level": 20.0, "amplitude": 5.0, "period": 400.0, "noise_sd": 0.1},
        "conductivity": {"level": 300.0, "amplitude": 40.0, "period": 600.0, "noise_sd": 1.5},
    },
    "faults": [
        {"variable": "turbidity", "index": 100, "kind": "spike", "magnitude": 150},
        {"variable": "conductivity", "index": 250, "kind": "drop", "magnitude": 200},
        {"variable": "turbidity", "index": 320, "kind": "spike", "magnitude": 0.05},
    ],
}
_FIGURE_COMBOS = [("first_derivative", "KNN-SUM"), ("one_sided_derivative", "COF")]


@pytest.fixture(scope="module")
def figure_inputs(tmp_path_factory):
    """The same synth written with and without its label columns."""
    root = tmp_path_factory.mktemp("figures")
    labelled = synth(root, write_config(root, synth=_FIGURE_SYNTH))
    ms = ingest_csv(labelled)
    unlabelled = root / "unlabelled.csv"
    emit_csv(MultiSeries(ms.site, tuple(
        SensorSeries(s.name, s.timestamps, s.values) for s in ms.series
    )), unlabelled)
    return {True: labelled, False: unlabelled}


def _plot_both(tmp_path, data, kind, method):
    """Run plot-data's bivariate (with SVG) and scores figures; return (out_dir, config)."""
    cfg = load_config(None)
    cfg["variables"] = ["turbidity", "conductivity"]
    cfg["transform"]["kind"] = kind
    cfg["scoring"]["method"] = method
    tmp_path.mkdir(exist_ok=True)
    cfg_path = tmp_path / "figure.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "plots"
    for figure, extra in (("bivariate", ["--svg"]), ("scores", [])):
        assert main(["plot-data", "--input", str(data), "--config", str(cfg_path),
                     "--figure", figure, "--out-dir", str(out), *extra]) == EXIT_OK
    return out, cfg


@pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
@pytest.mark.parametrize("kind, method", _FIGURE_COMBOS)
def test_figures_match_per_row_reference(tmp_path, figure_inputs, labelled, kind, method):
    data = figure_inputs[labelled]
    out, cfg = _plot_both(tmp_path, data, kind, method)
    ms = ingest_csv(data)
    ref = tmp_path / "ref"
    ref.mkdir()
    for figure in ("bivariate", "scores"):
        header, rows = ref_figure_rows(cfg, ms, figure)
        with open(ref / f"{figure}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        if figure == "bivariate":
            ref_svg_scatter(header, rows, ref / "bivariate.svg")
    for name in ("bivariate.csv", "scores.csv", "bivariate.svg"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_figure_inputs_cover_every_class(tmp_path, figure_inputs):
    classes = {True: set(), False: set()}
    neighbors = 0
    for labelled, data in figure_inputs.items():
        for kind, method in _FIGURE_COMBOS:
            out, _ = _plot_both(tmp_path / f"{labelled}-{kind}", data, kind, method)
            bi = read_csv(out / "bivariate.csv")
            classes[labelled] |= {r["class"] for r in bi}
            neighbors += sum(r["neighbor"] == "1" for r in bi)
            assert {r["class"] for r in read_csv(out / "scores.csv")} <= classes[labelled]
    assert classes[True] == {"TP", "FP", "FN", "TN"}
    assert classes[False] == {"outlier", "typical"}
    assert neighbors >= 1


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

    def test_manifest_echoes_each_number_in_its_keys_kind(self, tmp_path):
        cfg = write_config(tmp_path, scoring={"k": 10.0}, rules={"max_gap_minutes": 240})
        data = synth(tmp_path, cfg)
        out1, out2 = tmp_path / "orig", tmp_path / "replay"
        assert main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(out1)]) == EXIT_OK
        text = (out1 / "manifest.json").read_text()
        assert '"k": 10,' in text
        assert '"max_gap_minutes": 240.0,' in text
        code = main(["detect", "--input", str(data), "--config", str(out1 / "manifest.json"), "--out-dir", str(out2)])
        assert code == EXIT_OK
        for name in ("manifest.json", "detections.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_evaluate_manifest_echoes_reps_and_replays(self, tmp_path):
        cfg = write_config(tmp_path, grid={"methods": ["KNN-SUM", "LOF"]})
        data = synth(tmp_path, cfg)
        out1, out2 = tmp_path / "orig", tmp_path / "replay"
        run = ["evaluate", "--input", str(data), "--out-dir"]
        assert main([*run, str(out1), "--config", str(cfg), "--reps", "4"]) == EXIT_OK
        assert json.loads((out1 / "manifest.json").read_text())["config"]["reps"] == 4
        assert main([*run, str(out2), "--config", str(out1 / "manifest.json")]) == EXIT_OK
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

        def report(out):  # columns 1-14: everything but min_t, mu_t and max_t
            with open(out / "report.csv", newline="") as fh:
                return [row[:14] for row in csv.reader(fh)]

        assert report(out1) == report(out2)

    def test_synth_base_entry_is_filled_and_checked(self, tmp_path, caplog):
        data = synth(tmp_path, write_config(tmp_path))
        cfg = write_config(tmp_path, synth={"base": {"turbidity": {"level": 3}}})
        out = tmp_path / "o"
        assert main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        base = json.loads((out / "manifest.json").read_text())["config"]["synth"]["base"]
        assert base == {"turbidity": {"level": 3.0, "amplitude": 0.0, "period": 500.0, "noise_sd": 0.0}}
        assert type(base["turbidity"]["level"]) is float
        cfg = write_config(tmp_path, synth={"base": {"turbidity": {"level": 3, "levle": 3}}})
        out = tmp_path / "bad"
        assert main(["detect", "--input", str(data), "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert "['levle'] under synth.base.turbidity" in caplog.text
        assert not out.exists()

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

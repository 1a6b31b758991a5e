"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import csv
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import driftguard as dg
from driftguard import (
    BaseSignal,
    ConfusionMatrix,
    FaultSpec,
    Method,
    PipelineConfig,
    PointCloud,
    ScoringConfig,
    SynthConfig,
    TransformKind,
    knn,
    metrics,
    run_detection,
    synth_series,
)
from driftguard.cli import main as cli_main
from driftguard.neighbors import default_leader_radius
from driftguard.threshold import evt_flag
from driftguard.transforms import Side, transform_column

import reference as ref
from conftest import DATA_DIR, make_multiseries


@contextmanager
def criterion(number: int, name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s]")


def parse_metric(cell: str) -> float:
    return math.nan if cell == "NaN" else float(cell)


def test_criterion_1_metric_fixtures():
    """Published metric rows for both river sites reproduce to 5e-4."""
    with criterion(1, "metric oracle, 96 fixture rows", budget_s=1.0):
        rows_checked = 0
        for name in ("metrics_sandy_creek.csv", "metrics_pioneer_river.csv"):
            with open(DATA_DIR / name) as fh:
                for row in csv.DictReader(fh):
                    cm = ConfusionMatrix(
                        tp=int(row["tp"]), fp=int(row["fp"]),
                        fn=int(row["fn"]), tn=int(row["tn"]),
                    )
                    m = metrics(cm)
                    for field in ("accuracy", "er", "gm", "op", "ppv", "npv"):
                        expected = parse_metric(row[field])
                        got = getattr(m, field)
                        if math.isnan(expected):
                            assert math.isnan(got), f"{name} row {row['i']} {field}: expected NaN, got {got}"
                        else:
                            assert abs(got - expected) <= 5e-4, (
                                f"{name} row {row['i']} {field}: {got} vs {expected}"
                            )
                    rows_checked += 1
        assert rows_checked == 96
        # spot anchors
        top_sandy = metrics(ConfusionMatrix(tp=5, fp=1, fn=2, tn=5394))
        assert abs(top_sandy.gm - 164.2255) <= 5e-4
        assert abs(top_sandy.op - 0.8329) <= 5e-4
        top_pioneer = metrics(ConfusionMatrix(tp=39, fp=4, fn=10, tn=6227))
        assert abs(top_pioneer.gm - 492.8012) <= 5e-4
        assert abs(top_pioneer.op - 0.8845) <= 5e-4
        degenerate = metrics(ConfusionMatrix(tp=0, fp=0, fn=6, tn=5396))
        assert abs(degenerate.op - (-0.0011)) <= 5e-4
        assert math.isnan(degenerate.ppv)


def canonical_ranks(x: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Rank vector where values closer than rtol share a rank group."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    group = np.zeros(len(x), dtype=np.int64)
    g = 0
    for i in range(1, len(xs)):
        if xs[i] - xs[i - 1] > rtol * max(abs(xs[i]), abs(xs[i - 1]), 1e-300):
            g += 1
        group[i] = g
    ranks = np.empty(len(x), dtype=np.int64)
    ranks[order] = group
    return ranks


def test_criterion_2_scorer_bruteforce_equivalence():
    """All eight scorers match the independent O(n^2) references."""
    with criterion(2, "scorer brute-force equivalence, 50 clouds", budget_s=60.0):
        rng = np.random.default_rng(777)
        k = 10
        for _ in range(50):
            n = int(rng.integers(20, 201))
            d = int(rng.integers(1, 4))
            cloud = PointCloud(rng.random((n, d)))
            pts = cloud.points
            radius = default_leader_radius(n, d)
            pairs = {
                Method.KNN_SUM: (dg.score(cloud, ScoringConfig(Method.KNN_SUM, k)).scores, ref.ref_knn_sum(pts, k)),
                Method.KNN_AGG: (dg.score(cloud, ScoringConfig(Method.KNN_AGG, k)).scores, ref.ref_knn_agg(pts, k)),
                Method.LOF: (dg.score(cloud, ScoringConfig(Method.LOF, k)).scores, ref.ref_lof(pts, k)),
                Method.COF: (dg.score(cloud, ScoringConfig(Method.COF, k)).scores, ref.ref_cof(pts, k)),
                Method.INFLO: (dg.score(cloud, ScoringConfig(Method.INFLO, k)).scores, ref.ref_inflo(pts, k)),
                Method.LDOF: (dg.score(cloud, ScoringConfig(Method.LDOF, k)).scores, ref.ref_ldof(pts, k)),
                Method.RKOF: (dg.score(cloud, ScoringConfig(Method.RKOF, k)).scores, ref.ref_rkof(pts, k)),
                Method.HDOUTLIERS: (dg.score(cloud, ScoringConfig(Method.HDOUTLIERS, k)).scores, ref.ref_hdoutliers(pts, radius)),
            }
            for method, (got, expected) in pairs.items():
                rel = np.abs(got - expected) / np.maximum(np.abs(expected), 1e-300)
                assert rel.max() <= 1e-9, f"{method.value}: rel err {rel.max():.2e} (n={n}, d={d})"
                assert np.array_equal(canonical_ranks(got), canonical_ranks(expected)), (
                    f"{method.value}: ranking mismatch (n={n}, d={d})"
                )


def test_criterion_3_knn_exactness():
    """Tree-accelerated kNN equals brute force exactly on 1000-point clouds."""
    with criterion(3, "kNN exactness, 20 seeds", budget_s=10.0):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = 1 + seed % 3
            pts = rng.random((1000, d))
            nl = knn(PointCloud(pts), 10)
            ridx, rdist = ref.ref_knn(pts, 10)
            assert np.array_equal(nl.indices, ridx), f"seed {seed}: neighbor sets differ"
            assert np.array_equal(nl.distances, rdist), f"seed {seed}: distances differ"


def _direct_cell(kind, side, y, ts, i):
    """One-cell straight-line formula evaluation; None when undefined."""
    dt = lambda j: (ts[j] - ts[j - 1]) / 60.0
    if kind is TransformKind.FIRST_DIFFERENCE or kind is TransformKind.FIRST_DERIVATIVE \
            or kind is TransformKind.ONE_SIDED_DERIVATIVE:
        if i == 0 or not (math.isfinite(y[i]) and math.isfinite(y[i - 1])):
            return None
        if y[i - 1] == 0 or y[i] / y[i - 1] <= 0:
            return None
        x = math.log(y[i] / y[i - 1])
        if kind is TransformKind.FIRST_DIFFERENCE:
            return x
        x /= dt(i)
        if kind is TransformKind.FIRST_DERIVATIVE:
            return x
        return min(x, 0.0) if side is Side.KEEP_NEGATIVE else max(x, 0.0)
    if kind is TransformKind.LOG:
        return math.log(y[i]) if math.isfinite(y[i]) and y[i] > 0 else None
    if kind is TransformKind.TIME_GAP:
        return dt(i) if i > 0 else None
    if kind is TransformKind.RATE_OF_CHANGE:
        if i == 0 or not (math.isfinite(y[i]) and math.isfinite(y[i - 1])) or y[i] == 0:
            return None
        return (y[i] - y[i - 1]) / y[i]
    if kind is TransformKind.RELATIVE_DIFFERENCE:
        if i == 0 or i == len(y) - 1 or not all(math.isfinite(v) for v in y[i - 1 : i + 2]):
            return None
        return y[i] - 0.5 * (y[i + 1] + y[i - 1])
    if kind is TransformKind.ORIGINAL:
        return y[i] if math.isfinite(y[i]) else None
    raise AssertionError(kind)


def test_criterion_4_transform_correctness():
    """Every formula recomputed cell-by-cell; one-sided signs on 10k cells."""
    with criterion(4, "transform correctness", budget_s=30.0):
        rng = np.random.default_rng(4242)
        kinds = [
            TransformKind.ORIGINAL, TransformKind.LOG, TransformKind.FIRST_DIFFERENCE,
            TransformKind.TIME_GAP, TransformKind.FIRST_DERIVATIVE,
            TransformKind.ONE_SIDED_DERIVATIVE, TransformKind.RATE_OF_CHANGE,
            TransformKind.RELATIVE_DIFFERENCE,
        ]
        checked = 0
        while checked < 10_000:
            n = int(rng.integers(5, 80))
            vals = rng.lognormal(2.0, 1.5, n)
            vals[rng.random(n) < 0.08] = np.nan
            ms = make_multiseries({"x": vals}, gaps_minutes=list(rng.integers(10, 240, n - 1)))
            s = ms.get("x")
            for kind in kinds:
                side = Side.KEEP_NEGATIVE if kind is TransformKind.ONE_SIDED_DERIVATIVE else None
                col, valid = transform_column(s, kind, side)
                for i in range(n):
                    expected = _direct_cell(kind, side, vals, s.timestamps, i)
                    if expected is None:
                        assert not valid[i]
                    else:
                        assert valid[i]
                        denom = max(abs(expected), 1e-300)
                        assert abs(col[i] - expected) / denom <= 1e-12, (
                            f"{kind.value} cell {i}: {col[i]} vs {expected}"
                        )
                    checked += 1
        sign_checked = 0
        while sign_checked < 10_000:
            n = int(rng.integers(10, 200))
            ms = make_multiseries(
                {"x": rng.lognormal(1.0, 2.0, n)},
                gaps_minutes=list(rng.integers(10, 240, n - 1)),
            )
            s = ms.get("x")
            neg, vneg = transform_column(s, TransformKind.ONE_SIDED_DERIVATIVE, Side.KEEP_NEGATIVE)
            pos, vpos = transform_column(s, TransformKind.ONE_SIDED_DERIVATIVE, Side.KEEP_POSITIVE)
            assert (neg[vneg] <= 0).all() and (pos[vpos] >= 0).all()
            sign_checked += int(vneg.sum() + vpos.sum())


def test_criterion_5_evt_statistical_behavior():
    """Injected extremes always flagged; clean false-flag fraction tiny."""
    with criterion(5, "EVT threshold statistics, 100 seeds", budget_s=30.0):
        alpha = 0.05
        seeds_all_flagged = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            scores = np.concatenate(
                [rng.exponential(1.0, 995), 50.0 + rng.exponential(5.0, 5)]
            )
            flags, _ = evt_flag(scores)
            if flags[-5:].all():
                seeds_all_flagged += 1
        assert seeds_all_flagged >= 95, f"all 5 injected flagged in only {seeds_all_flagged}/100 seeds"

        fractions = []
        for seed in range(100, 200):
            rng = np.random.default_rng(seed)
            flags, _ = evt_flag(rng.exponential(1.0, 1000))
            fractions.append(flags.mean())
        mean_fraction = float(np.mean(fractions))
        assert mean_fraction <= 2 * alpha, f"clean false-flag fraction {mean_fraction}"


CRITERION_6_FAULTS = (
    FaultSpec("turbidity", 400, "spike", 130.0),
    FaultSpec("turbidity", 1200, "spike", 90.0),
    FaultSpec("turbidity", 2050, "drop", 16.0),
    FaultSpec("turbidity", 2900, "spike", 110.0),
    FaultSpec("turbidity", 3700, "drop", 15.0),
    FaultSpec("conductivity", 800, "drop", 230.0),
    FaultSpec("conductivity", 1700, "spike", 260.0),
    FaultSpec("conductivity", 2500, "drop", 240.0),
    FaultSpec("conductivity", 3300, "spike", 280.0),
    FaultSpec("conductivity", 4400, "drop", 250.0),
)


def test_criterion_6_end_to_end_synthetic():
    """Isolated faults on a 5000-point irregular series: detect and correct."""
    with criterion(6, "end-to-end synthetic detection", budget_s=30.0):
        cfg = SynthConfig(
            n_points=5000,
            base={
                "turbidity": BaseSignal(20.0, 5.0, 700.0, 0.1),
                "conductivity": BaseSignal(300.0, 40.0, 900.0, 1.5),
            },
            gap_minutes=(10, 240),
            faults=CRITERION_6_FAULTS,
        )
        ms = synth_series(cfg, seed=404)
        pcfg = PipelineConfig(
            variables=("turbidity", "conductivity"),
            transform=TransformKind.ONE_SIDED_DERIVATIVE,
            scoring=ScoringConfig(method=Method.KNN_SUM, k=10),
        )
        result = run_detection(ms, pcfg)

        injected_ts = {int(ms.timestamps[f.index]) for f in CRITERION_6_FAULTS}
        detected_ts = {d.timestamp for d in result.detections if d.trigger == "evt"}
        hits = detected_ts & injected_ts
        false_positives = detected_ts - injected_ts
        assert len(hits) >= 8, f"only {len(hits)}/10 injected faults detected"
        assert len(false_positives) <= 5, f"{len(false_positives)} false positives"

        # every detection whose provenance covers an injected index must have
        # been corrected to exactly that index
        tm = result.matrix
        evt_dets = [d for d in result.detections if d.trigger == "evt"]
        flagged_rows = np.nonzero(result.evt_row_flags)[0]
        assert len(evt_dets) == len(flagged_rows)
        for det, row in zip(evt_dets, flagged_rows):
            overlap = [
                p for p in tm.provenance(int(row))
                if int(ms.timestamps[p]) in injected_ts
            ]
            if overlap:
                assert det.timestamp == int(ms.timestamps[overlap[0]]), (
                    f"detection at {det.timestamp} not corrected to injected index"
                )


SANDY_CREEK_ENV = "DRIFTGUARD_SANDY_CREEK_CSV"


@pytest.mark.skipif(
    SANDY_CREEK_ENV not in os.environ,
    reason=f"field dataset not supplied; set {SANDY_CREEK_ENV} to a CSV with "
    "turbidity/conductivity/level plus *_label columns (environment-dependent, "
    "not CI-blocking)",
)
def test_criterion_7_field_dataset_optional():
    """T-C-L / one-sided / distance-sum on Sandy Creek within +-2 counts per cell."""
    with criterion(7, "field dataset reproduction", budget_s=None):
        ms = dg.ingest_csv(os.environ[SANDY_CREEK_ENV], site="sandy creek")
        pcfg = PipelineConfig(
            variables=("turbidity", "conductivity", "level"),
            transform=TransformKind.ONE_SIDED_DERIVATIVE,
            scoring=ScoringConfig(method=Method.KNN_SUM, k=10),
            rules=dg.RuleConfig(ranges={}, max_gap_minutes=180.0),
        )
        result = run_detection(ms, pcfg)
        cm = dg.confusion(result.predicted, dg.ground_truth(ms))
        expected = {"tn": 5394, "fn": 2, "fp": 1, "tp": 5}
        for cell, want in expected.items():
            got = getattr(cm, cell)
            assert abs(got - want) <= 2, f"{cell}: {got} vs {want} (+-2)"


def _strip_timing(report_path: Path) -> list[list[str]]:
    with open(report_path) as fh:
        return [row[:-3] for row in csv.reader(fh)]


def test_criterion_8_evaluate_determinism(tmp_path):
    """Two identical evaluate runs agree byte-for-byte outside timing columns."""
    with criterion(8, "evaluate determinism", budget_s=None):
        import json

        cfg = {
            "synth": {
                "n_points": 800,
                "gap_minutes": [10, 170],
                "base": {
                    "turbidity": {"level": 20.0, "amplitude": 5.0, "period": 400.0, "noise_sd": 0.1},
                    "conductivity": {"level": 300.0, "amplitude": 40.0, "period": 600.0, "noise_sd": 1.5},
                },
                "faults": [
                    {"variable": "turbidity", "index": 200, "kind": "spike", "magnitude": 140},
                    {"variable": "conductivity", "index": 500, "kind": "drop", "magnitude": 220},
                ],
            },
            "grid": {
                "variable_sets": [["turbidity", "conductivity"]],
                "transforms": ["one_sided_derivative", "original"],
                "methods": ["KNN-SUM", "HDoutliers", "LOF"],
            },
            "seed": 21,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        data = tmp_path / "data.csv"
        assert cli_main(["synth", "--config", str(cfg_path), "--out", str(data), "--seed", "21"]) == 0

        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            code = cli_main([
                "evaluate", "--input", str(data), "--config", str(cfg_path),
                "--out-dir", str(out), "--reps", "3",
            ])
            assert code == 0
        assert _strip_timing(out1 / "report.csv") == _strip_timing(out2 / "report.csv")
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

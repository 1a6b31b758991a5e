import math
import os
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftguard import (
    Combo,
    ConfusionMatrix,
    DataError,
    Method,
    ScoringConfig,
    TransformKind,
    benchmark,
    confusion,
    grid_evaluate,
    metrics,
    neighbors,
    write_report_csv,
)
from driftguard.errors import ConfigError
from driftguard.evaluation import REPORT_COLUMNS, EvaluationReport, MetricSet, TimingStats


class TestConfusion:
    def test_perfect_prediction(self):
        truth = np.zeros(5402, dtype=bool)
        truth[:6] = True
        cm = confusion(truth.copy(), truth)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (6, 0, 0, 5396)

    def test_all_typical_prediction(self):
        truth = np.zeros(100, dtype=bool)
        truth[:6] = True
        cm = confusion(np.zeros(100, dtype=bool), truth)
        assert cm.fn == 6 and cm.tp == 0

    def test_hand_tally_with_swaps(self):
        truth = np.array([1, 1, 0, 0, 0, 1], dtype=bool)
        pred = np.array([1, 0, 1, 0, 0, 1], dtype=bool)
        cm = confusion(pred, truth)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 1, 2)
        assert cm.total == 6

    def test_misaligned_lengths(self):
        with pytest.raises(DataError):
            confusion(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))


class TestMetrics:
    def test_balanced_identities(self):
        m = metrics(ConfusionMatrix(tp=5, fp=1, fn=2, tn=5394))
        assert m.accuracy == pytest.approx(0.9994, abs=5e-5)
        assert m.gm == pytest.approx(math.sqrt(5 * 5394))
        assert m.op == pytest.approx(0.8329, abs=5e-5)
        assert m.ppv == pytest.approx(5 / 6)
        assert m.npv == pytest.approx(5394 / 5396)

    def test_zero_tp_gives_nan_ppv_negative_op(self):
        m = metrics(ConfusionMatrix(tp=0, fp=0, fn=6, tn=5396))
        assert math.isnan(m.ppv)
        assert m.gm == 0.0
        assert m.op == pytest.approx(-0.0011, abs=5e-5)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            metrics(ConfusionMatrix(0, 0, 0, 0))

    @given(
        st.integers(0, 500), st.integers(0, 500),
        st.integers(0, 500), st.integers(0, 5000),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            return
        m = metrics(ConfusionMatrix(tp, fp, fn, tn))
        assert m.accuracy + m.er == pytest.approx(1.0, abs=1e-12)
        assert (m.gm == 0.0) == (tp == 0 or tn == 0)
        if not math.isnan(m.op):
            assert m.op <= m.accuracy + 1e-12
            sn = tp / (tp + fn) if tp + fn else math.nan
            sp = tn / (tn + fp) if tn + fp else math.nan
            if not math.isnan(sn) and not math.isnan(sp) and sn == sp:
                assert m.op == pytest.approx(m.accuracy)


class TestBenchmark:
    def test_order_statistics(self):
        stats = benchmark(lambda: time.sleep(0.001), repetitions=5)
        assert stats.min_t <= stats.mu_t <= stats.max_t
        assert stats.min_t >= 1.0  # slept a millisecond

    def test_single_repetition_rejected(self):
        with pytest.raises(ConfigError):
            benchmark(lambda: None, repetitions=1)

    def test_mean_within_bounds(self):
        stats = benchmark(lambda: sum(range(1000)), repetitions=10)
        assert stats.min_t <= stats.mu_t <= stats.max_t


class TestGrid:
    def combos(self):
        return [
            Combo(("turbidity", "conductivity"), TransformKind.ONE_SIDED_DERIVATIVE, Method.KNN_SUM),
            Combo(("turbidity", "conductivity"), TransformKind.ORIGINAL, Method.KNN_SUM),
        ]

    def test_reports_sorted_by_op(self, labeled_synth):
        reports = grid_evaluate(labeled_synth, self.combos(), repetitions=3)
        assert len(reports) == 2
        ops = [r.metric_set.op for r in reports if r.metric_set]
        finite = [o for o in ops if not math.isnan(o)]
        assert finite == sorted(finite, reverse=True)

    def test_per_combo_failure_isolated(self, labeled_synth):
        bad = Combo(("turbidity",), TransformKind.ORIGINAL, Method.KNN_SUM)
        good = self.combos()[0]
        # sabotage: k larger than the cloud forces a per-combo error
        from driftguard import ScoringConfig
        reports = grid_evaluate(
            labeled_synth,
            [good, bad],
            scoring_base=ScoringConfig(k=10_000),
            repetitions=3,
        )
        assert all(r.error for r in reports)  # both fail with k too large
        reports = grid_evaluate(labeled_synth, [good, bad], repetitions=3)
        assert not any(r.error for r in reports)

    def paper_grid(self):
        # two variable sets x three transforms x eight methods: six clouds
        var_sets = [("turbidity", "conductivity"), ("turbidity",)]
        kinds = [
            TransformKind.ONE_SIDED_DERIVATIVE,
            TransformKind.FIRST_DERIVATIVE,
            TransformKind.ORIGINAL,
        ]
        return [Combo(vs, kind, method) for vs in var_sets for kind in kinds for method in Method]

    def test_every_report_counts_run_detections_predictions(self, labeled_synth):
        from driftguard import PipelineConfig, ground_truth, run_detection

        truth = ground_truth(labeled_synth)
        reports = grid_evaluate(labeled_synth, self.paper_grid(), repetitions=3)
        assert len(reports) == 48
        for report in reports:
            c = report.combo
            pcfg = PipelineConfig(c.variables, c.transform, scoring=ScoringConfig(method=c.method))
            assert report.cm == confusion(run_detection(labeled_synth, pcfg).predicted, truth), c

    def test_knn_runs_once_per_cloud(self, labeled_synth, monkeypatch):
        from driftguard import PipelineConfig, neighbors, pipeline

        sizes = []
        real_knn = neighbors.knn

        def counted(cloud, k):
            sizes.append(len(cloud))
            return real_knn(cloud, k)

        monkeypatch.setattr(neighbors, "knn", counted)
        combos = self.paper_grid()
        full = {
            len(pipeline.prepare_cloud(labeled_synth, PipelineConfig(c.variables, c.transform)).cloud)
            for c in combos
        }
        grid_evaluate(labeled_synth, combos, repetitions=3)
        # HDoutliers' exemplar queries run on far fewer points than a full cloud
        assert sum(n in full for n in sizes) == 6

    def test_knn_combos_time_the_clouds_knn(self, labeled_synth, monkeypatch):
        # min_t/mu_t/max_t add the group's one knn to its kNN methods only;
        # HDoutliers' k = 1 kNN over its exemplars is not the cloud's lists
        from driftguard import neighbors

        real_knn = neighbors.knn

        def slow_knn(cloud, k):
            if k == ScoringConfig().k:
                time.sleep(0.2)
            return real_knn(cloud, k)

        monkeypatch.setattr(neighbors, "knn", slow_knn)
        variables, kind = ("turbidity", "conductivity"), TransformKind.ONE_SIDED_DERIVATIVE
        combos = [Combo(variables, kind, m) for m in (Method.KNN_SUM, Method.HDOUTLIERS)]
        by_method = {
            r.combo.method: r.timing
            for r in grid_evaluate(labeled_synth, combos, repetitions=3, max_workers=1)
        }
        assert by_method[Method.KNN_SUM].min_t >= 200.0
        assert by_method[Method.HDOUTLIERS].max_t < 200.0

    def test_hdoutliers_combos_time_the_exemplar_knn(self, labeled_synth, monkeypatch):
        # HDoutliers' k = 1 kNN over its exemplars is a kept build it reads,
        # so min_t/mu_t/max_t add it to HDoutliers only
        from driftguard import neighbors

        real_knn = neighbors.knn

        def slow_exemplar_knn(cloud, k):
            if k == 1:
                time.sleep(0.2)
            return real_knn(cloud, k)

        monkeypatch.setattr(neighbors, "knn", slow_exemplar_knn)
        variables, kind = ("turbidity", "conductivity"), TransformKind.ONE_SIDED_DERIVATIVE
        combos = [Combo(variables, kind, m) for m in (Method.KNN_SUM, Method.HDOUTLIERS)]
        by_method = {
            r.combo.method: r.timing
            for r in grid_evaluate(labeled_synth, combos, repetitions=3, max_workers=1)
        }
        assert by_method[Method.HDOUTLIERS].min_t >= 200.0
        assert by_method[Method.HDOUTLIERS].max_t < 400.0  # counted once: in the build, not the samples
        assert by_method[Method.KNN_SUM].max_t < 200.0

    def test_leader_runs_once_per_cloud(self, labeled_synth, monkeypatch):
        from driftguard import neighbors

        calls = []
        real_leader = neighbors.leader

        def counted(cloud, radius):
            calls.append(len(cloud))
            return real_leader(cloud, radius)

        monkeypatch.setattr(neighbors, "leader", counted)
        grid_evaluate(labeled_synth, self.paper_grid(), repetitions=3)
        assert len(calls) == 6

    def test_hdoutliers_combos_time_the_clouds_clustering(self, labeled_synth, monkeypatch):
        # min_t/mu_t/max_t add the group's one clustering to HDoutliers only
        from driftguard import neighbors

        real_leader = neighbors.leader

        def slow_leader(cloud, radius):
            time.sleep(0.2)
            return real_leader(cloud, radius)

        monkeypatch.setattr(neighbors, "leader", slow_leader)
        variables, kind = ("turbidity", "conductivity"), TransformKind.ONE_SIDED_DERIVATIVE
        combos = [Combo(variables, kind, m) for m in (Method.KNN_SUM, Method.HDOUTLIERS)]
        by_method = {
            r.combo.method: r.timing
            for r in grid_evaluate(labeled_synth, combos, repetitions=3, max_workers=1)
        }
        assert by_method[Method.HDOUTLIERS].min_t >= 200.0
        assert by_method[Method.KNN_SUM].max_t < 200.0

    def test_hood_values_built_once_per_cloud_and_kind(self, labeled_synth, monkeypatch):
        from collections import Counter

        from driftguard import neighbors

        builds = []
        real_map = neighbors.hood_map

        def counted(cloud, nl, reduce):
            builds.append(reduce.__name__)
            return real_map(cloud, nl, reduce)

        monkeypatch.setattr(neighbors, "hood_map", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # more workers than cores: a cloud shared between workers, or
            # dropped before its last combo, would build its values again
            reports = grid_evaluate(labeled_synth, self.paper_grid(), repetitions=3, max_workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert not any(r.error for r in reports)
        # COF's and LDOF's 4 runs on each of the six clouds each build once
        assert Counter(builds) == {"_chain_dists": 6, "_pair_sums": 6}

    @pytest.mark.parametrize("slowed", [Method.COF, Method.LDOF], ids=lambda m: m.value)
    def test_cof_and_ldof_each_time_their_own_build(self, slowed, labeled_synth, monkeypatch):
        # min_t/mu_t/max_t add the slowed method's one build to it alone,
        # though the first of its warm-up runs is what builds it; the other
        # methods' runs on the cloud are not held up while it is built
        from driftguard import neighbors, scoring

        real_map = neighbors.hood_map
        slow_reduce = {Method.COF: scoring._chain_dists, Method.LDOF: scoring._pair_sums}[slowed]

        def slow_map(cloud, nl, reduce):
            if reduce is slow_reduce:
                time.sleep(0.2)
            return real_map(cloud, nl, reduce)

        monkeypatch.setattr(neighbors, "hood_map", slow_map)
        variables, kind = ("turbidity", "conductivity"), TransformKind.ONE_SIDED_DERIVATIVE
        methods = (Method.KNN_SUM, Method.HDOUTLIERS, Method.COF, Method.LDOF)
        by_method = {
            r.combo.method: r.timing
            for r in grid_evaluate(
                labeled_synth, [Combo(variables, kind, m) for m in methods], repetitions=3
            )
        }
        assert by_method[slowed].min_t >= 200.0
        for method in methods:
            if method is not slowed:
                assert by_method[method].max_t < 200.0

    def test_interleaved_cof_and_ldof_clouds_report_as_serial(self, tmp_path):
        # COF and LDOF on four clouds, the caller's order visiting every cloud
        # before any cloud's second method, run by two workers
        from driftguard import BaseSignal, FaultSpec, SynthConfig, synth_series

        n, k = 1500, 30
        cfg = SynthConfig(
            n_points=n,
            base={
                "turbidity": BaseSignal(20.0, 5.0, 400.0, 0.1),
                "conductivity": BaseSignal(300.0, 40.0, 600.0, 1.5),
                "level": BaseSignal(1.0, 0.2, 300.0, 0.05),
            },
            faults=(
                FaultSpec("turbidity", 500, "spike", 150.0),
                FaultSpec("conductivity", 1000, "drop", 220.0),
            ),
        )
        ms = synth_series(cfg, seed=7)
        var_sets = [
            ("turbidity", "conductivity"),
            ("turbidity", "level"),
            ("conductivity", "level"),
            ("turbidity", "conductivity", "level"),
        ]
        pairs = [(Method.COF, Method.LDOF), (Method.LDOF, Method.COF)] * 2
        kind = TransformKind.ORIGINAL
        combos = [Combo(vs, kind, first) for vs, (first, _) in zip(var_sets, pairs)]
        combos += [Combo(vs, kind, second) for vs, (_, second) in zip(var_sets, pairs)]
        scoring = ScoringConfig(k=k)
        threaded = grid_evaluate(ms, combos, scoring_base=scoring, repetitions=3, max_workers=2)
        serial = grid_evaluate(ms, combos, scoring_base=scoring, repetitions=3, max_workers=1)

        assert not any(r.error for r in threaded)
        written = []
        for name, reports in (("threaded", threaded), ("serial", serial)):
            write_report_csv(reports, tmp_path / f"{name}.csv")
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            written.append([line.split(",")[:14] for line in lines])
        assert written[0] == written[1]

    def test_grid_holds_at_most_workers_clouds(self, labeled_synth, monkeypatch):
        import threading
        import weakref

        from driftguard import evaluation

        lock = threading.Lock()
        alive = [0]
        most = [0]
        real_prepare = evaluation.prepare_cloud

        def gone():
            with lock:
                alive[0] -= 1

        def tracked(ms, cfg):
            prepared = real_prepare(ms, cfg)
            with lock:
                alive[0] += 1
                most[0] = max(most[0], alive[0])
            weakref.finalize(prepared, gone)
            return prepared

        monkeypatch.setattr(evaluation, "prepare_cloud", tracked)
        reports = grid_evaluate(labeled_synth, self.paper_grid(), repetitions=3, max_workers=2)
        assert not any(r.error for r in reports)
        assert most[0] <= 2
        assert alive[0] == 0

    def test_grid_builds_no_detection(self, monkeypatch):
        # the grid reads predictions only; describing a flag builds a Detection
        from driftguard import PipelineConfig, attribution, pipeline, run_detection

        from conftest import make_multiseries

        class Unbuildable:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a Detection was built")

        rng = np.random.default_rng(15)
        names = ("turbidity", "conductivity", "level")
        values = {name: rng.normal(100.0, 5.0, 300) for name in names}
        values["turbidity"][[60, 200]] += 80.0
        labels = {name: np.isin(np.arange(300), [60, 200]) for name in names}
        ms = make_multiseries(values, labels_by_var=labels)
        kinds = [TransformKind.ONE_SIDED_DERIVATIVE, TransformKind.FIRST_DERIVATIVE, TransformKind.ORIGINAL]
        combos = [Combo(names, kind, method) for kind in kinds for method in Method]
        for module in (attribution, pipeline):
            monkeypatch.setattr(module, "Detection", Unbuildable)
        reports = grid_evaluate(ms, combos, repetitions=3)
        assert [r.error for r in reports] == [None] * len(combos)
        assert sum(r.cm.tp + r.cm.fp for r in reports) > 0
        result = run_detection(ms, PipelineConfig(names, TransformKind.FIRST_DERIVATIVE))
        with pytest.raises(AssertionError, match="a Detection was built"):
            result.detections

    def _errors(self, ms, combos, **kwargs):
        return {r.combo.method: r.error for r in grid_evaluate(ms, combos, repetitions=3, **kwargs)}

    def _run_detection_error(self, ms, combo, scoring=ScoringConfig()):
        from driftguard import PipelineConfig, run_detection

        pcfg = PipelineConfig(combo.variables, combo.transform, scoring=replace(scoring, method=combo.method))
        with pytest.raises(DataError) as info:
            run_detection(ms, pcfg)
        return str(info.value)

    def test_k_too_large_fails_the_clouds_knn_combos_only(self, labeled_synth):
        scoring = ScoringConfig(k=10_000)
        combos = [Combo(("turbidity",), TransformKind.ORIGINAL, m) for m in Method]
        errors = self._errors(labeled_synth, combos, scoring_base=scoring)
        assert errors.pop(Method.HDOUTLIERS) is None
        for combo in combos[1:]:
            assert errors[combo.method] == self._run_detection_error(labeled_synth, combo, scoring)
            assert "must be smaller than the cloud size" in errors[combo.method]

    def test_ldof_with_k_1_fails_alone(self, labeled_synth):
        combos = [Combo(("turbidity",), TransformKind.ORIGINAL, m) for m in Method]
        errors = self._errors(labeled_synth, combos, scoring_base=ScoringConfig(k=1))
        assert errors.pop(Method.LDOF) == "LDOF needs k >= 2"
        assert set(errors.values()) == {None}

    @pytest.mark.parametrize("n_rows", [1, 2])
    def test_cloud_of_fewer_than_two_rows_fails_every_combo(self, n_rows):
        # first differences leave n_rows - 1 rows: 0 fails in normalize, 1 in score
        from conftest import make_multiseries

        ms = make_multiseries({"turbidity": [1.0, 3.0][:n_rows]}, labels_by_var={"turbidity": [0, 1][:n_rows]})
        combos = [Combo(("turbidity",), TransformKind.FIRST_DERIVATIVE, m) for m in Method]
        errors = self._errors(ms, combos)
        expected = {self._run_detection_error(ms, c) for c in combos}
        assert len(expected) == 1
        assert set(errors.values()) == expected

    def test_too_few_repetitions_refused_before_any_combo(self, labeled_synth, monkeypatch):
        from driftguard import evaluation

        calls = []
        for name in ("prepare_cloud", "detect_on_cloud"):
            monkeypatch.setattr(evaluation, name, lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="3 repetitions"):
            grid_evaluate(labeled_synth, self.combos(), repetitions=2)
        assert calls == []

    def test_sides_reach_every_combo(self, labeled_synth):
        from driftguard import PipelineConfig, ground_truth, run_detection

        flipped = {"turbidity": "keep_positive", "conductivity": "keep_negative"}
        combo = self.combos()[0]
        (report,) = grid_evaluate(labeled_synth, [combo], sides=flipped, repetitions=3)
        pcfg = PipelineConfig(combo.variables, combo.transform, sides=flipped)
        expected = run_detection(labeled_synth, pcfg).predicted
        assert report.cm == confusion(expected, ground_truth(labeled_synth))

    def test_duplicate_combos_identical_metrics(self, labeled_synth):
        combo = self.combos()[0]
        reports = grid_evaluate(labeled_synth, [combo, combo], repetitions=3)
        a, b = reports
        assert a.cm == b.cm
        assert a.metric_set == b.metric_set

    @pytest.mark.parametrize("workers", [4, 8])  # 8: more workers than the six clouds
    def test_results_independent_of_worker_count(self, labeled_synth, workers):
        combos = self.paper_grid()
        serial = grid_evaluate(labeled_synth, combos, repetitions=3, max_workers=1)
        threaded = grid_evaluate(labeled_synth, combos, repetitions=3, max_workers=workers)
        assert len(serial) == len(threaded) == 48
        for a, b in zip(serial, threaded):
            assert a.combo == b.combo
            assert a.cm == b.cm
            assert a.metric_set == b.metric_set
            assert a.error == b.error

    def test_no_timed_build_includes_the_kd_tree_import(self):
        # knn imports scipy's kd-tree on first use; in a fresh process the
        # grid imports it first, so no cloud's build time carries the import
        code = textwrap.dedent("""
            import sys
            from driftguard import Combo, Method, TransformKind, grid_evaluate, neighbors, synth_series
            from driftguard.core import BaseSignal, FaultSpec, SynthConfig
            imported = []
            real = neighbors.knn
            def knn(cloud, k):
                imported.append("scipy.spatial" in sys.modules)
                return real(cloud, k)
            neighbors.knn = knn
            assert "scipy.spatial" not in sys.modules
            combo = Combo(("turbidity",), TransformKind.ORIGINAL, Method.KNN_SUM)
            cfg = SynthConfig(
                n_points=200,
                base={"turbidity": BaseSignal(20.0, 5.0, 400.0, 0.1)},
                faults=(FaultSpec("turbidity", 150, "spike", 150.0),),
            )
            grid_evaluate(synth_series(cfg, seed=7), [combo], repetitions=3)
            sys.exit(0 if imported and all(imported) else 1)
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0

    def test_knn_in_a_grid_worker_runs_its_blocks_inline(self, labeled_synth, monkeypatch):
        # kNN splits each cloud into many blocks, yet the two-cloud grid
        # creates only its own pool: its workers run knn inline
        monkeypatch.setenv("DRIFTGUARD_THREADS", "2")
        monkeypatch.setattr(neighbors, "_BLOCK", 8)
        pools = []
        real = neighbors.ThreadPoolExecutor

        def spy(*args, **kwargs):
            pools.append(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(neighbors, "ThreadPoolExecutor", spy)
        grid_evaluate(labeled_synth, self.combos(), repetitions=3, max_workers=2)
        assert pools == [threading.main_thread()]
        # a one-cloud grid runs inline, so its knn gets the pool
        pools.clear()
        grid_evaluate(labeled_synth, self.combos()[:1], repetitions=3, max_workers=2)
        assert pools and set(pools) == {threading.main_thread()}

    def test_report_csv_columns(self, labeled_synth, tmp_path):
        reports = grid_evaluate(labeled_synth, self.combos(), repetitions=3)
        out = tmp_path / "report.csv"
        write_report_csv(reports, out)
        header = out.read_text().splitlines()[0].split(",")
        assert header == REPORT_COLUMNS

    def test_errored_combo_emits_nan_row(self, labeled_synth, tmp_path):
        from driftguard import ScoringConfig
        reports = grid_evaluate(
            labeled_synth,
            [self.combos()[0]],
            scoring_base=ScoringConfig(k=10_000),  # forces a per-combo failure
            repetitions=3,
        )
        assert reports[0].error
        out = tmp_path / "report.csv"
        write_report_csv(reports, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[4:] == ["NaN"] * 13

    def test_report_csv_exact_bytes(self, tmp_path):
        pair = ("turbidity", "conductivity")
        cm = ConfusionMatrix(tp=3, fp=2, fn=1, tn=94)
        reports = [
            EvaluationReport(
                Combo(pair, TransformKind.FIRST_DERIVATIVE, Method.KNN_SUM), cm,
                MetricSet(0.97, 0.03, 16.792855623746664, 0.72265625, 0.6, 0.9894736842105263),
                TimingStats(1.234, 5.678, 10.0),
            ),
            EvaluationReport(
                Combo(("level",), TransformKind.ORIGINAL, Method.COF), None, None, None,
                error="boom",
            ),
            EvaluationReport(
                Combo(pair, TransformKind.ONE_SIDED_DERIVATIVE, Method.LOF), cm,
                MetricSet(0.5, 0.5, 2.0, 0.25, 0.125, 0.99995), None,
            ),
            EvaluationReport(
                Combo(pair, TransformKind.LOG, Method.HDOUTLIERS), ConfusionMatrix(0, 0, 2, 98),
                MetricSet(0.98, 0.02, 0.0, math.nan, math.nan, 0.98),
                TimingStats(0.004, 0.005, 0.006),
            ),
        ]
        out = tmp_path / "report.csv"
        write_report_csv(reports, out)
        assert out.read_bytes() == (
            b"i,Variables,Transformation,Method,TN,FN,FP,TP,"
            b"Accuracy,ER,GM,OP,PPV,NPV,min_t,mu_t,max_t\r\n"
            b"1,turbidity-conductivity,first_derivative,KNN-SUM,94,1,2,3,"
            b"0.9700,0.0300,16.7929,0.7227,0.6000,0.9895,1.23,5.68,10.00\r\n"
            b"2,level,original,COF," + b",".join([b"NaN"] * 13) + b"\r\n"
            b"3,turbidity-conductivity,one_sided_derivative,LOF,94,1,2,3,"
            b"0.5000,0.5000,2.0000,0.2500,0.1250,1.0000,,,\r\n"
            b"4,turbidity-conductivity,log,HDoutliers,98,2,0,0,"
            b"0.9800,0.0200,0.0000,NaN,NaN,0.9800,0.00,0.01,0.01\r\n"
        )

    def test_unlabeled_input_rejected(self):
        from conftest import make_multiseries
        ms = make_multiseries({"turbidity": np.ones(20)})
        with pytest.raises(DataError):
            grid_evaluate(ms, self.combos(), repetitions=3)

    def test_full_48_combo_grid_emits_48_rows(self, labeled_synth, tmp_path):
        combos = self.paper_grid()
        assert len(combos) == 48
        reports = grid_evaluate(labeled_synth, combos, repetitions=3)
        assert len(reports) == 48
        assert not any(r.error for r in reports)
        out = tmp_path / "grid.csv"
        write_report_csv(reports, out)
        assert len(out.read_text().splitlines()) == 49

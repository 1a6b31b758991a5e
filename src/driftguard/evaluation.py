"""Confusion-matrix metrics for imbalanced classes, timing, and the combo grid.

Optimized precision is accuracy penalized by the normalized imbalance between
sensitivity and specificity; it is the headline ranking metric. 0/0 ratios are
reported as NaN rather than coerced.

The grid is evaluated by cloud: combos sharing (variables, transform) share
one rules -> transform -> normalize build. The cloud keeps its own kNN lists
and Leader clustering; the grid builds each one it needs once, before any
combo runs. COF's and LDOF's neighborhood distance block is built by the
first of their runs that reads it. Each combo then runs only the per-method
stages of ``pipeline.detect_on_cloud`` on that shared cloud, and reads its
prediction; no flag is ever described. Combos run grouped by cloud, and each
cloud is dropped after its last combo.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import GroundTruthVector, MultiSeries, ground_truth, write_csv
from .errors import ConfigError, DataError, DriftguardError
from .pipeline import (
    PipelineConfig,
    PreparedCloud,
    detect_on_cloud,
    distinct_variables,
    prepare_cloud,
)
from .scoring import Method, ScoringConfig, kept_reads
from .threshold import ThresholdConfig
from .transforms import TransformKind

REPORT_COLUMNS = [
    "i", "Variables", "Transformation", "Method",
    "TN", "FN", "FP", "TP",
    "Accuracy", "ER", "GM", "OP", "PPV", "NPV",
    "min_t", "mu_t", "max_t",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise DataError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    er: float
    gm: float
    op: float
    ppv: float
    npv: float


def confusion(pred: np.ndarray, truth: GroundTruthVector | np.ndarray) -> ConfusionMatrix:
    """Tally predictions against ground truth (outlier = positive class)."""
    t = np.asarray(truth.flags if isinstance(truth, GroundTruthVector) else truth, dtype=bool)
    p = np.asarray(pred, dtype=bool)
    if len(t) != len(p):
        raise DataError(f"prediction length {len(p)} != truth length {len(t)}")
    return ConfusionMatrix(
        tp=int((p & t).sum()),
        fp=int((p & ~t).sum()),
        fn=int((~p & t).sum()),
        tn=int((~p & ~t).sum()),
    )


def _ratio(num: int, den: int) -> float:
    return num / den if den else math.nan


def metrics(cm: ConfusionMatrix) -> MetricSet:
    """Accuracy, error rate, geometric mean, optimized precision, PPV, NPV."""
    if cm.total == 0:
        raise DataError("empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    er = (cm.fp + cm.fn) / cm.total
    gm = math.sqrt(cm.tp * cm.tn)
    sn = _ratio(cm.tp, cm.tp + cm.fn)
    sp = _ratio(cm.tn, cm.tn + cm.fp)
    denom = sp + sn
    op = accuracy - abs(sp - sn) / denom if denom else math.nan
    return MetricSet(
        accuracy=accuracy,
        er=er,
        gm=gm,
        op=op,
        ppv=_ratio(cm.tp, cm.tp + cm.fp),
        npv=_ratio(cm.tn, cm.fn + cm.tn),
    )


@dataclass(frozen=True)
class TimingStats:
    min_t: float  # milliseconds
    mu_t: float
    max_t: float


def _check_repetitions(repetitions: int) -> None:
    if repetitions < 3:
        raise ConfigError("benchmark needs at least 3 repetitions")


def benchmark(run: Callable[[], object], repetitions: int) -> TimingStats:
    """Wall-clock stats over ``repetitions`` calls, one warm-up call excluded."""
    _check_repetitions(repetitions)
    run()
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        run()
        samples.append((time.perf_counter() - start) * 1000.0)
    return TimingStats(min_t=min(samples), mu_t=sum(samples) / len(samples), max_t=max(samples))


@dataclass(frozen=True)
class Combo:
    variables: tuple[str, ...]
    transform: TransformKind
    method: Method

    def __post_init__(self):
        object.__setattr__(self, "variables", distinct_variables(self.variables, "combo"))

    @property
    def variables_id(self) -> str:
        return "-".join(self.variables)


@dataclass(frozen=True)
class EvaluationReport:
    combo: Combo
    cm: ConfusionMatrix | None
    metric_set: MetricSet | None
    timing: TimingStats | None
    error: str | None = None


def _sort_key(report: EvaluationReport):
    op = report.metric_set.op if report.metric_set else math.nan
    sinks = 1 if (report.error or math.isnan(op)) else 0
    return (
        sinks,
        -(op if not math.isnan(op) else 0.0),
        report.combo.variables_id,
        report.combo.transform.value,
        report.combo.method.value,
    )


@dataclass(frozen=True)
class _Cloud:
    """One (variables, transform) group's shared build, or the error that stopped it."""

    pcfg: PipelineConfig | None = None
    prepared: PreparedCloud | None = None
    build_ms: float = 0.0  # rules + transform + normalize
    error: str | None = None


def _cloud_key(combo: Combo) -> tuple:
    return tuple(combo.variables), combo.transform


def _warm(build: Callable[[object], object], arg) -> None:
    """Make a cloud's kept build ``build(arg)`` now; the cloud records its time."""
    try:
        build(arg)
    except DriftguardError:
        pass  # not kept: each combo's own score() call raises it, as run_detection does


def _map(fn, items: list, workers: int) -> list:
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def grid_evaluate(
    ms: MultiSeries,
    combos: Sequence[Combo],
    *,
    scoring_base: ScoringConfig = ScoringConfig(),
    threshold_cfg: ThresholdConfig = ThresholdConfig(),
    rule_cfg=None,
    sides=None,
    repetitions: int = 3,
    max_workers: int | None = None,
) -> list[EvaluationReport]:
    """Run the full pipeline for every combo and rank reports by OP descending.

    ``sides`` is the one-sided transform's side map, as in ``PipelineConfig``.
    Combos sharing (variables, transform) share one cloud: rules ->
    transform -> normalize run once for them. The cloud keeps its kNN lists,
    built once if any of them is a kNN method, and its Leader clustering,
    built once if any is HDoutliers. COF and LDOF also share the cloud's
    neighborhood distance block, built by the first of their runs.
    Every report counts the same predictions as ``run_detection`` would for
    its combo.

    Timing: each combo's per-method stages (score -> EVT threshold -> flag
    location -> combine) run once untimed, which supplies the confusion
    matrix, then ``repetitions`` times timed. No flag is described: the
    grid never reads ``DetectionResult.detections``. ``min_t/mu_t/max_t``
    are those samples plus the group's one-off build, measured once: rules
    + transform + normalize, plus the kept builds the method reads, as
    the cloud recorded them: ``knn`` for the kNN methods, and the distance
    block as well for COF and LDOF, or the Leader clustering for
    HDoutliers. So each still reads as the chain from the raw series.

    Per-combo failures are captured in the report rather than aborting the
    grid; too few repetitions is refused before any combo runs. NaN-OP and
    failed rows sink to the bottom; ties order lexicographically by
    (variables, transformation, method).
    """
    _check_repetitions(repetitions)
    truth = ground_truth(ms)
    workers = max_workers or thread_cap() or min(4, len(combos)) or 1
    knn_keys = {_cloud_key(c) for c in combos if c.method is not Method.HDOUTLIERS}
    leader_keys = {_cloud_key(c) for c in combos if c.method is Method.HDOUTLIERS}

    def build(key) -> _Cloud:
        variables, transform = key
        try:
            pcfg = PipelineConfig(
                variables=variables,
                transform=transform,
                scoring=scoring_base,
                threshold=threshold_cfg,
                rules=rule_cfg,
                sides=sides,
            )
            start = time.perf_counter()
            prepared = prepare_cloud(ms, pcfg)
            build_ms = (time.perf_counter() - start) * 1000.0
        except Exception as exc:  # every combo of the group reports it
            return _Cloud(error=str(exc))
        if key in knn_keys:
            _warm(prepared.cloud.neighbors, scoring_base.k)
        if key in leader_keys:
            _warm(prepared.cloud.clusters, scoring_base.leader_radius)
        return _Cloud(pcfg, prepared, build_ms)

    # Every cloud is built, with its kNN lists and Leader clustering, before
    # any combo runs; the pool's unit is then the combo. COF's and LDOF's
    # distance block, (k+1)^2 floats per point, is not built here: one per
    # cloud alive at once would outweigh the rest of the grid. The combos run
    # grouped by cloud, in first-appearance order (the reports are sorted
    # afterwards), and each cloud is dropped, kept builds and all, when its
    # last combo finishes. So about ``workers`` blocks are alive at once.
    by_cloud: dict[tuple, list[Combo]] = {}
    for combo in combos:
        by_cloud.setdefault(_cloud_key(combo), []).append(combo)
    clouds = dict(zip(by_cloud, _map(build, list(by_cloud), workers)))
    left = {key: len(group) for key, group in by_cloud.items()}
    left_lock = threading.Lock()

    def run_one(combo: Combo) -> EvaluationReport:
        key = _cloud_key(combo)
        try:
            return measure(combo, clouds[key])
        finally:
            with left_lock:
                left[key] -= 1
                if not left[key]:
                    del clouds[key]

    def measure(combo: Combo, group: _Cloud) -> EvaluationReport:
        if group.error is not None:
            return EvaluationReport(combo, None, None, None, error=group.error)
        try:
            pcfg = replace(group.pcfg, scoring=replace(scoring_base, method=combo.method))
            first = []

            def run():
                result = detect_on_cloud(ms, group.prepared, pcfg)
                if not first:
                    first.append(result)

            # benchmark's untimed warm-up run supplies the confusion matrix,
            # and makes any kept build the method reads that is not made yet.
            stages = benchmark(run, repetitions)
            cloud = group.prepared.cloud
            one_off = group.build_ms + sum(
                cloud.build_ms(kind) for kind in kept_reads(combo.method)
            )
            timing = TimingStats(
                stages.min_t + one_off, stages.mu_t + one_off, stages.max_t + one_off
            )
            cm = confusion(first[0].predicted, truth)
            return EvaluationReport(combo, cm, metrics(cm), timing)
        except Exception as exc:  # per-combo isolation
            return EvaluationReport(combo, None, None, None, error=str(exc))

    grouped = [combo for group in by_cloud.values() for combo in group]
    return sorted(_map(run_one, grouped, workers), key=_sort_key)


def thread_cap() -> int | None:
    """Parallelism cap from DRIFTGUARD_THREADS, if set."""
    raw = os.environ.get("DRIFTGUARD_THREADS")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"DRIFTGUARD_THREADS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ConfigError("DRIFTGUARD_THREADS must be at least 1")
    return cap


def _fmt(x: float, places: int = 4) -> str:
    if math.isnan(x):
        return "NaN"
    return f"{x:.{places}f}"


def write_report_csv(reports: Sequence[EvaluationReport], path) -> None:
    """Emit the ranked grid in the fixed report column order."""
    rows = []
    for i, rep in enumerate(reports, start=1):
        if rep.cm is None or rep.metric_set is None:
            row = [
                i, rep.combo.variables_id, rep.combo.transform.value,
                rep.combo.method.value,
            ] + ["NaN"] * 13
        else:
            m = rep.metric_set
            t = rep.timing
            row = [
                i,
                rep.combo.variables_id,
                rep.combo.transform.value,
                rep.combo.method.value,
                rep.cm.tn,
                rep.cm.fn,
                rep.cm.fp,
                rep.cm.tp,
                _fmt(m.accuracy),
                _fmt(m.er),
                _fmt(m.gm),
                _fmt(m.op),
                _fmt(m.ppv),
                _fmt(m.npv),
                _fmt(t.min_t, 2) if t else "",
                _fmt(t.mu_t, 2) if t else "",
                _fmt(t.max_t, 2) if t else "",
            ]
        rows.append(row)
    write_csv(path, REPORT_COLUMNS, rows)

"""Confusion-matrix metrics for imbalanced classes, timing, and the combo grid.

Optimized precision is accuracy penalized by the normalized imbalance between
sensitivity and specificity; it is the headline ranking metric. 0/0 ratios are
reported as NaN rather than coerced.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import GroundTruthVector, MultiSeries, ground_truth
from .errors import ConfigError, DataError
from .scoring import Method, ScoringConfig
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


def benchmark(run: Callable[[], object], repetitions: int) -> TimingStats:
    """Wall-clock stats over ``repetitions`` calls, one warm-up call excluded."""
    if repetitions < 3:
        raise ConfigError("benchmark needs at least 3 repetitions")
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


def grid_evaluate(
    ms: MultiSeries,
    combos: Sequence[Combo],
    *,
    scoring_base: ScoringConfig = ScoringConfig(),
    threshold_cfg: ThresholdConfig = ThresholdConfig(),
    rule_cfg=None,
    repetitions: int = 3,
    max_workers: int | None = None,
) -> list[EvaluationReport]:
    """Run the full pipeline for every combo and rank reports by OP descending.

    Per-combo failures are captured in the report rather than aborting the
    grid. NaN-OP and failed rows sink to the bottom; ties order
    lexicographically by (variables, transformation, method).
    """
    from . import pipeline  # local import: pipeline depends on this module's types

    truth = ground_truth(ms)

    def run_one(combo: Combo) -> EvaluationReport:
        try:
            pcfg = pipeline.PipelineConfig(
                variables=combo.variables,
                transform=combo.transform,
                scoring=replace(scoring_base, method=combo.method),
                threshold=threshold_cfg,
                rules=rule_cfg,
            )
            result = pipeline.run_detection(ms, pcfg)
            cm = confusion(result.predicted, truth)
            timing = benchmark(lambda: pipeline.run_detection(ms, pcfg), repetitions)
            return EvaluationReport(combo, cm, metrics(cm), timing)
        except Exception as exc:  # per-combo isolation
            return EvaluationReport(combo, None, None, None, error=str(exc))

    workers = max_workers or thread_cap() or min(4, len(combos)) or 1
    if workers > 1 and len(combos) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_one, combos))
    else:
        reports = [run_one(c) for c in combos]
    return sorted(reports, key=_sort_key)


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


def write_report_csv(reports: Sequence[EvaluationReport], path, include_timing: bool = True) -> None:
    """Emit the ranked grid in the fixed report column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
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
                    _fmt(t.min_t, 2) if (t and include_timing) else "",
                    _fmt(t.mu_t, 2) if (t and include_timing) else "",
                    _fmt(t.max_t, 2) if (t and include_timing) else "",
                ]
            writer.writerow(row)

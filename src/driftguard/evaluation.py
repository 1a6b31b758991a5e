"""Confusion-matrix metrics for imbalanced classes, timing, and the combo grid.

Optimized precision is accuracy penalized by the normalized imbalance between
sensitivity and specificity; it is the headline ranking metric. 0/0 ratios are
reported as NaN rather than coerced.

The grid is evaluated by cloud: combos sharing (variables, transform) share
one rules -> transform -> normalize build, and the cloud is the unit of work
of ``neighbors.parallel_map``, under the thread budget ``knn`` uses too. One
worker builds the cloud and runs its combos one after another: only the
per-method stages of ``pipeline.detect_on_cloud``, reading each prediction;
no flag is ever described. Inside a worker, ``knn`` runs its blocks inline,
so the threads never multiply; a grid of one cloud runs inline, and its
``knn`` gets the threads. The cloud keeps the builds its methods read
(``scoring.kept_reads`` lists them), each made by the first combo that reads
it, and is dropped when its worker moves on, so at most ``workers`` clouds
are alive at once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import GroundTruthVector, MultiSeries, ground_truth, write_csv
from .errors import ConfigError, DataError
from .neighbors import parallel_map, thread_cap
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
    """Wall-clock stats over exactly ``repetitions`` calls; the caller makes any warm-up call."""
    _check_repetitions(repetitions)
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

    def __str__(self) -> str:
        """The combo as ``evaluate --combo`` spells it: ``turbidity,level:original:LOF``."""
        return f"{','.join(self.variables)}:{self.transform.value}:{self.method.value}"

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


def _cloud_key(combo: Combo) -> tuple:
    return tuple(combo.variables), combo.transform


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
    transform -> normalize run once for them, and so do the cloud's kept
    builds (``scoring.kept_reads``), each made by the first combo that reads it.
    The pool's unit is the cloud: one worker builds it and runs its combos
    one after another, and the cloud is dropped when they are done. The pool
    has ``max_workers`` threads, by default ``neighbors.thread_cap()``.
    Every report counts the same predictions as ``run_detection`` would for
    its combo.

    Timing: each combo's per-method stages (score -> EVT threshold -> flag
    location -> combine) run once untimed, which supplies the confusion
    matrix, then ``repetitions`` times timed. No flag is described: the
    grid never reads ``DetectionResult.detections``. ``min_t/mu_t/max_t``
    are those samples plus the group's one-off build, measured once: rules
    + transform + normalize, plus the kept builds ``kept_reads`` names for
    the method, as the cloud timed them. So each still reads as the chain
    from the raw series.

    Per-combo failures are captured in the report rather than aborting the
    grid; too few repetitions is refused before any combo runs. NaN-OP and
    failed rows sink to the bottom; ties order lexicographically by
    (variables, transformation, method).
    """
    _check_repetitions(repetitions)
    # knn and leader import scipy's kd-tree on first use; import it here, so
    # no cloud's timed build includes the import.
    import scipy.spatial  # noqa: F401

    truth = ground_truth(ms)
    workers = max_workers or thread_cap()

    def run_cloud(group: list[Combo]) -> list[EvaluationReport]:
        variables, transform = _cloud_key(group[0])
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
            return [EvaluationReport(combo, None, None, None, error=str(exc)) for combo in group]
        return [measure(combo, pcfg, prepared, build_ms) for combo in group]

    def measure(
        combo: Combo, pcfg: PipelineConfig, prepared: PreparedCloud, build_ms: float
    ) -> EvaluationReport:
        try:
            pcfg = replace(pcfg, scoring=replace(scoring_base, method=combo.method))
            # The untimed run supplies the confusion matrix, and makes any
            # kept build the method reads that is not made yet.
            cm = confusion(detect_on_cloud(ms, prepared, pcfg).predicted, truth)
            stages = benchmark(lambda: detect_on_cloud(ms, prepared, pcfg), repetitions)
            one_off = build_ms + sum(
                prepared.cloud.build_ms(kind) for kind in kept_reads(combo.method)
            )
            timing = TimingStats(
                stages.min_t + one_off, stages.mu_t + one_off, stages.max_t + one_off
            )
            return EvaluationReport(combo, cm, metrics(cm), timing)
        except Exception as exc:  # per-combo isolation
            return EvaluationReport(combo, None, None, None, error=str(exc))

    by_cloud: dict[tuple, list[Combo]] = {}
    for combo in combos:
        by_cloud.setdefault(_cloud_key(combo), []).append(combo)
    reports = parallel_map(run_cloud, list(by_cloud.values()), workers)
    return sorted((report for group in reports for report in group), key=_sort_key)


def _fmt(x: float, places: int = 4) -> str:
    if math.isnan(x):
        return "NaN"
    return f"{x:.{places}f}"


def write_report_csv(reports: Sequence[EvaluationReport], path) -> None:
    """Emit the ranked grid in the fixed report column order."""
    rows = []
    for i, rep in enumerate(reports, start=1):
        combo = rep.combo
        row = [i, combo.variables_id, combo.transform.value, combo.method.value]
        if rep.cm is None or rep.metric_set is None:
            row += ["NaN"] * 13
        else:
            m, t = rep.metric_set, rep.timing
            row += [rep.cm.tn, rep.cm.fn, rep.cm.fp, rep.cm.tp]
            row += [_fmt(x) for x in (m.accuracy, m.er, m.gm, m.op, m.ppv, m.npv)]
            row += [_fmt(x, 2) for x in (t.min_t, t.mu_t, t.max_t)] if t else [""] * 3
        rows.append(row)
    write_csv(path, REPORT_COLUMNS, rows)

"""One-combo orchestration: rules -> transform -> score -> threshold -> attribution.

The chain has two halves. ``prepare_cloud`` builds what depends only on the
variables, the transform and the rules: rule flags, the transformed matrix
and its normalized cloud. ``detect_on_cloud`` runs the per-method stages on
that: score -> EVT threshold -> flag location -> combined prediction.
The cloud keeps the builds its scorers read (``scoring.kept_reads`` lists
them), so methods run on one prepared cloud share them.
Describing each flag (variable, direction, notes) waits until a caller
reads ``DetectionResult.detections``.
``run_detection`` is their composition; the evaluation grid builds each
cloud once, runs every method of the grid on it, and reads only the
predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .attribution import Detection, FlagLocations, describe_flags, locate_flags
from .core import MultiSeries
from .errors import ConfigError
from .neighbors import PointCloud, normalize
from .rules import MISSING_GAP, NEGATIVE, OUT_OF_RANGE, RuleConfig, RuleFlags, apply_rules
from .scoring import ScoreVector, ScoringConfig, score
from .threshold import ThresholdConfig, ThresholdTrace, combine_flags, evt_flag
from .transforms import Side, TransformKind, TransformedMatrix, build_matrix


def distinct_variables(variables, owner: str) -> tuple[str, ...]:
    """``variables`` as a tuple; a ConfigError if it is empty or names a variable twice."""
    variables = tuple(variables)
    if not variables:
        raise ConfigError(f"{owner} needs at least one variable")
    repeated = sorted({v for v in variables if variables.count(v) > 1})
    if repeated:
        raise ConfigError(f"{owner} names variable(s) {repeated} more than once")
    return variables


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one detection run needs; rules=None skips the rule stage.

    An empty ``variables`` runs every variable of the series.
    """

    variables: tuple[str, ...]
    transform: TransformKind
    scoring: ScoringConfig = ScoringConfig()
    threshold: ThresholdConfig = ThresholdConfig()
    rules: RuleConfig | None = None
    sides: Mapping[str, Side | str] | None = None

    def __post_init__(self):
        variables = tuple(self.variables)
        object.__setattr__(self, "variables", variables and distinct_variables(variables, "pipeline"))


@dataclass(frozen=True)
class DetectionResult:
    rule_flags: RuleFlags | None
    matrix: TransformedMatrix
    scores: ScoreVector
    evt_row_flags: np.ndarray
    trace: ThresholdTrace
    predicted: np.ndarray  # per-timestamp boolean prediction
    located: FlagLocations
    series: MultiSeries = field(repr=False)

    @cached_property
    def detections(self) -> tuple[Detection, ...]:
        """Score detections in flag order, then rule detections; described on first read."""
        evt = describe_flags(self.located, self.matrix, self.series, self.scores.scores)
        rules = _rule_detections(self.rule_flags) if self.rule_flags is not None else []
        return tuple(evt + rules)


def _rule_detections(flags: RuleFlags) -> list[Detection]:
    hits = []
    for rule, cells in ((OUT_OF_RANGE, flags.out_of_range), (NEGATIVE, flags.negative)):
        for i, j in zip(*np.nonzero(cells)):
            hits.append((int(i), flags.variables[j], rule))
    for i in np.nonzero(flags.missing_gap)[0]:
        hits.append((int(i), "", MISSING_GAP))
    hits.sort(key=lambda h: (h[0], h[1]))
    return [
        Detection(int(flags.timestamps[i]), var, f"rule:{rule}", math.nan, "rule")
        for i, var, rule in hits
    ]


@dataclass(frozen=True)
class PreparedCloud:
    """The cloud-building half's output, shared by every method on it."""

    rule_flags: RuleFlags | None
    matrix: TransformedMatrix
    cloud: PointCloud


def prepare_cloud(ms: MultiSeries, cfg: PipelineConfig) -> PreparedCloud:
    """Rules -> transform -> normalize; ``cfg.scoring`` and ``cfg.threshold`` are not read."""
    rule_flags = None
    cleaned = ms
    if cfg.rules is not None:
        rule_flags, cleaned = apply_rules(ms, cfg.rules)
    tm = build_matrix(cleaned, cfg.transform, cfg.variables or None, cfg.sides)
    return PreparedCloud(rule_flags, tm, normalize(tm.points))


def detect_on_cloud(
    ms: MultiSeries, prepared: PreparedCloud, cfg: PipelineConfig
) -> DetectionResult:
    """Score -> EVT threshold -> flag location -> combined prediction on a prepared cloud."""
    rule_flags, tm = prepared.rule_flags, prepared.matrix
    sv = score(prepared.cloud, cfg.scoring)
    row_flags, trace = evt_flag(sv, cfg.threshold)
    located = locate_flags(tm, ms, row_flags)
    predicted = combine_flags(rule_flags, ms.timestamps[located.index], ms.timestamps)
    return DetectionResult(
        rule_flags=rule_flags,
        matrix=tm,
        scores=sv,
        evt_row_flags=row_flags,
        trace=trace,
        predicted=predicted,
        located=located,
        series=ms,
    )


def run_detection(ms: MultiSeries, cfg: PipelineConfig) -> DetectionResult:
    """Run the whole detection chain for one combo on one site's series."""
    return detect_on_cloud(ms, prepare_cloud(ms, cfg), cfg)

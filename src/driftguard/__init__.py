"""driftguard: technical-outlier detection for irregular multivariate sensor series."""

__version__ = "0.1.0"

from .core import (
    BaseSignal,
    FaultSpec,
    GroundTruthVector,
    MultiSeries,
    SensorSeries,
    SynthConfig,
    emit_csv,
    ground_truth,
    ingest_csv,
    synth_series,
)
from .errors import ConfigError, DataError, DriftguardError
from .evaluation import (
    Combo,
    ConfusionMatrix,
    EvaluationReport,
    MetricSet,
    TimingStats,
    benchmark,
    confusion,
    grid_evaluate,
    metrics,
    write_report_csv,
)
from .neighbors import (
    LeaderClustering,
    NeighborLists,
    PointCloud,
    default_leader_radius,
    knn,
    leader,
    normalize,
)
from .pipeline import DetectionResult, PipelineConfig, run_detection
from .rules import RuleConfig, RuleFlags, apply_rules
from .scoring import Method, ScoreVector, ScoringConfig, score
from .threshold import ThresholdConfig, ThresholdTrace, combine_flags, evt_flag
from .transforms import (
    Side,
    TransformKind,
    TransformedMatrix,
    build_matrix,
    transform_column,
)
from .attribution import Detection, attribute_detections, write_detections_csv

__all__ = [
    "__version__",
    "BaseSignal", "FaultSpec", "GroundTruthVector", "MultiSeries", "SensorSeries",
    "SynthConfig", "emit_csv", "ground_truth", "ingest_csv", "synth_series",
    "ConfigError", "DataError", "DriftguardError",
    "Combo", "ConfusionMatrix", "EvaluationReport", "MetricSet", "TimingStats",
    "benchmark", "confusion", "grid_evaluate", "metrics", "write_report_csv",
    "LeaderClustering", "NeighborLists", "PointCloud", "default_leader_radius",
    "knn", "leader", "normalize",
    "DetectionResult", "PipelineConfig", "run_detection",
    "RuleConfig", "RuleFlags", "apply_rules",
    "Method", "ScoreVector", "ScoringConfig", "score",
    "ThresholdConfig", "ThresholdTrace", "combine_flags", "evt_flag",
    "Side", "TransformKind", "TransformedMatrix", "build_matrix", "transform_column",
    "Detection", "attribute_detections", "write_detections_csv",
]

"""Metamorphic properties of the whole chain: a change that should not matter moves nothing."""

from dataclasses import replace

import numpy as np
import pytest

from driftguard import (
    BaseSignal,
    FaultSpec,
    Method,
    PipelineConfig,
    RuleConfig,
    ScoringConfig,
    SynthConfig,
    TransformKind,
    run_detection,
    synth_series,
)

# a day, a few seconds, and back to before 1970
SHIFTS = [86_400, 7, -2_000_000_000]


@pytest.fixture(scope="module")
def series():
    """400 T-C-L rows with a spike, a drop, a level shift and a gap the rules flag."""
    cfg = SynthConfig(
        n_points=400,
        base={
            "turbidity": BaseSignal(20.0, 5.0, 400.0, 0.1),
            "conductivity": BaseSignal(300.0, 40.0, 600.0, 1.5),
            "level": BaseSignal(1.5, 0.3, 800.0, 0.01),
        },
        gap_minutes=(10, 170),
        faults=(
            FaultSpec("turbidity", 80, "spike", 30.0),
            FaultSpec("conductivity", 190, "drop", 150.0),
            FaultSpec("level", 300, "level_shift", 0.5),
        ),
        long_gap_at=250,
        long_gap_minutes=600,
    )
    return synth_series(cfg, seed=4)


def _run_all(ms):
    """Every transform kind x method on ``ms``, with the default rules."""
    rules = RuleConfig(ranges={})
    return {
        (kind, method): run_detection(
            ms, PipelineConfig(ms.variables, kind, ScoringConfig(method=method), rules=rules)
        )
        for kind in TransformKind
        for method in Method
    }


@pytest.fixture(scope="module")
def unshifted(series):
    return _run_all(series)


def _detections(result, shift):
    """Each detection's fields, timestamps taken back by ``shift`` and the score as its bits."""
    return [
        (
            d.timestamp - shift,
            d.variable,
            d.direction,
            np.float64(d.score).tobytes(),
            d.trigger,
            None if d.corrected_from is None else d.corrected_from - shift,
            d.note,
        )
        for d in result.detections
    ]


@pytest.mark.parametrize("shift", SHIFTS)
def test_timestamp_shift_moves_every_detection_by_the_shift(series, unshifted, shift):
    shifted = replace(
        series, series=tuple(replace(s, timestamps=s.timestamps + shift) for s in series.series)
    )
    for key, result in _run_all(shifted).items():
        base = unshifted[key]
        assert result.scores.scores.tobytes() == base.scores.scores.tobytes(), key
        for name in ("tested_scores", "cutoffs", "spacing_scales"):
            assert getattr(result.trace, name).tobytes() == getattr(base.trace, name).tobytes(), key
        assert result.trace.decisions == base.trace.decisions, key
        np.testing.assert_array_equal(result.predicted, base.predicted, err_msg=str(key))
        assert _detections(result, shift) == _detections(base, 0), key


def test_the_shift_series_exercises_rules_and_neighbour_correction(unshifted):
    detections = [d for result in unshifted.values() for d in result.detections]
    assert any(d.trigger == "rule" for d in detections)
    assert any(d.corrected_from is not None for d in detections)

"""Metamorphic properties of the whole chain: a change that should not matter moves nothing."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftguard import (
    BaseSignal,
    ConfigError,
    FaultSpec,
    Method,
    PipelineConfig,
    PointCloud,
    RuleConfig,
    ScoringConfig,
    SynthConfig,
    TransformKind,
    evt_flag,
    run_detection,
    score,
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


def test_an_empty_variable_list_runs_every_variable(series, unshifted):
    rules = RuleConfig(ranges={})
    for key, named in unshifted.items():
        kind, method = key
        if kind not in (TransformKind.ONE_SIDED_DERIVATIVE, TransformKind.ORIGINAL):
            continue
        every = run_detection(series, PipelineConfig((), kind, ScoringConfig(method=method), rules=rules))
        assert every.matrix.variables == series.variables, key
        for name in ("tested_scores", "cutoffs", "spacing_scales"):
            assert getattr(every.trace, name).tobytes() == getattr(named.trace, name).tobytes(), key
        assert every.trace.decisions == named.trace.decisions, key
        np.testing.assert_array_equal(every.predicted, named.predicted, err_msg=str(key))
        assert _detections(every, 0) == _detections(named, 0), key
    with pytest.raises(ConfigError, match=r"pipeline names variable\(s\) \['level'\] more than once"):
        PipelineConfig(("level", "turbidity", "level"), TransformKind.ORIGINAL)


# Scorers whose scores permute bit for bit with the rows of a tie-free cloud.
# HDoutliers is left out: its single-pass Leader clustering depends on the row
# order by design. Clouds with repeated rows are left out too: there a row's
# neighbor list depends on which of its tied copies ranks first.
EXACT_PERMUTERS = (Method.KNN_SUM, Method.KNN_AGG, Method.LOF, Method.COF, Method.LDOF, Method.RKOF)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(12, 80),
    d=st.integers(1, 4),
    k=st.integers(2, 10),
)
@settings(max_examples=100, deadline=None)
def test_a_row_permutation_permutes_every_score(seed, n, d, k):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))  # continuous: no two rows or distances tie
    perm = rng.permutation(n)
    cloud, permuted = PointCloud(pts), PointCloud(pts[perm])
    for method in EXACT_PERMUTERS:
        cfg = ScoringConfig(method=method, k=k)
        base, moved = score(cloud, cfg).scores, score(permuted, cfg).scores
        assert moved.tobytes() == base[perm].tobytes(), method
        np.testing.assert_array_equal(evt_flag(moved)[0], evt_flag(base)[0][perm], err_msg=str(method))
    # INFLO adds each influence space in member-index order, so its sums
    # move in their last bits
    cfg = ScoringConfig(method=Method.INFLO, k=k)
    np.testing.assert_allclose(score(permuted, cfg).scores, score(cloud, cfg).scores[perm], rtol=1e-12)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from driftguard import (
    Method,
    PipelineConfig,
    ScoringConfig,
    TransformKind,
    attribute_detections,
    build_matrix,
    run_detection,
)
from driftguard.attribution import DROP, INDETERMINATE, SHIFT, SPIKE

from conftest import make_multiseries

# Names with a default side, so every transform, one-sided included, builds.
NAMES = ("turbidity", "conductivity", "level")


def attribute(values_by_var, flagged, kind=TransformKind.ORIGINAL):
    """Detections for the cloud rows at the given original indices."""
    ms = make_multiseries(values_by_var)
    tm = build_matrix(ms, kind)
    flags = np.isin(tm.row_index, flagged)
    return attribute_detections(tm, ms, flags, np.arange(len(flags), dtype=float))


def only(values_by_var, index, kind=TransformKind.ORIGINAL):
    (det,) = attribute(values_by_var, [index], kind)
    return det


def timestamp_of(index, n):
    return int(make_multiseries({"x": [0.0] * n}).timestamps[index])


class TestInfluentialVariable:
    def test_dominant_dimension_wins(self, rng):
        typical = rng.normal(0, 1.0, (201, 2))
        typical[100] = [0.01, -5.0]
        det = only({"a": typical[:, 0], "b": typical[:, 1]}, 100)
        assert det.variable == "b"
        assert det.direction == DROP
        assert det.note == ""

    def test_tie_breaks_by_variable_order_with_note(self):
        col = [0.0, 1.0, -1.0, 2.0, -2.0, 3.0]
        det = only({"a": col, "b": col}, 5)
        assert det.variable == "a"
        assert det.note == (
            "near-tie across variables; broken by variable order; "
            "boundary point: no two-sided neighborhood"
        )

    def test_zero_deviation_indeterminate(self):
        det = only({"a": np.zeros(11), "b": np.zeros(11)}, 5)
        assert det.variable == INDETERMINATE
        assert det.direction == INDETERMINATE
        assert det.corrected_from is None
        assert det.note == "no deviation from typical median"

    def test_mad_normalization_rescales(self):
        # dimension a is 100x noisier; the same raw deviation means less there
        rng = np.random.default_rng(0)
        a, b = rng.normal(0, 100.0, 501), rng.normal(0, 1.0, 501)
        a[250] = b[250] = 30.0
        assert only({"a": a, "b": b}, 250).variable == "b"


class TestClassifyDirection:
    def test_spike(self):
        det = only({"x": [10.0, 100.0, 12.0]}, 1)
        assert (det.direction, det.note) == (SPIKE, "")

    def test_drop(self):
        det = only({"x": [10.0, 1.0, 12.0]}, 1)
        assert (det.direction, det.note) == (DROP, "")

    def test_flat_is_shift(self):
        # 20 is the mean of 10, 20, 30 but far from the typical median 0
        det = only({"x": [0.0, 0.0, 0.0, 10.0, 20.0, 30.0]}, 4)
        assert det.variable == "x"
        assert (det.direction, det.note) == (SHIFT, "point equals its local mean")

    def test_boundary_is_shift_with_note(self):
        det = only({"x": [10.0, 11.0, 12.0]}, 0)
        assert det.direction == SHIFT
        assert det.note == "boundary point: no two-sided neighborhood"

    def test_missing_neighbor_is_shift_with_note(self):
        det = only({"x": [np.nan, 5.0, 6.0]}, 1)
        assert det.direction == SHIFT
        assert det.note == "missing neighbor value"

    def test_antisymmetric_under_reflection(self, rng):
        for _ in range(20):
            vals = rng.normal(0, 5, 7)
            up = only({"x": vals}, 3).direction
            down = only({"x": -vals}, 3).direction
            assert down == {SPIKE: DROP, DROP: SPIKE, SHIFT: SHIFT}[up]


class TestCorrectNeighbor:
    DERIV = TransformKind.FIRST_DERIVATIVE

    def test_flag_on_neighbor_moved_to_spike(self):
        # spike at index 2; the flag landed on the row after it
        det = only({"x": [10.0, 10.0, 110.0, 10.0, 10.0]}, 3, self.DERIV)
        assert det.timestamp == timestamp_of(2, 5)
        assert det.corrected_from == timestamp_of(3, 5)
        assert (det.variable, det.direction, det.note) == ("x", SPIKE, "")

    def test_flag_already_on_spike_unchanged(self):
        det = only({"x": [10.0, 10.0, 110.0, 10.0, 10.0]}, 2, self.DERIV)
        assert det.timestamp == timestamp_of(2, 5)
        assert det.corrected_from is None
        assert (det.direction, det.note) == (SPIKE, "")

    def test_level_shift_tie_keeps_original(self):
        det = only({"x": [1.0, 1.0, 1.0, 9.0, 9.0, 9.0]}, 3, self.DERIV)
        assert det.timestamp == timestamp_of(3, 6)
        assert det.corrected_from is None
        assert det.direction == SPIKE
        assert det.note == "equal candidate deviations; kept original index"

    def test_single_provenance_noop(self):
        # index 2 deviates more locally, but an original-space row has one provenance index
        det = only({"x": [10.0, 10.0, 110.0, 60.0, 10.0]}, 3)
        assert det.timestamp == timestamp_of(3, 5)
        assert det.corrected_from is None
        assert (det.direction, det.note) == (SHIFT, "point equals its local mean")

    def test_idempotent(self):
        values = {"x": [10.0, 10.0, 110.0, 10.0, 10.0]}
        first = only(values, 3, self.DERIV)
        second = only(values, 2, self.DERIV)
        assert second.timestamp == first.timestamp
        assert second.corrected_from is None

    def test_missing_neighbors_keep_original(self):
        # both candidates, indices 4 and 5, have a missing neighbor
        det = only({"x": [10.0, 10.0, 10.0, np.nan, 110.0, 10.0, np.nan, 10.0, 10.0, 10.0]}, 5, self.DERIV)
        assert det.timestamp == timestamp_of(5, 10)
        assert det.corrected_from is None
        assert det.note == "no candidate has a two-sided neighborhood; missing neighbor value"


def assert_matches_reference(tm, ms, flags, scores):
    got = attribute_detections(tm, ms, flags, scores)
    want = ref.ref_attribute_detections(tm, ms, flags, scores)
    # repr also compares field types (a numpy scalar prints differently)
    assert [repr(d) for d in got] == [repr(d) for d in want]


def tie_heavy_series(rng, n, d):
    """Few distinct readings and gaps, some zero or missing, so every note branch fires."""
    values = {
        name: np.where(rng.random(n) < 0.1, np.nan, rng.integers(0, 4, n).astype(float))
        for name in NAMES[:d]
    }
    return make_multiseries(values, gaps_minutes=rng.integers(1, 3, n - 1).tolist())


class TestMatchesPerRowReference:
    @pytest.mark.parametrize("kind", list(TransformKind))
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 1.0])
    def test_tie_heavy_series(self, kind, d, fraction):
        rng = np.random.default_rng([list(TransformKind).index(kind), d, int(10 * fraction)])
        for _ in range(4):
            ms = tie_heavy_series(rng, 60, d)
            tm = build_matrix(ms, kind)
            flags = rng.random(len(tm.row_index)) < fraction
            assert_matches_reference(tm, ms, flags, rng.random(len(flags)))

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize(
        "kind",
        [
            TransformKind.ORIGINAL,
            TransformKind.FIRST_DERIVATIVE,
            TransformKind.ONE_SIDED_DERIVATIVE,
        ],
    )
    def test_every_method_on_labeled_synth(self, labeled_synth, method, kind):
        pcfg = PipelineConfig(
            variables=("turbidity", "conductivity"),
            transform=kind,
            scoring=ScoringConfig(method=method),
        )
        result = run_detection(labeled_synth, pcfg)
        want = ref.ref_attribute_detections(
            result.matrix, labeled_synth, result.evt_row_flags, result.scores.scores
        )
        assert [repr(d) for d in result.detections] == [repr(d) for d in want]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_property(self, data):
        n = data.draw(st.integers(min_value=1, max_value=25))
        d = data.draw(st.integers(min_value=1, max_value=3))
        kind = data.draw(st.sampled_from(list(TransformKind)))
        cell = st.one_of(st.integers(-1, 3).map(float), st.sampled_from([np.nan, np.inf, -np.inf]))
        values = {name: data.draw(st.lists(cell, min_size=n, max_size=n)) for name in NAMES[:d]}
        ms = make_multiseries(values)
        tm = build_matrix(ms, kind)
        m = len(tm.row_index)
        flags = np.asarray(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
        assert_matches_reference(tm, ms, flags, np.linspace(0.0, 1.0, m))


class TestEndToEndAttribution:
    def test_injected_spikes_corrected_to_exact_index(self, labeled_synth):
        pcfg = PipelineConfig(
            variables=("turbidity", "conductivity"),
            transform=TransformKind.ONE_SIDED_DERIVATIVE,
        )
        result = run_detection(labeled_synth, pcfg)
        injected = {
            int(labeled_synth.timestamps[150]): "turbidity",
            int(labeled_synth.timestamps[270]): "conductivity",
        }
        hits = {d.timestamp: d for d in result.detections if d.timestamp in injected}
        assert set(hits) == set(injected)
        for ts, var in injected.items():
            assert hits[ts].variable == var
        # detections whose provenance covered an injected index landed exactly there
        assert hits[int(labeled_synth.timestamps[150])].direction == SPIKE
        assert hits[int(labeled_synth.timestamps[270])].direction == DROP

    def test_univariate_detection(self):
        # the chain also runs on a one-column cloud
        from driftguard import BaseSignal, FaultSpec, SynthConfig, synth_series

        cfg = SynthConfig(
            n_points=400,
            base={"turbidity": BaseSignal(20.0, 5.0, 400.0, 0.1)},
            faults=(FaultSpec("turbidity", 150, "spike", 150.0),),
        )
        ms = synth_series(cfg, seed=7)
        result = run_detection(
            ms,
            PipelineConfig(variables=("turbidity",), transform=TransformKind.ONE_SIDED_DERIVATIVE),
        )
        hits = [d for d in result.detections if d.timestamp == int(ms.timestamps[150])]
        assert len(hits) == 1
        assert hits[0].variable == "turbidity"
        assert hits[0].direction == SPIKE

    def test_detection_timestamp_stays_within_provenance_neighborhood(self, labeled_synth):
        pcfg = PipelineConfig(
            variables=("turbidity", "conductivity"),
            transform=TransformKind.ONE_SIDED_DERIVATIVE,
        )
        result = run_detection(labeled_synth, pcfg)
        ts = labeled_synth.timestamps
        index_of = {int(t): i for i, t in enumerate(ts)}
        for det in result.detections:
            if det.corrected_from is None:
                continue
            moved_to = index_of[det.timestamp]
            moved_from = index_of[det.corrected_from]
            assert abs(moved_to - moved_from) == 1

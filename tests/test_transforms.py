import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftguard import (
    ConfigError,
    Side,
    TransformKind,
    build_matrix,
    transform_column,
)
from driftguard.transforms import PROVENANCE_SPAN

from conftest import make_multiseries


def series(values, gaps_minutes=None):
    ms = make_multiseries({"x": values}, gaps_minutes=gaps_minutes)
    return ms.get("x")


class TestFormulas:
    def test_log_identities(self):
        col, valid = transform_column(series([1.0, math.e]), TransformKind.LOG)
        assert valid.all()
        np.testing.assert_allclose(col, [0.0, 1.0])

    def test_first_derivative_value(self):
        # ln(20/10) / 2 minutes
        col, valid = transform_column(
            series([10.0, 20.0], gaps_minutes=[2]), TransformKind.FIRST_DERIVATIVE
        )
        assert not valid[0] and valid[1]
        assert col[1] == pytest.approx(0.34657359027997264, rel=1e-12)

    def test_one_sided_clipping(self):
        s = series([10.0, 20.0, 10.0], gaps_minutes=[2, 2])
        neg, _ = transform_column(s, TransformKind.ONE_SIDED_DERIVATIVE, Side.KEEP_NEGATIVE)
        pos, _ = transform_column(s, TransformKind.ONE_SIDED_DERIVATIVE, Side.KEEP_POSITIVE)
        assert neg[1] == 0.0 and neg[2] == pytest.approx(-0.34657359027997264)
        assert pos[1] == pytest.approx(0.34657359027997264) and pos[2] == 0.0

    def test_rate_of_change(self):
        col, _ = transform_column(series([10.0, 20.0]), TransformKind.RATE_OF_CHANGE)
        assert col[1] == pytest.approx(0.5, rel=1e-12)

    def test_relative_difference(self):
        col, valid = transform_column(series([1.0, 5.0, 1.0]), TransformKind.RELATIVE_DIFFERENCE)
        assert list(valid) == [False, True, False]
        assert col[1] == pytest.approx(4.0, rel=1e-12)

    def test_constant_series_first_difference_zero(self):
        col, valid = transform_column(series([3.0] * 10), TransformKind.FIRST_DIFFERENCE)
        assert valid[1:].all() and not valid[0]
        np.testing.assert_array_equal(col[1:], np.zeros(9))

    def test_time_gap_exact(self):
        s = series([1.0, 2.0, 3.0], gaps_minutes=[15, 230])
        col, valid = transform_column(s, TransformKind.TIME_GAP)
        assert not valid[0]
        np.testing.assert_array_equal(col[1:], [15.0, 230.0])

    def test_log_masks_nonpositive(self):
        col, valid = transform_column(series([1.0, 0.0, -2.0, 4.0]), TransformKind.LOG)
        assert list(valid) == [True, False, False, True]
        assert np.isnan(col[1]) and np.isnan(col[2])

    def test_missing_neighbor_masks(self):
        col, valid = transform_column(
            series([1.0, np.nan, 3.0, 4.0]), TransformKind.FIRST_DIFFERENCE
        )
        assert list(valid) == [False, False, False, True]

    def test_one_sided_requires_side(self):
        with pytest.raises(ConfigError, match="side"):
            transform_column(series([1.0, 2.0]), TransformKind.ONE_SIDED_DERIVATIVE)

    def test_relative_difference_log(self):
        vals = [2.0, 8.0, 4.0]
        col, valid = transform_column(series(vals), TransformKind.RELATIVE_DIFFERENCE_LOG)
        expected = math.log(8.0) - 0.5 * (math.log(2.0) + math.log(4.0))
        assert valid[1] and col[1] == pytest.approx(expected, rel=1e-12)


class TestDirectRecomputation:
    """Every valid cell must match a cell-by-cell direct evaluation."""

    KINDS = [
        TransformKind.ORIGINAL,
        TransformKind.LOG,
        TransformKind.FIRST_DIFFERENCE,
        TransformKind.TIME_GAP,
        TransformKind.FIRST_DERIVATIVE,
        TransformKind.ONE_SIDED_DERIVATIVE,
        TransformKind.RATE_OF_CHANGE,
        TransformKind.RELATIVE_DIFFERENCE,
        TransformKind.RELATIVE_DIFFERENCE_LOG,
    ]

    @staticmethod
    def direct(kind, side, y, ts, i):
        """Straight-line formula evaluation; None when undefined."""
        def dt(j):
            return (ts[j] - ts[j - 1]) / 60.0

        if kind is TransformKind.ORIGINAL:
            return y[i] if math.isfinite(y[i]) else None
        if kind is TransformKind.LOG:
            return math.log(y[i]) if math.isfinite(y[i]) and y[i] > 0 else None
        if i == 0 and kind is not TransformKind.RELATIVE_DIFFERENCE and kind is not TransformKind.RELATIVE_DIFFERENCE_LOG:
            return None
        if kind is TransformKind.TIME_GAP:
            return dt(i)
        if kind in (TransformKind.FIRST_DIFFERENCE, TransformKind.FIRST_DERIVATIVE,
                    TransformKind.ONE_SIDED_DERIVATIVE):
            if not (math.isfinite(y[i]) and math.isfinite(y[i - 1])):
                return None
            if y[i - 1] == 0 or y[i] / y[i - 1] <= 0:
                return None
            x = math.log(y[i] / y[i - 1])
            if kind is TransformKind.FIRST_DIFFERENCE:
                return x
            x = x / dt(i)
            if kind is TransformKind.FIRST_DERIVATIVE:
                return x
            return min(x, 0.0) if side is Side.KEEP_NEGATIVE else max(x, 0.0)
        if kind is TransformKind.RATE_OF_CHANGE:
            if not (math.isfinite(y[i]) and math.isfinite(y[i - 1])) or y[i] == 0:
                return None
            return (y[i] - y[i - 1]) / y[i]
        # relative differences
        if i == 0 or i == len(y) - 1:
            return None
        trio = [y[i - 1], y[i], y[i + 1]]
        if kind is TransformKind.RELATIVE_DIFFERENCE_LOG:
            if any(not math.isfinite(v) or v <= 0 for v in trio):
                return None
            trio = [math.log(v) for v in trio]
        elif any(not math.isfinite(v) for v in trio):
            return None
        return trio[1] - 0.5 * (trio[2] + trio[0])

    def test_cells_match_direct_evaluation(self, rng):
        total_checked = 0
        while total_checked < 10_000:
            n = int(rng.integers(5, 60))
            vals = rng.lognormal(2.0, 1.0, n)
            vals[rng.random(n) < 0.1] = np.nan  # missing cells
            vals[rng.random(n) < 0.05] *= -1  # sign flips to exercise log masks
            gaps = rng.integers(10, 240, n - 1)
            s = series(vals, gaps_minutes=list(gaps))
            for kind in self.KINDS:
                side = Side.KEEP_NEGATIVE if kind is TransformKind.ONE_SIDED_DERIVATIVE else None
                col, valid = transform_column(s, kind, side)
                for i in range(n):
                    expected = self.direct(kind, side, vals, s.timestamps, i)
                    if expected is None:
                        assert not valid[i]
                    else:
                        assert valid[i]
                        assert col[i] == pytest.approx(expected, rel=1e-12, abs=1e-300)
                    total_checked += 1

    def test_one_sided_sign_constraints(self, rng):
        checked = 0
        while checked < 10_000:
            n = int(rng.integers(10, 200))
            vals = rng.lognormal(1.0, 2.0, n)
            gaps = rng.integers(10, 240, n - 1)
            s = series(vals, gaps_minutes=list(gaps))
            neg, vneg = transform_column(s, TransformKind.ONE_SIDED_DERIVATIVE, Side.KEEP_NEGATIVE)
            pos, vpos = transform_column(s, TransformKind.ONE_SIDED_DERIVATIVE, Side.KEEP_POSITIVE)
            assert (neg[vneg] <= 0).all()
            assert (pos[vpos] >= 0).all()
            checked += int(vneg.sum() + vpos.sum())

    @given(st.floats(min_value=1e-6, max_value=1e6), st.integers(min_value=0, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_first_derivative_scale_invariant(self, c, seed):
        rng = np.random.default_rng(seed)
        vals = rng.lognormal(0, 1, 20)
        gaps = list(rng.integers(10, 240, 19))
        a, va = transform_column(series(vals, gaps), TransformKind.FIRST_DERIVATIVE)
        b, vb = transform_column(series(c * vals, gaps), TransformKind.FIRST_DERIVATIVE)
        np.testing.assert_array_equal(va, vb)
        np.testing.assert_allclose(a[va], b[vb], rtol=1e-12, atol=1e-12)


def sided_kinds():
    """Every (kind, side) pair transform_column accepts."""
    for kind in TransformKind:
        if kind is TransformKind.ONE_SIDED_DERIVATIVE:
            yield from ((kind, side) for side in Side)
        else:
            yield kind, None


class TestValidity:
    """A cell is valid iff its value is finite; every invalid cell is NaN."""

    EXTREMES = [5e-324, 1.7e308, -1.7e308, 0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 10.0]

    @pytest.mark.parametrize("kind,side", list(sided_kinds()))
    def test_extreme_readings_are_masked_not_kept(self, kind, side):
        # every ordered triple of extremes sits side by side somewhere, and
        # the gaps run from one minute, so overflowing ratios and sums occur
        vals = list(itertools.chain.from_iterable(itertools.product(self.EXTREMES, repeat=3)))
        gaps = [1 + i % 7 for i in range(len(vals) - 1)]
        col, valid = transform_column(series(vals, gaps_minutes=gaps), kind, side)
        assert np.isfinite(col[valid]).all()
        assert np.isnan(col[~valid]).all()

    @pytest.mark.parametrize("kind,side", list(sided_kinds()))
    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=12),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_reading_reaches_only_the_cells_of_its_span(self, kind, side, vals, data):
        j = data.draw(st.integers(0, len(vals) - 1))
        changed = list(vals)
        changed[j] = data.draw(st.floats(min_value=1e-3, max_value=1e3))
        gaps = [1 + i % 5 for i in range(len(vals) - 1)]
        a, va = transform_column(series(vals, gaps), kind, side)
        b, vb = transform_column(series(changed, gaps), kind, side)
        reach = set() if kind is TransformKind.TIME_GAP else {j - o for o in PROVENANCE_SPAN[kind]}
        outside = np.array([i not in reach for i in range(len(vals))], dtype=bool)
        np.testing.assert_array_equal(va[outside], vb[outside])
        np.testing.assert_array_equal(a[outside], b[outside])


class TestBuildMatrix:
    def test_original_matrix_drops_missing_rows(self):
        ms = make_multiseries({"t": [1.0, np.nan, 3.0], "c": [4.0, 5.0, 6.0]})
        tm = build_matrix(ms, TransformKind.ORIGINAL, ("t", "c"))
        assert tm.points.shape == (2, 2)
        np.testing.assert_array_equal(tm.row_index, [0, 2])
        assert tm.n_dropped == 1

    def test_single_variable_matrix(self):
        ms = make_multiseries({"t": [1.0, 2.0, 3.0]})
        tm = build_matrix(ms, TransformKind.ORIGINAL, ("t",))
        assert tm.points.shape == (3, 1)

    def test_empty_variable_selection(self):
        ms = make_multiseries({"t": [1.0, 2.0]})
        with pytest.raises(ConfigError, match="empty"):
            build_matrix(ms, TransformKind.ORIGINAL, ())

    def test_row_count_via_independent_mask(self, rng):
        n = 5402
        vals = {v: rng.lognormal(2, 0.5, n) for v in ("turbidity", "conductivity", "level")}
        for v in vals:
            vals[v][rng.random(n) < 0.05] = np.nan
        gaps = list(rng.integers(10, 240, n - 1))
        ms = make_multiseries(vals, gaps_minutes=gaps)
        tm = build_matrix(ms, TransformKind.ONE_SIDED_DERIVATIVE)
        # independent mask: a row is valid iff y_t and y_{t-1} are present
        # and positive for every variable, and t > 0
        expect = np.ones(n, dtype=bool)
        expect[0] = False
        for v in vals:
            y = vals[v]
            ok = np.isfinite(y) & (y > 0)
            expect[1:] &= ok[1:] & ok[:-1]
        assert len(tm.row_index) == expect.sum()
        np.testing.assert_array_equal(tm.row_index, np.nonzero(expect)[0])

    def test_default_sides_applied(self):
        ms = make_multiseries(
            {"turbidity": [10.0, 20.0, 10.0], "conductivity": [10.0, 20.0, 10.0]},
            gaps_minutes=[2, 2],
        )
        tm = build_matrix(ms, TransformKind.ONE_SIDED_DERIVATIVE)
        assert (tm.points[:, 0] <= 0).all()  # turbidity keeps the negative side
        assert (tm.points[:, 1] >= 0).all()  # conductivity keeps the positive side

    def test_unknown_variable_needs_side(self):
        ms = make_multiseries({"ph": [7.0, 7.1]}, gaps_minutes=[10])
        with pytest.raises(ConfigError, match="side"):
            build_matrix(ms, TransformKind.ONE_SIDED_DERIVATIVE)
        tm = build_matrix(ms, TransformKind.ONE_SIDED_DERIVATIVE, sides={"ph": "keep_negative"})
        assert tm.sides["ph"] is Side.KEEP_NEGATIVE

    def test_unknown_side_tag_is_config_error(self):
        ms = make_multiseries({"turbidity": [7.0, 7.1]}, gaps_minutes=[10])
        with pytest.raises(ConfigError, match="sideways"):
            build_matrix(ms, TransformKind.ONE_SIDED_DERIVATIVE, sides={"turbidity": "sideways"})

    def test_provenance_spans(self):
        ms = make_multiseries({"t": [1.0, 2.0, 3.0, 4.0]})
        fd = build_matrix(ms, TransformKind.FIRST_DIFFERENCE, ("t",))
        assert fd.provenance(0) == (0, 1)
        rd = build_matrix(ms, TransformKind.RELATIVE_DIFFERENCE, ("t",))
        assert rd.provenance(0) == (0, 1, 2)
        orig = build_matrix(ms, TransformKind.ORIGINAL, ("t",))
        assert orig.provenance(2) == (2,)

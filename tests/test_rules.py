import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftguard import ConfigError, RuleConfig, apply_rules

from conftest import make_multiseries


def cfg_for(ms, max_gap=180.0, ranges=None):
    return RuleConfig(ranges=ranges or {}, max_gap_minutes=max_gap)


def test_negative_reading_flagged_and_blanked():
    ms = make_multiseries({"turbidity": [1.0, -5.0, 2.0]})
    flags, cleaned = apply_rules(ms, cfg_for(ms))
    assert flags.negative[1, 0]
    assert np.isnan(cleaned.get("turbidity").values[1])
    assert cleaned.get("turbidity").values[0] == 1.0


def test_gap_rule_flags_point_after_gap():
    ms = make_multiseries({"turbidity": [1.0, 2.0, 3.0]}, gaps_minutes=[60, 240])
    flags, cleaned = apply_rules(ms, cfg_for(ms, max_gap=180.0))
    assert list(flags.missing_gap) == [False, False, True]
    assert np.isnan(cleaned.get("turbidity").values[2])


def test_gap_exactly_at_limit_not_flagged():
    ms = make_multiseries({"turbidity": [1.0, 2.0]}, gaps_minutes=[180])
    flags, _ = apply_rules(ms, cfg_for(ms))
    assert not flags.missing_gap.any()


def test_clean_input_untouched():
    ms = make_multiseries({"turbidity": [1.0, 2.0, 3.0]}, gaps_minutes=[60, 90])
    flags, cleaned = apply_rules(ms, cfg_for(ms, ranges={"turbidity": (0.0, 10.0)}))
    assert not flags.any_at_timestamp.any()
    np.testing.assert_array_equal(cleaned.get("turbidity").values, ms.get("turbidity").values)


def test_out_of_range_flag():
    ms = make_multiseries({"turbidity": [1.0, 50.0, 2.0]})
    flags, cleaned = apply_rules(ms, cfg_for(ms, ranges={"turbidity": (0.0, 10.0)}))
    assert flags.out_of_range[1, 0]
    assert np.isnan(cleaned.get("turbidity").values[1])


def test_variable_without_range_is_unbounded():
    ms = make_multiseries({"turbidity": [1.0, 50.0], "conductivity": [2.0, 1e300]})
    flags, cleaned = apply_rules(ms, RuleConfig(ranges={"turbidity": (0, 10)}))
    assert flags.out_of_range.tolist() == [[False, False], [True, False]]
    assert cleaned.get("conductivity").values.tolist() == [2.0, 1e300]


def test_range_naming_no_variable_is_refused():
    ms = make_multiseries({"turbidity": [1.0], "conductivity": [2.0]})
    with pytest.raises(ConfigError, match="range for 'turbidty'"):
        apply_rules(ms, RuleConfig(ranges={"turbidity": (0, 10), "turbidty": (0, 10)}))


CELLS = st.one_of(
    st.floats(-50, 50), st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-300])
)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_partial_ranges_equal_ranges_filled_unbounded(data):
    """A variable left out of ranges behaves as one given (-inf, inf), bit for bit."""
    names = ("a", "b", "c")[: data.draw(st.integers(1, 3))]
    n = data.draw(st.integers(1, 30))
    values = {v: data.draw(st.lists(CELLS, min_size=n, max_size=n)) for v in names}
    gaps = data.draw(st.lists(st.sampled_from([10, 60, 180, 181, 600]), min_size=n - 1, max_size=n - 1))
    ms = make_multiseries(values, gaps_minutes=gaps)
    bound = st.tuples(st.floats(-20, 0), st.floats(1, 20))
    partial = {v: data.draw(bound) for v in names if data.draw(st.booleans())}
    filled = {v: partial.get(v, (-np.inf, np.inf)) for v in names}
    max_gap = data.draw(st.sampled_from([60.0, 180.0]))
    forbid = data.draw(st.booleans())
    got, want = (
        apply_rules(ms, RuleConfig(ranges, max_gap_minutes=max_gap, forbid_negative=forbid))
        for ranges in (partial, filled)
    )
    for field in ("out_of_range", "negative", "missing_gap", "timestamps"):
        np.testing.assert_array_equal(getattr(got[0], field), getattr(want[0], field))
    for a, b in zip(got[1].series, want[1].series):
        assert a.name == b.name
        assert a.values.tobytes() == b.values.tobytes()


def test_forbid_negative_is_one_bool():
    with pytest.raises(ConfigError, match="forbid_negative"):
        RuleConfig(ranges={}, forbid_negative={"level": False})


@pytest.mark.parametrize("gap", [0.0, -1.0, float("nan")])
def test_max_gap_must_be_positive(gap):
    with pytest.raises(ConfigError, match="max_gap_minutes"):
        RuleConfig(ranges={}, max_gap_minutes=gap)


def test_negative_allowed_when_disabled():
    ms = make_multiseries({"level": [-0.5, 1.0]})
    cfg = RuleConfig(ranges={}, forbid_negative=False)
    flags, cleaned = apply_rules(ms, cfg)
    assert not flags.any_at_timestamp.any()
    assert cleaned.get("level").values[0] == -0.5


def test_idempotent_on_cleaned_output(rng):
    for _ in range(20):
        n = int(rng.integers(5, 40))
        gaps = rng.integers(10, 300, n - 1)
        vals = rng.normal(5, 10, n)  # some negatives, some out of range
        ms = make_multiseries({"x": vals}, gaps_minutes=list(gaps))
        cfg = cfg_for(ms, ranges={"x": (0.0, 12.0)})
        flags1, cleaned1 = apply_rules(ms, cfg)
        flags2, cleaned2 = apply_rules(cleaned1, cfg)
        # no new flags: reapplication only re-derives gap flags
        assert not flags2.out_of_range.any()
        assert not flags2.negative.any()
        np.testing.assert_array_equal(flags2.missing_gap, flags1.missing_gap)
        np.testing.assert_array_equal(
            cleaned2.get("x").values, cleaned1.get("x").values
        )


def test_no_in_range_value_flagged(rng):
    for _ in range(20):
        n = int(rng.integers(5, 60))
        vals = rng.normal(0, 20, n)
        ms = make_multiseries({"x": vals})
        lo, hi = -5.0, 5.0
        flags, _ = apply_rules(ms, cfg_for(ms, ranges={"x": (lo, hi)}))
        inside = (vals >= lo) & (vals <= hi)
        assert not flags.out_of_range[inside, 0].any()
        outside = (vals < lo) | (vals > hi)
        assert flags.out_of_range[outside, 0].all()

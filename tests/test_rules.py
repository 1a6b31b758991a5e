import numpy as np
import pytest

from driftguard import ConfigError, RuleConfig, apply_rules

from conftest import make_multiseries


def cfg_for(ms, max_gap=180.0, ranges=None):
    ranges = ranges or {v: (-np.inf, np.inf) for v in ms.variables}
    return RuleConfig(ranges=ranges, max_gap_minutes=max_gap)


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


def test_missing_range_names_variable():
    ms = make_multiseries({"turbidity": [1.0], "conductivity": [2.0]})
    with pytest.raises(ConfigError, match="conductivity"):
        apply_rules(ms, RuleConfig(ranges={"turbidity": (0, 10)}))


@pytest.mark.parametrize("gap", [0.0, -1.0, float("nan")])
def test_max_gap_must_be_positive(gap):
    with pytest.raises(ConfigError, match="max_gap_minutes"):
        RuleConfig(ranges={}, max_gap_minutes=gap)


def test_negative_allowed_when_disabled():
    ms = make_multiseries({"level": [-0.5, 1.0]})
    cfg = RuleConfig(ranges={"level": (-np.inf, np.inf)}, forbid_negative={"level": False})
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

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftguard import (
    DataError,
    RuleConfig,
    ThresholdConfig,
    ThresholdTrace,
    apply_rules,
    combine_flags,
    evt_flag,
)
from driftguard.errors import ConfigError

from conftest import make_multiseries
from reference import ref_stable_selection

# Heavily tied scores: a few distinct values, runs of 1.0 among others, or
# one value repeated, in any input order.
_tied_scores = st.one_of(
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=10, max_size=300)
    ),
    st.lists(
        st.tuples(st.one_of(st.just(1.0), st.floats(min_value=0, max_value=1e3)), st.integers(1, 60)),
        min_size=1,
        max_size=8,
    )
    .map(lambda runs: [v for v, count in runs for _ in range(count)] + [1.0] * 10)
    .flatmap(st.permutations),
    st.tuples(st.floats(min_value=-1e6, max_value=1e6), st.integers(10, 300)).map(lambda vc: [vc[0]] * vc[1]),
).map(np.asarray)


class TestEvtFlag:
    def test_single_gross_outlier_flagged(self, rng):
        scores = np.concatenate([rng.exponential(1.0, 1000), [100.0]])
        flags, trace = evt_flag(scores)
        assert flags[-1]
        assert trace.decisions[-1] == "stop"

    def test_single_injection_flagged_alone_in_most_seeds(self):
        # Monte Carlo: the injected extreme is flagged and nothing else,
        # in at least 95 of 100 fixed seeds
        exact = 0
        for seed in range(100):
            scores = np.concatenate(
                [np.random.default_rng(seed).exponential(1.0, 1000), [100.0]]
            )
            flags, _ = evt_flag(scores)
            if flags[-1] and flags.sum() == 1:
                exact += 1
        assert exact >= 95

    def test_all_equal_scores_no_outliers(self):
        flags, trace = evt_flag(np.full(50, 3.14))
        assert not flags.any()
        assert trace.degenerate
        assert "identical" in trace.note

    def test_constant_bulk_with_jump_flags_jump(self):
        scores = np.concatenate([np.ones(40), [5.0]])
        flags, _ = evt_flag(scores)
        assert flags[-1] and flags.sum() == 1

    def test_too_few_scores(self):
        with pytest.raises(DataError):
            evt_flag(np.arange(9.0))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            evt_flag(np.array([1.0, np.inf] + [0.5] * 10))

    def test_flags_are_upper_set(self, rng):
        # everything above the smallest flagged score is flagged too
        for seed in range(5):
            scores = np.random.default_rng(seed).exponential(1.0, 400)
            scores[:4] += 30.0
            flags, _ = evt_flag(scores)
            if flags.any():
                cut = scores[flags].min()
                np.testing.assert_array_equal(flags, scores >= cut)

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e9, allow_nan=False),
            min_size=10,
            max_size=400,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_upper_set_property(self, values):
        scores = np.asarray(values)
        flags, trace = evt_flag(scores)
        assert len(trace.flagged_indices) == flags.sum()
        if flags.any():
            cut = scores[flags].min()
            np.testing.assert_array_equal(flags, scores >= cut)

    def test_alpha_monotonicity(self, rng):
        # a more permissive tail never shrinks the flagged set
        for seed in range(10):
            scores = np.random.default_rng(seed).exponential(1.0, 300)
            scores[-2:] += 15.0
            small, _ = evt_flag(scores, ThresholdConfig(alpha=0.01))
            large, _ = evt_flag(scores, ThresholdConfig(alpha=0.10))
            assert (large | small).sum() == large.sum()  # small subset of large

    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(min_value=0, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance_of_flag_set(self, c, seed):
        scores = np.random.default_rng(seed).exponential(1.0, 200)
        scores[0] += 25.0
        base, _ = evt_flag(scores)
        scaled, _ = evt_flag(c * scores)
        np.testing.assert_array_equal(base, scaled)

    def test_trace_replays_deterministically(self, rng):
        scores = rng.exponential(1.0, 250)
        f1, t1 = evt_flag(scores)
        f2, t2 = evt_flag(scores)
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(t1.tested_scores, t2.tested_scores)
        np.testing.assert_array_equal(t1.cutoffs, t2.cutoffs)
        assert t1.decisions == t2.decisions

    def test_trace_records_every_absorbed_point(self, rng):
        scores = rng.exponential(1.0, 100)
        flags, trace = evt_flag(scores)
        n_candidates = len(trace.decisions)
        absorbed = sum(1 for d in trace.decisions if d == "absorb")
        stopped = trace.decisions and trace.decisions[-1] == "stop"
        assert n_candidates == absorbed + (1 if stopped else 0)
        assert len(trace.flagged_indices) == flags.sum()

    def test_trace_csv(self, tmp_path, rng):
        _, trace = evt_flag(rng.exponential(1.0, 60))
        out = tmp_path / "trace.csv"
        trace.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,tested_score,cutoff,spacing_scale,decision"
        assert len(lines) == 1 + min(len(trace.decisions), trace.effective_tail_count + 2)

    def test_trace_csv_exact_bytes(self, tmp_path):
        trace = ThresholdTrace(
            alpha=0.05,
            initial_fraction=0.5,
            effective_tail_count=2,
            n=10,
            tested_scores=np.array([0.5, 1e-05, 2.0, np.inf]),
            cutoffs=np.array([1.0, 1.5, 1.75, 3.0]),
            spacing_scales=np.array([0.0, 0.1, np.nan, 1e16]),
            decisions=("absorb", "absorb", "absorb", "stop"),
            flagged_indices=np.array([9]),
        )
        out = tmp_path / "trace.csv"
        trace.to_csv(out)
        assert out.read_bytes() == (
            b"iteration,tested_score,cutoff,spacing_scale,decision\r\n"
            b"0,0.5,1.0,0.0,absorb\r\n"
            b"1,1e-05,1.5,0.1,absorb\r\n"
            b"2,2.0,1.75,,absorb\r\n"
            b"3,inf,3.0,1e+16,stop\r\n"
        )

    def test_trace_csv_drops_early_rows_and_keeps_iteration_numbers(self, tmp_path):
        trace = ThresholdTrace(
            alpha=0.05,
            initial_fraction=0.5,
            effective_tail_count=2,
            n=14,
            tested_scores=np.array([0.25, 0.5, 1e-05, 2.0, 2.5, 40.0]),
            cutoffs=np.array([0.5, 1.0, 1.5, 1.75, 3.0, 4.0]),
            spacing_scales=np.array([0.125, 0.0, 0.1, np.nan, 1e16, 0.5]),
            decisions=("absorb",) * 5 + ("stop",),
            flagged_indices=np.array([13]),
        )
        out = tmp_path / "trace.csv"
        trace.to_csv(out)
        assert out.read_bytes() == (
            b"iteration,tested_score,cutoff,spacing_scale,decision\r\n"
            b"2,1e-05,1.5,0.1,absorb\r\n"
            b"3,2.0,1.75,,absorb\r\n"
            b"4,2.5,3.0,1e+16,absorb\r\n"
            b"5,40.0,4.0,0.5,stop\r\n"
        )

    @pytest.mark.parametrize("tail_count", [None, 2, 7])
    @pytest.mark.parametrize("seed", range(6))
    def test_trace_csv_rows_recompute_the_last_decision(self, tmp_path, seed, tail_count):
        # odd seeds add an outlier, so the last row is a stop; even seeds
        # space the scores almost evenly, so it is the final absorb
        rng = np.random.default_rng(seed)
        if seed % 2:
            scores = rng.exponential(1.0, 300)
            scores[7] += 40.0
        else:
            scores = rng.permutation(np.linspace(1.0, 2.0, 300) + rng.uniform(0.0, 1e-4, 300))
        cfg = ThresholdConfig(tail_count=tail_count)
        _, trace = evt_flag(scores, cfg)
        out = tmp_path / "trace.csv"
        trace.to_csv(out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        tc = trace.effective_tail_count
        assert len(rows) == tc + 2 < len(trace.decisions)
        assert [int(r["iteration"]) for r in rows] == list(range(len(trace.decisions) - tc - 2, len(trace.decisions)))
        assert rows[-1]["decision"] == trace.decisions[-1] == ("stop" if seed % 2 else "absorb")
        x = [float(r["tested_score"]) for r in rows]
        ghat = sum((j + 1) * (x[-1 - j] - x[-2 - j]) for j in range(1, tc + 1)) / tc
        cutoff = x[-2] + math.log(1 / cfg.alpha) * ghat
        assert float(rows[-1]["spacing_scale"]) == pytest.approx(ghat, rel=1e-12)
        assert float(rows[-1]["cutoff"]) == pytest.approx(cutoff, rel=1e-12)
        assert (x[-1] > cutoff) == (rows[-1]["decision"] == "stop")

    def test_explicit_tail_count_honored(self, rng):
        scores = rng.exponential(1.0, 200)
        _, trace = evt_flag(scores, ThresholdConfig(tail_count=10))
        assert trace.effective_tail_count == 10

    @pytest.mark.parametrize("tail_count", [None, 25, 50])
    def test_spacing_scale_matches_per_candidate_formula(self, rng, tail_count):
        # n=40 gives a typical set of 20-39 scores: tail_count 50 is wider than
        # every window, 25 only than the first ones, the default never
        scores = np.concatenate([rng.exponential(1.0, 39), [60.0]])
        flags, trace = evt_flag(scores, ThresholdConfig(tail_count=tail_count))
        ss = np.sort(scores)
        tc_max = trace.effective_tail_count
        ghat, decisions = [], []
        for i in range(20, len(ss)):
            tc = min(tc_max, i - 1)
            ghat.append(sum((j + 1) * (ss[i - j] - ss[i - j - 1]) for j in range(1, tc + 1)) / tc)
            stop = ss[i] > ss[i - 1] + np.log(1 / 0.05) * ghat[-1]
            decisions.append("stop" if stop else "absorb")
            if stop:
                break
        np.testing.assert_allclose(trace.spacing_scales, ghat, rtol=1e-13)
        assert trace.decisions == tuple(decisions)
        assert decisions[-1] == "stop"
        np.testing.assert_array_equal(flags, scores >= ss[19 + len(decisions)])

    @given(_tied_scores, st.sampled_from([None, 2, 5]))
    @settings(max_examples=150, deadline=None)
    def test_selection_matches_stable_argsort_on_tied_scores(self, scores, tail_count):
        cfg = ThresholdConfig(tail_count=tail_count)
        flags, trace = evt_flag(scores, cfg)
        m0 = max(math.ceil(cfg.initial_fraction * len(scores)), 3)
        tested = len(trace.decisions)
        stop_at = m0 + tested - 1 if trace.decisions[-1:] == ("stop",) else None
        ss, ref_flags, ref_indices = ref_stable_selection(scores, stop_at)
        np.testing.assert_array_equal(flags, ref_flags)
        np.testing.assert_array_equal(trace.flagged_indices, ref_indices)
        assert trace.flagged_indices.dtype == ref_indices.dtype
        np.testing.assert_array_equal(trace.tested_scores, ss[m0 : m0 + tested])
        # the per-candidate window sum adds in another order than the library's
        tc_max = trace.effective_tail_count
        ghat = [
            sum((j + 1) * (ss[i - j] - ss[i - j - 1]) for j in range(1, min(tc_max, i - 1) + 1)) / min(tc_max, i - 1)
            for i in range(m0, m0 + tested)
        ]
        np.testing.assert_allclose(trace.spacing_scales, ghat, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(
            trace.cutoffs, ss[m0 - 1 : m0 - 1 + tested] + math.log(1 / cfg.alpha) * trace.spacing_scales
        )

    def test_no_candidates_gives_empty_trace(self):
        # initial_fraction 0.95 seeds the typical set with all 10 scores
        flags, trace = evt_flag(np.arange(10.0), ThresholdConfig(initial_fraction=0.95))
        assert not flags.any()
        assert trace.decisions == ()
        assert len(trace.decisions) == len(trace.tested_scores) == len(trace.cutoffs) == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ThresholdConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            ThresholdConfig(initial_fraction=1.0)
        with pytest.raises(ConfigError):
            ThresholdConfig(tail_count=1)


class TestCombineFlags:
    def test_nothing_flagged(self):
        ts = np.array([0, 60, 120], dtype=np.int64)
        pred = combine_flags(None, [], ts)
        assert not pred.any()

    def test_evt_timestamps_marked(self):
        ts = np.array([0, 60, 120], dtype=np.int64)
        pred = combine_flags(None, [60], ts)
        assert list(pred) == [False, True, False]

    def test_rule_only_flag(self):
        ms = make_multiseries({"x": [1.0, -2.0, 3.0]})
        flags, _ = apply_rules(ms, RuleConfig(ranges={}))
        pred = combine_flags(flags, [], ms.timestamps)
        assert list(pred) == [False, True, False]

    def test_rule_and_evt_union(self):
        ms = make_multiseries({"x": [1.0, -2.0, 3.0]})
        flags, _ = apply_rules(ms, RuleConfig(ranges={}))
        pred = combine_flags(flags, [int(ms.timestamps[2])], ms.timestamps)
        assert list(pred) == [False, True, True]

    def test_array_and_generator_match_list(self):
        ts = np.arange(0, 600, 60, dtype=np.int64)
        wanted = [60, 300, 540]
        expected = combine_flags(None, wanted, ts)
        assert expected.sum() == 3
        unsorted = np.array([540, 60, 300, 60, 540], dtype=np.int64)
        assert np.array_equal(combine_flags(None, unsorted, ts), expected)
        assert np.array_equal(combine_flags(None, (int(t) for t in unsorted), ts), expected)
        assert not combine_flags(None, [], ts).any()
        assert not combine_flags(None, np.empty(0, dtype=np.int64), ts).any()

    def test_unknown_timestamp_rejected(self):
        ts = np.array([0, 60], dtype=np.int64)
        with pytest.raises(DataError):
            combine_flags(None, [61], ts)

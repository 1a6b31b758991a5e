import os
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftguard import (
    DataError,
    PointCloud,
    default_leader_radius,
    knn,
    leader,
    neighbors,
    normalize,
)
from driftguard.errors import ConfigError
from driftguard.neighbors import parallel_map, thread_cap
from driftguard.scoring import _avg_chain_dists, _chain_dists, _pair_sums

import reference as ref


class TestNormalize:
    def test_minmax_column(self):
        cloud = normalize(np.array([[2.0], [4.0], [6.0]]))
        np.testing.assert_allclose(cloud.points[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        cloud = normalize(np.array([[5.0], [5.0], [5.0]]))
        np.testing.assert_array_equal(cloud.points, np.zeros((3, 1)))

    def test_idempotent(self, rng):
        pts = rng.normal(0, 7, (40, 3))
        once = normalize(pts)
        twice = normalize(once.points)
        np.testing.assert_array_equal(once.points, twice.points)

    def test_bounds(self, rng):
        cloud = normalize(rng.normal(3, 10, (100, 4)))
        assert cloud.points.min() >= 0.0 and cloud.points.max() <= 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            normalize(np.array([[1.0], [np.nan]]))

    def test_rejects_zero_rows(self):
        with pytest.raises(DataError, match="zero points"):
            normalize(np.empty((0, 2)))

    def test_span_past_the_float_range_is_scaled_by_halves(self, rng):
        # the span of column 0 overflows; column 1 is scaled exactly as on its own
        pts = np.column_stack([[2.0**1023, -(2.0**1023), 0.0, 5e-324, 2.0**1022], rng.normal(3, 10, 5)])
        cloud = normalize(pts)  # a RuntimeWarning fails the suite
        np.testing.assert_array_equal(cloud.points[:, 0], [1.0, 0.0, 0.5, 0.5, 0.75])
        assert cloud.points[:, 1].tobytes() == normalize(pts[:, 1:]).points.tobytes()
        np.testing.assert_array_equal(normalize(cloud.points).points, cloud.points)


@pytest.fixture(params=[1, 3], ids=["cap1", "cap3"])
def cap(request, monkeypatch):
    """DRIFTGUARD_THREADS at 1, and at 3: the lists must be the same bits at any thread count."""
    monkeypatch.setenv("DRIFTGUARD_THREADS", str(request.param))
    return request.param


class TestKnn:
    def test_1d_distance_sums(self):
        cloud = PointCloud(np.array([[0.0], [1.0], [2.0], [10.0]]))
        nl = knn(cloud, 2)
        np.testing.assert_allclose(nl.distances.sum(axis=1), [3.0, 2.0, 3.0, 17.0])

    def test_duplicate_point_zero_distance(self):
        cloud = PointCloud(np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]]))
        nl = knn(cloud, 1)
        assert nl.distances[0, 0] == 0.0 and nl.indices[0, 0] == 1
        assert nl.distances[1, 0] == 0.0 and nl.indices[1, 0] == 0

    def test_k_too_large(self):
        cloud = PointCloud(np.zeros((3, 2)))
        with pytest.raises(DataError):
            knn(cloud, 3)

    def test_ties_break_by_lower_index(self):
        # symmetric square: each corner has two equidistant neighbors
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        nl = knn(PointCloud(pts), 2)
        np.testing.assert_array_equal(nl.indices[0], [1, 2])
        np.testing.assert_array_equal(nl.indices[3], [1, 2])

    def test_matches_bruteforce_random(self, rng, cap):
        for _ in range(25):
            n = int(rng.integers(12, 300))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, min(11, n)))
            pts = rng.random((n, d))
            nl = knn(PointCloud(pts), k)
            ridx, rdist = ref.ref_knn(pts, k)
            np.testing.assert_array_equal(nl.indices, ridx)
            np.testing.assert_array_equal(nl.distances, rdist)

    @pytest.mark.parametrize("d", [7, 8, 12])
    def test_matches_bruteforce_either_side_of_eight_coordinates(self, rng, d):
        # numpy adds fewer than 8 squared terms in turn and more pairwise;
        # the recomputed distances follow it on both sides
        pts = rng.random((300, d))
        nl = knn(PointCloud(pts), 10)
        ridx, rdist = ref.ref_knn(pts, 10)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    def test_matches_bruteforce_with_many_duplicates(self, rng, cap):
        # heavy ties exercise the widened windows of rows tied at the edge
        base = rng.integers(0, 4, (80, 2)).astype(float)
        nl = knn(PointCloud(base), 10)
        ridx, rdist = ref.ref_knn(base, 10)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    def test_matches_bruteforce_at_two_thousand_points(self, rng, cap):
        pts = rng.random((2000, 3))
        nl = knn(PointCloud(pts), 10)
        ridx, rdist = ref.ref_knn(pts, 10)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    @given(
        # fill=st.nothing(): else hypothesis fills most cells with one value, and the
        # median example has 5 distinct rows of 30
        arrays(np.float64, (30, 2), elements=st.floats(0, 1, width=16), fill=st.nothing()),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_bruteforce_property(self, threads, pts, k):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("DRIFTGUARD_THREADS", threads)
            nl = knn(PointCloud(pts), k)
        ridx, rdist = ref.ref_knn(pts, k)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    def test_matches_bruteforce_one_sided_cloud(self, rng, cap):
        # one-sided clipping: ~1/8 of the rows on the origin, far more than a
        # tree window holds, plus exact ties on the clipped faces
        pts = np.maximum(rng.normal(size=(2000, 3)), 0.0)
        n_origin = int((pts == 0).all(axis=1).sum())
        assert n_origin > 10 + 1 + neighbors._QUERY_PAD
        nl = knn(PointCloud(pts), 10)
        ridx, rdist = ref.ref_knn(pts, 10)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    def test_every_row_identical(self, cap):
        pts = np.full((40, 2), 0.25)
        nl = knn(PointCloud(pts), 10)
        ridx, rdist = ref.ref_knn(pts, 10)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)
        np.testing.assert_array_equal(nl.indices[0], np.arange(1, 11))
        np.testing.assert_array_equal(nl.indices[5], [0, 1, 2, 3, 4, 6, 7, 8, 9, 10])

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_duplicate_groups_around_group_size_k(self, rng, k, cap):
        # groups of exactly k, k+1 and k+2 coincident rows, each ringed by
        # four distinct points at distance 1; rows shuffled so index order
        # decides every tie
        rows = []
        for g, size in enumerate((k, k + 1, k + 2)):
            centre = np.array([10.0 * g, 0.0])
            rows += [centre] * size
            rows += [centre + off for off in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        pts = np.array(rows)[rng.permutation(len(rows))]
        nl = knn(PointCloud(pts), k)
        ridx, rdist = ref.ref_knn(pts, k)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    def test_blocks_and_fallback_match_bruteforce(self, rng, monkeypatch, cap):
        # many small blocks and a window too narrow for the lattice's rings
        # of equidistant points, so windows are widened in most blocks
        monkeypatch.setattr(neighbors, "_BLOCK", 7)
        monkeypatch.setattr(neighbors, "_QUERY_PAD", 0)
        pts = rng.integers(0, 10, (150, 2)).astype(float)
        nl = knn(PointCloud(pts), 4)
        ridx, rdist = ref.ref_knn(pts, 4)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_bruteforce_property_on_lattice(self, threads, data):
        # small-integer lattices: duplicate groups of every size and exact
        # distance ties; -0.0 must tie with 0.0
        n = data.draw(st.integers(min_value=2, max_value=60))
        d = data.draw(st.integers(min_value=1, max_value=3))
        k = data.draw(st.integers(min_value=1, max_value=min(10, n - 1)))
        coords = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0])
        pts = data.draw(arrays(np.float64, (n, d), elements=coords))
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("DRIFTGUARD_THREADS", threads)
            nl = knn(PointCloud(pts), k)
        ridx, rdist = ref.ref_knn(pts, k)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    def test_widening_doubles_window_until_tie_ring_fits(self, rng, monkeypatch, cap):
        # a centre (twice) ringed by the 30 lattice points at distance 5 and
        # the 72 at sqrt(26): with k = 3 the centre's window starts at 4 and
        # doubles to 8, 16 and 32 before the whole ring fits
        monkeypatch.setattr(neighbors, "_BLOCK", 5)
        monkeypatch.setattr(neighbors, "_QUERY_PAD", 0)
        windows = []
        rank = neighbors._rank

        def spy(cand, *args):
            windows.append(cand.shape)
            return rank(cand, *args)

        monkeypatch.setattr(neighbors, "_rank", spy)
        r = np.arange(-5, 6)
        grid = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
        sq = (grid**2).sum(axis=1)
        pts = np.vstack([np.zeros((2, 3)), grid[(sq == 25) | (sq == 26)]]).astype(float)
        pts = pts[rng.permutation(len(pts))]
        nl = knn(PointCloud(pts), 3)
        ridx, rdist = ref.ref_knn(pts, 3)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)
        assert max(w for _, w in windows) >= 32
        # only a lone query expands past its thread's share of
        # _BLOCK x (k + 1 + _QUERY_PAD) x (k + 1)
        assert all(b == 1 or b * w * 4 * cap <= 5 * 4 * 4 for b, w in windows)
        assert (1, 32) in windows

    def test_block_mixing_ordered_tied_and_piled_windows(self, rng, monkeypatch, cap):
        # interleaved in the last coordinate, so the small blocks of distinct
        # points mix three kinds of window: tie-free points the tree gives in
        # order, a shuffled lattice whose equidistant rings the tree gives in
        # its own order, not by row index, and the rows around a pile of 15
        # coincident rows
        monkeypatch.setattr(neighbors, "_BLOCK", 48)
        lattice = np.stack(np.meshgrid(np.arange(5), np.arange(5)), axis=-1).reshape(-1, 2)
        free = np.column_stack([rng.uniform(50, 60, 40), rng.uniform(0, 4, 40)])
        pile = np.vstack([np.full((15, 2), [100.0, 2.5]), [100.0, 2.5] + rng.uniform(-1, 1, (6, 2))])
        pts = np.vstack([lattice, free, pile]).astype(float)
        pts = pts[rng.permutation(len(pts))]
        kinds = []
        rank = neighbors._rank

        def spy(cand, d_cand, members, first, width, take):
            ids = members[first[cand]]
            d0, d1, i0, i1 = d_cand[:, :-1], d_cand[:, 1:], ids[:, :-1], ids[:, 1:]
            kinds.append(set(np.select(
                [(width[cand] > 1).any(axis=1), ((d0 == d1) & (i0 > i1)).any(axis=1), (d0 < d1).all(axis=1)],
                ["piled", "tie by the wrong index", "in order"],
                "other",
            ).tolist()))
            return rank(cand, d_cand, members, first, width, take)

        monkeypatch.setattr(neighbors, "_rank", spy)
        nl = knn(PointCloud(pts), 4)
        ridx, rdist = ref.ref_knn(pts, 4)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)
        assert len(kinds) > 1
        assert any({"piled", "tie by the wrong index", "in order"} <= block for block in kinds)

    def test_sort_path_gets_only_the_windows_that_need_it(self, rng):
        # a query is sorted only when a candidate stands for several rows or
        # the tree gave two candidates out of (distance, index) order
        needed, sorted_rows = [], []
        rank, sort_rows = neighbors._rank, neighbors._sort_rows

        def rank_spy(cand, d_cand, members, first, width, take):
            ids = members[first[cand]]
            d0, d1 = d_cand[:, :-1], d_cand[:, 1:]
            out_of_order = (d0 > d1) | ((d0 == d1) & (ids[:, :-1] > ids[:, 1:]))
            needed.append(int(((width[cand] > 1).any(axis=1) | out_of_order.any(axis=1)).sum()))
            return rank(cand, d_cand, members, first, width, take)

        def sort_spy(cand, *args):
            sorted_rows.append(len(cand))
            return sort_rows(cand, *args)

        pts = rng.random((2000, 3))
        pts[1990:] = pts[:10]  # ten pairs of coincident rows among 1,990 distinct points
        with mock.patch.object(neighbors, "_rank", rank_spy), \
                mock.patch.object(neighbors, "_sort_rows", sort_spy):
            knn(PointCloud(pts), 10)
        assert 0 < sum(sorted_rows) == sum(needed) < 200

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_bruteforce_property_on_lattice_widening(self, threads, data):
        # the lattice property from the narrowest window, in small blocks, so
        # most ties at the window's edge are settled by widening
        n = data.draw(st.integers(min_value=2, max_value=60))
        d = data.draw(st.integers(min_value=1, max_value=3))
        k = data.draw(st.integers(min_value=1, max_value=min(10, n - 1)))
        block = data.draw(st.integers(min_value=1, max_value=8))
        coords = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0])
        pts = data.draw(arrays(np.float64, (n, d), elements=coords))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "_QUERY_PAD", 0)
            mp.setattr(neighbors, "_BLOCK", block)
            mp.setenv("DRIFTGUARD_THREADS", threads)
            nl = knn(PointCloud(pts), k)
        ridx, rdist = ref.ref_knn(pts, k)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    def test_distances_nondecreasing(self, rng):
        nl = knn(PointCloud(rng.random((200, 3))), 10)
        assert (np.diff(nl.distances, axis=1) >= 0).all()

    def test_many_threads_switching_fast_match_bruteforce(self, rng, monkeypatch):
        # more threads than cores, switching as often as the interpreter
        # allows: every block's rows of the shared result must survive
        monkeypatch.setenv("DRIFTGUARD_THREADS", "8")
        monkeypatch.setattr(neighbors, "_BLOCK", 16)
        pts = rng.integers(0, 12, (600, 3)).astype(float)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            nl = knn(PointCloud(pts), 5)
        finally:
            sys.setswitchinterval(interval)
        ridx, rdist = ref.ref_knn(pts, 5)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    def test_traced_peak_is_bounded_by_the_result(self, rng, monkeypatch):
        # the blocks every thread has in flight share one _BLOCK bound, so
        # more threads do not multiply the scratch; tracemalloc traces them all
        monkeypatch.delenv("DRIFTGUARD_THREADS", raising=False)  # a budget of the machine's CPUs
        cloud = PointCloud(rng.random((20_000, 3)))
        knn(PointCloud(cloud.points[:50]), 10)  # imports made outside the trace
        tracemalloc.start()
        try:
            nl = knn(cloud, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = nl.indices.nbytes + nl.distances.nbytes  # 3.2 MB
        assert peak <= 4 * result


class TestLeader:
    def test_single_cluster_when_radius_covers_cloud(self, rng):
        cloud = PointCloud(rng.random((50, 2)))
        lc = leader(cloud, radius=10.0)
        assert len(lc.exemplars) == 1
        assert (lc.assignment == 0).all()

    def test_tiny_radius_every_point_exemplar(self, rng):
        pts = rng.random((30, 2))  # distinct points almost surely
        lc = leader(PointCloud(pts), radius=1e-12)
        assert len(lc.exemplars) == 30

    def test_hand_simulated_pass(self):
        cloud = PointCloud(np.array([[0.0], [0.1], [5.0]]))
        lc = leader(cloud, radius=0.5)
        np.testing.assert_array_equal(lc.exemplars, [0, 2])
        np.testing.assert_array_equal(lc.assignment, [0, 0, 1])

    def test_every_point_within_radius_of_exemplar(self, rng):
        for _ in range(10):
            pts = rng.random((100, 3))
            radius = float(rng.uniform(0.05, 0.8))
            lc = leader(PointCloud(pts), radius)
            ex_pts = pts[lc.exemplars[lc.assignment]]
            d = np.sqrt(((pts - ex_pts) ** 2).sum(axis=1))
            assert (d <= radius).all()

    def assert_matches_reference(self, pts, radius):
        lc = leader(PointCloud(pts), radius)
        rex, rassign = ref.ref_leader(pts, radius)
        np.testing.assert_array_equal(lc.exemplars, rex)
        np.testing.assert_array_equal(lc.assignment, rassign)
        return lc

    def test_matches_reference_pass(self, rng):
        self.assert_matches_reference(rng.random((120, 2)), 0.2)

    def test_matches_reference_one_sided_cloud(self, rng):
        # one-sided clipping: a quarter of the rows on the origin, exact ties
        # on the clipped faces, and hundreds of exemplars
        pts = normalize(np.maximum(rng.normal(size=(2000, 2)), 0.0)).points
        assert (pts == 0).all(axis=1).sum() > 400
        lc = self.assert_matches_reference(pts, default_leader_radius(2000, 2))
        assert len(lc.exemplars) > 100

    @pytest.mark.parametrize("radius", [1.0, np.sqrt(2.0)])
    def test_matches_reference_on_lattice_ties(self, rng, radius):
        # shuffled lattice with repeats: lattice neighbours sit at exactly
        # the radius, so the <= comparison decides who joins
        grid = np.array([[x, y] for x in range(8) for y in range(8)], dtype=float)
        pts = np.vstack([grid, grid[rng.integers(0, 64, 40)]])[rng.permutation(104)]
        self.assert_matches_reference(pts, radius)

    @pytest.mark.parametrize("d", [7, 8, 12])
    def test_matches_reference_either_side_of_eight_coordinates(self, rng, d):
        # numpy adds fewer than 8 squared terms in turn and more pairwise;
        # the exact check follows it on both sides. Each radius is a distance
        # from the first exemplar, point 0, so a last-bit slip moves a point.
        pts = rng.random((300, d))
        for radius in np.sort(ref.distance_matrix(pts)[0])[10:110:5]:
            lc = self.assert_matches_reference(pts, radius)
            assert 1 < len(lc.exemplars) < 300

    def test_every_row_identical(self):
        lc = self.assert_matches_reference(np.full((40, 3), 0.25), 0.1)
        np.testing.assert_array_equal(lc.exemplars, [0])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_reference_property_on_lattice(self, data):
        n = data.draw(st.integers(min_value=1, max_value=60))
        d = data.draw(st.integers(min_value=1, max_value=3))
        radius = data.draw(st.sampled_from([0.5, 1.0, np.sqrt(2.0), 2.0]))
        coords = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0])
        self.assert_matches_reference(data.draw(arrays(np.float64, (n, d), elements=coords)), radius)

    def test_radius_must_be_positive(self):
        for radius in (0.0, np.nan):
            with pytest.raises(DataError):
                leader(PointCloud(np.zeros((2, 1))), radius)


def test_default_radius_formula():
    assert default_leader_radius(100, 2) == pytest.approx(0.1 / np.log(100) ** 0.5)
    assert default_leader_radius(1000, 3) == pytest.approx(0.1 / np.log(1000) ** (1 / 3))


class TestThreadBudget:
    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.delenv("DRIFTGUARD_THREADS", raising=False)
        assert thread_cap() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert thread_cap() == 5
        monkeypatch.setenv("DRIFTGUARD_THREADS", "3")
        assert thread_cap() == 3
        monkeypatch.setenv("DRIFTGUARD_THREADS", "zero")
        with pytest.raises(ConfigError, match="DRIFTGUARD_THREADS must be an integer, got 'zero'"):
            thread_cap()
        monkeypatch.setenv("DRIFTGUARD_THREADS", "0")
        with pytest.raises(ConfigError, match="at least 1"):
            thread_cap()

    def test_map_keeps_item_order(self):
        assert parallel_map(lambda x: x * x, list(range(20)), 4) == [x * x for x in range(20)]

    def test_map_inside_a_worker_runs_inline(self):
        def inner(_):
            return threading.current_thread()

        def outer(x):
            return threading.current_thread(), parallel_map(inner, [x, x, x], 4)

        for worker, inner_threads in parallel_map(outer, [1, 2, 3], 3):
            assert worker is not threading.main_thread()
            assert inner_threads == [worker] * 3

    @pytest.mark.parametrize("items, workers", [([1], 4), ([1, 2, 3], 1)])
    def test_one_item_or_one_worker_creates_no_pool(self, items, workers, monkeypatch):
        monkeypatch.setattr(neighbors, "ThreadPoolExecutor", None)  # calling it would raise
        assert parallel_map(str, items, workers) == [str(x) for x in items]


def _record_calls(monkeypatch, name):
    """Patch ``neighbors.<name>`` to record (cloud size, *arguments) per call; return the record."""
    calls = []
    real = getattr(neighbors, name)

    def recorded(cloud, *args):
        calls.append((len(cloud), *args))
        return real(cloud, *args)

    monkeypatch.setattr(neighbors, name, recorded)
    return calls


def _hood_values(cloud, kind, k, reduce):
    """``hood_map`` over the cloud's kept k-lists, kept as (kind, k), as COF and LDOF keep it."""
    nl = cloud.neighbors(k)  # before kept: the cloud's lock is not re-entrant
    return cloud.kept((kind, k), neighbors.hood_map, nl, reduce)


class TestKeptBuilds:
    def test_neighbors_are_kept(self, rng):
        cloud = PointCloud(rng.random((80, 2)))
        assert cloud.neighbors(5) is cloud.neighbors(5)

    def test_each_k_keeps_its_own_lists(self, rng):
        # one-sided clipping puts ties at the origin
        cloud = normalize(np.maximum(rng.normal(size=(300, 3)), 0.0))
        three, seven = cloud.neighbors(3), cloud.neighbors(7)
        for k, kept in ((3, three), (7, seven)):
            direct = knn(cloud, k)
            assert kept.indices.tobytes() == direct.indices.tobytes()
            assert kept.distances.tobytes() == direct.distances.tobytes()
        assert cloud.neighbors(3) is three and cloud.neighbors(7) is seven

    def test_default_clusters_use_the_default_radius(self, rng):
        from driftguard import Method, ScoringConfig, score

        cloud = normalize(np.maximum(rng.normal(size=(500, 2)), 0.0))
        score(cloud, ScoringConfig(method=Method.HDOUTLIERS))  # leader_radius None
        spent = cloud.build_ms("leader")
        radius = default_leader_radius(len(cloud), cloud.dim)
        kept = cloud.clusters(radius)
        direct = leader(cloud, radius)
        np.testing.assert_array_equal(kept.exemplars, direct.exemplars)
        np.testing.assert_array_equal(kept.assignment, direct.assignment)
        assert cloud.clusters(radius) is kept
        assert spent > 0.0 and cloud.build_ms("leader") == spent

    def test_failed_build_raises_every_time_and_is_not_kept(self, monkeypatch):
        cloud = PointCloud(np.array([[0.0], [1.0], [2.0], [10.0]]))
        calls = _record_calls(monkeypatch, "knn")
        messages = set()
        for _ in range(3):
            with pytest.raises(DataError, match="k=4 must be smaller") as info:
                cloud.neighbors(4)
            messages.add(str(info.value))
        assert len(messages) == 1
        assert calls == [(4, 4)] * 3
        assert cloud.neighbors(3) is cloud.neighbors(3)
        assert calls == [(4, 4)] * 3 + [(4, 3)]

    @pytest.mark.parametrize("method, patched", [("KNN-SUM", "knn"), ("HDoutliers", "leader")])
    def test_run_detection_builds_once(self, method, patched, monkeypatch):
        from driftguard import Method, PipelineConfig, ScoringConfig, TransformKind, run_detection

        from conftest import make_multiseries

        rng = np.random.default_rng(16)
        ms = make_multiseries({v: rng.normal(50.0, 5.0, 200) for v in ("turbidity", "conductivity")})
        calls = _record_calls(monkeypatch, patched)
        pcfg = PipelineConfig(
            ("turbidity", "conductivity"),
            TransformKind.ORIGINAL,
            scoring=ScoringConfig(method=Method.parse(method)),
        )
        run_detection(ms, pcfg)
        assert [size for size, _ in calls] == [200]

    @pytest.mark.parametrize(
        "patched, ask_for", [("knn", "neighbors"), ("hood_map", "hood_values")]
    )
    def test_threads_asking_together_share_one_build(self, patched, ask_for, rng, monkeypatch):
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        cloud = normalize(np.maximum(rng.normal(size=(400, 2)), 0.0))
        calls = _record_calls(monkeypatch, patched)
        start = threading.Barrier(8)

        def ask():
            start.wait(timeout=10)
            if ask_for == "neighbors":
                return cloud.neighbors(4)
            return _hood_values(cloud, "cof", 4, _chain_dists)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # more threads than cores, released together
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(ask) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        if patched == "knn":
            assert calls == [(400, 4)]
        else:  # built from the cloud's kept lists
            assert calls == [(400, cloud.neighbors(4), _chain_dists)]
        assert all(r is results[0] for r in results)


class TestHoodValues:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_values_are_the_formulas_on_a_whole_block(self, data):
        # rows from a small pool plus a one-sided origin cluster, so
        # neighborhoods hold exact duplicates, zeros and -0.0; numpy adds
        # fewer than 8 coordinates in turn and more pairwise
        d = data.draw(st.integers(min_value=1, max_value=12))
        n = data.draw(st.integers(min_value=2, max_value=40))
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        coords = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
        pool = data.draw(arrays(np.float64, (4, d), elements=coords, fill=st.nothing()))
        pool[0] = 0.0
        pick = data.draw(arrays(np.int64, (n,), elements=st.integers(0, 3)))
        rows = data.draw(st.integers(min_value=1, max_value=n))  # built this many at a time
        cloud = PointCloud(pool[pick])
        with mock.patch.object(neighbors, "_HOOD_ROWS", rows):
            self.assert_values_are_the_formulas(cloud, k)

    @pytest.mark.parametrize("d", [7, 8, 12])
    def test_values_are_the_formulas_either_side_of_eight_coordinates(self, rng, d):
        # random coordinates, so the sums' last bits show on both sides
        self.assert_values_are_the_formulas(normalize(np.maximum(rng.normal(size=(300, d)), 0.0)), 10)

    @staticmethod
    def assert_values_are_the_formulas(cloud, k):
        chain = _hood_values(cloud, "cof", k, _chain_dists)
        pair_sums = _hood_values(cloud, "ldof", k, _pair_sums)
        # every neighborhood's distances at once, as one (n, k+1, k+1) array
        n = len(cloud)
        hood = cloud.points[np.column_stack([np.arange(n), cloud.neighbors(k).indices])]
        block = np.sqrt(((hood[:, :, None] - hood[:, None]) ** 2).sum(-1))
        corner = np.ascontiguousarray(block[:, 1:, 1:])
        for kept, want in ((chain, _avg_chain_dists(block)), (pair_sums, corner.sum(axis=(1, 2)))):
            assert kept.shape == (n,)
            assert not kept.flags.writeable
            assert kept.tobytes() == want.tobytes()
        assert _hood_values(cloud, "cof", k, _chain_dists) is chain
        assert _hood_values(cloud, "ldof", k, _pair_sums) is pair_sums

    def test_values_are_built_once_per_kind_and_timed(self, rng, monkeypatch):
        cloud = normalize(np.maximum(rng.normal(size=(300, 3)), 0.0))
        calls = _record_calls(monkeypatch, "hood_map")
        assert cloud.build_ms("cof") == 0.0
        chain = _hood_values(cloud, "cof", 5, _chain_dists)
        spent = cloud.build_ms("cof")
        assert spent > 0.0
        assert cloud.build_ms("ldof") == 0.0
        assert _hood_values(cloud, "cof", 5, _chain_dists) is chain
        assert cloud.build_ms("cof") == spent
        _hood_values(cloud, "ldof", 5, _pair_sums)
        assert cloud.build_ms("cof") == spent and cloud.build_ms("ldof") > 0.0
        assert [(size, reduce) for size, _, reduce in calls] == [
            (300, _chain_dists),
            (300, _pair_sums),
        ]

    def test_ldof_with_k_1_builds_nothing(self, rng, monkeypatch):
        from driftguard import Method, ScoringConfig, score

        cloud = normalize(rng.random((50, 2)))
        calls = _record_calls(monkeypatch, "hood_map")
        with pytest.raises(ConfigError, match="LDOF needs k >= 2"):
            score(cloud, ScoringConfig(method=Method.LDOF, k=1))
        assert calls == []
        assert cloud.build_ms("ldof") == 0.0

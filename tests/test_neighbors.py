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

    def test_matches_bruteforce_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(12, 300))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, min(11, n)))
            pts = rng.random((n, d))
            nl = knn(PointCloud(pts), k)
            ridx, rdist = ref.ref_knn(pts, k)
            np.testing.assert_array_equal(nl.indices, ridx)
            np.testing.assert_array_equal(nl.distances, rdist)

    def test_matches_bruteforce_with_many_duplicates(self, rng):
        # heavy ties exercise the widened windows of rows tied at the edge
        base = rng.integers(0, 4, (80, 2)).astype(float)
        nl = knn(PointCloud(base), 10)
        ridx, rdist = ref.ref_knn(base, 10)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    def test_matches_bruteforce_at_two_thousand_points(self, rng):
        pts = rng.random((2000, 3))
        nl = knn(PointCloud(pts), 10)
        ridx, rdist = ref.ref_knn(pts, 10)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    @given(
        arrays(np.float64, (30, 2), elements=st.floats(0, 1, width=16)),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_bruteforce_property(self, pts, k):
        nl = knn(PointCloud(pts), k)
        ridx, rdist = ref.ref_knn(pts, k)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    def test_matches_bruteforce_one_sided_cloud(self, rng):
        # one-sided clipping: ~1/8 of the rows on the origin, far more than a
        # tree window holds, plus exact ties on the clipped faces
        pts = np.maximum(rng.normal(size=(2000, 3)), 0.0)
        n_origin = int((pts == 0).all(axis=1).sum())
        assert n_origin > 10 + 1 + neighbors._QUERY_PAD
        nl = knn(PointCloud(pts), 10)
        ridx, rdist = ref.ref_knn(pts, 10)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    def test_every_row_identical(self):
        pts = np.full((40, 2), 0.25)
        nl = knn(PointCloud(pts), 10)
        ridx, rdist = ref.ref_knn(pts, 10)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)
        np.testing.assert_array_equal(nl.indices[0], np.arange(1, 11))
        np.testing.assert_array_equal(nl.indices[5], [0, 1, 2, 3, 4, 6, 7, 8, 9, 10])

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_duplicate_groups_around_group_size_k(self, rng, k):
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

    def test_blocks_and_fallback_match_bruteforce(self, rng, monkeypatch):
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
    def test_bruteforce_property_on_lattice(self, data):
        # small-integer lattices: duplicate groups of every size and exact
        # distance ties; -0.0 must tie with 0.0
        n = data.draw(st.integers(min_value=2, max_value=60))
        d = data.draw(st.integers(min_value=1, max_value=3))
        k = data.draw(st.integers(min_value=1, max_value=min(10, n - 1)))
        coords = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0])
        pts = data.draw(arrays(np.float64, (n, d), elements=coords))
        nl = knn(PointCloud(pts), k)
        ridx, rdist = ref.ref_knn(pts, k)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    def test_widening_doubles_window_until_tie_ring_fits(self, rng, monkeypatch):
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
        # only a lone query expands past _BLOCK x (k + 1 + _QUERY_PAD) x (k + 1)
        assert all(b == 1 or b * w * 4 <= 5 * 4 * 4 for b, w in windows)
        assert (1, 32) in windows

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bruteforce_property_on_lattice_widening(self, data):
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
            nl = knn(PointCloud(pts), k)
        ridx, rdist = ref.ref_knn(pts, k)
        np.testing.assert_array_equal(nl.indices, ridx)
        np.testing.assert_array_equal(nl.distances, rdist)

    def test_distances_nondecreasing(self, rng):
        nl = knn(PointCloud(rng.random((200, 3))), 10)
        assert (np.diff(nl.distances, axis=1) >= 0).all()


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


def _record_calls(monkeypatch, name):
    """Patch ``neighbors.<name>`` to record (cloud size, argument) per call; return the record."""
    calls = []
    real = getattr(neighbors, name)

    def recorded(cloud, arg):
        calls.append((len(cloud), arg))
        return real(cloud, arg)

    monkeypatch.setattr(neighbors, name, recorded)
    return calls


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
        cloud = normalize(np.maximum(rng.normal(size=(500, 2)), 0.0))
        kept = cloud.clusters(None)
        direct = leader(cloud, default_leader_radius(len(cloud), cloud.dim))
        np.testing.assert_array_equal(kept.exemplars, direct.exemplars)
        np.testing.assert_array_equal(kept.assignment, direct.assignment)
        assert cloud.clusters() is kept

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
        "patched, ask_for", [("knn", "neighbors"), ("hood_block", "hood_distances")]
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
            return getattr(cloud, ask_for)(4)

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
            assert len(calls) == 1
            assert calls[0][0] == 400 and calls[0][1] is cloud.neighbors(4)
        assert all(r is results[0] for r in results)


class TestHoodBlock:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_block_is_the_direct_formula_on_duplicate_rows(self, data):
        # rows from a small pool plus a one-sided origin cluster, so
        # neighborhoods hold exact duplicates, zeros and -0.0
        d = data.draw(st.integers(min_value=1, max_value=7))
        n = data.draw(st.integers(min_value=2, max_value=40))
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        coords = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
        pool = data.draw(arrays(np.float64, (4, d), elements=coords))
        pool[0] = 0.0
        pick = data.draw(arrays(np.int64, (n,), elements=st.integers(0, 3)))
        rows = data.draw(st.integers(min_value=1, max_value=n))  # built this many at a time
        cloud = PointCloud(pool[pick])
        with mock.patch.object(neighbors, "_HOOD_ROWS", rows):
            block = cloud.hood_distances(k)
        assert block.shape == (n, k + 1, k + 1)
        assert not block.flags.writeable
        hood = cloud.points[np.column_stack([np.arange(n), cloud.neighbors(k).indices])]
        want = np.sqrt(((hood[:, :, None] - hood[:, None]) ** 2).sum(-1))
        assert block.tobytes() == want.tobytes()
        assert block.tobytes() == block.transpose(0, 2, 1).copy().tobytes()
        assert not block[:, np.arange(k + 1), np.arange(k + 1)].any()
        assert cloud.hood_distances(k) is block

    def test_block_is_built_once_and_timed(self, rng, monkeypatch):
        cloud = normalize(np.maximum(rng.normal(size=(300, 3)), 0.0))
        calls = _record_calls(monkeypatch, "hood_block")
        assert cloud.build_ms("hood") == 0.0
        block = cloud.hood_distances(5)
        spent = cloud.build_ms("hood")
        assert spent > 0.0
        assert cloud.hood_distances(5) is block
        assert cloud.build_ms("hood") == spent
        assert [size for size, _ in calls] == [300]

    def test_ldof_with_k_1_builds_no_block(self, rng, monkeypatch):
        from driftguard import Method, ScoringConfig, score

        cloud = normalize(rng.random((50, 2)))
        calls = _record_calls(monkeypatch, "hood_block")
        with pytest.raises(DataError, match="k >= 2"):
            score(cloud, ScoringConfig(method=Method.LDOF, k=1))
        assert calls == []
        assert cloud.build_ms("hood") == 0.0

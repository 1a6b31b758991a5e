import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftguard import ConfigError, DataError, Method, PointCloud, ScoringConfig, knn, normalize, score
from driftguard.neighbors import _sq_distances, default_leader_radius
from driftguard.scoring import _density_floor, kept_reads, knn_agg_weights, score_inflo

import reference as ref

LINE4 = PointCloud(np.array([[0.0], [1.0], [2.0], [10.0]]))


def grid10() -> PointCloud:
    return PointCloud(np.array([[x, y] for x in range(10) for y in range(10)], dtype=float))


class TestHDoutliers:
    def test_line4_nn_distances(self):
        sv = score(LINE4, ScoringConfig(method=Method.HDOUTLIERS, leader_radius=1e-9))
        np.testing.assert_allclose(sv.scores, [1.0, 1.0, 1.0, 8.0])

    def test_masking_failure_documented(self, rng):
        # two near-coincident outliers far from the bulk score each other low
        cluster = rng.random((50, 2)) * 0.2
        pair = np.array([[5.0, 5.0], [5.001, 5.0]])
        cloud = PointCloud(np.vstack([cluster, pair]))
        sv = score(cloud, ScoringConfig(method=Method.HDOUTLIERS, leader_radius=5e-4))
        assert sv.scores[-1] == pytest.approx(0.001)
        assert sv.scores[-1] < sv.scores[:50].max()

    def test_uniform_grid_scores_equal_pitch(self):
        sv = score(grid10(), ScoringConfig(method=Method.HDOUTLIERS, leader_radius=1e-9))
        np.testing.assert_allclose(sv.scores, np.ones(100))

    def test_single_cluster_scores_zero(self, rng, monkeypatch):
        # on every call, with no exemplar kNN
        from driftguard import neighbors

        calls = []
        monkeypatch.setattr(neighbors, "knn", lambda cloud, k: calls.append(k))
        pts = rng.random((20, 2))
        cloud = PointCloud(pts)
        cfg = ScoringConfig(method=Method.HDOUTLIERS, leader_radius=100.0)
        for _ in range(2):
            sv = score(cloud, cfg)
            np.testing.assert_array_equal(sv.scores, np.zeros(20))
            assert sv.scores.tobytes() == ref.ref_hdoutliers(pts, 100.0).tobytes()
            assert sv.notes == ("single leader cluster: all scores 0",)
        assert calls == []
        assert cloud.build_ms("exemplar_knn") == 0.0

    def test_exemplar_knn_runs_once_a_cloud_and_counts_as_its_build(self, rng, monkeypatch):
        from driftguard import neighbors

        calls = []
        real_knn = neighbors.knn

        def slow_knn(cloud, k):
            calls.append((len(cloud), k))
            time.sleep(0.05)
            return real_knn(cloud, k)

        monkeypatch.setattr(neighbors, "knn", slow_knn)
        pts = rng.random((200, 2))
        cloud = PointCloud(pts)
        cfg = ScoringConfig(method=Method.HDOUTLIERS, leader_radius=0.1)
        first, second = score(cloud, cfg), score(cloud, cfg)
        assert calls == [(len(cloud.clusters(0.1).exemplars), 1)]
        assert cloud.build_ms("exemplar_knn") >= 50.0
        assert "exemplar_knn" in kept_reads(Method.HDOUTLIERS)
        want = ref.ref_hdoutliers(pts, 0.1)
        assert first.scores.tobytes() == want.tobytes()
        assert second.scores.tobytes() == want.tobytes()
        assert first.notes == second.notes == ()


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_needs_two_points(method):
    with pytest.raises(DataError):
        score(PointCloud(np.zeros((1, 1))), ScoringConfig(method=method))


@pytest.mark.parametrize(
    "method", [m for m in Method if m is not Method.HDOUTLIERS], ids=lambda m: m.value
)
def test_k_too_large(method):
    with pytest.raises(DataError, match="k=4 must be smaller than the cloud size n=4"):
        score(LINE4, ScoringConfig(method=method, k=4))


@pytest.mark.parametrize(
    "method", [m for m in Method if m is not Method.HDOUTLIERS], ids=lambda m: m.value
)
def test_second_score_reads_the_clouds_kept_lists(method, rng, monkeypatch):
    from driftguard import neighbors

    cloud = normalize(rng.normal(size=(60, 2)))
    cfg = ScoringConfig(method=method, k=4)
    first = score(cloud, cfg)
    calls = []
    monkeypatch.setattr(neighbors, "knn", lambda *args: calls.append(args))
    second = score(cloud, cfg)
    assert calls == []
    np.testing.assert_array_equal(second.scores, first.scores)
    assert second.notes == first.notes


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_kept_reads_names_exactly_what_score_builds(method, monkeypatch):
    # a one-sided cloud: one row in eight sits on the origin
    points = np.maximum(np.random.default_rng(36).normal(size=(300, 3)), 0.0)
    cfg = ScoringConfig(method=method, k=6)
    asked = []
    real_kept = PointCloud.kept

    def kept(cloud, key, build, *args):
        asked.append(key[0])
        return real_kept(cloud, key, build, *args)

    monkeypatch.setattr(PointCloud, "kept", kept)
    cloud = normalize(points)
    first = score(cloud, cfg)
    all_kinds = {kind for m in Method for kind in kept_reads(m)}
    spent = {kind: cloud.build_ms(kind) for kind in all_kinds}
    assert set(asked) == set(kept_reads(method))
    assert {kind for kind, ms in spent.items() if ms > 0.0} == set(kept_reads(method))

    second = score(cloud, cfg)  # builds nothing
    assert {kind: cloud.build_ms(kind) for kind in all_kinds} == spent
    assert second.scores.tobytes() == first.scores.tobytes()

    # the same scores on a cloud where the seven other methods built first
    warm = normalize(points)
    for other in Method:
        if other is not method:
            score(warm, replace(cfg, method=other))
    radius = default_leader_radius(len(warm), warm.dim)
    assert len(warm.clusters(radius).exemplars) >= 2
    after = score(warm, cfg)
    assert after.scores.tobytes() == first.scores.tobytes()
    assert after.notes == first.notes


@pytest.mark.parametrize(
    "field", ["leader_radius", "rkof_bandwidth_scale", "rkof_weight_sigma"]
)
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_config_rejects_non_positive_and_nan(field, value):
    with pytest.raises(ConfigError):
        ScoringConfig(**{field: value})


@pytest.mark.parametrize("field", ["rkof_bandwidth_scale", "rkof_bandwidth_exponent"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_config_rejects_non_finite_bandwidth(field, value):
    # either one makes every kernel density vanish and every RKOF score the cap
    with pytest.raises(ConfigError, match=field):
        ScoringConfig(**{field: value})


def test_config_allows_infinite_weight_sigma():
    # the unweighted limit: every neighbor weighs exp(0) = 1
    cfg = ScoringConfig(method=Method.RKOF, k=3, rkof_weight_sigma=np.inf)
    assert np.isfinite(score(grid10(), cfg).scores).all()


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_sq_distances_bit_equal_to_summed_squares(data):
    # numpy adds fewer than 8 terms in order and 8 or more pairwise; rows are
    # drawn from a small pool so neighborhoods repeat rows, zeros and -0.0
    d = data.draw(st.integers(min_value=1, max_value=12))
    n = data.draw(st.integers(min_value=1, max_value=5))
    m = data.draw(st.integers(min_value=1, max_value=6))
    coords = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
    pool = data.draw(arrays(np.float64, (4, d), elements=coords, fill=st.nothing()))
    pick = data.draw(arrays(np.int64, (n, m + 1), elements=st.integers(0, 3)))
    own, hood = pool[pick[:, 0]], pool[pick[:, 1:]]  # (n, d), (n, m, d)
    for a, b in [(hood[:, :, None], hood[:, None]), (own[:, None], hood)]:
        want = ((a - b) ** 2).sum(axis=-1)
        # coordinate-major views of the point-major arrays, and one
        # contiguous copy per coordinate as knn gathers them
        cols_a, cols_b = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
        for ops in [(cols_a, cols_b), (list(cols_a.copy()), cols_b)]:
            got = _sq_distances(*ops)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", [Method.COF, Method.LDOF], ids=lambda m: m.value)
def test_score_peak_stays_under_the_kept_lists_bytes(method, rng):
    # Scoring, kept build included, on a cloud whose kNN lists are kept. Its
    # peak stays under the lists' own n k (8 + 8) bytes: an (n, k+1, k+1)
    # float64 block of neighborhood distances alone is 6x that at k = 10.
    n, k = 20_000, 10
    cloud = normalize(np.maximum(rng.standard_normal((n, 3)), 0.0))  # 1 row in 8 at the origin
    cloud.neighbors(k)
    tracemalloc.start()
    try:
        score(cloud, ScoringConfig(method=method, k=k))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * k * 16


class TestKnnSum:
    def test_line4(self):
        sv = score(LINE4, ScoringConfig(method=Method.KNN_SUM, k=2))
        np.testing.assert_allclose(sv.scores, [3.0, 2.0, 3.0, 17.0])
        assert sv.scores.argmax() == 3

    def test_coincident_scores_zero(self):
        cloud = PointCloud(np.ones((5, 2)))
        sv = score(cloud, ScoringConfig(method=Method.KNN_SUM, k=2))
        np.testing.assert_array_equal(sv.scores, np.zeros(5))

    def test_k1_equals_nn_distance(self, rng):
        pts = rng.random((30, 2))
        sv = score(PointCloud(pts), ScoringConfig(method=Method.KNN_SUM, k=1))
        _, rdist = ref.ref_knn(pts, 1)
        np.testing.assert_allclose(sv.scores, rdist[:, 0])


class TestKnnAgg:
    def test_weights(self):
        np.testing.assert_allclose(knn_agg_weights(2), [2 / 3, 1 / 3])
        assert knn_agg_weights(10).sum() == pytest.approx(1.0)

    def test_line4_weighted(self):
        sv = score(LINE4, ScoringConfig(method=Method.KNN_AGG, k=2))
        np.testing.assert_allclose(sv.scores, [4 / 3, 1.0, 4 / 3, 25 / 3])
        assert sv.scores.argmax() == 3

    def test_k1_ranking_matches_knn_sum(self, rng):
        cloud = PointCloud(rng.random((40, 3)))
        agg = score(cloud, ScoringConfig(method=Method.KNN_AGG, k=1)).scores
        plain = score(cloud, ScoringConfig(method=Method.KNN_SUM, k=1)).scores
        np.testing.assert_array_equal(np.argsort(agg), np.argsort(plain))

    def test_uniform_weights_reproduce_knn_sum_ranking(self, rng):
        # proportionality: a flat weight vector is knn_sum up to a constant
        pts = rng.random((60, 2))
        _, dist = ref.ref_knn(pts, 5)
        w = np.full(5, 1 / 5)
        np.testing.assert_array_equal(
            np.argsort(dist @ w), np.argsort(dist.sum(axis=1))
        )
        assert (dist @ w).argmax() == dist.sum(axis=1).argmax()


class TestLof:
    def test_grid_interior_exactly_one(self):
        sv = score(grid10(), ScoringConfig(method=Method.LOF, k=10))
        assert sv.scores[55] == pytest.approx(1.0, abs=1e-9)

    def test_far_point_large(self):
        pts = np.vstack([grid10().points, [[40.0, 40.0]]])
        sv = score(PointCloud(pts), ScoringConfig(method=Method.LOF, k=10))
        assert sv.scores[-1] == pytest.approx(20.651503, rel=1e-5)
        assert sv.scores[-1] == sv.scores.max()

    def test_all_coincident_scores_one(self):
        sv = score(PointCloud(np.ones((12, 2))), ScoringConfig(method=Method.LOF, k=3))
        np.testing.assert_allclose(sv.scores, np.ones(12))


class TestCof:
    def test_on_line_exactly_one(self):
        line = np.array([[i * 1.0, 0.0] for i in range(20)])
        sv = score(PointCloud(line), ScoringConfig(method=Method.COF, k=5))
        assert sv.scores[10] == pytest.approx(1.0, abs=1e-9)

    def test_off_line_point_above_one(self):
        line = np.array([[i * 1.0, 0.0] for i in range(20)])
        pts = np.vstack([line, [[10.0, 6.0]]])
        sv = score(PointCloud(pts), ScoringConfig(method=Method.COF, k=5))
        assert sv.scores[-1] == pytest.approx(8 / 3, rel=1e-9)
        assert sv.scores[-1] > 1.0

    def test_symmetric_cluster_equal_scores(self):
        # square corners: full symmetry
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        sv = score(PointCloud(pts), ScoringConfig(method=Method.COF, k=2))
        np.testing.assert_allclose(sv.scores, sv.scores[0])

    def test_all_coincident_scores_one(self):
        sv = score(PointCloud(np.zeros((8, 2))), ScoringConfig(method=Method.COF, k=3))
        np.testing.assert_allclose(sv.scores, np.ones(8))


class TestInflo:
    def test_grid_interior_exactly_one(self):
        sv = score(grid10(), ScoringConfig(method=Method.INFLO, k=10))
        assert sv.scores[55] == pytest.approx(1.0, abs=1e-9)

    def test_sparse_point_adjacent_to_dense_cluster_below_lof(self, rng):
        dense = np.random.default_rng(5).normal(0, 0.05, (30, 2))
        sparse = np.array([[1.0 + i * 1.0, 0.0] for i in range(6)])
        cloud = PointCloud(np.vstack([dense, sparse]))
        inflo = score(cloud, ScoringConfig(method=Method.INFLO, k=5)).scores[30]
        lof = score(cloud, ScoringConfig(method=Method.LOF, k=5)).scores[30]
        assert inflo < lof

    def test_symmetric_far_pair_equal(self):
        # configuration is mirror-symmetric about x = 5.1, swapping the pair
        cluster = np.array([[5.05, 0.0], [5.15, 0.0], [5.05, 0.1], [5.15, 0.1]])
        pair = np.array([[5.0, 5.0], [5.2, 5.0]])
        sv = score(PointCloud(np.vstack([cluster, pair])), ScoringConfig(method=Method.INFLO, k=2))
        assert sv.scores[4] == pytest.approx(sv.scores[5], rel=1e-12)


def _inflo_by_unique(cloud: PointCloud, nl, k: int) -> np.ndarray:
    """INFLO with the influence edges deduplicated by np.unique over both directions."""
    n = len(cloud)
    den = 1.0 / np.maximum(nl.distances[:, -1], _density_floor(cloud))
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = nl.indices.ravel()
    keys = np.unique(np.concatenate([src * n + dst, dst * n + src]))
    owners, members = keys // n, keys % n
    sums = np.bincount(owners, weights=den[members], minlength=n)
    return sums / np.bincount(owners, minlength=n) / den


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_inflo_bit_equal_to_unique_edge_union(data):
    # one-sided clouds: about half of each column clipped to zero, and some
    # rounded so whole rows repeat, which makes many edges mutual
    n = data.draw(st.integers(min_value=3, max_value=120))
    d = data.draw(st.integers(min_value=1, max_value=3))
    k = data.draw(st.integers(min_value=1, max_value=min(n - 1, 12)))
    # fill=st.nothing(): else hypothesis fills most cells with one value
    raw = data.draw(arrays(np.float64, (n, d), elements=st.floats(-3.0, 3.0), fill=st.nothing()))
    pts = np.maximum(raw, 0.0)
    decimals = data.draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        pts = np.round(pts, decimals)
    cloud = PointCloud(pts)
    nl = knn(cloud, k)
    got = score_inflo(cloud, nl, ScoringConfig(method=Method.INFLO, k=k)).scores
    assert got.tobytes() == _inflo_by_unique(cloud, nl, k).tobytes()


def test_inflo_builds_no_gathered_neighbor_lists(rng):
    # Gathering kNN(o) for every edge p -> o makes an (n k, k) int64 array,
    # k units of n k int64 alone; the scorer's own peak stays under 8 units.
    n, k = 3000, 10
    cloud = normalize(np.maximum(rng.standard_normal((n, 3)), 0.0))  # 1 row in 8 at the origin
    nl = knn(cloud, k)
    tracemalloc.start()
    try:
        score_inflo(cloud, nl, ScoringConfig(method=Method.INFLO, k=k))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * k * 8


class TestLdof:
    def test_equilateral_triangle_is_one(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        sv = score(PointCloud(tri), ScoringConfig(method=Method.LDOF, k=2))
        np.testing.assert_allclose(sv.scores, np.ones(3), rtol=1e-12)

    def test_centroid_below_one(self):
        tri = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.660254037844386]])
        cloud = PointCloud(np.vstack([tri, tri.mean(axis=0)[None, :]]))
        sv = score(cloud, ScoringConfig(method=Method.LDOF, k=3))
        assert sv.scores[-1] == pytest.approx(0.577350269190, rel=1e-9)

    def test_isolated_point_large(self):
        pts = np.array([[0.0], [0.05], [0.1], [0.15], [5.0]])
        sv = score(PointCloud(pts), ScoringConfig(method=Method.LDOF, k=3))
        assert sv.scores[-1] == pytest.approx(73.5, rel=1e-9)
        assert sv.scores[-1] == sv.scores.max()

    def test_coincident_neighborhood_capped(self):
        pts = np.array([[0.0], [0.0], [0.0], [7.0]])
        sv = score(PointCloud(pts), ScoringConfig(method=Method.LDOF, k=2))
        assert np.isfinite(sv.scores).all()
        assert sv.notes  # degeneracy reported
        assert sv.scores[3] == sv.scores.max()

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ConfigError, match="LDOF needs k >= 2"):
            ScoringConfig(method=Method.LDOF, k=1)

    def test_pair_sums_taken_in_row_chunks_match_one_fresh_array(self, rng):
        # more rows than one chunk of the build, and not a multiple of it
        from driftguard.neighbors import _HOOD_ROWS

        n, k = 2 * _HOOD_ROWS + 37, 6
        cloud = PointCloud(rng.random((n, 3)))
        nl = cloud.neighbors(k)
        nbr = cloud.points[nl.indices]
        pair = np.sqrt(((nbr[:, :, None] - nbr[:, None]) ** 2).sum(-1))
        want = nl.distances.mean(axis=1) / (pair.sum(axis=(1, 2)) / (k * (k - 1)))
        got = score(cloud, ScoringConfig(method=Method.LDOF, k=k)).scores
        assert got.tobytes() == want.tobytes()


class TestRkof:
    def test_grid_interior_exactly_one(self):
        sv = score(grid10(), ScoringConfig(method=Method.RKOF, k=10))
        assert sv.scores[55] == pytest.approx(1.0, abs=1e-9)

    def test_gross_outlier_much_larger(self):
        pts = np.vstack([grid10().points, [[40.0, 40.0]]])
        sv = score(PointCloud(pts), ScoringConfig(method=Method.RKOF, k=10))
        assert sv.scores[-1] > 100.0
        assert sv.scores[-1] == sv.scores.max()

    def test_permutation_equivariance(self, rng):
        pts = rng.random((50, 2))
        perm = rng.permutation(50)
        a = score(PointCloud(pts), ScoringConfig(method=Method.RKOF, k=10)).scores
        b = score(PointCloud(pts[perm]), ScoringConfig(method=Method.RKOF, k=10)).scores
        np.testing.assert_allclose(b, a[perm], rtol=1e-12)

    def test_all_coincident_scores_one(self):
        sv = score(PointCloud(np.zeros((6, 3))), ScoringConfig(method=Method.RKOF, k=2))
        np.testing.assert_allclose(sv.scores, np.ones(6))


ALL_METHODS = list(Method)


def run_method(method: Method, cloud: PointCloud, k: int = 10) -> np.ndarray:
    cfg = ScoringConfig(method=method, k=k)
    return score(cloud, cfg).scores


class TestSharedProperties:
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_permutation_equivariance(self, method, rng):
        # The exemplar method inherits the single-pass clustering's order
        # dependence, so its equivariance only holds in the radius->0 limit
        # where every point is its own exemplar.
        cfg = ScoringConfig(
            method=method,
            k=10,
            leader_radius=1e-12 if method is Method.HDOUTLIERS else None,
        )
        pts = rng.random((60, 3))
        perm = rng.permutation(60)
        a = score(PointCloud(pts), cfg).scores
        b = score(PointCloud(pts[perm]), cfg).scores
        np.testing.assert_allclose(b, a[perm], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_gross_outlier_ranked_highest(self, method, rng):
        cluster = rng.random((40, 2))
        pts = np.vstack([cluster, [[50.0, 50.0]]])
        scores = run_method(method, normalize(pts))
        if method is Method.HDOUTLIERS:
            # cluster members inherit their exemplar's score, so the outlier
            # can only tie the maximum, never sit strictly above it
            assert scores[40] == scores.max()
        else:
            assert scores.argmax() == 40

    def test_knn_family_translation_rotation_invariant_scale_equivariant(self, rng):
        pts = rng.random((50, 2))
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        for method in (Method.KNN_SUM, Method.KNN_AGG):
            cfg = ScoringConfig(method=method, k=10)
            base = score(PointCloud(pts), cfg).scores
            shifted = score(PointCloud(pts + 7.5), cfg).scores
            rotated = score(PointCloud(pts @ rot.T), cfg).scores
            scaled = score(PointCloud(pts * 3.0), cfg).scores
            np.testing.assert_allclose(shifted, base, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(rotated, base, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-9)

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_scores_nonnegative_finite(self, method, rng):
        scores = run_method(method, PointCloud(rng.random((40, 2))), k=5)
        assert np.isfinite(scores).all()
        assert (scores >= 0).all()

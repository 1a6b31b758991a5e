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

    def test_denormalize_round_trip(self, rng):
        pts = rng.normal(3, 10, (50, 3))
        cloud = normalize(pts)
        np.testing.assert_allclose(cloud.denormalize(), pts, rtol=1e-12, atol=1e-12)

    def test_denormalize_requires_record(self):
        with pytest.raises(DataError):
            PointCloud(np.zeros((3, 1))).denormalize()


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
        # heavy ties exercise the full-scan fallback
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
        # of equidistant points, so the per-point full scan runs in most blocks
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

    def test_matches_reference_pass(self, rng):
        pts = rng.random((120, 2))
        lc = leader(PointCloud(pts), 0.2)
        rex, rassign = ref.ref_leader(pts, 0.2)
        np.testing.assert_array_equal(lc.exemplars, rex)
        np.testing.assert_array_equal(lc.assignment, rassign)

    def test_radius_must_be_positive(self):
        with pytest.raises(DataError):
            leader(PointCloud(np.zeros((2, 1))), 0.0)


def test_default_radius_formula():
    assert default_leader_radius(100, 2) == pytest.approx(0.1 / np.log(100) ** 0.5)
    assert default_leader_radius(1000, 3) == pytest.approx(0.1 / np.log(1000) ** (1 / 3))

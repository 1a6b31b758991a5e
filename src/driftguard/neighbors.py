"""Shared geometry: unit-hypercube normalization, exact kNN, Leader clustering.

kNN is kd-tree accelerated but contractually exact: candidate selection comes
from the tree, final distances are recomputed from coordinates, and boundary
ties fall back to a full scan, so the result is identical to brute force with
ties broken by lower index. It runs on the distinct points: exact duplicate
rows (the origin cluster of the one-sided transform) collapse into one tree
point, and the full scan fires only when distinct points tie across the edge
of the tree window.

Leader clustering follows the same contract: one tree over the cloud, one
ball query per exemplar, and each candidate's distance recomputed from the
coordinates, so the clusters are those of a direct single pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError

# Extra distinct points fetched per tree query. A distinct point whose
# (k + 1)-th best row distance is not strictly below the farthest candidate in
# its window may have tied distinct points outside it; it gets an exact
# full-row scan.
_QUERY_PAD = 16
# Distinct points queried and ranked together; bounds the candidate expansion
# (at most block x window x (k + 1) entries) and so peak memory.
_BLOCK = 2048
# Relative margin on a Leader ball query, far above rounding in the tree's
# distances, so the ball holds every point the exact formula puts in reach.
_BALL_PAD = 1e-9


@dataclass(frozen=True)
class PointCloud:
    """Finite points, one row per point."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if not np.isfinite(pts).all():
            raise DataError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def diameter_bound(self) -> float:
        """Cheap upper bound on the cloud diameter (bounding-box diagonal)."""
        span = self.points.max(axis=0) - self.points.min(axis=0)
        return float(np.sqrt((span**2).sum()))


@dataclass(frozen=True)
class NeighborLists:
    """Per point: its k nearest neighbors, ascending by (distance, index)."""

    indices: np.ndarray  # (n, k) int64
    distances: np.ndarray  # (n, k) float64
    k: int


@dataclass(frozen=True)
class LeaderClustering:
    exemplars: np.ndarray  # exemplar point indices, in creation order
    assignment: np.ndarray  # per point: cluster id (position in exemplars)
    radius: float


def normalize(points: np.ndarray) -> PointCloud:
    """Min-max scale each dimension into [0, 1]; degenerate dimensions map to 0.

    Idempotent: normalizing an already-normalized cloud is the identity.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(pts) == 0:
        raise DataError("cannot normalize zero points")
    if not np.isfinite(pts).all():
        raise DataError("cannot normalize non-finite points")
    mins = pts.min(axis=0)
    maxs = pts.max(axis=0)
    span = maxs - mins
    safe = np.where(span > 0, span, 1.0)
    scaled = (pts - mins) / safe
    scaled[:, span == 0] = 0.0
    return PointCloud(points=scaled)


def knn(cloud: PointCloud, k: int) -> NeighborLists:
    """Exact k nearest neighbors of every point, self excluded.

    Euclidean metric; ties broken by lower index. Raises when k >= n.
    """
    pts = cloud.points
    n = len(pts)
    if k < 1:
        raise DataError("k must be at least 1")
    if k >= n:
        raise DataError(f"k={k} must be smaller than the cloud size n={n}")

    # Rows with equal coordinates share their k + 1 best rows; each row's list
    # is its group's with the row itself dropped. A group can place at most
    # its k + 1 lowest-index members in any such list.
    uniq, inverse, counts = np.unique(pts, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    n_uniq = len(uniq)
    members = np.argsort(inverse, kind="stable")  # group by group, ascending index
    first = np.cumsum(counts) - counts  # each group's offset in members
    take = k + 1
    width = np.minimum(counts, take)
    top_ids = np.empty((n_uniq, take), dtype=np.int64)
    top_d = np.empty((n_uniq, take), dtype=np.float64)

    tree = cKDTree(uniq)
    m = min(n_uniq, take + _QUERY_PAD)
    for lo in range(0, n_uniq, _BLOCK):
        query = uniq[lo : lo + _BLOCK]
        b = len(query)
        _, cand = tree.query(query, k=m)
        cand = cand.reshape(b, m)
        # Tree output selects candidates only; distances are recomputed from the
        # coordinates so values and tie order match a direct scan bit for bit.
        d_cand = np.sqrt(((uniq[cand] - query[:, None, :]) ** 2).sum(axis=-1))
        # Expand each candidate into its members; a query's entries form one
        # run of >= k + 1 (m >= k + 1 distinct points, or all n rows).
        w = width[cand]
        sizes = w.sum(axis=1)
        w = w.ravel()
        offset = np.arange(w.sum()) - np.repeat(np.cumsum(w) - w, w)
        ids = members[np.repeat(first[cand.ravel()], w) + offset]
        dists = np.repeat(d_cand.ravel(), w)
        # One flat lexsort ranks every run at once, keeping each in place.
        order = np.lexsort((ids, dists, np.repeat(np.arange(b), sizes)))
        pick = order[(np.cumsum(sizes) - sizes)[:, None] + np.arange(take)]
        top_ids[lo : lo + b], top_d[lo : lo + b] = ids[pick], dists[pick]

        if m < n_uniq:
            # A window provably holds every point at distance <= the (k+1)-th
            # selected distance only when its farthest candidate lies strictly
            # beyond it; otherwise distinct points tied at that distance may
            # lie outside the window. Those get an exact full scan: k + 1
            # smallest by value, then the boundary tie group re-ranked by index.
            needy = np.nonzero(d_cand.max(axis=1) <= top_d[lo : lo + b, -1])[0] + lo
            for u in needy:
                d = np.sqrt(((uniq - uniq[u]) ** 2).sum(axis=-1))[inverse]
                kth = np.partition(d, k)[k]
                in_play = np.nonzero(d <= kth)[0]
                top = np.lexsort((in_play, d[in_play]))[:take]
                top_ids[u] = in_play[top]
                top_d[u] = d[in_play][top]

    # Drop each row from its group's list, or the list's last entry when the
    # row is not in it.
    is_self = top_ids[inverse] == np.arange(n)[:, None]
    self_pos = np.where(is_self.any(axis=1), is_self.argmax(axis=1), k)
    pick = np.arange(k) + (np.arange(k) >= self_pos[:, None])
    group = inverse[:, None]
    return NeighborLists(indices=top_ids[group, pick], distances=top_d[group, pick], k=k)


def leader(cloud: PointCloud, radius: float) -> LeaderClustering:
    """Hartigan's single-pass Leader clustering.

    In point order, each point joins the first exemplar (creation order)
    within ``radius``, else becomes a new exemplar. Order-dependent by design.

    Each exemplar is the lowest-index point no earlier exemplar covers, and it
    claims every still-uncovered point within ``radius``. The tree ball only
    selects candidates; the exact distance formula decides.
    """
    if not radius > 0:
        raise DataError("leader radius must be positive")
    pts = cloud.points
    n = len(pts)
    assignment = np.empty(n, dtype=np.int64)
    uncovered = np.ones(n + 1, dtype=bool)  # trailing sentinel ends the scan
    exemplars = []
    tree = cKDTree(pts)
    reach = radius * (1.0 + _BALL_PAD)
    i = 0
    while i < n:
        ball = np.asarray(tree.query_ball_point(pts[i], reach), dtype=np.int64)
        ball = ball[uncovered[ball]]
        d = np.sqrt(((pts[ball] - pts[i]) ** 2).sum(axis=-1))
        hit = ball[d <= radius]
        assignment[hit] = len(exemplars)
        uncovered[hit] = False
        exemplars.append(i)
        i += int(uncovered[i:].argmax())
    return LeaderClustering(
        exemplars=np.asarray(exemplars, dtype=np.int64),
        assignment=assignment,
        radius=float(radius),
    )


def default_leader_radius(n: int, dim: int) -> float:
    """Unit-hypercube Leader radius 0.1 / (ln n)^(1/d)."""
    if n < 2:
        raise DataError("need at least 2 points for a leader radius")
    return 0.1 / math.log(n) ** (1.0 / dim)

"""Shared geometry: unit-hypercube normalization, exact kNN, Leader clustering.

A ``PointCloud`` keeps its own builds: ``neighbors(k)``, ``clusters(radius)``
and ``hood_distances(k)`` run ``knn``, ``leader`` and ``hood_block`` once, so
every scorer on one cloud shares them, and the cloud records how long each
took.

kNN is kd-tree accelerated but contractually exact, identical to brute force
with ties broken by lower index. It runs on the distinct points: exact
duplicate rows (the origin cluster of the one-sided transform) collapse into
one tree point. The tree only selects a window of nearest distinct points per
query; distances are recomputed from coordinates, each window is expanded
into its rows and ranked by (distance, index) in its own row of an array. A
window whose farthest point does not lie strictly beyond the (k + 1)-th
ranked distance may miss points tied at that distance, so its query is run
again with the window doubled, until the window settles or holds every
distinct point.

Leader clustering follows the same contract: one tree over the cloud, one
ball query per exemplar, and each candidate's distance recomputed from the
coordinates, so the clusters are those of a direct single pass.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError

# Distinct points in the first tree window beyond the k + 1 a query needs.
# Queries whose window cannot prove its (k + 1)-th row are run again with the
# window doubled, so this only trades first-pass width against re-queries.
_QUERY_PAD = 2
# Distinct points queried and ranked together in the first pass. Widened
# windows are queried in smaller batches, so no batch of two or more queries
# expands to over _BLOCK x (k + 1 + _QUERY_PAD) x (k + 1) rows; this bounds
# peak memory.
_BLOCK = 2048
# Points whose neighborhood distances are worked out together, so building the
# block needs little scratch memory beyond the block.
_HOOD_ROWS = 128
# Relative margin on a Leader ball query, far above rounding in the tree's
# distances, so the ball holds every point the exact formula puts in reach.
_BALL_PAD = 1e-9


@dataclass(frozen=True)
class PointCloud:
    """Finite points, one row per point.

    ``diameter_bound``, ``neighbors(k)``, ``clusters(radius)`` and
    ``hood_distances(k)`` are kept after their first call, so the points must
    not change after that. Each is built once even when threads ask for it
    together, and ``build_ms`` tells how long it took. A build that raises is
    not kept and raises again on the next call.
    """

    points: np.ndarray
    _builds: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _build_ms: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

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

    @cached_property
    def diameter_bound(self) -> float:
        """Cheap upper bound on the cloud diameter (bounding-box diagonal)."""
        span = self.points.max(axis=0) - self.points.min(axis=0)
        return float(np.sqrt((span**2).sum()))

    def neighbors(self, k: int) -> "NeighborLists":
        """``knn(self, k)``, built on the first call and kept."""
        return self._kept(("knn", k), knn, k)

    def clusters(self, radius: float | None = None) -> "LeaderClustering":
        """``leader(self, radius)``, built on the first call and kept.

        ``radius=None`` means ``default_leader_radius(len(self), self.dim)``.
        """
        if radius is None:
            radius = default_leader_radius(len(self), self.dim)
        return self._kept(("leader", radius), leader, radius)

    def hood_distances(self, k: int) -> np.ndarray:
        """``hood_block(self, self.neighbors(k))``, built on the first call and kept."""
        nl = self.neighbors(k)  # before _kept: the cloud's lock is not re-entrant
        return self._kept(("hood", k), hood_block, nl)

    def build_ms(self, kind: str) -> float:
        """Milliseconds the kept builds of ``kind`` ("knn", "leader" or "hood") took.

        Summed over every argument built; 0.0 when none is kept.
        """
        return self._build_ms.get(kind, 0.0)

    def _kept(self, key, build, arg):
        # A kept build is read without the lock, so a run that reads one is
        # never held up while another build of the cloud is made. One lock per
        # cloud, so the grid's threads build different clouds at once.
        kept = self._builds.get(key)
        if kept is not None:
            return kept
        with self._lock:
            if key not in self._builds:
                start = time.perf_counter()
                kept = build(self, arg)
                elapsed = (time.perf_counter() - start) * 1000.0
                self._build_ms[key[0]] = self._build_ms.get(key[0], 0.0) + elapsed
                self._builds[key] = kept
            return self._builds[key]


@dataclass(frozen=True)
class NeighborLists:
    """Per point: its k nearest neighbors, ascending by (distance, index)."""

    indices: np.ndarray  # (n, k) int64
    distances: np.ndarray  # (n, k) float64


@dataclass(frozen=True)
class LeaderClustering:
    exemplars: np.ndarray  # exemplar point indices, in creation order
    assignment: np.ndarray  # per point: cluster id (position in exemplars)


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
    # its k + 1 lowest-index members in any such list. The lexsort is stable
    # and compares -0.0 equal to 0.0, so each group is one run of members in
    # ascending index.
    members = np.lexsort(pts.T)
    ordered = pts[members]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = np.flatnonzero(starts)  # each group's offset in members
    uniq = ordered[first]
    n_uniq = len(uniq)
    inverse = np.empty(n, dtype=np.int64)
    inverse[members] = np.cumsum(starts) - 1
    take = k + 1
    width = np.minimum(np.diff(first, append=n), take)
    top_ids = np.empty((n_uniq, take), dtype=np.int64)
    top_d = np.empty((n_uniq, take), dtype=np.float64)

    tree = cKDTree(uniq)
    budget = _BLOCK * (take + _QUERY_PAD) * take
    m = min(n_uniq, take + _QUERY_PAD)
    pending = np.arange(n_uniq)
    while len(pending):
        needy = []
        step = max(1, budget // (m * take))
        for lo in range(0, len(pending), step):
            u = pending[lo : lo + step]
            query = uniq[u]
            _, cand = tree.query(query, k=m)
            cand = cand.reshape(len(u), m)
            # Tree output selects candidates only; distances are recomputed from
            # the coordinates so values and tie order match a direct scan bit
            # for bit.
            d_cand = np.sqrt(((uniq[cand] - query[:, None, :]) ** 2).sum(axis=-1))
            top_ids[u], top_d[u] = _rank(cand, d_cand, members, first, width, take)
            # A window provably holds every point at distance <= the (k+1)-th
            # selected distance only when its farthest candidate lies strictly
            # beyond it; otherwise distinct points tied at that distance may
            # lie outside the window.
            needy.append(u[d_cand.max(axis=1) <= top_d[u, -1]])
        if m == n_uniq:
            break
        pending = np.concatenate(needy)
        m = min(n_uniq, 2 * m)

    # Drop each row from its group's list, or the list's last entry when the
    # row is not in it.
    is_self = top_ids[inverse] == np.arange(n)[:, None]
    self_pos = np.where(is_self.any(axis=1), is_self.argmax(axis=1), k)
    pick = np.arange(k) + (np.arange(k) >= self_pos[:, None])
    group = inverse[:, None]
    return NeighborLists(indices=top_ids[group, pick], distances=top_d[group, pick])


def _rank(cand, d_cand, members, first, width, take):
    """Each query's ``take`` best rows, ascending by (distance, index).

    ``cand`` and ``d_cand`` hold one row of distinct candidate points per
    query; each candidate stands for the first ``width`` rows of its group.
    """
    w = width[cand]
    if (w == 1).all():
        ids, dists = members[first[cand]], d_cand
    else:
        # Expand each candidate into its rows, one query per row of a
        # (queries, widest expansion) array padded with (inf, int64 max); a
        # query holds >= take rows (>= take distinct points, or all n rows),
        # so padding never ranks.
        sizes = w.sum(axis=1)
        w = w.ravel()
        rows = np.repeat(np.arange(len(cand)), sizes)
        cols = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        offset = np.arange(len(rows)) - np.repeat(np.cumsum(w) - w, w)
        ids = np.full((len(cand), sizes.max()), np.iinfo(np.int64).max, dtype=np.int64)
        dists = np.full(ids.shape, np.inf)
        ids[rows, cols] = members[np.repeat(first[cand.ravel()], w) + offset]
        dists[rows, cols] = np.repeat(d_cand.ravel(), w)
    order = np.lexsort((ids, dists), axis=1)[:, :take]
    return np.take_along_axis(ids, order, axis=1), np.take_along_axis(dists, order, axis=1)


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances of broadcast point arrays, added one coordinate at a time.

    No (..., d) difference array; bit-equal to ((a - b) ** 2).sum(axis=-1) for d <= 7.
    """
    total = (a[..., 0] - b[..., 0]) ** 2
    for j in range(1, a.shape[-1]):
        total += (a[..., j] - b[..., j]) ** 2
    return total


def hood_block(cloud: PointCloud, nl: NeighborLists) -> np.ndarray:
    """Distances within each point's neighborhood, read-only, shape (n, k+1, k+1).

    ``[p, i, j]`` is the distance between members i and j of p's neighborhood:
    p itself first, then its neighbors in ``nl`` order. Exactly symmetric,
    with a zero diagonal.
    """
    hood = np.column_stack([np.arange(len(cloud)), nl.indices])  # (n, k+1)
    block = np.empty(hood.shape + hood.shape[1:])
    for lo in range(0, len(hood), _HOOD_ROWS):
        part = cloud.points[hood[lo : lo + _HOOD_ROWS]]  # (rows, k+1, d)
        block[lo : lo + _HOOD_ROWS] = _sq_distances(part[:, :, None], part[:, None])
    np.sqrt(block, out=block)
    block.flags.writeable = False  # shared by every scorer and thread on the cloud
    return block


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
    return LeaderClustering(np.asarray(exemplars, dtype=np.int64), assignment)


def default_leader_radius(n: int, dim: int) -> float:
    """Unit-hypercube Leader radius 0.1 / (ln n)^(1/d)."""
    if n < 2:
        raise DataError("need at least 2 points for a leader radius")
    return 0.1 / math.log(n) ** (1.0 / dim)

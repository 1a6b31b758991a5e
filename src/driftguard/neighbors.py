"""Shared geometry: unit-hypercube normalization, exact kNN, Leader clustering.

A ``PointCloud`` keeps each build through one hook, ``kept(key, build,
*args)``: ``neighbors(k)`` and ``clusters(radius)`` keep ``knn`` and
``leader``, and the scorers keep their own per-cloud values there too
(``scoring.kept_reads`` lists every kind). So every scorer and repetition on
one cloud shares them, and the cloud records how long each took.

kNN is kd-tree accelerated but contractually exact, identical to brute force
with ties broken by lower index. It runs on the distinct points: exact
duplicate rows (the origin cluster of the one-sided transform) collapse into
one tree point. The tree only selects a window of nearest distinct points per
query, and their distances are recomputed from the coordinates. A window the
tree gave in (distance, index) order, none of whose points stands for several
rows, is already ranked; only the other windows are expanded into their rows
and sorted by (distance, index). A window whose farthest point does not lie
strictly beyond the (k + 1)-th ranked distance may miss points tied at that
distance, so its query is run again with the window doubled, until the
window settles or holds every distinct point. Each row's list is its group's
with the row itself dropped.

The queries run in blocks, each ranked into its own rows of the result, so
the blocks of a pass run on ``parallel_map``'s threads, the map the
``evaluate`` grid uses too. ``thread_cap`` is their one budget:
``DRIFTGUARD_THREADS`` if set, else the CPUs this process may run on. A map
called from a worker of another runs inline, so ``knn`` inside a grid worker
runs its blocks on that worker's thread. The lists are the same bits under
any budget.

Leader clustering follows the same contract: one tree over the cloud, one
ball query per exemplar, and each candidate's distance recomputed from the
coordinates, so the clusters are those of a direct single pass.

Every distance here and in the COF, LDOF and RKOF scorers comes from
``_sq_distances``, which equals the references' ``((a - b) ** 2).sum(axis=-1)``
bit for bit at every width. It reads points coordinate-major, so kNN gathers
one coordinate column at a time.

scipy's kd-tree is imported by the first ``knn`` or ``leader`` call, so a
command that builds no tree does not pay for the import.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ConfigError, DataError

# Distinct points in the first tree window beyond the k + 1 a query needs.
# Queries whose window cannot prove its (k + 1)-th row are run again with the
# window doubled, so this only trades first-pass width against re-queries.
# One is the fewest that can prove it; no query of the benchmark's clouds
# needed a wider window at one or at two.
_QUERY_PAD = 1
# Distinct points queried and ranked at once in the first pass, across all
# the threads of the budget: each thread's block holds its share. Widened
# windows are queried in smaller blocks, so the blocks of two or more queries
# in flight at once expand to at most _BLOCK x (k + 1 + _QUERY_PAD) x (k + 1)
# rows in all; this bounds peak memory.
_BLOCK = 2048
# Neighborhoods hood_map hands its reduce together, so a build needs little
# scratch memory beyond its (n,) result.
_HOOD_ROWS = 128
# Relative margin on a Leader ball query, far above rounding in the tree's
# distances, so the ball holds every point the exact formula puts in reach.
_BALL_PAD = 1e-9

# Set in parallel_map's worker threads, so a map called from one runs inline.
_worker = threading.local()


def thread_cap() -> int:
    """The thread budget: DRIFTGUARD_THREADS if set, else the CPUs this process may run on."""
    raw = os.environ.get("DRIFTGUARD_THREADS")
    if raw is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no sched_getaffinity on this platform
            return os.cpu_count() or 1
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"DRIFTGUARD_THREADS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ConfigError("DRIFTGUARD_THREADS must be at least 1")
    return cap


def _mark_worker() -> None:
    _worker.active = True


def parallel_map(fn, items: list, workers: int) -> list:
    """``[fn(item) for item in items]``, on up to ``workers`` threads.

    Runs inline, creating no pool, for one item or one worker, and when
    called from inside a worker of another ``parallel_map``: nested maps
    never multiply the thread count.
    """
    if workers > 1 and len(items) > 1 and not getattr(_worker, "active", False):
        with ThreadPoolExecutor(min(workers, len(items)), initializer=_mark_worker) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


@dataclass(frozen=True)
class PointCloud:
    """Finite points, one row per point.

    ``diameter_bound`` and every build made through ``kept`` are kept after
    their first call, so the points must not change after that. ``build_ms``
    tells how long each kind of build took.
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
        return float(np.sqrt(_sq_distances(self.points.max(axis=0), self.points.min(axis=0))))

    def neighbors(self, k: int) -> "NeighborLists":
        """``knn(self, k)``, kept as ("knn", k)."""
        return self.kept(("knn", k), knn, k)

    def clusters(self, radius: float) -> "LeaderClustering":
        """``leader(self, radius)``, kept as ("leader", radius)."""
        return self.kept(("leader", radius), leader, radius)

    def build_ms(self, kind: str) -> float:
        """Milliseconds the kept builds of ``kind`` took, summed over its keys; 0.0 when none."""
        return self._build_ms.get(kind, 0.0)

    def kept(self, key: tuple, build, *args):
        """``build(self, *args)``, made on the first call with ``key`` and kept under it.

        ``key[0]`` is the build's kind, for ``build_ms``. Every call takes
        the cloud's one lock, so each key is built once even when threads ask
        together. The lock is not re-entrant: a build reads no kept build of
        its own cloud; the caller reads those first and passes them in
        ``args``. A build that raises is not kept.
        """
        with self._lock:
            if key not in self._builds:
                start = time.perf_counter()
                kept = build(self, *args)
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

    A dimension whose span exceeds the float range is scaled by halves, whose
    differences stay finite; every other dimension is scaled as it is.
    Idempotent: normalizing an already-normalized cloud is the identity.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(pts) == 0:
        raise DataError("cannot normalize zero points")
    if not np.isfinite(pts).all():
        raise DataError("cannot normalize non-finite points")
    mins = pts.min(axis=0)
    maxs = pts.max(axis=0)
    with np.errstate(over="ignore"):
        span = maxs - mins
    if np.isinf(span).any():
        half = np.where(np.isinf(span), 0.5, 1.0)
        pts, mins, maxs = pts * half, mins * half, maxs * half
        span = maxs - mins
    safe = np.where(span > 0, span, 1.0)
    scaled = (pts - mins) / safe
    scaled[:, span == 0] = 0.0
    return PointCloud(points=scaled)


def knn(cloud: PointCloud, k: int) -> NeighborLists:
    """Exact k nearest neighbors of every point, self excluded.

    Euclidean metric; ties broken by lower index. Raises when k >= n.

    Each distinct point's k + 1 best rows come from a kd-tree window of
    nearest distinct points, with distances recomputed from the coordinates;
    a window already in (distance, index) order with no duplicate rows behind
    it is taken as it is, and any other is expanded and sorted (``_rank``).
    """
    pts = cloud.points
    n = len(pts)
    if k < 1:
        raise DataError("k must be at least 1")
    if k >= n:
        raise DataError(f"k={k} must be smaller than the cloud size n={n}")
    from scipy.spatial import cKDTree

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
    columns = uniq.T.copy()  # one contiguous row per coordinate

    def run_block(u, m):
        """Rank the queries ``u`` from windows of ``m``; return those the window may not hold."""
        query = uniq[u]
        _, cand = tree.query(query, k=m)
        # one contiguous column per rank, so the checks across each row,
        # here and in _rank, run down whole columns
        cand = np.asfortranarray(cand.reshape(len(u), m))
        # Tree output selects candidates only; distances are recomputed from
        # the coordinates, gathered one column at a time, so values and tie
        # order match a direct scan bit for bit.
        d_cand = np.sqrt(_sq_distances([col[cand] for col in columns], query.T[:, :, None]))
        ids, dists = _rank(cand, d_cand, members, first, width, take)
        top_ids[u], top_d[u] = ids, dists
        # A window provably holds every point at distance <= the (k+1)-th
        # selected distance only when its farthest candidate lies strictly
        # beyond it; otherwise distinct points tied at that distance may
        # lie outside the window.
        return u[d_cand.max(axis=1) <= dists[:, -1]]

    workers = thread_cap()
    budget = _BLOCK * (take + _QUERY_PAD) * take
    m = min(n_uniq, take + _QUERY_PAD)
    pending = np.arange(n_uniq)
    while len(pending):
        # Each block writes its own rows of top_ids and top_d, so blocks run
        # in any order and on any thread.
        step = max(1, budget // (m * take * workers))
        blocks = [pending[lo : lo + step] for lo in range(0, len(pending), step)]
        needy = parallel_map(partial(run_block, m=m), blocks, workers)
        if m == n_uniq:
            break
        pending = np.concatenate(needy)
        m = min(n_uniq, 2 * m)

    # A row whose group's list starts with the row itself (a row with no
    # duplicate, or the lowest-index row of a group) drops that first entry.
    indices = top_ids[inverse, 1:]
    distances = top_d[inverse, 1:]
    rest = np.flatnonzero(top_ids[inverse, 0] != np.arange(n))
    if len(rest):
        # Any other row drops itself from its group's list, or the list's
        # last entry when the row is not in it.
        group = inverse[rest, None]
        is_self = top_ids[group[:, 0]] == rest[:, None]
        self_pos = np.where(is_self.any(axis=1), is_self.argmax(axis=1), k)
        pick = np.arange(k) + (np.arange(k) >= self_pos[:, None])
        indices[rest] = top_ids[group, pick]
        distances[rest] = top_d[group, pick]
    return NeighborLists(indices=indices, distances=distances)


def _rank(cand, d_cand, members, first, width, take):
    """Each query's ``take`` best rows, ascending by (distance, index).

    ``cand`` and ``d_cand`` hold one row of distinct candidate points per
    query; each candidate stands for the first ``width`` rows of its group.
    A query whose candidates each stand for one row and already come in
    (distance, index) order keeps its first ``take`` of them; only the other
    queries go through ``_sort_rows``.
    """
    ids = members[first[cand]]
    w = width[cand]
    d_next, id_next = d_cand[:, 1:], ids[:, 1:]
    in_order = (d_cand[:, :-1] < d_next) | ((d_cand[:, :-1] == d_next) & (ids[:, :-1] < id_next))
    rest = np.flatnonzero(~(in_order.all(axis=1) & (w == 1).all(axis=1)))
    if not len(rest):
        return ids[:, :take], d_cand[:, :take]
    sorted_ids, sorted_d = _sort_rows(cand[rest], d_cand[rest], w[rest], members, first, take)
    if len(rest) == len(cand):
        return sorted_ids, sorted_d
    # some query kept its window, so every window holds >= take candidates
    top_ids, top_d = ids[:, :take].copy(), d_cand[:, :take].copy()
    top_ids[rest], top_d[rest] = sorted_ids, sorted_d
    return top_ids, top_d


def _sort_rows(cand, d_cand, w, members, first, take):
    """``_rank``'s answer for queries whose windows need sorting.

    Each candidate is expanded into the ``w`` rows it stands for, one query per
    row of a (queries, widest expansion) array padded with (inf, int64 max); a
    query holds >= take rows (>= take distinct points, or all n rows), so
    padding never ranks.
    """
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


def _sq_distances(a, b) -> np.ndarray:
    """Squared distances between points given coordinate-major: ``a[j]`` and ``b[j]`` broadcast.

    Bit-equal at every width d = len(a) to ``((A - B) ** 2).sum(axis=-1)`` on
    the point-major arrays A and B. numpy adds fewer than 8 terms in turn, so
    below 8 coordinates the squares are added one coordinate at a time, with
    no (..., d) array; it adds 8 or more pairwise, so from 8 on the formula
    runs as it is, on a (..., d) difference array laid out as A - B is.
    """
    d = len(a)
    if d >= 8:
        return (np.stack([a[j] - b[j] for j in range(d)], axis=-1) ** 2).sum(axis=-1)
    total = (a[0] - b[0]) ** 2
    for j in range(1, d):
        total += (a[j] - b[j]) ** 2
    return total


def hood_map(cloud: PointCloud, nl: NeighborLists, reduce) -> np.ndarray:
    """One number per point from its neighborhood, read-only, shape (n,).

    ``reduce`` maps ``_HOOD_ROWS`` or fewer neighborhoods, coordinate-major
    (d, rows, k+1) with each point first and then its neighbors in ``nl``
    order, to one number a row.
    """
    out = np.empty(len(cloud))
    for lo in range(0, len(out), _HOOD_ROWS):
        part = nl.indices[lo : lo + _HOOD_ROWS]
        hood = np.column_stack([np.arange(lo, lo + len(part)), part])  # (rows, k+1)
        out[lo : lo + len(part)] = reduce(cloud.points.T[:, hood])
    out.flags.writeable = False  # shared by every scorer and thread on the cloud
    return out


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
    from scipy.spatial import cKDTree

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
        d = np.sqrt(_sq_distances(pts[ball].T, pts[i]))
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

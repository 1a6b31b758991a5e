"""Unsupervised outlier scorers: higher score = more outlying, for all methods.

Four are nearest-neighbor-distance based (exemplar NN distance, weighted and
plain kNN distance sums, relative kNN distance) and four are density based
(reachability, chaining, reverse-neighborhood, and kernel density factors).
All consume a normalized cloud so no variable dominates the metric. ``score``
checks the cloud and hands the seven kNN scorers the cloud's kept neighbor
lists, ``cloud.neighbors(k)``; those scorers are formulas over the lists.
Whatever else a scorer builds once per cloud, it keeps through
``cloud.kept``; ``kept_reads`` is the one list of the kinds each method reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import neighbors
from .errors import ConfigError, DataError
from .neighbors import LeaderClustering, NeighborLists, PointCloud, _sq_distances, default_leader_radius


class Method(str, Enum):
    HDOUTLIERS = "HDoutliers"
    KNN_AGG = "KNN-AGG"
    KNN_SUM = "KNN-SUM"
    LOF = "LOF"
    COF = "COF"
    INFLO = "INFLO"
    LDOF = "LDOF"
    RKOF = "RKOF"

    @classmethod
    def parse(cls, text: str) -> "Method":
        if not isinstance(text, str):
            raise ConfigError(f"unknown scoring method {text!r}")
        norm = text.strip().replace("-", "_").upper()
        for member in cls:
            if member.name == norm:
                return member
        raise ConfigError(f"unknown scoring method {text!r}")


@dataclass(frozen=True)
class ScoringConfig:
    """Scorer selection plus the knobs shared across methods.

    k applies to every kNN-family and density method; the exemplar-distance
    method always uses the single nearest neighbor regardless of k. The
    aggregated-kNN weights are linearly decaying, w_i = (k - i + 1) / sum(1..k).
    Kernel-factor parameters: bandwidth = C * kdist(o)**lambda (Gaussian
    kernel), neighbor weights exp(-(kdist(o)/min_kdist - 1)^2 / (2 sigma^2))
    favoring neighbors that sit in the locally densest spots.
    """

    method: Method = Method.KNN_SUM
    k: int = 10
    leader_radius: float | None = None  # None -> 0.1 / (ln n)^(1/d)
    rkof_bandwidth_scale: float = 1.0  # C
    rkof_bandwidth_exponent: float = 1.0  # lambda
    rkof_weight_sigma: float = 1.0  # sigma

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if self.method is Method.LDOF and self.k < 2:
            raise ConfigError("LDOF needs k >= 2")
        # Written as not (x > 0) so that NaN is refused too.
        if self.leader_radius is not None and not self.leader_radius > 0:
            raise ConfigError("leader_radius must be positive")
        if not 0 < self.rkof_bandwidth_scale < np.inf:
            raise ConfigError("rkof_bandwidth_scale must be positive and finite")
        if not np.isfinite(self.rkof_bandwidth_exponent):
            raise ConfigError("rkof_bandwidth_exponent must be finite")
        if not self.rkof_weight_sigma > 0:  # inf is the unweighted limit
            raise ConfigError("rkof_weight_sigma must be positive")


@dataclass(frozen=True)
class ScoreVector:
    """Per-point non-negative outlier scores; higher means more outlying."""

    scores: np.ndarray
    method: Method
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if not np.isfinite(s).all():
            raise DataError(f"{self.method.value}: non-finite scores produced")
        object.__setattr__(self, "scores", s)

    def __len__(self) -> int:
        return len(self.scores)


def _density_floor(cloud: PointCloud) -> float:
    """Machine-epsilon-scaled floor keeping degenerate ratios finite."""
    return float(np.finfo(np.float64).eps * max(cloud.diameter_bound, 1.0))


def _cap(scores: np.ndarray, bad: np.ndarray, what: str) -> tuple[str, ...]:
    """Set the bad scores to 10x the largest finite score, in place; note how many."""
    if not bad.any():
        return ()
    finite = scores[np.isfinite(scores)]
    scores[bad] = (finite.max() if finite.size else 1.0) * 10.0
    return (f"{int(bad.sum())} {what}",)


def _exemplar_distances(cloud: PointCloud, clustering: LeaderClustering) -> np.ndarray:
    """Each Leader exemplar's distance to its nearest fellow exemplar, in exemplar order."""
    out = neighbors.knn(PointCloud(points=cloud.points[clustering.exemplars]), 1).distances[:, 0]
    out.flags.writeable = False  # shared by every scorer and thread on the cloud
    return out


def score_hdoutliers(cloud: PointCloud, cfg: ScoringConfig) -> ScoreVector:
    """Exemplar nearest-neighbor distance, inherited by every cluster member.

    Reads the cloud's kept Leader clustering and keeps its exemplars'
    nearest-exemplar distances by radius (kind "exemplar_knn"); every member
    scores its exemplar's distance.
    """
    radius = cfg.leader_radius or default_leader_radius(len(cloud), cloud.dim)
    clustering = cloud.clusters(radius)
    if len(clustering.exemplars) < 2:
        return ScoreVector(
            np.zeros(len(cloud)), Method.HDOUTLIERS, ("single leader cluster: all scores 0",)
        )
    ex_scores = cloud.kept(("exemplar_knn", radius), _exemplar_distances, clustering)
    return ScoreVector(ex_scores[clustering.assignment], Method.HDOUTLIERS)


def score_knn_sum(cloud: PointCloud, nl: NeighborLists, cfg: ScoringConfig) -> ScoreVector:
    """Sum of distances to the k nearest neighbors."""
    return ScoreVector(nl.distances.sum(axis=1), Method.KNN_SUM)


def knn_agg_weights(k: int) -> np.ndarray:
    """Linearly decaying normalized weights (k, k-1, ..., 1) / sum(1..k)."""
    return np.arange(k, 0, -1, dtype=np.float64) / (k * (k + 1) / 2.0)


def score_knn_agg(cloud: PointCloud, nl: NeighborLists, cfg: ScoringConfig) -> ScoreVector:
    """Weighted kNN distance sum giving nearer neighbors higher weight.

    The weighted columns are added one at a time in neighbor order, so a row's
    score does not depend on where the row sits in the cloud.
    """
    total = np.zeros(len(cloud))
    for weight, column in zip(knn_agg_weights(cfg.k), nl.distances.T):
        total += weight * column
    return ScoreVector(total, Method.KNN_AGG)


def _lrd(cloud: PointCloud, nl: NeighborLists) -> np.ndarray:
    """Local reachability density with a floored denominator."""
    kdist = nl.distances[:, -1]
    reach = np.maximum(kdist[nl.indices], nl.distances)
    mean_reach = reach.mean(axis=1)
    return 1.0 / np.maximum(mean_reach, _density_floor(cloud))


def score_lof(cloud: PointCloud, nl: NeighborLists, cfg: ScoringConfig) -> ScoreVector:
    """Classical local outlier factor: neighbor density over own density."""
    lrd = _lrd(cloud, nl)
    return ScoreVector(lrd[nl.indices].mean(axis=1) / lrd, Method.LOF)


def _avg_chain_dists(dist: np.ndarray) -> np.ndarray:
    """Average chaining distance of every point's set-based nearest path.

    ``dist`` (rows, k+1, k+1) holds the distances within each row's neighborhood,
    the point first. The path grows greedily from the point, connecting the
    closest unconnected member to the connected set (ties to the lowest index);
    the step-i edge weighs 2(k+1-i) / (k(k+1)). All points step together.
    """
    n, m = dist.shape[:2]
    rows = np.arange(n)
    connected = np.zeros((n, m), dtype=bool)
    connected[:, 0] = True
    best = dist[:, 0, :].copy()
    best[:, 0] = np.inf
    ac = np.zeros(n)
    for step in range(1, m):
        nxt = best.argmin(axis=1)
        ac += 2.0 * (m - step) / ((m - 1) * m) * best[rows, nxt]
        connected[rows, nxt] = True
        best = np.minimum(best, dist[rows, nxt, :])
        best[connected] = np.inf
    return ac


def _chain_dists(hood: np.ndarray) -> np.ndarray:
    """COF's ``hood_map`` reduce: average chaining distances of (d, rows, k+1) neighborhoods."""
    return _avg_chain_dists(np.sqrt(_sq_distances(hood[..., None], hood[:, :, None])))


def score_cof(cloud: PointCloud, nl: NeighborLists, cfg: ScoringConfig) -> ScoreVector:
    """Connectivity-based factor comparing chaining distances with neighbors'."""
    k = cfg.k
    ac = cloud.kept(("cof", k), neighbors.hood_map, nl, _chain_dists)
    denom = ac[nl.indices].sum(axis=1)
    floor = k * _density_floor(cloud)
    scores = np.where((ac == 0) & (denom == 0), 1.0, ac * k / np.maximum(denom, floor))
    return ScoreVector(scores, Method.COF)


def score_inflo(cloud: PointCloud, nl: NeighborLists, cfg: ScoringConfig) -> ScoreVector:
    """Influenced outlierness over the union of kNN and reverse kNN.

    den(p) = 1 / k-distance(p); the score is the mean density of the
    influence space divided by den(p). The influence space always holds the
    point's k >= 1 nearest neighbors, so it is never empty.
    """
    n = len(cloud)
    kdist = nl.distances[:, -1]
    den = 1.0 / np.maximum(kdist, _density_floor(cloud))

    # influence edges p -> o: o in kNN(p), plus o with p in kNN(o); encoded as
    # p * n + o, in both directions, sorted once with each repeat dropped, so
    # every edge is one key. Owner p's keys lie in [p * n, (p + 1) * n), and
    # bincount adds each owner's densities in ascending member order, which
    # fixes the sums' last bit.
    src = np.repeat(np.arange(n, dtype=np.int64), cfg.k)
    dst = nl.indices.ravel()
    keys = np.concatenate([src * n + dst, dst * n + src])
    keys.sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys.compress(keep)  # compress copies faster than a mask index
    counts = np.diff(np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n))
    owners = np.repeat(np.arange(n, dtype=np.int64), counts)
    sums = np.bincount(owners, weights=den[keys - owners * n], minlength=n)

    return ScoreVector(sums / counts / den, Method.INFLO)


def _pair_sums(hood: np.ndarray) -> np.ndarray:
    """LDOF's ``hood_map`` reduce: each row's (k, k) neighbor distances, summed."""
    return np.sqrt(_sq_distances(hood[:, :, 1:, None], hood[:, :, None, 1:])).sum(axis=(1, 2))


def score_ldof(cloud: PointCloud, nl: NeighborLists, cfg: ScoringConfig) -> ScoreVector:
    """Relative distance factor: mean kNN distance over mean distance between neighbors."""
    k = cfg.k
    dbar = nl.distances.mean(axis=1)
    inner = cloud.kept(("ldof", k), neighbors.hood_map, nl, _pair_sums) / (k * (k - 1))

    with np.errstate(divide="ignore", invalid="ignore"):
        scores = dbar / inner
    degenerate = inner == 0
    coincident = degenerate & (dbar == 0)
    scores[coincident] = 1.0
    notes = _cap(
        scores,
        degenerate & ~coincident,
        "points with coincident neighborhoods capped at 10x the largest finite score",
    )
    return ScoreVector(scores, Method.LDOF, notes)


def score_rkof(cloud: PointCloud, nl: NeighborLists, cfg: ScoringConfig) -> ScoreVector:
    """Kernel-density factor: weighted neighborhood density over own density.

    Variable-bandwidth Gaussian kernel density over each point's k neighbors,
    bandwidth C * kdist(o)**lambda per neighbor, floored at a machine-epsilon-
    scaled cloud diameter so coincident points stay finite.
    """
    d = cloud.dim
    kdist = nl.distances[:, -1]
    h_floor = _density_floor(cloud)
    h = np.maximum(cfg.rkof_bandwidth_scale * kdist**cfg.rkof_bandwidth_exponent, h_floor)

    # neighbor coordinates gathered from one contiguous row per coordinate,
    # and each bandwidth's powers taken once per point, then gathered
    columns = cloud.points.T.copy()
    r2 = _sq_distances(columns[..., None], [col[nl.indices] for col in columns])
    norm = ((2.0 * np.pi) ** (d / 2.0) * h**d)[nl.indices]
    kde = (np.exp(-r2 / (2.0 * h**2)[nl.indices]) / norm).mean(axis=1)

    kd_nbr = kdist[nl.indices]
    ref = np.maximum(kd_nbr.min(axis=1), h_floor)
    w = np.exp(-((kd_nbr / ref[:, None] - 1.0) ** 2) / (2.0 * cfg.rkof_weight_sigma**2))
    wde = (w * kde[nl.indices]).sum(axis=1) / w.sum(axis=1)

    tiny = np.finfo(np.float64).tiny
    with np.errstate(over="ignore"):
        scores = wde / np.maximum(kde, tiny)
    notes = _cap(scores, ~np.isfinite(scores), "vanishing-density ratios capped")
    return ScoreVector(scores, Method.RKOF, notes)


_KNN_SCORERS = {
    Method.KNN_SUM: score_knn_sum,
    Method.KNN_AGG: score_knn_agg,
    Method.LOF: score_lof,
    Method.COF: score_cof,
    Method.INFLO: score_inflo,
    Method.LDOF: score_ldof,
    Method.RKOF: score_rkof,
}


def kept_reads(method: Method) -> tuple[str, ...]:
    """The one list of the kinds of kept build ``score`` reads for ``method``.

    "knn" and "leader" are ``cloud.neighbors`` and ``cloud.clusters``; the
    scorers here keep the others through ``cloud.kept``.
    """
    if method is Method.HDOUTLIERS:
        return ("leader", "exemplar_knn")
    if method in (Method.COF, Method.LDOF):
        return ("knn", method.value.lower())
    return ("knn",)


def score(cloud: PointCloud, cfg: ScoringConfig) -> ScoreVector:
    """Run the configured scorer on a (normalized) point cloud.

    Checks the cloud once. The kNN scorers read ``cloud.neighbors(cfg.k)``,
    which refuses k >= n. Each kept build the method reads (``kept_reads``)
    is made on the cloud's first call and kept for every later one.
    """
    if len(cloud) < 2:
        raise DataError("scoring needs at least 2 points")
    if cfg.method is Method.HDOUTLIERS:
        return score_hdoutliers(cloud, cfg)
    return _KNN_SCORERS[cfg.method](cloud, cloud.neighbors(cfg.k), cfg)

"""Unsupervised outlier scorers: higher score = more outlying, for all methods.

Four are nearest-neighbor-distance based (exemplar NN distance, weighted and
plain kNN distance sums, relative kNN distance) and four are density based
(reachability, chaining, reverse-neighborhood, and kernel density factors).
All consume a normalized cloud so no variable dominates the metric. ``score``
checks the cloud and hands the seven kNN scorers the cloud's kept neighbor
lists, ``cloud.neighbors(k)``; those scorers are formulas over the lists.
COF and LDOF also read the cloud's kept neighborhood distance block,
``cloud.hood_distances(k)``. HDoutliers takes the cloud's kept Leader
clustering, ``cloud.clusters``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError
from .neighbors import LeaderClustering, NeighborLists, PointCloud, _sq_distances, knn


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


def score_hdoutliers(cloud: PointCloud, clustering: LeaderClustering) -> ScoreVector:
    """Exemplar nearest-neighbor distance, inherited by every cluster member.

    Computes each exemplar's distance to its nearest fellow exemplar in the
    cloud's Leader clustering and assigns that distance to all members.
    """
    ex = clustering.exemplars
    notes = ()
    if len(ex) < 2:
        ex_scores = np.zeros(len(ex))
        notes = ("single leader cluster: all scores 0",)
    else:
        sub = PointCloud(points=cloud.points[ex])
        ex_scores = knn(sub, 1).distances[:, 0]
    return ScoreVector(ex_scores[clustering.assignment], Method.HDOUTLIERS, notes)


def score_knn_sum(cloud: PointCloud, nl: NeighborLists, cfg: ScoringConfig) -> ScoreVector:
    """Sum of distances to the k nearest neighbors."""
    return ScoreVector(nl.distances.sum(axis=1), Method.KNN_SUM)


def knn_agg_weights(k: int) -> np.ndarray:
    """Linearly decaying normalized weights (k, k-1, ..., 1) / sum(1..k)."""
    return np.arange(k, 0, -1, dtype=np.float64) / (k * (k + 1) / 2.0)


def score_knn_agg(cloud: PointCloud, nl: NeighborLists, cfg: ScoringConfig) -> ScoreVector:
    """Weighted kNN distance sum giving nearer neighbors higher weight."""
    return ScoreVector(nl.distances @ knn_agg_weights(cfg.k), Method.KNN_AGG)


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

    ``dist`` (n, k+1, k+1) holds the distances within each point's neighborhood,
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


def score_cof(cloud: PointCloud, nl: NeighborLists, cfg: ScoringConfig) -> ScoreVector:
    """Connectivity-based factor comparing chaining distances with neighbors'."""
    k = cfg.k
    ac = _avg_chain_dists(cloud.hood_distances(k))
    denom = ac[nl.indices].sum(axis=1)
    floor = k * _density_floor(cloud)
    scores = np.where(
        (ac == 0) & (denom == 0), 1.0, ac * k / np.maximum(denom, floor)
    )
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
    # p * n + o. A kNN list holds distinct points, so the forward keys are
    # distinct; a reverse key o * n + p is added only when p is not in kNN(o),
    # so no key repeats. Sorting the keys makes bincount add each owner's
    # densities in ascending member order, which fixes the sums' last bit.
    src = np.repeat(np.arange(n, dtype=np.int64), cfg.k)
    dst = nl.indices.ravel()
    rev = np.ones(len(dst), dtype=bool)
    for j in range(cfg.k):
        rev &= nl.indices[dst, j] != src
    keys = np.concatenate([src * n + dst, dst[rev] * n + src[rev]])
    keys.sort()
    owners = keys // n
    members = keys % n
    sums = np.bincount(owners, weights=den[members], minlength=n)
    counts = np.bincount(owners, minlength=n)

    return ScoreVector(sums / counts / den, Method.INFLO)


_LDOF_ROWS = 128  # rows of the block's neighbor corner LDOF copies at a time


def score_ldof(cloud: PointCloud, nl: NeighborLists, cfg: ScoringConfig) -> ScoreVector:
    """Relative distance factor: mean kNN distance over mean distance between neighbors."""
    if cfg.k < 2:
        raise DataError("this factor needs k >= 2")
    k = cfg.k
    dbar = nl.distances.mean(axis=1)
    # The neighbors' corner of the cloud's block, copied a few rows at a time
    # so that each sum adds in the order it would over a fresh (n, k, k) array.
    block = cloud.hood_distances(k)
    pair_sums = [
        np.ascontiguousarray(block[lo : lo + _LDOF_ROWS, 1:, 1:]).sum(axis=(1, 2))
        for lo in range(0, len(block), _LDOF_ROWS)
    ]
    inner = np.concatenate(pair_sums) / (k * (k - 1))

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

    r2 = _sq_distances(cloud.points[:, None], cloud.points[nl.indices])
    hn = h[nl.indices]
    norm = (2.0 * np.pi) ** (d / 2.0) * hn**d
    kde = (np.exp(-r2 / (2.0 * hn**2)) / norm).mean(axis=1)

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
    """The kinds of kept build (``PointCloud.build_ms``) ``score`` reads for ``method``."""
    if method is Method.HDOUTLIERS:
        return ("leader",)
    if method in (Method.COF, Method.LDOF):
        return ("knn", "hood")
    return ("knn",)


def score(cloud: PointCloud, cfg: ScoringConfig) -> ScoreVector:
    """Run the configured scorer on a (normalized) point cloud.

    Checks the cloud once. The kNN scorers read ``cloud.neighbors(cfg.k)``,
    which refuses k >= n; HDoutliers reads ``cloud.clusters(cfg.leader_radius)``.
    Either is built on the cloud's first call and kept for every later one.
    """
    if len(cloud) < 2:
        raise DataError("scoring needs at least 2 points")
    if cfg.method is Method.HDOUTLIERS:
        return score_hdoutliers(cloud, cloud.clusters(cfg.leader_radius))
    return _KNN_SCORERS[cfg.method](cloud, cloud.neighbors(cfg.k), cfg)

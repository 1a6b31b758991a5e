"""Independent O(n^2) reference implementations used as oracles.

Everything here works from a full pairwise distance matrix with plain loops,
deliberately avoiding the library's tree-based and vectorized code paths.
"""

from __future__ import annotations

import csv
import logging
import math
from datetime import datetime, timedelta, timezone

import numpy as np


def distance_matrix(pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def ref_knn(pts: np.ndarray, k: int):
    """(indices, distances) of the k nearest neighbors, ties by lower index."""
    dm = distance_matrix(pts)
    n = len(dm)
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k), dtype=np.float64)
    ids = np.arange(n)
    for p in range(n):
        keep = ids != p
        cand_ids = ids[keep]
        cand_d = dm[p][keep]
        order = np.lexsort((cand_ids, cand_d))[:k]
        indices[p] = cand_ids[order]
        distances[p] = cand_d[order]
    return indices, distances


def ref_knn_sum(pts: np.ndarray, k: int) -> np.ndarray:
    _, dist = ref_knn(pts, k)
    return np.array([sum(row) for row in dist])


def ref_knn_agg(pts: np.ndarray, k: int) -> np.ndarray:
    _, dist = ref_knn(pts, k)
    total = k * (k + 1) / 2.0
    weights = [(k - i) / total for i in range(k)]
    return np.array([sum(w * d for w, d in zip(weights, row)) for row in dist])


def ref_lof(pts: np.ndarray, k: int) -> np.ndarray:
    idx, dist = ref_knn(pts, k)
    n = len(pts)
    kdist = dist[:, -1]
    lrd = np.empty(n)
    for p in range(n):
        reach = [max(kdist[o], dist[p][j]) for j, o in enumerate(idx[p])]
        lrd[p] = 1.0 / (sum(reach) / k)
    return np.array([sum(lrd[o] for o in idx[p]) / k / lrd[p] for p in range(n)])


def ref_avg_chain(dm_sub: np.ndarray, k: int) -> float:
    """Average chaining distance over a (k+1)-member set rooted at row 0."""
    m = len(dm_sub)
    visited = [0]
    remaining = list(range(1, m))
    total = 0.0
    for step in range(1, m):
        best = math.inf
        best_node = None
        for r in remaining:
            d = min(dm_sub[v][r] for v in visited)
            if d < best:
                best = d
                best_node = r
        total += 2.0 * (m - step) / (k * (k + 1)) * best
        visited.append(best_node)
        remaining.remove(best_node)
    return total


def ref_cof(pts: np.ndarray, k: int) -> np.ndarray:
    idx, _ = ref_knn(pts, k)
    dm = distance_matrix(pts)
    n = len(pts)
    ac = np.empty(n)
    for p in range(n):
        members = [p] + list(idx[p])
        sub = dm[np.ix_(members, members)]
        ac[p] = ref_avg_chain(sub, k)
    return np.array([ac[p] * k / sum(ac[o] for o in idx[p]) for p in range(n)])


def ref_inflo(pts: np.ndarray, k: int) -> np.ndarray:
    idx, dist = ref_knn(pts, k)
    n = len(pts)
    den = 1.0 / dist[:, -1]
    scores = np.empty(n)
    for p in range(n):
        rnn = [o for o in range(n) if p in idx[o]]
        space = sorted(set(idx[p]) | set(rnn))
        scores[p] = sum(den[o] for o in space) / len(space) / den[p]
    return scores


def ref_ldof(pts: np.ndarray, k: int) -> np.ndarray:
    idx, dist = ref_knn(pts, k)
    dm = distance_matrix(pts)
    n = len(pts)
    scores = np.empty(n)
    for p in range(n):
        dbar = sum(dist[p]) / k
        inner = sum(dm[a][b] for a in idx[p] for b in idx[p] if a != b) / (k * (k - 1))
        scores[p] = dbar / inner
    return scores


def ref_rkof(
    pts: np.ndarray,
    k: int,
    scale: float = 1.0,
    exponent: float = 1.0,
    sigma: float = 1.0,
) -> np.ndarray:
    idx, dist = ref_knn(pts, k)
    dm = distance_matrix(pts)
    n = len(pts)
    d = pts.shape[1]
    kdist = dist[:, -1]
    h = scale * kdist**exponent

    def gauss(r: float, bw: float) -> float:
        return math.exp(-(r**2) / (2.0 * bw**2)) / ((2.0 * math.pi) ** (d / 2.0) * bw**d)

    kde = np.array(
        [sum(gauss(dm[p][o], h[o]) for o in idx[p]) / k for p in range(n)]
    )
    scores = np.empty(n)
    for p in range(n):
        ref = min(kdist[o] for o in idx[p])
        wsum = 0.0
        acc = 0.0
        for o in idx[p]:
            w = math.exp(-((kdist[o] / ref - 1.0) ** 2) / (2.0 * sigma**2))
            wsum += w
            acc += w * kde[o]
        scores[p] = acc / wsum / kde[p]
    return scores


def ref_leader(pts: np.ndarray, radius: float):
    """(exemplar indices, assignment) of the single-pass clustering."""
    dm = distance_matrix(pts)
    exemplars: list[int] = []
    assignment = np.empty(len(pts), dtype=np.int64)
    for i in range(len(pts)):
        joined = False
        for c, e in enumerate(exemplars):
            if dm[i][e] <= radius:
                assignment[i] = c
                joined = True
                break
        if not joined:
            exemplars.append(i)
            assignment[i] = len(exemplars) - 1
    return np.asarray(exemplars, dtype=np.int64), assignment


def ref_hdoutliers(pts: np.ndarray, radius: float) -> np.ndarray:
    exemplars, assignment = ref_leader(pts, radius)
    if len(exemplars) < 2:
        return np.zeros(len(pts))
    sub = pts[exemplars]
    dm = distance_matrix(sub)
    np.fill_diagonal(dm, np.inf)
    ex_scores = dm.min(axis=1)
    return ex_scores[assignment]


# ---------------------------------------------------------------------------
# Per-row attribution: one flagged row at a time, each helper slicing its own
# window. The library attributes every flagged row at once on whole columns.
# ---------------------------------------------------------------------------

_REF_MAD_EPS = 1e-9


def _ref_typical_center(typical_points):
    med = np.median(typical_points, axis=0)
    abs_dev = np.abs(typical_points - med)
    mad = np.median(abs_dev, axis=0)
    return med, np.where(mad > 0, mad, abs_dev.mean(axis=0))


def _ref_rank_deviation(point, med, scale, variables):
    dev = np.abs(np.asarray(point) - med) / (scale + _REF_MAD_EPS)
    if not dev.any():
        return "indeterminate", "no deviation from typical median"
    j = int(np.argmax(dev))
    others = np.delete(dev, j)
    note = ""
    if others.size and others.max() >= dev[j] * (1.0 - 1e-9):
        note = "near-tie across variables; broken by variable order"
    return variables[j], note


def _ref_classify_direction(series, index):
    v = series.values
    if index <= 0 or index >= len(v) - 1:
        return "shift", "boundary point: no two-sided neighborhood"
    window = v[index - 1 : index + 2]
    if not np.isfinite(window).all():
        return "shift", "missing neighbor value"
    m = window.mean()
    if v[index] > m:
        return "spike", ""
    if v[index] < m:
        return "drop", ""
    return "shift", "point equals its local mean"


def _ref_local_deviation(values, index):
    if index <= 0 or index >= len(values) - 1:
        return -math.inf
    trio = values[index - 1 : index + 2]
    if not np.isfinite(trio).all():
        return -math.inf
    return abs(trio[1] - 0.5 * (trio[0] + trio[2]))


def _ref_correct_neighbor(flagged_index, series, provenance):
    candidates = [c for c in provenance if 0 <= c < len(series)]
    if len(candidates) < 2:
        return flagged_index, ""
    devs = [_ref_local_deviation(series.values, c) for c in candidates]
    best = max(devs)
    if best == -math.inf:
        return flagged_index, "no candidate has a two-sided neighborhood"
    winners = [c for c, d in zip(candidates, devs) if d == best]
    if len(winners) > 1:
        return flagged_index, "equal candidate deviations; kept original index"
    return winners[0], ""


def ref_attribute_detections(tm, ms, evt_flags, scores):
    """Per-row attribution of the flagged cloud rows, as a list of Detection."""
    from driftguard.attribution import Detection
    from driftguard.transforms import DIFFERENCING_KINDS

    flagged_rows = np.nonzero(evt_flags)[0]
    if flagged_rows.size == 0:
        return []
    points = tm.points
    typical = points[~evt_flags]
    if len(typical) == 0:
        typical = points
    med, scale = _ref_typical_center(typical)
    correct = tm.kind in DIFFERENCING_KINDS

    detections = []
    series_cache = {var: ms.get(var) for var in tm.variables}
    for row in flagged_rows:
        var, var_note = _ref_rank_deviation(points[row], med, scale, tm.variables)
        orig_idx = int(tm.row_index[row])
        idx = orig_idx
        corr_note = ""
        if var != "indeterminate" and correct:
            idx, corr_note = _ref_correct_neighbor(orig_idx, series_cache[var], tm.provenance(row))
        if var != "indeterminate":
            direction, dir_note = _ref_classify_direction(series_cache[var], idx)
        else:
            direction, dir_note = "indeterminate", ""
        note = "; ".join(x for x in (var_note, corr_note, dir_note) if x)
        detections.append(
            Detection(
                timestamp=int(ms.timestamps[idx]),
                variable=var,
                direction=direction,
                score=float(scores[row]),
                trigger="evt",
                corrected_from=int(ms.timestamps[orig_idx]) if idx != orig_idx else None,
                note=note,
            )
        )
    return detections


# ---------------------------------------------------------------------------
# CSV ingestion: the row-by-row parser, one cell at a time in file order.
# The library parses whole columns and walks a column only when it fails.
# `_ref_parse_iso` floors fractional seconds, so an instant before 1970 maps
# to the second it falls in.
# ---------------------------------------------------------------------------

_REF_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ref_log = logging.getLogger("reference")


def _ref_parse_iso(text):
    t = text.strip()
    if t.endswith("Z"):
        t = t[:-1] + "+00:00"
    dt = datetime.fromisoformat(t)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return (dt - _REF_EPOCH) // timedelta(seconds=1)


def ref_ingest_csv(path, variables=None, site=""):
    """Row-loop ingest; logs the rejected-row warning on the ``reference`` logger."""
    from driftguard.core import LABEL_SUFFIX, MultiSeries, SensorSeries
    from driftguard.errors import DataError

    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: cannot decode: {exc}") from None

    header = [h.strip() for h in header]
    if len(header) < 2:
        raise DataError(f"{path}: header must contain a timestamp column plus variables")
    ts_col = header[0]
    data_cols = header[1:]
    label_cols = {c for c in data_cols if c.endswith(LABEL_SUFFIX)}
    value_cols = [c for c in data_cols if c not in label_cols]

    if variables is None:
        wanted = value_cols
    else:
        wanted = list(variables)
        missing = [v for v in wanted if v not in value_cols]
        if missing:
            raise DataError(
                f"{path}: header mismatch; missing variable columns {missing}, "
                f"found {value_cols}"
            )

    col_index = {name: i + 1 for i, name in enumerate(data_cols)}
    ts_list = []
    values = {v: [] for v in wanted}
    labels = {v: [] for v in wanted if v + LABEL_SUFFIX in label_cols}
    rejected = []

    for row_num, row in enumerate(rows, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {row_num} has {len(row)} cells, header has {len(header)}"
            )
        try:
            ts = _ref_parse_iso(row[0])
        except ValueError:
            rejected.append(row_num)
            continue
        if ts_list and ts <= ts_list[-1]:
            stamp, before = (
                datetime.fromtimestamp(x, timezone.utc).isoformat()[:19] for x in (ts, ts_list[-1])
            )
            what = f"duplicate timestamp {stamp}" if ts == ts_list[-1] else (
                f"timestamps not increasing ({stamp} after {before})"
            )
            raise DataError(f"{path}: row {row_num}, column {ts_col!r}: {what}")
        ts_list.append(ts)
        for v in wanted:
            cell = row[col_index[v]].strip()
            if cell == "":
                values[v].append(math.nan)
            else:
                try:
                    values[v].append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: row {row_num}, column {v!r}: "
                        f"unparseable value {cell!r}"
                    ) from None
        for v in labels:
            cell = row[col_index[v + LABEL_SUFFIX]].strip()
            if cell in ("", "0"):
                labels[v].append(0)
            elif cell == "1":
                labels[v].append(1)
            else:
                raise DataError(
                    f"{path}: row {row_num}, column {v + LABEL_SUFFIX!r}: "
                    f"label must be 0 or 1, got {cell!r}"
                )

    if rejected:
        _ref_log.warning(
            "%s: rejected %d rows with unparseable %s timestamps: %s",
            path,
            len(rejected),
            ts_col,
            rejected,
        )
    if not ts_list:
        raise DataError(f"{path}: no usable data rows")

    ts_arr = np.asarray(ts_list, dtype=np.int64)
    series = tuple(
        SensorSeries(
            v,
            ts_arr,
            np.asarray(values[v]),
            np.asarray(labels[v], dtype=np.uint8) if v in labels else None,
        )
        for v in wanted
    )
    return MultiSeries(site=site or str(path), series=series)


# ---------------------------------------------------------------------------
# plot-data figures: one cloud row at a time, and an SVG writer that walks the
# rows. The library builds whole columns and places every circle at once.
# ---------------------------------------------------------------------------


def ref_figure_rows(cfg, ms, figure):
    """(header, rows) of the bivariate or scores figure, built per cloud row."""
    from driftguard.cli import _pipeline_config, _settings
    from driftguard.core import ground_truth
    from driftguard.errors import ConfigError
    from driftguard.pipeline import run_detection

    pcfg = _pipeline_config(_settings(cfg), ms)
    result = run_detection(ms, pcfg)
    tm = result.matrix
    truth = ground_truth(ms).flags if ms.has_labels() else None
    corrected_from = {
        d.corrected_from for d in result.detections if d.corrected_from is not None
    }

    def classify(row):
        predicted = bool(result.predicted[tm.row_index[row]])
        if truth is None:
            return "outlier" if predicted else "typical"
        actual = bool(truth[tm.row_index[row]])
        return {
            (True, True): "TP",
            (True, False): "FP",
            (False, True): "FN",
            (False, False): "TN",
        }[(predicted, actual)]

    if figure == "bivariate":
        if len(tm.variables) < 2:
            raise ConfigError("bivariate figure needs at least two variables")
        vx, vy = tm.variables[0], tm.variables[1]
        header = [f"x_{vx}", f"y_{vy}", "class", "neighbor"]
        rows = []
        for row in range(len(tm.row_index)):
            ts = int(tm.point_timestamps[row])
            rows.append(
                [
                    float(tm.points[row, 0]),
                    float(tm.points[row, 1]),
                    classify(row),
                    1 if ts in corrected_from else 0,
                ]
            )
        return header, rows

    header = ["timestamp", "score", "class"]
    rows = [
        [int(tm.point_timestamps[row]), float(result.scores.scores[row]), classify(row)]
        for row in range(len(tm.row_index))
    ]
    return header, rows


_REF_SVG_COLORS = {
    "TP": "#d62728", "FN": "#ff9896", "FP": "#1f77b4", "TN": "#7f7f7f",
    "outlier": "#d62728", "typical": "#7f7f7f",
}


def ref_svg_scatter(header, rows, path, size=640):
    """The bivariate scatter as SVG, one circle per row in row order."""
    from pathlib import Path

    xs = np.asarray([r[0] for r in rows], dtype=float)
    ys = np.asarray([r[1] for r in rows], dtype=float)
    span_x = xs.max() - xs.min() or 1.0
    span_y = ys.max() - ys.min() or 1.0
    pad = 20
    scale = size - 2 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for r in rows:
        px = pad + (r[0] - xs.min()) / span_x * scale
        py = size - pad - (r[1] - ys.min()) / span_y * scale
        color = _REF_SVG_COLORS.get(r[2], "#2ca02c")
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="2.5" fill="{color}"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def ref_stable_selection(scores, stop_at):
    """(sorted scores, flags, flagged indices) when sorted position stop_at stops.

    The selection goes through a stable argsort: the scores at sorted
    positions stop_at and above are flagged, and their input indices are
    listed in ascending order. stop_at None flags nothing.
    """
    s = np.asarray(scores, dtype=np.float64)
    order = np.argsort(s, kind="stable")
    flags = np.zeros(len(s), dtype=bool)
    if stop_at is None:
        return s[order], flags, np.empty(0, dtype=np.int64)
    flags[order[stop_at:]] = True
    return s[order], flags, np.sort(order[stop_at:])

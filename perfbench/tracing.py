"""Traced run: driftguard's stage functions called one by one, each in a span.

Spans are recorded here, around the calls into each layer, never inside the
program. A traced detection runs the stages in ``pipeline.run_detection``'s
order, then ``run_detection`` itself on the same series: its wall time is
the untraced reference, and its detections must equal the staged chain's.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import driftguard as dg
from driftguard import cli
from driftguard.evaluation import Combo, grid_evaluate

from workloads import REPS, Inputs, Workload

# Stage spans inside one traced detection, in run_detection's order.
STAGES = (
    "core.ingest",
    "rules.apply",
    "transforms.build",
    "neighbors.normalize",
    "scoring.score",
    "threshold.evt",
    "attribution.attribute",
    "threshold.combine",
)

# Per-layer metric -> the span (or derived key) whose ms are summed over a pass.
PASS_TIMES = {
    "core.ingest_ms": "core.ingest",
    "rules.apply_ms": "rules.apply",
    "transforms.build_ms": "transforms.build",
    "neighbors.normalize_ms": "neighbors.normalize",
    "neighbors.knn_ms": "neighbors.knn",
    "neighbors.leader_ms": "neighbors.leader",
    "scoring.score_ms": "scoring.score",
    "scoring.self_ms": "scoring.self",
    "threshold.evt_ms": "threshold.evt",
    "attribution.attribute_ms": "attribution.attribute",
    "attribution.write_ms": "attribution.write",
}


class Tracer:
    """Spans (id, name, start, end, parent, workload), kept in memory for the caller to write out."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter() - self._t0,
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def ms(self, record: dict) -> float:
        return (record["end"] - record["start"]) * 1000.0


class TracedPass:
    """One pass over a workload's detections: spans, counts and checks."""

    def __init__(self, tracer: Tracer, out_dir: Path):
        self.tracer = tracer
        self.out_dir = out_dir
        self.times: dict[str, float] = defaultdict(float)  # ms summed over the pass
        self.counts: dict[str, int] = defaultdict(int)
        self.per_method: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_detection_ms: list[float] = []  # per detection, in pass order
        self.op_parts_ms: list[float] = []  # ingest + run_detection + writes, per detection
        self.mismatches: list[str] = []
        self.trace_overhead_ms = 0.0
        self._neighbors: dict[tuple, dict[str, float]] = {}

    def _timed(self, name: str, fn, *args, **kwargs):
        with self.tracer.span(name) as rec:
            out = fn(*args, **kwargs)
        elapsed = self.tracer.ms(rec)
        self.times[name] += elapsed
        return out, elapsed

    def _neighbor_cost(self, det, cloud: dg.PointCloud) -> dict[str, float]:
        """kNN (and Leader) work the detection's scorer does, timed on its own once per cloud."""
        key = (det.variables, det.transform, det.method == "HDoutliers")
        if key not in self._neighbors:
            cost = {}
            if det.method == "HDoutliers":
                radius = dg.default_leader_radius(len(cloud), cloud.dim)
                clustering, cost["leader"] = self._timed("neighbors.leader", dg.leader, cloud, radius)
                self.counts["neighbors.exemplars"] += len(clustering.exemplars)
                if len(clustering.exemplars) >= 2:
                    sub = dg.PointCloud(points=cloud.points[clustering.exemplars])
                    _, cost["knn"] = self._timed("neighbors.knn", dg.knn, sub, 1)
            else:
                _, cost["knn"] = self._timed("neighbors.knn", dg.knn, cloud, dg.ScoringConfig().k)
            self._neighbors[key] = cost
        return self._neighbors[key]

    def detect(self, det, inputs: Inputs, index: int) -> None:
        """Trace one detect op on the workload's input, then check it against run_detection."""
        pcfg = det.pipeline_config(inputs.variables)
        with self.tracer.span("detect", detect=det.label) as root:
            ms, ingest_ms = self._timed("core.ingest", dg.ingest_csv, inputs.data, site=self.tracer.workload)
            rule_flags, cleaned = None, ms
            if pcfg.rules is not None:
                (rule_flags, cleaned), _ = self._timed("rules.apply", dg.apply_rules, ms, pcfg.rules)
            tm, _ = self._timed(
                "transforms.build", dg.build_matrix, cleaned, pcfg.transform, pcfg.variables, pcfg.sides
            )
            cloud, _ = self._timed("neighbors.normalize", dg.normalize, tm.points)
            sv, score_ms = self._timed("scoring.score", dg.score, cloud, pcfg.scoring)
            (flags, _), _ = self._timed("threshold.evt", dg.evt_flag, sv, pcfg.threshold)
            evt, _ = self._timed("attribution.attribute", dg.attribute_detections, tm, ms, flags, sv.scores)
            predicted, _ = self._timed(
                "threshold.combine", dg.combine_flags, rule_flags, [d.timestamp for d in evt], ms.timestamps
            )
            # The untraced reference for this detection, on the same series.
            result, rd_ms = self._timed("pipeline.run_detection", dg.run_detection, ms, pcfg)
            with self.tracer.span("attribution.write") as rec:
                dg.write_detections_csv(result.detections, self.out_dir / f"detections-{index}.csv")
                result.trace.to_csv(self.out_dir / f"trace-{index}.csv")
            write_ms = self.tracer.ms(rec)
            self.times["attribution.write"] += write_ms

        self.run_detection_ms.append(rd_ms)
        self.op_parts_ms.append(ingest_ms + rd_ms + write_ms)
        # The staged chain's wall, span bookkeeping included, less the untraced run_detection.
        self.trace_overhead_ms += self.tracer.ms(root) - ingest_ms - write_ms - 2 * rd_ms
        cost = self._neighbor_cost(det, cloud)
        self_ms = score_ms - sum(cost.values())
        self.per_method[det.method]["score_ms"] += score_ms
        self.per_method[det.method]["self_ms"] += self_ms
        self.times["scoring.self"] += self_ms

        self.counts["core.rows_in"] += len(ms)
        if rule_flags is not None:
            self.counts["rules.hits"] += int(
                rule_flags.out_of_range.sum() + rule_flags.negative.sum() + rule_flags.missing_gap.sum()
            )
        self.counts["transforms.rows_dropped"] += tm.n_dropped
        self.counts["neighbors.duplicate_rows"] += len(cloud) - len(np.unique(cloud.points, axis=0))
        self.counts["threshold.flagged"] += int(flags.sum())
        self.counts["attribution.corrected"] += sum(d.corrected_from is not None for d in evt)

        reference = tuple(d for d in result.detections if d.trigger == "evt")
        if tuple(evt) != reference:
            self.mismatches.append(f"{det.label}: staged detections differ from run_detection's")
        if not np.array_equal(predicted, result.predicted):
            self.mismatches.append(f"{det.label}: staged prediction differs from run_detection's")
        stray = {d.timestamp for d in result.detections} - inputs.timestamps
        if stray:
            self.mismatches.append(f"{det.label}: {len(stray)} detection timestamps not in the input")


def cli_detect(inputs: Inputs, config: Path, out_dir: Path) -> tuple[int, float]:
    """One untraced detect op through the CLI: (exit code, wall seconds)."""
    start = time.perf_counter()
    code = cli.main(["detect", "--input", str(inputs.data), "--config", str(config), "--out-dir", str(out_dir)])
    return code, time.perf_counter() - start


def _reports_ok(reports) -> bool:
    return all(
        r.error is None and r.metric_set is not None
        and not any(math.isnan(x) for x in vars(r.metric_set).values())
        for r in reports
    )


def time_grids(workload: Workload, inputs: Inputs, nproc: int) -> dict:
    """``grid_evaluate`` with one worker and with ``nproc`` workers, on the same combos."""
    ms = dg.ingest_csv(inputs.data, site=workload.name)
    detects = workload.grid_detects()
    combos = [Combo(d.variables, dg.TransformKind(d.transform), dg.Method.parse(d.method)) for d in detects]
    kwargs = dict(
        scoring_base=dg.ScoringConfig(),
        threshold_cfg=dg.ThresholdConfig(),
        rule_cfg=detects[0].pipeline_config(inputs.variables).rules,
        repetitions=REPS,
    )
    out = {}
    for label, workers in (("serial", 1), ("threaded", nproc)):
        start = time.perf_counter()
        reports = grid_evaluate(ms, combos, max_workers=workers, **kwargs)
        out[label] = time.perf_counter() - start
        out[label + "_ok"] = _reports_ok(reports)
        out[label + "_cm"] = [(r.combo, r.cm) for r in reports]
    out["agree"] = out["serial_cm"] == out["threaded_cm"]
    return out


def traced_run(workload: Workload, inputs: Inputs, work: Path, nproc: int, passes: int):
    """Run ``passes`` traced passes plus the grid timings; return (metrics, text, spans, failed, attempted)."""
    tracer = Tracer(workload.name)
    results = []
    attempted = failed = 0
    problems: list[str] = []
    cli_overheads, trace_overheads = [], []
    cfg_path = work / "cli-overhead.json"
    cfg_path.write_text(json.dumps(workload.detects[0].cli_config(workload.name)))
    for p in range(passes):
        out_dir = work / f"traced-{p}"
        out_dir.mkdir(parents=True, exist_ok=True)
        tp = TracedPass(tracer, out_dir)
        with tracer.span("pass", index=p):
            for i, det in enumerate(workload.detects):
                tp.detect(det, inputs, i)
            # The pass's first detection as an untraced CLI op, for cli.overhead.
            with tracer.span("cli.detect"):
                code, wall = cli_detect(inputs, cfg_path, work / f"cli-{p}")
        attempted += len(workload.detects) + 1
        failed += len(tp.mismatches) + (code != 0)
        problems += tp.mismatches + ([f"cli detect exited {code}"] if code else [])
        if (work / f"cli-{p}" / "detections.csv").read_bytes() != (out_dir / "detections-0.csv").read_bytes():
            failed += 1
            problems.append("CLI detections.csv differs from run_detection's for the same config")
        cli_overheads.append(wall * 1000.0 - tp.op_parts_ms[0])
        trace_overheads.append(tp.trace_overhead_ms)
        results.append(tp)

    grids = time_grids(workload, inputs, nproc)
    attempted += 2
    for label in ("serial", "threaded"):
        if not grids[label + "_ok"]:
            failed += 1
            problems.append(f"{label} grid has an error or NaN row")
    if not grids["agree"]:
        failed += 1
        problems.append("serial and threaded grids disagree")

    n_grid = len(workload.grid_detects())
    serial_rd_s = statistics.median(sum(tp.run_detection_ms[:n_grid]) for tp in results) / 1000.0
    # Every metric maps to (unit, samples): one sample per pass, or one per run.
    metrics = {name: ("ms", [tp.times[key] for tp in results]) for name, key in PASS_TIMES.items()}
    metrics.update({
        "pipeline.run_detection_ms": ("ms", [sum(tp.run_detection_ms) for tp in results]),
        "cli.overhead_ms": ("ms", cli_overheads),
        "trace.overhead_ms": ("ms", trace_overheads),
        "evaluation.grid_serial_s": ("s", [grids["serial"]]),
        "evaluation.thread_speedup": ("ratio", [grids["serial"] / grids["threaded"]]),
        "evaluation.repeat_factor": ("ratio", [grids["serial"] / serial_rd_s]),
    })
    for name in (
        "core.rows_in", "rules.hits", "transforms.rows_dropped", "neighbors.duplicate_rows",
        "neighbors.exemplars", "threshold.flagged", "attribution.corrected",
    ):
        metrics[name] = ("count", [results[0].counts[name]])

    first = results[0]
    lines = [f"traced pass: {len(workload.detects)} detections, {passes} pass(es), metrics are per pass"]
    for method, vals in first.per_method.items():
        lines.append(
            f"  scoring.score_ms.{method} = {vals['score_ms']:.1f} ms   "
            f"scoring.self_ms.{method} = {vals['self_ms']:.1f} ms"
        )
    parts = first.op_parts_ms[0]
    lines.append(
        f"  accounting, first detection: ingest + run_detection + writes = {parts:.1f} ms, "
        f"cli.overhead = {cli_overheads[0]:.1f} ms, CLI op wall = {parts + cli_overheads[0]:.1f} ms"
    )
    staged = sum(first.times[s] for s in STAGES[1:])
    lines.append(
        f"  staged stages (rules .. combine) = {staged:.1f} ms against "
        f"run_detection = {sum(first.run_detection_ms):.1f} ms over the pass"
    )
    lines.append(
        f"  grid over {n_grid} combo(s), reps={REPS}: serial {grids['serial']:.2f} s, "
        f"{nproc} workers {grids['threaded']:.2f} s"
    )
    lines += [f"  CHECK FAILED: {p}" for p in problems]
    return metrics, lines, tracer.spans, failed, attempted

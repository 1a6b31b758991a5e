"""The benchmark's three workloads: inputs made from a seed, and the ops run on them.

Every input is generated here from the seed and written as CSV plus JSON
configs; driftguard sees only those files (timed ops) or the series read
back from them (traced run). Labels mark exactly the cells and timestamps
this module corrupts, so recall and false positives are measured against
faults the benchmark injected itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import driftguard as dg

TCL = ("turbidity", "conductivity", "level")
TC = ("turbidity", "conductivity")
PAPER_TRANSFORMS = ("original", "first_derivative", "one_sided_derivative")
METHODS = tuple(m.value for m in dg.Method)  # fixed pass order
K = 10
REPS = 3

# Level, amplitude, period and noise of the T-C-L base signals; every
# signal stays positive, so the log-based transforms see no invalid cells
# unless a workload corrupts them on purpose.
BASE = {
    "turbidity": dg.BaseSignal(20.0, 5.0, 700.0, 0.1),
    "conductivity": dg.BaseSignal(300.0, 40.0, 900.0, 1.5),
    "level": dg.BaseSignal(1.5, 0.3, 800.0, 0.01),
}

# (spike range, drop range) per variable. Drops stay below the signal's
# minimum (level - amplitude), so an injected drop is never a rule hit.
FAULT_MAGNITUDES = {
    "turbidity": ((80.0, 150.0), (10.0, 14.0)),
    "conductivity": ((200.0, 280.0), (150.0, 200.0)),
    "level": ((1.0, 1.5), (0.6, 0.9)),
}

# Sensor detection ranges for bulk-screen's out-of-range rule.
BULK_RANGES = {"turbidity": (0.0, 1000.0), "conductivity": (0.0, 2000.0), "level": (0.0, 10.0)}


@dataclass(frozen=True)
class Detect:
    """One detection config, rendered both as CLI JSON and as a PipelineConfig."""

    variables: tuple[str, ...]
    transform: str
    method: str
    ranges: tuple[tuple[str, tuple[float, float]], ...] = ()

    @property
    def label(self) -> str:
        return f"{'-'.join(v[0].upper() for v in self.variables)}:{self.transform}:{self.method}"

    def cli_config(self, site: str) -> dict:
        return {
            "site": site,
            "variables": list(self.variables),
            "transform": {"kind": self.transform},
            "scoring": {"method": self.method, "k": K},
            "rules": {"enabled": True, "ranges": {v: list(r) for v, r in self.ranges}},
        }

    def pipeline_config(self, input_variables) -> dg.PipelineConfig:
        """The PipelineConfig the CLI resolves from ``cli_config``."""
        ranges = dict(self.ranges)
        return dg.PipelineConfig(
            variables=self.variables,
            transform=dg.TransformKind(self.transform),
            scoring=dg.ScoringConfig(method=dg.Method.parse(self.method), k=K),
            threshold=dg.ThresholdConfig(),
            rules=dg.RuleConfig(
                ranges={v: ranges.get(v, (-math.inf, math.inf)) for v in input_variables},
                max_gap_minutes=180.0,
            ),
        )


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], dg.MultiSeries]  # seed -> labelled input series
    op: str  # "detect": one op per Detect; "evaluate": one op over the whole grid
    detects: tuple[Detect, ...]  # one pass, in a fixed order
    why: str

    def grid_detects(self) -> tuple[Detect, ...]:
        """Combos the traced run times ``grid_evaluate`` over.

        paper-grid uses its whole grid. The detect workloads use their first
        op alone, because a grid over all of field-detect's methods would
        take minutes.
        """
        return self.detects if self.op == "evaluate" else self.detects[:1]

    def write_inputs(self, seed: int, work: Path) -> "Inputs":
        """Generate the series, write it and the op configs; return their paths."""
        work.mkdir(parents=True, exist_ok=True)
        ms = self.generate(seed)
        data = work / "input.csv"
        dg.emit_csv(ms, data)
        configs = []
        if self.op == "evaluate":
            path = work / "grid.json"
            path.write_text(json.dumps(_grid_config(self.name)))
            configs.append(path)
        else:
            for i, det in enumerate(self.detects):
                path = work / f"detect-{i}.json"
                path.write_text(json.dumps(det.cli_config(self.name)))
                configs.append(path)
        truth = dg.ground_truth(ms)
        return Inputs(
            data=data,
            configs=tuple(configs),
            timestamps=frozenset(int(t) for t in ms.timestamps),
            faulty=frozenset(int(t) for t in truth.timestamps[truth.flags]),
            n_rows=len(ms),
            variables=ms.variables,
        )


@dataclass(frozen=True)
class Inputs:
    data: Path
    configs: tuple[Path, ...]
    timestamps: frozenset[int]
    faulty: frozenset[int]  # timestamps carrying an injected label
    n_rows: int
    variables: tuple[str, ...]


def _grid_config(site: str) -> dict:
    return {
        "site": site,
        "scoring": {"k": K},
        "rules": {"enabled": True},
        "grid": {
            "variable_sets": [list(TC), list(TCL)],
            "transforms": list(PAPER_TRANSFORMS),
            "methods": list(METHODS),
        },
        "reps": REPS,
    }


def _labelled_series(n: int, seed: int, n_faults: int, n_outages: int = 0) -> dg.MultiSeries:
    """T-C-L at 10-170 min gaps with spikes and drops, one per equal segment.

    The seed draws the noise and the gaps. The faults' places, kinds and
    sizes come from a fixed layout, and the gaps on either side of each
    fault are fixed at 60 min: a derivative transform divides by the gap,
    so a random gap would scale each fault's distance from the typical
    points by up to 17x and make recall a draw of the seed. ``n_outages``
    gaps at the start of evenly spread segments become labelled outages
    of 181-600 min, which the gap rule flags.
    """
    layout = np.random.default_rng(0)
    segment = n // n_faults
    faults = []
    for i in range(n_faults):
        var = TCL[int(layout.integers(len(TCL)))]
        kind = "spike" if layout.random() < 0.5 else "drop"
        lo, hi = FAULT_MAGNITUDES[var][kind == "drop"]
        index = i * segment + int(layout.integers(5, segment - 5))
        faults.append(dg.FaultSpec(var, index, kind, float(layout.uniform(lo, hi))))
    cfg = dg.SynthConfig(n_points=n, base=BASE, gap_minutes=(10, 170), faults=tuple(faults))
    ms = dg.synth_series(cfg, seed)

    gaps = np.diff(ms.timestamps) // 60
    at = np.array([f.index for f in faults])
    gaps[at - 1] = gaps[at] = 60  # gap i - 1 precedes reading i
    outages = segment * np.linspace(1, n_faults - 1, n_outages, dtype=np.int64)
    gaps[outages] = layout.integers(181, 601, size=n_outages)
    labels = {s.name: s.labels.copy() for s in ms.series}
    labels[TCL[0]][outages + 1] = 1
    ts = ms.timestamps[0] + 60 * np.concatenate(([0], np.cumsum(gaps)))
    return _with_timestamps(ms, ts, labels=labels)


def _with_timestamps(ms: dg.MultiSeries, ts: np.ndarray, values=None, labels=None) -> dg.MultiSeries:
    """``ms`` on new timestamps, optionally with new values and labels per variable."""
    return dg.MultiSeries(
        site=ms.site,
        series=tuple(
            dg.SensorSeries(
                s.name,
                ts,
                s.values if values is None else values[s.name],
                s.labels if labels is None else labels[s.name],
            )
            for s in ms.series
        ),
    )


def _bulk_series(n: int, seed: int) -> dg.MultiSeries:
    """T-C-L at 5-60 min sampling with outages and negative or out-of-range cells.

    ``SynthConfig`` has one long gap only, so outages and bad cells are
    written into the synthesized series here: 0.1% of gaps become outages of
    181-600 min, and 0.2% of each variable's cells turn negative or exceed
    the sensor range. Each corrupted cell is labelled on its variable; the
    reading after an outage is labelled on turbidity.

    The seed draws where the outages and bad cells fall; the base series
    (noise and sampling gaps) is the same for every seed. Across base
    series, HDoutliers flags anywhere from 600 to 21,800 rows (its scores
    tie within each Leader cluster, the tied-tail threshold case of ROADMAP
    item 3), and attribution and writes scale with that count, so a seeded
    base would make the op's time a draw of the seed.
    """
    rng = np.random.default_rng(seed)
    cfg = dg.SynthConfig(n_points=n, base=BASE, gap_minutes=(5, 60))
    ms = dg.synth_series(cfg, 0)

    gaps = np.diff(ms.timestamps) // 60
    outages = rng.choice(np.arange(1, n - 1), size=max(1, n // 1000), replace=False)
    gaps[outages] = rng.integers(181, 601, size=len(outages))
    ts = ms.timestamps[0] + 60 * np.concatenate(([0], np.cumsum(gaps)))

    values, labels = {}, {}
    for j, s in enumerate(ms.series):
        v = s.values.copy()
        lab = np.zeros(n, dtype=np.uint8)
        bad = rng.choice(np.arange(1, n), size=max(2, n // 500), replace=False)
        negative, high = bad[::2], bad[1::2]
        v[negative] = -v[negative] * rng.uniform(0.1, 1.0, size=len(negative))
        v[high] = BULK_RANGES[s.name][1] * rng.uniform(1.1, 2.0, size=len(high))
        lab[bad] = 1
        if j == 0:
            lab[outages + 1] = 1  # gap i precedes reading i + 1
        values[s.name], labels[s.name] = v, lab
    return _with_timestamps(ms, ts, values, labels)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="field-detect",
            generate=partial(_labelled_series, 20_000, n_faults=20),
            op="detect",
            detects=tuple(Detect(TCL, "one_sided_derivative", m) for m in METHODS),
            why=(
                "One-sided T-C-L puts ~12% of rows on the origin, so exact kNN's "
                "tie fallback dominates each op; COF, INFLO and LDOF over-flag, "
                "so attribution shows too. Runs at 20k, not 50k: 50k one-sided "
                "kNN takes 16.3 s, so 22 runs x 8 ops would not fit a check."
            ),
        ),
        Workload(
            name="paper-grid",
            # Outages give every combo rule hits, so no report row has a 0/0 PPV.
            generate=partial(_labelled_series, 5_400, n_faults=20, n_outages=5),
            op="evaluate",
            detects=tuple(
                Detect(vs, t, m) for vs in (TC, TCL) for t in PAPER_TRANSFORMS for m in METHODS
            ),
            why=(
                "The paper's 48-combo table at the Sandy Creek size with reps=3: "
                "six clouds are re-scored 240 times, so kNN sharing and the "
                "thread pool show; four of the six clouds have no ties."
            ),
        ),
        Workload(
            name="bulk-screen",
            generate=partial(_bulk_series, 50_000),
            op="detect",
            detects=(Detect(TCL, "one_sided_derivative", "HDoutliers", tuple(BULK_RANGES.items())),),
            why=(
                "HDoutliers runs kNN on exemplars only, so ingest, rules, Leader "
                "and writes dominate: a kNN change should leave it unchanged and "
                "a core I/O change should move it."
            ),
        ),
    )
}

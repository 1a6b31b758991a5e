"""The output ledger: what ``detect``, ``evaluate`` and ``plot-data`` write on one fixed input.

The input is a ``synth`` series (``SYNTH``): three variables with a spike, a
drop, a level shift and a long gap, so the default rules fire and the
one-sided transform piles about an eighth of the rows on the origin, where
kNN meets exact ties and widens its windows. The runs are ``detect`` for
every transform kind x method, ``evaluate`` on a small grid and one
``plot-data`` figure, each through ``cli.main``.

For each output file the ledger holds the command's exit code, the row
count, a SHA-256 digest of each exact column (timestamps, variables,
directions, ``corrected_from``, trace decisions and iterations, report
columns 1-14, whole manifests) and the values of each float column, rounded
to 12 significant digits. Floats are compared within ``RTOL``, not digested:
their last digits move between CPUs with the same tree and input. The
report's ``min_t/mu_t/max_t`` are timings and are left out.

After a deliberate output change, rewrite the ledger with

    PYTHONPATH=src python tests/output_ledger.py

and list every moved entry, and why, in ``CHANGES.md``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from driftguard import cli
from driftguard.scoring import Method
from driftguard.transforms import TransformKind

LEDGER = Path(__file__).parent / "data" / "output_ledger.json"
RTOL = 1e-9  # relative tolerance on every float column
_DIGITS = 12  # significant digits a float is stored with, far inside RTOL

SEED = 5
SYNTH = {
    "n_points": 300,
    "faults": [
        {"variable": "turbidity", "index": 60, "kind": "spike", "magnitude": 30.0},
        {"variable": "conductivity", "index": 140, "kind": "drop", "magnitude": 150.0},
        {"variable": "level", "index": 250, "kind": "level_shift", "magnitude": 0.5},
    ],
    "long_gap_at": 200,
    "long_gap_minutes": 600,
}
GRID = {
    "variable_sets": [["turbidity", "conductivity"], ["turbidity", "conductivity", "level"]],
    "transforms": ["original", "one_sided_derivative"],
    "methods": [m.value for m in Method],
}
# Per file name: the columns compared within RTOL; every other column is exact.
_FLOAT_COLUMNS = {
    "detections.csv": {"score"},
    "trace.csv": {"tested_score", "cutoff", "spacing_scale"},
    "bivariate.csv": {"x_turbidity", "y_conductivity"},
}
_REPORT_EXACT = 14  # report.csv columns 1-14; the rest are timings


def _runs(work: Path, data: Path):
    """(name, argv, out_dir) of every ledger run."""
    for kind in TransformKind:
        for method in Method:
            name = f"detect/{kind.value}/{method.value}"
            config = _config(work, name, {"transform": {"kind": kind.value},
                                          "scoring": {"method": method.value}})
            out = work / name
            yield name, ["detect", "--input", str(data), "--config", config, "--out-dir", str(out)], out
    config = _config(work, "evaluate", {"grid": GRID})
    out = work / "evaluate"
    yield "evaluate", ["evaluate", "--input", str(data), "--config", config, "--out-dir", str(out)], out
    out = work / "plot-data"
    yield "plot-data", ["plot-data", "--input", str(data), "--figure", "bivariate",
                        "--out-dir", str(out)], out


def _config(work: Path, name: str, cfg: dict) -> str:
    path = work / "configs" / (name.replace("/", "_") + ".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg))
    return str(path)


def _digest(cells) -> str:
    return hashlib.sha256("\n".join(cells).encode()).hexdigest()


def _csv_entry(path: Path) -> dict:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    floats = _FLOAT_COLUMNS.get(path.name, set())
    if path.name == "report.csv":
        header = header[:_REPORT_EXACT]
    entry = {"rows": len(rows), "exact": {}, "float": {}}
    for j, column in enumerate(header):
        cells = [row[j] for row in rows]
        if column in floats:
            entry["float"][column] = [float(f"{float(c):.{_DIGITS}g}") if c else None for c in cells]
        else:
            entry["exact"][column] = _digest(cells)
    return entry


def collect(work: Path) -> dict:
    """Run every ledger command in ``work`` and return the ledger's ``outputs``."""
    cli.main(["synth", "--config", _config(work, "synth", {"synth": SYNTH}),
              "--out", str(work / "input.csv"), "--seed", str(SEED)])
    outputs = {}
    for name, argv, out in _runs(work, work / "input.csv"):
        outputs[name] = {"exit": cli.main(argv)}
        for path in sorted(out.glob("*")):
            if path.suffix == ".csv":
                outputs[f"{name}/{path.name}"] = _csv_entry(path)
            elif path.name == "manifest.json":
                outputs[f"{name}/{path.name}"] = {"exact": {"file": _digest([path.read_text()])}}
    return outputs


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def moved(expected: dict, actual: dict) -> list[str]:
    """One line per file, column or exit code of ``actual`` that moved from ``expected``."""
    lines = []
    for name in sorted(set(expected) | set(actual)):
        if name not in actual:
            lines.append(f"{name}: not written")
            continue
        if name not in expected:
            lines.append(f"{name}: not in the ledger")
            continue
        want, got = expected[name], actual[name]
        if want.get("exit") != got.get("exit"):
            lines.append(f"{name}: exit {got.get('exit')}, ledger {want.get('exit')}")
        if want.get("rows") != got.get("rows"):
            lines.append(f"{name}: {got.get('rows')} rows, ledger {want.get('rows')}")
        for column in sorted(set(want.get("exact", {})) | set(got.get("exact", {}))):
            if want.get("exact", {}).get(column) != got.get("exact", {}).get(column):
                lines.append(f"{name}: column {column!r} differs")
        for column in sorted(set(want.get("float", {})) | set(got.get("float", {}))):
            w, g = want.get("float", {}).get(column), got.get("float", {}).get(column)
            if w is None or g is None or len(w) != len(g):
                lines.append(f"{name}: float column {column!r} changed shape")
                continue
            off = [i for i, (a, b) in enumerate(zip(w, g)) if not _close(a, b)]
            if off:
                lines.append(
                    f"{name}: float column {column!r} moved past rtol {RTOL} at rows "
                    f"{off[:5]}{' ...' if len(off) > 5 else ''} ({len(off)} of {len(w)})"
                )
    return lines


def write(path: Path = LEDGER) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = collect(Path(tmp))
    ledger = {
        "about": "Expected outputs of tests/output_ledger.py's runs; rewrite with that script.",
        "numpy": np.__version__,
        "rtol": RTOL,
        "seed": SEED,
        "synth": SYNTH,
        "grid": GRID,
        "outputs": outputs,
    }
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write(Path(sys.argv[1]) if len(sys.argv) > 1 else LEDGER)

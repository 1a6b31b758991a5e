"""Command line pipeline: synth, detect, evaluate, plot-data.

Configuration is a single JSON document; every field left unspecified is
filled from the documented defaults and the fully resolved result is echoed
into ``manifest.json`` so a run can be replayed exactly. Exit codes: 0 ok,
2 configuration error, 3 data error, 4 internal error.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    BaseSignal,
    FaultSpec,
    MultiSeries,
    SynthConfig,
    emit_csv,
    ground_truth,
    ingest_csv,
    synth_series,
)
from .errors import ConfigError, DataError, DriftguardError
from .evaluation import Combo, grid_evaluate, write_report_csv
from .pipeline import PipelineConfig, run_detection
from .rules import RuleConfig
from .scoring import Method, ScoringConfig
from .threshold import ThresholdConfig
from .transforms import TransformKind

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

DEFAULT_CONFIG = {
    "site": "",
    "variables": [],  # empty: every variable found in the input
    "transform": {
        "kind": "one_sided_derivative",
        "sides": {},  # variable -> keep_negative | keep_positive
    },
    "scoring": {
        "method": "KNN-SUM",
        "k": 10,
        "leader_radius": None,
        "rkof_bandwidth_scale": 1.0,
        "rkof_bandwidth_exponent": 1.0,
        "rkof_weight_sigma": 1.0,
    },
    "threshold": {"alpha": 0.05, "initial_fraction": 0.5, "tail_count": None},
    "rules": {
        "enabled": True,
        "max_gap_minutes": 180.0,
        "ranges": {},  # variable -> [min|null, max|null]; null = unbounded
        "forbid_negative": True,
    },
    "grid": {
        "variable_sets": [],  # list of variable lists; empty: all input variables
        "transforms": ["one_sided_derivative"],
        "methods": ["KNN-SUM"],
    },
    "synth": {
        "n_points": 500,
        # stays under the default 180-minute gap rule; widen deliberately
        # (or inject long_gap_at) when exercising missingness
        "gap_minutes": [10, 170],
        "base": {
            "turbidity": {"level": 20.0, "amplitude": 5.0, "period": 400.0, "noise_sd": 0.1},
            "conductivity": {"level": 300.0, "amplitude": 40.0, "period": 600.0, "noise_sd": 1.5},
            "level": {"level": 1.5, "amplitude": 0.3, "period": 800.0, "noise_sd": 0.01},
        },
        "faults": [],  # {"variable", "index", "kind", "magnitude"}
        "long_gap_at": None,
        "long_gap_minutes": 240,
        "site": "synthetic",
    },
    "seed": 0,
    "reps": 3,
}

# Config nodes keyed by input variable name; ``_ingest`` checks each key.
_VARIABLE_NODES = (("rules", "ranges"), ("transform", "sides"))

# Config nodes whose keys are data-dependent (variable names), not fixed.
# A user-supplied node replaces the default wholesale.
_FREE_NODES = {*_VARIABLE_NODES, ("synth", "base")}


# Leaf types a user value must match; numeric leaves go through _num instead.
_LEAF_KINDS = {list: "a list", bool: "true or false", str: "a string"}


def _merge(defaults, user, path=()):
    if path in _FREE_NODES:
        if not isinstance(user, dict):
            raise ConfigError(f"{'.'.join(path)}: expected an object")
        return copy.deepcopy(user)
    if isinstance(defaults, dict):
        if not isinstance(user, dict):
            raise ConfigError(f"{'.'.join(path) or 'config'}: expected an object")
        unknown = set(user) - set(defaults)
        if unknown:
            raise ConfigError(
                f"unknown config key(s) {sorted(unknown)} under {'.'.join(path) or 'top level'}"
            )
        return {
            key: _merge(defaults[key], user[key], path + (key,)) if key in user
            else copy.deepcopy(defaults[key])
            for key in defaults
        }
    kind = type(defaults)
    if kind in _LEAF_KINDS and not isinstance(user, kind):
        raise ConfigError(f"{'.'.join(path)}: expected {_LEAF_KINDS[kind]}, got {user!r}")
    return copy.deepcopy(user)


def load_config(path: str | None) -> dict:
    """Load and resolve a config file against the documented defaults."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path) as fh:
            user = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if user.get("package") == "driftguard" and isinstance(user.get("config"), dict):
        user = user["config"]  # a run manifest replays as its own config
    return _merge(DEFAULT_CONFIG, user)


def _num(kind: type, value, key: str):
    """A JSON number as int or float; anything else is a ConfigError naming key.

    true/false and numeric strings are refused, and an int key refuses a
    fractional (or non-finite) value instead of truncating it.
    """
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and kind is int and isinstance(value, float):
        ok = value.is_integer()
    if ok:
        try:
            return kind(value)
        except OverflowError:  # an int too large for a float
            pass
    raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")


def _bound(x, default: float, key: str) -> float:
    return default if x is None else _num(float, x, key)


def _rule_config(cfg: dict, variables) -> RuleConfig | None:
    rules = cfg["rules"]
    if not rules["enabled"]:
        return None
    ranges = {}
    for var in variables:
        pair = rules["ranges"].get(var, [None, None])
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"rules.ranges.{var}: expected [min, max]")
        key = f"rules.ranges.{var}"
        ranges[var] = (_bound(pair[0], -math.inf, key), _bound(pair[1], math.inf, key))
    return RuleConfig(
        ranges=ranges,
        max_gap_minutes=_num(float, rules["max_gap_minutes"], "rules.max_gap_minutes"),
        forbid_negative=rules["forbid_negative"],
    )


def _scoring_config(cfg: dict) -> ScoringConfig:
    s = cfg["scoring"]
    radius = s["leader_radius"]
    return ScoringConfig(
        method=Method.parse(s["method"]),
        k=_num(int, s["k"], "scoring.k"),
        leader_radius=None if radius is None else _num(float, radius, "scoring.leader_radius"),
        rkof_bandwidth_scale=_num(
            float, s["rkof_bandwidth_scale"], "scoring.rkof_bandwidth_scale"
        ),
        rkof_bandwidth_exponent=_num(
            float, s["rkof_bandwidth_exponent"], "scoring.rkof_bandwidth_exponent"
        ),
        rkof_weight_sigma=_num(float, s["rkof_weight_sigma"], "scoring.rkof_weight_sigma"),
    )


def _threshold_config(cfg: dict) -> ThresholdConfig:
    t = cfg["threshold"]
    tail = t["tail_count"]
    return ThresholdConfig(
        alpha=_num(float, t["alpha"], "threshold.alpha"),
        initial_fraction=_num(float, t["initial_fraction"], "threshold.initial_fraction"),
        tail_count=None if tail is None else _num(int, tail, "threshold.tail_count"),
    )


def _transform_kind(text: str) -> TransformKind:
    try:
        return TransformKind(text)
    except ValueError:
        raise ConfigError(f"unknown transform kind {text!r}") from None


def _ingest(args, cfg: dict) -> MultiSeries:
    """Read ``--input``; a variable-keyed config entry naming no input variable is a ConfigError."""
    ms = ingest_csv(args.input, site=cfg["site"])
    for section, node in _VARIABLE_NODES:
        for var in cfg[section][node]:
            if var not in ms.variables:
                raise ConfigError(
                    f"{section}.{node}.{var}: no such variable in input (has {list(ms.variables)})"
                )
    return ms


def _variables(cfg: dict, ms: MultiSeries) -> tuple[str, ...]:
    wanted = tuple(cfg["variables"]) or ms.variables
    for v in wanted:
        if v not in ms.variables:
            raise ConfigError(f"variable {v!r} not present in input (has {list(ms.variables)})")
    return wanted


def _pipeline_config(cfg: dict, ms: MultiSeries) -> PipelineConfig:
    variables = _variables(cfg, ms)
    return PipelineConfig(
        variables=variables,
        transform=_transform_kind(cfg["transform"]["kind"]),
        scoring=_scoring_config(cfg),
        threshold=_threshold_config(cfg),
        rules=_rule_config(cfg, ms.variables),
        sides=cfg["transform"]["sides"] or None,
    )


def _fields(node, key: str, allowed: tuple[str, ...], required: tuple[str, ...] = ()) -> dict:
    """``node`` as an object holding every required key and no key outside allowed."""
    if not isinstance(node, dict):
        raise ConfigError(f"{key}: expected an object, got {node!r}")
    unknown = set(node) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config key(s) {sorted(unknown)} under {key}")
    missing = [name for name in required if name not in node]
    if missing:
        raise ConfigError(f"{key}: missing key(s) {missing}")
    return node


_BASE_KEYS = ("level", "amplitude", "period", "noise_sd")
_FAULT_KEYS = ("variable", "index", "kind", "magnitude")


def _synth_config(cfg: dict) -> SynthConfig:
    s = cfg["synth"]
    base = {}
    for var, spec in s["base"].items():
        key = f"synth.base.{var}"
        spec = _fields(spec, key, _BASE_KEYS)
        base[var] = BaseSignal(
            level=_num(float, spec.get("level", 0.0), f"{key}.level"),
            amplitude=_num(float, spec.get("amplitude", 0.0), f"{key}.amplitude"),
            period=_num(float, spec.get("period", 500.0), f"{key}.period"),
            noise_sd=_num(float, spec.get("noise_sd", 0.0), f"{key}.noise_sd"),
        )
    faults = []
    for i, f in enumerate(s["faults"]):
        key = f"synth.faults[{i}]"
        f = _fields(f, key, _FAULT_KEYS, required=_FAULT_KEYS)
        faults.append(FaultSpec(
            variable=f["variable"],
            index=_num(int, f["index"], f"{key}.index"),
            kind=f["kind"],
            magnitude=_num(float, f["magnitude"], f"{key}.magnitude"),
        ))
    gap = s["gap_minutes"]
    if len(gap) != 2:
        raise ConfigError(f"synth.gap_minutes: expected [min, max], got {gap!r}")
    long_gap_at = s["long_gap_at"]
    return SynthConfig(
        n_points=_num(int, s["n_points"], "synth.n_points"),
        base=base,
        gap_minutes=(
            _num(int, gap[0], "synth.gap_minutes"),
            _num(int, gap[1], "synth.gap_minutes"),
        ),
        faults=tuple(faults),
        long_gap_at=None if long_gap_at is None else _num(int, long_gap_at, "synth.long_gap_at"),
        long_gap_minutes=_num(int, s["long_gap_minutes"], "synth.long_gap_minutes"),
        site=s["site"],
    )


def _write_manifest(cfg: dict, out_dir: Path, extra: dict | None = None) -> None:
    manifest = {"package": "driftguard", "version": __version__, "config": cfg}
    if extra:
        manifest.update(extra)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_combo(spec: str) -> tuple[tuple[str, ...], TransformKind, Method]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(
            f"combo {spec!r} must look like vars,comma,separated:transform:method"
        )
    variables = tuple(v.strip() for v in parts[0].split(",") if v.strip())
    if not variables:
        raise ConfigError(f"combo {spec!r} has no variables")
    return variables, _transform_kind(parts[1].strip()), Method.parse(parts[2])


def _combos(cfg: dict, ms: MultiSeries, combo_flags) -> list[Combo]:
    combos: list[Combo] = []
    if combo_flags:
        for spec in combo_flags:
            variables, kind, method = _parse_combo(spec)
            combos.append(Combo(variables, kind, method))
    else:
        grid = cfg["grid"]
        for vs in grid["variable_sets"]:
            if not isinstance(vs, list):
                raise ConfigError(f"grid.variable_sets: expected lists of variables, got {vs!r}")
        var_sets = [tuple(vs) for vs in grid["variable_sets"]] or [ms.variables]
        kinds = [_transform_kind(t) for t in grid["transforms"]]
        methods = [Method.parse(m) for m in grid["methods"]]
        for vs in var_sets:
            for kind in kinds:
                for method in methods:
                    combos.append(Combo(vs, kind, method))
    for combo in combos:
        for v in combo.variables:
            if v not in ms.variables:
                raise ConfigError(f"combo variable {v!r} not in input")
    return combos


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else _num(int, cfg["seed"], "seed")
    ms = synth_series(_synth_config(cfg), seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    emit_csv(ms, out)
    log.info("wrote %d points to %s", len(ms), out)
    return EXIT_OK


def cmd_detect(args) -> int:
    cfg = load_config(args.config)
    ms = _ingest(args, cfg)
    pcfg = _pipeline_config(cfg, ms)
    result = run_detection(ms, pcfg)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    from .attribution import write_detections_csv

    write_detections_csv(result.detections, out_dir / "detections.csv")
    result.trace.to_csv(out_dir / "trace.csv")
    _write_manifest(cfg, out_dir)
    log.info(
        "%d detections (%d rule, %d score-based)",
        len(result.detections),
        sum(1 for d in result.detections if d.trigger == "rule"),
        sum(1 for d in result.detections if d.trigger == "evt"),
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    ms = _ingest(args, cfg)
    if not ms.has_labels():
        raise DataError("evaluate needs label columns for every variable")
    combos = _combos(cfg, ms, args.combo)
    reps = args.reps if args.reps is not None else _num(int, cfg["reps"], "reps")
    reports = grid_evaluate(
        ms,
        combos,
        scoring_base=_scoring_config(cfg),  # method overridden per combo
        threshold_cfg=_threshold_config(cfg),
        rule_cfg=_rule_config(cfg, ms.variables),
        sides=cfg["transform"]["sides"] or None,
        repetitions=reps,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(reports, out_dir / "report.csv")
    _write_manifest(cfg, out_dir, extra={"combos": [
        [list(r.combo.variables), r.combo.transform.value, r.combo.method.value]
        for r in reports
    ]})
    failures = [r for r in reports if r.error]
    for r in failures:
        log.warning("combo %s failed: %s", r.combo, r.error)
    log.info("wrote %d report rows to %s", len(reports), out_dir / "report.csv")
    return EXIT_OK


def _figure_rows(cfg: dict, ms: MultiSeries, figure: str):
    pcfg = _pipeline_config(cfg, ms)
    result = run_detection(ms, pcfg)
    tm = result.matrix
    truth = ground_truth(ms).flags if ms.has_labels() else None
    corrected_from = {
        d.corrected_from for d in result.detections if d.corrected_from is not None
    }

    def classify(row: int) -> str:
        # final prediction (after neighbor correction); the pre-correction
        # rows are marked through the neighbor column instead
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

    if figure == "scores":
        header = ["timestamp", "score", "class"]
        rows = [
            [int(tm.point_timestamps[row]), float(result.scores.scores[row]), classify(row)]
            for row in range(len(tm.row_index))
        ]
        return header, rows

    raise ConfigError(f"unknown figure kind {figure!r}")


_SVG_COLORS = {
    "TP": "#d62728", "FN": "#ff9896", "FP": "#1f77b4", "TN": "#7f7f7f",
    "outlier": "#d62728", "typical": "#7f7f7f",
}


def _write_svg_scatter(header, rows, path, size: int = 640) -> None:
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
        color = _SVG_COLORS.get(r[2], "#2ca02c")
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="2.5" fill="{color}"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def cmd_plotdata(args) -> int:
    import csv as _csv

    cfg = load_config(args.config)
    ms = _ingest(args, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{args.figure}.csv"
    if args.figure == "timeseries":
        emit_csv(ms, out)
        log.info("wrote %d rows to %s", len(ms), out)
        return EXIT_OK
    header, rows = _figure_rows(cfg, ms, args.figure)
    with open(out, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    if args.svg and args.figure == "bivariate":
        _write_svg_scatter(header, rows, out_dir / "bivariate.svg")
    log.info("wrote %d rows to %s", len(rows), out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftguard",
        description="Technical-outlier detection for irregular multivariate sensor series",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic series CSV")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="run one combo and write a detection report")
    p.add_argument("--input", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="run a combo grid against expert labels")
    p.add_argument("--input", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument(
        "--combo",
        action="append",
        default=None,
        help="vars,comma,separated:transform:method (repeatable)",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plot-data", help="emit figure-ready CSV (and optional SVG)")
    p.add_argument("--input", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--figure", required=True, choices=["bivariate", "scores", "timeseries"])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except DataError as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except DriftguardError as exc:  # pragma: no cover - defensive
        log.error("error: %s", exc)
        return EXIT_INTERNAL
    except Exception:  # pragma: no cover - defensive
        log.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

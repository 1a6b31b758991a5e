"""Command line pipeline: synth, detect, evaluate, plot-data.

Configuration is a single JSON document; every field left unspecified is
filled from the documented defaults, ``--seed`` and ``--reps`` replace
their keys, and the fully resolved result is echoed into ``manifest.json``
so a run can be replayed exactly (a ``--combo`` run needs the same flags).
Each command builds its settings, ``--combo`` flags included, once and
before it reads the input; then it checks only that the input has every
variable they name. Exit codes: 0 ok, 2 configuration error, 3 data error,
4 internal error.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .attribution import write_detections_csv
from .core import (
    BaseSignal,
    FaultSpec,
    MultiSeries,
    SynthConfig,
    emit_csv,
    ground_truth,
    ingest_csv,
    synth_series,
    write_csv,
)
from .errors import ConfigError, DataError, DriftguardError
from .evaluation import Combo, grid_evaluate, write_report_csv
from .neighbors import thread_cap
from .pipeline import PipelineConfig, distinct_variables, run_detection
from .rules import UNBOUNDED, RuleConfig
from .scoring import Method, ScoringConfig
from .threshold import ThresholdConfig
from .transforms import Side, TransformKind

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
# A user-supplied node replaces the default wholesale; each synth.base entry
# is merged against _BASE_SIGNAL, so an omitted field takes its value there.
_FREE_NODES = {*_VARIABLE_NODES, ("synth", "base")}
_BASE_SIGNAL = {"level": 0.0, "amplitude": 0.0, "period": 500.0, "noise_sd": 0.0}

# Kinds of the numeric leaves whose default is null; every other numeric
# leaf takes its default's kind.
_NULL_KINDS = {
    ("scoring", "leader_radius"): float,
    ("threshold", "tail_count"): int,
    ("synth", "long_gap_at"): int,
}

# Leaf types a user value must match; numeric leaves go through _num instead.
_LEAF_KINDS = {list: "a list", bool: "true or false", str: "a string"}


def _merge(defaults, user, path=()):
    if path in _FREE_NODES:
        if not isinstance(user, dict):
            raise ConfigError(f"{'.'.join(path)}: expected an object")
        if path == ("synth", "base"):
            return {var: _merge(_BASE_SIGNAL, spec, path + (var,)) for var, spec in user.items()}
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
    if path in _NULL_KINDS and user is None:
        return None
    kind = _NULL_KINDS.get(path, type(defaults))
    if kind in (int, float):
        return _num(kind, user, ".".join(path))
    if kind in _LEAF_KINDS and not isinstance(user, kind):
        raise ConfigError(f"{'.'.join(path)}: expected {_LEAF_KINDS[kind]}, got {user!r}")
    return copy.deepcopy(user)


def load_config(path: str | None, **flags) -> dict:
    """Load and resolve a config file against the documented defaults.

    ``flags`` are command-line values (``seed``, ``reps``) that replace
    their top-level keys; a None flag was not given. Every numeric value
    comes back as its key's kind, int or float; ``_settings`` checks the rest.
    """
    user = {}
    if path is not None:
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
    return _merge(DEFAULT_CONFIG, {**user, **{k: v for k, v in flags.items() if v is not None}})


def _keyed(key: str, parse, *args, **kwargs):
    """``parse(*args, **kwargs)``, its ConfigError prefixed with the dotted key."""
    try:
        return parse(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


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


def _range(pair, key: str) -> tuple[float, float]:
    """A ``rules.ranges`` entry as (min, max); a null bound is unbounded."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(f"{key}: expected [min, max], got {pair!r}")
    return tuple(u if x is None else _num(float, x, key) for x, u in zip(pair, UNBOUNDED))


def _enum(kind: type, text, key: str):
    """``kind(text)``, for TransformKind or Side; anything else is a ConfigError naming key."""
    try:
        return kind(text)
    except ValueError:
        what = "transform kind" if kind is TransformKind else "side tag"
        raise ConfigError(f"{key}: unknown {what} {text!r}") from None


def _ingest(args, cfg: dict, s: _Settings) -> MultiSeries:
    """Read ``--input``; a config entry or ``--combo`` naming no input variable is a ConfigError."""
    ms = ingest_csv(args.input, site=cfg["site"])
    named = [(f"variables[{i}]", var) for i, var in enumerate(s.variables)]
    for section, node in _VARIABLE_NODES:
        named += [(f"{section}.{node}.{var}", var) for var in cfg[section][node]]
    named += [(f"grid.variable_sets[{i}]", v) for i, vs in enumerate(s.variable_sets) for v in vs]
    named += [(f"combo {spec!r}", v) for spec, combo in s.combos for v in combo.variables]
    for key, var in named:
        if var not in ms.variables:
            raise ConfigError(f"{key}: no variable {var!r} in input (has {list(ms.variables)})")
    return ms


class _Settings(NamedTuple):
    """The objects a resolved config and the ``--combo`` flags configure; see ``_settings``."""

    variables: tuple[str, ...]  # empty: every input variable
    transform: TransformKind
    sides: dict[str, Side] | None
    scoring: ScoringConfig
    threshold: ThresholdConfig
    rules: RuleConfig | None  # configured ranges only; None when the rules are disabled
    variable_sets: list[tuple]
    kinds: list[TransformKind]
    methods: list[Method]
    combos: list[tuple[str, Combo]]  # each --combo spec and its combo
    synth: SynthConfig


def _settings(cfg: dict, combo_specs=()) -> _Settings:
    """Every object ``cfg`` and ``combo_specs`` configure, built once per command before input."""
    thread_cap()  # a bad DRIFTGUARD_THREADS is a config error before any input is read
    if cfg["seed"] < 0:
        raise ConfigError(f"seed: must be non-negative, got {cfg['seed']}")
    if cfg["reps"] < 3:
        raise ConfigError(f"reps: must be at least 3, got {cfg['reps']}")
    transform, scoring, rules, grid = (cfg[k] for k in ("transform", "scoring", "rules", "grid"))
    variable_sets = []
    for i, vs in enumerate(grid["variable_sets"]):
        key = f"grid.variable_sets[{i}]"
        if not isinstance(vs, list):
            raise ConfigError(f"{key}: expected a list of variables, got {vs!r}")
        variable_sets.append(_keyed(key, distinct_variables, vs, "combo"))
    sides = {
        var: _enum(Side, tag, f"transform.sides.{var}") for var, tag in transform["sides"].items()
    }
    ranges = {var: _range(pair, f"rules.ranges.{var}") for var, pair in rules["ranges"].items()}
    rule_cfg = _keyed(
        "rules", RuleConfig, ranges, rules["max_gap_minutes"], rules["forbid_negative"]
    )
    method = _keyed("scoring.method", Method.parse, scoring["method"])
    kinds = [
        _enum(TransformKind, t, f"grid.transforms[{i}]") for i, t in enumerate(grid["transforms"])
    ]
    methods = [_keyed(f"grid.methods[{i}]", Method.parse, m) for i, m in enumerate(grid["methods"])]
    if not (kinds and methods):
        raise ConfigError("grid.transforms and grid.methods must each name at least one")
    variables = tuple(cfg["variables"])
    return _Settings(
        variables=variables and _keyed("variables", distinct_variables, variables, "pipeline"),
        transform=_enum(TransformKind, transform["kind"], "transform.kind"),
        sides=sides or None,
        scoring=_keyed("scoring", ScoringConfig, **{**scoring, "method": method}),
        threshold=_keyed("threshold", ThresholdConfig, **cfg["threshold"]),
        rules=rule_cfg if rules["enabled"] else None,
        variable_sets=variable_sets,
        kinds=kinds,
        methods=methods,
        combos=[(spec, _parse_combo(spec)) for spec in combo_specs],
        synth=_synth_config(cfg),
    )


def _pipeline_config(s: _Settings, ms: MultiSeries) -> PipelineConfig:
    return PipelineConfig(
        variables=s.variables or ms.variables,
        transform=s.transform,
        scoring=s.scoring,
        threshold=s.threshold,
        rules=s.rules,
        sides=s.sides,
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


_FAULT_KEYS = ("variable", "index", "kind", "magnitude")


def _synth_config(cfg: dict) -> SynthConfig:
    s = cfg["synth"]
    faults = []
    for i, f in enumerate(s["faults"]):
        key = f"synth.faults[{i}]"
        f = _fields(f, key, _FAULT_KEYS, required=_FAULT_KEYS)
        index = _num(int, f["index"], f"{key}.index")
        magnitude = _num(float, f["magnitude"], f"{key}.magnitude")
        faults.append(_keyed(key, FaultSpec, f["variable"], index, f["kind"], magnitude))
    gap = s["gap_minutes"]
    if len(gap) != 2:
        raise ConfigError(f"synth.gap_minutes: expected [min, max], got {gap!r}")
    return _keyed("synth", SynthConfig, **{
        **s,
        "base": {
            var: _keyed(f"synth.base.{var}", BaseSignal, **spec) for var, spec in s["base"].items()
        },
        "gap_minutes": tuple(_num(int, g, "synth.gap_minutes") for g in gap),
        "faults": tuple(faults),
    })


def _write_manifest(cfg: dict, out_dir: Path, extra: dict | None = None) -> None:
    manifest = {"package": "driftguard", "version": __version__, "config": cfg}
    if extra:
        manifest.update(extra)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_combo(spec: str) -> Combo:
    key = f"combo {spec!r}"
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{key} must look like vars,comma,separated:transform:method")
    variables = tuple(v.strip() for v in parts[0].split(",") if v.strip())
    kind = _enum(TransformKind, parts[1].strip(), key)
    return _keyed(key, Combo, variables, kind, _keyed(key, Method.parse, parts[2]))


def _combos(s: _Settings, ms: MultiSeries) -> list[Combo]:
    """The ``--combo`` flags' combos, else the grid's."""
    return [combo for _, combo in s.combos] or [
        Combo(vs, kind, method)
        for vs in s.variable_sets or [ms.variables] for kind in s.kinds for method in s.methods
    ]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    ms = synth_series(_settings(cfg).synth, cfg["seed"])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    emit_csv(ms, out)
    log.info("wrote %d points to %s", len(ms), out)
    return EXIT_OK


def cmd_detect(args) -> int:
    cfg = load_config(args.config)
    s = _settings(cfg)
    ms = _ingest(args, cfg, s)
    result = run_detection(ms, _pipeline_config(s, ms))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    cfg = load_config(args.config, reps=args.reps)
    s = _settings(cfg, args.combo or ())
    ms = _ingest(args, cfg, s)
    if not ms.has_labels():
        raise DataError("evaluate needs label columns for every variable")
    reports = grid_evaluate(
        ms,
        _combos(s, ms),
        scoring_base=s.scoring,  # method overridden per combo
        threshold_cfg=s.threshold,
        rule_cfg=s.rules,
        sides=s.sides,
        repetitions=cfg["reps"],
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


# Labelled classes indexed by 2 * predicted + actual.
_CLASSES = np.array(["TN", "FN", "FP", "TP"])


def _figure_rows(pcfg: PipelineConfig, ms: MultiSeries, figure: str):
    """(header, columns) of the bivariate or scores figure, one value per cloud row."""
    result = run_detection(ms, pcfg)
    tm = result.matrix
    # final prediction (after neighbor correction); the pre-correction
    # rows are marked through the neighbor column instead
    predicted = result.predicted[tm.row_index]
    if ms.has_labels():
        classes = _CLASSES[2 * predicted + ground_truth(ms).flags[tm.row_index]]
    else:
        classes = np.where(predicted, "outlier", "typical")
    if figure == "bivariate":
        loc = result.located
        neighbor = np.isin(tm.row_index, loc.at[loc.index != loc.at]).astype(int)
        vx, vy = tm.variables[:2]
        header = [f"x_{vx}", f"y_{vy}", "class", "neighbor"]
        cols = [tm.points[:, 0], tm.points[:, 1], classes, neighbor]
    else:
        header = ["timestamp", "score", "class"]
        cols = [tm.point_timestamps, result.scores.scores, classes]
    return header, [c.tolist() for c in cols]


_SVG_COLORS = {
    "TP": "#d62728", "FN": "#ff9896", "FP": "#1f77b4", "TN": "#7f7f7f",
    "outlier": "#d62728", "typical": "#7f7f7f",
}


def _write_svg_scatter(xs, ys, classes, path, size: int = 640) -> None:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    pad = 20
    scale = size - 2 * pad
    px = pad + (xs - xs.min()) / (xs.max() - xs.min() or 1.0) * scale
    py = size - pad - (ys - ys.min()) / (ys.max() - ys.min() or 1.0) * scale
    circle = '<circle cx="{:.1f}" cy="{:.1f}" r="2.5" fill="{}"/>'.format
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        *map(circle, px.tolist(), py.tolist(), map(_SVG_COLORS.__getitem__, classes)),
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts) + "\n")


def cmd_plotdata(args) -> int:
    cfg = load_config(args.config)
    s = _settings(cfg)
    ms = _ingest(args, cfg, s)
    pcfg = _pipeline_config(s, ms)
    if args.figure == "bivariate" and len(pcfg.variables) < 2:
        raise ConfigError("bivariate figure needs at least two variables")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{args.figure}.csv"
    if args.figure == "timeseries":
        emit_csv(ms, out)
        log.info("wrote %d rows to %s", len(ms), out)
        return EXIT_OK
    header, cols = _figure_rows(pcfg, ms, args.figure)
    write_csv(out, header, zip(*cols))
    if args.svg and args.figure == "bivariate":
        _write_svg_scatter(*cols[:3], out_dir / "bivariate.svg")
    log.info("wrote %d rows to %s", len(cols[0]), out)
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

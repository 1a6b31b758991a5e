"""driftguard benchmark: end-to-end metrics per workload, or a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload field-detect --seed 1 --seconds 30 --trace 0

The benchmark imports driftguard from the checkout's ``src/`` and exits 2 if
it is missing. It generates every input from ``--seed`` under
``perfbench/out/``, drives the timed ops in-process through
``driftguard.cli.main`` (a closed loop: one op at a time, in whole passes
that fit in ``--seconds``, at least one), checks every op's output, prints each metric
with its unit, sample count and quartiles, and ends with one JSON line. Any
failed check makes the result incorrect and the exit code 1.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, so driftguard's own worker count is the only
# parallelism; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
NPROC = len(os.sched_getaffinity(0))
os.environ["DRIFTGUARD_THREADS"] = str(NPROC)  # read by evaluate's thread pool

import argparse
import csv
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
TRACED_PASSES = {"bulk-screen": 3}  # cheap passes are repeated and reported as medians
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DRIFTGUARD_THREADS")
# Printed on every run but left out of the result: its spread over seeds
# is wider than any bound BENCHMARK.json may set (see README.md).
PRINTED_ONLY = {"false_positives"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_detect(out_dir: Path, inputs) -> tuple[list[str], set[int]]:
    """Problems with one detect op's outputs, and the timestamps it flagged."""
    problems = []
    for name in ("detections.csv", "trace.csv", "manifest.json"):
        if not (out_dir / name).is_file():
            problems.append(f"missing {name}")
    if problems:
        return problems, set()
    with open(out_dir / "detections.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    flagged = {int(r["timestamp"]) for r in rows}
    stray = {int(r["timestamp"]) for r in rows if r["trigger"] == "evt"} - inputs.timestamps
    if stray:
        problems.append(f"{len(stray)} evt detection timestamps not in the input")
    return problems, flagged


def check_evaluate(out_dir: Path, n_combos: int) -> tuple[list[str], list[dict]]:
    """Problems with one evaluate op's report, and its rows."""
    if not (out_dir / "report.csv").is_file() or not (out_dir / "manifest.json").is_file():
        return ["missing report.csv or manifest.json"], []
    with open(out_dir / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != n_combos:
        problems.append(f"report.csv has {len(rows)} rows, expected {n_combos}")
    bad = [r["i"] for r in rows if "NaN" in r.values()]
    if bad:
        problems.append(f"report rows {bad} carry NaN or an error")
    return problems, rows


def timed_run(workload, inputs, work: Path, seconds: float, cli) -> dict:
    """Closed loop of whole passes over the workload's ops.

    The first pass always runs; another starts only while the previous
    pass's duration still fits in what is left of ``seconds``, so every
    run of a workload makes the same number of passes give or take one.
    """
    walls: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    recall_hits = recall_total = false_positives = 0
    first_digests: dict[int, str] = {}
    start = time.perf_counter()
    passes = 0
    pass_s = 0.0
    while passes == 0 or time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        for i, config in enumerate(inputs.configs):
            out_dir = work / f"op-{i}"
            shutil.rmtree(out_dir, ignore_errors=True)
            command = "evaluate" if workload.op == "evaluate" else "detect"
            t = time.perf_counter()
            code = cli.main([command, "--input", str(inputs.data), "--config", str(config), "--out-dir", str(out_dir)])
            walls.append(time.perf_counter() - t)
            attempted += 1
            if code != 0:
                op_problems = [f"exit code {code}"]
            elif command == "evaluate":
                op_problems, rows = check_evaluate(out_dir, len(workload.detects))
                if passes == 0 and not op_problems:
                    tp = sum(int(r["TP"]) for r in rows)
                    recall_hits += tp
                    recall_total += tp + sum(int(r["FN"]) for r in rows)
                    false_positives += sum(int(r["FP"]) for r in rows)
            else:
                op_problems, flagged = check_detect(out_dir, inputs)
                if not op_problems:
                    # Outputs carry no timing, so every pass must repeat them byte for byte.
                    d = digest(out_dir / "detections.csv") + digest(out_dir / "trace.csv")
                    if first_digests.setdefault(i, d) != d:
                        op_problems.append("detections differ from the first pass")
                    if passes == 0:
                        recall_hits += len(flagged & inputs.faulty)
                        recall_total += len(inputs.faulty)
                        false_positives += len(flagged - inputs.faulty)
            if op_problems:
                failed += 1
                problems += [f"op {i} pass {passes}: {p}" for p in op_problems]
        passes += 1
        pass_s = time.perf_counter() - pass_start
    total = time.perf_counter() - start
    return {
        "walls": walls,
        "total": total,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "recall": recall_hits / recall_total if recall_total else 0.0,
        "false_positives": false_positives,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "driftguard" / "__init__.py").is_file():
        print(f"driftguard sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import driftguard
    from driftguard import cli
    import numpy
    import scipy

    import_s = time.perf_counter() - t0
    if Path(driftguard.__file__).resolve().parent != (src / "driftguard").resolve():
        print(f"imported driftguard from {driftguard.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"

    # Set-up: import once, then generate and write the inputs several times.
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = workload.write_inputs(args.seed, work)
        setup_samples.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_samples)

    env = {
        "nproc": NPROC,
        **{v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "driftguard": driftguard.__version__,
    }
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  rows {inputs.n_rows}  "
          f"faulty timestamps {len(inputs.faulty)}")
    print(f"why: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True))

    try:
        if args.trace:
            from tracing import traced_run

            metrics, lines, spans, failed, attempted = traced_run(
                workload, inputs, work, NPROC, TRACED_PASSES.get(workload.name, 1)
            )
            print("\n".join(lines))
            for name, (unit, samples) in metrics.items():
                q1, value, q3 = quartiles(samples)
                print(f"metric {name} = {value:.6g} {unit}  n={len(samples)}  q1={q1:.6g}  q3={q3:.6g}")
            result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": statistics.median(v), "unit": u} for k, (u, v) in metrics.items()}}
            spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({"env": env, "spans": spans}))
            print(f"spans: {len(spans)} written to {spans_path.relative_to(ROOT)}")
        else:
            run = timed_run(workload, inputs, work, args.seconds, cli)
            walls = run["walls"]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rows_per_s = inputs.n_rows * len(walls) / sum(walls)
            per_op_rate = [inputs.n_rows / w for w in walls]
            op_name = "evaluate_s" if workload.op == "evaluate" else "detect_p50_s"
            report = [
                ("op_p50_s", "s", statistics.median(walls), walls, op_name),
                ("rows_per_s", "1/s", rows_per_s, per_op_rate, "total rows / total op wall time"),
                ("setup_s", "s", setup_s, [import_s + s for s in setup_samples], "import + input generation"),
                ("peak_rss_mb", "MB", rss_mb, [rss_mb], "ru_maxrss of this process"),
                ("fault_recall", "ratio", run["recall"], [run["recall"]], "first pass"),
                ("false_positives", "count", run["false_positives"], [run["false_positives"]], "first pass"),
            ]
            for name, unit, value, samples, note in report:
                q1, _, q3 = quartiles(samples)
                print(f"metric {name} = {value:.6g} {unit}  n={len(samples)}  q1={q1:.6g}  q3={q3:.6g}  ({note})")
            print(f"error_rate = {run['failed']}/{run['attempted']}  passes={run['passes']}  "
                  f"measured {run['total']:.2f} s")
            for p in run["problems"]:
                print(f"CHECK FAILED: {p}")
            failed, attempted = run["failed"], run["attempted"]
            result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, unit, value, _, _ in report if name not in PRINTED_ONLY}}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

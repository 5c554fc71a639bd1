"""Run one workload of the scoopgp benchmark and print its metrics.

    python3 perfbench/run.py --workload train|live|replay --seed N \
        --seconds S --trace 0|1

Run it from the repository root; scoopgp is imported from ./src. The
process pins OpenBLAS, OpenMP and MKL to one thread before numpy loads.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. Either way the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. A record of the run (environment, sample counts, artifact
digests) is written under .perfbench/results/. The exit code is 0 when
every output check passed, 1 when one failed and 2 on a usage error.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import sys
import time
from pathlib import Path
from statistics import median

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train", "live", "replay")
STAGE_NAMES = {"train": "train_s", "live": "deploy_s", "replay": "deploy_s"}
# per-layer values that are not layer figures: the stage timings of the
# traced run and of the untraced stage run just before it (their ratio
# is the tracing overhead), and the accuracy guards
TRACED_UNITS = {
    "untraced.stage_s": "s",
    "traced.stage_s": "s",
    "untraced.step_ms_p90": "ms",
    "traced.step_ms_p90": "ms",
    "quality.kshot_mae_10": "cm3",
    "quality.attempts_mean": "attempts",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "scoopgp" / "__init__.py").is_file():
        print(f"error: {root}/src/scoopgp not found; run from the repository root", file=sys.stderr)
        return 2
    # the sl checkpoint's bytes depend on the BLAS thread count, and the
    # thread count is read once, when numpy first loads OpenBLAS
    if "numpy" in sys.modules:
        print("error: numpy was loaded before the thread count was pinned", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import bench
    from tracing import Tracer

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = root / ".perfbench" / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run = bench.Run(args.workload, args.seed, args.seconds, work)
    if args.trace:
        from layers import Layers

        run.layers = Layers()
    try:
        bench.execute(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger = run.ledger
    e2e, units = {}, dict(bench.END_TO_END)
    if not ledger.failures:
        e2e = bench.end_to_end(run)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": bench.environment(),
        "samples": {
            "setup_s": len(run.setup_s),
            "stage_s": len(run.stage_s),
            bench.TAIL: len(run.steps_s),
            "step_ms_p50": len(run.steps_s),
            "peak_rss_mb": 1,
        },
        "step_ms_p50": 1e3 * median(run.steps_s) if run.steps_s else None,
        "setup_s": run.setup_s,
        "stage_s": run.stage_s,
        "end_to_end": e2e,
        "quality": run.quality,
        "training_epochs": run.epochs,
        "digests": run.digests,
        "identical": {key: len(set(values)) == 1 for key, values in run.digests.items()},
        "attempted": ledger.attempted,
        "failures": ledger.failures,
    }
    if args.trace:
        import layers

        per_layer = {} if ledger.failures else layers.layer_metrics(
            run.stage_tracer, run.setup_tracer or Tracer(), len(run.stage_s), run.epochs
        )
        if e2e:
            for name in ("stage_s", bench.TAIL):
                per_layer[f"untraced.{name}"] = run.untraced[name]
                per_layer[f"traced.{name}"] = e2e[name]
        per_layer.update({f"quality.{k}": v for k, v in run.quality.items()})
        record["per_layer"] = per_layer
        units = {name: unit for name, unit, _ in layers.METRICS}
        units.update(TRACED_UNITS)
        metrics = per_layer
    else:
        metrics = e2e
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (results / f"{stamp}.json").write_text(json.dumps(record, indent=1))
    with gzip.open(results / f"{stamp}.steps.json.gz", "wt") as fh:
        json.dump({"stage_s": run.stage_s, "steps_s": run.steps_s}, fh)
    if args.trace and run.stage_tracer:
        with gzip.open(results / f"{stamp}.spans.json.gz", "wt") as fh:
            json.dump(run.stage_tracer.spans, fh)

    print_report(record, metrics, units)
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not ledger.failures else 1


def print_report(record: dict, metrics: dict, units: dict) -> None:
    """Human-readable lines ahead of the JSON result."""
    workload = record["workload"]
    samples = {} if record["trace"] else record["samples"]
    print(f"workload {workload} seed {record['seed']} trace {record['trace']}")
    for name, value in metrics.items():
        label = f"{name} ({STAGE_NAMES[workload]})" if name.endswith("stage_s") else name
        n_text = f"  n={samples[name]}" if name in samples else ""
        print(f"  {label:<34} {value:>14.6g} {units[name]}{n_text}")
    if record["step_ms_p50"] is not None:
        print(f"  {'step_ms_p50 (no bound)':<34} {record['step_ms_p50']:>14.6g} ms"
              f"  n={record['samples']['step_ms_p50']}")
    attempted, failed = record["attempted"], len(record["failures"])
    print(f"  error_rate {failed}/{attempted} = {failed / attempted if attempted else 0.0:.4f}")
    for key, value in sorted(record["quality"].items()):
        print(f"  {key} {value:.6g}")
    if record["training_epochs"]:
        print(f"  training.epochs {record['training_epochs']}")
    for key, values in sorted(record["digests"].items()):
        flag = "identical" if record["identical"][key] else "DIFFER"
        print(f"  sha256 {key} {values[-1][:16]} x{len(values)} {flag}")
    env = record["environment"]
    print(f"  env {env['thread_env']} openblas_threads={env['openblas_threads']} "
          f"cpus={env['cpu_count']} affinity={env['affinity']} python {env['python']} "
          f"numpy {env['numpy']} {env['openblas']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if record["trace"]:
        print_overhead(record)


def print_overhead(record: dict) -> None:
    per_layer = record.get("per_layer", {})
    for name in ("stage_s", "step_ms_p90"):
        traced, untraced = per_layer.get(f"traced.{name}"), per_layer.get(f"untraced.{name}")
        if traced and untraced:
            print(f"  tracing overhead {name}: {traced:.6g} traced vs {untraced:.6g} "
                  f"untraced ({100.0 * (traced / untraced - 1.0):+.1f}%)")


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface: data generation, training, evaluation, reporting.

Subcommands:

- gen-data     build a synthetic suite and collect offline datasets
- train        fit a model (sl, dkmt, kcmd-ot, kcmd-random, kcmd-manual)
- eval-deploy  simulated deployment, replay or live mode, emits traces
- eval-kshot   k-shot prediction accuracy (MAE) on the test datasets
- report       aggregate traces and MAE tables into summaries and plots

All artifacts are JSON (traces are JSON lines) and carry no timestamps
or absolute paths, so fixed seeds reproduce them byte for byte. The
SCOOPGP_ARTIFACTS environment variable, when set, anchors relative
paths.

The package import pins BLAS to one thread before numpy loads, so
these bytes do not depend on the machine's core count (see scoopgp).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import DatasetError, load_task_dataset, save_task_dataset
from .decision import (
    ActionGrid,
    EpisodeTrace,
    LiveEnvironment,
    Policy,
    ReplayEnvironment,
    run_episode,
)
from .model import record_dict
from .terrain import (
    TerrainInstance,
    TerrainTask,
    collect_offline,
    compute_threshold,
    generate_suite,
)
from .training import TrainConfig, train_dkmt, train_kcmd, train_sl

METHODS = ("sl", "dkmt", "kcmd-ot", "kcmd-random", "kcmd-manual")
SUITE_SCHEMA = 1


class ConfigError(ValueError):
    """Invalid flags, missing files, or inconsistent artifacts."""


def _resolve(path: str) -> Path:
    p = Path(path)
    root = os.environ.get("SCOOPGP_ARTIFACTS")
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def _require_dir(path: Path, field: str) -> Path:
    if not path.is_dir():
        raise ConfigError(f"{field}: directory {path} does not exist")
    return path


def _parse_json(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{where} is not JSON: {err}") from err


def _task_files(data_dir: Path, prefix: str) -> list[Path]:
    files = sorted((data_dir / "tasks").glob(f"{prefix}-*.json"))
    if not files:
        raise ConfigError(f"data: no {prefix} task files under {data_dir}/tasks")
    return files


# --- gen-data ---------------------------------------------------------------


def cmd_gen_data(args) -> None:
    if args.samples < 5:
        raise ConfigError("samples: need at least 5 records per task (threshold rule)")
    if args.n_train < 2 or args.n_test < 1:
        raise ConfigError("n-train, n-test: need at least 2 training and 1 test task")
    if args.seed < 0:
        raise ConfigError("seed: must be nonnegative")
    out = _resolve(args.out)
    (out / "tasks").mkdir(parents=True, exist_ok=True)
    train_tasks, test_tasks = generate_suite(args.seed, args.n_train, args.n_test)
    suite = {
        "schema_version": SUITE_SCHEMA,
        "seed": args.seed,
        "n_train": args.n_train,
        "n_test": args.n_test,
        "samples": args.samples,
        "tasks": [],
    }
    for index, task in enumerate(train_tasks + test_tasks):
        ds = collect_offline(task, n_samples=args.samples, seed=args.seed * 100_003 + index)
        save_task_dataset(ds, out / "tasks" / f"{task.task_id}.json")
        suite["tasks"].append(
            {
                "task_id": task.task_id,
                "is_test": task.is_test,
                "composition": task.composition,
                "terrain": task.terrain.to_dict(),
            }
        )
    (out / "suite.json").write_text(json.dumps(suite))
    print(
        f"gen-data: wrote {len(train_tasks)} train + {len(test_tasks)} test tasks "
        f"({args.samples} records each) to {out}"
    )


def load_suite_terrains(data_dir: Path) -> dict[str, TerrainTask]:
    suite_path = data_dir / "suite.json"
    if not suite_path.exists():
        raise ConfigError(f"data: {suite_path} not found (run gen-data first)")
    suite = _parse_json(suite_path.read_text(), f"data: {suite_path}")
    version = suite.get("schema_version") if isinstance(suite, dict) else None
    if version != SUITE_SCHEMA:
        raise ConfigError(f"data: suite schema {version} unsupported")
    worlds = {}
    for i, t in enumerate(suite.get("tasks", [])):
        try:
            worlds[t["task_id"]] = TerrainTask(
                task_id=t["task_id"],
                terrain=TerrainInstance.from_dict(t["terrain"]),
                is_test=t["is_test"],
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"data: {suite_path}: task {i}: malformed terrain: {err!r}") from err
    return worlds


# --- train -------------------------------------------------------------------


def cmd_train(args) -> None:
    data_dir = _require_dir(_resolve(args.data), "data")
    view = "oracle" if args.method == "kcmd-manual" else "learner"
    tasks = [load_task_dataset(p, view=view) for p in _task_files(data_dir, "train")]
    cfg = TrainConfig(
        k_folds=args.k_folds,
        patience=args.patience,
        seed=args.seed,
        batch_size=args.batch_size,
        max_epochs_mean=args.max_epochs_mean,
        max_epochs_meta=args.max_epochs_meta,
        split_rule=args.split_rule,
    )
    try:
        cfg.validate(n_tasks=len(tasks) if args.method.startswith("kcmd") else None)
    except ValueError as err:
        raise ConfigError(f"config: {err}") from err

    if args.method == "sl":
        model, manifest = train_sl(tasks, cfg)
    elif args.method == "dkmt":
        model, manifest = train_dkmt(tasks, cfg)
    else:
        model, manifest = train_kcmd(tasks, cfg, split_method=args.method.split("-", 1)[1])

    out = _resolve(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    manifest_bytes = json.dumps(record_dict(manifest)).encode()
    digest = hashlib.sha256(manifest_bytes).hexdigest()
    Path(str(out) + ".manifest.json").write_bytes(manifest_bytes)
    save_checkpoint(model, out, method=args.method, seed=args.seed, manifest_digest=digest)
    print(f"train: {args.method} seed={args.seed} -> {out}")


# --- eval-deploy ---------------------------------------------------------------


def cmd_eval_deploy(args) -> None:
    if args.gamma < 0:
        raise ConfigError("gamma: must be nonnegative")
    if args.max_attempts < 1:
        raise ConfigError("max-attempts: must be positive")
    if args.reps < 1:
        raise ConfigError("reps: must be positive")
    if args.seed < 0:
        raise ConfigError("seed: must be nonnegative")
    data_dir = _require_dir(_resolve(args.data), "data")
    model, meta = load_checkpoint(_resolve(args.model))
    # auto is greedy for a model without a kernel, which has no variance
    greedy = args.policy == "greedy" or (args.policy == "auto" and not model.has_kernel)
    policy = Policy.greedy() if greedy else Policy.ucb(args.gamma)
    task_filter = set(args.tasks.split(",")) if args.tasks else None
    worlds = load_suite_terrains(data_dir) if args.mode == "live" else {}

    out = _resolve(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    n_traces = 0
    with out.open("w") as fh:
        for task_index, path in enumerate(_task_files(data_dir, "test")):
            ds = load_task_dataset(path, view="learner")
            if task_filter and ds.task_id not in task_filter:
                continue
            threshold = compute_threshold(ds.records)
            for rep in range(args.reps):
                if args.mode == "live":
                    if ds.task_id not in worlds:
                        raise ConfigError(f"data: suite.json lacks terrain for {ds.task_id}")
                    env_seed = args.seed * 99_991 + task_index * 101 + rep
                    env = LiveEnvironment(worlds[ds.task_id], ActionGrid(), seed=env_seed)
                    trace = run_episode(model, env, threshold, args.max_attempts, policy)
                elif rep == 0:
                    # replay draws nothing at random, so every repetition
                    # is this one episode and only meta.rep differs
                    env_seed = None
                    env = ReplayEnvironment(ds)
                    trace = run_episode(model, env, threshold, args.max_attempts, policy)
                trace.meta = {
                    "mode": args.mode,
                    "method": meta["method"],
                    "model_seed": meta["seed"],
                    "eval_seed": args.seed,
                    "rep": rep,
                    "env_seed": env_seed,
                }
                trace.validate()
                fh.write(json.dumps(trace.to_dict()) + "\n")
                n_traces += 1
    if n_traces == 0:
        raise ConfigError("tasks: filter matched no test tasks")
    print(f"eval-deploy: {n_traces} traces ({args.mode}) -> {out}")


# --- eval-kshot -----------------------------------------------------------------


def cmd_eval_kshot(args) -> None:
    try:
        shots = sorted({int(s) for s in args.shots.split(",")})
    except ValueError as err:
        raise ConfigError(f"shots: {args.shots!r} is not a comma list of ints") from err
    if args.seed < 0:
        raise ConfigError("seed: must be nonnegative")
    if shots[0] < 0:
        raise ConfigError("shots: must be nonnegative")
    data_dir = _require_dir(_resolve(args.data), "data")
    model, meta = load_checkpoint(_resolve(args.model))

    per_task: dict[str, dict[str, float]] = {}
    for task_index, path in enumerate(_task_files(data_dir, "test")):
        ds = load_task_dataset(path, view="learner")
        n = len(ds)
        n_query = round(0.8 * n)
        pool_size = n - n_query
        if shots and shots[-1] > pool_size:
            raise ConfigError(
                f"shots: {shots[-1]} exceeds the {pool_size}-record support pool"
            )
        X, y = ds.feature_matrix(model.arch), ds.rewards
        rng = np.random.default_rng([args.seed, task_index])
        perm = rng.permutation(n)
        query_idx, pool_idx = perm[:n_query], perm[n_query:]
        per_task[ds.task_id] = {}
        for k in shots:
            support_idx = rng.choice(pool_idx, size=k, replace=False) if k else []
            means, _ = model.predict_rows(X[query_idx], X[support_idx], y[support_idx])
            per_task[ds.task_id][str(k)] = float(np.mean(np.abs(means - y[query_idx])))
    mean_mae = {
        str(k): float(np.mean([per_task[t][str(k)] for t in per_task])) for k in shots
    }
    payload = {
        "method": meta["method"],
        "model_seed": meta["seed"],
        "eval_seed": args.seed,
        "shots": shots,
        "per_task": per_task,
        "mean": mean_mae,
    }
    out = _resolve(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload))
    print(f"eval-kshot: shots={shots} -> {out}")


# --- report -----------------------------------------------------------------


def read_traces(paths) -> list[EpisodeTrace]:
    traces = []
    for path in paths:
        with Path(path).open() as fh:
            for n, line in enumerate(fh, 1):
                if line.strip():
                    where = f"traces: {path}: line {n}"
                    payload = _parse_json(line, where)
                    try:
                        tr = EpisodeTrace.from_dict(payload)
                    except (KeyError, TypeError, ValueError) as err:
                        raise ConfigError(f"{where} is not an episode trace: {err!r}") from err
                    if not (isinstance(tr.meta, dict) and isinstance(tr.meta.get("method", ""), str)):
                        raise ConfigError(f"{where}: meta is not an object with a method string")
                    if type(tr.max_attempts) is not int or type(tr.success) is not bool:
                        raise ConfigError(f"{where}: max_attempts is not an integer or success not a boolean")
                    traces.append(tr)
    return traces


def aggregate_metrics(traces: list[EpisodeTrace], mae_tables: list[dict]) -> dict:
    """Per-method deployment and accuracy tables.

    Failed trials count at their attempt cap and are flagged: the cap is
    a floor on the attempts a failed trial would have needed.
    """
    for tr in traces:
        if "method" not in tr.meta or "model_seed" not in tr.meta:
            raise ConfigError("traces: missing method/model_seed meta (mixed schema?)")
    deploy: dict[str, dict] = {}
    rows = []
    for tr in traces:
        method = tr.meta["method"]
        seed = tr.meta["model_seed"]
        counted = tr.attempts if tr.success else tr.max_attempts
        rows.append(
            {
                "method": method,
                "model_seed": seed,
                "task_id": tr.task_id,
                "rep": tr.meta.get("rep"),
                "attempts": counted,
                "success": tr.success,
            }
        )
        bucket = deploy.setdefault(
            method, {"attempts": [], "failures": 0, "per_seed": {}}
        )
        bucket["attempts"].append(counted)
        bucket["failures"] += 0 if tr.success else 1
        bucket["per_seed"].setdefault(str(seed), []).append(counted)
    deploy_summary = {}
    for method, b in sorted(deploy.items()):
        per_seed_mean = {s: float(np.mean(v)) for s, v in sorted(b["per_seed"].items())}
        deploy_summary[method] = {
            "mean_attempts": float(np.mean(b["attempts"])),
            "max_attempts": int(np.max(b["attempts"])),
            "n_trials": len(b["attempts"]),
            "n_failures": b["failures"],
            "per_seed_mean": per_seed_mean,
        }

    accuracy: dict[str, dict] = {}
    accuracy_seeds: dict[str, dict] = {}
    for table in mae_tables:
        bucket = accuracy.setdefault(table["method"], {})
        for k, v in table["mean"].items():
            bucket.setdefault(k, []).append(v)
        accuracy_seeds.setdefault(table["method"], {})[
            str(table.get("model_seed"))
        ] = table["mean"]
    accuracy_summary = {
        method: {
            "mean": {
                k: float(np.mean(v))
                for k, v in sorted(b.items(), key=lambda kv: int(kv[0]))
            },
            "per_seed": accuracy_seeds[method],
        }
        for method, b in sorted(accuracy.items())
    }
    return {"deploy": deploy_summary, "kshot_mae": accuracy_summary, "rows": rows}


def _svg_bars(path: Path, title: str, ylabel: str, labels, values) -> None:
    width, height, pad = 640, 360, 60
    vmax = max(values) if values else 1.0
    bar_w = (width - 2 * pad) / max(len(values), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width/2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="16" y="{height/2}" font-size="12" transform="rotate(-90 16 {height/2})" '
        f'text-anchor="middle">{ylabel}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
    ]
    for i, (label, value) in enumerate(zip(labels, values)):
        h = 0 if vmax == 0 else (height - 2 * pad) * value / vmax
        x = pad + i * bar_w + bar_w * 0.15
        y = height - pad - h
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w*0.7:.1f}" height="{h:.1f}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{x + bar_w*0.35:.1f}" y="{height-pad+16}" text-anchor="middle" '
            f'font-size="11">{label}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w*0.35:.1f}" y="{y-4:.1f}" text-anchor="middle" '
            f'font-size="11">{value:.2f}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts))


def _text_tables(summary: dict) -> str:
    lines = []
    if summary["deploy"]:
        lines.append("simulated deployment (attempts to threshold)")
        lines.append(f'{"method":<14}{"mean":>8}{"max":>6}{"trials":>8}{"failures":>10}')
        for method, s in summary["deploy"].items():
            lines.append(
                f'{method:<14}{s["mean_attempts"]:>8.2f}{s["max_attempts"]:>6d}'
                f'{s["n_trials"]:>8d}{s["n_failures"]:>10d}'
            )
        lines.append("")
    if summary["kshot_mae"]:
        shots = sorted(
            {k for s in summary["kshot_mae"].values() for k in s["mean"]}, key=int
        )
        lines.append("k-shot prediction MAE")
        lines.append(f'{"method":<14}' + "".join(f"{k + '-shot':>12}" for k in shots))
        for method, s in summary["kshot_mae"].items():
            lines.append(
                f"{method:<14}" + "".join(
                    f"{s['mean'].get(k, float('nan')):>12.3f}" for k in shots
                )
            )
        lines.append("")
    return "\n".join(lines)


def cmd_report(args) -> None:
    traces = read_traces([_resolve(p) for p in args.traces or []])
    mae_paths = [_resolve(p) for p in args.mae or []]
    mae_tables = [_parse_json(p.read_text(), f"mae: {p}") for p in mae_paths]
    for path, table in zip(mae_paths, mae_tables):
        if not (isinstance(table, dict) and isinstance(table.get("method"), str)
                and isinstance(table.get("mean"), dict)):
            raise ConfigError(f"mae: {path} is not an object with a method string and a mean object")
        for k, v in table["mean"].items():
            if not k.isdecimal() or type(v) not in (int, float):
                raise ConfigError(f"mae: {path}: mean entry {k!r} is not a shot count with a number")
    if not traces and not mae_tables:
        raise ConfigError("report: need at least one --traces or --mae input")
    summary = aggregate_metrics(traces, mae_tables)
    out = _resolve(args.out)
    (out / "plotdata").mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(json.dumps(summary))
    (out / "tables.txt").write_text(_text_tables(summary))
    deploy, kshot = summary["deploy"], summary["kshot_mae"]
    for drawn, name, key, title, ylabel, bars in (
        (deploy, "attempts", "mean_attempts", "mean attempts to threshold", "attempts",
         [(m, s["mean_attempts"]) for m, s in deploy.items()]),
        (kshot, "mae", "mae", "k-shot MAE", "MAE (cm^3)",
         [(f"{m}/{k}", v) for m, s in kshot.items() for k, v in s["mean"].items()]),
    ):
        if drawn:
            labels, values = [label for label, _ in bars], [value for _, value in bars]
            (out / "plotdata" / f"{name}.json").write_text(json.dumps({"labels": labels, key: values}))
            _svg_bars(out / f"{name}.svg", title, ylabel, labels, values)
    print(_text_tables(summary))
    print(f"report: wrote {out}/summary.json")


# --- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subcommands' included, whose flag errors
    are ConfigErrors, so that they exit 1 like every other config error."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scoopgp", description="few-shot scooping benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a suite and offline datasets")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--n-train", type=int, default=12)
    g.add_argument("--n-test", type=int, default=4)
    g.add_argument("--samples", type=int, default=100)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model on the suite's training tasks")
    t.add_argument("--method", required=True, choices=METHODS)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=TrainConfig.seed)
    t.add_argument("--k-folds", type=int, default=TrainConfig.k_folds)
    t.add_argument("--patience", type=int, default=TrainConfig.patience)
    t.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    t.add_argument("--max-epochs-mean", type=int, default=TrainConfig.max_epochs_mean)
    t.add_argument("--max-epochs-meta", type=int, default=TrainConfig.max_epochs_meta)
    t.add_argument("--split-rule", choices=("median", "count"), default=TrainConfig.split_rule)
    t.set_defaults(func=cmd_train)

    d = sub.add_parser("eval-deploy", help="simulated deployment episodes")
    d.add_argument("--model", required=True)
    d.add_argument("--data", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--mode", choices=("replay", "live"), default="replay")
    d.add_argument("--policy", choices=("auto", "ucb", "greedy"), default="auto")
    d.add_argument("--gamma", type=float, default=2.0)
    d.add_argument("--max-attempts", type=int, default=20)
    d.add_argument("--reps", type=int, default=3)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--tasks", default="")
    d.set_defaults(func=cmd_eval_deploy)

    k = sub.add_parser("eval-kshot", help="k-shot prediction accuracy")
    k.add_argument("--model", required=True)
    k.add_argument("--data", required=True)
    k.add_argument("--out", required=True)
    k.add_argument("--shots", default="0,5,10")
    k.add_argument("--seed", type=int, default=0)
    k.set_defaults(func=cmd_eval_kshot)

    r = sub.add_parser("report", help="aggregate traces and MAE tables")
    r.add_argument("--traces", nargs="*", default=[])
    r.add_argument("--mae", nargs="*", default=[])
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        return 0
    except (ConfigError, CheckpointError, DatasetError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: missing file: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - runtime failures exit 2
        print(f"runtime error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface: data generation, training, evaluation, reporting.

Subcommands:

- gen-data     build a synthetic suite and collect offline datasets
- train        fit a model (sl, dkmt, kcmd-ot, kcmd-random, kcmd-manual)
- eval-deploy  simulated deployment, replay or live mode, emits traces
- eval-kshot   k-shot prediction accuracy (MAE) on the test datasets
- report       aggregate traces and MAE tables into summaries and plots

Artifacts are JSON (traces are JSON lines), except the arrays: a
dataset's patches go to a .npy, a checkpoint's weights and the suite's
terrain grids to a .npz file beside it. None carries a timestamp or an
absolute path, so fixed seeds reproduce them byte for byte. The SCOOPGP_ARTIFACTS environment
variable, when set, anchors relative paths.

The package import pins BLAS to one thread before numpy loads, so
these bytes do not depend on the machine's core count (see scoopgp).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import DatasetError, TaskDataset, load_task_dataset, save_task_dataset
from .decision import (
    ActionGrid,
    EpisodeTrace,
    LiveEnvironment,
    Policy,
    ReplayEnvironment,
    run_episode,
)
from .model import read_arrays, read_record, record_dict
from .ot import SPLIT_RULES
from .terrain import (
    LatentMaterial,
    TerrainInstance,
    TerrainTask,
    collect_offline,
    compute_threshold,
    generate_suite,
)
from .training import TrainConfig, train_dkmt, train_kcmd, train_sl

METHODS = ("sl", "dkmt", "kcmd-ot", "kcmd-random", "kcmd-manual")
# the TrainConfig fields that train sets from its flags of the same names
TRAIN_FLAGS = ("seed", "k_folds", "patience", "batch_size", "max_epochs_mean", "max_epochs_meta", "split_rule")
SUITE_SCHEMA = 2


class ConfigError(ValueError):
    """Invalid flags, missing files, or inconsistent artifacts."""


@dataclass
class SuiteTask:
    """A task in suite.json: its terrain's fields but the grids, which the
    grids sidecar holds as "<task_id>/surface", "/heightfield" and, for a
    hidden layer, "/hidden"."""

    task_id: str
    is_test: bool
    composition: str
    materials: list[LatentMaterial]
    seed: int
    layer_depth: float | None
    extent: tuple[float, float]
    cell: float


@dataclass
class Suite:
    """suite.json's payload: the gen-data flags and every task's terrain."""

    schema_version: int
    seed: int
    n_train: int
    n_test: int
    samples: int
    tasks: list[SuiteTask]


@dataclass
class KShotTable:
    """eval-kshot's output: the MAE of each test task and their mean, by shot count."""

    method: str
    model_seed: int
    eval_seed: int
    shots: list[int]
    per_task: dict[str, dict[str, float]]
    mean: dict[str, float]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """ValueError unless shots is a non-empty list of counts of at least
        0, and the mean and every task's MAEs are keyed by exactly those and
        are at least 0."""
        if not self.shots or min(self.shots) < 0:
            raise ValueError(f"shots {self.shots} must be a non-empty list of counts of at least 0")
        keys = sorted(str(k) for k in self.shots)
        for name, maes in [("mean", self.mean), *((f"per_task {task!r}", m) for task, m in self.per_task.items())]:
            if sorted(maes) != keys:
                raise ValueError(f"{name} keys {list(maes)} are not the shot counts {self.shots}")
            if min(maes.values()) < 0:
                raise ValueError(f"{name} has the negative MAE {min(maes.values())}")


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


def _load_tasks(data_dir: Path, prefix: str, view: str, arch) -> Iterator[tuple[Path, TaskDataset]]:
    """(path, dataset) of each task file data_dir/tasks/<prefix>-*.json, in
    name order, each loaded when the caller reaches it. ConfigError when
    there is none, and, naming both files, when two hold the same task id."""
    files = sorted((data_dir / "tasks").glob(f"{prefix}-*.json"))
    if not files:
        raise ConfigError(f"data: no {prefix} task files under {data_dir}/tasks")
    seen = {}
    for path in files:
        ds = load_task_dataset(path, view=view, arch=arch)
        if ds.task_id in seen:
            raise ConfigError(f"data: {path} repeats the task id {ds.task_id!r} of {seen[ds.task_id]}")
        seen[ds.task_id] = path
        yield path, ds


# --- gen-data ---------------------------------------------------------------


def grids_path(suite_path) -> Path:
    """The sidecar holding the grids of the suite saved as suite_path."""
    return Path(str(suite_path) + ".grids.npz")


def _terrain_fields(source) -> dict:
    """The TerrainInstance fields that a SuiteTask holds, read from source."""
    return {f.name: getattr(source, f.name) for f in fields(SuiteTask) if f.name not in ("task_id", "is_test")}


def cmd_gen_data(args) -> None:
    out = _resolve(args.out)
    train_tasks, test_tasks = generate_suite(args.seed, args.n_train, args.n_test)
    tasks = train_tasks + test_tasks
    # train and eval read every dataset under tasks/, so one left by another suite would join this one
    ours = {f"{task.task_id}.json" for task in tasks}
    stale = sorted(p for prefix in ("train", "test") for p in (out / "tasks").glob(f"{prefix}-*.json")
                   if p.name not in ours)
    if stale:
        raise ConfigError(f"out: {stale[0]} is a dataset this suite does not have; "
                          "remove it or pick another --out")
    (out / "tasks").mkdir(parents=True, exist_ok=True)
    suite = Suite(SUITE_SCHEMA, args.seed, args.n_train, args.n_test, args.samples, [])
    grids = {}
    for index, task in enumerate(tasks):
        ds = collect_offline(task, n_samples=args.samples, seed=args.seed * 100_003 + index)
        save_task_dataset(ds, out / "tasks" / f"{task.task_id}.json")
        t = task.terrain
        suite.tasks.append(SuiteTask(task.task_id, task.is_test, **_terrain_fields(t)))
        grids[f"{task.task_id}/surface"] = t.surface
        # the heights that a JSON round trip of 6-place text gave when suite.json held the grids
        grids[f"{task.task_id}/heightfield"] = np.round(t.heightfield, 6)
        if t.hidden is not None:
            grids[f"{task.task_id}/hidden"] = t.hidden
    (out / "suite.json").write_text(json.dumps(record_dict(suite)))
    with grids_path(out / "suite.json").open("wb") as fh:
        np.savez(fh, **grids)
    print(
        f"gen-data: wrote {len(train_tasks)} train + {len(test_tasks)} test tasks "
        f"({args.samples} records each) to {out}"
    )


def load_suite_terrains(data_dir: Path) -> dict[str, TerrainTask]:
    """Every task of the suite under data_dir by id, its terrain joined
    from suite.json and the grids sidecar. ConfigError, naming the file,
    for a repeated task id, a missing or unknown grid and a terrain that
    fails TerrainInstance.validate."""
    suite_path = data_dir / "suite.json"
    if not suite_path.exists():
        raise ConfigError(f"data: {suite_path} not found (run gen-data first)")
    suite = read_record(Suite, suite_path.read_text(), f"data: {suite_path}", SUITE_SCHEMA, ConfigError)
    path = grids_path(suite_path)
    grids = read_arrays(path, f"data: {path}", ConfigError)
    worlds = {}
    for i, t in enumerate(suite.tasks):
        if t.task_id in worlds:
            raise ConfigError(f"data: {suite_path}: task {i}: task id {t.task_id!r} is repeated")
        try:
            surface, heightfield = (grids.pop(f"{t.task_id}/{name}") for name in ("surface", "heightfield"))
        except KeyError as err:
            raise ConfigError(f"data: {path}: task {i} has no grid {err}") from err
        terrain = TerrainInstance(surface=surface, heightfield=heightfield,
                                  hidden=grids.pop(f"{t.task_id}/hidden", None), **_terrain_fields(t))
        try:
            terrain.validate()
        except ValueError as err:
            raise ConfigError(f"data: {suite_path} with {path.name}: task {t.task_id!r}: {err}") from err
        worlds[t.task_id] = TerrainTask(t.task_id, terrain, t.is_test)
    if grids:
        raise ConfigError(f"data: {path}: grid {min(grids)!r} is of no task in {suite_path.name}")
    return worlds


# --- train -------------------------------------------------------------------


def cmd_train(args) -> None:
    data_dir = _require_dir(_resolve(args.data), "data")
    view = "oracle" if args.method == "kcmd-manual" else "learner"
    cfg = TrainConfig(**{name: getattr(args, name) for name in TRAIN_FLAGS})
    loaded = list(_load_tasks(data_dir, "train", view, cfg.arch))
    tasks = [ds for _, ds in loaded]
    if view == "oracle":  # kcmd-manual splits by these ids
        for path, ds in loaded:
            materials = (ds.ground_truth or {}).get("materials")
            if not (isinstance(materials, list) and materials and all(isinstance(m, str) for m in materials)):
                raise ConfigError(f"data: {path}: ground_truth has no non-empty list of string materials")
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
    data_dir = _require_dir(_resolve(args.data), "data")
    model, meta = load_checkpoint(_resolve(args.model))
    # auto is greedy for a model without a kernel, which has no variance
    greedy = args.policy == "greedy" or (args.policy == "auto" and not model.has_kernel)
    policy = Policy.greedy() if greedy else Policy.ucb(args.gamma)
    worlds = load_suite_terrains(data_dir) if args.mode == "live" else {}

    lines = []
    for task_index, (path, ds) in enumerate(_load_tasks(data_dir, "test", "learner", model.arch)):
        try:
            threshold = compute_threshold(ds.rewards)
        except ValueError as err:
            raise ConfigError(f"data: {path}: threshold rule: {err}") from err
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
                "method": meta.method,
                "model_seed": meta.seed,
                "eval_seed": args.seed,
                "rep": rep,
                "env_seed": env_seed,
            }
            lines.append(json.dumps(record_dict(trace)) + "\n")
    # written once every trace exists, so a refused input leaves an earlier file whole
    out = _resolve(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(lines))
    print(f"eval-deploy: {len(lines)} traces ({args.mode}) -> {out}")


# --- eval-kshot -----------------------------------------------------------------


def cmd_eval_kshot(args) -> None:
    shots = args.shots
    data_dir = _require_dir(_resolve(args.data), "data")
    model, meta = load_checkpoint(_resolve(args.model))

    per_task: dict[str, dict[str, float]] = {}
    for task_index, (path, ds) in enumerate(_load_tasks(data_dir, "test", "learner", model.arch)):
        n = len(ds)
        n_query = round(0.8 * n)
        pool_size = n - n_query
        if shots[-1] > pool_size:
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
    table = KShotTable(meta.method, meta.seed, args.seed, shots, per_task, mean_mae)
    out = _resolve(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record_dict(table)))
    print(f"eval-kshot: shots={shots} -> {out}")


# --- report -----------------------------------------------------------------


def read_traces(paths) -> list[EpisodeTrace]:
    """The traces of the JSON-lines files at paths; ConfigError, naming the
    file and the line, for a trace whose meta lacks a method string or a model_seed."""
    traces = []
    for path in paths:
        with Path(path).open() as fh:
            for n, line in enumerate(fh, 1):
                if line.strip():
                    where = f"traces: {path}: line {n}"
                    tr = read_record(EpisodeTrace, line, where, error=ConfigError)
                    if not isinstance(tr.meta.get("method"), str) or "model_seed" not in tr.meta:
                        raise ConfigError(f"{where}: meta {tr.meta!r:.60} lacks a method string or a model_seed")
                    traces.append(tr)
    return traces


def aggregate_metrics(traces: list[EpisodeTrace], mae_tables: list[KShotTable]) -> dict:
    """Per-method deployment and accuracy tables.

    Failed trials count at their attempt cap and are flagged: the cap is
    a floor on the attempts a failed trial would have needed. Each trace's
    meta holds a method and a model_seed, as read_traces checks.
    """
    rows = []
    for tr in traces:
        rows.append(
            {
                "method": tr.meta["method"],
                "model_seed": tr.meta["model_seed"],
                "task_id": tr.task_id,
                "rep": tr.meta.get("rep"),
                "attempts": tr.attempts if tr.success else tr.max_attempts,
                "success": tr.success,
            }
        )
    deploy_summary = {}
    for method in sorted({row["method"] for row in rows}):
        mine = [row for row in rows if row["method"] == method]
        attempts = [row["attempts"] for row in mine]
        seeds = sorted({str(row["model_seed"]) for row in mine})
        deploy_summary[method] = {
            "mean_attempts": float(np.mean(attempts)),
            "max_attempts": int(np.max(attempts)),
            "n_trials": len(mine),
            "n_failures": sum(not row["success"] for row in mine),
            "per_seed_mean": {
                s: float(np.mean([row["attempts"] for row in mine if str(row["model_seed"]) == s]))
                for s in seeds
            },
        }

    accuracy_summary = {}
    for method in sorted({t.method for t in mae_tables}):
        mine = [t for t in mae_tables if t.method == method]
        shots = sorted(dict.fromkeys(k for t in mine for k in t.mean), key=int)
        accuracy_summary[method] = {
            "mean": {k: float(np.mean([t.mean[k] for t in mine if k in t.mean])) for k in shots},
            "per_seed": {str(t.model_seed): t.mean for t in mine},
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
    mae_tables = [read_record(KShotTable, p.read_text(), f"mae: {p}", error=ConfigError) for p in mae_paths]
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


def _at_least(low, kind=int):
    """An argparse type: a finite kind value of at least low."""
    def parse(text: str):
        value = kind(text)
        if not low <= value < np.inf:  # NaN fails both comparisons
            raise argparse.ArgumentTypeError(f"must be finite and at least {low}, not {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value: 'abc'"
    return parse


def _shot_list(text: str) -> list[int]:
    """An argparse type: a comma list of ints of at least 0, returned sorted without repeats."""
    try:
        return sorted({_at_least(0)(s) for s in text.split(",")})
    except (ValueError, argparse.ArgumentTypeError) as err:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of ints of at least 0") from err


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scoopgp", description="few-shot scooping benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a suite and offline datasets")
    g.add_argument("--seed", type=_at_least(0), default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--n-train", type=_at_least(2), default=12)
    g.add_argument("--n-test", type=_at_least(1), default=4)
    g.add_argument("--samples", type=_at_least(5), default=100,
                   help="records per task, at least 5 for the threshold rule")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model on the suite's training tasks")
    t.add_argument("--method", required=True, choices=METHODS)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    for name in TRAIN_FLAGS:  # their ranges are TrainConfig.validate's
        default = getattr(TrainConfig, name)
        t.add_argument("--" + name.replace("_", "-"), type=type(default), default=default,
                       choices=SPLIT_RULES if name == "split_rule" else None)
    t.set_defaults(func=cmd_train)

    d = sub.add_parser("eval-deploy", help="simulated deployment episodes")
    d.add_argument("--model", required=True)
    d.add_argument("--data", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--mode", choices=("replay", "live"), default="replay")
    d.add_argument("--policy", choices=("auto", "ucb", "greedy"), default="auto")
    d.add_argument("--gamma", type=_at_least(0.0, float), default=2.0)
    d.add_argument("--max-attempts", type=_at_least(1), default=20)
    d.add_argument("--reps", type=_at_least(1), default=3)
    d.add_argument("--seed", type=_at_least(0), default=0)
    d.set_defaults(func=cmd_eval_deploy)

    k = sub.add_parser("eval-kshot", help="k-shot prediction accuracy")
    k.add_argument("--model", required=True)
    k.add_argument("--data", required=True)
    k.add_argument("--out", required=True)
    k.add_argument("--shots", type=_shot_list, default="0,5,10")
    k.add_argument("--seed", type=_at_least(0), default=0)
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

"""The scoopgp benchmark's workloads: set-up, timed stage, output checks.

Every workload is one process driving scoopgp's public API in a closed
loop: each stage, episode and step starts when the previous one ends.
The workload seed sets the suite seed, the training seed and the live
environment seeds.

- train:  set-up is gen-data; the stage is `train --method kcmd-ot` with
          a fixed epoch budget per phase.
- live:   set-up is gen-data + `train --method dkmt`; the stage loads the
          checkpoint and suite terrains and runs UCB episodes on the
          1,536-action desk grid, re-rendering the terrain every step.
- replay: set-up as live; the stage runs UCB episodes that replay each
          test dataset's 100 records, so no terrain code runs.

Deploy episodes get an unreachable threshold so that each one runs its
full budget and the work per run does not depend on model luck; the
attempts to the real threshold are read off the trace prefix, which is
identical to what an episode with that threshold would have done.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import time
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Tracer, min_samples, percentile

from scoopgp import checkpoint, cli, data, decision, terrain
from scoopgp import tensor as T

# Set-up repetitions before the stage and after the post-stage checks.
# The host's speed drifts in stretches of 10-30 s; set-up times taken
# at both ends of a run, half a minute apart, vary less from run to run
# than the same number taken back to back.
SETUP_BEFORE, SETUP_AFTER = 2, 2
N_TRAIN, N_TEST, SAMPLES = 12, 4, 100
GAMMA = 2.0
LIVE_BUDGET = 20  # the CLI's default eval-deploy budget
LIVE_ENV_SEEDS = 2  # episodes per test task and pass
REPLAY_BUDGET = 100  # the acceptance battery's replay budget
# Both trainings run a fixed number of epochs, with patience equal to the
# budget so that early stopping never ends a phase. With the default
# early stopping the epoch count, and with it the time, spreads by a
# fifth across suite seeds for kcmd-ot (315-396 epochs over seeds 0-9)
# and by a factor of four for dkmt (14-58 epochs over seeds 0-4).
# - kcmd-ot: the default flags' mean epochs per phase over seeds 0-9,
#   taken from the manifests' loss curves. The mean phases (sl and the
#   10 folds, --max-epochs-mean) ran 28.6 on average; the kernel phase
#   (--max-epochs-meta) ran 32.3. The OT median split is 6/6 on every
#   seed, so every seed does the same work.
# - dkmt only makes the deploy model: a deploy step's cost does not
#   depend on how well the weights were trained.
KCMD_MEAN_EPOCHS, KCMD_KERNEL_EPOCHS = 29, 32
KCMD_FLAGS = [
    "--max-epochs-mean", str(KCMD_MEAN_EPOCHS),
    "--max-epochs-meta", str(KCMD_KERNEL_EPOCHS),
    "--patience", str(max(KCMD_MEAN_EPOCHS, KCMD_KERNEL_EPOCHS)),
]
DKMT_FLAGS = ["--max-epochs-meta", "20", "--patience", "20"]
TAIL_PCT = 90
TAIL = f"step_ms_p{TAIL_PCT}"
MIN_STEPS = min_samples(TAIL_PCT)

# The end-to-end metrics BENCHMARK.json bounds. The step median is
# recorded and printed but is not among them: between runs of identical
# work it moved by a quarter, where the 90th percentile moved by less
# than a tenth (see README.md).
END_TO_END = [
    ("setup_s", "s"),
    ("stage_s", "s"),
    (TAIL, "ms"),
    ("peak_rss_mb", "MB"),
]


class Ledger:
    """Operations attempted and failed; a failure carries its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: {'; '.join(problems)}")
        return not problems


@dataclass
class Run:
    """State of one benchmark run, shared by set-up, stage and checks."""

    workload: str
    seed: int
    seconds: float
    work: Path
    layers: object = None  # layers.Layers when tracing
    ledger: Ledger = field(default_factory=Ledger)
    setup_s: list[float] = field(default_factory=list)
    stage_s: list[float] = field(default_factory=list)
    steps_s: list[float] = field(default_factory=list)
    digests: dict[str, list[str]] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    epochs: int = 0
    setup_tracer: Tracer | None = None
    stage_tracer: Tracer | None = None
    untraced: dict[str, float] = field(default_factory=dict)

    def note_digest(self, key: str, digest: str) -> None:
        self.digests.setdefault(key, []).append(digest)

    def span(self, name: str):
        return self.layers.span(name) if self.layers else contextlib.nullcontext()


# --- environment ------------------------------------------------------------


def environment() -> dict:
    """Thread settings, core count, affinity and library versions."""
    config, threads = _openblas()
    return {
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "openblas_threads": threads,
        "openblas": config,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def _openblas() -> tuple[str | None, int | None]:
    """Config string and effective thread count of the loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_config.restype = ctypes.c_char_p
                return get_config().decode().strip(), int(get_threads())
    return None, None


# --- helpers ------------------------------------------------------------------


def _cli(args: list[str]) -> list[str]:
    """Run one scoopgp subcommand in-process; problems if it failed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return [] if code == 0 else [f"exit {code}: {err.getvalue().strip()}"]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_tree(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def attempts_to_threshold(trace: decision.EpisodeTrace, threshold: float) -> int:
    """Attempts an episode with this threshold would have taken, capped at
    the budget: the 1-based index of the first step that reaches it."""
    for i, step in enumerate(trace.steps):
        if step.reward >= threshold:
            return i + 1
    return trace.max_attempts


class TimedEnv:
    """Environment wrapper that times observe -> select -> execute and
    checks that the chosen index was not excluded."""

    def __init__(self, env, steps_s: list[float]):
        self.task_id = env.task_id
        self._env = env
        self._steps_s = steps_s
        self._t0 = 0.0
        self._excluded: set = set()
        self.violations = 0

    def candidates(self):
        self._t0 = time.perf_counter()
        return self._env.candidates()

    def excluded(self):
        self._excluded = self._env.excluded()
        return self._excluded

    def execute(self, index: int) -> float:
        if index in self._excluded:
            self.violations += 1
        reward = self._env.execute(index)
        self._steps_s.append(time.perf_counter() - self._t0)
        return reward


def check_trace(trace: decision.EpisodeTrace, env: TimedEnv, budget: int) -> list[str]:
    problems = []
    try:
        trace.validate()
    except ValueError as err:
        problems.append(f"invalid trace: {err}")
    if trace.fault is not None:
        problems.append(f"fault: {trace.fault}")
    if not all(math.isfinite(s.score) for s in trace.steps):
        problems.append("non-finite score")
    if env.violations:
        problems.append(f"{env.violations} excluded indices chosen")
    if trace.attempts != budget:
        problems.append(f"{trace.attempts} of {budget} budgeted steps ran")
    return problems


def held_out_files(data_dir: Path) -> list[Path]:
    return sorted((data_dir / "tasks").glob("test-*.json"))


# --- set-up ---------------------------------------------------------------


def gen_data(run: Run, out: Path) -> None:
    problems = _cli(
        ["gen-data", "--seed", str(run.seed), "--out", str(out),
         "--n-train", str(N_TRAIN), "--n-test", str(N_TEST), "--samples", str(SAMPLES)]
    )
    run.ledger.record("gen-data", problems)


def train(run: Run, data_dir: Path, method: str, out: Path, flags=()) -> bool:
    problems = _cli(
        ["train", "--method", method, "--data", str(data_dir), "--out", str(out),
         "--seed", str(run.seed), *flags]
    )
    return run.ledger.record(f"train {method}", problems)


def setup(run: Run, rep: int) -> Path:
    """One set-up repetition in its own directory; returns that directory."""
    root = run.work / f"setup-{rep}"
    gen_data(run, root / "data")
    if run.workload != "train":
        train(run, root / "data", "dkmt", root / "dkmt.json", DKMT_FLAGS)
    return root


# --- stages ---------------------------------------------------------------


def train_stage(run: Run, root: Path, rep: int) -> Path:
    """kcmd-ot training with a fixed epoch budget; returns the checkpoint path."""
    ckpt = run.work / f"stage-{rep}" / "kcmd-ot.json"
    stamps: list[float] = []
    original = T.adam_step

    def timed_adam_step(*args, **kwargs):
        out = original(*args, **kwargs)
        stamps.append(time.perf_counter())
        return out

    # one Adam update per batch: a training step is the interval between
    # consecutive updates (batch, forward, backward, update)
    T.adam_step = timed_adam_step
    try:
        t0 = time.perf_counter()
        trained = train(run, root / "data", "kcmd-ot", ckpt, KCMD_FLAGS)
        run.stage_s.append(time.perf_counter() - t0)
    finally:
        T.adam_step = original
    run.steps_s.extend(np.diff(stamps).tolist())
    if trained:
        run.note_digest("checkpoint", sha256_file(ckpt))
        run.note_digest("manifest", sha256_file(Path(str(ckpt) + ".manifest.json")))
    return ckpt


def deploy_pass(run: Run, ckpt: Path, data_dir: Path, live: bool, steps_s: list[float]):
    """One pass of UCB episodes over the test tasks, from loading the
    checkpoint to validating the last trace.

    Returns ((threshold, trace) pairs, seconds, digest of the traces).
    """
    budget = LIVE_BUDGET if live else REPLAY_BUDGET
    policy = decision.Policy.ucb(GAMMA)
    episodes, lines = [], []
    t0 = time.perf_counter()
    try:
        model, _ = checkpoint.load_checkpoint(ckpt)
    except checkpoint.CheckpointError as err:
        run.ledger.record("load checkpoint", [str(err)])
        return [], time.perf_counter() - t0, ""
    worlds = cli.load_suite_terrains(data_dir) if live else {}
    for task_index, path in enumerate(held_out_files(data_dir)):
        ds = data.load_task_dataset(path, view="learner")
        threshold = terrain.compute_threshold(ds.records)
        for env_rep in range(LIVE_ENV_SEEDS if live else 1):
            env_seed = run.seed * 99_991 + task_index * 101 + env_rep if live else None
            with run.span("decision.env"):
                if live:
                    env = decision.LiveEnvironment(worlds[ds.task_id], decision.ActionGrid(), seed=env_seed)
                else:
                    env = decision.ReplayEnvironment(ds)
            timed = TimedEnv(env, steps_s)
            trace = decision.run_episode(model, timed, math.inf, budget, policy)
            trace.meta = {"seed": run.seed, "env_seed": env_seed}
            run.ledger.record(f"episode {ds.task_id}/{env_rep}", check_trace(trace, timed, budget))
            lines.append(json.dumps(trace.to_dict()))
            episodes.append((threshold, trace))
    seconds = time.perf_counter() - t0
    return episodes, seconds, hashlib.sha256("\n".join(lines).encode()).hexdigest()


def deploy_stage(run: Run, root: Path):
    episodes, seconds, digest = deploy_pass(
        run, root / "dkmt.json", root / "data", run.workload == "live", run.steps_s
    )
    run.stage_s.append(seconds)
    run.note_digest("traces", digest)
    return episodes


# --- checks that follow the stage (untimed) -----------------------------------


def check_train(run: Run, ckpt: Path) -> None:
    """The checkpoint loads and phase 1's weights came back untouched."""
    problems = []
    manifest_path = Path(str(ckpt) + ".manifest.json")
    try:
        checkpoint.load_checkpoint(ckpt)
        manifest = json.loads(manifest_path.read_text())
    except (checkpoint.CheckpointError, OSError, ValueError) as err:
        run.ledger.record("check kcmd-ot artifacts", [str(err)])
        return
    stats = manifest.get("stats", {})
    if stats.get("returned_weight_digest") != stats.get("sl_weight_digest"):
        problems.append("returned_weight_digest != sl_weight_digest")
    run.ledger.record("check kcmd-ot artifacts", problems)
    run.epochs = sum(len(curve) for curve in manifest["loss_curves"].values())


def kshot_mae(run: Run, ckpt: Path, data_dir: Path) -> None:
    out = ckpt.with_suffix(".mae.json")
    problems = _cli(
        ["eval-kshot", "--model", str(ckpt), "--data", str(data_dir), "--out", str(out),
         "--seed", str(run.seed)]
    )
    if not problems:
        mae = json.loads(out.read_text())["mean"]["10"]
        if not math.isfinite(mae):
            problems.append(f"10-shot MAE {mae}")
        run.quality["kshot_mae_10"] = mae
    run.ledger.record("eval-kshot", problems)


def attempts_mean(run: Run, episodes) -> None:
    if episodes:
        run.quality["attempts_mean"] = float(
            np.mean([attempts_to_threshold(trace, threshold) for threshold, trace in episodes])
        )


# --- one run -------------------------------------------------------------------


def stage_loop(run: Run, root: Path):
    """Stage repetitions while another one fits in `run.seconds`, and
    until the steps give a tail percentile; at least one. Returns the
    last checkpoint (train) and the last pass's episodes (deploy)."""
    ckpt, episodes = None, []
    start = time.perf_counter()
    rep = 0
    while (
        rep == 0
        or len(run.steps_s) < MIN_STEPS
        or time.perf_counter() - start + run.stage_s[-1] <= run.seconds
    ):
        if run.workload == "train":
            ckpt = train_stage(run, root, rep)
        else:
            episodes = deploy_stage(run, root)
        rep += 1
        if run.ledger.failures:
            break
    return ckpt, episodes


def execute(run: Run) -> None:
    """Set-up repetitions, the timed stage, then the untimed checks.

    Set-up repeats before the stage and again after the checks; the last
    repetition before the stage feeds it. A traced run traces that
    repetition. It then runs the stage untraced, with no wrapper
    installed, right before the traced stage, so that the tracing
    overhead is measured within one run.
    """
    root = timed_setups(run, range(SETUP_BEFORE), trace_last=run.layers is not None)
    if run.ledger.failures:
        return
    if run.layers:
        stage_loop(run, root)
        if run.ledger.failures:
            return
        run.untraced = stage_timings(run)
        run.stage_s, run.steps_s = [], []
        with run.layers.recording() as run.stage_tracer:
            ckpt, episodes = stage_loop(run, root)
    else:
        ckpt, episodes = stage_loop(run, root)
    if run.ledger.failures:
        return
    if run.workload == "train":
        check_train(run, ckpt)
        kshot_mae(run, ckpt, root / "data")
        # untimed replay with the kcmd-ot model, so that the train
        # workload reports attempts to threshold as well
        episodes, _, _ = deploy_pass(run, ckpt, root / "data", False, [])
    else:
        kshot_mae(run, root / "dkmt.json", root / "data")
    attempts_mean(run, episodes)
    if not run.ledger.failures:
        timed_setups(run, range(SETUP_BEFORE, SETUP_BEFORE + SETUP_AFTER))


def timed_setups(run: Run, reps: range, trace_last: bool = False) -> Path:
    """Timed set-up repetitions; returns the last one's directory."""
    for rep in reps:
        traced = trace_last and rep == reps[-1]
        with run.layers.recording() if traced else contextlib.nullcontext() as tracer:
            t0 = time.perf_counter()
            root = setup(run, rep)
            run.setup_s.append(time.perf_counter() - t0)
        if traced:
            run.setup_tracer = tracer
        run.note_digest("setup", sha256_tree(root))
        if run.ledger.failures:
            break
    return root


def stage_timings(run: Run) -> dict[str, float]:
    # stage_s is a mean: the host switches between a fast and a slow state
    # every few seconds, and a median of stage repetitions flips between
    # the two where a mean weighs them by the time spent in each
    return {
        "stage_s": sum(run.stage_s) / len(run.stage_s),
        TAIL: 1e3 * percentile(run.steps_s, TAIL_PCT),
    }


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "setup_s": median(run.setup_s),
        **stage_timings(run),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

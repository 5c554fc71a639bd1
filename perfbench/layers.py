"""Per-layer spans and counters, recorded around calls into scoopgp.

Each wrapper replaces a name where it is looked up at call time:
- functions reached through their own module (`T.adam_step`,
  `gp.gram_objective`, `ot.entropic_transport_cost`, ...) are replaced
  on that module;
- names bound by `from ... import` are replaced in the importing module
  (`decision.render_patches`, `cli.save_checkpoint`, ...);
- methods are replaced on their class (`Tape.backward`, `DeepGPModel.*`).

Nothing in scoopgp changes. The wrappers are installed only while
`Layers.recording` is active, so untimed and untraced phases of a run
call scoopgp's own functions directly.
"""
from __future__ import annotations

import contextlib
import functools
import math
import os

from tracing import Tracer, inclusive_times, self_times

from scoopgp import checkpoint, cli, data, decision, gp, ot, training
from scoopgp import tensor as T
from scoopgp.model import DeepGPModel

# (metric, unit, better); the order is the order of the report
METRICS = [
    ("tensor.backward_s", "s", "lower"),
    ("tensor.backward_calls", "count", "lower"),
    ("tensor.adam_s", "s", "lower"),
    ("tensor.adam_calls", "count", "lower"),
    ("model.forward_s", "s", "lower"),
    ("model.forward_rows", "count", "lower"),
    ("model.predict_s", "s", "lower"),
    ("model.predict_rows", "count", "lower"),
    ("model.predict_fresh_ratio", "ratio", "higher"),
    ("gp.objective_s", "s", "lower"),
    ("gp.objective_calls", "count", "lower"),
    ("gp.posterior_s", "s", "lower"),
    ("gp.posterior_calls", "count", "lower"),
    ("gp.cholesky_calls", "count", "lower"),
    ("gp.jitter_retries", "count", "lower"),
    ("ot.sinkhorn_s", "s", "lower"),
    ("ot.sinkhorn_calls", "count", "lower"),
    ("ot.sinkhorn_unconverged", "count", "lower"),
    ("ot.cost_matrix_s", "s", "lower"),
    ("ot.distances_s", "s", "lower"),
    ("terrain.render_s", "s", "lower"),
    ("terrain.patches_rendered", "count", "lower"),
    ("terrain.render_useful_ratio", "ratio", "higher"),
    ("terrain.scoop_s", "s", "lower"),
    ("decision.select_s", "s", "lower"),
    ("decision.steps", "count", "higher"),
    ("decision.episode_s", "s", "lower"),
    ("training.self_s", "s", "lower"),
    ("training.sl_phase_s", "s", "lower"),
    ("training.epochs", "count", "lower"),
    ("data.load_s", "s", "lower"),
    ("data.load_bytes", "bytes", "lower"),
    ("data.save_s", "s", "lower"),
    ("data.save_bytes", "bytes", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.save_bytes", "bytes", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
]

# span name -> metric that sums its self time
_SELF_TIME = {
    "tensor.backward": "tensor.backward_s",
    "tensor.adam": "tensor.adam_s",
    "model.forward": "model.forward_s",
    "model.predict": "model.predict_s",
    "gp.objective": "gp.objective_s",
    "gp.posterior": "gp.posterior_s",
    "ot.sinkhorn": "ot.sinkhorn_s",
    "ot.cost_matrix": "ot.cost_matrix_s",
    "ot.distances": "ot.distances_s",
    "terrain.render": "terrain.render_s",
    "terrain.scoop": "terrain.scoop_s",
    "decision.select": "decision.select_s",
    "decision.episode": "decision.episode_s",
    "decision.env": "decision.episode_s",
    "training.sl": "training.self_s",
    "training.train": "training.self_s",
    "data.load": "data.load_s",
    "data.save": "data.save_s",
    "checkpoint.save": "checkpoint.save_s",
    "checkpoint.load": "checkpoint.load_s",
    "cli.main": "cli.self_s",
    "cli.suite": "cli.self_s",
}


class Layers:
    """Installs the wrappers while recording into a tracer."""

    def __init__(self):
        self.tracer = None
        self._undo: list[tuple[object, str, object]] = []
        # feasibility of live actions by id(action), as the env computed it
        self._feasible: dict[int, bool] = {}
        # (id(obs), id(act)) keys featurized in the current and the
        # previous predict_batch of the running episode; the objects are
        # held in _held so their ids stay unique while compared
        self._seen_now: set = set()
        self._seen_prev: set = set()
        self._held: list = []
        self._in_predict = False

    # --- installation ---------------------------------------------------

    @contextlib.contextmanager
    def recording(self):
        """Install the wrappers, record into a new Tracer, restore on exit."""
        self.tracer = Tracer()
        self._install()
        try:
            yield self.tracer
        finally:
            self._restore()
            self.tracer = None

    def _install(self) -> None:
        span = self._spanned
        self._patch(T.Tape, "backward", span("tensor.backward", self._count_call("tensor.backward_calls")))
        self._patch(T, "adam_step", span("tensor.adam", self._count_call("tensor.adam_calls")))
        for method in ("extractor_t", "mean_t", "kernel_t"):
            self._patch(DeepGPModel, method, span("model.forward", self._count_forward_rows))
        self._patch(DeepGPModel, "predict_batch", self._predict_batch)
        self._patch(DeepGPModel, "feature_vector", self._feature_vector)
        for name in ("gram_objective", "nlml_objective"):
            self._patch(gp, name, span("gp.objective", self._count_call("gp.objective_calls")))
        self._patch(gp, "posterior_batch", span("gp.posterior", self._count_call("gp.posterior_calls")))
        self._patch(gp, "cholesky_with_jitter", self._counted(self._count_cholesky))
        self._patch(ot, "entropic_transport_cost", span("ot.sinkhorn", self._count_sinkhorn))
        self._patch(ot, "cost_matrix_arrays", span("ot.cost_matrix"))
        self._patch(ot, "task_distance_matrix", span("ot.distances"))
        self._patch(decision, "render_patches", span("terrain.render", self._count_render))
        self._patch(decision, "execute_scoop", span("terrain.scoop"))
        self._patch(decision, "feasible", self._feasible_check)
        self._patch(decision, "select_action", span("decision.select", self._count_call("decision.steps")))
        self._patch(decision, "run_episode", self._run_episode)
        for owner in (training, cli):
            self._patch(owner, "train_sl", span("training.sl"))
        for name in ("train_dkmt", "train_kcmd"):
            self._patch(cli, name, span("training.train"))
        for owner in (cli, data):
            self._patch(owner, "load_task_dataset", span("data.load", self._count_bytes("data.load_bytes", 0)))
        self._patch(cli, "save_task_dataset", span("data.save", self._count_bytes("data.save_bytes", 1)))
        self._patch(cli, "save_checkpoint", span("checkpoint.save", self._count_bytes("checkpoint.save_bytes", 1)))
        for owner in (cli, checkpoint):
            self._patch(owner, "load_checkpoint", span("checkpoint.load"))
        self._patch(cli, "main", span("cli.main"))
        self._patch(cli, "load_suite_terrains", span("cli.suite"))

    def _restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, make_wrapper) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, make_wrapper(original))
        self._undo.append((owner, name, original))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        tracer = self.tracer
        if tracer is None:
            yield
            return
        index = tracer.begin(name)
        try:
            yield
        finally:
            tracer.end(index)

    # --- wrappers ---------------------------------------------------------

    def _spanned(self, span_name: str, after=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer = self.tracer
                index = tracer.begin(span_name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.end(index)
                if after is not None:
                    after(tracer, args, kwargs, out)
                return out

            return wrapper

        return make

    def _counted(self, after):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                after(self.tracer, args, kwargs, out)
                return out

            return wrapper

        return make

    def _predict_batch(self, fn):
        spanned = self._spanned("model.predict")(fn)

        @functools.wraps(fn)
        def wrapper(model, candidates, support=(), *args, **kwargs):
            self._seen_now = set()
            self._in_predict = True
            try:
                return spanned(model, candidates, support, *args, **kwargs)
            finally:
                self._in_predict = False
                self._seen_prev = self._seen_now
                self._held = [candidates, support]

        return wrapper

    def _feature_vector(self, fn):
        @functools.wraps(fn)
        def wrapper(model, obs, act):
            if self._in_predict:
                key = (id(obs), id(act))
                self.tracer.add("model.predict_rows")
                if key not in self._seen_prev:
                    self.tracer.add("model.predict_fresh_rows")
                self._seen_now.add(key)
            return fn(model, obs, act)

        return wrapper

    def _run_episode(self, fn):
        spanned = self._spanned("decision.episode")(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._seen_prev, self._held = set(), []
            return spanned(*args, **kwargs)

        return wrapper

    def _feasible_check(self, fn):
        @functools.wraps(fn)
        def wrapper(terrain, act):
            ok = fn(terrain, act)
            self._feasible[id(act)] = ok
            return ok

        return wrapper

    # --- counters -----------------------------------------------------------

    @staticmethod
    def _count_call(key: str):
        def after(tracer, args, kwargs, out):
            tracer.add(key)

        return after

    @staticmethod
    def _count_forward_rows(tracer, args, kwargs, out):
        tracer.add("model.forward_rows", args[1].shape[0])

    @staticmethod
    def _count_cholesky(tracer, args, kwargs, out):
        tracer.add("gp.cholesky_calls")
        jitter = out[1]
        if jitter > 0.0:
            # the unjittered attempt failed, then one per decade below jitter
            tracer.add("gp.jitter_retries", 1 + round(math.log10(jitter / gp.JITTER_START)))

    @staticmethod
    def _count_sinkhorn(tracer, args, kwargs, out):
        tracer.add("ot.sinkhorn_calls")
        if not out[1]:
            tracer.add("ot.sinkhorn_unconverged")

    def _count_render(self, tracer, args, kwargs, out):
        actions = args[1]
        tracer.add("terrain.patches_rendered", len(actions))
        tracer.add("terrain.patches_feasible", sum(self._feasible.get(id(a), True) for a in actions))

    @staticmethod
    def _count_bytes(key: str, path_arg: int):
        def after(tracer, args, kwargs, out):
            tracer.add(key, os.path.getsize(args[path_arg]))

        return after


def layer_metrics(stage, setup, reps: int, epochs: int) -> dict[str, float]:
    """Per-layer metrics of the timed stage, per stage repetition.

    `stage` traced every repetition of the timed stage; `setup` traced
    the last set-up repetition, which alone writes datasets, so the
    data.save metrics come from it.
    """
    metrics = {name: 0.0 for name, _, _ in METRICS}
    for name, seconds in self_times(stage.spans).items():
        if name in _SELF_TIME:
            metrics[_SELF_TIME[name]] += seconds
    metrics["training.sl_phase_s"] = inclusive_times(stage.spans).get("training.sl", 0.0)
    for key, value in stage.counts.items():
        if key in metrics:
            metrics[key] += value
    metrics = {k: v / reps for k, v in metrics.items()}
    counts = stage.counts
    metrics["model.predict_fresh_ratio"] = _ratio(counts["model.predict_fresh_rows"], counts["model.predict_rows"])
    metrics["terrain.render_useful_ratio"] = _ratio(counts["terrain.patches_feasible"], counts["terrain.patches_rendered"])
    metrics["training.epochs"] = float(epochs)
    setup_self = self_times(setup.spans)
    metrics["data.save_s"] = setup_self.get("data.save", 0.0)
    metrics["data.save_bytes"] = float(setup.counts["data.save_bytes"])
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

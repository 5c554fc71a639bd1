"""Self-tests of the benchmark's own arithmetic and episode bookkeeping.

    python3 -m pytest perfbench
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bench  # noqa: E402
from layers import Layers  # noqa: E402
from tracing import Tracer, inclusive_times, min_samples, percentile, self_times  # noqa: E402

from scoopgp import checkpoint, cli, decision, terrain  # noqa: E402
from scoopgp import tensor as T  # noqa: E402
from scoopgp.data import load_task_dataset  # noqa: E402
from scoopgp.model import Architecture, DeepGPModel  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    a = tracer.begin("a")  # 0 .. 10
    b = tracer.begin("b")  # 1 .. 4
    c = tracer.begin("a")  # 2 .. 3, same name as its grandparent
    tracer.end(c)
    tracer.end(b)
    d = tracer.begin("d")  # 5 .. 9
    tracer.end(d)
    tracer.end(a)
    assert self_times(tracer.spans) == {"a": 3.0 + 1.0, "b": 2.0, "d": 4.0}
    assert inclusive_times(tracer.spans) == {"a": 10.0, "b": 3.0, "d": 4.0}


def test_span_closed_out_of_order_is_refused():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_percentile_needs_ten_samples_beyond_it():
    assert min_samples(95) == 200
    assert min_samples(90) == 100
    assert min_samples(50) == 20
    values = list(range(1, 201))
    assert percentile(values, 95) == 190  # nearest rank: 10 values lie above
    assert percentile(values[::-1], 50) == 100
    with pytest.raises(ValueError):
        percentile(values[:199], 95)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_wrappers_are_installed_only_while_recording():
    adam_step, predict_batch = T.adam_step, DeepGPModel.__dict__["predict_batch"]
    layers = Layers()
    with layers.recording() as tracer:
        assert layers.tracer is tracer
        assert T.adam_step is not adam_step
        assert DeepGPModel.__dict__["predict_batch"] is not predict_batch
    assert layers.tracer is None
    assert T.adam_step is adam_step
    assert DeepGPModel.__dict__["predict_batch"] is predict_batch


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """A one-test-task suite and an untrained kernel model on disk."""
    root = tmp_path_factory.mktemp("suite")
    assert cli.main(["gen-data", "--seed", "3", "--out", str(root / "data"),
                     "--n-train", "3", "--n-test", "1"]) == 0
    model = DeepGPModel.init(Architecture(), seed=3, has_kernel=True)
    checkpoint.save_checkpoint(model, root / "model.json", method="dkmt", seed=3)
    return root


@pytest.mark.parametrize("live", [False, True], ids=["replay", "live"])
def test_attempts_from_full_budget_trace_match_real_threshold(suite, live, monkeypatch):
    monkeypatch.setattr(bench, "LIVE_ENV_SEEDS", 1)
    run = bench.Run("live" if live else "replay", 3, 0.0, suite)
    steps = []
    episodes, _, _ = bench.deploy_pass(run, suite / "model.json", suite / "data", live, steps)
    assert run.ledger.failures == []
    assert len(episodes) == 1
    threshold, full = episodes[0]
    budget = bench.LIVE_BUDGET if live else bench.REPLAY_BUDGET
    assert full.attempts == budget == len(steps)

    model, _ = checkpoint.load_checkpoint(suite / "model.json")
    ds = load_task_dataset(bench.held_out_files(suite / "data")[0])
    assert threshold == terrain.compute_threshold(ds.records)
    if live:
        worlds = cli.load_suite_terrains(suite / "data")
        env = decision.LiveEnvironment(worlds[ds.task_id], decision.ActionGrid(), seed=full.meta["env_seed"])
    else:
        env = decision.ReplayEnvironment(ds)
    real = decision.run_episode(model, env, threshold, budget, decision.Policy.ucb(bench.GAMMA))
    expected = real.attempts if real.success else real.max_attempts
    assert bench.attempts_to_threshold(full, threshold) == expected
    assert [s.index for s in real.steps] == [s.index for s in full.steps[: real.attempts]]

"""Acceptance criteria for the full benchmark, one test per criterion.

Criteria 7-9 share one session-scoped run of the standard pipeline
driven through the CLI: suite seeds 0/1/2, each suite trained with its
own seed as training seed. Replay episodes are deterministic, so the
three eval repetitions are identical and criterion 7 averages 12
distinct episodes per method (4 test tasks x 3 suites). The other
criteria run self-contained checks. Each test prints one PASS line with
the measured numbers; run with -s (or read captured output) to see them.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import make_task

from scoopgp import cli, gp, ot, terrain
from scoopgp import tensor as T
from scoopgp import training as TR
from scoopgp.checkpoint import load_checkpoint
from scoopgp.cli import load_suite_terrains
from scoopgp.data import TaskDataset, load_task_dataset
from scoopgp.decision import (
    ActionGrid,
    EpisodeTrace,
    LiveEnvironment,
    Policy,
    ReplayEnvironment,
    run_episode,
)
from scoopgp.model import Architecture, DeepGPModel

SEEDS = (0, 1, 2)
SMALL = Architecture(
    channels=2, patch_h=4, patch_w=4,
    extractor_widths=(10, 8), mean_widths=(6,), kernel_widths=(6,), embed_dim=3,
)


def ok(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


@pytest.fixture(scope="session")
def battery(tmp_path_factory):
    """The standard pipeline over three suite seeds.

    Each suite seed generates its own 12/4-task world and trains every
    method once with that seed; deployment runs 3 repetitions per task.
    """
    root = tmp_path_factory.mktemp("acceptance")
    t0 = time.monotonic()
    for ss in SEEDS:
        data = root / f"suite-{ss}"
        assert cli.main(["gen-data", "--seed", str(ss), "--out", str(data)]) == 0
        for m in ("sl", "kcmd-ot", "kcmd-random", "dkmt"):
            rc = cli.main(
                ["train", "--method", m, "--data", str(data),
                 "--out", str(root / f"{m}-{ss}.json"), "--seed", str(ss)]
            )
            assert rc == 0, f"training {m} on suite {ss} failed"
        for m in ("sl", "kcmd-ot", "kcmd-random"):
            rc = cli.main(
                ["eval-deploy", "--model", str(root / f"{m}-{ss}.json"),
                 "--data", str(data), "--out", str(root / f"traces-{m}-{ss}.jsonl"),
                 "--mode", "replay", "--max-attempts", "100", "--reps", "3",
                 "--seed", "0"]
            )
            assert rc == 0
        for m in ("sl", "kcmd-ot", "dkmt"):
            rc = cli.main(
                ["eval-kshot", "--model", str(root / f"{m}-{ss}.json"),
                 "--data", str(data), "--out", str(root / f"mae-{m}-{ss}.json"),
                 "--shots", "0,5,10", "--seed", "0"]
            )
            assert rc == 0
    elapsed = time.monotonic() - t0
    return {"root": root, "elapsed": elapsed}


def mean_attempts(path: Path) -> float:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return float(np.mean([r["attempts"] if r["success"] else r["max_attempts"] for r in rows]))


def test_criterion_1_gp_oracle_equivalence():
    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(2, 6))
        kp = gp.KernelParams(
            log_lengthscale=float(rng.normal(scale=0.4)),
            log_outputscale=float(rng.normal(scale=0.4)),
            log_noise=math.log(float(rng.uniform(0.05, 0.5))),
        )
        Z = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        q = rng.normal(size=d)
        post = gp.posterior(Z, y, q, kp)
        Kbar = np.array(
            [[gp.rbf(Z[i], Z[j], kp) for j in range(n)] for i in range(n)]
        ) + kp.noise**2 * np.eye(n)
        k = np.array([gp.rbf(q, Z[i], kp) for i in range(n)])
        Kinv = np.linalg.inv(Kbar)
        mean = float(k @ Kinv @ y)
        var = max(gp.rbf(q, q, kp) - float(k @ Kinv @ k), gp.VARIANCE_FLOOR)
        worst = max(worst, abs(post.mean - mean), abs(post.variance - var))
    elapsed = time.monotonic() - t0
    assert worst < 1e-8
    assert elapsed < 5.0
    ok(1, f"max |posterior - inverse oracle| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_nlml_gradients_match_finite_differences():
    h = 1e-5
    worst = 0.0
    for model_seed in range(20):
        rng = np.random.default_rng(1000 + model_seed)
        model = DeepGPModel.init(SMALL, seed=model_seed)
        for name in ("mean.1.w", "kernel.1.w"):
            model.weights[name].data += rng.normal(
                scale=0.3, size=model.weights[name].shape
            )
        n = int(rng.integers(4, 8))
        X = rng.uniform(0, 1, size=(n, SMALL.input_dim))
        y = rng.normal(size=n)
        kpt = TR._kp_tensors(
            gp.KernelParams(float(rng.normal(scale=0.2)), float(rng.normal(scale=0.2)),
                            math.log(0.3))
        )
        params = (
            model.segment_params("extractor")
            + model.segment_params("mean")
            + model.segment_params("kernel")
            + list(kpt.values())
        )

        def loss_value():
            F = model.extractor_t(T.Tensor(X))
            resid = T.sub(T.Tensor(y[:, None]), model.mean_t(F))
            Kbar = gp.gram_objective(
                model.kernel_t(F), kpt["log_lengthscale"],
                kpt["log_outputscale"], kpt["log_noise"],
            )
            return gp.nlml_objective(Kbar, resid)

        with T.Tape() as tape:
            tape.backward(loss_value())
        grads = {p.name: p.grad.copy() for p in params}
        check = [p for p in params if p.name.startswith("kp.")]
        check += [p for p in params if p.data.size <= 80]
        flat_checked = 0
        for p in check:
            flat = p.data.reshape(-1)
            gflat = grads[p.name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                hi = loss_value().item()
                flat[i] = orig - h
                lo = loss_value().item()
                flat[i] = orig
                fd = (hi - lo) / (2 * h)
                if max(abs(fd), abs(gflat[i])) < 1e-6:
                    continue  # null gradient: the quotient is cancellation noise
                rel = abs(gflat[i] - fd) / max(abs(fd), 1e-6)
                worst = max(worst, rel)
                flat_checked += 1
        assert flat_checked >= 20
    assert worst < 1e-4
    ok(2, f"20 models, worst relative gradient error {worst:.2e}")


def test_criterion_3_sinkhorn_identities():
    A = make_task("a", 14, seed=0)
    B = make_task("b", 11, seed=1)
    params = ot.SampleCostParams.from_tasks([A, B])
    eps = ot.pair_epsilon(ot.cost_matrix(A, B, params))
    self_div = abs(ot.sinkhorn_divergence(A, A, params, eps))
    asym = abs(
        ot.sinkhorn_divergence(A, B, params, eps)
        - ot.sinkhorn_divergence(B, A, params, eps)
    )
    S1 = TaskDataset("s1", A.patches[:1], A.actions[:1], A.rewards[:1])
    S2 = TaskDataset("s2", B.patches[:1], B.actions[:1], B.rewards[:1])
    cost = ot.sample_cost(
        (S1.records[0].obs, S1.records[0].action, S1.records[0].reward),
        (S2.records[0].obs, S2.records[0].action, S2.records[0].reward),
        params,
    )
    eps_s = 1e-3 * float(np.median(ot.cost_matrix(S1, S2, params)))
    singleton = ot.sinkhorn_divergence(S1, S2, params, eps_s)
    assert self_div < 1e-6
    assert asym < 1e-8
    assert abs(singleton - cost) < 0.05 * cost
    ok(3, f"S(A,A)={self_div:.2e}, asym={asym:.2e}, singleton err "
          f"{abs(singleton - cost) / cost:.3%}")


def test_criterion_4_fold_procedure_structure():
    tasks = [make_task(f"t{i}", 12, seed=i) for i in range(4)]
    cfg = TR.TrainConfig(k_folds=3, seed=5, batch_size=16, max_epochs_mean=50,
                         max_epochs_meta=20, arch=SMALL)
    model, manifest = TR.train_kcmd(tasks, cfg, split_method="random")
    sl_model, _ = TR.train_sl(
        tasks, TR.TrainConfig(k_folds=3, seed=5, batch_size=16, max_epochs_mean=50,
                              max_epochs_meta=20, arch=SMALL)
    )
    for name, tensor in sl_model.weights.items():
        assert np.array_equal(tensor.data, model.weights[name].data), name
    expected = sum(
        len(tasks[i]) for plan in manifest.splits for i in plan["kernel_task_ids"]
    )
    assert manifest.stats["residual_db_size"] == expected

    cfg_hard = TR.TrainConfig(k_folds=2, seed=5, batch_size=16, max_epochs_mean=50,
                              max_epochs_meta=10, l2_anchor_coeff=1e6, arch=SMALL)
    _, man_hard = TR.train_kcmd(tasks, cfg_hard, split_method="random")
    drifts = [man_hard.stats[f"fold-{k}.anchor_drift_inf"] for k in range(2)]
    assert max(drifts) < 1e-3
    ok(4, f"weights bit-identical, residual db {expected} records, "
          f"1e6-anchor drift {max(drifts):.2e}")


def test_criterion_5_threshold_rule():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(5, 60))
        if rng.random() < 0.5:
            values = rng.integers(0, 12, size=n).astype(float)  # heavy ties
        else:
            values = rng.uniform(0, 100, size=n)
        expected = sorted(values, reverse=True)[4]
        assert terrain.compute_threshold(values) == expected
    ok(5, "5th order statistic exact on 1000 random multisets")


def test_criterion_6_decision_maker_reductions():
    mismatches = 0
    for seed in range(50):
        model = DeepGPModel.init(SMALL, seed=seed)
        rng = np.random.default_rng(seed)
        model.weights["mean.1.w"].data[:] = rng.normal(
            scale=0.5, size=model.weights["mean.1.w"].shape
        )
        model.reward_mean, model.reward_std = 12.0, 6.0
        task = make_task(f"ep{seed}", 15, seed=100 + seed)
        B = float(np.sort(task.rewards)[-3])
        t_ucb0 = run_episode(model, ReplayEnvironment(task), B, 15, Policy.ucb(0.0))
        t_greedy = run_episode(model, ReplayEnvironment(task), B, 15, Policy.greedy())
        if [s.index for s in t_ucb0.steps] != [s.index for s in t_greedy.steps]:
            mismatches += 1
        for trace in (t_ucb0, t_greedy):
            indices = [s.index for s in trace.steps]
            assert len(set(indices)) == len(indices), "record replayed twice"
    assert mismatches == 0
    ok(6, "ucb(0) trace == greedy trace on 50 seeded episodes, "
          "all without replacement")


def test_criterion_7_deployment_directional_reproduction(battery):
    root = battery["root"]
    per_seed = {
        m: [mean_attempts(root / f"traces-{m}-{s}.jsonl") for s in SEEDS]
        for m in ("sl", "kcmd-ot", "kcmd-random")
    }
    ot_m, rnd_m, sl_m = (np.mean(per_seed[m]) for m in ("kcmd-ot", "kcmd-random", "sl"))
    se = lambda v: float(np.std(v, ddof=1) / np.sqrt(len(v)))
    margin_rnd = rnd_m - ot_m
    margin_sl = sl_m - ot_m
    bar_rnd = max(se(per_seed["kcmd-ot"]), se(per_seed["kcmd-random"]))
    bar_sl = max(se(per_seed["kcmd-ot"]), se(per_seed["sl"]))
    seed_pass = sum(
        per_seed["kcmd-ot"][i] <= per_seed["kcmd-random"][i]
        and per_seed["kcmd-ot"][i] <= per_seed["sl"][i]
        and per_seed["kcmd-ot"][i] <= 0.75 * per_seed["sl"][i]
        for i in range(len(SEEDS))
    )
    assert margin_rnd > bar_rnd, (per_seed, margin_rnd, bar_rnd)
    assert margin_sl > bar_sl
    assert ot_m <= 0.75 * sl_m
    assert seed_pass >= 2, per_seed
    assert battery["elapsed"] < 900.0
    ok(7, f"attempts ot {ot_m:.2f} / random {rnd_m:.2f} / sl {sl_m:.2f}; "
          f"margins {margin_rnd:.2f}>{bar_rnd:.2f}, {margin_sl:.2f}>{bar_sl:.2f}; "
          f"ratio {ot_m / sl_m:.2f}; suites passing {seed_pass}/3; "
          f"pipeline {battery['elapsed']:.0f}s")


def test_criterion_8_kshot_mae_directional(battery):
    root = battery["root"]
    agg = {}
    for m in ("sl", "kcmd-ot", "dkmt"):
        tables = [json.loads((root / f"mae-{m}-{s}.json").read_text()) for s in SEEDS]
        agg[m] = {k: float(np.mean([t["mean"][k] for t in tables])) for k in ("0", "10")}
        if m == "sl":
            for t in tables:
                for task_maes in t["per_task"].values():
                    assert len(set(task_maes.values())) == 1, "SL must be shot-invariant"
    assert agg["kcmd-ot"]["10"] < agg["kcmd-ot"]["0"]
    assert agg["dkmt"]["10"] < agg["dkmt"]["0"]
    # zero-shot reduction: the fold-trained model keeps the pooled mean
    # weights bit-identical, so its 0-shot MAE equals the baseline's
    assert agg["kcmd-ot"]["0"] == agg["sl"]["0"]
    ok(8, f"MAE 0->10 shots: kcmd-ot {agg['kcmd-ot']['0']:.1f}->{agg['kcmd-ot']['10']:.1f}, "
          f"dkmt {agg['dkmt']['0']:.1f}->{agg['dkmt']['10']:.1f}, sl exactly flat")


def test_criterion_9_layers_adaptation(battery):
    root = battery["root"]
    data = root / "suite-0"
    worlds = load_suite_terrains(data)
    layers_id = next(t for t in worlds if worlds[t].composition == "Layers")
    ds = load_task_dataset(data / "tasks" / f"{layers_id}.json")
    B = terrain.compute_threshold(ds.records)
    grid = ActionGrid()
    kcmd, _ = load_checkpoint(root / "kcmd-ot-0.json")
    sl, _ = load_checkpoint(root / "sl-0.json")
    kcmd_attempts, sl_attempts = [], []
    for env_seed in range(10):
        tr = run_episode(
            kcmd, LiveEnvironment(worlds[layers_id], grid, seed=env_seed),
            B, 20, Policy.ucb(2.0),
        )
        kcmd_attempts.append(tr.attempts if tr.success else 20)
        tr = run_episode(
            sl, LiveEnvironment(worlds[layers_id], grid, seed=env_seed),
            B, 20, Policy.greedy(),
        )
        sl_attempts.append(tr.attempts if tr.success else 20)
    fast = sum(a <= 5 for a in kcmd_attempts)
    assert fast >= 7, kcmd_attempts
    assert np.mean(sl_attempts) > np.mean(kcmd_attempts)
    ok(9, f"B={B:.1f}; kcmd-ot <=5 attempts in {fast}/10 (runs {kcmd_attempts}); "
          f"sl mean {np.mean(sl_attempts):.1f} > kcmd mean {np.mean(kcmd_attempts):.1f}")


def test_criterion_10_pipeline_determinism(tmp_path):
    def run(tag):
        base = tmp_path / tag
        data = base / "data"
        ckpt = base / "model.json"
        traces = base / "traces.jsonl"
        assert cli.main(
            ["gen-data", "--seed", "11", "--out", str(data), "--n-train", "4",
             "--n-test", "2", "--samples", "40"]
        ) == 0
        assert cli.main(
            ["train", "--method", "kcmd-ot", "--data", str(data), "--out", str(ckpt),
             "--seed", "2", "--k-folds", "2", "--max-epochs-mean", "25",
             "--max-epochs-meta", "12"]
        ) == 0
        assert cli.main(
            ["eval-deploy", "--model", str(ckpt), "--data", str(data),
             "--out", str(traces), "--mode", "replay", "--max-attempts", "40",
             "--reps", "2", "--seed", "0"]
        ) == 0
        return base

    a = run("first")
    b = run("second")
    pairs = [
        ("model.json", "checkpoint"),
        ("model.json.manifest.json", "manifest"),
        ("traces.jsonl", "traces"),
        ("data/suite.json", "suite"),
        ("data/tasks/test-00.json", "dataset"),
    ]
    for rel, label in pairs:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), label
    ok(10, "checkpoint, manifest, traces, and datasets byte-identical across runs")

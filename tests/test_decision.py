import tracemalloc

import numpy as np
import pytest
from helpers import LiveEnvironmentReference, make_task, render_patches_reference, support_tuples

from scoopgp import decision as D
from scoopgp import gp
from scoopgp import model as M
from scoopgp import terrain

ARCH = M.Architecture(
    channels=2, patch_h=4, patch_w=4,
    extractor_widths=(12, 8), mean_widths=(6,), kernel_widths=(6,), embed_dim=3,
)


def trained_toy_model(seed=0, has_kernel=True):
    m = M.DeepGPModel.init(ARCH, seed=seed, has_kernel=has_kernel)
    rng = np.random.default_rng(seed)
    m.weights["mean.1.w"].data[:] = rng.normal(scale=0.5, size=m.weights["mean.1.w"].shape)
    m.reward_mean, m.reward_std = 15.0, 8.0
    return m


def test_action_grid_sizes():
    assert len(D.ActionGrid.paper_scale().enumerate((0.9, 0.6))) == 11520
    acts = D.ActionGrid().enumerate((0.9, 0.6))
    assert len(acts) == 1536
    for a in acts[:50]:
        a.validate()
    depths = D.ActionGrid(nd=2).depths()
    assert np.allclose(depths, [0.0425, 0.0675])


def no_support(arch=ARCH):
    return np.empty((0, arch.input_dim)), []


def test_ucb_score_reductions():
    m = trained_toy_model()
    task = make_task("t", 5, seed=1)
    cands = [(r.obs, r.action) for r in task.records]
    means, variances = m.predict_batch(cands, support_tuples(task, [1, 2]))
    assert np.array_equal(D.Policy.ucb(0.0).scores(means, variances), means)
    assert np.array_equal(D.Policy.greedy().scores(means, variances), means)
    s2 = D.Policy.ucb(2.0).scores(means, variances)
    assert np.array_equal(s2, means + 2.0 * np.sqrt(variances))
    assert (variances > 0).all() and (s2 > means).all()
    with pytest.raises(ValueError):
        D.Policy.ucb(-1.0)


def test_ucb_prefers_uncertain_at_equal_mean():
    means = np.array([1.0, 1.0])
    variances = np.array([0.1, 0.5])
    s = D.Policy.ucb(2.0).scores(means, variances)
    assert s[1] > s[0]
    g = D.Policy.greedy().scores(means, variances)
    assert g[0] == g[1]


def test_select_action_basics():
    m = trained_toy_model(2)
    task = make_task("t", 6, seed=3)
    X = M.feature_matrix(ARCH, [(r.obs, r.action) for r in task.records])
    idx, score = D.select_action(m, X[:1], no_support(), D.Policy.greedy())
    assert idx == 0
    idx_g, _ = D.select_action(m, X, no_support(), D.Policy.greedy())
    idx_u0, _ = D.select_action(m, X, no_support(), D.Policy.ucb(0.0))
    assert idx_g == idx_u0
    excl = {idx_g}
    idx2, _ = D.select_action(m, X, no_support(), D.Policy.greedy(), excl)
    assert idx2 != idx_g
    with pytest.raises(ValueError):
        D.select_action(m, X, no_support(), D.Policy.greedy(), set(range(len(X))))


def test_select_action_scale_invariance_of_argmax():
    m = trained_toy_model(4)
    task = make_task("t", 8, seed=5)
    cands = [(r.obs, r.action) for r in task.records]
    means, variances = m.predict_batch(cands, [])
    s1 = D.Policy.ucb(2.0).scores(means, variances)
    assert np.argmax(s1) == np.argmax(3.7 * s1)


def test_select_action_scores_rows_like_predict_batch():
    """Excluding rows leaves the scores of the others as predict_batch
    gives them for exactly those candidates, bit for bit."""
    m = trained_toy_model(5)
    task = make_task("t", 9, seed=6)
    cands = [(r.obs, r.action) for r in task.records]
    X = M.feature_matrix(ARCH, cands)
    support = support_tuples(task, [7, 8])
    Xs = M.feature_matrix(ARCH, [(o, a) for o, a, _ in support])
    rewards = [r for _, _, r in support]
    excluded = {0, 4, 7, 8}
    allowed = [i for i in range(9) if i not in excluded]
    means, variances = m.predict_batch([cands[i] for i in allowed], support)
    scores = D.Policy.ucb(2.0).scores(means, variances)
    idx, score = D.select_action(m, X, (Xs, rewards), D.Policy.ucb(2.0), excluded)
    assert idx == allowed[int(np.argmax(scores))]
    assert score == float(scores.max())


def test_replay_episode_without_replacement_and_support_growth():
    m = trained_toy_model(1)
    task = make_task("replay", 20, seed=7)
    env = D.ReplayEnvironment(task)
    B = float(task.rewards.max()) + 1.0  # unreachable: forces a full walk
    trace = D.run_episode(m, env, B, max_attempts=20, policy=D.Policy.ucb(2.0))
    assert not trace.success
    assert trace.attempts == 20
    indices = [s.index for s in trace.steps]
    assert len(set(indices)) == len(indices)


def test_replay_episode_trivial_threshold():
    m = trained_toy_model(1)
    task = make_task("replay", 10, seed=8)
    env = D.ReplayEnvironment(task)
    trace = D.run_episode(m, env, -np.inf, max_attempts=10, policy=D.Policy.greedy())
    assert trace.success and trace.attempts == 1


def test_replay_episode_oracle_threshold_max_record():
    # oracle policy: model whose mean ranks records by their true reward
    class Oracle:
        def __init__(self, ds):
            rows = M.feature_rows((rec.obs, rec.action) for rec in ds.records)
            self.r = {row.tobytes(): rec.reward for row, rec in zip(rows, ds.records)}

        def predict_rows(self, X, Xs, rewards):
            means = np.array([self.r[row.tobytes()] for row in X])
            return means, np.zeros_like(means)

    task = make_task("oracle", 12, seed=9)
    env = D.ReplayEnvironment(task)
    B = float(task.rewards.max())
    trace = D.run_episode(Oracle(task), env, B, 12, D.Policy.greedy())
    assert trace.success and trace.attempts == 1


def test_sl_greedy_equals_sorted_walk():
    m = trained_toy_model(3, has_kernel=False)
    task = make_task("sl", 15, seed=11)
    env = D.ReplayEnvironment(task)
    B = float(np.sort(task.rewards)[-3])
    trace = D.run_episode(m, env, B, max_attempts=15, policy=D.Policy.greedy())
    cands = [(r.obs, r.action) for r in task.records]
    means, _ = m.predict_batch(cands, [])
    order = np.argsort(-means, kind="stable")
    expected = []
    for idx in order:
        expected.append(int(idx))
        if task.records[idx].reward >= B:
            break
    assert [s.index for s in trace.steps] == expected


def test_gamma_zero_trace_equals_greedy_trace():
    for seed in range(5):
        m = trained_toy_model(seed)
        task = make_task(f"g{seed}", 12, seed=seed + 40)
        B = float(np.sort(task.rewards)[-2])
        t1 = D.run_episode(m, D.ReplayEnvironment(task), B, 12, D.Policy.ucb(0.0))
        t2 = D.run_episode(m, D.ReplayEnvironment(task), B, 12, D.Policy.greedy())
        assert [s.index for s in t1.steps] == [s.index for s in t2.steps]


def test_support_is_prior_history():
    calls = []

    class Spy:
        def predict_rows(self, X, Xs, rewards):
            calls.append((Xs.copy(), list(rewards)))
            means = np.zeros(len(X))
            return means, np.zeros_like(means)

    task = make_task("spy", 6, seed=13)
    env = D.ReplayEnvironment(task)
    trace = D.run_episode(Spy(), env, np.inf, 4, D.Policy.greedy())
    assert [len(r) for _, r in calls] == [0, 1, 2, 3]
    X = M.feature_rows((r.obs, r.action) for r in task.records)
    chosen = [s.index for s in trace.steps]
    for n, (Xs, rewards) in enumerate(calls):
        assert np.array_equal(Xs, X[chosen[:n]])
        assert rewards == [task.records[i].reward for i in chosen[:n]]


def test_live_environment_episode_and_masking():
    suite_train, suite_test = terrain.generate_suite(seed=0)
    task = suite_test[0]
    grid = D.ActionGrid(nx=4, ny=3, nd=2)
    env = D.LiveEnvironment(task, grid, seed=5)
    assert env.excluded(), "border actions should be masked as infeasible"
    m = M.DeepGPModel.init(M.Architecture(), seed=0)
    m.reward_mean, m.reward_std = 30.0, 15.0
    trace = D.run_episode(m, env, threshold=5.0, max_attempts=3, policy=D.Policy.ucb(2.0))
    assert 1 <= trace.attempts <= 3
    for s in trace.steps:
        assert s.index not in env.excluded()
    # terrain mutated by executed scoops
    assert not np.array_equal(env.terrain.heightfield, task.terrain.heightfield)
    assert np.array_equal(task.terrain.heightfield, suite_test[0].terrain.heightfield)


def test_live_environment_determinism():
    _, suite_test = terrain.generate_suite(seed=0)
    grid = D.ActionGrid(nx=4, ny=3)
    m = M.DeepGPModel.init(M.Architecture(), seed=1)
    m.reward_mean, m.reward_std = 30.0, 15.0

    def run():
        env = D.LiveEnvironment(suite_test[1], grid, seed=3)
        tr = D.run_episode(m, env, threshold=60.0, max_attempts=4, policy=D.Policy.ucb(2.0))
        return [(s.index, s.reward) for s in tr.steps]

    assert run() == run()


def test_live_episode_unchanged_under_reference_renderer(monkeypatch):
    """A desk-grid episode on the layered tray picks, earns and scores the
    same, bit for bit, when every step is rendered one action at a time."""
    _, suite_test = terrain.generate_suite(seed=0)
    task = next(t for t in suite_test if t.composition == "Layers")
    m = M.DeepGPModel.init(M.Architecture(), seed=2)
    m.reward_mean, m.reward_std = 30.0, 15.0

    def run():
        env = D.LiveEnvironment(task, D.ActionGrid(), seed=4)
        tr = D.run_episode(m, env, threshold=np.inf, max_attempts=5, policy=D.Policy.ucb(2.0))
        return [(s.index, s.reward, s.score) for s in tr.steps]

    def reference(terrain_, actions, rng=None, *, cells, out):
        patches = render_patches_reference(terrain_, actions, rng)
        out[:, : patches[0].size] = patches.reshape(len(actions), -1)
        return patches

    vectorized = run()
    monkeypatch.setattr(D, "render_patches", reference)
    assert len(vectorized) == 5
    assert run() == vectorized


@pytest.mark.parametrize("policy", [D.Policy.ucb(2.0), D.Policy.greedy()], ids=["ucb", "greedy"])
def test_live_episode_matches_full_grid_reference(policy):
    """Feasible-only rows with the infeasible actions' noise skipped give
    the episode that rendering every action and excluding the infeasible
    ones gives: the same grid indices, rewards and scores bit for bit,
    and the same generator state after."""
    _, suite_test = terrain.generate_suite(seed=0)
    m = M.DeepGPModel.init(M.Architecture(), seed=3)
    m.reward_mean, m.reward_std = 30.0, 15.0
    for task in suite_test[1:4]:
        envs = [D.LiveEnvironment(task, D.ActionGrid(), seed=6), LiveEnvironmentReference(task, D.ActionGrid(), 6)]
        steps = []
        for env in envs:
            trace = D.run_episode(m, env, np.inf, 4, policy)
            steps.append([(s.index, s.action, s.reward, s.score) for s in trace.steps])
        assert len(steps[0]) == 4 and steps[0] == steps[1]
        assert envs[0].rng.bit_generator.state == envs[1].rng.bit_generator.state
        assert envs[0].excluded() == envs[1].excluded()


def test_live_support_rows_are_the_rows_chosen_then():
    """The live environment re-renders into one feature matrix, so the
    support must hold copies: at each step its rows equal the chosen rows
    as they were rendered at their own step."""
    _, suite_test = terrain.generate_suite(seed=0)
    chosen, supports = [], []

    class FirstRow:
        def predict_rows(self, X, Xs, rewards):
            supports.append(Xs.copy())
            chosen.append(X[0].copy())
            means = -np.arange(len(X), dtype=np.float64)
            return means, np.zeros_like(means)

    env = D.LiveEnvironment(suite_test[0], D.ActionGrid(nx=4, ny=3), seed=1)
    D.run_episode(FirstRow(), env, np.inf, 4, D.Policy.greedy())
    assert len(supports) == 4
    for n, Xs in enumerate(supports):
        assert np.array_equal(Xs, np.array(chosen[:n]).reshape(n, Xs.shape[1]))
    assert not np.array_equal(chosen[0], chosen[1]), "each step draws fresh noise"


def live_episode_peak_bytes(grid, steps):
    """Traced peak allocation of a live UCB episode of `steps` attempts on
    the desk-grid layered tray, and the bytes of one full render."""
    _, suite_test = terrain.generate_suite(seed=0)
    task = next(t for t in suite_test if t.composition == "Layers")
    m = M.DeepGPModel.init(M.Architecture(), seed=2)
    m.reward_mean, m.reward_std = 30.0, 15.0
    render_bytes = len(grid.enumerate(task.terrain.extent)) * m.arch.patch_size * 8
    tracemalloc.start()
    try:
        env = D.LiveEnvironment(task, grid, seed=4)
        trace = D.run_episode(m, env, np.inf, steps, D.Policy.ucb(2.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.attempts == steps and trace.fault is None
    return peak, render_bytes


def test_live_episode_memory_stays_within_three_renders():
    """The support set holds copied feature rows, so an episode's memory
    does not grow by one full render per attempt."""
    peak, render_bytes = live_episode_peak_bytes(D.ActionGrid(), steps=12)
    assert peak < 3 * render_bytes, f"peak {peak / 1e6:.1f} MB, one render {render_bytes / 1e6:.1f} MB"


def test_trace_roundtrip_and_validation():
    step = D.EpisodeStep(3, M.ScoopAction(0.2, 0.2, 1, 0.05, 0), 12.0, 14.0)
    trace = D.EpisodeTrace("t", "ucb(2)", 10.0, 20, [step], success=True)
    trace.validate()
    back = D.EpisodeTrace.from_dict(trace.to_dict())
    assert back.task_id == "t" and back.attempts == 1 and back.success
    bad = D.EpisodeTrace("t", "greedy", 50.0, 20, [step], success=True)
    with pytest.raises(ValueError):
        bad.validate()

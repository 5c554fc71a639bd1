import tracemalloc

import numpy as np
import pytest
from helpers import (
    LiveEnvironmentReference,
    UniformStream,
    make_task,
    render_patches_reference,
    run_episode_reference,
    support_tuples,
)

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


def embedded(m, X):
    """Feature rows' mean-head outputs and the posterior of their
    embeddings given no support: select_action's candidates."""
    means, Z = m.embed_rows(X)
    return means, gp.Posterior(m.kp, Z)


def test_ucb_score_reductions():
    m = trained_toy_model()
    task = make_task("t", 5, seed=1)
    cands = list(zip(task.patches, task.actions))
    means, variances = m.predict_batch(cands, support_tuples(task, [1, 2]))
    assert np.array_equal(D.Policy.ucb(0.0).scores(means, variances), means)
    assert np.array_equal(D.Policy.greedy().scores(means, variances), means)
    s2 = D.Policy.ucb(2.0).scores(means, variances)
    assert np.array_equal(s2, means + 2.0 * np.sqrt(variances))
    assert (variances > 0).all() and (s2 > means).all()
    for gamma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            D.Policy.ucb(gamma)


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
    X = M.feature_matrix(ARCH, zip(task.patches, task.actions))
    E = embedded(m, X)
    every = np.arange(len(X))
    idx, score = D.select_action(m, *embedded(m, X[:1]), D.Policy.greedy(), every[:1])
    assert idx == 0
    idx_g, _ = D.select_action(m, *E, D.Policy.greedy(), every)
    idx_u0, _ = D.select_action(m, *E, D.Policy.ucb(0.0), every)
    assert idx_g == idx_u0
    idx2, _ = D.select_action(m, *E, D.Policy.greedy(), every[every != idx_g])
    assert idx2 != idx_g
    with pytest.raises(ValueError):
        D.select_action(m, *E, D.Policy.greedy(), every[:0])


def test_select_action_scale_invariance_of_argmax():
    m = trained_toy_model(4)
    task = make_task("t", 8, seed=5)
    cands = list(zip(task.patches, task.actions))
    means, variances = m.predict_batch(cands, [])
    s1 = D.Policy.ucb(2.0).scores(means, variances)
    assert np.argmax(s1) == np.argmax(3.7 * s1)


def test_select_action_scores_rows_like_predict_batch():
    """Excluding rows leaves the scores of the others as the posterior of
    every row gives them, bit for bit, and as predict_batch gives them for
    exactly those candidates, up to the rounding of a row in another BLAS
    batch."""
    m = trained_toy_model(5)
    task = make_task("t", 9, seed=6)
    cands = list(zip(task.patches, task.actions))
    X = M.feature_matrix(ARCH, cands)
    support = support_tuples(task, [7, 8])
    Xs = M.feature_matrix(ARCH, [(o, a) for o, a, _ in support])
    rewards = [r for _, _, r in support]
    excluded = {0, 4, 7, 8}
    allowed = [i for i in range(9) if i not in excluded]
    (mq, Zq), (ms, Zs) = m.embed_rows(X), m.embed_rows(Xs)
    post = gp.posterior_batch(Zs, m.residuals(ms, rewards), Zq, m.kp)
    exact = D.Policy.ucb(2.0).scores(*m.condition(mq, post))[allowed]
    means, variances = m.predict_batch([cands[i] for i in allowed], support)
    scores = D.Policy.ucb(2.0).scores(means, variances)
    idx, score = D.select_action(m, mq, post, D.Policy.ucb(2.0), np.array(allowed))
    assert idx == allowed[int(np.argmax(exact))] == allowed[int(np.argmax(scores))]
    assert score == float(exact.max())
    assert score == pytest.approx(float(scores.max()), rel=1e-12)


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
    with pytest.raises(ValueError, match="max_attempts 0 is below 1"):
        D.run_episode(m, D.ReplayEnvironment(task), -np.inf, max_attempts=0, policy=D.Policy.greedy())


def test_replay_episode_oracle_threshold_max_record():
    # oracle policy: model whose mean ranks records by their true reward
    class Oracle:
        def __init__(self, ds):
            rows = M.feature_matrix(ARCH, zip(ds.patches, ds.actions))
            self.r = {row.tobytes(): reward for row, reward in zip(rows, ds.rewards.tolist())}

        def embed_rows(self, X):
            return np.array([self.r[row.tobytes()] for row in X]), None

        def condition(self, mq, post):
            return mq, np.zeros_like(mq)

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
    cands = list(zip(task.patches, task.actions))
    means, _ = m.predict_batch(cands, [])
    order = np.argsort(-means, kind="stable")
    expected = []
    for idx in order:
        expected.append(int(idx))
        if task.rewards[idx] >= B:
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


class RowDouble:
    """A model double for run_episode: the default kernel, and rewards
    less the mean-head outputs as the GP's residuals."""

    kp = gp.KernelParams()

    def residuals(self, ms, rewards):
        return rewards - ms


def test_support_is_prior_history():
    """The support at attempt n is the n-1 earlier records: their rows'
    embeddings from the one embedding of the replay matrix, and their
    rewards less their rows' mean-head outputs."""
    calls, embedded = [], []

    class Spy(RowDouble):
        def embed_rows(self, X):
            embedded.append(X)
            return X[:, 0].copy(), X  # each row embeds as itself

        def condition(self, mq, post):
            calls.append((post.Z.copy(), post.y.copy()))
            return mq, np.zeros_like(mq)

    task = make_task("spy", 6, seed=13)
    env = D.ReplayEnvironment(task)
    trace = D.run_episode(Spy(), env, np.inf, 4, D.Policy.greedy())
    assert len(embedded) == 1
    assert [len(y) for _, y in calls] == [0, 1, 2, 3]
    X = M.feature_matrix(ARCH, zip(task.patches, task.actions))
    chosen = [s.index for s in trace.steps]
    for n, (Zs, y) in enumerate(calls):
        assert np.array_equal(Zs, X[chosen[:n]])
        rewards = task.rewards[chosen[:n]]
        assert y.tobytes() == (rewards - X[chosen[:n], 0]).tobytes()


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

    def reference(terrain_, actions, patches, cells=None):
        stream = UniformStream(patches)
        patches[...] = render_patches_reference(terrain_, actions, stream)
        assert stream.exhausted()
        return patches

    vectorized = run()
    monkeypatch.setattr(D, "render_patches", reference)
    assert len(vectorized) == 5
    assert run() == vectorized


@pytest.mark.parametrize("policy", [D.Policy.ucb(2.0), D.Policy.greedy()], ids=["ucb", "greedy"])
def test_live_episode_matches_full_grid_reference(policy):
    """Feasible-only rows that share one rendered patch per geometry give
    the episode that the oracle's dense matrix gives, which renders each
    feasible geometry once, copies its patch to the rows of every grid
    action with that geometry and excludes the infeasible ones: the same
    grid indices, actions and rewards, and the same generator state after.
    Scores agree within 1e-12, not bit for bit: the shared rows meet the
    first layer as a patch product plus a tail product, the dense rows as
    one product, and the two sums round differently."""
    _, suite_test = terrain.generate_suite(seed=0)
    m = M.DeepGPModel.init(M.Architecture(), seed=3)
    m.reward_mean, m.reward_std = 30.0, 15.0
    for task in suite_test[1:4]:
        envs = [D.LiveEnvironment(task, D.ActionGrid(), seed=6), LiveEnvironmentReference(task, D.ActionGrid(), 6)]
        trace, reference = (D.run_episode(m, env, np.inf, 4, policy) for env in envs)
        assert trace.attempts == 4
        assert [s.action for s in trace.steps] == [s.action for s in reference.steps]
        assert_same_choices(trace, reference, m)
        assert envs[0].rng.bit_generator.state == envs[1].rng.bit_generator.state
        assert envs[0].excluded() == envs[1].excluded()


def test_live_support_rows_are_the_rows_chosen_then():
    """The live environment re-renders into one patch buffer, so every
    step embeds it anew and the support must hold copies: at each step
    its embeddings equal the chosen rows' as they were at their own step.
    The test double embeds the rows as equal slices of the render buffer,
    views that the next render overwrites."""
    _, suite_test = terrain.generate_suite(seed=0)
    chosen, supports, embedded = [], [], []

    class FirstRow(RowDouble):
        def embed_rows(self, X):
            n = X.shape[0]
            embedded.append(n)
            return -np.arange(n, dtype=np.float64), X.patches.reshape(n, -1)

        def condition(self, mq, post):
            supports.append(post.Z.copy())
            chosen.append(post.Zq[0].copy())
            return mq, np.zeros_like(mq)

    env = D.LiveEnvironment(suite_test[0], D.ActionGrid(nx=4, ny=3), seed=1)
    D.run_episode(FirstRow(), env, np.inf, 4, D.Policy.greedy())
    assert len(supports) == 4 and len(embedded) == 4
    for n, Zs in enumerate(supports):
        assert np.array_equal(Zs, np.array(chosen[:n]).reshape(n, Zs.shape[1]))
    assert not np.array_equal(chosen[0], chosen[1]), "each step draws fresh noise"


def test_replay_candidates_are_the_dataset_matrix():
    """A replay environment hands out its dataset's feature matrix, not a
    copy: a read-only view of it, the same array at every step."""
    task = make_task("replay", 8, seed=4, channels=4, h=16, w=16)
    env = D.ReplayEnvironment(task)
    features, _, _ = env.candidates()
    held = task.feature_matrix(M.Architecture())
    assert np.shares_memory(features, held) and features.base is held
    assert features.shape == held.shape and np.array_equal(features, held)
    with pytest.raises(ValueError):
        features[0, 0] = 1.0
    assert env.candidates()[0] is features
    assert held.flags.writeable, "the dataset's own matrix stays writable"


def _env_state(env):
    """What execute may change: the excluded set, and a live
    environment's terrain and generator."""
    world = getattr(env, "terrain", None)
    if world is None:
        return env.excluded()
    return env.excluded(), world.heightfield.tobytes(), world.surface.tobytes(), env.rng.bit_generator.state


@pytest.mark.parametrize("at", ["minus-one", "n"])
@pytest.mark.parametrize("kind", ["replay", "live"])
def test_execute_refuses_an_index_outside_the_actions(kind, at):
    """Both environments refuse an index outside 0..len(actions) - 1 with
    IndexError before they change anything: a replayed -1 would pay the
    last record's reward and leave it payable again, and a live -1 would
    scoop the last grid action unchecked for feasibility."""
    if kind == "replay":
        env = D.ReplayEnvironment(make_task("bounds", 10, seed=8))
    else:
        env = D.LiveEnvironment(terrain.generate_suite(seed=0)[1][0], D.ActionGrid(nx=4, ny=3, nd=2), seed=5)
    n = len(env.candidates()[1])
    before = _env_state(env)
    with pytest.raises(IndexError, match="is not in 0"):
        env.execute(-1 if at == "minus-one" else n)
    assert _env_state(env) == before
    last = n - 1 if kind == "replay" else max(set(range(n)) - env.excluded())
    env.execute(last)
    if kind == "replay":
        with pytest.raises(RuntimeError, match="already replayed"):
            env.execute(last)


def default_model(seed, has_kernel=True):
    """A default-architecture model whose mean head is not flat."""
    m = M.DeepGPModel.init(M.Architecture(), seed=seed, has_kernel=has_kernel)
    rng = np.random.default_rng(seed)
    m.weights["mean.1.w"].data[:] = rng.normal(scale=0.5, size=m.weights["mean.1.w"].shape)
    m.reward_mean, m.reward_std = 15.0, 8.0
    return m


def test_replay_episode_embeds_each_record_once(monkeypatch):
    """A 100-attempt replay episode pushes each of the 100 records through
    the extractor once, support rows included."""
    rows = []
    extractor_t = M.DeepGPModel.extractor_t

    def spy(self, X):
        rows.append(X.shape[0])
        return extractor_t(self, X)

    monkeypatch.setattr(M.DeepGPModel, "extractor_t", spy)
    task = make_task("once", 100, seed=21, channels=4, h=16, w=16)
    trace = D.run_episode(default_model(6), D.ReplayEnvironment(task), np.inf, 100, D.Policy.ucb(2.0))
    assert trace.attempts == 100
    assert rows == [100]


def test_live_support_embeddings_are_those_of_their_step():
    """Each live step embeds its new render, and the support holds each
    chosen row's embedding as that step computed it, bit for bit."""
    _, suite_test = terrain.generate_suite(seed=0)
    m = default_model(7)
    embedded, supports = [], []
    embed_rows, condition = m.embed_rows, m.condition

    def embed_spy(X):
        out = embed_rows(X)
        embedded.append(out)
        return out

    def condition_spy(mq, post):
        supports.append((post.y.copy(), post.Z.copy()))
        return condition(mq, post)

    m.embed_rows, m.condition = embed_spy, condition_spy
    env = D.LiveEnvironment(suite_test[2], D.ActionGrid(nx=4, ny=3), seed=8)
    trace = D.run_episode(m, env, np.inf, 5, D.Policy.ucb(2.0))
    assert trace.attempts == 5 and len(embedded) == 5 == len(supports)
    feasible = [i for i in range(len(env.actions)) if i not in env.excluded()]
    rows = [feasible.index(s.index) for s in trace.steps]
    for n, (y, Zs) in enumerate(supports):
        ms = np.array([embedded[k][0][rows[k]] for k in range(n)])
        assert y.tobytes() == m.residuals(ms, [s.reward for s in trace.steps[:n]]).tobytes()
        assert Zs.tobytes() == np.array([embedded[k][1][rows[k]] for k in range(n)]).tobytes()


def assert_same_choices(trace, reference, model):
    """The same indices and rewards, and scores within 1e-12 relative: of
    the score, or of the reward scale where a score is near 0 (an untrained
    model's UCB scores cross 0, where any rounding is a large share)."""
    assert [s.index for s in trace.steps] == [s.index for s in reference.steps]
    assert [s.reward for s in trace.steps] == [s.reward for s in reference.steps]
    for s, r in zip(trace.steps, reference.steps):
        assert abs(s.score - r.score) <= 1e-12 * max(abs(r.score), model.reward_std)


@pytest.mark.parametrize("has_kernel", [True, False], ids=["kernel", "mean-only"])
def test_replay_episode_matches_per_step_reference(has_kernel):
    """Embedding the replay matrix once picks the records that scoring the
    allowed rows and the support rows at every step picks."""
    for seed in range(3):
        task = make_task(f"ref{seed}", 100, seed=30 + seed, channels=4, h=16, w=16)
        m = default_model(seed, has_kernel)
        for policy in (D.Policy.ucb(2.0), D.Policy.greedy()):
            trace = D.run_episode(m, D.ReplayEnvironment(task), np.inf, 100, policy)
            reference = run_episode_reference(m, D.ReplayEnvironment(task), np.inf, 100, policy)
            assert trace.attempts == 100
            assert_same_choices(trace, reference, m)


def test_live_episode_matches_per_step_reference():
    """Keeping live support embeddings of shared patch rows picks the grid
    actions that re-embedding the support rows at every step picks, on
    the oracle environment's dense matrix."""
    _, suite_test = terrain.generate_suite(seed=0)
    m = default_model(9)
    for task in suite_test[:2]:
        for seed in (11, 12):
            trace = D.run_episode(m, D.LiveEnvironment(task, D.ActionGrid(), seed), np.inf, 8, D.Policy.ucb(2.0))
            env = LiveEnvironmentReference(task, D.ActionGrid(), seed)
            reference = run_episode_reference(m, env, np.inf, 8, D.Policy.ucb(2.0))
            assert trace.attempts == 8
            assert_same_choices(trace, reference, m)


def test_deployment_grows_the_posterior_without_refactorizing(monkeypatch):
    """Neither a 100-attempt replay episode nor an 8-attempt live episode
    factorizes a support matrix: the posterior grows by one row per
    attempt. The replay matrix is embedded once, each live render once,
    and select_action runs once a step."""
    calls = dict.fromkeys(["cholesky", "embed", "select"], 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(gp, "cholesky_with_jitter", counting("cholesky", gp.cholesky_with_jitter))
    monkeypatch.setattr(M.DeepGPModel, "embed_rows", counting("embed", M.DeepGPModel.embed_rows))
    monkeypatch.setattr(D, "select_action", counting("select", D.select_action))
    m = default_model(8)
    task = make_task("guard", 100, seed=22, channels=4, h=16, w=16)
    trace = D.run_episode(m, D.ReplayEnvironment(task), np.inf, 100, D.Policy.ucb(2.0))
    assert trace.attempts == 100 and calls == {"cholesky": 0, "embed": 1, "select": 100}
    _, suite_test = terrain.generate_suite(seed=0)
    calls.update(dict.fromkeys(calls, 0))
    trace = D.run_episode(m, D.LiveEnvironment(suite_test[0], D.ActionGrid(), 13), np.inf, 8, D.Policy.ucb(2.0))
    assert trace.attempts == 8 and calls == {"cholesky": 0, "embed": 8, "select": 8}


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


def test_live_episode_memory_stays_within_three_quarters_of_a_render():
    """The posterior copies each chosen row's embedding, so an episode's
    memory does not grow by one full render per attempt, and a step holds one
    patch per geometry, not a feature row per action: a 12-step episode
    peaks at about 0.47 of the grid's full feature matrix, where copying
    each patch to its variants' rows peaked at 1.24."""
    peak, render_bytes = live_episode_peak_bytes(D.ActionGrid(), steps=12)
    assert peak < 0.75 * render_bytes, f"peak {peak / 1e6:.1f} MB, one render {render_bytes / 1e6:.1f} MB"


def test_trace_roundtrip_and_validation():
    step = D.EpisodeStep(3, M.ScoopAction(0.2, 0.2, 1, 0.05, 0), 12.0, 14.0)
    trace = D.EpisodeTrace("t", "ucb(2)", 10.0, 20, True, 1, None, {}, [step])
    back = M.read_fields(D.EpisodeTrace, trace.to_dict())
    assert back == trace and back.attempts == 1 and back.success
    with pytest.raises(ValueError, match="success flag"):
        D.EpisodeTrace("t", "greedy", 50.0, 20, True, 1, None, {}, [step])

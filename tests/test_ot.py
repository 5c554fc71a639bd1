import multiprocessing
import os

import numpy as np
import pytest
from helpers import (
    entropic_transport_cost_reference,
    histogram_matrix_reference,
    make_task,
    random_action,
    task_distance_matrix_reference,
)

from scoopgp import ot
from scoopgp.data import ScoopRecord, TaskDataset
from scoopgp.model import ScoopAction
from scoopgp.terrain import collect_offline, generate_suite


@pytest.fixture(scope="module")
def two_tasks():
    return make_task("a", 12, seed=1), make_task("b", 15, seed=2)


@pytest.fixture(scope="module")
def params(two_tasks):
    return ot.SampleCostParams.from_tasks(list(two_tasks))


def test_histogram_constant_channel_is_one_hot(monkeypatch):
    monkeypatch.setattr(ot, "HISTOGRAM_BINS", 8)
    patch = np.full((2, 4, 4), 0.5)
    patch[1] = 0.1
    task = TaskDataset("t", [ScoopRecord(patch, ScoopAction(0.2, 0.2, 0, 0.05, 0), 1.0)])
    p = ot.SampleCostParams.from_tasks([task])
    h = ot.histogram_feature(patch, p)
    assert h.shape == (16,)
    for block in (h[:8], h[8:]):
        assert block.sum() == pytest.approx(1.0)
        assert np.sort(block)[-1] == pytest.approx(1.0)


def test_histogram_128_dims_for_four_channels():
    rng = np.random.default_rng(0)
    patch = rng.uniform(0, 1, size=(4, 16, 16))
    task = TaskDataset("t", [ScoopRecord(patch, ScoopAction(0.2, 0.2, 0, 0.05, 0), 1.0)])
    p = ot.SampleCostParams.from_tasks([task])
    assert ot.histogram_feature(patch, p).shape == (128,)


@pytest.mark.parametrize("seed", range(5))
def test_histogram_uniform_channel_is_flat(seed):
    rng = np.random.default_rng(seed)
    patch = rng.uniform(0, 1, size=(1, 16, 16))
    ranges = ((0.0, 1.0),)
    p = ot.SampleCostParams(1, 1, 1, channel_ranges=ranges)
    h = ot.histogram_feature(patch, p)
    assert h.sum() == pytest.approx(1.0)
    assert h.max() <= 3.0 * h.mean()


@pytest.mark.parametrize("bins", [8, 32])
def test_histogram_matrix_matches_per_record_histograms(bins, monkeypatch):
    monkeypatch.setattr(ot, "HISTOGRAM_BINS", bins)
    rng = np.random.default_rng(bins)
    ranges = ((0.0, 1.0), (0.1, 0.35), (-0.02, 0.07))
    p = ot.SampleCostParams(1, 1, 1, channel_ranges=ranges)
    patches = np.empty((40, 3, 8, 8))
    for c, (lo, hi) in enumerate(ranges):
        # values below, inside and above the range, exactly on every edge, and NaN
        width = hi - lo
        patches[:, c] = rng.uniform(lo - 0.1 * width, hi + 0.1 * width, size=(40, 8, 8))
        edges = np.histogram_bin_edges(np.empty(0), bins=bins, range=(lo, hi))
        patches[: len(edges), c, 0, 0] = edges
    patches[5, 1, 2, 3] = np.nan  # np.histogram leaves NaN uncounted
    H = ot.histogram_matrix(patches, p)
    assert H.tobytes() == histogram_matrix_reference(patches, p).tobytes()
    assert ot.histogram_feature(patches[3], p).tobytes() == H[3].tobytes()


def test_cost_params_match_per_record_histograms():
    tasks = [make_task("a", 12, seed=1, channels=3), make_task("b", 9, seed=2, channels=3)]
    p = ot.SampleCostParams.from_tasks(tasks)
    patches = np.stack([r.obs for t in tasks for r in t.records])
    flat = patches.reshape(len(patches), 3, -1)
    assert p.channel_ranges == tuple(
        (float(a), float(b)) for a, b in zip(flat.min(axis=(0, 2)), flat.max(axis=(0, 2)))
    )
    ref = histogram_matrix_reference(patches, p)
    assert p.c_image == max(float(np.linalg.norm(h)) for h in ref)


def test_sample_cost_zero_iff_identical(two_tasks, params):
    rec = two_tasks[0].records[0]
    s = (rec.obs, rec.action, rec.reward)
    assert ot.sample_cost(s, s, params) == 0.0


def test_sample_cost_unit_reward_term(two_tasks, params):
    rec = two_tasks[0].records[0]
    s1 = (rec.obs, rec.action, 5.0)
    s2 = (rec.obs, rec.action, 5.0 + params.c_reward)
    assert ot.sample_cost(s1, s2, params) == pytest.approx(1.0)


def test_sample_cost_matches_three_term_recomputation(two_tasks, params):
    r1 = two_tasks[0].records[3]
    r2 = two_tasks[1].records[7]
    got = ot.sample_cost((r1.obs, r1.action, r1.reward), (r2.obs, r2.action, r2.reward), params)
    d_img = np.linalg.norm(
        ot.histogram_feature(r1.obs, params) - ot.histogram_feature(r2.obs, params)
    )
    d_act = np.linalg.norm(r1.action.vector() - r2.action.vector())
    d_rew = abs(r1.reward - r2.reward)
    expected = np.sqrt(
        (d_img / params.c_image) ** 2
        + (d_act / params.c_action) ** 2
        + (d_rew / params.c_reward) ** 2
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_cost_matrix_matches_elementwise_sample_cost(two_tasks, params):
    A, B = two_tasks
    C = ot.cost_matrix(A, B, params)
    for i in (0, 5, 11):
        for j in (0, 8, 14):
            ra, rb = A.records[i], B.records[j]
            expected = ot.sample_cost(
                (ra.obs, ra.action, ra.reward), (rb.obs, rb.action, rb.reward), params
            )
            assert C[i, j] == pytest.approx(expected, abs=1e-12)


def test_sinkhorn_self_divergence_is_zero(two_tasks, params):
    A, _ = two_tasks
    eps = ot.pair_epsilon(ot.cost_matrix(A, A, params))
    assert abs(ot.sinkhorn_divergence(A, A, params, eps)) < 1e-6


def test_sinkhorn_symmetry(two_tasks, params):
    A, B = two_tasks
    eps = ot.pair_epsilon(ot.cost_matrix(A, B, params))
    s_ab = ot.sinkhorn_divergence(A, B, params, eps)
    s_ba = ot.sinkhorn_divergence(B, A, params, eps)
    assert abs(s_ab - s_ba) < 1e-8


def test_sinkhorn_singleton_pair_recovers_sample_cost(params, two_tasks):
    A = TaskDataset("s1", [two_tasks[0].records[0]])
    B = TaskDataset("s2", [two_tasks[1].records[0]])
    rec_a, rec_b = A.records[0], B.records[0]
    cost = ot.sample_cost(
        (rec_a.obs, rec_a.action, rec_a.reward), (rec_b.obs, rec_b.action, rec_b.reward), params
    )
    eps = 1e-3 * np.median(ot.cost_matrix(A, B, params))
    s = ot.sinkhorn_divergence(A, B, params, eps)
    assert abs(s - cost) < 0.05 * cost


def test_sinkhorn_permutation_invariance(two_tasks, params):
    A, B = two_tasks
    eps = ot.pair_epsilon(ot.cost_matrix(A, B, params))
    s1 = ot.sinkhorn_divergence(A, B, params, eps)
    rng = np.random.default_rng(9)
    shuffled = TaskDataset("a2", [A.records[i] for i in rng.permutation(len(A))])
    s2 = ot.sinkhorn_divergence(shuffled, B, params, eps)
    assert s1 == pytest.approx(s2, abs=1e-9)


def test_sinkhorn_grows_with_reward_shift(two_tasks, params):
    A, B = two_tasks
    shifted = TaskDataset(
        "b-shift",
        [ScoopRecord(r.obs, r.action, r.reward + 5.0 * params.c_reward) for r in B.records],
    )
    eps = ot.pair_epsilon(ot.cost_matrix(A, B, params))
    assert ot.sinkhorn_divergence(A, shifted, params, eps) > ot.sinkhorn_divergence(
        A, B, params, eps
    )


def sinkhorn_limits(monkeypatch, max_iter, tol):
    """Every Sinkhorn solve stops after max_iter iterations or at tol."""
    monkeypatch.setattr(ot, "MAX_ITER", max_iter)
    monkeypatch.setattr(ot, "TOL", tol)


def test_sinkhorn_warns_when_not_converged(two_tasks, params, monkeypatch):
    A, B = two_tasks
    eps = ot.pair_epsilon(ot.cost_matrix(A, B, params))
    sinkhorn_limits(monkeypatch, 1, 1e-14)
    with pytest.warns(ot.SinkhornWarning):
        ot.sinkhorn_divergence(A, B, params, eps)


def assert_same_solve(got, want):
    assert got[1] == want[1]
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()


@pytest.fixture(scope="module")
def suite_tasks():
    train, _ = generate_suite(3, 5, 1)
    return [collect_offline(t, n_samples=40, seed=300 + i) for i, t in enumerate(train)]


def test_sinkhorn_matches_reference_on_suite_pairs(suite_tasks):
    params = ot.SampleCostParams.from_tasks(suite_tasks)
    arrays = [ot._task_arrays(t, params) for t in suite_tasks]
    for a in arrays:
        for b in arrays:
            C = ot.cost_matrix_arrays(a, b, params)
            eps = ot.pair_epsilon(C)
            assert_same_solve(
                ot.entropic_transport_cost(C, eps), entropic_transport_cost_reference(C, eps)
            )


@pytest.mark.parametrize("shape", [(30, 30), (12, 45), (45, 12), (1, 7)])
@pytest.mark.parametrize("seed", range(3))
def test_sinkhorn_matches_reference_on_random_costs(shape, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 2.0, size=shape)
    cases = [  # (eps, max_iter, tol)
        (0.2, ot.MAX_ITER, ot.TOL),
        (0.05, ot.MAX_ITER, 1e-9),
        (0.05, 3, 1e-14),  # stops at max_iter
        (1e-4, 40, ot.TOL),  # tiny eps: potentials far above the costs
    ]
    for eps, max_iter, tol in cases:
        want = entropic_transport_cost_reference(C, eps, max_iter, tol)
        sinkhorn_limits(monkeypatch, max_iter, tol)
        assert_same_solve(ot.entropic_transport_cost(C, eps), want)
        assert_same_solve(ot.entropic_transport_cost(C.T, eps), want)
    if min(shape) > 1:  # a single row or column is matched in one iteration
        sinkhorn_limits(monkeypatch, 3, 1e-14)
        assert not ot.entropic_transport_cost(C, 0.05)[1]


@pytest.mark.parametrize("kind", ["suite", "unequal-sizes"])
def test_task_distance_matrix_matches_one_eps_reference(suite_tasks, kind):
    tasks = suite_tasks
    if kind == "unequal-sizes":  # rectangular cross costs of either orientation
        tasks = [make_task(f"u{n}", n, seed=n) for n in (9, 14, 11, 14)]
    params = ot.SampleCostParams.from_tasks(tasks)
    want, want_eps, unconverged = task_distance_matrix_reference(tasks, params)
    assert unconverged == []
    D, eps = ot.task_distance_matrix(tasks, params)
    assert D.tobytes() == want.tobytes()
    assert np.float64(eps).tobytes() == np.float64(want_eps).tobytes()


@pytest.mark.parametrize("M", [2, 5])
def test_task_distance_matrix_solves_each_self_term_once(suite_tasks, monkeypatch, M):
    solve = ot.entropic_transport_cost
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ot, "entropic_transport_cost", counted)
    tasks = suite_tasks[:M]
    ot.task_distance_matrix(tasks, ot.SampleCostParams.from_tasks(tasks))
    assert len(calls) == M * (M - 1) // 2 + M


def test_sinkhorn_divergence_is_the_two_task_matrix(two_tasks, params):
    D, eps = ot.task_distance_matrix(list(two_tasks), params)
    A, B = two_tasks
    assert ot.sinkhorn_divergence(A, B, params, eps) == D[0, 1]


def test_task_distance_matrix_warns_for_an_unconverged_self_term(suite_tasks, monkeypatch):
    tasks = suite_tasks[:3]
    solve = ot.entropic_transport_cost

    def self_terms_fail(C, *args):
        value, converged = solve(C, *args)
        return value, converged and not np.array_equal(C, C.T)  # self costs are symmetric

    monkeypatch.setattr(ot, "entropic_transport_cost", self_terms_fail)
    with pytest.warns(ot.SinkhornWarning) as record:
        ot.task_distance_matrix(tasks, ot.SampleCostParams.from_tasks(tasks))
    assert len(record) == 3  # every pair leans on two failed self-terms


@pytest.fixture(params=["in-process", "worker"])
def distance_path(request, monkeypatch):
    """Two usable CPUs ("worker") or one ("in-process"). Distances used
    to be computed by a forked worker on two; now both compute them in
    this process, and must give the same bits and start no child."""
    cpus = {0, 1} if request.param == "worker" else {0}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    return request.param


def test_distance_rows_match_reference_in_any_order(suite_tasks, distance_path):
    params = ot.SampleCostParams.from_tasks(suite_tasks)
    want, want_eps, _ = task_distance_matrix_reference(suite_tasks, params)
    for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
        D, eps = ot.task_distance_matrix([suite_tasks[i] for i in order], params)
        assert D.tobytes() == want[np.ix_(order, order)].tobytes()
        assert np.float64(eps).tobytes() == np.float64(want_eps).tobytes()
    assert multiprocessing.active_children() == []


def test_distance_rows_warn_in_the_caller(suite_tasks, distance_path, monkeypatch):
    tasks = suite_tasks[:3]
    params = ot.SampleCostParams.from_tasks(tasks)
    _, _, unconverged = task_distance_matrix_reference(tasks, params, max_iter=1)
    assert unconverged
    sinkhorn_limits(monkeypatch, 1, ot.TOL)
    with pytest.warns(ot.SinkhornWarning) as record:
        ot.task_distance_matrix(tasks, params)
    messages = " ".join(str(w.message) for w in record)
    for i, j in unconverged:
        assert f"({tasks[i].task_id}, {tasks[j].task_id})" in messages
    assert multiprocessing.active_children() == []


def test_task_distance_matrix_properties():
    tasks = [make_task(f"t{i}", 10, seed=i) for i in range(4)]
    params = ot.SampleCostParams.from_tasks(tasks)
    D, _ = ot.task_distance_matrix(tasks, params)
    assert np.allclose(D, D.T)
    assert np.all(np.abs(np.diag(D)) <= 1e-6)
    assert np.all(D >= -1e-9)


def test_median_split_basic_cases():
    D = np.array(
        [
            [0.0, 1.0, 2.0, 3.0],
            [1.0, 0.0, 1.5, 2.0],
            [2.0, 1.5, 0.0, 1.0],
            [3.0, 2.0, 1.0, 0.0],
        ]
    )
    plan = ot.median_split([0, 1, 2, 3], 0, D)
    assert plan.mean_task_ids == [0, 1]
    assert plan.kernel_task_ids == [2, 3]
    assert not plan.degenerate

    plan2 = ot.median_split([0, 1], 0, np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert plan2.mean_task_ids == [0]
    assert plan2.kernel_task_ids == [1]


def test_median_split_51_tasks_gives_26_25():
    rng = np.random.default_rng(3)
    d = np.concatenate([[0.0], rng.uniform(0.5, 4.0, size=50)])
    D = np.tile(d, (51, 1))
    plan = ot.median_split(list(range(51)), 0, D)
    assert len(plan.mean_task_ids) == 26
    assert len(plan.kernel_task_ids) == 25
    assert 0 in plan.mean_task_ids


def test_median_split_degenerate_distances_fall_back():
    D = np.zeros((4, 4))
    plan = ot.median_split([0, 1, 2, 3], 2, D)
    assert plan.degenerate
    assert plan.mean_task_ids == [0, 1]
    assert plan.kernel_task_ids == [2, 3]
    # heavy ties at the median: every task is at or below it, so the
    # closest ceil(M/2) go to the mean side, ties by index
    plan = ot.median_split(list(range(5)), 0, np.array([[0.0, 1.0, 1.0, 1.0, 1.0]] * 5))
    assert plan.degenerate
    assert plan.mean_task_ids == [0, 1, 2]
    assert plan.kernel_task_ids == [3, 4]


def test_median_split_count_rule():
    D = np.array([[0.0, 3.0, 1.0, 2.0]] * 4)
    plan = ot.median_split([0, 1, 2, 3], 0, D, rule="count")
    assert plan.mean_task_ids == [0, 2]
    assert plan.kernel_task_ids == [1, 3]
    plan = ot.median_split(list(range(5)), 0, np.array([[0.0, 3.0, 1.0, 2.0, 0.5]] * 5), rule="count")
    assert plan.mean_task_ids == [0, 2, 4]
    assert plan.kernel_task_ids == [1, 3]
    assert not plan.degenerate


def test_half_split_takes_the_first_ceil_half_of_an_ordering():
    assert ot.half_split([3, 0, 4, 1, 2]) == ([0, 3, 4], [1, 2])
    assert ot.half_split(np.array([1, 0])) == ([1], [0])


def test_median_split_needs_two_tasks():
    with pytest.raises(ot.SplitError):
        ot.median_split([0], 0, np.zeros((1, 1)))

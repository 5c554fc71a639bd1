"""Task-to-task distances and the reference-task median split.

Samples are compared with a composite cost over per-channel patch
histograms, the numeric action vector, and the reward, each scaled by a
dataset-wide normalization constant. Task distance is the debiased
entropic-transport divergence under that cost; splits partition tasks
around the median of a reference task's distance row.
"""
from __future__ import annotations

import multiprocessing
import os
import signal
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import TaskDataset
from .model import Observation

DEFAULT_MAX_ITER = 500
DEFAULT_TOL = 1e-6
DEFAULT_EPS_SCALE = 0.05


class SplitError(ValueError):
    """A requested task split cannot be constructed."""


class SinkhornWarning(UserWarning):
    """Sinkhorn iterations hit max_iter before the marginal tolerance."""


@dataclass(frozen=True)
class SampleCostParams:
    """Normalization constants and histogram config for the sample cost.

    Computed once over the whole training database so distances are
    reproducible across runs.
    """

    c_image: float
    c_action: float
    c_reward: float
    histogram_bins: int = 32
    channel_ranges: tuple[tuple[float, float], ...] = ()

    @classmethod
    def from_tasks(cls, tasks: list[TaskDataset], bins: int = 32) -> "SampleCostParams":
        patches = [_task_patches(task) for task in tasks]
        lo = np.min([p.min(axis=(0, 2, 3)) for p in patches], axis=0)
        hi = np.max([p.max(axis=(0, 2, 3)) for p in patches], axis=0)
        ranges = tuple((float(a), float(b if b > a else a + 1e-9)) for a, b in zip(lo, hi))
        partial = cls(1.0, 1.0, 1.0, histogram_bins=bins, channel_ranges=ranges)
        c_img = c_act = c_rew = 0.0
        for task, task_patches in zip(tasks, patches):
            for h in histogram_matrix(task_patches, partial):
                c_img = max(c_img, float(np.linalg.norm(h)))
            for rec in task.records:
                c_act = max(c_act, float(np.linalg.norm(rec.action.vector())))
                c_rew = max(c_rew, abs(float(rec.reward)))
        return cls(
            c_image=max(c_img, 1e-12),
            c_action=max(c_act, 1e-12),
            c_reward=max(c_rew, 1e-12),
            histogram_bins=bins,
            channel_ranges=ranges,
        )

    def to_dict(self) -> dict:
        return {
            "c_image": self.c_image,
            "c_action": self.c_action,
            "c_reward": self.c_reward,
            "histogram_bins": self.histogram_bins,
            "channel_ranges": [list(r) for r in self.channel_ranges],
        }


def _task_patches(task: TaskDataset) -> np.ndarray:
    return np.stack([rec.obs.patch for rec in task.records])


def histogram_matrix(patches: np.ndarray, params: SampleCostParams) -> np.ndarray:
    """Histogram features of n patches (n, C, H, W), one row per patch.

    Each row holds per-channel density histograms over the stored
    channel ranges, concatenated; each channel's block sums to 1. Values
    are clipped into the range, then binned by np.histogram's rule in one
    pass per channel: x falls in bin i when edges[i] <= x < edges[i + 1],
    the last bin is closed, and NaN is not counted.
    """
    n, n_channels = patches.shape[:2]
    if len(params.channel_ranges) != n_channels:
        raise ValueError(
            f"params carry {len(params.channel_ranges)} channel ranges, patch has {n_channels}"
        )
    bins = params.histogram_bins
    values = patches.reshape(n, n_channels, -1)
    row_offsets = np.arange(n)[:, None] * bins
    out = np.empty((n, n_channels * bins))
    for c, (lo, hi) in enumerate(params.channel_ranges):
        edges = np.histogram_bin_edges(np.empty(0), bins=bins, range=(lo, hi))
        clipped = np.clip(values[:, c], lo, hi)
        idx = np.searchsorted(edges, clipped, side="right") - 1
        np.minimum(idx, bins - 1, out=idx)
        idx += row_offsets
        counts = np.bincount(idx[~np.isnan(clipped)], minlength=n * bins)
        out[:, c * bins : (c + 1) * bins] = counts.reshape(n, bins) / values.shape[2]
    return out


def histogram_feature(obs: Observation, params: SampleCostParams) -> np.ndarray:
    """Histogram features of one observation (see histogram_matrix)."""
    return histogram_matrix(obs.patch[None], params)[0]


def sample_cost(s1, s2, params: SampleCostParams) -> float:
    """Composite distance between two (obs, action, reward) samples."""
    o1, a1, r1 = s1
    o2, a2, r2 = s2
    d_img = float(
        np.linalg.norm(histogram_feature(o1, params) - histogram_feature(o2, params))
    )
    d_act = float(np.linalg.norm(a1.vector() - a2.vector()))
    d_rew = abs(float(r1) - float(r2))
    return float(
        np.sqrt(
            (d_img / params.c_image) ** 2
            + (d_act / params.c_action) ** 2
            + (d_rew / params.c_reward) ** 2
        )
    )


def _task_arrays(task: TaskDataset, params: SampleCostParams):
    H = histogram_matrix(_task_patches(task), params)
    A = np.stack([r.action.vector() for r in task.records])
    r = task.rewards
    return H, A, r


def _pairwise_l2(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(Y * Y, axis=1)[None, :]
        - 2.0 * (X @ Y.T)
    )
    return np.sqrt(np.maximum(d2, 0.0))


def cost_matrix_arrays(arrays_a, arrays_b, params: SampleCostParams) -> np.ndarray:
    Ha, Aa, ra = arrays_a
    Hb, Ab, rb = arrays_b
    d_img = _pairwise_l2(Ha, Hb) / params.c_image
    d_act = _pairwise_l2(Aa, Ab) / params.c_action
    d_rew = np.abs(ra[:, None] - rb[None, :]) / params.c_reward
    return np.sqrt(d_img**2 + d_act**2 + d_rew**2)


def cost_matrix(A: TaskDataset, B: TaskDataset, params: SampleCostParams) -> np.ndarray:
    return cost_matrix_arrays(_task_arrays(A, params), _task_arrays(B, params), params)


def _logsumexp_inplace(M: np.ndarray, axis: int) -> np.ndarray:
    """logsumexp of M along axis, by max-shift; overwrites M."""
    m = M.max(axis=axis, keepdims=True)
    M -= m
    np.exp(M, out=M)
    return np.squeeze(m + np.log(M.sum(axis=axis, keepdims=True)), axis=axis)


def entropic_transport_cost(
    C: np.ndarray,
    eps: float,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> tuple[float, bool]:
    """<P, C> under the entropic-optimal plan, by log-domain Sinkhorn.

    Uniform marginals. Returns (cost, converged); iteration stops when
    the row-marginal violation drops below tol in the max norm. The
    matrix is canonicalized in orientation first, so transposed inputs
    produce bit-identical values (the OT value is transpose-invariant).

    Each iteration first tests the row that was worst at the last full
    check, with the full check's arithmetic: while that row is off by
    tol the maximum is too, so the plan is formed in full only when it
    is within tol, and the full check then decides.
    """
    C = np.ascontiguousarray(C, dtype=np.float64)
    Ct = np.ascontiguousarray(C.T)
    if C.shape[0] > C.shape[1] or (
        C.shape[0] == C.shape[1] and C.tobytes() > Ct.tobytes()
    ):
        C = Ct
    n, m = C.shape
    eps = max(float(eps), 1e-12)
    log_mu = np.full(n, -np.log(n))
    log_nu = np.full(m, -np.log(m))
    mu = np.exp(log_mu)
    f = np.zeros(n)
    g = np.zeros(m)
    buf = np.empty((n, m))

    def plan() -> np.ndarray:
        np.add(f[:, None], g, out=buf)
        np.subtract(buf, C, out=buf)
        np.divide(buf, eps, out=buf)
        np.add(buf, log_mu[:, None], out=buf)
        np.add(buf, log_nu, out=buf)
        return np.exp(buf, out=buf)

    worst = 0
    converged = False
    for _ in range(max_iter):
        np.subtract(g, C, out=buf)
        buf /= eps
        buf += log_nu
        f = -eps * _logsumexp_inplace(buf, axis=1)
        np.subtract(f[:, None], C, out=buf)
        buf /= eps
        buf += log_mu[:, None]
        g = -eps * _logsumexp_inplace(buf, axis=0)
        row = np.exp((f[worst] + g - C[worst]) / eps + log_mu[worst] + log_nu)
        if abs(row.sum() - mu[worst]) < tol:
            violation = np.abs(plan().sum(axis=1) - mu)
            worst = int(np.argmax(violation))
            if violation[worst] < tol:
                converged = True
                break
    P = buf if converged else plan()
    P *= C
    return float(np.sum(P)), converged


def pair_epsilon(C_ab: np.ndarray, scale: float = DEFAULT_EPS_SCALE) -> float:
    """Regularization for one task pair: scale times the median cross cost."""
    return max(scale * float(np.median(C_ab)), 1e-12)


def _debiased_divergence(
    C_ab: np.ndarray,
    C_aa: np.ndarray,
    C_bb: np.ndarray,
    eps: float,
    max_iter: int,
    tol: float,
) -> tuple[float, bool]:
    """OT(a,b) - (OT(a,a) + OT(b,b)) / 2 from the three cost matrices at
    one eps, and whether all three solves converged."""
    v_ab, ok_ab = entropic_transport_cost(C_ab, eps, max_iter, tol)
    v_aa, ok_aa = entropic_transport_cost(C_aa, eps, max_iter, tol)
    v_bb, ok_bb = entropic_transport_cost(C_bb, eps, max_iter, tol)
    return v_ab - 0.5 * v_aa - 0.5 * v_bb, ok_ab and ok_aa and ok_bb


def sinkhorn_divergence(
    A: TaskDataset,
    B: TaskDataset,
    params: SampleCostParams,
    eps: float,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> float:
    """Debiased divergence OT(A,B) - (OT(A,A) + OT(B,B)) / 2 at one eps."""
    if not A.records or not B.records:
        raise ValueError("sinkhorn_divergence needs nonempty datasets")
    arrays_a = _task_arrays(A, params)
    arrays_b = _task_arrays(B, params)
    value, converged = _debiased_divergence(
        cost_matrix_arrays(arrays_a, arrays_b, params),
        cost_matrix_arrays(arrays_a, arrays_a, params),
        cost_matrix_arrays(arrays_b, arrays_b, params),
        eps,
        max_iter,
        tol,
    )
    if not converged:
        warnings.warn(
            f"sinkhorn did not reach tol={tol} within {max_iter} iterations "
            f"for pair ({A.task_id}, {B.task_id}); value is partial",
            SinkhornWarning,
        )
    return value


def _worker_usable() -> bool:
    """A worker process pays off only with a second usable CPU."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:  # no affinity API on this platform
        return False


class DistanceRows:
    """The task distance matrix, row by row, the rows in `order` first.

    With at least two usable CPUs and the fork start method, a forked
    worker computes every row in that order while the caller goes on,
    and `wait(i)` blocks only until row i has arrived. Otherwise `wait`
    computes a row in-process when it is first asked for. A pair is
    always solved from its lower task index to its higher, with its own
    eps from the median of its cross-cost matrix (the self terms reuse
    it, so the debiasing is consistent), so the values depend neither
    on the path nor on the order. A pair that did not converge raises
    SinkhornWarning in the caller's process, and a failure in the
    worker is raised there with its own exception type.

    Use it as a context manager: leaving the block stops a worker that
    is still running. The worker exits after its last row and is reaped
    when that row is collected.
    """

    def __init__(
        self,
        tasks: list[TaskDataset],
        params: SampleCostParams,
        order=(),
        eps_scale: float = DEFAULT_EPS_SCALE,
        max_iter: int = DEFAULT_MAX_ITER,
        tol: float = DEFAULT_TOL,
    ):
        self._tasks = tasks
        self._params = params
        self._solve = (eps_scale, max_iter, tol)
        self._arrays = self._self_costs = None  # built in the process that solves
        self._D = np.zeros((len(tasks), len(tasks)))
        self._arrived: set[int] = set()
        self._conn = self._proc = None
        if _worker_usable():
            rows = list(dict.fromkeys([int(i) for i in order] + list(range(len(tasks)))))
            # fork hands the worker the tasks without pickling them; the
            # training runs no threads of its own (BLAS is pinned to one)
            ctx = multiprocessing.get_context("fork")
            self._conn, child_conn = ctx.Pipe(duplex=False)
            self._proc = ctx.Process(target=self._work, args=(rows, child_conn), daemon=True)
            self._proc.start()
            child_conn.close()

    def __enter__(self) -> "DistanceRows":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop and reap the worker if it still runs."""
        if self._proc is not None:
            self._proc.terminate()
            self._proc.join()
            self._proc = None
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def wait(self, i: int) -> np.ndarray:
        """The matrix once row i has arrived. Its row and column i are
        then complete; entries between two rows not yet arrived are 0."""
        while i not in self._arrived:
            if self._proc is None:
                self._accept(i, self._row(i, self._arrived))
            else:
                self._receive()
        # take whatever else has arrived, so a finished worker is reaped
        while self._proc is not None and self._conn.poll():
            self._receive()
        return self._D

    def matrix(self) -> np.ndarray:
        """The full symmetric matrix (diagonal zero)."""
        for i in range(len(self._tasks)):
            self.wait(i)
        return self._D

    def _row(self, i: int, done) -> list[tuple[int, float, bool]]:
        """(j, divergence, converged) for every other task j not in done."""
        if self._arrays is None:
            self._arrays = [_task_arrays(t, self._params) for t in self._tasks]
            self._self_costs = [cost_matrix_arrays(a, a, self._params) for a in self._arrays]
        eps_scale, max_iter, tol = self._solve
        out = []
        for j in range(len(self._tasks)):
            if j == i or j in done:
                continue
            a, b = min(i, j), max(i, j)
            C_ab = cost_matrix_arrays(self._arrays[a], self._arrays[b], self._params)
            value, converged = _debiased_divergence(
                C_ab,
                self._self_costs[a],
                self._self_costs[b],
                pair_epsilon(C_ab, eps_scale),
                max_iter,
                tol,
            )
            out.append((j, value, converged))
        return out

    def _work(self, order: list[int], conn) -> None:
        """The worker: sends ("row", i, pairs) for each row in order, or
        ("error", exception, traceback text) on the first failure."""
        # an interrupt reaches the parent too, which stops this worker
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            for n, i in enumerate(order):
                conn.send(("row", i, self._row(i, order[:n])))
        except Exception as err:
            conn.send(("error", err, traceback.format_exc()))
        finally:
            conn.close()

    def _receive(self) -> None:
        try:
            message = self._conn.recv()
        except EOFError:
            self._proc.join()
            raise RuntimeError(
                f"distance worker exited with code {self._proc.exitcode} before its last row"
            ) from None
        if message[0] == "error":
            _, err, text = message
            self.close()
            raise err from RuntimeError(f"in the distance worker:\n{text}")
        _, i, pairs = message
        self._accept(i, pairs)
        if len(self._arrived) == len(self._tasks):
            self._proc.join()
            self.close()

    def _accept(self, i: int, pairs) -> None:
        for j, value, converged in pairs:
            self._D[i, j] = self._D[j, i] = value
            if not converged:
                a, b = min(i, j), max(i, j)
                warnings.warn(
                    f"sinkhorn did not converge for tasks "
                    f"({self._tasks[a].task_id}, {self._tasks[b].task_id})",
                    SinkhornWarning,
                )
        self._arrived.add(i)


def task_distance_matrix(
    tasks: list[TaskDataset],
    params: SampleCostParams,
    eps_scale: float = DEFAULT_EPS_SCALE,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Symmetric matrix of pairwise task divergences (diagonal is zero);
    see DistanceRows."""
    with DistanceRows(tasks, params, (), eps_scale, max_iter, tol) as rows:
        return rows.matrix()


@dataclass
class SplitPlan:
    """One fold's partition of task indices into mean and kernel sides."""

    fold_index: int
    ref_task: int
    mean_task_ids: list[int]
    kernel_task_ids: list[int]
    split_method: str
    degenerate: bool = False
    material_overlap: int = 0

    def validate(self, n_tasks: int) -> None:
        mean_set = set(self.mean_task_ids)
        kernel_set = set(self.kernel_task_ids)
        if not mean_set or not kernel_set:
            raise SplitError(f"fold {self.fold_index}: empty split side")
        if mean_set & kernel_set:
            raise SplitError(f"fold {self.fold_index}: overlapping splits")
        if mean_set | kernel_set != set(range(n_tasks)):
            raise SplitError(f"fold {self.fold_index}: splits do not cover all tasks")

    def to_dict(self) -> dict:
        return {
            "fold_index": self.fold_index,
            "ref_task": self.ref_task,
            "mean_task_ids": list(self.mean_task_ids),
            "kernel_task_ids": list(self.kernel_task_ids),
            "split_method": self.split_method,
            "degenerate": self.degenerate,
            "material_overlap": self.material_overlap,
        }


def half_split(order) -> tuple[list[int], list[int]]:
    """The first ceil(M/2) task indices of an ordering and the rest, each
    sorted: the mean and kernel sides of a count split."""
    half = (len(order) + 1) // 2
    return sorted(int(i) for i in order[:half]), sorted(int(i) for i in order[half:])


def median_split(
    tasks: list[TaskDataset],
    ref_index: int,
    D: np.ndarray,
    rule: str = "median",
    fold_index: int = 0,
) -> SplitPlan:
    """Tasks at or below the median distance to the reference go to the
    mean side (including the reference itself); the rest feed the kernel.

    rule='count' instead assigns the ceil(M/2) closest tasks to the mean
    side, ties by index, and so does rule='median' when every task sits
    at or below the median (then the plan is marked degenerate, as it is
    when all distances are equal).
    """
    M = len(tasks)
    if M < 2:
        raise SplitError("median_split needs at least 2 tasks")
    if rule not in ("median", "count"):
        raise ValueError(f"unknown split rule {rule!r}")
    d = np.asarray(D)[ref_index]
    degenerate = bool(np.all(d == d[0]))
    if rule == "median" and not degenerate:
        med = float(np.median(d))
        mean_ids = [i for i in range(M) if d[i] <= med]
        kernel_ids = [i for i in range(M) if d[i] > med]
        degenerate = not kernel_ids
    if rule == "count" or degenerate:
        # a stable argsort of all-equal distances is the index order
        mean_ids, kernel_ids = half_split(np.argsort(d, kind="stable"))
    plan = SplitPlan(
        fold_index=fold_index,
        ref_task=ref_index,
        mean_task_ids=mean_ids,
        kernel_task_ids=kernel_ids,
        split_method="ot",
        degenerate=degenerate,
    )
    plan.validate(M)
    return plan

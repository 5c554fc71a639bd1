"""Exact Gaussian-process regression on embedding vectors.

RBF kernel, posterior prediction over residuals, and the negative log
marginal likelihood with its analytic gradient. All hyperparameters are
stored in log space so the exponentiated values stay positive. Every
posterior is a Posterior, whose support grows a row at a time in place,
in buffers that double when full and beside its rows' squared norms, so
deployment never refactorizes or re-copies it; the NLML, and a row whose
pivot is not positive, go through a Cholesky factor with escalating jitter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T

JITTER_START = 1e-8
JITTER_MAX = 1e-4
VARIANCE_FLOOR = 1e-12
LOG_2PI = math.log(2.0 * math.pi)
LOG_MIN = math.log(math.ulp(0.0))
LOG_MAX = math.log(math.nextafter(math.inf, 0.0))


class ConditioningError(RuntimeError):
    """Kernel matrix stayed non-positive-definite after jitter escalation."""


@dataclass
class KernelParams:
    """RBF hyperparameters and observation noise, in log space."""

    log_lengthscale: float = 0.0
    log_outputscale: float = 0.0
    log_noise: float = math.log(0.1)

    @property
    def lengthscale(self) -> float:
        return math.exp(self.log_lengthscale)

    @property
    def outputscale(self) -> float:
        return math.exp(self.log_outputscale)

    @property
    def noise(self) -> float:
        return math.exp(self.log_noise)

    def validate(self) -> None:
        """ValueError for a log value outside [LOG_MIN, LOG_MAX], the range
        where math.exp gives a positive, finite double."""
        for name, v in vars(self).items():
            if not LOG_MIN <= v <= LOG_MAX:
                raise ValueError(f"{name} {v} is outside [{LOG_MIN:.2f}, {LOG_MAX:.2f}], where exp is finite and > 0")


@dataclass
class GPPosterior:
    """Predicted Gaussian over a single query's reward residual."""

    mean: float
    variance: float


def rbf(z1: np.ndarray, z2: np.ndarray, kp: KernelParams) -> float:
    """outputscale * exp(-||z1 - z2||^2 / (2 lengthscale^2))."""
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if z1.shape != z2.shape:
        raise T.ShapeError(f"rbf embedding dims differ: {z1.shape} vs {z2.shape}")
    d2 = float(np.sum((z1 - z2) ** 2))
    return kp.outputscale * math.exp(-d2 / (2.0 * kp.lengthscale**2))


def sq_dists(A: np.ndarray, B: np.ndarray, a2=None, b2=None) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and of B:
    ||a||^2 + ||b||^2 - 2 a.b, clipped against tiny negative round-off.
    a2 and b2 are the rows' squared norms, computed here unless given."""
    a2 = np.sum(A * A, axis=1) if a2 is None else a2
    b2 = np.sum(B * B, axis=1) if b2 is None else b2
    d2 = a2[:, None] + b2[None, :] - 2.0 * (A @ B.T)
    return np.maximum(d2, 0.0)


def gram(Z: np.ndarray, kp: KernelParams) -> np.ndarray:
    """Symmetric kernel matrix with the noise variance on its diagonal.

    Posterior refactorizes it when a new row's pivot is not positive. It
    is not gram_objective's arithmetic (syrk d2, clip at 0, symmetrized)."""
    K = cross_gram(Z, Z, kp)
    return 0.5 * (K + K.T) + (kp.noise**2) * np.eye(len(K))


def cross_gram(Zq: np.ndarray, Zs: np.ndarray, kp: KernelParams, q2=None, s2=None) -> np.ndarray:
    Zq = np.atleast_2d(np.asarray(Zq, dtype=np.float64))
    Zs = np.atleast_2d(np.asarray(Zs, dtype=np.float64))
    d2 = sq_dists(Zq, Zs, q2, s2)
    return kp.outputscale * np.exp(-d2 / (2.0 * kp.lengthscale**2))


def cholesky_with_jitter(Kbar: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor of Kbar, escalating diagonal jitter 1e-8 .. 1e-4."""
    try:
        return np.linalg.cholesky(Kbar), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_START
    eye = np.eye(len(Kbar))
    while jitter <= JITTER_MAX:
        try:
            return np.linalg.cholesky(Kbar + jitter * eye), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise ConditioningError(
        f"kernel matrix (n={len(Kbar)}) not positive definite at jitter {JITTER_MAX}"
    )


def posterior(
    support_Z: np.ndarray,
    residuals: np.ndarray,
    query_z: np.ndarray,
    kp: KernelParams,
) -> GPPosterior:
    """Gaussian posterior over the residual at one query embedding.

    n = 0 returns the prior: mean 0, variance k(q,q) + noise^2.
    """
    means, variances = posterior_batch(support_Z, residuals, np.atleast_2d(query_z), kp).predict()
    return GPPosterior(mean=float(means[0]), variance=float(variances[0]))


def posterior_batch(support_Z: np.ndarray, residuals, query_Z: np.ndarray, kp: KernelParams) -> "Posterior":
    """The Posterior of query embeddings given support rows and their
    residuals, grown one row at a time."""
    post = Posterior(kp, query_Z)
    for z, y in zip(np.atleast_2d(support_Z), np.ravel(residuals)):
        post.grow(z, y)
    return post


class Posterior:
    """GP posterior of the residuals at query embeddings Zq given a support (Z, y)
    grown a row at a time (GPML Alg. 2.1, by rows). It keeps the inverse Cholesky
    factor Q (Q Kbar Q^T = I), w = Q y, V = Q K(Z, Zq), the means V^T w and V's
    column sums of squares, so a row costs matrix-vector products. A pivot that is
    not positive refactors the support through cholesky_with_jitter, whose jitter
    stays on each later row's diagonal: a larger support holds the same block.
    Z, y, w, V, Q and the rows' squared norms live in buffers that double when
    full; each attribute is a view of the first n rows (and columns) of its own."""

    Z = property(lambda self: self._Z[: self.n])
    y = property(lambda self: self._y[: self.n])
    w = property(lambda self: self._w[: self.n])
    V = property(lambda self: self._V[: self.n])
    Q = property(lambda self: self._Q[: self.n, : self.n])

    def __init__(self, kp: KernelParams, query_Z: np.ndarray):
        self.kp, self.jitter, self.n = kp, 0.0, 0
        self._Z, self._z2 = np.empty((1, np.shape(query_Z)[-1])), np.empty(1)
        self._y, self._w, self._Q = np.empty(1), np.empty(1), np.zeros((1, 1))
        self.project(query_Z)

    def project(self, query_Z: np.ndarray) -> None:
        """Condition new query embeddings on the same support."""
        self.Zq = np.atleast_2d(np.asarray(query_Z, dtype=np.float64))
        self._q2 = np.sum(self.Zq * self.Zq, axis=1)
        self._V = np.empty((len(self._y), len(self.Zq)))
        self._V[: self.n] = self.Q @ cross_gram(self.Z, self.Zq, self.kp, self._z2[: self.n], self._q2)
        self.means, self.sumsq = self.V.T @ self.w, np.sum(self.V * self.V, axis=0)

    def grow(self, z: np.ndarray, y: float) -> None:
        """Add a support row: embedding z with residual y."""
        n, kp = self.n, self.kp
        z = np.asarray(z, dtype=np.float64).reshape(1, -1)
        z2 = np.sum(z * z, axis=1)
        row = self.Q @ cross_gram(self.Z, z, kp, self._z2[:n], z2)[:, 0]  # the new row of the factor
        pivot = kp.outputscale + kp.noise**2 + self.jitter - row @ row
        if n == len(self._y):  # full: double every buffer
            self._Z, self._z2, self._y, self._w, self._V = (
                np.concatenate([a, np.empty_like(a)]) for a in (self._Z, self._z2, self._y, self._w, self._V)
            )
            self._Q = np.pad(self._Q, (0, n))
        self._Z[n], self._z2[n], self._y[n] = z[0], z2[0], y
        if pivot > 0.0:
            d = math.sqrt(pivot)
            self._Q[n, :n], self._Q[n, n] = -(row @ self.Q) / d, 1.0 / d
            w, v = (y - row @ self.w) / d, (cross_gram(z, self.Zq, kp, z2, self._q2)[0] - row @ self.V) / d
            self._w[n], self._V[n], self.n = w, v, n + 1
            self.means, self.sumsq = self.means + w * v, self.sumsq + v * v
        else:  # NaN too
            self.n = n + 1
            L, self.jitter = cholesky_with_jitter(gram(self.Z, kp))
            Q = np.linalg.inv(L)
            self._Q[: n + 1, : n + 1], self._w[: n + 1] = Q, Q @ self.y
            self.project(self.Zq)

    def predict(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances at the query embeddings; the
        prior, mean 0 and variance k(q,q) + noise^2, for an empty support."""
        if not len(self.y):
            return np.zeros(len(self.Zq)), np.full(len(self.Zq), self.kp.outputscale + self.kp.noise**2)
        return self.means, np.maximum(self.kp.outputscale - self.sumsq, VARIANCE_FLOOR)


# --- differentiable path -------------------------------------------------
#
# The noisy kernel matrix and the NLML are one tape op each, with their
# gradients written out: the NLML's matrix gradient is the analytic
# 0.5 (Kbar^-1 - alpha alpha^T), which avoids differentiating through the
# Cholesky factorization.


def gram_objective(
    Z: T.Tensor,
    log_lengthscale: T.Tensor,
    log_outputscale: T.Tensor,
    log_noise: T.Tensor,
) -> T.Tensor:
    """Noisy kernel matrix on the tape, built from an (n, d) embedding tensor.

    Its output and gradients equal, bit for bit, those of the op-by-op
    oracle in tests/helpers.py, which keeps trained weights stable. That
    takes Zd @ ZT on a copied transpose (Zd @ Zd.T is routed to syrk), the
    row sums of the backward as products with a ones column (np.sum adds
    in another order), and Z's gradient summed in the oracle's order."""
    n = Z.shape[0]
    Zd = Z.data
    ZT = Zd.T.copy()
    sq = (Zd * Zd).sum(axis=1)[:, None]
    d2 = (sq + sq.T) - (Zd @ ZT) * 2.0
    ell = np.exp(log_lengthscale.data)
    two_l2 = (ell * ell) * 2.0
    E = np.exp(-(d2 / two_l2))
    outputscale = np.exp(log_outputscale.data)
    noise = np.exp(log_noise.data)
    eye = np.eye(n)
    Kbar = E * outputscale + eye * (noise * noise)

    def backward_fn(g):
        # Kbar = exp(-q) outputscale + noise^2 I, q = d2 / two_l2
        g_q = -((g * outputscale) * E)
        g_d2 = g_q / two_l2
        g_two_l2 = ((-g_q) * d2 / (two_l2 * two_l2)).sum()
        g_ell = 2.0 * ell * (g_two_l2 * 2.0)
        g_noise = 2.0 * noise * (g * eye).sum()
        g_cross = (-g_d2) * 2.0
        g_sq = (g_d2 + g_d2.T) @ np.ones((n, 1))
        gZ = (g_cross @ ZT.T + (Zd.T @ g_cross).T) + 2.0 * Zd * g_sq
        return gZ, g_ell * ell, (g * E).sum() * outputscale, g_noise * noise

    return T.custom_op(Kbar, (Z, log_lengthscale, log_outputscale, log_noise), backward_fn)


def nlml_objective(Kbar: T.Tensor, residuals: T.Tensor) -> T.Tensor:
    """Scalar NLML with analytic gradients w.r.t. Kbar and the residuals."""
    n = Kbar.shape[0]
    y = residuals.data.reshape(n)
    L, _ = cholesky_with_jitter(Kbar.data)
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    value = (
        float(np.sum(np.log(np.diag(L))))
        + 0.5 * float(y @ alpha)
        + 0.5 * n * LOG_2PI
    )
    resid_shape = residuals.shape

    def backward_fn(g):
        gs = float(g.reshape(()))
        eye = np.eye(n)
        Kinv = np.linalg.solve(L.T, np.linalg.solve(L, eye))
        gK = 0.5 * gs * (Kinv - np.outer(alpha, alpha))
        gy = (gs * alpha).reshape(resid_shape)
        return gK, gy

    return T.custom_op(np.asarray(value), (Kbar, residuals), backward_fn)

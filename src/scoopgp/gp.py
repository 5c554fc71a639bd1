"""Exact Gaussian-process regression on embedding vectors.

RBF kernel, posterior prediction over residuals, and the negative log
marginal likelihood with its analytic gradient. All hyperparameters are
stored in log space so the exponentiated values stay positive. Solves
go through a Cholesky factor with an escalating jitter fallback.
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
        for name in ("log_lengthscale", "log_outputscale", "log_noise"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        for name in ("lengthscale", "outputscale", "noise"):
            v = getattr(self, name)
            if not (0.0 < v < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {v}")

    @classmethod
    def from_dict(cls, d: dict) -> "KernelParams":
        return cls(d["log_lengthscale"], d["log_outputscale"], d["log_noise"])


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


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # ||a||^2 + ||b||^2 - 2 a.b, clipped against tiny negative round-off
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    d2 = a2 + b2 - 2.0 * (A @ B.T)
    return np.maximum(d2, 0.0)


def gram(Z: np.ndarray, kp: KernelParams, with_noise: bool = False) -> np.ndarray:
    """Symmetric PSD kernel matrix; noise variance on the diagonal if asked."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    d2 = _sq_dists(Z, Z)
    K = kp.outputscale * np.exp(-d2 / (2.0 * kp.lengthscale**2))
    K = 0.5 * (K + K.T)
    if with_noise:
        K = K + (kp.noise**2) * np.eye(len(Z))
    return K


def cross_gram(Zq: np.ndarray, Zs: np.ndarray, kp: KernelParams) -> np.ndarray:
    Zq = np.atleast_2d(np.asarray(Zq, dtype=np.float64))
    Zs = np.atleast_2d(np.asarray(Zs, dtype=np.float64))
    d2 = _sq_dists(Zq, Zs)
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
    means, variances = posterior_batch(support_Z, residuals, np.atleast_2d(query_z), kp)
    return GPPosterior(mean=float(means[0]), variance=float(variances[0]))


def posterior_batch(
    support_Z: np.ndarray,
    residuals: np.ndarray,
    query_Z: np.ndarray,
    kp: KernelParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances for a batch of query embeddings."""
    query_Z = np.atleast_2d(np.asarray(query_Z, dtype=np.float64))
    m = len(query_Z)
    if support_Z is None or np.size(support_Z) == 0:
        prior = kp.outputscale + kp.noise**2
        return np.zeros(m), np.full(m, prior)
    support_Z = np.atleast_2d(np.asarray(support_Z, dtype=np.float64))
    n = len(support_Z)
    y = np.asarray(residuals, dtype=np.float64).reshape(n)
    Kbar = gram(support_Z, kp, with_noise=True)
    L, _ = cholesky_with_jitter(Kbar)
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    Kqs = cross_gram(query_Z, support_Z, kp)
    means = Kqs @ alpha
    V = np.linalg.solve(L, Kqs.T)
    variances = kp.outputscale - np.sum(V * V, axis=0)
    return means, np.maximum(variances, VARIANCE_FLOOR)


# --- differentiable path -------------------------------------------------
#
# The kernel matrix is assembled from tensor ops so gradients reach the
# embeddings and the log hyperparameters; the NLML itself is a custom op
# with the analytic matrix gradient 0.5 (Kbar^-1 - alpha alpha^T), which
# avoids differentiating through the Cholesky factorization.


def gram_objective(
    Z: T.Tensor,
    log_lengthscale: T.Tensor,
    log_outputscale: T.Tensor,
    log_noise: T.Tensor,
) -> T.Tensor:
    """Noisy kernel matrix on the tape, built from an (n, d) embedding tensor."""
    n = Z.shape[0]
    sqn = T.reshape(T.reduce("sum", T.square(Z), axis=1), (n, 1))
    ones_row = T.Tensor(np.ones((1, n)))
    t1 = T.matmul(sqn, ones_row)
    cross = T.matmul(Z, T.transpose(Z))
    d2 = T.sub(T.add(t1, T.transpose(t1)), T.mul(cross, T.Tensor(2.0)))
    two_l2 = T.mul(T.square(T.exp(log_lengthscale)), T.Tensor(2.0))
    K = T.mul(T.exp(T.negate(T.div(d2, two_l2))), T.exp(log_outputscale))
    noise_var = T.square(T.exp(log_noise))
    return T.add(K, T.mul(T.Tensor(np.eye(n)), noise_var))


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

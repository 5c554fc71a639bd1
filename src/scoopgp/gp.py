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


def sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and of B:
    ||a||^2 + ||b||^2 - 2 a.b, clipped against tiny negative round-off."""
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    d2 = a2 + b2 - 2.0 * (A @ B.T)
    return np.maximum(d2, 0.0)


def gram(Z: np.ndarray, kp: KernelParams) -> np.ndarray:
    """Symmetric kernel matrix with the noise variance on its diagonal.

    This is not gram_objective's arithmetic: the evaluation artifacts'
    bytes depend on this syrk d2, its clip at 0 and the symmetrization."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    d2 = sq_dists(Z, Z)
    K = kp.outputscale * np.exp(-d2 / (2.0 * kp.lengthscale**2))
    K = 0.5 * (K + K.T)
    return K + (kp.noise**2) * np.eye(len(Z))


def cross_gram(Zq: np.ndarray, Zs: np.ndarray, kp: KernelParams) -> np.ndarray:
    Zq = np.atleast_2d(np.asarray(Zq, dtype=np.float64))
    Zs = np.atleast_2d(np.asarray(Zs, dtype=np.float64))
    d2 = sq_dists(Zq, Zs)
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
    if np.size(support_Z) == 0:
        prior = kp.outputscale + kp.noise**2
        return np.zeros(m), np.full(m, prior)
    support_Z = np.atleast_2d(np.asarray(support_Z, dtype=np.float64))
    n = len(support_Z)
    y = np.asarray(residuals, dtype=np.float64).reshape(n)
    Kbar = gram(support_Z, kp)
    L, _ = cholesky_with_jitter(Kbar)
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    Kqs = cross_gram(query_Z, support_Z, kp)
    means = Kqs @ alpha
    V = np.linalg.solve(L, Kqs.T)
    variances = kp.outputscale - np.sum(V * V, axis=0)
    return means, np.maximum(variances, VARIANCE_FLOOR)


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

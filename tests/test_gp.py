import math

import numpy as np
import pytest
from helpers import gram_objective_reference, nlml_reference, nlml_terms_reference, rbf_gram_reference

from scoopgp import gp
from scoopgp import tensor as T
from scoopgp.model import record_dict


def brute_posterior(Z, y, q, kp):
    """Oracle: explicit matrix inverse instead of Cholesky solves."""
    n = len(Z)
    K = np.array([[gp.rbf(Z[i], Z[j], kp) for j in range(n)] for i in range(n)])
    Kbar = K + (kp.noise**2) * np.eye(n)
    k = np.array([gp.rbf(q, Z[i], kp) for i in range(n)])
    Kinv = np.linalg.inv(Kbar)
    mean = k @ Kinv @ y
    var = gp.rbf(q, q, kp) - k @ Kinv @ k
    return mean, max(var, gp.VARIANCE_FLOOR)


def test_rbf_values():
    kp = gp.KernelParams()
    z = np.array([0.3, -1.2])
    assert gp.rbf(z, z, kp) == pytest.approx(1.0)
    assert gp.rbf(np.array([0.0]), np.array([50.0]), kp) == pytest.approx(0.0, abs=1e-12)
    assert gp.rbf(np.array([0.0]), np.array([1.0]), kp) == pytest.approx(math.exp(-0.5))


def test_rbf_dim_mismatch():
    with pytest.raises(T.ShapeError):
        gp.rbf(np.array([0.0]), np.array([0.0, 1.0]), gp.KernelParams())


def test_gram_small_cases():
    kp = gp.KernelParams()
    K = gp.gram(np.array([[0.5]]), kp)
    assert np.allclose(K, [[1.0 + kp.noise**2]])
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(3, 4))
    K = gp.gram(Z, kp)
    oracle = rbf_gram_reference(Z, kp) + kp.noise**2 * np.eye(3)
    assert np.allclose(K, oracle, atol=1e-12)
    assert np.allclose(K, K.T)


def test_gram_psd_on_random_instances():
    kp = gp.KernelParams(log_lengthscale=math.log(0.7))
    rng = np.random.default_rng(3)
    for _ in range(20):
        Z = rng.normal(size=(rng.integers(2, 9), 5))
        eig = np.linalg.eigvalsh(gp.gram(Z, kp))
        assert eig.min() >= kp.noise**2 - 1e-10


def test_posterior_prior_case():
    kp = gp.KernelParams()
    post = gp.posterior(np.zeros((0, 2)), np.zeros(0), np.array([0.1, 0.2]), kp)
    assert post.mean == 0.0
    assert post.variance == pytest.approx(1.01)


def test_posterior_interpolation_limit():
    kp = gp.KernelParams(log_noise=math.log(1e-6))
    z = np.array([[0.4, -0.2]])
    post = gp.posterior(z, np.array([2.5]), z[0], kp)
    assert post.mean == pytest.approx(2.5, abs=1e-5)
    assert post.variance == pytest.approx(0.0, abs=1e-5)


def test_posterior_matches_inverse_oracle():
    kp = gp.KernelParams(log_lengthscale=math.log(0.8), log_outputscale=math.log(1.7))
    rng = np.random.default_rng(11)
    Z = rng.normal(size=(3, 4))
    y = rng.normal(size=3)
    q = rng.normal(size=4)
    post = gp.posterior(Z, y, q, kp)
    mean, var = brute_posterior(Z, y, q, kp)
    assert abs(post.mean - mean) < 1e-8
    assert abs(post.variance - var) < 1e-8


def test_posterior_variance_nonincreasing_in_support():
    kp = gp.KernelParams()
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        Z = rng.normal(size=(n, 3))
        y = rng.normal(size=n)
        q = rng.normal(size=3)
        variances = [
            gp.posterior(Z[:k], y[:k], q, kp).variance for k in range(n + 1)
        ]
        for a, b in zip(variances, variances[1:]):
            assert b <= a + 1e-9


def test_nlml_known_value_and_decomposition():
    # one support point, zero residual, K + noise^2 = 1
    kp = gp.KernelParams(
        log_outputscale=math.log(0.99), log_noise=0.5 * math.log(0.01)
    )
    Z = np.array([[0.0]])
    y = np.array([0.0])
    assert nlml_reference(Z, y, kp) == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-9)
    c, d, k = nlml_terms_reference(Z, y, kp)
    assert nlml_reference(Z, y, kp) == pytest.approx(c + d + k)
    assert c == pytest.approx(0.0, abs=1e-9)
    assert d == 0.0


def test_nlml_data_fit_grows_with_residual_scale():
    kp = gp.KernelParams()
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(5, 3))
    y = rng.normal(size=5)
    _, fit1, _ = nlml_terms_reference(Z, y, kp)
    _, fit2, _ = nlml_terms_reference(Z, 3.0 * y, kp)
    assert fit2 > fit1


def grad_via_tape(Z, y, kp):
    log_l = T.Tensor(kp.log_lengthscale, requires_grad=True)
    log_os = T.Tensor(kp.log_outputscale, requires_grad=True)
    log_n = T.Tensor(kp.log_noise, requires_grad=True)
    Zt = T.Tensor(Z, requires_grad=True)
    with T.Tape() as tape:
        Kbar = gp.gram_objective(Zt, log_l, log_os, log_n)
        loss = gp.nlml_objective(Kbar, T.Tensor(y.reshape(-1, 1)))
        tape.backward(loss)
    return loss.item(), log_l.grad, log_os.grad, log_n.grad, Zt.grad


def test_nlml_tape_matches_plain_value():
    kp = gp.KernelParams(log_lengthscale=0.2, log_outputscale=-0.1)
    rng = np.random.default_rng(2)
    Z = rng.normal(size=(6, 3))
    y = rng.normal(size=6)
    val, *_ = grad_via_tape(Z, y, kp)
    assert val == pytest.approx(nlml_reference(Z, y, kp), abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_nlml_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(5, 3))
    y = rng.normal(size=5)
    kp = gp.KernelParams(
        log_lengthscale=float(rng.normal(scale=0.3)),
        log_outputscale=float(rng.normal(scale=0.3)),
        log_noise=math.log(0.3),
    )
    _, g_l, g_os, g_n, g_Z = grad_via_tape(Z, y, kp)
    h = 1e-5

    def fd(param):
        lo = gp.KernelParams(**{**record_dict(kp), param: getattr(kp, param) - h})
        hi = gp.KernelParams(**{**record_dict(kp), param: getattr(kp, param) + h})
        return (nlml_reference(Z, y, hi) - nlml_reference(Z, y, lo)) / (2 * h)

    for g, param in ((g_l, "log_lengthscale"), (g_os, "log_outputscale"), (g_n, "log_noise")):
        ref = fd(param)
        assert abs(float(g.reshape(())) - ref) / max(abs(ref), 1e-6) < 1e-4

    fd_Z = np.zeros_like(Z)
    for i in range(Z.shape[0]):
        for j in range(Z.shape[1]):
            Zp, Zm = Z.copy(), Z.copy()
            Zp[i, j] += h
            Zm[i, j] -= h
            fd_Z[i, j] = (nlml_reference(Zp, y, kp) - nlml_reference(Zm, y, kp)) / (2 * h)
    denom = np.maximum(np.abs(fd_Z), 1e-6)
    assert np.max(np.abs(g_Z - fd_Z) / denom) < 1e-4


@pytest.mark.parametrize("n", [1, 2, 37, 100])
def test_fused_gram_objective_matches_op_by_op_oracle(n):
    """The one-op Gram matrix has the bytes of the 22-op composition in its
    output and in the gradient of the embeddings and of each log
    hyperparameter."""
    rng = np.random.default_rng(n)
    Z0 = rng.normal(size=(n, 16)) / 4.0
    kp0 = rng.normal(scale=0.3, size=3)
    y = T.Tensor(rng.normal(size=(n, 1)))

    def run(gram):
        Z = T.Tensor(Z0, requires_grad=True)
        kp = [T.Tensor(v, requires_grad=True) for v in kp0]
        with T.Tape() as tape:
            Kbar = gram(Z, *kp)
            tape.backward(gp.nlml_objective(Kbar, y))
        return [Kbar.data.tobytes()] + [t.grad.tobytes() for t in (Z, *kp)]

    assert run(gp.gram_objective) == run(gram_objective_reference)


def test_jitter_escalation_and_conditioning_error():
    # identical embeddings with zero-ish noise force jitter
    Z = np.zeros((4, 2))
    Kbar = rbf_gram_reference(Z, gp.KernelParams())
    L, jitter = gp.cholesky_with_jitter(Kbar)
    assert jitter > 0.0
    assert np.allclose(L @ L.T, Kbar + jitter * np.eye(4), atol=1e-8)
    with pytest.raises(gp.ConditioningError):
        gp.cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_kernel_params_validate():
    gp.KernelParams().validate()
    with pytest.raises(ValueError):
        gp.KernelParams(log_lengthscale=math.inf).validate()

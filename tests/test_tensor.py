import ast
import zlib
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    add,
    adam_step_reference,
    div,
    exp,
    log,
    matmul,
    mean,
    mul,
    negate,
    relu,
    reshape,
    square,
    sum_all,
    sum_rows,
    transpose,
)

from scoopgp import tensor as T


def numeric_grad(f, x, h=1e-5):
    """Central finite differences of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return g


# matmul, add, mul, div, exp, log, negate, transpose, reshape, square,
# sum_rows, sum_all and mean below are the tests/helpers.py oracle ops that
# the fused gram_objective, soft_normalize and mean-head loss must match
# byte for byte; they are checked here so that a byte match means a
# correct gradient.


def test_matmul_identity():
    a = T.Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(matmul(a, b).data, b.data)


def test_matmul_hand_value():
    out = matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_error():
    # dense is the tape's own matrix product
    one = T.Tensor([[1.0, 2.0]])
    with pytest.raises(T.ShapeError):
        T.dense(one, one, T.Tensor([[0.0, 0.0]]), relu=False)


def test_matmul_gradient_matches_spec_value():
    # d sum(A @ B) / dA at A=[[1,2]], B=[[3],[4]] is [[3, 4]]
    a = T.Tensor([[1.0, 2.0]], requires_grad=True)
    b = T.Tensor([[3.0], [4.0]])
    with T.Tape() as tape:
        loss = sum_all(matmul(a, b))
        tape.backward(loss)
    assert np.allclose(a.grad, [[3.0, 4.0]])

    def f(x):
        return float(np.sum(x @ b.data))

    fd = numeric_grad(f, a.data.copy(), h=1e-6)
    assert np.allclose(a.grad, fd, rtol=1e-4)


def test_relu_exp_values():
    assert relu(T.Tensor([-1.0, 0.0, 2.0])).data.tolist() == [0.0, 0.0, 2.0]
    assert exp(T.Tensor([0.0])).data.tolist() == [1.0]


def test_square_gradient():
    x = T.Tensor([3.0], requires_grad=True)
    with T.Tape() as tape:
        tape.backward(sum_all(square(x)))
    assert x.grad.tolist() == [6.0]


def test_reduce_values_and_mean_grad():
    assert sum_all(T.Tensor([[1.0, 2.0], [3.0, 4.0]])).item() == 10.0
    assert mean(T.Tensor([2.0, 4.0])).item() == 3.0
    x = T.Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
    with T.Tape() as tape:
        tape.backward(mean(x))
    assert np.allclose(x.grad, [0.25, 0.25, 0.25, 0.25])


def test_binary_shape_and_domain_errors():
    # sub broadcasts nothing, a scalar operand included
    for other in ([1.0, 2.0, 3.0], 1.0):
        with pytest.raises(T.ShapeError):
            T.sub(T.Tensor([1.0, 2.0]), T.Tensor(other))


def test_scalar_broadcast_grad():
    x = T.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    c = T.Tensor(3.0, requires_grad=True)
    with T.Tape() as tape:
        tape.backward(sum_all(mul(x, c)))
    assert np.allclose(x.grad, 3.0)
    assert np.allclose(c.grad, 10.0)


@pytest.mark.parametrize("seed", range(4))
def test_gradcheck_composite_expression(seed):
    # chained elementwise + matmul + reductions against central differences
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, 4))
    B = rng.normal(size=(4, 2))

    with T.Tape() as tape:
        a2 = T.Tensor(A, requires_grad=True)
        h = relu(matmul(a2, T.Tensor(B)))
        h = add(square(h), exp(mul(h, T.Tensor(0.3))))
        tape.backward(mean(h))

    def f(x):
        h = np.maximum(x @ B, 0.0)
        return float(np.mean(h * h + np.exp(0.3 * h)))

    fd = numeric_grad(f, A.copy())
    denom = np.maximum(np.abs(fd), 1e-6)
    assert np.max(np.abs(a2.grad - fd) / denom) < 1e-4


@pytest.mark.parametrize(
    "name",
    ["add", "sub", "mul", "div", "exp", "log", "relu", "square", "negate",
     "matmul", "dense", "transpose", "reshape", "sum", "sum_axis", "mean"],
)
def test_per_op_gradcheck(name):
    # a fixed seed per name: str hashes change from process to process
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    A = rng.uniform(0.5, 2.0, size=(3, 4))  # positive: log/div-safe
    B = rng.uniform(0.5, 2.0, size=(3, 4))

    def apply(a, b):
        ops = {
            "add": lambda: add(a, b),
            "sub": lambda: T.sub(a, b),
            "mul": lambda: mul(a, b),
            "div": lambda: div(a, b),
            "exp": lambda: exp(a),
            "log": lambda: log(a),
            "relu": lambda: relu(T.sub(a, T.Tensor(np.full((3, 4), 1.2)))),
            "square": lambda: square(a),
            "negate": lambda: negate(a),
            "matmul": lambda: matmul(a, transpose(b)),
            "dense": lambda: square(T.dense(a, T.Tensor(B.T), T.Tensor(B[:1, :3]), relu=False)),
            "transpose": lambda: square(transpose(a)),
            "reshape": lambda: square(reshape(a, (4, 3))),
            "sum": lambda: sum_all(a),
            "sum_axis": lambda: square(sum_rows(a)),
            "mean": lambda: mean(a),
        }
        return sum_all(ops[name]())

    a = T.Tensor(A, requires_grad=True)
    b = T.Tensor(B, requires_grad=True)
    with T.Tape() as tape:
        tape.backward(apply(a, b))

    def f(x):
        return apply(T.Tensor(x), T.Tensor(B)).item()

    fd = numeric_grad(f, A.copy())
    denom = np.maximum(np.abs(fd), 1e-6)
    assert np.max(np.abs(a.grad - fd) / denom) < 1e-4


def test_tape_backward_twice_is_error():
    x = T.Tensor([1.0], requires_grad=True)
    with T.Tape() as tape:
        loss = sum_all(square(x))
        tape.backward(loss)
        with pytest.raises(T.TapeError):
            tape.backward(loss)


def test_tape_does_not_nest():
    with T.Tape():
        with pytest.raises(T.TapeError):
            with T.Tape():
                pass


def test_no_tape_records_nothing():
    x = T.Tensor([1.0], requires_grad=True)
    y = square(x)
    assert y.grad is None and not y._on_tape


def test_adam_first_step_magnitude():
    for g0 in (0.5, 3.0, 1e-4):
        p = T.Tensor([1.0], name="w")
        st = T.AdamState()
        T.adam_step([p], [np.array([g0])], st, lr=5e-3)
        # first Adam step is ~lr regardless of gradient magnitude
        assert abs(abs(1.0 - p.data[0]) - 5e-3) < 5e-5
        assert p.data[0] < 1.0


def test_adam_zero_gradient_keeps_params():
    p = T.Tensor([1.0, 2.0])
    st = T.AdamState()
    for _ in range(10):
        T.adam_step([p], [np.zeros(2)], st, lr=1e-2)
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adam_nan_gradient_reports_name():
    p = T.Tensor([1.0], name="mean.out.w")
    with pytest.raises(T.OptimizerError, match="mean.out.w"):
        T.adam_step([p], [np.array([np.nan])], T.AdamState(), lr=1e-2)


def _adam_problem(seed):
    """Parameters of the shapes Adam meets in training (a weight, a bias
    row and a 0-d hyperparameter) and a gradient sequence for them."""
    rng = np.random.default_rng(seed)
    shapes = [(5, 3), (1, 3), ()]
    params = [
        T.Tensor(rng.normal(size=s), name=f"p{i}") for i, s in enumerate(shapes)
    ]
    grads = [[rng.normal(scale=10.0 ** rng.integers(-4, 2), size=s) for s in shapes]
             for _ in range(6)]
    return params, grads


@pytest.mark.parametrize("seed", range(3))
def test_flat_adam_matches_per_parameter_reference(seed):
    params, grads = _adam_problem(seed)
    ref_params, _ = _adam_problem(seed)
    state, ref_state = T.AdamState(), T.AdamState()
    for step_grads in grads:
        T.adam_step(params, step_grads, state, lr=1e-2)
        adam_step_reference(ref_params, step_grads, ref_state, lr=1e-2)
    assert state.step == ref_state.step == len(grads)
    start = 0
    for p, rp, m, v in zip(params, ref_params, ref_state.m, ref_state.v):
        assert p.data.shape == rp.data.shape
        assert p.data.tobytes() == rp.data.tobytes()
        stop = start + p.size
        assert state.m[start:stop].tobytes() == np.asarray(m).tobytes()
        assert state.v[start:stop].tobytes() == np.asarray(v).tobytes()
        start = stop


def test_adam_nan_in_last_parameter_writes_nothing():
    params, grads = _adam_problem(0)
    state = T.AdamState()
    for step_grads in grads[:2]:
        T.adam_step(params, step_grads, state, lr=1e-2)
    data_before = [p.data.tobytes() for p in params]
    m_before, v_before = state.m.tobytes(), state.v.tobytes()
    bad = grads[2][:-1] + [np.asarray(np.nan)]
    with pytest.raises(T.OptimizerError, match="p2"):
        T.adam_step(params, bad, state, lr=1e-2)
    assert state.step == 2
    assert [p.data.tobytes() for p in params] == data_before
    assert (state.m.tobytes(), state.v.tobytes()) == (m_before, v_before)


def test_adam_rejects_misshapen_gradient():
    p = T.Tensor(np.zeros((2, 3)), name="w")
    with pytest.raises(T.OptimizerError, match="w"):
        T.adam_step([p], [np.zeros(6)], T.AdamState(), lr=1e-2)


def test_constant_operand_gets_no_gradient():
    # an op whose inputs are all constants is not recorded: the constant
    # gets no gradient, and the tracked operand's gradient bytes do not
    # depend on whether the constant was tracked
    rng = np.random.default_rng(3)
    A, B = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))

    def run(a_requires_grad):
        a = T.Tensor(A, requires_grad=a_requires_grad)
        b = T.Tensor(B, requires_grad=True)
        with T.Tape() as tape:
            tape.backward(sum_all(square(T.sub(square(a), b))))
        return a.grad, b.grad, len(tape._records)

    a_grad, b_grad, n_ops = run(False)
    assert a_grad is None and n_ops == 3
    a_grad_tracked, b_grad_tracked, n_ops_tracked = run(True)
    assert a_grad_tracked is not None and n_ops_tracked == 4
    assert b_grad.tobytes() == b_grad_tracked.tobytes()


def test_dense_constant_input_gets_no_gradient():
    rng = np.random.default_rng(4)
    H, W, b0 = rng.normal(size=(6, 3)), rng.normal(size=(3, 2)), rng.normal(size=(1, 2))

    def run(h_requires_grad):
        h = T.Tensor(H, requires_grad=h_requires_grad)
        w = T.Tensor(W, requires_grad=True)
        b = T.Tensor(b0, requires_grad=True)
        with T.Tape() as tape:
            tape.backward(sum_all(square(T.dense(h, w, b, relu=True))))
        return h.grad, w.grad, b.grad

    h_grad, w_grad, b_grad = run(False)
    assert h_grad is None
    h_grad_tracked, w_grad_tracked, b_grad_tracked = run(True)
    assert h_grad_tracked.shape == H.shape
    assert w_grad.tobytes() == w_grad_tracked.tobytes()
    assert b_grad.tobytes() == b_grad_tracked.tobytes()


def test_forward_backward_deterministic():
    def run():
        rng = np.random.default_rng(7)
        a = T.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        bias = T.Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        with T.Tape() as tape:
            out = mean(square(T.dense(a, b, bias, relu=True)))
            tape.backward(out)
        return out.data.tobytes(), a.grad.tobytes(), b.grad.tobytes(), bias.grad.tobytes()

    assert run() == run()


def test_every_op_has_a_src_caller():
    # the tape keeps only the ops the model records: every public
    # function of tensor.py is called as T.<name> somewhere else in src/
    src = Path(T.__file__).parent
    ops = {
        node.name
        for node in ast.parse(Path(T.__file__).read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    called = set()
    for path in src.glob("*.py"):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "T"):
                called.add(node.func.attr)
    assert ops and not ops - called, sorted(ops - called)

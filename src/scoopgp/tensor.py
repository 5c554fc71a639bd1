"""Dense float64 tensors with a reverse-mode gradient tape.

The tape keeps only the ops the model records: `dense` (one fused layer),
`sub`, `square` and `mean` (the mean head's squared-error loss), and
`custom_op`, through which the kernel head's normalization, the GP Gram
matrix and the NLML record their forward and analytic gradient as one op
each. Adam updates the parameters. Everything is float64; there is no
GPU path and no broadcasting beyond dense's bias row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class TapeError(RuntimeError):
    """Tape misuse: nested tapes or a second backward pass."""


class OptimizerError(RuntimeError):
    """Optimizer received a non-finite gradient."""


class Tensor:
    """A dense n-d float64 value, optionally tracked by the active Tape.

    `grad` is populated by Tape.backward() for every tensor on the tape
    that has requires_grad set. Tensors without a tape are plain values
    and safe to share read-only.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_on_tape")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.name = name
        self._on_tape = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Ordered record of differentiable ops for one forward pass.

    Ops append records in execution order, so the list is topologically
    sorted by construction. backward() may run once per tape.
    """

    _active: "Tape | None" = None

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise TapeError("tapes do not nest; close the active tape first")
        Tape._active = self
        return self

    def __exit__(self, *exc) -> None:
        Tape._active = None

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)=1 and accumulate grads along the reversed record list."""
        if self._spent:
            raise TapeError("backward() already ran on this tape; record a new forward pass")
        self._spent = True
        if loss.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
        for out, inputs, _ in self._records:
            out.grad = None
            for t in inputs:
                t.grad = None
        loss.grad = np.ones_like(loss.data)
        for out, inputs, backward_fn in reversed(self._records):
            g = out.grad
            if g is None:
                continue
            for t, dt in zip(inputs, backward_fn(g)):
                if dt is None:
                    continue
                t.grad = dt if t.grad is None else t.grad + dt


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._on_tape


def _track(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = Tape._active
    if tape is not None and any(_needs_grad(t) for t in inputs):
        out._on_tape = True
        tape._records.append((out, inputs, backward_fn))
    return out


def dense(h: Tensor, w: Tensor, b: Tensor, relu: bool) -> Tensor:
    """One dense layer, h @ w plus the bias row b, optionally through a
    ReLU, recorded as a single tape op.

    The bias gradient is the ones-row product ones(1, n) @ g: its bytes
    are those of the unfused matmul-with-a-ones-column, which a column
    sum does not reproduce."""
    if h.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"dense needs 2-d operands, got {h.shape} @ {w.shape}")
    if h.shape[1] != w.shape[0]:
        raise ShapeError(f"dense inner dimensions differ: {h.shape} @ {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise ShapeError(f"dense bias has shape {b.shape}, expected {(1, w.shape[1])}")
    z = h.data @ w.data
    z += b.data
    mask = z > 0.0 if relu else None
    out = Tensor(np.where(mask, z, 0.0) if relu else z)
    hd, wd = h.data, w.data
    need_h = _needs_grad(h)

    def backward_fn(g):
        if relu:
            g = g * mask
        gh = g @ wd.T if need_h else None
        return gh, hd.T @ g, np.ones((1, len(g))) @ g

    return _track(out, (h, w, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data - b.data)

    def backward_fn(g):
        return g, -g

    return _track(out, (a, b), backward_fn)


def square(a: Tensor) -> Tensor:
    a = _lift(a)
    out = Tensor(a.data * a.data)
    ad = a.data

    def backward_fn(g):
        return (2.0 * ad * g,)

    return _track(out, (a,), backward_fn)


def mean(a: Tensor) -> Tensor:
    """The mean over all elements."""
    a = _lift(a)
    out = Tensor(a.data.mean())
    count, in_shape = a.data.size, a.shape

    def backward_fn(g):
        return (np.broadcast_to(g, in_shape) / count,)

    return _track(out, (a,), backward_fn)


def custom_op(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Record an op whose forward ran outside the op set (e.g. a Cholesky
    solve) but whose input gradients are known analytically."""
    return _track(Tensor(out_data), inputs, backward_fn)


# Adam's moment decay rates and its denominator's stabilizer (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First and second moments of every parameter, flattened in list
    order into one vector each, and the step counter."""

    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(params: list[Tensor], grads: list[np.ndarray], state: AdamState, lr: float) -> None:
    """One Adam update, in place on params' data, at ADAM_BETA1,
    ADAM_BETA2 and ADAM_EPS.

    The update runs once over all parameters flattened into one vector.
    Every gradient is checked before anything is written: on an error
    the parameters and the state are left as they were."""
    if len(params) != len(grads):
        raise OptimizerError(f"{len(params)} params vs {len(grads)} grads")
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.shape:
            raise OptimizerError(
                f"gradient for parameter {p.name or i} has shape {g.shape}, expected {p.shape}"
            )
    flat = np.concatenate([g.ravel() for g in grads])
    if not np.isfinite(flat).all():
        i = next(i for i, g in enumerate(grads) if not np.isfinite(g).all())
        raise OptimizerError(f"non-finite gradient for parameter {params[i].name or i}")
    if state.m is None:
        state.m = np.zeros_like(flat)
        state.v = np.zeros_like(flat)
    if state.m.size != flat.size:
        raise OptimizerError("optimizer state does not match the parameter list")
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    # the per-parameter formula, operation for operation:
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
    # p -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    upd = np.multiply(flat, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += upd
    np.multiply(flat, 1.0 - ADAM_BETA2, out=upd)
    upd *= flat
    v *= ADAM_BETA2
    v += upd
    np.divide(m, 1.0 - ADAM_BETA1**t, out=upd)
    upd *= lr
    denom = np.divide(v, 1.0 - ADAM_BETA2**t, out=flat)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    upd /= denom
    start = 0
    for p in params:
        p.data -= upd[start : start + p.size].reshape(p.shape)
        start += p.size

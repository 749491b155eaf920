"""Minimal reverse-mode autodiff over float64 numpy arrays.

A Tensor wraps an ndarray plus the closures needed to push a cotangent
back to its parents. Graphs are built eagerly by the op functions below;
``backward()`` on a scalar output accumulates ``.grad`` on every tensor
created with ``requires_grad=True``. Every op builds its VJP closures;
when no input requires grad, ``Tensor.__init__`` drops them and keeps no
parents, so inference holds no graph but still pays for one ``Tensor``
and its closures per op.

Only the ops the forecasting backbone needs are provided. All math is
double precision and single-threaded numpy, so results are bitwise
reproducible.
"""

from __future__ import annotations

import math

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "_parents", "requires_grad")

    def __init__(self, data, requires_grad=False, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p, _ in parents)
        # parents: tuple of (tensor, vjp) where vjp maps the output cotangent
        # to that parent's cotangent contribution
        self._parents = tuple(parents) if self.requires_grad else ()

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar output")
        order = []
        seen = set()

        def visit(t):
            if id(t) in seen or not t.requires_grad:
                return
            seen.add(id(t))
            for p, _ in t._parents:
                visit(p)
            order.append(t)

        visit(self)
        grads = {id(self): np.ones_like(self.data)}
        for t in reversed(order):
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t.grad is None:
                t.grad = g.copy()
            else:
                t.grad = t.grad + g
            for p, vjp in t._parents:
                if not p.requires_grad:
                    continue
                contrib = vjp(g)
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + contrib
                else:
                    grads[id(p)] = contrib


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a cotangent down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    return Tensor(out, parents=(
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    ))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    return Tensor(out, parents=(
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(-g, b.data.shape)),
    ))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    return Tensor(out, parents=(
        (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
    ))


def scale(a, s: float) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.data * s, parents=((a, lambda g: g * s),))


def matmul(a, b) -> Tensor:
    """Batched matrix product; operands must be at least 2-D."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data
    return Tensor(out, parents=(
        (a, lambda g: _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape)),
        (b, lambda g: _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape)),
    ))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    return Tensor(a.data.reshape(shape), parents=((a, lambda g: g.reshape(old)),))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return Tensor(a.data.transpose(axes), parents=((a, lambda g: g.transpose(inv)),))


def take_rows(a, indices) -> Tensor:
    """Gather rows along axis 0; backward scatter-adds."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return out

    return Tensor(a.data[idx], parents=((a, vjp),))


def concat_rows(tensors) -> Tensor:
    """Concatenate along axis 0."""
    ts = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[0] for t in ts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    out = np.concatenate([t.data for t in ts], axis=0)

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]
        return lambda g: g[lo:hi]

    return Tensor(out, parents=tuple((t, make_vjp(i)) for i, t in enumerate(ts)))


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape
    return Tensor(np.sum(a.data), parents=((a, lambda g: np.broadcast_to(g, shape).copy()),))


def sum_last(a, keepdims=True) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=-1, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, -1)
        return np.broadcast_to(g, a.data.shape).copy()

    return Tensor(out, parents=((a, vjp),))


def mean_last(a, keepdims=True) -> Tensor:
    n = as_tensor(a).data.shape[-1]
    return scale(sum_last(a, keepdims=keepdims), 1.0 / n)


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    out = np.power(a.data, p)
    return Tensor(out, parents=((a, lambda g: g * p * np.power(a.data, p - 1.0)),))


def softmax_last(a) -> Tensor:
    """Numerically stable softmax along the last axis.

    Supports -inf entries (from attention masks): those positions get
    exactly zero weight and zero gradient.
    """
    a = as_tensor(a)
    m = np.max(a.data, axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = np.sum(g * y, axis=-1, keepdims=True)
        return y * (g - dot)

    return Tensor(y, parents=((a, vjp),))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """tanh-approximation GELU with its exact derivative."""
    a = as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    y = 0.5 * x * (1.0 + t)

    def vjp(g):
        sech2 = 1.0 - t * t
        d = 0.5 * (1.0 + t) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        return g * d

    return Tensor(y, parents=((a, vjp),))


def layer_norm(x, gain, offset, eps: float = 1e-6) -> Tensor:
    """Layer normalization over the last axis, composed from primitives."""
    mu = mean_last(x)
    xc = sub(x, mu)
    var = mean_last(mul(xc, xc))
    rstd = power(add(var, Tensor(np.array(eps))), -0.5)
    return add(mul(mul(xc, rstd), gain), offset)

"""Minimal reverse-mode autodiff over float64 numpy arrays.

Each op takes plain arrays or Tensors. Given only arrays it returns a
plain array and builds no ``Tensor`` and no graph, so inference runs on
ndarrays. Given at least one Tensor it returns a Tensor on the tape: a
Tensor wraps an ndarray plus the closures that push a cotangent back to
its Tensor parents (array operands are constants and get no edge).
``backward()`` on a scalar output accumulates ``.grad`` on every tensor
created with ``requires_grad=True``; a Tensor whose inputs do not
require grad keeps no parents, so it holds no graph either.

Only the ops the forecasting backbone needs are provided. All math is
double precision and single-threaded numpy, so results are bitwise
reproducible.
"""

from __future__ import annotations

import math
from typing import Union

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


#: An op's operand or result: a plain array, or a Tensor on the tape.
Value = Union[np.ndarray, Tensor]


def data(x) -> np.ndarray:
    """The float64 ndarray of a Tensor, or ``x`` as one."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _node(out: np.ndarray, *edges) -> Value:
    """An op's result: ``out`` itself when no operand is a Tensor, else a
    Tensor with an edge to each Tensor operand. ``edges`` holds (operand,
    vjp) pairs; array operands are constants and get no edge."""
    parents = tuple((p, vjp) for p, vjp in edges if isinstance(p, Tensor))
    return Tensor(out, parents=parents) if parents else out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a cotangent down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


def add(a, b) -> Value:
    x, y = data(a), data(b)
    return _node(x + y,
                 (a, lambda g: _unbroadcast(g, x.shape)),
                 (b, lambda g: _unbroadcast(g, y.shape)))


def sub(a, b) -> Value:
    x, y = data(a), data(b)
    return _node(x - y,
                 (a, lambda g: _unbroadcast(g, x.shape)),
                 (b, lambda g: _unbroadcast(-g, y.shape)))


def mul(a, b) -> Value:
    x, y = data(a), data(b)
    return _node(x * y,
                 (a, lambda g: _unbroadcast(g * y, x.shape)),
                 (b, lambda g: _unbroadcast(g * x, y.shape)))


def scale(a, s: float) -> Value:
    return _node(data(a) * s, (a, lambda g: g * s))


def matmul(a, b) -> Value:
    """Batched matrix product; operands must be at least 2-D."""
    x, y = data(a), data(b)
    return _node(x @ y,
                 (a, lambda g: _unbroadcast(g @ y.swapaxes(-1, -2), x.shape)),
                 (b, lambda g: _unbroadcast(x.swapaxes(-1, -2) @ g, y.shape)))


def reshape(a, shape) -> Value:
    x = data(a)
    return _node(x.reshape(shape), (a, lambda g: g.reshape(x.shape)))


def transpose(a, axes) -> Value:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _node(data(a).transpose(axes), (a, lambda g: g.transpose(inv)))


def take_rows(a, indices) -> Value:
    """Gather rows along axis 0; backward scatter-adds."""
    x = data(a)
    idx = np.asarray(indices, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(x)
        np.add.at(out, idx, g)
        return out

    return _node(x[idx], (a, vjp))


def sum_all(a) -> Value:
    x = data(a)
    return _node(np.sum(x), (a, lambda g: np.broadcast_to(g, x.shape).copy()))


def sum_last(a) -> Value:
    """Sum over the last axis, kept as an axis of length 1."""
    x = data(a)
    return _node(x.sum(axis=-1, keepdims=True),
                 (a, lambda g: np.broadcast_to(g, x.shape).copy()))


def mean_last(a) -> Value:
    n = data(a).shape[-1]
    return scale(sum_last(a), 1.0 / n)


def power(a, p: float) -> Value:
    x = data(a)
    return _node(np.power(x, p), (a, lambda g: g * p * np.power(x, p - 1.0)))


def softmax_last(a) -> Value:
    """Numerically stable softmax along the last axis.

    Supports -inf entries (from attention masks): those positions get
    exactly zero weight and zero gradient.
    """
    x = data(a)
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = np.sum(g * y, axis=-1, keepdims=True)
        return y * (g - dot)

    return _node(y, (a, vjp))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Value:
    """tanh-approximation GELU with its exact derivative."""
    x = data(a)
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    y = 0.5 * x * (1.0 + t)

    def vjp(g):
        sech2 = 1.0 - t * t
        d = 0.5 * (1.0 + t) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        return g * d

    return _node(y, (a, vjp))


#: the variance offset of :func:`layer_norm`
LN_EPS = 1e-6


def layer_norm(x, gain, offset) -> Value:
    """Layer normalization over the last axis, composed from primitives."""
    mu = mean_last(x)
    xc = sub(x, mu)
    var = mean_last(mul(xc, xc))
    rstd = power(add(var, LN_EPS), -0.5)
    return add(mul(mul(xc, rstd), gain), offset)

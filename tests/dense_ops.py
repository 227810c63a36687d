"""Differentiable ops that only the tests build their reference chains
from: the elementwise product, a sum over axes, batched matmul, stack,
reshape, a last-axis softmax, the sigmoid and GELU. The packed model has
fused nodes in their place (``tensor.linear``, ``tensor.feed_forward``,
``tensor.gated_sum``, ``tensor.pooled_lookup``,
``tensor.scaled_dot_attention``); these are kept
as the separate ops those nodes are checked against, and as the glue of
test losses, on the autodiff core of novabert.tensor. Two reference forms
of program ops save more than those ops do: ``pool_chain`` (the lookup,
product and sum chain of ``tensor.pooled_lookup``) and
``float_mask_dropout`` (``tensor.dropout`` saving its scaled float mask).
"""

import numpy as np

from novabert import kernels
from novabert import tensor as T
from novabert.tensor import (ShapeMismatchError, _accumulate, _as_tensor,
                             _gelu_slope, _make, _unbroadcast,
                             embedding_lookup)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), bw)


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(gg, a.shape).copy())

    return _make(out_data, (a,), bw)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatchError(
            f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def bw(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accumulate(a, _unbroadcast(ga, a.shape))
        _accumulate(b, _unbroadcast(gb, b.shape))

    return _make(out_data, (a, b), bw)


def reshape(a, shape):
    a = _as_tensor(a)
    out_data = a.data.reshape(shape)

    def bw(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(out_data, (a,), bw)


def stack(tensors, axis):
    """Stack along a new axis (negative axes count from the result's end)."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    ax = axis if axis >= 0 else out_data.ndim + axis

    def bw(g):
        for i, t in enumerate(tensors):
            _accumulate(t, np.take(g, i, axis=ax))

    return _make(out_data, tuple(tensors), bw)


def softmax_lastdim(x):
    """Stable softmax along the last dimension (max-subtraction)."""
    x = _as_tensor(x)
    shp = x.shape
    # a copy: the kernel writes over its argument, and a reshape of x.data
    # may be a view of it
    s = kernels.softmax_rows(x.data.reshape(-1, shp[-1]).copy()).reshape(shp)

    def bw(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        _accumulate(x, s * (g - dot))

    return _make(s, (x,), bw)


def sigmoid(x):
    x = _as_tensor(x)
    s = 1.0 / (1.0 + np.exp(-x.data))

    def bw(g):
        _accumulate(x, g * s * (1.0 - s))

    return _make(s, (x,), bw)


def gelu(x):
    """The program's array GELU (``tensor.gelu``) as a graph op: it saves x
    and tanh(u), and its backward is the program's derivative,
    ``tensor._gelu_slope``, which ``tensor.feed_forward`` also runs."""
    x = _as_tensor(x)
    xd, vx = x.data, x._vertex
    t = np.empty_like(xd)
    out_data = T.gelu(xd, tanh_out=t)

    def bw(g):
        # the backward runs once per graph, so it may write over t
        half = t + 1.0
        half *= 0.5
        dx = _gelu_slope(xd, t, half)
        dx *= g
        _accumulate(vx, dx)

    return _make(out_data, (x,), bw)


def pool_chain(table, idx, weights):
    """sum_k weights[..., k] * table[idx[..., k]] as a lookup, a product and
    a sum; the graph keeps both [..., K, h] intermediates."""
    return tsum(mul(embedding_lookup(table, idx), weights[..., None]),
                axis=-2)


def float_mask_dropout(x, p, rng):
    """Inverted dropout that saves its scaled float mask; the same draws
    and arithmetic as tensor.dropout."""
    x = _as_tensor(x)
    if rng is None or p <= 0.0:
        return x
    m = (rng.random(x.shape) >= p).astype(x.dtype) * (1.0 / (1.0 - p))

    def bw(g):
        _accumulate(x, g * m)

    return _make(x.data * m, (x,), bw)

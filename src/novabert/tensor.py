"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array. Differentiable operations record
their inputs and a backward closure on the output node; :func:`backward`
linearizes the recorded graph into a tape (topological order) and replays
it in reverse, accumulating gradients into every ``requires_grad`` leaf.

The graph is rebuilt dynamically on every forward pass. Inside
:func:`no_grad` nothing is recorded, so forward-only work (evaluation,
attention dumps) frees each intermediate as soon as it is no longer
referenced; the switch is per thread. Float32, float64 and longdouble
arrays keep their dtype; anything else becomes float64. Debug finiteness
checks are enabled with ``NOVABERT_DEBUG=1``.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading

import numpy as np

from novabert import kernels

DEFAULT_DTYPE = np.float64
_DEBUG = os.environ.get("NOVABERT_DEBUG", "0") == "1"

NEG_INF = -1e30  # additive mask value; exp() underflows to exactly 0.0


class ShapeMismatchError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_bw", "_done")

    def __init__(self, data, requires_grad=False, _parents=(), _bw=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        # longdouble is allowed so high-precision oracles can reuse the ops
        if arr.dtype not in (np.float32, np.float64, np.longdouble):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._bw = _bw
        self._done = False
        if _DEBUG and not np.all(np.isfinite(arr)):
            raise FloatingPointError("non-finite values in tensor")

    # -- convenience -------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_grad(*ts):
    return any(t.requires_grad for t in ts)


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Record no graph in this thread: ops return plain constant tensors."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _make(data, parents, bw):
    if _grad_mode.enabled and _needs_grad(*parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _bw=bw)
    return Tensor(data)


def _accumulate(t, g):
    """Add g to t.grad out of place.

    The first gradient is stored as given, with no zeroed buffer. ``add``
    hands one array to both of its parents, so a ``.grad`` may be shared:
    nothing writes into one in place."""
    if not t.requires_grad:
        return
    # an f32 graph still yields some f64 gradients; keep .grad in t's dtype
    if g.dtype != t.data.dtype:
        g = g.astype(t.data.dtype)
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g, shape):
    """Sum gradient g down to the given (broadcast-source) shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def backward(loss):
    """Populate .grad on every requires_grad leaf reachable from loss.

    loss must be a scalar produced through recorded operations. A tape
    (topologically ordered op list) is built from the graph and replayed in
    reverse; each node is visited exactly once. An interior node's .grad is
    set to None once its backward closure has passed it on to the parents,
    so it is not kept alive until the graph is dropped; loss.grad and the
    leaves' .grad stay. Calling twice on the same loss without re-running
    the forward pass raises.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if loss._done:
        raise RuntimeError("backward already ran on this graph; rebuild the forward pass")

    tape = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            tape.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p._bw is not None:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape):
        if node.grad is None or node._bw is None:
            continue
        node._bw(node.grad)
        node._done = True
        if node is not loss:
            node.grad = None
    loss._done = True


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def bw(g):
        # a constant operand (a mask, a scale) gets no reduction of g
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), bw)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), bw)


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


def transpose(a, axes):
    a = _as_tensor(a)
    out_data = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def bw(g):
        _accumulate(a, np.transpose(g, inv))

    return _make(out_data, (a,), bw)


def concat_lastdim(tensors):
    tensors = [_as_tensor(t) for t in tensors]
    widths = [t.shape[-1] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=-1)

    def bw(g):
        off = 0
        for t, w in zip(tensors, widths):
            _accumulate(t, g[..., off:off + w])
            off += w

    return _make(out_data, tuple(tensors), bw)


def stack(tensors, axis):
    """Stack along a new axis (negative axes count from the result's end)."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    ax = axis if axis >= 0 else out_data.ndim + axis

    def bw(g):
        for i, t in enumerate(tensors):
            _accumulate(t, np.take(g, i, axis=ax))

    return _make(out_data, tuple(tensors), bw)


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(gg, a.shape).copy())

    return _make(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def softmax_lastdim(x):
    """Stable softmax along the last dimension (max-subtraction)."""
    x = _as_tensor(x)
    shp = x.shape
    flat = np.ascontiguousarray(x.data.reshape(-1, shp[-1]))
    s = kernels.softmax_rows(flat).reshape(shp)

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


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x):
    """GELU, tanh approximation (as in the original BERT)."""
    x = _as_tensor(x)
    u = _GELU_C * (x.data + 0.044715 * (x.data * x.data * x.data))
    t = np.tanh(u)
    out_data = 0.5 * x.data * (1.0 + t)

    def bw(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * x.data ** 2)
        d = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * du
        _accumulate(x, g * d)

    return _make(out_data, (x,), bw)


def layer_norm(x, gain, bias, eps=1e-12):
    """Layer normalization over the last dimension with learnable scale/shift."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def bw(g):
        red = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=red))
        _accumulate(bias, g.sum(axis=red))
        dxhat = g * gain.data
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        _accumulate(x, dx)

    return _make(out_data, (x, gain, bias), bw)


def dropout(x, p, rng, train, rows=None, n=None):
    """Inverted dropout; identity when train is False or p == 0.

    When x holds the rows ``rows`` of an n-row array (see :func:`take_rows`),
    the mask is drawn for all n rows and only those rows are kept, so the
    random stream and each row's mask are those of the unpacked array."""
    x = _as_tensor(x)
    if not train or p <= 0.0:
        return x
    if rows is None:
        keep = rng.random(x.shape) >= p
    else:
        keep = (rng.random((n,) + x.shape[1:]) >= p)[rows]
    scale = 1.0 / (1.0 - p)
    m = keep.astype(x.data.dtype) * scale
    out_data = x.data * m

    def bw(g):
        _accumulate(x, g * m)

    return _make(out_data, (x,), bw)


# ---------------------------------------------------------------------------
# lookup / loss
# ---------------------------------------------------------------------------

def embedding_lookup(table, idx):
    """Row gather; gradient is a scatter-add into the table."""
    table = _as_tensor(table)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"embedding index out of range [0, {table.shape[0]}): "
            f"min={idx.min()}, max={idx.max()}")
    out_data = table.data[idx]

    def bw(g):
        # a .grad may be shared (see _accumulate): scatter into a fresh
        # buffer, seeded with the gradient so far to keep the summation order
        buf = (np.zeros_like(table.data) if table.grad is None
               else table.grad.copy())
        h = table.shape[-1]
        kernels.scatter_add_rows(buf, idx.reshape(-1),
                                 np.ascontiguousarray(g.reshape(-1, h)))
        table.grad = buf

    return _make(out_data, (table,), bw)


def take_rows(x, rows):
    """Gather x[rows] along the first axis; rows is a slice or unique indices.

    The backward writes the gradient into a zeroed array of x's shape with a
    plain index assignment (no scatter-add), which is why rows must not
    repeat. A slice reads a view of x, with no copy."""
    x = _as_tensor(x)
    out_data = x.data[rows]

    def bw(g):
        full = np.zeros_like(x.data)
        full[rows] = g
        _accumulate(x, full)

    return _make(out_data, (x,), bw)


def put_rows(x, rows, n):
    """Scatter the rows of x into zeros of n rows: out[rows] = x.

    The inverse of :func:`take_rows`; rows are unique indices, one per row
    of x. The backward gathers g[rows]."""
    x = _as_tensor(x)
    out_data = np.zeros((n,) + x.shape[1:], dtype=x.dtype)
    out_data[rows] = x.data

    def bw(g):
        _accumulate(x, g[rows])

    return _make(out_data, (x,), bw)


def cross_entropy_masked(logits, labels, ignore_index=0):
    """Mean cross-entropy over positions whose label != ignore_index.

    logits: [N, m]; labels: [N] with values in 1..m (class = label - 1) or
    ignore_index. Softmax is over the full last dimension.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    valid = labels != ignore_index
    n = int(valid.sum())
    if n == 0:
        raise ValueError("cross_entropy_masked: no unmasked labels in batch")
    rows = np.nonzero(valid)[0]
    cls = labels[rows] - 1
    z = logits.data[rows]
    zmax = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=1)) + zmax[:, 0]
    loss = (lse - z[np.arange(n), cls]).sum() / n

    def bw(g):
        p = kernels.softmax_rows(np.ascontiguousarray(z))
        p[np.arange(n), cls] -= 1.0
        full = np.zeros_like(logits.data)
        full[rows] = p * (float(g) / n)
        _accumulate(logits, full)

    return _make(np.asarray(loss), (logits,), bw)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def scaled_dot_attention(q, k, v, key_mask=None, attn_dropout=0.0, rng=None,
                         train=False):
    """Scaled dot-product attention: softmax(QK^T / sqrt(d)) V.

    q, k, v: [..., L, d]. key_mask, when given, is a boolean array
    broadcastable to the score shape [..., L, L] that is True for keys that
    may be attended to. Returns (out, attn) where attn is the row-stochastic
    attention matrix before dropout.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeMismatchError(
            f"attention expects Q, K, V of equal shape, got {q.shape}, "
            f"{k.shape}, {v.shape}")
    d = q.shape[-1]
    scores = mul(matmul(q, transpose(k, _swap_last2(k.data.ndim))), 1.0 / math.sqrt(d))
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
        # checked on the mask itself: broadcasting only repeats its rows
        if not key_mask.any(axis=-1).all():
            raise ValueError("attention row with every key masked (empty sequence)")
        scores = add(scores, np.where(key_mask, 0.0, NEG_INF))
    attn = softmax_lastdim(scores)
    probs = dropout(attn, attn_dropout, rng, train)
    out = matmul(probs, v)
    return out, attn


def _swap_last2(ndim):
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)

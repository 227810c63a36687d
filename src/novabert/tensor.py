"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array and, when it takes part in a
recorded graph, a vertex. The graph is made of vertices, not tensors:
differentiable operations give the output's vertex the vertices of their
inputs and a backward closure; :func:`backward` linearizes the recorded
graph into a tape (topological order) and replays it in reverse,
accumulating gradients into the vertex of every ``requires_grad`` leaf,
which its tensor's ``.grad`` reads.

Activations are packed rows: one row per real token of a padded batch,
never a padded [B, L, ...] array. Multi-head attention is one node
(:func:`scaled_dot_attention`) over those rows, grouped by exact row
length by an :class:`AttentionLayout`, so no key is a pad; it saves only
its probabilities and dropout keep mask and has a hand-written backward.
Dropout, given a generator, draws at these packed shapes: :func:`dropout`
at the rows it is given, attention one mask per row length. :func:`take_rows`
picks the rows a later op reads, and :func:`cross_entropy_masked` scores
every row it is given. :func:`linear` is matmul plus bias as one node,
:func:`gated_sum` is the gated fusion of side information as one node, and
:func:`pooled_lookup` is the weighted pool of a multi-valued field's table
rows as one node. :func:`feed_forward` is the linear, GELU, linear
feed-forward network as one node that runs in row blocks. The per-token
backwards reuse their forward work: the loss normalizes the exponentials
its forward kept, the FFN node keeps its input and ``tanh`` and recomputes
the rest block by block, and the embedding scatter-add is one
``np.bincount``.

What a training step keeps: the ``.data`` of the tensors the caller still
names, and what each backward closure saved for itself, which is only what
that backward reads (boolean dropout masks, not float ones; a pooled
lookup's indices and weights, not its gathered rows; a linear's input, not
its output). A closure holds the vertices of its inputs, never their
tensors, and shapes and dtypes as plain values, so an op output that no
backward reads (the output projection's, say, which dropout reads) is freed
as soon as the forward drops its name. :func:`backward` frees the graph as
it walks it: once a vertex's closure has run, the vertex drops its closure,
its parent links and its interior gradient, so the saved arrays go as the
walk goes down. After the call only the leaves' gradients, ``loss.grad``
and the ``.data`` of tensors the caller still names are left.

The graph is rebuilt dynamically on every forward pass. Inside
:func:`no_grad` nothing is recorded, so forward-only work (evaluation,
attention dumps) frees each intermediate as soon as it is no longer
referenced; the switch is per thread. The forward kernels write over the
temporaries they own rather than allocate new ones: the softmax over the
fresh attention scores and gate logits, layer norm's centred copy, the
scaled Q of attention, the pooled lookup's gathered rows, and, when no
graph is recorded, the ``tanh`` of the FFN's GELU. :func:`gelu` itself is
a plain array function, not a graph op, that :func:`feed_forward` calls.
Float32, float64 and longdouble arrays keep their dtype; anything else
becomes float64. With ``NOVABERT_DEBUG=1`` (read once, at import) a
non-finite op output or backward gradient raises ``FloatingPointError``
naming the op's backward closure; when it is off, the check costs one
boolean test per op.
"""

from __future__ import annotations

import contextlib
import copy
import math
import os
import threading

import numpy as np

from novabert import kernels

LAYER_NORM_EPS = 1e-12  # as in the original BERT
# feed_forward runs in row blocks whose [rows, inner width] activation takes
# about this many bytes (512 rows at h=128 in float32, 256 in float64): a
# block's temporaries stay in cache and the allocator reuses them, while a
# full-width array is given back to the OS after each batch and faulted in
# again by the next.
FFN_BLOCK_BYTES = 1 << 20
_DEBUG = os.environ.get("NOVABERT_DEBUG", "0") == "1"


class ShapeMismatchError(ValueError):
    pass


class _Vertex:
    """A node of the recorded graph: the gradient reaching it, the vertices
    of its inputs that need one, the backward closure, and whether a
    backward has consumed it. A vertex holds no value: a leaf's vertex is
    its gradient's home, an op output's is where its backward starts."""
    __slots__ = ("grad", "parents", "bw", "done")
    requires_grad = True

    def __init__(self, parents=(), bw=None):
        self.grad = None
        self.parents = parents
        self.bw = bw
        self.done = False


class Tensor:
    """A value (``.data``) and, when it takes part in a recorded graph, its
    vertex; ``.grad`` reads and sets the vertex's gradient."""
    __slots__ = ("data", "_vertex")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        # longdouble is allowed so high-precision oracles can reuse the ops
        if arr.dtype not in (np.float32, np.float64, np.longdouble):
            arr = arr.astype(np.float64)
        self.data = arr
        self._vertex = _Vertex() if requires_grad else None

    @property
    def requires_grad(self):
        return self._vertex is not None

    @property
    def grad(self):
        v = self._vertex
        return None if v is None else v.grad

    @grad.setter
    def grad(self, g):
        if self._vertex is None:
            raise AttributeError("a tensor that requires no grad holds none")
        self._vertex.grad = g

    # -- convenience -------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


def _records(*parents):
    """Whether an op on these inputs records a graph node."""
    return _grad_mode.enabled and any(p._vertex is not None for p in parents)


@contextlib.contextmanager
def no_grad():
    """Record no graph in this thread: ops return plain constant tensors."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _check_finite(arr, what, bw):
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite {what} of {bw.__qualname__}")


def _make(data, parents, bw):
    """The output tensor of an op on the tensors parents; when a graph is
    recorded, its vertex links bw to the vertices of the parents that need
    a gradient."""
    if _DEBUG:
        _check_finite(data, "output", bw)
    out = Tensor(data)
    if _grad_mode.enabled:
        vs = tuple(p._vertex for p in parents if p._vertex is not None)
        if vs:
            out._vertex = _Vertex(vs, bw)
    return out


def _accumulate(t, g):
    """Add g to the gradient of t (a vertex, a tensor, or None for an input
    that needs none) out of place.

    The first gradient is stored as given, with no zeroed buffer. ``add``
    hands one array to both of its parents, so a ``.grad`` may be shared:
    nothing writes into one in place."""
    if t is None or not t.requires_grad:
        return
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
    (topologically ordered vertex list) is built from the graph and
    replayed in reverse; each vertex is visited exactly once. Each vertex
    is popped off the tape once its backward closure has passed its
    gradient on to the parents; then its gradient (loss's excepted), its
    closure and its parent links are dropped. So the arrays a closure saved
    are freed as the walk goes down the graph, and nothing of the graph
    outlives the call. Calling twice on the same loss, or on a loss whose
    graph reaches a vertex an earlier backward freed, raises RuntimeError:
    rebuild the forward pass.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    root = loss._vertex
    if root is None:    # a constant loss: a leaf vertex holds its gradient
        loss._vertex = root = _Vertex()
    if root.done:
        raise RuntimeError("backward already ran on this graph; rebuild the forward pass")

    tape = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            tape.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.done:
                raise RuntimeError("an earlier backward freed part of this "
                                   "graph; rebuild the forward pass")
            if id(p) not in visited and p.bw is not None:
                stack.append((p, False))

    root.grad = np.ones_like(loss.data)
    while tape:
        node = tape.pop()
        if node.bw is None:
            continue
        if node.grad is not None:
            node.bw(node.grad)
            if _DEBUG:
                for p in node.parents:
                    if p.grad is not None:
                        _check_finite(p.grad, "gradient from the backward",
                                      node.bw)
            if node is not root:
                node.grad = None
        node.bw, node.parents, node.done = None, (), True


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data
    va, vb, sa, sb = a._vertex, b._vertex, a.shape, b.shape

    def bw(g):
        # a constant operand (a mask, a scale) gets no reduction of g
        if va is not None:
            _accumulate(va, _unbroadcast(g, sa))
        if vb is not None:
            _accumulate(vb, _unbroadcast(g, sb))

    return _make(out_data, (a, b), bw)


def _rows_product(a, w):
    """a [rows, k] @ w [k, n]. A lone row is the first row of the product of
    two copies of it: numpy would run it as a matrix-vector product, which
    sums in another order than a matrix product, so a row's result would
    depend on how many rows share the call."""
    return a @ w if len(a) != 1 else (np.concatenate([a, a]) @ w)[:1]


def linear(x, w, b=None):
    """x @ w (+ b) as one node; x is [..., k], w [k, n], b [n] or None.

    The bias is added in place into the fresh product. The forward's
    product and the backward's input gradient g @ w.T run over the rows of
    x flattened to [rows, k] through :func:`_rows_product`; the weight
    gradient is one GEMM over those rows and the bias gradient their sum."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.shape[-1] != w.shape[0]:
        raise ShapeMismatchError(
            f"linear inner dimensions differ: {x.shape} x {w.shape}")
    wd, (k, n), xs = w.data, w.shape, x.shape
    x2 = x.data.reshape(-1, k)
    out = _rows_product(x2, wd)
    parents, vx, vw, vb = (x, w), x._vertex, w._vertex, None
    if b is not None:
        b = _as_tensor(b)
        out += b.data
        parents, vb = (x, w, b), b._vertex

    def bw(g):
        g2 = g.reshape(-1, n)
        if vx is not None:
            _accumulate(vx, _rows_product(g2, wd.T).reshape(xs))
        if vw is not None:
            _accumulate(vw, x2.T @ g2)
        if vb is not None:
            _accumulate(vb, g2.sum(axis=0))

    return _make(out.reshape(xs[:-1] + (n,)), parents, bw)


def transpose(a, axes):
    a = _as_tensor(a)
    out_data = np.transpose(a.data, axes)
    inv, va = np.argsort(axes), a._vertex

    def bw(g):
        _accumulate(va, np.transpose(g, inv))

    return _make(out_data, (a,), bw)


def concat_lastdim(tensors):
    tensors = [_as_tensor(t) for t in tensors]
    widths = [t.shape[-1] for t in tensors]
    vs = [t._vertex for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=-1)

    def bw(g):
        off = 0
        for v, w in zip(vs, widths):
            _accumulate(v, g[..., off:off + w])
            off += w

    return _make(out_data, tuple(tensors), bw)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_slope(x, t, half):
    """GELU's derivative at x, given t = tanh(u) and half = 0.5 (1 + t);
    written over half, which is returned, with t overwritten."""
    # d = 0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3 * 0.044715 x^2)
    du = x * x
    du *= 3 * 0.044715
    du += 1.0
    du *= _GELU_C
    d = np.multiply(t, t, out=t)
    np.subtract(1.0, d, out=d)
    d *= x
    d *= 0.5
    d *= du
    half += d
    return half


def gelu(x, tanh_out=None):
    """GELU of the array x, tanh approximation (as in the original BERT).

    The output is written over tanh(u), so the call allocates one array.
    Given tanh_out, an array of x's shape and dtype, tanh(u) is written
    there instead and kept, for a backward that derives the slope from it
    (:func:`_gelu_slope`)."""
    t = np.multiply(x, x, out=tanh_out)
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    if tanh_out is None:
        out = t
        out += 1.0
    else:
        out = t + 1.0
    out *= x
    out *= 0.5
    return out


def row_blocks(n, width, itemsize):
    """Consecutive slices that cover n rows, each of about FFN_BLOCK_BYTES
    of a [rows, width] array of itemsize bytes per entry: a step of rows
    each, and a last remainder shorter than half a step joins the block
    before it, so fewer than 1.5 steps of rows are one block.

    A product on a short block could sum in another order than the same
    rows of a long one: OpenBLAS runs products of at most 10**6
    multiply-adds through a small-matrix kernel."""
    step = max(1, FFN_BLOCK_BYTES // (width * itemsize))
    starts = list(range(0, n, step)) or [0]
    if len(starts) > 1 and 2 * (n - starts[-1]) < step:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def feed_forward(x, w1, b1, w2, b2):
    """linear(gelu(linear(x, w1, b1)), w2, b2) as one node, in row blocks.

    x is [..., k], w1 [k, f], b1 [f], w2 [f, n] and b2 [n]. The rows of x
    run in the blocks of :func:`row_blocks` over the [rows, f] inner width,
    with or without a graph, so no [rows, f] activation exists whole; each
    block runs the products of :func:`linear` and calls :func:`gelu`. Only
    x and each block's tanh are saved (activation recomputation, Chen et
    al. 2016). The backward walks the blocks, dropping each tanh once
    used: it recomputes the block's W1 product, rebuilds gelu's output as
    half * h with half = 0.5 (1 + tanh) shared with the derivative, and sums
    the weight and bias gradients over the blocks. The output and the input
    gradient equal the chain's; the weight gradients differ from its one
    GEMM over all rows in summation order only, unless x is one block."""
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    (k, f), n, xs = w1.shape, w2.shape[-1], x.shape
    if (xs[-1] != k or w2.shape != (f, n) or b1.shape != (f,)
            or b2.shape != (n,)):
        raise ShapeMismatchError(
            f"feed_forward expects x [..., k], w1 [k, f], b1 [f], w2 [f, n] "
            f"and b2 [n], got {xs}, {w1.shape}, {b1.shape}, {w2.shape} and "
            f"{b2.shape}")
    parents = (x, w1, b1, w2, b2)
    x2, w1d, b1d, w2d, b2d = (t.data for t in parents)
    x2 = x2.reshape(-1, k)
    record = _records(*parents)
    out = np.empty((len(x2), n), np.result_type(x2, w1d, w2d))
    saved = []
    for rows in row_blocks(len(x2), f, out.itemsize):
        h = _rows_product(x2[rows], w1d)
        h += b1d
        t = np.empty_like(h) if record else None
        out[rows] = _rows_product(gelu(h, tanh_out=t), w2d)
        out[rows] += b2d
        if record:
            saved.append((rows, t))
    vx, vw1, vb1, vw2, vb2 = (t._vertex for t in parents)

    def bw(g):
        g2 = g.reshape(-1, n)
        dx = None if vx is None else np.empty_like(x2)
        sums = {}   # a parameter's vertex -> its gradient over the blocks

        def sum_in(v, term):
            if v in sums:
                sums[v] += term
            else:
                sums[v] = term

        while saved:
            rows, t = saved.pop()
            xb, gb = x2[rows], g2[rows]
            h = _rows_product(xb, w1d)
            h += b1d
            half = t + 1.0
            half *= 0.5
            if vw2 is not None:     # half * h is gelu(h), bit for bit
                sum_in(vw2, (half * h).T @ gb)
            if vb2 is not None:
                sum_in(vb2, gb.sum(axis=0))
            dh = _gelu_slope(h, t, half)
            dh *= _rows_product(gb, w2d.T)
            if vw1 is not None:
                sum_in(vw1, xb.T @ dh)
            if vb1 is not None:
                sum_in(vb1, dh.sum(axis=0))
            if dx is not None:
                dx[rows] = _rows_product(dh, w1d.T)
        for v, s in sums.items():
            _accumulate(v, s)
        if dx is not None:
            _accumulate(vx, dx.reshape(xs))

    return _make(out.reshape(xs[:-1] + (n,)), parents, bw)


def layer_norm(x, gain, bias):
    """Layer normalization over the last dimension with learnable scale/shift.

    xhat is built in place from the centred copy of x and the bias is added
    in place into the scaled output; the backward builds dx in place from
    g * gain, in the operation order of
    inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    gd, vx, vgain, vbias = gain.data, x._vertex, gain._vertex, bias._vertex
    out_data = xhat * gd
    out_data += bias.data

    def bw(g):
        red = tuple(range(g.ndim - 1))
        _accumulate(vgain, (g * xhat).sum(axis=red))
        _accumulate(vbias, g.sum(axis=red))
        dx = g * gd
        m2 = (dx * xhat).mean(axis=-1, keepdims=True)
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= xhat * m2
        dx *= inv
        _accumulate(vx, dx)

    return _make(out_data, (x, gain, bias), bw)


def dropout(x, p, rng):
    """Inverted dropout with a keep mask drawn from the generator rng at x's
    shape; identity when rng is None or p == 0.

    Only the boolean keep mask is saved, an eighth of a float64 mask; the
    backward rebuilds the scaled mask from it with the forward's
    expression."""
    x = _as_tensor(x)
    if rng is None or p <= 0.0:
        return x
    keep = rng.random(x.shape) >= p
    scale, dtype, vx = 1.0 / (1.0 - p), x.dtype, x._vertex
    out_data = x.data * (keep.astype(dtype) * scale)

    def bw(g):
        _accumulate(vx, g * (keep.astype(dtype) * scale))

    return _make(out_data, (x,), bw)


# ---------------------------------------------------------------------------
# gated fusion
# ---------------------------------------------------------------------------

def gated_sum(features, wf, mode="softmax"):
    """sum_i gate_i * f_i over k same-shape features [..., h], as one node.

    The logit of feature i is f_i @ wf (wf: [h, 1]), one GEMV per feature
    with no [..., k, h] stack. The gates are the softmax of the k logits
    (mode "softmax": convex) or their sigmoids (mode "sigmoid":
    independent); the weighted sum is accumulated in place. Only the gates
    are saved. The backward takes dgate_i as row dot products of the output
    gradient g with f_i, dlogit_i through the softmax or sigmoid Jacobian,
    df_i = g * gate_i + dlogit_i wf^T and dwf = sum_i f_i^T dlogit_i.

    Returns (out [..., h], gates [..., k]); gates is a constant tensor.
    """
    features = [_as_tensor(f) for f in features]
    wf = _as_tensor(wf)
    if not features:
        raise ValueError("gated_sum needs at least one feature")
    shp = features[0].shape
    h = shp[-1]
    if wf.shape != (h, 1) or any(f.shape != shp for f in features[1:]):
        raise ShapeMismatchError(
            f"gated_sum expects features of one shape [..., h] and wf [h, 1], "
            f"got {[f.shape for f in features]} and {wf.shape}")
    if mode not in ("softmax", "sigmoid"):
        raise ValueError(f"unknown gating mode {mode!r}")
    k = len(features)
    fs = [f.data.reshape(-1, h) for f in features]
    vfs, vwf = [f._vertex for f in features], wf._vertex
    w = wf.data[:, 0]
    logits = np.stack([f @ w for f in fs], axis=1)    # [n, k]
    if mode == "softmax":
        gates = kernels.softmax_rows(logits)
    else:
        gates = 1.0 / (1.0 + np.exp(-logits))
    out = fs[0] * gates[:, :1]
    tmp = np.empty_like(out)
    for i in range(1, k):
        np.multiply(fs[i], gates[:, i:i + 1], out=tmp)
        out += tmp

    def bw(g):
        g2 = g.reshape(-1, h)
        dg = np.stack([np.einsum("ij,ij->i", g2, f) for f in fs], axis=1)
        if mode == "softmax":
            dlogit = gates * (dg - (dg * gates).sum(axis=1, keepdims=True))
        else:
            dlogit = dg * gates * (1.0 - gates)
        for i, v in enumerate(vfs):
            if v is not None:
                d = g2 * gates[:, i:i + 1]
                d += dlogit[:, i:i + 1] * w
                _accumulate(v, d.reshape(shp))
        if vwf is not None:
            dw = fs[0].T @ dlogit[:, 0]
            for i in range(1, k):
                dw += fs[i].T @ dlogit[:, i]
            _accumulate(vwf, dw[:, None])

    fused = _make(out.reshape(shp), tuple(features) + (wf,), bw)
    return fused, Tensor(gates.reshape(shp[:-1] + (k,)))


# ---------------------------------------------------------------------------
# lookup / loss
# ---------------------------------------------------------------------------

def _table_index(table, idx):
    """idx as int64, checked to index rows of table."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"embedding index out of range [0, {table.shape[0]}): "
            f"min={idx.min()}, max={idx.max()}")
    return idx


def _scatter_into_grad(vt, shape, dtype, idx, g):
    """Add the rows of g [..., h] into the gradient of the vertex vt of a
    table of shape and dtype at the rows idx [...]."""
    # a .grad may be shared (see _accumulate): scatter into a fresh buffer,
    # zeroed by the allocator or seeded with the gradient so far
    buf = (np.zeros(shape, dtype=dtype) if vt.grad is None
           else vt.grad.copy())
    kernels.scatter_add_rows(buf, idx.reshape(-1),
                             np.ascontiguousarray(g.reshape(-1, shape[-1])))
    vt.grad = buf


def embedding_lookup(table, idx):
    """Row gather; gradient is a scatter-add into the table."""
    table = _as_tensor(table)
    idx = _table_index(table, idx)
    out_data = table.data[idx]
    vt, shape, dtype = table._vertex, table.shape, table.dtype

    def bw(g):
        _scatter_into_grad(vt, shape, dtype, idx, g)

    return _make(out_data, (table,), bw)


def pooled_lookup(table, idx, weights):
    """sum_k weights[..., k] * table[idx[..., k]], one node: a weighted pool
    of table rows, e.g. the mean of a multi-valued field's entries.

    idx and weights are [..., K]; the output is [..., h]. The forward
    gathers the [..., K, h] rows, weights them in place and sums over K, as
    a lookup, a product and a sum would. Only idx and weights are saved, not
    the gathered rows; the backward scatter-adds g * weights into the
    table."""
    table = _as_tensor(table)
    idx = _table_index(table, idx)
    weights = np.asarray(weights, dtype=table.dtype)
    if weights.shape != idx.shape:
        raise ShapeMismatchError(
            f"pooled_lookup: weights {weights.shape} for indices {idx.shape}")
    rows = table.data[idx]
    rows *= weights[..., None]
    out_data = rows.sum(axis=-2)
    vt, shape, dtype = table._vertex, table.shape, table.dtype

    def bw(g):
        _scatter_into_grad(vt, shape, dtype, idx,
                           g[..., None, :] * weights[..., None])

    return _make(out_data, (table,), bw)


def take_rows(x, rows):
    """Gather x[rows] along the first axis; rows is a slice or unique indices.

    The backward writes the gradient into a zeroed array of x's shape with a
    plain index assignment (no scatter-add), which is why rows must not
    repeat. A slice reads a view of x, with no copy."""
    x = _as_tensor(x)
    out_data = x.data[rows]
    vx, shape, dtype = x._vertex, x.shape, x.dtype

    def bw(g):
        full = np.zeros(shape, dtype=dtype)
        full[rows] = g
        _accumulate(vx, full)

    return _make(out_data, (x,), bw)


def cross_entropy_masked(logits, labels):
    """Mean cross-entropy over every row of logits.

    logits: [n, m]; labels: [n] with values in 1..m (class = label - 1).
    Softmax is over the full last dimension. The caller passes only the rows
    a loss reads (for a masked-item loss, the masked rows); a label outside
    1..m raises ValueError. The forward's exp(z - max) [n, m] and its row
    sums are kept; the backward turns them into the gradient in place.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, m = logits.shape
    if labels.shape != (n,):
        raise ShapeMismatchError(
            f"cross_entropy_masked: {n} rows of logits, labels {labels.shape}")
    if n == 0:
        raise ValueError("cross_entropy_masked: no rows to score")
    if labels.min() < 1 or labels.max() > m:
        raise ValueError(f"cross_entropy_masked: labels must be in 1..{m}, "
                         f"got {labels.min()}..{labels.max()}")
    cls = labels - 1
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    e = z - zmax
    np.exp(e, out=e)
    s = e.sum(axis=1, keepdims=True)
    lse = np.log(s[:, 0]) + zmax[:, 0]
    loss = (lse - z[np.arange(n), cls]).sum() / n
    vlogits = logits._vertex

    def bw(g):
        # the softmax is the forward's exponentials over their row sums,
        # normalized in place (backward runs once per graph)
        p = np.divide(e, s, out=e)
        p[np.arange(n), cls] -= 1.0
        p *= float(g) / n
        _accumulate(vlogits, p)

    return _make(np.asarray(loss), (logits,), bw)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

class AttentionLayout:
    """Where the real tokens of a right-aligned [B, L] batch sit, in the
    length groups that :func:`scaled_dot_attention` runs over.

    Keys and values are the N real-token rows; ``rows`` holds their flat
    positions (b * L + slot), in order. Queries are the rows at ``pos``:
    every real token, or after :meth:`at` a subset of them, in which case
    ``picked`` indexes them among the N real-token rows.

    Batch rows are grouped by their exact length, in ascending order, so a
    group of length l runs over the last l slots of its rows, which are all
    real: no group holds a pad key, and a row's attention does not depend
    on the other rows of its batch. Per group, ``keys`` holds (batch rows,
    l, the real-token row of each key slot [b, l]); ``queries`` holds (the
    query row of each query slot [b, r] (0 at pads), its slot within the L
    positions [b, r], which query slots are real [b, r]).
    """

    def __init__(self, pad_mask):
        pad_mask = np.asarray(pad_mask, dtype=bool)
        B, L = pad_mask.shape
        lengths = pad_mask.sum(axis=1)
        if not lengths.all():
            raise ValueError(
                "attention row with every key masked (empty sequence)")
        if not np.array_equal(pad_mask, np.arange(L) >= L - lengths[:, None]):
            raise ValueError("real tokens must be right-aligned in each row")
        self.shape, self.pad_mask = (B, L), pad_mask
        self.rows = np.flatnonzero(pad_mask)
        self.picked = None
        first = np.cumsum(lengths) - lengths
        self.keys = []
        for l in sorted(set(lengths.tolist())):
            bi = np.flatnonzero(lengths == l)
            self.keys.append((bi, l, first[bi][:, None] + np.arange(l)))
        self._place_queries(self.rows)

    def _place_queries(self, pos):
        """Make the real tokens at the flat positions pos the query rows,
        grouped as the keys are."""
        B, L = self.shape
        counts = np.bincount(pos // L, minlength=B)
        first = np.cumsum(counts) - counts
        self.pos, self.queries = pos, []
        for bi, _, _ in self.keys:
            real = np.arange(counts[bi].max()) < counts[bi][:, None]
            idx = np.where(real, first[bi][:, None] + np.arange(real.shape[1]),
                           0)
            self.queries.append((idx, pos[idx] % L, real))

    def at(self, pos):
        """This layout with queries at the flat positions pos only.

        pos must be strictly increasing real-token positions; query row i
        is the token at pos[i]. Keys stay every real token."""
        pos = np.asarray(pos, dtype=np.int64).reshape(-1)
        picked = np.searchsorted(self.rows, pos)
        if pos.size and (np.any(np.diff(pos) <= 0) or pos[-1] > self.rows[-1]
                         or not np.array_equal(self.rows[picked], pos)):
            raise ValueError("query positions must be increasing real-token "
                             "positions")
        out = copy.copy(self)
        out.picked = picked
        out._place_queries(pos)
        return out


def _gather_heads(a, idx, real=None):
    """Rows idx [b, n] of a [N, H, d] as [b, H, n, d]; rows where real is
    False are zeroed."""
    g = a[idx]
    if real is not None:
        g[~real] = 0.0
    return g.transpose(0, 2, 1, 3)


def scaled_dot_attention(q, k, v, layout, heads, attn_dropout=0.0, rng=None,
                         collect=False):
    """Multi-head softmax(Q K^T / sqrt(d)) V over real tokens, one graph node.

    q: the query rows [layout.pos, h]; k, v: the real-token rows
    [layout.rows, h]; h = heads * d. Each length group of the layout runs
    at its own length, over real keys only: 1/sqrt(d) is folded into the
    gathered Q in place, the softmax is written over the scores, and the
    query rows of one sequence attend to its own keys only. Given rng,
    attention dropout draws one keep mask per group at the shape of its
    probabilities [b, H, r, l], in group order.
    Only the probabilities and the boolean keep masks are saved; the
    backward gathers Q, K, V again and writes dQ, dK, dV rows with plain
    index writes.

    Returns (out [len(layout.pos), h], attn). With collect, attn is the
    dense [B, H, L, L] constant of the probabilities before dropout, zero
    at pad query rows and pad keys; otherwise it is None.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    n, h = k.shape
    if (v.shape != (n, h) or q.shape != (len(layout.pos), h)
            or n != len(layout.rows) or h % heads):
        raise ShapeMismatchError(
            f"attention expects Q {(len(layout.pos), h)} and K, V "
            f"{(len(layout.rows), h)} split into {heads} heads, got "
            f"{q.shape}, {k.shape}, {v.shape}")
    B, L = layout.shape
    d = h // heads
    c = 1.0 / math.sqrt(d)
    qh, kh, vh = (t.data.reshape(-1, heads, d) for t in (q, k, v))
    scale = 1.0 / (1.0 - attn_dropout)
    record = _records(q, k, v)
    attn = np.zeros((B, heads, L, L), dtype=q.dtype) if collect else None
    hh = np.arange(heads)[:, None]
    out = np.empty_like(q.data)
    vq, vk, vv = q._vertex, k._vertex, v._vertex
    oh = out.reshape(-1, heads, d)
    saved = []
    for (bi, l, kidx), (qidx, qslot, qreal) in zip(layout.keys,
                                                   layout.queries):
        qg = _gather_heads(qh, qidx, qreal)
        qg *= c
        s = qg @ _gather_heads(kh, kidx).swapaxes(-1, -2)     # [b, H, r, l]
        del qg
        p = kernels.softmax_rows(s.reshape(-1, l)).reshape(s.shape)
        if collect:
            attn[bi[:, None, None], hh, qslot[:, None, :], L - l:] = (
                p * qreal[:, None, :, None])
        kept, pd = None, p
        if rng is not None and attn_dropout > 0.0:
            kept = rng.random(p.shape) >= attn_dropout
            pd = p * (kept.astype(p.dtype) * scale)
        o = pd @ _gather_heads(vh, kidx)
        oh[qidx[qreal]] = o.transpose(0, 2, 1, 3)[qreal]
        if record:
            saved.append((p, kept))

    def bw(g):
        gh = g.reshape(-1, heads, d)
        dqh, dkh, dvh = (np.empty_like(a) for a in (qh, kh, vh))
        for (_, _, kidx), (qidx, _, qreal), (p, kept) in zip(
                layout.keys, layout.queries, saved):
            go = _gather_heads(gh, qidx, qreal)               # [b, H, r, d]
            m = None if kept is None else kept.astype(p.dtype) * scale
            pd = p if m is None else p * m
            dv_g = pd.swapaxes(-1, -2) @ go
            dvh[kidx] = dv_g.transpose(0, 2, 1, 3)
            ds = go @ _gather_heads(vh, kidx).swapaxes(-1, -2)  # dP, [b,H,r,l]
            if m is not None:
                ds *= m
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            dq_g = ds @ _gather_heads(kh, kidx)
            dq_g *= c
            dqh[qidx[qreal]] = dq_g.transpose(0, 2, 1, 3)[qreal]
            qg = _gather_heads(qh, qidx, qreal)
            qg *= c
            dk_g = ds.swapaxes(-1, -2) @ qg
            dkh[kidx] = dk_g.transpose(0, 2, 1, 3)
        _accumulate(vq, dqh.reshape(-1, h))
        _accumulate(vk, dkh.reshape(-1, h))
        _accumulate(vv, dvh.reshape(-1, h))

    return _make(out, (q, k, v), bw), (None if attn is None else Tensor(attn))

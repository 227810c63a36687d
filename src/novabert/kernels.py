"""Hot numeric kernels on plain numpy: row softmax, embedding scatter-add and
the Adam update. Callers reach them through this module
(``kernels.softmax_rows(...)``) so that a tracer can wrap them in one place.
"""

import numpy as np

# elements per block of adam_update: a float64 temporary of 256 KB
ADAM_BLOCK = 1 << 15


def softmax_rows(x):
    """Row-wise stable softmax of a 2-D array, written over x in place;
    returns x. Callers pass an array they own, such as fresh scores."""
    x -= x.max(axis=1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=1, keepdims=True)
    return x


def scatter_add_rows(out, idx, grad):
    """out[idx[i]] += grad[i] for every row i (duplicate indices accumulate).

    out is [rows, h], idx [n] and grad [n, h]. One ``np.bincount`` over the
    flat indices idx * h + column sums the rows in float64, in the order of
    i, and the sums are added to out in its own dtype."""
    rows, h = out.shape
    flat = (idx[:, None] * h + np.arange(h)).reshape(-1)
    out += np.bincount(flat, weights=grad.reshape(-1),
                       minlength=rows * h).reshape(rows, h)


def adam_update(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2):
    """In-place Adam step on flat arrays. bc1/bc2 are the bias corrections.
    It runs in blocks of ADAM_BLOCK elements, so its temporaries stay small;
    every op is elementwise, so the blocks do not change the result."""
    for lo in range(0, p.size, ADAM_BLOCK):
        s = slice(lo, lo + ADAM_BLOCK)
        gs, ms, vs = g[s], m[s], v[s]
        ms *= beta1
        ms += (1.0 - beta1) * gs
        vs *= beta2
        vs += (1.0 - beta2) * gs * gs
        p[s] -= lr * (ms / bc1) / (np.sqrt(vs / bc2) + eps)

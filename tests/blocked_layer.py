"""The evaluation-only encoder layer that ran the part after attention in
row blocks, kept as a test oracle for the one forward path of model.py.

Without a graph or a generator, ``Model._layer`` once ran Wo, the residual,
LN1, the FFN, the second residual and LN2 over the FFN's row blocks
(``tensor.row_blocks``), one block at a time, and wrote each block into one
preallocated output. Patched in as ``Model._layer``, it must give
``train.score_pairs`` the scores of the single pass over all rows, bit for
bit. It computes on the blocks' arrays, so it records no graph, and it
takes no generator: dropout does not run in evaluation.
"""

import numpy as np

from novabert import tensor as T
from novabert.model import FFN_MULT


def _after_attention(model, layer, res, out):
    """Wo, the residual with res, LN1, the FFN, the residual and LN2 on the
    rows of the attention output out."""
    p, params = f"layer{layer}", model.params
    out = model._linear(out, f"{p}.attn.wo")
    x = T.layer_norm(T.add(res, out), params[f"{p}.ln1.g"],
                     params[f"{p}.ln1.b"])
    return T.layer_norm(T.add(x, model._ffn(x, layer)),
                        params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])


def blocked_layer(model, layer, qk_src, x, layout, rng, collect):
    """Model._layer's forward-only path before it had one forward path:
    attention as there, then the rest of the layer block by block."""
    if rng is not None:
        raise ValueError("the blocked layer runs evaluation only, no dropout")
    p = f"layer{layer}"
    q_src, res = qk_src, x
    if layout.picked is not None:
        q_src = T.take_rows(qk_src, layout.picked)
        res = T.take_rows(x, layout.picked)
    out, attn = T.scaled_dot_attention(
        model._linear(q_src, f"{p}.attn.wq"),
        model._linear(qk_src, f"{p}.attn.wk"),
        model._linear(x, f"{p}.attn.wv"), layout, model.config.num_heads,
        attn_dropout=model.config.dropout, rng=None, collect=collect)
    y = np.empty_like(out.data)
    for rows in T.row_blocks(len(y), FFN_MULT * y.shape[1], y.itemsize):
        y[rows] = _after_attention(model, layer, res.data[rows],
                                   out.data[rows]).data
    return T.Tensor(y), attn

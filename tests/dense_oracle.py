"""The dense encoder, kept as a test oracle for the packed one in model.py.

Every position-wise op (lookups, fusion, projections, FFN, layer norm,
dropout) runs on all B*L positions, pad slots included; the attention core
is the dense [B, H, L, L] chain of separate ops (matmul, scale, additive
mask, softmax, dropout, matmul), not the fused op it checks; gated fusion is
the chain stack, matmul, softmax or sigmoid, matmul, not ``T.gated_sum``;
and the decoder scores every position. It reads a Model's parameters.

The packed model draws its dropout masks at packed shapes: one row per row
it computes, and one [b, H, r, l] mask per attention length group. A
:class:`Recorder`, passed to the packed model as its generator, keeps each
draw; a :class:`Replay` of those draws, passed here, places each one at its
dense positions, in the order Model.encode draws them, and keeps every slot
no draw covers: pad slots and rows no loss reads. An attention group holds
one row length, so its draws cover no pad key. Under the same masks the two
must give the same loss and the same gradients up to summation order, and
the dense chain must consume every recorded draw.
"""

import math
from types import SimpleNamespace

import numpy as np

import dense_ops as DO
from novabert import embedfuse as EF
from novabert import tensor as T


NEG_INF = -1e30  # additive score of a masked key; exp() underflows to 0.0


class Recorder:
    """A generator that keeps every array it draws, in order."""

    def __init__(self, seed):
        self._gen = np.random.default_rng(seed)
        self.draws = []

    def random(self, shape):
        out = self._gen.random(shape)
        self.draws.append(out)
        return out


class Replay:
    """Recorded packed draws, handed out in order, each at its dense
    positions; every other dense slot gets 1.0, which dropout keeps."""

    def __init__(self, draws):
        self.draws, self.used = draws, 0

    def _next(self):
        self.used += 1
        return self.draws[self.used - 1]

    def rows(self, pos):
        """A generator whose draw [B, L, h] holds the next recorded draw
        [len(pos), h] at the flat slots pos."""
        def random(shape):
            dense = np.ones((math.prod(shape[:-1]), shape[-1]))
            dense[pos] = self._next()
            return dense.reshape(shape)
        return SimpleNamespace(random=random)

    def attention(self, layout):
        """A generator whose draw [B, H, L, L] holds the next recorded draw
        [b, H, r, l] of each length group of layout at its batch rows, its
        real query slots and its last l key slots."""
        def random(shape):
            dense = np.ones(shape)
            heads, L = np.arange(shape[1]), shape[-1]
            for (bi, l, _), (_, qslot, qreal) in zip(layout.keys,
                                                     layout.queries):
                b, r = np.nonzero(qreal)
                dense[bi[b][:, None], heads, qslot[b, r][:, None], L - l:] = (
                    self._next()[b, :, r])
            return dense
        return SimpleNamespace(random=random)


# stands in for a Replay where no dropout runs: no site gets a generator
NO_DROPOUT = SimpleNamespace(rows=lambda pos: None,
                             attention=lambda layout: None)


def _linear(model, x, prefix):
    out = DO.matmul(x, model.params[prefix + ".w"])
    if prefix + ".b" in model.params:
        out = T.add(out, model.params[prefix + ".b"])
    return out


def _split_heads(model, x):
    B, L, h = x.shape
    H = model.config.num_heads
    d = model.config.hidden_size // H
    return T.transpose(DO.reshape(x, (B, L, H, d)), (0, 2, 1, 3))


def _merge_heads(x):
    B, H, L, d = x.shape
    return DO.reshape(T.transpose(x, (0, 2, 1, 3)), (B, L, H * d))


def attention(q, k, v, key_mask, p, rng):
    """softmax(Q K^T / sqrt(d) + additive key mask), dropout, then V, as a
    chain of separate ops. q, k, v: [..., L, d]; key_mask broadcasts to the
    scores [..., L, L] and is True for keys that may be attended to.
    Returns (out, attention probabilities before dropout)."""
    d = q.shape[-1]
    axes = tuple(range(k.data.ndim - 2)) + (k.data.ndim - 1, k.data.ndim - 2)
    scores = DO.mul(DO.matmul(q, T.transpose(k, axes)), 1.0 / np.sqrt(d))
    scores = T.add(scores, np.where(key_mask, 0.0, NEG_INF))
    attn = DO.softmax_lastdim(scores)
    return DO.matmul(T.dropout(attn, p, rng), v), attn


def gating(features, wf, mode):
    """Gated sum of features [..., h] with gate vector wf [h, 1] as a chain
    of separate ops. Returns (fused [..., h], gates [..., k])."""
    k = len(features)
    fmat = DO.stack(features, axis=-2)                      # [..., k, h]
    logits = DO.matmul(fmat, wf)                            # [..., k, 1]
    logits = DO.reshape(logits, logits.shape[:-2] + (k,))   # [..., k]
    gates = (DO.softmax_lastdim(logits) if mode == "softmax"
             else DO.sigmoid(logits))
    grow = DO.reshape(gates, gates.shape[:-1] + (1, k))     # [..., 1, k]
    out = DO.matmul(grow, fmat)                             # [..., 1, h]
    return DO.reshape(out, out.shape[:-2] + (out.shape[-1],)), gates


def _fuse(model, first, side, site):
    cfg = model.config
    if cfg.fusion == "gating":
        return gating([first] + list(side), model.fusion[site]["wf"],
                      cfg.gating_mode)[0]
    return EF.integrated_embeddings(first, side, cfg.fusion,
                                    model.fusion[site], cfg.gating_mode)


def _attention_block(model, layer, qk_src, v_src, key_mask, rng, layout):
    p = f"layer{layer}.attn"
    q = _split_heads(model, _linear(model, qk_src, f"{p}.wq"))
    k = _split_heads(model, _linear(model, qk_src, f"{p}.wk"))
    v = _split_heads(model, _linear(model, v_src, f"{p}.wv"))
    out, attn = attention(q, k, v, key_mask, model.config.dropout,
                          rng.attention(layout))
    out = _linear(model, _merge_heads(out), f"{p}.wo")
    return T.dropout(out, model.config.dropout, rng.rows(layout.pos)), attn


def _sublayers(model, layer, x, attn_out, rng, layout):
    p, params = f"layer{layer}", model.params
    x = T.layer_norm(T.add(x, attn_out), params[f"{p}.ln1.g"],
                     params[f"{p}.ln1.b"])
    f = _linear(model, DO.gelu(_linear(model, x, f"{p}.ffn.w1")), f"{p}.ffn.w2")
    f = T.dropout(f, model.config.dropout, rng.rows(layout.pos))
    return T.layer_norm(T.add(x, f), params[f"{p}.ln2.g"],
                        params[f"{p}.ln2.b"])


def encode(model, batch, rng=None, positions=None):
    """(hidden [B, L, h], attention maps per layer), every slot computed.

    Dropout runs when rng is given, as a :class:`Replay` of the draws of
    Model.encode with the same positions, which only decide where the last
    layer's draws go."""
    cfg, params = model.config, model.params
    rng = NO_DROPOUT if rng is None else rng
    layout = T.AttentionLayout(batch.pad_mask)
    last = layout if positions is None else layout.at(positions)
    key_mask = batch.pad_mask[:, None, None, :]
    # every slot is a row, pad slots included, laid back out as [B, L, h]
    B, L = batch.items.shape
    side = [DO.reshape(t, (B, L, t.shape[-1])) for t in EF.embed_side_features(
        batch, params, model.side, np.arange(B * L), cfg.use_position)]
    x = T.embedding_lookup(params["emb.id"], batch.items)
    nova = cfg.attention == "nova"
    if not nova:
        x = _fuse(model, x, side, 0)
    x = T.dropout(x, cfg.dropout, rng.rows(layout.rows))
    attns = []
    for i in range(cfg.num_layers):
        lay = last if i == cfg.num_layers - 1 else layout
        r = _fuse(model, x, side, i) if nova else x
        attn_out, attn = _attention_block(model, i, r, x, key_mask, rng, lay)
        x = _sublayers(model, i, x, attn_out, rng, lay)
        attns.append(attn)
    return x, attns


def loss(model, batch, rng=None):
    """Masked-item cross-entropy of [B, L, m] logits from a copied table,
    read at the labelled slots."""
    labels = batch.labels.reshape(-1)
    pos = np.flatnonzero(labels)
    hidden, _ = encode(model, batch, rng=rng, positions=pos)
    table = T.embedding_lookup(model.params["emb.id"],
                               np.arange(1, model.catalog.m + 1))
    logits = T.add(DO.matmul(hidden, T.transpose(table, (1, 0))),
                   model.params["dec.bias"])
    flat = DO.reshape(logits, (labels.size, model.catalog.m))
    return model.masked_loss(T.take_rows(flat, pos), labels[pos])

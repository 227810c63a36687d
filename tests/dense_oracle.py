"""The dense encoder, kept as a test oracle for the packed one in model.py.

Every position-wise op (lookups, fusion, projections, FFN, layer norm,
dropout) runs on all B*L positions, pad slots included; the attention core
is the dense [B, H, L, L] chain of separate ops (matmul, scale, additive
mask, softmax, dropout, matmul), not the fused op it checks; gated fusion is
the chain stack, matmul, softmax or sigmoid, matmul, not ``T.gated_sum``;
and the decoder scores every position. It reads a Model's parameters and
draws dropout masks in the same order as Model.encode, so with the same
generator the two must give the same loss, the same gradients up to
summation order, and leave the generator in the same state.
"""

import numpy as np

from novabert import embedfuse as EF
from novabert import tensor as T


def _linear(model, x, prefix):
    out = T.matmul(x, model.params[prefix + ".w"])
    if prefix + ".b" in model.params:
        out = T.add(out, model.params[prefix + ".b"])
    return out


def _split_heads(model, x):
    B, L, h = x.shape
    H, d = model.config.num_heads, model.config.d_k
    return T.transpose(T.reshape(x, (B, L, H, d)), (0, 2, 1, 3))


def _merge_heads(x):
    B, H, L, d = x.shape
    return T.reshape(T.transpose(x, (0, 2, 1, 3)), (B, L, H * d))


def attention(q, k, v, key_mask, p, rng, train):
    """softmax(Q K^T / sqrt(d) + additive key mask), dropout, then V, as a
    chain of separate ops. q, k, v: [..., L, d]; key_mask broadcasts to the
    scores [..., L, L] and is True for keys that may be attended to.
    Returns (out, attention probabilities before dropout)."""
    d = q.shape[-1]
    axes = tuple(range(k.data.ndim - 2)) + (k.data.ndim - 1, k.data.ndim - 2)
    scores = T.mul(T.matmul(q, T.transpose(k, axes)), 1.0 / np.sqrt(d))
    scores = T.add(scores, np.where(key_mask, 0.0, T.NEG_INF))
    attn = T.softmax_lastdim(scores)
    return T.matmul(T.dropout(attn, p, rng, train), v), attn


def gating(features, wf, mode):
    """Gated sum of features [..., h] with gate vector wf [h, 1] as a chain
    of separate ops. Returns (fused [..., h], gates [..., k])."""
    k = len(features)
    fmat = T.stack(features, axis=-2)                       # [..., k, h]
    logits = T.matmul(fmat, wf)                             # [..., k, 1]
    logits = T.reshape(logits, logits.shape[:-2] + (k,))    # [..., k]
    gates = (T.softmax_lastdim(logits) if mode == "softmax"
             else T.sigmoid(logits))
    grow = T.reshape(gates, gates.shape[:-1] + (1, k))      # [..., 1, k]
    out = T.matmul(grow, fmat)                              # [..., 1, h]
    return T.reshape(out, out.shape[:-2] + (out.shape[-1],)), gates


def _fuse(model, first, side, site):
    cfg = model.config
    if cfg.fusion == "gating":
        return gating([first] + list(side), model.fusion[site]["wf"],
                      cfg.gating_mode)[0]
    return EF.integrated_embeddings(first, side, cfg.fusion,
                                    model.fusion[site], cfg.gating_mode)


def _attention_block(model, layer, qk_src, v_src, key_mask, train, rng):
    p = f"layer{layer}.attn"
    q = _split_heads(model, _linear(model, qk_src, f"{p}.wq"))
    k = _split_heads(model, _linear(model, qk_src, f"{p}.wk"))
    v = _split_heads(model, _linear(model, v_src, f"{p}.wv"))
    out, attn = attention(q, k, v, key_mask, model.config.dropout, rng, train)
    out = _linear(model, _merge_heads(out), f"{p}.wo")
    return T.dropout(out, model.config.dropout, rng, train), attn


def _sublayers(model, layer, x, attn_out, train, rng):
    p, params = f"layer{layer}", model.params
    x = T.layer_norm(T.add(x, attn_out), params[f"{p}.ln1.g"],
                     params[f"{p}.ln1.b"])
    f = _linear(model, T.gelu(_linear(model, x, f"{p}.ffn.w1")), f"{p}.ffn.w2")
    f = T.dropout(f, model.config.dropout, rng, train)
    return T.layer_norm(T.add(x, f), params[f"{p}.ln2.g"],
                        params[f"{p}.ln2.b"])


def encode(model, batch, train=False, rng=None):
    """(hidden [B, L, h], attention maps per layer), every slot computed."""
    cfg, params = model.config, model.params
    key_mask = batch.pad_mask[:, None, None, :]
    feats = cfg.active_features(model.schema)
    side = EF.embed_side_features(batch, params, model.schema, features=feats,
                                  use_position=cfg.use_position)
    attns = []
    if cfg.attention == "invasive":
        r = _fuse(model, T.embedding_lookup(params["emb.id"], batch.items),
                  side, 0)
        x = T.dropout(r, cfg.dropout, rng, train)
        for i in range(cfg.num_layers):
            attn_out, attn = _attention_block(model, i, x, x, key_mask,
                                              train, rng)
            x = _sublayers(model, i, x, attn_out, train, rng)
            attns.append(attn)
    else:
        x = T.embedding_lookup(params["emb.id"], batch.items)
        x = T.dropout(x, cfg.dropout, rng, train)
        for i in range(cfg.num_layers):
            r = _fuse(model, x, side, i)
            attn_out, attn = _attention_block(model, i, r, x, key_mask,
                                              train, rng)
            x = _sublayers(model, i, x, attn_out, train, rng)
            attns.append(attn)
    return x, attns


def loss(model, batch, train=False, rng=None):
    """Masked-item cross-entropy of [B, L, m] logits from a copied table,
    read at the labelled slots."""
    hidden, _ = encode(model, batch, train=train, rng=rng)
    table = T.embedding_lookup(model.params["emb.id"],
                               np.arange(1, model.catalog.m + 1))
    logits = T.add(T.matmul(hidden, T.transpose(table, (1, 0))),
                   model.params["dec.bias"])
    labels = batch.labels.reshape(-1)
    pos = np.flatnonzero(labels)
    flat = T.reshape(logits, (labels.size, model.catalog.m))
    return model.masked_loss(T.take_rows(flat, pos), labels[pos])

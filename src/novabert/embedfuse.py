"""Side-feature embedding and the one fusion call producing integrated
vectors.

All tables share width h. :func:`integrated_embeddings` always receives the
item-ID representation as its first input, then item-related features,
behavior-related features, and finally position (position is just another
behavior feature here). Output width is h for every fusion kind and any
feature count. Each place the model fuses is a fusion site with its own
parameters: the input of the invasive stack, or every NOVA layer.
"""

from __future__ import annotations

import numpy as np

from novabert import tensor as T


def fuse_add(features):
    if not features:
        raise ValueError("fusion needs at least one input")
    width = features[0].shape[-1]
    for f in features[1:]:
        if f.shape[-1] != width:
            raise ValueError(f"fusion width mismatch: {f.shape[-1]} vs {width}")
    out = features[0]
    for f in features[1:]:
        out = T.add(out, f)
    return out


def fuse_concat(features, w, b):
    k = len(features)
    h = features[0].shape[-1]
    if w.shape[0] != k * h:
        raise ValueError(f"concat FC expects {w.shape[0] // h} inputs, got {k}")
    cat = T.concat_lastdim(features)
    return T.linear(cat, w, b)


def real_rows(idx, rows):
    """An index array [B, L, ...] at the flat positions rows (b * L + l)
    only, as [N, ...]."""
    return idx.reshape((-1,) + idx.shape[2:])[rows]


def embed_side_features(batch, params, features, rows, use_position):
    """Embed a batch's side features, the FeatureSpecs features in fusion
    order (see :meth:`model.ModelConfig.fusion_inputs`), at the flat
    positions rows (see :func:`real_rows`), then position if use_position;
    multi-valued features are mean-pooled.

    Returns one [N, h] tensor per input, in that order. A multi field's
    all-pad slot (a pad slot passed as a row) pools to zero."""
    out = []
    for f in features:
        table = params[f"emb.f.{f.name}"]
        idx = real_rows(batch.features[f.name], rows)
        if idx.ndim == 2:  # multi-valued: mean over the real entries
            present = (idx != 0)
            # a count in the table's dtype keeps the weights in it
            count = present.sum(axis=-1, keepdims=True).astype(table.dtype)
            weights = present.astype(table.dtype) / np.maximum(count, 1)
            out.append(T.pooled_lookup(table, idx, weights))
        else:
            out.append(T.embedding_lookup(table, idx))
    if use_position:
        out.append(T.embedding_lookup(params["emb.pos"],
                                      real_rows(batch.positions, rows)))
    return out


def integrated_embeddings(first, side, kind, fusion_params,
                          gating_mode="softmax"):
    """Fuse [first] + side into one width-h representation.

    first is the item-ID representation: the ID lookup at the invasive
    stack's input, the running hidden state in a NOVA layer. side is the
    output of :func:`embed_side_features`, row-aligned with first.
    fusion_params are one fusion site's parameters (see
    :func:`model.param_shapes`): concat an FC ``w``, ``b`` from k*h back to
    h, gating the gate vector ``wf`` [h, 1] of :func:`tensor.gated_sum`.
    """
    features = [first] + list(side)
    if kind == "add":
        return fuse_add(features)
    if kind == "concat":
        return fuse_concat(features, fusion_params["w"], fusion_params["b"])
    if kind == "gating":
        return T.gated_sum(features, fusion_params["wf"], gating_mode)[0]
    raise ValueError(f"unknown fusion kind {kind!r}")

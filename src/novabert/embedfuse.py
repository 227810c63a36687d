"""Side-feature embedding and the fusion function producing integrated
vectors.

:func:`integrated_embeddings` is the one operator NOVA-BERT adds to BERT,
and it writes the paper's three fusions itself: add (a left-to-right sum),
concat (an FC from the concatenation back to h) and gating (a gated sum,
see :func:`tensor.gated_sum`). All tables share width h. Its first input is
always the item-ID representation, then item-related features,
behavior-related features, and finally position (position is just another
behavior feature here). Output width is h for every fusion kind and any
feature count. Each place the model fuses is a fusion site with its own
parameters: the input of the invasive stack, or every NOVA layer.
"""

from __future__ import annotations

import numpy as np

from novabert import tensor as T


def real_rows(idx, rows):
    """An index array [B, L, ...] at the flat positions rows (b * L + l)
    only, as [N, ...]."""
    return idx.reshape((-1,) + idx.shape[2:])[rows]


def embed_side_features(batch, catalog, params, features, rows,
                        use_position):
    """Embed a batch's side features, the FeatureSpecs features in fusion
    order (see :meth:`model.ModelConfig.fusion_inputs`), at the flat
    positions rows (see :func:`real_rows`), then position if use_position;
    multi-valued features are mean-pooled.

    An item feature is read from catalog by the item IDs at rows (a mask
    token reads UNK), at the catalog's width; a behavior feature from batch.

    Returns one [N, h] tensor per input, in that order. A multi field's
    all-pad slot (a pad slot passed as a row) pools to zero."""
    items = real_rows(batch.items, rows)
    out = []
    for f in features:
        table = params[f"emb.f.{f.name}"]
        idx = (catalog.features[f.name][items] if f.kind == "item"
               else real_rows(batch.features[f.name], rows))
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
        out = first
        for f in side:
            out = T.add(out, f)
        return out
    if kind == "concat":
        return T.linear(T.concat_lastdim(features), fusion_params["w"],
                        fusion_params["b"])
    if kind == "gating":
        return T.gated_sum(features, fusion_params["wf"], gating_mode)[0]
    raise ValueError(f"unknown fusion kind {kind!r}")

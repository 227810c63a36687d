"""The side-feature lookup of batches that carried their item features, kept
as a test reference for ``embedfuse.embed_side_features``.

Each item feature was gathered from the catalog over every slot of the
batch, pads included, at the batch's item IDs (the mask token's row is
UNK); a multi field was trimmed to its widest entry in the batch. The model
then read the real tokens' rows of it. The program reads the catalog at the
real tokens only, at the catalog's width; the extra columns are pad and
weigh nothing in the mean, so both must give bit-identical outputs and
gradients.
"""

import numpy as np

from novabert import embedfuse as EF
from novabert import tensor as T


def batch_features(batch, features, catalog):
    """name -> [B, L] or [B, L, K] index array of each of the FeatureSpecs
    features, as the batch used to carry it."""
    out = {}
    for f in features:
        if f.kind == "behavior":
            out[f.name] = batch.features[f.name]
            continue
        arr = catalog.features[f.name][batch.items]
        if f.encoding == "multi":   # entries fill their rows from the left
            width = np.count_nonzero(arr.any(axis=(0, 1)))
            arr = np.ascontiguousarray(arr[..., :max(1, width)])
        out[f.name] = arr
    return out


def embed_side_features(batch, catalog, params, features, rows,
                        use_position):
    """The program's function of the same name and arguments, reading the
    features of :func:`batch_features`."""
    laid_out = batch_features(batch, features, catalog)
    out = []
    for f in features:
        table = params[f"emb.f.{f.name}"]
        idx = EF.real_rows(laid_out[f.name], rows)
        if idx.ndim == 2:
            present = (idx != 0)
            count = present.sum(axis=-1, keepdims=True).astype(table.dtype)
            weights = present.astype(table.dtype) / np.maximum(count, 1)
            out.append(T.pooled_lookup(table, idx, weights))
        else:
            out.append(T.embedding_lookup(table, idx))
    if use_position:
        out.append(T.embedding_lookup(params["emb.pos"],
                                      EF.real_rows(batch.positions, rows)))
    return out

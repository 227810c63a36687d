"""The per-slot batch builders, kept as a test oracle for the gathering ones
in data.py.

They lay out each slot's behavior features and fill multi-valued fields
slot by slot. They draw the masks in the order ``data.make_masked_batch``
does, so from the same generator state both must give the same batch: every
array equal, in the same dtype and shape. A batch carries no item features;
:func:`item_features` gives, slot by slot, those the model reads from the
catalog at a batch's item IDs. Argument checks are the program's and are not
repeated here.
"""

import numpy as np

from novabert import data as D


def item_features(items, schema, catalog):
    """name -> the item features at the item IDs items [B, L], looked up
    slot by slot in per-item values encoded afresh from the catalog's raw
    strings: 0 at a pad slot, UNK at the mask token through a branch of its
    own. A multi field is [B, L, K], zero-padded to the widest item's
    entry."""
    out = {}
    for f in schema.item_features():
        per_item = [f.encode(v) for v in catalog.raw_features[f.name]]
        multi = f.encoding == "multi"
        width = (max([1] + [len(v) for v in per_item]),) if multi else ()
        arr = np.zeros(items.shape + width, dtype=np.int64)
        for slot, it in np.ndenumerate(items):
            if it == D.PAD:
                continue
            vals = f.unk if it == catalog.mask_token else per_item[it - 1]
            if multi:
                arr[slot][:len(vals)] = vals
            else:
                arr[slot] = vals
        out[f.name] = arr
    return out


def window(values, L):
    return values[-L:] if len(values) > L else values


def build_batch(rows, schema, catalog, L):
    """Lay rows out right-aligned in a [B, L] batch.

    Each row is (items, behavior dict, masked bool list), all aligned. A
    masked slot holds the mask token, is labelled with its true item, and
    keeps its position and behavior features."""
    B = len(rows)
    items = np.zeros((B, L), dtype=np.int64)
    positions = np.zeros((B, L), dtype=np.int64)
    labels = np.zeros((B, L), dtype=np.int64)
    for b, (row_items, _, masked) in enumerate(rows):
        n = len(row_items)
        real = np.asarray(row_items, dtype=np.int64)
        masked = np.asarray(masked, dtype=bool)
        items[b, L - n:] = np.where(masked, catalog.mask_token, real)
        labels[b, L - n:] = np.where(masked, real, 0)
        positions[b, L - n:] = np.arange(1, n + 1)
    features = {}
    for f in schema.behavior_features():
        cols = [beh[f.name] for _, beh, _ in rows]
        if f.encoding == "multi":
            kmax = max([1] + [len(v) for col in cols for v in col])
            arr = np.zeros((B, L, kmax), dtype=np.int64)
            for b, col in enumerate(cols):
                for j, vals in enumerate(col):
                    arr[b, L - len(col) + j, :len(vals)] = vals
        else:
            arr = np.zeros((B, L), dtype=np.int64)
            for b, col in enumerate(cols):
                arr[b, L - len(col):] = col
        features[f.name] = arr
    return D.Batch(items, positions, features, labels)


def masked_batch(train_seqs, schema, catalog, mask_prob, rng, L):
    """The cloze batch of :func:`data.make_masked_batch`."""
    rows = []
    for seq in train_seqs:
        items = window(seq.items, L)
        while True:
            masked = rng.random(len(items)) < mask_prob
            if masked.any():
                break
        beh = {name: window(vals, L) for name, vals in seq.behavior.items()}
        rows.append((items, beh, masked))
    return build_batch(rows, schema, catalog, L)


def eval_batch(pairs, schema, catalog, L):
    """The prefix-plus-mask batch of :func:`data.make_eval_batch`."""
    rows = []
    for pair in pairs:
        prefix = window(pair.items, L - 1)
        beh = {f.name: list(window(pair.behavior[f.name], L - 1))
               + [f.unk]
               for f in schema.behavior_features()}
        rows.append(([*prefix, pair.target], beh,
                     [False] * len(prefix) + [True]))
    return build_batch(rows, schema, catalog, L)

"""Program-side helpers that only the tests use: the TSV writers, inverses
of ``data.load_items`` and ``data.load_interactions`` that write test
fixtures, and the NOVA value-path probe of the acceptance suite."""

from novabert import tensor as T


def write_items(catalog, schema, path):
    item_feats = schema.item_features()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["item_id"] + [f.name for f in item_feats]) + "\n")
        for i, raw in enumerate(catalog.raw_ids):
            row = [raw] + [catalog.raw_features[f.name][i] for f in item_feats]
            fh.write("\t".join(row) + "\n")


def write_interactions(sequences, schema, catalog, path):
    beh_feats = schema.behavior_features()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["user_id", "item_id", "timestamp"]
                           + [f.name for f in beh_feats]) + "\n")
        for seq in sequences:
            for j in range(len(seq)):
                row = [seq.user, catalog.raw_ids[seq.items[j] - 1],
                       str(seq.timestamps[j])]
                row += [seq.raw_behavior[f.name][j] for f in beh_feats]
                fh.write("\t".join(row) + "\n")


def first_layer_values(model, batch):
    """Layer-1 value-path input V*W_V of the real tokens, [N, h] in flat
    order (the ID-branch purity probe)."""
    if model.config.attention != "nova":
        raise ValueError("value probe is defined for NOVA mode")
    hidden = T.embedding_lookup(model.params["emb.id"],
                                batch.items[batch.pad_mask])
    return model._linear(hidden, "layer0.attn.wv")

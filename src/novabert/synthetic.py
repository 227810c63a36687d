"""Synthetic dataset builders used by the tests and the example configs.

Both builders return (schema, catalog, sequences) in the same structures the
TSV loader produces, so they can be split/batched/evaluated identically. The
catalog is built by ``data.build_catalog``, the path ``data.load_items``
takes, so the same raw strings get the same vocabularies and indices.
"""

from __future__ import annotations

import numpy as np

from novabert.data import (FeatureSpec, InteractionSequence, SideInfoSchema,
                           build_catalog)


def make_catalog(m, schema=None, feature_values=None):
    """Catalog with raw IDs "1".."m". feature_values: name -> per-item raw."""
    return build_catalog([str(i + 1) for i in range(m)],
                         schema or SideInfoSchema([]), feature_values or {})


def successor_dataset(m=100, n_seq=500, length=20, seed=0):
    """Deterministic rule: the next item is always (current + 1) mod m.

    No side information; a model that learns the rule can predict held-out
    targets exactly.
    """
    rng = np.random.default_rng(seed)
    schema = SideInfoSchema([])
    catalog = make_catalog(m)
    sequences = []
    for u in range(n_seq):
        start = int(rng.integers(m))
        idx = [(start + j) % m for j in range(length)]
        items = [i + 1 for i in idx]
        sequences.append(InteractionSequence(
            user=f"u{u}", items=items, timestamps=list(range(length)),
            behavior={}, raw_behavior={}))
    return schema, catalog, sequences


def branching_dataset(m=60, n_seq=600, length=12, seed=0):
    """Next item depends only on the previous interaction's binary rating.

    Two fixed successor tables are drawn at random; a coin flip picks which
    one applies at each step. Item IDs alone carry no information about the
    branch, so without the rating feature top-1 accuracy is capped at 0.5.
    """
    rng = np.random.default_rng(seed)
    succ = [rng.permutation(m), rng.permutation(m)]  # index -> next index
    rating = FeatureSpec("rating", "behavior", "categorical")
    rating.build_vocab(["0", "1"])
    schema = SideInfoSchema([rating])
    catalog = make_catalog(m)
    sequences = []
    for u in range(n_seq):
        idx = int(rng.integers(m))
        items, flips = [], []
        for _ in range(length):
            items.append(idx + 1)
            r = int(rng.integers(2))
            flips.append(r)
            idx = int(succ[r][idx])
        raw = [str(r) for r in flips]
        sequences.append(InteractionSequence(
            user=f"u{u}", items=items, timestamps=list(range(length)),
            behavior={"rating": [rating.encode(v) for v in raw]},
            raw_behavior={"rating": raw}))
    return schema, catalog, sequences

"""The packed encoder against the dense oracle in dense_oracle.py.

Model.encode runs its position-wise ops on the real tokens only, and draws
its dropout masks at those packed shapes. These tests hold it to the dense
computation on padded batches: under the packed model's recorded dropout
masks, placed at their dense positions, the same loss and the same
gradients up to summation order, with every recorded draw used and none
drawn at a dense shape; one hidden row per real token and attention maps
that are zero at pad queries; and they guard that the FFN really runs on
the real-token rows.
"""

from collections import Counter

import numpy as np
import pytest

import dense_oracle
from novabert import data as D
from novabert import tensor as T
from novabert.data import FeatureSpec, SideInfoSchema
from novabert.model import FFN_MULT, Model, ModelConfig
from novabert.synthetic import make_catalog

TOL = 1e-12
LENGTHS = (2, 5, 8, 3)   # real tokens per sequence, L = 8


def padded_setup(attention, fusion, dropout=0.1, seed=0, dtype=np.float64,
                 **config):
    """A model with a multi-valued item feature and a behavior feature, and
    two batches whose rows have 0 to 6 pad slots: a masked training batch
    and an appended-mask tail batch. config: further ModelConfig fields."""
    rng = np.random.default_rng(seed)
    m, L = 11, 8
    genre = FeatureSpec("genre", "item", "multi")
    rating = FeatureSpec("rating", "behavior", "categorical")
    rating.build_vocab(["0", "1"])
    schema = SideInfoSchema([genre, rating])
    genres = ["a", "b", "c", "d"]
    catalog = make_catalog(m, schema, {"genre": [
        "|".join(rng.choice(genres, size=int(rng.integers(1, 4)),
                            replace=False)) for _ in range(m)]})

    def seq(n):
        items = [int(i) for i in rng.integers(1, m + 1, size=n)]
        beh = {"rating": [rating.encode(str(r))
                          for r in rng.integers(0, 2, size=n)]}
        return items, beh

    seqs = [D.TrainSequence(*seq(n)) for n in LENGTHS]
    masked = D.make_masked_batch(seqs, schema, catalog, 0.4, rng, L)
    pairs = [D.EvalPair(*seq(n - 1), target=int(rng.integers(1, m + 1)))
             for n in LENGTHS]
    tail = D.make_eval_batch(pairs, schema, catalog, L)
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=2, max_len=L,
                      attention=attention, fusion=fusion, dropout=dropout,
                      **config)
    return Model(cfg, schema, catalog, seed=seed, dtype=dtype), (masked, tail)


def loss_and_grads(model, loss_fn):
    model.zero_grads()
    loss = loss_fn()
    T.backward(loss)
    return loss.item(), {k: p.grad.copy() for k, p in model.params.items()
                         if p.grad is not None}


@pytest.mark.parametrize("fusion", ["add", "concat", "gating"])
@pytest.mark.parametrize("attention", ["invasive", "nova"])
def test_packed_loss_matches_dense_oracle(attention, fusion):
    model, batches = padded_setup(attention, fusion)
    H = model.config.num_heads
    for batch in batches:
        assert not batch.pad_mask.all()
        B, L = batch.pad_mask.shape
        eval_loss = model.loss(batch).item()
        for train in (False, True):
            rec = dense_oracle.Recorder(7)
            packed, p_grads = loss_and_grads(
                model, lambda: model.loss(batch, train=train, rng=rec))
            replay = dense_oracle.Replay(rec.draws)
            dense, d_grads = loss_and_grads(
                model, lambda: dense_oracle.loss(
                    model, batch, rng=replay if train else None))
            assert abs(packed - dense) < TOL
            assert set(p_grads) == set(d_grads)
            for name, g in p_grads.items():
                assert np.abs(g - d_grads[name]).max() < TOL, name
            assert bool(rec.draws) == train
            assert replay.used == len(rec.draws)
            # no mask is drawn for every slot, or for every query-key pair
            assert not [d.shape for d in rec.draws
                        if d.shape[0] == B * L or d.shape == (B, H, L, L)]
            # dropout did act in training
            assert (packed != eval_loss) == train


@pytest.mark.parametrize("attention", ["invasive", "nova"])
def test_packed_encode_rows_match_dense_real_rows(attention):
    model, batches = padded_setup(attention, "gating")
    for batch in batches:
        real = batch.pad_mask
        hidden, attns = model.encode(batch, collect_attn=True)
        expect, expect_attns = dense_oracle.encode(model, batch)
        # one row per real token, in flat order
        assert hidden.shape == (int(real.sum()), model.config.hidden_size)
        assert np.abs(hidden.data - expect.data[real]).max() < TOL
        for a, e in zip(attns, expect_attns):
            assert a.shape == e.shape
            q = real[:, None, :].repeat(a.shape[1], axis=1)
            assert np.abs(a.data[q] - e.data[q]).max() < TOL
            # a pad query has no row
            assert np.all(a.data[~q] == 0.0)


@pytest.mark.parametrize("attention", ["invasive", "nova"])
def test_encode_at_positions_gives_those_rows(attention):
    """With read positions, encode returns the hidden rows at exactly those
    positions: without dropout as the full encode computes them, and with
    dropout as the dense chain computes them under the recorded masks."""
    model, batches = padded_setup(attention, "gating")
    h = model.config.hidden_size
    for batch in batches:
        B, L = batch.pad_mask.shape
        for pos in (np.flatnonzero(batch.labels), np.arange(B) * L + L - 1):
            got, _ = model.encode(batch, positions=pos)
            full, _ = model.encode(batch)
            assert got.shape == (len(pos), h)
            at = np.searchsorted(np.flatnonzero(batch.pad_mask), pos)
            assert np.abs(got.data - full.data[at]).max() < TOL
            rec = dense_oracle.Recorder(3)
            got, _ = model.encode(batch, rng=rec, positions=pos)
            replay = dense_oracle.Replay(rec.draws)
            dense, _ = dense_oracle.encode(model, batch, rng=replay,
                                           positions=pos)
            dense = dense.data.reshape(-1, h)[pos]
            assert np.abs(got.data - dense).max() < TOL
            assert replay.used == len(rec.draws) > 0
        with pytest.raises(ValueError, match="collect_attn"):
            model.encode(batch, collect_attn=True, positions=pos)
        with pytest.raises(ValueError, match="real-token"):
            model.encode(batch, positions=[0])   # slot 0 of row 0 is a pad


def recorded_vertices(build):
    """build()'s loss and, for every non-leaf vertex of the graph recorded
    for it, (the vertex, the array its op output). The outputs are kept by
    spying on the tensor module's _make, since a vertex holds no value."""
    made, make = {}, T._make

    def spy(data, parents, bw):
        out = make(data, parents, bw)
        if out._vertex is not None:
            made[id(out._vertex)] = out.data
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_make", spy)
        loss = build()
    seen, stack, out = set(), [loss._vertex], []
    while stack:
        node = stack.pop()
        if id(node) in seen or node.bw is None:
            continue
        seen.add(id(node))
        out.append((node, made[id(node)]))
        stack.extend(node.parents)
    return loss, out


@pytest.mark.parametrize("attention", ["invasive", "nova"])
def test_ffn_runs_on_real_tokens_only(attention):
    """The FFN node of a padded training loss saves a tanh row per real
    token in the layers before the last, and one per labelled token in the
    last layer, never one per slot; no op output is FFN-wide."""
    model, (batch, _) = padded_setup(attention, "gating")
    n_real = int(batch.pad_mask.sum())
    n_labelled = int((batch.labels != 0).sum())
    assert n_labelled < n_real < batch.pad_mask.size
    width = FFN_MULT * model.config.hidden_size
    _, recorded = recorded_vertices(
        lambda: model.loss(batch, train=True, rng=np.random.default_rng(0)))
    assert [a.shape for _, a in recorded if a.shape[-1:] == (width,)] == []
    tanh_rows = Counter()
    for vertex, _ in recorded:
        bw = vertex.bw
        if bw.__qualname__.startswith("feed_forward."):
            saved = bw.__closure__[bw.__code__.co_freevars.index("saved")]
            blocks = [t for _, t in saved.cell_contents]
            assert {t.shape[1] for t in blocks} == {width}
            tanh_rows[sum(len(t) for t in blocks)] += 1
    layers = model.config.num_layers
    assert tanh_rows == {n_real: layers - 1, n_labelled: 1}

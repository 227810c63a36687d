import importlib
from pathlib import Path

import numpy as np
import pytest

import blocked_layer as BL
import dense_ops as DO
import helpers as H
from novabert import checkpoint as CK
from novabert import data as D
from novabert import model as M
from novabert import tensor as T
from novabert import train as TR
from novabert.model import Model, ModelConfig
from novabert.synthetic import branching_dataset, successor_dataset
from test_packing import padded_setup, recorded_vertices


def tiny_setup(attention="nova", fusion="add", with_feature=True, seed=0,
               h=8, heads=2, layers=2, L=4, m=11, dropout=0.0,
               dtype=np.float64):
    if with_feature:
        schema, catalog, seqs = branching_dataset(m=m, n_seq=6, length=7, seed=seed)
    else:
        schema, catalog, seqs = successor_dataset(m=m, n_seq=6, length=7, seed=seed)
    split = D.leave_one_out_split(seqs)
    rng = np.random.default_rng(seed)
    batch = D.make_masked_batch(split.train, schema, catalog, 0.4, rng, L=L)
    cfg = ModelConfig(hidden_size=h, num_heads=heads, num_layers=layers,
                      max_len=L, attention=attention, fusion=fusion,
                      dropout=dropout)
    model = Model(cfg, schema, catalog, seed=seed, dtype=dtype)
    return model, batch


def test_encode_output_shape_grid():
    for h, heads in [(8, 2), (8, 4), (16, 4)]:
        for layers in (1, 2):
            model, batch = tiny_setup(h=h, heads=heads, layers=layers)
            hidden, _ = model.encode(batch)
            # one row per real token
            assert hidden.shape == (int(batch.pad_mask.sum()), h)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden_size=10, num_heads=4, num_layers=1, max_len=4)
    with pytest.raises(ValueError):
        ModelConfig(hidden_size=8, num_heads=2, num_layers=0, max_len=4)
    base = dict(hidden_size=8, num_heads=2, num_layers=1, max_len=4)
    for bad in (dict(dropout=1.0), dict(dropout=-0.1),
                dict(dropout=float("nan")), dict(mask_prob=0.0),
                dict(mask_prob=1.5), dict(gating_mode="relu"),
                dict(max_len=1), dict(max_len=0), dict(num_heads=0),
                dict(hidden_size=0, num_heads=1),
                dict(hidden_size=-8, num_heads=2)):
        with pytest.raises(ValueError):
            ModelConfig(**{**base, **bad})
    for ok in (dict(dropout=0.0), dict(mask_prob=1.0),
               dict(gating_mode="sigmoid"), dict(max_len=2)):
        ModelConfig(**{**base, **ok})


def test_residual_identity_with_zero_weights():
    model, batch = tiny_setup(attention="invasive", with_feature=False)
    # zero every projection and FFN weight; layer norms stay learnable
    for name, p in model.params.items():
        if ".attn." in name or ".ffn." in name:
            p.data[:] = 0.0
    x = T.Tensor(np.random.default_rng(0).standard_normal((2, 4, 8)))
    layout = T.AttentionLayout(np.ones((2, 4), dtype=bool))
    # the layer reads the real-token rows, here all 2 * 4 of them
    out, _ = model.invasive_layer(0, T.Tensor(x.data.reshape(8, 8)), layout)
    # attention output is zero, so the block reduces to LN(LN(x))
    ln = model.params["layer0.ln1.g"].data
    expect = T.layer_norm(T.layer_norm(x, T.Tensor(ln), T.Tensor(np.zeros(8))),
                          T.Tensor(ln), T.Tensor(np.zeros(8))).data
    assert np.allclose(out.data.reshape(2, 4, 8), expect)


def test_invasive_single_head_hand_case():
    """One layer, one head, L=2, h=2: replay every step in plain numpy."""
    model, batch = tiny_setup(attention="invasive", with_feature=False,
                              h=2, heads=1, layers=1, L=2, m=5)
    p = {k: v.data for k, v in model.params.items()}
    x = np.random.default_rng(1).standard_normal((1, 2, 2))
    layout = T.AttentionLayout(np.ones((1, 2), dtype=bool))
    out, attn = model.invasive_layer(0, T.Tensor(x.reshape(2, 2)), layout,
                                     collect=True)

    q = x @ p["layer0.attn.wq.w"] + p["layer0.attn.wq.b"]
    k = x @ p["layer0.attn.wk.w"]
    v = x @ p["layer0.attn.wv.w"] + p["layer0.attn.wv.b"]
    s = q @ k.transpose(0, 2, 1) / np.sqrt(2)
    e = np.exp(s - s.max(-1, keepdims=True))
    a = e / e.sum(-1, keepdims=True)
    o = (a @ v) @ p["layer0.attn.wo.w"] + p["layer0.attn.wo.b"]

    def ln(z, g, b):
        mu = z.mean(-1, keepdims=True)
        sd = np.sqrt(((z - mu) ** 2).mean(-1, keepdims=True) + 1e-12)
        return (z - mu) / sd * g + b

    h1 = ln(x + o, p["layer0.ln1.g"], p["layer0.ln1.b"])
    u = h1 @ p["layer0.ffn.w1.w"] + p["layer0.ffn.w1.b"]
    gelu = 0.5 * u * (1 + np.tanh(np.sqrt(2 / np.pi) * (u + 0.044715 * u ** 3)))
    f = gelu @ p["layer0.ffn.w2.w"] + p["layer0.ffn.w2.b"]
    expect = ln(h1 + f, p["layer0.ln2.g"], p["layer0.ln2.b"])

    assert np.allclose(attn.data[:, 0], a, atol=1e-12)
    assert np.allclose(out.data.reshape(1, 2, 2), expect, atol=1e-12)


def test_padding_receives_zero_attention():
    # L=6 over 5-item training sequences: every row has a pad slot
    model, batch = tiny_setup(attention="invasive", L=6)
    hidden, attns = model.encode(batch, collect_attn=True)
    pad = ~batch.pad_mask
    assert pad.any()
    for attn in attns:
        a = attn.data  # [B,H,L,L]
        for b in range(a.shape[0]):
            assert np.all(a[b][:, :, pad[b]] == 0)
            assert np.abs(a[b][:, ~pad[b]].sum(-1) - 1).max() < 1e-9
            assert np.all(a[b][:, pad[b]] == 0)


def test_degenerate_equivalence_nova_equals_invasive():
    """No side features: NOVA and invasive stacks share weights and agree,
    in float64 and float32."""
    schema, catalog, seqs = successor_dataset(m=11, n_seq=6, length=7, seed=0)
    split = D.leave_one_out_split(seqs)
    batch = D.make_masked_batch(split.train, schema, catalog, 0.4,
                                np.random.default_rng(0), L=4)
    cfg = dict(hidden_size=8, num_heads=2, num_layers=2, max_len=4,
               fusion="add", dropout=0.0, features=[], use_position=False)
    for dtype in (np.float64, np.float32):
        inv = Model(ModelConfig(attention="invasive", **cfg), schema,
                    catalog, seed=3, dtype=dtype)
        nova = Model(ModelConfig(attention="nova", **cfg), schema, catalog,
                     seed=3, dtype=dtype)
        for name, p in inv.params.items():
            nova.params[name].data[:] = p.data
        li = inv.decode_scores(inv.encode(batch)[0]).data
        ln_ = nova.decode_scores(nova.encode(batch)[0]).data
        assert li.dtype == dtype
        assert np.abs(li - ln_).max() < 1e-12


def test_nova_value_path_ignores_side_info():
    model, batch = tiny_setup(attention="nova", fusion="gating")
    v0 = H.first_layer_values(model, batch).data.copy()
    model.params["emb.f.rating"].data += 0.5
    model.params["emb.pos"].data -= 0.3
    v1 = H.first_layer_values(model, batch).data
    assert np.array_equal(v0, v1)
    # but the attention matrix does move
    _, a0 = model.encode(batch, collect_attn=True)
    model.params["emb.f.rating"].data += 0.5
    _, a1 = model.encode(batch, collect_attn=True)
    assert not np.allclose(a0[0].data, a1[0].data)


def test_first_layer_values_are_the_real_token_rows():
    """The value probe holds one row per real token, in flat order: the
    layer-0 V projection of the ID embeddings, pad slots left out."""
    model, (batch, _) = padded_setup("nova", "gating", dropout=0.0)
    assert (~batch.pad_mask).any()
    p = model.params
    dense = (p["emb.id"].data[batch.items] @ p["layer0.attn.wv.w"].data
             + p["layer0.attn.wv.b"].data)
    v = H.first_layer_values(model, batch)
    assert v.shape == (int(batch.pad_mask.sum()), 8)
    assert np.array_equal(v.data, dense[batch.pad_mask])


def test_nova_value_probe_zero_grad_to_side_tables():
    model, batch = tiny_setup(attention="nova", fusion="add")
    probe = DO.tsum(DO.mul(H.first_layer_values(model, batch),
                         H.first_layer_values(model, batch)))
    T.backward(probe)
    assert not model.params["emb.f.rating"].grad.any()
    assert not model.params["emb.pos"].grad.any()
    assert model.params["emb.id"].grad.any()


def test_nova_small_case_matches_straight_line_oracle():
    model, batch = tiny_setup(attention="nova", fusion="add", h=4, heads=1,
                              layers=1, L=6, m=7)
    assert (~batch.pad_mask).any()
    p = {k: v.data for k, v in model.params.items()}
    hidden0 = p["emb.id"][batch.items]
    side = (p["emb.f.rating"][batch.features["rating"]]
            + p["emb.pos"][batch.positions])
    r = hidden0 + side
    q = r @ p["layer0.attn.wq.w"] + p["layer0.attn.wq.b"]
    k = r @ p["layer0.attn.wk.w"]
    v = hidden0 @ p["layer0.attn.wv.w"] + p["layer0.attn.wv.b"]
    s = q @ k.transpose(0, 2, 1) / np.sqrt(4)
    s = np.where(batch.pad_mask[:, None, :], s, -1e30)
    e = np.exp(s - s.max(-1, keepdims=True))
    a = e / e.sum(-1, keepdims=True)
    a *= batch.pad_mask[:, :, None]     # the maps are zero at pad queries
    _, attns = model.encode(batch, collect_attn=True)
    assert np.allclose(attns[0].data[:, 0], a, atol=1e-12)


def test_decode_scores_contract():
    model, batch = tiny_setup(with_feature=False, m=6, h=8)
    m = model.catalog.m
    # orthonormal-ish table: use identity block
    model.params["emb.id"].data[:] = 0
    for j in range(m):
        model.params["emb.id"].data[j + 1, j % 8] = 1.0
    model.params["dec.bias"].data[:] = 0
    hidden = T.Tensor(model.params["emb.id"].data[np.array([[3]])])
    logits = model.decode_scores(hidden)
    assert logits.data.argmax() == 2  # item 3 -> class index 2
    zero = model.decode_scores(T.Tensor(np.zeros((1, 1, 8))))
    assert np.allclose(zero.data, model.params["dec.bias"].data)


def test_masked_loss_values():
    model, batch = tiny_setup(with_feature=False, m=11)
    m = model.catalog.m
    labels = batch.labels[batch.labels != 0]   # the masked rows
    n = len(labels)
    # uniform logits -> ln(m)
    uniform = T.Tensor(np.zeros((n, m)))
    assert abs(model.masked_loss(uniform, labels).item() - np.log(m)) < 1e-12
    # perfect logits -> ~0
    perfect = np.zeros((n, m))
    perfect[np.arange(n), labels - 1] = 50.0
    assert model.masked_loss(T.Tensor(perfect), labels).item() < 1e-6


@pytest.mark.parametrize("use_position", [True, False])
@pytest.mark.parametrize("features", [None, []])
@pytest.mark.parametrize("fusion", ["add", "concat", "gating"])
@pytest.mark.parametrize("attention", ["invasive", "nova"])
def test_every_parameter_gets_a_gradient_from_every_training_loss(
        monkeypatch, attention, fusion, features, use_position):
    """A training loss, masked or tail (appended mask), adds a gradient to
    every parameter of the model. Adam updates every parameter from the
    zeroed gradient buffer; a parameter that no loss reached would be moved
    by its moments on a zero gradient."""
    model, batches = padded_setup(attention, fusion, features=features,
                                  use_position=use_position)
    for batch in batches:
        reached = set()
        for name in ("_accumulate", "_scatter_into_grad"):
            def add(v, *args, op=getattr(T, name)):
                reached.add(id(v))
                return op(v, *args)
            monkeypatch.setattr(T, name, add)
        T.backward(model.loss(batch, train=True,
                              rng=np.random.default_rng(0)))
        monkeypatch.undo()
        missing = [n for n, p in model.params.items()
                   if id(p._vertex) not in reached]
        assert missing == []


@pytest.mark.parametrize("attention", ["invasive", "nova"])
@pytest.mark.parametrize("fusion", ["add", "concat", "gating"])
def test_f32_model_computes_in_f32(attention, fusion):
    """A float32 model's training loss records only float32 arrays, its
    backward pass hands only float32 gradients from node to node, and
    every parameter gradient is float32 (padded batches, dropout on): on a
    schema with one categorical feature, and on one whose item feature is
    multi-valued (mean-pooled)."""
    single = tiny_setup(attention=attention, fusion=fusion, L=6, dropout=0.1,
                        dtype=np.float32)
    multi_model, (multi, _) = padded_setup(attention, fusion,
                                           dtype=np.float32)
    assert multi_model.catalog.features["genre"][multi.items].ndim == 3
    for model, batch in (single, (multi_model, multi)):
        model.zero_grads()
        loss, recorded = recorded_vertices(
            lambda: model.loss(batch, train=True,
                               rng=np.random.default_rng(0)))
        passed = []
        for node, value in recorded:
            assert value.dtype == np.float32
            node.bw = (lambda g, bw=node.bw: (passed.append(g.dtype), bw(g)))
        assert len(recorded) > 20
        T.backward(loss)
        assert set(passed) == {np.dtype(np.float32)}
        grads = [p.grad for p in model.params.values() if p.grad is not None]
        assert len(grads) > 20
        assert all(g.dtype == np.float32 for g in grads)


def test_nova_side_tensors_shared_across_layers():
    """Side embeddings are computed once and reused by every layer."""
    model, batch = tiny_setup(attention="nova", layers=2)
    calls = []
    orig = T.embedding_lookup

    def spy(table, idx):
        calls.append(table)
        return orig(table, idx)

    T.embedding_lookup = spy
    try:
        model.encode(batch)
    finally:
        T.embedding_lookup = orig
    rating_lookups = sum(t is model.params["emb.f.rating"] for t in calls)
    pos_lookups = sum(t is model.params["emb.pos"] for t in calls)
    assert rating_lookups == 1
    assert pos_lookups == 1


def test_dropout_train_changes_eval_does_not():
    """Only a training loss draws dropout masks, and it needs a generator:
    an evaluation loss given one equals the loss without it and leaves the
    generator's state as it was."""
    model, batch = tiny_setup(dropout=0.1)
    a = model.loss(batch).item()
    b = model.loss(batch).item()
    assert a == b
    g = np.random.default_rng(2)
    state = g.bit_generator.state
    assert model.loss(batch, train=False, rng=g).item() == a
    assert g.bit_generator.state == state
    t1 = model.loss(batch, train=True, rng=np.random.default_rng(0)).item()
    t2 = model.loss(batch, train=True, rng=np.random.default_rng(1)).item()
    assert t1 != t2
    with pytest.raises(ValueError, match="generator"):
        model.loss(batch, train=True)


def _loss_and_grads(model, loss_fn):
    model.zero_grads()
    loss = loss_fn()
    T.backward(loss)
    return loss.item(), {k: p.grad.copy() for k, p in model.params.items()
                         if p.grad is not None}


@pytest.mark.parametrize("attention,fusion", [("nova", "gating"),
                                              ("invasive", "concat")])
def test_gathered_loss_equals_dense_loss(attention, fusion):
    """Computing and decoding only the masked rows gives the loss and
    gradients of decoding every real-token row and reading the masked ones,
    on a padded masked batch and a padded appended-mask tail batch."""
    model, masked = tiny_setup(attention=attention, fusion=fusion, dropout=0.0,
                               L=8)
    _, _, seqs = branching_dataset(m=11, n_seq=6, length=7, seed=0)
    tail = D.make_eval_batch(D.leave_one_out_split(seqs).validation,
                             model.schema, model.catalog, L=8)
    for batch in (masked, tail):
        assert (~batch.pad_mask).any()
        # the labelled rows among all real-token rows
        labels = batch.labels[batch.pad_mask]
        rows = np.flatnonzero(labels)
        gathered, g_grads = _loss_and_grads(model, lambda: model.loss(batch))
        dense, d_grads = _loss_and_grads(model, lambda: model.masked_loss(
            T.take_rows(model.decode_scores(model.encode(batch)[0]), rows),
            labels[rows]))
        assert abs(gathered - dense) < 1e-12
        assert set(g_grads) == set(d_grads)
        for name, g in g_grads.items():
            assert np.abs(g - d_grads[name]).max() < 1e-12, name


@pytest.mark.parametrize("attention", ["nova", "invasive"])
@pytest.mark.parametrize("fusion", ["add", "concat", "gating"])
def test_fusion_sites_hold_the_fuse_params(attention, fusion):
    """model.fusion[i] is site i's dict of the very tensors in params."""
    model, _ = tiny_setup(attention=attention, fusion=fusion, layers=3)
    prefixes = (["fuse"] if attention == "invasive"
                else [f"layer{i}.fuse" for i in range(3)])
    assert len(model.fusion) == len(prefixes)
    in_params = [(n, t) for n, t in model.params.items()
                 if n.rsplit(".", 1)[0] in prefixes]
    in_sites = [(f"{prefix}.{k}", t)
                for prefix, site in zip(prefixes, model.fusion)
                for k, t in site.items()]
    assert [n for n, _ in in_sites] == [n for n, _ in in_params]
    assert all(a is b for (_, a), (_, b) in zip(in_sites, in_params))
    assert not [n for n in model.params if ".fuse." in f".{n}"
                and n.rsplit(".", 1)[0] not in prefixes]


@pytest.mark.parametrize("attention", ["nova", "invasive"])
@pytest.mark.parametrize("fusion", ["concat", "gating"])
def test_fusion_sites_survive_checkpoint_round_trip(attention, fusion,
                                                    tmp_path):
    model, batch = tiny_setup(attention=attention, fusion=fusion)
    rng = np.random.default_rng(7)
    for site in model.fusion:
        for t in site.values():
            t.data[:] = rng.standard_normal(t.data.shape)
    CK.save_checkpoint(tmp_path / "m.bin", model)
    loaded, _, _ = CK.load_checkpoint(tmp_path / "m.bin")
    assert loaded.loss(batch).item() == model.loss(batch).item()


# ---------------------------------------------------------------------------
# forward-only encoding in row blocks
# ---------------------------------------------------------------------------

def eval_setup(attention, fusion, dtype=np.float64):
    """A model (L=8, dropout on) and 12 evaluation pairs of 2 to 7 history
    items."""
    schema, catalog, seqs = branching_dataset(m=11, n_seq=12, length=9,
                                              seed=0)
    train = D.leave_one_out_split(seqs).train
    pairs = [D.held_out(D.TrainSequence(
        s.items[:3 + i % 6], {k: v[:3 + i % 6] for k, v in s.behavior.items()}))
        for i, s in enumerate(train)]
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=2, max_len=8,
                      attention=attention, fusion=fusion, dropout=0.1)
    return Model(cfg, schema, catalog, seed=0, dtype=dtype), pairs


def block_bytes(model, rows):
    """The FFN_BLOCK_BYTES that makes blocks of the given rows."""
    return (rows * M.FFN_MULT * model.config.hidden_size
            * np.dtype(model.dtype).itemsize)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("attention", ["invasive", "nova"])
@pytest.mark.parametrize("fusion", ["add", "concat", "gating"])
def test_blocked_evaluation_matches_one_block(monkeypatch, attention, fusion,
                                              dtype):
    """Evaluation runs each layer's FFN in row blocks; 7-row blocks, whose
    last in layer 0 joins the one-row remainder (64 = 7 * 9 + 1, so 8
    rows), give the scores of one block over every row, bit for bit."""
    model, pairs = eval_setup(attention, fusion, dtype)
    monkeypatch.setattr(T, "FFN_BLOCK_BYTES", 1 << 40)
    whole, _ = TR.score_pairs(model, pairs)
    monkeypatch.setattr(T, "FFN_BLOCK_BYTES", block_bytes(model, 7))
    blocked, _ = TR.score_pairs(model, pairs)
    assert blocked.dtype == dtype
    assert np.array_equal(blocked, whole)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("attention", ["invasive", "nova"])
@pytest.mark.parametrize("fusion", ["add", "concat", "gating"])
def test_scores_do_not_depend_on_the_other_users(attention, fusion, dtype):
    """Users get, at every batch size from 1 to all of them, the scores of
    one batch over all of them, bit for bit: the 12 users of 2 to 7
    history items, two of each length, and 7 users of 7 history items,
    whose batches run attention in one group of up to 7 rows. Attention
    runs one group per row length, so no user's sums run over the pad keys
    of a longer user in its batch."""
    model, mixed = eval_setup(attention, fusion, dtype)
    _, _, seqs = branching_dataset(m=11, n_seq=12, length=9, seed=0)
    equal = D.leave_one_out_split(seqs).validation[:7]
    assert {len(p.items) for p in equal} == {model.config.max_len - 1}
    for pairs in (mixed, equal):
        whole, _ = TR.score_pairs(model, pairs, batch_size=len(pairs))
        for batch_size in range(1, len(pairs)):
            scores, _ = TR.score_pairs(model, pairs, batch_size=batch_size)
            assert np.array_equal(scores, whole), batch_size


def test_feed_forward_rows_per_call(monkeypatch):
    """The FFN node calls GELU once per row block, in evaluation, in a
    training step and in a recorded forward pass alike: the same blocks,
    whose last takes a remainder shorter than half a block."""
    model, pairs = eval_setup("nova", "gating")
    monkeypatch.setattr(T, "FFN_BLOCK_BYTES", block_bytes(model, 7))
    rows, gelu = [], T.gelu
    monkeypatch.setattr(T, "gelu", lambda x, **kw: (rows.append(len(x)),
                                                    gelu(x, **kw))[1])
    TR.score_pairs(model, pairs)
    batch = D.make_eval_batch(pairs, model.schema, model.catalog, 8)
    n = int(batch.pad_mask.sum())
    # layer 0 computes the 64 real tokens, 7 * 9 + 1, so the last block
    # takes the remainder and is 8 rows; the last layer computes the 12
    # read rows, 7 + 5
    assert n == 64 and len(pairs) == 12
    assert rows == [7] * 8 + [8] + [7, 5]
    for train in (True, False):
        rows.clear()
        model.loss(batch, train=train, rng=np.random.default_rng(0))
        assert rows == [7] * 8 + [8] + [7, 5]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("attention", ["invasive", "nova"])
@pytest.mark.parametrize("h, users, block", [(128, 40, 100), (32, 400, None),
                                             (32, 400, 200)])
def test_one_pass_matches_the_blocked_evaluation_layer(
        monkeypatch, h, users, block, attention, dtype):
    """score_pairs runs the part of each layer after attention once over
    all rows; the evaluation layer it replaced (tests/blocked_layer.py) ran
    it block by block. Both give the same scores, bit for bit: at h=128 in
    100-row blocks, layer 0's 440 rows 100, 100, 100 and 140 (a joined
    remainder of 40), and at the desk-compare shape (h=32, 400 users, 2,816
    rows in layer 0's first batch) in the default blocks and in 200-row
    ones, which put Wo's and the FFN's products under 10**6 multiply-adds,
    where OpenBLAS runs its small-matrix kernel."""
    schema, catalog, seqs = branching_dataset(m=40, n_seq=users, length=12,
                                              seed=0)
    pairs = D.leave_one_out_split(seqs).validation
    cfg = ModelConfig(hidden_size=h, num_heads=2, num_layers=2, max_len=12,
                      attention=attention, fusion="gating")
    model = Model(cfg, schema, catalog, seed=0, dtype=dtype)
    if block is not None:
        monkeypatch.setattr(T, "FFN_BLOCK_BYTES", block_bytes(model, block))
    n = int(D.make_eval_batch(pairs[:256], schema, catalog, 12).pad_mask.sum())
    sizes = [b.stop - b.start for b in
             T.row_blocks(n, M.FFN_MULT * h, np.dtype(dtype).itemsize)]
    if h == 128:
        assert sizes == [100, 100, 100, 140]
    elif block is not None:
        assert n == 2816 and sizes == [200] * 13 + [216]
    one_pass, _ = TR.score_pairs(model, pairs)
    monkeypatch.setattr(M.Model, "_layer", BL.blocked_layer)
    blocked, _ = TR.score_pairs(model, pairs)
    assert one_pass.dtype == dtype
    assert np.array_equal(one_pass, blocked)


# ---------------------------------------------------------------------------
# float32, the default, against float64 at the reference shape
# ---------------------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_float32_agrees_with_float64_at_the_reference_shape(monkeypatch):
    """One seed at the README's shape (h=128, L=200, 2 layers, nova/gating,
    3,416 items, dropout off) built in both dtypes: the masked loss of a
    B=32 batch, every parameter's gradient and the scores of 64 validation
    users agree, each bound about 10x the gap measured on x86-64 OpenBLAS
    (1.3e-8, 6.6e-6 at layer0.attn.wv.b, 3.0e-7 on scores up to 0.59)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    movielens = importlib.import_module("movielens")
    schema, catalog, seqs = movielens.movielens_like(0, users=64)
    split = D.leave_one_out_split(seqs)
    cfg = ModelConfig(hidden_size=128, num_heads=2, num_layers=2, max_len=200,
                      attention="nova", fusion="gating", dropout=0.0)
    batch = D.make_masked_batch(split.train[:32], schema, catalog,
                                cfg.mask_prob, np.random.default_rng(0),
                                cfg.max_len)
    runs = {}
    for dtype in (np.float64, np.float32):
        model = Model(cfg, schema, catalog, seed=0, dtype=dtype)
        loss = model.loss(batch)
        T.backward(loss)
        scores, _ = TR.score_pairs(model, split.validation, batch_size=32)
        assert scores.dtype == dtype and len(scores) == 64
        runs[dtype] = (loss.item(), {n: p.grad.astype(np.float64)
                                     for n, p in model.params.items()},
                       scores.astype(np.float64))
    (loss64, grads64, scores64), (loss32, grads32, scores32) = (
        runs[np.float64], runs[np.float32])
    assert abs(loss32 - loss64) / loss64 < 2e-7
    for name, g in grads64.items():
        gap = np.linalg.norm(grads32[name] - g) / np.linalg.norm(g)
        assert gap < 7e-5, (name, gap)
    assert np.abs(scores32 - scores64).max() < 3e-6

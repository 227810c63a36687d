import numpy as np
import pytest

from novabert import checkpoint as CK
from novabert import data as D
from novabert import tensor as T
from novabert.model import Model, ModelConfig
from novabert.synthetic import branching_dataset, successor_dataset


def tiny_setup(attention="nova", fusion="add", with_feature=True, seed=0,
               h=8, heads=2, layers=2, L=4, m=11, dropout=0.0):
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
    model = Model(cfg, schema, catalog, seed=seed)
    return model, batch


def test_encode_output_shape_grid():
    for h, heads in [(8, 2), (8, 4), (16, 4)]:
        for layers in (1, 2):
            model, batch = tiny_setup(h=h, heads=heads, layers=layers)
            hidden, _ = model.encode(batch)
            assert hidden.shape == (batch.items.shape[0], 4, h)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden_size=10, num_heads=4, num_layers=1, max_len=4)
    with pytest.raises(ValueError):
        ModelConfig(hidden_size=8, num_heads=2, num_layers=0, max_len=4)
    base = dict(hidden_size=8, num_heads=2, num_layers=1, max_len=4)
    for bad in (dict(dropout=1.0), dict(dropout=-0.1),
                dict(dropout=float("nan")), dict(mask_prob=0.0),
                dict(mask_prob=1.5), dict(gating_mode="relu"),
                dict(max_len=1), dict(max_len=0)):
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
    pad_mask = np.ones((2, 4), dtype=bool)
    # the layer reads the real-token rows, here all 2 * 4 of them
    out, _ = model.invasive_layer(0, T.reshape(x, (8, 8)), pad_mask,
                                  np.arange(8))
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
    pad_mask = np.ones((1, 2), dtype=bool)
    out, attn = model.invasive_layer(0, T.Tensor(x.reshape(2, 2)), pad_mask,
                                     np.arange(2))

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
    model, batch = tiny_setup(attention="invasive")
    hidden, attns = model.encode(batch, collect_attn=True)
    pad = ~batch.pad_mask
    for attn in attns:
        a = attn.data  # [B,H,L,L]
        for b in range(a.shape[0]):
            assert np.all(a[b][:, :, pad[b]] == 0)
            assert np.abs(a[b].sum(-1) - 1).max() < 1e-9


def test_degenerate_equivalence_nova_equals_invasive():
    """No side features: NOVA and invasive stacks share weights and agree."""
    schema, catalog, seqs = successor_dataset(m=11, n_seq=6, length=7, seed=0)
    split = D.leave_one_out_split(seqs)
    batch = D.make_masked_batch(split.train, schema, catalog, 0.4,
                                np.random.default_rng(0), L=4)
    cfg = dict(hidden_size=8, num_heads=2, num_layers=2, max_len=4,
               fusion="add", dropout=0.0, features=[], use_position=False)
    inv = Model(ModelConfig(attention="invasive", **cfg), schema, catalog, seed=3)
    nova = Model(ModelConfig(attention="nova", **cfg), schema, catalog, seed=3)
    for name, p in inv.params.items():
        nova.params[name].data[:] = p.data
    li = inv.decode_scores(inv.encode(batch)[0]).data
    ln_ = nova.decode_scores(nova.encode(batch)[0]).data
    assert np.abs(li - ln_).max() < 1e-12


def test_nova_value_path_ignores_side_info():
    model, batch = tiny_setup(attention="nova", fusion="gating")
    v0 = model.first_layer_values(batch).data.copy()
    model.params["emb.f.rating"].data += 0.5
    model.params["emb.pos"].data -= 0.3
    v1 = model.first_layer_values(batch).data
    assert np.array_equal(v0, v1)
    # but the attention matrix does move
    _, a0 = model.encode(batch, collect_attn=True)
    model.params["emb.f.rating"].data += 0.5
    _, a1 = model.encode(batch, collect_attn=True)
    assert not np.allclose(a0[0].data, a1[0].data)


def test_nova_value_probe_zero_grad_to_side_tables():
    model, batch = tiny_setup(attention="nova", fusion="add")
    probe = T.tsum(T.mul(model.first_layer_values(batch),
                         model.first_layer_values(batch)))
    T.backward(probe)
    assert model.params["emb.f.rating"].grad is None
    assert model.params["emb.pos"].grad is None
    assert model.params["emb.id"].grad is not None


def test_nova_small_case_matches_straight_line_oracle():
    model, batch = tiny_setup(attention="nova", fusion="add", h=4, heads=1,
                              layers=1, L=4, m=7)
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
    labels = batch.labels
    # uniform logits -> ln(m)
    uniform = T.Tensor(np.zeros((labels.shape[0], labels.shape[1], m)))
    assert abs(model.masked_loss(uniform, labels).item() - np.log(m)) < 1e-12
    # perfect logits -> ~0
    perfect = np.zeros((labels.shape[0], labels.shape[1], m))
    for b, l in zip(*np.nonzero(labels)):
        perfect[b, l, labels[b, l] - 1] = 50.0
    assert model.masked_loss(T.Tensor(perfect), labels).item() < 1e-6


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
    model, batch = tiny_setup(dropout=0.1)
    a = model.loss(batch).item()
    b = model.loss(batch).item()
    assert a == b
    t1 = model.loss(batch, train=True, rng=np.random.default_rng(0)).item()
    t2 = model.loss(batch, train=True, rng=np.random.default_rng(1)).item()
    assert t1 != t2


def _loss_and_grads(model, loss_fn):
    model.zero_grads()
    loss = loss_fn()
    T.backward(loss)
    return loss.item(), {k: p.grad.copy() for k, p in model.params.items()
                         if p.grad is not None}


@pytest.mark.parametrize("attention,fusion", [("nova", "gating"),
                                              ("invasive", "concat")])
def test_gathered_loss_equals_dense_loss(attention, fusion):
    """Decoding only the masked rows gives the dense decoder's loss and
    gradients, on a masked batch and on an appended-mask tail batch."""
    model, masked = tiny_setup(attention=attention, fusion=fusion, dropout=0.0)
    _, _, seqs = branching_dataset(m=11, n_seq=6, length=7, seed=0)
    tail = D.make_eval_batch(D.leave_one_out_split(seqs).validation,
                             model.schema, model.catalog, L=4)
    for batch in (masked, tail):
        gathered, g_grads = _loss_and_grads(model, lambda: model.loss(batch))
        dense, d_grads = _loss_and_grads(model, lambda: model.masked_loss(
            model.decode_scores(model.encode(batch)[0]), batch.labels))
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

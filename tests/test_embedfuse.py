import numpy as np
import pytest

import dense_ops as DO
from novabert import data as D
from novabert import embedfuse as EF
from novabert import tensor as T
from novabert.model import Model, ModelConfig, param_shapes
from novabert.synthetic import branching_dataset
from test_packing import padded_setup


def rand_feats(rng, k, shape=(2, 3, 4)):
    return [T.Tensor(rng.standard_normal(shape), requires_grad=True)
            for _ in range(k)]


def concat_params(rng, k, h):
    """A concat site's FC from k*h back to h."""
    return (T.Tensor(rng.standard_normal((k * h, h)), requires_grad=True),
            T.Tensor(rng.standard_normal(h), requires_grad=True))


# ---------------------------------------------------------------------------
# add
# ---------------------------------------------------------------------------

def test_add_single_is_identity():
    rng = np.random.default_rng(0)
    (f,) = rand_feats(rng, 1)
    assert np.array_equal(EF.fuse_add([f]).data, f.data)


def test_add_cancellation():
    rng = np.random.default_rng(1)
    (f,) = rand_feats(rng, 1)
    neg = DO.mul(f, -1.0)
    assert np.allclose(EF.fuse_add([f, neg]).data, 0.0)


def test_add_matches_sequential_oracle():
    rng = np.random.default_rng(2)
    feats = rand_feats(rng, 3)
    expect = feats[0].data + feats[1].data + feats[2].data
    assert np.allclose(EF.fuse_add(feats).data, expect)


def test_add_width_mismatch():
    a = T.Tensor(np.zeros((2, 4)))
    b = T.Tensor(np.zeros((2, 5)))
    with pytest.raises(ValueError, match="width"):
        EF.fuse_add([a, b])


# ---------------------------------------------------------------------------
# concat
# ---------------------------------------------------------------------------

def test_concat_identity_construction():
    rng = np.random.default_rng(3)
    (f,) = rand_feats(rng, 1)
    w = T.Tensor(np.eye(4))
    b = T.Tensor(np.zeros(4))
    assert np.allclose(EF.fuse_concat([f], w, b).data, f.data)


def test_concat_zero_inputs_give_bias():
    z = [T.Tensor(np.zeros((2, 4))), T.Tensor(np.zeros((2, 4)))]
    rng = np.random.default_rng(4)
    w, b = concat_params(rng, 2, 4)
    out = EF.fuse_concat(z, w, b)
    assert np.allclose(out.data, b.data)


def test_concat_matches_composition_oracle():
    rng = np.random.default_rng(5)
    feats = rand_feats(rng, 3)
    w, b = concat_params(rng, 3, 4)
    out = EF.fuse_concat(feats, w, b)
    cat = np.concatenate([f.data for f in feats], axis=-1)
    assert np.allclose(out.data, cat @ w.data + b.data)


def test_concat_k_mismatch():
    rng = np.random.default_rng(6)
    feats = rand_feats(rng, 2)
    w, b = concat_params(rng, 3, 4)
    with pytest.raises(ValueError, match="inputs"):
        EF.fuse_concat(feats, w, b)


# ---------------------------------------------------------------------------
# gating
# ---------------------------------------------------------------------------

def test_gating_identical_features_symmetric():
    rng = np.random.default_rng(7)
    (f,) = rand_feats(rng, 1)
    wf = T.Tensor(rng.standard_normal((4, 1)), requires_grad=True)
    out, gates = T.gated_sum([f, f], wf)
    assert np.allclose(gates.data, 0.5)
    assert np.allclose(out.data, f.data)


def test_gating_singleton():
    rng = np.random.default_rng(8)
    (f,) = rand_feats(rng, 1)
    wf = T.Tensor(rng.standard_normal((4, 1)))
    out, gates = T.gated_sum([f], wf)
    assert np.allclose(gates.data, 1.0)
    assert np.allclose(out.data, f.data)


def test_gating_matches_matrix_oracle():
    rng = np.random.default_rng(9)
    feats = rand_feats(rng, 3)
    wf = T.Tensor(rng.standard_normal((4, 1)))
    out, gates = T.gated_sum(feats, wf)
    fmat = np.stack([f.data for f in feats], axis=-2)          # [...,3,4]
    logits = (fmat @ wf.data)[..., 0]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    g = e / e.sum(axis=-1, keepdims=True)
    expect = np.einsum("...k,...kh->...h", g, fmat)
    assert np.allclose(out.data, expect, atol=1e-12)
    assert np.allclose(gates.data, g)


def test_gating_gates_convex():
    rng = np.random.default_rng(10)
    feats = rand_feats(rng, 4)
    wf = T.Tensor(rng.standard_normal((4, 1)))
    _, gates = T.gated_sum(feats, wf)
    assert np.all(gates.data >= 0)
    assert np.abs(gates.data.sum(-1) - 1).max() < 1e-12


def test_gating_sigmoid_mode():
    rng = np.random.default_rng(11)
    feats = rand_feats(rng, 2)
    wf = T.Tensor(rng.standard_normal((4, 1)))
    _, gates = T.gated_sum(feats, wf, mode="sigmoid")
    assert np.all((gates.data > 0) & (gates.data < 1))


# ---------------------------------------------------------------------------
# integrated embeddings
# ---------------------------------------------------------------------------

@pytest.fixture
def small_batch():
    schema, catalog, seqs = branching_dataset(m=10, n_seq=8, length=6, seed=0)
    split = D.leave_one_out_split(seqs)
    rng = np.random.default_rng(0)
    batch = D.make_masked_batch(split.train, schema, catalog, 0.5, rng, L=5)
    return schema, catalog, batch


def small_model(schema, catalog, seed, fusion="add", **kw):
    """An invasive float64 model of width 8 over L=5, held to float64
    oracles; its one fusion site is model.fusion[0]."""
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1, max_len=5,
                      attention="invasive", fusion=fusion, **kw)
    return Model(cfg, schema, catalog, seed=seed, dtype=np.float64)


@pytest.mark.parametrize("attention", ["invasive", "nova"])
@pytest.mark.parametrize("fusion", ["add", "concat", "gating"])
def test_param_shapes_of_tables_and_fusion_sites(small_batch, attention,
                                                 fusion):
    """Tables of width h for ID (m + pad + mask rows), position (L + 1) and
    each active feature; per fusion site an FC from k*h to h (concat) or a
    zero gate vector (gating); a Model allocates exactly these, in order."""
    schema, catalog, _ = small_batch
    h, L, m = 8, 5, catalog.m
    vocab = schema.features[0].vocab_size
    sites = ["fuse"] if attention == "invasive" else ["layer0.fuse",
                                                      "layer1.fuse"]
    for kw, tables, k in (
            ({}, {"emb.id": (m + 2, h), "emb.pos": (L + 1, h),
                  "emb.f.rating": (vocab, h)}, 3),
            ({"features": [], "use_position": False},
             {"emb.id": (m + 2, h)}, 1)):
        cfg = ModelConfig(hidden_size=h, num_heads=2, num_layers=2,
                          max_len=L, attention=attention, fusion=fusion, **kw)
        shapes = param_shapes(cfg, schema, m)
        fuse = {"add": {}, "concat": {"w": (k * h, h), "b": (h,)},
                "gating": {"wf": (h, 1)}}[fusion]
        expect = {f"{p}.{n}": s for p in sites for n, s in fuse.items()}
        assert {n: s for n, s in shapes.items()
                if n.startswith("emb.")} == tables
        assert {n: s for n, s in shapes.items()
                if ".fuse." in f".{n}"} == expect
        model = Model(cfg, schema, catalog, seed=1)
        assert [(n, t.shape) for n, t in model.params.items()] == list(
            shapes.items())
        for site in model.fusion:
            assert set(site) == set(fuse)
            for name in ("b", "wf"):
                if name in site:
                    assert not site[name].data.any()


def _real(batch):
    """The flat positions of the batch's real tokens, and their items."""
    rows = np.flatnonzero(batch.pad_mask)
    return rows, EF.real_rows(batch.items, rows)


def test_integrated_no_side_add_equals_id(small_batch):
    schema, catalog, batch = small_batch
    params = small_model(schema, catalog, 1, features=[],
                         use_position=False).params
    rows, items = _real(batch)
    side = EF.embed_side_features(batch, params, [], rows,
                                  use_position=False)
    assert side == []
    r_id = T.embedding_lookup(params["emb.id"], items)
    r = EF.integrated_embeddings(r_id, side, "add", {})
    assert np.array_equal(r.data, r_id.data)


def test_integrated_position_only_is_additive(small_batch):
    schema, catalog, batch = small_batch
    params = small_model(schema, catalog, 2, features=[]).params
    rows, items = _real(batch)
    side = EF.embed_side_features(batch, params, [], rows,
                                  use_position=True)
    r_id = T.embedding_lookup(params["emb.id"], items)
    r = EF.integrated_embeddings(r_id, side, "add", {})
    assert r.shape == (len(rows), 8)
    pos = params["emb.pos"].data[batch.positions][batch.pad_mask]
    assert np.allclose(r.data, r_id.data + pos)


def test_integrated_full_matches_straight_line_oracle(small_batch):
    schema, catalog, batch = small_batch
    assert not batch.pad_mask.all()  # pad slots are left out of the rows
    model = small_model(schema, catalog, 3, fusion="gating")
    params, fp = model.params, model.fusion[0]
    fp["wf"].data[:] = np.random.default_rng(3).standard_normal((8, 1))
    rows, items = _real(batch)
    side = EF.embed_side_features(batch, params, model.side, rows,
                                  use_position=True)
    r = EF.integrated_embeddings(
        T.embedding_lookup(params["emb.id"], items), side, "gating", fp)
    # oracle: dense lookups then gating, all in plain numpy, read at the
    # real tokens
    idemb = params["emb.id"].data[batch.items]
    ratemb = params["emb.f.rating"].data[batch.features["rating"]]
    posemb = params["emb.pos"].data[batch.positions]
    fmat = np.stack([idemb, ratemb, posemb], axis=-2)
    logits = (fmat @ fp["wf"].data)[..., 0]
    e = np.exp(logits - logits.max(-1, keepdims=True))
    g = e / e.sum(-1, keepdims=True)
    expect = np.einsum("...k,...kh->...h", g, fmat)[batch.pad_mask]
    assert r.shape == expect.shape
    assert np.allclose(r.data, expect, atol=1e-12)


def test_gradients_reach_all_tables(small_batch):
    schema, catalog, batch = small_batch
    model = small_model(schema, catalog, 4, fusion="concat")
    params = model.params
    rows, items = _real(batch)
    side = EF.embed_side_features(batch, params, model.side, rows,
                                  use_position=True)
    r = EF.integrated_embeddings(
        T.embedding_lookup(params["emb.id"], items), side, "concat",
        model.fusion[0])
    T.backward(DO.tsum(DO.mul(r, r)))
    tables = [n for n in params if n.startswith(("emb.", "fuse."))]
    assert len(tables) == 5
    for name in tables:
        p = params[name]
        assert p.grad is not None and np.any(p.grad != 0), name


def test_multi_feature_mean_pools_the_rows_asked_for():
    """A multi-valued feature embeds as the mean of its non-pad entries'
    rows at each flat position asked for. A pad slot passed as a row, as the
    dense oracle passes every slot, pools to zero instead of dividing by a
    zero count; the real-token rows equal those of the all-slot call."""
    model, (batch, _) = padded_setup("nova", "add")
    assert (~batch.pad_mask).any()
    B, L = batch.items.shape
    table = model.params["emb.f.genre"].data
    idx = batch.features["genre"].reshape(B * L, -1)
    genre = [f for f in model.schema.features if f.name == "genre"]
    every, = EF.embed_side_features(batch, model.params, genre,
                                    np.arange(B * L), use_position=False)
    for r in range(B * L):
        ids = idx[r][idx[r] != 0]
        expect = table[ids].mean(axis=0) if len(ids) else 0.0 * table[0]
        assert np.allclose(every.data[r], expect, atol=1e-15)
    rows = np.flatnonzero(batch.pad_mask)
    real, = EF.embed_side_features(batch, model.params, genre, rows,
                                   use_position=False)
    assert np.array_equal(real.data, every.data[rows])

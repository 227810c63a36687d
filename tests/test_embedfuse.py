import numpy as np
import pytest

from novabert import data as D
from novabert import embedfuse as EF
from novabert import tensor as T
from novabert.synthetic import branching_dataset


def rand_feats(rng, k, shape=(2, 3, 4)):
    return [T.Tensor(rng.standard_normal(shape), requires_grad=True)
            for _ in range(k)]


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
    neg = T.mul(f, -1.0)
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
    p = EF.init_fusion_params("concat", 2, 4, rng)
    p["b"].data[:] = rng.standard_normal(4)
    out = EF.fuse_concat(z, p["w"], p["b"])
    assert np.allclose(out.data, p["b"].data)


def test_concat_matches_composition_oracle():
    rng = np.random.default_rng(5)
    feats = rand_feats(rng, 3)
    p = EF.init_fusion_params("concat", 3, 4, rng)
    out = EF.fuse_concat(feats, p["w"], p["b"])
    cat = np.concatenate([f.data for f in feats], axis=-1)
    assert np.allclose(out.data, cat @ p["w"].data + p["b"].data)


def test_concat_k_mismatch():
    rng = np.random.default_rng(6)
    feats = rand_feats(rng, 2)
    p = EF.init_fusion_params("concat", 3, 4, rng)
    with pytest.raises(ValueError, match="inputs"):
        EF.fuse_concat(feats, p["w"], p["b"])


# ---------------------------------------------------------------------------
# gating
# ---------------------------------------------------------------------------

def test_gating_identical_features_symmetric():
    rng = np.random.default_rng(7)
    (f,) = rand_feats(rng, 1)
    wf = T.Tensor(rng.standard_normal((4, 1)), requires_grad=True)
    out, gates = EF.fuse_gating([f, f], wf)
    assert np.allclose(gates.data, 0.5)
    assert np.allclose(out.data, f.data)


def test_gating_singleton():
    rng = np.random.default_rng(8)
    (f,) = rand_feats(rng, 1)
    wf = T.Tensor(rng.standard_normal((4, 1)))
    out, gates = EF.fuse_gating([f], wf)
    assert np.allclose(gates.data, 1.0)
    assert np.allclose(out.data, f.data)


def test_gating_matches_matrix_oracle():
    rng = np.random.default_rng(9)
    feats = rand_feats(rng, 3)
    wf = T.Tensor(rng.standard_normal((4, 1)))
    out, gates = EF.fuse_gating(feats, wf)
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
    _, gates = EF.fuse_gating(feats, wf)
    assert np.all(gates.data >= 0)
    assert np.abs(gates.data.sum(-1) - 1).max() < 1e-12


def test_gating_sigmoid_mode():
    rng = np.random.default_rng(11)
    feats = rand_feats(rng, 2)
    wf = T.Tensor(rng.standard_normal((4, 1)))
    _, gates = EF.fuse_gating(feats, wf, mode="sigmoid")
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


def test_integrated_no_side_add_equals_id(small_batch):
    schema, catalog, batch = small_batch
    rng = np.random.default_rng(1)
    params = EF.init_embeddings(schema, catalog, 8, 5, rng, features=[],
                                use_position=False)
    side = EF.embed_side_features(batch, params, schema, features=[],
                                  use_position=False)
    r_id = T.embedding_lookup(params["emb.id"], batch.items)
    r = EF.integrated_embeddings(r_id, side, "add", {})
    assert np.array_equal(r.data, r_id.data)


def test_integrated_position_only_is_additive(small_batch):
    schema, catalog, batch = small_batch
    rng = np.random.default_rng(2)
    params = EF.init_embeddings(schema, catalog, 8, 5, rng, features=[])
    side = EF.embed_side_features(batch, params, schema, features=[])
    r_id = T.embedding_lookup(params["emb.id"], batch.items)
    r = EF.integrated_embeddings(r_id, side, "add", {})
    pos = params["emb.pos"].data[batch.positions]
    assert np.allclose(r.data, r_id.data + pos)


def test_integrated_full_matches_straight_line_oracle(small_batch):
    schema, catalog, batch = small_batch
    rng = np.random.default_rng(3)
    params = EF.init_embeddings(schema, catalog, 8, 5, rng)
    fp = EF.init_fusion_params("gating", 3, 8, rng)
    fp["wf"].data[:] = rng.standard_normal((8, 1))
    side = EF.embed_side_features(batch, params, schema)
    r = EF.integrated_embeddings(
        T.embedding_lookup(params["emb.id"], batch.items), side, "gating", fp)
    # oracle: lookups then gating, all in plain numpy
    idemb = params["emb.id"].data[batch.items]
    ratemb = params["emb.f.rating"].data[batch.features["rating"]]
    posemb = params["emb.pos"].data[batch.positions]
    fmat = np.stack([idemb, ratemb, posemb], axis=-2)
    logits = (fmat @ fp["wf"].data)[..., 0]
    e = np.exp(logits - logits.max(-1, keepdims=True))
    g = e / e.sum(-1, keepdims=True)
    expect = np.einsum("...k,...kh->...h", g, fmat)
    assert np.allclose(r.data, expect, atol=1e-12)


def test_gradients_reach_all_tables(small_batch):
    schema, catalog, batch = small_batch
    rng = np.random.default_rng(4)
    params = EF.init_embeddings(schema, catalog, 8, 5, rng)
    fp = EF.init_fusion_params("concat", 3, 8, rng)
    side = EF.embed_side_features(batch, params, schema)
    r = EF.integrated_embeddings(
        T.embedding_lookup(params["emb.id"], batch.items), side, "concat", fp)
    T.backward(T.tsum(T.mul(r, r)))
    for name, p in {**params, **{f"fuse.{k}": v for k, v in fp.items()}}.items():
        assert p.grad is not None and np.any(p.grad != 0), name

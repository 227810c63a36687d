import json
import struct

import numpy as np
import pytest

from novabert import checkpoint as CK
from novabert import data as D
from novabert import train as TR
from novabert.model import Model, ModelConfig
from novabert.synthetic import branching_dataset, make_catalog


def build_model(seed=0):
    schema, catalog, seqs = branching_dataset(m=10, n_seq=12, length=6, seed=seed)
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=2, max_len=6,
                      attention="nova", fusion="gating")
    return Model(cfg, schema, catalog, seed=seed), seqs


def test_round_trip_restores_every_tensor(tmp_path):
    model, _ = build_model()
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model, metadata={"epoch": 3, "seed": 0,
                                              "best_hr10": 0.5})
    loaded, meta, opt = CK.load_checkpoint(path)
    assert meta == {"epoch": 3, "seed": 0, "best_hr10": 0.5}
    assert opt is None
    assert loaded.config == model.config
    assert set(loaded.params) == set(model.params)
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data)


def test_save_load_save_byte_identical(tmp_path):
    model, _ = build_model(seed=7)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    CK.save_checkpoint(p1, model, metadata={"epoch": 1})
    loaded, meta, _ = CK.load_checkpoint(p1)
    CK.save_checkpoint(p2, loaded, metadata=meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_self_describing(tmp_path):
    """Scoring through a reloaded model needs no original objects."""
    model, seqs = build_model()
    split = D.leave_one_out_split(seqs)
    before = TR.rank_all(model, split.test)
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model)
    loaded, _, _ = CK.load_checkpoint(path)
    after = TR.rank_all(loaded, split.test)
    assert before.to_dict() == after.to_dict()


def test_optimizer_state_round_trip(tmp_path):
    model, seqs = build_model()
    split = D.leave_one_out_split(seqs)
    tc = TR.TrainConfig(epochs=1, batch_size=8, learning_rate=1e-3, seed=0)
    opt = TR.Adam(model.params, tc)
    rng = np.random.default_rng(0)
    batch = D.make_masked_batch(split.train, model.schema, model.catalog,
                                0.3, rng, model.config.max_len)
    model.zero_grads()
    from novabert import tensor as T
    T.backward(model.loss(batch, train=True, rng=rng))
    opt.step(1e-3)
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model, optimizer=opt)
    _, _, state = CK.load_checkpoint(path)
    assert state["t"] == 1
    for name in model.params:
        assert np.array_equal(state["m"][name], opt.m[name])
        assert np.array_equal(state["v"][name], opt.v[name])


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACKPT" + b"\0" * 32)
    with pytest.raises(CK.CheckpointError, match="not a checkpoint"):
        CK.load_checkpoint(path)


def rewrite_index(path, edit):
    """Apply edit to the checkpoint's index in place, keeping the tensors."""
    index, data_start = CK.read_index(path)
    edit(index)
    body = path.read_bytes()[data_start:]
    blob = json.dumps(index, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(CK.MAGIC + struct.pack("<I", CK.VERSION)
                     + struct.pack("<Q", len(blob)) + blob + body)


def test_shape_mismatch_rejected(tmp_path):
    model, _ = build_model()
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model)

    # corrupt the declared shape of one tensor, keeping byte counts valid
    def edit(index):
        for entry in index["tensors"]:
            if entry["name"] == "dec.bias":
                entry["shape"] = [2, 5]

    rewrite_index(path, edit)
    with pytest.raises(CK.CheckpointError, match="dec.bias"):
        CK.load_checkpoint(path)


def test_features_disagreeing_with_raw_values_rejected(tmp_path):
    genre = D.FeatureSpec("genre", "item", "multi")
    schema = D.SideInfoSchema([genre])
    catalog = make_catalog(3, schema, {"genre": ["a|b", "b", "c"]})
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1, max_len=4)
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, Model(cfg, schema, catalog, seed=0))
    CK.load_checkpoint(path)  # the untouched file loads

    def edit(index):
        index["catalog"]["raw_features"]["genre"][1] = "c"

    rewrite_index(path, edit)
    with pytest.raises(CK.CheckpointError, match="do not match"):
        CK.load_checkpoint(path)

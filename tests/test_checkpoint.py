import io
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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_load_draws_nothing(tmp_path, monkeypatch, dtype):
    """The model is built from the stored arrays, with no random generator
    made: its parameters are writable arrays of the stored dtype, and
    saving it again gives the same bytes."""
    schema, catalog, _ = branching_dataset(m=10, n_seq=12, length=6, seed=0)
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=2, max_len=6,
                      attention="nova", fusion="gating")
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    CK.save_checkpoint(p1, Model(cfg, schema, catalog, seed=5, dtype=dtype),
                       metadata={"epoch": 2})

    def no_generator(*args, **kwargs):
        raise AssertionError("load_checkpoint made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded, meta, _ = CK.load_checkpoint(p1)
    assert loaded.dtype == dtype
    for p in loaded.params.values():
        assert p.data.dtype == dtype
        assert p.data.flags.writeable and p.data.flags.c_contiguous
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


def rewrite_archive(path, edit):
    """Apply edit(index, arrays) to the checkpoint archive in place."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    index = json.loads(arrays.pop("index").tobytes())
    edit(index, arrays)
    blob = json.dumps(index, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        np.savez(fh, index=np.frombuffer(blob, dtype=np.uint8), **arrays)


def test_shape_mismatch_rejected(tmp_path):
    model, _ = build_model()
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model)

    # store one tensor with the right element count but the wrong shape
    def edit(index, arrays):
        arrays["dec.bias"] = arrays["dec.bias"].reshape(2, 5)

    rewrite_archive(path, edit)
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

    def edit(index, arrays):
        index["catalog"]["raw_features"]["genre"][1] = "c"

    rewrite_archive(path, edit)
    with pytest.raises(CK.CheckpointError, match="do not match"):
        CK.load_checkpoint(path)


MALFORMED_INDEX = {
    "dropout-out-of-range": lambda index: index["config"].update(dropout=2.0),
    "unknown-config-key": lambda index: index["config"].update(colour="red"),
    "no-schema": lambda index: index.pop("schema"),
    "bad-feature-kind": lambda index: index["schema"][0].update(kind="user"),
}


def malform_index(path, name):
    """Rewrite the checkpoint at path with the index edit MALFORMED_INDEX
    names; every member's CRC stays valid."""
    rewrite_archive(path, lambda index, arrays: MALFORMED_INDEX[name](index))


@pytest.mark.parametrize("name", MALFORMED_INDEX)
def test_malformed_index_rejected_naming_the_file(tmp_path, name):
    """An index whose config or schema the model cannot be built from (a
    value out of range, an unknown key, a missing key, a bad feature kind)
    is a CheckpointError naming the file, not a ValueError, TypeError,
    KeyError or a DataError without the path."""
    model, _ = build_model()
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model)
    malform_index(path, name)
    with pytest.raises(CK.CheckpointError, match="malformed index") as err:
        CK.load_checkpoint(path)
    assert str(path) in str(err.value)


def test_index_stores_item_features_per_item(tmp_path):
    """The index keeps the format-version-2 form of the catalog's item
    features, whatever form the catalog holds them in: per feature [None,
    item 1's value, ...], a multi field's value as its list of indices."""
    schema = D.SideInfoSchema([D.FeatureSpec("genre", "item", "multi"),
                               D.FeatureSpec("kind", "item", "categorical")])
    catalog = make_catalog(3, schema, {"genre": ["a||b", "", "b"],
                                       "kind": ["x", "y", "x"]})
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1, max_len=4)
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, Model(cfg, schema, catalog, seed=0))
    with np.load(path) as archive:
        index = json.loads(archive["index"].tobytes())
    assert index["version"] == 2
    assert index["catalog"]["features"] == {
        "genre": [None, [2, 3], [D.UNK], [3]], "kind": [None, 2, 3, 2]}


def test_missing_member_rejected(tmp_path):
    """A damaged zip directory can drop a member without any other error."""
    model, _ = build_model()
    opt = TR.Adam(model.params, TR.TrainConfig())
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model, optimizer=opt)

    def edit(index, arrays):
        del arrays["opt.v.dec.bias"]

    rewrite_archive(path, edit)
    with pytest.raises(CK.CheckpointError, match="opt.v.dec.bias"):
        CK.load_checkpoint(path)


def test_float32_parameters_round_trip(tmp_path):
    schema, catalog, _ = branching_dataset(m=10, n_seq=12, length=6, seed=0)
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1, max_len=6)
    model = Model(cfg, schema, catalog, seed=0, dtype=np.float32)
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model)
    loaded, _, _ = CK.load_checkpoint(path)
    assert loaded.dtype == np.float32
    for name, p in model.params.items():
        assert loaded.params[name].data.dtype == np.float32
        assert np.array_equal(loaded.params[name].data, p.data)


def test_mixed_parameter_dtypes_rejected(tmp_path):
    model, _ = build_model()
    other = np.float64 if model.dtype == np.float32 else np.float32
    model.params["layer0.ffn.w1.w"].data = (
        model.params["layer0.ffn.w1.w"].data.astype(other))
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model)
    with pytest.raises(CK.CheckpointError, match="float32 or all float64"):
        CK.load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_parameters_rejected(tmp_path, value):
    """A parameter holding NaN or inf is refused naming the file and the
    tensor: such a model scores every item NaN, which ranks each target
    first."""
    model, _ = build_model()
    model.params["emb.id"].data[3, 0] = value
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model)
    with pytest.raises(CK.CheckpointError, match="emb.id") as info:
        CK.load_checkpoint(path)
    assert str(path) in str(info.value)
    assert "non-finite" in str(info.value)


def test_flipped_bit_rejected(tmp_path):
    model, _ = build_model()
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model)
    raw = bytearray(path.read_bytes())
    blob = model.params["layer1.ffn.w2.w"].data.tobytes()
    at = raw.find(blob) + len(blob) // 2
    raw[at] ^= 0x10
    path.write_bytes(raw)
    with pytest.raises(CK.CheckpointError, match="CRC"):
        CK.load_checkpoint(path)


def test_header_ending_a_read_early_still_checks_crc(tmp_path):
    """A member whose .npy header now declares fewer elements is read only
    in part; its CRC-32 must be checked all the same."""
    schema, catalog, _ = branching_dataset(m=10, n_seq=12, length=6, seed=0)
    cfg = ModelConfig(hidden_size=16, num_heads=2, num_layers=1, max_len=6)
    model = Model(cfg, schema, catalog, seed=0)
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model, optimizer=TR.Adam(model.params,
                                                      TR.TrainConfig()))
    raw = path.read_bytes()
    # the flat 8 KB Adam moment of layer0.ffn.w1.w; "4" -> "0" is one bit
    path.write_bytes(raw.replace(b"'shape': (1024,)", b"'shape': (1020,)", 1))
    with pytest.raises(CK.CheckpointError, match="CRC"):
        CK.load_checkpoint(path)


def _plain_npy(good):
    buf = io.BytesIO()
    np.save(buf, np.arange(4.0))
    return buf.getvalue()


@pytest.mark.parametrize("damage", [
    pytest.param(lambda good: good[:len(good) // 2], id="cut-in-half"),
    pytest.param(lambda good: b"", id="empty"),
    pytest.param(_plain_npy, id="plain-npy"),
    pytest.param(lambda good: (b"NOVACKPT" + struct.pack("<IQ", 1, 2)
                               + b"{}"), id="version-1"),
])
def test_unreadable_file_rejected(tmp_path, damage):
    model, _ = build_model()
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(CK.CheckpointError) as info:
        CK.load_checkpoint(path)
    assert "allow_pickle" not in str(info.value)


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)


class Payload:
    """Records that it was unpickled; loading a checkpoint must not."""

    def __reduce__(self):
        return _record_unpickling, ()


def test_object_array_member_rejected_unpickled(tmp_path):
    model, _ = build_model()
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model)

    def edit(index, arrays):
        arrays["dec.bias"] = np.array([Payload()], dtype=object)

    rewrite_archive(path, edit)
    with pytest.raises(CK.CheckpointError) as info:
        CK.load_checkpoint(path)
    assert "allow_pickle" not in str(info.value)
    assert UNPICKLED == []


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    model, _ = build_model()
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, model, metadata={"epoch": 1})
    before = path.read_bytes()

    def savez_then_fail(fh, **arrays):
        fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    with pytest.raises(OSError, match="disk full"):
        CK.save_checkpoint(path, build_model(seed=1)[0],
                           metadata={"epoch": 2})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]

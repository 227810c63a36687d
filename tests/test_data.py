import numpy as np
import pytest

from novabert import checkpoint as CK
from novabert import data as D
from novabert.model import Model, ModelConfig
from novabert.synthetic import branching_dataset, make_catalog

SCHEMA_TEXT = """\
[year]
kind = item
encoding = bucketed
buckets = 1990,1995,2000

[genre]
kind = item
encoding = multi

[rating]
kind = behavior
encoding = categorical
"""

ITEMS_TEXT = """\
item_id\tyear\tgenre
10\t1989\tComedy|Drama
20\t1993\tDrama
30\t2001\tAction
40\t1997\tComedy
"""

LOG_TEXT = """\
user_id\titem_id\ttimestamp\trating
alice\t10\t5\t4
alice\t20\t1\t3
alice\t30\t3\t5
alice\t40\t4\t4
alice\t10\t2\t2
bob\t10\t1\t1
bob\t20\t2\t2
bob\t30\t3\t3
carol\t10\t1\t5
carol\t20\t2\t5
carol\t30\t3\t5
carol\t40\t4\t5
carol\t10\t5\t5
carol\t20\t6\t5
"""


@pytest.fixture
def dataset(tmp_path):
    (tmp_path / "schema.ini").write_text(SCHEMA_TEXT)
    (tmp_path / "items.tsv").write_text(ITEMS_TEXT)
    (tmp_path / "log.tsv").write_text(LOG_TEXT)
    schema = D.load_schema(tmp_path / "schema.ini")
    catalog, seqs = D.load_dataset(tmp_path / "log.tsv", tmp_path / "items.tsv", schema)
    return schema, catalog, seqs


def test_load_basic(dataset):
    schema, catalog, seqs = dataset
    assert catalog.m == 4
    assert catalog.mask_token == 5
    # bob has only 3 interactions -> dropped
    assert [s.user for s in seqs] == ["alice", "carol"]


def test_sequences_sorted_by_timestamp(dataset):
    _, _, seqs = dataset
    for s in seqs:
        assert s.timestamps == sorted(s.timestamps)
    # alice's shuffled log resolves to 20,10,30,40,10
    alice = seqs[0]
    assert alice.items == [2, 1, 3, 4, 1]


def test_bucketed_and_multi_encoding(dataset):
    schema, catalog, _ = dataset
    year = schema.get("year")
    # edges 1990,1995,2000: 1989 -> first bucket (index 2), 2001 -> last (5)
    assert catalog.features["year"][1] == 2
    assert catalog.features["year"][3] == 5
    genre = schema.get("genre")
    assert genre.vocab_size == 2 + 3  # Action, Comedy, Drama
    assert len(catalog.features["genre"][1]) == 2


def test_malformed_row_reports_line(tmp_path, dataset):
    schema, catalog, _ = dataset
    bad = tmp_path / "bad.tsv"
    bad.write_text("user_id\titem_id\ttimestamp\trating\nu\t10\t1\n")
    with pytest.raises(D.DataError, match="bad.tsv:2"):
        D.load_interactions(bad, schema, catalog)


def test_unknown_item_errors(tmp_path, dataset):
    schema, catalog, _ = dataset
    bad = tmp_path / "bad2.tsv"
    bad.write_text("user_id\titem_id\ttimestamp\trating\nu\t99\t1\t5\n")
    with pytest.raises(D.DataError, match="unknown item"):
        D.load_interactions(bad, schema, catalog)


def test_round_trip(dataset, tmp_path):
    schema, catalog, seqs = dataset
    D.write_items(catalog, schema, tmp_path / "items2.tsv")
    D.write_interactions(seqs, schema, catalog, tmp_path / "log2.tsv")
    schema2 = D.SideInfoSchema(
        [D.FeatureSpec(f.name, f.kind, f.encoding, f.buckets) for f in schema.features])
    catalog2, seqs2 = D.load_dataset(tmp_path / "log2.tsv", tmp_path / "items2.tsv",
                                     schema2)
    assert catalog2.raw_ids == catalog.raw_ids
    assert catalog2.features == catalog.features
    assert [s.items for s in seqs2] == [s.items for s in seqs]
    assert [s.behavior for s in seqs2] == [s.behavior for s in seqs]


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_protocol(dataset):
    _, _, seqs = dataset
    split = D.leave_one_out_split(seqs)
    for seq, tr, va, te in zip(seqs, split.train, split.validation, split.test):
        assert tr.items == seq.items[:-2]
        assert va.items == seq.items[:-2]
        assert va.target == seq.items[-2]
        assert te.items == seq.items[:-1]
        assert te.target == seq.items[-1]


def test_split_counts_conserved():
    rng = np.random.default_rng(0)
    seqs = []
    for u in range(100):
        n = int(rng.integers(5, 30))
        items = [int(rng.integers(1, 50)) for _ in range(n)]
        seqs.append(D.InteractionSequence(str(u), items, list(range(n)), {}, {}))
    split = D.leave_one_out_split(seqs)
    for seq, tr in zip(seqs, split.train):
        assert len(tr.items) + 2 == len(seq.items)


def test_split_deterministic(dataset):
    _, _, seqs = dataset
    a = D.leave_one_out_split(seqs)
    b = D.leave_one_out_split(seqs)
    assert [p.target for p in a.test] == [p.target for p in b.test]
    assert [t.items for t in a.train] == [t.items for t in b.train]


# one multi field with an empty value between separators and an empty
# field, and one categorical field
SIDE_VALUES = {"genre": ["a||b", "", "b"], "kind": ["x", "y", "x"]}


def _side_schema():
    return D.SideInfoSchema([D.FeatureSpec("genre", "item", "multi"),
                             D.FeatureSpec("kind", "item", "categorical")])


def _built_three_ways(tmp_path, schema_factory):
    """(schema, catalog) from make_catalog, from write_items + load_items,
    and from a checkpoint round trip of a model on the first."""
    schema = schema_factory()
    catalog = make_catalog(3, schema, SIDE_VALUES)
    items = tmp_path / "items.tsv"
    D.write_items(catalog, schema, items)
    loaded_schema = schema_factory()
    loaded = D.load_items(items, loaded_schema)
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1, max_len=4)
    path = tmp_path / "model.bin"
    CK.save_checkpoint(path, Model(cfg, schema, catalog, seed=0))
    model, _, _ = CK.load_checkpoint(path)
    return [(schema, catalog), (loaded_schema, loaded),
            (model.schema, model.catalog)]


def test_one_encoding_for_one_set_of_strings(tmp_path):
    built = _built_three_ways(tmp_path, _side_schema)
    for schema, catalog in built:
        assert schema.get("genre").vocab == {"a": 2, "b": 3}
        assert schema.get("kind").vocab == {"x": 2, "y": 3}
        assert catalog.features["genre"] == [None, [2, 3], [D.UNK], [3]]
        assert catalog.features["kind"] == [None, 2, 3, 2]
        assert catalog.id_map == {"1": 1, "2": 2, "3": 3}
        assert catalog.raw_features == SIDE_VALUES


def test_frozen_vocabulary_is_kept(tmp_path):
    def frozen_schema():
        schema = _side_schema()
        schema.get("genre").build_vocab(["b", "c"])
        return schema

    for schema, catalog in _built_three_ways(tmp_path, frozen_schema):
        assert schema.get("genre").vocab == {"b": 2, "c": 3}
        assert catalog.features["genre"] == [None, [D.UNK, 2], [D.UNK], [2]]
        assert schema.get("kind").vocab == {"x": 2, "y": 3}


# ---------------------------------------------------------------------------
# masked batches
# ---------------------------------------------------------------------------

@pytest.fixture
def split(dataset):
    schema, catalog, seqs = dataset
    return schema, catalog, D.leave_one_out_split(seqs)


def test_masked_batch_full_prob(split):
    schema, catalog, sp = split
    rng = np.random.default_rng(0)
    batch = D.make_masked_batch(sp.train, schema, catalog, 1.0, rng, L=6)
    nonpad = batch.items != D.PAD
    assert np.all(batch.items[nonpad] == catalog.mask_token)
    assert np.array_equal(batch.mask_pos, nonpad)
    assert np.all(batch.labels[batch.mask_pos] > 0)
    assert np.all(batch.labels[~batch.mask_pos] == 0)


def test_masked_batch_pad_never_masked(split):
    schema, catalog, sp = split
    rng = np.random.default_rng(1)
    batch = D.make_masked_batch(sp.train, schema, catalog, 0.5, rng, L=8)
    assert not np.any(batch.mask_pos[batch.items == D.PAD])
    assert batch.mask_pos.any(axis=1).all()  # >= 1 mask per sequence


def test_masked_batch_fraction():
    # long sequences so the at-least-one-mask resample barely biases the rate
    schema, catalog, seqs = branching_dataset(m=30, n_seq=200, length=52, seed=3)
    split = D.leave_one_out_split(seqs)
    rng = np.random.default_rng(2)
    batch = D.make_masked_batch(split.train, schema, catalog, 0.2, rng, L=50)
    frac = batch.mask_pos.sum() / (batch.items != D.PAD).sum()
    assert 0.18 <= frac <= 0.22


def test_masked_positions_keep_behavior_lose_item_features(split):
    schema, catalog, sp = split
    rng = np.random.default_rng(3)
    batch = D.make_masked_batch(sp.train, schema, catalog, 1.0, rng, L=6)
    nonpad = batch.items != D.PAD
    assert np.all(batch.features["year"][nonpad] == D.UNK)
    assert np.all(batch.features["genre"][nonpad][:, 0] == D.UNK)
    # behavior feature (rating) retained: encoded values are >= 2 for seen
    assert np.all(batch.features["rating"][nonpad] >= 2)
    assert np.all(batch.positions[nonpad] >= 1)


def test_masked_batch_reproducible(split):
    schema, catalog, sp = split
    a = D.make_masked_batch(sp.train, schema, catalog, 0.4,
                            np.random.default_rng(9), L=6)
    b = D.make_masked_batch(sp.train, schema, catalog, 0.4,
                            np.random.default_rng(9), L=6)
    assert np.array_equal(a.items, b.items)
    assert np.array_equal(a.labels, b.labels)


def test_masked_batch_bad_args(split):
    schema, catalog, sp = split
    rng = np.random.default_rng(0)
    with pytest.raises(D.DataError):
        D.make_masked_batch(sp.train, schema, catalog, 0.2, rng, L=0)
    with pytest.raises(D.DataError):
        D.make_masked_batch(sp.train, schema, catalog, 0.0, rng, L=4)


# ---------------------------------------------------------------------------
# eval batches
# ---------------------------------------------------------------------------

def test_eval_batch_layout(split):
    schema, catalog, sp = split
    pair = D.EvalPair(items=[1, 2], behavior={"rating": [2, 3]}, target=3)
    batch = D.make_eval_batch([pair], schema, catalog, L=5)
    assert list(batch.items[0]) == [0, 0, 1, 2, catalog.mask_token]
    assert list(batch.positions[0]) == [0, 0, 1, 2, 3]
    assert batch.labels[0, 4] == 3
    assert batch.features["rating"][0, 4] == D.UNK
    assert batch.features["year"][0, 4] == D.UNK


def test_eval_batch_truncates_head(split):
    schema, catalog, sp = split
    items = [1, 2, 3, 4, 1, 2, 3, 4]
    pair = D.EvalPair(items=items, behavior={"rating": [2] * 8}, target=1)
    batch = D.make_eval_batch([pair], schema, catalog, L=5)
    assert list(batch.items[0, :4]) == items[-4:]
    assert batch.items[0, 4] == catalog.mask_token


def test_eval_batch_needs_room_for_prefix_and_mask(split):
    schema, catalog, _ = split
    pair = D.EvalPair(items=[1, 2, 3], behavior={"rating": [2, 3, 2]}, target=4)
    for L in (0, 1):
        with pytest.raises(D.DataError, match=">= 2"):
            D.make_eval_batch([pair], schema, catalog, L=L)
    batch = D.make_eval_batch([pair], schema, catalog, L=2)
    assert list(batch.items[0]) == [3, catalog.mask_token]


def test_eval_batch_empty_prefix_errors(split):
    schema, catalog, _ = split
    with pytest.raises(D.DataError):
        D.make_eval_batch([D.EvalPair([], {"rating": []}, 1)], schema, catalog, L=5)

import gc
import importlib
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers as H
import list_split as LS
import slot_batches as SB
from novabert import checkpoint as CK
from novabert import data as D
from novabert.model import Model, ModelConfig
from novabert.synthetic import branching_dataset, make_catalog

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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


def _feature(schema, name):
    return next(f for f in schema.features if f.name == name)


def test_bucketed_and_multi_encoding(dataset):
    schema, catalog, _ = dataset
    # edges 1990,1995,2000: 1989 -> first bucket (index 2), 2001 -> last (5)
    assert catalog.features["year"][1] == 2
    assert catalog.features["year"][3] == 5
    genre = _feature(schema, "genre")
    assert genre.vocab_size == 2 + 3  # Action, Comedy, Drama
    assert np.count_nonzero(catalog.features["genre"][1]) == 2


@pytest.mark.parametrize("raw, index", [
    ("1989", 2), ("1990", 3), ("2000", 5), ("2001", 5), ("inf", 5),
    ("-inf", 2), ("nan", D.UNK), ("NaN", D.UNK), ("", D.UNK), ("x", D.UNK)])
def test_bucketed_encoding_of_edges_infinities_and_nan(dataset, raw, index):
    """A value on an edge goes to the bucket above it, the infinities to
    the end buckets, and what is not a number (NaN included) to UNK."""
    schema, _, _ = dataset
    assert _feature(schema, "year").encode(raw) == index


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
    H.write_items(catalog, schema, tmp_path / "items2.tsv")
    H.write_interactions(seqs, schema, catalog, tmp_path / "log2.tsv")
    schema2 = D.SideInfoSchema(
        [D.FeatureSpec(f.name, f.kind, f.encoding, f.buckets) for f in schema.features])
    catalog2, seqs2 = D.load_dataset(tmp_path / "log2.tsv", tmp_path / "items2.tsv",
                                     schema2)
    assert catalog2.raw_ids == catalog.raw_ids
    assert catalog2.features.keys() == catalog.features.keys()
    for name, table in catalog.features.items():
        assert np.array_equal(catalog2.features[name], table)
    assert [s.items for s in seqs2] == [s.items for s in seqs]
    assert [s.behavior for s in seqs2] == [s.behavior for s in seqs]


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_protocol(dataset):
    _, _, seqs = dataset
    split = D.leave_one_out_split(seqs)
    for seq, tr, va, te in zip(seqs, split.train, split.validation, split.test):
        assert np.array_equal(tr.items, seq.items[:-2])
        assert np.array_equal(va.items, seq.items[:-2])
        assert va.target == seq.items[-2]
        assert np.array_equal(te.items, seq.items[:-1])
        assert te.target == seq.items[-1]


def _split_by_slices(sequences):
    """The leave-one-out rule as three independent slices of each
    sequence."""
    out = D.SplitDataset([], [], [])
    for seq in sequences:
        n = len(seq)

        def cut(k):
            return {name: vals[:k] for name, vals in seq.behavior.items()}

        out.train.append(D.TrainSequence(seq.items[:n - 2], cut(n - 2)))
        out.validation.append(D.EvalPair(seq.items[:n - 2], cut(n - 2),
                                         seq.items[n - 2]))
        out.test.append(D.EvalPair(seq.items[:n - 1], cut(n - 1),
                                   seq.items[n - 1]))
    return out


@pytest.fixture(params=["branching", "movielens_like"])
def logs(request, monkeypatch):
    if request.param == "branching":
        return branching_dataset(m=30, n_seq=50, length=9, seed=4)[2]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("movielens").movielens_like(0, users=300)[2]


def assert_same_pairs(got, want):
    """Pairs (or training sequences) with equal items, behavior and
    targets."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.items, w.items)
        assert g.behavior.keys() == w.behavior.keys()
        for name in w.behavior:
            assert np.array_equal(g.behavior[name], w.behavior[name])
        assert getattr(g, "target", None) == getattr(w, "target", None)


def test_split_equals_independent_slices(logs):
    """Each pair equals slicing the sequence afresh; the training sequence
    shares the validation pair's views, and no pair shares the user's own
    lists."""
    split = D.leave_one_out_split(logs)
    want = _split_by_slices(logs)
    for part in ("train", "validation", "test"):
        assert_same_pairs(getattr(split, part), getattr(want, part))
    assert any(seq.behavior for seq in logs)
    for seq, tr, va, te in zip(logs, split.train, split.validation,
                               split.test):
        assert tr.items is va.items and tr.behavior is va.behavior
        assert te.items is not seq.items
        for name in seq.behavior:
            assert te.behavior[name] is not seq.behavior[name]


def test_held_out_pair():
    """held_out drops the last item and its behavior and makes that item
    the target; applied to a pair it holds out the pair's last item."""
    seq = D.TrainSequence([4, 2, 7], {"rating": [3, 2, 3],
                                      "genre": [[2], [3, 4], [2]]})
    pair = D.held_out(seq)
    assert pair == D.EvalPair([4, 2], {"rating": [3, 2],
                                       "genre": [[2], [3, 4]]}, 7)
    assert D.held_out(pair) == D.EvalPair([4], {"rating": [3],
                                                "genre": [[2]]}, 2)


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
    assert len(a.train) == len(b.train)
    assert all(np.array_equal(x.items, y.items)
               for x, y in zip(a.train, b.train))


def test_split_of_no_users():
    split = D.leave_one_out_split([])
    assert split == D.SplitDataset([], [], [])


def test_split_refuses_behavior_not_aligned_with_the_items():
    """Packed end to end, one user's missing value would shift every later
    user's behavior; it is refused instead."""
    seqs = [D.InteractionSequence(u, [1, 2, 3, 4, 5], list(range(5)),
                                  {"rating": [2] * n}, {})
            for u, n in (("a", 5), ("b", 4), ("c", 6))]
    with pytest.raises(D.DataError, match="rating: not one value per item"):
        D.leave_one_out_split(seqs)


def _views(split, field):
    """Every prefix of one field (items, or a behavior feature's name) in
    the split."""
    return [p.items if field == "items" else p.behavior[field]
            for part in (split.train, split.validation, split.test)
            for p in part]


def test_split_stores_each_field_once(logs):
    """Every prefix of a field is a view of one read-only array, so writing
    into a pair raises instead of changing every pair that shares it; the
    targets are ints."""
    split = D.leave_one_out_split(logs)
    for field in ["items", *logs[0].behavior]:
        views = _views(split, field)
        packed = views[0].base
        assert packed.dtype == np.int64
        assert len(packed) == sum(len(seq) for seq in logs)
        assert all(v.base is packed and np.shares_memory(v, packed)
                   for v in views)
        with pytest.raises(ValueError):
            views[0][0] = 1
        with pytest.raises(ValueError):
            views[-1].flags.writeable = True
    assert {type(p.target) for p in split.validation + split.test} == {int}


def test_split_keeps_no_reference_to_the_input_lists(logs):
    lists = [seq.items for seq in logs] + [
        v for seq in logs for v in seq.behavior.values()]
    before = [sys.getrefcount(x) for x in lists]
    split = D.leave_one_out_split(logs)
    assert [sys.getrefcount(x) for x in lists] == before
    assert len(split.test) == len(logs)


# bytes the split of movielens_like(0) allocates and still holds once its
# input is dropped, per interaction: 23.2 measured (two int64 fields and
# the per-user views); the list split's slices held 37.2 by this count, and
# 67.8 with the input's int objects they kept alive
SPLIT_BYTES_PER_INTERACTION = 26


def test_split_footprint_at_movielens_1m_shape(monkeypatch):
    """What the split holds, traced from its first allocation; that it
    keeps none of the input's lists (nor so their ints) is checked above."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    seqs = importlib.import_module("movielens").movielens_like(0)[2]
    n = sum(len(seq) for seq in seqs)
    tracemalloc.start()
    try:
        split = D.leave_one_out_split(seqs)
        del seqs
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(split.train) == 6040 and n > 900_000
    assert held / n <= SPLIT_BYTES_PER_INTERACTION


# one multi field with an empty value between separators and an empty
# field, and one categorical field
SIDE_VALUES = {"genre": ["a||b", "", "b"], "kind": ["x", "y", "x"]}


def _side_schema():
    return D.SideInfoSchema([D.FeatureSpec("genre", "item", "multi"),
                             D.FeatureSpec("kind", "item", "categorical")])


def assert_table(table, rows):
    """table is the int64 array of rows."""
    assert table.dtype == np.int64 and table.tolist() == rows


def _built_three_ways(tmp_path, schema_factory):
    """(schema, catalog) from make_catalog, from write_items + load_items,
    and from a checkpoint round trip of a model on the first."""
    schema = schema_factory()
    catalog = make_catalog(3, schema, SIDE_VALUES)
    items = tmp_path / "items.tsv"
    H.write_items(catalog, schema, items)
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
        assert _feature(schema, "genre").vocab == {"a": 2, "b": 3}
        assert _feature(schema, "kind").vocab == {"x": 2, "y": 3}
        # row 0 is PAD and the mask token's row 4 holds UNK
        assert_table(catalog.features["genre"],
                     [[0, 0], [2, 3], [D.UNK, 0], [3, 0], [D.UNK, 0]])
        assert_table(catalog.features["kind"], [0, 2, 3, 2, D.UNK])
        assert catalog.id_map == {"1": 1, "2": 2, "3": 3}
        assert catalog.raw_features == SIDE_VALUES


@pytest.mark.parametrize("n", [2, 4])
def test_catalog_needs_one_value_per_item(n):
    """A feature column must hold one value per item: with one more, the
    mask token's row would hold an item's value instead of UNK."""
    values = {"genre": ["a"] * n, "kind": ["x"] * 3}
    with pytest.raises(D.DataError, match=f"genre: {n} values for 3 items"):
        make_catalog(3, _side_schema(), values)


def test_frozen_vocabulary_is_kept(tmp_path):
    def frozen_schema():
        schema = _side_schema()
        _feature(schema, "genre").build_vocab(["b", "c"])
        return schema

    for schema, catalog in _built_three_ways(tmp_path, frozen_schema):
        assert _feature(schema, "genre").vocab == {"b": 2, "c": 3}
        assert_table(catalog.features["genre"],
                     [[0, 0], [D.UNK, 2], [D.UNK, 0], [2, 0], [D.UNK, 0]])
        assert _feature(schema, "kind").vocab == {"x": 2, "y": 3}


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
    masked = batch.labels != 0
    assert np.array_equal(masked, nonpad)
    assert np.all(batch.labels[masked] > 0)
    assert np.all(batch.labels[~masked] == 0)


def test_masked_batch_pad_never_masked(split):
    schema, catalog, sp = split
    rng = np.random.default_rng(1)
    batch = D.make_masked_batch(sp.train, schema, catalog, 0.5, rng, L=8)
    masked = batch.labels != 0
    assert not np.any(masked[batch.items == D.PAD])
    assert masked.any(axis=1).all()  # >= 1 mask per sequence


def test_masked_batch_fraction():
    # long sequences so the at-least-one-mask resample barely biases the rate
    schema, catalog, seqs = branching_dataset(m=30, n_seq=200, length=52, seed=3)
    split = D.leave_one_out_split(seqs)
    rng = np.random.default_rng(2)
    batch = D.make_masked_batch(split.train, schema, catalog, 0.2, rng, L=50)
    frac = (batch.labels != 0).sum() / (batch.items != D.PAD).sum()
    assert 0.18 <= frac <= 0.22


def test_masked_positions_keep_behavior_lose_item_features(split):
    schema, catalog, sp = split
    rng = np.random.default_rng(3)
    batch = D.make_masked_batch(sp.train, schema, catalog, 1.0, rng, L=6)
    nonpad = batch.items != D.PAD
    assert np.all(catalog.features["year"][batch.items][nonpad] == D.UNK)
    assert np.all(catalog.features["genre"][batch.items][nonpad][:, 0]
                  == D.UNK)
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


def test_masked_batch_empty_sequence_errors(split):
    """An empty sequence has no position to mask; it is refused before any
    draw rather than redrawn forever."""
    schema, catalog, sp = split
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(D.DataError, match="empty"):
        D.make_masked_batch([sp.train[0], D.TrainSequence([], {})], schema,
                            catalog, 0.2, rng, L=6)
    assert rng.bit_generator.state == state


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
    assert catalog.features["year"][batch.items][0, 4] == D.UNK


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


# ---------------------------------------------------------------------------
# gathered batches against the per-slot builders
# ---------------------------------------------------------------------------

def assert_same_batch(got, want):
    """Every array of the two batches is equal, in the same dtype and
    shape."""
    pairs = [(getattr(got, k), getattr(want, k))
             for k in ("items", "positions", "labels")]
    assert got.features.keys() == want.features.keys()
    pairs += [(got.features[k], want.features[k]) for k in want.features]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


def assert_reads_item_features(batch, schema, catalog):
    """The batch carries exactly the schema's behavior features, and the
    catalog's tables read at its item IDs give the per-slot item features
    (UNK at the mask token)."""
    assert list(batch.features) == [f.name for f in schema.behavior_features()]
    for name, want in SB.item_features(batch.items, schema, catalog).items():
        got = catalog.features[name][batch.items]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def assert_builders_agree(seqs, pairs, schema, catalog, mask_prob, seed, L):
    """Masked batches from one generator state, and evaluation batches,
    equal the per-slot builders' and leave the generator in one state; the
    model reads their item features from the catalog."""
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    masked = D.make_masked_batch(seqs, schema, catalog, mask_prob, rngs[0], L)
    assert_same_batch(
        masked, SB.masked_batch(seqs, schema, catalog, mask_prob, rngs[1], L))
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    evaluation = D.make_eval_batch(pairs, schema, catalog, L)
    assert_same_batch(evaluation, SB.eval_batch(pairs, schema, catalog, L))
    for batch in (masked, evaluation):
        assert_reads_item_features(batch, schema, catalog)


@pytest.mark.parametrize("L, B", [(200, 32), (12, 128)])
def test_movielens_like_batches_equal_per_slot_ones(monkeypatch, L, B):
    """A multi genre, a categorical year, a rating behavior and histories
    longer than L, at the reference and desk shapes."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    movielens_like = importlib.import_module("movielens").movielens_like
    schema, catalog, seqs = movielens_like(0, users=B)
    split = D.leave_one_out_split(seqs)
    assert max(len(s.items) for s in split.train) > L
    assert {f.encoding for f in schema.features} == {"categorical", "multi"}
    assert_builders_agree(split.train, split.test, schema, catalog, 0.2, 0, L)


def test_tail_pair_of_views_equals_held_out(monkeypatch):
    """A tail pair built by hand from a training sequence's views, with its
    np.int64 last item as the target, gives held_out's batch."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    movielens_like = importlib.import_module("movielens").movielens_like
    schema, catalog, seqs = movielens_like(1, users=16)
    train = D.leave_one_out_split(seqs).train
    pairs = [D.EvalPair(s.items[:-1],
                        {n: v[:-1] for n, v in s.behavior.items()},
                        s.items[-1]) for s in train]
    assert isinstance(pairs[0].target, np.int64)
    assert_same_batch(D.make_eval_batch(pairs, schema, catalog, 200),
                      D.make_eval_batch([D.held_out(s) for s in train],
                                        schema, catalog, 200))


@pytest.mark.parametrize("mask_prob", [1e-3, 0.05, 0.2, 1.0])
def test_masks_follow_the_row_by_row_draws(mask_prob):
    """The masks and the generator's state after a batch are those of
    drawing row by row and redrawing a row until it has a mask; at 1e-3
    almost every row redraws."""
    schema, catalog, seqs = branching_dataset(m=30, n_seq=16, length=7,
                                              seed=1)
    train = D.leave_one_out_split(seqs).train
    for seed in range(4):
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_batch(
            D.make_masked_batch(train, schema, catalog, mask_prob, rngs[0], 6),
            SB.masked_batch(train, schema, catalog, mask_prob, rngs[1], 6))
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def _all_encodings_schema():
    """A bucketed, a multi and a categorical item feature, and a multi and
    a categorical behavior feature."""
    return D.SideInfoSchema([
        D.FeatureSpec("year", "item", "bucketed", [1990.0, 2000.0]),
        D.FeatureSpec("tags", "item", "multi"),
        D.FeatureSpec("kind", "item", "categorical"),
        D.FeatureSpec("context", "behavior", "multi"),
        D.FeatureSpec("rating", "behavior", "categorical")])


YEARS = ["1985", "1990", "1999", "2005", "nan", "", "inf"]
TAGS = ["a", "b", "c", "d"]


@st.composite
def logs_with_every_encoding(draw, L):
    """(catalog, sequences, pairs): items with 0-3 tags, and sequences of
    1 to L+3 items whose slots hold 0-3 context values."""
    schema = _all_encodings_schema()
    m = draw(st.integers(1, 6))
    catalog = make_catalog(m, schema, {
        "year": draw(st.lists(st.sampled_from(YEARS), min_size=m,
                              max_size=m)),
        "tags": ["|".join(draw(st.lists(st.sampled_from(TAGS), max_size=3,
                                        unique=True))) for _ in range(m)],
        "kind": draw(st.lists(st.sampled_from("xyz"), min_size=m,
                              max_size=m))})
    seqs = []
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(1, L + 3))
        seqs.append(D.TrainSequence(
            draw(st.lists(st.integers(1, m), min_size=n, max_size=n)),
            {"context": draw(st.lists(st.lists(st.integers(1, 5),
                                               max_size=3),
                                      min_size=n, max_size=n)),
             "rating": draw(st.lists(st.integers(1, 5), min_size=n,
                                     max_size=n))}))
    pairs = [D.EvalPair(s.items, s.behavior, draw(st.integers(1, m)))
             for s in seqs]
    return schema, catalog, seqs, pairs


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(
           lambda L: st.tuples(st.just(L), logs_with_every_encoding(L))),
       st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
def test_random_batches_equal_per_slot_ones(case, mask_prob, seed):
    """Random row sets, masks and multi-valued slots, with every encoding
    and none or several rows."""
    L, (schema, catalog, seqs, pairs) = case
    assert_builders_agree(seqs, pairs, schema, catalog, mask_prob, seed, L)


@pytest.mark.parametrize("schema_factory", [_all_encodings_schema,
                                            lambda: D.SideInfoSchema([])])
def test_batches_of_no_rows(schema_factory):
    """No rows give [0, L] arrays, and [0, L, 1] for a multi field."""
    schema = schema_factory()
    catalog = make_catalog(3, schema, {"year": ["1990"] * 3,
                                       "tags": ["a", "", "b|c"],
                                       "kind": ["x"] * 3})
    assert_builders_agree([], [], schema, catalog, 0.5, 0, 4)
    batch = D.make_eval_batch([], schema, catalog, 4)
    assert batch.items.shape == (0, 4)
    assert all(batch.features[f.name].shape[:2] == (0, 4)
               for f in schema.behavior_features())


@st.composite
def interaction_logs(draw, L):
    """(schema, catalog, sequences): 0-4 users of MIN_SEQUENCE_LEN to L+5
    items, so that some histories are longer than L, with a multi and a
    categorical behavior feature, one of them, or none."""
    behavior = draw(st.sampled_from([(), ("context",), ("rating",),
                                     ("context", "rating")]))
    schema = D.SideInfoSchema(
        [D.FeatureSpec("tags", "item", "multi")]
        + [D.FeatureSpec(name, "behavior",
                         "multi" if name == "context" else "categorical")
           for name in behavior])
    m = draw(st.integers(1, 6))
    catalog = make_catalog(m, schema, {"tags": [
        "|".join(draw(st.lists(st.sampled_from(TAGS), max_size=3,
                               unique=True))) for _ in range(m)]})
    values = {"context": st.lists(st.integers(1, 5), max_size=3),
              "rating": st.integers(1, 5)}
    seqs = []
    for u in range(draw(st.integers(0, 4))):
        n = draw(st.integers(D.MIN_SEQUENCE_LEN, L + 5))
        seqs.append(D.InteractionSequence(
            f"u{u}", draw(st.lists(st.integers(1, m), min_size=n,
                                   max_size=n)), list(range(n)),
            {name: draw(st.lists(values[name], min_size=n, max_size=n))
             for name in behavior}, {}))
    return schema, catalog, seqs


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 7).flatmap(
           lambda L: st.tuples(st.just(L), interaction_logs(L))),
       st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
def test_packed_split_gives_the_list_splits_batches(case, mask_prob, seed):
    """The packed split and the list split (tests/list_split.py) give
    equal batches, and leave the generator in one state: training batches,
    their held-out tail pairs, and the validation and test batches."""
    L, (schema, catalog, seqs) = case
    packed, lists = D.leave_one_out_split(seqs), LS.leave_one_out_split(seqs)
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = D.make_masked_batch(packed.train, schema, catalog, mask_prob,
                                rngs[0], L)
    assert_reads_item_features(batch, schema, catalog)
    assert_same_batch(
        batch, D.make_masked_batch(lists.train, schema, catalog, mask_prob,
                                   rngs[1], L))
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert_same_batch(
        D.make_eval_batch([D.held_out(s) for s in packed.train], schema,
                          catalog, L),
        D.make_eval_batch([LS.held_out(s) for s in lists.train], schema,
                          catalog, L))
    for part in ("validation", "test"):
        assert_same_batch(
            D.make_eval_batch(getattr(packed, part), schema, catalog, L),
            D.make_eval_batch(getattr(lists, part), schema, catalog, L))
        assert ([p.target for p in getattr(packed, part)]
                == [p.target for p in getattr(lists, part)])

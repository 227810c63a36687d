"""Interaction-log ingestion, vocabularies, splitting and batch building.

File formats (UTF-8 TSV with a header row):

* interactions: ``user_id  item_id  timestamp`` followed by one column per
  behavior feature declared in the schema.
* items: ``item_id`` followed by one column per item feature; multi-valued
  fields use ``|`` separators, and empty values between them are dropped.
* schema: INI-style, one section per feature with ``kind`` (item|behavior)
  and ``encoding`` (categorical|bucketed|multi); bucketed features list
  their ``buckets`` edges as comma-separated numbers.

Index conventions: item ID 0 is padding, IDs 1..m are items, m+1 is the
mask token. Every feature reserves index 0 for padding and 1 for UNK; an
empty multi field encodes to [UNK], and a bucketed value that is not a
number (NaN included) to UNK. Item features are tables by item ID whose
mask-token row holds UNK (:class:`ItemCatalog`), read by the model.
Position is implicit behavior context (index = 1-based position in the
window) and never appears in the schema file.

Raw strings reach indices by one path: :class:`FeatureSpec` freezes its
vocabulary (``freeze``) and encodes (``encode``), and :func:`build_catalog`
turns raw item IDs and feature columns into an :class:`ItemCatalog`. The
TSV loaders, the synthetic builders and the checkpoint loader all use it.
Item vocabularies are frozen from the items file, behavior vocabularies from
the retained users; a vocabulary the schema already carries (as one loaded
from a checkpoint does) is kept.

The leave-one-out split stores each user's history once: its pairs and
training sequences are read-only views of one array per field, so nothing
can mutate them. The batch builders take rows as such views or as lists.
"""

from __future__ import annotations

import bisect
import configparser
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

PAD = 0
UNK = 1

MIN_SEQUENCE_LEN = 5  # shorter histories are discarded (cold-start filter)


class DataError(ValueError):
    pass


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

@dataclass
class FeatureSpec:
    name: str
    kind: str                      # "item" | "behavior"
    encoding: str                  # "categorical" | "bucketed" | "multi"
    buckets: list[float] | None = None
    vocab: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("item", "behavior"):
            raise DataError(f"feature {self.name}: bad kind {self.kind!r}")
        if self.encoding not in ("categorical", "bucketed", "multi"):
            raise DataError(f"feature {self.name}: bad encoding {self.encoding!r}")
        if self.encoding == "bucketed" and not self.buckets:
            raise DataError(f"feature {self.name}: bucketed encoding needs buckets")

    @property
    def vocab_size(self):
        """Embedding rows needed: pad + UNK + value indices."""
        if self.encoding == "bucketed":
            return 2 + len(self.buckets) + 1
        return 2 + len(self.vocab)

    @property
    def unk(self):
        """UNK in encoded form: [UNK] for a multi field."""
        return [UNK] if self.encoding == "multi" else UNK

    def _values(self, raw):
        """The vocabulary values in one raw string: a multi field's
        |-separated values without the empty ones, else the string itself."""
        if self.encoding == "multi":
            return [v for v in raw.split("|") if v]
        return [raw]

    def encode(self, raw):
        """Map one raw string to its index, or a multi field to its list of
        indices. Unseen values are UNK; an empty multi field is [UNK]."""
        if self.encoding == "bucketed":
            try:
                x = float(raw)
            except ValueError:
                return UNK
            if math.isnan(x):   # no bucket holds it; bisect would say the top
                return UNK
            return 2 + bisect.bisect_right(self.buckets, x)
        if self.encoding == "multi":
            return [self.vocab.get(v, UNK) for v in self._values(raw)] or [UNK]
        return self.vocab.get(raw, UNK)

    def freeze(self, raws):
        """Build the vocabulary from raw strings. A vocabulary that is
        already frozen (e.g. loaded from a checkpoint) is kept, and a
        bucketed feature has none."""
        if self.vocab or self.encoding == "bucketed":
            return
        self.build_vocab(v for raw in raws for v in self._values(raw))

    def build_vocab(self, values):
        self.vocab = {v: i + 2 for i, v in enumerate(sorted(set(values)))}


@dataclass
class SideInfoSchema:
    features: list[FeatureSpec]

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(names) != len(set(names)):
            raise DataError("duplicate feature names in schema")

    def item_features(self):
        return [f for f in self.features if f.kind == "item"]

    def behavior_features(self):
        return [f for f in self.features if f.kind == "behavior"]


def load_schema(path):
    """Read a schema file; a malformed one raises DataError naming the file
    and the section at fault."""
    cp = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except configparser.Error as e:
        raise DataError(f"schema {path}: {e}") from None
    feats = []
    for name in cp.sections():
        try:
            raw = cp.get(name, "buckets", fallback=None)
            buckets = None if raw is None else sorted(
                float(x) for x in raw.split(","))
            feats.append(FeatureSpec(name, cp.get(name, "kind"),
                                     cp.get(name, "encoding"), buckets))
        except (configparser.Error, ValueError) as e:
            raise DataError(f"schema {path}: [{name}]: {e}") from None
    return SideInfoSchema(feats)


def save_schema(schema, path):
    cp = configparser.ConfigParser()
    for f in schema.features:
        cp[f.name] = {"kind": f.kind, "encoding": f.encoding}
        if f.buckets:
            cp[f.name]["buckets"] = ",".join(repr(b) for b in f.buckets)
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


# ---------------------------------------------------------------------------
# catalog and sequences
# ---------------------------------------------------------------------------

@dataclass
class ItemCatalog:
    """Static item vocabulary. Internal IDs run 1..m; 0 pad, m+1 mask.

    features maps each item feature's name to its int64 table by item ID,
    [m+2], or [m+2, K] zero-padded for a multi field. Row 0 (PAD) is 0 and
    the mask token's row m+1 the feature's UNK (UNK, or [UNK, 0, ...])."""
    raw_ids: list[str]                       # raw_ids[i] is item i+1
    id_map: dict[str, int]                   # raw -> internal
    features: dict[str, np.ndarray]          # name -> table by item ID
    raw_features: dict[str, list[str]]       # name -> per-item raw strings

    @property
    def m(self):
        return len(self.raw_ids)

    @property
    def mask_token(self):
        return self.m + 1


@dataclass
class InteractionSequence:
    user: str
    items: list[int]                          # internal IDs, chronological
    timestamps: list[int]
    behavior: dict[str, list]                 # name -> encoded per interaction
    raw_behavior: dict[str, list[str]]

    def __len__(self):
        return len(self.items)


def _read_tsv(path, expect):
    """Yield (line number, fields) for each non-blank data row of a TSV
    file whose header must equal the column names in expect."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != expect:
            raise DataError(f"{path}:1: header {header} does not match schema "
                            f"(expected {expect})")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(expect):
                raise DataError(f"{path}:{lineno}: expected {len(expect)} "
                                f"columns, got {len(parts)}")
            yield lineno, parts


def _padded(lists):
    """The lists as zero-padded int64 rows, at least one column wide."""
    widths = np.array([len(v) for v in lists], dtype=np.int64)
    out = np.zeros((len(lists), max(1, widths.max(initial=0))), np.int64)
    filled = np.arange(out.shape[1]) < widths[:, None]
    out[filled] = list(chain.from_iterable(lists))
    return out


def build_catalog(raw_ids, schema, raw_columns):
    """Items raw_ids[i] -> i + 1, with their item features encoded.

    raw_columns maps each item feature's name to its per-item raw strings.
    Each item feature's vocabulary is frozen from its column first, unless
    the schema already carries it."""
    features, raw_features = {}, {}
    for f in schema.item_features():
        raws = list(raw_columns[f.name])
        if len(raws) != len(raw_ids):   # row m+1 must be the mask token's
            raise DataError(f"item feature {f.name}: {len(raws)} values for "
                            f"{len(raw_ids)} items")
        f.freeze(raws)
        rows = [f.encode(v) for v in raws] + [f.unk]
        features[f.name] = (_padded([[]] + rows) if f.encoding == "multi"
                            else np.array([PAD] + rows, dtype=np.int64))
        raw_features[f.name] = raws
    id_map = {raw: i + 1 for i, raw in enumerate(raw_ids)}
    return ItemCatalog(list(raw_ids), id_map, features, raw_features)


def load_items(path, schema):
    item_feats = schema.item_features()
    raw_ids, raw_cols = [], {f.name: [] for f in item_feats}
    seen = set()
    for lineno, parts in _read_tsv(path,
                                   ["item_id"] + [f.name for f in item_feats]):
        if parts[0] in seen:
            raise DataError(f"{path}:{lineno}: duplicate item_id {parts[0]!r}")
        seen.add(parts[0])
        raw_ids.append(parts[0])
        for f, val in zip(item_feats, parts[1:]):
            raw_cols[f.name].append(val)
    return build_catalog(raw_ids, schema, raw_cols)


def load_interactions(path, schema, catalog):
    """Parse the interaction log into per-user chronological sequences.

    Records are stably sorted by timestamp inside each user; users with
    fewer than MIN_SEQUENCE_LEN interactions are dropped. Behavior-feature
    vocabularies are frozen here from the retained users, unless the schema
    already carries them.
    """
    beh_feats = schema.behavior_features()
    expect = ["user_id", "item_id", "timestamp"] + [f.name for f in beh_feats]
    per_user = {}
    for lineno, parts in _read_tsv(path, expect):
        user, raw_item, raw_ts = parts[:3]
        if raw_item not in catalog.id_map:
            raise DataError(f"{path}:{lineno}: unknown item {raw_item!r}")
        try:
            ts = int(raw_ts)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad timestamp {raw_ts!r}") from None
        per_user.setdefault(user, []).append(
            (ts, catalog.id_map[raw_item], parts[3:]))

    # cold-start filter first so vocabularies only reflect retained users
    kept = [(u, sorted(recs, key=lambda r: r[0]))
            for u, recs in per_user.items() if len(recs) >= MIN_SEQUENCE_LEN]
    if not kept:
        raise DataError(f"{path}: no user has the MIN_SEQUENCE_LEN = "
                        f"{MIN_SEQUENCE_LEN} interactions that the cold-start "
                        f"filter keeps")
    for i, f in enumerate(beh_feats):
        f.freeze(raw[i] for _, recs in kept for _, _, raw in recs)

    sequences = []
    for user, recs in kept:
        raw_behavior = {f.name: [r[2][i] for r in recs]
                        for i, f in enumerate(beh_feats)}
        behavior = {f.name: [f.encode(v) for v in raw_behavior[f.name]]
                    for f in beh_feats}
        sequences.append(InteractionSequence(
            user, [r[1] for r in recs], [r[0] for r in recs],
            behavior, raw_behavior))
    return sequences


def load_dataset(interactions_path, items_path, schema):
    catalog = load_items(items_path, schema)
    sequences = load_interactions(interactions_path, schema, catalog)
    return catalog, sequences


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

@dataclass
class EvalPair:
    items: Sequence[int]            # prefix, chronological
    behavior: dict[str, Sequence]   # aligned with items
    target: int                     # ground-truth next item (internal ID)


@dataclass
class TrainSequence:
    items: Sequence[int]
    behavior: dict[str, Sequence]


@dataclass
class SplitDataset:
    train: list[TrainSequence]
    validation: list[EvalPair]
    test: list[EvalPair]


def held_out(seq):
    """The evaluation pair that holds out seq's last item: every earlier
    item and its behavior as the prefix, the last item as the target."""
    return EvalPair(seq.items[:-1],
                    {k: v[:-1] for k, v in seq.behavior.items()},
                    int(seq.items[-1]))


def _pack(rows, n):
    """The rows' n values end to end in one read-only int64 array: [n], or
    [n, K] zero-padded when the values are index lists (a multi field)."""
    values = chain.from_iterable(rows)
    flat = (_padded(list(values)) if rows and np.ndim(rows[0][0])
            else np.fromiter(values, np.int64, n))
    flat.flags.writeable = False
    return flat


def leave_one_out_split(sequences):
    """Per user: last item -> test, second-to-last -> validation, rest train.

    Each field is stored once: the items of every user in one int64 array,
    and each behavior feature in one more ([n, K] zero-padded for a multi
    field). Every pair and training sequence holds read-only views of one
    array per field, and a pair's target is an int. The test pair holds out
    the last item, the validation pair the test prefix's last, and the
    training sequence is the validation prefix itself (the same views)."""
    for seq in sequences:
        if len(seq) < MIN_SEQUENCE_LEN:
            raise DataError(f"user {seq.user}: sequence shorter than "
                            f"{MIN_SEQUENCE_LEN} after filtering")
    lengths = np.fromiter(map(len, sequences), np.int64, len(sequences))
    n = int(lengths.sum())
    items = _pack([seq.items for seq in sequences], n)
    behavior = {}
    for name in sequences[0].behavior if sequences else ():
        rows = [seq.behavior[name] for seq in sequences]
        # packed end to end, one missing value would shift later users'
        if not np.array_equal(
                np.fromiter(map(len, rows), np.int64, len(rows)), lengths):
            raise DataError(f"behavior feature {name}: not one value per "
                            f"item for every user")
        behavior[name] = _pack(rows, n)
    ends = np.cumsum(lengths)
    train, validation, test = [], [], []
    for lo, hi, val_target, test_target in zip(
            (ends - lengths).tolist(), ends.tolist(),
            items[ends - 2].tolist(), items[ends - 1].tolist()):
        test.append(EvalPair(items[lo:hi - 1], {
            k: v[lo:hi - 1] for k, v in behavior.items()}, test_target))
        validation.append(EvalPair(items[lo:hi - 2], {
            k: v[lo:hi - 2] for k, v in behavior.items()}, val_target))
        train.append(TrainSequence(validation[-1].items,
                                   validation[-1].behavior))
    return SplitDataset(train, validation, test)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """Per-interaction data; item features are the catalog's, by item."""
    items: np.ndarray               # [B, L] int64, 0 = pad
    positions: np.ndarray           # [B, L] int64, 1-based, 0 = pad
    features: dict[str, np.ndarray]  # behavior: [B, L] or [B, L, K] (multi)
    labels: np.ndarray              # [B, L] int64, 0 = ignore

    @property
    def pad_mask(self):
        """True at real (non-pad) positions."""
        return self.items != PAD


def _placed(rows, slots, multi=False):
    """[B, L] int64, or [B, L, K] for a multi field: the rows' values in
    the True slots of slots, row after row, and 0 elsewhere. A row is an
    array or a list (of indices, or of index lists for a multi field), and
    each field's values are joined by one concatenate; a multi field is as
    wide as its widest entry."""
    if multi:
        rows = [r if isinstance(r, np.ndarray) else _padded(r) for r in rows]
        k = max([1] + [r.shape[1] for r in rows])
        values = np.concatenate([np.zeros((0, k), np.int64)] + [
            np.pad(r, ((0, 0), (0, k - r.shape[1]))) if r.shape[1] < k else r
            for r in rows])
        # an entry fills its row from the left, and no index in it is PAD
        values = values[:, :max(1, np.count_nonzero(values.any(axis=0)))]
    else:
        values = np.concatenate([np.zeros(0, np.int64)]
                                + [np.asarray(r, np.int64) for r in rows])
    out = np.zeros(slots.shape + values.shape[1:], np.int64)
    out[slots] = values
    return out


def _build_batch(true, real, masked, behavior, catalog):
    """The batch of the item IDs true [B, L] in the real slots, with the
    masked slots (masked broadcasts to [B, L]) masked. A masked slot holds
    the mask token, is labelled with its true item, and keeps its position
    and behavior features (behavior maps each to its laid-out [B, L] or
    [B, L, K] array); its item features, read by the mask token's ID, are
    the catalog's UNK row."""
    return Batch(np.where(masked, catalog.mask_token, true),
                 np.cumsum(real, axis=1, dtype=np.int64), behavior,
                 np.where(masked, true, PAD))


def _draw_masks(real, lengths, mask_prob, rng):
    """[B, L] masks of the real slots: each slot masked with probability
    mask_prob, and a row left with none drawn again until it has one.

    The draws are those of drawing row by row, rng.random(length) per try.
    The remaining rows are drawn in one call; at the first row with no mask
    the generator is put back to its state before that call and advanced by
    exactly the draws up to that row's first try, so the row's redraws and
    the rows after it read the stream the row-by-row rule reads."""
    masked = np.zeros(real.shape, dtype=bool)
    i = 0
    while i < len(lengths):
        state = rng.bit_generator.state
        rest = masked[i:]
        rest[real[i:]] = rng.random(int(lengths[i:].sum())) < mask_prob
        empty = np.flatnonzero(~rest.any(axis=1))
        if not len(empty):
            break
        j = i + int(empty[0])
        rng.bit_generator.state = state
        rng.random(int(lengths[i:j + 1].sum()))
        while not masked[j].any():
            masked[j, real[j]] = rng.random(int(lengths[j])) < mask_prob
        i = j + 1
    return masked


def make_masked_batch(train_seqs, schema, catalog, mask_prob, rng, L):
    """Cloze batch: each non-pad position masked independently with
    probability mask_prob; sequences with zero masks are resampled.
    Behavior features (and position) survive masking; a masked position
    holds the mask token, whose item features are UNK."""
    if L < 1:
        raise DataError(f"sequence length must be >= 1, got {L}")
    if not 0 < mask_prob <= 1:
        raise DataError(f"mask_prob must be in (0, 1], got {mask_prob}")
    if not all(len(seq.items) for seq in train_seqs):
        raise DataError("empty training sequence: no position to mask")
    # each row's last L slots; L >= 1, so [-L:] is never [0:]
    items = [seq.items[-L:] for seq in train_seqs]
    lengths = np.fromiter(map(len, items), np.int64, len(items))
    real = np.arange(L) >= L - lengths[:, None]
    masked = _draw_masks(real, lengths, mask_prob, rng)
    behavior = {f.name: _placed([seq.behavior[f.name][-L:]
                                 for seq in train_seqs], real,
                                f.encoding == "multi")
                for f in schema.behavior_features()}
    return _build_batch(_placed(items, real), real, masked, behavior, catalog)


def make_eval_batch(pairs, schema, catalog, L):
    """Right-aligned prefix plus one mask token at the final position.

    A row is prefix + [target] with its last slot masked. The mask position
    carries its true position index; every other behavior feature there is
    UNK (the future interaction's context is unknown). Prefixes longer than
    L-1 keep their most recent L-1 items, so L must be at least 2."""
    if L < 2:
        raise DataError(f"sequence length must be >= 2 to hold a prefix and "
                        f"the mask, got {L}")
    if not all(len(pair.items) for pair in pairs):
        raise DataError("empty prefix in evaluation pair")
    # each prefix's last L-1 slots; L >= 2, so [1-L:] is never [0:]
    prefixes = [pair.items[1 - L:] for pair in pairs]
    lengths = np.fromiter(map(len, prefixes), np.int64, len(prefixes))
    last = np.arange(L) == L - 1
    slots = (np.arange(L) >= L - 1 - lengths[:, None]) & ~last
    true = _placed(prefixes, slots)
    true[:, -1] = np.fromiter((pair.target for pair in pairs), np.int64,
                              len(pairs))
    behavior = {}
    for f in schema.behavior_features():
        arr = _placed([pair.behavior[f.name][1 - L:] for pair in pairs],
                      slots, f.encoding == "multi")
        if f.encoding == "multi":
            arr[:, -1, 0] = UNK     # f.unk, [UNK], in the zero-padded row
        else:
            arr[:, -1] = UNK
        behavior[f.name] = arr
    return _build_batch(true, slots | last, last, behavior, catalog)

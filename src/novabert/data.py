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
empty multi field encodes to [UNK].
Position is implicit behavior context (index = 1-based position in the
window) and never appears in the schema file.

Raw strings reach indices by one path: :class:`FeatureSpec` freezes its
vocabulary (``freeze``) and encodes (``encode``), and :func:`build_catalog`
turns raw item IDs and feature columns into an :class:`ItemCatalog`. The
TSV loaders, the synthetic builders and the checkpoint loader all use it.
Item vocabularies are frozen from the items file, behavior vocabularies from
the retained users; a vocabulary the schema already carries (as one loaded
from a checkpoint does) is kept.
"""

from __future__ import annotations

import bisect
import configparser
from dataclasses import dataclass, field

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

    def get(self, name):
        for f in self.features:
            if f.name == name:
                return f
        raise KeyError(name)


def load_schema(path):
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    feats = []
    for section in cp.sections():
        kind = cp.get(section, "kind")
        encoding = cp.get(section, "encoding")
        buckets = None
        if cp.has_option(section, "buckets"):
            buckets = sorted(float(x) for x in cp.get(section, "buckets").split(","))
        feats.append(FeatureSpec(section, kind, encoding, buckets))
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
    """Static item vocabulary. Internal IDs run 1..m; 0 pad, m+1 mask."""
    raw_ids: list[str]                       # raw_ids[i] is item i+1
    id_map: dict[str, int]                   # raw -> internal
    features: dict[str, list]                # name -> per-item encoded values
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


def build_catalog(raw_ids, schema, raw_columns):
    """Items raw_ids[i] -> i + 1, with their item features encoded.

    raw_columns maps each item feature's name to its per-item raw strings.
    Each item feature's vocabulary is frozen from its column first, unless
    the schema already carries it."""
    features, raw_features = {}, {}
    for f in schema.item_features():
        raws = list(raw_columns[f.name])
        f.freeze(raws)
        features[f.name] = [None] + [f.encode(v) for v in raws]
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


def write_items(catalog, schema, path):
    item_feats = schema.item_features()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["item_id"] + [f.name for f in item_feats]) + "\n")
        for i, raw in enumerate(catalog.raw_ids):
            row = [raw] + [catalog.raw_features[f.name][i] for f in item_feats]
            fh.write("\t".join(row) + "\n")


def write_interactions(sequences, schema, catalog, path):
    beh_feats = schema.behavior_features()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["user_id", "item_id", "timestamp"]
                           + [f.name for f in beh_feats]) + "\n")
        for seq in sequences:
            for j in range(len(seq)):
                row = [seq.user, catalog.raw_ids[seq.items[j] - 1],
                       str(seq.timestamps[j])]
                row += [seq.raw_behavior[f.name][j] for f in beh_feats]
                fh.write("\t".join(row) + "\n")


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

@dataclass
class EvalPair:
    items: list[int]                # prefix, chronological
    behavior: dict[str, list]       # aligned with items
    target: int                     # ground-truth next item (internal ID)


@dataclass
class TrainSequence:
    items: list[int]
    behavior: dict[str, list]


@dataclass
class SplitDataset:
    train: list[TrainSequence]
    validation: list[EvalPair]
    test: list[EvalPair]


def leave_one_out_split(sequences):
    """Per user: last item -> test, second-to-last -> validation, rest train."""
    train, validation, test = [], [], []
    for seq in sequences:
        if len(seq) < MIN_SEQUENCE_LEN:
            raise DataError(f"user {seq.user}: sequence shorter than "
                            f"{MIN_SEQUENCE_LEN} after filtering")
        n = len(seq)

        def cut(k):
            return {name: vals[:k] for name, vals in seq.behavior.items()}

        train.append(TrainSequence(seq.items[:n - 2], cut(n - 2)))
        validation.append(EvalPair(seq.items[:n - 2], cut(n - 2), seq.items[n - 2]))
        test.append(EvalPair(seq.items[:n - 1], cut(n - 1), seq.items[n - 1]))
    return SplitDataset(train, validation, test)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    items: np.ndarray               # [B, L] int64, 0 = pad
    positions: np.ndarray           # [B, L] int64, 1-based, 0 = pad
    features: dict[str, np.ndarray]  # [B, L] or [B, L, K] (multi, 0-padded)
    labels: np.ndarray              # [B, L] int64, 0 = ignore

    @property
    def pad_mask(self):
        """True at real (non-pad) positions."""
        return self.items != PAD

    @property
    def mask_pos(self):
        """True where the item was masked (it carries a label)."""
        return self.labels != 0


def _window(values, L):
    return values[-L:] if len(values) > L else values


def _build_batch(rows, schema, catalog, L):
    """Lay rows out right-aligned in a [B, L] batch.

    Each row is (items, behavior dict, masked bool list), all aligned. A
    masked slot holds the mask token, is labelled with its true item, keeps
    its position and behavior features, and loses its item-related features
    to UNK."""
    B = len(rows)
    items = np.zeros((B, L), dtype=np.int64)
    positions = np.zeros((B, L), dtype=np.int64)
    labels = np.zeros((B, L), dtype=np.int64)
    for b, (row_items, _, masked) in enumerate(rows):
        n = len(row_items)
        real = np.asarray(row_items, dtype=np.int64)
        masked = np.asarray(masked, dtype=bool)
        items[b, L - n:] = np.where(masked, catalog.mask_token, real)
        labels[b, L - n:] = np.where(masked, real, 0)
        positions[b, L - n:] = np.arange(1, n + 1)
    features = {}
    for f in schema.features:
        unk = f.unk
        cols = [beh[f.name] if f.kind == "behavior" else
                [unk if mk else catalog.features[f.name][it]
                 for it, mk in zip(row_items, masked)]
                for row_items, beh, masked in rows]
        if f.encoding == "multi":
            kmax = max([1] + [len(v) for col in cols for v in col])
            arr = np.zeros((B, L, kmax), dtype=np.int64)
            for b, col in enumerate(cols):
                for j, vals in enumerate(col):
                    arr[b, L - len(col) + j, :len(vals)] = vals
        else:
            arr = np.zeros((B, L), dtype=np.int64)
            for b, col in enumerate(cols):
                arr[b, L - len(col):] = col
        features[f.name] = arr
    return Batch(items, positions, features, labels)


def make_masked_batch(train_seqs, schema, catalog, mask_prob, rng, L):
    """Cloze batch: each non-pad position masked independently with
    probability mask_prob; sequences with zero masks are resampled.
    Behavior features (and position) survive masking; item-related features
    at masked positions are replaced by UNK."""
    if L < 1:
        raise DataError(f"sequence length must be >= 1, got {L}")
    if not 0 < mask_prob <= 1:
        raise DataError(f"mask_prob must be in (0, 1], got {mask_prob}")
    rows = []
    for seq in train_seqs:
        items = _window(seq.items, L)
        while True:
            masked = rng.random(len(items)) < mask_prob
            if masked.any():
                break
        beh = {name: _window(vals, L) for name, vals in seq.behavior.items()}
        rows.append((items, beh, masked))
    return _build_batch(rows, schema, catalog, L)


def make_eval_batch(pairs, schema, catalog, L):
    """Right-aligned prefix plus one mask token at the final position.

    A row is prefix + [target] with its last slot masked. The mask position
    carries its true position index; every other behavior feature there is
    UNK (the future interaction's context is unknown). Prefixes longer than
    L-1 keep their most recent L-1 items, so L must be at least 2."""
    if L < 2:
        raise DataError(f"sequence length must be >= 2 to hold a prefix and "
                        f"the mask, got {L}")
    rows = []
    for pair in pairs:
        if not pair.items:
            raise DataError("empty prefix in evaluation pair")
        prefix = _window(pair.items, L - 1)
        beh = {f.name: list(_window(pair.behavior[f.name], L - 1))
               + [f.unk]
               for f in schema.behavior_features()}
        rows.append((prefix + [pair.target], beh,
                     [False] * len(prefix) + [True]))
    return _build_batch(rows, schema, catalog, L)

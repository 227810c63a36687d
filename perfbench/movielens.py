"""MovieLens-1m-shaped synthetic interactions, built from a seed.

The shape follows the public MovieLens-1m statistics; no real data is read.
Each property is chosen for the cost it puts on the program:

* 3,416 items: m sets the cost of the tied decoder, which builds
  ``[B, L, m]`` logits, and the size of the ID table's scatter-add.
* 6,040 users with lengths of at least 20 and a log-normal long tail
  (median about 96, mean about 160, capped at 2,000): length relative to
  L=200 sets how much of each window is padding (``data.pad_ratio``) and
  how many users are cut to their most recent 200 items.
* Zipf-like item popularity (exponent 1.0), sampled without repeats per
  user: the ID table's gradient rows repeat the popular items, as in real
  logs, which is what ``np.add.at`` is slow on.
* year as a categorical item feature, 1919-2000 skewed to recent years.
* genre as a ``multi`` item feature with 1-3 of 18 genres: exercises the
  3-D ``[B, L, K]`` feature path and its mean-pooling in
  ``embed_side_features``.
* rating 1-5 as a categorical behavior feature, with the MovieLens-1m
  rating mix: exercises the behavior path, which survives masking.

The structures are those ``data.load_dataset`` returns, built through the
program's own ``synthetic.make_catalog`` so that vocabularies are frozen the
same way.
"""

from __future__ import annotations

import numpy as np

from novabert.data import FeatureSpec, InteractionSequence, SideInfoSchema
from novabert.synthetic import make_catalog

USERS = 6040
ITEMS = 3416
MIN_LEN = 20
MAX_LEN = 2000
LEN_MEDIAN_TAIL = 76.0    # median of (length - MIN_LEN)
LEN_SIGMA = 1.14          # log-normal sigma; mean length ~160
ZIPF_EXPONENT = 1.0
GENRES = ("Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
          "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
          "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western")
GENRE_COUNT_P = (0.5, 0.35, 0.15)           # 1, 2 or 3 genres per item
RATING_P = (0.056, 0.108, 0.261, 0.349, 0.226)  # MovieLens-1m, ratings 1..5


def user_lengths(rng, users=USERS):
    tail = rng.lognormal(np.log(LEN_MEDIAN_TAIL), LEN_SIGMA, size=users)
    return np.minimum(MIN_LEN + tail.astype(np.int64), MAX_LEN)


def _item_features(rng, m):
    years = np.clip(2000 - rng.exponential(8.0, size=m).astype(np.int64),
                    1919, 2000)
    n_genres = rng.choice(len(GENRE_COUNT_P), size=m, p=GENRE_COUNT_P) + 1
    genres = ["|".join(GENRES[g] for g in
                       sorted(rng.choice(len(GENRES), size=k, replace=False)))
              for k in n_genres]
    return {"year": [str(y) for y in years], "genre": genres}


def movielens_like(seed, users=USERS, m=ITEMS):
    """Returns (schema, catalog, sequences) for a MovieLens-1m-shaped log."""
    rng = np.random.default_rng(seed)
    year = FeatureSpec("year", "item", "categorical")
    genre = FeatureSpec("genre", "item", "multi")
    rating = FeatureSpec("rating", "behavior", "categorical")
    rating.build_vocab([str(r) for r in range(1, 6)])
    schema = SideInfoSchema([year, genre, rating])
    catalog = make_catalog(m, schema, _item_features(rng, m))

    # item popularity: Zipf over a seeded permutation of the IDs
    log_p = -ZIPF_EXPONENT * np.log(np.arange(1, m + 1))[rng.permutation(m)]
    rating_raw = np.array([str(r) for r in range(1, 6)])
    rating_code = np.array([rating.vocab[r] for r in rating_raw])
    lengths = user_lengths(rng, users)
    sequences = []
    for u, n in enumerate(lengths.tolist()):
        # Gumbel top-n: n distinct items drawn in proportion to popularity
        keys = log_p + rng.gumbel(size=m)
        items = np.argpartition(-keys, n - 1)[:n]
        rng.shuffle(items)
        r = rng.choice(5, size=n, p=RATING_P)
        sequences.append(InteractionSequence(
            user=f"u{u}", items=(items + 1).tolist(),
            timestamps=list(range(n)),
            behavior={"rating": rating_code[r].tolist()},
            raw_behavior={"rating": rating_raw[r].tolist()}))
    return schema, catalog, sequences

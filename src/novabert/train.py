"""Adam training loop, LR schedule, rank-all metrics and ablation harness."""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from novabert import data as D
from novabert import kernels
from novabert import tensor as T
from novabert.model import Model


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 200
    batch_size: int = 128
    warmup_frac: float = 0.05
    seed: int = 0
    clip_norm: float = 5.0
    eval_every: int = 1
    early_stop_hr1: float | None = None    # stop once validation HR@1 reaches it
    # fraction of each batch also trained on a final-position cloze sample,
    # matching the layout evaluation queries with (mask appended at the end)
    last_mask_frac: float = 0.1

    def __post_init__(self):
        for key, ok, rule in (
                ("epochs", self.epochs >= 1, ">= 1"),
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("eval_every", self.eval_every >= 1, ">= 1"),
                ("learning_rate",
                 math.isfinite(self.learning_rate) and self.learning_rate > 0,
                 "finite and > 0"),
                ("clip_norm", self.clip_norm >= 0, ">= 0 (0: no clipping)"),
                ("warmup_frac", 0 <= self.warmup_frac < 1, "in [0, 1)")):
            if not ok:
                raise ValueError(
                    f"'{key}' must be {rule}, got {getattr(self, key)!r}")


@dataclass
class MetricsReport:
    hr1: float
    hr5: float
    hr10: float
    ndcg5: float
    ndcg10: float
    users: int
    fingerprint: str = ""

    def __post_init__(self):
        if not (0 <= self.ndcg5 <= self.hr5 <= self.hr10 <= 1
                and self.ndcg5 <= self.ndcg10 <= self.hr10):
            raise ValueError(f"inconsistent metrics: {self.to_dict()}")

    def to_dict(self):
        return {"HR@1": self.hr1, "HR@5": self.hr5, "HR@10": self.hr10,
                "NDCG@5": self.ndcg5, "NDCG@10": self.ndcg10,
                "users": self.users, "fingerprint": self.fingerprint}


def config_fingerprint(*cfgs):
    blob = json.dumps([vars(c) for c in cfgs], sort_keys=True, default=str)
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

def lr_schedule(step, total_steps, peak_lr, warmup_frac):
    """Linear 0 -> peak over the warm-up, then linear peak -> 0."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warm = warmup_frac * total_steps
    if warm > 0 and step <= warm:
        return peak_lr * step / warm
    if total_steps == warm:
        return 0.0
    return peak_lr * (total_steps - step) / (total_steps - warm)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction over a :class:`tensor.Parameters`,
    with float64 moments m and v laid out as its flat arrays."""

    def __init__(self, params, cfg):
        self.params = params
        self.cfg = cfg
        self.t = 0
        self.m = np.zeros(params.data.size)
        self.v = np.zeros(params.data.size)

    def step(self, lr):
        cfg, params, g = self.cfg, self.params, self.params.grad
        if not np.all(np.isfinite(g)):
            bad = next(name for name, s in params.slices.items()
                       if not np.all(np.isfinite(g[s])))
            raise TrainingDiverged(f"non-finite gradient in {bad}")
        # one dot per parameter, summed in order: one dot over the flat
        # buffer would round differently and move every clipped step
        norm = math.sqrt(sum(float(g[s] @ g[s])
                             for s in params.slices.values()))
        if cfg.clip_norm and norm > cfg.clip_norm:
            g *= cfg.clip_norm / norm
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        kernels.adam_update(params.data, g, self.m, self.v, lr, ADAM_BETA1,
                            ADAM_BETA2, ADAM_EPS, bc1, bc2)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def score_pairs(model, pairs, batch_size=256):
    """Full-vocabulary scores at the appended mask position.

    Only the last position of each sequence is computed past the last
    layer's keys and values, and only it is decoded; no autograd graph is
    recorded, so every intermediate is freed once used. The forward is the
    one a training step runs: each layer's FFN runs in row blocks (see
    ``tensor.feed_forward``), so no [N, 4h] activation of a batch's N real
    tokens is held.
    Returns (scores [U, m], targets [U])."""
    L = model.config.max_len
    all_scores, targets = [], []
    for lo in range(0, len(pairs), batch_size):
        chunk = pairs[lo:lo + batch_size]
        batch = D.make_eval_batch(chunk, model.schema, model.catalog, L)
        last = np.arange(len(chunk)) * L + L - 1
        with T.no_grad():
            hidden, _ = model.encode(batch, positions=last)
            logits = model.decode_scores(hidden)
        all_scores.append(logits.data)
        targets.extend(p.target for p in chunk)
    return np.concatenate(all_scores, axis=0), np.asarray(targets)


def ranks_from_scores(scores, targets):
    """Rank of each target (1-based); ties broken toward the smaller item ID.

    A non-finite score is a ValueError: NaN compares false with every
    score, so it would rank its row's target first."""
    n = scores.shape[0]
    bad = int((~np.isfinite(scores).all(axis=1)).sum())
    if bad:
        raise ValueError(f"{bad} of {n} score rows hold a non-finite score")
    s_t = scores[np.arange(n), targets - 1]
    higher = (scores > s_t[:, None]).sum(axis=1)
    tie_cols = np.arange(1, scores.shape[1] + 1)
    tied_smaller = ((scores == s_t[:, None])
                    & (tie_cols[None, :] < targets[:, None])).sum(axis=1)
    return higher + tied_smaller + 1


def metrics_from_ranks(ranks, fingerprint=""):
    ranks = np.asarray(ranks)
    hr = [float((ranks <= k).mean()) for k in (1, 5, 10)]
    ndcg = [float(np.where(ranks <= k, 1.0 / np.log2(ranks + 1), 0.0).mean())
            for k in (5, 10)]
    return MetricsReport(*hr, *ndcg, users=len(ranks), fingerprint=fingerprint)


def rank_all(model, pairs, batch_size=256, fingerprint=""):
    """HR@k / NDCG@k with every vocabulary item as a candidate."""
    scores, targets = score_pairs(model, pairs, batch_size=batch_size)
    return metrics_from_ranks(ranks_from_scores(scores, targets), fingerprint)


def popularity_baseline(train_seqs):
    """Items ranked by training-set frequency, ties toward the smaller ID.

    Returns the static ranking as a list of internal item IDs."""
    if not train_seqs:
        raise ValueError("empty training set")
    counts = np.bincount(np.concatenate(
        [np.asarray(seq.items, np.int64) for seq in train_seqs]))
    ranked = np.argsort(-counts, kind="stable")   # ties: the smaller ID first
    return ranked[counts[ranked] > 0].tolist()


def popularity_metrics(ranking, pairs, m):
    """Evaluate the static popularity ranking on eval pairs.

    The ranking becomes one score per item (unseen items score 0), ranked
    by the tie rule of :func:`ranks_from_scores`: unseen items follow the
    ranked ones, in ID order."""
    ranked = np.asarray(ranking, dtype=np.int64)
    scores = np.zeros(m)
    scores[ranked - 1] = np.arange(len(ranked), 0, -1)
    targets = np.asarray([p.target for p in pairs], dtype=np.int64)
    ranks = ranks_from_scores(np.broadcast_to(scores, (len(targets), m)),
                              targets)
    return metrics_from_ranks(ranks)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    best_params: np.ndarray    # a copy of the flat parameter array
    best_epoch: int
    best_val: MetricsReport
    history: list


def train(model, split, train_cfg, log=None):
    """Masked-item training with per-epoch validation rank-all.

    Keeps the parameter snapshot with the best validation HR@10; the last
    epoch always validates, so the first validation pass sets one. Returns a
    TrainResult; the model is left at the final-epoch parameters."""
    cfg = train_cfg
    rng = np.random.default_rng(cfg.seed)
    n = len(split.train)
    total_steps = cfg.epochs * math.ceil(n / cfg.batch_size)
    opt = Adam(model.params, cfg)
    fp = config_fingerprint(model.config, cfg)
    best, history = None, []
    step = 0
    for epoch in range(cfg.epochs):
        t0 = time.time()
        perm = rng.permutation(n)
        losses = []
        for lo in range(0, n, cfg.batch_size):
            seqs = [split.train[i] for i in perm[lo:lo + cfg.batch_size]]
            batch = D.make_masked_batch(seqs, model.schema, model.catalog,
                                        model.config.mask_prob, rng,
                                        model.config.max_len)
            model.zero_grads()
            loss = model.loss(batch, train=True, rng=rng)
            if cfg.last_mask_frac > 0:
                k = max(1, int(round(cfg.last_mask_frac * len(seqs))))
                chosen = rng.choice(len(seqs), size=min(k, len(seqs)),
                                    replace=False)
                tail = D.make_eval_batch([D.held_out(seqs[i]) for i in chosen],
                                         model.schema, model.catalog,
                                         model.config.max_len)
                loss = T.add(loss, model.loss(tail, train=True, rng=rng))
            if not np.isfinite(loss.data):
                raise TrainingDiverged(f"loss became {loss.data} at step {step}")
            T.backward(loss)
            step += 1
            opt.step(lr_schedule(step, total_steps, cfg.learning_rate,
                                 cfg.warmup_frac))
            losses.append(loss.item())
        record = {"epoch": epoch, "loss": float(np.mean(losses)),
                  "seconds": time.time() - t0}
        history.append(record)
        if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            val = rank_all(model, split.validation, fingerprint=fp)
            record["val"] = val.to_dict()
            # primary metric HR@10; ties (e.g. saturated) broken by HR@1
            if best is None or (val.hr10, val.hr1) > (best.best_val.hr10,
                                                      best.best_val.hr1):
                best = TrainResult(model.params.data.copy(), epoch, val,
                                   history)
            if log:
                log(f"epoch {epoch}: loss {record['loss']:.4f} "
                    f"val HR@10 {val.hr10:.4f}")
            if (cfg.early_stop_hr1 is not None
                    and val.hr1 >= cfg.early_stop_hr1):
                break
        elif log:
            log(f"epoch {epoch}: loss {record['loss']:.4f}")
    return best


def fit(model, split, train_cfg, log=None):
    """Train, load the parameters of the best validation epoch and rank the
    test users with them.

    Returns (TrainResult, test MetricsReport); the report carries the
    fingerprint of the model and training configs."""
    result = train(model, split, train_cfg, log=log)
    model.params.data[...] = result.best_params
    fp = config_fingerprint(model.config, train_cfg)
    return result, rank_all(model, split.test, fingerprint=fp)


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

def ablate(schema, catalog, split, model_cfg, train_cfg, log=None):
    """Train and test once per side-information subset, each by :func:`fit`
    from a model of seed train_cfg.seed.

    The subsets are the four canonical rows none / item / behavior / all,
    position always included. Returns name -> the test MetricsReport of the
    best validation epoch."""
    subsets = {
        "none": [],
        "item": [f.name for f in schema.item_features()],
        "behavior": [f.name for f in schema.behavior_features()],
        "all": [f.name for f in schema.features],
    }
    results = {}
    for name, feats in subsets.items():
        model = Model(replace(model_cfg, features=feats), schema, catalog,
                      seed=train_cfg.seed)
        results[name] = fit(
            model, split, train_cfg,
            log=(lambda msg, n=name: log(f"[{n}] {msg}")) if log else None)[1]
    return results

"""Adam training loop, LR schedule, rank-all metrics and ablation harness."""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace

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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 5.0
    eval_every: int = 1
    early_stop_hr1: float | None = None    # stop once validation HR@1 reaches it
    # fraction of each batch also trained on a final-position cloze sample,
    # matching the layout evaluation queries with (mask appended at the end)
    last_mask_frac: float = 0.1

    def __post_init__(self):
        if not 0 <= self.warmup_frac < 1:
            raise ValueError(f"warmup_frac must be in [0,1), got {self.warmup_frac}")


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

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


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


class Adam:
    """Standard Adam with bias correction over a named parameter dict."""

    def __init__(self, params, cfg):
        self.params = params
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros(p.data.size) for k, p in params.items()}
        self.v = {k: np.zeros(p.data.size) for k, p in params.items()}

    def step(self, lr):
        cfg = self.cfg
        grads = {}
        sq = 0.0
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad.reshape(-1)
            if not np.all(np.isfinite(g)):
                raise TrainingDiverged(f"non-finite gradient in {name}")
            grads[name] = g
            sq += float(g @ g)
        norm = math.sqrt(sq)
        if cfg.clip_norm and norm > cfg.clip_norm:
            # out of place: a .grad may be shared by several parameters
            scale = cfg.clip_norm / norm
            grads = {name: g * scale for name, g in grads.items()}
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        for name, g in grads.items():
            p = self.params[name]
            flat = p.data.reshape(-1)
            kernels.adam_update(flat, np.ascontiguousarray(g),
                                self.m[name], self.v[name],
                                lr, cfg.beta1, cfg.beta2, cfg.eps, bc1, bc2)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def score_pairs(model, pairs, batch_size=256):
    """Full-vocabulary scores at the appended mask position.

    Only the last position of each sequence is decoded, and no autograd
    graph is recorded, so every intermediate is freed once used.
    Returns (scores [U, m], targets [U])."""
    L = model.config.max_len
    all_scores, targets = [], []
    for lo in range(0, len(pairs), batch_size):
        chunk = pairs[lo:lo + batch_size]
        batch = D.make_eval_batch(chunk, model.schema, model.catalog, L)
        with T.no_grad():
            hidden, _ = model.encode(batch)
            logits = model.decode_scores(T.Tensor(hidden.data[:, -1, :]))
        all_scores.append(logits.data)
        targets.extend(p.target for p in chunk)
    return np.concatenate(all_scores, axis=0), np.asarray(targets)


def ranks_from_scores(scores, targets):
    """Rank of each target (1-based); ties broken toward the smaller item ID."""
    n = scores.shape[0]
    s_t = scores[np.arange(n), targets - 1]
    higher = (scores > s_t[:, None]).sum(axis=1)
    tie_cols = np.arange(1, scores.shape[1] + 1)
    tied_smaller = ((scores == s_t[:, None])
                    & (tie_cols[None, :] < targets[:, None])).sum(axis=1)
    return higher + tied_smaller + 1


def metrics_from_ranks(ranks, fingerprint=""):
    ranks = np.asarray(ranks)
    n = len(ranks)

    def hr(k):
        return float((ranks <= k).mean())

    def ndcg(k):
        gain = np.where(ranks <= k, 1.0 / np.log2(ranks + 1), 0.0)
        return float(gain.mean())

    return MetricsReport(hr1=hr(1), hr5=hr(5), hr10=hr(10),
                         ndcg5=ndcg(5), ndcg10=ndcg(10), users=n,
                         fingerprint=fingerprint)


def rank_all(model, pairs, batch_size=256, fingerprint=""):
    """HR@k / NDCG@k with every vocabulary item as a candidate."""
    scores, targets = score_pairs(model, pairs, batch_size=batch_size)
    return metrics_from_ranks(ranks_from_scores(scores, targets), fingerprint)


def popularity_baseline(train_seqs):
    """Items ranked by training-set frequency, ties toward the smaller ID.

    Returns the static ranking as a list of internal item IDs."""
    if not train_seqs:
        raise ValueError("empty training set")
    counts = {}
    for seq in train_seqs:
        for it in seq.items:
            counts[it] = counts.get(it, 0) + 1
    items = sorted(counts, key=lambda it: (-counts[it], it))
    return items


def popularity_metrics(ranking, pairs, m):
    """Evaluate the static popularity ranking on eval pairs."""
    pos = {it: i + 1 for i, it in enumerate(ranking)}
    unseen_base = len(ranking)
    ranks = []
    for p in pairs:
        r = pos.get(p.target)
        if r is None:  # unseen items follow the ranked ones, ID order
            seen_unranked = sorted(it for it in range(1, m + 1)
                                   if it not in pos and it < p.target)
            r = unseen_base + len(seen_unranked) + 1
        ranks.append(r)
    return metrics_from_ranks(ranks)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    best_params: dict
    best_epoch: int
    best_val: MetricsReport | None
    history: list = field(default_factory=list)


def clone_params(params):
    return {k: p.data.copy() for k, p in params.items()}


def load_params(model, saved):
    for k, p in model.params.items():
        p.data[:] = saved[k]


def train(model, split, train_cfg, log=None):
    """Masked-item training with per-epoch validation rank-all.

    Keeps the parameter snapshot with the best validation HR@10. Returns a
    TrainResult; the model is left at the final-epoch parameters."""
    cfg = train_cfg
    rng = np.random.default_rng(cfg.seed)
    n = len(split.train)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    opt = Adam(model.params, cfg)
    fp = config_fingerprint(model.config, cfg)
    best = TrainResult(best_params=clone_params(model.params), best_epoch=-1,
                       best_val=None)
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
                pairs = [D.EvalPair(seqs[i].items[:-1],
                                    {name: vals[:-1] for name, vals
                                     in seqs[i].behavior.items()},
                                    seqs[i].items[-1]) for i in chosen]
                tail = D.make_eval_batch(pairs, model.schema, model.catalog,
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
        if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            val = rank_all(model, split.validation, fingerprint=fp)
            record["val"] = val.to_dict()
            # primary metric HR@10; ties (e.g. saturated) broken by HR@1
            if (best.best_val is None
                    or (val.hr10, val.hr1) > (best.best_val.hr10,
                                              best.best_val.hr1)):
                best.best_params = clone_params(model.params)
                best.best_epoch = epoch
                best.best_val = val
            if log:
                log(f"epoch {epoch}: loss {record['loss']:.4f} "
                    f"val HR@10 {val.hr10:.4f}")
            if (cfg.early_stop_hr1 is not None
                    and val.hr1 >= cfg.early_stop_hr1):
                best.history.append(record)
                break
        elif log:
            log(f"epoch {epoch}: loss {record['loss']:.4f}")
        best.history.append(record)
    return best


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

def ablate(schema, catalog, split, model_cfg, train_cfg, subsets=None, log=None):
    """Train+evaluate once per side-information subset (shared seed).

    subsets: name -> list of feature names (position always included).
    Defaults to the four canonical rows: none / item / behavior / all.
    Returns name -> MetricsReport on the test pairs."""
    if subsets is None:
        subsets = {
            "none": [],
            "item": [f.name for f in schema.item_features()],
            "behavior": [f.name for f in schema.behavior_features()],
            "all": [f.name for f in schema.features],
        }
    results = {}
    for name, feats in subsets.items():
        cfg = replace(model_cfg, features=list(feats))
        model = Model(cfg, schema, catalog, seed=train_cfg.seed)
        res = train(model, split, train_cfg,
                    log=(lambda msg, n=name: log(f"[{n}] {msg}")) if log else None)
        load_params(model, res.best_params)
        results[name] = rank_all(model, split.test,
                                 fingerprint=config_fingerprint(cfg, train_cfg))
    return results

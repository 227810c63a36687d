"""The benchmark's workloads, each run in a child process of ``run.py``.

Usage (normally started by run.py, which sets PYTHONPATH and BLAS threads):

    python3 perfbench/workloads.py --workload ref-train --seed 1 \
        --seconds 25 --trace 0 --out perfbench/out

All workloads are closed loops: one operation at a time, the next one
starting when the previous one has returned. The child prints one JSON event
per line on stdout: ``started`` once the program imported, ``setup`` after
the set-up builds and the warm-up operation, one ``op`` per timed operation,
and ``done`` at the end. run.py turns these into metrics; if the child dies,
the events it already printed still account for every operation it ran.

The inputs are generated once from the seed; that is the benchmark's own
work and is not part of set-up time. Set-up (the program's side: split,
model, checkpoint round trip) runs ``builds`` times and keeps the last build;
the warm-up is one untimed operation on it (the first reference step is up
to 1.5x a steady one while the allocator grows). With tracing on, the timed
operations alternate traced and untraced, so the tracing overhead is
measured in the same run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from novabert import checkpoint as CK
from novabert import data as D
from novabert import tensor as T
from novabert import train as TR
from novabert.model import Model, ModelConfig
from novabert.profiler import profile_cost
from novabert.synthetic import branching_dataset

import movielens

# the README reference model: the paper's shape
REF_MODEL = dict(hidden_size=128, num_heads=2, num_layers=2, max_len=200,
                 attention="nova", fusion="gating", dropout=0.1, mask_prob=0.2)
# B=32: at B=128 the dense [B, L, m] decoder does not fit in 8 GB
REF_BATCH = 32
REF_EVAL_USERS = 64
# the first-step cross-entropy of a freshly initialised model is ln(m) up to
# the spread of its near-zero logits; the 3-row tail batch is noisier
FIRST_LOSS_TOL = 0.1
FIRST_TAIL_TOL = 0.25
METRIC_TOL = 1e-12
DESK_EPOCHS = 5
FIT_STEPS = 20
FIT_RATIO = 0.9


def oracle_ranks(scores, targets):
    """1-based rank of each target by a full sort, ties to the smaller ID."""
    ids = np.broadcast_to(np.arange(1, scores.shape[1] + 1), scores.shape)
    order = np.lexsort((ids, -scores), axis=1) + 1
    return np.nonzero(order == targets[:, None])[1] + 1


def metrics_from(ranks):
    ranks = np.asarray(ranks, dtype=np.float64)
    out = {}
    for k in (1, 5, 10):
        out[f"HR@{k}"] = float((ranks <= k).mean())
    for k in (5, 10):
        out[f"NDCG@{k}"] = float(np.where(ranks <= k, 1.0 / np.log2(ranks + 1),
                                          0.0).mean())
    return out


def rank_problems(model, pairs, batch_size, reported):
    """Oracle check of one model's rank-all evaluation on pairs.

    Returns (problems, oracle metrics). reported: the metric dict the
    program gave for the same model and pairs, or None."""
    scores, targets = TR.score_pairs(model, pairs, batch_size=batch_size)
    oracle = oracle_ranks(scores, targets)
    problems = []
    if not np.array_equal(TR.ranks_from_scores(scores, targets), oracle):
        problems.append("ranks differ from the argsort oracle")
    expect = metrics_from(oracle)
    if reported is not None:
        problems += metric_problems(reported, expect)
    return problems, expect


def metric_problems(reported, expect):
    return [f"{k} {reported[k]!r} != oracle {v!r}" for k, v in expect.items()
            if abs(reported[k] - v) > METRIC_TOL]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Op:
    seconds: float     # timed part only
    seqs: int          # sequences (users) the timed part processed
    info: dict


class _Reference:
    """The paper's shape on MovieLens-1m-shaped data."""
    builds = 3

    def generate(self, seed):
        return movielens.movielens_like(seed)

    def flops_per_seq(self, st):
        m = st["model"]
        return profile_cost(m.config, m.schema, m.catalog.m).flops_total


class RefTrain(_Reference):
    """One iteration of train.train's inner loop at the paper's shape."""

    def build(self, inputs, seed, out_dir):
        schema, catalog, seqs = inputs
        split = D.leave_one_out_split(seqs)
        mcfg = ModelConfig(**REF_MODEL)
        tcfg = TR.TrainConfig(learning_rate=1e-4, epochs=200,
                              batch_size=REF_BATCH, seed=seed)
        model = Model(mcfg, schema, catalog, seed=seed)
        steps_per_epoch = math.ceil(len(split.train) / REF_BATCH)
        return dict(model=model, split=split, tcfg=tcfg,
                    opt=TR.Adam(model.params, tcfg),
                    rng=np.random.default_rng(seed), perm=None, lo=0, step=0,
                    total=tcfg.epochs * steps_per_epoch)

    def units(self, st):
        return 1

    def op(self, st):
        model, split, tcfg, rng = (st[k] for k in ("model", "split", "tcfg",
                                                   "rng"))
        L = model.config.max_len
        if st["perm"] is None or st["lo"] >= len(split.train):
            st["perm"], st["lo"] = rng.permutation(len(split.train)), 0
        t0 = time.perf_counter()
        lo = st["lo"]
        seqs = [split.train[i] for i in st["perm"][lo:lo + REF_BATCH]]
        batch = D.make_masked_batch(seqs, model.schema, model.catalog,
                                    model.config.mask_prob, rng, L)
        model.zero_grads()
        main = model.loss(batch, train=True, rng=rng)
        k = max(1, int(round(tcfg.last_mask_frac * len(seqs))))
        chosen = rng.choice(len(seqs), size=min(k, len(seqs)), replace=False)
        pairs = [D.EvalPair(seqs[i].items[:-1],
                            {n: v[:-1] for n, v in seqs[i].behavior.items()},
                            seqs[i].items[-1]) for i in chosen]
        tail_batch = D.make_eval_batch(pairs, model.schema, model.catalog, L)
        tail = model.loss(tail_batch, train=True, rng=rng)
        loss = T.add(main, tail)
        if not np.isfinite(loss.data):
            raise TR.TrainingDiverged(f"loss became {loss.data}")
        T.backward(loss)
        st["step"] += 1
        st["opt"].step(TR.lr_schedule(st["step"], st["total"],
                                      tcfg.learning_rate, tcfg.warmup_frac))
        seconds = time.perf_counter() - t0
        st["lo"] += REF_BATCH
        return Op(seconds, len(seqs), {"loss": loss.item(),
                                       "main": main.item(),
                                       "tail": tail.item()})

    def warmup(self, st):
        """The first step, checked against the loss of an untrained model."""
        info = self.op(st).info
        problems = self.check(st, info)
        ln_m = math.log(st["model"].catalog.m)
        if abs(info["main"] - ln_m) > FIRST_LOSS_TOL:
            problems.append(f"first masked loss {info['main']:.4f} not "
                            f"within {FIRST_LOSS_TOL} of ln m {ln_m:.4f}")
        if abs(info["tail"] - ln_m) > FIRST_TAIL_TOL:
            problems.append(f"first tail loss {info['tail']:.4f} not "
                            f"within {FIRST_TAIL_TOL} of ln m {ln_m:.4f}")
        return problems, self.quality(info)

    def check(self, st, info):
        return [f"non-finite gradient in {n}"
                for n, p in st["model"].params.items()
                if p.grad is not None and not np.all(np.isfinite(p.grad))]

    def quality(self, info):
        return {"final_loss": ("nats", info["loss"])}


class RefEval(_Reference):
    """rank_all over a fixed set of users with a reloaded checkpoint."""

    def build(self, inputs, seed, out_dir):
        schema, catalog, seqs = inputs
        split = D.leave_one_out_split(seqs)
        model = Model(ModelConfig(**REF_MODEL), schema, catalog, seed=seed)
        path = os.path.join(out_dir, f"ref-eval-{os.getpid()}.bin")
        try:
            CK.save_checkpoint(path, model, metadata={"seed": seed})
            model, _, _ = CK.load_checkpoint(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        return dict(model=model, users=split.validation[:REF_EVAL_USERS],
                    expect=None)

    def units(self, st):
        return math.ceil(len(st["users"]) / REF_BATCH)

    def warmup(self, st):
        problems, st["expect"] = rank_problems(st["model"], st["users"],
                                               REF_BATCH, None)
        return problems, {"val_hr10": ("ratio", st["expect"]["HR@10"])}

    def op(self, st):
        t0 = time.perf_counter()
        report = TR.rank_all(st["model"], st["users"], batch_size=REF_BATCH)
        seconds = time.perf_counter() - t0
        return Op(seconds, report.users, {"report": report.to_dict()})

    def check(self, st, info):
        report = info["report"]
        problems = metric_problems(report, st["expect"])
        if report["users"] != len(st["users"]):
            problems.append(f"ranked {report['users']} users, "
                            f"expected {len(st['users'])}")
        return problems

    def quality(self, info):
        return {"val_hr10": ("ratio", info["report"]["HR@10"])}


class DeskCompare:
    """novabert compare at the acceptance test's side-information shape."""
    builds = 5

    def generate(self, seed):
        return branching_dataset(m=40, n_seq=400, length=12, seed=seed)

    def build(self, inputs, seed, out_dir):
        schema, catalog, seqs = inputs
        split = D.leave_one_out_split(seqs)
        cfgs = {a: ModelConfig(hidden_size=32, num_heads=2, num_layers=2,
                               max_len=12, attention=a, fusion="gating",
                               dropout=0.0)
                for a in ("invasive", "nova")}
        tcfg = TR.TrainConfig(learning_rate=5e-3, epochs=DESK_EPOCHS,
                              batch_size=128, seed=seed)
        return dict(schema=schema, catalog=catalog, split=split, cfgs=cfgs,
                    tcfg=tcfg, seed=seed, history={})

    def warmup(self, st):
        # one epoch per stack runs every code path the operation runs
        tcfg = replace(st["tcfg"], epochs=1)
        for cfg in st["cfgs"].values():
            TR.train(Model(cfg, st["schema"], st["catalog"], seed=st["seed"]),
                     st["split"], tcfg)
        return [], {}

    def units(self, st):
        # optimizer steps of both stacks
        return 2 * DESK_EPOCHS * math.ceil(len(st["split"].train) / 128)

    def flops_per_seq(self, st):
        return profile_cost(st["cfgs"]["nova"], st["schema"],
                            st["catalog"].m).flops_total

    def op(self, st):
        seconds, runs = 0.0, {}
        for attention, cfg in st["cfgs"].items():
            t0 = time.perf_counter()
            model = Model(cfg, st["schema"], st["catalog"], seed=st["seed"])
            result = TR.train(model, st["split"], st["tcfg"])
            dt = time.perf_counter() - t0
            seconds += dt
            runs[attention] = dict(model=model, history=result.history,
                                   seconds=dt)
        seqs = 2 * DESK_EPOCHS * len(st["split"].train)
        return Op(seconds, seqs, {"runs": runs})

    def check(self, st, info):
        problems = []
        for attention, run in info["runs"].items():
            hist = run["history"]
            if len(hist) != DESK_EPOCHS:
                problems.append(f"{attention}: {len(hist)} epochs run, "
                                f"expected {DESK_EPOCHS}")
                continue
            ranked, _ = rank_problems(run["model"], st["split"].validation,
                                      256, hist[-1]["val"])
            problems += [f"{attention}: {p}" for p in ranked]
            # same seed, same inputs: every operation repeats the first
            hist = [{k: v for k, v in h.items() if k != "seconds"}
                    for h in hist]
            first_hist = st["history"].setdefault(attention, hist)
            if hist != first_hist:
                problems.append(f"{attention}: history differs from the "
                                "first operation under the same seed")
        return problems

    def final_check(self, st):
        """Both stacks fit one fixed training batch.

        The per-epoch loss is too noisy to show learning on every seed: over
        10 epochs the last epoch's loss was not below the first on 2 of 30
        seeds for nova and on 5 of 8 for invasive. So learning is checked
        where it is certain: a few Adam steps on one batch must cut that
        batch's loss."""
        problems = []
        batch = D.make_masked_batch(
            st["split"].train[:128], st["schema"], st["catalog"], 0.2,
            np.random.default_rng(st["seed"]), st["cfgs"]["nova"].max_len)
        for attention, cfg in st["cfgs"].items():
            model = Model(cfg, st["schema"], st["catalog"], seed=st["seed"])
            opt = TR.Adam(model.params, st["tcfg"])
            losses = []
            for _ in range(FIT_STEPS):
                model.zero_grads()
                loss = model.loss(batch)
                T.backward(loss)
                opt.step(st["tcfg"].learning_rate)
                losses.append(loss.item())
            if not losses[-1] < FIT_RATIO * losses[0]:
                problems.append(f"{attention}: {FIT_STEPS} steps on one batch "
                                f"took its loss from {losses[0]:.4f} to "
                                f"{losses[-1]:.4f}, not below {FIT_RATIO:g}x")
        return problems

    def quality(self, info):
        runs = info["runs"]
        last = runs["nova"]["history"][-1]
        out = {"final_loss": ("nats", last["loss"]),
               "val_hr10": ("ratio", last["val"]["HR@10"])}
        for attention, run in runs.items():
            out[f"{attention}.val_hr10"] = (
                "ratio", run["history"][-1]["val"]["HR@10"])
            out[f"{attention}.train_s"] = ("s", run["seconds"])
        return out


WORKLOADS = {"ref-train": RefTrain, "ref-eval": RefEval,
             "desk-compare": DeskCompare}


# ---------------------------------------------------------------------------
# child main
# ---------------------------------------------------------------------------

def emit(event, **fields):
    print(json.dumps({"event": event, **fields}), flush=True)


def run(name, seed, seconds, trace, out_dir):
    wl = WORKLOADS[name]()
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    emit("started")
    t0 = time.perf_counter()
    inputs = wl.generate(seed)
    generate_s = time.perf_counter() - t0
    build_s, st = [], None
    for _ in range(wl.builds):
        st = None  # free the previous build before making the next
        t0 = time.perf_counter()
        st = wl.build(inputs, seed, out_dir)
        build_s.append(time.perf_counter() - t0)
    del inputs
    if tracer:
        tracer.op = -2
    t0 = time.perf_counter()
    problems, quality = wl.warmup(st)
    emit("setup", generate_s=generate_s, build_s=build_s,
         warmup_s=time.perf_counter() - t0, problems=problems,
         quality={k: list(v) for k, v in quality.items()})

    traced_s, untraced_s = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        traced = tracer is not None and i % 2 == 0
        if tracer:
            tracer.uninstall()
            if traced:
                tracer.install()
            tracer.op = i
        try:
            op = wl.op(st)
        except (MemoryError, TR.TrainingDiverged) as exc:
            emit("op", i=i, ok=False, problems=[repr(exc)])
            break
        if tracer:
            tracer.op = -3  # checks are not part of the operation
        problems = wl.check(st, op.info)
        (traced_s if traced else untraced_s).append(op.seconds)
        emit("op", i=i, ok=not problems, problems=problems, seconds=op.seconds,
             seqs=op.seqs, traced=traced,
             quality={k: list(v) for k, v in wl.quality(op.info).items()})
        i += 1

    if tracer:
        tracer.op = -3
    if hasattr(wl, "final_check"):
        emit("check", problems=wl.final_check(st))

    layers = None
    if tracer:
        tracer.uninstall()
        tracer.write(os.path.join(out_dir, f"trace-{name}-seed{seed}.json"))
        if traced_s and untraced_s:
            layers = tracer.layer_metrics(
                units=wl.units(st) * len(traced_s), builds=wl.builds,
                flops_per_seq=wl.flops_per_seq(st), traced_s=traced_s,
                untraced_s=untraced_s)
    emit("done", layers=layers, units_per_op=wl.units(st))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())

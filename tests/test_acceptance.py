"""End-to-end acceptance checks.

Each test prints one summary line; the two training-based checks take a
few minutes of CPU between them.
"""

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import dense_ops as DO
import helpers as H
from fd_utils import model_grad_check
from novabert import cli
from novabert import data as D
from novabert import train as TR
from novabert import tensor as T
from novabert.checkpoint import save_checkpoint
from novabert.data import FeatureSpec, SideInfoSchema
from novabert.model import Model, ModelConfig
from novabert.profiler import profile_cost
from novabert.synthetic import branching_dataset, successor_dataset


def tiny_batch(schema, catalog, seqs, L, seed=0):
    split = D.leave_one_out_split(seqs)
    rng = np.random.default_rng(seed)
    return D.make_masked_batch(split.train, schema, catalog, 0.4, rng, L)


@pytest.mark.slow
def test_gradients_match_finite_differences():
    """Analytic vs central-difference gradients, every parameter, six
    attention x fusion configurations, tiny model, under one minute."""
    t0 = time.time()
    schema, catalog, seqs = branching_dataset(m=11, n_seq=6, length=7, seed=0)
    batch = tiny_batch(schema, catalog, seqs, L=4)
    worst = 0.0
    for attention in ("invasive", "nova"):
        for fusion in ("add", "concat", "gating"):
            cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=2,
                              max_len=4, attention=attention, fusion=fusion,
                              dropout=0.0)
            model = Model(cfg, schema, catalog, seed=0, dtype=np.float64)
            # move off the near-symmetric init so gradients are O(1)
            rng = np.random.default_rng(1)
            for p in model.params.values():
                p.data += rng.normal(0.0, 0.5, size=p.data.shape)
            worst = max(worst, model_grad_check(model, batch,
                                                eps=1e-5, tol=1e-4))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nPASS gradient check: worst rel err {worst:.2e} "
          f"across 6 configs in {elapsed:.1f}s")


def test_gradient_check_refuses_float32():
    """The finite-difference check compares float64 gradients only, so a
    default that changes cannot turn it into a float32 comparison."""
    schema, catalog, seqs = branching_dataset(m=11, n_seq=6, length=7, seed=0)
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1, max_len=4,
                      dropout=0.0)
    model = Model(cfg, schema, catalog, seed=0, dtype=np.float32)
    with pytest.raises(ValueError, match="float64 model, got float32"):
        model_grad_check(model, tiny_batch(schema, catalog, seqs, L=4))


def test_no_side_info_stacks_equivalent():
    """With zero side features and shared weights, the two attention
    stacks produce logits differing by < 1e-12, in float64 and float32."""
    schema, catalog, seqs = successor_dataset(m=11, n_seq=8, length=7, seed=0)
    worst = 0.0
    for seed, dtype in itertools.product((0, 1, 2),
                                         (np.float64, np.float32)):
        batch = tiny_batch(schema, catalog, seqs, L=4, seed=seed)
        kw = dict(hidden_size=8, num_heads=2, num_layers=2, max_len=4,
                  fusion="add", dropout=0.0, features=[], use_position=False)
        inv = Model(ModelConfig(attention="invasive", **kw),
                    schema, catalog, seed=seed + 3, dtype=dtype)
        nova = Model(ModelConfig(attention="nova", **kw),
                     schema, catalog, seed=seed + 3, dtype=dtype)
        for name, p in inv.params.items():
            nova.params[name].data[:] = p.data
        li = inv.decode_scores(inv.encode(batch)[0]).data
        ln = nova.decode_scores(nova.encode(batch)[0]).data
        worst = max(worst, float(np.abs(li - ln).max()))
    assert worst < 1e-12
    print(f"\nPASS degenerate equivalence: max logit diff {worst:.2e}")


def test_value_path_purity():
    """Side tables never reach the first-layer value projections, forward
    (bitwise) or backward (zero gradient from a V-probe)."""
    schema, catalog, seqs = branching_dataset(m=11, n_seq=6, length=7, seed=0)
    batch = tiny_batch(schema, catalog, seqs, L=4)
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=2, max_len=4,
                      attention="nova", fusion="gating", dropout=0.0)
    model = Model(cfg, schema, catalog, seed=0)
    side_tables = [n for n in model.params
                   if n.startswith("emb.f.") or n == "emb.pos"]
    assert side_tables
    v0 = H.first_layer_values(model, batch).data.copy()
    for name in side_tables:
        model.params[name].data += 0.7
        v1 = H.first_layer_values(model, batch).data
        assert np.array_equal(v0, v1), f"{name} leaked into the value path"
    probe = DO.tsum(DO.mul(H.first_layer_values(model, batch),
                         H.first_layer_values(model, batch)))
    T.backward(probe)
    for name in side_tables:
        g = model.params[name].grad
        assert g is None or not np.any(g), f"{name} got gradient from V probe"
    assert model.params["emb.id"].grad.any()
    print(f"\nPASS value-path purity: {len(side_tables)} side tables inert")


def _brute_force_rank(row, target):
    order = sorted(range(1, len(row) + 1), key=lambda it: (-row[it - 1], it))
    return order.index(target) + 1


def test_rank_metrics_match_brute_force():
    """rank_all on a <=20-item vocabulary vs an explicit full-sort oracle,
    exact to 1e-12, including the smaller-ID tie rule, on the scores of a
    float64 and of a float32 model."""
    schema, catalog, seqs = successor_dataset(m=18, n_seq=40, length=8, seed=2)
    split = D.leave_one_out_split(seqs)
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1, max_len=6,
                      dropout=0.0)
    for dtype in (np.float64, np.float32):
        model = Model(cfg, schema, catalog, seed=5, dtype=dtype)
        scores, targets = TR.score_pairs(model, split.test)
        assert scores.dtype == dtype
        # force ties so the tie rule is actually exercised
        scores = np.round(scores * 20) / 20
        ranks = TR.ranks_from_scores(scores, targets)
        oracle = np.array([_brute_force_rank(r, t)
                           for r, t in zip(scores, targets)])
        assert np.array_equal(ranks, oracle)
        rep = TR.metrics_from_ranks(ranks)
        for k, got in ((5, rep.hr5), (10, rep.hr10)):
            want = float(np.mean(oracle <= k))
            assert abs(got - want) < 1e-12
        for k, got in ((5, rep.ndcg5), (10, rep.ndcg10)):
            want = float(np.mean([1 / math.log2(r + 1) if r <= k else 0.0
                                  for r in oracle]))
            assert abs(got - want) < 1e-12
        n_tied = int(sum((scores == scores[i, targets[i] - 1]).sum() > 1
                         for i in range(len(targets))))
        assert n_tied > 0
    print(f"\nPASS metric oracle: {len(targets)} users in two dtypes, "
          f"{n_tied} float32 rows with score ties, exact agreement")


@pytest.mark.slow
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_successor_memorization(dtype):
    """Deterministic next = current+1 rule is memorized to HR@1 >= 0.99 on
    held-out targets within 200 epochs and five minutes, in the default
    float32 and in float64."""
    t0 = time.time()
    schema, catalog, seqs = successor_dataset(m=100, n_seq=500, length=20,
                                              seed=0)
    split = D.leave_one_out_split(seqs)
    cfg = ModelConfig(hidden_size=64, num_heads=2, num_layers=2, max_len=12,
                      attention="nova", fusion="add", dropout=0.0)
    model = Model(cfg, schema, catalog, seed=0, dtype=dtype)
    tc = TR.TrainConfig(epochs=200, batch_size=128, learning_rate=5e-3,
                        seed=0, eval_every=3, last_mask_frac=0.5,
                        early_stop_hr1=0.995)
    res = TR.train(model, split, tc)
    model.params.data[...] = res.best_params
    rep = TR.rank_all(model, split.test)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    assert rep.hr1 >= 0.99, f"test HR@1 {rep.hr1:.3f} < 0.99"
    print(f"\nPASS memorization ({np.dtype(dtype)}): test HR@1 "
          f"{rep.hr1:.3f} after {len(res.history)} epochs in {elapsed:.0f}s")


@pytest.mark.slow
def test_side_information_utility():
    """When the next item depends only on the previous rating, the model
    with the rating feature solves the task and the identical model
    without it is stuck near the 0.5 information ceiling."""
    t0 = time.time()
    schema, catalog, seqs = branching_dataset(m=40, n_seq=400, length=12,
                                              seed=0)
    split = D.leave_one_out_split(seqs)
    results = {}
    for label, feats in (("with", ["rating"]), ("without", [])):
        cfg = ModelConfig(hidden_size=32, num_heads=2, num_layers=2,
                          max_len=8, attention="nova", fusion="add",
                          dropout=0.0, features=feats)
        model = Model(cfg, schema, catalog, seed=0)
        tc = TR.TrainConfig(epochs=150, batch_size=128, learning_rate=5e-3,
                            seed=0, eval_every=5, last_mask_frac=0.5,
                            early_stop_hr1=0.96 if feats else None)
        res = TR.train(model, split, tc)
        model.params.data[...] = res.best_params
        results[label] = TR.rank_all(model, split.test).hr1
    elapsed = time.time() - t0
    assert elapsed < 600.0
    assert results["with"] >= 0.95, f"with rating: HR@1 {results['with']:.3f}"
    assert results["without"] <= 0.60, \
        f"without rating: HR@1 {results['without']:.3f}"
    print(f"\nPASS side-info utility: HR@1 with {results['with']:.3f} vs "
          f"without {results['without']:.3f} in {elapsed:.0f}s")


def test_flop_cost_claims():
    """Same parameters, FLOPs ratio within one part in a thousand for the
    two stacks; side information costs 2-6% extra FLOPs."""
    year = FeatureSpec("year", "item", "bucketed",
                       buckets=[float(y) for y in range(1920, 2000)])
    genre = FeatureSpec("genre", "item", "multi")
    genre.vocab = {f"g{i}": i + 2 for i in range(18)}
    rating = FeatureSpec("rating", "behavior", "categorical")
    rating.vocab = {str(v): v + 1 for v in range(1, 6)}
    schema = SideInfoSchema([year, genre, rating])
    kw = dict(hidden_size=64, num_heads=2, num_layers=2, max_len=100,
              fusion="add")
    nova = profile_cost(ModelConfig(attention="nova", **kw), schema, 500)
    inv = profile_cost(ModelConfig(attention="invasive", **kw), schema, 500)
    base = profile_cost(ModelConfig(features=[], **kw), schema, 500)
    ratio = nova.flops_total / inv.flops_total
    assert nova.params == inv.params
    assert 0.999 <= ratio <= 1.001
    over_inv = inv.flops_total / base.flops_total - 1
    over_nova = nova.flops_total / base.flops_total - 1
    assert 0.02 <= over_inv <= 0.06
    assert 0.02 <= over_nova <= 0.06
    print(f"\nPASS cost claims: ratio {ratio:.4f}, overhead "
          f"invasive {over_inv:.1%} / nova {over_nova:.1%}, "
          f"params {nova.params} == {inv.params}")


def _ml1m_dir():
    cand = os.environ.get("ML1M_DIR") or "data/ml-1m"
    path = Path(cand)
    if (path / "ratings.dat").exists() and (path / "movies.dat").exists():
        return path
    return None


def test_movielens_directional(tmp_path):
    """Desk-scale directional check on real interaction data: the trained
    invasive model beats the popularity baseline on HR@10 by >= 2x, and the
    non-invasive gating model matches or beats it on validation HR@10.
    Runs only when the dataset is available locally (hours of CPU)."""
    src = _ml1m_dir()
    if src is None:
        pytest.skip("MovieLens 1m not present (set ML1M_DIR or put "
                    "ratings.dat/movies.dat under data/ml-1m); downloading "
                    "data is out of scope")
    prep = tmp_path / "prep"
    assert cli.main(["prepare-data", "--data", str(src / "ratings.dat"),
                     "--items", str(src / "movies.dat"),
                     "--out", str(prep)]) == 0
    schema = D.load_schema(prep / "schema.ini")
    catalog, seqs = D.load_dataset(prep / "interactions.tsv",
                                   prep / "items.tsv", schema)
    split = D.leave_one_out_split(seqs)
    tc = TR.TrainConfig(epochs=30, batch_size=128, learning_rate=1e-3,
                        seed=0, eval_every=3)
    vals = {}
    for label, attention, fusion in (("invasive-add", "invasive", "add"),
                                     ("nova-gating", "nova", "gating")):
        cfg = ModelConfig(hidden_size=128, num_heads=2, num_layers=2,
                          max_len=200, attention=attention, fusion=fusion)
        model = Model(cfg, schema, catalog, seed=0)
        res = TR.train(model, split, tc, log=print)
        vals[label] = res.best_val
        if label == "invasive-add":
            model.params.data[...] = res.best_params
            test_rep = TR.rank_all(model, split.test)
    pop = TR.popularity_metrics(TR.popularity_baseline(split.train),
                                split.test, catalog.m)
    assert test_rep.hr10 >= 2 * pop.hr10
    assert vals["nova-gating"].hr10 >= vals["invasive-add"].hr10
    print(f"\nPASS directional: invasive HR@10 {test_rep.hr10:.4f} vs "
          f"popularity {pop.hr10:.4f}; nova-gating val "
          f"{vals['nova-gating'].hr10:.4f} >= invasive-add val "
          f"{vals['invasive-add'].hr10:.4f}")


def test_attention_dump_integrity(tmp_path):
    """Dumped matrices are row-stochastic, sized (non-pad length)^2, and
    laid out as 4 heads x 6 samples by default."""
    schema, catalog, seqs = branching_dataset(m=20, n_seq=30, length=9,
                                              seed=0)
    cfg = ModelConfig(hidden_size=16, num_heads=4, num_layers=2, max_len=8,
                      attention="nova", fusion="add", dropout=0.0)
    model = Model(cfg, schema, catalog, seed=0)
    data_path = tmp_path / "interactions.tsv"
    H.write_interactions(seqs, schema, catalog, data_path)
    ckpt = tmp_path / "model.bin"
    save_checkpoint(ckpt, model)
    out = tmp_path / "dump"
    assert cli.main(["dump-attention", "--checkpoint", str(ckpt),
                     "--data", str(data_path), "--out", str(out)]) == 0
    att = out / "attention"
    csvs = sorted(att.glob("*.csv"))
    assert len(csvs) == 6 * 4, "expected 6 samples x 4 heads"
    assert len(sorted(att.glob("*.pgm"))) == 6 * 4
    for path in csvs:
        mat = np.loadtxt(path, delimiter=",")
        assert mat.ndim == 2 and mat.shape[0] == mat.shape[1]
        # prefixes are 8 items, window keeps 7 + the appended mask
        assert mat.shape[0] == 8
        assert np.abs(mat.sum(axis=1) - 1).max() < 1e-6
    print("\nPASS attention dump: 24 row-stochastic matrices, "
          "4-head x 6-sample layout")

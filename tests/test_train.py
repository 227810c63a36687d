import importlib
import math
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dense_ops as DO
from novabert import data as D
from novabert import tensor as T
from novabert import train as TR
from novabert.model import Model, ModelConfig
from novabert.synthetic import successor_dataset
from novabert.tensor import Tensor
from test_tooling import closure_leaves


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_schedule_peak_at_warmup_end():
    assert TR.lr_schedule(50, 1000, 1e-4, 0.05) == pytest.approx(1e-4)


def test_schedule_zero_at_end_and_start():
    assert TR.lr_schedule(1000, 1000, 1e-4, 0.05) == 0.0
    assert TR.lr_schedule(0, 1000, 1e-4, 0.05) == 0.0


def test_schedule_linear_in_warmup():
    assert TR.lr_schedule(25, 1000, 1e-4, 0.05) == pytest.approx(5e-5)


def test_schedule_no_warmup():
    assert TR.lr_schedule(0, 100, 1e-3, 0.0) == pytest.approx(1e-3)
    assert TR.lr_schedule(50, 100, 1e-3, 0.0) == pytest.approx(5e-4)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def make_param(value):
    return {"x": Tensor(np.array(value, dtype=np.float64), requires_grad=True)}


def test_adam_zero_gradient_no_change():
    params = make_param([1.0, -2.0])
    opt = TR.Adam(params, TR.TrainConfig())
    params["x"].grad = np.zeros(2)
    opt.step(1e-2)
    assert np.array_equal(params["x"].data, [1.0, -2.0])


def test_adam_first_step_magnitude_is_lr():
    params = make_param([1.0])
    opt = TR.Adam(params, TR.TrainConfig(clip_norm=0.0))
    params["x"].grad = np.array([0.37])
    opt.step(1e-2)
    # bias-corrected Adam moves ~lr on the first step regardless of |g|
    assert abs(abs(1.0 - params["x"].data[0]) - 1e-2) < 1e-9


def test_adam_trajectory_matches_scalar_oracle():
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8

    # independent scalar oracle on f(x) = x^2
    x = 1.0
    m = v = 0.0
    oracle = []
    for t in range(1, 51):
        g = 2 * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        oracle.append(x)

    params = make_param([1.0])
    opt = TR.Adam(params, TR.TrainConfig(learning_rate=lr, clip_norm=0.0))
    ours = []
    for _ in range(50):
        params["x"].grad = 2 * params["x"].data
        opt.step(lr)
        ours.append(params["x"].data[0])
    assert np.allclose(ours, oracle, atol=1e-12)


def test_adam_clips_shared_gradient_once():
    """Two parameters holding one gradient array are each clipped once, and
    the array itself is left unscaled."""
    g = np.array([3.0, 4.0])
    params = {name: Tensor(np.zeros(2), requires_grad=True)
              for name in ("a", "b")}
    params["a"].grad = params["b"].grad = g
    opt = TR.Adam(params, TR.TrainConfig(clip_norm=1.0))
    opt.step(1e-2)
    # the joint norm is sqrt(50); the first moment (1 - ADAM_BETA1) * clipped g
    clipped = np.array([3.0, 4.0]) / math.sqrt(50.0)
    for name in ("a", "b"):
        assert np.allclose(opt.m[name], (1 - TR.ADAM_BETA1) * clipped,
                           rtol=1e-14, atol=0)
    assert np.array_equal(g, [3.0, 4.0])


def test_adam_nan_gradient_aborts():
    params = make_param([1.0])
    opt = TR.Adam(params, TR.TrainConfig())
    params["x"].grad = np.array([np.nan])
    with pytest.raises(TR.TrainingDiverged, match="x"):
        opt.step(1e-2)


# ---------------------------------------------------------------------------
# rank-all metrics
# ---------------------------------------------------------------------------

def brute_force_ranks(scores, targets):
    """Explicit full sort: score desc, item ID asc."""
    ranks = []
    for row, tgt in zip(scores, targets):
        order = sorted(range(1, len(row) + 1), key=lambda it: (-row[it - 1], it))
        ranks.append(order.index(tgt) + 1)
    return np.array(ranks)


def test_ranks_match_brute_force_with_ties():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, size=(200, 17)).astype(float)  # many ties
    targets = rng.integers(1, 18, size=200)
    got = TR.ranks_from_scores(scores, targets)
    assert np.array_equal(got, brute_force_ranks(scores, targets))


def test_non_finite_scores_refused():
    """NaN compares false with every score, so a row holding one would
    rank its target first; such rows are refused, counted."""
    targets = np.array([3, 5])
    with pytest.raises(ValueError, match="2 of 2 score rows"):
        TR.ranks_from_scores(np.full((2, 5), np.nan), targets)
    # the target's column alone, and another column
    for col, value in ((4, np.nan), (0, np.inf)):
        scores = np.zeros((2, 5))
        scores[1, col] = value
        with pytest.raises(ValueError, match="1 of 2 score rows"):
            TR.ranks_from_scores(scores, targets)


def test_metric_contributions_analytic():
    r1 = TR.metrics_from_ranks([1])
    assert r1.hr5 == 1.0 and r1.ndcg5 == 1.0
    r3 = TR.metrics_from_ranks([3])
    assert r3.ndcg5 == pytest.approx(1 / math.log2(4))
    r6 = TR.metrics_from_ranks([6])
    assert r6.hr5 == 0.0 and r6.hr10 == 1.0
    assert r6.ndcg10 == pytest.approx(1 / math.log2(7))


def test_metric_ordering_invariants_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ranks = rng.integers(1, 30, size=50)
        r = TR.metrics_from_ranks(ranks)  # __post_init__ checks the ordering
        assert r.users == 50


def test_metric_ordering_violation_raises():
    with pytest.raises(ValueError, match="inconsistent metrics"):
        TR.MetricsReport(hr1=0.0, hr5=0.5, hr10=0.4, ndcg5=0.3, ndcg10=0.3,
                         users=10)


# ---------------------------------------------------------------------------
# popularity baseline
# ---------------------------------------------------------------------------

def test_popularity_order_and_ties():
    seqs = [D.TrainSequence([1, 2, 2, 3], {}), D.TrainSequence([2, 3], {})]
    ranking = TR.popularity_baseline(seqs)
    assert ranking == [2, 3, 1]  # counts 3,2,1
    uniform = [D.TrainSequence([3, 1, 2], {})]
    assert TR.popularity_baseline(uniform) == [1, 2, 3]


def test_popularity_counts_match_hash_oracle():
    rng = np.random.default_rng(2)
    seqs = [D.TrainSequence(list(rng.integers(1, 20, size=30)), {})
            for _ in range(50)]
    from collections import Counter
    counts = Counter()
    for s in seqs:
        counts.update(s.items)
    ranking = TR.popularity_baseline(seqs)
    for a, b in zip(ranking, ranking[1:]):
        assert (counts[a], -a) >= (counts[b], -b)


def _popularity_rank_oracle(ranking, target, m):
    """The rank as a per-pair scan: a ranked item's place in the ranking;
    an unseen one follows every ranked item and the unseen items of smaller
    ID."""
    pos = {it: i + 1 for i, it in enumerate(ranking)}
    if target in pos:
        return pos[target]
    return len(ranking) + len([it for it in range(1, m + 1)
                               if it not in pos and it < target]) + 1


def test_popularity_metrics_match_per_pair_oracle():
    m = 9
    # counts: 4 -> 3; 2, 7 and 5 -> 2 each (tied); 1 -> 1; 3, 6, 8, 9 unseen
    seqs = [D.TrainSequence([4, 2, 7, 5, 4], {}),
            D.TrainSequence([4, 2, 7, 5, 1], {})]
    ranking = TR.popularity_baseline(seqs)
    assert ranking == [4, 2, 5, 7, 1]
    targets = [4, 2, 5, 7, 1, 3, 6, 8, 9, 5, 9]
    pairs = [D.EvalPair([1], {}, t) for t in targets]
    expect = TR.metrics_from_ranks(
        [_popularity_rank_oracle(ranking, t, m) for t in targets])
    got = TR.popularity_metrics(ranking, pairs, m)
    assert got.to_dict() == expect.to_dict()
    for t, r in zip([5, 7, 3, 9], [3, 4, 6, 9]):   # tied, then unseen
        one = TR.popularity_metrics(ranking, [D.EvalPair([1], {}, t)], m)
        assert one.to_dict() == TR.metrics_from_ranks([r]).to_dict()


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def small_problem():
    schema, catalog, seqs = successor_dataset(m=12, n_seq=20, length=8, seed=0)
    split = D.leave_one_out_split(seqs)
    cfg = ModelConfig(hidden_size=16, num_heads=2, num_layers=1, max_len=8,
                      attention="nova", fusion="add", dropout=0.0)
    return schema, catalog, split, cfg


def test_step_count_one_epoch(monkeypatch):
    schema, catalog, split, cfg = small_problem()
    model = Model(cfg, schema, catalog, seed=0)
    tc = TR.TrainConfig(epochs=1, batch_size=8, learning_rate=1e-3, seed=0)
    seen = []
    step = TR.Adam.step

    def counted(self, lr):
        seen.append(self.t)
        step(self, lr)

    monkeypatch.setattr(TR.Adam, "step", counted)
    TR.train(model, split, tc)
    # one optimizer step per batch of 8, each advancing the step counter
    assert math.ceil(len(split.train) / 8) == 3
    assert seen == [0, 1, 2]


def test_training_deterministic():
    schema, catalog, split, cfg = small_problem()
    losses = []
    for _ in range(2):
        model = Model(cfg, schema, catalog, seed=1)
        res = TR.train(model, split,
                       TR.TrainConfig(epochs=3, batch_size=8,
                                      learning_rate=1e-3, seed=5))
        losses.append([h["loss"] for h in res.history])
    assert losses[0] == losses[1]


def test_training_reduces_loss_and_tracks_best():
    schema, catalog, split, cfg = small_problem()
    model = Model(cfg, schema, catalog, seed=2)
    res = TR.train(model, split,
                   TR.TrainConfig(epochs=15, batch_size=8, learning_rate=5e-3,
                                  seed=3, eval_every=5))
    assert res.history[-1]["loss"] < res.history[0]["loss"]
    assert res.best_val is not None
    assert set(res.best_params) == set(model.params)


def test_fit_tests_the_best_validation_epoch():
    """fit leaves the model at the best epoch's parameters, not the last
    epoch's, and its test report is rank_all's on them, fingerprinted."""
    schema, catalog, split, cfg = small_problem()
    tc = TR.TrainConfig(epochs=6, batch_size=8, learning_rate=5e-3, seed=3)
    model = Model(cfg, schema, catalog, seed=2)
    res, test = TR.fit(model, split, tc)
    assert res.best_epoch < len(res.history) - 1  # best is not the last
    for name, p in model.params.items():
        assert np.array_equal(p.data, res.best_params[name])
    assert test.fingerprint == TR.config_fingerprint(cfg, tc) != ""
    assert test.to_dict() == TR.rank_all(
        model, split.test, fingerprint=test.fingerprint).to_dict()


def test_evaluation_deterministic_given_params():
    schema, catalog, split, cfg = small_problem()
    model = Model(cfg, schema, catalog, seed=4)
    a = TR.rank_all(model, split.validation)
    b = TR.rank_all(model, split.validation)
    assert a.to_dict() == b.to_dict()


def test_ablate_shapes():
    from novabert.synthetic import branching_dataset
    schema, catalog, seqs = branching_dataset(m=10, n_seq=16, length=6, seed=0)
    split = D.leave_one_out_split(seqs)
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1, max_len=6)
    tc = TR.TrainConfig(epochs=1, batch_size=8, learning_rate=1e-3, seed=0)
    table = TR.ablate(schema, catalog, split, cfg, tc)
    assert set(table) == {"none", "item", "behavior", "all"}
    for rep in table.values():
        assert rep.users == len(split.test)


# ---------------------------------------------------------------------------
# forward-only evaluation
# ---------------------------------------------------------------------------

def test_score_pairs_matches_dense_decode_and_records_no_graph():
    """In float64 and float32, score_pairs gives the last-row scores of a
    dense decode of every real-token row, and records no graph."""
    schema, catalog, split, cfg = small_problem()
    batch = D.make_eval_batch(split.validation, schema, catalog, cfg.max_len)
    # every real-token row; a row's last real token is the appended mask
    last = np.cumsum(batch.pad_mask.sum(axis=1)) - 1
    for dtype in (np.float64, np.float32):
        model = Model(cfg, schema, catalog, seed=4, dtype=dtype)
        scores, targets = TR.score_pairs(model, split.validation,
                                         batch_size=7)
        assert all(p.grad is None for p in model.params.values())
        dense = model.decode_scores(model.encode(batch)[0]).data[last]
        assert scores.shape == dense.shape and scores.dtype == dtype
        assert np.abs(scores - dense).max() < 1e-12
        assert list(targets) == [p.target for p in split.validation]
    # recording is back on: a training step still fills the gradients
    train = D.make_masked_batch(split.train, schema, catalog, cfg.mask_prob,
                                np.random.default_rng(0), cfg.max_len)
    T.backward(model.loss(train))
    assert model.params["emb.id"].grad is not None
    assert model.params["layer0.attn.wq.w"].grad is not None


def test_no_grad_restores_recording_after_exception():
    w = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        with T.no_grad():
            assert not DO.mul(w, 2.0).requires_grad
            raise RuntimeError("inside no_grad")
    assert DO.mul(w, 2.0).requires_grad


def test_no_grad_is_per_thread():
    w = Tensor(np.ones(3), requires_grad=True)
    entered, release = threading.Event(), threading.Event()

    def sit_in_no_grad():
        with T.no_grad():
            entered.set()
            release.wait(10)

    worker = threading.Thread(target=sit_in_no_grad)
    worker.start()
    try:
        assert entered.wait(10)
        out = DO.tsum(DO.mul(w, 2.0))
        assert out.requires_grad
        T.backward(out)
        assert np.array_equal(w.grad, np.full(3, 2.0))
    finally:
        release.set()
        worker.join()


# ---------------------------------------------------------------------------
# what a training step keeps
# ---------------------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def movielens_problem(monkeypatch):
    """64 users of a MovieLens-shaped log (multi-valued genre, 3,416 items)
    and a nova/gating model with dropout at h=32, L=50."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    movielens = importlib.import_module("movielens")
    schema, catalog, seqs = movielens.movielens_like(0, users=200)
    cfg = ModelConfig(hidden_size=32, num_heads=2, num_layers=2, max_len=50,
                      attention="nova", fusion="gating", dropout=0.1)
    return schema, catalog, seqs[:64], cfg


def test_backward_keeps_only_the_parameter_gradients(movielens_problem):
    """After backward, with the loss still referenced, the step holds the
    parameter gradients and nothing of its graph; while it runs, backward
    never holds much more than the forward left it."""
    schema, catalog, seqs, cfg = movielens_problem
    model = Model(cfg, schema, catalog, seed=0)
    rng = np.random.default_rng(0)
    batch = D.make_masked_batch(seqs, schema, catalog, cfg.mask_prob, rng,
                                cfg.max_len)
    assert catalog.features["genre"][batch.items].ndim == 3
    T.backward(model.loss(batch, train=True, rng=rng))  # untraced warm-up
    model.zero_grads()
    tracemalloc.start()   # numpy reports its array buffers to tracemalloc
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = model.loss(batch, train=True, rng=rng)
        forward = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        T.backward(loss)
        after, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    grads = sum(p.grad.nbytes for p in model.params.values())
    assert forward > 30 * grads
    assert after <= 1.1 * grads, (after, grads)
    assert peak <= 1.1 * forward, (peak, forward)
    assert np.isfinite(loss.item())


def _root(a):
    """The array that owns the memory a views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_training_forward_holds_what_its_backward_reads(movielens_problem):
    """While the graph waits for backward, the step holds little more than
    the buffers its backward closures saved: an op output that no backward
    reads (a projection's, say, which dropout reads) is freed when the
    forward drops its name, not kept by the graph."""
    schema, catalog, seqs, cfg = movielens_problem
    model = Model(cfg, schema, catalog, seed=0)
    rng = np.random.default_rng(0)
    batch = D.make_masked_batch(seqs, schema, catalog, cfg.mask_prob, rng,
                                cfg.max_len)
    T.backward(model.loss(batch, train=True, rng=rng))  # untraced warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = model.loss(batch, train=True, rng=rng)
        forward = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    params = {id(_root(p.data)) for p in model.params.values()}
    saved, seen, stack = {}, set(), [loss._vertex]
    while stack:
        node = stack.pop()
        if id(node) in seen or node.bw is None:
            continue
        seen.add(id(node))
        for _, a in closure_leaves(node.bw):
            if isinstance(a, np.ndarray):
                saved[id(_root(a))] = _root(a).nbytes
        stack.extend(node.parents)
    held = sum(n for i, n in saved.items() if i not in params)
    assert held > 30 * sum(p.data.nbytes for p in model.params.values())
    assert forward <= 1.05 * held, (forward, held)


def test_training_equals_the_unpooled_float_mask_chain(movielens_problem,
                                                       monkeypatch):
    """One epoch of train(), four steps with dropout, the multi-valued genre
    pooled and tail batches, gives the loss and parameters of the same run
    whose pooling is the lookup, product and sum chain and whose dropout
    saves float masks."""
    schema, catalog, seqs, cfg = movielens_problem
    split = D.leave_one_out_split(seqs)
    tcfg = TR.TrainConfig(epochs=1, batch_size=16, learning_rate=1e-3,
                          seed=3)
    runs, calls = [], []

    def counted(op):
        def run(*args):
            calls.append(op.__name__)
            return op(*args)
        return run

    for reference in (False, True):
        if reference:
            monkeypatch.setattr(T, "pooled_lookup", counted(DO.pool_chain))
            monkeypatch.setattr(T, "dropout", counted(DO.float_mask_dropout))
        model = Model(cfg, schema, catalog, seed=3)
        hist = TR.train(model, split, tcfg).history
        runs.append(([h["loss"] for h in hist],
                     {k: p.data for k, p in model.params.items()}))
    assert set(calls) == {"pool_chain", "float_mask_dropout"}
    (loss, params), (ref_loss, ref_params) = runs
    assert loss == ref_loss
    assert all(np.array_equal(params[k], ref_params[k]) for k in params)

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
import dense_ops as DO
from novabert import kernels
from novabert import tensor as T


def numeric_grad(f, x, eps=1e-5):
    """Central finite differences of scalar f with respect to array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def check_grads(build_loss, tensors, tol=1e-4):
    """build_loss() must rebuild the graph from the given leaf tensors."""
    for t in tensors:
        t.grad = None
    loss = build_loss()
    T.backward(loss)
    for t in tensors:
        num = numeric_grad(lambda: float(build_loss().data), t.data)
        ana = t.grad
        assert ana is not None
        denom = np.abs(num) + 1e-8
        rel = np.abs(ana - num) / denom
        assert rel.max() < tol, f"grad mismatch: max rel err {rel.max()}"


def saved_arrays(out):
    """(shape, dtype) of the arrays out's backward closure holds, by name."""
    bw = out._vertex.bw
    cells = sorted(zip(bw.__code__.co_freevars, bw.__closure__))
    return [(c.cell_contents.shape, c.cell_contents.dtype) for _, c in cells
            if isinstance(c.cell_contents, np.ndarray)]


def rand(shape, rng, scale=1.0):
    return T.Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


# ---------------------------------------------------------------------------
# matmul (an op of the dense oracle, dense_ops.py)
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = T.Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(DO.matmul(a, b).data, b.data)


def test_matmul_dot():
    out = DO.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    assert out.data[0, 0] == 11.0


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    expect = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expect[i, j] += a[i, k] * b[k, j]
    got = DO.matmul(T.Tensor(a), T.Tensor(b)).data
    assert np.abs(got - expect).max() < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
        DO.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


def test_matmul_associativity():
    rng = np.random.default_rng(1)
    a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
    left = DO.matmul(DO.matmul(T.Tensor(a), T.Tensor(b)), T.Tensor(c)).data
    right = DO.matmul(T.Tensor(a), DO.matmul(T.Tensor(b), T.Tensor(c))).data
    assert np.abs(left - right).max() < 1e-9


# ---------------------------------------------------------------------------
# softmax (an op of the dense oracle, dense_ops.py)
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    out = DO.softmax_lastdim(T.Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3)


def test_softmax_no_overflow():
    out = DO.softmax_lastdim(T.Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] > 0.999999


def test_softmax_high_precision_oracle():
    import mpmath
    x = [1.0, 2.0, 3.0]
    es = [mpmath.e ** xi for xi in x]
    s = sum(es)
    expect = np.array([float(e / s) for e in es])
    out = DO.softmax_lastdim(T.Tensor(x)).data
    assert np.abs(out - expect).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.integers(1, 5))
def test_softmax_rows_sum_to_one_and_nonneg(row, nrows):
    x = np.array([row] * nrows)
    out = DO.softmax_lastdim(T.Tensor(x)).data
    assert np.all(out >= 0)
    assert np.abs(out.sum(axis=-1) - 1).max() < 1e-6


def test_softmax_rows_writes_over_its_argument():
    x = np.random.default_rng(0).standard_normal((5, 7)) * 20
    e = np.exp(x - x.max(axis=1, keepdims=True))
    expect = e / e.sum(axis=1, keepdims=True)
    out = kernels.softmax_rows(x)
    assert out is x
    assert np.array_equal(out, expect)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def right_aligned(lengths, L):
    """The attention layout of rows with these real lengths, right-aligned
    in L slots."""
    lengths = np.asarray(lengths)
    return T.AttentionLayout(np.arange(L) >= L - lengths[:, None])


def test_attention_uniform_when_q_k_zero():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((1, 1, 3, 4))[0, 0]
    z = np.zeros_like(v)
    out, attn = T.scaled_dot_attention(T.Tensor(z), T.Tensor(z), T.Tensor(v),
                                       right_aligned([3], 3), 1, collect=True)
    assert np.allclose(out.data, np.broadcast_to(v.mean(axis=0, keepdims=True),
                                                 v.shape))
    assert np.allclose(attn.data, 1 / 3)


def test_attention_single_key():
    v = np.array([[2.0, 5.0]])
    q = np.array([[1.0, -1.0]])
    out, attn = T.scaled_dot_attention(T.Tensor(q), T.Tensor(q), T.Tensor(v),
                                       right_aligned([1], 1), 1, collect=True)
    assert np.array_equal(out.data, v)
    assert np.array_equal(attn.data, [[[[1.0]]]])


def test_attention_hand_case():
    # L=2, d=1: Q=K=[1,0], V=[2,4]
    q = np.array([[1.0], [0.0]])
    v = np.array([[2.0], [4.0]])
    out, attn = T.scaled_dot_attention(T.Tensor(q), T.Tensor(q), T.Tensor(v),
                                       right_aligned([2], 2), 1, collect=True)
    row0 = np.exp([1.0, 0.0])
    row0 /= row0.sum()
    assert np.allclose(attn.data[0, 0, 0], row0)
    assert np.allclose(out.data[0, 0], row0 @ np.array([2.0, 4.0]))


def test_attention_all_masked_row_errors():
    q = np.zeros((0, 4))
    mask = np.zeros((1, 3), dtype=bool)
    with pytest.raises(ValueError, match="masked"):
        T.scaled_dot_attention(T.Tensor(q), T.Tensor(q), T.Tensor(q),
                               T.AttentionLayout(mask), 1)


def test_attention_rows_stochastic_with_mask():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((2, 4, 3))
    mask = np.array([[False, False, True, True]] * 2)
    out, attn = T.scaled_dot_attention(
        T.Tensor(q[mask]), T.Tensor(q[mask]), T.Tensor(q[mask]),
        T.AttentionLayout(mask), 1, collect=True)
    assert np.abs(attn.data[..., 2:, :].sum(-1) - 1).max() < 1e-12
    assert np.all(attn.data[..., :2] == 0)
    assert np.all(attn.data[..., :2, :] == 0)   # pad queries have no row


def test_attention_layout_rejects_left_aligned_rows():
    with pytest.raises(ValueError, match="right-aligned"):
        T.AttentionLayout(np.array([[True, True, False]]))


@pytest.mark.parametrize("lengths,groups", [
    ([8], [(1, 8)]),                          # a single row at the full length
    ([5, 5, 5, 5, 5], [(5, 5)]),              # one length: one group
    ([8, 8, 8, 8, 2, 8, 8, 8], [(1, 2), (7, 8)]),   # a short row alone
    ([8, 8, 1, 8, 8, 1, 8, 8], [(2, 1), (6, 8)]),
    ([2, 6, 8, 3, 7, 1, 4, 5], [(1, l) for l in range(1, 9)]),
])
def test_attention_layout_buckets(lengths, groups):
    """One group per row length, in ascending order: every row of a group
    has its length l, each batch row is in exactly one group, and a group's
    l key slots are its rows' real tokens, so no key is a pad."""
    layout = right_aligned(lengths, 8)
    assert [(len(bi), l) for bi, l, _ in layout.keys] == groups
    seen = np.concatenate([bi for bi, _, _ in layout.keys])
    assert sorted(seen) == list(range(len(lengths)))
    for bi, l, idx in layout.keys:
        assert np.all(np.asarray(lengths)[bi] == l)
        assert idx.shape == (len(bi), l)
        expect = [b * 8 + s for b in bi for s in range(8 - l, 8)]
        assert np.array_equal(layout.rows[idx].ravel(), expect)


def test_attention_layout_query_positions_checked():
    layout = right_aligned([2, 3], 4)   # real slots 2, 3, 5, 6, 7
    assert np.array_equal(layout.at([3, 7]).picked, [1, 4])
    for bad in ([7, 3], [3, 3], [1], [8], [-1]):
        with pytest.raises(ValueError, match="real-token"):
            layout.at(bad)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    T.backward(DO.tsum(x))
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_half_square_gives_x():
    x = T.Tensor([1.0, -2.0, 0.5], requires_grad=True)
    T.backward(DO.mul(DO.tsum(DO.mul(x, x)), 0.5))
    assert np.allclose(x.grad, x.data)


def test_backward_add_same_tensor_twice():
    p = T.Tensor([1.0, 2.0], requires_grad=True)
    child = T.add(p, p)
    T.backward(DO.tsum(child))
    assert np.array_equal(p.grad, [2.0, 2.0])
    assert child.grad is None  # interior gradients are released


@pytest.mark.parametrize("shared_first", [True, False])
@pytest.mark.parametrize("later", ["mul", "embedding_lookup"])
def test_backward_shared_gradient_arrays_stay_independent(later, shared_first):
    """add hands one gradient array to both parents; a later gradient into
    one parent, by add or by an embedding scatter, leaves the other alone.
    Both summation orders are run, so the shared array is hit either way."""
    a = T.Tensor(np.ones((3, 2)), requires_grad=True)
    b = T.Tensor(np.ones((3, 2)), requires_grad=True)
    shared = T.add(a, b)
    if later == "mul":
        other, expect = DO.mul(a, 3.0), np.full((3, 2), 4.0)
    else:
        other = T.embedding_lookup(a, np.array([0, 0, 2]))
        expect = np.array([[3.0, 3.0], [1.0, 1.0], [2.0, 2.0]])
    terms = [DO.tsum(shared), DO.tsum(other)]
    if not shared_first:
        terms.reverse()
    T.backward(T.add(*terms))
    assert np.array_equal(a.grad, expect)
    assert np.array_equal(b.grad, np.ones((3, 2)))
    assert shared.grad is None


def test_backward_twice_errors():
    x = T.Tensor([1.0], requires_grad=True)
    loss = DO.tsum(x)
    T.backward(loss)
    with pytest.raises(RuntimeError):
        T.backward(loss)


def test_backward_frees_the_graph_but_keeps_values():
    """Each interior vertex drops its closure and parent links once its
    backward has run; its tensor's value stays readable."""
    x = T.Tensor([1.0, -2.0], requires_grad=True)
    sq = DO.mul(x, x)
    loss = DO.tsum(sq)
    T.backward(loss)
    assert np.array_equal(x.grad, [2.0, -4.0])
    for node in (sq, loss):
        assert node._vertex.bw is None and node._vertex.parents == ()
    assert np.array_equal(sq.data, [1.0, 4.0])
    assert loss.item() == 5.0 and loss.grad == 1.0


def test_backward_through_a_freed_node_errors():
    """Two losses share an interior node: the first backward frees it, so
    the second would see it as a leaf and lose the gradient into x."""
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    shared = DO.mul(x, 3.0)
    first, second = DO.tsum(shared), DO.tsum(DO.mul(shared, shared))
    T.backward(first)
    with pytest.raises(RuntimeError, match="freed"):
        T.backward(second)


def test_backward_non_scalar_errors():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        T.backward(DO.mul(x, x))


# ops whose backward reads nothing of their input's value, each applied to
# a [4, 3] input x with a generator rng
UNREAD_INPUT = {
    "add": lambda x, rng: T.add(x, T.Tensor(rng.standard_normal(3))),
    "dropout": lambda x, rng: T.dropout(x, 0.3, rng),
    "layer_norm": lambda x, rng: T.layer_norm(
        x, rand((3,), rng), rand((3,), rng)),
    "take_rows": lambda x, rng: T.take_rows(x, np.array([3, 0, 2])),
    # the output is a view of the input: the input goes when it does
    "transpose": lambda x, rng: T.transpose(x, (1, 0)),
    "concat_lastdim": lambda x, rng: T.concat_lastdim(
        [rand((4, 2), rng), x]),
    "cross_entropy_masked": lambda x, rng: T.cross_entropy_masked(
        x, np.array([1, 3, 2, 3])),
}


@pytest.mark.parametrize("op", sorted(UNREAD_INPUT))
def test_an_input_no_backward_reads_is_freed(op):
    """The graph holds no op's input value that no backward reads: once
    the caller drops the input and the op's output (a view for transpose),
    the input's array is gone, and the gradient into the leaf below it is
    the one a run that keeps every name gets."""
    grads = []
    for drop in (False, True):
        rng = np.random.default_rng(7)
        leaf = rand((4, 3), rng)
        x = DO.mul(leaf, 2.0)
        value = weakref.ref(x.data)
        out = UNREAD_INPUT[op](x, rng)
        y = T.add(out, 0.5)
        if drop:
            del x, out
            assert value() is None
        T.backward(DO.tsum(DO.mul(y, rng.standard_normal(y.shape))))
        grads.append(leaf.grad)
    assert np.array_equal(grads[0], grads[1])


# ---------------------------------------------------------------------------
# finite-difference checks for every differentiable op
# ---------------------------------------------------------------------------

def test_fd_add_mul_broadcast():
    rng = np.random.default_rng(10)
    a, b = rand((3, 4), rng), rand((4,), rng)
    check_grads(lambda: DO.tsum(DO.mul(T.add(a, b), a)), [a, b])


def test_fd_matmul_batched():
    rng = np.random.default_rng(11)
    a, b = rand((2, 3, 4), rng), rand((4, 5), rng)
    check_grads(lambda: DO.tsum(DO.mul(DO.matmul(a, b), DO.matmul(a, b))), [a, b])


def test_fd_softmax():
    rng = np.random.default_rng(12)
    x = rand((3, 5), rng)
    w = rng.standard_normal((3, 5))
    check_grads(lambda: DO.tsum(DO.mul(DO.softmax_lastdim(x), w)), [x])


def test_fd_gelu_sigmoid():
    rng = np.random.default_rng(13)
    x = rand((4, 3), rng)
    check_grads(lambda: DO.tsum(DO.gelu(x)), [x])
    check_grads(lambda: DO.tsum(DO.sigmoid(x)), [x])


def test_fd_layer_norm():
    rng = np.random.default_rng(14)
    x, g, b = rand((2, 3, 6), rng), rand((6,), rng), rand((6,), rng)
    w = rng.standard_normal((2, 3, 6))
    check_grads(lambda: DO.tsum(DO.mul(T.layer_norm(x, g, b), w)), [x, g, b])


def test_fd_concat_stack_reshape_transpose():
    rng = np.random.default_rng(15)
    a, b = rand((2, 3), rng), rand((2, 4), rng)
    check_grads(
        lambda: DO.tsum(DO.mul(T.concat_lastdim([a, b]), T.concat_lastdim([a, b]))),
        [a, b])
    c, d = rand((2, 3), rng), rand((2, 3), rng)
    check_grads(lambda: DO.tsum(DO.mul(DO.stack([c, d], axis=-2), 2.0)), [c, d])
    e = rand((2, 6), rng)
    check_grads(
        lambda: DO.tsum(DO.mul(T.transpose(DO.reshape(e, (2, 3, 2)), (1, 0, 2)), 3.0)),
        [e])


def test_fd_embedding_lookup():
    rng = np.random.default_rng(16)
    table = rand((7, 4), rng)
    idx = np.array([[0, 3, 3], [6, 1, 0]])
    w = rng.standard_normal((2, 3, 4))
    check_grads(lambda: DO.tsum(DO.mul(T.embedding_lookup(table, idx), w)), [table])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_pooled_lookup_equals_the_lookup_mul_sum_chain(dtype):
    """Output and table gradient are bit-identical to the three-op chain,
    with repeated rows and all-pad slots (index 0, weight 0) included; the
    backward holds the indices and weights, not the gathered rows."""
    rng = np.random.default_rng(41)
    idx = np.array([[3, 5, 0, 0], [0, 0, 0, 0], [2, 2, 7, 1], [6, 0, 0, 0],
                    [0, 0, 0, 0]])
    present = idx != 0
    count = present.sum(axis=-1, keepdims=True).astype(dtype)
    weights = present.astype(dtype) / np.maximum(count, 1)
    table = rng.standard_normal((8, 5)).astype(dtype)
    g = rng.standard_normal((5, 5)).astype(dtype)
    outs = []
    for pool in (T.pooled_lookup, DO.pool_chain):
        leaf = T.Tensor(table.copy(), requires_grad=True)
        out = pool(leaf, idx, weights)
        if pool is T.pooled_lookup:
            assert saved_arrays(out) == [(idx.shape, np.int64),
                                         (idx.shape, dtype)]
        T.backward(DO.tsum(DO.mul(out, g)))
        outs.append((out.data, leaf.grad))
    (new, gnew), (old, gold) = outs
    assert new.dtype == gnew.dtype == dtype
    assert np.array_equal(new, old) and np.array_equal(gnew, gold)
    assert not new[[1, 4]].any()


def test_fd_pooled_lookup():
    rng = np.random.default_rng(42)
    table = rand((7, 4), rng)
    idx = np.array([[0, 3, 3], [6, 1, 0]])
    weights = rng.standard_normal((2, 3))
    w = rng.standard_normal((2, 4))
    check_grads(lambda: DO.tsum(DO.mul(T.pooled_lookup(table, idx, weights),
                                       w)), [table])
    with pytest.raises(IndexError):
        T.pooled_lookup(table, np.array([[7]]), np.ones((1, 1)))
    with pytest.raises(T.ShapeMismatchError):
        T.pooled_lookup(table, idx, weights[:, :2])


def test_fd_cross_entropy_masked():
    rng = np.random.default_rng(17)
    logits = rand((6, 5), rng)
    labels = np.array([1, 4, 3, 5, 5, 2])
    check_grads(lambda: T.cross_entropy_masked(logits, labels), [logits])


def test_fd_attention_masked():
    rng = np.random.default_rng(18)
    q, k, v = rand((3, 6), rng), rand((3, 6), rng), rand((3, 6), rng)
    layout = right_aligned([3], 4)   # the first key slot is a pad
    w = rng.standard_normal((3, 6))

    def loss():
        out, _ = T.scaled_dot_attention(q, k, v, layout, 2)
        return DO.tsum(DO.mul(out, w))

    check_grads(loss, [q, k, v])


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("subset", [False, True])
def test_fd_attention_buckets(subset, dropout):
    """The fused backward against finite differences: rows of mixed lengths,
    a query subset with fewer rows than keys and padded query slots, and
    dropout with a fixed keep mask (the generator is re-seeded for every
    evaluation)."""
    rng = np.random.default_rng(24)
    layout = right_aligned([3, 1, 4, 2, 4], 4)
    assert len(layout.keys) == 4
    if subset:
        layout = layout.at(layout.rows[[0, 2, 5, 7, 9, 13]])
        assert any(idx.shape[1] < l for (_, l, _), (idx, _, _)
                   in zip(layout.keys, layout.queries))
        assert any((~real).any() for _, _, real in layout.queries)
    n, h = len(layout.rows), 6
    q, k, v = (rand((len(layout.pos), h), rng), rand((n, h), rng),
               rand((n, h), rng))
    w = rng.standard_normal((len(layout.pos), h))

    def loss():
        out, _ = T.scaled_dot_attention(
            q, k, v, layout, 2, attn_dropout=dropout,
            rng=np.random.default_rng(5))
        return DO.tsum(DO.mul(out, w))

    check_grads(loss, [q, k, v])


@pytest.mark.parametrize("queries", ["all", "every_third", "last"])
@pytest.mark.parametrize("lengths", [
    [8],                      # a single row, at the full length
    [5, 5, 5, 5, 5],          # all rows the same length: one group
    [2, 6, 8, 3, 7, 1, 4],    # a length-2 (eval-sized) row and a full row
])
def test_attention_matches_dense_chain(lengths, queries):
    """The fused op against the dense chain of separate ops in
    dense_oracle.attention, with dropout on: the fused op draws one keep
    mask per length group, and the dense chain runs under those masks placed
    at their dense positions. Compared: output rows, gradients of Q, K and
    V, the collected maps (equal at real query rows, zero at pad queries),
    and that the dense chain consumed one recorded draw per group."""
    B, L, H, d = len(lengths), 8, 2, 3
    layout = right_aligned(lengths, L)
    rows = layout.rows
    pos = {"all": rows, "every_third": rows[::3],
           "last": np.arange(B) * L + L - 1}[queries]
    lay = layout if queries == "all" else layout.at(pos)
    rng = np.random.default_rng(25)
    q, k, v = (rand((len(rows), H * d), rng) for _ in range(3))
    w = rng.standard_normal((len(pos), H * d))

    def fused(gen):
        qq = q if lay.picked is None else T.take_rows(q, lay.picked)
        out, attn = T.scaled_dot_attention(qq, k, v, lay, H, attn_dropout=0.2,
                                           rng=gen, collect=queries == "all")
        return DO.tsum(DO.mul(out, w)), attn

    def dense(gen):
        slot_row = np.zeros(B * L, dtype=np.int64)
        slot_row[rows] = np.arange(len(rows))
        real = layout.pad_mask.reshape(-1, 1)

        def heads(x):
            # the rows at their slots, zeros at pad slots
            full = DO.mul(T.embedding_lookup(x, slot_row), real)
            return T.transpose(DO.reshape(full, (B, L, H, d)), (0, 2, 1, 3))

        out, attn = dense_oracle.attention(
            heads(q), heads(k), heads(v), layout.pad_mask[:, None, None, :],
            0.2, gen)
        flat = DO.reshape(T.transpose(out, (0, 2, 1, 3)), (B * L, H * d))
        return DO.tsum(DO.mul(T.take_rows(flat, pos), w)), attn

    def run(fn, gen):
        for t in (q, k, v):
            t.grad = None
        loss, attn = fn(gen)
        T.backward(loss)
        return loss.item(), [t.grad.copy() for t in (q, k, v)], attn

    rec = dense_oracle.Recorder(9)
    fl, fg, fa = run(fused, rec)
    replay = dense_oracle.Replay(rec.draws)
    dl, dg, da = run(dense, replay.attention(lay))
    assert abs(fl - dl) < 1e-12
    for a, b in zip(fg, dg):
        assert np.abs(a - b).max() < 1e-12
    assert [r.shape for r in rec.draws] == [
        (len(bi), H, idx.shape[1], l)
        for (bi, l, _), (idx, _, _) in zip(lay.keys, lay.queries)]
    assert replay.used == len(rec.draws)
    if fa is not None:
        q_real = layout.pad_mask[:, None, :, None]
        assert np.abs(fa.data - da.data * q_real).max() < 1e-12


# ---------------------------------------------------------------------------
# gated fusion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
def test_gated_sum_matches_dense_chain(mode, k):
    """The one-node gated sum against the chain of separate ops in
    dense_oracle.gating: output, gates and every input gradient, with the
    second feature (when there is one) a constant and a feature repeated."""
    rng = np.random.default_rng(30)
    feats = [rand((3, 4, 6), rng) for _ in range(k)]
    if k > 1:
        feats[1] = T.Tensor(feats[1].data)
        feats[-1] = feats[0]
    wf = rand((6, 1), rng)
    w = rng.standard_normal((3, 4, 6))
    leaves = [f for f in feats if f.requires_grad] + [wf]
    results = []
    for fuse in (T.gated_sum, dense_oracle.gating):
        for t in leaves:
            t.grad = None
        out, gates = fuse(feats, wf, mode)
        T.backward(DO.tsum(DO.mul(out, w)))
        results.append((out.data, gates.data, [t.grad.copy() for t in leaves]))
    (fo, fgates, fgrads), (do, dgates, dgrads) = results
    assert fgates.shape == (3, 4, k)
    assert np.abs(fo - do).max() < 1e-12
    assert np.abs(fgates - dgates).max() < 1e-12
    for a, b in zip(fgrads, dgrads):
        assert np.abs(a - b).max() < 1e-12


@pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
def test_fd_gated_sum(mode):
    rng = np.random.default_rng(31)
    feats = [rand((2, 5), rng) for _ in range(3)]
    wf = rand((5, 1), rng)
    w = rng.standard_normal((2, 5))
    check_grads(lambda: DO.tsum(DO.mul(T.gated_sum(feats, wf, mode)[0], w)),
                feats + [wf])


def test_gated_sum_rejects_bad_shapes_and_mode():
    f = T.Tensor(np.zeros((2, 4)))
    with pytest.raises(T.ShapeMismatchError):
        T.gated_sum([f, T.Tensor(np.zeros((2, 3)))],
                    T.Tensor(np.zeros((4, 1))))
    with pytest.raises(T.ShapeMismatchError):
        T.gated_sum([f], T.Tensor(np.zeros((4,))))
    with pytest.raises(ValueError, match="mode"):
        T.gated_sum([f], T.Tensor(np.zeros((4, 1))), "relu")


def test_debug_names_the_op_with_a_non_finite_value(monkeypatch):
    """With the debug switch on, a NaN in the gated node's output, or in a
    gradient its backward hands on, raises naming that op."""
    monkeypatch.setattr(T, "_DEBUG", True)
    rng = np.random.default_rng(32)
    feats = [rand((3, 4), rng) for _ in range(2)]
    wf = rand((4, 1), rng)
    bad = feats[1].data.copy()
    bad[1, 2] = np.nan
    with pytest.raises(FloatingPointError, match="output of gated_sum"):
        T.gated_sum([feats[0], T.Tensor(bad)], wf)
    loss = DO.tsum(T.gated_sum(feats, wf)[0])
    wf.data[2, 0] = np.nan      # read by the gated node's backward only
    with pytest.raises(FloatingPointError, match="backward of gated_sum"):
        T.backward(loss)


# ---------------------------------------------------------------------------
# linear and the feed-forward node
# ---------------------------------------------------------------------------

def test_linear_lone_row_gradient_is_its_row_of_a_longer_call():
    """A lone row's output and input gradient are its row of a 2-row call:
    the backward's g @ w.T follows the forward's lone-row rule, so neither
    runs as a matrix-vector product."""
    rng = np.random.default_rng(51)
    x, w = rng.standard_normal((2, 128)), rng.standard_normal((128, 512))
    g = rng.standard_normal((2, 512))
    outs = []
    for rows in (1, 2):
        leaf = T.Tensor(x[:rows], requires_grad=True)
        out = T.linear(leaf, w)
        T.backward(DO.tsum(DO.mul(out, g[:rows])))
        outs.append((out.data[0], leaf.grad[0]))
    (out1, dx1), (out2, dx2) = outs
    assert np.array_equal(out1, out2) and np.array_equal(dx1, dx2)


def ffn_leaves(rng, shape, f):
    """x of shape [..., k] and the feed-forward weights w1, b1, w2, b2
    (width f, back to k) as leaves."""
    k = shape[-1]
    return [rand(s, rng, scale) for s, scale in (
        (shape, 1.0), ((k, f), 0.1), ((f,), 0.1), ((f, k), 0.1), ((k,), 0.1))]


def test_blocks_join_a_short_remainder(monkeypatch):
    """row_blocks covers the rows in order, in blocks of a step; a remainder
    shorter than half a step joins the block before it, so no block is
    shorter than half a step unless it is the only one."""
    for step in range(1, 10):
        monkeypatch.setattr(T, "FFN_BLOCK_BYTES", step * 3 * 8)
        for rows in range(40):
            blocks = T.row_blocks(rows, 3, 8)
            assert blocks[0].start == 0 and blocks[-1].stop == rows
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            sizes = [b.stop - b.start for b in blocks]
            assert all(size == step for size in sizes[:-1])
            assert step <= 2 * sizes[-1] < 3 * step or len(sizes) == 1
            assert (len(sizes) == 1) == (2 * rows < 3 * step)


def test_fd_feed_forward(monkeypatch):
    """10 rows in 3-row blocks: 3, 3 and 4, the last with a remainder of 1
    joined; x is [2, 5, k]."""
    rng = np.random.default_rng(52)
    x, w1, b1, w2, b2 = ffn_leaves(rng, (2, 5, 4), 6)
    monkeypatch.setattr(T, "FFN_BLOCK_BYTES", 3 * 6 * 8)
    assert [b.stop - b.start for b in T.row_blocks(10, 6, 8)] == [3, 3, 4]
    g = rng.standard_normal((2, 5, 4))
    check_grads(lambda: DO.tsum(DO.mul(T.feed_forward(x, w1, b1, w2, b2), g)),
                [x, w1, b1, w2, b2])


@pytest.mark.parametrize("rows", [300, 700])
def test_feed_forward_equals_the_chain(rows):
    """The node against linear(gelu(linear(...))) at h=128, 4h=512, in
    256-row blocks: 300 rows are one block (300 < 1.5 * 256), 700 are 256,
    256 and 188. The output and x's gradient are bit-identical; the weight
    gradients, summed over blocks instead of one GEMM, agree to 1e-13
    relative, and bit for bit in one block. The backward saves one tanh
    block per row block and holds its inputs' arrays."""
    rng = np.random.default_rng(53)
    leaves = ffn_leaves(rng, (rows, 128), 512)
    g = rng.standard_normal((rows, 128))
    runs = []
    for node in (True, False):
        for t in leaves:
            t.grad = None
        x, w1, b1, w2, b2 = leaves
        if node:
            out = T.feed_forward(x, w1, b1, w2, b2)
            bw = out._vertex.bw
            held = {name: c.cell_contents for name, c in
                    zip(bw.__code__.co_freevars, bw.__closure__)}
            # its own arrays are the tanh blocks; the others are inputs
            assert all(any(np.shares_memory(a, t.data) for t in leaves)
                       for a in held.values() if isinstance(a, np.ndarray))
            assert [t.shape for _, t in held["saved"]] == [
                (b.stop - b.start, 512) for b in T.row_blocks(rows, 512, 8)]
        else:
            out = T.linear(DO.gelu(T.linear(x, w1, b1)), w2, b2)
        T.backward(DO.tsum(DO.mul(out, g)))
        runs.append((out.data, [t.grad for t in leaves]))
    (new, gnew), (old, gold) = runs
    assert np.array_equal(new, old) and np.array_equal(gnew[0], gold[0])
    for a, b in zip(gnew[1:], gold[1:]):
        if rows == 300:
            assert np.array_equal(a, b)
        else:
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


# ---------------------------------------------------------------------------
# scatter-add
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_scatter_add_rows_matches_sequential_loop(dtype):
    """Into a table that already holds a gradient: duplicate rows
    accumulate, unused rows keep their values, and the dtype stays."""
    rng = np.random.default_rng(33)
    idx = np.array([4, 1, 4, 0, 4, 1])          # rows 2, 3, 5 unused
    grad = rng.standard_normal((6, 3)).astype(dtype)
    out = rng.standard_normal((6, 3)).astype(dtype)
    expect = out.astype(np.float64)
    for i, r in enumerate(idx):
        expect[r] += grad[i]
    kernels.scatter_add_rows(out, idx, grad)
    assert out.dtype == dtype
    tol = 1e-12 if dtype == np.float64 else 1e-6
    assert np.abs(out - expect).max() < tol


# ---------------------------------------------------------------------------
# misc contracts
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits_is_log_m():
    logits = T.Tensor(np.zeros((3, 7)))
    labels = np.array([1, 4, 7])
    loss = T.cross_entropy_masked(logits, labels)
    assert abs(loss.item() - np.log(7)) < 1e-12


def test_cross_entropy_no_valid_labels_errors():
    with pytest.raises(ValueError):
        T.cross_entropy_masked(T.Tensor(np.zeros((2, 3))), np.array([0, 0]))


@pytest.mark.parametrize("labels,match", [
    ([1, 0, 3], r"1\.\.3"),   # 0 is an error, not an ignored row
    ([1, 4, 3], r"1\.\.3"),   # above m
    ([1, 2], "rows"),         # not one label per row
])
def test_cross_entropy_rejects_labels_it_cannot_score(labels, match):
    with pytest.raises(ValueError, match=match):
        T.cross_entropy_masked(T.Tensor(np.zeros((3, 3))), np.array(labels))


def test_embedding_lookup_out_of_range():
    table = T.Tensor(np.zeros((4, 2)))
    with pytest.raises(IndexError):
        T.embedding_lookup(table, np.array([4]))


def test_float32_kernel_ops_keep_dtype_and_match_float64():
    rng = np.random.default_rng(23)
    idx = np.array([[0, 3, 3], [6, 1, 0]])  # duplicates exercise scatter-add
    labels = np.array([2, 5, 6, 1])
    cases = [
        (DO.softmax_lastdim, rng.standard_normal((2, 3, 5))),
        (lambda t: T.embedding_lookup(t, idx), rng.standard_normal((7, 4))),
        (lambda t: T.cross_entropy_masked(t, labels), rng.standard_normal((4, 6))),
    ]

    def run(op, arr, dtype):
        leaf = T.Tensor(arr.astype(dtype), requires_grad=True)
        out = op(leaf)
        w = np.cos(np.arange(out.data.size)).reshape(out.shape).astype(dtype)
        T.backward(DO.tsum(DO.mul(out, w)))
        return out.data, leaf.grad

    for op, arr in cases:
        out32, grad32 = run(op, arr, np.float32)
        out64, grad64 = run(op, arr, np.float64)
        assert out32.dtype == np.float32 and grad32.dtype == np.float32
        np.testing.assert_allclose(out32, out64, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(grad32, grad64, rtol=1e-5, atol=1e-6)


def test_dropout_train_and_eval():
    rng = np.random.default_rng(19)
    x = T.Tensor(np.ones((1000,)), requires_grad=True)
    out = T.dropout(x, 0.25, rng)
    kept = out.data != 0
    assert 0.6 < kept.mean() < 0.9
    assert np.allclose(out.data[kept], 1 / 0.75)
    same = T.dropout(x, 0.25, None)
    assert same is x


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_dropout_equals_the_float_mask_version(dtype):
    """Forward and gradient, signs of zero included, are those of saving
    the scaled float mask; the backward holds the boolean mask only."""
    rng = np.random.default_rng(43)
    x = rng.standard_normal((6, 7)).astype(dtype)
    x[0, :3] = -0.0
    g = rng.standard_normal((6, 7)).astype(dtype)
    g[1] = -g[1]
    outs = []
    for drop in (T.dropout, DO.float_mask_dropout):
        leaf = T.Tensor(x, requires_grad=True)
        out = drop(leaf, 0.3, np.random.default_rng(5))
        if drop is T.dropout:
            assert saved_arrays(out) == [(x.shape, bool)]
        T.backward(DO.tsum(DO.mul(out, g)))
        outs.append((out.data, leaf.grad))
    (new, gnew), (old, gold) = outs
    assert new.dtype == gnew.dtype == dtype
    for a, b in ((new, old), (gnew, gold)):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_dropout_seeded_reproducible():
    x = np.arange(100.0)
    a = T.dropout(T.Tensor(x), 0.5, np.random.default_rng(7)).data
    b = T.dropout(T.Tensor(x), 0.5, np.random.default_rng(7)).data
    assert np.array_equal(a, b)


def test_determinism_same_seed_bitwise():
    def run():
        rng = np.random.default_rng(42)
        x = T.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        h = DO.gelu(T.linear(x, x))
        h = T.dropout(h, 0.1, rng)
        loss = DO.tsum(DO.mul(h, h))
        T.backward(loss)
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)

"""BERT-style encoder with invasive and non-invasive (NOVA) attention.

Both stacks run the same encode loop and the same layer body; they differ
only in what Q and K read. Invasive mode fuses side information into the
item representations once, before layer 1, so every layer's Q, K, V and
residual read the fused stream. NOVA mode keeps the hidden state in the pure
item-ID space: every layer re-fuses the (fixed) side-feature embeddings with
the current hidden state to form Q and K, while V and the residual read the
hidden state alone. The decoder is tied to the item-ID table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from novabert import embedfuse as EF
from novabert import tensor as T
from novabert.tensor import Tensor

FFN_MULT = 4  # inner feed-forward width, per original BERT
EMB_INIT = 0.02  # uniform [-EMB_INIT, EMB_INIT] for all embedding tables
# the compute precision of a model built without a dtype, and of a CLI run
# without --precision; the oracle tests ask for float64 by name
DEFAULT_DTYPE = np.float32


@dataclass
class ModelConfig:
    hidden_size: int
    num_heads: int
    num_layers: int
    max_len: int
    attention: str = "nova"            # "invasive" | "nova"
    fusion: str = "add"                # "add" | "concat" | "gating"
    dropout: float = 0.1
    mask_prob: float = 0.2
    features: list[str] | None = None  # None = every schema feature
    use_position: bool = True
    gating_mode: str = "softmax"       # "softmax" | "sigmoid"

    def __post_init__(self):
        for key, ok, rule in (
                ("hidden_size", self.hidden_size >= 1, ">= 1"),
                ("num_heads", self.num_heads >= 1
                 and self.hidden_size % self.num_heads == 0,
                 "a divisor of hidden_size"),
                ("num_layers", self.num_layers >= 1, ">= 1"),
                # an evaluation row is one history item plus the mask
                ("max_len", self.max_len >= 2, ">= 2"),
                ("attention", self.attention in ("invasive", "nova"),
                 "invasive or nova"),
                ("fusion", self.fusion in ("add", "concat", "gating"),
                 "add, concat or gating"),
                ("gating_mode", self.gating_mode in ("softmax", "sigmoid"),
                 "softmax or sigmoid"),
                ("dropout", 0 <= self.dropout < 1, "in [0, 1)"),
                ("mask_prob", 0 < self.mask_prob <= 1, "in (0, 1]")):
            if not ok:
                raise ValueError(
                    f"'{key}' must be {rule}, got {getattr(self, key)!r}")

    def fusion_inputs(self, schema):
        """(side, k): the FeatureSpecs of schema a model of this config
        fuses, in fusion order (item features, then behavior features, each
        in schema order), and k, the number of inputs of every fusion site
        (the item-ID representation, side and position if used). A features
        entry the schema lacks is a ValueError that names every such entry."""
        names = [f.name for f in schema.features]
        unknown = [n for n in self.features or () if n not in names]
        if unknown:
            raise ValueError(
                f"features {', '.join(map(repr, unknown))} not in the schema "
                f"(it has {', '.join(names) or 'none'})")
        side = [f for f in schema.item_features() + schema.behavior_features()
                if self.features is None or f.name in self.features]
        return side, 1 + len(side) + self.use_position


def param_shapes(config, schema, m):
    """Every parameter's name and shape, in initialisation order, for a
    catalog of m items.

    Each fusion site (every NOVA layer, or the invasive stack's input) has
    the parameters of its fusion kind: concat an FC from k*h back to h,
    gating the h->1 gate vector, add none."""
    h = config.hidden_size
    side, k = config.fusion_inputs(schema)
    shapes = {"emb.id": (m + 2, h)}
    if config.use_position:
        shapes["emb.pos"] = (config.max_len + 1, h)
    # schema order, not fusion order: this order is Model's draw order
    for f in schema.features:
        if f in side:
            shapes[f"emb.f.{f.name}"] = (f.vocab_size, h)

    def linear(prefix, fan_in, fan_out, bias=True):
        shapes[prefix + ".w"] = (fan_in, fan_out)
        if bias:
            shapes[prefix + ".b"] = (fan_out,)

    def site(prefix):
        if config.fusion == "concat":
            linear(prefix, k * h, h)
        elif config.fusion == "gating":
            shapes[prefix + ".wf"] = (h, 1)

    for i in range(config.num_layers):
        p = f"layer{i}"
        for name in ("wq", "wk", "wv", "wo"):
            # the K bias is inert (softmax ignores per-row constant shifts),
            # so it is omitted
            linear(f"{p}.attn.{name}", h, h, bias=name != "wk")
        linear(f"{p}.ffn.w1", h, FFN_MULT * h)
        linear(f"{p}.ffn.w2", FFN_MULT * h, h)
        for ln in ("ln1", "ln2"):
            shapes[f"{p}.{ln}.g"] = shapes[f"{p}.{ln}.b"] = (h,)
        if config.attention == "nova":
            site(f"{p}.fuse")
    if config.attention == "invasive":
        site("fuse")
    shapes["dec.bias"] = (m,)
    return shapes


def _draw(rng, name, shape):
    """Initial float64 values of one parameter: embedding tables uniform in
    +-EMB_INIT, weights Xavier-uniform, layer-norm gains one; biases and
    the gate vectors (so gates start uniform) zero."""
    if name.startswith("emb."):
        return rng.uniform(-EMB_INIT, EMB_INIT, size=shape)
    if name.endswith(".w"):
        bound = math.sqrt(6.0 / sum(shape))
        return rng.uniform(-bound, bound, size=shape)
    return np.ones(shape) if name.endswith(".g") else np.zeros(shape)


class Model:
    """Owns the parameter tensors and the forward/loss computation.

    A model instance is single-threaded during a training step; read-only
    evaluation on disjoint batches may run concurrently.
    """

    def __init__(self, config, schema, catalog, seed=0, dtype=DEFAULT_DTYPE,
                 arrays=None):
        """A model with freshly drawn parameters, or, given arrays (name ->
        array, with the names and shapes of :func:`param_shapes`), one
        whose parameters are those arrays, used without a copy when they
        are already of dtype; then nothing is drawn and seed is unused."""
        self.config = config
        self.schema = schema
        self.catalog = catalog
        self.dtype = dtype
        # the side features every encode embeds, in fusion order
        self.side, _ = config.fusion_inputs(schema)
        # drawn in param_shapes' order, one array at a time
        rng = np.random.default_rng(seed) if arrays is None else None
        self.params = {}
        for name, shape in param_shapes(config, schema, catalog.m).items():
            a = _draw(rng, name, shape) if arrays is None else arrays[name]
            self.params[name] = Tensor(a.astype(dtype, copy=False),
                                       requires_grad=True)
        # one parameter dict per fusion site, in site order: one per layer
        # (NOVA) or the single input site (invasive)
        sites = ([f"layer{i}.fuse." for i in range(config.num_layers)]
                 if config.attention == "nova" else ["fuse."])
        self.fusion = [{n[len(p):]: t for n, t in self.params.items()
                        if n.startswith(p)} for p in sites]

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None

    # -- forward -----------------------------------------------------------

    def _linear(self, x, prefix):
        return T.linear(x, self.params[prefix + ".w"],
                        self.params.get(prefix + ".b"))

    def _ffn(self, x, layer):
        p = f"layer{layer}.ffn."
        return T.feed_forward(x, *(self.params[p + n]
                                   for n in ("w1.w", "w1.b", "w2.w", "w2.b")))

    def _fuse(self, first, side, site):
        cfg = self.config
        return EF.integrated_embeddings(first, side, cfg.fusion,
                                        self.fusion[site], cfg.gating_mode)

    def _layer(self, layer, qk_src, x, layout, rng, collect):
        """One encoder layer: Q and K read qk_src; V and the residual read x.

        Both are real-token rows [N, h]. The query side (Q, the attention
        rows, Wo, dropout, the residual, LN1, the FFN, dropout, the residual
        and LN2) runs on the query rows of the layout only, so the output
        is [len(layout.pos), h]. Every op after attention is row-wise and
        runs once over all those rows, with or without a graph; only the FFN
        node runs in row blocks (:func:`tensor.feed_forward`). Q, K and V
        are not bound to names, so without a graph they are freed before the
        FFN runs. Dropout draws when a generator rng is given."""
        p = f"layer{layer}"
        q_src, res = qk_src, x
        if layout.picked is not None:
            q_src = T.take_rows(qk_src, layout.picked)
            res = T.take_rows(x, layout.picked)
        out, attn = T.scaled_dot_attention(
            self._linear(q_src, f"{p}.attn.wq"),
            self._linear(qk_src, f"{p}.attn.wk"),
            self._linear(x, f"{p}.attn.wv"), layout, self.config.num_heads,
            attn_dropout=self.config.dropout, rng=rng, collect=collect)
        out = T.dropout(self._linear(out, f"{p}.attn.wo"), self.config.dropout,
                        rng)
        x = T.layer_norm(T.add(res, out),
                         self.params[f"{p}.ln1.g"], self.params[f"{p}.ln1.b"])
        f = T.dropout(self._ffn(x, layer), self.config.dropout, rng)
        return T.layer_norm(T.add(x, f), self.params[f"{p}.ln2.g"],
                            self.params[f"{p}.ln2.b"]), attn

    def invasive_layer(self, layer, x, layout, rng=None, collect=False):
        """One encoder layer on the real-token rows x [N, h].

        layout (a :class:`tensor.AttentionLayout` of the batch) places the
        rows of x and names the query rows the output holds. Returns (the
        output rows, the [B, H, L, L] attention map if collect, else None)."""
        return self._layer(layer, x, x, layout, rng, collect)

    def nova_layer(self, layer, hidden, side, layout, rng=None, collect=False):
        """Q, K from the hidden state re-fused with side at this layer's
        site; V and the residual stay on the ID branch, so the output remains
        in ID space. Rows as in :meth:`invasive_layer`."""
        return self._layer(layer, self._fuse(hidden, side, layer), hidden,
                           layout, rng, collect)

    def encode(self, batch, rng=None, collect_attn=False, positions=None):
        """Run the full stack; returns (hidden, attention maps per layer).

        hidden holds one row [h] per read position: the flat slots
        positions (b * L + l, strictly increasing, real tokens), or by
        default every real token in flat order. Every position-wise op
        (lookups, fusion, projections, FFN, layer norm, dropout) runs on the
        N real tokens only, as [N, h]. The attention core runs one group per
        row length (see :class:`tensor.AttentionLayout`), built once per
        batch from its pad mask, so a row's attention does not depend on the
        other rows of the batch. The last layer runs its query side for the
        read rows only, while its K and V still read every real token.
        Dropout draws when a generator rng is given, at these packed
        shapes, so the random stream depends on which rows are read.

        The maps (collect_attn, which needs every query row) are
        [B, H, L, L], zero at pad query rows and pad keys."""
        cfg = self.config
        L = batch.items.shape[1]
        if L != cfg.max_len:
            raise ValueError(
                f"batch length {L} != model max_len {cfg.max_len}")
        if collect_attn and positions is not None:
            raise ValueError("collect_attn needs every query row; "
                             "pass no positions")
        layout = T.AttentionLayout(batch.pad_mask)
        last = layout if positions is None else layout.at(positions)
        rows = layout.rows
        side = EF.embed_side_features(batch, self.params, self.side, rows,
                                      cfg.use_position)
        x = T.embedding_lookup(self.params["emb.id"],
                               EF.real_rows(batch.items, rows))
        nova = cfg.attention == "nova"
        if not nova:
            x = self._fuse(x, side, 0)
        x = T.dropout(x, cfg.dropout, rng)
        attns = []
        for i in range(cfg.num_layers):
            lay = last if i == cfg.num_layers - 1 else layout
            if nova:  # the identical side tensors are re-fed to every layer
                x, attn = self.nova_layer(i, x, side, lay, rng, collect_attn)
            else:
                x, attn = self.invasive_layer(i, x, lay, rng, collect_attn)
            if collect_attn:
                attns.append(attn)
        return x, attns

    def decode_scores(self, hidden):
        """Tied-embedding logits over items 1..m plus a per-item bias."""
        rows = T.take_rows(self.params["emb.id"], slice(1, self.catalog.m + 1))
        return T.linear(hidden, T.transpose(rows, (1, 0)),
                        self.params["dec.bias"])

    def masked_loss(self, logits, labels):
        """Mean full-vocabulary cross-entropy of logits [n, m] against the
        masked items labels [n] (each in 1..m)."""
        return T.cross_entropy_masked(logits, labels)

    def loss(self, batch, train=False, rng=None):
        """Masked-item cross-entropy of one batch.

        With train, dropout draws its masks from rng, which must be given.
        Only the rows whose label is non-zero are computed past the last
        layer's keys and values and decoded: encode returns them as an
        [n, h] matrix for the tied decoder (BERT's masked-LM head). Loss and
        gradients equal those of decoding every position and reading the
        masked ones, up to summation order."""
        if train and rng is None:
            raise ValueError("a training loss needs a generator rng")
        labels = batch.labels.reshape(-1)
        pos = np.flatnonzero(labels)
        hidden, _ = self.encode(batch, rng if train else None, positions=pos)
        return self.masked_loss(self.decode_scores(hidden), labels[pos])

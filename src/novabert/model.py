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
from dataclasses import dataclass, field

import numpy as np

from novabert import embedfuse as EF
from novabert import tensor as T
from novabert.tensor import Tensor

FFN_MULT = 4  # inner feed-forward width, per original BERT


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
        if self.hidden_size % self.num_heads:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.max_len < 2:
            # an evaluation row is at least one history item plus the mask
            raise ValueError(f"max_len must be >= 2, got {self.max_len}")
        if self.attention not in ("invasive", "nova"):
            raise ValueError(f"unknown attention kind {self.attention!r}")
        if self.fusion not in ("add", "concat", "gating"):
            raise ValueError(f"unknown fusion kind {self.fusion!r}")
        if self.gating_mode not in ("softmax", "sigmoid"):
            raise ValueError(f"unknown gating mode {self.gating_mode!r}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0 < self.mask_prob <= 1:
            raise ValueError(
                f"mask_prob must be in (0, 1], got {self.mask_prob}")

    @property
    def d_k(self):
        return self.hidden_size // self.num_heads

    def active_features(self, schema):
        if self.features is None:
            return [f.name for f in schema.features]
        return list(self.features)


def _xavier(rng, fan_in, fan_out, dtype):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


class Model:
    """Owns the parameter tensors and the forward/loss computation.

    A model instance is single-threaded during a training step; read-only
    evaluation on disjoint batches may run concurrently.
    """

    def __init__(self, config, schema, catalog, seed=0, dtype=np.float64):
        self.config = config
        self.schema = schema
        self.catalog = catalog
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        h = config.hidden_size
        feats = config.active_features(schema)
        self.params = EF.init_embeddings(
            schema, catalog, h, config.max_len, rng,
            features=feats, use_position=config.use_position, dtype=dtype)

        n_fused = 1 + len(feats) + (1 if config.use_position else 0)
        # one parameter dict per fusion site, in site order: one per layer
        # (NOVA) or the single input site (invasive)
        self.fusion = []

        def linear(prefix, fan_in, fan_out, bias=True):
            self.params[prefix + ".w"] = Tensor(
                _xavier(rng, fan_in, fan_out, dtype), requires_grad=True)
            if bias:
                self.params[prefix + ".b"] = Tensor(
                    np.zeros(fan_out, dtype=dtype), requires_grad=True)

        for i in range(config.num_layers):
            p = f"layer{i}"
            for name in ("wq", "wk", "wv", "wo"):
                # the K bias is inert (softmax ignores per-row constant
                # shifts), so it is omitted
                linear(f"{p}.attn.{name}", h, h, bias=name != "wk")
            linear(f"{p}.ffn.w1", h, FFN_MULT * h)
            linear(f"{p}.ffn.w2", FFN_MULT * h, h)
            for ln in ("ln1", "ln2"):
                self.params[f"{p}.{ln}.g"] = Tensor(
                    np.ones(h, dtype=dtype), requires_grad=True)
                self.params[f"{p}.{ln}.b"] = Tensor(
                    np.zeros(h, dtype=dtype), requires_grad=True)
            if config.attention == "nova":
                self._add_fusion_params(f"{p}.fuse", n_fused, rng)
        if config.attention == "invasive":
            self._add_fusion_params("fuse", n_fused, rng)

        self.params["dec.bias"] = Tensor(
            np.zeros(catalog.m, dtype=dtype), requires_grad=True)

    def _add_fusion_params(self, prefix, k, rng):
        site = EF.init_fusion_params(self.config.fusion, k,
                                     self.config.hidden_size, rng,
                                     dtype=self.dtype)
        for name, t in site.items():
            self.params[f"{prefix}.{name}"] = t
        self.fusion.append(site)

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None

    # -- forward -----------------------------------------------------------

    def _linear(self, x, prefix):
        out = T.matmul(x, self.params[prefix + ".w"])
        if prefix + ".b" in self.params:
            out = T.add(out, self.params[prefix + ".b"])
        return out

    def _heads(self, x, prefix, pad_mask, rows):
        """Projection of the real-token rows x [N, h] -> [B, H, L, d], zero
        at the pad slots."""
        B, L = pad_mask.shape
        H, d = self.config.num_heads, self.config.d_k
        full = T.put_rows(self._linear(x, prefix), rows, B * L)
        return T.transpose(T.reshape(full, (B, L, H, d)), (0, 2, 1, 3))

    def _merge_heads(self, x, rows):
        """[B, H, L, d] -> the real-token rows [N, h]."""
        B, H, L, d = x.shape
        flat = T.reshape(T.transpose(x, (0, 2, 1, 3)), (B * L, H * d))
        return T.take_rows(flat, rows)

    def _dropout(self, x, pad_mask, rows, train, rng):
        return T.dropout(x, self.config.dropout, rng, train, rows=rows,
                         n=pad_mask.size)

    def _ffn(self, x, layer):
        h = T.gelu(self._linear(x, f"layer{layer}.ffn.w1"))
        return self._linear(h, f"layer{layer}.ffn.w2")

    def _fuse(self, first, side, site):
        cfg = self.config
        return EF.integrated_embeddings(first, side, cfg.fusion,
                                        self.fusion[site], cfg.gating_mode)

    def _layer(self, layer, qk_src, x, pad_mask, rows, train, rng):
        """One encoder layer: Q and K read qk_src; V and the residual read x.

        Both are real-token rows [N, h], as is the output; only the attention
        core runs at [B, H, L, L]. Q, K and V are not bound to names, so
        without a graph they are freed before the FFN runs."""
        p = f"layer{layer}"
        out, attn = T.scaled_dot_attention(
            self._heads(qk_src, f"{p}.attn.wq", pad_mask, rows),
            self._heads(qk_src, f"{p}.attn.wk", pad_mask, rows),
            self._heads(x, f"{p}.attn.wv", pad_mask, rows),
            key_mask=pad_mask[:, None, None, :],
            attn_dropout=self.config.dropout, rng=rng, train=train)
        out = self._linear(self._merge_heads(out, rows), f"{p}.attn.wo")
        out = self._dropout(out, pad_mask, rows, train, rng)
        x = T.layer_norm(T.add(x, out),
                         self.params[f"{p}.ln1.g"], self.params[f"{p}.ln1.b"])
        f = self._dropout(self._ffn(x, layer), pad_mask, rows, train, rng)
        return T.layer_norm(T.add(x, f), self.params[f"{p}.ln2.g"],
                            self.params[f"{p}.ln2.b"]), attn

    def invasive_layer(self, layer, x, pad_mask, rows, train=False, rng=None):
        """One encoder layer on the real-token rows x [N, h].

        pad_mask [B, L] marks the real tokens; rows = flatnonzero(pad_mask)
        are their flat positions, in the order of x's rows."""
        return self._layer(layer, x, x, pad_mask, rows, train, rng)

    def nova_layer(self, layer, hidden, side, pad_mask, rows, train=False,
                   rng=None):
        """Q, K from the hidden state re-fused with side at this layer's
        site; V and the residual stay on the ID branch, so the output remains
        in ID space. Rows as in :meth:`invasive_layer`."""
        return self._layer(layer, self._fuse(hidden, side, layer), hidden,
                           pad_mask, rows, train, rng)

    def encode(self, batch, train=False, rng=None, collect_attn=False):
        """Run the full stack; returns (hidden [B,L,h], attn maps per layer).

        Every position-wise op (lookups, fusion, projections, FFN, layer
        norm, dropout) runs on the N real tokens only, as [N, h]; only the
        attention core is [B, H, L, L]. The pad rows of hidden are exactly
        zero. Dropout draws its masks at [B, L, h], so the random stream is
        that of the unpacked model. In the attention maps, the rows of pad
        queries carry no meaning."""
        cfg = self.config
        B, L = batch.items.shape
        if L != cfg.max_len:
            raise ValueError(
                f"batch length {L} != model max_len {cfg.max_len}")
        pad_mask = batch.pad_mask
        rows = np.flatnonzero(pad_mask)
        side = EF.embed_side_features(batch, self.params, self.schema,
                                      features=cfg.active_features(self.schema),
                                      use_position=cfg.use_position, rows=rows)
        x = T.embedding_lookup(self.params["emb.id"],
                               EF.real_rows(batch.items, rows))
        nova = cfg.attention == "nova"
        if not nova:
            x = self._fuse(x, side, 0)
        x = self._dropout(x, pad_mask, rows, train, rng)
        attns = []
        for i in range(cfg.num_layers):
            if nova:  # the identical side tensors are re-fed to every layer
                x, attn = self.nova_layer(i, x, side, pad_mask, rows, train,
                                          rng)
            else:
                x, attn = self.invasive_layer(i, x, pad_mask, rows, train, rng)
            if collect_attn:
                attns.append(attn)
        full = T.put_rows(x, rows, B * L)
        return T.reshape(full, (B, L, cfg.hidden_size)), attns

    def decode_scores(self, hidden):
        """Tied-embedding logits over items 1..m plus a per-item bias."""
        rows = T.take_rows(self.params["emb.id"], slice(1, self.catalog.m + 1))
        return T.add(T.matmul(hidden, T.transpose(rows, (1, 0))),
                     self.params["dec.bias"])

    def masked_loss(self, logits, labels):
        """Mean full-vocabulary cross-entropy over the masked positions."""
        m = self.catalog.m
        flat = T.reshape(logits, (-1, m))
        return T.cross_entropy_masked(flat, labels.reshape(-1))

    def loss(self, batch, train=False, rng=None):
        """Masked-item cross-entropy of one batch.

        Only the hidden rows whose label is non-zero are decoded: they are
        gathered into an [N, h] matrix before the tied decoder (BERT's
        masked-LM head). Loss and gradients equal those of decoding every
        position and reading the masked ones, up to summation order."""
        hidden, _ = self.encode(batch, train=train, rng=rng)
        B, L, h = hidden.shape
        labels = batch.labels.reshape(-1)
        rows = np.flatnonzero(labels)
        picked = T.take_rows(T.reshape(hidden, (B * L, h)), rows)
        return self.masked_loss(self.decode_scores(picked), labels[rows])

    def first_layer_values(self, batch):
        """Layer-1 value-path input V*W_V (the ID-branch purity probe)."""
        if self.config.attention != "nova":
            raise ValueError("value probe is defined for NOVA mode")
        hidden = T.embedding_lookup(self.params["emb.id"], batch.items)
        return self._linear(hidden, "layer0.attn.wv")

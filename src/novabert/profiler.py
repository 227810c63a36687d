"""Closed-form forward-pass FLOP accounting, and the parameter count of the
model those FLOPs describe.

Conventions (fixed, documented here so the numbers are reproducible):

* one multiply-accumulate = 2 FLOPs;
* an embedding lookup over a table with V rows is charged as a dense
  one-hot projection, 2*V*h FLOPs per position (so adding a feature has
  a cost proportional to its vocabulary, which is what makes side
  information show up in the totals at all);
* softmax = 5 FLOPs per element (max, subtract, exp, sum, divide);
* layer norm = 8 FLOPs per element;
* GELU (tanh form) = 10 FLOPs per element;
* parameter bytes are reported at 32-bit storage.

Absolute numbers depend on these choices; comparisons between two
configurations profiled under the same conventions do not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from novabert.model import FFN_MULT, Model
from novabert.synthetic import make_catalog

MAC = 2
SOFTMAX_COST = 5
LN_COST = 8
GELU_COST = 10
PARAM_BYTES = 4


@dataclass
class CostProfile:
    flops_total: int
    flops_breakdown: dict
    params: int
    param_bytes: int
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        parts = sum(self.flops_breakdown.values())
        if self.flops_total != parts:
            raise ValueError(
                f"flops_total {self.flops_total} != sum of breakdown {parts}")
        if self.param_bytes != self.params * PARAM_BYTES:
            raise ValueError(
                f"param_bytes {self.param_bytes} != {self.params} params "
                f"x {PARAM_BYTES} bytes")

    def to_dict(self):
        return {"flops_total": self.flops_total,
                "flops_breakdown": dict(self.flops_breakdown),
                "params": self.params,
                "param_bytes": self.param_bytes,
                "notes": dict(self.notes)}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _linear(n_pos, d_in, d_out, bias=True):
    return MAC * n_pos * d_in * d_out + (n_pos * d_out if bias else 0)


def _active_features(config, schema):
    names = config.active_features(schema)
    return [f for f in schema.features if f.name in names]


def _fusion_flops(config, schema, n_apply):
    """FLOPs for fusing the hidden state with the side components.

    k = number of tensors entering the fusion (hidden plus each side
    component); n_apply = how many times the fusion runs in the stack.
    """
    h, L = config.hidden_size, config.max_len
    feats = _active_features(config, schema)
    k = 1 + len(feats) + (1 if config.use_position else 0)
    if k == 1:
        return 0
    if config.fusion == "add":
        per = (k - 1) * L * h
    elif config.fusion == "concat":
        per = _linear(L, k * h, h)
    else:  # gating
        per = (MAC * L * k * h          # scores F . w^F
               + SOFTMAX_COST * L * k   # softmax over the k components
               + MAC * L * k * h)       # convex combination
    return n_apply * per


def _embedding_flops(config, schema, num_items):
    h, L = config.hidden_size, config.max_len
    total = MAC * L * (num_items + 2) * h          # ID table (pad + mask rows)
    if config.use_position:
        total += MAC * L * (L + 1) * h
    for f in _active_features(config, schema):
        total += MAC * L * f.vocab_size * h
    return total


def _attention_flops(config):
    h, L, H = config.hidden_size, config.max_len, config.num_heads
    per_layer = (_linear(L, h, h)                  # Q
                 + _linear(L, h, h, bias=False)    # K (no bias)
                 + _linear(L, h, h)                # V
                 + MAC * L * L * h                 # Q K^T over all heads
                 + H * L * L                       # 1/sqrt(d_k) scaling
                 + SOFTMAX_COST * H * L * L
                 + MAC * L * L * h                 # attn . V
                 + _linear(L, h, h)                # output projection
                 + L * h                           # residual add
                 + LN_COST * L * h)                # layer norm
    return config.num_layers * per_layer


def _ffn_flops(config):
    h, L = config.hidden_size, config.max_len
    d = FFN_MULT * h
    per_layer = (_linear(L, h, d)
                 + GELU_COST * L * d
                 + _linear(L, d, h)
                 + L * h                           # residual add
                 + LN_COST * L * h)
    return config.num_layers * per_layer


def _decoder_flops(config, num_items):
    return _linear(config.max_len, config.hidden_size, num_items)


def count_params(config, schema, num_items):
    """Parameter count: the sizes a Model of this shape allocates."""
    model = Model(config, schema, make_catalog(num_items))
    return sum(p.data.size for p in model.params.values())


def profile_cost(config, schema, num_items):
    """Forward-pass cost for a single length-max_len sequence."""
    # NOVA re-fuses the evolving hidden state before every layer; the
    # invasive stack fuses once at the input.
    n_fuse = config.num_layers if config.attention == "nova" else 1
    breakdown = {
        "embeddings": _embedding_flops(config, schema, num_items),
        "fusion": _fusion_flops(config, schema, n_fuse),
        "attention": _attention_flops(config),
        "ffn": _ffn_flops(config),
        "decoder": _decoder_flops(config, num_items),
    }
    params = count_params(config, schema, num_items)
    return CostProfile(flops_total=sum(breakdown.values()),
                       flops_breakdown=breakdown,
                       params=params,
                       param_bytes=params * PARAM_BYTES,
                       notes={"mac_flops": MAC,
                              "softmax_per_element": SOFTMAX_COST,
                              "layer_norm_per_element": LN_COST,
                              "gelu_per_element": GELU_COST,
                              "lookup_convention": "one-hot projection",
                              "sequence_length": config.max_len})

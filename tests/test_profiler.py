import pytest

from novabert import profiler as P
from novabert.data import FeatureSpec, SideInfoSchema
from novabert.model import ModelConfig


def empty_schema():
    return SideInfoSchema([])


def movie_schema():
    """Catalog-style schema with known vocabulary sizes."""
    year = FeatureSpec("year", "item", "bucketed",
                       buckets=[float(y) for y in range(1920, 2000)])
    genre = FeatureSpec("genre", "item", "multi")
    genre.vocab = {f"g{i}": i + 2 for i in range(18)}
    rating = FeatureSpec("rating", "behavior", "categorical")
    rating.vocab = {str(v): v + 1 for v in range(1, 6)}
    return SideInfoSchema([year, genre, rating])


def test_hand_count_tiny_config():
    """h=4, one head, one layer, L=2, m=3, position only, add fusion."""
    cfg = ModelConfig(hidden_size=4, num_heads=1, num_layers=1, max_len=2,
                      attention="nova", fusion="add")
    prof = P.profile_cost(cfg, empty_schema(), num_items=3)
    bd = prof.flops_breakdown

    # embeddings: ID one-hot (2*2*5*4) + position one-hot (2*2*3*4)
    assert bd["embeddings"] == 80 + 48
    # fusion: add of hidden + position, one application, (k-1)*L*h
    assert bd["fusion"] == 1 * 2 * 4
    # attention: Q(72) + K(64, no bias) + V(72) + QK^T(32) + scale(4)
    #            + softmax(20) + attnV(32) + out proj(72) + residual(8) + LN(64)
    assert bd["attention"] == 72 + 64 + 72 + 32 + 4 + 20 + 32 + 72 + 8 + 64
    # FFN: in(288) + GELU(320) + out(264) + residual(8) + LN(64)
    assert bd["ffn"] == 288 + 320 + 264 + 8 + 64
    # decoder: 2*2*4*3 + 2*3
    assert bd["decoder"] == 48 + 6
    assert prof.flops_total == sum(bd.values())
    # params: ID table (5*4) + position table (3*4) + Q, V, out (20 each)
    #         + K (16, no bias) + FFN in (80) + FFN out (68) + 2 LN (8 each)
    #         + decoder bias (3)
    assert prof.params == 20 + 12 + 3 * 20 + 16 + 80 + 68 + 2 * 8 + 3


def test_nova_invasive_same_params_near_same_flops():
    schema = movie_schema()
    kw = dict(hidden_size=64, num_heads=2, num_layers=2, max_len=100,
              fusion="add")
    nova = P.profile_cost(ModelConfig(attention="nova", **kw), schema, 500)
    inv = P.profile_cost(ModelConfig(attention="invasive", **kw), schema, 500)
    assert nova.params == inv.params
    ratio = nova.flops_total / inv.flops_total
    assert 0.999 <= ratio <= 1.001
    assert nova.flops_total > inv.flops_total  # extra per-layer re-fusion


def test_side_info_overhead_band():
    schema = movie_schema()
    kw = dict(hidden_size=64, num_heads=2, num_layers=2, max_len=100)
    base = P.profile_cost(ModelConfig(features=[], **kw), schema, 500)
    for attention in ("invasive", "nova"):
        full = P.profile_cost(ModelConfig(attention=attention, **kw),
                              schema, 500)
        overhead = full.flops_total / base.flops_total - 1
        assert 0.02 <= overhead <= 0.06


def test_fusion_kinds_ordered_by_cost():
    schema = movie_schema()
    kw = dict(hidden_size=32, num_heads=2, num_layers=2, max_len=50)
    flops = {f: P.profile_cost(ModelConfig(fusion=f, **kw), schema, 100)
             .flops_total for f in ("add", "concat", "gating")}
    assert flops["add"] < flops["gating"] < flops["concat"]


def test_profile_serialization_round_trip():
    import json
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1, max_len=4)
    prof = P.profile_cost(cfg, movie_schema(), 20)
    loaded = json.loads(prof.to_json())
    assert loaded["flops_total"] == prof.flops_total
    assert loaded["params"] == prof.params
    assert loaded["param_bytes"] == prof.params * 4


def test_breakdown_invariant_enforced():
    with pytest.raises(ValueError):
        P.CostProfile(flops_total=10, flops_breakdown={"a": 3}, params=1,
                      param_bytes=4)

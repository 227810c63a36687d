import hashlib
import json

import pytest

from novabert import profiler as P
from novabert.data import FeatureSpec, SideInfoSchema
from novabert.model import Model, ModelConfig, param_shapes


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


def behavior_first_schema():
    """movie_schema's features with the behavior feature listed first."""
    year, genre, rating = movie_schema().features
    return SideInfoSchema([rating, year, genre])


GRID_FEATURES = {"all": None, "none": [], "item": ["genre", "year"],
                 "behavior": ["rating"]}
# profile_cost(...).flops_total and count_params of the grid below (h=8, two
# heads, two layers, L=6, 20 items), recorded before the side features were
# resolved in one place: per (attention, fusion), the features of
# GRID_FEATURES in order, each with use_position on, then off. Both schemas
# give these numbers.
RECORDED_TOTALS = {
    ("invasive", "add"): [(43512, 2860), (42792, 2804), (32808, 1980),
                          (32088, 1924), (42792, 2804), (42072, 2748),
                          (33528, 2036), (32808, 1980)],
    ("invasive", "concat"): [(47208, 3188), (45768, 3068), (34344, 2116),
                             (32088, 1996), (45768, 3068), (44328, 2948),
                             (35784, 2236), (34344, 2116)],
    ("invasive", "gating"): [(44430, 2868), (43536, 2812), (33204, 1988),
                             (32088, 1932), (43536, 2812), (42642, 2756),
                             (34098, 2044), (33204, 1988)],
    ("nova", "add"): [(43704, 2860), (42936, 2804), (32856, 1980),
                      (32088, 1924), (42936, 2804), (42168, 2748),
                      (33624, 2036), (32856, 1980)],
    ("nova", "concat"): [(51096, 3516), (48888, 3332), (35928, 2252),
                         (32088, 2068), (48888, 3332), (46680, 3148),
                         (38136, 2436), (35928, 2252)],
    ("nova", "gating"): [(45540, 2876), (44424, 2820), (33648, 1996),
                         (32088, 1940), (44424, 2820), (43308, 2764),
                         (34764, 2052), (33648, 1996)],
}
# sha256 of the JSON (sort_keys) of every grid entry's [key, to_dict(),
# count_params, list(param_shapes)], recorded at the same point
RECORDED_DIGEST = \
    "fa26d40c5d2d09f67ea0c2d4a0d9de69bae8325c1cbea4e9ff7d7a4a215e0073"


def test_costs_and_shapes_equal_recorded_values():
    """Every breakdown, parameter count and parameter-table key order over
    both attentions, every fusion kind, four feature sets and position on
    and off, on two schemas, equals the values recorded before the side
    features were resolved in one place."""
    items, totals = [], {}
    for sname, schema in (("movie", movie_schema()),
                          ("behavior_first", behavior_first_schema())):
        for attention in ("invasive", "nova"):
            for fusion in ("add", "concat", "gating"):
                for fname, feats in GRID_FEATURES.items():
                    for pos in (True, False):
                        cfg = ModelConfig(hidden_size=8, num_heads=2,
                                          num_layers=2, max_len=6,
                                          attention=attention, fusion=fusion,
                                          features=feats, use_position=pos)
                        prof = P.profile_cost(cfg, schema, 20)
                        params = P.count_params(cfg, schema, 20)
                        items.append([[sname, attention, fusion, fname, pos],
                                      prof.to_dict(), params,
                                      list(param_shapes(cfg, schema, 20))])
                        totals.setdefault((sname, attention, fusion), []) \
                            .append((prof.flops_total, params))
    for (_, attention, fusion), got in totals.items():
        assert got == RECORDED_TOTALS[attention, fusion], (attention, fusion)
    blob = json.dumps(items, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == RECORDED_DIGEST


@pytest.mark.parametrize("features,names,k", [
    (None, ["year", "genre", "rating"], 5),
    (["rating", "genre"], ["genre", "rating"], 4),
    (["rating"], ["rating"], 3),
    ([], [], 2),
])
def test_fusion_inputs_in_fusion_order(features, names, k):
    """Item features, then behavior features, each in schema order, whatever
    order the config lists them in; k counts the ID and position inputs."""
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1, max_len=4,
                      features=features)
    side, got_k = cfg.fusion_inputs(behavior_first_schema())
    assert [f.name for f in side] == names and got_k == k


def test_feature_the_schema_lacks_is_refused():
    """Every entry the schema lacks is named, by each reader of the
    config's side features, for every fusion kind."""
    schema = movie_schema()
    for fusion in ("add", "concat", "gating"):
        cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1,
                          max_len=4, fusion=fusion,
                          features=["ratng", "rating", "yaer"])
        for call in (lambda: cfg.fusion_inputs(schema),
                     lambda: param_shapes(cfg, schema, 20),
                     lambda: P.profile_cost(cfg, schema, 20),
                     lambda: P.count_params(cfg, schema, 20),
                     lambda: Model(cfg, schema, None)):
            with pytest.raises(ValueError, match="'ratng', 'yaer'"):
                call()

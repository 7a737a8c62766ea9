"""Model parameter groups: structure, determinism, and size accounting."""

import numpy as np

from akgp.config import TrainConfig
from akgp.fusion import PARAM_GROUPS
from akgp.kg import build_graph
from akgp.model import init_model
from akgp.rng import derive_seed
from akgp.synthbench import gen_world
from akgp.tensor import xavier


def default_model(seed=0):
    cfg = TrainConfig(seed=seed)
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    graph = build_graph(world.triples)
    return cfg, graph, init_model(cfg, graph)


def test_groups_complete_and_uniquely_named():
    _, _, model = default_model()
    assert tuple(model.groups()) == PARAM_GROUPS
    names = [name for name, _ in model.named_tensors()]
    assert len(names) == len(set(names))
    assert all(t.requires_grad for _, t in model.named_tensors())


def test_node_features_are_the_graph_tagged_draw_and_lead_the_knowledge_group():
    cfg, graph, model = default_model(seed=3)
    features = model.theta_k["node_features"]
    drawn = xavier([graph.n_nodes, cfg.d_k], derive_seed(cfg.seed, "graph"))
    assert features.data.tobytes() == drawn.data.tobytes() and features.requires_grad
    assert model.gnn_params().features is features
    # the order of the checkpoint's tensor records
    assert [name for name, _ in model.named_tensors()] == [
        "theta_v.weight", "theta_v.bias", "theta_t.table", "theta_t.weight", "theta_t.bias",
        "theta_m.weight", "theta_m.bias",
        "theta_k.node_features", "theta_k.w1", "theta_k.b1", "theta_k.w2", "theta_k.b2",
        "w_g.weight", "w_g.bias",
        "theta_a.w_hidden", "theta_a.b_hidden", "theta_a.w_out", "theta_a.b_out"]


def test_init_deterministic_per_seed():
    _, _, a = default_model(seed=3)
    _, _, b = default_model(seed=3)
    _, _, c = default_model(seed=4)
    for (name_a, ta), (name_b, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert name_a == name_b
        assert np.array_equal(ta.data, tb.data)
    assert any(not np.array_equal(ta.data, tc.data)
               for (_, ta), (_, tc) in zip(a.named_tensors(), c.named_tensors()))


def test_shapes_follow_config():
    cfg, _, model = default_model()
    assert model.theta_v["weight"].shape == (cfg.d_i, cfg.d_m)
    assert model.theta_t["table"].shape == (cfg.vocab_size, cfg.d_t)
    assert model.w_g["weight"].shape == (2 * cfg.d_m, cfg.d_m)
    assert model.theta_a["w_out"].shape == (cfg.d_a, cfg.n_classes)


def parameter_counts(model) -> dict[str, int]:
    return {g: sum(t.size for t in tensors.values())
            for g, tensors in model.groups().items()}


def test_adaptor_head_is_a_small_fraction():
    # The task head stays a minor share of the model even at the deliberately
    # tiny default dims; at production-like widths the share shrinks further.
    _, _, model = default_model()
    counts = parameter_counts(model)
    share = counts["theta_a"] / sum(counts.values())
    assert share < 0.25
    assert counts["theta_a"] < 3000

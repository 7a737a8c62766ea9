"""Component ablation on a reduced synthetic world: how much each piece of
the knowledge path contributes.

The label of every example is an attribute its entity carries only in the
knowledge graph, never in the input features, so configurations without a
working retrieval+alignment path can only memorize entities. The default
acceptance-scale world lives in the config defaults; this demo shrinks the
run so it finishes in roughly half a minute.

Run:  python demos/04_ablation_benchmark.py
"""

from akgp.config import TrainConfig, WorldConfig
from akgp.kg import build_graph
from akgp.synthbench import (
    ablation_markdown,
    gen_dataset,
    gen_world,
    run_ablation,
    split_dataset,
)

cfg = TrainConfig(
    pretrain_epochs=12, finetune_epochs=15,
    world=WorldConfig(n_entities=12, n_attributes=4, n_examples=900,
                      sigma_noise=1.0, seed=7),
)
world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
cfg.vocab_size = world.vocab_size

data = gen_dataset(world, cfg.world.n_examples, seed=cfg.world.seed)
train, test = split_dataset(data)
print(f"{cfg.world.n_entities} entities, {cfg.world.n_attributes} attributes, "
      f"{len(train)} train / {len(test)} test examples")
print("chance accuracy:", 1.0 / cfg.world.n_attributes)

rows = run_ablation(build_graph(world.triples), train, test, cfg, seeds=[0, 1, 2])
print()
print(ablation_markdown(rows))
print("Reading the table: the baseline has no knowledge path, +encoder sees "
      "a mean-pooled graph embedding, +retrieval selects the best node per "
      "example, +alignment adds the contrastive pretraining stage, and full "
      "adds the gated integration path.")

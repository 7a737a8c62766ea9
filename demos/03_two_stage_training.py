"""The full loop: alignment pretraining, frozen-backbone fine-tuning,
deterministic resume from a checkpoint.

Run:  python demos/03_two_stage_training.py
"""

import os
import tempfile

from akgp.config import TrainConfig, WorldConfig
from akgp.kg import build_graph
from akgp.synthbench import gen_dataset, gen_world, split_dataset
from akgp.trainer import (
    STAGE_FINETUNE,
    collate_dataset,
    evaluate,
    finetune_epoch,
    load_state,
    make_run,
    pretrain_epoch,
    save_state,
    start_stage,
)

cfg = TrainConfig(
    pretrain_epochs=15, finetune_epochs=15, seed=1,
    world=WorldConfig(n_entities=10, n_attributes=4, n_examples=600,
                      sigma_noise=0.6, seed=2),
)
world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
cfg.vocab_size = world.vocab_size
data = gen_dataset(world, cfg.world.n_examples, seed=cfg.world.seed)
train, test = split_dataset(data)
graph = build_graph(world.triples)

state = make_run(cfg, graph)
train_set = collate_dataset(state, train)  # once; each epoch cuts its batches from it
print("=== stage 1: contrastive alignment (task head frozen) ===")
for epoch in range(cfg.pretrain_epochs):
    stats = pretrain_epoch(state, train_set)
    print(f"epoch {epoch:2d}  align loss {stats['mean_align_loss']:.4f}")
print("retrieval hit rate after pretraining:",
      round(evaluate(state, test)["retrieval_hit_rate"], 3))

print("\n=== stage 2: fine-tuning (backbone and graph frozen) ===")
start_stage(state, STAGE_FINETUNE)
for epoch in range(cfg.finetune_epochs):
    stats = finetune_epoch(state, train_set)
    print(f"epoch {epoch:2d}  total {stats['mean_total_loss']:.4f} "
          f"accuracy {stats['accuracy']:.3f}")

metrics = evaluate(state, test)
print("\ntest metrics:", {k: round(v, 4) for k, v in metrics.items()})

print("\n=== bit-exact resume ===")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "checkpoint.akgp")
    save_state(path, state)
    twin = load_state(path, cfg, build_graph(world.triples))
    a = finetune_epoch(state, train_set)
    b = finetune_epoch(twin, train_set)
    print("one more epoch, original:", a["mean_total_loss"])
    print("one more epoch, restored:", b["mean_total_loss"])
    print("trajectories identical:", a == b)

"""Print the cost, in microseconds, of each section of a default-world
training step.

Usage, from any directory::

    python tests/step_costs.py [--repeats N]

The script imports the akgp package from the ``src`` directory next to its
own ``tests`` directory, so a copy of it placed in another checkout times
that checkout. It builds the default world (24 knowledge nodes) and the
training split of its 2,000 examples, as ``akgp ablate`` does, and runs
the ``full`` configuration's fine-tuning: the encoders and the knowledge
frozen, the gate and the adaptor trained.

Fine-tuning is timed section by section, in a copy of the trainer's epoch
loop for that case: per step, its inputs (the knowledge matrix and the
step's encoded rows), the task head, the task loss, the checks (the
frozen alignment term, the three finiteness checks and the total loss),
the backward pass and the Adam update; per epoch, the shuffle, the frozen
alignment terms, and the stage's encoded rows and their top-1 retrieval.
A whole ``finetune_epoch`` and a whole ``pretrain_epoch`` are timed too.
Each line is the minimum over ``--repeats`` epochs, as a mean per step
for the step sections and the whole epochs, and per epoch for the others.

The numbers are per-op Python overhead on a 24-node graph: perfbench's
traced ablation runs its cells in forked children, which its spans do not
see, so this script is the per-layer view of the ablation's cells.
Compare two checkouts' lines only on the same host and numpy version.

The file name does not start with ``test_``, so pytest does not collect it.
It needs only the standard library and akgp's own dependencies.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from akgp import trainer  # noqa: E402
from akgp.config import TrainConfig  # noqa: E402
from akgp.kg import build_graph  # noqa: E402
from akgp.losses import loss_cls_batch, loss_total  # noqa: E402
from akgp.optim import adam_step  # noqa: E402
from akgp.synthbench import gen_dataset, gen_world, split_dataset  # noqa: E402
from akgp.tensor import Tape, Tensor, backward  # noqa: E402
from akgp.trainer import FULL_PIPELINE, STAGE_FINETUNE  # noqa: E402

STEP_SECTIONS = ["inputs", "head", "task_loss", "checks", "backward", "adam"]
EPOCH_SECTIONS = ["shuffle", "frozen_terms", "encoded_rows"]


def _finetune_sections(state, dataset) -> dict[str, float]:
    """Seconds spent in each section over one fine-tuning epoch, the step
    sections as a mean per step."""
    cfg, variant = state.cfg, FULL_PIPELINE
    spent = dict.fromkeys(STEP_SECTIONS + EPOCH_SECTIONS, 0.0)
    clock = time.perf_counter
    start = clock()
    state.cache.batch = None  # encode the stage's rows again
    encoded = trainer._encoded_dataset(state, dataset, variant)
    spent["encoded_rows"] = clock() - start
    start = clock()
    order = list(range(len(dataset)))
    state.rng.shuffle(order)
    steps = list(trainer._row_chunks(order, cfg.batch_size))
    spent["shuffle"] = clock() - start
    start = clock()
    fixed_align = trainer._frozen_align_terms(state, steps)
    spent["frozen_terms"] = clock() - start
    for i, rows in enumerate(steps):
        step = state.opt.t + 1
        t0 = clock()
        with Tape() as tape:
            knowledge = trainer.knowledge_matrix(state, None)
            fused = Tensor(encoded.fused[rows])
            retrieved = encoded.retrieved[rows]
            t1 = clock()
            logits, retrieved = trainer._task_head(state.model, knowledge, fused, variant,
                                                   retrieved=retrieved)
            t2 = clock()
            task = loss_cls_batch(logits, dataset.labels[rows])
            t3 = clock()
            align = Tensor(np.asarray(fixed_align[i]))
            trainer._check_finite(align.item(), step, "alignment loss")
            trainer._check_finite(task.item(), step, "task loss")
            loss = loss_total(align, task, cfg.lambda1, cfg.lambda2)
            trainer._check_finite(loss.item(), step, "total loss")
            t4 = clock()
        backward(loss, tape)
        t5 = clock()
        adam_step(state.model, state.opt, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
        t6 = clock()
        for name, a, b in zip(STEP_SECTIONS, (t0, t1, t2, t3, t4, t5), (t1, t2, t3, t4, t5, t6)):
            spent[name] += b - a
    for name in STEP_SECTIONS:
        spent[name] /= len(steps)
    return spent


def _epoch_per_step(run_epoch, state, dataset) -> float:
    n_steps = -(-len(dataset) // state.cfg.batch_size)
    start = time.perf_counter()
    run_epoch(state, dataset)
    return (time.perf_counter() - start) / n_steps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=30,
                        help="epochs timed per line; each line is their minimum")
    args = parser.parse_args(argv)
    cfg = TrainConfig()
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    graph = build_graph(world.triples)
    train, _ = split_dataset(gen_dataset(world, cfg.world.n_examples, cfg.world.seed))

    pretrain = trainer.make_run(cfg, graph)
    dataset = trainer.collate_dataset(pretrain, train)
    finetune = trainer.make_run(cfg, graph)
    trainer.start_stage(finetune, STAGE_FINETUNE)
    best: dict[str, float] = {}
    for _ in range(args.repeats):
        times = _finetune_sections(finetune, dataset)
        times["finetune_epoch"] = _epoch_per_step(trainer.finetune_epoch, finetune, dataset)
        times["pretrain_epoch"] = _epoch_per_step(trainer.pretrain_epoch, pretrain, dataset)
        for name, seconds in times.items():
            best[name] = min(best.get(name, seconds), seconds)
    per = {name: "per step" for name in STEP_SECTIONS + ["finetune_epoch", "pretrain_epoch"]}
    for name in STEP_SECTIONS + ["finetune_epoch"] + EPOCH_SECTIONS + ["pretrain_epoch"]:
        print(f"{name:16s} {best[name] * 1e6:10.1f} us {per.get(name, 'per epoch')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point for reproducible runs.

Subcommands: ``gen-data`` (synthetic world to files), ``pretrain``,
``finetune``, ``eval``, ``retrieve``, ``ablate``, ``check-grads``.

Exit codes: 0 success, 1 usage error, 2 data or config error, 3 numeric
failure mid-run. Errors go to standard error as one JSON line
``{"code": N, "message": "..."}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .checkpoint import load_checkpoint
from .config import ConfigError, TrainConfig, parse_config
from .data import DataError, read_examples, write_examples
from .gradcheck import run_gradient_report
from .kg import build_graph, load_triples, save_triples, subgraph_stats
from .manifest import write_manifest
from .retrieval import cosine_scores, topk_indices
from .synthbench import (
    DEFAULT_ABLATION_SEEDS,
    TEMPLATE_TOKENS,
    ablation_csv,
    ablation_markdown,
    gen_dataset,
    gen_world,
    run_ablation,
    split_dataset,
)
from .trainer import (
    STAGE_FINETUNE,
    STAGE_PRETRAIN,
    NumericError,
    collate_dataset,
    encode_rows,
    evaluate,
    finetune_epoch,
    knowledge_matrix,
    load_state,
    make_run,
    pretrain_epoch,
    save_state,
    start_stage,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

CHECKPOINT_NAME = "checkpoint.akgp"
RUN_LOG_NAME = "run_log.jsonl"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="akgp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, help, run, stage=None, kg=True, data=True, out=True, resume=False):
        """Declare a subcommand and its handler ``run(args)``. One with a
        training ``stage`` loads its run in that stage and takes ``--checkpoint``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, stage=stage, resume=False)
        p.add_argument("--config", required=True,
                       help="JSON config file ({} applies all defaults)")
        p.add_argument("--seed", type=int, help="override the config seed")
        if kg:
            p.add_argument("--kg", required=True, help="knowledge graph TSV triples")
        if data:
            p.add_argument("--data", required=True, help="dataset JSON lines file")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        if stage is not None:
            p.add_argument("--checkpoint", help="checkpoint file to load")
        if resume:
            p.add_argument("--resume", action="store_true",
                           help="resume the run recorded in the checkpoint")
        return p

    command("gen-data", "generate a synthetic world", cmd_gen_data, kg=False, data=False)
    command("pretrain", "stage-1 alignment pretraining", _train_command, STAGE_PRETRAIN,
            resume=True)
    command("finetune", "stage-2 task fine-tuning", _train_command, STAGE_FINETUNE,
            resume=True)
    command("eval", "evaluate a checkpoint", cmd_eval, STAGE_FINETUNE, out=False) \
        .add_argument("--out", help="optional output directory for metrics")
    command("retrieve", "print top-k knowledge matches", cmd_retrieve, STAGE_FINETUNE,
            out=False)
    command("ablate", "run the component ablation", cmd_ablate)
    check = sub.add_parser("check-grads", help="finite-difference gradient report")
    check.set_defaults(run=cmd_check_grads)
    check.add_argument("--seed", type=int, default=0)
    return parser


def _load_config(args) -> TrainConfig:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _prepare_state(cfg, graph, args):
    """The only way into a stage: the run resumed with ``--resume``, else a
    new one with ``--checkpoint``'s parameters if given, entering ``args.stage``."""
    if args.resume:
        path = args.checkpoint or os.path.join(args.out, CHECKPOINT_NAME)
        state = load_state(path, cfg, graph)
        if state.stage != args.stage:
            raise DataError(
                f"checkpoint {path} was saved in a different training stage")
        return state
    weights = load_checkpoint(args.checkpoint).tensors if args.checkpoint else None
    state = make_run(cfg, graph, weights)
    start_stage(state, args.stage)
    return state


def _load_run(args):
    """The run a command with a stage works on, and its examples: the config,
    then the graph, then the examples, then the run."""
    cfg = _load_config(args)
    graph = build_graph(load_triples(args.kg))
    examples = read_examples(args.data, cfg.n_classes, cfg.d_i, graph.node_index)
    return _prepare_state(cfg, graph, args), examples


def _append_log(out_dir, record):
    with open(os.path.join(out_dir, RUN_LOG_NAME), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _trim_log(out_dir, command, epochs_done):
    """Drop ``command``'s run-log lines whose epoch is a number above
    ``epochs_done``, and keep every other parsed line as it is.

    An epoch's line is appended before its checkpoint is saved, so an
    interrupt between the two leaves a line that the resumed run writes
    again; a line torn by an interrupted append is dropped as well.
    """
    path = os.path.join(out_dir, RUN_LOG_NAME)
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    kept = []
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not (isinstance(record, dict) and record.get("command") == command
                and type(record.get("epoch")) in (int, float)
                and record["epoch"] > epochs_done):
            kept.append(line + "\n")
    if len(kept) == len(lines):
        return
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as fh:
        fh.writelines(kept)
    os.replace(tmp_path, path)


def cmd_gen_data(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args)
    world_vocab = len(TEMPLATE_TOKENS) + cfg.world.n_entities
    if world_vocab != cfg.vocab_size:
        raise ConfigError(
            f"vocab_size: config says {cfg.vocab_size} but the world implies "
            f"{world_vocab} (template plus entity tokens)")
    cfg.validate(cfg.world.n_entities + cfg.world.n_attributes)  # every attribute is dealt
    os.makedirs(args.out, exist_ok=True)
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    examples = gen_dataset(world, cfg.world.n_examples, cfg.world.seed)
    kg_path = os.path.join(args.out, "kg.tsv")
    data_path = os.path.join(args.out, "dataset.jsonl")
    save_triples(kg_path, world.triples)
    write_examples(data_path, examples)
    graph = build_graph(load_triples(kg_path))
    print(json.dumps(subgraph_stats(graph), sort_keys=True))
    write_manifest(args.out, "gen-data", cfg, [args.config], ["kg.tsv", "dataset.jsonl"],
                   time.perf_counter() - started)
    return EXIT_OK


def _train_command(args) -> int:
    started = time.perf_counter()
    state, examples = _load_run(args)
    cfg = state.cfg
    os.makedirs(args.out, exist_ok=True)
    dataset = collate_dataset(state, examples)
    ckpt_path = os.path.join(args.out, CHECKPOINT_NAME)
    if args.stage == STAGE_PRETRAIN:
        total_epochs, run_epoch = cfg.pretrain_epochs, pretrain_epoch
    else:
        total_epochs, run_epoch = cfg.finetune_epochs, finetune_epoch
    if args.resume:
        _trim_log(args.out, args.command, state.epochs_done)
    while state.epochs_done < total_epochs:
        stats = run_epoch(state, dataset)
        record = {"command": args.command, "epoch": state.epochs_done, **stats}
        _append_log(args.out, record)
        save_state(ckpt_path, state)
    write_manifest(args.out, args.command, cfg,
                   [args.config, args.kg, args.data, args.checkpoint],
                   [CHECKPOINT_NAME, RUN_LOG_NAME], time.perf_counter() - started)
    return EXIT_OK


def cmd_eval(args) -> int:
    started = time.perf_counter()
    state, examples = _load_run(args)
    metrics = evaluate(state, examples)
    print(json.dumps(metrics, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, sort_keys=True, indent=2)
            fh.write("\n")
        write_manifest(args.out, "eval", state.cfg,
                       [args.config, args.kg, args.data, args.checkpoint],
                       ["metrics.json"], time.perf_counter() - started)
    return EXIT_OK


def cmd_retrieve(args) -> int:
    state, examples = _load_run(args)
    knowledge = knowledge_matrix(state)
    batch = collate_dataset(state, examples)
    fused = encode_rows(state.model, batch, state.cfg.batch_size)
    k = min(state.cfg.retrieve_k, state.graph.n_nodes)
    scores = cosine_scores(fused, knowledge.data)
    top = topk_indices(scores, k)
    sims = np.take_along_axis(scores, top, axis=1)
    for indices, similarities in zip(top, sims):
        for index, similarity in zip(indices, similarities):
            print(json.dumps({
                "node_id": state.graph.node_ids[index],
                "similarity": float(similarity),
            }, sort_keys=True))
    return EXIT_OK


def cmd_ablate(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    graph = build_graph(load_triples(args.kg))
    examples = read_examples(args.data, cfg.n_classes, cfg.d_i, graph.node_index)
    train, test = split_dataset(examples)
    seeds = (list(DEFAULT_ABLATION_SEEDS) if args.seed is None
             else [args.seed, args.seed + 1, args.seed + 2])
    rows = run_ablation(graph, train, test, cfg, seeds)
    csv_text = ablation_csv(rows, seeds)
    md_text = ablation_markdown(rows)
    with open(os.path.join(args.out, "ablation.csv"), "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    with open(os.path.join(args.out, "ablation.md"), "w", encoding="utf-8") as fh:
        fh.write(md_text)
    print(md_text, end="")
    write_manifest(args.out, "ablate", cfg, [args.config, args.kg, args.data],
                   ["ablation.csv", "ablation.md"], time.perf_counter() - started)
    return EXIT_OK


def cmd_check_grads(args) -> int:
    reports = run_gradient_report(master_seed=args.seed, rounds=3)
    all_ok = True
    for r in reports:
        verdict = "pass" if r.passed else "FAIL"
        print(f"{verdict} {r.name:26s} rounds={r.rounds} "
              f"max_rel_err={r.max_rel_err:.3e}")
        all_ok = all_ok and r.passed
    return EXIT_OK if all_ok else EXIT_NUMERIC


def _fail(code: int, message: str) -> int:
    print(json.dumps({"code": code, "message": message}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError("missing command; try --help")
        # non-finite values are reported as NumericError, not as warnings
        with np.errstate(all="ignore"):
            return args.run(args)
    except UsageError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except OSError as exc:
        return _fail(EXIT_DATA, f"{exc.__class__.__name__}: {exc}")
    except NumericError as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    except ValueError as exc:
        return _fail(EXIT_DATA, str(exc))


if __name__ == "__main__":
    sys.exit(main())
